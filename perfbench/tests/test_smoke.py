"""Smoke test of the benchmark harness.

Runs every workload at the tiny size, untraced and traced, and asserts that
every metric in ``metrics.py`` (which ``BENCHMARK.json`` repeats) is
printed with its unit, that every correctness check passed, and that the
count metrics repeat exactly for a fixed seed. Takes a few minutes:

    python -m pytest perfbench/tests -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402

WORKLOADS = ["crawl", "ingest"]
_results: dict[tuple, dict] = {}


def _run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT,
         script: str = os.path.join(BENCH, "run.py")) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, attempt: int = 0) -> dict:
    key = (workload, trace, attempt)
    if key not in _results:
        p = _run(workload, trace)
        assert p.returncode == 0, p.stderr[-4000:]
        _results[key] = json.loads(p.stdout.strip().splitlines()[-1])
    return _results[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_checks_pass(workload, trace):
    r = result(workload, trace)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True
    assert r["failed"] == 0 and r["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(r["metrics"]) == set(table)
    for name, m in r["metrics"].items():
        assert m["unit"] == table[name][0], name
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in r["metrics"].values()), r["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall(workload):
    m = {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}
    assert m["trace.coverage_frac"] >= 0.95
    assert m["failed_frac"] == 0
    if workload == "ingest":
        assert m["ingest.rows_written"] > 0 and m["ingest.stage_cpu_us_per_row"] > 0
        assert m["ingest.rows_written"] + m["ingest.losers"] == m["ingest.rows_in"]
    else:
        assert m["crawl.fetched"] > 0 and m["wavestage.cpu_us_per_row"] > 0
        assert m["crawl.written"] + m["crawl.error_rows"] == m["crawl.fetched"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(workload):
    names = [n for n, (unit, _) in metrics.PER_LAYER.items()
             if unit in ("count", "bytes", "ratio")]
    a = result(workload, 1)["metrics"]
    b = result(workload, 1, attempt=1)["metrics"]
    assert {n: a[n]["value"] for n in names} == {n: b[n]["value"] for n in names}


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == metrics.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("crawl", 0, cwd=str(tmp_path),
             script=str(tmp_path / "perfbench" / "run.py"))
    assert p.returncode != 0
    assert not p.stdout.strip()
