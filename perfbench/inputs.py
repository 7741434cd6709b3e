"""Seeded workload inputs, cached on disk by (kind, seed, size).

The program under test receives only these generated inputs: a
``CrawlConfig`` plus its seed URL list, or a synthesized corpus parquet
directory. A cache entry is written to a temporary name and renamed into
place when complete, so an interrupted synthesis is never reused.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq


def _cache_dir(work: str) -> str:
    path = os.path.join(work, "cache")
    os.makedirs(path, exist_ok=True)
    return path


def workload_seed(seed: int) -> int:
    """The library's hash mixing wants a non-negative seed below 2**31."""
    return seed % (1 << 31)


def cached_json(work: str, key: str, build) -> tuple[dict, bool]:
    """Return (value, hit). ``build()`` must return a JSON-able dict."""
    path = os.path.join(_cache_dir(work), key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f), True
    value = build()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(value, f)
    os.replace(tmp, path)
    return value, False


def crawl_key(seed: int, cfg_kwargs: dict, n_seeds: int) -> str:
    cfg = "-".join(f"{k}{v}" for k, v in sorted(cfg_kwargs.items()))
    return f"s{seed}-{cfg}-n{n_seeds}"


def crawl_inputs(work: str, seed: int, cfg_kwargs: dict, n_seeds: int) -> tuple[dict, bool]:
    """CrawlConfig kwargs + the seed URL list the synthetic web offers."""
    from logcrawler_ray.pipelines.crawl import CrawlConfig

    def build() -> dict:
        cfg = CrawlConfig(seed=seed, **cfg_kwargs)
        return {"cfg": {"seed": seed, **cfg_kwargs},
                "seeds": cfg.web().seed_urls(n_seeds)}

    return cached_json(work, "crawl-" + crawl_key(seed, cfg_kwargs, n_seeds), build)


def corpus(work: str, seed: int, n_rows: int, n_files: int) -> tuple[str, dict, bool]:
    """Synthesize (or reuse) a corpus via ``write_corpus_parquet``.

    Returns (directory, facts, hit); facts hold the input row count, the
    distinct-phash count (the dedup oracle) and the payload byte total."""
    from logcrawler_ray.sources.corpus import write_corpus_parquet

    final = os.path.join(_cache_dir(work), f"corpus-s{seed}-n{n_rows}-f{n_files}")
    facts_path = os.path.join(final, "_facts.json")
    if os.path.exists(facts_path):
        with open(facts_path) as f:
            return final, json.load(f), True
    tmp = f"{final}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write_corpus_parquet(tmp, n_rows, seed=seed, batch_size=128, num_files=n_files)
    t = pq.read_table(tmp, columns=["phash", "bytes", "fmt", "w", "h"])
    facts = {
        "rows": t.num_rows,
        "distinct_phash": len(pc.unique(t["phash"])),
        "payload_bytes": int(pc.sum(pc.binary_length(t["bytes"])).as_py()),
        "files": sum(f.endswith(".parquet") for f in os.listdir(tmp)),
        "fmt_rows": {k: int(v) for k, v in zip(
            *[c.to_pylist() for c in pc.value_counts(t["fmt"]).flatten()])},
        "rows_640x480": int(pc.sum(pc.and_(pc.equal(t["w"], 640),
                                           pc.equal(t["h"], 480))).as_py() or 0),
    }
    with open(os.path.join(tmp, "_facts.json"), "w") as f:
        json.dump(facts, f)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final, facts, False


def parquet_files(path: str) -> list[str]:
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))
