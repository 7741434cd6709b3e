"""Layered crawl/ingest benchmark. One workload per invocation:

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 16 --trace 0

Workloads: ``crawl`` and ``ingest`` (see README.md). ``--trace 0`` prints
the end-to-end metrics of untraced iterations; ``--trace 1`` prints the
per-layer metrics of a separate traced pass and writes its spans to
``.bench_work/trace/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give each metric by name with its unit and the run's environment
(nproc, Ray and pyarrow versions, DataContext overrides, raw times and
host-speed factors).

Run it from the repository root; it reads and writes only below that root
(inputs and scratch in ``.bench_work/``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402

SETUPS = 3  # session set-ups per untraced run; setup_s is their median


def _measure(wl, seconds: float, tr, first_index: int) -> tuple[list[dict], int, int]:
    """Closed loop: iterations back to back until the next one would end
    past ``seconds`` of timed work (always at least one). Checks and
    cleanup run between iterations, off the clock."""
    its: list[dict] = []
    attempted = failed = 0
    timed = 0.0
    while True:
        i = first_index + len(its)
        try:
            mark = tr.mark() if tr.enabled else 0
            with tr.span("iteration"):
                it = wl.iteration(i, tr)
            if tr.enabled:
                it["span_range"] = (mark, tr.mark())
            wl.check(it)
            if not wl.ref_checked:
                attempted += 1
                failed += not wl.reference_check(it)
        except Exception as e:  # report the failure, keep the result line
            print(f"# iteration {i} failed: {e!r}", file=sys.stderr)
            return its, attempted + 1, failed + 1
        attempted += it["attempted"]
        failed += it["failed"]
        wl.cleanup(it)
        its.append(it)
        wall = it["wall_iv"][1] - it["wall_iv"][0]
        timed += wall
        if timed + wall > seconds:
            return its, attempted, failed


def _scale_times(its: list[dict], hs) -> None:
    """Turn each iteration's timed intervals into host-speed-scaled seconds."""
    def scaled(iv):
        return (iv[1] - iv[0]) * hs.factor(*iv)

    for it in its:
        it["f"] = hs.factor(*it["wall_iv"])
        it["raw_wall"] = it["wall_iv"][1] - it["wall_iv"][0]
        it["wall"] = it["raw_wall"] * it["f"]
        it["wave_s"] = [scaled(iv) for iv in it.get("wave_iv", ())] or [it["wall"]]
        it["resume_s"] = statistics.median(sum(scaled(iv) for iv in probe)
                                           for probe in it["resume_probes"])


def _pct(xs: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), q))


def _end_to_end(wl, its: list[dict], setup_s: float) -> dict:
    tp = [wl.throughput(it) for it in its]
    steps = [w for it in its for w in it["wave_s"]]  # crawl waves / ingest passes
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(it["wall"] for it in its),
        "urls_per_s": statistics.median(t["urls"] for t in tp),
        "rows_per_s": statistics.median(t["rows"] for t in tp),
        "mb_per_s": statistics.median(t["mb"] for t in tp),
        "wave_s_p50": _pct(steps, 50),
        "wave_s_p90": _pct(steps, 90),
        "resume_s": statistics.median(it["resume_s"] for it in its),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _coverage(tr: spans.Tracer, it: dict) -> float:
    """Share of the traced iteration's wall covered by its top-level spans."""
    win = tr.window(*it["span_range"])
    root = win[0]  # the "iteration" span
    return tr.top_level_time(win, root["id"]) / (root["end"] - root["start"])


def _per_layer(wl, base: list[dict], traced: list[dict], tr: spans.Tracer, hs,
               attempted: int, failed: int) -> dict:
    t0 = time.perf_counter()
    replay = wl.replay(traced)
    f = hs.factor(t0, time.perf_counter())
    replay = {k: v * f if k.endswith("_per_row") else v for k, v in replay.items()}
    values = {name: 0.0 for name in metrics.PER_LAYER}
    values.update(wl.layer_metrics(traced, base, tr, replay))
    values["trace.coverage_frac"] = min(_coverage(tr, it) for it in traced)
    values["trace.overhead_frac"] = (
        statistics.median(it["wall"] for it in traced)
        / statistics.median(it["wall"] for it in base) - 1.0)
    values["failed_frac"] = failed / attempted
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal",
                    help="input size; tiny is for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "logcrawler_ray")):
        print(f"perfbench: no logcrawler_ray package under {ROOT}", file=sys.stderr)
        return 2
    session.prepare_env()
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = session.work_dir()
    run_dir = os.path.join(work, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    seed = workloads.inputs.workload_seed(args.seed)
    wl = workloads.WORKLOADS[args.workload](args.workload, args.size, seed, work, run_dir)
    hs = hostspeed.HostSpeed(os.path.join(run_dir, "probe.txt"))
    sess = session.Session()
    setups = 1 if args.trace else SETUPS
    try:
        hs.wait_ready()
        # set-up: session start + worker warm-up, several times; input
        # synthesis once (a miss costs its synthesis, a hit a file read)
        start_ivs = []
        for k in range(setups):
            t0 = time.perf_counter()
            sess.start()
            start_ivs.append((t0, time.perf_counter()))
            if k == 0:
                t0 = time.perf_counter()
                cache_hit = wl.prepare()
                synth_iv = (t0, time.perf_counter())
            if k < setups - 1:
                sess.stop()
        wl.warm()

        if not args.trace:
            its, attempted, failed = _measure(wl, args.seconds, spans.NullTracer(), 0)
        else:
            base, a0, f0 = _measure(wl, args.seconds / 2, spans.NullTracer(), 0)
            tr = spans.Tracer()
            traced, a1, f1 = _measure(wl, args.seconds / 2, tr, len(base))
            attempted, failed = a0 + a1, f0 + f1
            its = base + traced
        _scale_times(its, hs)
        starts = [(b - a) * hs.factor(a, b) for a, b in start_ivs]
        synth_s = (synth_iv[1] - synth_iv[0]) * hs.factor(*synth_iv)
        setup_s = statistics.median(starts) + synth_s
        values: dict = {}
        if not args.trace:
            table = metrics.END_TO_END
            if its:
                values = _end_to_end(wl, its, setup_s)
        else:
            table = metrics.PER_LAYER
            if base and traced:
                values = _per_layer(wl, base, traced, tr, hs, attempted, failed)
                trace_dir = os.path.join(work, "trace")
                os.makedirs(trace_dir, exist_ok=True)
                tr.dump(os.path.join(trace_dir, f"{args.workload}-s{args.seed}.jsonl"))
    finally:
        sess.stop()
        sess.close()
        hs.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    env = {**session.versions(), "workload": args.workload, "seed": args.seed,
           "size": args.size, "trace": args.trace, "seconds": args.seconds,
           "iterations": len(its), "setups": setups, "input_cache_hit": cache_hit,
           "input": getattr(wl, "facts", None),
           "host_factor": [round(it["f"], 4) for it in its],
           "raw_wall_s": [round(it["raw_wall"], 4) for it in its],
           "raw_setup_s": [round(b - a, 4) for a, b in start_ivs]}
    print("# env " + json.dumps(env))
    out = {}
    for name, spec in table.items():
        if name in values:
            out[name] = {"value": values[name], "unit": spec[0]}
            print(f"# {name} = {values[name]:.6g} {spec[0]}")
    correct = bool(its) and failed == 0 and len(out) == len(table)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
