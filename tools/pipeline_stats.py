"""Dump ``ds.stats()`` for the flagship pipelines — the per-stage
wall/cpu/rows breakdown used to tune batch sizes, pool sizes and block
counts (the evidence behind CLAUDE.md's perf lessons).

Usage: python tools/pipeline_stats.py [n_rows]
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _importable_root() -> None:
    """Put the repo root on this process's sys.path and, through
    PYTHONPATH, on the Ray workers' (they inherit the environment, not
    sys.path)."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)


def main() -> None:
    _importable_root()
    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", 8)),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from logcrawler_ray.pipelines.ingest import add_bucket, decode_pipeline
    from logcrawler_ray.sources.corpus import corpus_dataset

    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    ds = corpus_dataset(n, seed=42, batch_size=256)
    ds = decode_pipeline(ds, concurrency=None, batch_size=128)
    ds = add_bucket(ds)
    ds = ds.materialize()
    print(ds.stats())
    ray.shutdown()


if __name__ == "__main__":
    main()
