"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash ->
CORRECTNESS_r{N}.json).

No ``ray.init()`` / ``ray.shutdown()`` here or in the library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001.

    Reads the documents table to size a deterministic synthetic image+caption
    corpus (the BASELINE.json ``input_hint`` shape — this container has no
    image data, so the corpus is synthesized from seed 42 exactly as in
    tests/bench), then runs the flagship ingest's stages without a store,
    as q25 does: decode+stats+phash actor pool -> error-channel filter ->
    host-hash bucket, materialized once -> exact phash dedup. Returns the
    resulting Dataset (bytes dropped so the smoke result stays light).
    """
    import pyarrow.parquet as pq

    from logcrawler_ray.pipelines.ingest import add_bucket, decode_pipeline
    from logcrawler_ray.sources.corpus import corpus_dataset
    from logcrawler_ray.stages.dedup import dedup_exact

    n_docs = pq.read_metadata(f"{SF0001}/documents.parquet").num_rows
    n = max(64, min(n_docs, 256))
    src = corpus_dataset(n, seed=42, batch_size=64)
    pre = add_bucket(decode_pipeline(src, concurrency=2, batch_size=64,
                                     keep_bytes=False)).materialize()
    return dedup_exact(pre, key="phash", order_col="image_id")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from logcrawler_ray import queries as q

    return q.QUERIES


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for each queries() key (omissions = rows-only)."""
    from logcrawler_ray import queries as q

    return q.ORACLE_SQL
