"""Second-pass update pipelines over the table store — the reference's
bulk_update scripts re-expressed as partition rewrites.

``update_image_stats`` mirrors 13_calculate_image_stats.py:61-124: list
rows lacking stats, fetch their payloads (here: already co-located in the
store partition), compute grayscale/brightness/blurredness/resolution, and
upsert — ``bulk_update`` every 100 rows becomes one atomic
``merge_insert`` per partition. Resume is free: rows that already carry
stats are skipped on rerun, like the reference's is_done count checks.
"""

from __future__ import annotations

import pyarrow as pa

from ..sources.objstore import ObjectStore
from ..stages.decode import DecodeStats


def update_image_stats(store: ObjectStore, pid: str, *, batch_size: int = 128,
                       force: bool = False) -> int:
    """Compute/refresh stats columns for one partition; returns rows updated.

    Streams the partition through the same DecodeStats stage the ingest
    path uses (single implementation of M5/M6/M11), then merge_inserts the
    stat columns keyed by image_id.
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    files = store.files(pid)
    if not files:
        return 0
    schema_names = pq.read_schema(files[0]).names
    have_stats = "brightness" in schema_names
    stage = DecodeStats(keep_bytes=True)

    if not have_stats or force:
        # schema-widening / full-recompute pass: stream fragment-at-a-time
        # through the same DecodeStats stage (never the whole partition in
        # driver memory — store.rewrite_partition is per fragment)
        n = store.rows(pid)

        def widen(frag: pa.Table) -> pa.Table:
            out_parts = []
            for start in range(0, frag.num_rows, batch_size):
                chunk = frag.slice(start, batch_size)
                base_cols = [c for c in ("image_id", "bytes", "w", "h", "fmt")
                             if c in chunk.column_names]
                out = stage(chunk.select(base_cols))
                carry = [c for c in chunk.column_names if c not in out.column_names]
                for c in carry:  # aligned: stage preserves row order
                    out = out.append_column(c, chunk[c])
                out_parts.append(out)
            return pa.concat_tables(out_parts)

        # key/count-preserving by construction (stats columns only) —
        # safe under live views over this partition (CLI stats on an
        # ingest's raw partition)
        store.rewrite_partition(pid, widen, allow_view_base=True)
        return n

    # refresh pass: detect todo rows from the SKINNY columns only, then
    # fetch + recompute just those rows and upsert per-fragment
    skinny = store.read_table(pid, columns=["image_id", "brightness"])
    todo_ids = skinny.filter(pc.is_null(skinny["brightness"]))["image_id"]
    if todo_ids.length() == 0:
        return 0
    todo_set = todo_ids.combine_chunks()
    updated = []
    for f in files:
        frag = pq.read_table(f)
        sel = frag.filter(pc.is_in(frag["image_id"], value_set=todo_set))
        for start in range(0, sel.num_rows, batch_size):
            chunk = sel.slice(start, batch_size)
            base_cols = [c for c in ("image_id", "bytes", "w", "h", "fmt")
                         if c in chunk.column_names]
            out = stage(chunk.select(base_cols))
            carry = [c for c in chunk.column_names if c not in out.column_names]
            for c in carry:
                out = out.append_column(c, chunk[c])
            updated.append(out.select(schema_names))
    new = pa.concat_tables(updated)
    # refresh upserts EXISTING image_ids only — key/count-preserving
    store.merge_insert(pid, new, key="image_id", allow_view_base=True)
    return new.num_rows
