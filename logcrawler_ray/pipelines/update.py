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


def _with_stats(t: pa.Table, stage: DecodeStats, batch_size: int) -> list:
    """``t``'s rows through ``stage`` in ``batch_size`` chunks, every
    column the stage does not produce carried through (aligned: the stage
    preserves row order)."""
    out = []
    for start in range(0, t.num_rows, batch_size):
        chunk = t.slice(start, batch_size)
        got = stage(chunk.select([c for c in ("image_id", "bytes", "w", "h", "fmt")
                                  if c in chunk.column_names]))
        for c in chunk.column_names:
            if c not in got.column_names:
                got = got.append_column(c, chunk[c])
        out.append(got)
    return out


def update_image_stats(store: ObjectStore, pid: str, *, batch_size: int = 128,
                       force: bool = False) -> int:
    """Compute/refresh stats columns for one partition; returns rows updated.

    Streams the partition through the same DecodeStats stage the ingest
    path uses (single implementation of M5/M6/M11), then merge_inserts the
    stat columns keyed by image_id. Every read goes through the store
    (any fsspec root; a view reads through its delete vectors).
    """
    import pyarrow.compute as pc

    if not store.files(pid):
        return 0
    schema_names = store.file_schema(pid).names
    stage = DecodeStats(keep_bytes=True)

    if "brightness" not in schema_names or force:
        # schema-widening / full-recompute pass: stream file-at-a-time
        # through the same DecodeStats stage (never the whole partition in
        # driver memory — store.rewrite_partition is per file). Key/count-
        # preserving by construction (stats columns only) — safe under
        # live views over this partition (CLI stats on an ingest's raw
        # partition)
        n = store.rows(pid)
        store.rewrite_partition(
            pid, lambda t: pa.concat_tables(_with_stats(t, stage, batch_size)),
            allow_view_base=True)
        return n

    # refresh pass: detect todo rows from the SKINNY columns only, then
    # fetch + recompute just those rows and upsert them
    skinny = store.read_table(pid, columns=["image_id", "brightness"])
    todo_ids = skinny.filter(pc.is_null(skinny["brightness"]))["image_id"]
    if todo_ids.length() == 0:
        return 0
    todo_set = todo_ids.combine_chunks()
    updated = []
    for t in store.iter_tables(pid):
        sel = t.filter(pc.is_in(t["image_id"], value_set=todo_set))
        updated += [out.select(schema_names)
                    for out in _with_stats(sel, stage, batch_size)]
    new = pa.concat_tables(updated)
    # refresh upserts EXISTING image_ids only — key/count-preserving
    store.merge_insert(pid, new, key="image_id", allow_view_base=True)
    return new.num_rows
