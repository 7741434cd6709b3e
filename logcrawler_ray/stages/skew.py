"""Skew handling: salted aggregation and host-hash repartitioning.

The reference handles no skew — one giant log stalls its whole sequential
run (SURVEY.md §4). At crawl scale the hot host is the canonical skewed
key (the synthetic web plants one holding ~30% of rows), so:

- ``salted_aggregate``: two-phase groupby for skewed keys. Phase 1 is a
  map-side combiner (each batch reduces to one partial row per key it
  sees) — the hot key's volume collapses BEFORE any shuffle, which
  subsumes explicit salting for algebraic aggregates
  (sum/count/min/max — exactly the mergeable-partial condition); phase 2
  merges partials under one coarse-bucket shuffle.

- ``repartition_by_key``: explicit hash co-location of a key's rows
  (an identity :func:`cogroup` on the key), used before stages
  that want per-host locality (politeness batching, per-host outputs).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.cogroup import N_BUCKETS, cogroup


def salted_aggregate(side, key: str, agg_cols: dict[str, str],
                     num_buckets: int = N_BUCKETS):
    """Two-phase skew-safe aggregation of ``side`` (a ``(Dataset, schema)``
    pair).

    agg_cols: {column: "sum"|"count"|"min"|"max"}. Returns a Dataset with
    one row per key and the same output column names; their types follow
    statically from the side's (partials of its empty table).

    Phase 1 is a map-side COMBINER: each batch reduces to one row per key
    it sees (C-level Arrow group_by), so a hot key contributes O(blocks)
    partial rows instead of its full row count — for algebraic aggregates
    the combiner subsumes explicit key salting (a salt bound only matters
    when phase 1 is itself a shuffle). Phase 2 merges the partials under ONE :func:`cogroup`
    — a native per-key ``groupby(key).aggregate`` pays per-GROUP cost
    (~17-150 us/distinct key, the r3 CLAUDE.md lesson), the wrong shape
    when key cardinality is the user/host population.
    """
    _PARTIAL = {"sum": "sum", "count": "count_all", "min": "min", "max": "max"}
    _MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
    for how in agg_cols.values():
        if how not in _PARTIAL:
            raise ValueError(how)

    def combine(t: pa.Table, fns: dict) -> pa.Table:
        """One row per key (null keys included) of ``t``, Arrow-native."""
        g = t.group_by(key, use_threads=False).aggregate(
            [(([] if fns[out] == "count_all" else out), fns[out])
             for out in agg_cols])
        return g.rename_columns([key, *agg_cols])  # keys come first

    def partials(t: pa.Table) -> pa.Table:
        return combine(t, {o: _PARTIAL[h] for o, h in agg_cols.items()})

    def merge(t: pa.Table) -> pa.Table:
        return combine(t, {o: _MERGE[h] for o, h in agg_cols.items()})

    ds, sch = side
    sch = partials(sch.empty_table()).schema
    return cogroup([(ds.map_batches(partials, batch_format="pyarrow"), sch)],
                   key, merge, schema=sch, n_buckets=num_buckets)


def repartition_by_key(side, key_hash_col: str, n_buckets: int):
    """Co-locate rows by hash bucket: add bucket column, then one shuffle.

    All rows of a bucket land in the same output partition group, so a
    downstream ``map_batches`` sees hosts co-located (the §7.4 partition
    discipline); the salt trick above is for when ONE key exceeds a
    partition. ``side`` is a ``(Dataset, schema)`` pair."""
    return cogroup([side], key_hash_col, lambda t: t, schema=side[1],
                   n_buckets=n_buckets)
