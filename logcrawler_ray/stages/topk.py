"""Distributed exact top-k per group, and the stratified sampler built on it.

Two-phase shape (the partial-aggregation rule applied to ORDER BY ... LIMIT):

1. per-BATCH prune inside ``map_batches``: every block keeps at most ``k``
   rows per group it sees, so the shuffle carries O(k x groups_per_block)
   rows per block instead of the full table;
2. ONE :func:`cogroup` shuffle on coarse group-key buckets, and the same
   prune runs once more per bucket, now globally exact.

The prune is a stable Arrow sort + a vectorized rank-in-run — ties
are broken by the caller-supplied ``tiebreak_cols`` so results are a
deterministic set, independent of block layout.

``stratified_sample_hash`` reuses the operator with a multiplicative-hash
order column: "keep the k hash-smallest rows per stratum" IS top-k per
group, and the hash makes the sample deterministic, uniform within each
stratum, and expressible in ANSI SQL for the oracle (q60).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.cogroup import arrow_schema, cogroup

# Knuth's multiplicative constant: spreads sequential ids uniformly over
# [0, 2^32). Kept as plain SQL-expressible arithmetic ((id * A) % 2^32) so
# the DuckDB oracle can reproduce the exact sample.
HASH_MULT = 2654435761
HASH_MOD = 1 << 32


def _prune(t: pa.Table, group_col: str, sort_keys: list, k: int) -> pa.Table:
    """The first ``k`` rows of each group of ``t`` under ``sort_keys``
    (a stable Arrow sort). A NULL group key is one real partition under
    SQL ROW_NUMBER() semantics — dropping it would silently delete those
    rows from the result (ADVICE r3) — so runs are taken over dictionary
    codes, where every null key shares one code."""
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    codes = pc.dictionary_encode(t[group_col].combine_chunks(),
                                 null_encoding="encode").indices.to_numpy()
    pos = np.arange(len(codes))
    new = np.ones(len(codes), dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    return t.filter(pa.array(pos - np.maximum.accumulate(np.where(new, pos, 0)) < k))


def topk_per_group(ds, *, group_col: str, order_col: str, k: int,
                   descending: bool = True,
                   tiebreak_cols: tuple[str, ...] = (), buckets: int = 64):
    """Exact top-k rows per group; returns a Dataset with the input columns.

    Deterministic iff ``(order_col, *tiebreak_cols)`` is a total order
    within each group (pass the primary key as the last tiebreak).
    """
    sort_keys = [(group_col, "ascending"),
                 (order_col, "descending" if descending else "ascending")] \
        + [(c, "ascending") for c in tiebreak_cols]
    sch = arrow_schema(ds)

    def prune(t: pa.Table) -> pa.Table:
        return _prune(t, group_col, sort_keys, k)

    return cogroup([(ds.map_batches(prune, batch_format="pyarrow"), sch)],
                   group_col, prune, schema=sch, n_buckets=buckets)


def stratified_sample_hash(ds, *, stratum_col: str, id_col: str, k: int,
                           buckets: int = 64):
    """Deterministic uniform sample of up to ``k`` rows per stratum.

    Order = ``(id * HASH_MULT) % 2^32`` ascending (ties -> smaller id):
    a rate-free stratified sampler — every stratum contributes
    ``min(k, |stratum|)`` rows, stable under repartitioning and resume.
    """
    def add_hash(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = (ids * np.int64(HASH_MULT)) % np.int64(HASH_MOD)
        return t.append_column("__h", pa.array(h, pa.int64()))

    out = topk_per_group(
        ds.map_batches(add_hash, batch_format="pyarrow"),
        group_col=stratum_col, order_col="__h", k=k, descending=False,
        tiebreak_cols=(id_col,), buckets=buckets)
    return out.drop_columns(["__h"])
