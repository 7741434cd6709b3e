"""Distributed range (interval) join — the third member of the custom-join
family next to the as-of join (stages/asof.py J4) and the bbox overlap joins
(functions/bbox.py J5/J6).

``range_join(left, right, by=k, on=t, lower=a, upper=b)`` emits one row per
pair ``(l, r)`` with ``r[k] == l[k]`` and ``l[t] + a <= r[t] < l[t] + b``
(half-open, so back-to-back windows never double-count a right row).

Ray-Data shape — the co-group pattern shared with ``asof_join``:

- ONE :func:`cogroup` of both sides on coarse buckets of the key,
- inside each bucket a fully vectorized sweep: sort right by ``(key, t)``,
  build a collision-free composite ``block_rank * BIG + (t - tmin)`` and
  answer every left row's window with two ``np.searchsorted`` calls, then
  expand the ``[lo, hi)`` ranges into pairs with the cumsum/repeat trick —
  no per-row Python, no per-key loop on the main path.

The composite is exact only while ``n_distinct_keys_in_bucket * BIG`` fits
int64 (BIG = right-time span + 2); a measured guard falls back to a
per-key-block sweep when data is that wide. Partitioning assumption: a
single ``by``-key's rows fit one task (same contract as ``asof_join`` and
every SQL engine's partitioned window).

Cost model at scale: the only shuffle is the co-group on ``by``; output
size is the true pair count (the window bounds it), never |L| x |R|.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.cogroup import arrow_schema, cogroup
from .asof import _i64

_I64_MAX = (1 << 63) - 1


def range_pairs_arrays(by_l, on_l: np.ndarray, by_r, on_r: np.ndarray,
                       lower: int, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized core: indices (l_take, r_take) of all matching pairs.

    ``by_r``/``on_r`` MUST already be sorted by (key, time); ``on_*`` are
    int64. Returns positional indices into the given arrays.
    """
    n_l, n_r = len(on_l), len(on_r)
    if n_l == 0 or n_r == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    # block starts of each distinct right key (right is key-sorted)
    new_key = np.empty(n_r, dtype=bool)
    new_key[0] = True
    new_key[1:] = by_r[1:] != by_r[:-1]
    uniq = by_r[new_key]
    block_rank_r = np.cumsum(new_key) - 1  # per right row
    rank_l = np.searchsorted(uniq, by_l)
    rank_lc = np.minimum(rank_l, len(uniq) - 1)
    valid = uniq[rank_lc] == by_l

    tmin = int(on_r.min())
    span = int(on_r.max()) - tmin
    big = span + 2
    if (len(uniq) - 1) * big + span + 1 > _I64_MAX:  # pure-python ints (CLAUDE.md)
        return _range_pairs_blocked(on_l, on_r, rank_lc, valid, new_key, lower, upper)

    comp_r = block_rank_r * np.int64(big) + (on_r - tmin)
    # window offsets clipped into [0, span+1]: any query below the block's
    # range resolves to its start, any above to just past its end (< big,
    # so it can never spill into the next key's block)
    q_lo = np.clip(on_l + lower - tmin, 0, span + 1) + rank_lc * np.int64(big)
    q_hi = np.clip(on_l + upper - tmin, 0, span + 1) + rank_lc * np.int64(big)
    lo = np.searchsorted(comp_r, q_lo, side="left")
    hi = np.searchsorted(comp_r, q_hi, side="left")
    return _expand(lo, np.where(valid, np.maximum(hi - lo, 0), 0))


def _range_pairs_blocked(on_l, on_r, rank_lc, valid, new_key,
                         lower: int, upper: int):
    """Fallback when the composite would overflow int64: per-key-block
    searchsorted (python loop over DISTINCT keys, vectorized within)."""
    starts = np.flatnonzero(new_key)
    ends = np.append(starts[1:], len(on_r))
    lo = np.zeros(len(on_l), dtype=np.int64)
    hi = np.zeros(len(on_l), dtype=np.int64)
    for b in np.unique(rank_lc[valid]):
        sel = valid & (rank_lc == b)
        seg = on_r[starts[b]:ends[b]]
        lo[sel] = starts[b] + np.searchsorted(seg, on_l[sel] + lower, side="left")
        hi[sel] = starts[b] + np.searchsorted(seg, on_l[sel] + upper, side="left")
    return _expand(lo, np.where(valid, np.maximum(hi - lo, 0), 0))


def _expand(lo: np.ndarray, counts: np.ndarray):
    """[lo_i, lo_i+counts_i) per left row -> flat (l_take, r_take)."""
    total = int(counts.sum())
    l_take = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ends = np.cumsum(counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return l_take, np.repeat(lo, counts) + offs


def range_join(left_ds, right_ds, *, by: str, on: str, lower: int, upper: int,
               right_cols: list[str] | None = None, suffix: str = "_right",
               buckets: int = 64):
    """Inner range join; returns a Dataset of pair rows.

    ``lower``/``upper`` are integer offsets in the ``on`` column's unit
    (microseconds for timestamps). Output = all left columns + the right
    ``on`` and ``right_cols``, suffixed where the name collides with a
    left column.
    """
    import pyarrow.compute as pc

    r_cols = [on] + [c for c in (right_cols or []) if c != on]
    lsch, rsch = arrow_schema(left_ds), arrow_schema(right_ds)
    rside = pa.schema([lsch.field(by), lsch.field(on)]
                      + [rsch.field(c) for c in r_cols[1:]])
    out_names = [c + suffix if c in lsch.names else c for c in r_cols]
    out = pa.schema(list(lsch) + [rside.field(c).with_name(n)
                                  for c, n in zip(r_cols, out_names)])

    def per_bucket(left: pa.Table, right: pa.Table) -> pa.Table:
        codes = pc.dictionary_encode(pa.concat_arrays(
            [left[by].combine_chunks(), right[by].combine_chunks()]))
        codes = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        lc, rc = codes[:left.num_rows], codes[left.num_rows:]
        rt = _i64(right[on])
        order = np.lexsort((rt, rc))  # right sorted by (key, time)
        l_take, r_take = range_pairs_arrays(lc, _i64(left[on]), rc[order],
                                            rt[order], int(lower), int(upper))
        right = right.take(order)
        res = left.take(l_take)
        for c, n in zip(r_cols, out_names):
            res = res.append_column(n, right[c].take(r_take))
        return res

    return cogroup([(left_ds, lsch), (right_ds, rside)], by, per_bucket,
                   schema=out, n_buckets=buckets)
