"""As-of / nearest joins on ordered time columns.

Two operators:

- ``asof_join``: generic backward/forward as-of join per key: one
  :func:`cogroup` on the key, and inside each bucket one vectorized sort
  of both sides by (key, time) with a running max of right positions.

- ``closest_rows``: the reference's bidirectional closest-frame alignment
  (reference: 14_calculate_closest_frames.py:38-83): for every left row
  find the right row with minimal ``|t_l - t_r|``, examining the bisect
  neighbours ``pos-1``/``pos``, with ties broken to the row with the
  *smaller id* (14:70-72). Vectorized with ``np.searchsorted`` per group
  (the reference bisects row-at-a-time). Its brute-force O(n^2) oracle
  (14:7-34) is reimplemented in tests/test_asof.py. Key runs inside each
  co-group bucket come from the shared run kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.cogroup import _runs, cogroup


def _asof_index(lk: np.ndarray, lt: np.ndarray, rk: np.ndarray,
                rt: np.ndarray, backward: bool) -> np.ndarray:
    """Vectorized core of :func:`asof_join`: the matched right row per
    left row (-1 for none) — the latest right row with the same key and
    ``t_r <= t_l`` (backward), or the earliest with ``t_r >= t_l``
    (forward). One sort of both sides by (key, time) — right rows before
    left rows on equal times going backward, after them going forward,
    and walked in reverse going forward — then a running max of right
    positions within each key run finds the match."""
    n_l = len(lt)
    k = np.concatenate([lk, rk])
    t = np.concatenate([lt, rt])
    is_r = np.arange(len(k)) >= n_l
    order = np.lexsort((~is_r if backward else is_r, t, k))[::1 if backward else -1]
    pos = np.arange(len(k))
    ks, rs = k[order], is_r[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = ks[1:] != ks[:-1]
    run_start = np.maximum.accumulate(np.where(new, pos, 0))
    last = np.maximum.accumulate(np.where(rs, pos, -1))
    match = np.where(last >= run_start, order[np.maximum(last, 0)] - n_l, -1)
    out = np.empty(n_l, dtype=np.int64)
    out[order[~rs]] = match[~rs]
    return out


def asof_join(left, right, *, on: str, by: str, direction: str = "backward",
              right_cols: list[str] | None = None, suffix: str = "_right"):
    """Per-``by``-group as-of join of the ``right`` side onto the ``left``
    one (``(Dataset, schema)`` pairs); returns a Dataset.

    ``direction='backward'``: latest right row with t_r <= t_l (SQL ASOF);
    ``'forward'``: earliest right row with t_r >= t_l. Left rows keep
    their columns and types; matched right columns arrive suffixed where
    they collide with a left name (the ``on`` column always, as
    ``{on}{suffix}``), NULL when no match. One :func:`cogroup` on ``by``.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(direction)
    r_cols = right_cols or []
    (left_ds, lsch), (right_ds, rsch) = left, right
    rside = pa.schema([lsch.field(by), lsch.field(on)]
                      + [rsch.field(c) for c in r_cols])
    renamed = [c + suffix if c in lsch.names else c for c in r_cols]
    out = pa.schema(list(lsch) + [rsch.field(c).with_name(n)
                                  for c, n in zip(r_cols, renamed)]
                    + [lsch.field(on).with_name(f"{on}{suffix}")])

    def per_bucket(left: pa.Table, right: pa.Table) -> pa.Table:
        codes = pc.dictionary_encode(pa.concat_arrays(
            [left[by].combine_chunks(), right[by].combine_chunks()]))
        codes = codes.indices.to_numpy(zero_copy_only=False)
        idx = _asof_index(codes[:left.num_rows], _i64(left[on]),
                          codes[left.num_rows:], _i64(right[on]),
                          direction == "backward")
        take = pa.array(idx, mask=idx < 0)
        for c, n in zip(r_cols + [on], renamed + [f"{on}{suffix}"]):
            left = left.append_column(n, right[c].take(take))
        return left

    return cogroup([(left_ds, lsch), (right_ds, rside)], by, per_bucket,
                   schema=out)


def _i64(col) -> np.ndarray:
    """Ordered int64 view of a time-like column: integers as they are,
    timestamps as microseconds."""
    col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.timestamp("us")).cast(pa.int64())
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def closest_join_arrays(l_time: np.ndarray, l_id: np.ndarray,
                        r_time: np.ndarray, r_id: np.ndarray) -> np.ndarray:
    """Vectorized core of the reference's closest-frame rule.

    Inputs: right side sorted by (time, id). Returns the matched right id
    per left row: candidates are bisect neighbours pos-1 / pos
    (14_calculate_closest_frames.py:55-69); on |dt| tie the row with the
    smaller id wins (14:70-72).
    """
    n_r = len(r_time)
    if n_r == 0:
        return np.full(len(l_time), -1, dtype=np.int64)
    pos = np.searchsorted(r_time, l_time, side="left")
    lo = np.clip(pos - 1, 0, n_r - 1)
    # runs of equal right times: the smallest id lives at the run start
    # (right is sorted by (time, id)), so snap lo to its run's first entry;
    # hi = pos is already a run start by construction of side="left".
    lo = np.searchsorted(r_time, r_time[lo], side="left")
    hi = np.clip(pos, 0, n_r - 1)
    d_lo = np.abs(l_time - r_time[lo])
    d_hi = np.abs(l_time - r_time[hi])
    pick_lo = (d_lo < d_hi) | ((d_lo == d_hi) & (r_id[lo] <= r_id[hi]))
    return np.where(pick_lo, r_id[lo], r_id[hi])


def closest_rows(left, right, *, by: str = "log_id", time_col: str = "frame_time",
                 id_col: str = "frame_id", out_col: str = "closest_id"):
    """Bidirectional-capable nearest join (run twice with sides swapped for
    the reference's two update passes, 14:102-165) of two ``(Dataset,
    schema)`` sides. Returns left rows + ``out_col`` of the nearest right
    id (-1 when the right group is empty)."""
    (left_ds, lsch), (right_ds, rsch) = left, right
    rside = pa.schema([rsch.field(c) for c in (by, time_col, id_col)])

    def per_bucket(left: pa.Table, right: pa.Table) -> pa.Table:
        order, lstarts, lcounts = _runs(left[by].to_numpy(zero_copy_only=False))
        left = left.take(order)
        # right sorted by (key, time, id): ids break time ties
        right = right.sort_by([(by, "ascending"), (time_col, "ascending"),
                               (id_col, "ascending")])
        _, rstarts, rcounts = _runs(right[by].to_numpy(zero_copy_only=False))
        rruns = dict(zip(right[by].take(rstarts).to_pylist(),
                         zip(rstarts, rstarts + rcounts)))
        lt, li = left[time_col].to_numpy(), left[id_col].to_numpy()
        rt, ri = right[time_col].to_numpy(), right[id_col].to_numpy()
        out = np.full(left.num_rows, -1, dtype=np.int64)
        for key, s, c in zip(left[by].take(lstarts).to_pylist(), lstarts, lcounts):
            lo, hi = rruns.get(key, (0, 0))
            out[s:s + c] = closest_join_arrays(lt[s:s + c], li[s:s + c],
                                               rt[lo:hi], ri[lo:hi])
        return left.append_column(out_col, pa.array(out))

    return cogroup([(left_ds, lsch), (right_ds, rside)], by, per_bucket,
                   schema=lsch.append(pa.field(out_col, pa.int64())))
