"""Distributed quantiles: exact per-group percentiles and a mergeable
histogram sketch for global quantiles at corpus scale.

The reference computes no percentiles (its analytics are counts/means —
SURVEY.md §2.6 A5/A6); these follow the repo's custom-operator contract
(SCALE.md §7): one coarse-bucket shuffle, a single partition-key's rows
fit one task, vectorized per-bucket work.

- :func:`grouped_percentiles`: EXACT discrete percentiles per group — the
  value at index ``max(0, ceil(q*n) - 1)`` of the group's sorted values,
  i.e. an actual element (dtype-preserving, bit-reproducible) under the
  same index rule DuckDB's ``quantile_disc`` uses (parity verified by a
  616-point DuckDB sweep over q x n incl. float-boundary products), so
  the oracle is plain ANSI-ish SQL.
- :func:`quantile_sketch` + :func:`sketch_quantiles`: GLOBAL quantiles
  over 10^10 rows with fixed memory. Pass 1 is a native min/max (two
  scalars); pass 2 bins each batch into ``nbins`` uniform bins — int64
  count vectors that merge by addition, reduced with the same
  coarse-bucket combine as everything else. The estimate's value error
  is <= one bin width ((max - min) / nbins); rank order is exact across
  bins. Deterministic: binning depends only on (min, max, nbins).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.cogroup import _runs, arrow_schema, cogroup


def _disc_index(q: float, n: np.ndarray) -> np.ndarray:
    """Index of the discrete q-quantile in a sorted run of length n —
    DuckDB quantile_disc's element: max(0, ceil(q*n) - 1). The product is
    nudged one ulp DOWN before ceil: when the exact q*n is an integer but
    the double rounds a hair above it (e.g. 0.07 * 100 = 7.000...001),
    a raw ceil lands one element high and breaks oracle parity (found by
    a 400-point DuckDB sweep)."""
    prod = np.nextafter(q * n.astype(np.float64), -np.inf)
    return np.maximum(0, np.ceil(prod).astype(np.int64) - 1)


def grouped_percentiles(ds, group_col: str, value_col: str,
                        qs: dict[str, float], num_buckets: int = 64):
    """Exact per-group discrete percentiles, one output column per entry
    of ``qs`` ({out_name: quantile in (0, 1]}).

    ONE coarse-bucket shuffle of the (group, value) projection; inside a
    bucket the whole computation is a sort + run-boundary index pick —
    no per-group Python (SCALE.md §7 contract: a group's rows fit one
    task). Output values are actual elements of the input column, so the
    result is dtype-preserving and hash-comparable to SQL quantile_disc.
    """
    import pyarrow.compute as pc

    for name, q in qs.items():
        if not 0 < q <= 1:
            raise ValueError(f"{name}: quantile {q} outside (0, 1]")

    sch = arrow_schema(ds)
    rows = pa.schema([sch.field(group_col), sch.field(value_col)])
    val_type = rows.field(value_col).type
    out = rows.remove(1)
    for name in qs:
        out = out.append(pa.field(name, val_type))

    def drop_nulls(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col])
        # quantile_disc ignores NULL values — drop them BEFORE the shuffle
        # (ADVICE r3: a NULL/NaN that survives to the sort is picked as a
        # high percentile). But a group must not VANISH when all its
        # values are null (quantile_disc still emits the group with NULL
        # percentiles — review finding), so the dropped rows leave behind
        # one null-value marker per distinct group key per batch.
        keep = pc.is_valid(t[value_col])
        if pa.types.is_floating(val_type):
            keep = pc.fill_null(pc.and_kleene(keep, pc.invert(
                pc.is_nan(t[value_col]))), False)
        dropped = t.filter(pc.invert(keep))
        t = t.filter(keep)
        if dropped.num_rows:
            g = pc.unique(dropped[group_col])
            t = pa.concat_tables([t, pa.table({
                group_col: g, value_col: pa.nulls(len(g), val_type)})])
        return t

    def per_bucket(t: pa.Table) -> pa.Table:
        # dictionary codes give null (and NaN) group keys ONE run; null
        # markers sort last within their group, so percentiles index only
        # the group's VALID prefix, and all-null groups emit NULL (the
        # quantile_disc contract)
        codes = pc.dictionary_encode(t[group_col].combine_chunks(),
                                     null_encoding="encode").indices
        order = pc.sort_indices(pa.table({"c": codes, "v": t[value_col]}),
                                sort_keys=[("c", "ascending"), ("v", "ascending")])
        vals = t[value_col].take(order)
        _, starts, counts = _runs(codes.take(order).to_numpy())
        nv = np.add.reduceat(pc.is_valid(vals).to_numpy(zero_copy_only=False)
                             .astype(np.int64), starts)
        has = pa.array(nv > 0)
        cols = {group_col: t[group_col].take(order).take(starts)}
        for name, q in qs.items():
            idx = starts + np.where(nv > 0, _disc_index(q, np.maximum(nv, 1)), 0)
            cols[name] = pc.if_else(has, vals.take(idx), pa.scalar(None, val_type))
        return pa.table(cols)

    return cogroup([(ds.map_batches(drop_nulls, batch_format="pyarrow"), rows)],
                   group_col, per_bucket, schema=out, n_buckets=num_buckets)


def quantile_sketch(ds, value_col: str, nbins: int = 4096) -> dict:
    """Mergeable histogram sketch of a numeric column.

    Returns ``{"lo", "hi", "total", "counts"}`` where ``counts`` is the
    int64 per-bin vector. Two passes: ONE native aggregate for min+max
    together (two scalars cross the cluster; separate ds.min/ds.max
    calls would re-execute the upstream pipeline twice), then per-batch
    ``np.bincount`` partials merged
    with the coarse-bucket combine — the driver only ever receives the
    final ``nbins`` rows. Memory is O(nbins) everywhere regardless of
    row count; at 10^10 rows the partial rows total nbins x blocks,
    reduced in the bucket stage, never collected raw.
    """
    from ray.data.aggregate import Max, Min

    import math

    mm = ds.aggregate(Min(value_col, alias_name="__lo"),
                      Max(value_col, alias_name="__hi"))
    lo, hi = mm["__lo"], mm["__hi"]
    if lo is None:
        raise ValueError("quantile_sketch over an empty dataset")
    lo_f, hi_f = float(lo), float(hi)
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        # a NaN/inf in the column makes every bin index undefined — and a
        # bare astype(int64) on NaN silently lands in bin 0 (ADVICE r3);
        # fail loudly instead of corrupting counts.
        raise ValueError(
            f"quantile_sketch: non-finite column range [{lo_f}, {hi_f}] — "
            f"filter non-finite values out of {value_col!r} first")
    span = hi_f - lo_f

    def hist(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if not np.isfinite(v).all():
            raise ValueError(
                f"quantile_sketch: non-finite value in {value_col!r}")
        if span == 0.0:
            idx = np.zeros(len(v), dtype=np.int64)
        else:
            idx = np.clip(((v - lo_f) * (nbins / span)).astype(np.int64),
                          0, nbins - 1)
        c = np.bincount(idx, minlength=nbins).astype(np.int64)
        nz = np.nonzero(c)[0]  # sparse partials: most bins are empty
        return pa.table({"bin": pa.array(nz, pa.int64()),
                         "n": pa.array(c[nz], pa.int64())})

    def merge(t: pa.Table) -> pa.Table:
        b = t["bin"].to_numpy()
        order, starts, _ = _runs(b)
        return pa.table({"bin": b[order][starts],
                         "n": np.add.reduceat(t["n"].to_numpy()[order], starts)})

    bins = pa.schema([("bin", pa.int64()), ("n", pa.int64())])
    rows = cogroup([(ds.map_batches(hist, batch_format="pyarrow"), bins)],
                   "bin", merge, schema=bins).to_pandas()
    counts = np.zeros(nbins, dtype=np.int64)
    counts[rows["bin"].to_numpy()] = rows["n"].to_numpy()
    return {"lo": lo_f, "hi": hi_f, "total": int(counts.sum()),
            "counts": counts}


def sketch_quantiles(sketch: dict, qs: list[float]) -> list[float]:
    """Quantile estimates from a :func:`quantile_sketch` — the UPPER edge
    of the bin containing the discrete q-quantile's rank, so the true
    value lies within one bin width below the estimate."""
    counts = sketch["counts"]
    nbins = len(counts)
    lo, hi, total = sketch["lo"], sketch["hi"], sketch["total"]
    if total == 0:
        raise ValueError("empty sketch")
    cum = np.cumsum(counts)
    width = (hi - lo) / nbins if hi > lo else 0.0
    out = []
    for q in qs:
        rank = max(0, int(np.ceil(q * total)) - 1)
        b = int(np.searchsorted(cum, rank + 1))
        out.append(hi if width == 0.0 else lo + (b + 1) * width)
    return out
