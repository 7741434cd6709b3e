"""Exact deduplication operators (near-dup variants live in dedup_text.py).

``dedup_exact(ds, key, order_col)`` keeps, per key group, the row with the
smallest ``order_col`` (first-wins, deterministic — mirrors the reference's
"resubmitted rows are filtered on insertion" idempotency,
reference: 07_input_cognition_data_rust.py:108-114, and the tie-break-to-
smaller-id convention of 14_calculate_closest_frames.py:70-72).

Scale strategy — avoid shuffling wide rows (614 KB image payloads,
reference: 02_combine_logs.py:24-27) through a groupby:

1. **skinny pass**: project ``(key, order_col)`` only (~16 B/row), groupby
   key, emit the LOSERS (every row except the per-group minimum);
2. if the loser set is small enough to broadcast (duplicate fraction x
   rows), ``ray.put`` it once and anti-filter full rows inside
   ``map_batches`` — the wide rows never move;
3. otherwise fall back to a full ``groupby(key).map_groups(first)`` (one
   honest all-to-all on the dedup key).

The skinny pass shuffles two int64 columns instead of the payload — at
10^9 rows that is ~16 GB across the cluster vs ~100 TB for the naive plan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_MAX_BROADCAST = 5_000_000

# test/telemetry hook: number of aggregate rows the driver actually collected
# in the last losers pass (must be O(duplicate keys), never O(distinct keys))
_last_driver_rows: int = 0


def loser_partials(t: pa.Table, key: str, order_col: str) -> pa.Table:
    """Per-batch loser partials: (key, __o, __n) rows — each key's
    (min, count) plus ``__n = -1`` marker rows for BATCH-LOCAL losers (a
    non-min row of a key within a batch loses globally no matter what
    other batches hold, since the global min is <= the batch min).
    Mergeable by :func:`merge_loser_partials`; emitted directly by fused
    stages (IngestStage) so the loser pass costs no second execution.

    Null keys are NOT duplicates of anything — their rows are excluded
    from the partials entirely, so they can never be marked losers. (The
    earlier pandas implementation leaked every null-key row into the
    local-loser channel via ``x != NaN``.)

    Pure numpy sort-based grouping: the pandas version cost ~28 ms per
    128-row batch (five frame ops); this is ~50x cheaper per batch, which
    matters because fused ingest stages call it once per batch."""
    kcol = t[key]
    if kcol.null_count:
        t = t.filter(pc.is_valid(kcol))
    if t[order_col].null_count:
        # the order column is the row's primary key (image_id/doc_id) —
        # a null one is corrupt input; fail loudly rather than silently
        # dropping the row as a loser (old pandas path) or crashing in
        # lexsort with a dtype-dependent TypeError (review finding)
        raise ValueError(
            f"loser_partials: {t[order_col].null_count} null {order_col!r} "
            "value(s) — first-wins dedup needs a non-null order key")
    kt = t.schema.field(key).type
    ot = t.schema.field(order_col).type
    n = t.num_rows
    if n == 0:
        return pa.table({key: pa.array([], type=kt),
                         "__o": pa.array([], type=ot),
                         "__n": pa.array([], type=pa.int64())})
    k = t[key].to_numpy(zero_copy_only=False)
    o = t[order_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((o, k))  # by key, then order_col
    ks, os_ = k[order], o[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    gmin = os_[starts]
    # local losers: any row whose order differs from its group's min
    # (ties at the min all survive locally — merge resolves them globally)
    loser = os_ != np.repeat(gmin, counts)
    return pa.table({
        key: pa.array(np.concatenate([ks[starts], ks[loser]]), type=kt),
        "__o": pa.array(np.concatenate([gmin, os_[loser]]), type=ot),
        "__n": pa.array(np.concatenate(
            [counts, np.full(int(loser.sum()), -1, np.int64)])),
    })


def merge_loser_partials(pdf: pd.DataFrame, key: str) -> frozenset:
    """Driver-side merge of loser partials: global losers = local losers +
    duplicated keys' min entries that aren't the global winner. Input is
    bounded by the caller (DEFAULT_MAX_BROADCAST).

    numpy sort-based grouping: the previous pandas ``groupby.agg`` paid
    ~650 ms at 20k partial rows (a Python ``min`` per group over object
    strings) — a CONSTANT driver term that taxed the fast end of the
    scaling pair; this is ~15 ms on the same input."""
    if pdf.empty:
        return frozenset()
    nvals = pdf["__n"].to_numpy()
    local_losers = pdf.loc[nvals < 0, "__o"]
    mask = nvals > 0
    k = pdf.loc[mask, key].to_numpy()
    if len(k) == 0:
        return frozenset(local_losers)
    o = pdf.loc[mask, "__o"].to_numpy()
    c = nvals[mask]
    order = np.lexsort((o, k))
    ks, os_, cs = k[order], o[order], c[order]
    new = np.empty(len(ks), dtype=bool)
    new[0] = True
    new[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(ks)))
    total = np.add.reduceat(cs, starts)  # global count per key
    # rows of duplicated keys whose __o is not the global winner (= the
    # lexicographic min across that key's per-batch min entries)
    dup_row = np.repeat(total > 1, counts)
    not_winner = os_ != np.repeat(os_[starts], counts)
    extra = os_[dup_row & not_winner]
    return frozenset(local_losers) | frozenset(extra)


def exact_losers(skinny_ds, key: str, order_col: str,
                 max_collect: int | None = None) -> frozenset | None:
    """Skinny (key, order) dataset -> set of order_col values to DROP.

    ONE distributed pass: each block emits its :func:`loser_partials`; the
    driver merges only those. No second scan, no per-group Python, fully
    vectorized.

    Driver memory is O(distinct keys per block summed + duplicates); the
    guard falls back to the distributed two-phase combine + a
    broadcast-probe scan past DEFAULT_MAX_BROADCAST partial rows.

    ``max_collect`` bounds what the driver is allowed to hold: when the
    DISTRIBUTED loser count (``sum(__n) - count`` over the duplicates-only
    aggregate — two scalars, nothing collected) exceeds it, returns
    ``None`` so the caller can take a shuffle path instead. Review r5:
    dedup_exact used to check the bound only AFTER the full loser set had
    already been take_all()'d onto the driver, where the guard could no
    longer prevent anything.
    """
    import functools

    import ray

    global _last_driver_rows
    partial = functools.partial(loser_partials, key=key, order_col=order_col)
    partial_df = (skinny_ds.map_batches(partial, batch_format="pyarrow")
                  .limit(DEFAULT_MAX_BROADCAST + 1).to_pandas())
    if len(partial_df) > DEFAULT_MAX_BROADCAST:
        # scale path: distributed two-phase combine, DUPLICATES-ONLY
        # filtered distributed, then one broadcast-probe scan — the driver
        # collects O(duplicate keys), never the full distinct-key aggregate
        dups_ds = dup_winners(skinny_ds, key, order_col)
        if max_collect is not None:
            n_dup_keys = dups_ds.count()
            if n_dup_keys > max_collect:
                return None  # even the winner broadcast would exceed it
            n_losers = (dups_ds.sum("__n") or 0) - n_dup_keys
            if n_losers > max_collect:
                return None
        dups = dups_ds.to_pandas()
        _last_driver_rows = len(dups)
        if dups.empty:
            return frozenset()
        ref = ray.put((pa.array(dups[key].to_numpy()),
                       pa.array(dups["__min"].to_numpy())))

        def find_losers(batch: pa.Table) -> pa.Table:
            dkeys, winners = ray.get(ref)
            idx = pc.index_in(batch[key], value_set=dkeys)
            winner = pc.take(winners, idx)  # null where the key has no dup
            loser = pc.and_(pc.is_valid(winner),
                            pc.not_equal(batch[order_col], winner))
            return pa.table({order_col: batch[order_col].filter(
                pc.fill_null(loser, False))})

        rows = skinny_ds.map_batches(find_losers, batch_format="pyarrow").take_all()
        return frozenset(r[order_col] for r in rows)

    _last_driver_rows = len(partial_df)  # keep the telemetry hook fresh on
    # the broadcast path too (review r5: a stale scale-path value here made
    # driver-collection audits read the wrong pass)
    losers = merge_loser_partials(partial_df, key)
    if max_collect is not None and len(losers) > max_collect:
        return None
    return losers


def dup_winners(skinny_ds, key: str, order_col: str, num_buckets: int = 64):
    """MATERIALIZED Dataset of ``(key, __min, __n)`` for duplicated keys
    only. The ``__n > 1`` filter runs distributed before anything reaches
    the driver; the materialized result is O(duplicate keys) in the object
    store (bounded, reusable by both the broadcast and the join path).

    Two-phase combine rather than a native ``groupby(key).aggregate``:
    Ray's aggregate pays per-GROUP cost, and here key cardinality is the
    corpus (measured ~17 us/distinct key on the q53 pair combine — 19 s
    for 1M keys). Per-batch pandas partials -> ONE coarse-bucket shuffle
    (so the exchange carries one row per distinct key per block) -> a
    C-level merge per bucket with the duplicates-only filter fused in."""

    def batch_partials(t: pa.Table) -> pa.Table:
        # numpy lexsort grouping (review r5 — this was the one remaining
        # pandas groupby.agg(min)-per-group over object strings; see the
        # CLAUDE.md perf lesson and loser_partials above for the measured
        # ~50x). Null keys are dropped like loser_partials does: they can
        # never match the downstream index_in probes, and keeping them as
        # one pandas dropna=False group diverged from the broadcast path.
        t = t.select([key, order_col])
        kcol = t[key]
        if kcol.null_count:
            t = t.filter(pc.is_valid(kcol))
        kt = t.schema.field(key).type
        ot = t.schema.field(order_col).type
        n = t.num_rows
        if n == 0:
            out = pa.table({key: pa.array([], type=kt),
                            "__min": pa.array([], type=ot),
                            "__n": pa.array([], type=pa.int64())})
            return out.append_column("__b", _bucket_of(out[key], num_buckets))
        k = t[key].to_numpy(zero_copy_only=False)
        o = t[order_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, k))
        ks, os_ = k[order], o[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n)).astype(np.int64)
        out = pa.table({key: pa.array(ks[starts], type=kt),
                        "__min": pa.array(os_[starts], type=ot),
                        "__n": pa.array(counts)})
        return out.append_column("__b", _bucket_of(out[key], num_buckets))

    def merge_bucket(df: pd.DataFrame) -> pa.Table:
        # same numpy lexsort grouping as batch_partials (a bucket holds
        # dup-keys/64 rows — at 1M dup keys the pandas agg here was the
        # same per-group Python min)
        if len(df) == 0:
            return typed_from_pandas(df[[key, "__min", "__n"]])
        k = df[key].to_numpy()
        m = df["__min"].to_numpy()
        c = df["__n"].to_numpy().astype(np.int64)
        order = np.lexsort((m, k))
        ks, ms, cs = k[order], m[order], c[order]
        new = np.empty(len(ks), dtype=bool)
        new[0] = True
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        total = np.add.reduceat(cs, starts)
        keep = total > 1  # duplicates only
        out = pd.DataFrame({key: ks[starts][keep],
                            "__min": ms[starts][keep],  # first of the
                            # (__min, key)-lexsorted run IS the group min
                            "__n": total[keep].astype(np.int64)})
        return typed_from_pandas(out)

    return (skinny_ds.map_batches(batch_partials, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(merge_bucket, batch_format="pandas")
            .materialize())


def exact_losers_by(skinny_ds, key: str, order_col: str,
                    part_col: str, dups=None) -> dict:
    """Like :func:`exact_losers`, but the skinny rows carry a partition
    column and the result is ``{part: [losers...]}`` — so a sharded caller
    never reads each shard's full key column to the driver (the round-1
    ingest residual); only the duplicate rows come back, already routed.

    Driver memory is O(duplicate keys + losers); past
    ``DEFAULT_MAX_BROADCAST`` duplicates use :func:`exact_losers_files`
    (the fully-distributed 10^10 path) instead."""
    import ray

    dups_ds = dup_winners(skinny_ds, key, order_col) if dups is None else dups
    dups = dups_ds.to_pandas()
    global _last_driver_rows
    _last_driver_rows = len(dups)
    if dups.empty:
        return {}
    ref = ray.put((pa.array(dups[key].to_numpy()),
                   pa.array(dups["__min"].to_numpy())))

    def find_losers(batch: pa.Table) -> pa.Table:
        dkeys, winners = ray.get(ref)
        idx = pc.index_in(batch[key], value_set=dkeys)
        winner = pc.take(winners, idx)
        loser = pc.fill_null(pc.and_(pc.is_valid(winner),
                                     pc.not_equal(batch[order_col], winner)), False)
        sel = batch.filter(loser)
        return pa.table({order_col: sel[order_col], part_col: sel[part_col]})

    out: dict = {}
    for r in skinny_ds.map_batches(find_losers, batch_format="pyarrow").take_all():
        out.setdefault(r[part_col], []).append(r[order_col])
    return {p: sorted(v) for p, v in out.items()}


def _bucket_of(col, n: int) -> pa.Array:
    """Stable coarse bucket id (int32) of a key column, any hashable type.
    Null keys deterministically land in one bucket (hash of 0 / '')."""
    from ..functions.hashing import hash64_str_array, splitmix64

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = pc.fill_null(col, 0)
        u = splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        # non-integer keys (str/float/timestamp/bytes/decimal): hash a
        # canonical string form. repr() is deterministic per value; the
        # two gotchas are -0.0 (== 0.0 as a group key, must co-bucket)
        # and bytes (no .encode). NaNs all repr as 'nan' -> one bucket,
        # matching pandas dropna=False's single-NaN-group semantics.
        def _canon(v) -> str:
            if v is None:
                return ""
            if isinstance(v, str):
                return v
            if isinstance(v, bytes):
                return v.decode("latin-1")
            if isinstance(v, float) and v == 0.0:
                return "0.0"
            return repr(v)

        u = hash64_str_array([_canon(v) for v in col.to_pylist()])
    return pa.array((u % np.uint64(n)).astype(np.int32))


def typed_from_pandas(df: pd.DataFrame) -> pa.Table:
    """``pa.Table.from_pandas`` with EMPTY object columns pinned to
    ``pa.string()``. A filtered-to-empty pandas frame round-trips an
    object column as a null-typed Arrow column, and null-typed blocks
    break cross-block schema unification (the coarse-bucket combine fns
    all emit empty tables for no-result buckets — same hazard cc.py
    documents for its losers path). Non-string object keys are not used
    as combine keys in this repo."""
    tab = pa.Table.from_pandas(df, preserve_index=False)
    for i, f in enumerate(tab.schema):
        if pa.types.is_null(f.type):
            tab = tab.set_column(i, pa.field(f.name, pa.string()),
                                 pa.array([None] * tab.num_rows, pa.string()))
    return tab


def exact_losers_files(skinny_ds, key: str, order_col: str, part_col: str,
                       out_dir: str, dups=None,
                       num_buckets: int = 64,
                       storage_options: dict | None = None) -> dict:
    """The bucketed 10^10 loser path (SCALE.md §4): losers are computed and
    ROUTED fully distributed — the driver never holds a key, a winner, or a
    loser, only per-partition counts and file paths.

    1. ``dup_winners`` — distributed groupby, duplicates-only (O(dup keys)
       materialized in the object store);
    2. skinny rows and winner rows are tagged with a COARSE key-hash bucket
       (CLAUDE.md groupby lesson: 16-64 buckets, vectorized inside the
       group fn — NOT per-key groups, NOT ``Dataset.join`` whose empty
       hash partitions lose the schema) and co-grouped by bucket;
    3. within a bucket, one vectorized ``index_in`` probe marks every
       skinny row whose ``order_col`` differs from its key's winner;
    4. ``groupby(part_col).map_groups`` writes one sorted+unique
       ``losers-<part>.parquet`` per partition into ``out_dir`` — ready for
       :meth:`ObjectStore.commit_delete_view_file`.

    Both shuffles move only skinny (key, order, part) rows. Reference
    analog: the count-ledger anti-join (07_input_cognition_data_rust.py:
    64-83) likewise never materializes row sets on the coordinator.
    """
    import os

    from ..sources.store import write_fragment

    dups_ds = dup_winners(skinny_ds, key, order_col) if dups is None else dups
    global _last_driver_rows
    _last_driver_rows = 0
    if dups_ds.count() == 0:
        return {}

    # union-compatible tagging: skinny rows carry (key, order, part, null
    # winner); winner rows carry (key, null order, null part, winner)
    def tag_skinny(t: pa.Table) -> pa.Table:
        return pa.table({
            key: t[key], order_col: t[order_col], part_col: t[part_col],
            "__min": pa.nulls(t.num_rows, t[order_col].type),
            "__b": _bucket_of(t[key], num_buckets)})

    # winner rows must type their null part_col like the skinny side's, or
    # the union's schema unification fails for non-string partition columns
    sch = skinny_ds.schema()  # ray.data.Schema: parallel names/types lists
    part_type = dict(zip(sch.names, sch.types))[part_col]

    def tag_winner(t: pa.Table) -> pa.Table:
        return pa.table({
            key: t[key],
            order_col: pa.nulls(t.num_rows, t["__min"].type),
            part_col: pa.nulls(t.num_rows, part_type),
            "__min": t["__min"],
            "__b": _bucket_of(t[key], num_buckets)})

    both = (skinny_ds.map_batches(tag_skinny, batch_format="pyarrow")
            .union(dups_ds.map_batches(tag_winner, batch_format="pyarrow")))

    def bucket_losers(g: pa.Table) -> pa.Table:
        is_w = pc.is_valid(g["__min"])
        w = g.filter(is_w)
        s = g.filter(pc.invert(is_w))
        idx = pc.index_in(s[key], value_set=w[key].combine_chunks())
        winner = pc.take(w["__min"].combine_chunks(), idx)
        lose = pc.fill_null(pc.and_(pc.is_valid(winner),
                                    pc.not_equal(s[order_col], winner)), False)
        sel = s.filter(lose)
        return pa.table({order_col: sel[order_col], part_col: sel[part_col]})

    losers = both.groupby("__b").map_groups(bucket_losers,
                                            batch_format="pyarrow")

    def write_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:  # empty sort-boundary block (review r5 — the
            # same guard every other map_groups fn in this repo carries)
            return pa.table({part_col: pa.array([], g.schema.field(part_col).type),
                             "path": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        part = g[part_col][0].as_py()
        arr = pc.unique(g[order_col].combine_chunks())
        arr = arr.take(pc.sort_indices(arr))
        path = os.path.join(out_dir, f"losers-{part}.parquet")
        write_fragment(pa.table({order_col: arr}), path,
                       storage_options=storage_options)
        return pa.table({part_col: [part], "path": [path],
                         "n": pa.array([len(arr)], pa.int64())})

    rows = (losers.groupby(part_col)
            .map_groups(write_part, batch_format="pyarrow").take_all())
    return {r[part_col]: (r["path"], r["n"]) for r in rows}


def anti_filter_fn(loser_ref, order_col: str):
    """map_batches fn dropping rows whose order_col is in the broadcast set."""
    import ray

    def anti_filter(batch: pa.Table) -> pa.Table:
        drop = ray.get(loser_ref)
        if isinstance(drop, (set, frozenset)):
            if not drop:
                return batch
            drop = pa.array(sorted(drop))
        return batch.filter(
            pc.invert(pc.is_in(batch[order_col], value_set=drop)))

    return anti_filter


def dedup_exact(ds, key: str = "phash", order_col: str = "image_id",
                max_broadcast: int = DEFAULT_MAX_BROADCAST, skinny_ds=None):
    """First-wins exact dedup on ``key``; returns the deduplicated Dataset.

    IMPORTANT execution shape: the losers pass CONSUMES a dataset. If
    ``ds`` is an expensive lazy pipeline (a decode stage), pass
    ``skinny_ds`` — a cheap source of the same (key, order_col) pairs, e.g.
    a column-pruned read of the just-written raw partition — or pass a
    materialized ``ds``; otherwise the whole upstream pipeline executes
    TWICE (once for losers, once for the filtered output).
    """
    import ray

    # the loser pass itself enforces max_broadcast DISTRIBUTED (review r5):
    # it returns None — without ever collecting the losers — when the set
    # would exceed the bound, and the shuffle fallback below never needed
    # the set in the first place
    losers = exact_losers(skinny_ds if skinny_ds is not None else ds, key,
                          order_col, max_collect=max_broadcast)
    if losers is not None:
        ref = ray.put(pa.array(sorted(losers)) if losers else frozenset())
        return ds.map_batches(anti_filter_fn(ref, order_col), batch_format="pyarrow")

    # fallback: full-row shuffle, but on a COARSE key bucket (per-key
    # map_groups costs ~1-2 ms/group at corpus-key cardinality); inside a
    # bucket every key's rows are co-located, so the block combiner's
    # vectorized first-of-run scan IS the global first-wins
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("__b", _bucket_of(t[key], 64))

    def first_in_bucket(df: pd.DataFrame) -> pa.Table:
        t = typed_from_pandas(df.drop(columns="__b"))
        return dedup_within_batch(t, key, order_col)

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(first_in_bucket,
                                       batch_format="pandas"))


def dedup_within_batch(batch: pa.Table, key: str, order_col: str) -> pa.Table:
    """Block-local pre-dedup (combiner): cheap first pass before the global one."""
    order = pc.sort_indices(
        batch, sort_keys=[(key, "ascending"), (order_col, "ascending")]
    )
    sorted_tab = batch.take(order)
    keys = sorted_tab[key].to_numpy(zero_copy_only=False)
    keep = np.empty(len(keys), dtype=bool)
    if len(keys):
        keep[0] = True
        keep[1:] = keys[1:] != keys[:-1]
    return sorted_tab.filter(pa.array(keep))
