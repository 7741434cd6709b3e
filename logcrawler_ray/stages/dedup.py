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

Every tier is built from the same three pieces: one sort-and-group kernel
(:func:`_runs`), one winner probe (:func:`_loser_mask`) and one loser-file
writer (:func:`write_loser_files`). The broadcast bound is
``broadcast.DEFAULT_MAX_BROADCAST_ROWS``, read at call time.

The skinny pass shuffles two int64 columns instead of the payload — at
10^9 rows that is ~16 GB across the cluster vs ~100 TB for the naive plan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import broadcast


def _runs(k: np.ndarray, o: np.ndarray):
    """The one sort-and-group kernel of every exact-dedup tier: lexsort by
    key, then order. Returns ``(order, starts, counts)`` — the sorting
    permutation, each key run's start in sorted order and its length; a
    run's first row holds the key's minimum ``o``."""
    n = len(k)
    order = np.lexsort((o, k))
    ks = k[order]
    new = np.empty(n, dtype=bool)
    if n:
        new[0] = True
        new[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    return order, starts, counts


def loser_partials(t: pa.Table, key: str, order_col: str) -> pa.Table:
    """Per-batch loser partials: (key, __o, __n) rows — each key's
    (min, count) plus ``__n = -1`` marker rows for BATCH-LOCAL losers (a
    non-min row of a key within a batch loses globally no matter what
    other batches hold, since the global min is <= the batch min).
    Mergeable by :func:`merge_loser_partials`; emitted directly by fused
    stages (IngestStage) so the loser pass costs no second execution.

    Null keys are NOT duplicates of anything — their rows are excluded
    from the partials entirely, so they can never be marked losers.

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
    k = t[key].to_numpy(zero_copy_only=False)
    o = t[order_col].to_numpy(zero_copy_only=False)
    order, starts, counts = _runs(k, o)
    ks, os_ = k[order], o[order]
    gmin = os_[starts]
    # local losers: any row whose order differs from its group's min
    # (ties at the min all survive locally — merge resolves them globally)
    loser = os_ != np.repeat(gmin, counts)
    return pa.table({
        key: pa.array(np.concatenate([ks[starts], ks[loser]]),
                      type=t.schema.field(key).type),
        "__o": pa.array(np.concatenate([gmin, os_[loser]]),
                        type=t.schema.field(order_col).type),
        "__n": pa.array(np.concatenate(
            [counts, np.full(int(loser.sum()), -1, np.int64)])),
    })


def merge_loser_partials(pdf: pd.DataFrame, key: str) -> frozenset:
    """Driver-side merge of loser partials: global losers = local losers +
    duplicated keys' min entries that aren't the global winner. Input is
    bounded by the caller (``broadcast.DEFAULT_MAX_BROADCAST_ROWS``).

    numpy sort-based grouping: ~15 ms at 20k partial rows, where a pandas
    ``groupby.agg`` (a Python ``min`` per group over object strings) paid
    ~650 ms of constant driver time."""
    if pdf.empty:
        return frozenset()
    nvals = pdf["__n"].to_numpy()
    local_losers = pdf.loc[nvals < 0, "__o"]
    mask = nvals > 0
    k = pdf.loc[mask, key].to_numpy()
    o = pdf.loc[mask, "__o"].to_numpy()
    order, starts, counts = _runs(k, o)
    os_ = o[order]
    total = np.add.reduceat(nvals[mask][order], starts)  # global count per key
    # rows of duplicated keys whose __o is not the global winner (= the
    # lexicographic min across that key's per-batch min entries)
    dup_row = np.repeat(total > 1, counts)
    not_winner = os_ != np.repeat(os_[starts], counts)
    extra = os_[dup_row & not_winner]
    return frozenset(local_losers) | frozenset(extra)


def _loser_mask(t: pa.Table, key: str, order_col: str,
                dkeys: pa.Array, winners: pa.Array) -> pa.Array:
    """The one winner probe: True where a row's key is duplicated
    (present in ``dkeys``) and its ``order_col`` is not that key's
    winner. Rows of unduplicated keys probe to null and are kept."""
    winner = broadcast.probe_values(t[key], dkeys, winners)
    return pc.fill_null(pc.not_equal(t[order_col], winner), False)


def _collect_losers(skinny_ds, dups_ds, key: str, order_col: str,
                    cols: list[str]) -> list[dict]:
    """Broadcast the duplicated keys' winners once and scan ``skinny_ds``
    with :func:`_loser_mask`; returns the losers' ``cols`` as rows. The
    driver holds O(duplicate keys + losers), never O(distinct keys)."""
    import ray

    dups = dups_ds.to_pandas()
    if dups.empty:
        return []
    ref = ray.put((pa.array(dups[key].to_numpy()),
                   pa.array(dups["__min"].to_numpy())))

    def find_losers(batch: pa.Table) -> pa.Table:
        dkeys, winners = ray.get(ref)
        return batch.filter(
            _loser_mask(batch, key, order_col, dkeys, winners)).select(cols)

    return skinny_ds.map_batches(find_losers, batch_format="pyarrow").take_all()


def exact_losers(skinny_ds, key: str, order_col: str,
                 max_collect: int | None = None) -> frozenset | None:
    """Skinny (key, order) dataset -> set of order_col values to DROP.

    ONE distributed pass: each block emits its :func:`loser_partials`; the
    driver merges only those. No second scan, no per-group Python, fully
    vectorized.

    Driver memory is O(distinct keys per block summed + duplicates); the
    guard falls back to the distributed two-phase combine + a
    broadcast-probe scan past ``broadcast.DEFAULT_MAX_BROADCAST_ROWS``
    partial rows, or past ``max_collect`` when the caller's bound is
    lower — the partial-row collection itself never exceeds the smaller
    bound by more than one row.

    ``max_collect`` bounds what the driver is allowed to hold: when the
    DISTRIBUTED loser count (``sum(__n) - count`` over the duplicates-only
    aggregate — two scalars, nothing collected) exceeds it, returns
    ``None`` before any loser is collected, so the caller can take a
    shuffle path instead.
    """
    import functools

    cap = broadcast.DEFAULT_MAX_BROADCAST_ROWS
    if max_collect is not None:
        cap = min(cap, max_collect)
    partial = functools.partial(loser_partials, key=key, order_col=order_col)
    partial_df = (skinny_ds.map_batches(partial, batch_format="pyarrow")
                  .limit(cap + 1).to_pandas())
    if len(partial_df) > cap:
        # scale path: distributed two-phase combine, DUPLICATES-ONLY
        # filtered distributed, then one broadcast-probe scan — the driver
        # collects O(duplicate keys), never the full distinct-key aggregate
        dups_ds = dup_winners(skinny_ds, key, order_col)
        if max_collect is not None:
            # both the winner broadcast and the loser set must fit
            n_dup_keys = dups_ds.count()
            n_losers = (dups_ds.sum("__n") or 0) - n_dup_keys
            if max(n_dup_keys, n_losers) > max_collect:
                return None
        rows = _collect_losers(skinny_ds, dups_ds, key, order_col, [order_col])
        return frozenset(r[order_col] for r in rows)

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
    for 1M keys). Per-batch partials (:func:`loser_partials`' per-key
    (min, count) rows) -> ONE coarse-bucket shuffle (so the exchange
    carries one row per distinct key per block) -> a C-level merge per
    bucket with the duplicates-only filter fused in."""

    def batch_partials(t: pa.Table) -> pa.Table:
        p = loser_partials(t.select([key, order_col]), key, order_col)
        p = p.filter(pc.greater(p["__n"], 0)).rename_columns(
            [key, "__min", "__n"])
        return p.append_column("__b", _bucket_of(p[key], num_buckets))

    def merge_bucket(df: pd.DataFrame) -> pa.Table:
        k = df[key].to_numpy()
        m = df["__min"].to_numpy()
        order, starts, _ = _runs(k, m)
        total = np.add.reduceat(
            df["__n"].to_numpy().astype(np.int64)[order], starts)
        keep = total > 1  # duplicates only
        first = order[starts][keep]  # a run's first row IS the key's min
        return typed_from_pandas(pd.DataFrame({
            key: k[first], "__min": m[first], "__n": total[keep]}))

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
    ``broadcast.DEFAULT_MAX_BROADCAST_ROWS`` duplicates use
    :func:`exact_losers_files` (the fully-distributed 10^10 path)
    instead."""
    dups_ds = dup_winners(skinny_ds, key, order_col) if dups is None else dups
    out: dict = {}
    for r in _collect_losers(skinny_ds, dups_ds, key, order_col,
                             [order_col, part_col]):
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
    3. within a bucket, the winner probe (:func:`_loser_mask`) marks every
       skinny row whose ``order_col`` differs from its key's winner;
    4. :func:`write_loser_files` writes one sorted+unique
       ``losers-<part>.parquet`` per partition into ``out_dir`` — ready for
       :meth:`ObjectStore.commit_delete_view_file`.

    Both shuffles move only skinny (key, order, part) rows. Reference
    analog: the count-ledger anti-join (07_input_cognition_data_rust.py:
    64-83) likewise never materializes row sets on the coordinator.
    """
    dups_ds = dup_winners(skinny_ds, key, order_col) if dups is None else dups
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
        lose = _loser_mask(s, key, order_col, w[key].combine_chunks(),
                           w["__min"].combine_chunks())
        return s.filter(lose).select([order_col, part_col])

    losers = both.groupby("__b").map_groups(bucket_losers,
                                            batch_format="pyarrow")
    rows = write_loser_files(losers, part_col, order_col, out_dir,
                             storage_options)
    return {r[part_col]: (r["path"], r["n"]) for r in rows}


def write_loser_files(losers_ds, group_col: str, id_col: str, out_dir: str,
                      storage_options: dict | None = None) -> list[dict]:
    """The one loser-file writer: ``groupby(group_col)`` and each group's
    task writes its sorted, distinct ``id_col`` values to
    ``out_dir/losers-<group>.parquet`` — no single-writer funnel, and the
    driver sees only one ``(group_col, path, n)`` row per file."""
    import os

    from ..sources.store import write_fragment

    def write(g: pa.Table) -> pa.Table:
        gtype = g.schema.field(group_col).type
        if g.num_rows == 0:  # empty sort-boundary block (review r5 — the
            # same guard every other map_groups fn in this repo carries)
            return pa.table({group_col: pa.array([], gtype),
                             "path": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        label = g[group_col][0].as_py()
        arr = pc.unique(g[id_col].combine_chunks())
        arr = arr.take(pc.sort_indices(arr))
        path = os.path.join(out_dir, f"losers-{label}.parquet")
        write_fragment(pa.table({id_col: arr}), path,
                       storage_options=storage_options)
        return pa.table({group_col: pa.array([label], gtype),
                         "path": pa.array([path], pa.string()),
                         "n": pa.array([len(arr)], pa.int64())})

    return (losers_ds.groupby(group_col)
            .map_groups(write, batch_format="pyarrow").take_all())


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
                skinny_ds=None):
    """First-wins exact dedup on ``key``; returns the deduplicated Dataset.

    IMPORTANT execution shape: the losers pass CONSUMES a dataset. If
    ``ds`` is an expensive lazy pipeline (a decode stage), pass
    ``skinny_ds`` — a cheap source of the same (key, order_col) pairs, e.g.
    a column-pruned read of the just-written raw partition — or pass a
    materialized ``ds``; otherwise the whole upstream pipeline executes
    TWICE (once for losers, once for the filtered output).

    Loser sets up to ``broadcast.DEFAULT_MAX_BROADCAST_ROWS`` are broadcast
    into an anti-filter; larger ones take a coarse-bucket full-row shuffle.
    """
    import ray

    # the loser pass itself enforces the bound DISTRIBUTED (review r5): it
    # returns None — without ever collecting the losers — when the set
    # would exceed it, and the shuffle fallback below never needed the set
    # in the first place
    losers = exact_losers(skinny_ds if skinny_ds is not None else ds, key,
                          order_col,
                          max_collect=broadcast.DEFAULT_MAX_BROADCAST_ROWS)
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
