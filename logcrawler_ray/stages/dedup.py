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
3. otherwise fall back to a full-row :func:`cogroup` on the dedup key (one
   honest all-to-all).

Every tier is built from the same three pieces: the library's one
sort-and-group kernel (``functions/cogroup.py::_runs``), one winner probe
(:func:`_loser_mask`) and one loser-file writer
(:func:`write_loser_files`). The broadcast bound is
``broadcast.DEFAULT_MAX_BROADCAST_ROWS``, read at call time.

The skinny pass shuffles two int64 columns instead of the payload — at
10^9 rows that is ~16 GB across the cluster vs ~100 TB for the naive plan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.cogroup import N_BUCKETS, _bucket_of, _runs, cogroup, per_key
from ..sources.objstore import drop_keys
from . import broadcast


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


def exact_losers(skinny, key: str, order_col: str,
                 max_collect: int | None = None,
                 winners: list | None = None) -> frozenset | None:
    """Skinny (key, order) side -> set of order_col values to DROP.
    ``skinny`` is a ``(Dataset, schema)`` pair declaring both columns.

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
    shuffle path instead. A ``winners`` list receives the :func:`dup_winners`
    Dataset whenever the scale path builds it, so a caller that gets
    ``None`` hands it to :func:`exact_losers_files` instead of building it
    twice.
    """
    import functools

    cap = broadcast.DEFAULT_MAX_BROADCAST_ROWS
    if max_collect is not None:
        cap = min(cap, max_collect)
    skinny_ds = skinny[0]
    partial = functools.partial(loser_partials, key=key, order_col=order_col)
    partial_df = (skinny_ds.map_batches(partial, batch_format="pyarrow")
                  .limit(cap + 1).to_pandas())
    if len(partial_df) > cap:
        # scale path: distributed two-phase combine, DUPLICATES-ONLY
        # filtered distributed, then one broadcast-probe scan — the driver
        # collects O(duplicate keys), never the full distinct-key aggregate
        dups_ds = dup_winners(skinny, key, order_col)
        if winners is not None:
            winners.append(dups_ds)
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


def _winners_schema(sch: pa.Schema, key: str, order_col: str) -> pa.Schema:
    """:func:`dup_winners`' row schema for skinny rows of schema ``sch``."""
    return pa.schema([sch.field(key), pa.field("__min", sch.field(order_col).type),
                      pa.field("__n", pa.int64())])


def dup_winners(skinny, key: str, order_col: str, num_buckets: int = N_BUCKETS):
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

    skinny_ds, sch = skinny
    out = _winners_schema(sch, key, order_col)

    def batch_partials(t: pa.Table) -> pa.Table:
        p = loser_partials(t.select([key, order_col]), key, order_col)
        return p.filter(pc.greater(p["__n"], 0)).rename_columns(out.names)

    def merge_bucket(p: pa.Table) -> pa.Table:
        k = p[key].to_numpy(zero_copy_only=False)
        order, starts, _ = _runs(k, p["__min"].to_numpy(zero_copy_only=False))
        total = np.add.reduceat(p["__n"].to_numpy()[order], starts)
        keep = total > 1  # duplicates only
        first = order[starts][keep]  # a run's first row IS the key's min
        return p.take(first).set_column(2, "__n", pa.array(total[keep]))

    partials = skinny_ds.map_batches(batch_partials, batch_format="pyarrow")
    return cogroup([(partials, out)], key, merge_bucket, schema=out,
                   n_buckets=num_buckets).materialize()


def exact_losers_files(skinny, key: str, order_col: str, out_dir: str,
                       dups=None, num_buckets: int = N_BUCKETS,
                       storage_options: dict | None = None) -> list[str]:
    """The bucketed 10^10 loser path (SCALE.md §4): losers are computed and
    written fully distributed — the driver never holds a key, a winner, or
    a loser, only the written files' paths.

    1. ``dup_winners`` — distributed groupby, duplicates-only (O(dup keys)
       materialized in the object store); pass ``dups`` to reuse one;
    2. skinny rows and winner rows are co-grouped by coarse key bucket
       (:func:`cogroup`);
    3. within a bucket, the winner probe (:func:`_loser_mask`) marks every
       skinny row whose ``order_col`` differs from its key's winner;
    4. :func:`write_loser_files` writes them into ``out_dir`` — ready for
       :meth:`ObjectStore.commit_delete_view_files`.

    Both shuffles move only skinny (key, order) rows. Reference analog: the
    count-ledger anti-join (07_input_cognition_data_rust.py:64-83) likewise
    never materializes row sets on the coordinator.
    """
    dups_ds = dup_winners(skinny, key, order_col) if dups is None else dups
    if dups_ds.count() == 0:
        return []

    skinny_ds, sch = skinny
    losers = pa.schema([sch.field(order_col)])

    def bucket_losers(s: pa.Table, w: pa.Table) -> pa.Table:
        return s.filter(_loser_mask(s, key, order_col, w[key].combine_chunks(),
                                    w["__min"].combine_chunks()))

    winners = _winners_schema(sch, key, order_col)
    losers_ds = cogroup([(skinny_ds, pa.schema([sch.field(key), sch.field(order_col)])),
                         (dups_ds, winners)], key,
                        bucket_losers, schema=losers, n_buckets=num_buckets)
    return write_loser_files((losers_ds, losers), order_col, out_dir,
                             storage_options=storage_options)


def write_loser_files(losers, id_col: str, out_dir: str, num_files: int = 16,
                      storage_options: dict | None = None) -> list[str]:
    """The one loser-file writer: ``losers`` is a ``(Dataset, schema)``
    :func:`cogroup` side holding ``id_col``. Ids are routed by hash into at
    most ``num_files`` buckets, and each bucket's sorted, distinct ids go to
    ``out_dir/losers-<bucket>.parquet``, written by the task that holds the
    bucket — no single-writer funnel. Files are disjoint (an id always
    hashes to one bucket), and the driver sees only their paths."""
    import os

    from ..sources.store import write_fragment

    def route(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t[id_col],
                         "__g": _bucket_of(t[id_col], num_files)})

    routed = pa.schema([losers[1].field(id_col), pa.field("__g", pa.int32())])
    out = pa.schema([pa.field("path", pa.string())])

    def write(g: pa.Table) -> pa.Table:  # one bucket's losers
        arr = pc.unique(g[id_col].combine_chunks())
        arr = arr.take(pc.sort_indices(arr))
        path = os.path.join(out_dir, f"losers-{g['__g'][0].as_py()}.parquet")
        write_fragment(pa.table({id_col: arr}), path,
                       storage_options=storage_options)
        return pa.table({"path": [path]})

    side = (losers[0].map_batches(route, batch_format="pyarrow"), routed)
    rows = cogroup([side], "__g", per_key("__g", write), schema=out).take_all()
    return [r["path"] for r in rows]


def dedup_exact(side, key: str = "phash", order_col: str = "image_id"):
    """First-wins exact dedup on ``key`` of ``side`` (a ``(Dataset,
    schema)`` pair); returns the deduplicated Dataset.

    IMPORTANT execution shape: the losers pass CONSUMES the Dataset, so
    pass a materialized one; a lazy pipeline executes TWICE (once for
    losers, once for the filtered output).

    Loser sets up to ``broadcast.DEFAULT_MAX_BROADCAST_ROWS`` are broadcast
    into an anti-filter; larger ones take a coarse-bucket full-row shuffle.
    """
    import ray

    # the loser pass itself enforces the bound DISTRIBUTED (review r5): it
    # returns None — without ever collecting the losers — when the set
    # would exceed it, and the shuffle fallback below never needed the set
    # in the first place
    losers = exact_losers(side, key, order_col, max_collect=broadcast.DEFAULT_MAX_BROADCAST_ROWS)
    if losers is not None:
        # the losers broadcast once; the store's delete-vector kernel drops them
        ref = ray.put(pa.array(sorted(losers)))  # empty: untyped, drops none
        return side[0].map_batches(lambda t: drop_keys(t, order_col, ray.get(ref)),
                                   batch_format="pyarrow")

    # fallback: full-row co-group on the key; inside a bucket every key's
    # rows are co-located, so the block combiner's first-of-run scan IS
    # the global first-wins
    return cogroup([side], key, lambda t: dedup_within_batch(t, key, order_col),
                   schema=side[1])


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
