"""Flagship ingest pipeline: corpus -> decode/stats/phash -> dedup -> store.

The Ray-Data-native restatement of the reference's image chain
(06_extract_images.py decode fan-out + 12_input_images.py row load +
13_calculate_image_stats.py stats pass), collapsed into one streaming
pipeline:

    read (column-pruned)
      -> map_batches(DecodeStats actor pool)     # M5/M6/M11/O7 in one pass
      -> filter decode_ok                        # error channel, not quit()
      -> add host-hash bucket                    # ONE partition key everywhere
      -> dedup_exact on phash (skinny shuffle)   # O7/O3
      -> store commit (atomic manifest)          # resumable sink

No stage materializes the full dataset; the only all-to-all is the skinny
(phash, image_id) dedup pass (see stages/dedup.py).

With a store (:func:`ingest`, :func:`ingest_sharded`) the read, decode,
bucket, sink and loser partials run as ONE fused Ray Data operator
(:func:`_fused_sink`). ``batch_size`` is then the rows per decode call and
per fragment, sliced from source blocks inside the stage; Ray no longer
coalesces small source blocks, so a smaller block is a batch of its own.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.objstore import ObjectStore
from ..sources.store import write_fragment
from ..stages import broadcast
from ..stages.decode import DecodeStats
from ..stages.dedup import dedup_exact

DEFAULT_BUCKETS = 64
# neardup_pass: pair counts up to this run connected components on the
# driver; above it the loser pass is fully distributed (read at call time)
NEARDUP_MAX_DRIVER_PAIRS = 500_000


def add_bucket(ds, n_buckets: int = DEFAULT_BUCKETS, src: str = "host_hash",
               name: str = "bucket"):
    """Attach the host-hash bucket column (the engine-wide partition key)."""

    def bucketize(batch: pa.Table) -> pa.Table:
        hh = batch[src].to_numpy(zero_copy_only=False).view(np.uint64)
        return batch.append_column(name, pa.array((hh % np.uint64(n_buckets)).astype(np.int32)))

    return ds.map_batches(bucketize, batch_format="pyarrow")


def _map_stage(ds, cls, kwargs: dict, concurrency, batch_size: int):
    """``cls(**kwargs)`` over ``ds`` as stateless tasks when ``concurrency``
    is None, else as an actor pool of that size."""
    if concurrency is None:
        return ds.map_batches(cls(**kwargs), batch_format="pyarrow",
                              batch_size=batch_size)
    return ds.map_batches(cls, fn_constructor_kwargs=kwargs,
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


def decode_pipeline(ds, *, concurrency: int | tuple[int, int] | None = None,
                    batch_size: int = 64, keep_bytes: bool = True):
    """read -> DecodeStats -> decode_ok filter. Returns lazy Dataset.

    ``concurrency=None`` (default) runs the stage as stateless tasks (no
    pool startup cost; right when per-actor state is cheap, as with the
    pure-numpy codecs); an int/tuple keeps the actor-pool shape for
    expensive state. CAUTION: a FIXED pool equal to the cluster's CPU
    count starves the read/write stages and deadlocks the pipeline —
    always leave headroom (bench uses NUM_CPUS*3//4).
    """
    out = _map_stage(ds, DecodeStats, {"keep_bytes": keep_bytes}, concurrency,
                     batch_size)
    return out.map_batches(
        lambda t: t.filter(t["decode_ok"]), batch_format="pyarrow"
    )


class IngestStage:
    """Fused decode -> stats -> bucket -> parquet-sink stage (the WaveStage
    pattern for ingest): each task writes its committed rows straight into
    the raw partition's pre-created tmp dir and returns ONLY skinny dedup
    input — so one execution yields both the stored payloads and the loser
    pass, with no separate write operator and no skinny re-read.

    The stage takes whole source blocks and slices each into batches of at
    most ``batch_size`` rows (``None``: the block is one batch). Each batch
    is one decode call, one fragment file and one dedup table; fragment
    files are named by the batch's min image_id, so a retried task
    overwrites its own files.

    ``emit="partials"`` (the default consumer shape): the return stream is
    the batch's LOSER PARTIALS (stages/dedup.py::loser_partials) — per-key
    (min, count) plus batch-local loser markers — so the whole loser pass
    costs zero extra executions: the driver merges the partial stream.
    ``emit="skinny"`` returns raw (phash, image_id) rows instead."""

    def __init__(self, tmp_dir: str, keep_bytes: bool = True,
                 n_buckets: int = DEFAULT_BUCKETS, compression: str = "none",
                 emit: str = "skinny", storage_options: dict | None = None,
                 batch_size: int | None = None):
        self.decode = DecodeStats(keep_bytes=keep_bytes)
        self.tmp_dir = tmp_dir
        self.n_buckets = n_buckets
        self.compression = compression
        self.emit = emit
        self.storage_options = storage_options
        self.batch_size = batch_size

    def __call__(self, block: pa.Table) -> pa.Table:
        step = self.batch_size or max(block.num_rows, 1)
        # an empty block still runs once, so it returns the typed empty output
        outs = [self._batch(block.slice(s, step))
                for s in range(0, max(block.num_rows, 1), step)]
        return outs[0] if len(outs) == 1 else pa.concat_tables(outs)

    def _batch(self, batch: pa.Table) -> pa.Table:
        import hashlib
        import os

        out = self.decode(batch)
        ok = out.filter(out["decode_ok"])
        if ok.num_rows:
            hh = ok["host_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
            ok = ok.append_column("bucket", pa.array(
                (hh % np.uint64(self.n_buckets)).astype(np.int32)))
            # deterministic per-batch file name (batches partition the ids,
            # so min id is unique per batch; retried tasks overwrite). A
            # 128-bit digest, not a 64-bit hash (review r5): at the 10^10
            # design point one partition holds ~1.5e8 batches, where 64-bit
            # birthday collisions (~6e-4/run) would silently overwrite one
            # batch's fragment — undetected row loss under a footer-count
            # commit. 128 bits puts that at ~1e-21.
            # Arrow's min compares UTF-8 bytes, which orders like code
            # points, so string ids pick the same file name as Python's min
            mid = pc.min(ok["image_id"]).as_py()
            tag = hashlib.blake2b(str(mid).encode(), digest_size=16).hexdigest()
            write_fragment(ok, os.path.join(self.tmp_dir, f"part-{tag}.parquet"),
                           compression=self.compression,
                           storage_options=self.storage_options)
        if self.emit == "partials":
            from ..stages.dedup import loser_partials

            return loser_partials(ok.select(["phash", "image_id"]),
                                  "phash", "image_id")
        return ok.select(["phash", "image_id"])


def _fused_sink(source_ds, store: ObjectStore, pid: str, concurrency,
                meta: dict, **stage_kw):
    """Run the source read and :class:`IngestStage` as ONE fused Ray Data
    operator that sinks into partition ``pid``, commit it, and return the
    materialized stage output.

    Ray 2.49 fuses a read with the next map only if (a) the map sets no
    ``batch_size`` (a read may change row counts, and a map that asks for
    a minimum rows per input is then kept apart) and (b) the read splits
    no block (``SplitBlocks(k)``). So the stage slices blocks itself, and
    the read is planned with ``DataContext.read_op_min_num_blocks`` at 1
    for this one execution: Ray's floor of 2x cluster CPUs and its
    max-block-size bound then size the read, with no split as long as the
    source has that many files (with fewer, Ray still splits blocks and
    the read and the stage run as two operators). Unfused, every source
    block, payloads included, crossed the object store between a read
    task and a map task."""
    from ray.data import DataContext

    store._assert_sink_visible()  # fused-sink tasks write from workers
    tmp_dir = store.external_tmp(pid)
    kwargs = dict(tmp_dir=tmp_dir, storage_options=store.storage_options,
                  compression=store.compression, **stage_kw)
    ctx = DataContext.get_current()
    floor = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = 1
    try:
        out = _map_stage(source_ds, IngestStage, kwargs, concurrency,
                         None).materialize()  # drives the sinks
    finally:
        ctx.read_op_min_num_blocks = floor
    store.commit_external(pid, tmp_dir, meta=meta)
    return out


def ingest_sharded(source_files: list[str], store: ObjectStore, *,
                   pid: str = "ingest", files_per_shard: int = 8,
                   concurrency: int | tuple[int, int] | None = None,
                   batch_size: int = 64, n_buckets: int = DEFAULT_BUCKETS) -> str:
    """Resumable-at-shard-granularity ingest over a list of input files.

    One store partition per group of ``files_per_shard`` input files; a
    crashed run re-enters and skips every committed shard (manifest stat,
    no directory listing), re-decoding only the shard that was in flight —
    the brief's "one output directory per input shard" resumability, and
    the reference's per-log is_done loop (06_extract_images.py:17-105)
    generalized. Dedup runs once at the end over ALL shards' skinny
    (phash, image_id) columns and commits a delete-vector view ``pid``;
    past ``broadcast.DEFAULT_MAX_BROADCAST_ROWS`` duplicated keys the
    losers are routed to per-shard files instead of the driver.

    Returns the final (deduplicated view) partition id.
    """
    import ray.data as rd

    shard_ids = []
    files = sorted(source_files)
    for gi in range(0, len(files), files_per_shard):
        group = files[gi : gi + files_per_shard]
        spid = f"{pid}-shard-{gi // files_per_shard:05d}"
        shard_ids.append(spid)
        if store.is_done(spid):
            continue
        # fused read+decode+sink per shard; the returned skinny stream is
        # discarded here — the cross-shard dedup pass below re-reads it
        # column-pruned so resume never re-decodes
        _fused_sink(rd.read_parquet(group), store, spid, concurrency,
                    {"pipeline": "ingest", "files": group},
                    n_buckets=n_buckets, batch_size=batch_size)

    if store.is_done(pid):
        return pid
    from ..stages.dedup import dup_winners, exact_losers_by, exact_losers_files

    # skinny re-read carries the shard id, so the loser pass returns each
    # loser ALREADY ROUTED to its shard — the driver never reads a shard's
    # full image_id column (round-1 residual), only the duplicates come back
    def tag_shard(spid):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column("__shard", pa.array([spid] * t.num_rows))

        return fn

    skinny = None
    for spid in shard_ids:
        if store.rows(spid) == 0:
            # a shard whose rows ALL failed decode commits fileless — its
            # read_dataset is a zero-column Dataset that would poison the
            # union's schema (review r5; same hazard the store's snapshot
            # reads guard with carries_schema). Zero rows = zero dup losers.
            continue
        part = store.read_dataset(spid, columns=["phash", "image_id"]).map_batches(
            tag_shard(spid), batch_format="pyarrow")
        skinny = part if skinny is None else skinny.union(part)
    if skinny is None:  # degenerate: every shard was fileless
        total = 0
        for spid in shard_ids:
            total += store.commit_delete_view(
                f"{pid}-view-{spid}", spid, [], key_col="image_id")
        store.append_meta(pid, {"pipeline": "ingest", "rows_total": total,
                                "shards": [f"{pid}-view-{s}"
                                           for s in shard_ids]})
        return pid

    # duplicated keys only, filtered DISTRIBUTED (O(dup keys) in the object
    # store, never the full distinct-key aggregate on the driver); small dup
    # sets take the broadcast route, huge ones the file-routed join path
    dups = dup_winners(skinny, "phash", "image_id")
    total = 0
    if dups.count() <= broadcast.DEFAULT_MAX_BROADCAST_ROWS:
        losers_by_shard = exact_losers_by(skinny, "phash", "image_id",
                                          "__shard", dups=dups)
        # one delete view per shard + a pid manifest listing them
        for spid in shard_ids:
            total += store.commit_delete_view(
                f"{pid}-view-{spid}", spid, losers_by_shard.get(spid, []),
                key_col="image_id")
    else:
        # bucketed 10^10 path: losers written per shard by a distributed
        # groupby — no key or loser ever transits the driver
        store._assert_sink_visible()  # loser files are written by workers
        loser_dir = store.scratch_dir("losers-")
        routed = exact_losers_files(
            skinny, "phash", "image_id", "__shard", loser_dir, dups=dups,
            storage_options=store.storage_options)
        for spid in shard_ids:
            if spid in routed:
                path, _n = routed[spid]
                total += store.commit_delete_view_file(
                    f"{pid}-view-{spid}", spid, path, key_col="image_id")
            else:
                total += store.commit_delete_view(
                    f"{pid}-view-{spid}", spid, [], key_col="image_id")
        store.rm_scratch(loser_dir)
    # metadata-only listing partition: rows=0/fileless so whole-store
    # snapshot reads and rows() never see it as data
    store.append_meta(pid, {"pipeline": "ingest", "rows_total": total,
                            "shards": [f"{pid}-view-{s}" for s in shard_ids]})
    return pid


def read_sharded(store: ObjectStore, pid: str, columns: list[str] | None = None):
    """Union Dataset over a sharded-ingest result's per-shard delete views."""
    meta = store.manifest(pid).get("meta", {})
    shards = meta.get("shards")
    if shards is None:  # pre-meta-listing stores kept the list as data rows
        shards = store.read_table(pid)["shards"].to_pylist()
    # zero-row shards (views over fileless bases) carry no schema and
    # would poison the union (review r5) — but keep ONE if all are empty
    # so the caller still gets a Dataset back
    nonempty = [s for s in shards if store.rows(s) > 0] or shards[:1]
    ds = store.read_dataset(nonempty[0], columns=columns)
    for s in nonempty[1:]:
        ds = ds.union(store.read_dataset(s, columns=columns))
    return ds


def ingest(source_ds, store: ObjectStore | None = None, pid: str = "ingest", *,
           concurrency: int | tuple[int, int] | None = None, batch_size: int = 64,
           dedup: bool = True, n_buckets: int = DEFAULT_BUCKETS,
           keep_bytes: bool = True):
    """Run the flagship pipeline; returns the final Dataset.

    With a store, the pipeline is ONE fused execution plus a metadata
    commit; nothing re-decodes or materializes the corpus:

      1. source read + :class:`IngestStage` as one Ray Data operator
         (:func:`_fused_sink`): decode, sink to raw partition
         ``{pid}-raw`` (atomic) and per-batch loser partials, each batch
         at most ``batch_size`` rows sliced from a source block;
      2. the driver merges the partials into the loser set (past
         ``broadcast.DEFAULT_MAX_BROADCAST_ROWS`` partials: losers from a
         column-pruned (phash, image_id) re-read of the raw partition,
         16 bytes/row leaves storage, not the payloads) and commits the
         delete-vector view ``pid``.

    Both partitions are is_done-guarded, so a rerun (or a crash between the
    passes) resumes exactly — the reference's count-ledger idempotency
    (07:28-42) as manifest stats.

    Without a store (smoke/tests), the decoded wave is materialized once in
    the object store before the dedup passes — small inputs only.
    """
    if store is not None and store.is_done(pid):
        return store.read_dataset(pid)

    if store is None:
        ds = decode_pipeline(source_ds, concurrency=concurrency, batch_size=batch_size,
                             keep_bytes=keep_bytes)
        ds = add_bucket(ds, n_buckets)
        if dedup:
            ds = ds.materialize()
            ds = dedup_exact(ds, key="phash", order_col="image_id")
        return ds

    from ..stages.dedup import exact_losers, merge_loser_partials

    raw_pid = f"{pid}-raw" if dedup else pid
    losers: frozenset | None = None
    if not store.is_done(raw_pid):
        # ONE fused execution: read+decode+stats+bucket+sink per task, the
        # LOSER PARTIALS as the return stream — no separate write operator,
        # no skinny re-read, and no second execution for the loser pass
        partials = _fused_sink(
            source_ds, store, raw_pid, concurrency,
            {"pipeline": "ingest", "stage": "raw" if dedup else "final"},
            keep_bytes=keep_bytes, n_buckets=n_buckets, batch_size=batch_size,
            emit="partials" if dedup else "skinny")
        if not dedup:
            return store.read_dataset(pid)
        if partials.count() <= broadcast.DEFAULT_MAX_BROADCAST_ROWS:
            # one Arrow concat + ONE pandas conversion: to_pandas() on a
            # many-small-block materialized dataset pays a per-block
            # pandas build (~1.5 s at 157 blocks, measured)
            import ray

            tabs = ray.get(partials.to_arrow_refs())
            pdf = pa.concat_tables(tabs).to_pandas()
            losers = merge_loser_partials(pdf, "phash")
        # else: fall through to the skinny re-read scale path below

    if losers is None:  # resume path: raw committed earlier, recompute skinny
        if store.rows(raw_pid) == 0:  # fileless raw (all rows failed
            # decode): zero-column read_dataset, and zero dup losers
            losers = frozenset()
        else:
            skinny = store.read_dataset(raw_pid, columns=["phash", "image_id"])
            losers = exact_losers(skinny, "phash", "image_id")
    # dedup as metadata: commit a delete-vector view over the raw partition —
    # the payload bytes are written exactly once (lakehouse delete vectors;
    # Lance deletions). Readers of `pid` get the filtered stream.
    store.commit_delete_view(pid, raw_pid, losers, key_col="image_id",
                             meta={"pipeline": "ingest", "stage": "dedup"})
    return store.read_dataset(pid)


def neardup_pass(store: ObjectStore, base_pid: str, pid: str | None = None, *,
                 max_hamming: int = 2, max_bucket: int = 4096,
                 num_loser_files: int = 16) -> str:
    """NEAR-dup cluster dedup post-pass over a committed partition.

    Third dedup tier after exact phash dedup: a column-pruned
    (image_id, phash) re-read of ``base_pid`` (16 bytes + id per row — the
    payloads never leave storage) feeds the Dataset-native pigeonhole
    Hamming pair generator (stages/hamming.py::hamming_pairs_ds), pairs
    become first-wins cluster losers (per-cluster lexicographic-min
    image_id survives) via connected components (stages/cc.py), and the
    losers are committed as a delete-vector VIEW ``pid`` over the base —
    dedup stays metadata, exactly like the exact pass in :func:`ingest`.

    TWO loser tiers off the one pair Dataset, picked by its measured size:

    - ``<= NEARDUP_MAX_DRIVER_PAIRS``: driver-side vectorized CC
      (:func:`..stages.cc.cc_labels_df`) + one broadcast-probe scan to
      resolve the hashed ids back to strings — the common case, no extra
      Ray rounds.
    - above it: fully distributed — :func:`..stages.cc.cluster_losers_ds`
      (star-contraction CC + co-grouped id resolution), then losers route
      by id-hash into ``num_loser_files`` buckets and each bucket's task
      writes its own sorted+unique loser file
      (:func:`..stages.dedup.write_loser_files` — round-3 verdict: no
      single-writer funnel); the driver never
      holds a pair, a label or a loser
      (:meth:`ObjectStore.commit_delete_view_files`).

    Both tiers drop the SAME set (CC and the min-string winner rule do not
    depend on the id hashing), so tier choice never changes results.
    Dropped oversize buckets surface via the marker channel into the
    manifest meta. Resume: a committed ``pid`` short-circuits. Returns
    ``pid``.
    """
    import pandas as pd
    import ray

    from ..stages.cc import cc_labels_df, cluster_losers_ds
    from ..stages.hamming import hamming_pairs_ds, str_id64

    pid = pid or f"{base_pid}-neardup"
    if store.is_done(pid):
        return pid

    def add_id64(t: pa.Table) -> pa.Table:
        return pa.table({"image_id": t["image_id"], "phash": t["phash"],
                         "__id64": pa.array(
                             str_id64(t["image_id"].to_pylist()))})

    # LAZY on purpose (round-3 verdict: a materialize here pins ~40 B+id
    # per corpus row in the object store — ~1 TB at 10^10 rows). The two
    # consumers (pair generation, id resolution) are one column-pruned
    # re-read each, and str_id64 is cheap to recompute.
    skinny = (store.read_dataset(base_pid, columns=["image_id", "phash"])
              .map_batches(add_id64, batch_format="pyarrow"))
    pairs_ds, n_dropped = hamming_pairs_ds(
        skinny, code_col="phash", id_col="__id64",
        max_hamming=max_hamming, max_bucket=max_bucket)
    n_pairs = pairs_ds.count()
    meta = {"pipeline": "ingest", "stage": "neardup",
            "max_hamming": max_hamming, "n_pairs": int(n_pairs),
            "dropped_buckets": int(n_dropped)}

    if n_pairs == 0:
        store.commit_delete_view(pid, base_pid, [], key_col="image_id",
                                 meta={**meta, "tier": "empty"})
        return pid

    if n_pairs <= NEARDUP_MAX_DRIVER_PAIRS:
        pairs = pairs_ds.to_pandas()
        lab = cc_labels_df(pairs)
        ref = ray.put(pa.array(lab["node"].to_numpy()))

        def probe(t: pa.Table) -> pa.Table:
            sel = t.filter(pc.is_in(t["__id64"], value_set=ray.get(ref)))
            return sel.select(["image_id", "__id64"])

        look = skinny.map_batches(probe, batch_format="pyarrow").to_pandas()
        name = dict(zip(look["__id64"], look["image_id"]))
        df = pd.DataFrame({"component": lab["component"],
                           "id": lab["node"].map(name)})
        df = df.sort_values(["component", "id"], kind="mergesort")
        losers = df.loc[df["component"].duplicated(), "id"]
        store.commit_delete_view(pid, base_pid, losers, key_col="image_id",
                                 meta={**meta, "tier": "driver"})
        return pid

    # distributed tier: losers never transit the driver. Each id-hash
    # bucket writes its OWN file (ids co-locate by hash, so per-file
    # unique implies globally disjoint files) — no single-writer funnel.
    from ..functions.cogroup import _bucket_of
    from ..stages.dedup import write_loser_files

    losers_ds = cluster_losers_ds(pairs_ds,
                                  skinny.select_columns(["__id64", "image_id"]),
                                  id64_col="__id64", id_col="image_id")
    store._assert_sink_visible()  # worker writes into store scratch below
    loser_dir = store.scratch_dir("neardup-losers-")

    def rebucket(t: pa.Table) -> pa.Table:
        return t.append_column("__g", _bucket_of(t["image_id"],
                                                 num_loser_files))

    wrote = write_loser_files(
        (losers_ds.map_batches(rebucket, batch_format="pyarrow"),
         pa.schema([("image_id", pa.string()), ("__g", pa.int32())])),
        "__g", "image_id", loser_dir, store.storage_options)
    try:
        store.commit_delete_view_files(
            pid, base_pid, [r["path"] for r in wrote], key_col="image_id",
            meta={**meta, "tier": "distributed",
                  "loser_files": len(wrote)})
    finally:
        store.rm_scratch(loser_dir)
    return pid
