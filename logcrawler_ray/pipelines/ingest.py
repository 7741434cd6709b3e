"""Flagship ingest pipeline: corpus -> decode/stats/phash -> dedup -> store.

The Ray-Data-native restatement of the reference's image chain
(06_extract_images.py decode fan-out + 12_input_images.py row load +
13_calculate_image_stats.py stats pass), collapsed into one streaming
pipeline per source-file group:

    read + IngestStage (ONE fused operator)   # M5/M6/M11/O7 in one pass:
                                              # decode, error channel
                                              # (decode_ok), host-hash
                                              # bucket, parquet sink and
                                              # per-batch loser partials
      -> extend commit into {pid}-raw         # one manifest PUT per group
      -> loser pass on phash                  # O7/O3, driver or distributed
      -> delete-vector view {pid}             # dedup as metadata

:func:`ingest` is the one ingest. A crashed run resumes per file group,
like the reference's per-log is_done loop (06_extract_images.py:17-105).
No stage materializes the payloads; the loser pass sees skinny
(phash, image_id) rows or their partials (see stages/dedup.py).
``batch_size`` is the rows per decode call and per fragment, sliced from
source blocks inside the stage; Ray no longer coalesces small source
blocks, so a smaller block is a batch of its own.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.objstore import ObjectStore
from ..sources.store import write_fragment
from ..stages import broadcast
from ..stages.decode import DecodeStats

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
    the raw partition's pre-created tmp dir and returns ONLY its batches'
    LOSER PARTIALS (stages/dedup.py::loser_partials) — per-key (min, count)
    plus batch-local loser markers — so one execution yields both the
    stored payloads and the loser pass: the driver merges the partial
    stream. ``emit`` names that output; it is the only one.

    The stage takes whole source blocks and slices each into batches of at
    most ``batch_size`` rows (``None``: the block is one batch). Each batch
    is one decode call, one fragment file and one partials table; fragment
    files are named by the batch's min image_id, so a retried task
    overwrites its own files."""

    def __init__(self, tmp_dir: str, compression: str = "none",
                 emit: str = "partials", storage_options: dict | None = None,
                 batch_size: int | None = None):
        if emit != "partials":
            raise ValueError(f"IngestStage emits loser partials, not {emit!r}")
        self.decode = DecodeStats()
        self.tmp_dir = tmp_dir
        self.compression = compression
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

        from ..stages.dedup import loser_partials

        out = self.decode(batch)
        ok = out.filter(out["decode_ok"])
        if ok.num_rows:
            hh = ok["host_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
            ok = ok.append_column("bucket", pa.array(
                (hh % np.uint64(DEFAULT_BUCKETS)).astype(np.int32)))
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
        return loser_partials(ok.select(["phash", "image_id"]), "phash", "image_id")


def _fused_sink(source_ds, store: ObjectStore, pid: str, concurrency,
                meta: dict, **stage_kw):
    """Run the source read and :class:`IngestStage` as ONE fused Ray Data
    operator that sinks into partition ``pid``, commit it as an extension
    of ``pid`` (one manifest PUT), and return the materialized stage
    output.

    Ray 2.49 fuses a read with the next map only if (a) the map sets no
    ``batch_size`` (a read may change row counts, and a map that asks for
    a minimum rows per input is then kept apart) and (b) the read splits
    no block (``SplitBlocks(k)``). So the stage slices blocks itself, and
    the read is planned with ``DataContext.read_op_min_num_blocks`` at 1
    for this one execution: Ray's floor of 2x cluster CPUs and its
    max-block-size bound then size the read, with no split as long as the
    source has that many files (with fewer, Ray still splits blocks and
    the read and the stage run as two operators, so :func:`ingest` reads a
    path group with one task per file). Unfused, every source block,
    payloads included, crossed the object store between a read task and a
    map task."""
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
    store.commit_external(pid, tmp_dir, meta=meta, extend=True)
    return out


def _commit_loser_files(store: ObjectStore, pid: str, base_pid: str, write,
                        meta: dict) -> int:
    """The library's one loser-file commit, for loser sets too large for
    the driver: ``write(loser_dir)`` writes the losers into a fresh
    worker-visible scratch dir (:func:`..stages.dedup.write_loser_files`)
    and returns the file paths; they are committed as the delete-vector
    view ``pid`` over ``base_pid``, and the scratch dir goes whether or not
    the commit succeeds. Returns the view's rows."""
    store._assert_sink_visible()  # loser files are written by workers
    loser_dir = store.scratch_dir("losers-")
    try:
        paths = write(loser_dir)
        return store.commit_delete_view_files(
            pid, base_pid, paths, key_col="image_id",
            meta={**meta, "tier": "distributed", "loser_files": len(paths)})
    finally:
        store.rm_scratch(loser_dir)


def ingest(source, store: ObjectStore, pid: str = "ingest", *,
           files_per_group: int | None = None,
           concurrency: int | tuple[int, int] | None = None,
           batch_size: int = 64):
    """Ingest ``source`` into ``store``; returns the deduplicated Dataset.

    ``source`` is a ``ray.data.Dataset`` (one group) or a list of parquet
    paths, sorted and split into groups of ``files_per_group`` files (all
    of them when ``None``). Per group:

      1. the group's read + :class:`IngestStage` run as one Ray Data
         operator (:func:`_fused_sink`): decode, sink and per-batch loser
         partials, each batch at most ``batch_size`` rows sliced from a
         source block;
      2. the group's files are committed into raw partition ``{pid}-raw``
         by one extend commit, whose manifest meta records every committed
         group's file list (``null`` for a Dataset source).

    A rerun skips every recorded group, so a crash re-decodes only the
    group that was in flight — the reference's count-ledger idempotency
    (07:28-42) as manifest stats. Then one loser pass, tiered by size:

      - every group ran in this call and their partials total at most
        ``broadcast.DEFAULT_MAX_BROADCAST_ROWS`` rows: the driver merges
        them (no second execution);
      - otherwise ``exact_losers`` over a column-pruned (phash, image_id)
        re-read of ``{pid}-raw`` (16 bytes/row leave storage, not the
        payloads), collecting at most that bound on the driver;
      - past the bound, the losers are written by workers and committed as
        files (:func:`_commit_loser_files`), never passing the driver.

    The losers become the delete-vector view ``pid``: the payload bytes are
    written exactly once (lakehouse delete vectors; Lance deletions). The
    returned view Dataset is built from manifests alone: its read tasks
    load the losers (``ObjectStore.read_dataset``), so none transits the
    driver on return. A committed ``pid`` returns at once, for a manifest
    stat and two manifest reads.
    """
    import ray.data as rd

    from ..stages import dedup

    if store.is_done(pid):
        return store.read_dataset(pid)
    if isinstance(source, (list, tuple)):
        files = sorted(source)
        step = files_per_group or max(len(files), 1)
        groups = [files[i:i + step] for i in range(0, len(files), step)]
        if not groups:
            raise ValueError("ingest: no source files")
    else:
        groups = [None]
    raw_pid = f"{pid}-raw"
    # a raw partition that records no groups predates them, and was then
    # always written by one Dataset source
    done = (store.manifest(raw_pid)["meta"].get("groups", [None])
            if store.is_done(raw_pid) else [])
    partials = []
    for group in groups:
        if group in done:
            continue
        done = [*done, group]
        # one read task per file: fewer files than Ray's read floor would
        # otherwise get SplitBlocks, and the read would not fuse
        partials.append(_fused_sink(
            source if group is None
            else rd.read_parquet(group, override_num_blocks=len(group)),
            store, raw_pid, concurrency,
            {"pipeline": "ingest", "stage": "raw", "groups": done},
            batch_size=batch_size))

    bound = broadcast.DEFAULT_MAX_BROADCAST_ROWS
    meta = {"pipeline": "ingest", "stage": "dedup"}
    if (len(partials) == len(groups)
            and sum(p.count() for p in partials) <= bound):
        # one Arrow concat + ONE pandas conversion: to_pandas() on a
        # many-small-block materialized dataset pays a per-block pandas
        # build (~1.5 s at 157 blocks, measured)
        import ray

        tabs = [t for p in partials for t in ray.get(p.to_arrow_refs())]
        losers = dedup.merge_loser_partials(pa.concat_tables(tabs).to_pandas(),
                                            "phash")
    elif store.rows(raw_pid) == 0:
        # fileless raw (every row failed decode): nothing to re-read
        losers = frozenset()
    else:
        cols = ["phash", "image_id"]
        skinny = (store.read_dataset(raw_pid, columns=cols),
                  store.file_schema(raw_pid, cols))
        winners: list = []
        losers = dedup.exact_losers(skinny, "phash", "image_id",
                                    max_collect=bound, winners=winners)
        if losers is None:
            _commit_loser_files(
                store, pid, raw_pid,
                lambda d: dedup.exact_losers_files(
                    skinny, "phash", "image_id", d, dups=winners[0],
                    storage_options=store.storage_options), meta)
            return store.read_dataset(pid)
    store.commit_delete_view(pid, raw_pid, losers, key_col="image_id",
                             meta=meta)
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
      single-writer funnel), committed by :func:`_commit_loser_files`; the
      driver never holds a pair, a label or a loser.

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
    from ..stages.dedup import write_loser_files

    losers_ds = cluster_losers_ds(pairs_ds,
                                  skinny.select_columns(["__id64", "image_id"]),
                                  id64_col="__id64", id_col="image_id")
    _commit_loser_files(
        store, pid, base_pid,
        lambda d: write_loser_files(
            (losers_ds, pa.schema([("image_id", pa.string())])), "image_id",
            d, num_loser_files, store.storage_options), meta)
    return pid
