"""CrawlEngine — the streaming URL-frontier pipeline (the north rule).

Replaces the reference's outermost pattern — a sorted for-loop over log
folders with per-log is_done count checks (reference:
02_combine_logs.py:225-284, 06_extract_images.py:17-105, §4 of SURVEY.md)
— with a real crawl scheduler executed in BSP waves:

  wave k:
    1. DRAIN  — each frontier shard pops up to B/n_shards entries in
       (priority, next_fetch_time, seq) order, assigning politeness-budget
       fetch times on a virtual ms clock (deterministic).
    2. FETCH+DECODE — the drained rows become a ray.data Dataset;
       map_batches(FetchWorker actor pool) fetches bytes+links,
       map_batches(DecodeStats actor pool) decodes + stats + phash.
       Errors flow to channels (fetch_ok/decode_ok), never crash the wave.
    3. COMMIT — ok rows are appended to the store as partition
       ``wave-k`` (atomic manifest; per-partition lineage = wave metrics).
    4. ENQUEUE — discovered links, in (parent seq, link index) order:
       canonicalize (M17 analog) -> robots filter (+ per-host crawl-delay
       registration) -> sharded bloom+cuckoo add_if_new -> push to the
       host's frontier shard. Ordered processing makes the seen-set
       byte-identical to the serial reference executor.
    5. CHECKPOINT — frontier+budget+seen+clock snapshot (atomic).

  Crawl ordering := the concatenation over waves of drained rows sorted by
  (priority, fetch_time, seq). tests/test_crawl.py asserts it equals the
  serial executor's order, survives kill+resume, and that phash dedup of
  the final table matches.

Host-hash is the single partition key throughout: seen shard = frontier
shard = budget shard = hash(host) % n_shards, so no cross-shard
coordination ever happens (SURVEY.md §7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64_str, splitmix64
from ..functions.urlnorm import canonicalize, host_hash, host_of, path_of
from ..sources.hosts import SyntheticWeb
from ..sources.objstore import open_store
from ..sources.store import write_fragment
from ..stages.decode import DecodeStats
from ..stages.fetch import FetchWorker
from ..state.checkpoint import CheckpointDir


@dataclass
class CrawlConfig:
    """One crawl's settings. Every wave runs the fused :class:`WaveStage`
    as stateless tasks; shard-group placement is :class:`CrawlState`'s."""

    seed: int = 42
    n_hosts: int = 12
    pages_per_host: int = 200
    n_shards: int = 4
    wave_size: int = 256          # max URLs fetched per wave (global)
    horizon: int = 60_000         # ms beyond `now` a fetch may be scheduled
    max_depth: int = 3
    max_waves: int = 50
    seen_capacity: int = 1 << 16  # per shard
    # rows per fetch+decode batch inside a WaveStage task
    batch_size: int = 64
    priority_mode: str = "hash"  # hash | fifo | reverse (the --reverse analog)
    web_params: dict = field(default_factory=dict)

    def web(self) -> SyntheticWeb:
        return SyntheticWeb(seed=self.seed, n_hosts=self.n_hosts,
                            pages_per_host=self.pages_per_host, **self.web_params)


def url_priority(url: str, seed: int, mode: str = "hash") -> int:
    """Priority assignment. "hash" = stable pseudo-random (default);
    "fifo" = all equal (pure admission order); "reverse" = inverted hash —
    the analog of the reference's ``--reverse`` traversal flag
    (02_combine_logs.py:216-219, used there for manual work sharing)."""
    if mode == "fifo":
        return 0
    # int(...) BEFORE the mod: python-int % np.uint64 silently computes in
    # float64 (precision-lossy above 2^53) — exact integer math here keeps
    # the scalar path byte-identical to _route_links' vectorized uint64 mod
    p = int(splitmix64(np.uint64(hash64_str(url)) ^ np.uint64(seed))) % 10
    return 9 - p if mode == "reverse" else p


# the columns of CrawlShard.enqueue_batch, as CrawlState.enqueue builds them
_ITEMS = pa.schema([("url", pa.string()), ("host", pa.string()),
                    ("path", pa.string()), ("depth", pa.int32()),
                    ("priority", pa.int32())])

# the CrawlState.state() layout: one CrawlShard.snapshot bytes per shard
STATE_FORMAT = "shard-snapshots-1"


def _cluster_cpus() -> int:
    """The cluster's CPU count (placement only)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 1))


def _shard_group_count(n_shards: int) -> int:
    """Shard groups to run: one per cluster CPU, at most one per shard.
    Shards never coordinate, so this is placement only — any count gives
    the same crawl. At 1 the group is hosted in the driver (CrawlState)."""
    return max(1, min(n_shards, _cluster_cpus()))


def _wave_block_count(rows: int, batch_size: int) -> int:
    """Blocks of a wave's Dataset: two per cluster CPU, so every CPU has a
    task and one more queued, but none smaller than ``batch_size`` rows —
    a wave's Ray execution costs per task, and on a small cluster fewer,
    larger tasks win. Placement only: WaveStage slices each block into
    ``batch_size``-row batches itself, so the crawl is the same at any
    count."""
    return max(1, min(2 * _cluster_cpus(), rows // batch_size))


class CrawlState:
    """Control plane: the CrawlShards (one per host-hash shard) + clock.

    Shards live in ``k`` ShardGroups, shard ``i`` in group ``i % k``;
    ``shards`` holds the groups. Placement never changes the state
    evolution (see state/shard.py for the equivalence argument):
    - ``use_actors=False`` (the reference executor): ``k = 1``, one plain
      group in this process, serial calls;
    - ``use_actors=True`` (the engine): ``k = min(n_shards, cluster CPUs)``
      (``_shard_group_count``). At ``k > 1`` the groups are actors and a
      wave's enqueue/drain fan out across them in parallel. At ``k == 1``
      there is nothing to run beside the driver, which blocks on every
      shard call, so the one group stays in the driver as a plain object:
      no actor spawn on start or resume, no copy of the shard state per
      call. ``use_actors`` then reads False.

    ``snapshots`` (one ``CrawlShard.snapshot`` per shard) builds each group
    straight from its shards' snapshots.
    """

    def __init__(self, cfg: CrawlConfig, use_actors: bool = False,
                 snapshots: list[bytes] | None = None):
        from ..state.shard import ShardGroup, make_shard_actor_cls

        self.cfg = cfg
        web = cfg.web()
        n = cfg.n_shards
        k = _shard_group_count(n) if use_actors else 1
        self.use_actors = k > 1
        new_group = make_shard_actor_cls().remote if self.use_actors else ShardGroup
        self.shards = [new_group(list(range(g, n, k)), n, cfg.seen_capacity,
                                 cfg.seed, web.robots_txt,
                                 snapshots[g::k] if snapshots else None)
                       for g in range(k)]
        self.now = 0
        self.wave = -1

    def _call(self, method: str, args_per_shard: list[tuple]) -> list:
        """``method`` on every shard with its own arguments; results in
        shard order."""
        if not self.use_actors:
            return self.shards[0].each(method, args_per_shard)
        import ray

        k = len(self.shards)
        refs = [None] * len(args_per_shard)
        for i, g in enumerate(self.shards):
            args = args_per_shard[i::k]
            # one return object per shard (see ShardGroup.call)
            r = g.call.options(num_returns=len(args)).remote(method, args)
            refs[i::k] = r if len(args) > 1 else [r]
        return ray.get(refs)

    def _each(self, method: str, *args) -> list:
        """``method(*args)`` on every shard; results in shard order."""
        return self._call(method, [args] * self.cfg.n_shards)

    def shard_of(self, host: str) -> int:
        return host_hash(host) % self.cfg.n_shards

    # -- enqueue (ordered per shard, deterministic) -----------------------
    def enqueue(self, raw_urls: list[str], depths: list[int]) -> int:
        """Canonicalize + route to shards (per-shard relative order
        preserved — that order is the engine contract), then the shards
        apply robots -> seen -> push, in parallel in actor mode."""
        per_shard: list[list[tuple]] = [[] for _ in range(self.cfg.n_shards)]
        for url, depth in zip(raw_urls, depths):
            cu = canonicalize(url)
            host = host_of(cu)
            path = path_of(cu)
            per_shard[self.shard_of(host)].append(
                (cu, host, path, depth,
                 url_priority(cu, self.cfg.seed, self.cfg.priority_mode)))
        counts = self._call("enqueue_batch", [
            (pa.Table.from_arrays(
                [pa.array(c, f.type) for c, f in
                 zip(list(zip(*b)) or [()] * len(_ITEMS), _ITEMS)],
                schema=_ITEMS),)
            for b in per_shard])
        return sum(counts)

    def enqueue_routed_blocks(self, block_refs: list) -> int:
        """Block-handle variant (the scale path): every shard group receives
        the SAME list of routed-link block refs, fetches them once and each
        of its shards extracts + orders its own slice. With actor groups
        the driver never materializes a wave's links; an in-driver group
        fetches them into the driver (bounded by ``wave_size``)."""
        if not self.use_actors:
            return self.shards[0].enqueue_routed_blocks(block_refs)
        import ray

        return sum(ray.get([g.enqueue_routed_blocks.remote(block_refs)
                            for g in self.shards]))

    # -- drain ------------------------------------------------------------
    def drain_wave(self) -> list[dict]:
        """The wave's rows in (priority, fetch_time, seq) order: each shard
        drains an ordered table, and one Arrow sort merges them."""
        per_shard = max(1, self.cfg.wave_size // self.cfg.n_shards)
        results = self._each("drain", self.now, per_shard, self.cfg.horizon)
        self.now = max([self.now] + [t for _, t in results])
        merged = pa.concat_tables([rows for rows, _ in results]).sort_by(
            [("priority", "ascending"), ("fetch_time", "ascending"),
             ("seq", "ascending")])
        # Table.to_pylist boxes every value as an Arrow scalar (~7x slower)
        cols = [merged[k].to_numpy(zero_copy_only=False).tolist() for k in
                ("url", "host", "priority", "depth", "seq", "fetch_time")]
        return [{"url": u, "host": h, "priority": p, "depth": d, "seq": s,
                 "fetch_time": t} for u, h, p, d, s, t in zip(*cols)]

    def frontier_size(self) -> int:
        return sum(self._each("size"))

    def seen_size(self) -> int:
        return sum(self._each("seen_size"))

    def seen_tables(self) -> list:
        return self._each("cuckoo_table")

    # -- snapshot ---------------------------------------------------------
    def state(self) -> dict:
        """O(shards) snapshot — the fetch log is NOT part of it. Round-1
        verdict: appending every fetched URL into each checkpoint made
        checkpoint bytes O(waves^2); the log now streams to a store
        partition per wave (CrawlEngine.run_wave step 3b), and the
        checkpoint carries only the wave watermark + shard states.

        Each shard pickles its own state where it lives
        (``CrawlShard.snapshot``), so the checkpoint is byte-equal at any
        group count, in-driver or not, with no copy through Ray."""
        return {"format": STATE_FORMAT, "now": self.now, "wave": self.wave,
                "shards": self._each("snapshot")}

    @classmethod
    def from_state(cls, cfg: CrawlConfig, st: dict,
                   use_actors: bool = False) -> "CrawlState":
        if st.get("format") != STATE_FORMAT:
            raise ValueError(
                f"crawl checkpoint format {st.get('format')!r} is not "
                f"{STATE_FORMAT!r}: it was written by an older version "
                "(per-entry frontier state), which this version cannot "
                "resume; start the crawl afresh")
        obj = cls(cfg, use_actors=use_actors, snapshots=st["shards"])
        obj.now = st["now"]
        obj.wave = st["wave"]
        return obj


# A URL matching this RE2 pattern is a FIXED POINT of ``canonicalize``
# (no surrounding whitespace, lowercase http/https scheme, lowercase host,
# no port/userinfo/fragment, no empty/"."/".." path segments, no trailing
# slash except the bare root, non-empty whitespace-free query if any — a
# query WITH whitespace can be a fixed point too, but is routed to the slow
# path so the char classes stay strictly whitespace-free) — and the same
# extraction yields its host and its path-with-query exactly as
# ``urlnorm.host_of``/``urlnorm.path_of`` would. Verified by fuzz against
# canonicalize in tests/test_crawl.py::test_route_links_fast_path.
_CANONICAL_URL_RE = (
    r'^(?P<url>https?://(?P<host>[a-z0-9](?:[a-z0-9.-]*[a-z0-9])?)'
    r'(?P<path>(?:/|(?:/[A-Za-z0-9_~%+-][A-Za-z0-9._~%+-]*)+)(?:\?[^#\s]+)?))$')


def _route_links(t: pa.Table, *, seed: int, mode: str, n_shards: int,
                 max_depth: int) -> pa.Table:
    """Per-link canonicalize + priority + shard routing, run INSIDE the wave
    pipeline (map_batches) so the per-URL hash/string work parallelizes.

    The explode is Arrow-native (``list_flatten`` + ``list_parent_indices``)
    and already-canonical URLs — the overwhelming majority of a real crawl's
    links — are validated and split host/path in ONE vectorized RE2 pass
    (``_CANONICAL_URL_RE``); only the non-canonical remainder pays the
    branchy per-URL Python ``canonicalize``. Priority and shard id are one
    vectorized hash pass, byte-identical to the serial executor's scalar
    arithmetic (uint64 splitmix + mod)."""
    from ..functions.hashing import hash64_str_array

    nd = pc.add(t["depth"], 1)
    t2 = t.set_column(t.schema.get_field_index("depth"), "depth", nd)
    t2 = t2.filter(pc.less_equal(nd, max_depth))
    links = t2["links"].combine_chunks()
    flat = pc.list_flatten(links)
    parent = pc.list_parent_indices(links).to_numpy()
    lens = pc.list_value_length(links).fill_null(0).to_numpy().astype(np.int64)
    starts = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    idx = (np.arange(len(flat), dtype=np.int64) - starts[parent]).astype(np.int32)
    parent_idx = pa.array(parent)
    seqs = pc.take(t2["seq"], parent_idx)
    depths = pc.cast(pc.take(t2["depth"], parent_idx), pa.int32())

    m = pc.extract_regex(flat, pattern=_CANONICAL_URL_RE)
    if m.null_count:  # slow path: the few non-canonical spellings
        urls = flat.to_pylist()
        hosts = m.field("host").to_pylist()
        paths = m.field("path").to_pylist()
        for i in np.flatnonzero(
                ~pc.is_valid(m).to_numpy(zero_copy_only=False)):
            cu = canonicalize(urls[i])
            urls[i] = cu
            hosts[i] = host_of(cu)
            paths[i] = path_of(cu)
        url_arr = pa.array(urls, pa.string())
        host_arr = pa.array(hosts, pa.string())
        path_arr = pa.array(paths, pa.string())
    else:  # fast path: stay zero-copy Arrow end-to-end (no pylist round trip)
        url_arr = flat
        host_arr = m.field("host")
        path_arr = m.field("path")
    # vectorized priority (url_priority's exact arithmetic, batched) and
    # shard routing (host_hash % n_shards, batched); hash64_str_array reads
    # the Arrow UTF-8 buffers directly
    if mode == "fifo":
        prio = np.zeros(len(url_arr), dtype=np.int32)
    else:
        p = (splitmix64(hash64_str_array(url_arr) ^ np.uint64(seed))
             % np.uint64(10)).astype(np.int32)
        prio = (9 - p) if mode == "reverse" else p
    shard = (hash64_str_array(host_arr, seed=0x05757)
             % np.uint64(n_shards)).astype(np.int32)
    return pa.table({
        "seq": pc.cast(seqs, pa.int64()),
        "idx": pa.array(idx),
        "url": url_arr,
        "host": host_arr,
        "path": path_arr,
        "depth": depths,
        "priority": pa.array(prio),
        "shard": pa.array(shard),
    })


class WaveStage:
    """Fused fetch -> decode -> parquet-sink -> link-route stage.

    One map_batches layer per wave (ONE Ray Data execution where the BSP
    loop previously ran three: fetch+decode, write, route). Each task
    writes its committed image rows straight into the wave partition's
    pre-created tmp dir — the large payload bytes never re-enter the
    object store — and returns only the skinny ROUTED link columns. The
    output file is named by the batch's min seq, so a retried task
    overwrites its own file (idempotent) instead of duplicating rows.

    It runs as a plain callable in stateless tasks: Ray Data actor pools
    start per Dataset execution, so a BSP loop would pay pool startup
    (~2 s) every wave. Ray hands it whole blocks (no Ray ``batch_size``:
    the ``IngestStage`` recipe); it cuts each into batches of at most
    ``batch_size`` rows itself.
    """

    def __init__(self, web_params: dict, tmp_dir: str, *, seed: int, mode: str,
                 n_shards: int, max_depth: int, batch_size: int = 64,
                 compression: str = "none",
                 storage_options: dict | None = None):
        self.fetch = FetchWorker(web_params=web_params)
        self.decode = DecodeStats(keep_bytes=True)
        self.tmp_dir = tmp_dir
        self.seed = seed
        self.mode = mode
        self.n_shards = n_shards
        self.max_depth = max_depth
        self.batch_size = batch_size
        self.compression = compression
        self.storage_options = storage_options

    def __call__(self, block: pa.Table) -> pa.Table:
        step = self.batch_size
        # an empty block still runs once, so it returns the typed empty output
        outs = [self._batch(block.slice(s, step))
                for s in range(0, max(block.num_rows, 1), step)]
        return outs[0] if len(outs) == 1 else pa.concat_tables(outs)

    def _batch(self, t: pa.Table) -> pa.Table:
        import os

        fetched = self.fetch(t)
        ok = fetched.filter(fetched["fetch_ok"])
        decoded = self.decode(ok)
        img = decoded.filter(decoded["decode_ok"]).drop_columns(
            ["links", "fetch_ok", "decode_ok"])
        if img.num_rows:
            min_seq = int(np.min(img["seq"].to_numpy()))
            write_fragment(
                img, os.path.join(self.tmp_dir, f"part-{min_seq:010d}.parquet"),
                compression=self.compression,
                storage_options=self.storage_options)
        return _route_links(decoded.select(["seq", "depth", "links"]),
                            seed=self.seed, mode=self.mode,
                            n_shards=self.n_shards, max_depth=self.max_depth)


def _links_in_order(table: pa.Table) -> tuple[list[str], list[int]]:
    """Flatten (seq, links, depth) -> link list ordered by (seq, idx)."""
    seqs = table["seq"].to_pylist()
    depths = table["depth"].to_pylist()
    links_col = table["links"].to_pylist()
    order = np.argsort(np.asarray(seqs, dtype=np.int64), kind="stable")
    urls, ds = [], []
    for i in order:
        for link in links_col[i] or []:
            urls.append(link)
            ds.append(depths[i] + 1)
    return urls, ds


class CrawlEngine:
    def __init__(self, cfg: CrawlConfig, store_root: str, ckpt_root: str):
        self.cfg = cfg
        self.store = open_store(store_root)
        # fetch-log stream: one partition per wave in a sibling namespace
        # (own _manifests dir, so image readers over `store` never see it)
        self.log_store = open_store(store_root.rstrip("/") + "/_fetchlog")
        self.ckpt = CheckpointDir(ckpt_root)
        self.state: CrawlState | None = None

    def fetch_log_dataset(self):
        """The audit log as a LAZY Ray Dataset over the per-wave store
        partitions — the scale surface (nothing materializes driver-side;
        consume with write_parquet/iter_batches/aggregates)."""
        return self.log_store.read_dataset()

    def iter_fetch_log(self):
        """Streaming (wave, seq, url, fetch_time) iterator in crawl order —
        driver memory bounded by ONE wave partition at a time."""
        for pid in self.log_store.partitions():
            t = self.log_store.read_table(pid)
            yield from zip(t["wave"].to_pylist(), t["seq"].to_pylist(),
                           t["url"].to_pylist(), t["fetch_time"].to_pylist())

    def fetch_log(self) -> list[tuple]:
        """(wave, seq, url, fetch_time) across all waves in crawl order.

        TEST/AUDIT-ONLY convenience: materializes the whole log on the
        driver. At scale use :meth:`fetch_log_dataset` (lazy Dataset) or
        :meth:`iter_fetch_log` (bounded streaming) — round-4 verdict #6."""
        return list(self.iter_fetch_log())

    # -- lifecycle --------------------------------------------------------
    def start(self, seeds: list[dict]) -> None:
        # a FRESH crawl must not inherit ANY state of a previous run in the
        # same roots (review findings): stale fetch-log partitions, stale
        # wave-* image partitions, and — critically — stale checkpoints,
        # whose higher wave numbers would make CheckpointDir._prune delete
        # the NEW run's checkpoints and resume() continue the OLD crawl.
        self.log_store.drop_partitions(self.log_store.partitions())
        self.store.drop_partitions(p for p in self.store.partitions()
                                   if p.startswith("wave-"))
        self.ckpt.clear()
        self.state = CrawlState(self.cfg, use_actors=True)
        self.state.enqueue([s["url"] for s in seeds], [s["depth"] for s in seeds])
        self.ckpt.save(0, {"cfg_seed": self.cfg.seed, "state": self.state.state()})
        self.state.wave = 0

    def resume(self) -> bool:
        latest = self.ckpt.latest()
        if latest is None:
            return False
        wave, payload = latest
        self.state = CrawlState.from_state(self.cfg, payload["state"],
                                           use_actors=True)
        self.state.wave = wave
        return True

    # -- one wave ---------------------------------------------------------
    def run_wave(self) -> dict:
        import ray.data as rd

        st = self.state
        wave_no = st.wave
        emitted = st.drain_wave()
        if not emitted:
            return {"fetched": 0, "written": 0, "new_urls": 0, "done": True}

        in_table = pa.table({
            "url": [r["url"] for r in emitted],
            "host": [r["host"] for r in emitted],
            "priority": pa.array([r["priority"] for r in emitted], pa.int32()),
            "depth": pa.array([r["depth"] for r in emitted], pa.int32()),
            "seq": pa.array([r["seq"] for r in emitted], pa.int64()),
            "fetch_time": pa.array([r["fetch_time"] for r in emitted], pa.int64()),
        })
        # split the wave into blocks so fetch/decode parallelize within it
        nb = _wave_block_count(in_table.num_rows, self.cfg.batch_size)
        cut = [i * in_table.num_rows // nb for i in range(nb + 1)]
        chunks = [in_table.slice(a, b - a) for a, b in zip(cut, cut[1:])]
        ds = rd.from_arrow(chunks)
        web_params = {"seed": self.cfg.seed, "n_hosts": self.cfg.n_hosts,
                      "pages_per_host": self.cfg.pages_per_host, **self.cfg.web_params}

        # 2+3+4a in ONE Ray Data execution (the BSP fixed cost is per
        # execution, so fusing fetch+decode+sink+route cut the per-wave
        # overhead ~3x): tasks write image rows straight into the wave
        # partition's tmp dir and return only routed link columns.
        pid = f"wave-{wave_no:06d}"
        self.store._assert_sink_visible()  # wave tasks write from workers
        tmp_dir = self.store.external_tmp(pid)
        stage_kwargs = dict(web_params=web_params, tmp_dir=tmp_dir,
                            seed=self.cfg.seed, mode=self.cfg.priority_mode,
                            n_shards=self.cfg.n_shards,
                            max_depth=self.cfg.max_depth,
                            batch_size=self.cfg.batch_size,
                            compression=self.store.compression,
                            storage_options=self.store.storage_options)
        routed = ds.map_batches(WaveStage(**stage_kwargs),
                                batch_format="pyarrow", batch_size=None)
        # drive the fused stage; the routed link blocks STAY in the object
        # store — the driver only ever holds their refs
        mat = routed.materialize()
        block_refs = [ref for bundle in mat.iter_internal_ref_bundles()
                      for ref in bundle.block_refs]

        # 3. COMMIT image rows (footer-counted) + the wave's fetch log —
        # both atomic, idempotent on wave re-run, bounded by wave_size
        n_written = self.store.commit_external(pid, tmp_dir, meta={
            "wave": wave_no, "fetched": len(emitted), "virtual_now": st.now,
            "blocks": len(chunks),
        })
        self.log_store.append_table(pid, pa.table({
            "wave": pa.array([wave_no] * len(emitted), pa.int64()),
            "seq": in_table["seq"],
            "url": in_table["url"],
            "fetch_time": in_table["fetch_time"],
        }), meta={"wave": wave_no})

        # 4. ENQUEUE discovered links in deterministic order — SHARD-SIDE:
        # every shard group gets the block refs, each shard filters its own
        # rows and sorts its (seq, idx) slice; the per-shard relative order
        # is the contract. No O(wave) driver collect.
        new_urls = st.enqueue_routed_blocks(block_refs) if block_refs else 0

        # 5. CHECKPOINT
        st.wave = wave_no + 1
        self.ckpt.save(st.wave, {"cfg_seed": self.cfg.seed, "state": st.state()})
        return {"fetched": len(emitted), "written": n_written, "new_urls": new_urls,
                "done": False}

    def run(self, seeds: list[dict] | None = None, max_waves: int | None = None) -> dict:
        """Fresh run (seeds given) or resume (seeds None). Returns metrics."""
        if seeds is not None:
            self.start(seeds)
        elif not self.resume():
            raise RuntimeError("no checkpoint to resume from; pass seeds")
        waves = 0
        totals = {"fetched": 0, "written": 0, "new_urls": 0}
        limit = max_waves if max_waves is not None else self.cfg.max_waves
        while waves < limit:
            m = self.run_wave()
            if m.get("done"):
                break
            for k in totals:
                totals[k] += m[k]
            waves += 1
        totals["waves"] = waves
        totals["frontier_left"] = self.state.frontier_size()
        totals["seen"] = self.state.seen_size()
        # shard groups (actors, or the one in-driver group): placement,
        # not state, so it stays out of the checkpoint
        totals["shard_hosts"] = len(self.state.shards)
        return totals
