"""ObjectStore — the engine's one table store: Lance-style partitioned
parquet with per-partition manifests, written against fsspec so ``root``
can be a plain path, ``file://…``/``local://…`` (fsspec LocalFileSystem),
``s3://bucket/prefix``, ``gs://…`` or ``memory://…`` (protocol tests).
Reference pushes artifacts to MinIO, patch_exporter/main.py:117-145.

Layout::

    root/
      _manifests/<pid>.json                 # {"rows": n, "files": [...],
                                            #  "file_rows": [...], "meta": {...}}
      data/<pid>/stage-<uuid>/*.parquet

The manifests replace the reference's two resume mechanisms in one
structure: the per-log count ledger (``log_status`` expected-vs-actual
counts, reference: 04_calculate_logstatus_cognition.py:41-64,
07_input_cognition_data_rust.py:28-42) and the marker files / ``fast_ls``
directory counting (06_extract_images.py:45-105, scripts/fast_ls.c:6-27):
``is_done(pid)`` is a manifest stat, never a directory listing, and a
killed job simply skips committed partitions on rerun.

One commit protocol on every filesystem (object stores have no atomic
rename, so the protocol never needs one):

- Data objects are IMMUTABLE, written once under a fresh
  ``data/<pid>/stage-<uuid>/`` prefix and never moved.
- The manifest write is the ONLY commit point: a single-object PUT on an
  object store (atomic / last-writer-wins on S3/GCS/ABS), tmp + fsync +
  ``os.replace`` of the manifest file on a filesystem. The manifest lists
  the exact keys of the partition's fragments and readers resolve files
  through it ONLY. A writer that crashes before its manifest write leaves
  the previous manifest naming the previous stage — the partition reads
  exactly as before — plus unreferenced objects that :meth:`ObjectStore.gc`
  reclaims.
- Every read and every rewrite consumes ONE resolved plan
  (:meth:`ObjectStore._plan`): the partition's — or the whole-store
  snapshot's — data files, each with its row count and its view chain.
  Reads run one generator over it (:func:`_read_keys`), on the driver or
  in ``ReadManifest`` tasks; ``merge_insert`` and ``rewrite_partition``
  run one kernel (:meth:`ObjectStore._rewrite`) that writes one fresh
  stage and commits one manifest, views and chained views included.
- Upsert (:meth:`ObjectStore.merge_insert`) is METADATA-ONLY for untouched
  files: the new manifest re-references their existing keys.

The reference deletes partial output on failure instead
(02_combine_logs.py:156-162) — the same invariant, made atomic here.
Data objects are never renamed — guarded by a raising-FS test
(tests/test_objstore.py).
"""

from __future__ import annotations

import json
import os
import posixpath
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .store import write_fragment


def drop_keys(t: pa.Table, key_col: str, drop: pa.Array) -> pa.Table:
    """``t`` without the rows whose ``key_col`` is in ``drop``: the store's
    one delete-vector kernel (view reads, view materialization, upserts and
    the broadcast dedup filter all run it), one ``pc.is_in`` and a
    ``filter``. The filter copies every kept payload byte, so a caller
    holding many rows runs it per file or batch, never over a
    concatenation (see :func:`_read_keys`)."""
    import pyarrow.compute as pc

    if len(drop) == 0 or pa.types.is_null(drop.type):
        return t  # nothing to drop (an empty delete vector is written untyped)
    return t.filter(pc.invert(pc.is_in(t[key_col], value_set=drop)))


def _read_keys(pafs, plan: list, columns: list[str] | None):
    """One Arrow table per plan entry ``(file, rows, chain)`` (see
    :meth:`ObjectStore._plan`), read straight from its key, minus the rows
    of the entry's view ``chain``: the store's one read generator, run by
    ``read_table``, by :func:`_manifest_dataset`'s tasks and by the rewrite
    kernel (:func:`_rewrite_files`). Each distinct chain link's delete keys
    load once, when the first file that needs them is read, and each file
    runs :func:`drop_keys` per link as it is read. Key columns ``columns``
    omits are read for the drop only."""
    drops: dict[tuple, pa.Array] = {}
    for key, _, chain in plan:
        cols = columns
        if columns is not None:
            cols = columns + [c for c in dict.fromkeys(c for c, _ in chain)
                              if c not in columns]
        with pafs.open_input_file(key) as f:
            t = pq.read_table(f, columns=cols)
        for link in chain:
            if link not in drops:
                drops[link] = ObjectStore._delete_keys(pafs, *link)
            t = drop_keys(t, link[0], drops[link])
        yield t if cols == columns else t.select(columns)


def _n_tasks(n_items: int) -> int:
    """Ray's read floor, two tasks per cluster CPU, capped at one per item:
    the task count of a store read and of a store rewrite."""
    import ray

    # no Ray session yet: Ray Data starts a local one on the first read
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else 1
    return min(n_items, 2 * max(1, int(cpus)))


def _cut(items: list, n: int) -> list[list]:
    """``items`` in ``n`` contiguous groups (at least one, at most one per
    item)."""
    n = max(1, min(n, len(items)))
    cuts = [len(items) * i // n for i in range(n + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _manifest_dataset(plan: list, columns: list[str] | None, pafs):
    """Dataset over exactly ``plan``'s files (see :meth:`ObjectStore._plan`),
    each minus the rows of its view chain.

    One read task per contiguous group of entries, each running
    :func:`_read_keys` with ``columns`` pushed down and the chains' delete
    vectors loaded inside the task: a view read, and a whole-store read
    with live views, is this one operator, and building it reads no data
    and puts no object on the driver. Unlike ``rd.read_parquet`` it
    resolves no paths, prefetches no footers and runs no sampling tasks
    when the Dataset is built — the plan already names every file. The
    task count (:func:`_n_tasks`) is passed as the read's block count, so
    Ray never splits the read's blocks (a split would also keep the read
    from fusing with the next map).

    A task whose entries all carry a row count and no chain gives Ray its
    row count, so ``count()`` on a base read, or on a whole-store read
    with no live view, is answered from metadata; a view read's count
    runs."""
    import ray.data as rd
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    def rows(group: list) -> int | None:
        if any(chain or n is None for _, n, chain in group):
            return None
        return sum(n for _, n, _ in group)

    class ManifestDatasource(Datasource):  # runs as "ReadManifest"
        def estimate_inmemory_data_size(self) -> None:
            return None

        def get_read_tasks(self, parallelism: int) -> list:
            return [ReadTask(lambda g=g: _read_keys(pafs, g, columns),
                             BlockMetadata(num_rows=rows(g), size_bytes=None,
                                           input_files=[f for f, _, _ in g],
                                           exec_stats=None))
                    for g in _cut(plan, parallelism)]

    return rd.read_datasource(ManifestDatasource(),
                              override_num_blocks=_n_tasks(len(plan)))


def _rewrite_files(jobs: list, pafs, fn, key: str | None, upd_keys,
                   compression: str, storage_options: dict | None) -> list:
    """One group of :meth:`ObjectStore._rewrite`'s jobs, run serially on
    the driver or as one Ray task. Each job is a plan entry and the key
    and URL it is rewritten to: the file is read through its view chain
    (:func:`_read_keys`), mapped by ``fn``, stripped of the upserted
    keys ``upd_keys`` and written; a file that ends empty is dropped.

    Metadata-only upsert: a chain-free entry (a file of the partition's
    own manifest) whose key column holds no upserted key is kept AS-IS,
    after reading its key column only. Returns ``(key, rows)`` per kept
    file."""
    import pyarrow.compute as pc

    out, todo = [], []
    for job in jobs:
        (src, _, chain), _, _ = job
        if upd_keys is not None and not chain:
            with pafs.open_input_file(src) as f:
                ks = pq.read_table(f, columns=[key])[key]
            if not pc.any(pc.is_in(ks, value_set=upd_keys)).as_py():
                out.append((src, len(ks)))
                continue
        todo.append(job)
    for (_, dst, url), t in zip(todo, _read_keys(pafs, [e for e, _, _ in todo],
                                                 None)):
        if fn is not None:
            t = fn(t)
        if upd_keys is not None:
            t = drop_keys(t, key, upd_keys)
        if t.num_rows:
            write_fragment(t, url, compression=compression,
                           storage_options=storage_options)
            out.append((dst, t.num_rows))
    return out


def open_store(root: str, compression: str = "none", **kw) -> ObjectStore:
    """The one store constructor used by the pipelines, the CLI and the
    benchmarks: any plain path or fsspec URL -> :class:`ObjectStore`."""
    return ObjectStore(root, compression=compression, **kw)


class ObjectStore:
    """Partitioned table store on an fsspec filesystem with manifest-last
    atomic commits (no renames of data — see module docstring).

    ``compression="none"`` by default: the payload column carries
    already-compressed image bytes (png/qjpeg/zlib), so parquet-level
    snappy costs ~4x write CPU for zero size win.

    Whole-store reads (``read_table()`` / ``read_dataset()`` / ``rows()``
    with no pid) are SNAPSHOTS, resolved by :meth:`_plan` from one fetch
    of every manifest:

    - a committed delete-vector view SHADOWS its base partition (reading
      both would double-count the base and ignore the deletes);
    - a partition MATERIALIZED in place of a view (``merge_insert`` /
      ``rewrite_partition`` on a view pid, chained or not) keeps
      shadowing the old base via the manifest's ``supersedes`` list,
      which :meth:`_put_manifest` inherits on every commit — the snapshot
      invariant survives the view's lifecycle, not just its creation;
    - sibling views over one base are BOTH live (a user-created
      ambiguity: the snapshot is then their union);
    - the maintenance writers (``merge_insert`` / ``rewrite_partition``
      / ``drop_partition``) REFUSE to touch a live view's base;
      ``drop_partitions`` drops the views (and superseding partitions)
      that read through what it drops, dependents first. The hot
      append paths (``append_table`` / ``commit_external`` /
      ``append_dataset``) are deliberately unguarded — the check costs
      one manifest scan per commit, and no pipeline appends over a
      view's base (the engine always commits bases before views).
    """

    def __init__(self, root_url: str, compression: str = "none", fs=None,
                 shared_fs: bool | None = None, retries: int = 4,
                 storage_options: dict | None = None):
        """``shared_fs=True`` declares that a LOCAL-filesystem root is
        visible to every node of the cluster (NFS/FUSE mount); fused sinks
        refuse to run on a multi-node cluster without it (see
        :meth:`_assert_sink_visible`). Object-store roots are shared by
        definition, so ``shared_fs=False`` is rejected for them."""
        import fsspec

        self.retries = retries
        # fsspec connection kwargs (endpoint_url, key/secret, ...) — kept on
        # the store and SHIPPED TO EVERY TASK-SIDE url_to_fs so workers
        # rebuild the driver's exact filesystem, not a default one (ADVICE
        # r4: a MinIO-style custom endpoint must not misroute task writes).
        self.storage_options = dict(storage_options or {})
        if fs is None:
            fs, root = fsspec.core.url_to_fs(root_url, **self.storage_options)
        else:
            root = fs._strip_protocol(root_url)
        self.fs = fs
        self.root = root_url.rstrip("/")
        self._rootp = root.rstrip("/")
        self.compression = compression
        proto = fs.protocol if isinstance(fs.protocol, str) else fs.protocol[0]
        self._proto = proto
        # local filesystem: keys are plain OS paths (task-side writes and
        # pyarrow reads stay on the os fast path)
        self._local = proto in ("file", "local")
        if shared_fs is False and not self._local:
            raise ValueError("an object store is shared by definition; "
                             "shared_fs=False is contradictory here")
        self.shared_fs = bool(shared_fs) or not self._local
        try:
            fs.makedirs(self._key("_manifests"), exist_ok=True)
        except Exception:
            pass  # pure object stores have no directories

    def _retry(self, fn, *a, **kw):
        """Transient-fault retry for METADATA round trips (S3 503s,
        connection resets) with bounded exponential backoff — the commit
        point must not die on one flaky request. ``FileNotFoundError`` is
        SEMANTIC (missing manifest = not committed) and never retried.
        Data-plane reads/writes go through pyarrow/fsspec, whose real
        backends (s3fs/gcsfs) carry their own retry policies."""
        for attempt in range(self.retries):
            try:
                return fn(*a, **kw)
            except (FileNotFoundError, PermissionError, IsADirectoryError,
                    NotADirectoryError):
                raise  # semantic / permanent — retrying only multiplies it
            except OSError:
                time.sleep(min(0.05 * (2 ** attempt), 2.0))
        return fn(*a, **kw)

    # -- key/url helpers -----------------------------------------------------
    def _key(self, *parts: str) -> str:
        return posixpath.join(self._rootp, *parts)

    def _url(self, key: str) -> str:
        """fsspec URL for a root-relative or absolute key (what remote
        TASKS use to re-open the same filesystem)."""
        if self._local:
            return key  # plain path: task-side writes stay on the os fast path
        return f"{self._proto}://{key}"

    def _manifest_key(self, pid: str) -> str:
        return self._key("_manifests", f"{pid}.json")

    def _new_stage(self, pid: str) -> str:
        """Fresh immutable staging prefix; directory pre-created only on
        directory-ful filesystems (pure object stores need none)."""
        stage = self._key("data", pid, f"stage-{uuid.uuid4().hex}")
        if self._local:
            self.fs.makedirs(stage, exist_ok=True)
        return stage

    def _pafs(self):
        """pyarrow FileSystem view of self.fs (for ray.data / pq readers)."""
        from pyarrow.fs import FSSpecHandler, LocalFileSystem, PyFileSystem

        if self._local:
            return LocalFileSystem()
        return PyFileSystem(FSSpecHandler(self.fs))

    # -- snapshot semantics (whole-store reads) ------------------------------
    def _all_manifests(self) -> dict[str, dict]:
        """pid -> manifest, every manifest fetched exactly ONCE (manifest
        GETs are the dominant metadata cost on a remote object store)."""
        return {p: self.manifest(p) for p in self.partitions()}

    def _assert_not_view_base(self, pid: str, action: str) -> None:
        """Mutating or dropping the BASE of a live delete-vector view
        would silently desync the view's frozen row count from its reads
        (or orphan it entirely) — refuse loudly; the caller must drop or
        materialize the view first."""
        for p, m in self._all_manifests().items():
            v = m.get("view")
            if v and v["base"] == pid:
                raise ValueError(
                    f"{action} on '{pid}', which is the base of live view "
                    f"'{p}'; drop or materialize the view first")

    @classmethod
    def _live_of(cls, ms: dict[str, dict]) -> dict[str, dict]:
        shadowed = {p for m in ms.values() for p in cls._shadow_from(m)}
        return {p: m for p, m in ms.items() if p not in shadowed}

    @staticmethod
    def _shadow_from(m: dict) -> list[str]:
        """What the partition holding manifest ``m`` shadows in the
        whole-store snapshot, and what a partition committed in its place
        must keep shadowing: the view's base plus any supersedes list the
        manifest already carries (inherited from earlier incarnations of
        the pid)."""
        sup = list(m.get("supersedes") or ())
        v = m.get("view")
        if v and v["base"] not in sup:
            return [v["base"], *sup]
        return sup

    # -- commit protocol -----------------------------------------------------
    def is_done(self, pid: str) -> bool:
        return self._retry(self.fs.exists, self._manifest_key(pid))

    def partitions(self) -> list[str]:
        try:
            names = self._retry(self.fs.ls, self._key("_manifests"), detail=False)
        except FileNotFoundError:
            return []
        return sorted(
            posixpath.basename(k)[: -len(".json")]
            for k in names if k.endswith(".json"))

    def manifest(self, pid: str) -> dict:
        return json.loads(self._retry(self.fs.cat_file, self._manifest_key(pid)))

    def rows(self, pid: str | None = None) -> int:
        """Row count from manifests only — no data-file reads or listings.
        Whole-store = the SNAPSHOT (see :class:`ObjectStore`)."""
        if pid is not None:
            return self.manifest(pid)["rows"]
        live = self._live_of(self._all_manifests())
        return sum(m["rows"] for m in live.values())

    def _put_manifest(self, pid: str, manifest: dict) -> None:
        """THE commit point: one atomic object PUT, nothing else.

        Single-object PUT is atomic on real object stores (S3/GCS/ABS);
        a local filesystem has NO atomic in-place write, so there the
        manifest goes tmp+fsync+os.replace (only the manifest file is
        ever renamed; data objects never move)."""
        # overwriting a partition that shadows others must keep shadowing
        # them (single inheritance chokepoint — every commit path PUTs
        # here, and no caller sets "supersedes" itself): the pid's shadow
        # set (view base + supersedes) only grows until the pid is dropped
        try:
            old = self._shadow_from(self.manifest(pid))
        except FileNotFoundError:
            old = []  # a first commit
        base = (manifest.get("view") or {}).get("base")
        old = [p for p in old if p != base]
        if old:
            manifest = {**manifest, "supersedes": old}
        payload = json.dumps(manifest).encode()
        if self._local:
            dst = self._manifest_key(pid)
            tmp = dst + f".tmp.{uuid.uuid4().hex}"
            with open(tmp, "wb") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, dst)
            return
        self._retry(self.fs.pipe_file, self._manifest_key(pid), payload)

    def _footer_rows(self, keys: list[str]) -> list[int]:
        """Row count of each data file, from its parquet footer."""
        pafs = self._pafs()
        counts = []
        for k in keys:
            with pafs.open_input_file(k) as f:
                counts.append(pq.read_metadata(f).num_rows)
        return counts

    @staticmethod
    def _data_manifest(files: list[str], file_rows: list[int],
                       meta: dict | None) -> dict:
        """A base partition's manifest: its files with their row counts
        (which let a read answer ``count()`` from metadata)."""
        return {"rows": sum(file_rows), "files": files, "file_rows": file_rows,
                "meta": meta or {}}

    # -- writers --------------------------------------------------------------
    def append_table(self, pid: str, table: pa.Table,
                     meta: dict | None = None) -> None:
        """Atomically write one partition from a driver-side Arrow table."""
        stage = self._new_stage(pid)
        key = posixpath.join(stage, "part-0.parquet")
        write_fragment(table, self._url(key), compression=self.compression,
                       storage_options=self.storage_options)
        self._put_manifest(pid, self._data_manifest([key], [table.num_rows],
                                                     meta))

    def append_dataset(self, pid: str, ds, meta: dict | None = None) -> int:
        """Atomically write one partition from a ray.data.Dataset (streamed
        into a fresh stage, then the manifest commit). Returns rows."""
        stage = self._new_stage(pid)
        if self._local:
            ds.write_parquet(stage, compression=self.compression)
        else:
            ds.write_parquet(stage, filesystem=self._pafs(),
                             compression=self.compression)
        keys = self._stage_files(stage)
        manifest = self._data_manifest(keys, self._footer_rows(keys), meta)
        self._put_manifest(pid, manifest)
        return manifest["rows"]

    def _stage_files(self, stage: str) -> list[str]:
        """Parquet keys under a staging prefix. An empty stage is a VALID
        zero-row commit (pure object stores have no directory object to
        even list), not an error."""
        try:
            return sorted(k for k in self._retry(self.fs.ls, stage, detail=False)
                          if k.endswith(".parquet"))
        except FileNotFoundError:
            return []

    def compact_partition(self, pid: str, target_rows: int = 100_000) -> int:
        """Merge small fragments into ~``target_rows``-row objects (lakehouse
        compaction — the flip side of the many-small-files write default
        that read fan-out wants). Content-identical rewrite: row counts,
        keys and order-within-fragments are unchanged, so it is safe under
        live views over this partition. Driver memory is bounded by one
        output file's rows. Meta rides through the commit (and the
        snapshot shadow through :meth:`_put_manifest`); old objects
        become gc-able garbage. Returns the new
        fragment count."""
        m = self.manifest(pid)
        if m.get("view"):
            raise ValueError("compact the BASE partition; views have no "
                             "fragments of their own")
        pafs = self._pafs()
        stage = self._new_stage(pid)
        new_files: list[str] = []
        counts: list[int] = []
        buf: list[pa.Table] = []
        buffered = 0

        def flush():
            nonlocal buf, buffered
            if not buf:
                return
            nk = posixpath.join(stage, f"compact-{len(new_files):05d}.parquet")
            write_fragment(pa.concat_tables(buf), self._url(nk),
                           storage_options=self.storage_options,
                           compression=self.compression)
            new_files.append(nk)
            counts.append(buffered)
            buf, buffered = [], 0

        for f in m["files"]:
            with pafs.open_input_file(f) as fh:
                t = pq.read_table(fh)
            buf.append(t)
            buffered += t.num_rows
            if buffered >= target_rows:
                flush()
        flush()
        self._put_manifest(pid, self._data_manifest(new_files, counts,
                                                    m.get("meta")))
        self.gc(pid)
        return len(new_files)

    def external_tmp(self, pid: str) -> str:
        """Staging prefix (path or URL) that fused-sink TASKS write parquet
        objects into directly (payload bytes go from the producing task
        straight to parquet, never through a second Ray Data execution).
        The prefix IS the final, immutable location: :meth:`commit_external`
        just references the keys (no move)."""
        return self._url(self._new_stage(pid))

    def _assert_sink_visible(self) -> None:
        """Refuse a fused sink whose worker-written objects the driver
        could not see.

        memory:// is PER-PROCESS: Ray workers would write into their own
        private store, commit_external would list an empty stage and
        silently commit 0 rows (ADVICE r4). Unconditional (review r5):
        every caller is a pipeline whose sink tasks execute via Ray Data,
        which AUTO-INITS Ray lazily — gating on ray.is_initialized() left
        the exact silent 0-row commit open for drivers that had not
        called ray.init() yet.

        A local root on a MULTI-NODE cluster is only correct when every
        node mounts it — otherwise rows written by remote workers would be
        silently lost while the footer-count commit still succeeds
        (round-2 advice). Fails loudly unless ``shared_fs=True``. Real
        object stores pass."""
        if self._proto == "memory":
            raise RuntimeError(
                "memory:// ObjectStore is process-local — Ray task sinks "
                "would write to a different store; use local:// or a "
                "shared filesystem URL for Ray-executed pipelines")
        if self.shared_fs:
            return
        import ray

        if ray.is_initialized():
            alive = [n for n in ray.nodes() if n.get("Alive")]
            if len(alive) > 1:
                raise RuntimeError(
                    "fused-sink partitions require a shared store root on a "
                    f"multi-node cluster ({len(alive)} alive nodes); "
                    "construct open_store(root, shared_fs=True) only if "
                    "every node mounts the same path")

    def commit_external(self, pid: str, tmp_dir: str, meta: dict | None = None,
                        *, extend: bool = False) -> int:
        """Commit the fragments tasks wrote into ``tmp_dir``; row counts
        from parquet footers only. ``extend=True`` adds them to ``pid``'s
        committed files instead of replacing them: the new manifest lists
        the old files plus the new stage's, with rows summed, in the same
        single manifest PUT. Stages no manifest references (a crashed
        earlier attempt) are reclaimed by the post-commit gc. Returns the
        partition's rows."""
        stage = self.fs._strip_protocol(tmp_dir)
        keys = self._stage_files(stage)
        counts = self._footer_rows(keys)
        manifest = self._data_manifest(keys, counts, meta)
        if extend and self.is_done(pid):
            old = self.manifest(pid)
            manifest["rows"] += old["rows"]
            manifest["files"] = old["files"] + keys
            manifest["file_rows"] = old.get(
                "file_rows", [None] * len(old["files"])) + counts
        self._put_manifest(pid, manifest)
        self.gc(pid)
        return manifest["rows"]

    def drop_partition(self, pid: str, *, force: bool = False) -> None:
        """Uncommit + reclaim a partition (CrawlEngine resets stale wave
        partitions through this). Manifest delete first so readers never
        see a half-deleted partition. Refuses while a live view still
        reads through this partition (``force=True`` skips the scan for
        pre-ordered dependents-first sweeps)."""
        if not force:
            self._assert_not_view_base(pid, "drop_partition")
        try:
            self._retry(self.fs.rm_file, self._manifest_key(pid))
        except FileNotFoundError:
            pass
        try:
            self._retry(self.fs.rm, self._key("data", pid), recursive=True)
        except FileNotFoundError:
            pass

    def drop_partitions(self, pids) -> None:
        """Drop ``pids`` plus every partition that reads THROUGH them (a
        view over one, or one superseding it, transitively) — a stale
        view left standing would shadow and mis-filter a recreated
        partition. Dependents drop first, so a crash mid-sweep orphans no
        view, and that order makes the per-drop live-view scan of
        :meth:`drop_partition` redundant (O(P^2) manifest GETs on a
        remote store). Pids with no manifest are ignored."""
        ms = self._all_manifests()
        refs = {p: set(self._shadow_from(m)) for p, m in ms.items()}
        doomed = set(pids) & set(ms)
        while more := {p for p, r in refs.items() if r & doomed} - doomed:
            doomed |= more
        while doomed:
            # no leaf left: a corrupt view cycle, dropped as it stands
            leaves = doomed - {b for p in doomed for b in refs[p]} or doomed
            for p in sorted(leaves):
                self.drop_partition(p, force=True)
            doomed -= leaves

    def gc(self, pid: str, grace_s: float = 0.0) -> int:
        """Delete data objects of ``pid`` not referenced by its manifest
        (crashed stages, superseded upsert fragments). Returns objects
        removed.

        SINGLE-WRITER contract at ``grace_s=0``: safe any time after commit
        *for the writer itself* (readers only follow manifest keys; the
        internal post-commit calls are this case). An EXTERNAL sweep (the
        CLI ``gc`` subcommand) running concurrently with another writer's
        in-flight ``merge_insert``/``compact_partition`` would delete its
        staged-but-not-yet-referenced objects and corrupt the commit
        (ADVICE r4) — pass ``grace_s`` > the longest plausible write (the
        CLI defaults to 3600) so only objects older than the grace window
        are reclaimed; objects without an mtime are kept."""
        import datetime

        def _young(key: str) -> bool:
            if grace_s <= 0:
                return False
            try:
                info = self._retry(self.fs.info, key)
            except FileNotFoundError:
                return True  # gone already — nothing to reclaim
            mt = info.get("mtime") or info.get("LastModified") \
                or info.get("last_modified")
            if mt is None:
                return True  # unknown age: never reclaim under a grace sweep
            if isinstance(mt, (int, float)):
                age = time.time() - mt
            elif isinstance(mt, datetime.datetime):
                now = datetime.datetime.now(mt.tzinfo) if mt.tzinfo \
                    else datetime.datetime.now()
                age = (now - mt).total_seconds()
            else:
                return True
            return age < grace_s

        live: set[str] = set()
        if self.is_done(pid):
            m = self.manifest(pid)
            live = set(m.get("files", []))
            v = m.get("view")
            if v:
                live |= set(v.get("delete_files") or [])
        pdir = self._key("data", pid)
        try:
            have = [k for k in self._retry(self.fs.find, pdir)
                    if k.endswith(".parquet")]
        except FileNotFoundError:
            return 0
        dead = [k for k in have if k not in live and not _young(k)]
        for k in dead:
            try:
                self._retry(self.fs.rm_file, k)
            except FileNotFoundError:
                pass  # a retried DELETE whose first attempt won = success
        return len(dead)

    # -- scratch space (distributed loser passes) ------------------------------
    def scratch_dir(self, prefix: str) -> str:
        """Worker-visible scratch prefix for distributed loser passes
        (same visibility contract as :meth:`external_tmp`)."""
        d = self._key("_scratch", f"{prefix}{uuid.uuid4().hex}")
        if self._local:
            self.fs.makedirs(d, exist_ok=True)
        return self._url(d)

    def rm_scratch(self, path: str) -> None:
        try:
            self.fs.rm(self.fs._strip_protocol(path), recursive=True)
        except FileNotFoundError:
            pass

    # -- delete-vector views ----------------------------------------------------
    def commit_delete_view(self, pid: str, base_pid: str, delete_keys,
                           key_col: str, meta: dict | None = None) -> int:
        """Commit ``pid`` as a logical view: base partition minus rows whose
        ``key_col`` is in ``delete_keys`` — dedup as METADATA, the
        delete-vector pattern of lakehouse formats (and Lance deletions):
        no second copy of the payload bytes is ever written. Returns the
        view's row count."""
        # dedupe + sort: a duplicate key must not double-count against the
        # manifest row total the readers and resume logic trust
        keys = sorted(set(delete_keys))
        stage = self._new_stage(pid)
        dkey = posixpath.join(stage, "deletes.parquet")
        write_fragment(pa.table({key_col: keys}), self._url(dkey),
                       storage_options=self.storage_options,
                       compression=self.compression)
        return self._commit_view(pid, base_pid, [dkey], key_col, len(keys), meta)

    def commit_delete_view_files(self, pid: str, base_pid: str,
                                 delete_files: list[str], key_col: str,
                                 meta: dict | None = None) -> int:
        """Commit a delete-vector view whose key files were written by a
        DISTRIBUTED loser pass, one file per loser-hash bucket
        (stages/dedup.py::write_loser_files), under a scratch prefix on
        THIS filesystem. Files must be disjoint with sorted, unique keys. Each
        is copied into the view's stage (a server-side object COPY on
        object stores), then manifest-last commit; counts come from the
        parquet footers, keys never transit the driver."""
        if not delete_files:
            return self.commit_delete_view(pid, base_pid, [], key_col, meta)
        stage = self._new_stage(pid)
        keys = []
        for i, f in enumerate(delete_files):
            dst = posixpath.join(stage, f"deletes-{i:05d}.parquet")
            self._retry(self.fs.copy, self.fs._strip_protocol(f), dst)
            keys.append(dst)
        n = sum(self._footer_rows(keys))
        return self._commit_view(pid, base_pid, keys, key_col, n, meta)

    def _commit_view(self, pid: str, base_pid: str, delete_keys_files: list[str],
                     key_col: str, n_deleted: int, meta: dict | None) -> int:
        """One view manifest PUT; its rows are the base's rows minus the
        delete keys, which must be a subset of the base's keys. Over a
        zero-row base every key is absent and the view holds 0 rows."""
        base = self.rows(base_pid)
        if base and n_deleted > base:
            raise ValueError(
                f"view '{pid}' deletes {n_deleted} keys from '{base_pid}', "
                f"which holds {base} rows; delete keys must be base keys")
        rows = max(base - n_deleted, 0)
        self._put_manifest(pid, {
            "rows": rows, "files": [],
            "view": {"base": base_pid, "key_col": key_col,
                     "delete_files": delete_keys_files},
            "meta": meta or {}})
        return rows

    @staticmethod
    def _delete_keys(pafs, key_col: str, files: tuple[str, ...]) -> pa.Array:
        """One view link's delete keys as one Arrow array (NEVER a Python
        set: :func:`drop_keys` probes it with ``is_in``), read where the
        link's rows are dropped: in a read or rewrite task, or in the
        driver's ``read_table``."""
        tabs = _read_keys(pafs, [(f, None, ()) for f in files], [key_col])
        return pa.concat_tables(tabs)[key_col].combine_chunks()

    def _plan(self, pid: str | None = None) -> list[tuple]:
        """``pid`` — or, for ``None``, every live partition of the
        whole-store snapshot — resolved into the entries every read and
        rewrite consumes: one ``(file, rows, chain)`` per data file, with
        ``rows`` from the manifest (``None`` where it predates per-file
        counts) and ``chain`` the file's view links, one ``(key_col,
        delete_files)`` per link, outermost first. A chain-free entry is a
        file of the partition's own manifest. Each manifest is fetched
        once; fileless partitions contribute no entries."""
        ms = self._all_manifests() if pid is None else {}

        def get(p: str) -> dict:
            if p not in ms:
                ms[p] = self.manifest(p)
            return ms[p]

        plan: list[tuple] = []
        for p in self._live_of(ms) if pid is None else [pid]:
            m, chain = get(p), ()
            while m.get("view"):
                v = m["view"]
                chain += ((v["key_col"], tuple(v["delete_files"])),)
                m = get(v["base"])
            rows = m.get("file_rows", [None] * len(m["files"]))
            plan += [(f, n, chain) for f, n in zip(m["files"], rows)]
        return plan

    # -- readers ------------------------------------------------------------
    def files(self, pid: str | None = None) -> list[str]:
        """Data files of committed partitions only (crashed stages
        invisible; view partitions resolve to their base's files)."""
        return [f for f, _, _ in self._plan(pid)]

    def file_schema(self, pid: str, columns: list[str] | None = None) -> pa.Schema:
        """``pid``'s column types (projected to ``columns``) from its first
        data file's parquet footer: a :meth:`read_dataset` side's schema."""
        with self._pafs().open_input_file(self.files(pid)[0]) as f:
            sch = pq.read_schema(f).remove_metadata()
        return sch if columns is None else pa.schema([sch.field(c) for c in columns])

    def read_dataset(self, pid: str | None = None, columns: list[str] | None = None):
        """``pid`` (or the whole-store snapshot) as a lazy Dataset: ONE
        ``ReadManifest`` operator over :meth:`_plan`'s files whose read
        tasks apply each file's view chain themselves
        (:func:`_manifest_dataset`). Building it reads no data file and
        puts no object on the driver, and no key ever transits it. A read
        touching a view runs its ``count()``; any other count comes from
        the manifests."""
        plan = self._plan(pid)
        if not plan:
            import ray.data as rd

            return rd.from_arrow(pa.table({}))
        return _manifest_dataset(plan, columns, self._pafs())

    def iter_tables(self, pid: str | None = None,
                    columns: list[str] | None = None):
        """``pid`` (or the whole-store snapshot) as one Arrow table per data
        file, read by the same generator as :meth:`read_dataset`'s tasks
        (:func:`_read_keys`) run on the driver, each file filtered through
        its view chain as it is read: driver memory is one file."""
        return _read_keys(self._pafs(), self._plan(pid), columns)

    def read_table(self, pid: str | None = None, columns: list[str] | None = None) -> pa.Table:
        """:meth:`iter_tables` concatenated into one Arrow table."""
        tabs = list(self.iter_tables(pid, columns))
        return pa.concat_tables(tabs) if tabs else pa.table({})

    # -- rewrites (the reference's bulk_update, S10) ----------------------------
    def _rewrite(self, pid: str, fn=None, *, upsert: pa.Table | None = None,
                 key: str | None = None, meta: dict | None = None) -> int:
        """The store's one rewrite kernel: every file of :meth:`_plan`
        (``pid``) is read through its view chain, mapped by ``fn``
        (``pa.Table -> pa.Table``), stripped of ``upsert``'s ``key``
        values and written into ONE fresh stage; ``upsert``'s rows follow
        as one fragment, and ONE manifest commit (which keeps a former
        view's base shadowed, see :meth:`_put_manifest`) plus ``gc``
        finish it. A view pid is thereby materialized into its own files,
        whatever the length of its chain.

        Driver memory is one file, never the partition: the files are
        rewritten in Ray tasks (contiguous groups, :func:`_n_tasks`) when
        a session is live, there is more than one file and the root is not
        process-local ``memory://``; serially on the driver otherwise.
        Returns the partition's rows."""
        plan = self._plan(pid)
        stage = self._new_stage(pid)
        jobs = []
        for i, entry in enumerate(plan):
            # index prefix: files from different stages may share a basename
            dst = posixpath.join(stage, f"{i:05d}-{posixpath.basename(entry[0])}")
            jobs.append((entry, dst, self._url(dst)))
        upd_keys = None
        if upsert is not None:
            upd_keys = pa.array(sorted(set(upsert[key].to_pylist())))
        pafs = self._pafs()
        import ray

        if ray.is_initialized() and len(jobs) > 1 and self._proto != "memory":
            task = ray.remote(num_cpus=1)(_rewrite_files)
            ref = ray.put(upd_keys)
            outs = ray.get([task.remote(g, pafs, fn, key, ref, self.compression,
                                        self.storage_options)
                            for g in _cut(jobs, _n_tasks(len(jobs)))])
        else:
            outs = [_rewrite_files(jobs, pafs, fn, key, upd_keys,
                                   self.compression, self.storage_options)]
        kept = [k for out in outs for k in out]
        if upsert is not None:
            if plan:
                with pafs.open_input_file(plan[0][0]) as f:
                    upsert = upsert.select(pq.read_schema(f).names)
            uk = posixpath.join(stage, "upsert.parquet")
            write_fragment(upsert, self._url(uk), compression=self.compression,
                           storage_options=self.storage_options)
            kept.append((uk, upsert.num_rows))
        kept.sort()
        manifest = self._data_manifest(
            [k for k, _ in kept], [n for _, n in kept],
            self.manifest(pid).get("meta") if meta is None else meta)
        self._put_manifest(pid, manifest)
        self.gc(pid)
        return manifest["rows"]

    def merge_insert(self, pid: str, updates: pa.Table, key: str, *,
                     allow_view_base: bool = False) -> None:
        """Upsert rows of one partition by key (reference:
        13_calculate_image_stats.py:109-116 / 14_calculate_closest_frames.py:122-129
        ``bulk_update``), committed atomically by the rewrite kernel
        (:meth:`_rewrite`): one manifest commit on a plain partition or
        on a view, chained or not.

        Metadata-only for untouched files: a file of ``pid``'s own
        manifest whose key column holds no updated key is re-referenced
        AS-IS (zero copies, zero moves); every other file is rewritten. A
        view's files are its base's, so a view is always rewritten into
        its own. Driver memory stays O(updates), never O(partition)."""
        if not self.is_done(pid):
            self.append_table(pid, updates)
            return
        if not allow_view_base:  # True = caller asserts the upsert is
            # key-and-count-preserving, so dependent views stay exact
            self._assert_not_view_base(pid, "merge_insert")
        self._rewrite(pid, upsert=updates, key=key)

    def rewrite_partition(self, pid: str, fragment_fn, meta: dict | None = None,
                          *, allow_view_base: bool = False) -> int:
        """Map every file of ``pid`` through ``fragment_fn(pa.Table) ->
        pa.Table`` into a new atomically-committed partition, ONE FILE AT
        A TIME (the rewrite kernel, :meth:`_rewrite`) — the streaming path
        for schema-widening rewrites. A view pid, chained or not, is
        materialized: each base file passes through the whole chain's
        delete vectors first, and the new plain partition keeps the old
        base shadowed. ``fragment_fn`` runs in Ray tasks when the kernel
        fans out, so it must pickle. Returns total rows."""
        if not allow_view_base:  # True = fn is row-count/key-preserving
            self._assert_not_view_base(pid, "rewrite_partition")
        return self._rewrite(pid, fragment_fn, meta=meta)
