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
- Upsert (:meth:`ObjectStore.merge_insert`) is METADATA-ONLY for untouched
  fragments: the new manifest re-references their existing keys.

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
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.parquet as pq

from .store import write_fragment

def drop_keys(t: pa.Table, key_col: str, drop: pa.Array) -> pa.Table:
    """``t`` without the rows whose ``key_col`` is in ``drop``: the store's
    one delete-vector kernel (view reads, view materialization, upserts and
    the broadcast dedup filter all run it), one ``pc.is_in`` and a
    ``filter``. The filter copies every kept payload byte, so a caller
    holding many rows runs it per file or batch, never over a
    concatenation (see ``read_table``)."""
    import pyarrow.compute as pc

    if len(drop) == 0 or pa.types.is_null(drop.type):
        return t  # nothing to drop (an empty delete vector is written untyped)
    return t.filter(pc.invert(pc.is_in(t[key_col], value_set=drop)))


def _merge_one_fragment(fs_or_url, frag_key: str, dst_key: str, key: str,
                        upd_keys, compression: str,
                        storage_options: dict | None = None):
    """One fragment of :meth:`ObjectStore.merge_insert` — runs serially on
    the driver or fanned out as a ``ray.remote`` task (per-fragment GET
    latency is highest exactly on remote stores, so the wide upsert must
    not be O(fragments) serial round trips).

    ``storage_options`` rebuilds the driver's exact filesystem (endpoint,
    credentials) when only the URL ships to the task (ADVICE r4).
    Key-column scan first; an untouched fragment is re-referenced AS-IS
    (metadata-only). Returns ``(live_key | None, rows)``."""
    import pyarrow.compute as pc

    if isinstance(fs_or_url, str):
        import fsspec

        fs, _ = fsspec.core.url_to_fs(fs_or_url, **(storage_options or {}))
    else:
        fs = fs_or_url
    with fs.open(frag_key, "rb") as fh:
        keys_only = pq.read_table(fh, columns=[key])
    hit = pc.sum(pc.is_in(keys_only[key], value_set=upd_keys)).as_py() or 0
    if hit == 0:
        return frag_key, keys_only.num_rows
    with fs.open(frag_key, "rb") as fh:
        frag = pq.read_table(fh)
    kept = drop_keys(frag, key, upd_keys)
    if not kept.num_rows:
        return None, 0
    proto = fs.protocol if isinstance(fs.protocol, str) else fs.protocol[0]
    url = dst_key if proto in ("file", "local") else f"{proto}://{dst_key}"
    write_fragment(kept, url, compression=compression,
                   storage_options=storage_options)
    return dst_key, kept.num_rows


def _read_keys(pafs, keys: list[str], columns: list[str] | None):
    """One Arrow table per data file, read straight from its key."""
    for k in keys:
        with pafs.open_input_file(k) as f:
            yield pq.read_table(f, columns=columns)


def _manifest_dataset(keys: list[str], columns: list[str] | None, pafs,
                      file_rows: list[int | None]):
    """Dataset over exactly ``keys`` (a partition's manifest file list).

    One read task per contiguous file group, each running
    :func:`_read_keys` with ``columns`` pushed down. Unlike
    ``rd.read_parquet`` it resolves no paths, prefetches no footers and
    runs no sampling tasks when the Dataset is built — the manifest
    already names every file. The task count is Ray's own read floor, two
    per cluster CPU, capped at one per file; it is passed as the read's
    block count, so Ray never splits the read's blocks (a split would also
    keep the read from fusing with the next map).

    ``file_rows`` (aligned with ``keys``; ``None`` where a manifest predates
    per-file counts) gives each task its row count, so ``count()`` on the
    read is answered from metadata without running it."""
    import ray
    import ray.data as rd
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class ManifestDatasource(Datasource):  # runs as "ReadManifest"
        def estimate_inmemory_data_size(self) -> None:
            return None

        def get_read_tasks(self, parallelism: int) -> list:
            n = max(1, min(parallelism, len(keys)))
            cuts = [len(keys) * i // n for i in range(n + 1)]
            return [ReadTask(lambda g=keys[a:b]: _read_keys(pafs, g, columns),
                             BlockMetadata(num_rows=None if None in file_rows[a:b]
                                           else sum(file_rows[a:b]),
                                           size_bytes=None,
                                           input_files=keys[a:b],
                                           exec_stats=None))
                    for a, b in zip(cuts, cuts[1:])]

    # no Ray session yet: Ray Data starts a local one on the first read
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else 1
    n_tasks = min(len(keys), 2 * max(1, int(cpus)))
    return rd.read_datasource(ManifestDatasource(), override_num_blocks=n_tasks)


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
    with no pid) are SNAPSHOTS:

    - a committed delete-vector view SHADOWS its base partition (reading
      both would double-count the base and ignore the deletes);
    - a partition MATERIALIZED in place of a view (``merge_insert`` /
      ``rewrite_partition`` on a view pid) keeps shadowing the old base
      via the manifest's ``supersedes`` list — the snapshot invariant
      survives the view's lifecycle, not just its creation;
    - sibling views over one base are BOTH live (a user-created
      ambiguity: the snapshot is then their union);
    - the maintenance writers (``merge_insert`` / ``rewrite_partition``
      / ``drop_partition``) REFUSE to touch a live view's base. The hot
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
        # pid -> manifest map served by manifest() during one whole-store
        # read (see _manifest_cache)
        self._mcache: dict[str, dict] | None = None
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
        GETs are the dominant metadata cost on a remote object store).
        Served straight from an active :meth:`_manifest_cache`."""
        if self._mcache is not None:
            return self._mcache
        return {p: self.manifest(p) for p in self.partitions()}

    @contextmanager
    def _manifest_cache(self, ms: dict[str, dict]):
        """Serve ``manifest()`` from a prefetched map for the duration of a
        whole-store read, so per-pid view resolution (files / _view_of /
        base reads) re-uses the one fetch pass instead of issuing per-pid
        GETs. Driver-side reads only; writers never run under the cache.
        Nests: an inner scope restores the outer cache on exit."""
        prev = self._mcache
        self._mcache = ms
        try:
            yield
        finally:
            self._mcache = prev

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

    @staticmethod
    def _live_of(ms: dict[str, dict]) -> dict[str, dict]:
        shadowed: set[str] = set()
        for m in ms.values():
            v = m.get("view")
            if v:
                shadowed.add(v["base"])
            shadowed.update(m.get("supersedes") or ())
        return {p: m for p, m in ms.items() if p not in shadowed}

    def _live_manifests(self) -> dict[str, dict]:
        return self._live_of(self._all_manifests())

    @staticmethod
    def _shadow_from(m: dict) -> list[str]:
        """What a partition committed in place of the one holding
        manifest ``m`` must keep shadowing: the view's base plus any
        supersedes list the manifest already carries (inherited from
        earlier incarnations of the pid)."""
        sup = list(m.get("supersedes") or ())
        v = m.get("view")
        if v and v["base"] not in sup:
            return [v["base"], *sup]
        return sup

    def _materialize_view_plan(self, pid: str, m: dict, fragment_fn):
        """Plan for rewriting view ``pid`` into a plain partition:
        ``(wrapped_fragment_fn, base, supersedes)`` — the wrapped fn runs
        the delete vector before the caller's fn; chained views refuse
        loudly (only THIS view's deletes would be applied)."""
        base = m["view"]["base"]
        if self._view_of(base):
            raise ValueError(
                f"rewrite_partition through chained views ({pid} -> "
                f"{base} -> ...) is unsupported; read + append instead")
        key_col, dropped = self._delete_keys(pid)
        anti = self._anti_view

        def wrapped(t, _fn=fragment_fn):
            return _fn(anti(t, key_col, dropped, None))

        return wrapped, base, self._shadow_from(m)

    def _materialize_upsert(self, pid: str, updates, key: str) -> None:
        """merge_insert on a view pid: materialize into a plain partition,
        keeping the base SHADOWED in the whole-store snapshot.

        STREAMING, never the whole partition in driver memory: the
        rewrite pass runs base fragments through the delete vector and
        drops the updated keys ONE FRAGMENT AT A TIME; the follow-up
        plain upsert then re-references every rewritten fragment
        (nothing contains an updated key anymore) and adds the updates
        as one new fragment. Two commits instead of one — a crash
        between them leaves a correct store that simply lacks the
        upsert, the same observable state as crashing before a
        single-commit upsert."""
        upd_keys = pa.array(sorted(set(updates[key].to_pylist())))

        def drop_updated(t: pa.Table) -> pa.Table:
            return drop_keys(t, key, upd_keys)

        self.rewrite_partition(pid, drop_updated)
        self.merge_insert(pid, updates, key=key)

    def _snapshot_read_table(self, columns):
        """Whole-store table read with snapshot semantics; ``None`` means
        no live view exists, so the caller's flat files() fast path is
        exact (files()/rows() already restrict to live pids). Runs under
        the caller's manifest prefetch."""
        live = self._live_of(self._all_manifests())
        if not any(m.get("view") for m in live.values()):
            return None
        tabs = [t for t in (self.read_table(p, columns=columns)
                            for p in live) if t.num_columns]
        return pa.concat_tables(tabs) if tabs else pa.table({})

    def _snapshot_read_dataset(self, columns):
        """Whole-store Dataset read with snapshot semantics (union of
        per-pid reads); ``None`` -> flat fast path is exact."""
        ms = self._all_manifests()
        live = self._live_of(ms)
        if not any(m.get("view") for m in live.values()):
            return None
        import ray.data as rd

        def carries_schema(p: str) -> bool:
            # fileless partitions — including views over fileless bases —
            # carry no schema and would poison the union; resolved from
            # the already-fetched manifest map (zero extra GETs)
            m, seen = ms[p], set()
            while True:
                v = m.get("view")
                if not v:
                    return bool(m["files"])
                b = v["base"]
                if b in seen or b not in ms:
                    return False
                seen.add(b)
                m = ms[b]

        pids = [p for p in live if carries_schema(p)]
        if not pids:
            return rd.from_arrow(pa.table({}))
        dss = [self.read_dataset(p, columns=columns) for p in pids]
        out = dss[0]
        for d in dss[1:]:
            out = out.union(d)
        return out

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
        if self._mcache is not None and pid in self._mcache:
            return self._mcache[pid]
        return json.loads(self._retry(self.fs.cat_file, self._manifest_key(pid)))

    def rows(self, pid: str | None = None) -> int:
        """Row count from manifests only — no data-file reads or listings.
        Whole-store = the SNAPSHOT (see :class:`ObjectStore`)."""
        if pid is not None:
            return self.manifest(pid)["rows"]
        return sum(m["rows"] for m in self._live_manifests().values())

    def _put_manifest(self, pid: str, manifest: dict) -> None:
        """THE commit point: one atomic object PUT, nothing else.

        Single-object PUT is atomic on real object stores (S3/GCS/ABS);
        a local filesystem has NO atomic in-place write, so there the
        manifest goes tmp+fsync+os.replace (only the manifest file is
        ever renamed; data objects never move)."""
        # overwriting a partition that shadows others must keep shadowing
        # them (single inheritance chokepoint — every commit path PUTs
        # here): the pid's shadow set (view base + supersedes) only grows
        # until the pid is dropped
        if "supersedes" not in manifest and self.is_done(pid):
            base = (manifest.get("view") or {}).get("base")
            old = [p for p in self._shadow_from(self.manifest(pid))
                   if p != base]
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
    def append_table(self, pid: str, table: pa.Table, meta: dict | None = None,
                     supersedes: list[str] | None = None) -> None:
        """Atomically write one partition from a driver-side Arrow table.
        ``supersedes`` keeps the snapshot shadow when this write
        MATERIALIZES a former view."""
        stage = self._new_stage(pid)
        key = posixpath.join(stage, "part-0.parquet")
        write_fragment(table, self._url(key), compression=self.compression,
                       storage_options=self.storage_options)
        manifest = self._data_manifest([key], [table.num_rows], meta)
        if supersedes is not None:  # explicit [] = clear (skip inheritance)
            manifest["supersedes"] = supersedes
        self._put_manifest(pid, manifest)

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
        output file's rows. ``supersedes`` and meta ride through the
        commit; old objects become gc-able garbage. Returns the new
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
        manifest = self._data_manifest(new_files, counts, m.get("meta"))
        if m.get("supersedes"):
            manifest["supersedes"] = m["supersedes"]
        self._put_manifest(pid, manifest)
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
        rows = self.rows(base_pid) - n_deleted
        self._put_manifest(pid, {
            "rows": rows, "files": [],
            "view": {"base": base_pid, "key_col": key_col,
                     "delete_files": delete_keys_files},
            "meta": meta or {}})
        return rows

    def _view_of(self, pid: str) -> dict | None:
        return self.manifest(pid).get("view")

    def _delete_keys(self, pid: str) -> tuple[str, pa.Array]:
        """Delete keys of a view as an Arrow array (NEVER a Python set —
        readers probe it with vectorized ``pc.is_in``)."""
        import pyarrow.compute as pc

        v = self._view_of(pid)
        tab = pa.concat_tables(_read_keys(self._pafs(), v["delete_files"], None))
        return v["key_col"], pc.unique(tab[v["key_col"]].combine_chunks())

    @staticmethod
    def _anti_view(t: pa.Table, key_col: str, drop: pa.Array,
                   columns: list[str] | None) -> pa.Table:
        """A view's rows of ``t`` (:func:`drop_keys`), projected to
        ``columns``: shared by every view reader."""
        out = drop_keys(t, key_col, drop)
        if columns is not None and key_col not in columns:
            out = out.select(columns)
        return out

    # -- readers ------------------------------------------------------------
    def files(self, pid: str | None = None) -> list[str]:
        """Data files of committed partitions only (crashed stages
        invisible; view partitions resolve to their base's files)."""
        return self._files_rows(pid)[0]

    def file_schema(self, pid: str, columns: list[str] | None = None) -> pa.Schema:
        """``pid``'s column types (projected to ``columns``) from its first
        data file's parquet footer: a :meth:`read_dataset` side's schema."""
        with self._pafs().open_input_file(self.files(pid)[0]) as f:
            sch = pq.read_schema(f).remove_metadata()
        return sch if columns is None else pa.schema([sch.field(c) for c in columns])

    def _files_rows(self, pid: str | None) -> tuple[list[str], list]:
        """:meth:`files` and each file's row count from the same manifests
        (``None`` where a manifest predates per-file counts)."""
        if pid is None and self._mcache is None:
            with self._manifest_cache(self._all_manifests()):
                return self._files_rows(None)
        files: list[str] = []
        rows: list = []
        for p in [pid] if pid else self._live_manifests():
            m = self.manifest(p)
            if m.get("view"):
                f, r = self._files_rows(m["view"]["base"])
            else:
                f, r = m["files"], m.get("file_rows", [None] * len(m["files"]))
            files += f
            rows += r
        return files, rows

    def read_dataset(self, pid: str | None = None, columns: list[str] | None = None):
        import ray.data as rd

        if pid is None:
            if self._mcache is None:
                # ONE manifest prefetch covers the snapshot probe AND the
                # flat files(None) fallthrough
                with self._manifest_cache(self._all_manifests()):
                    return self.read_dataset(None, columns=columns)
            snap = self._snapshot_read_dataset(columns)
            if snap is not None:
                return snap
        if pid is not None and self._view_of(pid):
            base = self._view_of(pid)["base"]
            if not self.files(base):  # fileless base: nothing to anti-join
                return self.read_dataset(base)
            key_col, dropped = self._delete_keys(pid)
            cols = columns
            if cols is not None and key_col not in cols:
                cols = [*cols, key_col]
            ds = self.read_dataset(base, columns=cols)
            import ray

            # losers broadcast ONCE as an Arrow array; every task probes it
            # with a vectorized is_in (never a per-row Python loop)
            ref = ray.put(dropped)
            anti = self._anti_view

            def anti_fn(t: pa.Table) -> pa.Table:
                return anti(t, key_col, ray.get(ref), columns)

            return ds.map_batches(anti_fn, batch_format="pyarrow")
        files, counts = self._files_rows(pid)
        if not files:
            return rd.from_arrow(pa.table({}))
        return _manifest_dataset(files, columns, self._pafs(), counts)

    def read_table(self, pid: str | None = None, columns: list[str] | None = None) -> pa.Table:
        if pid is None:
            if self._mcache is None:
                with self._manifest_cache(self._all_manifests()):
                    return self.read_table(None, columns=columns)
            snap = self._snapshot_read_table(columns)
            if snap is not None:
                return snap
        if pid is not None and self._view_of(pid):
            key_col, dropped = self._delete_keys(pid)
            base = self._view_of(pid)["base"]
            cols = columns
            if cols is not None and key_col not in cols:
                cols = [*cols, key_col]
            if self._view_of(base):  # chained views: the base view's rows
                tabs = [self.read_table(base, columns=cols)]
            else:  # one base file at a time, never the whole partition
                tabs = _read_keys(self._pafs(), self.files(base), cols)
            out = [self._anti_view(t, key_col, dropped, columns)
                   for t in tabs if t.num_columns]  # fileless base: none
            return pa.concat_tables(out) if out else pa.table({})
        files = self.files(pid)
        if not files:
            return pa.table({})
        return pa.concat_tables(_read_keys(self._pafs(), files, columns))

    # -- upsert (the reference's bulk_update, S10) ------------------------------
    def merge_insert(self, pid: str, updates: pa.Table, key: str, *,
                     allow_view_base: bool = False) -> None:
        """Upsert rows of one partition by key (reference:
        13_calculate_image_stats.py:109-116 / 14_calculate_closest_frames.py:122-129
        ``bulk_update``), committed atomically.

        Untouched fragments are re-referenced in the new manifest AS-IS
        (zero copies, zero moves); only fragments containing an updated
        key are rewritten into a fresh stage — in parallel Ray tasks when
        a session is live. Driver memory stays O(updates), never
        O(partition)."""
        if not self.is_done(pid):
            self.append_table(pid, updates)
            return
        if not allow_view_base:  # True = caller asserts the upsert is
            # key-and-count-preserving, so dependent views stay exact
            self._assert_not_view_base(pid, "merge_insert")
        if self._view_of(pid):
            # view partitions have no fragments of their own: materialize
            self._materialize_upsert(pid, updates, key)
            self.gc(pid)  # the view's now-unreferenced delete objects
            return
        m = self.manifest(pid)
        files = m["files"]
        upd_keys = pa.array(sorted(set(updates[key].to_pylist())))
        if files:
            with self._pafs().open_input_file(files[0]) as fh:
                schema_names = pq.read_schema(fh).names
        else:
            schema_names = updates.column_names
        stage = self._new_stage(pid)
        # index-prefixed destination keys: two source fragments from
        # DIFFERENT stages may share a basename; a bare-basename dst would
        # overwrite one and double-reference the other (ADVICE r4)
        jobs = [(f, posixpath.join(stage, f"{i:05d}-{posixpath.basename(f)}"))
                for i, f in enumerate(files)]
        import ray

        # Fan out one task per fragment. memory:// is process-local —
        # tasks on other workers would see a different store, so it stays
        # serial.
        if (ray.is_initialized() and len(jobs) > 1
                and self._proto != "memory"):
            task = ray.remote(num_cpus=1)(_merge_one_fragment)
            kref = ray.put(upd_keys)
            results = ray.get([
                task.remote(self.root, src, dst, key, kref, self.compression,
                            self.storage_options)
                for src, dst in jobs])
        else:
            results = [_merge_one_fragment(self.fs, src, dst, key, upd_keys,
                                           self.compression)
                       for src, dst in jobs]
        up = updates.select(schema_names)
        uk = posixpath.join(stage, f"upsert-{uuid.uuid4().hex}.parquet")
        write_fragment(up, self._url(uk), compression=self.compression,
                       storage_options=self.storage_options)
        kept = sorted([(k, n) for k, n in results if k is not None]
                      + [(uk, up.num_rows)])
        manifest = self._data_manifest([k for k, _ in kept],
                                       [n for _, n in kept], m.get("meta"))
        if m.get("supersedes"):
            manifest["supersedes"] = m["supersedes"]
        self._put_manifest(pid, manifest)
        self.gc(pid)

    def rewrite_partition(self, pid: str, fragment_fn, meta: dict | None = None,
                          *, allow_view_base: bool = False) -> int:
        """Map every fragment through ``fragment_fn(pa.Table) -> pa.Table``
        into a new atomically-committed partition, ONE FRAGMENT AT A TIME
        (driver memory = one fragment) — the streaming path for
        schema-widening rewrites. A VIEW pid is materialized: each base
        fragment passes through the delete vector first, and the new
        plain partition keeps the base shadowed. Returns total rows."""
        if not allow_view_base:  # True = fn is row-count/key-preserving
            self._assert_not_view_base(pid, "rewrite_partition")
        m = self.manifest(pid)
        supersedes = m.get("supersedes")
        src_files = m["files"]
        if m.get("view"):
            fragment_fn, base, supersedes = self._materialize_view_plan(
                pid, m, fragment_fn)
            src_files = self.files(base)
        pafs = self._pafs()
        stage = self._new_stage(pid)
        kept = []
        for i, f in enumerate(src_files):
            with pafs.open_input_file(f) as fh:
                out = fragment_fn(pq.read_table(fh))
            if out.num_rows:
                # index prefix: source fragments from different stages may
                # share a basename (ADVICE r4)
                nk = posixpath.join(stage, f"{i:05d}-{posixpath.basename(f)}")
                write_fragment(out, self._url(nk), compression=self.compression,
                               storage_options=self.storage_options)
                kept.append((nk, out.num_rows))
        kept.sort()
        manifest = self._data_manifest(
            [k for k, _ in kept], [n for _, n in kept],
            meta if meta is not None else m.get("meta"))
        if supersedes:
            manifest["supersedes"] = supersedes
        self._put_manifest(pid, manifest)
        self.gc(pid)
        return manifest["rows"]
