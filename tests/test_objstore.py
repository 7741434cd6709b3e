"""ObjectStore (sources/objstore.py): the one table store's manifest-last
commit protocol — rename-free by construction, crash-invisible staging,
metadata-only upserts.

memory:// exercises the pure protocol single-process; plain paths (and
file:// / local:// URLs) run on fsspec's LocalFileSystem, which Ray
workers share, so every Ray end-to-end runs there.
"""

import posixpath
import uuid

import pyarrow as pa
import pytest
from fsspec.implementations.memory import MemoryFileSystem

from logcrawler_ray.sources.objstore import ObjectStore, open_store
from logcrawler_ray.sources.store import write_fragment


def _st(**kw) -> ObjectStore:
    return ObjectStore(f"memory://objstore-{uuid.uuid4().hex}", **kw)


def _both(tmp_path) -> tuple[ObjectStore, ObjectStore]:
    """The same protocol on memory:// and on a plain local path."""
    return _st(), ObjectStore(str(tmp_path / f"loc-{uuid.uuid4().hex}"))


def test_append_read_rows_partitions():
    st = _st()
    t = pa.table({"image_id": ["a", "b", "c"], "v": [1, 2, 3]})
    st.append_table("p1", t, meta={"k": "v"})
    assert st.is_done("p1") and not st.is_done("p2")
    assert st.partitions() == ["p1"]
    assert st.rows("p1") == 3 and st.rows() == 3
    assert st.manifest("p1")["meta"] == {"k": "v"}
    assert st.read_table("p1").sort_by("image_id").equals(t)


def test_crash_before_manifest_is_invisible_and_gc_reclaims(tmp_path):
    for st in _both(tmp_path):
        stage = st.external_tmp("p")
        write_fragment(pa.table({"image_id": ["x"], "v": [9]}),
                       posixpath.join(stage, "part-0.parquet"))
        # crashed writer: data object exists, no manifest -> partition absent
        assert not st.is_done("p")
        assert st.partitions() == []
        with pytest.raises(FileNotFoundError):  # uncommitted = missing
            st.read_table("p")
        assert st.read_table().num_rows == 0  # whole-store read skips garbage
        assert st.gc("p") == 1  # reclaimable garbage
        assert st.gc("p") == 0


def test_commit_external_footer_counts_and_gc_of_stale_stage():
    st = _st()
    # a stale stage from a crashed earlier attempt
    stale = st.external_tmp("p")
    write_fragment(pa.table({"image_id": ["old"]}),
                   posixpath.join(stale, "part-0.parquet"))
    stage = st.external_tmp("p")
    for i, ids in enumerate((["a", "b"], ["c"])):
        write_fragment(pa.table({"image_id": ids, "v": list(range(len(ids)))}),
                       posixpath.join(stage, f"part-{i}.parquet"))
    assert st.commit_external("p", stage) == 3
    assert st.rows("p") == 3
    # commit swept the stale stage's object; only live keys remain
    live = set(st.manifest("p")["files"])
    assert {k for k in st.fs.find(st._key("data", "p"))
            if k.endswith(".parquet")} == live
    assert sorted(st.read_table("p")["image_id"].to_pylist()) == ["a", "b", "c"]


def test_commit_external_extend_adds_a_stage():
    """extend=True commits a second stage beside the first in one manifest:
    files and per-file row counts are appended, rows summed, the caller's
    meta replaces the old, and the post-commit gc keeps both stages."""
    st = _st()
    first = st.external_tmp("p")
    write_fragment(pa.table({"image_id": ["a", "b"]}),
                   posixpath.join(first, "part-0.parquet"))
    assert st.commit_external("p", first, {"groups": [1]}, extend=True) == 2
    stale = st.external_tmp("p")  # a crashed attempt at the second group
    write_fragment(pa.table({"image_id": ["x"]}),
                   posixpath.join(stale, "part-0.parquet"))
    second = st.external_tmp("p")
    write_fragment(pa.table({"image_id": ["c"]}),
                   posixpath.join(second, "part-0.parquet"))
    assert st.commit_external("p", second, {"groups": [1, 2]}, extend=True) == 3
    m = st.manifest("p")
    assert m["rows"] == 3 and m["file_rows"] == [2, 1]
    assert m["meta"] == {"groups": [1, 2]}
    assert {k for k in st.fs.find(st._key("data", "p"))
            if k.endswith(".parquet")} == set(m["files"])
    assert sorted(st.read_table("p")["image_id"].to_pylist()) == ["a", "b", "c"]


def test_base_read_count_comes_from_the_manifest(ray_session, tmp_path):
    """Every base-partition writer records per-file row counts, so a base
    read's count() is answered from metadata (meta_count, which never
    executes) and equals rows(pid); a view read still counts by running,
    and a manifest without counts still reads."""
    import json

    import ray.data as rd

    st = ObjectStore(str(tmp_path / "s"))
    t = pa.table({"image_id": [f"i{k:02d}" for k in range(12)],
                  "v": list(range(12))})
    st.append_table("p", t.slice(0, 5))
    for lo, hi in ((5, 9), (9, 12)):
        stage = st.external_tmp("p")
        write_fragment(t.slice(lo, hi - lo), posixpath.join(stage, "x.parquet"))
        st.commit_external("p", stage, extend=True)
    st.append_table("q", t)
    st.merge_insert("q", t.slice(0, 2), key="image_id")
    st.rewrite_partition("q", lambda f: f.slice(1))
    st.append_dataset("r", rd.from_arrow(t))
    st.compact_partition("r", target_rows=5)
    for pid in ("p", "q", "r"):
        ds = st.read_dataset(pid)
        assert ds._plan.meta_count() == st.rows(pid) == ds.count(), pid
    assert st.read_dataset()._plan.meta_count() == st.rows()
    st.commit_delete_view("v", "p", ["i00", "i07"], key_col="image_id")
    view = st.read_dataset("v")
    assert view._plan.meta_count() is None and view.count() == 10
    m = st.manifest("r")
    del m["file_rows"]  # a manifest written before per-file counts
    with open(st._manifest_key("r"), "w") as f:
        json.dump(m, f)
    old = st.read_dataset("r")
    assert old._plan.meta_count() is None and old.count() == 12


def test_delete_view_and_empty_view():
    st = _st()
    st.append_table("base", pa.table({"image_id": ["a", "b", "c"], "v": [1, 2, 3]}))
    assert st.commit_delete_view("v1", "base", ["b"], key_col="image_id") == 2
    assert st.rows("v1") == 2
    assert sorted(st.read_table("v1")["image_id"].to_pylist()) == ["a", "c"]
    # empty delete vector: view == base
    assert st.commit_delete_view("v0", "base", [], key_col="image_id") == 3
    assert st.read_table("v0").num_rows == 3
    # column pruning through the view
    assert st.read_table("v1", columns=["v"]).column_names == ["v"]


def test_commit_delete_view_files_copies_from_scratch():
    st = _st()
    st.append_table("base", pa.table({"image_id": ["a", "b", "c", "d"]}))
    scratch = st.scratch_dir("losers-")
    f1 = posixpath.join(scratch, "losers-0.parquet")
    f2 = posixpath.join(scratch, "losers-1.parquet")
    write_fragment(pa.table({"image_id": ["b"]}), f1)
    write_fragment(pa.table({"image_id": ["d"]}), f2)
    assert st.commit_delete_view_files("v", "base", [f1, f2],
                                       key_col="image_id") == 2
    st.rm_scratch(scratch)
    assert sorted(st.read_table("v")["image_id"].to_pylist()) == ["a", "c"]


def test_merge_insert_is_metadata_only_for_untouched_fragments():
    st = _st()
    stage = st.external_tmp("p")
    write_fragment(pa.table({"image_id": ["a", "b"], "v": [1, 2]}),
                   posixpath.join(stage, "part-0.parquet"))
    write_fragment(pa.table({"image_id": ["c", "d"], "v": [3, 4]}),
                   posixpath.join(stage, "part-1.parquet"))
    st.commit_external("p", stage)
    before = set(st.manifest("p")["files"])
    st.merge_insert("p", pa.table({"image_id": ["c", "e"], "v": [30, 5]}),
                    key="image_id")
    after = st.manifest("p")
    # part-0 (untouched) is re-referenced by KEY — zero bytes moved
    untouched = before & set(after["files"])
    assert len(untouched) == 1 and "part-0" in next(iter(untouched))
    assert after["rows"] == 5
    got = dict(zip(st.read_table("p")["image_id"].to_pylist(),
                   st.read_table("p")["v"].to_pylist()))
    assert got == {"a": 1, "b": 2, "c": 30, "d": 4, "e": 5}
    # superseded part-1 was gc'd
    assert {k for k in st.fs.find(st._key("data", "p"))
            if k.endswith(".parquet")} == set(after["files"])


def test_rewrite_partition():
    st = _st()
    st.append_table("p", pa.table({"image_id": ["a", "b"], "v": [1, 2]}))

    def widen(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.append_column("v2", pc.multiply(t["v"], 10))

    assert st.rewrite_partition("p", widen) == 2
    assert st.read_table("p")["v2"].to_pylist() == [10, 20]


class _NoRenameFS(MemoryFileSystem):
    """Object-store stand-in that FORBIDS rename/move — the protocol must
    never need one (S3/GCS have no atomic rename)."""

    def mv(self, *a, **kw):  # fsspec routes rename/move through mv
        raise AssertionError("object-store protocol must not rename")

    def rename(self, *a, **kw):
        raise AssertionError("object-store protocol must not rename")

    def mv_file(self, *a, **kw):
        raise AssertionError("object-store protocol must not rename")


def test_protocol_is_rename_free():
    fs = _NoRenameFS()
    st = ObjectStore(f"memory://norename-{uuid.uuid4().hex}", fs=fs)
    st.append_table("p", pa.table({"image_id": ["a", "b"], "v": [1, 2]}))
    stage = st.external_tmp("q")
    write_fragment(pa.table({"image_id": ["c"], "v": [3]}),
                   posixpath.join(stage, "part-0.parquet"))
    st.commit_external("q", stage)
    st.commit_delete_view("qv", "q", ["c"], key_col="image_id")
    scratch = st.scratch_dir("l-")
    f = posixpath.join(scratch, "x.parquet")
    write_fragment(pa.table({"image_id": ["a"]}), f)
    st.commit_delete_view_files("pv", "p", [f], key_col="image_id")
    with pytest.raises(ValueError):  # 'p' is the base of live view 'pv'
        st.merge_insert("p", pa.table({"image_id": ["z"], "v": [9]}),
                        key="image_id")
    st.drop_partition("pv")
    st.merge_insert("p", pa.table({"image_id": ["z"], "v": [9]}), key="image_id")
    st.rewrite_partition("p", lambda t: t)
    assert st.rows("p") == 3 and st.rows("qv") == 0


def test_open_store_factory(tmp_path):
    assert isinstance(open_store("memory://x"), ObjectStore)
    for root in (str(tmp_path / "loc"), f"file://{tmp_path}/loc2",
                 f"local://{tmp_path}/loc3"):
        st = open_store(root)
        assert isinstance(st, ObjectStore) and st._local
        assert not st.shared_fs  # local roots are node-private by default
    assert open_store(str(tmp_path / "loc4"), shared_fs=True).shared_fs


def test_write_fragment_url_and_plain(tmp_path):
    t = pa.table({"a": [1, 2]})
    write_fragment(t, str(tmp_path / "x.parquet"))
    fs = MemoryFileSystem()
    write_fragment(t, f"memory:///wf-{uuid.uuid4().hex}.parquet")
    import pyarrow.parquet as pq

    assert pq.read_table(str(tmp_path / "x.parquet")).equals(t)


def test_empty_stage_commits_zero_rows():
    """A staging prefix no task wrote to is a VALID zero-row partition on
    a pure object store (no directory object exists to list), like an
    empty stage directory on a local root — not a FileNotFoundError
    crash."""
    st = _st()
    stage = st.external_tmp("empty")
    assert st.commit_external("empty", stage) == 0
    assert st.is_done("empty") and st.rows("empty") == 0
    assert st.read_table("empty").num_rows == 0


def test_drop_partition_both_backends(tmp_path):
    for st in _both(tmp_path):
        st.append_table("p", pa.table({"image_id": ["a"], "v": [1]}))
        assert st.is_done("p")
        st.drop_partition("p")
        assert not st.is_done("p") and st.partitions() == []
        st.drop_partition("p")  # idempotent
        # data objects reclaimed, not just the manifest
        st.append_table("p", pa.table({"image_id": ["b"], "v": [2]}))
        assert st.read_table("p")["image_id"].to_pylist() == ["b"]


def test_local_manifest_commit_leaves_no_tmp(tmp_path):
    """file:// manifests go through tmp+fsync+os.replace (a half-written
    sole commit point would poison resume forever); the final dir holds
    exactly the committed manifests."""
    import os

    st = ObjectStore(f"file://{tmp_path}/obj")
    st.append_table("p", pa.table({"image_id": ["a"], "v": [1]}))
    st.merge_insert("p", pa.table({"image_id": ["b"], "v": [2]}), key="image_id")
    names = os.listdir(tmp_path / "obj" / "_manifests")
    assert names == ["p.json"]
    assert st.rows("p") == 2


def test_merge_insert_fans_out_with_ray(ray_session, tmp_path):
    """>1 fragment on a non-memory backend: per-fragment merge runs as Ray
    tasks, same result as the serial path."""
    st = ObjectStore(f"file://{tmp_path}/obj")
    stage = st.external_tmp("p")
    for i in range(4):
        write_fragment(pa.table({"image_id": [f"k{i}a", f"k{i}b"],
                                 "v": [i * 2, i * 2 + 1]}),
                       posixpath.join(stage, f"part-{i}.parquet"))
    st.commit_external("p", stage)
    before = set(st.manifest("p")["files"])
    st.merge_insert("p", pa.table({"image_id": ["k2a", "new"], "v": [99, 77]}),
                    key="image_id")
    after = st.manifest("p")
    assert after["rows"] == 9
    # three untouched fragments survive by key reference
    assert len(before & set(after["files"])) == 3
    got = dict(zip(st.read_table("p")["image_id"].to_pylist(),
                   st.read_table("p")["v"].to_pylist()))
    assert got["k2a"] == 99 and got["new"] == 77 and len(got) == 9


def test_open_store_forwards_kwargs():
    fs = _NoRenameFS()
    st = open_store(f"memory://fwd-{uuid.uuid4().hex}", fs=fs)
    assert isinstance(st, ObjectStore) and st.fs is fs
    with pytest.raises(ValueError):
        open_store("memory://fwd2", shared_fs=False)


def test_whole_store_snapshot_shadows_view_bases(ray_session, tmp_path):
    """Whole-store reads are a SNAPSHOT: a committed delete-vector view
    supersedes its base (previously the base was read twice and the
    deletes ignored), chained views shadow transitively, and unrelated
    partitions still contribute."""
    for st in _both(tmp_path):
        st.append_table("base", pa.table({"image_id": ["a", "b", "c"],
                                          "v": [1, 2, 3]}))
        st.append_table("other", pa.table({"image_id": ["x"], "v": [9]}))
        st.commit_delete_view("dedup", "base", ["b"], key_col="image_id")
        assert sorted(st.read_table()["image_id"].to_pylist()) == ["a", "c", "x"]
        assert st.rows() == 3
        if st._local:
            # distributed read path needs a filesystem Ray WORKERS share
            # (memory:// is per-process)
            assert sorted(st.read_dataset().to_pandas()["image_id"]) == [
                "a", "c", "x"]
        # chained: a view over the view shadows the whole chain
        st.commit_delete_view("dedup2", "dedup", ["c"], key_col="image_id")
        assert sorted(st.read_table()["image_id"].to_pylist()) == ["a", "x"]
        assert st.rows() == 2
        # per-pid reads unchanged
        assert st.rows("base") == 3 and st.rows("dedup") == 2


def test_read_dataset_reads_exactly_the_manifest_files(ray_session, tmp_path):
    """Partition reads resolve files through the manifest only: an orphan
    .parquet in a committed partition's data directory is never returned,
    and read_dataset agrees with read_table on plain partitions, views and
    pruned columns, and its count with rows()."""
    for st in _both(tmp_path):
        stage = st.external_tmp("base")
        for i in range(5):  # several files, so the read has file groups
            write_fragment(pa.table({"image_id": [f"{i}-{j}" for j in range(3)],
                                     "v": [i] * 3}),
                           posixpath.join(stage, f"part-{i}.parquet"))
        st.commit_external("base", stage)
        st.commit_delete_view("dedup", "base", ["0-1", "3-2"], key_col="image_id")
        data_dir = posixpath.dirname(st.manifest("base")["files"][0])
        write_fragment(pa.table({"image_id": ["orphan"], "v": [99]}),
                       st._url(posixpath.join(data_dir, "orphan.parquet")))
        assert "orphan" not in st.read_table()["image_id"].to_pylist()
        if not st._local:  # Ray workers do not see a memory:// store
            continue
        assert "orphan" not in st.read_dataset().to_pandas()["image_id"].tolist()
        for pid in ("base", "dedup"):
            assert st.read_dataset(pid).count() == st.rows(pid)
            for cols in (None, ["image_id"], ["v"]):
                want = st.read_table(pid, columns=cols).to_pandas()
                got = st.read_dataset(pid, columns=cols).to_pandas()
                assert list(got.columns) == list(want.columns)
                by = list(want.columns)
                assert got.sort_values(by).reset_index(drop=True).equals(
                    want.sort_values(by).reset_index(drop=True)), (pid, cols)


def test_snapshot_survives_view_materialization(tmp_path):
    """merge_insert on a view pid materializes it into a plain partition;
    the manifest's `supersedes` list must keep the old base SHADOWED, or
    whole-store reads would resurrect deleted rows and double-count
    (review repro: rows() jumped 2 -> 5)."""
    for st in _both(tmp_path):
        st.append_table("raw", pa.table({"image_id": ["a", "b", "c"],
                                         "v": [1, 2, 3]}))
        st.commit_delete_view("final", "raw", ["b"], key_col="image_id")
        st.merge_insert("final", pa.table({"image_id": ["c"], "v": [30]}),
                        key="image_id")
        assert st.rows() == 2
        got = dict(zip(st.read_table()["image_id"].to_pylist(),
                       st.read_table()["v"].to_pylist()))
        assert got == {"a": 1, "c": 30}  # no resurrected 'b', no doubles
        # a second (now plain-path) upsert must carry the shadow forward
        st.merge_insert("final", pa.table({"image_id": ["d"], "v": [4]}),
                        key="image_id")
        assert st.rows() == 3
        assert sorted(st.read_table()["image_id"].to_pylist()) == ["a", "c", "d"]
        # a WHOLE-PARTITION overwrite (append_table, no supersedes arg)
        # must inherit the shadow from the manifest it replaces
        st.append_table("final", pa.table({"image_id": ["z"], "v": [0]}))
        assert st.rows() == 1
        assert st.read_table()["image_id"].to_pylist() == ["z"]


def test_whole_store_read_with_view_over_empty_base(ray_session, tmp_path):
    """A view over a fileless zero-row base (a wave that decoded nothing)
    must not poison whole-store column-pruned reads (was: KeyError from
    anti-join select on a zero-column table)."""
    for st in _both(tmp_path):
        stage = st.external_tmp("raw")
        st.commit_external("raw", stage)  # fileless zero-row partition
        st.commit_delete_view("dedup", "raw", [], key_col="image_id")
        st.append_table("other", pa.table({"image_id": ["x"], "phash": [7]}))
        t = st.read_table(columns=["phash"])
        assert t["phash"].to_pylist() == [7]
        assert st.rows() == 0 + 1
        if st._local:
            # per-pid Dataset read of the view over the fileless base
            assert st.read_dataset("dedup").count() == 0
            assert sorted(st.read_dataset().to_pandas()["image_id"]) == ["x"]


def test_rewrite_partition_materializes_views(tmp_path):
    """rewrite_partition on a view pid applies the delete vector before
    the caller's fragment fn and keeps the base shadowed; a chained view
    applies every link's deletes."""
    import pyarrow.compute as pc

    def widen(t: pa.Table) -> pa.Table:
        return t.append_column("v2", pc.multiply(t["v"], 10))

    for st in _both(tmp_path):
        st.append_table("raw", pa.table({"image_id": ["a", "b", "c"],
                                         "v": [1, 2, 3]}))
        st.commit_delete_view("final", "raw", ["b"], key_col="image_id")
        assert st.rewrite_partition("final", widen) == 2
        got = st.read_table("final").sort_by("image_id")
        assert got["image_id"].to_pylist() == ["a", "c"]
        assert got["v2"].to_pylist() == [10, 30]
        assert st.rows() == 2  # raw stays shadowed in the snapshot
        # chained: view over a view equals its read followed by the fn
        st.commit_delete_view("v1", "raw", [], key_col="image_id")
        st.commit_delete_view("v2p", "v1", ["a"], key_col="image_id")
        want = widen(st.read_table("v2p")).sort_by("image_id")
        assert st.rewrite_partition("v2p", widen) == want.num_rows
        assert st.read_table("v2p").sort_by("image_id").equals(want)


def test_live_view_base_is_guarded(tmp_path):
    """Mutating or dropping the BASE of a live delete-view refuses loudly
    (a frozen view over a changed base would desync rows() from reads);
    dropping the view first unblocks, dependents-first ordering works."""
    for st in _both(tmp_path):
        st.append_table("base", pa.table({"image_id": ["a", "b"], "v": [1, 2]}))
        st.commit_delete_view("v", "base", ["a"], key_col="image_id")
        upd = pa.table({"image_id": ["c"], "v": [3]})
        with pytest.raises(ValueError):
            st.drop_partition("base")
        with pytest.raises(ValueError):
            st.merge_insert("base", upd, key="image_id")
        with pytest.raises(ValueError):
            st.rewrite_partition("base", lambda t: t)
        # escape hatch: a key/count-preserving upsert (the CLI stats flow)
        # may opt out — the view keeps reading exactly
        st.merge_insert("base", pa.table({"image_id": ["b"], "v": [20]}),
                        key="image_id", allow_view_base=True)
        assert st.read_table("v")["v"].to_pylist() == [20]
        assert st.rows("v") == 1
        st.drop_partition("v")
        st.merge_insert("base", upd, key="image_id")
        assert st.rows() == 3


class _FlakyFS(MemoryFileSystem):
    """Fails each metadata op a fixed number of times before succeeding —
    an S3 returning 503s. FileNotFoundError paths must NOT be retried."""

    def __init__(self, fail_times: int = 2, **kw):
        super().__init__(**kw)
        self._budget = {}
        self._fail_times = fail_times
        self.calls = 0

    def _maybe_fail(self, op, key):
        self.calls += 1
        k = (op, key)
        n = self._budget.setdefault(k, self._fail_times)
        if n > 0:
            self._budget[k] = n - 1
            raise OSError(f"transient 503 on {op} {key}")

    def pipe_file(self, path, value, **kw):
        self._maybe_fail("put", path)
        return super().pipe_file(path, value, **kw)

    def cat_file(self, path, **kw):
        if self.exists(path):  # a 404 is honest, not transient
            self._maybe_fail("get", path)
        else:
            self.calls += 1
        return super().cat_file(path, **kw)


def test_transient_faults_are_retried():
    fs = _FlakyFS(fail_times=2)
    st = ObjectStore(f"memory://flaky-{uuid.uuid4().hex}", fs=fs)
    t = pa.table({"image_id": ["a", "b"], "v": [1, 2]})
    st.append_table("p", t)  # manifest PUT survives two 503s
    assert st.rows("p") == 2  # manifest GET survives two 503s
    assert st.read_table("p").sort_by("image_id").equals(t)
    # a genuinely missing manifest still raises immediately (no retry spin)
    before = fs.calls
    with pytest.raises(FileNotFoundError):
        st.manifest("nope")
    assert fs.calls == before + 1


def test_compact_partition(tmp_path):
    """Fragment compaction: content-identical, fragment count collapses to
    ceil(rows/target), meta + supersedes + live views over the partition
    all survive, and old objects are gc'd."""
    for st in _both(tmp_path):
        stage = st.external_tmp("p")
        for i in range(6):
            write_fragment(pa.table({"image_id": [f"k{i}a", f"k{i}b"],
                                     "v": [i * 2, i * 2 + 1]}),
                           posixpath.join(stage, f"part-{i}.parquet"))
        st.commit_external("p", stage, meta={"src": "test"})
        st.commit_delete_view("pv", "p", ["k3a"], key_col="image_id")
        before = st.read_table("p").sort_by("image_id")
        # flush at >=5 buffered with 2-row fragments -> two 6-row files
        assert st.compact_partition("p", target_rows=5) == 2
        after = st.manifest("p")
        assert len(after["files"]) == 2 and after["rows"] == 12
        assert after["meta"] == {"src": "test"}
        assert st.read_table("p").sort_by("image_id").equals(before)
        # the view over the compacted base still reads exactly
        assert st.rows("pv") == 11
        assert "k3a" not in st.read_table("pv")["image_id"].to_pylist()
        live = set(after["files"]) | {
            k for k in st.fs.find(st._key("data", "pv"))
            if k.endswith(".parquet")}
        assert {k for k in st.fs.find(st._key("data"))
                if k.endswith(".parquet")} == live
        with pytest.raises(ValueError):
            st.compact_partition("pv")  # views have no fragments


# --------------------------------------------------------- round-5 advice
def test_storage_options_thread_to_task_side_writes(ray_session, tmp_path):
    """ADVICE r4: a filesystem that REQUIRES connection options (fsspec's
    dir:// needs ``path``; a MinIO s3:// needs endpoint/creds) must work
    for task-side writes too — the URL alone reconstructs the wrong fs.
    dir:// is the strictest probe: url_to_fs without the option RAISES."""
    import fsspec

    import ray.data as rd
    from logcrawler_ray.pipelines.ingest import ingest
    from logcrawler_ray.sources.corpus import corpus_dataset

    with pytest.raises(Exception):
        fsspec.core.url_to_fs("dir://anything")  # options are load-bearing

    st = ObjectStore("dir://store", storage_options={"path": str(tmp_path)})
    # full fused-sink pipeline: IngestStage tasks write fragments into the
    # external_tmp URL from Ray workers — only works if storage_options
    # shipped with the URL
    out = ingest(corpus_dataset(96, seed=5, batch_size=32), store=st,
                 pid="p", batch_size=32)
    n = out.count()
    assert n > 0 and st.rows("p") == n
    assert (tmp_path / "store" / "data").exists()

    # metadata-only upsert fan-out (ray tasks rebuild the fs per fragment)
    upd = st.read_table("p").slice(0, 3)
    st.merge_insert("p", upd, key="image_id", allow_view_base=True)
    assert st.rows("p") == n


def test_memory_store_sink_guard():
    """memory:// is per-process: worker-written sinks would silently
    commit 0 rows — the pipelines' _assert_sink_visible must refuse
    UNCONDITIONALLY (not only when Ray is already up): Ray Data auto-inits
    lazily at execution, so the guard cannot rely on ray.is_initialized()
    at pipeline-entry time (review r5)."""
    st = _st()
    with pytest.raises(RuntimeError, match="process-local"):
        st._assert_sink_visible()


def test_gc_grace_period_spares_young_objects():
    st = _st()
    st.append_table("p", pa.table({"image_id": ["a"], "v": [1]}))
    stray = st._key("data", "p", "stage-stray", "orphan.parquet")
    write_fragment(pa.table({"image_id": ["x"]}), f"memory://{stray}")
    # a concurrent writer's staged-but-unreferenced object is YOUNG:
    # a grace sweep must keep it, the writer's own gc (grace 0) reclaims
    assert st.gc("p", grace_s=3600) == 0
    assert st.gc("p") == 1


def test_merge_insert_same_basename_fragments_keep_rows():
    """ADVICE r4: two source fragments with EQUAL basenames (from different
    stages) must not collapse onto one destination key in the rewrite."""
    st = _st()
    k1 = st._key("data", "p", "stage-one", "part-0.parquet")
    k2 = st._key("data", "p", "stage-two", "part-0.parquet")
    write_fragment(pa.table({"image_id": ["a", "b"], "v": [1, 2]}),
                   f"memory://{k1}")
    write_fragment(pa.table({"image_id": ["c", "d"], "v": [3, 4]}),
                   f"memory://{k2}")
    st._put_manifest("p", {"rows": 4, "files": [k1, k2], "meta": {}})
    st.merge_insert("p", pa.table({"image_id": ["a", "c"], "v": [10, 30]}),
                    key="image_id")
    got = st.read_table("p").sort_by("image_id")
    assert got.column("image_id").to_pylist() == ["a", "b", "c", "d"]
    assert got.column("v").to_pylist() == [10, 2, 30, 4]
    assert st.rows("p") == 4


def test_local_root_multi_node_sink_guard(tmp_path, monkeypatch):
    """A local root is node-private unless declared shared: with two alive
    Ray nodes, fused sinks must refuse (rows written by remote workers
    would be silently lost) unless the caller passes shared_fs=True."""
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "nodes",
                        lambda: [{"Alive": True}, {"Alive": True},
                                 {"Alive": False}])
    with pytest.raises(RuntimeError, match="2 alive nodes"):
        open_store(str(tmp_path / "private"))._assert_sink_visible()
    open_store(str(tmp_path / "nfs"), shared_fs=True)._assert_sink_visible()
    # a single alive node needs no declaration
    monkeypatch.setattr(ray, "nodes", lambda: [{"Alive": True}])
    open_store(str(tmp_path / "single"))._assert_sink_visible()
