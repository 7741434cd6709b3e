"""The store's one plan: every read and rewrite resolves the partition,
or the whole-store snapshot, into ``(file, rows, chain)`` entries and
reads each file through its view chain. A whole-store read with live
views is one ``ReadManifest`` operator; ``merge_insert`` and
``rewrite_partition`` run one kernel that commits ONE manifest — on a
plain partition, a view, or a chained view alike. Also: a view's
committed row count never goes negative.
"""

import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from logcrawler_ray.sources.objstore import ObjectStore
from logcrawler_ray.sources.store import write_fragment


def _both(tmp_path) -> tuple[ObjectStore, ObjectStore]:
    return (ObjectStore(f"memory://rewrite-{uuid.uuid4().hex}"),
            ObjectStore(str(tmp_path / f"loc-{uuid.uuid4().hex}")))


def _chained(st: ObjectStore) -> None:
    """raw (two files) <- v1 (drops b) <- v2 (drops d): a two-link chain."""
    st.append_table("raw", pa.table({"image_id": ["a", "b", "c"],
                                     "v": [1, 2, 3]}))
    stage = st.external_tmp("raw")
    write_fragment(pa.table({"image_id": ["d", "e"], "v": [4, 5]}),
                   f"{stage}/part.parquet")
    st.commit_external("raw", stage, extend=True)
    st.commit_delete_view("v1", "raw", ["b"], key_col="image_id")
    st.commit_delete_view("v2", "v1", ["d"], key_col="image_id")


def _rows(t: pa.Table) -> dict:
    return dict(zip(t["image_id"].to_pylist(), t["v"].to_pylist()))


def test_merge_insert_on_a_view_is_one_commit(tmp_path, monkeypatch):
    for st in _both(tmp_path):
        st.append_table("raw", pa.table({"image_id": ["a", "b", "c"],
                                         "v": [1, 2, 3]}))
        st.commit_delete_view("final", "raw", ["b"], key_col="image_id")
        puts = []
        put = st._put_manifest

        def counting(pid, manifest):
            puts.append(pid)
            put(pid, manifest)

        with monkeypatch.context() as m:
            m.setattr(st, "_put_manifest", counting)
            st.merge_insert("final", pa.table({"image_id": ["c"], "v": [30]}),
                            key="image_id")
        assert puts == ["final"]
        assert _rows(st.read_table("final")) == {"a": 1, "c": 30}
        assert st.rows() == 2  # raw stays shadowed


def test_chained_view_merge_insert_equals_read_then_upsert(tmp_path):
    for st in _both(tmp_path):
        _chained(st)
        want = _rows(st.read_table("v2"))
        assert want == {"a": 1, "c": 3, "e": 5}
        upd = pa.table({"image_id": ["c", "z"], "v": [30, 26]})
        st.merge_insert("v2", upd, key="image_id")
        want.update(_rows(upd))
        assert _rows(st.read_table("v2")) == want
        assert st.rows("v2") == st.read_table("v2").num_rows == 4
        # v2 now shadows v1 (its old base) and raw through v1
        assert _rows(st.read_table()) == want
        assert st.rows() == 4
        # the materialized view lists only its own files
        assert all(f"/data/v2/" in f for f in st.files("v2"))


def test_chained_view_rewrite_equals_read_then_fn(tmp_path):
    def widen(t: pa.Table) -> pa.Table:
        return t.append_column("v2", pc.multiply(t["v"], 10))

    for st in _both(tmp_path):
        _chained(st)
        want = widen(st.read_table("v2")).sort_by("image_id")
        assert st.rewrite_partition("v2", widen) == want.num_rows == 3
        assert st.read_table("v2").sort_by("image_id").equals(want)
        assert st.read_table().sort_by("image_id").equals(want)
        assert all(f"/data/v2/" in f for f in st.files("v2"))


def test_failed_commit_leaves_view_reading_as_before(tmp_path, monkeypatch):
    for st in _both(tmp_path):
        _chained(st)
        before = {p: st.read_table(p).sort_by("image_id")
                  for p in (None, "raw", "v1", "v2")}
        rows = {p: st.rows(p) for p in (None, "raw", "v1", "v2")}

        def boom(pid, manifest):
            raise OSError("commit lost")

        with monkeypatch.context() as m:
            m.setattr(st, "_put_manifest", boom)
            with pytest.raises(OSError):
                st.merge_insert("v2", pa.table({"image_id": ["a"], "v": [9]}),
                                key="image_id")
            with pytest.raises(OSError):
                st.rewrite_partition("v2", lambda t: t.slice(1))
        for p, t in before.items():
            assert st.read_table(p).sort_by("image_id").equals(t), p
            assert st.rows(p) == rows[p], p


def test_merge_insert_reuses_only_untouched_own_files(tmp_path):
    """Metadata-only upsert: an untouched plain file is re-referenced
    as-is; after a view materializes, a further upsert re-references the
    materialized files it does not touch."""
    for st in _both(tmp_path):
        _chained(st)
        st.merge_insert("v2", pa.table({"image_id": ["a"], "v": [10]}),
                        key="image_id")
        own = st.files("v2")
        st.merge_insert("v2", pa.table({"image_id": ["zz"], "v": [0]}),
                        key="image_id")
        assert set(own) < set(st.files("v2"))


def test_view_over_zero_row_base_commits_zero_rows(tmp_path):
    for st in _both(tmp_path):
        st.commit_external("hollow", st.external_tmp("hollow"))
        assert st.commit_delete_view("v", "hollow", ["x"],
                                     key_col="image_id") == 0
        assert st.rows("v") == 0 == st.read_table("v").num_rows


def test_view_with_more_deletes_than_base_rows_refuses(tmp_path):
    for st in _both(tmp_path):
        st.append_table("raw", pa.table({"image_id": ["a"], "v": [1]}))
        with pytest.raises(ValueError):
            st.commit_delete_view("v", "raw", ["a", "b"], key_col="image_id")
        assert not st.is_done("v")


def test_chained_view_rewrite_in_ray_tasks(ray_session, tmp_path):
    """The kernel's Ray-task placement (a live session, several files, a
    root the workers share) gives the driver path's result."""
    st = ObjectStore(str(tmp_path / "s"))
    _chained(st)
    upd = pa.table({"image_id": ["a", "q"], "v": [10, 17]})
    want = {**_rows(st.read_table("v2")), **_rows(upd)}
    st.merge_insert("v2", upd, key="image_id")
    assert _rows(st.read_table("v2")) == want
    files = list(st.iter_tables("v2"))
    assert len(files) == 3  # two rewritten base files and the upsert
    assert st.rewrite_partition("v2", lambda t: t.slice(1)) == len(want) - 3


def test_whole_store_read_with_views_is_one_operator(ray_session, tmp_path,
                                                     monkeypatch):
    """Sibling views over one base read as their union, a fileless
    partition contributes nothing, and the snapshot Dataset is ONE
    ``ReadManifest`` read (no ``union``) that equals ``read_table()``."""
    from ray.data import Dataset

    st = ObjectStore(str(tmp_path / "s"))
    _chained(st)
    st.commit_delete_view("sib", "raw", ["a"], key_col="image_id")
    st.append_table("plain", pa.table({"image_id": ["p"], "v": [0]}))
    st.commit_external("hollow", st.external_tmp("hollow"))
    built = []
    init = Dataset.__init__

    def counting_init(self, *a, **kw):
        built.append(1)
        init(self, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(Dataset, "__init__", counting_init)
        ds = st.read_dataset(columns=["image_id", "v"])
    assert len(built) == 1
    assert "ReadManifest" in str(ds._plan._logical_plan.dag)
    want = st.read_table(columns=["image_id", "v"]).sort_by("image_id")
    got = pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)
    assert got.sort_by("image_id").equals(want)
    # v2 (a, c, e) and its sibling sib (b, c, d, e) over raw, plus plain
    assert sorted(want["image_id"].to_pylist()) == [
        "a", "b", "c", "c", "d", "e", "e", "p"]
    assert ds.count() == st.rows() == 8
