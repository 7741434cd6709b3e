"""Delete-vector view reads are metadata-only on the driver.

A view read is one ``ReadManifest`` operator whose read tasks load the
view chain's delete keys and drop them from each base file they read:
building ``read_dataset(view)`` reads no data file, puts no object and
builds one Dataset, and ``read_table(view)`` runs the same per-file
generator on the driver. Each manifest of the chain is fetched once per
read call.
"""

import contextlib

import pyarrow as pa
import pyarrow.parquet as pq

from logcrawler_ray.sources.objstore import ObjectStore, open_store


def _raise(*a, **kw):
    raise AssertionError("driver-side data read or object put")


@contextlib.contextmanager
def _no_driver_data(monkeypatch):
    """Fail any driver-side parquet read, ``_delete_keys`` or ``ray.put``
    inside the block; yields a list counting the Datasets constructed."""
    import ray
    from ray.data import Dataset

    built = []
    init = Dataset.__init__

    def counting_init(self, *a, **kw):
        built.append(1)
        init(self, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(pq, "read_table", _raise)
        m.setattr(ObjectStore, "_delete_keys", _raise)
        m.setattr(ray, "put", _raise)
        m.setattr(Dataset, "__init__", counting_init)
        yield built


def _base(st, pid="base", n=12, files=3):
    t = pa.table({"image_id": [f"i{k:02d}" for k in range(n)],
                  "phash": pa.array([k // 2 for k in range(n)], pa.int64()),
                  "v": list(range(n))})
    step = n // files
    st.append_table(pid, t.slice(0, step))
    for lo in range(step, n, step):
        stage = st.external_tmp(pid)
        pq.write_table(t.slice(lo, step), f"{stage}/part.parquet")
        st.commit_external(pid, stage, extend=True)
    return t


def test_view_dataset_build_reads_nothing_on_the_driver(ray_session, tmp_path,
                                                        monkeypatch):
    st = open_store(str(tmp_path / "s"))
    _base(st)
    st.commit_delete_view("v", "base", ["i01", "i05"], key_col="image_id")
    with _no_driver_data(monkeypatch) as built:
        ds = st.read_dataset("v")
    assert len(built) == 1
    assert ds.count() == st.rows("v") == 10


def test_committed_ingest_reads_nothing_on_the_driver(ray_session, tmp_path,
                                                      monkeypatch):
    import ray.data as rd

    from logcrawler_ray.pipelines.ingest import ingest
    from logcrawler_ray.sources import corpus

    st = open_store(str(tmp_path / "s"))
    src = rd.from_arrow(corpus.corpus_table(24, seed=7))
    ingest(src, st, pid="p")
    with _no_driver_data(monkeypatch) as built:
        ds = ingest(src, st, pid="p")
    assert len(built) == 1
    assert ds.count() == st.rows("p")


def test_distributed_tier_ingest_reads_no_delete_file(ray_session, tmp_path,
                                                      monkeypatch):
    """Past the broadcast bound the losers are written by workers; the
    ingest that commits them returns its view without the driver reading
    a delete file (or any parquet data)."""
    import ray.data as rd

    from logcrawler_ray.pipelines.ingest import ingest
    from logcrawler_ray.sources import corpus
    from logcrawler_ray.stages import broadcast

    tab = corpus.corpus_table(48, seed=3)
    st = open_store(str(tmp_path / "s"))
    monkeypatch.setattr(broadcast, "DEFAULT_MAX_BROADCAST_ROWS", 0)
    monkeypatch.setattr(pq, "read_table", _raise)
    monkeypatch.setattr(ObjectStore, "_delete_keys", _raise)
    ds = ingest(rd.from_arrow(tab), st, pid="p")
    monkeypatch.undo()
    assert st.manifest("p")["meta"]["tier"] == "distributed"
    assert ds.count() == st.rows("p") == len(set(tab["phash"].to_pylist()))


def _same_rows(st, pid, columns=None):
    """The view Dataset's rows equal read_table's, and count() == rows()."""
    ds = st.read_dataset(pid, columns=columns)
    tab = st.read_table(pid, columns=columns)
    blocks = [b for b in ds.iter_batches(batch_size=None,
                                         batch_format="pyarrow")
              if b.num_rows]
    if blocks:
        order = tab.column_names[-1]
        assert pa.concat_tables(blocks).sort_by(order).equals(
            tab.sort_by(order))
    assert ds.count() == st.rows(pid) == tab.num_rows
    return tab


def test_view_dataset_rows_equal_read_table(ray_session, tmp_path):
    from logcrawler_ray.pipelines.ingest import neardup_pass

    st = open_store(str(tmp_path / "s"))
    t = _base(st)
    st.commit_delete_view("exact", "base", ["i01", "i03", "i05"],
                          key_col="image_id")
    assert _same_rows(st, "exact").num_rows == 9
    # projection without the key column: projected after the drop
    proj = _same_rows(st, "exact", columns=["v"])
    assert proj.column_names == ["v"]
    assert sorted(proj["v"].to_pylist()) == [0, 2, 4, 6, 7, 8, 9, 10, 11]
    # chained: the near-dup view over the exact view applies both links
    near = neardup_pass(store=st, base_pid="exact", max_hamming=1)
    got = _same_rows(st, near)
    assert got.num_rows < 9
    assert not set(got["image_id"].to_pylist()) & {"i01", "i03", "i05"}
    assert _same_rows(st, near, columns=["v"]).column_names == ["v"]
    # empty delete vector
    st.commit_delete_view("none", "base", [], key_col="image_id")
    assert _same_rows(st, "none").num_rows == t.num_rows
    # fileless base (and a view over it) reads empty
    st.commit_external("hollow", st.external_tmp("hollow"))
    st.commit_delete_view("hv", "hollow", [], key_col="image_id")
    assert _same_rows(st, "hv").num_rows == 0


def test_one_manifest_get_per_read_call(ray_session, tmp_path, monkeypatch):
    st = open_store(str(tmp_path / "s"))
    _base(st)
    st.commit_delete_view("v1", "base", ["i00"], key_col="image_id")
    st.commit_delete_view("v2", "v1", ["i11"], key_col="image_id")
    gets = []
    cat = st.fs.cat_file

    def counting_cat(path, *a, **kw):
        gets.append(path)
        return cat(path, *a, **kw)

    monkeypatch.setattr(st.fs, "cat_file", counting_cat)
    want = sorted(st._manifest_key(p) for p in ("v2", "v1", "base"))
    for read in (st.read_dataset, st.read_table):
        gets.clear()
        read("v2", columns=["v"])
        assert sorted(gets) == want, read.__name__

