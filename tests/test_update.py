"""Stats-update pass tests (S10 bulk_update -> merge_insert semantics)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logcrawler_ray.pipelines.update import update_image_stats
from logcrawler_ray.sources.corpus import corpus_table
from logcrawler_ray.sources.objstore import open_store


@pytest.fixture()
def raw_store(tmp_path):
    store = open_store(str(tmp_path / "s"))
    tab = corpus_table(30, seed=3)
    # partition WITHOUT stats columns (raw crawl output shape)
    store.append_table("p0", tab.select(
        ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]))
    return store, tab


def test_update_adds_stats(raw_store):
    store, tab = raw_store
    n = update_image_stats(store, "p0")
    assert n == 30
    out = store.read_table("p0")
    assert "brightness" in out.column_names
    assert "blurredness" in out.column_names
    assert out.num_rows == 30
    # caption column carried through the rewrite
    got = dict(zip(out["image_id"].to_pylist(), out["caption"].to_pylist()))
    want = dict(zip(tab["image_id"].to_pylist(), tab["caption"].to_pylist()))
    assert got == want
    # recomputed phash equals the corpus's stored phash
    gp = dict(zip(out["image_id"].to_pylist(), out["phash"].to_pylist()))
    wp = dict(zip(tab["image_id"].to_pylist(), tab["phash"].to_pylist()))
    assert gp == wp


def test_update_is_idempotent(raw_store):
    store, _ = raw_store
    update_image_stats(store, "p0")
    assert update_image_stats(store, "p0") == 0  # nothing left to do
    assert store.read_table("p0").num_rows == 30


def test_update_force_recomputes(raw_store):
    store, _ = raw_store
    update_image_stats(store, "p0")
    n = update_image_stats(store, "p0", force=True)
    assert n == 30


@pytest.fixture()
def multifrag_store(tmp_path):
    """Partition with 3 separate fragment files (the per-fragment upsert
    target shape)."""
    import ray.data as rd

    store = open_store(str(tmp_path / "m"))
    tab = corpus_table(30, seed=5).select(
        ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"])
    chunks = [tab.slice(0, 10), tab.slice(10, 10), tab.slice(20, 10)]
    store.append_dataset("p0", rd.from_arrow(chunks))
    return store, tab


def test_merge_insert_per_fragment(ray_session, multifrag_store):
    """Only fragments containing updated keys are rewritten; the new
    manifest re-references the others as-is (same file, same inode)."""
    import os

    store, tab = multifrag_store
    before = {os.path.basename(f): os.stat(f).st_ino for f in store.files("p0")}
    assert len(before) == 3
    # update 2 rows that live in ONE fragment
    ids = sorted(tab["image_id"].to_pylist())
    frag_tables = {os.path.basename(f): pq.read_table(f)
                   for f in store.files("p0")}
    victim_name, victim = sorted(frag_tables.items())[0]
    upd = victim.slice(0, 2).set_column(
        victim.column_names.index("caption"), "caption",
        pa.array(["patched-a", "patched-b"]))
    store.merge_insert("p0", upd, key="image_id")

    after = {os.path.basename(f): os.stat(f).st_ino for f in store.files("p0")}
    untouched = [n for n in before if n != victim_name]
    for n in untouched:
        assert after[n] == before[n]  # re-referenced, not rewritten
    assert store.rows("p0") == 30
    out = store.read_table("p0")
    got = dict(zip(out["image_id"].to_pylist(), out["caption"].to_pylist()))
    for iid, cap in zip(upd["image_id"].to_pylist(), upd["caption"].to_pylist()):
        assert got[iid] == cap
    assert len(got) == 30
    assert sorted(got) == ids


def test_update_stats_multifrag(ray_session, multifrag_store):
    store, tab = multifrag_store
    assert update_image_stats(store, "p0") == 30
    assert update_image_stats(store, "p0") == 0  # resume no-op
    out = store.read_table("p0")
    assert out.num_rows == 30 and "brightness" in out.column_names
    gp = dict(zip(out["image_id"].to_pylist(), out["phash"].to_pylist()))
    wp = dict(zip(tab["image_id"].to_pylist(), tab["phash"].to_pylist()))
    assert gp == wp
