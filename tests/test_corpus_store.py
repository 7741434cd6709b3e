"""Corpus fixture generator + table store tests (no Ray needed)."""

import numpy as np
import pyarrow as pa
import pytest

from logcrawler_ray.codecs import registry
from logcrawler_ray.functions.phash import phash_batch
from logcrawler_ray.functions.hashing import to_uint64
from logcrawler_ray.sources import corpus
from logcrawler_ray.sources.objstore import open_store


@pytest.fixture(scope="module")
def tab():
    return corpus.corpus_table(120, seed=42)


def test_schema(tab):
    assert tab.schema.equals(corpus.SCHEMA)


def test_deterministic(tab):
    assert tab.equals(corpus.corpus_table(120, seed=42))
    assert not tab.equals(corpus.corpus_table(120, seed=43))


def test_batchwise_equals_whole(tab):
    """Synthesis is a pure function of row index: two half-batches == one."""
    a = corpus.corpus_batch(np.arange(0, 60), 42, n_rows_hint=120)
    b = corpus.corpus_batch(np.arange(60, 120), 42, n_rows_hint=120)
    assert pa.concat_tables([a, b]).equals(tab)


def test_captions_oracle(tab):
    for row in tab.slice(0, 20).to_pylist():
        assert row["caption"] == corpus.caption_for(row["image_id"])


def test_phash_column_matches_decoded_pixels(tab):
    """The stored phash is the phash of the decoded luma (exact, via the
    same registry.decode_gray path the pipeline uses)."""
    from logcrawler_ray.functions.phash import phash_from_gray

    for row in tab.slice(0, 30).to_pylist():
        luma = registry.decode_gray(row["fmt"], row["bytes"], row["w"], row["h"])
        assert int(phash_from_gray(luma[None])[0]) == to_uint64(row["phash"])


def test_planted_duplicates(tab):
    ph = tab["phash"].to_pylist()
    assert len(set(ph)) < len(ph)  # at least one planted dup group


def test_hot_host_skew(tab):
    hosts = tab["host"].to_pylist()
    frac = hosts.count("host-0000.test") / len(hosts)
    assert 0.15 < frac < 0.45  # ~30% planted


def test_decode_all_rows(tab):
    for row in tab.to_pylist():
        rgb = registry.decode(row["fmt"], row["bytes"], row["w"], row["h"])
        assert rgb.shape == (row["h"], row["w"], 3)


# ---------------------------------------------------------------- store
def test_store_commit_and_resume(tmp_path):
    store = open_store(str(tmp_path / "s"))
    t = pa.table({"image_id": ["a", "b"], "v": [1, 2]})
    assert not store.is_done("p0")
    store.append_table("p0", t, meta={"wave": 0})
    assert store.is_done("p0")
    assert store.rows() == 2
    assert store.partitions() == ["p0"]
    assert store.manifest("p0")["meta"] == {"wave": 0}
    assert store.read_table("p0").equals(t)


def test_store_multiple_partitions(tmp_path):
    store = open_store(str(tmp_path / "s"))
    store.append_table("a", pa.table({"k": [1]}))
    store.append_table("b", pa.table({"k": [2, 3]}))
    assert store.rows() == 3
    assert sorted(store.read_table()["k"].to_pylist()) == [1, 2, 3]


def test_store_merge_insert(tmp_path):
    store = open_store(str(tmp_path / "s"))
    store.append_table("p", pa.table({"image_id": ["a", "b"], "v": [1, 2]}))
    store.merge_insert("p", pa.table({"image_id": ["b", "c"], "v": [20, 30]}), key="image_id")
    out = store.read_table("p")
    got = dict(zip(out["image_id"].to_pylist(), out["v"].to_pylist()))
    assert got == {"a": 1, "b": 20, "c": 30}


def test_store_uncommitted_invisible(tmp_path):
    import os

    from logcrawler_ray.sources.store import write_fragment

    store = open_store(str(tmp_path / "s"))
    # simulate a crashed write: a staged fragment exists but no manifest
    stage = tmp_path / "s" / "data" / "p0" / "stage-dead"
    os.makedirs(stage)
    write_fragment(pa.table({"k": [1]}), str(stage / "part-0.parquet"))
    assert store.partitions() == []
    assert store.files() == []


def test_view_recommit_crash_before_manifest_keeps_old_view(tmp_path,
                                                            monkeypatch):
    """Re-committing a delete view that crashes before its manifest is
    replaced must leave the OLD view intact: the old manifest still names
    the old deletes file, so rows() and reads agree after reopening."""
    import os

    root = str(tmp_path / "s")
    store = open_store(root)
    store.append_table("base", pa.table({"image_id": ["a", "b", "c", "d"],
                                         "v": [1, 2, 3, 4]}))
    store.commit_delete_view("view", "base", ["a"], key_col="image_id")
    assert store.rows("view") == 3

    real_replace = os.replace
    target = os.path.join("_manifests", "view.json")

    def crashing_replace(src, dst, *a, **kw):
        if str(dst).endswith(target):
            raise OSError("simulated crash before the manifest commit")
        return real_replace(src, dst, *a, **kw)

    monkeypatch.setattr(os, "replace", crashing_replace)
    with pytest.raises(OSError, match="simulated crash"):
        store.commit_delete_view("view", "base", ["a", "b", "c"],
                                 key_col="image_id")
    monkeypatch.setattr(os, "replace", real_replace)

    store2 = open_store(root)  # reopen after the crash
    assert store2.rows("view") == store2.read_table("view").num_rows == 3
    assert sorted(store2.read_table("view")["image_id"].to_pylist()) == [
        "b", "c", "d"]
