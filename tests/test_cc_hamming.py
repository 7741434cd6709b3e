"""Connected components (stages/cc.py) and the generic Hamming
near-dup operator (stages/hamming.py), each against brute-force oracles.
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logcrawler_ray.stages.cc import (
    cc_labels_dataset,
    cc_labels_df,
    neardup_losers,
)
from logcrawler_ray.stages.hamming import (
    hamming_near_dup_pairs,
    phash_near_dup_pairs,
    sign_codes,
    split_candidates,
)


def union_find(pairs: pd.DataFrame) -> dict:
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def random_pairs(rng, n, e) -> pd.DataFrame:
    p = pd.DataFrame({"a": rng.integers(0, n, e).astype(np.int64),
                      "b": rng.integers(0, n, e).astype(np.int64)})
    return p[p.a != p.b].reset_index(drop=True)


def test_cc_labels_df_matches_union_find():
    rng = np.random.default_rng(7)
    for _ in range(8):
        pairs = random_pairs(rng, int(rng.integers(5, 400)),
                             int(rng.integers(1, 800)))
        lab = cc_labels_df(pairs)
        assert dict(zip(lab["node"], lab["component"])) == union_find(pairs)


def test_cc_labels_df_empty():
    lab = cc_labels_df(pd.DataFrame({"a": [], "b": []}))
    assert len(lab) == 0 and list(lab.columns) == ["node", "component"]


def test_cc_labels_dataset_matches_union_find(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    # one random graph + the path graph (worst case for min propagation)
    cases = [random_pairs(rng, 80, 150),
             pd.DataFrame({"a": np.arange(0, 99, dtype=np.int64),
                           "b": np.arange(1, 100, dtype=np.int64)})]
    for pairs in cases:
        ds = rd.from_arrow(
            pa.Table.from_pandas(pairs, preserve_index=False)).repartition(4)
        lab = cc_labels_dataset(ds).to_pandas()
        assert dict(zip(lab["node"], lab["component"])) == union_find(pairs)
        assert not lab["node"].duplicated().any()


def test_cc_labels_dataset_empty(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                 "b": pa.array([], pa.int64())}))
    assert cc_labels_dataset(ds).count() == 0


def test_neardup_losers_keeps_component_min():
    pairs = pd.DataFrame({"a": [1, 2, 10], "b": [2, 3, 11]})
    assert neardup_losers(pairs) == frozenset({2, 3, 11})


def brute_hamming_pairs(ids, codes, max_hamming):
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = bin(int(codes[i]) ^ int(codes[j])).count("1")
            if d <= max_hamming:
                a, b = sorted((int(ids[i]), int(ids[j])))
                out.append((a, b, d))
    return sorted(out)


@pytest.mark.parametrize("n_chunks", [None, 11])  # 11: 64 % 11 != 0
def test_hamming_near_dup_exact_recall(ray_session, n_chunks):
    import ray.data as rd

    rng = np.random.default_rng(11)
    base = rng.integers(0, 2**63, 40, dtype=np.int64).astype(np.uint64)
    # plant near-dups: flip 1..4 bits off the first ten codes
    planted = base[:10].copy()
    for i in range(10):
        for bit in rng.choice(64, size=int(rng.integers(1, 5)), replace=False):
            planted[i] ^= np.uint64(1) << np.uint64(bit)
    codes = np.concatenate([base, planted])
    ids = np.arange(len(codes), dtype=np.int64)
    ds = rd.from_arrow(pa.table({"code": codes.view(np.int64), "doc_id": ids}))

    got = hamming_near_dup_pairs(ds, max_hamming=4, n_chunks=n_chunks)
    want = brute_hamming_pairs(ids, codes, 4)
    assert list(map(tuple, got[["a", "b", "hamming"]].to_numpy())) == want
    assert got.attrs["dropped_buckets"] == 0


def test_hamming_bucket_cap_marker(ray_session):
    import ray.data as rd

    # 30 identical codes -> every chunk bucket holds 30 > max_bucket=8;
    # the operator must drop them with markers, not emit 435 pairs
    codes = np.zeros(30, dtype=np.int64)
    ids = np.arange(30, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"code": codes, "doc_id": ids}))
    got = hamming_near_dup_pairs(ds, max_hamming=3, max_bucket=8)
    assert got.empty
    assert got.attrs["dropped_buckets"] > 0


def test_split_candidates_decodes_marker_sizes():
    pairs = pd.DataFrame({"a": [1, -30, 2], "b": [5, 77, 6],
                          "hamming": [1, -1, 0]})
    real, dropped = split_candidates(pairs)
    assert list(real["a"]) == [1, 2]
    assert list(dropped["size"]) == [30]


def test_sign_codes_bits():
    mat = np.array([[1.0, -2.0, 3.0, 0.5], [-1.0, 1.0, -1.0, -0.1]])
    codes = sign_codes(mat, nbits=4)
    assert codes.tolist() == [0b1101, 0b0010]
    with pytest.raises(ValueError):
        sign_codes(mat, nbits=8)


def test_phash_near_dup_string_ids(ray_session):
    import ray.data as rd

    # string ids round-trip through the int64 hash and back
    codes = np.array([0, 1, 2**40, 2**40 ^ 3, 2**60], dtype=np.int64)
    ids = [f"img_{i:04d}" for i in range(len(codes))]
    ds = rd.from_arrow(pa.table({"phash": codes, "image_id": ids}))
    got = phash_near_dup_pairs(ds, max_hamming=2)
    want = {(ids[a], ids[b], d)
            for a, b, d in brute_hamming_pairs(
                np.arange(len(codes)), codes.view(np.uint64), 2)}
    assert set(map(tuple, got[["a", "b", "hamming"]].to_numpy())) == want
    assert (got["a"] < got["b"]).all()


def test_neardup_pass_commits_cluster_losers(ray_session, tmp_path):
    from logcrawler_ray.pipelines.ingest import neardup_pass
    from logcrawler_ray.sources.objstore import open_store

    store = open_store(str(tmp_path / "store"))
    # phashes: {a,b,c} one near-dup cluster (chain a-b, b-c at hamming 1);
    # d far away (32 set bits); e exact-equal to a (hamming 0 joins)
    tab = pa.table({
        "image_id": ["a", "b", "c", "d", "e"],
        "phash": pa.array([0, 1, 3, 0x5555555555555555, 0], pa.int64()),
        "payload": [b"x"] * 5,
    })
    store.append_table("base", tab)
    pid = neardup_pass(store, "base", max_hamming=1)
    kept = sorted(store.read_table(pid, columns=["image_id"])
                  ["image_id"].to_pylist())
    assert kept == ["a", "d"]  # 'a' = min of cluster {a,b,c,e}; 'd' solo
    meta = store.manifest(pid)["meta"]
    assert meta["stage"] == "neardup" and meta["n_pairs"] >= 4
    # resume short-circuits: second call must not recompute/recommit
    assert neardup_pass(store, "base", max_hamming=1) == pid
    assert store.rows(pid) == 2


def test_neardup_pass_tiers_agree(ray_session, tmp_path, monkeypatch):
    """The distributed loser tier (forced via NEARDUP_MAX_DRIVER_PAIRS=0)
    must drop exactly the set the driver tier drops — tier choice is a size
    decision, never a semantics decision."""
    from logcrawler_ray.pipelines import ingest as ingest_mod
    from logcrawler_ray.pipelines.ingest import neardup_pass
    from logcrawler_ray.sources.objstore import open_store

    rng = np.random.default_rng(23)
    base = rng.integers(0, 2**63, 40, dtype=np.int64).astype(np.uint64)
    near = base[:15].copy()
    for i in range(15):
        near[i] ^= np.uint64(1) << np.uint64(rng.integers(0, 64))
    codes = np.concatenate([base, near]).view(np.int64)
    ids = [f"im{i:04d}" for i in range(len(codes))]
    tab = pa.table({"image_id": ids, "phash": pa.array(codes, pa.int64()),
                    "payload": [b"x"] * len(ids)})

    kept = {}
    for tier, cap in [("driver", 500_000), ("distributed", 0)]:
        store = open_store(str(tmp_path / tier))
        store.append_table("base", tab)
        monkeypatch.setattr(ingest_mod, "NEARDUP_MAX_DRIVER_PAIRS", cap)
        pid = neardup_pass(store, "base", max_hamming=2)
        kept[tier] = sorted(store.read_table(pid, columns=["image_id"])
                            ["image_id"].to_pylist())
        assert store.manifest(pid)["meta"]["tier"] == tier
        if tier == "distributed":
            # losers are ROUTED per id-hash bucket: >1 file written, no
            # single-writer funnel (round-3 verdict), files disjoint
            view = store.manifest(pid)["view"]
            assert len(view["delete_files"]) > 1
            import pyarrow.parquet as pq

            # manifest keys are the exact delete-file paths
            parts = [pq.read_table(f)["image_id"].to_pylist()
                     for f in view["delete_files"]]
            flat = [x for p in parts for x in p]
            assert len(flat) == len(set(flat))  # cross-file disjoint
    assert kept["driver"] == kept["distributed"]
    assert len(kept["driver"]) < len(ids)  # some near-dups actually dropped


def test_distinct_pairs_matches_pandas_dedup(ray_session):
    """distinct_pairs (coarse-bucket combine) == pandas drop_duplicates /
    per-pair min, over seeded random inputs with full-range int64 ids,
    duplicates across blocks, and a carry column."""
    import ray.data as rd

    from logcrawler_ray.stages.hamming import distinct_pairs

    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 4000)
        # small id pool forces cross-block duplicate pairs
        a = rng.integers(-2**62, 2**62, n)
        b = rng.integers(0, 40, n).astype(np.int64)
        h = rng.integers(0, 64, n).astype(np.int64)
        df = pd.DataFrame({"a": a, "b": b, "hamming": h})
        ds = rd.from_pandas(df).repartition(7)

        got = (distinct_pairs(ds, carry="hamming").to_pandas()
               .sort_values(["a", "b"]).reset_index(drop=True))
        want = (df.groupby(["a", "b"], as_index=False)
                .agg(hamming=("hamming", "min"))
                .sort_values(["a", "b"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["a", "b", "hamming"]],
            want[["a", "b", "hamming"]])

        got2 = (distinct_pairs(ds.drop_columns(["hamming"])).to_pandas()
                .sort_values(["a", "b"]).reset_index(drop=True))
        want2 = (df[["a", "b"]].drop_duplicates()
                 .sort_values(["a", "b"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got2, want2)


def test_cluster_losers_ds_idmap_gap_fails_loudly(ray_session):
    """An idmap that does not cover every paired id must error, never
    commit null delete keys (ADVICE r3)."""
    import ray.data as rd

    from logcrawler_ray.stages.cc import cluster_losers_ds

    pairs = rd.from_arrow(pa.table({"a": pa.array([1], pa.int64()),
                                    "b": pa.array([2], pa.int64())}))
    idmap = rd.from_arrow(pa.table({"__id64": pa.array([1], pa.int64()),
                                    "image_id": ["img1"]}))  # 2 missing
    with pytest.raises(Exception, match="idmap"):
        cluster_losers_ds(pairs, idmap).materialize()
