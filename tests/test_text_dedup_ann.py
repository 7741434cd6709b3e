"""Text analysis, MinHash/SimHash near-dup, and ANN tests."""

import numpy as np
import pandas as pd
import pytest

from logcrawler_ray.functions import text as T
from logcrawler_ray.stages import ann, dedup_text
from logcrawler_ray.stages.dedup_text import (
    minhash_batch,
    minhash_lsh_candidates,
    simhash_batch,
    simhash_near_dup_pairs,
    verify_jaccard_pairs,
)


# ---------------------------------------------------------------- text fns
def test_split_tokens_matches_duckdb_semantics():
    import duckdb

    con = duckdb.connect()
    for s in ["a b c", "a  b", "", " lead", "trail "]:
        sql = con.execute("select string_split(?, ' ')", [s]).fetchone()[0]
        assert T.split_tokens(s) == sql


def test_quality_score_ranges():
    q = T.quality_score("The quick brown fox jumps over the lazy dog near a river bank today.")
    assert 0 <= q["quality"] <= 1
    assert q["stop_ratio"] > 0
    junk = T.quality_score("!!! ??? ### $$$")
    assert junk["quality"] < q["quality"]


def test_lang_id_stopword_profiles():
    assert T.lang_id("the cat and the dog of a house") == "en"
    assert T.lang_id("der hund und die katze ist ein tier") == "de"
    assert T.lang_id("le chat est un animal et la maison") == "fr"
    assert T.lang_id("el perro y la casa es un animal") == "es"
    assert T.lang_id("你好 世界") == "zh"


def test_fingerprint_deterministic():
    assert T.fingerprint("abc") == T.fingerprint("abc")
    assert T.fingerprint("abc") != T.fingerprint("abd")


def test_shingles_and_jaccard():
    a = T.shingle_hashes("one two three four five", 3)
    b = T.shingle_hashes("one two three four six", 3)
    j = T.jaccard(a, b)
    assert 0 < j < 1
    assert T.jaccard(a, a) == 1.0


# ---------------------------------------------------------------- minhash
def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(100)]
    d1 = " ".join(rng.choice(words, 80))
    # 90% same prefix
    d2 = d1[: int(len(d1) * 0.9)] + " zzz aaa bbb"
    sigs = minhash_batch([d1, d2, " ".join(rng.choice(words, 80))], k=128)
    est_close = (sigs[0] == sigs[1]).mean()
    est_far = (sigs[0] == sigs[2]).mean()
    true_j = T.jaccard(T.shingle_hashes(d1), T.shingle_hashes(d2))
    assert abs(est_close - true_j) < 0.2
    assert est_close > est_far


def test_minhash_lsh_finds_planted_dup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(1)
    vocab = [f"tok{i}" for i in range(200)]
    docs = [" ".join(rng.choice(vocab, 60)) for _ in range(30)]
    docs.append(docs[0] + " tail")  # near-dup of doc 0
    df = pd.DataFrame({"doc_id": np.arange(len(docs)), "text": docs})
    ds = rd.from_pandas(df)
    cands = minhash_lsh_candidates(ds, k=64, bands=16)
    verified = verify_jaccard_pairs(ds, cands, threshold=0.5)
    assert ((verified["a"] == 0) & (verified["b"] == 30)).any()


def test_simhash_hamming_small_for_similar():
    base = "alpha beta gamma delta epsilon zeta eta theta " * 5
    near = base + "iota"
    far = "completely different words entirely other content here now then"
    sh = simhash_batch([base, near, far])
    from logcrawler_ray.functions.phash import hamming_batch

    d_near = hamming_batch(sh[:1], sh[1:2])[0]
    d_far = hamming_batch(sh[:1], sh[2:3])[0]
    assert d_near < d_far


def test_batch_sketches_bitexact_vs_per_doc_reference():
    """The batch-vectorized minhash_batch/simhash_batch must be
    bit-identical to straightforward per-doc reference implementations
    (the q21 SQL oracle replays the exact hashes, so any drift is a
    correctness break, not just a perf note)."""
    from logcrawler_ray.functions.hashing import (hash64_str_array,
                                                  md5_hash64_array)
    from logcrawler_ray.functions.text import shingle_hashes, words
    from logcrawler_ray.stages.dedup_text import minhash_signature

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 40)))
             for _ in range(30)]
    texts += ["", "   ", "one", texts[0], texts[1]]  # empties + exact dups

    for hasher in ("blake2b", "md5sql"):
        sigs = minhash_batch(texts, k=16, ngram=3, seed=77, hasher=hasher)
        for i, t in enumerate(texts):
            ref = minhash_signature(shingle_hashes(t, 3, hasher), k=16, seed=77)
            assert (sigs[i] == ref).all(), (hasher, i)

        codes = simhash_batch(texts, seed=99, hasher=hasher)
        bit_positions = np.arange(64, dtype=np.uint64)
        for i, t in enumerate(texts):
            toks = words(t)
            if not toks:
                assert codes[i] == 0
                continue
            uniq, counts = np.unique(np.array(toks, dtype=object),
                                     return_counts=True)
            hashes = (md5_hash64_array(list(uniq)) if hasher == "md5sql"
                      else hash64_str_array(list(uniq), seed=99))
            bits = ((hashes[:, None] >> bit_positions[None, :])
                    & np.uint64(1)).astype(np.int64)
            acc = ((2 * bits - 1) * counts[:, None]).sum(axis=0)
            ref = np.uint64(((acc > 0).astype(np.uint64)
                             << bit_positions).sum())
            assert codes[i] == ref, (hasher, i)


def test_q21_sketch_pairs_match_sql_oracle_with_short_docs(ray_session):
    """Docs with 0/1/2 tokens must behave exactly like the SQL oracle:
    absent from the minhash CTEs (no 3-grams -> no sig rows) and from the
    simhash scode CTE (no tokens) — the Python side used to pair empty
    docs with each other (all-max signatures / code 0 / union==0 ->
    jaccard 1.0) while the oracle returned nothing (review finding)."""
    import duckdb
    import ray.data as rd

    from logcrawler_ray.functions.sqloracle import sketch_neardup_sql
    from logcrawler_ray.stages.dedup_text import (minhash_lsh_candidates,
                                                  simhash_near_dup_pairs,
                                                  verify_jaccard_pairs)

    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "away into the deep dark forest tonight")
    docs = pd.DataFrame({
        "doc_id": np.arange(10, dtype=np.int64),
        "text": [base, base + " again", "", "", "one", "one", "two words",
                 "two words", base.upper(), "  "],
    })
    ds = rd.from_pandas(docs)
    cands = minhash_lsh_candidates(ds, k=64, bands=16, hasher="md5sql")
    mh = verify_jaccard_pairs(ds, cands, threshold=0.2, hasher="md5sql")
    sh = simhash_near_dup_pairs(ds, max_hamming=3, hasher="md5sql")
    got = pd.concat([
        pd.DataFrame({"method": "minhash_lsh", "a": mh["a"], "b": mh["b"],
                      "score": mh["jaccard"].round(4)}),
        pd.DataFrame({"method": "simhash", "a": sh["a"], "b": sh["b"],
                      "score": sh["hamming"].astype(float)}),
    ], ignore_index=True).sort_values(["method", "a", "b"]).reset_index(drop=True)

    con = duckdb.connect()
    con.register("documents", docs)
    want = (con.execute(sketch_neardup_sql(0.2, 3)).df()
            .sort_values(["method", "a", "b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.astype({"a": np.int64, "b": np.int64, "score": float}),
        want.astype({"a": np.int64, "b": np.int64, "score": float}))
    # the real-dup pair must still be found, so the test is not vacuous
    assert ((got["method"] == "minhash_lsh") & (got["a"] == 0)
            & (got["b"] == 1)).any()
    # <3-token docs never reach the minhash side (no 3-grams)...
    mh_rows = got[got["method"] == "minhash_lsh"]
    sub3 = {2, 3, 4, 5, 6, 7, 9}
    assert not mh_rows["a"].isin(sub3).any()
    assert not mh_rows["b"].isin(sub3).any()
    # ...token-less docs never reach the simhash side (no scode row),
    # but 1-2-token docs DO (they have tokens) — e.g. the "one"/"one" pair
    sh_rows = got[got["method"] == "simhash"]
    tokenless = {2, 3, 9}
    assert not sh_rows["a"].isin(tokenless).any()
    assert not sh_rows["b"].isin(tokenless).any()
    assert ((sh_rows["a"] == 4) & (sh_rows["b"] == 5)).any()


def test_simhash_near_dup_pairs(ray_session):
    import ray.data as rd

    docs = ["red green blue yellow purple orange " * 4,
            "red green blue yellow purple orange " * 4 + "extra",
            "totally unrelated text about other things entirely different"]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [0, 1, 2], "text": docs}))
    pairs = simhash_near_dup_pairs(ds, max_hamming=10)
    assert ((pairs["a"] == 0) & (pairs["b"] == 1)).any()
    assert not ((pairs["b"] == 2) | (pairs["a"] == 2)).any()


# ---------------------------------------------------------------- ann
@pytest.fixture(scope="module")
def emb_df():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(80, 16)).astype(np.float32)
    m[7] = m[3] + 0.01 * rng.normal(size=16).astype(np.float32)  # planted near-dup
    return pd.DataFrame({"vec_id": np.arange(80, dtype=np.int64),
                         "embedding": [v.tolist() for v in m]})


def brute_topk(df, qids, k=5):
    m = np.stack([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    rows = []
    for q in qids:
        sims = m[q] @ m.T
        order = np.lexsort((df["vec_id"].to_numpy(), -sims))[:k]
        for rank, idx in enumerate(order, 1):
            rows.append((q, int(df["vec_id"].iloc[idx]), rank))
    return pd.DataFrame(rows, columns=["q_id", "vec_id", "rank"])


def test_topk_cosine_matches_bruteforce(ray_session, emb_df):
    import ray.data as rd

    ds = rd.from_pandas(emb_df).repartition(4)
    qids = [0, 3]
    qm = np.stack([np.asarray(emb_df["embedding"].iloc[q], dtype=np.float64) for q in qids])
    got = ann.topk_cosine(ds, qm, np.array(qids), k=5)
    expect = brute_topk(emb_df, qids, k=5)
    pd.testing.assert_frame_equal(
        got.sort_values(["q_id", "rank"]).reset_index(drop=True),
        expect.sort_values(["q_id", "rank"]).reset_index(drop=True),
    )


def test_cosine_neardup_finds_planted(ray_session, emb_df):
    import ray.data as rd

    pairs = ann.cosine_neardup_pairs(rd.from_pandas(emb_df), threshold=0.95)
    assert ((pairs["a"] == 3) & (pairs["b"] == 7)).any()


def test_cosine_neardup_blocked_matches_driver_bruteforce(ray_session, emb_df):
    """The distributed block-pair self-join must equal the obvious driver
    brute force exactly, across block boundaries (block_rows=16 -> 5 blocks)
    and at a low threshold (many pairs)."""
    import ray.data as rd

    thr = 0.3
    m = np.stack([np.asarray(v, dtype=np.float64) for v in emb_df["embedding"]])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    ai, bi = np.nonzero(np.triu(sims >= thr, k=1))
    expect = sorted(zip(emb_df["vec_id"].to_numpy()[ai],
                        emb_df["vec_id"].to_numpy()[bi]))
    got = ann.cosine_neardup_pairs(rd.from_pandas(emb_df).repartition(3),
                                   threshold=thr, block_rows=16)
    assert list(zip(got["a"], got["b"])) == [(int(a), int(b)) for a, b in expect]
    assert len(expect) > 10  # the low threshold actually exercises volume


def test_cosine_neardup_exact_route_driver_holds_no_pairs(ray_session, emb_df):
    """Round-3 verdict #4: the exact route returns pairs as a Dataset built
    from the compare tasks' ObjectRefs — the telemetry hook must report the
    driver collected ZERO corpus-derived rows: its info record carries no
    candidate-id count."""
    import ray.data as rd

    pairs_ds, info = ann.cosine_neardup_pairs_ds(
        rd.from_pandas(emb_df), threshold=0.3, block_rows=16, route="exact")
    assert info == {"route": "exact", "n_blocks": 5}
    assert pairs_ds.count() > 10  # consuming the Dataset still works


def test_cosine_neardup_signcode_route_matches_exact(ray_session, monkeypatch):
    """The size-gated signcode route (banded-LSH candidates + exact cosine
    verify) must equal the exact route on planted high-cosine near-dups:
    at cosine ~0.999 a plane flips w.p. ~0.006, so a band of 8 matches
    w.p. ~0.95 and missing all 16 bands has prob ~1e-21 at this
    seed-pinned input. (The old pigeonhole Hamming route was structurally
    dead at scale — review finding — banding replaced it.)"""
    import ray.data as rd

    rng = np.random.default_rng(17)
    base = rng.normal(size=(60, 32))
    near = base[:12] + 0.02 * rng.normal(size=(12, 32))  # cosine ~0.999
    m = np.concatenate([base, near]).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(len(m), dtype=np.int64),
                       "embedding": [v.tolist() for v in m]})
    ds = rd.from_pandas(df).repartition(3)

    exact = ann.cosine_neardup_pairs(ds, threshold=0.95, route="exact")
    assert len(exact) >= 12
    got_ds, info = ann.cosine_neardup_pairs_ds(
        ds, threshold=0.95, route="signcode", band_bits=8)
    assert info["route"] == "signcode"
    assert info["dropped_buckets"] == 0
    assert 0.0 < info["est_recall_at_threshold"] <= 1.0
    # driver held only candidate ids, bounded by the candidate count
    assert 0 < info["n_candidate_ids"] <= len(df)
    got = (got_ds.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
           .astype({"a": np.int64, "b": np.int64}))
    pd.testing.assert_frame_equal(got, exact)

    # auto routing: small corpus -> exact; above the cap -> signcode, and
    # the auto band_bits keeps buckets selective enough to find the dups
    _, info_auto = ann.cosine_neardup_pairs_ds(ds, threshold=0.95)
    assert info_auto["route"] == "exact"
    monkeypatch.setattr(ann, "EXACT_MAX_ROWS", 10)
    big_ds, info_big = ann.cosine_neardup_pairs_ds(ds, threshold=0.95)
    assert info_big["route"] == "signcode"
    big = (big_ds.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
           .astype({"a": np.int64, "b": np.int64}))
    pd.testing.assert_frame_equal(big, exact)


def test_cosine_neardup_signcode_rejects_negative_ids(ray_session):
    """Negative ids collide with the marker channel; the banded generator
    must raise instead of silently filtering those pairs (review
    finding — the exact route accepts them, so the auto flip at
    EXACT_MAX_ROWS must not silently change results)."""
    import pytest
    import ray.data as rd

    rng = np.random.default_rng(3)
    m = rng.normal(size=(20, 32)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(len(m), dtype=np.int64) - 5,
                       "embedding": [v.tolist() for v in m]})
    with pytest.raises((ValueError, Exception)) as ei:
        ann.cosine_neardup_pairs(rd.from_pandas(df), threshold=0.95,
                                 route="signcode", band_bits=8)
    assert "non-negative" in str(ei.value)


def test_lsh_hot_bucket_capped(ray_session):
    """A degenerate bucket (300 identical docs) must not explode into
    ~45k pairs per band: with max_bucket=64 the bucket is dropped with a
    marker and the call stays fast."""
    import time

    import ray.data as rd

    from logcrawler_ray.stages.dedup_text import split_candidates

    docs = pd.DataFrame({
        "doc_id": np.arange(310, dtype=np.int64),
        "text": ["the same template page body over and over"] * 300
                + [f"unique text number {i} with words" for i in range(10)],
    })
    t0 = time.time()
    pairs = minhash_lsh_candidates(rd.from_pandas(docs), max_bucket=64).to_pandas()
    took = time.time() - t0
    real, dropped = split_candidates(pairs)
    # every band drops its own marker: identity preserved through the
    # pair-dedup (review finding: size-only markers collapsed across bands)
    assert len(dropped) >= 8 and dropped["size"].max() >= 300
    # no pair from the degenerate bucket slipped through the cap
    assert not ((real["a"] < 300) & (real["b"] < 300)).any() or len(real) < 1000
    assert took < 60


def test_verify_jaccard_cogroup_matches_broadcast(ray_session, monkeypatch):
    """The over-cap co-group verification path (shingles never on the
    driver) must produce exactly the broadcast path's result."""
    import ray.data as rd

    docs = pd.DataFrame({
        "doc_id": np.arange(12, dtype=np.int64),
        "text": ["alpha beta gamma delta epsilon"] * 3
                + ["alpha beta gamma delta zeta"] * 3
                + [f"totally different text body {i} here now" for i in range(6)],
    })
    ds = rd.from_pandas(docs)
    cands = minhash_lsh_candidates(ds)
    broadcast = verify_jaccard_pairs(ds, cands, threshold=0.2)
    cands2 = minhash_lsh_candidates(ds)
    monkeypatch.setattr(dedup_text, "VERIFY_MAX_BROADCAST_DOCS", 0)
    cogroup = verify_jaccard_pairs(ds, cands2, threshold=0.2)
    pd.testing.assert_frame_equal(
        broadcast.reset_index(drop=True), cogroup.reset_index(drop=True))
    assert len(broadcast) >= 3  # the planted dup families verify


def test_simhash_hot_bucket_capped(ray_session):
    import ray.data as rd

    docs = pd.DataFrame({
        "doc_id": np.arange(200, dtype=np.int64),
        "text": ["identical words here"] * 200,
    })
    pairs = simhash_near_dup_pairs(rd.from_pandas(docs), max_hamming=3,
                                   max_bucket=50)
    assert len(pairs) == 0
    assert pairs.attrs["dropped_buckets"] >= 1


def test_lsh_topk_high_recall(ray_session, emb_df):
    import ray.data as rd

    ds = rd.from_pandas(emb_df)
    qids = [0, 3]
    qm = np.stack([np.asarray(emb_df["embedding"].iloc[q], dtype=np.float64) for q in qids])
    approx = ann.lsh_topk_cosine(ds, qm, np.array(qids), k=5, n_planes=10, probe_hamming=4)
    exact = brute_topk(emb_df, qids, k=5)
    # recall@5 of the approximate result vs exact
    rec = len(set(map(tuple, approx[["q_id", "vec_id"]].values))
              & set(map(tuple, exact[["q_id", "vec_id"]].values))) / len(exact)
    assert rec >= 0.6
    # self must always be found (hamming 0 bucket)
    assert ((approx["q_id"] == 0) & (approx["vec_id"] == 0) & (approx["rank"] == 1)).any()


def test_ivf_topk_recall(ray_session, emb_df):
    import ray.data as rd

    ds = rd.from_pandas(emb_df)
    qids = [0, 3]
    qm = np.stack([np.asarray(emb_df["embedding"].iloc[q], dtype=np.float64) for q in qids])
    approx = ann.ivf_topk_cosine(ds, qm, np.array(qids), k=5, n_clusters=8, n_probe=4)
    exact = brute_topk(emb_df, qids, k=5)
    rec = len(set(map(tuple, approx[["q_id", "vec_id"]].values))
              & set(map(tuple, exact[["q_id", "vec_id"]].values))) / len(exact)
    assert rec >= 0.6
    assert ((approx["q_id"] == 0) & (approx["vec_id"] == 0) & (approx["rank"] == 1)).any()


def test_kmeans_deterministic():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(100, 8))
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    c1 = ann.kmeans_fit(m, 5, seed=3)
    c2 = ann.kmeans_fit(m, 5, seed=3)
    assert (c1 == c2).all()


def test_verify_jaccard_missing_doc_paths_agree(ray_session, monkeypatch):
    """Candidate pairs referencing ids ABSENT from the corpus: both paths
    must agree (both-missing -> jaccard 1.0 kept; one-missing -> 0.0
    dropped) — review finding: the co-group path silently dropped them."""
    import ray.data as rd

    docs = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                         "text": ["alpha beta gamma delta"] * 4})
    ds = rd.from_pandas(docs)
    stale = pd.DataFrame({"a": [100, 0], "b": [101, 102]})  # none/one present
    broadcast = verify_jaccard_pairs(ds, rd.from_pandas(stale), threshold=0.5)
    monkeypatch.setattr(dedup_text, "VERIFY_MAX_BROADCAST_DOCS", 0)
    cogroup = verify_jaccard_pairs(ds, rd.from_pandas(stale), threshold=0.5)
    pd.testing.assert_frame_equal(broadcast.reset_index(drop=True),
                                  cogroup.reset_index(drop=True))
    assert list(zip(broadcast["a"], broadcast["b"])) == [(100, 101)]


def test_ngram_jaccard_exact_matches_bruteforce(ray_session):
    """The sparse similarity join must equal the obvious all-pairs loop."""
    import itertools

    import ray.data as rd

    from logcrawler_ray.stages.dedup_text import ngram_jaccard_pairs

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(40)]
    docs = [" ".join(rng.choice(vocab, 30)) for _ in range(25)]
    docs.append(docs[3] + " tail words here")   # planted near-dup
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    got = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.15)

    expect = []
    sets = {i: set(T.shingle_hashes(t, 3).tolist()) for i, t in enumerate(docs)}
    for a, b in itertools.combinations(range(len(docs)), 2):
        inter = len(sets[a] & sets[b])
        union = len(sets[a] | sets[b])
        j = round(inter / union, 4) if union else 1.0
        if j >= 0.15:
            expect.append((a, b, j))
    assert [(int(r.a), int(r.b), r.jaccard) for r in got.itertuples()] == expect
    assert any(a == 3 for a, _, _ in expect)  # planted pair present
    assert got.attrs["dropped_shingles"] == 0


def test_ngram_jaccard_size_ratio_prefilter_is_exact(ray_session):
    """The size-ratio prefilter (min(sz) >= threshold*max(sz)) must change
    nothing: docs with wildly different lengths force it to fire, and a
    subset pair at EXACTLY the boundary (jaccard == threshold, sizes at
    the ratio limit) must survive."""
    import itertools

    import ray.data as rd

    from logcrawler_ray.stages.dedup_text import ngram_jaccard_pairs

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(30)]
    # lengths from 5 to 300 words -> shingle-set sizes spanning ~60x,
    # so most cross-length pairs are prefilter-dead
    docs = [" ".join(rng.choice(vocab, n))
            for n in (5, 8, 40, 60, 150, 300, 7, 90)]
    # boundary pair: A's 3 shingles are the first 3 of B's 12
    # (consecutive run of 14 DISTINCT words => every 3-gram distinct),
    # jaccard = 3/12 = 0.25 == threshold
    run = [f"u{i}" for i in range(14)]
    docs.append(" ".join(run[:5]))    # 3 shingles
    docs.append(" ".join(run))        # 12 shingles, superset
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    got = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.25)

    sets = {i: set(T.shingle_hashes(t, 3).tolist()) for i, t in enumerate(docs)}
    expect = []
    for a, b in itertools.combinations(range(len(docs)), 2):
        inter = len(sets[a] & sets[b])
        union = len(sets[a] | sets[b])
        j = round(inter / union, 4) if union else 1.0
        if j >= 0.25:
            expect.append((a, b, j))
    assert [(int(r.a), int(r.b), r.jaccard) for r in got.itertuples()] == expect
    assert (8, 9, 0.25) in expect   # the boundary pair survived


def test_ngram_jaccard_df_cap_raises_or_reports(ray_session):
    """A hot shingle over max_shingle_df must RAISE by default (exactness
    broken) and report the dropped count in drop mode — round-2 advice:
    never silently diverge from the no-cap oracle."""
    import pytest
    import ray.data as rd

    from logcrawler_ray.stages.dedup_text import (ShingleDfCapExceeded,
                                                  ngram_jaccard_pairs)

    # every doc shares one hot 3-gram; df = 10 > cap 4
    docs = [f"common hot gram unique{i} tail{i} word{i}" for i in range(10)]
    df = pd.DataFrame({"doc_id": np.arange(10, dtype=np.int64),
                       "text": docs})
    with pytest.raises(ShingleDfCapExceeded):
        ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.01,
                            max_shingle_df=4)
    got = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.01,
                              max_shingle_df=4, on_df_cap="drop")
    assert got.attrs["dropped_shingles"] >= 1
    # capped run undercounts: the hot shingle's pairs are absent
    full = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.01)
    assert len(got) < len(full)


def test_fused_sketch_neardup_matches_unfused(ray_session, monkeypatch):
    """The fused one-pass q21 path (round-5) must be bit-identical to the
    unfused minhash_lsh_candidates -> verify_jaccard_pairs and
    simhash_near_dup_pairs chains, in BOTH tiers (in-process pair plumbing
    and the distributed groupby path)."""
    import ray.data as rd

    from logcrawler_ray.stages.dedup_text import (fused_sketch_neardup,
                                                  minhash_lsh_candidates,
                                                  simhash_near_dup_pairs,
                                                  verify_jaccard_pairs)

    rng = np.random.default_rng(11)
    base = ["the quick brown fox jumps over the lazy dog again and again",
            "pack my box with five dozen liquor jugs said the jumpy wizard",
            "sphinx of black quartz judge my vow before the night falls"]
    docs = []
    for i in range(120):
        words_ = base[i % 3].split()
        if i % 4 == 0:  # planted near-dup: one word swapped
            words_ = list(words_)
            words_[int(rng.integers(0, len(words_)))] = f"tok{i}"
        docs.append({"doc_id": i, "text": " ".join(words_)})
    docs.append({"doc_id": 500, "text": ""})       # empty doc
    docs.append({"doc_id": 501, "text": "   "})    # token-less doc
    ds = rd.from_items(docs)

    cands = minhash_lsh_candidates(ds, k=64, bands=16)
    mh_ref = verify_jaccard_pairs(ds, cands, threshold=0.2)
    sh_ref = simhash_near_dup_pairs(ds, max_hamming=3)

    for local_max in (200_000, 0):  # in-process tier / distributed tier
        monkeypatch.setattr(dedup_text, "LOCAL_DOCS_MAX", local_max)
        mh, sh = fused_sketch_neardup(ds, k=64, bands=16,
                                      jaccard_threshold=0.2, max_hamming=3)
        pd.testing.assert_frame_equal(
            mh.reset_index(drop=True), mh_ref.reset_index(drop=True))
        pd.testing.assert_frame_equal(
            sh[["a", "b", "hamming"]].reset_index(drop=True),
            sh_ref[["a", "b", "hamming"]].reset_index(drop=True))


def test_hamming_pairs_local_matches_dataset_path(ray_session):
    """hamming_pairs_local (in-process tier) == hamming_near_dup_pairs
    (Dataset path): same pairs, same hamming, same dropped-bucket count —
    including an oversize bucket."""
    import ray.data as rd

    import pyarrow as pa

    from logcrawler_ray.stages.hamming import (hamming_near_dup_pairs,
                                               hamming_pairs_local)

    rng = np.random.default_rng(3)
    codes = rng.integers(0, 2**63, size=400, dtype=np.int64)
    codes[:37] = 0x1234                    # oversize bucket at cap 16
    codes[40:44] = codes[44:48] = 0x9876   # a clean pairing bucket
    ids = np.arange(400, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"code": codes, "doc_id": ids}))
    ref = hamming_near_dup_pairs(ds, code_col="code", id_col="doc_id",
                                 max_hamming=3, nbits=64, max_bucket=16)
    got, dropped = hamming_pairs_local(codes, ids, max_hamming=3, nbits=64,
                                       max_bucket=16)
    assert dropped == ref.attrs["dropped_buckets"]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        ref[["a", "b", "hamming"]].reset_index(drop=True))
