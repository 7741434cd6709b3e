"""Range join, top-k per group, stratified sampling, rolling window —
each checked against a naive brute-force oracle (the q58-q61 DuckDB SQL
oracles additionally gate them end-to-end via tools/check_oracle.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logcrawler_ray.stages.rangejoin import range_join, range_pairs_arrays
from logcrawler_ray.stages.topk import (HASH_MOD, HASH_MULT,
                                        stratified_sample_hash, topk_per_group)


def _side(df: pd.DataFrame, **kw):
    """``df`` as a ``(Dataset, schema)`` side, with the types pandas gives it."""
    import ray.data as rd

    return rd.from_pandas(df, **kw), pa.Schema.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------- range join

def brute_force_pairs(by_l, on_l, by_r, on_r, lower, upper):
    """Nested-loop oracle: set of (l_idx, r_idx) with key match and
    on_l + lower <= on_r < on_l + upper."""
    out = set()
    for i in range(len(on_l)):
        for j in range(len(on_r)):
            if by_l[i] == by_r[j] and on_l[i] + lower <= on_r[j] < on_l[i] + upper:
                out.add((i, j))
    return out


def _sorted_right(by_r, on_r):
    order = np.lexsort((on_r, by_r))
    return by_r[order], on_r[order], order


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lower,upper", [(-50, 0), (0, 30), (-20, 20), (5, 6)])
def test_range_pairs_random(seed, lower, upper):
    rng = np.random.default_rng(seed)
    n_l, n_r = 120, 150
    by_l = rng.integers(0, 8, n_l)
    by_r = rng.integers(0, 10, n_r)  # some right keys absent on the left
    on_l = rng.integers(0, 500, n_l)
    on_r = rng.integers(0, 500, n_r)
    # plant exact boundary hits: on_r == on_l + lower (in) and + upper (out)
    by_r[0], on_r[0] = by_l[0], on_l[0] + lower
    by_r[1], on_r[1] = by_l[1], on_l[1] + upper
    sby, son, order = _sorted_right(by_r, on_r)
    l_take, r_take = range_pairs_arrays(by_l, on_l, sby, son, lower, upper)
    got = set(zip(l_take.tolist(), order[r_take].tolist()))
    assert got == brute_force_pairs(by_l, on_l, by_r, on_r, lower, upper)


def test_range_pairs_empty_sides():
    e = np.empty(0, dtype=np.int64)
    for args in [(e, e, np.array([1]), np.array([5])),
                 (np.array([1]), np.array([5]), e, e)]:
        l_take, r_take = range_pairs_arrays(*args, -10, 10)
        assert len(l_take) == 0 and len(r_take) == 0


def test_range_pairs_blocked_fallback_matches():
    """Force the int64-overflow fallback (time span ~2^62) and check the
    blocked path against brute force on the same data."""
    rng = np.random.default_rng(7)
    n = 60
    by_l = rng.integers(0, 5, n)
    by_r = rng.integers(0, 5, n)
    base = int(np.int64(1) << np.int64(61))
    step = np.int64(base // 25)  # 50 * step stays inside int64
    on_l = rng.integers(0, 50, n) * step
    on_r = rng.integers(0, 50, n) * step
    lower, upper = -(base // 10), base // 10
    sby, son, order = _sorted_right(by_r, on_r)
    # sanity: this data must actually trigger the fallback
    span = int(son.max()) - int(son.min())
    assert (len(np.unique(sby)) - 1) * (span + 2) + span + 1 > (1 << 63) - 1
    l_take, r_take = range_pairs_arrays(by_l, on_l, sby, son, lower, upper)
    got = set(zip(l_take.tolist(), order[r_take].tolist()))
    assert got == brute_force_pairs(by_l, on_l, by_r, on_r, lower, upper)


def test_range_join_dataset(ray_session):
    rng = np.random.default_rng(11)
    n = 300
    left = pd.DataFrame({
        "user_id": rng.integers(0, 20, n),
        "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="us"),
        "event_id": np.arange(n, dtype=np.int64),
    })
    right = pd.DataFrame({
        "user_id": rng.integers(0, 25, n),
        "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="us"),
        "event_id": np.arange(1000, 1000 + n, dtype=np.int64),
    })
    lower, upper = -200_000_000, 0
    out = range_join(_side(left, override_num_blocks=4),
                     _side(right, override_num_blocks=3),
                     by="user_id", on="ts", lower=lower, upper=upper,
                     right_cols=["event_id"]).to_pandas()
    expect = brute_force_pairs(
        left["user_id"].to_numpy(),
        left["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
        right["user_id"].to_numpy(),
        right["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
        lower, upper)
    got = {(int(l), int(r) - 1000)
           for l, r in zip(out["event_id"], out["event_id_right"])}
    assert got == expect
    # left dtypes survive the union null-fill round trip
    assert out["event_id"].dtype == np.int64
    assert out["user_id"].dtype == np.int64
    assert str(out["ts"].dtype).startswith("datetime64")


def test_range_join_one_sided_groups(ray_session):
    left = pd.DataFrame({"k": [1, 2], "t": [10, 20],
                         "lid": np.array([0, 1], dtype=np.int64)})
    right = pd.DataFrame({"k": [2, 3], "t": [19, 5],
                          "rid": np.array([7, 8], dtype=np.int64)})
    out = range_join(_side(left), _side(right),
                     by="k", on="t", lower=-5, upper=0,
                     right_cols=["rid"]).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["lid"] == 1 and out.iloc[0]["rid"] == 7


# ------------------------------------------------------------ top-k per group

def brute_topk(df, group, order, k, descending, tiebreaks):
    asc = [True, not descending] + [True] * len(tiebreaks)
    s = df.sort_values([group, order, *tiebreaks], ascending=asc,
                       kind="mergesort")
    return s[s.groupby(group, sort=False).cumcount() < k]


@pytest.mark.parametrize("k", [1, 3, 100])
def test_topk_per_group_int_key(ray_session, k):
    rng = np.random.default_rng(5)
    n = 500
    df = pd.DataFrame({
        "g": rng.integers(0, 12, n),
        "v": rng.integers(0, 40, n).astype(np.float64),  # many exact ties
        "id": np.arange(n, dtype=np.int64),
    })
    out = topk_per_group(_side(df, override_num_blocks=5),
                         group_col="g", order_col="v", k=k,
                         descending=True, tiebreak_cols=("id",)).to_pandas()
    expect = brute_topk(df, "g", "v", k, True, ["id"])
    assert sorted(out["id"]) == sorted(expect["id"])


def test_topk_per_group_string_key(ray_session):
    df = pd.DataFrame({
        "lang": ["en", "de", "en", "fr", "en", "de"],
        "score": [5.0, 1.0, 3.0, 2.0, 4.0, 6.0],
        "id": np.arange(6, dtype=np.int64),
    })
    out = topk_per_group(_side(df, override_num_blocks=3),
                         group_col="lang", order_col="score", k=2,
                         descending=True, tiebreak_cols=("id",)).to_pandas()
    expect = brute_topk(df, "lang", "score", 2, True, ["id"])
    assert sorted(out["id"]) == sorted(expect["id"])


def test_stratified_sample_hash_deterministic(ray_session):
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "lang": rng.choice(["en", "de", "fr"], 200),
        "doc_id": np.arange(200, dtype=np.int64),
    })
    runs = []
    for blocks in (2, 7):  # the sample must not depend on the block layout
        out = stratified_sample_hash(
            _side(df, override_num_blocks=blocks),
            stratum_col="lang", id_col="doc_id", k=10).to_pandas()
        runs.append(sorted(out["doc_id"]))
    assert runs[0] == runs[1]
    assert list(out.columns) == ["lang", "doc_id"]
    # per-stratum size and hash-order selection against brute force
    h = (df["doc_id"].to_numpy() * HASH_MULT) % HASH_MOD
    expect = (df.assign(h=h).sort_values(["h", "doc_id"])
              .groupby("lang", sort=False).head(10))
    assert sorted(out["doc_id"]) == sorted(expect["doc_id"])
    assert out.groupby("lang").size().max() <= 10


def test_topk_per_group_null_key_kept(ray_session):
    """A NULL group key is a real partition under SQL ROW_NUMBER() — the
    prune must keep it (ADVICE r3: pandas groupby dropna default)."""
    df = pd.DataFrame({
        "g": pd.array([1, 1, None, None, None, 2], dtype="Int64"),
        "v": [5.0, 1.0, 9.0, 8.0, 7.0, 2.0],
        "id": np.arange(6, dtype=np.int64),
    })
    out = topk_per_group(_side(df, override_num_blocks=3),
                         group_col="g", order_col="v", k=2,
                         descending=True, tiebreak_cols=("id",)).to_pandas()
    # null group contributes its top-2 (v=9,8 -> ids 2,3)
    assert sorted(out["id"]) == [0, 1, 2, 3, 5]
