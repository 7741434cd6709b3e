"""As-of / closest-join tests with the reference's own brute-force oracle
(reference: 14_calculate_closest_frames.py:7-34 ``test_closest_other_frames``
— naive O(n^2) scan kept next to the fast implementation)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logcrawler_ray.stages.asof import asof_join, closest_join_arrays, closest_rows


def _side(df: pd.DataFrame, **kw):
    """``df`` as a ``(Dataset, schema)`` side, with the types pandas gives it."""
    import ray.data as rd

    return rd.from_pandas(df, **kw), pa.Schema.from_pandas(df, preserve_index=False)


def brute_force_closest(l_time, r_time, r_id):
    """Naive oracle: min |dt|, tie -> smaller id (14:7-34 + 70-72)."""
    out = []
    for t in l_time:
        best = None
        for rt, rid in zip(r_time, r_id):
            d = abs(t - rt)
            if best is None or d < best[0] or (d == best[0] and rid < best[1]):
                best = (d, rid)
        out.append(best[1] if best else -1)
    return np.array(out, dtype=np.int64)


def make_fixture(seed=0, n_l=200, n_r=150):
    rng = np.random.default_rng(seed)
    l_time = np.sort(rng.integers(0, 10_000, n_l))
    r_time = np.sort(rng.integers(0, 10_000, n_r))
    # plant exact ties: duplicate some right times, and copy some left times
    r_time[10] = r_time[11]
    l_time[5] = r_time[10]
    r_id = np.arange(1000, 1000 + n_r)
    l_id = np.arange(n_l)
    order = np.lexsort((r_id, r_time))
    return l_time, l_id, r_time[order], r_id[order]


def test_closest_join_matches_bruteforce():
    l_time, l_id, r_time, r_id = make_fixture()
    got = closest_join_arrays(l_time, l_id, r_time, r_id)
    expect = brute_force_closest(l_time, r_time, r_id)
    assert (got == expect).all()


def test_closest_join_boundaries():
    # left rows before/after the entire right range
    r_time = np.array([100, 200, 300])
    r_id = np.array([7, 8, 9])
    got = closest_join_arrays(np.array([0, 1000, 250]), np.array([0, 1, 2]), r_time, r_id)
    assert got.tolist() == [7, 9, 8]


def test_closest_join_tie_smaller_id():
    # two right rows at the same time -> smaller id wins
    r_time = np.array([100, 100])
    r_id = np.array([42, 41])
    order = np.lexsort((r_id, r_time))
    got = closest_join_arrays(np.array([100]), np.array([0]), r_time[order], r_id[order])
    assert got[0] == 41


def test_closest_join_empty_right():
    got = closest_join_arrays(np.array([1, 2]), np.array([0, 1]), np.array([]), np.array([]))
    assert got.tolist() == [-1, -1]


def test_closest_rows_dataset(ray_session):
    l_time, l_id, r_time, r_id = make_fixture(seed=3)
    left = pd.DataFrame({"log_id": 1, "frame_id": l_id, "frame_time": l_time})
    right = pd.DataFrame({"log_id": 1, "frame_id": r_id, "frame_time": r_time})
    # second log with different data — groups must not mix
    left2 = left.assign(log_id=2, frame_time=l_time + 5)
    right2 = right.assign(log_id=2, frame_id=r_id + 9000)
    out = closest_rows(
        _side(pd.concat([left, left2])),
        _side(pd.concat([right, right2])),
    ).to_pandas()
    g1 = out[out["log_id"] == 1].sort_values("frame_id")
    expect1 = brute_force_closest(l_time, r_time, r_id)
    assert (g1["closest_id"].to_numpy() == expect1).all()
    g2 = out[out["log_id"] == 2].sort_values("frame_id")
    expect2 = brute_force_closest(l_time + 5, r_time, r_id + 9000)
    assert (g2["closest_id"].to_numpy() == expect2).all()


def test_asof_join_backward(ray_session):
    left = pd.DataFrame({"user_id": [1, 1, 1, 2], "ts": [10, 20, 5, 7], "event_id": [0, 1, 2, 3]})
    right = pd.DataFrame({"user_id": [1, 1, 2], "ts": [8, 15, 99]})
    out = asof_join(_side(left), _side(right), on="ts", by="user_id").to_pandas()
    got = dict(zip(out["event_id"], out["ts_right"]))
    assert got[0] == 8  # ts=10 -> latest right <= 10 is 8
    assert got[1] == 15
    assert np.isnan(got[2])  # ts=5, nothing before
    assert np.isnan(got[3])  # user 2: right ts=99 > 7
    # round-1 red cell regression: union null-fill must NOT upcast the
    # left's int columns to float (driver hash is type-sensitive)
    assert out["event_id"].dtype == np.int64
    assert out["user_id"].dtype == np.int64


def test_asof_join_right_only_group(ray_session):
    """A by-group with only right-side rows must not crash (round-1 ADVICE:
    dropna(axis=1) on the empty left frame dropped every column and
    merge_asof raised KeyError). It contributes no output rows."""
    left = pd.DataFrame({"user_id": [1, 1], "ts": [10, 20], "event_id": [0, 1]})
    right = pd.DataFrame({"user_id": [1, 3, 3], "ts": [8, 5, 6]})
    out = asof_join(_side(left), _side(right), on="ts", by="user_id").to_pandas()
    assert sorted(out["event_id"]) == [0, 1]
    assert set(out["user_id"]) == {1}
    assert out["event_id"].dtype == np.int64


def test_asof_join_left_only_group_typed_nulls(ray_session):
    """Groups with no right rows keep typed left columns and NaN ts_right."""
    left = pd.DataFrame({"user_id": [5, 5], "ts": [1, 2], "event_id": [7, 8]})
    right = pd.DataFrame({"user_id": [9], "ts": [100]})
    out = asof_join(_side(left), _side(right), on="ts", by="user_id").to_pandas()
    g5 = out[out["user_id"] == 5]
    assert len(g5) == 2 and g5["ts_right"].isna().all()
    assert g5["event_id"].dtype == np.int64


def test_asof_join_string_right_col_one_sided_groups(ray_session):
    """Review repro: non-float right_cols + a group with no right rows (and
    a right-only group) must emit one unified Arrow schema, not crash."""
    left = pd.DataFrame({"user_id": [1, 1, 2], "ts": [10, 20, 5],
                         "event_id": [0, 1, 2]})
    right = pd.DataFrame({"user_id": [1, 3], "ts": [8, 9],
                          "tag": ["alpha", "zulu"]})
    out = asof_join(_side(left), _side(right), on="ts",
                    by="user_id", right_cols=["tag"]).to_pandas()
    got = dict(zip(out["event_id"], out["tag"]))
    assert got[0] == "alpha" and got[1] == "alpha"
    assert got[2] is None or (isinstance(got[2], float) and np.isnan(got[2]))
    assert len(out) == 3
