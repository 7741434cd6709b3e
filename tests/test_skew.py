"""Skew-handling operator tests: salted aggregate == plain groupby."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logcrawler_ray.stages.skew import repartition_by_key, salted_aggregate


@pytest.fixture()
def skewed_df():
    rng = np.random.default_rng(0)
    n = 5000
    # one hot key with ~60% of rows
    keys = np.where(rng.random(n) < 0.6, "hot",
                    rng.choice([f"k{i}" for i in range(20)], n))
    return pd.DataFrame({"host": keys, "v": rng.integers(0, 100, n)})


def test_salted_aggregate_matches_plain(ray_session, skewed_df):
    import ray.data as rd

    ds = (rd.from_pandas(skewed_df).repartition(8),
          pa.Schema.from_pandas(skewed_df, preserve_index=False))
    out = salted_aggregate(ds, "host", {"v": "sum"}).to_pandas()
    expect = skewed_df.groupby("host", as_index=False)["v"].sum()
    got = out.sort_values("host").reset_index(drop=True)
    expect = expect.sort_values("host").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["host", "v"]], expect)


def test_salted_aggregate_min_max_count(ray_session, skewed_df):
    import ray.data as rd

    df = skewed_df.rename(columns={"v": "x"})
    df["n"] = 1
    ds = (rd.from_pandas(df).repartition(4), pa.Schema.from_pandas(df, preserve_index=False))
    out = salted_aggregate(ds, "host", {"x": "min", "n": "count"}).to_pandas()
    expect_min = df.groupby("host")["x"].min()
    expect_n = df.groupby("host").size()
    for _, row in out.iterrows():
        assert row["x"] == expect_min[row["host"]]
        assert row["n"] == expect_n[row["host"]]


def test_repartition_by_key_colocates(ray_session):
    import ray.data as rd

    from logcrawler_ray.functions.hashing import to_int64
    from logcrawler_ray.functions.urlnorm import host_hash

    df = pd.DataFrame({
        "host": [f"h{i % 5}" for i in range(100)],
        "v": range(100),
    })
    df["host_hash"] = [to_int64(host_hash(h)) for h in df["host"]]
    side = (rd.from_pandas(df), pa.Schema.from_pandas(df, preserve_index=False))
    out = repartition_by_key(side, "host_hash", 4).to_pandas()
    assert len(out) == 100
    assert sorted(out["v"]) == list(range(100))


def test_salted_aggregate_keeps_null_key_group(ray_session):
    """SQL GROUP BY (and the replaced native aggregate) keep a NULL-key
    group; the pandas combiner must not silently drop those rows."""
    import pyarrow as pa
    import ray.data as rd

    tab = pa.table({"host": ["a", None, "a", None, None],
                    "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    out = salted_aggregate((rd.from_arrow(tab), tab.schema), "host", {"v": "sum"}).to_pandas()
    got = {(None if pd.isna(k) else k): int(v)
           for k, v in zip(out["host"], out["v"])}
    assert got == {"a": 4, None: 11}
