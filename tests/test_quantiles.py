"""Quantile operator tests: exact grouped percentiles vs brute force,
histogram-sketch error bound and determinism."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logcrawler_ray.stages.quantiles import (grouped_percentiles,
                                             quantile_sketch,
                                             sketch_quantiles)


def _side(df: pd.DataFrame, **kw):
    """``df`` as a ``(Dataset, schema)`` side, with the types pandas gives it."""
    import ray.data as rd

    return rd.from_pandas(df, **kw), pa.Schema.from_pandas(df, preserve_index=False)


def _disc(vals, q):
    """DuckDB itself is the oracle — the operator's contract is parity
    with quantile_disc, including float-boundary products like
    0.07*100 or 0.99*100 where a naive ceil lands one element high."""
    import duckdb

    v = np.asarray(vals, dtype=np.float64).tolist()
    return duckdb.execute(
        "select quantile_disc(x, ?) from (select unnest(?::DOUBLE[]) as x)",
        [q, v]).fetchone()[0]


@pytest.mark.parametrize("as_str", [False, True])
def test_grouped_percentiles_matches_bruteforce(ray_session, as_str):
    import ray.data as rd

    rng = np.random.default_rng(5)
    n = 4000
    keys = rng.integers(0, 37, n).astype(np.int64)
    vals = rng.normal(0, 100, n)
    df = pd.DataFrame({"g": keys, "v": vals})
    if as_str:
        df["g"] = df["g"].map("grp{:03d}".format)
    qs = {"p10": 0.10, "p50": 0.50, "p99": 0.99, "p07": 0.07}
    got = (grouped_percentiles((rd.from_pandas(df).repartition(9),
                                pa.Schema.from_pandas(df, preserve_index=False)),
                               "g", "v", qs)
           .to_pandas().sort_values("g").reset_index(drop=True))
    for _, row in got.iterrows():
        gv = df.loc[df["g"] == row["g"], "v"].to_numpy()
        for name, q in qs.items():
            assert row[name] == _disc(gv, q), (row["g"], name)
    assert len(got) == df["g"].nunique()


def test_grouped_percentiles_rejects_bad_q(ray_session):
    df = pd.DataFrame({"g": [1], "v": [1.0]})
    with pytest.raises(ValueError):
        grouped_percentiles(_side(df), "g", "v", {"bad": 0.0})


def test_quantile_sketch_error_bound_and_determinism(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.normal(50, 10, 20_000),
                           rng.exponential(200, 5_000)])
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    nbins = 2048
    sk1 = quantile_sketch(ds, "v", nbins=nbins)
    sk2 = quantile_sketch(ds, "v", nbins=nbins)
    assert (sk1["counts"] == sk2["counts"]).all()   # cross-run stable
    assert sk1["total"] == len(vals)
    width = (sk1["hi"] - sk1["lo"]) / nbins
    for q in (0.1, 0.5, 0.9, 0.99):
        est = sketch_quantiles(sk1, [q])[0]
        true = _disc(vals, q)
        # estimate is the upper edge of the rank's bin: within one width
        assert true <= est <= true + width + 1e-9, (q, true, est)


def test_quantile_sketch_constant_column(ray_session):
    import ray.data as rd

    ds = rd.from_pandas(pd.DataFrame({"v": np.full(100, 7.5)}))
    sk = quantile_sketch(ds, "v", nbins=64)
    assert sk["total"] == 100 and sk["counts"][0] == 100
    assert sketch_quantiles(sk, [0.01, 0.5, 1.0]) == [7.5, 7.5, 7.5]


def test_grouped_percentiles_ignores_null_values(ray_session):
    """quantile_disc ignores NULL/NaN values; null group keys form ONE
    output run, not per-row NaN runs (ADVICE r3)."""
    df = pd.DataFrame({
        "g": pd.array([1, 1, 1, None, None, 2], dtype="Int64"),
        "v": [5.0, np.nan, 1.0, 3.0, 7.0, None],
    })
    got = (grouped_percentiles(_side(df, override_num_blocks=3),
                               "g", "v", {"p50": 0.5}).to_pandas())
    by_key = {(None if pd.isna(r["g"]) else int(r["g"])): r["p50"]
              for _, r in got.iterrows()}
    # g=1: values {5,1} -> p50=1; null group: {3,7} -> 3; g=2: all values
    # null -> the group still appears, with a NULL percentile (DuckDB
    # quantile_disc emits the group; the old pre-shuffle drop made it
    # vanish — review finding)
    assert set(by_key) == {1, 2, None}
    assert by_key[1] == 1.0 and by_key[None] == 3.0
    assert pd.isna(by_key[2])


def test_grouped_percentiles_int_column_keeps_dtype(ray_session):
    """ADVICE r4: a bucket that received a null marker saw pandas upcast an
    int value column to float64 — percentile columns must come back as the
    ORIGINAL integer type in every bucket (mixed block schemas otherwise,
    and a dtype divergence from DuckDB quantile_disc's integer result)."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({
        "g": pa.array(list(range(16)) * 4, pa.int64()),
        "v": pa.array([None if i % 16 == 3 else i for i in range(64)],
                      pa.int64()),
    })
    ds = (rd.from_arrow(t), t.schema)
    out = grouped_percentiles(ds, "g", "v", {"p50": 0.5, "p90": 0.9})
    sch = dict(zip(out.schema().names, out.schema().types))
    assert sch["p50"] == pa.int64() and sch["p90"] == pa.int64()
    pdf = out.to_pandas().set_index("g")
    # group 3 is ALL-null -> NULL percentiles; every other group got the
    # exact sorted-element pick, still integers
    assert pd.isna(pdf.loc[3, "p50"]) and pd.isna(pdf.loc[3, "p90"])
    vals = sorted(i for i in range(64) if i % 16 == 5)
    assert pdf.loc[5, "p50"] == vals[max(0, -(-len(vals) * 1 // 2) - 1)]


def test_quantile_sketch_rejects_non_finite(ray_session):
    import ray.data as rd

    for bad in (np.nan, np.inf):
        ds = rd.from_pandas(pd.DataFrame({"v": [1.0, bad, 2.0]}))
        # inf trips the driver-side range check (ValueError); NaN can slip
        # past arrow min/max and trips the in-task guard (RayTaskError
        # wrapping the ValueError) — both must refuse loudly
        with pytest.raises(Exception, match="non-finite"):
            quantile_sketch(ds, "v", nbins=16)
