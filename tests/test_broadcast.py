"""Size-guarded broadcast helpers (stages/broadcast.py): vectorized probes
and the cap that keeps fact tables off the driver (round-1 What's-wrong #2)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray

from logcrawler_ray.stages.broadcast import (
    BroadcastTooLarge,
    anti_mask,
    broadcast_key_set,
    broadcast_map,
    broadcast_map_from_dict,
    probe_values,
    semi_mask,
)


def _side(df: pd.DataFrame):
    """``df`` as a ``(Dataset, schema)`` side, with the types pandas gives it."""
    import ray.data as rd

    return rd.from_pandas(df), pa.Schema.from_pandas(df, preserve_index=False)


def test_probe_values_and_masks(ray_session):
    keys = pa.array([10, 20, 30])
    vals = pa.array(["a", "b", "c"])
    col = pa.chunked_array([[20, 99, 10]])
    got = probe_values(col, keys, vals)
    assert got.to_pylist() == ["b", None, "a"]
    assert semi_mask(col, keys).to_pylist() == [True, False, True]
    assert anti_mask(col, keys).to_pylist() == [False, True, False]


def test_broadcast_key_set_guard(ray_session):
    ds = _side(pd.DataFrame({"k": list(range(100)) * 2}))
    ref = broadcast_key_set(ds, "k", max_rows=100)
    assert len(ray.get(ref)) == 100  # distinct before the cap check
    with pytest.raises(BroadcastTooLarge):
        broadcast_key_set(ds, "k", max_rows=99)


def test_broadcast_map_guard(ray_session):
    ds = _side(pd.DataFrame({"k": range(50), "v": range(50)}))
    keys, vals = ray.get(broadcast_map(ds, "k", "v", max_rows=50))
    assert probe_values(pa.array([7]), keys, vals).to_pylist() == [7]
    with pytest.raises(BroadcastTooLarge):
        broadcast_map(ds, "k", "v", max_rows=10)
    with pytest.raises(BroadcastTooLarge):
        broadcast_map_from_dict({i: i for i in range(11)}, max_rows=10)


def test_distinct_keys_ds_matches_pandas(ray_session):
    """distinct_keys_ds == pandas unique, for int and string key columns,
    with duplicates spread across blocks."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logcrawler_ray.stages.broadcast import distinct_keys_ds

    rng = np.random.default_rng(3)
    n = 3000
    ints = rng.integers(0, 200, n).astype(np.int64)
    strs = pd.Series(ints).map("host{:03d}".format)
    for col, vals in (("k", ints), ("k", strs)):
        df = pd.DataFrame({col: vals, "junk": np.arange(n)})
        side = (rd.from_pandas(df).repartition(8),
                pa.Schema.from_pandas(df, preserve_index=False))
        got = sorted(distinct_keys_ds(side, col)
                     .to_pandas()[col].tolist())
        assert got == sorted(pd.unique(df[col]).tolist())


def test_broadcast_key_set_keeps_int64(ray_session):
    """A nullable int64 key set stays int64: through pandas it became
    float64, 2**62 + 1 rounded to 2**62, and the probe found the wrong key."""
    import ray.data as rd

    big = 2**62 + 1
    sch = pa.schema([("k", pa.int64())])
    ds = rd.from_arrow(pa.table({"k": pa.array([big, None], pa.int64())}))
    keys = ray.get(broadcast_key_set((ds, sch), "k"))
    assert keys.type == pa.int64()
    probe = pa.array([big, 2**62], pa.int64())
    assert semi_mask(probe, keys).to_pylist() == [True, False]


def test_broadcast_map_keeps_nullable_int64_values(ray_session):
    import ray.data as rd

    big = 2**62 + 1
    sch = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    ds = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                 "v": pa.array([big, None], pa.int64())}))
    keys, vals = ray.get(broadcast_map((ds, sch), "k", "v"))
    assert (keys.type, vals.type) == (pa.int64(), pa.int64())
    assert probe_values(pa.array([1, 2, 3]), keys, vals).to_pylist() == [big, None, None]


def test_broadcast_sides_over_empty_typed_input(ray_session):
    """An empty side collects to typed empty arrays (its pandas collect
    had no columns to index)."""
    import ray.data as rd

    sch = pa.schema([("k", pa.int64()), ("v", pa.string())])
    ds = rd.from_arrow(sch.empty_table())
    keys = ray.get(broadcast_key_set((ds, sch), "k"))
    assert (keys.type, len(keys)) == (pa.int64(), 0)
    keys, vals = ray.get(broadcast_map((ds, sch), "k", "v"))
    assert (keys.type, vals.type, len(keys)) == (pa.int64(), pa.string(), 0)
