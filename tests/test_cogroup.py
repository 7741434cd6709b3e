"""The one co-group helper (functions/cogroup.py): Arrow-typed sides, typed
outputs without schema metadata, bucket-count independence of its callers,
and the source guard that keeps every keyed shuffle on it."""

import ast
import functools
import os
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa

from logcrawler_ray.functions.cogroup import _bucket_of, _runs, cogroup

PKG = pathlib.Path(__file__).resolve().parents[1] / "logcrawler_ray"


def _blocks(ds) -> list:
    import ray

    return ray.get(ds.to_arrow_refs())


def _typed(blocks: list) -> list:
    """Blocks that carry a schema. Ray's sort emits a column-less empty
    block for a shuffle partition that received no bucket at all; every
    bucket the helper sees comes back typed."""
    return [b for b in blocks if b.num_columns]


def test_all_unique_input_yields_typed_empty_result(ray_session):
    import ray.data as rd

    n = 500
    src = rd.from_arrow(pa.table({"k": pa.array(range(n), pa.int64()),
                                  "v": [f"s{i}" for i in range(n)]})).repartition(4)
    out = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def dups(t: pa.Table) -> pa.Table:
        order, starts, counts = _runs(t["k"].to_numpy())
        keep = counts > 1
        return pa.table({"k": t["k"].take(order[starts][keep]), "n": counts[keep]})

    ds = cogroup([(src, pa.schema([("k", pa.int64()), ("v", pa.string())]))],
                 "k", dups, schema=out)
    blocks = _blocks(ds)
    assert sum(b.num_rows for b in blocks) == 0
    assert _typed(blocks)
    for b in _typed(blocks):
        assert b.schema.equals(out) and b.schema.metadata is None
    assert ds.schema().base_schema.equals(out)


def test_one_sided_buckets_get_typed_zero_row_tables(ray_session):
    """Bucket 0 holds only left keys, bucket 1 only right keys, bucket 2
    both: the absent side arrives as a zero-row table with its declared
    types (int64 stays int64 — no null-fill upcast), never pandas."""
    import ray.data as rd

    nb = 4
    cand = pa.array(range(400), pa.int64())
    bkt = _bucket_of(cand, nb).to_numpy()
    ks = {b: cand.filter(pa.array(bkt == b)) for b in range(3)}
    left = pa.table({"k": pa.concat_arrays([ks[0], ks[2]])})
    left = left.append_column("v", pa.array(np.arange(left.num_rows), pa.int64()))
    right = pa.table({"k": pa.concat_arrays([ks[1], ks[2]])})
    right = right.append_column("w", pa.array([str(i) for i in range(right.num_rows)]))
    lsch = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    rsch = pa.schema([("k", pa.int64()), ("w", pa.string())])
    out = pa.schema([("n_l", pa.int64()), ("n_r", pa.int64()),
                     ("l_types", pa.string()), ("r_types", pa.string())])

    def seen(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert isinstance(lt, pa.Table) and isinstance(rt, pa.Table)
        return pa.table({"n_l": [lt.num_rows], "n_r": [rt.num_rows],
                         "l_types": [str(lt.schema)], "r_types": [str(rt.schema)]})

    got = pa.concat_tables(_typed(_blocks(cogroup(
        [(rd.from_arrow(left).repartition(3), lsch),
         (rd.from_arrow(right).repartition(2), rsch)],
        "k", seen, schema=out, n_buckets=nb))))
    rows = sorted(zip(got["n_l"].to_pylist(), got["n_r"].to_pylist()))
    assert rows == sorted([(len(ks[0]), 0), (0, len(ks[1])),
                           (len(ks[2]), len(ks[2]))])
    assert set(got["l_types"].to_pylist()) == {str(lsch)}
    assert set(got["r_types"].to_pylist()) == {str(rsch)}


def test_output_blocks_cast_to_schema_without_metadata(ray_session):
    """fn may return pandas-converted tables (pandas metadata, narrower
    ints): every block comes back as ``schema`` with no metadata — the
    schema hashes, so Ray's unify_schemas keeps its fast path — for empty
    and non-empty buckets alike."""
    import ray.data as rd

    src = rd.from_arrow(pa.table({"k": pa.array(range(200), pa.int64())})).repartition(4)
    out = pa.schema([("k", pa.int64()), ("half", pa.int64())])
    for keep in (True, False):
        def fn(t: pa.Table) -> pa.Table:
            k = t["k"].to_numpy()[:None if keep else 0]
            return pa.Table.from_pandas(pd.DataFrame({"k": k, "half": (k // 2).astype(np.int32)}))

        blocks = _typed(_blocks(cogroup([(src, pa.schema([("k", pa.int64())]))],
                                        "k", fn, schema=out, n_buckets=8)))
        assert blocks and {b.num_rows > 0 for b in blocks} == {keep}
        for b in blocks:
            assert b.schema.equals(out) and b.schema.metadata is None
            hash(b.schema)


def test_exact_losers_files_independent_of_bucket_count(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from logcrawler_ray.stages import dedup

    rng = np.random.default_rng(3)
    tab = pa.table({"phash": rng.integers(0, 150, 600).tolist(),
                    "image_id": [f"i-{i:04d}" for i in range(600)]})
    skinny = rd.from_arrow(tab).repartition(5)
    got = []
    for nb in (1, 64):
        out_dir = tmp_path / f"b{nb}"
        out_dir.mkdir()
        paths = dedup.exact_losers_files(skinny, "phash", "image_id",
                                         str(out_dir), num_buckets=nb)
        got.append({os.path.basename(p): pq.read_table(p)["image_id"].to_pylist()
                    for p in paths})
    want = dedup.exact_losers(skinny, "phash", "image_id")
    assert got[0] == got[1] and want
    assert sorted(x for v in got[0].values() for x in v) == sorted(want)


def test_asof_join_independent_of_bucket_count(ray_session, monkeypatch):
    import ray.data as rd

    from logcrawler_ray.stages import asof

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"user_id": rng.integers(0, 30, 400),
                         "ts": rng.integers(0, 10_000, 400),
                         "event_id": np.arange(400)})
    right = pd.DataFrame({"user_id": rng.integers(0, 40, 300),
                          "ts": rng.integers(0, 10_000, 300),
                          "amount": rng.integers(1, 99, 300)})
    got = []
    for nb in (1, 64):
        monkeypatch.setattr(asof, "cogroup", functools.partial(cogroup, n_buckets=nb))
        out = asof.asof_join(rd.from_pandas(left, override_num_blocks=3),
                             rd.from_pandas(right, override_num_blocks=2),
                             on="ts", by="user_id", right_cols=["amount"]).to_pandas()
        got.append(out.sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[0], got[1])
    assert got[0]["amount"].notna().any() and len(got[0]) == len(left)


def _ray_joins_and_groups(tree: ast.AST) -> list[int]:
    """Lines of ``map_groups`` calls and Ray ``Dataset.join`` calls. Ray's
    join takes ``on=``/``num_partitions``; a per-bucket pyarrow
    ``Table.join`` names its columns with ``keys=`` and stays allowed."""
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        kws = {k.arg for k in node.keywords}
        if node.func.attr == "map_groups":
            bad.append(node.lineno)
        elif (node.func.attr == "join" and "keys" not in kws
              and kws & {"join_type", "num_partitions", "on", "right_on"}):
            bad.append(node.lineno)
    return bad


def test_every_keyed_shuffle_goes_through_cogroup():
    """One mechanism: no ``map_groups`` or ``Dataset.join`` anywhere in the
    library outside functions/cogroup.py."""
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        if path == PKG / "functions" / "cogroup.py":
            continue
        src = path.read_text()
        rel = path.relative_to(PKG.parent)
        offenders += [f"{rel}:{n}" for n in _ray_joins_and_groups(ast.parse(src))]
        offenders += [f"{rel}: {w}" for w in ("map_groups(", "Dataset.join")
                      if w in src]
    assert not offenders, offenders


def test_guard_flags_ray_join_but_not_table_join():
    assert _ray_joins_and_groups(ast.parse(
        "a.join(b, join_type='inner', num_partitions=16, on=('k',))\n"
        "a.groupby('k').map_groups(f)\n")) == [1, 2]
    assert _ray_joins_and_groups(ast.parse(
        "a.join(b, keys=['k'], join_type='left outer')\n"
        "a.join(b, 'k', use_threads=False)\n'-'.join(xs)\n")) == []
