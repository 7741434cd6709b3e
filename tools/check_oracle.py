"""Local mirror of the driver's correctness gate.

Runs every ``queries()`` entry against its ``oracle_sql()`` DuckDB twin on
the same parquet tables and compares: row count, column-name set, and
order-insensitive values (rows sorted by all columns, columns sorted by
name). Usage:

    python tools/check_oracle.py [sf_dir] [query ...]

The last line counts two ``ray.data`` log records a run should not need:
plans Ray re-ran under ``limit(1)`` to learn a schema, and "RefBundle
with a different schema" warnings (an operator emitted a block whose
schema differs from its previous block's).
"""

from __future__ import annotations

import logging
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("Int64")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _kind(s: pd.Series) -> str:
    if pd.api.types.is_bool_dtype(s):
        return "bool"
    if pd.api.types.is_integer_dtype(s):
        return "int"
    if pd.api.types.is_float_dtype(s):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(s):
        return "ts"
    return "obj"


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if set(ray_df.columns) != set(sql_df.columns):
        problems.append(f"schema: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    # The driver's value hash is type-sensitive: an int column that drifts
    # to float on the Ray side hashes differently even when every value is
    # equal (the exact failure mode of round-1's q12 red cell). Flag it.
    for c in ray_df.columns:
        kr, ks = _kind(ray_df[c]), _kind(sql_df[c])
        if kr != ks and {kr, ks} <= {"int", "float"}:
            problems.append(
                f"col {c}: dtype drift ray={ray_df[c].dtype} vs sql={sql_df[c].dtype} "
                "(driver hash is type-sensitive)")
    a, b = normalize(ray_df), normalize(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            if pd.api.types.is_float_dtype(a[c]):
                av, bv = a[c].to_numpy(), b[c].to_numpy()
                ok = np.allclose(av, bv, rtol=0, atol=0, equal_nan=True)
            else:
                ok = a[c].fillna("\0NA").equals(b[c].fillna("\0NA")) \
                    if a[c].dtype == b[c].dtype else a[c].astype(str).equals(b[c].astype(str))
            if not ok:
                mism = (a[c].astype(str) != b[c].astype(str))
                idx = np.nonzero(mism.to_numpy())[0][:3]
                problems.append(
                    f"col {c}: {int(mism.sum())} mismatches, e.g. "
                    + "; ".join(f"[{i}] ray={a[c].iloc[i]!r} sql={b[c].iloc[i]!r}" for i in idx)
                )
    return problems


class RayDataLogCounter(logging.Handler):
    """Counts ``LimitOperator[limit=1]`` execution plans and
    "RefBundle with a different schema" warnings on the ``ray.data``
    logger (which every Ray Data module logs under)."""

    def __init__(self):
        super().__init__()
        self.limit_plans = 0
        self.schema_warnings = 0

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Execution plan of Dataset") \
                and "LimitOperator[limit=1]" in msg:
            self.limit_plans += 1
        elif "RefBundle with a different schema" in msg:
            self.schema_warnings += 1

    def summary(self) -> str:
        return (f"ray.data log: {self.limit_plans} LimitOperator[limit=1] plans, "
                f"{self.schema_warnings} 'RefBundle with a different schema' "
                "warnings")


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--determinism"]
    check_det = "--determinism" in sys.argv
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    counter = RayDataLogCounter()
    logging.getLogger("ray.data").addHandler(counter)

    sys.path.insert(0, ROOT)
    import __ray_entry__ as entrymod

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: ray side raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            if check_det:
                # rows-only entries have no SQL twin; the driver records
                # their value hash, so cross-RUN stability is the contract
                again = to_pandas(fn(sf_dir))
                a, b = normalize(ray_df), normalize(again)
                if not a.equals(b):
                    failures += 1
                    print(f"FAIL {name}: rows-only NOT deterministic across runs")
                    continue
            print(f"ok   {name}: rows-only, {len(ray_df)} rows ({dt:.1f}s)")
            continue
        try:
            sql_df = con.execute(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle SQL raised {e}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"FAIL {name} ({dt:.1f}s):")
            for p in problems:
                print(f"     {p}")
        else:
            print(f"PASS {name}: {len(ray_df)} rows ({dt:.1f}s)")
    ray.shutdown()
    print(counter.summary())
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
