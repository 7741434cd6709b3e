"""Driver-contract query registry: QUERIES (Ray Data) + ORACLE_SQL (DuckDB).

One entry per operator family from SURVEY.md §2, each implemented
Ray-Data-first (column-pruned reads, vectorized map_batches, broadcast
small-side joins, partial aggregation before shuffles) and — where ANSI-SQL
can express it — mirrored by a DuckDB oracle with IDENTICAL column names.
Float aggregates are rounded on both sides to dodge summation-order noise.

Ray is initialised by the driver; nothing here calls ray.init().
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .functions.cogroup import _runs, cogroup, per_key

QUERIES: dict = {}
ORACLE_SQL: dict = {}


def _q(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLE_SQL[name] = sql
        return fn

    return deco


def _side(sf_dir: str, table: str, columns: list[str] | None = None, **kw):
    """One test table as a ``(Dataset, schema)`` side: its column types
    come from the parquet footer, and its blocks carry no schema metadata.
    The tables were written by pandas, and a schema with metadata cannot
    be hashed: Ray logs "Failed to hash the schemas" wherever it unifies
    such blocks (a read task splitting its blocks, the reduce tasks of a
    sort or repartition). The read's metadata-free ``schema=`` drops it
    inside the read task."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    sch = pq.read_schema(path).remove_metadata()
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=sch, **kw), sch


def _events_of_type(sf_dir: str, event_type: str, columns: list[str]):
    """The ``columns`` of one ``event_type``'s events, as a side."""
    ds, sch = _side(sf_dir, "events", [*columns, "event_type"],
                    filter=(pc.field("event_type") == event_type))
    return ds.drop_columns(["event_type"]), sch.remove(len(columns))


# Staged-oracle pattern: for pipelines whose INPUT the driver's ten SQL views
# can't express (wire-format logs, synthetic corpora), the Ray query stages a
# deterministic intermediate as parquet under a FIXED path and the oracle SQL
# reads it back with read_parquet(...). The driver runs the Ray callable
# immediately before its oracle, so the staged file is always the one this
# run produced; writes are atomic (tmp + rename) so a crashed run never
# leaves a torn file for the next. The dir is per-user AND per-process
# (review r5): a fixed world-shared path lets two concurrent runs (e.g.
# sf0.01 and sf0.1 in CI) grade against each other's staged files, and a
# second user would hit PermissionError on the first user's 0755 dir.
# queries() and oracle_sql() MUST be evaluated in the same process: the SQL
# bakes this per-process path in at import time, so an oracle run from
# another process would read a path that does not exist. The dir is removed
# at interpreter exit, so repeated runs leave no stage dirs behind.
_STAGE_DIR = (f"{tempfile.gettempdir()}/lcray_oracle_stage"
              f"-{os.getuid()}-{os.getpid()}")
atexit.register(shutil.rmtree, _STAGE_DIR, ignore_errors=True)


def _stage(name: str, table: pa.Table) -> str:
    import os

    import pyarrow.parquet as pq

    os.makedirs(_STAGE_DIR, exist_ok=True)
    path = f"{_STAGE_DIR}/{name}.parquet"
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return path


def _round(df: pd.DataFrame, cols: dict[str, int]) -> pd.DataFrame:
    for c, nd in cols.items():
        df[c] = df[c].round(nd)
    return df


# =====================================================================
# Relational core (SURVEY.md §2.2 maps/filters, §2.5 aggregations)
# =====================================================================

@_q(
    "q01_pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
           SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) / 100.0          AS sum_qty,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0     AS sum_base_price,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
               * CAST(ROUND((1 - l_discount) * 100) AS BIGINT)) / 10000.0 AS sum_disc_price,
           ROUND(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) / 100.0 / COUNT(*), 4) AS avg_qty,
           ROUND(SUM(CAST(ROUND(l_discount * 100) AS BIGINT)) / 100.0 / COUNT(*), 4) AS avg_disc,
           COUNT(*) AS count_order
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '1998-09-02'
    GROUP BY l_returnflag, l_linestatus
    """,
)
def q01_pricing_summary(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate (§2.5 A2 partial+final pattern).

    Money columns are exact 2-decimal values stored as doubles, so both
    engines sum integer cents (e2) / ten-thousandths (e4) and divide by the
    same constants afterwards — bit-identical doubles, no summation-order
    noise in the value hash."""
    from ray.data.aggregate import Count, Sum

    ds = _side(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") <= pa.scalar(pd.Timestamp("1998-09-02"))),
    )[0]

    def to_cents(t: pa.Table) -> pa.Table:
        qty_e2 = np.round(t["l_quantity"].to_numpy() * 100).astype(np.int64)
        price_e2 = np.round(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_e2 = np.round(t["l_discount"].to_numpy() * 100).astype(np.int64)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty_e2": qty_e2,
            "price_e2": price_e2,
            "disc_e2": disc_e2,
            "disc_price_e4": price_e2 * (100 - disc_e2),
        })

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty_e2", alias_name="qty_e2"),
        Sum("price_e2", alias_name="price_e2"),
        Sum("disc_price_e4", alias_name="disc_price_e4"),
        Sum("disc_e2", alias_name="disc_e2"),
        Count(alias_name="count_order"),
    ).to_pandas()
    out["sum_qty"] = out.pop("qty_e2") / 100.0
    out["sum_base_price"] = out.pop("price_e2") / 100.0
    out["sum_disc_price"] = out.pop("disc_price_e4") / 10000.0
    out["avg_qty"] = (out["sum_qty"] / out["count_order"]).round(4)
    out["avg_disc"] = (out.pop("disc_e2") / 100.0 / out["count_order"]).round(4)
    return out


@_q(
    "q02_parts_filter",
    "SELECT p_partkey, p_name, p_size FROM part WHERE p_size >= 40",
)
def q02_parts_filter(sf_dir: str):
    """Column-pruned read + vectorized predicate (M4-style filter)."""
    return _side(sf_dir, "part", columns=["p_partkey", "p_name", "p_size"],
                 filter=(pc.field("p_size") >= 40))[0]


@_q(
    "q03_top_customers",
    """
    SELECT c_custkey, c_name, ROUND(c_acctbal, 2) AS acctbal
    FROM customer ORDER BY c_acctbal DESC, c_custkey LIMIT 10
    """,
)
def q03_top_customers(sf_dir: str):
    """Sort + limit (O1/O2 ordering). Deterministic tie-break on key."""
    ds = _side(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])[0]
    out = ds.sort(["c_acctbal", "c_custkey"], descending=[True, False]).limit(10).to_pandas()
    out["acctbal"] = out.pop("c_acctbal").round(2)
    return out


@_q(
    "q05_nation_region",
    """
    SELECT n_nationkey, n_name, r_name
    FROM nation JOIN region ON n_regionkey = r_regionkey
    """,
)
def q05_nation_region(sf_dir: str):
    """Broadcast hash join (J3 pattern): tiny side shipped once via ray.put,
    probed vectorized (pc.index_in + take via stages/broadcast.py)."""
    import ray

    from .stages.broadcast import broadcast_map, probe_values

    ref = broadcast_map(_side(sf_dir, "region"), "r_regionkey", "r_name")

    def attach(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        return pa.table({"n_nationkey": t["n_nationkey"], "n_name": t["n_name"],
                         "r_name": probe_values(t["n_regionkey"], keys, vals)})

    return _side(sf_dir, "nation")[0].map_batches(attach, batch_format="pyarrow")


@_q(
    "q06_revenue_by_nation",
    """
    SELECT n_name,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
               * CAST(ROUND((1 - l_discount) * 100) AS BIGINT)) / 10000.0 AS revenue
    FROM lineitem
    JOIN orders   ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation   ON c_nationkey = n_nationkey
    GROUP BY n_name
    """,
)
def q06_revenue_by_nation(sf_dir: str):
    """Star join, scale-correct shape: BOTH fact-sized joins run as
    co-group hash joins (functions/cogroup.py) — lineitem⋈orders with the
    custkey combine fused into each bucket (one row per distinct custkey
    per bucket), then ⋈customer distributed (round-3 What's-wrong #4:
    customer is fact-sized at TPC-H scale, it must never become a driver
    dict). The ONLY table that leaves the cluster is nation — 25 rows —
    shipped via ray.put and probed vectorized inside the second join."""
    import ray
    from ray.data.aggregate import Sum

    from .stages.broadcast import broadcast_map_from_dict, probe_values

    n = _side(sf_dir, "nation", columns=["n_nationkey", "n_name"])[0].to_pandas()
    ref = broadcast_map_from_dict(dict(zip(n["n_nationkey"], n["n_name"])))

    def cents(t: pa.Table) -> pa.Table:
        price_e2 = np.round(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_e2 = np.round(t["l_discount"].to_numpy() * 100).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev_e4": price_e2 * (100 - disc_e2)})

    def by_cust(li: pa.Table, orders: pa.Table) -> pa.Table:
        return (li.join(orders, "l_orderkey", use_threads=False)
                .group_by("o_custkey", use_threads=False)
                .aggregate([("rev_e4", "sum")])
                .rename_columns(["o_custkey", "rev_e4"]))

    def by_nation(rev: pa.Table, cust: pa.Table) -> pa.Table:
        t = rev.join(cust, "o_custkey", use_threads=False)
        keys, vals = ray.get(ref)
        return (pa.table({"n_name": probe_values(t["c_nationkey"], keys, vals),
                          "rev_e4": t["rev_e4"]})
                .group_by("n_name", use_threads=False)
                .aggregate([("rev_e4", "sum")])
                .rename_columns(["n_name", "rev_e4"]))

    i64 = pa.int64()
    li = _side(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"]
               )[0].map_batches(cents, batch_format="pyarrow")
    orders = _side(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]
                   )[0].rename_columns({"o_orderkey": "l_orderkey"})
    rev = pa.schema([("o_custkey", i64), ("rev_e4", i64)])
    cust_rev = cogroup(
        [(li, pa.schema([("l_orderkey", i64), ("rev_e4", i64)])),
         (orders, pa.schema([("l_orderkey", i64), ("o_custkey", i64)]))],
        "l_orderkey", by_cust, schema=rev)
    cust = _side(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
                 )[0].rename_columns({"c_custkey": "o_custkey"})
    out = (
        cogroup([(cust_rev, rev),
                 (cust, pa.schema([("o_custkey", i64),
                                   ("c_nationkey", pa.int32())]))],
                "o_custkey", by_nation,
                schema=pa.schema([("n_name", pa.string()), ("rev_e4", i64)]))
        .groupby("n_name")
        .aggregate(Sum("rev_e4", alias_name="rev_e4"))
        .to_pandas()
    )
    out["revenue"] = out.pop("rev_e4") / 10000.0
    return out


@_q(
    "q08_customers_no_orders",
    """
    SELECT c_custkey, c_name FROM customer
    WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
    """,
)
def q08_customers_no_orders(sf_dir: str):
    """Anti-join via size-guarded broadcast key set (J7's removal
    semantics, §2.4); membership test is vectorized pc.is_in."""
    import ray

    from .stages.broadcast import anti_mask, broadcast_key_set

    ref = broadcast_key_set(_side(sf_dir, "orders", columns=["o_custkey"]), "o_custkey")

    def anti(t: pa.Table) -> pa.Table:
        return t.filter(anti_mask(t["c_custkey"], ray.get(ref)))

    ds = _side(sf_dir, "customer", columns=["c_custkey", "c_name"])[0].map_batches(
        anti, batch_format="pyarrow")
    # possibly-empty result: pin the schema explicitly so an empty Dataset
    # still compares schema-equal to the oracle
    rows = ds.take_all()
    return pd.DataFrame(rows, columns=["c_custkey", "c_name"]).astype(
        {"c_custkey": np.int64, "c_name": str})


@_q(
    "q11_events_daily",
    """
    SELECT strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n
    FROM events GROUP BY 1
    """,
)
def q11_events_daily(sf_dir: str):
    """Tumbling daily window as a groupby on the truncated timestamp —
    string keys on both sides so the hash compare is type-stable."""
    from ray.data.aggregate import Count

    def add_day(t: pa.Table) -> pa.Table:
        days = pc.strftime(t["ts"], format="%Y-%m-%d")
        return pa.table({"day": days})

    return (
        _side(sf_dir, "events", columns=["ts"])[0]
        .map_batches(add_day, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Count(alias_name="n"))
    )


@_q(
    "q12_asof_click_purchase",
    """
    SELECT c.event_id, c.user_id, COALESCE(epoch_us(p.ts), -1) AS purchase_ts_us
    FROM (SELECT * FROM events WHERE event_type = 'click') c
    ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
      ON c.user_id = p.user_id AND c.ts >= p.ts
    """,
)
def q12_asof_click_purchase(sf_dir: str):
    """As-of join (J4): for each click, the latest purchase by the same user
    at or before it. Ray side: one co-group on user + a vectorized sorted
    sweep per bucket (stages/asof.py); oracle: DuckDB ASOF JOIN. Matched
    time is returned as epoch microseconds so NULLs and types hash identically."""
    from .stages.asof import asof_join

    clicks = _events_of_type(sf_dir, "click", ["event_id", "user_id", "ts"])
    purchases = _events_of_type(sf_dir, "purchase", ["user_id", "ts"])
    joined = asof_join(clicks, purchases, on="ts", by="user_id").to_pandas()
    out = joined[["event_id", "user_id"]].copy()  # the left side's declared int64
    ts_r = pd.to_datetime(joined["ts_right"])
    us = ts_r.to_numpy().astype("datetime64[us]").astype(np.int64)  # NaT -> int64 min
    out["purchase_ts_us"] = np.where(ts_r.isna(), np.int64(-1), us).astype(np.int64)
    return out.sort_values(["event_id"], kind="mergesort").reset_index(drop=True)


@_q(
    "q20_sessionize",
    """
    SELECT user_id, CAST(SUM(new_s) AS BIGINT) AS n_sessions FROM (
      SELECT user_id,
             CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                       > INTERVAL 30 MINUTE
                  OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                  THEN 1 ELSE 0 END AS new_s
      FROM events) GROUP BY user_id
    """,
)
def q20_sessionize(sf_dir: str):
    """Session windowing (30-min gap) — the §2.8 ordered-stream pattern.
    Coarse-bucket co-group on user (per-USER groups cost ~1-2 ms each)
    with the session starts computed vectorized inside; the oracle is a
    SQL window."""

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _user_sorted(t)
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        uid = t["user_id"].to_numpy()
        _, starts, _ = _runs(uid)  # already sorted: runs are users
        start = np.ones(len(uid), dtype=bool)
        start[1:] = (uid[1:] != uid[:-1]) | ((us[1:] - us[:-1]) > 30 * 60_000_000)
        return pa.table({"user_id": uid[starts],
                         "n_sessions": np.add.reduceat(start.astype(np.int64), starts)})

    return _by_user(sf_dir, ["user_id", "ts", "event_id"], per_bucket,
                    pa.schema([("user_id", pa.int64()), ("n_sessions", pa.int64())]))


def _user_sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                      ("event_id", "ascending")])


def _by_user(sf_dir: str, columns: list[str], fn, schema: pa.Schema):
    """The events columns co-grouped on user_id in coarse buckets (the
    per-user window queries: q20, q31, q61)."""
    return cogroup([_side(sf_dir, "events", columns)], "user_id", fn, schema=schema)


# =====================================================================
# Distinct / dedup (§2.6 O3-O7)
# =====================================================================

@_q(
    "q13_distinct_flags",
    "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem",
)
def q13_distinct_flags(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        _side(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])[0]
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Count(alias_name="__n"))
        .drop_columns(["__n"])
    )


@_q(
    "q14_doc_dedup_exact",
    """
    SELECT MIN(doc_id) AS keeper_id, COUNT(*) AS n_copies
    FROM documents GROUP BY text
    """,
)
def q14_doc_dedup_exact(sf_dir: str):
    """Exact text dedup: first-wins per content group (O3/O5 semantics)."""
    from ray.data.aggregate import Count, Min

    return (
        _side(sf_dir, "documents", columns=["doc_id", "text"])[0]
        .groupby("text")
        .aggregate(Min("doc_id", alias_name="keeper_id"), Count(alias_name="n_copies"))
        .drop_columns(["text"])
    )


# =====================================================================
# Documents: text analytics
# =====================================================================

@_q(
    "q16_token_counts",
    "SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents",
)
def q16_token_counts(sf_dir: str):
    """Token counting — single-space split, bit-compatible with DuckDB's
    string_split(text, ' ')."""

    def count_tokens(t: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(t["text"], " "), 1)
        return pa.table({"doc_id": t["doc_id"], "n_tokens": pc.cast(n, pa.int64())})

    return _side(sf_dir, "documents", columns=["doc_id", "text"])[0].map_batches(
        count_tokens, batch_format="pyarrow")


@_q(
    "q17_top_tokens",
    """
    SELECT word, COUNT(*) AS n FROM
      (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
    GROUP BY word ORDER BY n DESC, word LIMIT 20
    """,
)
def q17_top_tokens(sf_dir: str):
    """Explode + global count + top-k: per-batch partial counts (combiner)
    before the groupby so the shuffle carries (word, partial_n) only."""
    from ray.data.aggregate import Sum

    def partial_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks)
        vc = flat.value_counts()
        return pa.table({"word": vc.field("values"), "n": vc.field("counts")})

    out = (
        _side(sf_dir, "documents", columns=["text"])[0]
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out = out.sort_values(["n", "word"], ascending=[False, True]).head(20)
    return out.reset_index(drop=True)


# =====================================================================
# Embeddings: similarity search
# =====================================================================

_ANN_QUERY_IDS = [0, 1, 2]


@_q(
    "q18_ann_topk",
    f"""
    SELECT q_id, vec_id, rank FROM (
      SELECT q.vec_id AS q_id, b.vec_id AS vec_id,
             ROW_NUMBER() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(q.embedding::DOUBLE[],
                                               b.embedding::DOUBLE[]) DESC,
                        b.vec_id) AS rank
      FROM (SELECT * FROM embeddings WHERE vec_id IN ({",".join(map(str, _ANN_QUERY_IDS))})) q
      CROSS JOIN embeddings b)
    WHERE rank <= 10
    """,
)
def q18_ann_topk(sf_dir: str):
    """Brute-force cosine top-k (stages/ann.py): broadcast query matrix,
    per-batch float64 matmul, local-topk -> global merge."""
    from .stages.ann import topk_cosine

    ds = _side(sf_dir, "embeddings", columns=["vec_id", "embedding"])[0]
    qrows = _side(
        sf_dir, "embeddings",
        filter=pc.field("vec_id").isin(_ANN_QUERY_IDS),
    )[0].take_all()
    qrows.sort(key=lambda r: r["vec_id"])
    qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    return topk_cosine(ds, qm, qids, k=10)


@_q(
    "q19_embedding_neardup",
    """
    SELECT a.vec_id AS a, b.vec_id AS b
    FROM embeddings a, embeddings b
    WHERE a.vec_id < b.vec_id
      AND list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
    """,
)
def q19_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs at threshold 0.4 (stages/ann.py)."""
    from .stages.ann import cosine_neardup_pairs

    ds = _side(sf_dir, "embeddings", columns=["vec_id", "embedding"])[0]
    return cosine_neardup_pairs(ds, threshold=0.4)


# 16-bit embedding sign code, identically defined on both sides: bit i set
# iff component i+1 (SQL lists are 1-based) is > 0, weight 2^i.
_SIGNCODE_SQL = " + ".join(
    f"(CASE WHEN embedding[{i + 1}] > 0 THEN {1 << i} ELSE 0 END)"
    for i in range(16))


@_q(
    "q55_signcode_neardup",
    f"""
    WITH codes AS (
      SELECT vec_id, CAST({_SIGNCODE_SQL} AS BIGINT) AS code FROM embeddings
    )
    SELECT x.vec_id AS a, y.vec_id AS b,
           CAST(bit_count(xor(x.code, y.code)) AS BIGINT) AS hamming
    FROM codes x, codes y
    WHERE x.vec_id < y.vec_id AND bit_count(xor(x.code, y.code)) <= 2
    """,
)
def q55_signcode_neardup(sf_dir: str):
    """Generic Hamming near-dup (stages/hamming.py multi-index hashing)
    over the SQL-expressible sign-code LSH family: one hyperplane per
    axis, pairs within Hamming 2 of the 16-bit code. The oracle replays
    the exact code and distance, so this gates the pigeonhole bucketing
    + vectorized XOR-popcount verification end to end."""
    from .stages.hamming import embedding_sign_code_fn, hamming_near_dup_pairs

    ds = _side(sf_dir, "embeddings", columns=["vec_id", "embedding"])[0]
    return hamming_near_dup_pairs(
        ds, id_col="vec_id", max_hamming=2, nbits=16,
        code_fn=embedding_sign_code_fn(nbits=16), max_bucket=4096)


@_q(
    "q56_neardup_components",
    f"""
    WITH RECURSIVE codes AS (
      SELECT vec_id, CAST({_SIGNCODE_SQL} AS BIGINT) AS code FROM embeddings
    ),
    pairs AS (
      SELECT x.vec_id AS a, y.vec_id AS b
      FROM codes x, codes y
      WHERE x.vec_id < y.vec_id AND bit_count(xor(x.code, y.code)) <= 2
    ),
    sym(u, v) AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
    reach(node, r) AS (
      SELECT u, u FROM sym
      UNION
      SELECT s.u, reach.r FROM sym s JOIN reach ON s.v = reach.node
    )
    SELECT node, MIN(r) AS component FROM reach GROUP BY node
    """,
)
def q56_neardup_components(sf_dir: str):
    """Distributed connected components (stages/cc.py large-star/small-star
    contraction) over the q55 near-dup pair graph: (node, component) with
    component = min node id — the transitive-closure step that turns pair
    detectors into cluster dedup. Oracle: recursive-CTE reachability."""
    import ray.data as rd

    from .stages.cc import cc_labels_dataset
    from .stages.hamming import embedding_sign_code_fn, hamming_near_dup_pairs

    ds = _side(sf_dir, "embeddings", columns=["vec_id", "embedding"])[0]
    pairs = hamming_near_dup_pairs(
        ds, id_col="vec_id", max_hamming=2, nbits=16,
        code_fn=embedding_sign_code_fn(nbits=16), max_bucket=4096)
    eds = rd.from_arrow(pa.Table.from_pandas(
        pairs[["a", "b"]], preserve_index=False)).repartition(4)
    return cc_labels_dataset(eds)


@_q(
    "q57_cluster_dedup_firstwins",
    f"""
    WITH RECURSIVE codes AS (
      SELECT 'v' || lpad(CAST(vec_id AS VARCHAR), 8, '0') AS sid,
             CAST({_SIGNCODE_SQL} AS BIGINT) AS code FROM embeddings
    ),
    pairs AS (SELECT x.sid AS a, y.sid AS b FROM codes x, codes y
              WHERE x.sid < y.sid AND bit_count(xor(x.code, y.code)) <= 2),
    sym(u, v) AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
    reach(node, r) AS (
      SELECT u, u FROM sym
      UNION
      SELECT s.u, reach.r FROM sym s JOIN reach ON s.v = reach.node
    ),
    comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node)
    SELECT sid FROM codes
    WHERE sid NOT IN (SELECT node FROM comp WHERE node <> component)
    """,
)
def q57_cluster_dedup_firstwins(sf_dir: str):
    """First-wins CLUSTER dedup with STRING ids, fully distributed and
    SQL-oracled (round-3 verdict #1; the former rows-only corpus-phash
    variant is pytest-gated via tests/test_cc_hamming.py set-equality):
    near-dup pairs from the pigeonhole Hamming operator over 16-bit sign
    codes (stages/hamming.py), transitive closure + per-component
    lexicographic-min winner via the distributed cluster_losers_ds tier
    (stages/cc.py — the exact path ingest's neardup_pass uses for image
    ids); survivors = corpus minus losers. The oracle replays the codes,
    the pair predicate (bit_count(xor) <= 2), a recursive-CTE closure and
    the VARCHAR-min winner rule."""
    import ray

    from .stages.cc import cluster_losers_ds
    from .stages.hamming import hamming_pairs_ds, sign_codes, str_id64

    def add_cols(batch: pa.Table) -> pa.Table:
        sids = ["v%08d" % i for i in batch["vec_id"].to_pylist()]
        if batch.num_rows == 0:
            codes = np.empty(0, dtype=np.int64)
        else:
            mat = np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
            codes = sign_codes(mat, nbits=16).view(np.int64)
        return pa.table({"sid": pa.array(sids, pa.string()),
                         "code": pa.array(codes, pa.int64()),
                         "__id64": pa.array(str_id64(sids), pa.int64())})

    skinny = (_side(sf_dir, "embeddings", columns=["vec_id", "embedding"])[0]
              .map_batches(add_cols, batch_format="pyarrow").materialize())
    pairs_ds, n_dropped = hamming_pairs_ds(
        skinny, code_col="code", id_col="__id64", max_hamming=2, nbits=16,
        max_bucket=4096)  # 16-bit codes -> 5-bit chunks: the default 512
    # cap trips near ~8k rows (q55 on the same shape already passes 4096)
    if n_dropped:
        raise RuntimeError(f"q57: {n_dropped} oversize buckets dropped — "
                           "result would lose recall vs the oracle")
    losers_ds = cluster_losers_ds(
        pairs_ds, skinny.select_columns(["__id64", "sid"]),
        id64_col="__id64", id_col="sid")
    # losers are bounded by the paired-node count; broadcast the set and
    # anti-filter the corpus distributed
    loser_arr = pa.array([r["sid"] for r in losers_ds.take_all()],
                         pa.string())
    ref = ray.put(loser_arr)

    def survivors(t: pa.Table) -> pa.Table:
        keep = pc.invert(pc.fill_null(
            pc.is_in(t["sid"], value_set=ray.get(ref)), False))
        return t.filter(keep)

    out = (skinny.select_columns(["sid"])
           .map_batches(survivors, batch_format="pyarrow").to_pandas())
    return out.sort_values("sid").reset_index(drop=True)


# =====================================================================
# Non-SQL-expressible operators (rows-only driver check)
# =====================================================================

def _q21_sql() -> str:
    from .functions.sqloracle import sketch_neardup_sql

    return sketch_neardup_sql(jaccard_threshold=0.2, max_hamming=3)


@_q("q21_minhash_simhash_dups", _q21_sql())
def q21_minhash_simhash_dups(sf_dir: str):
    """BOTH sketch-based near-dup paths in one gate (merged former q22 so
    each stays inside the driver's 50-entry grading window): MinHash+LSH
    candidates verified by exact shingle Jaccard >= 0.2, and SimHash pairs
    at Hamming <= 3 — the published 64-bit simhash near-dup threshold
    (Manku, Jain & Das Sarma, WWW'07), which also keeps the pigeonhole
    blocks 16 bits wide so recall is exact with no hot-bucket drops —
    distinguished by ``method`` (score = jaccard or hamming).

    FULL SQL oracle (round-3 verdict #1): shingle/token hashes use the
    DuckDB-replayable md5 hash (hasher='md5sql'), and the oracle replays
    the exact minhash signatures, splitmix64 band buckets, candidate set,
    Jaccard verification and simhash codes in SQL
    (functions/sqloracle.py) — the sketches themselves are hash-gated,
    not just the pair counts."""
    from .stages.dedup_text import fused_sketch_neardup

    # repartition: the documents table is ONE parquet file -> one read
    # block -> a serial sketch pass; 32 blocks parallelize the explode
    # (the text payload is tiny, the shuffle is noise)
    ds = _side(sf_dir, "documents", columns=["doc_id", "text"])[0].repartition(32)
    # ONE corpus pass feeds both sketch paths AND the Jaccard verify
    # (round-4 verdict #8 fusion — was ~6 executions re-reading the corpus)
    mh, sh = fused_sketch_neardup(ds, k=64, bands=16, jaccard_threshold=0.2,
                                  max_hamming=3, hasher="md5sql")
    mh = pd.DataFrame({"method": "minhash_lsh", "a": mh["a"], "b": mh["b"],
                       "score": mh["jaccard"].round(4)})
    sh = pd.DataFrame({"method": "simhash", "a": sh["a"], "b": sh["b"],
                       "score": sh["hamming"].astype(float)})
    out = pd.concat([mh, sh], ignore_index=True)
    return out.sort_values(["method", "a", "b"]).reset_index(drop=True)


@_q(
    "q53_ngram_jaccard",
    """
    WITH w AS (SELECT doc_id,
                      regexp_extract_all(lower(text), '[a-z0-9_'']+') AS toks
               FROM documents),
         t AS (SELECT doc_id, unnest(toks) AS tok,
                      generate_subscripts(toks, 1) AS i FROM w),
         gd AS (SELECT DISTINCT x.doc_id,
                       x.tok || ' ' || y.tok || ' ' || z.tok AS gram
                FROM t x JOIN t y ON x.doc_id = y.doc_id AND y.i = x.i + 1
                         JOIN t z ON x.doc_id = z.doc_id AND z.i = x.i + 2),
         sizes AS (SELECT doc_id, COUNT(*) AS n FROM gd GROUP BY doc_id),
         common AS (SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS c
                    FROM gd x JOIN gd y
                      ON x.gram = y.gram AND x.doc_id < y.doc_id
                    GROUP BY 1, 2)
    SELECT a, b, ROUND(CAST(c AS DOUBLE) / (sa.n + sb.n - c), 4) AS jaccard
    FROM common
    JOIN sizes sa ON sa.doc_id = a
    JOIN sizes sb ON sb.doc_id = b
    WHERE CAST(c AS DOUBLE) / (sa.n + sb.n - c) >= 0.2
    """,
)
def q53_ngram_jaccard(sf_dir: str):
    """EXACT word-3-gram Jaccard near-dup pairs (>= 0.2) via the sparse
    similarity join (stages/dedup_text.py::ngram_jaccard_pairs): shingle
    co-occurrence counts = intersection sizes, one skinny shuffle. Oracle:
    the same definition in pure SQL (token/gram parity with functions/
    text.words verified on the testdata — all-ASCII, no short docs)."""
    from .stages.dedup_text import ngram_jaccard_pairs

    ds = _side(sf_dir, "documents", columns=["doc_id", "text"])[0]
    return ngram_jaccard_pairs(ds, threshold=0.2, ngram=3)


def _q23_sql() -> str:
    from .functions.sqloracle import doc_quality_sql

    return doc_quality_sql()


@_q("q23_doc_quality", _q23_sql())
def q23_doc_quality(sf_dir: str):
    """Language-ID heuristic + quality scoring + rolling-hash fingerprint
    per document, ONE pass (merged former q24 so every text-analysis
    function is inside the driver's 50-entry grading window).

    FULL SQL oracle (round-4): functions/sqloracle.py::doc_quality_sql
    replays the tokenizer, stopword/lang scores, the quality expression
    tree, and the Karp-Rabin+splitmix64 fingerprint (HUGEINT mod-2^64
    arithmetic) in DuckDB. ``stop_ratio`` ships unrounded — the raw
    int/int division is bit-identical on both sides, whereas rounding it
    hit Python-banker's vs DuckDB-half-away ties (1/32)."""
    from .functions.hashing import to_int64
    from .functions.text import fingerprint, lang_id, quality_score

    def score(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        qs = [quality_score(x) for x in texts]
        return pa.table({
            "doc_id": t["doc_id"],
            "lang_pred": pa.array([lang_id(x) for x in texts], pa.string()),
            "n_words": pa.array([q["n_words"] for q in qs], pa.int64()),
            "stop_ratio": pa.array([q["stop_ratio"] for q in qs]),
            "quality": pa.array([q["quality"] for q in qs]),
            "fingerprint": pa.array(
                [to_int64(fingerprint(x)) for x in texts], pa.int64()),
        })

    return _side(sf_dir, "documents", columns=["doc_id", "text"])[0].map_batches(
        score, batch_format="pyarrow")


def decoded_corpus(sf_dir: str):
    """The seed-42 image corpus sized from ``sf_dir``'s documents, decoded,
    filtered and bucketed (bytes dropped), as a materialized side whose
    types are :class:`DecodeStats` over the corpus schema's empty table."""
    import pyarrow.parquet as pq

    from .pipelines.ingest import add_bucket, decode_pipeline
    from .sources.corpus import SCHEMA, corpus_dataset
    from .stages.decode import DecodeStats

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    n = max(64, min(n_docs, 256))
    ds = add_bucket(decode_pipeline(
        corpus_dataset(n, seed=42, batch_size=64), concurrency=2,
        batch_size=64, keep_bytes=False)).materialize()
    sch = DecodeStats(keep_bytes=False)(SCHEMA.empty_table()).schema
    return ds, sch.append(pa.field("bucket", pa.int32()))


@_q(
    "q25_corpus_ingest",
    f"""
    WITH pre AS (SELECT * FROM read_parquet('{_STAGE_DIR}/q25_predup.parquet'))
    SELECT image_id, host, fmt, w, h, phash, resolution,
           CAST(host_hash & 63 AS INT) AS bucket
    FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY phash
                                       ORDER BY image_id) AS rn
          FROM pre)
    WHERE rn = 1
    ORDER BY image_id
    """,
)
def q25_corpus_ingest(sf_dir: str):
    """Flagship image pipeline at query scale: deterministic corpus sized
    from the documents table -> decode+stats+phash -> exact phash dedup.

    Partially oracled (round-4 verdict #5): the decoded PRE-DEDUP rows are
    staged and DuckDB replays first-wins winner selection (min image_id per
    phash) AND the host-hash bucket assignment (host_hash & 63 — the
    unsigned mod-64 rule over the two's-complement low bits). Decode stats
    themselves stay pinned by the cv2-kernel-equivalence pytests."""
    from .stages.dedup import dedup_exact

    pre, sch = decoded_corpus(sf_dir)
    _stage("q25_predup", pa.concat_tables(
        b.select(["image_id", "host", "host_hash", "fmt", "w", "h", "phash",
                  "resolution"])
        for b in pre.iter_batches(batch_format="pyarrow")))
    ds = dedup_exact((pre, sch), key="phash", order_col="image_id")
    out = ds.to_pandas()
    out = out[["image_id", "host", "fmt", "w", "h", "phash", "resolution", "bucket"]]
    return out.sort_values("image_id").reset_index(drop=True)


@_q(
    "q27_closest_event",
    """
    SELECT c.event_id, c.user_id,
           COALESCE((SELECT p.event_id FROM events p
                     WHERE p.event_type = 'purchase' AND p.user_id = c.user_id
                     ORDER BY abs(epoch_us(c.ts) - epoch_us(p.ts)), p.event_id
                     LIMIT 1), -1) AS closest_purchase_id
    FROM events c WHERE c.event_type = 'click'
    """,
)
def q27_closest_event(sf_dir: str):
    """The reference's bidirectional closest-frame rule (J4,
    14_calculate_closest_frames.py:38-83): nearest |dt|, tie -> smaller id.
    Oracle: correlated DuckDB subquery with the same ORDER BY."""
    from .stages.asof import closest_rows

    sch = pa.schema([("log_id", pa.int64()), ("frame_id", pa.int64()),
                     ("frame_time", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table([t["user_id"], t["event_id"], pc.cast(t["ts"], pa.int64())],
                        schema=sch)

    clicks, purchases = (
        (_events_of_type(sf_dir, kind, ["event_id", "user_id", "ts"])[0]
         .map_batches(prep, batch_format="pyarrow"), sch)
        for kind in ("click", "purchase"))
    out = closest_rows(clicks, purchases, by="log_id", time_col="frame_time",
                       id_col="frame_id", out_col="closest_purchase_id").to_pandas()
    out = out.rename(columns={"log_id": "user_id", "frame_id": "event_id"})
    return out[["event_id", "user_id", "closest_purchase_id"]].astype(np.int64)


def _f5_proto_fixture_bytes(log_no: int) -> bytes:
    """F5 fixture whose payloads are REAL protobuf wire bytes (FrameInfo /
    Image / BallCandidates per codecs/protowire.py schemas), incl. an
    ImageTop alias payload and one corrupt payload that must be skipped."""
    from .codecs import protowire as pw
    from .sources.naoth import write_records

    frames = []
    for fn in range(1, 16):
        fields = [("FrameInfo",
                   pw.encode_message({"frame_number": fn, "frame_time": 1000 + 33 * fn
                                      + 7 * log_no}, pw.FRAMEINFO))]
        if fn % 2 == 0:
            fields.append(("Image", pw.encode_message(
                {"width": 8, "height": 6, "format": 1,
                 "data": bytes([(fn * 13 + i) % 256 for i in range(96)])}, pw.IMAGE)))
        if fn % 4 == 0:
            fields.append(("ImageTop", pw.encode_message(
                {"width": 4, "height": 3, "format": 1,
                 "data": bytes(24)}, pw.IMAGE)))
        if fn % 3 == 0:
            fields.append(("BallCandidates", pw.encode_message(
                {"patches": [{"min_x": fn, "min_y": 0, "max_x": fn + 12,
                              "max_y": 12, "data": b"\xff" * 16},
                             {"min_x": 2 * fn, "min_y": 4, "max_x": 2 * fn + 8,
                              "max_y": 12, "data": b"\x00" * 8}]},
                pw.BALLCANDIDATES)))
        if fn == 9:
            fields.append(("FrameInfo", b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
        frames.append((fn, fields))
    return write_records(frames)


@_q(
    "q43_naoth_proto",
    """
    WITH base AS (
      SELECT l.log_no, f.fn
      FROM (SELECT unnest(range(3)) AS log_no) l,
           (SELECT unnest(range(1, 16)) AS fn) f)
    SELECT log_no, fn AS frame_number, 'FrameInfo' AS name,
           1000 + 33 * fn + 7 * log_no AS frame_time,
           CAST(NULL AS BIGINT) AS width, CAST(NULL AS BIGINT) AS height,
           CAST(NULL AS BIGINT) AS data_len, CAST(NULL AS BIGINT) AS n_patches
    FROM base
    UNION ALL
    SELECT log_no, fn, 'Image', NULL, 8, 6, 96, NULL FROM base WHERE fn % 2 = 0
    UNION ALL
    SELECT log_no, fn, 'ImageTop', NULL, 4, 3, 24, NULL FROM base WHERE fn % 4 = 0
    UNION ALL
    SELECT log_no, fn, 'BallCandidates', NULL, NULL, NULL, NULL, 2
    FROM base WHERE fn % 3 = 0
    """,
)
def q43_naoth_proto(sf_dir: str):
    """Protobuf-wire representation parsing (S3/M9): F5 fixture logs whose
    payloads are real wire bytes are scanned + parsed distributed
    (stages/protoparse.py); BallCandidates patches arrive blob-stripped
    (07_input_cognition_data_rust.py:138-141), corrupt payloads skipped.

    Oracled differentially: the fixture's fields are pure formulas of
    (log_no, fn), so the SQL derives the expected long-form rows from the
    generative rule alone — the Ray side must reproduce them through the
    full encode -> write_records -> scan -> truncate-guard -> wire-parse
    chain (the corrupt fn=9 payload must vanish, the ImageTop alias must
    resolve, blob fields must arrive as lengths)."""
    import ray.data as rd

    from .stages.protoparse import parse_logs_dataset

    logs = rd.from_items([
        {"log_no": i, "bytes": _f5_proto_fixture_bytes(i)} for i in range(3)
    ])
    out = parse_logs_dataset(logs).to_pandas()
    return (out.sort_values(["log_no", "frame_number", "name"], kind="mergesort")
            .reset_index(drop=True))


@_q(
    "q46_behavior_tree",
    f"""
    WITH RECURSIVE walk AS (
        SELECT log_id, frame_number, json(tree) AS node, '' AS path, 0 AS depth
        FROM read_parquet('{_STAGE_DIR}/q46_trees.parquet')
      UNION ALL
        SELECT w.log_id, w.frame_number,
               json_extract(w.node, '$.active_sub_actions[' || i || '].option')
                 AS node,
               w.path || format('{{:05d}}', i) AS path, w.depth + 1 AS depth
        FROM walk w, LATERAL (
            SELECT unnest(range(CAST(coalesce(
                json_array_length(w.node, '$.active_sub_actions'), 0)
                AS BIGINT))) AS i) t
        WHERE TRY_CAST(json_extract_string(
                w.node, '$.active_sub_actions[' || i || '].type') AS BIGINT) = 0
          AND json_extract(w.node, '$.active_sub_actions[' || i || '].option')
              IS NOT NULL
    ),
    omap AS (SELECT * FROM read_parquet('{_STAGE_DIR}/q46_omap.parquet')),
    opts AS (SELECT DISTINCT option_internal, option_global FROM omap)
    SELECT w.log_id, w.frame_number,
           ROW_NUMBER() OVER (PARTITION BY w.log_id, w.frame_number
                              ORDER BY w.path) - 1 AS "order",
           w.depth,
           COALESCE(o.option_global, -1) AS options_id,
           CASE WHEN o.option_global IS NULL THEN -1
                ELSE COALESCE(s.state_global, -1) END AS active_state
    FROM walk w
    LEFT JOIN opts o
      ON o.option_internal = TRY_CAST(json_extract_string(w.node, '$.id') AS BIGINT)
    LEFT JOIN omap s
      ON s.option_internal = TRY_CAST(json_extract_string(w.node, '$.id') AS BIGINT)
     AND s.state_internal = TRY_CAST(json_extract_string(w.node, '$.active_state')
                                     AS BIGINT)
    """,
)
def q46_behavior_tree(sf_dir: str):
    """Recursive option-tree walk (10_input_behavior_frames.py:64-94):
    wire-encoded XABSL trees decoded + DFS-walked distributed, internal ids
    mapped through the broadcast option map.

    Oracled (round-4 verdict #2): the PRE-ENCODE trees are staged as JSON
    and DuckDB replays the whole wire round-trip + DFS via a recursive CTE
    (pre-order = lexicographic zero-padded sibling paths), joining the
    staged option map for the internal->global id rule."""
    import json

    import ray.data as rd

    from .codecs import protowire as pw
    from .stages.behavior import (XABSL_TREE, build_option_map,
                                  explode_option_trees)

    option_map = build_option_map([
        {"option_internal": i, "option_global": 100 + i,
         "state_internal": s, "state_global": 1000 + 10 * i + s}
        for i in range(6) for s in range(3)
    ])

    def tree(option_id: int, state: int, subs: list) -> dict:
        return {"id": option_id, "active_state": state,
                "active_sub_actions": [
                    {"type": t, "option": sub} if sub is not None else {"type": t}
                    for t, sub in subs]}

    rows = []
    staged = []
    for log in range(2):
        for fn in range(1, 11):
            root = tree(0, fn % 3, [
                (0, tree(1 + fn % 2, (fn + 1) % 3, [
                    (0, tree(3, fn % 3, [])),
                    (2, None),                      # SymbolAssignment: skipped
                ])),
                (0, tree(4 + log, (fn + 2) % 3, [])),
                (7, None),                          # unknown type: ignored
            ])
            rows.append({"log_id": log, "payload": pw.encode_message(
                {"root": root, "frame_number": fn}, XABSL_TREE)})
            staged.append({"log_id": log, "frame_number": fn,
                           "tree": json.dumps(root)})
    _stage("q46_trees", pa.Table.from_pylist(staged))
    _stage("q46_omap", pa.Table.from_pylist([
        {"option_internal": i, "option_global": 100 + i,
         "state_internal": s, "state_global": 1000 + 10 * i + s}
        for i in range(6) for s in range(3)]))
    out = explode_option_trees(rd.from_items(rows), option_map).to_pandas()
    return (out.sort_values(["log_id", "frame_number", "order"], kind="mergesort")
            .reset_index(drop=True))


@_q(
    "q52_image_pipeline",
    f"""
    WITH f AS (SELECT * FROM read_parquet('{_STAGE_DIR}/q52_feats.parquet')),
    q AS (SELECT * FROM f ORDER BY vec_id LIMIT 3)
    SELECT q_id, vec_id, rank, score FROM (
      SELECT q.vec_id AS q_id, b.vec_id AS vec_id,
             ROW_NUMBER() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(q.embedding, b.embedding) DESC,
                        b.vec_id) AS rank,
             b.score AS score
      FROM q CROSS JOIN f b)
    WHERE rank <= 3
    """,
)
def q52_image_pipeline(sf_dir: str):
    """The image-axis flagship as a gate: deterministic corpus -> actor-pool
    ResizeStage (real decode -> area resize -> PNG re-encode) -> actor-pool
    ImageFeatures (mean RGB + 4x4 luma grid) -> actor-pool MLPScorer (the
    ST2 stateful-model pattern with a real multi-MB weight blob loaded once
    per actor, stages/model.py — round-3 What's-missing #2) -> brute-force
    cosine top-3 over the extracted features (stages/ann.py), each hit
    carrying its model score.

    Oracled via staged features: the extracted (vec_id, embedding, score)
    rows are staged and DuckDB replays the cosine top-3 + score join with
    the q18-proven tie-break — the ANN/join half is hash-gated; the decode/
    resize/feature/model stages stay pinned by their pytest oracles."""
    import ray.data as rd

    from .sources.corpus import corpus_table
    from .stages.ann import topk_cosine
    from .stages.model import MLPScorer
    from .stages.multimodal import ImageFeatures, ResizeStage

    tab = corpus_table(96, seed=13).select(["image_id", "bytes", "w", "h", "fmt"])
    chunks = [tab.slice(i * 16, 16) for i in range(6)]
    ds = (rd.from_arrow(chunks)
          .map_batches(ResizeStage, fn_constructor_kwargs={"out_w": 16, "out_h": 12},
                       batch_format="pyarrow", batch_size=32, concurrency=2)
          .map_batches(ImageFeatures, fn_constructor_kwargs={},
                       batch_format="pyarrow", batch_size=32, concurrency=2)
          .map_batches(MLPScorer,
                       fn_constructor_kwargs={"d_in": 19,
                                              "vec_col": "features"},
                       batch_format="pyarrow", batch_size=32, concurrency=2))

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        keep = _pc.and_(t["resize_ok"], pc.is_valid(t["features"]))
        t = t.filter(keep)
        vec_id = pc.cast(pc.binary_length(t["resized"]), pa.int64())
        # vec_id must be unique: use a dense row id from the image_id hash
        from .functions.hashing import hash64_str_array, to_int64

        ids = to_int64(hash64_str_array(t["image_id"].to_pylist()))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": t["features"],
                         "score": t["score"],
                         "n_resized_bytes": vec_id})

    feats = ds.map_batches(project, batch_format="pyarrow").materialize()
    rows = feats.take_all()
    rows.sort(key=lambda r: r["vec_id"])
    _stage("q52_feats", pa.table({
        "vec_id": pa.array([r["vec_id"] for r in rows], pa.int64()),
        "embedding": pa.array(
            [np.asarray(r["embedding"], dtype=np.float64).tolist()
             for r in rows], pa.list_(pa.float64())),
        "score": pa.array([float(r["score"]) for r in rows], pa.float64()),
    }))
    qm = np.stack([np.asarray(rows[i]["embedding"], dtype=np.float64)
                   for i in range(3)])
    qids = np.array([rows[i]["vec_id"] for i in range(3)], dtype=np.int64)
    out = topk_cosine(feats, qm, qids, k=3)
    smap = {r["vec_id"]: r["score"] for r in rows}
    out["score"] = out["vec_id"].map(smap)
    return out.sort_values(["q_id", "rank"]).reset_index(drop=True)


@_q(
    "q51_repr_export",
    """
    WITH spec(folder, file, names) AS (VALUES
      ('log_a', 'combined.log', ['FrameInfo', 'Image', 'BallCandidates']),
      ('log_a', 'sensor.log',   ['IMUData', 'MotorJointData']),
      ('log_b', 'game.log',     ['FrameInfo', 'BehaviorStateSparse']))
    SELECT folder,
           CASE WHEN file = 'sensor.log' THEN 'motion'
                ELSE 'cognition' END AS kind,
           unnest(names) AS name
    FROM spec
    """,
)
def q51_repr_export(sf_dir: str):
    """Per-log representation.json export artifact (03_representation_
    exporter.py:58-115 analog, pipelines/repr_export.py): deterministic
    fixture logs -> distributed scan -> JSON artifacts + manifest meta;
    returns the flattened (folder, kind, name) rows.

    Oracled differentially: the SQL derives the expected rows from the
    fixture spec + the classification rule (sensor.log -> motion, the
    cognition log otherwise); the Ray side must reproduce them through
    write_records -> distributed scan -> distinct-set export."""
    import shutil
    import tempfile

    from .pipelines.repr_export import export_representation_sets
    from .sources.naoth import write_records

    root = tempfile.mkdtemp(prefix="q51_repr_")
    try:
        import os

        specs = {
            "log_a": {"combined.log": ["FrameInfo", "Image", "BallCandidates"],
                      "sensor.log": ["IMUData", "MotorJointData"]},
            "log_b": {"game.log": ["FrameInfo", "BehaviorStateSparse"]},
        }
        for folder, files in specs.items():
            os.makedirs(os.path.join(root, folder))
            for fname, names in files.items():
                with open(os.path.join(root, folder, fname), "wb") as f:
                    f.write(write_records(
                        [(1, [(n, b"x" * 8) for n in names]),
                         (2, [(n, b"y" * 2) for n in names])]))
        got = export_representation_sets(
            [os.path.join(root, d) for d in sorted(specs)])
        rows = []
        for folder in sorted(got):
            d = got[folder]
            base = os.path.basename(folder)
            for kind_key, kind in (("cognition_representations", "cognition"),
                                   ("motion_representations", "motion")):
                for name in d.get(kind_key, []):
                    rows.append((base, kind, name))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return pd.DataFrame(rows, columns=["folder", "kind", "name"])


@_q(
    "q29_behavior_stream",
    f"""
    WITH inp AS (SELECT * FROM read_parquet('{_STAGE_DIR}/q29_input.parquet')),
    marked AS (
      SELECT log_id, seq, kind, ids, names, "values",
             MAX(CASE WHEN kind = 'complete' THEN seq END)
               OVER (PARTITION BY log_id ORDER BY seq) AS kf
      FROM inp),
    kfmap AS (
      SELECT log_id, seq AS kf, unnest(ids) AS id, unnest(names) AS symbol
      FROM inp WHERE kind = 'complete'),
    upd AS (
      SELECT m.log_id, m.seq, m.kf,
             unnest(m.ids) AS id, unnest(m."values") AS value
      FROM marked m WHERE m.kf IS NOT NULL),
    valid AS (
      SELECT u.* FROM upd u
      JOIN kfmap k ON k.log_id = u.log_id AND k.kf = u.kf AND k.id = u.id)
    SELECT e.log_id, e.seq, k.symbol,
           (SELECT v.value FROM valid v
            WHERE v.log_id = e.log_id AND v.kf = e.kf AND v.id = k.id
              AND v.seq <= e.seq
            ORDER BY v.seq DESC LIMIT 1) AS value
    FROM (SELECT log_id, seq, kf FROM marked WHERE kf IS NOT NULL) e
    JOIN kfmap k ON k.log_id = e.log_id AND k.kf = e.kf
    """,
)
def q29_behavior_stream(sf_dir: str):
    """Keyframe+delta ordered-state decoding (§2.8 / F7).

    Oracled via staged input: DuckDB replays the running-state semantics
    as windows — kf = latest keyframe seq, the symbol table is the
    keyframe's (id, name) explode, and each emitted value is the latest
    in-segment update at or before the row (correlated ORDER BY seq DESC).
    Orphan sparse rows (kf IS NULL) emit nothing on both sides."""
    import ray.data as rd

    from .stages.behavior import decode_behavior

    rng = np.random.default_rng(7)
    rows = []
    for log in range(4):
        for seq in range(25):
            if seq % 8 == 0:
                rows.append({"log_id": log, "seq": seq, "kind": "complete",
                             "ids": [1, 2, 3], "names": ["x", "y", "z"],
                             "values": [float(seq), 0.0, -1.0]})
            else:
                ids = rng.choice([1, 2, 3], size=int(rng.integers(1, 3)),
                                 replace=False)
                rows.append({"log_id": log, "seq": seq, "kind": "sparse",
                             "ids": [int(i) for i in ids], "names": [],
                             "values": [round(float(v), 3) for v in
                                        rng.normal(size=len(ids))]})
    tab = pa.Table.from_pylist(rows, schema=pa.schema([
        ("log_id", pa.int64()), ("seq", pa.int64()), ("kind", pa.string()),
        ("ids", pa.list_(pa.int64())), ("names", pa.list_(pa.string())),
        ("values", pa.list_(pa.float64()))]))
    _stage("q29_input", tab)
    out = decode_behavior(rd.from_arrow(tab)).to_pandas()
    return out.sort_values(["log_id", "seq", "symbol"]).reset_index(drop=True)


@_q(
    "q31_interarrival",
    """
    SELECT delta_min, COUNT(*) AS n FROM (
      SELECT CAST(FLOOR((epoch_us(ts) - LAG(epoch_us(ts)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id)) / 60000000.0)
                  AS BIGINT) AS delta_min
      FROM events)
    WHERE delta_min IS NOT NULL GROUP BY delta_min
    """,
)
def q31_interarrival(sf_dir: str):
    """Inter-arrival histogram — the reference's frame-time-delta Counter
    per log (A6, tests/frame_time_diffrences.py:8-24): per-user sorted lag
    diffs, bucketed to minutes, counted globally. Per-user diffs inside
    each co-group bucket; the partial counts (one row per distinct minute
    delta per bucket) merge on the driver."""

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _user_sorted(t)
        us = pc.cast(t["ts"], pa.int64()).to_numpy()
        uid = t["user_id"].to_numpy()
        same = uid[1:] == uid[:-1]
        mins = np.floor(np.diff(us)[same] / 60_000_000.0).astype(np.int64)
        uniq, counts = np.unique(mins, return_counts=True)
        return pa.table({"delta_min": uniq, "n": counts.astype(np.int64)})

    parts = _by_user(sf_dir, ["user_id", "ts", "event_id"], per_bucket,
                     pa.schema([("delta_min", pa.int64()), ("n", pa.int64())]))
    return parts.to_pandas().groupby("delta_min", as_index=False)["n"].sum()


@_q(
    "q33_dim_profiles",
    """
    SELECT 'acctbal' AS kind,
           CASE WHEN c_acctbal < 0 THEN 'negative'
                WHEN c_acctbal < 5000 THEN 'low'
                WHEN c_acctbal < 8000 THEN 'mid'
                ELSE 'high' END AS key,
           COUNT(*) AS n
    FROM customer GROUP BY 2
    UNION ALL
    SELECT 'prefix' AS kind, upper(substr(p_name, 1, 6)) AS key,
           COUNT(*) AS n
    FROM part GROUP BY 2
    """,
)
def q33_dim_profiles(sf_dir: str):
    """CASE/WHEN threshold bucketing (the M14 classify-by-threshold shape)
    + string scalar kernels (§2.7 substring/upper via pyarrow.compute),
    merged into ONE gate (former q33 + q37) so both families stay inside
    the driver's 50-entry grading window."""
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        v = t["c_acctbal"].to_numpy()
        labels = np.select(
            [v < 0, v < 5000, v < 8000], ["negative", "low", "mid"], default="high")
        return pa.table({"key": pa.array(labels.tolist(), pa.string())})

    def prefix(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": pc.utf8_upper(pc.utf8_slice_codeunits(t["p_name"], 0, 6))})

    acct = (_side(sf_dir, "customer", columns=["c_acctbal"])[0]
            .map_batches(bucketize, batch_format="pyarrow")
            .groupby("key").aggregate(Count(alias_name="n")).to_pandas())
    pref = (_side(sf_dir, "part", columns=["p_name"])[0]
            .map_batches(prefix, batch_format="pyarrow")
            .groupby("key").aggregate(Count(alias_name="n")).to_pandas())
    acct.insert(0, "kind", "acctbal")
    pref.insert(0, "kind", "prefix")
    return pd.concat([acct, pref], ignore_index=True)


@_q(
    "q35_segment_revenue",
    """
    SELECT c_mktsegment,
           SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue,
           COUNT(*) AS n_orders
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    """,
)
def q35_segment_revenue(sf_dir: str):
    """Shuffle hash join (both sides co-grouped on the key,
    functions/cogroup.py) — the large-side join path, vs the broadcast
    joins of q05-q07."""
    from ray.data.aggregate import Count, Sum

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "total_e2": np.round(t["o_totalprice"].to_numpy() * 100).astype(np.int64),
        })

    orders = _side(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])[0].map_batches(
        cents, batch_format="pyarrow")
    customer = _side(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]
                     )[0].rename_columns({"c_custkey": "o_custkey"})
    seg = pa.schema([("o_custkey", pa.int64()), ("c_mktsegment", pa.string())])
    joined = cogroup(
        [(orders, pa.schema([("o_custkey", pa.int64()), ("total_e2", pa.int64())])),
         (customer, seg)], "o_custkey",
        lambda o, c: o.join(c, "o_custkey", use_threads=False),
        schema=seg.append(pa.field("total_e2", pa.int64())))
    out = (joined.groupby("c_mktsegment")
           .aggregate(Sum("total_e2", alias_name="total_e2"),
                      Count(alias_name="n_orders"))
           .to_pandas())
    out["revenue"] = out.pop("total_e2") / 100.0
    return out


@_q(
    "q36_salted_user_totals",
    """
    SELECT user_id, COUNT(*) AS n,
           SUM(CAST(ROUND(value * 100) AS BIGINT)) / 100.0 AS total
    FROM events GROUP BY user_id
    """,
)
def q36_salted_user_totals(sf_dir: str):
    """Skew-safe two-phase salted aggregation (stages/skew.py) — result is
    identical to a plain groupby, which IS the oracle: the salt spreads a
    hot key over n_salts reducers, phase 2 merges the partials."""
    from .stages.skew import salted_aggregate

    sch = pa.schema([("user_id", pa.int64()), ("value_e2", pa.int64()),
                     ("one", pa.int64())])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table([
            t["user_id"],
            np.round(t["value"].to_numpy() * 100).astype(np.int64),
            np.ones(t.num_rows, dtype=np.int64),
        ], schema=sch)

    ds = _side(sf_dir, "events", columns=["user_id", "value"])[0].map_batches(
        cents, batch_format="pyarrow")
    out = salted_aggregate((ds, sch), "user_id", {"one": "count", "value_e2": "sum"},
                           n_salts=8).to_pandas()
    out = out.rename(columns={"one": "n"})
    out["total"] = out.pop("value_e2") / 100.0
    return out


# ---------------------------------------------------------------- J7 fuzzy
_FUZZY_KEYS = {
    "Berlin United": ["berlin"],
    "Red Rockets": ["rocket"],
    "Blue Whales": ["whale"],
    "Green Goblins": ["goblin"],
    "Silver Foxes": ["fox"],
    # "Night Owls" deliberately has NO search key -> its game never matches
}

_FUZZY_GAMES = [
    {"game_idx": 0, "date": "2024-06-01", "home": "Berlin United", "away": "Red Rockets"},
    {"game_idx": 1, "date": "2024-06-01", "home": "Blue Whales", "away": "Green Goblins"},
    {"game_idx": 2, "date": "2024-06-02", "home": "Berlin United", "away": "Blue Whales"},
    {"game_idx": 3, "date": "2024-06-02", "home": "Berlin United", "away": "Night Owls"},
    {"game_idx": 4, "date": "2024-06-03", "home": "Silver Foxes", "away": "Berlin United"},
    # duplicate pairing on the same date: a candidate matching both goes to
    # the FIRST game (find_gc_logs removal order)
    {"game_idx": 5, "date": "2024-06-01", "home": "Red Rockets", "away": "Berlin United"},
]

_FUZZY_CANDIDATES = [
    "gc_2024-06-01_Berlin_vs_Rocket_1st_half.log",      # games 0 and 5 -> 0
    "gc_2024-06-01_whale_goblin_2nd_half.log",          # game 1
    "gc_2024-06-02_BERLIN-Whale_1st_half.log",          # game 2
    "gc_2024-06-02_berlin_vs_owls_1st.log",             # game 3 has no key -> none
    "gc_2024-06-03_fox_berlin_2nd_half.log",            # game 4
    "gc_2024-06-01_berlin_training.log",                # date ok, one team only
    "gc_2024-05-30_berlin_rocket.log",                  # wrong date
    "random_notes.txt",                                 # noise
    "gc_2024-06-01_ROCKET_and_berlin_rematch_1st.log",  # games 0,5 -> 0
    "gc_2024-06-03_Test_fox_berlin.log",                # 'Test': still a gc match
]


def _fuzzy_cands_table() -> list[dict]:
    return [{"cand_id": i, "fname": f} for i, f in enumerate(_FUZZY_CANDIDATES)]


def _fuzzy_oracle_sql() -> str:
    cands = ", ".join(f"({i}, '{f}')" for i, f in enumerate(_FUZZY_CANDIDATES))
    rows = []
    for g in _FUZZY_GAMES:
        hk, ak = _FUZZY_KEYS.get(g["home"]), _FUZZY_KEYS.get(g["away"])
        if hk is None or ak is None:
            continue  # keyless team: the game can never match (KeyError path)
        rows.append(f"({g['game_idx']}, '{g['date']}', '{hk[0]}', '{ak[0]}')")
    games = ", ".join(rows)
    return f"""
    WITH cands(cand_id, fname) AS (VALUES {cands}),
         games(game_idx, gdate, k_home, k_away) AS (VALUES {games})
    SELECT c.cand_id, MIN(g.game_idx) AS game_idx
    FROM cands c JOIN games g
      ON position(g.gdate IN c.fname) > 0
     AND position(g.k_home IN lower(c.fname)) > 0
     AND position(g.k_away IN lower(c.fname)) > 0
    GROUP BY c.cand_id
    """


@_q("q44_fuzzy_match_gc", None)
def q44_fuzzy_match_gc(sf_dir: str):
    """J7 fuzzy file-to-game matcher, gc-log mode (sort_logs.py:163-199):
    date containment + BOTH teams' casefolded keywords; candidate goes to
    the first matching game (pool-removal order == groupby-min). Oracle:
    the same rule in SQL over embedded fixture VALUES."""
    import ray.data as rd

    from .stages.fuzzymatch import assign_first_match, compile_games, match_pairs

    specs = compile_games(_FUZZY_GAMES, _FUZZY_KEYS, mode="gc")
    cands = rd.from_items(_fuzzy_cands_table())
    return assign_first_match(match_pairs(cands, specs))


ORACLE_SQL["q44_fuzzy_match_gc"] = _fuzzy_oracle_sql()


# -------------------------------------------------- J1/J2/J5/J6 direct gates
_FJ_GAME = [(1, 10, "ready"), (1, 11, "play"), (1, 12, "play"), (1, 13, "finish"),
            (2, 10, "ready"), (2, 11, "play"), (2, 12, "own_kickoff")]
_FJ_IMG = [(1, 10, "TOP"), (1, 10, "BOTTOM"), (1, 12, "TOP"),
           (2, 11, "BOTTOM"), (2, 99, "TOP")]  # frame 99 has no game row


def _fj_sql() -> str:
    g = ", ".join(f"({a}, {b}, '{c}')" for a, b, c in _FJ_GAME)
    i = ", ".join(f"({a}, {b}, '{c}')" for a, b, c in _FJ_IMG)
    return f"""
    WITH game(log_id, frame_number, state) AS (VALUES {g}),
         img(log_id, frame_number, camera) AS (VALUES {i})
    SELECT g.log_id, g.frame_number, g.state,
           COALESCE(i.camera, 'none') AS camera
    FROM game g LEFT JOIN img i
      ON g.log_id = i.log_id AND g.frame_number = i.frame_number
    """


@_q("q47_frame_join_left")
def q47_frame_join_left(sf_dir: str):
    """J2 left frame join as a DIRECT gate (02_combine_logs.py:165-190
    semantics: game frames kept, image rows attach per (log, frame),
    multi-camera frames duplicate the game row). Oracle: SQL LEFT JOIN
    over the same VALUES."""
    import ray.data as rd

    from .stages.framejoin import frame_join

    game = rd.from_items([{"log_id": a, "frame_number": b, "state": c}
                          for a, b, c in _FJ_GAME])
    img = rd.from_items([{"log_id": a, "frame_number": b, "camera": c}
                         for a, b, c in _FJ_IMG])
    keys = [("log_id", pa.int64()), ("frame_number", pa.int64())]
    out = frame_join((game, pa.schema(keys + [("state", pa.string())])),
                     (img, pa.schema(keys + [("camera", pa.string())])),
                     how="left").to_pandas()
    out["camera"] = out["camera"].fillna("none")
    out = out[["log_id", "frame_number", "state", "camera"]]
    return out.sort_values(["log_id", "frame_number", "camera"],
                           kind="mergesort").reset_index(drop=True)


ORACLE_SQL["q47_frame_join_left"] = _fj_sql()

# boxes: (img_id, box_id, x0, y0, x1, y1, label) — integer pixel boxes
_BBOX_ROWS = [
    (1, 0, 0, 0, 50, 50, "robot"),
    (1, 1, 10, 10, 60, 60, "ball"),      # overlaps 0 by 1600 px^2
    (1, 2, 45, 45, 55, 55, "penalty"),   # overlaps 0 by 25 (under min_area)
    (1, 3, 100, 100, 140, 140, "robot"),
    (2, 0, 0, 0, 20, 20, "ball"),
    (2, 1, 0, 0, 20, 20, "ball"),        # same label: excluded
    (2, 2, 5, 5, 25, 25, "robot"),
]


def _bbox_sql() -> str:
    rows = ", ".join(f"({i},{b},{x0},{y0},{x1},{y1},'{lb}')"
                     for i, b, x0, y0, x1, y1, lb in _BBOX_ROWS)
    return f"""
    WITH boxes(img_id, box_id, x0, y0, x1, y1, label) AS (VALUES {rows})
    SELECT a.img_id, a.box_id AS a_id, b.box_id AS b_id,
           (LEAST(a.x1,b.x1)-GREATEST(a.x0,b.x0))
         * (LEAST(a.y1,b.y1)-GREATEST(a.y0,b.y0)) AS inter
    FROM boxes a JOIN boxes b
      ON a.img_id = b.img_id AND a.box_id < b.box_id
    WHERE a.label <> b.label
      AND LEAST(a.x1,b.x1)-GREATEST(a.x0,b.x0) > 0
      AND LEAST(a.y1,b.y1)-GREATEST(a.y0,b.y0) > 0
      AND (LEAST(a.x1,b.x1)-GREATEST(a.x0,b.x0))
        * (LEAST(a.y1,b.y1)-GREATEST(a.y0,b.y0)) >= 100
    """


@_q("q48_bbox_overlap")
def q48_bbox_overlap(sf_dir: str):
    """J5 bbox overlap self-join (check_bbox_overlap_tasks.py:68-87):
    within-image cross-label pairs with intersection >= 100 px^2, run as
    a co-group on img over the vectorized kernel. Oracle: SQL
    self-join with the same geometry."""
    import ray.data as rd

    from .functions.bbox import overlap_pairs

    rows = rd.from_items([
        {"img_id": i, "box_id": b, "x0": x0, "y0": y0, "x1": x1, "y1": y1,
         "label": lb} for i, b, x0, y0, x1, y1, lb in _BBOX_ROWS])

    def per_img(g: pa.Table) -> pa.Table:  # one image, sorted by box_id
        ids = g["box_id"].to_pylist()
        pairs = overlap_pairs(_xyxy(g), g["label"].to_pylist())
        return pa.table({"img_id": [g["img_id"][0].as_py()] * len(pairs),
                         "a_id": [ids[i] for i, _, _ in pairs],
                         "b_id": [ids[j] for _, j, _ in pairs],
                         "inter": [int(v) for _, _, v in pairs]})

    sch = pa.schema([(c, pa.int64()) for c in ("img_id", "box_id", "x0", "y0", "x1", "y1")]
                    + [("label", pa.string())])
    out = cogroup([(rows, sch)], "img_id",
                  per_key("img_id", per_img, order="box_id"),
                  schema=pa.schema([(c, pa.int64()) for c in
                                    ("img_id", "a_id", "b_id", "inter")])).to_pandas()
    return (out.astype(np.int64)
            .sort_values(["img_id", "a_id", "b_id"], kind="mergesort")
            .reset_index(drop=True))


ORACLE_SQL["q48_bbox_overlap"] = _bbox_sql()


def _xyxy(t: pa.Table) -> np.ndarray:
    """(n, 4) float64 boxes from the x0/y0/x1/y1 columns."""
    return np.stack([t[k].to_numpy() for k in ("x0", "y0", "x1", "y1")],
                    axis=1).astype(np.float64).reshape(-1, 4)

_BB_PATCHES = [(1, 0, 0, 0, 32, 32), (1, 1, 30, 30, 64, 64), (1, 2, 200, 200, 232, 232),
               (3, 0, 0, 0, 16, 16)]  # img 3 has no gts -> (-1, 0.0)
_BB_GTS = [(1, 0, 8, 8, 24, 24), (1, 1, 28, 28, 60, 60), (1, 2, 0, 0, 64, 64)]


def _bb_best_sql() -> str:
    p = ", ".join(f"({a},{b},{c},{d},{e},{f})" for a, b, c, d, e, f in _BB_PATCHES)
    g = ", ".join(f"({a},{b},{c},{d},{e},{f})" for a, b, c, d, e, f in _BB_GTS)
    return f"""
    WITH patches(img_id, patch_id, x0, y0, x1, y1) AS (VALUES {p}),
         gts(img_id, gt_id, x0, y0, x1, y1) AS (VALUES {g}),
         pairs AS (
           SELECT p.img_id, p.patch_id, g.gt_id,
                  GREATEST(LEAST(p.x1,g.x1)-GREATEST(p.x0,g.x0), 0)
                * GREATEST(LEAST(p.y1,g.y1)-GREATEST(p.y0,g.y0), 0) AS inter,
                  (g.x1-g.x0)*(g.y1-g.y0) AS agt
           FROM patches p JOIN gts g ON p.img_id = g.img_id),
         ranked AS (
           SELECT img_id, patch_id, gt_id,
                  ROUND(CAST(inter AS DOUBLE)/agt, 6) AS ratio,
                  ROW_NUMBER() OVER (PARTITION BY img_id, patch_id
                      ORDER BY CAST(inter AS DOUBLE)/agt DESC, gt_id) AS rn
           FROM pairs)
    SELECT p.img_id, p.patch_id,
           COALESCE(r.gt_id, -1) AS best_gt, COALESCE(r.ratio, 0.0) AS ratio
    FROM patches p LEFT JOIN ranked r
      ON r.img_id = p.img_id AND r.patch_id = p.patch_id AND r.rn = 1
    """


@_q("q49_bbox_best_overlap")
def q49_bbox_best_overlap(sf_dir: str):
    """J6 best-overlap max-join (PatchExecutor.py:178-258, gt denominator;
    tie -> smallest gt index, empty gts -> (-1, 0.0)). Oracle: windowed SQL."""
    import ray.data as rd

    from .functions.bbox import best_overlap

    items = [{"img_id": a, "row_id": b, "x0": c, "y0": d, "x1": e, "y1": f,
              "kind": "patch"} for a, b, c, d, e, f in _BB_PATCHES]
    items += [{"img_id": a, "row_id": b, "x0": c, "y0": d, "x1": e, "y1": f,
               "kind": "gt"} for a, b, c, d, e, f in _BB_GTS]

    def per_img(g: pa.Table) -> pa.Table:  # one image, sorted by row_id
        is_p = pc.equal(g["kind"], "patch")
        p, gt = g.filter(is_p), g.filter(pc.invert(is_p))
        best, ratio = best_overlap(_xyxy(p), _xyxy(gt), denominator="gt")
        gt_ids = gt["row_id"].to_numpy()
        return pa.table({
            "img_id": np.full(p.num_rows, g["img_id"][0].as_py(), dtype=np.int64),
            "patch_id": p["row_id"].to_numpy().astype(np.int64),
            "best_gt": np.where(best >= 0, gt_ids[best.clip(0)] if len(gt_ids)
                                else -1, -1).astype(np.int64),
            "ratio": np.round(ratio, 6)})

    sch = pa.schema([(c, pa.int64()) for c in ("img_id", "row_id", "x0", "y0", "x1", "y1")]
                    + [("kind", pa.string())])
    out = cogroup([(rd.from_items(items), sch)], "img_id",
                  per_key("img_id", per_img, order="row_id"),
                  schema=pa.schema([("img_id", pa.int64()), ("patch_id", pa.int64()),
                                    ("best_gt", pa.int64()), ("ratio", pa.float64())])
                  ).to_pandas()
    return (out.sort_values(["img_id", "patch_id"], kind="mergesort")
            .reset_index(drop=True))


ORACLE_SQL["q49_bbox_best_overlap"] = _bb_best_sql()


@_q(
    "q50_audio_features",
    f"""
    WITH s AS (SELECT * FROM read_parquet('{_STAGE_DIR}/q50_samples.parquet')),
    x AS (SELECT audio_id, v,
                 LAG(v) OVER (PARTITION BY audio_id ORDER BY idx) AS prev
          FROM s)
    SELECT audio_id,
           sqrt((CAST(SUM(CAST(v AS BIGINT) * v) AS DOUBLE) / 1073741824.0)
                / COUNT(*)) AS rms,
           CAST(SUM(CASE WHEN prev IS NOT NULL
                          AND (v < 0) != (prev < 0) THEN 1 ELSE 0 END)
                AS DOUBLE) / (COUNT(*) - 1) AS zcr
    FROM x GROUP BY audio_id
    """,
)
def q50_audio_features(sf_dir: str):
    """Audio feature extraction (PCM16 DSP, stages/multimodal.py) over
    deterministic synthesized tones — actor-pool plumbing with real numpy
    DSP.

    Oracled via staged raw samples: RMS and zero-crossing rate over int16
    PCM are exact-integer aggregates (sum of squares < 2^53, crossing
    counts), so DuckDB replays them bit-identically — the float ops on
    both sides are correctly-rounded functions of the same exact integers
    (see the SQL's power-of-two normalization). No rounding needed."""
    import ray.data as rd

    from .stages.multimodal import AudioFeatures

    rows = []
    staged = []
    for i in range(16):
        t = np.arange(8000) / 16000.0
        freq = 110.0 * (1 + i % 8)
        amp = 0.2 + 0.05 * (i % 5)
        pcm = (np.sin(2 * np.pi * freq * t) * amp * 32767).astype("<i2")
        rows.append({"audio_id": i, "bytes": pcm.tobytes()})
        staged.append(pa.table({
            "audio_id": pa.array(np.full(len(pcm), i, dtype=np.int64)),
            "idx": pa.array(np.arange(len(pcm), dtype=np.int64)),
            "v": pa.array(pcm.astype(np.int16)),
        }))
    _stage("q50_samples", pa.concat_tables(staged))
    out = (rd.from_items(rows)
           .map_batches(AudioFeatures, fn_constructor_kwargs={},
                        batch_format="pyarrow", batch_size=8, concurrency=2)
           .to_pandas())
    out = out[["audio_id", "rms", "zcr"]].copy()
    return out.sort_values("audio_id").reset_index(drop=True)


@_q(
    "q40_union_counts",
    """
    SELECT kind, COUNT(*) AS n FROM (
      SELECT 'click' AS kind FROM events WHERE event_type = 'click'
      UNION ALL
      SELECT 'purchase' AS kind FROM events WHERE event_type = 'purchase')
    GROUP BY kind
    """,
)
def q40_union_counts(sf_dir: str):
    """Dataset.union coverage with an oracle."""
    from ray.data.aggregate import Count

    def tag(kind):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"kind": pa.array([kind] * t.num_rows, pa.string())})

        return fn

    clicks = _side(sf_dir, "events", columns=["event_type"],
                   filter=(pc.field("event_type") == "click"))[0].map_batches(
        tag("click"), batch_format="pyarrow")
    purchases = _side(sf_dir, "events", columns=["event_type"],
                      filter=(pc.field("event_type") == "purchase"))[0].map_batches(
        tag("purchase"), batch_format="pyarrow")
    return clicks.union(purchases).groupby("kind").aggregate(Count(alias_name="n"))


@_q(
    "q41_median_order_value",
    """
    SELECT o_orderpriority,
           CAST(ROUND(2 * median(CAST(ROUND(o_totalprice * 100) AS BIGINT)))
                AS BIGINT) AS median2_e2
    FROM orders GROUP BY o_orderpriority
    """,
)
def q41_median_order_value(sf_dir: str):
    """Exact per-group median via sorted key runs in a co-group (groups fit a task;
    a global median at 10^10 rows would use the sort+index-probe or a KLL
    sketch instead — documented trade). Output is 2x the median in integer
    cents — always an exact integer (sum of the two middle values), immune
    to interpolation-rounding differences between engines."""

    def med(t: pa.Table) -> pa.Table:
        pri = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        cents = np.round(t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        order, starts, counts = _runs(pri, cents)
        cents = cents[order]
        # 2x the median = the sum of the run's two middle values
        lo = starts + (counts - 1) // 2
        return pa.table({"o_orderpriority": pri[order[starts]],
                         "median2_e2": cents[lo] + cents[starts + counts // 2]})

    orders = _side(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return cogroup([orders], "o_orderpriority", med,
                   schema=pa.schema([("o_orderpriority", pa.string()),
                                     ("median2_e2", pa.int64())]))


@_q(
    "q42_value_std_by_type",
    """
    SELECT event_type,
           ROUND(sqrt((SUM(e2 * e2) / 10000.0
                       - (SUM(e2) / 100.0) * (SUM(e2) / 100.0) / COUNT(*))
                      / (COUNT(*) - 1)), 4) AS std_value
    FROM (SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS e2 FROM events)
    GROUP BY event_type
    """,
)
def q42_value_std_by_type(sf_dir: str):
    """Sample stddev via integer-cents moment sums — both engines derive
    std from IDENTICAL integer aggregates, so the doubles match bit-for-bit
    (a naive STDDEV_SAMP would differ by accumulation order)."""
    from ray.data.aggregate import Count, Sum

    def mom(t: pa.Table) -> pa.Table:
        e2 = np.round(t["value"].to_numpy() * 100).astype(np.int64)
        return pa.table({"event_type": t["event_type"], "e2": e2, "e2sq": e2 * e2})

    out = (
        _side(sf_dir, "events", columns=["event_type", "value"])[0]
        .map_batches(mom, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("e2", alias_name="s1"), Sum("e2sq", alias_name="s2"),
                   Count(alias_name="n"))
        .to_pandas()
    )
    s1, s2, n = out.pop("s1"), out.pop("s2"), out.pop("n")
    out["std_value"] = np.sqrt(
        (s2 / 10000.0 - (s1 / 100.0) * (s1 / 100.0) / n) / (n - 1)).round(4)
    return out


# =====================================================================
# Custom join / sampling / window operators beyond Ray Data's surface
# (the brief's named examples: as-of join = q12/q27, RANGE join = q58,
#  windowed aggregate = q61; exact top-k per group = q59; deterministic
#  stratified sampling for training-data curation = q60)
# =====================================================================

@_q(
    "q58_range_join_clicks",
    """
    SELECT p.event_id AS purchase_id, v.event_id AS click_id,
           p.user_id AS user_id
    FROM events p JOIN events v
      ON v.user_id = p.user_id
     AND p.event_type = 'purchase' AND v.event_type = 'click'
     AND v.ts >= p.ts - INTERVAL 4 HOUR AND v.ts < p.ts
    """,
)
def q58_range_join_clicks(sf_dir: str):
    """Distributed range join (stages/rangejoin.py): every click by the
    same user in the 4 hours before each purchase. One co-group shuffle on
    the user key, vectorized composite-searchsorted window sweep per
    bucket; output is bounded by the true pair count, never |L| x |R|."""
    from .stages.rangejoin import range_join

    cols = ["event_id", "user_id", "ts"]
    purchases = _events_of_type(sf_dir, "purchase", cols)
    clicks = _events_of_type(sf_dir, "click", cols)
    pairs = range_join(purchases, clicks, by="user_id", on="ts",
                       lower=-4 * 3_600_000_000, upper=0,
                       right_cols=["event_id"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "purchase_id": t["event_id"],
            "click_id": t["event_id_right"],
            "user_id": t["user_id"],
        })

    return pairs.map_batches(project, batch_format="pyarrow")


@_q(
    "q59_top_orders_per_customer",
    """
    SELECT o_custkey, o_orderkey, o_totalprice FROM (
      SELECT o_custkey, o_orderkey, o_totalprice,
             ROW_NUMBER() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice DESC, o_orderkey) AS rn
      FROM orders) WHERE rn <= 3
    """,
)
def q59_top_orders_per_customer(sf_dir: str):
    """Exact distributed top-k per group (stages/topk.py): per-batch
    partial prune (each block ships at most k rows per group), one
    coarse-bucket shuffle, exact per-group finalize. o_totalprice passes
    through unmodified, so the value hash is float-exact."""
    from .stages.topk import topk_per_group

    return topk_per_group(
        _side(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"]),
        group_col="o_custkey", order_col="o_totalprice", k=3,
        descending=True, tiebreak_cols=("o_orderkey",))


@_q(
    "q60_stratified_doc_sample",
    """
    SELECT doc_id, lang FROM (
      SELECT doc_id, lang,
             ROW_NUMBER() OVER (PARTITION BY lang
                                ORDER BY (doc_id * 2654435761) % 4294967296,
                                         doc_id) AS rn
      FROM documents) WHERE rn <= 20
    """,
)
def q60_stratified_doc_sample(sf_dir: str):
    """Deterministic stratified sample for training-data curation:
    min(20, |stratum|) documents per language, selected by multiplicative
    hash order — uniform within each stratum, stable under repartitioning
    and resume, and reproducible in ANSI SQL (the oracle runs the same
    hash arithmetic). stages/topk.py::stratified_sample_hash."""
    from .stages.topk import stratified_sample_hash

    return stratified_sample_hash(
        _side(sf_dir, "documents", ["doc_id", "lang"]),
        stratum_col="lang", id_col="doc_id", k=20)


@_q(
    "q61_rolling_event_value",
    """
    SELECT event_id, user_id,
           SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w
             / (100.0 * COUNT(*) OVER w) AS roll_avg
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
    """,
)
def q61_rolling_event_value(sf_dir: str):
    """Rolling windowed aggregate (ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW): 3-row moving average of event value per user. Coarse-bucket
    co-group, one vectorized cumsum pass over integer cents inside each
    bucket — both engines divide identical integer sums, so the output
    doubles are bit-identical (the q01 exact-cents rule applied to a
    window)."""

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _user_sorted(t)
        uid = t["user_id"].to_numpy()
        cents = np.round(t["value"].to_numpy() * 100).astype(np.int64)
        cum = np.cumsum(cents)
        _, starts, counts = _runs(uid)  # already sorted: runs are users
        pos = np.arange(len(uid)) - np.repeat(starts, counts)
        w = np.minimum(pos + 1, 3)
        # sum over the window = cum[i] - cum[i-w]; i-w == run_start-1 at a
        # run's head, which is exactly the cumsum boundary of the previous
        # user, so windows can never leak across users
        lo = np.arange(len(uid)) - w
        prev = np.where(lo >= 0, cum[np.maximum(lo, 0)], 0)
        return pa.table({"event_id": t["event_id"], "user_id": t["user_id"],
                         "roll_avg": (cum - prev) / (100.0 * w)})

    return _by_user(sf_dir, ["event_id", "user_id", "ts", "value"], per_bucket,
                    pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                               ("roll_avg", pa.float64())]))


@_q(
    "q30_crawl",
    f"""
    SELECT wave, seq, url, fetch_time
    FROM read_parquet('{_STAGE_DIR}/q30_expected.parquet')
    """,
)
def q30_crawl(sf_dir: str):
    """The full crawl engine, deterministically: frontier + politeness +
    bloom/cuckoo seen + fetch/decode + per-wave store commits, on the
    synthetic web. Output = the crawl's fetch log (wave, seq, url,
    fetch_time) — a pure function of the seed.

    Differential oracle (review r5 — the last rows-only entry): the
    SERIAL reference executor (pipelines/reference_crawler.py — the
    in-process twin the pytest equivalence suite pins the engine
    against) runs the identical config + seeds and its fetch_order() is
    staged as parquet; the SQL reads it back, so the driver's hash gate
    now compares the BSP Ray engine's wave orchestration, shard routing,
    politeness and seen-filtering against an independent serial
    implementation. Each row carries its (wave, seq) position, so the
    sorted-row hash still pins the complete total order."""
    import shutil
    import tempfile

    import pandas as pd

    from .pipelines.crawl import CrawlConfig, CrawlEngine
    from .pipelines.reference_crawler import SerialCrawler

    cfg = CrawlConfig(seed=42, n_hosts=6, pages_per_host=40, n_shards=4,
                      wave_size=48, max_depth=3, max_waves=3, batch_size=32)
    sc = SerialCrawler(CrawlConfig(seed=42, n_hosts=6, pages_per_host=40,
                                   n_shards=4, wave_size=48, max_depth=3,
                                   max_waves=3, batch_size=32))
    sc.run(sc.cfg.web().seed_urls(12))
    expected = pd.DataFrame(sc.fetch_order(),
                            columns=["wave", "seq", "url", "fetch_time"])
    _stage("q30_expected", pa.Table.from_pandas(expected,
                                                preserve_index=False))

    root = tempfile.mkdtemp(prefix="q30_crawl_")
    try:
        eng = CrawlEngine(cfg, root + "/store", root + "/ckpt")
        eng.run(seeds=cfg.web().seed_urls(12))
        log = eng.fetch_log()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return pd.DataFrame(log, columns=["wave", "seq", "url", "fetch_time"])


@_q(
    "q38_ann_ivf_lsh",
    f"""
    WITH exact AS (
      SELECT q_id, vec_id FROM (
        SELECT q.vec_id AS q_id, b.vec_id AS vec_id,
               ROW_NUMBER() OVER (
                 PARTITION BY q.vec_id
                 ORDER BY list_cosine_similarity(q.embedding::DOUBLE[],
                                                 b.embedding::DOUBLE[]) DESC,
                          b.vec_id) AS rank
        FROM (SELECT * FROM embeddings
              WHERE vec_id IN ({",".join(map(str, _ANN_QUERY_IDS))})) q
        CROSS JOIN embeddings b)
      WHERE rank <= 10
    ),
    approx AS (SELECT * FROM read_parquet('{_STAGE_DIR}/q38_approx.parquet'))
    SELECT a.method, a.q_id,
           ROUND(COUNT(e.vec_id) / 10.0, 4) AS recall_at_10,
           (COUNT(e.vec_id) >= 6) AS meets_floor
    FROM approx a
    LEFT JOIN exact e ON e.q_id = a.q_id AND e.vec_id = a.vec_id
    GROUP BY a.method, a.q_id
    """,
)
def q38_ann_ivf_lsh(sf_dir: str):
    """BOTH bounded ANN scale paths, graded by recall@10 against the exact
    top-k (round-4 verdict #3): IVF (kmeans centroids, n_probe clusters
    scanned, id-sorted deterministic training) and LSH (6 independent
    hyperplane tables, Hamming-3 probes). The approximate neighbor lists
    are staged; the oracle recomputes the EXACT top-10 in SQL
    (list_cosine_similarity, the q18-proven tie-break) and replays the
    recall — so the hash gate checks both the recall arithmetic and the
    floor (recall@10 >= 0.6 for every method x query)."""
    from .stages.ann import ivf_topk_cosine, lsh_topk_cosine, topk_cosine

    def emb():  # one column-pruned read per ANN consumer
        return _side(sf_dir, "embeddings", columns=["vec_id", "embedding"])[0]

    qrows = _side(sf_dir, "embeddings",
                  filter=pc.field("vec_id").isin(_ANN_QUERY_IDS))[0].take_all()
    qrows.sort(key=lambda r: r["vec_id"])
    qm = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    ivf = ivf_topk_cosine(emb(), qm, qids, k=10, n_clusters=16, n_probe=8)
    lsh = lsh_topk_cosine(emb(), qm, qids, k=10, n_planes=12, probe_hamming=3,
                          n_tables=6)
    ivf.insert(0, "method", "ivf")
    lsh.insert(0, "method", "lsh")
    approx = pd.concat([ivf, lsh], ignore_index=True)
    _stage("q38_approx", pa.Table.from_pandas(
        approx[["method", "q_id", "vec_id"]], preserve_index=False))

    exact = topk_cosine(emb(), qm, qids, k=10)
    ex: dict = {}
    for q, g in exact.groupby("q_id"):
        ex[int(q)] = set(g["vec_id"])
    out_rows = []
    for (method, q), g in approx.groupby(["method", "q_id"]):
        hits = len(set(g["vec_id"]) & ex[int(q)])
        out_rows.append({"method": method, "q_id": int(q),
                         "recall_at_10": round(hits / 10.0, 4),
                         "meets_floor": hits >= 6})
    out = pd.DataFrame(out_rows)
    out["q_id"] = out["q_id"].astype(np.int64)
    # ENFORCE the floor (review r5): without this raise, a recall
    # regression flips meets_floor to False on BOTH the Ray side and the
    # SQL replay (same staged lists), the hashes still match, and the
    # gate would "pass" on degraded output.
    bad = out[~out["meets_floor"]]
    if len(bad):
        raise AssertionError(
            "q38 recall@10 below the 0.6 floor: "
            + ", ".join(f"{r.method}/q{r.q_id}={r.recall_at_10}"
                        for r in bad.itertuples()))
    return out.sort_values(["method", "q_id"]).reset_index(drop=True)


@_q(
    "q39_video_frames",
    f"""
    SELECT video_id, frame_idx, brightness
    FROM read_parquet('{_STAGE_DIR}/q39_expected.parquet')
    WHERE frame_idx % 2 = 0
    """,
)
def q39_video_frames(sf_dir: str):
    """Multimodal plumbing through the driver gate: deterministic fake
    videos -> frame-sampling actor stage -> per-video frame counts +
    decoded-frame brightness.

    Oracled differentially: per-frame brightness for EVERY frame is staged
    straight from the pixel generator (no container encode/decode in that
    path), and the SQL applies the every-2nd-frame sampling rule — the Ray
    side must reproduce it through encode_fake_video -> actor-pool frame
    sampling -> PNG decode -> grayscale (a lossless-roundtrip gate)."""
    import ray.data as rd

    from .functions.phash import grayscale
    from .codecs import png as pngcodec
    from .sources.corpus import _pixels
    from .stages.multimodal import VideoFrameSample, encode_fake_video

    vids = []
    expected = []
    for v in range(6):
        frames = [_pixels(1000 * v + i, 32, 24) for i in range(5 + v % 3)]
        vids.append({"video_id": f"vid-{v:02d}", "bytes": encode_fake_video(frames)})
        for i, fr in enumerate(frames):
            expected.append({"video_id": f"vid-{v:02d}", "frame_idx": i,
                             "brightness": round(float(grayscale(fr[None]).mean()), 4)})
    _stage("q39_expected", pa.Table.from_pylist(expected, schema=pa.schema([
        ("video_id", pa.string()), ("frame_idx", pa.int32()),
        ("brightness", pa.float64())])))
    ds = rd.from_items(vids)
    sampled = ds.map_batches(VideoFrameSample, fn_constructor_kwargs={"every_k": 2},
                             batch_format="pyarrow", concurrency=1)

    def stats(t: pa.Table) -> pa.Table:
        bright = []
        for blob in t["bytes"].to_pylist():
            img, _ = pngcodec.decode(blob)
            bright.append(round(float(grayscale(img[None]).mean()), 4))
        return pa.table({"video_id": t["video_id"], "frame_idx": t["frame_idx"],
                         "brightness": pa.array(bright)})

    out = sampled.map_batches(stats, batch_format="pyarrow").to_pandas()
    return out.sort_values(["video_id", "frame_idx"]).reset_index(drop=True)


@_q(
    "q54_naoth_closest",
    f"""
    SELECT l.log_no, l.frame_number, l.frame_time,
           COALESCE((SELECT r.frame_number
                     FROM read_parquet('{_STAGE_DIR}/q54_right.parquet') r
                     WHERE r.log_no = l.log_no
                     ORDER BY abs(l.frame_time - r.frame_time), r.frame_number
                     LIMIT 1), -1) AS closest_image_frame
    FROM read_parquet('{_STAGE_DIR}/q54_left.parquet') l
    """,
)
def q54_naoth_closest(sf_dir: str):
    """END-TO-END NaoTH chain (round-2 verdict #6): wire-format logs ->
    distributed protowire parse -> FrameInfo.frame_time -> J4 closest join
    aligning every cognition frame to its nearest image-bearing frame per
    log, ties to the smaller frame number — the reference's
    07_input_cognition_data_rust.py:92-96 feeding
    14_calculate_closest_frames.py:38-83.

    Oracled via the staged-parquet pattern (round-4 verdict #1): the parsed
    FrameInfo sides are staged and DuckDB replays the nearest-|dt| /
    tie->smaller-id rule as a correlated ORDER BY — the closest-join half is
    hash-gated; the wire parse stays pinned by tests/test_protoparse."""
    import ray
    import ray.data as rd

    from .stages.asof import closest_rows
    from .stages.protoparse import parse_logs_dataset

    logs = rd.from_items([
        {"log_no": i, "bytes": _f5_proto_fixture_bytes(i)} for i in range(3)
    ])
    parsed = parse_logs_dataset(logs).materialize()  # consumed twice below

    fi_sch = pa.schema([(c, pa.int64()) for c in ("log_no", "frame_number", "frame_time")])

    def only_frameinfo(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.equal(t["name"], "FrameInfo"))
        return pa.table([pc.cast(sel[c], pa.int64()) for c in fi_sch.names],
                        schema=fi_sch)

    fi = parsed.map_batches(only_frameinfo, batch_format="pyarrow")

    # image-bearing frames: skinny packed (log, frame) key set broadcast
    # once (J3 semi-join pattern), then the FrameInfo side filters to them
    def img_keys(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.match_substring_regex(t["name"], "^Image"))
        k = (sel["log_no"].to_numpy(zero_copy_only=False).astype(np.int64)
             * (1 << 32)
             + sel["frame_number"].to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(np.unique(k), pa.int64())})

    keys = ray.put(pa.array(sorted(set(
        r["k"] for r in
        parsed.map_batches(img_keys, batch_format="pyarrow").take_all()))))

    def with_images(t: pa.Table) -> pa.Table:
        k = (t["log_no"].to_numpy(zero_copy_only=False).astype(np.int64)
             * (1 << 32) + t["frame_number"].to_numpy(zero_copy_only=False))
        return t.filter(pc.is_in(pa.array(k), value_set=ray.get(keys)))

    right = fi.map_batches(with_images, batch_format="pyarrow")
    fi = fi.materialize()  # consumed by the join AND the oracle stage
    right = right.materialize()
    _stage("q54_left", pa.concat_tables(
        b for b in fi.iter_batches(batch_format="pyarrow")))
    _stage("q54_right", pa.concat_tables(
        b for b in right.iter_batches(batch_format="pyarrow")))
    out = closest_rows((fi, fi_sch), (right, fi_sch), by="log_no", time_col="frame_time",
                       id_col="frame_number",
                       out_col="closest_image_frame").to_pandas()
    return (out.sort_values(["log_no", "frame_number"])
            .reset_index(drop=True))


# =====================================================================
# Quantile operators (stages/quantiles.py)
# =====================================================================

@_q(
    "q62_user_value_percentiles",
    """
    SELECT user_id,
           quantile_disc(value, 0.25) AS p25,
           quantile_disc(value, 0.50) AS p50,
           quantile_disc(value, 0.90) AS p90
    FROM events GROUP BY user_id
    """,
)
def q62_user_value_percentiles(sf_dir: str):
    """EXACT per-group discrete percentiles (stages/quantiles.py) — the
    element at max(0, ceil(q*n)-1) of the sorted group, the same index
    rule as DuckDB quantile_disc, so values hash-match bit-for-bit (no
    interpolation arithmetic). One coarse-bucket shuffle, run-boundary
    vectorized picks — no per-group Python."""
    from .stages.quantiles import grouped_percentiles

    out = grouped_percentiles(_side(sf_dir, "events", ["user_id", "value"]),
                              "user_id", "value",
                              {"p25": 0.25, "p50": 0.50, "p90": 0.90})
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


@_q(
    "q63_value_quantile_sketch",
    """
    WITH s AS (SELECT CAST(min(value) AS DOUBLE) AS lo,
                      CAST(max(value) AS DOUBLE) AS hi,
                      count(*) AS total FROM events),
    bins AS (
      SELECT LEAST(GREATEST(CAST(floor(
               (value - s.lo) * (4096 / (s.hi - s.lo))) AS BIGINT), 0), 4095)
               AS bin,
             count(*) AS c
      FROM events, s GROUP BY 1),
    cum AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cum FROM bins),
    qs AS (SELECT * FROM (VALUES (0.5), (0.9), (0.99)) t(q)),
    r AS (SELECT q, GREATEST(CAST(ceil(q * s.total) AS BIGINT) - 1, 0) + 1
                 AS target
          FROM qs, s),
    pick AS (SELECT r.q, MIN(cum.bin) AS bin
             FROM r JOIN cum ON cum.cum >= r.target GROUP BY r.q)
    SELECT pick.q, s.lo + (pick.bin + 1) * ((s.hi - s.lo) / 4096) AS est,
           s.total AS total
    FROM pick, s
    """,
)
def q63_value_quantile_sketch(sf_dir: str):
    """Mergeable histogram-sketch global quantiles — the 10^10-row scale
    path (fixed O(nbins) memory everywhere; estimate within one bin width
    above the true value). The sketch is a pure function of (min, max,
    nbins), so the oracle replays the ENTIRE pipeline in SQL straight from
    the events view — same floor-binning, clip, rank rule, and bin-edge
    estimator, bit-identical doubles (no staging, no rounding needed)."""
    import pandas as pd

    from .stages.quantiles import quantile_sketch, sketch_quantiles

    ds = _side(sf_dir, "events", columns=["value"])[0]
    sk = quantile_sketch(ds, "value", nbins=4096)
    qs = [0.5, 0.9, 0.99]
    est = sketch_quantiles(sk, qs)
    return pd.DataFrame({"q": qs, "est": est,
                         "total": np.int64(sk["total"])})
