"""The one co-group shuffle of the library, and its bucket and run kernels.

``cogroup(sides, key, fn, *, schema, n_buckets=64)`` is every keyed
shuffle in the engine: partial-aggregate merges, distinct, top-k, per-log
decodes and the as-of, range, frame and hash joins. It

1. tags every row of every side with a coarse ``key`` bucket
   (:func:`_bucket_of`) and pads the other sides' columns with typed
   nulls, so every block of the union has ONE schema;
2. bundles the tagged blocks to >= 4096 rows and runs ONE sort-based
   ``groupby(bucket).map_groups`` exchange over the union (16-64 coarse
   buckets: per-group Python costs ~1-2 ms, so groups are buckets, never
   keys);
3. calls ``fn(*tables)`` once per non-empty bucket with one ``pa.Table``
   per side. Each table holds exactly that side's declared columns and
   Arrow types, and has zero rows when the side has none in the bucket;
4. casts every output block to ``schema`` (schema metadata dropped), so
   Ray's schema unification keeps its hashable fast path. A shuffle
   partition that receives no bucket at all still comes out of Ray's
   sort as a column-less empty block.

``fn`` never sees pandas or null-filled upcasts, so no call site carries
tag columns, union null-fill undo code or empty-group guards. Per-key fns
iterate key runs inside their bucket with :func:`_runs` (:func:`per_key`
wraps the common one-side case).

The exchange is Ray's sort shuffle on purpose: ``repartition(keys=)`` and
``Dataset.join`` use Ray 2.49's hash-shuffle aggregators, which reserve
memory per aggregator and never get scheduled on a small box.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import hash64_str_array, splitmix64

_MIX = np.uint64(0x9E3779B97F4A7C15)

# Ray's sort fans out to as many partitions as it receives blocks, and
# every mapper writes one piece per partition: tiny blocks (from_items
# makes one per row) make the exchange quadratic in tasks. Tagged blocks
# are bundled to at least this many rows before the sort; a larger block
# keeps one task of its own.
_MIN_SORT_BLOCK_ROWS = 4096


def _hash64(col) -> np.ndarray:
    """Stable uint64 hash of one key column, any hashable type. Null keys
    hash like 0 (integers) or '' (everything else)."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = pc.fill_null(col, 0)
        return splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return hash64_str_array(pc.fill_null(col, ""))

    # other keys (float/timestamp/bytes/decimal): hash a canonical string
    # form. repr() is deterministic per value; the two gotchas are -0.0
    # (== 0.0 as a group key, must co-bucket) and bytes (no .encode). NaNs
    # all repr as 'nan' -> one bucket, like pandas dropna=False's single
    # NaN group.
    def _canon(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bytes):
            return v.decode("latin-1")
        if isinstance(v, float) and v == 0.0:
            return "0.0"
        return repr(v)

    return hash64_str_array([_canon(v) for v in col.to_pylist()])


def _bucket_of(cols, n: int) -> pa.Array:
    """Stable coarse bucket id (int32, in ``[0, n)``) of one key column or
    a list of them (a composite key)."""
    if not isinstance(cols, (list, tuple)):
        cols = [cols]
    u = _hash64(cols[0])
    with np.errstate(over="ignore"):
        for c in cols[1:]:
            u = splitmix64(u * _MIX + _hash64(c))
    return pa.array((u % np.uint64(n)).astype(np.int32))


def _runs(k, o=None):
    """The one sort-and-group kernel: sort by key (one array, or a tuple of
    arrays for a composite key), then by ``o`` if given. Returns
    ``(order, starts, counts)`` — the sorting permutation, each key run's
    start in sorted order and its length; with ``o``, a run's first row
    holds the key's minimum ``o``."""
    ks = list(k) if isinstance(k, (list, tuple)) else [k]
    n = len(ks[0])
    order = np.lexsort(([] if o is None else [o]) + ks[::-1])
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for c in ks:
            s = c[order]
            new[1:] |= s[1:] != s[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    return order, starts, counts


def per_key(key: str, fn, order: str | None = None):
    """A one-side :func:`cogroup` fn that calls ``fn`` once per ``key`` run
    of its bucket (rows sorted by ``order`` within a run) and concatenates
    the outputs — for work that is inherently per key (one log, one
    image)."""
    def per_bucket(t: pa.Table) -> pa.Table:
        idx, starts, counts = _runs(
            t[key].to_numpy(zero_copy_only=False),
            None if order is None else t[order].to_numpy(zero_copy_only=False))
        t = t.take(idx)
        return pa.concat_tables([fn(t.slice(s, c)) for s, c in zip(starts, counts)],
                                promote_options="default")

    return per_bucket


def arrow_schema(ds) -> pa.Schema:
    """A Dataset's schema as a ``pa.Schema``, for callers whose input
    column types are not known statically (generic operators). Costs a
    ``limit(1)`` execution when the plan cannot infer the schema, so call
    it on an operator's input, never on a shuffle output. Object columns
    of pandas-backed blocks are strings."""
    base = ds.schema().base_schema
    if not isinstance(base, pa.Schema):  # pandas-backed blocks
        import pandas as pd

        base = pa.Schema.from_pandas(pd.DataFrame(
            {n: pd.Series([], dtype=t) for n, t in zip(base.names, base.types)}),
            preserve_index=False)
    return pa.schema([pa.field(f.name, pa.string()) if pa.types.is_null(f.type)
                      else f for f in base.remove_metadata()])


def cogroup(sides, key, fn, *, schema: pa.Schema, n_buckets: int = 64):
    """Co-group ``sides`` — a list of ``(dataset, side_schema)`` pairs — on
    ``key`` (a column name, or a list of them, present in every side) and
    return the Dataset of ``fn(*tables)`` outputs cast to ``schema``.

    ``side_schema`` declares the columns a side contributes and their
    Arrow types; input batches are projected and cast to it, so callers
    need no ``Dataset.schema()`` execution. ``fn`` runs once per non-empty
    bucket (``n_buckets`` of them), which may hold many keys."""
    keys = [key] if isinstance(key, str) else list(key)
    schema = schema.remove_metadata()
    decl = [s.remove_metadata() for _, s in sides]
    names = [[f"{i}.{c}" for c in s.names] for i, s in enumerate(decl)]
    union = pa.schema(
        [pa.field("__b", pa.int32()), pa.field("__s", pa.int8())]
        + [pa.field(p, f.type) for s, ns in zip(decl, names)
           for p, f in zip(ns, s)])

    def tag(i: int):
        def fn_tag(t: pa.Table) -> pa.Table:
            t = t.select(decl[i].names).cast(decl[i])
            cols = [_bucket_of([t[k] for k in keys], n_buckets),
                    pa.array(np.full(t.num_rows, i, np.int8))]
            for j, s in enumerate(decl):
                cols += (t.columns if j == i else
                         [pa.nulls(t.num_rows, f.type) for f in s])
            return pa.Table.from_arrays(cols, schema=union)

        return fn_tag

    def per_bucket(g: pa.Table) -> pa.Table:
        tables = [g.select(ns) if len(decl) == 1 else
                  g.select(ns).filter(pc.equal(g["__s"], i))
                  for i, ns in enumerate(names)]
        tables = [t.rename_columns(s.names).cast(s)
                  for t, s in zip(tables, decl)]
        return fn(*tables).select(schema.names).cast(schema)

    # bundle AFTER tagging: Ray concatenates the blocks it bundles, and
    # only tagged blocks are sure to carry a hashable (metadata-free)
    # schema. Ray fuses map steps only when their remote args are equal;
    # stating Ray Data's own default retry count keeps the bundler from
    # fusing back onto the sides' input blocks and changes nothing else.
    tagged = [ds.map_batches(tag(i), batch_format="pyarrow")
              .map_batches(_bundle, batch_format="pyarrow",
                           batch_size=_MIN_SORT_BLOCK_ROWS,
                           max_retries=-1)
              for i, (ds, _) in enumerate(sides)]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return both.groupby("__b").map_groups(per_bucket, batch_format="pyarrow")


def _bundle(t: pa.Table) -> pa.Table:
    return t
