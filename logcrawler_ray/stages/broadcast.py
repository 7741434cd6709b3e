"""Size-guarded broadcast sides for map-side joins (SURVEY.md §2.4 J3).

The broadcast-join pattern — ship a small side once via ``ray.put``, probe
it vectorized inside ``map_batches`` — is only safe when the small side is
actually small: a fact table shipped this way OOMs the driver at scale
(round-1 verdict "What's wrong #2"). Every helper here enforces a row cap
and raises :class:`BroadcastTooLarge` instead of silently degrading, so a
query that outgrows the broadcast side fails loudly and must move to a
:func:`..functions.cogroup.cogroup` shuffle join (q35-style).

Probes are Arrow-vectorized (``pc.is_in`` / ``pc.index_in`` + ``take``),
never per-row Python loops.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.cogroup import N_BUCKETS, cogroup

# A broadcast side is read by EVERY map task; 5M keys (~40-200 MB as Arrow)
# is the upper bound where once-per-node object-store placement still beats
# a shuffle join. Past this, use a cogroup join.
DEFAULT_MAX_BROADCAST_ROWS = 5_000_000


class BroadcastTooLarge(RuntimeError):
    """The would-be broadcast side exceeds the row cap — use a shuffle join."""


def _guard(n: int, what: str, max_rows: int) -> None:
    if n > max_rows:
        raise BroadcastTooLarge(
            f"{what}: {n} rows > broadcast cap {max_rows}; "
            "use a cogroup shuffle join instead")


def collect_table(ds, sch: pa.Schema) -> pa.Table:
    """``ds``'s ``sch`` columns as one Arrow table of the declared types on
    the driver; an empty ``ds`` gives ``sch``'s empty table. One execution:
    unlike ``to_arrow_refs()`` it runs no ``limit(1)`` schema probe, and
    unlike ``to_pandas()`` it keeps nullable int64 keys int64."""
    blocks = ds.iter_batches(batch_size=None, batch_format="pyarrow")
    return pa.concat_tables([sch.empty_table()] + [
        b.select(sch.names).cast(sch) for b in blocks if b.num_rows])


def _collect(ds, sch: pa.Schema, what: str, max_rows: int) -> list[pa.Array]:
    """``ds``'s ``sch`` columns as Arrow arrays on the driver, LIMIT-bounded
    to ``max_rows + 1`` rows BEFORE the collect (:func:`collect_table`)."""
    tbl = collect_table(ds.limit(max_rows + 1), sch)
    _guard(tbl.num_rows, what, max_rows)
    return [c.combine_chunks() for c in tbl.columns]


def distinct_keys_ds(side, col: str, num_buckets: int = N_BUCKETS):
    """Distributed distinct of one column of ``side`` (a ``(Dataset,
    schema)`` pair): per-batch ``pc.unique`` partials -> ONE
    :func:`cogroup` -> ``pc.unique`` again per bucket. (A native
    ``groupby(col).count`` pays per-GROUP cost at distinct-key
    cardinality — the r3 CLAUDE.md lesson.)"""
    ds, sch = side
    sch = pa.schema([sch.field(col)])

    def distinct(t: pa.Table) -> pa.Table:
        return pa.table({col: pc.unique(t[col].combine_chunks())})

    return cogroup([(ds.map_batches(distinct, batch_format="pyarrow"), sch)],
                   col, distinct, schema=sch, n_buckets=num_buckets)


def broadcast_key_set(side, col: str, *, max_rows: int = DEFAULT_MAX_BROADCAST_ROWS):
    """Distinct keys of ``side``'s ``col`` (a ``(Dataset, schema)`` pair) as
    an ObjectRef[pa.Array] of the declared type, for semi/anti probes. The
    distinct runs distributed (:func:`distinct_keys_ds`); the driver-side
    collect is LIMIT-bounded to ``max_rows + 1`` BEFORE materializing, so
    an oversized side raises without the driver ever holding it (round-2
    advice: the guard must fire before the OOM it prevents)."""
    import ray

    sch = pa.schema([side[1].field(col)])
    return ray.put(_collect(distinct_keys_ds(side, col), sch, f"key set {col}", max_rows)[0])


def broadcast_map(side, key_col: str, val_col: str, *,
                  max_rows: int = DEFAULT_MAX_BROADCAST_ROWS):
    """``key -> value`` lookup of ``side`` (a ``(Dataset, schema)`` pair) as
    ObjectRef[(pa.Array, pa.Array)] of the declared types. The collect is
    LIMIT-bounded to ``max_rows + 1`` rows — the cap check happens before
    an unbounded side could land on the driver."""
    import ray

    ds, sch = side
    sch = pa.schema([sch.field(key_col), sch.field(val_col)])
    return ray.put(tuple(_collect(ds.select_columns(sch.names), sch,
                                  f"map {key_col}->{val_col}", max_rows)))


def broadcast_map_from_dict(mapping: dict, *,
                            max_rows: int = DEFAULT_MAX_BROADCAST_ROWS):
    """Driver-built dict as the same (keys, vals) Arrow pair."""
    import ray

    _guard(len(mapping), "dict map", max_rows)
    return ray.put((pa.array(list(mapping.keys())), pa.array(list(mapping.values()))))


def semi_mask(col, key_set: pa.Array) -> pa.Array:
    """Boolean membership mask (vectorized ``pc.is_in``)."""
    return pc.is_in(col, value_set=key_set)


def anti_mask(col, key_set: pa.Array) -> pa.Array:
    return pc.invert(pc.is_in(col, value_set=key_set))


def probe_values(col, keys: pa.Array, vals: pa.Array):
    """Vectorized lookup: value per probe key, null on miss
    (``pc.index_in`` + ``take``)."""
    return pc.take(vals, pc.index_in(col, value_set=keys))
