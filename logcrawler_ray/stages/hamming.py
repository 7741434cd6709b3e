"""Generic Hamming-distance near-dup over packed bit codes (pigeonhole).

Works over ANY precomputed int64 code column — simhash (text), phash
(image), embedding sign codes — via multi-index hashing: split the
``nbits`` code into ``n_chunks`` equal-width chunks; any pair within
Hamming distance ``n_chunks - 1`` shares at least one exact chunk
(pigeonhole), so bucketing rows by (chunk_idx, chunk_value) has EXACT
recall whenever ``max_hamming < n_chunks``. Candidates are verified with
a vectorized XOR-popcount inside the bucket.

The reference has no similarity operator (SURVEY.md §2.6 O7 notes the
gap); this is the standard large-corpus code-based near-dup shape,
Ray-Data-first: the shuffle moves only (int32 chunk, int64 value,
int64 id, int64 code) rows — payloads and text never move. Rows are
co-grouped on (chunk, value) in coarse buckets (functions/cogroup.py);
equal-value runs are handled vectorized inside each bucket, with the
O(g^2) degenerate-bucket guard emitting one marker row per dropped
bucket (the error channel; see :func:`split_candidates`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.cogroup import N_BUCKETS, _runs, cogroup
from ..functions.hashing import to_int64, to_uint64
from ..functions.phash import hamming_batch

# A degenerate bucket (template pages / constant codes) makes all-pairs
# generation O(g^2) — buckets past the cap emit ONE marker row
# (a = -size, b = bucket key, so markers from different buckets stay
# distinct through the pair-dedup) instead of g^2/2 pairs.
DEFAULT_MAX_BUCKET = 512

_PAIRS = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_PAIRS_D = _PAIRS.append(pa.field("hamming", pa.int64()))


def split_candidates(pairs: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Separate real candidate pairs from dropped-bucket markers (a < 0).
    Returns (pairs, dropped); dropped carries one row per dropped bucket
    with its size in the ``size`` column (decoded from -a) — the error
    channel for capacity decisions."""
    mark = pairs["a"] < 0
    dropped = pairs[mark].reset_index(drop=True).copy()
    if len(dropped):
        dropped["size"] = -dropped["a"]
    else:
        dropped["size"] = pd.Series([], dtype=np.int64)
    return pairs[~mark].reset_index(drop=True), dropped


def distinct_pairs(pairs_ds, carry: str | None = None, num_buckets: int = N_BUCKETS,
                   cols: tuple[str, str] = ("a", "b")):
    """Distinct int64-pair rows via ONE coarse-bucket :func:`cogroup` + a
    C-level per-bucket combine. A native ``groupby([pair]).aggregate``
    pays per-GROUP cost at pair-count cardinality (measured ~150
    us/distinct key at 200k keys — see dedup.dup_winners); this is the
    same result at per-ROW cost. ``carry`` names an int64 column
    functionally dependent on the pair (e.g. hamming) to keep (min per
    pair, any value equal)."""
    ca, cb = cols
    sch = pa.schema([(c, pa.int64()) for c in [ca, cb] + ([carry] if carry else [])])

    def merge(t: pa.Table) -> pa.Table:
        order, starts, _ = _runs(
            (t[ca].to_numpy(), t[cb].to_numpy()),
            t[carry].to_numpy() if carry else None)
        return t.take(order[starts])  # a run's first row holds its min carry

    return cogroup([(pairs_ds, sch)], [ca, cb], merge, schema=sch,
                   n_buckets=num_buckets)


def _chunk_rows(codes: np.ndarray, ids: np.ndarray, widths: np.ndarray,
                offsets: np.ndarray) -> pa.Table:
    """One (chunk, value, __id, __code) row per code per pigeonhole chunk."""
    n, k = len(ids), len(widths)
    return pa.table({
        "chunk": np.repeat(np.arange(k, dtype=np.int32), n),
        "value": np.concatenate(
            [to_int64((codes >> np.uint64(int(offsets[c])))
                      & np.uint64((1 << int(widths[c])) - 1)) for c in range(k)]),
        "__id": np.tile(ids, k),
        "__code": np.tile(to_int64(codes), k)})


def _run_pairs(t: pa.Table, max_bucket: int,
               max_hamming: int | None = None) -> pa.Table:
    """All id pairs (a < b) within each equal-``(chunk, value)`` run of one
    bucket's exploded rows, vectorized per run. A run past ``max_bucket``
    emits ONE dropped-bucket marker (a = -size, b = chunk/value key)
    instead of its O(g^2) pairs. With ``max_hamming``, pairs are verified
    by XOR-popcount on ``__code`` and carry their ``hamming`` distance."""
    chunk = t["chunk"].to_numpy().astype(np.int64)
    value = t["value"].to_numpy()
    order, starts, counts = _runs((chunk, value), t["__id"].to_numpy())
    ids = t["__id"].to_numpy()[order]
    codes = None if max_hamming is None else \
        to_uint64(t["__code"].to_numpy()[order])
    out_a, out_b, out_d = [np.empty(0, np.int64)], [np.empty(0, np.int64)], \
        [np.empty(0, np.int64)]
    for s, n in zip(starts[counts >= 2], counts[counts >= 2]):
        if n > max_bucket:  # O(g^2) guard: dropped-bucket marker
            r = order[s]
            out_a.append(np.array([-n], np.int64))
            out_b.append(np.array([(chunk[r] << 48) ^ (value[r] & 0xFFFFFFFFFFFF)],
                                  np.int64))
            out_d.append(np.array([-1], np.int64))
            continue
        ai, bi = np.triu_indices(n, k=1)
        ai, bi = ai + s, bi + s
        if codes is not None:
            d = hamming_batch(codes[ai], codes[bi]).astype(np.int64)
            keep = d <= max_hamming
            ai, bi = ai[keep], bi[keep]
            out_d.append(d[keep])
        out_a.append(ids[ai])
        out_b.append(ids[bi])
    cols = {"a": np.concatenate(out_a), "b": np.concatenate(out_b)}
    if codes is not None:
        cols["hamming"] = np.concatenate(out_d)
    return pa.table(cols)


def _chunk_geometry(max_hamming: int, nbits: int, n_chunks: int | None):
    """Validated pigeonhole chunking shared by the Dataset and in-process
    tiers (their pytest-pinned equality requires identical geometry).
    Chunk widths differ by at most 1 and COVER all nbits — a bit outside
    every chunk would let differences hide from the pigeonhole argument.
    Returns ``(n_chunks, widths, offsets, bits_mask)``."""
    if n_chunks is None:
        n_chunks = max(4, min(16, max_hamming + 1))
    if not max_hamming < n_chunks:
        raise ValueError(f"recall not exact: max_hamming={max_hamming} "
                         f">= n_chunks={n_chunks}")
    if n_chunks > nbits:
        raise ValueError(f"n_chunks={n_chunks} > nbits={nbits}")
    widths = np.full(n_chunks, nbits // n_chunks, dtype=np.int64)
    widths[: nbits % n_chunks] += 1
    offsets = np.concatenate([[0], np.cumsum(widths)[:-1]])
    bits_mask = np.uint64((1 << nbits) - 1) if nbits < 64 \
        else np.uint64(~np.uint64(0))
    return n_chunks, widths, offsets, bits_mask


def hamming_pairs_ds(ds, code_col: str = "code", id_col: str = "doc_id",
                     max_hamming: int = 3, nbits: int = 64,
                     n_chunks: int | None = None,
                     max_bucket: int = DEFAULT_MAX_BUCKET,
                     code_fn=None):
    """Dataset-native near-dup pair generation — the 100-TB shape.

    Returns ``(pairs_ds, n_dropped_buckets)``: a MATERIALIZED Dataset of
    distinct verified (a, b, hamming) pairs (a < b, int64) among rows
    whose codes differ in <= ``max_hamming`` of the low ``nbits`` bits,
    plus the dropped-oversize-bucket count (the error channel). Pairs
    never transit the driver: cross-chunk duplicates are removed with a
    native (a, b) groupby (a skinny int64 shuffle), and the marker rows
    are filtered and counted distributed. Feed the result straight into
    :func:`..cc.cc_labels_dataset` for cluster labels, or ``to_pandas()``
    it only when the pair volume is known-bounded.

    ``code_fn(batch) -> np.uint64 array`` lets the caller FUSE code
    computation into the explode pass (no separate map_batches execution);
    otherwise ``code_col`` must already hold the codes as int64/uint64.
    ``id_col`` must be int64 and NON-NEGATIVE (markers encode sizes as
    negative ids; use a factorize/hash wrapper for string ids — see
    phash_near_dup_pairs).

    Recall is exact when ``max_hamming < n_chunks`` (asserted); the default
    picks ``max_hamming + 1`` chunks, capped at 16 — beyond that bucket
    selectivity collapses and candidate verification dominates.
    """
    n_chunks, widths, offsets, bits_mask = _chunk_geometry(
        max_hamming, nbits, n_chunks)

    def explode(batch: pa.Table) -> pa.Table:
        keep = None
        if code_fn is not None:
            res = code_fn(batch)
            if isinstance(res, tuple):  # (codes, keep_mask): rows with
                # keep=False are excluded from pairing entirely (e.g.
                # token-less docs, which the SQL oracles also omit)
                codes, keep = np.asarray(res[0], dtype=np.uint64), res[1]
            else:
                codes = np.asarray(res, dtype=np.uint64)
        else:
            codes = to_uint64(batch[code_col].to_numpy(zero_copy_only=False))
        codes = codes & bits_mask
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if keep is not None:
            codes, ids = codes[keep], ids[keep]
        if (ids < 0).any():
            raise ValueError(
                f"hamming_pairs_ds: negative {id_col!r} — ids must be "
                "non-negative int64 (negative ids are the dropped-bucket "
                "marker channel and would be silently filtered)")
        return _chunk_rows(codes, ids, widths, offsets)

    rows = pa.schema([("chunk", pa.int32()), ("value", pa.int64()),
                      ("__id", pa.int64()), ("__code", pa.int64())])
    raw = cogroup(
        [(ds.map_batches(explode, batch_format="pyarrow"), rows)],
        ["chunk", "value"],
        lambda t: _run_pairs(t, max_bucket, max_hamming),
        schema=_PAIRS_D).materialize()
    # hamming is a function of (a, b), so the min carried per pair == the value
    return _pairs_and_dropped(raw, carry="hamming")


def _pairs_and_dropped(raw, carry: str | None = None):
    """``(pairs_ds, n_dropped)`` of a materialized raw pair Dataset: its
    dropped-bucket marker rows (``a < 0``) are counted one block at a time
    and summed on the driver (no shuffle), and the rest are made distinct
    across chunks (a pair is found once per clean shared chunk)."""
    import pyarrow.compute as pc

    def count(t: pa.Table) -> pa.Table:
        return pa.table({"n": [np.count_nonzero(t["a"].to_numpy() < 0)]})

    n_dropped = sum(r["n"] for r in raw.map_batches(
        count, batch_format="pyarrow", batch_size=None).take_all())
    pairs = distinct_pairs(
        raw.map_batches(lambda t: t.filter(pc.greater_equal(t["a"], 0)),
                        batch_format="pyarrow"), carry=carry).materialize()
    return pairs, int(n_dropped)


def hamming_pairs_local(codes, ids, *, max_hamming: int = 3, nbits: int = 64,
                        n_chunks: int | None = None,
                        max_bucket: int = DEFAULT_MAX_BUCKET):
    """In-process tier of :func:`hamming_pairs_ds` for BOUNDED code sets
    (the fused q21 gate: one code per doc, already on the driver) — the
    identical pigeonhole chunks, bucket caps, marker accounting and
    distinct-pair rule, minus ~3 Ray executions of fixed cost. Equality
    with the Dataset path is pytest-pinned. Returns
    ``(DataFrame(a, b, hamming) sorted, n_dropped_buckets)``."""
    n_chunks, widths, offsets, bits_mask = _chunk_geometry(
        max_hamming, nbits, n_chunks)
    codes = to_uint64(np.asarray(codes))
    ids = np.asarray(ids, dtype=np.int64)
    if (ids < 0).any():
        raise ValueError("hamming_pairs_local: negative ids")
    raw = _run_pairs(_chunk_rows(codes & bits_mask, ids, widths, offsets),
                     max_bucket, max_hamming).to_pandas()
    mark = raw["a"] < 0
    df = (raw[~mark].drop_duplicates(["a", "b"])
          .sort_values(["a", "b"]).reset_index(drop=True))
    return df, int(mark.sum())


def band_pairs_ds(ds, band_fn, id_col: str = "doc_id",
                  max_bucket: int = DEFAULT_MAX_BUCKET):
    """Banded-LSH candidate pairs as a Dataset — for code families whose
    match radius is too LARGE for the Hamming pigeonhole (review finding:
    a cosine-0.9 sign-code radius needs ~n/3 of the bits, which forces
    1-3-bit pigeonhole chunks whose buckets all blow past the cap, so
    :func:`hamming_pairs_ds` structurally returned zero candidates at
    exactly the scale that routes to it).

    ``band_fn(batch) -> (N, B) uint64 matrix`` (or ``(matrix, keep_mask)``)
    gives each row one VALUE per band; a pair is a candidate iff SOME band
    matches exactly — P(candidate) = 1 - (1 - (1-p)^r)^B for per-bit flip
    probability p and r bits per band, the classic LSH banding curve.
    Candidates carry NO distance filter here: callers verify with the true
    metric (exact cosine in stages/ann.py). Oversize buckets drop with
    marker rows exactly like hamming_pairs_ds; returns
    ``(pairs_ds(a, b), n_dropped)``.
    """
    def explode(batch: pa.Table) -> pa.Table:
        res = band_fn(batch)
        keep = None
        if isinstance(res, tuple):
            vals, keep = res
        else:
            vals = res
        vals = np.asarray(vals, dtype=np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if keep is not None:
            vals, ids = vals[keep], ids[keep]
        if (ids < 0).any():
            raise ValueError(
                f"band_pairs_ds: negative {id_col!r} — ids must be "
                "non-negative int64 (negative ids are the marker channel)")
        n, n_bands = vals.shape
        return pa.table({
            "chunk": np.repeat(np.arange(n_bands, dtype=np.int32), n),
            "value": to_int64(np.ascontiguousarray(vals.T).reshape(-1)),
            "__id": np.tile(ids, n_bands),
        })

    rows = pa.schema([("chunk", pa.int32()), ("value", pa.int64()),
                      ("__id", pa.int64())])
    raw = cogroup(
        [(ds.map_batches(explode, batch_format="pyarrow"), rows)],
        ["chunk", "value"], lambda t: _run_pairs(t, max_bucket),
        schema=_PAIRS).materialize()
    return _pairs_and_dropped(raw)


def hamming_near_dup_pairs(ds, code_col: str = "code", id_col: str = "doc_id",
                           max_hamming: int = 3, nbits: int = 64,
                           n_chunks: int | None = None,
                           max_bucket: int = DEFAULT_MAX_BUCKET,
                           code_fn=None) -> pd.DataFrame:
    """:func:`hamming_pairs_ds` collected to a sorted pandas DataFrame
    (a, b, hamming; ``.attrs['dropped_buckets']`` = error-channel count)
    — for the bounded contexts (tests, oracle gates, small corpora) where
    the pair list is known to fit the driver."""
    pairs_ds, n_dropped = hamming_pairs_ds(
        ds, code_col=code_col, id_col=id_col, max_hamming=max_hamming,
        nbits=nbits, n_chunks=n_chunks, max_bucket=max_bucket,
        code_fn=code_fn)
    out = pairs_ds.to_pandas().reindex(columns=["a", "b", "hamming"])
    if n_dropped:
        import logging

        logging.getLogger(__name__).warning(
            "hamming_near_dup_pairs: %d oversize buckets dropped", n_dropped)
    out = (out.sort_values(["a", "b"]).reset_index(drop=True)
           .astype({"a": np.int64, "b": np.int64, "hamming": np.int64}))
    out.attrs["dropped_buckets"] = n_dropped
    return out


def sign_codes(mat: np.ndarray, nbits: int = 32) -> np.ndarray:
    """(N, d) embedding matrix -> (N,) uint64 sign codes: bit i set iff
    component i > 0 (the SQL-expressible LSH family: one hyperplane per
    axis). ``nbits <= min(d, 64)``."""
    if mat.shape[1] < nbits:
        raise ValueError(f"need >= {nbits} dims, got {mat.shape[1]}")
    bits = (mat[:, :nbits] > 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(nbits, dtype=np.uint64)
    return bits @ weights


def embedding_sign_code_fn(emb_col: str = "embedding", nbits: int = 32):
    """code_fn for :func:`hamming_near_dup_pairs` over a list<float>
    embedding column."""

    def fn(batch: pa.Table) -> np.ndarray:
        if batch.num_rows == 0:  # np.stack([]) raises; empty blocks happen
            return np.empty(0, dtype=np.uint64)
        mat = np.stack(batch[emb_col].to_numpy(zero_copy_only=False))
        return sign_codes(mat, nbits=nbits)

    return fn


# ids must stay NON-NEGATIVE: a < 0 is the dropped-bucket marker channel
# (split_candidates), so a sign-bit hashed id would be silently misread as
# a marker. 63-bit ids keep collisions ~2^-63.
_SIGN_OFF = np.uint64(0x7FFFFFFFFFFFFFFF)


def str_id64(strings: list) -> np.ndarray:
    """String ids -> non-negative int64 ids for the pair/marker protocol."""
    from ..functions.hashing import hash64_str_array

    return to_int64(hash64_str_array(strings) & _SIGN_OFF)


def phash_near_dup_pairs(ds, code_col: str = "phash",
                         id_col: str = "image_id", max_hamming: int = 3,
                         **kw) -> pd.DataFrame:
    """Image near-dup by perceptual-hash Hamming distance, with STRING ids
    (the corpus's image_id): ids are mapped to int64 via hash64, pairs are
    generated distributed, and only the RESULT pairs' ids are resolved back
    by one broadcast-probe scan of the skinny (id, code) projection — the
    corpus never transits the driver.

    Returns (a, b, hamming) with the original string ids, a < b.
    """
    import pyarrow.compute as pc

    def add_id64(batch: pa.Table) -> pa.Table:
        return pa.table({code_col: batch[code_col],
                         "__id64": str_id64(batch[id_col].to_pylist())})

    skinny = ds.map_batches(add_id64, batch_format="pyarrow")
    pairs = hamming_near_dup_pairs(skinny, code_col=code_col,
                                   id_col="__id64",
                                   max_hamming=max_hamming, **kw)
    if pairs.empty:
        return pd.DataFrame({"a": pd.Series([], dtype=object),
                             "b": pd.Series([], dtype=object),
                             "hamming": pd.Series([], dtype=np.int64)})
    import ray

    hit64 = pa.array(np.unique(np.concatenate(
        [pairs["a"].to_numpy(), pairs["b"].to_numpy()])))
    ref = ray.put(hit64)

    def probe(batch: pa.Table) -> pa.Table:
        id64 = pa.array(str_id64(batch[id_col].to_pylist()))
        t = pa.table({id_col: batch[id_col], "__id64": id64})
        return t.filter(pc.is_in(t["__id64"], value_set=ray.get(ref)))

    lookup = ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    name = dict(zip(lookup["__id64"], lookup[id_col]))
    out = pd.DataFrame({"a": pairs["a"].map(name), "b": pairs["b"].map(name),
                        "hamming": pairs["hamming"]})
    swap = out["a"] > out["b"]  # restore a < b in STRING order
    out.loc[swap, ["a", "b"]] = out.loc[swap, ["b", "a"]].to_numpy()
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    out.attrs["dropped_buckets"] = pairs.attrs.get("dropped_buckets", 0)
    return out
