"""Similarity search over an embedding column (list<float>).

- ``topk_cosine``: brute-force baseline — the query matrix is broadcast
  once with ``ray.put`` and every batch does one float64 matmul; per-batch
  local top-k candidates are merged into the global top-k (only
  n_queries x k x n_blocks candidate rows ever reach the merge, never the
  corpus).
- ``lsh_topk_cosine``: the scale path — random-hyperplane LSH buckets
  (signed projections -> b-bit code); probing only buckets within Hamming
  radius of the query's code bounds the scanned fraction.
- ``cosine_neardup_pairs``: all pairs above a cosine threshold (embedding
  near-dup), blocked matmul.

All math in float64 (cast from the stored float32) so results are
deterministic and match the DuckDB ``list_cosine_similarity`` oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .broadcast import collect_table


def _to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def topk_cosine(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """Global top-k cosine neighbours per query vector.

    Returns columns (q_id, vec_id, rank) with rank 1..k ordered by
    (similarity desc, vec_id asc) — the deterministic tie rule.
    """
    import ray

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    qref = ray.put(qn)

    def local_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(qref)
        m = _normalize(_to_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy()
        sims = q @ m.T  # (nq, nb)
        take = min(k, sims.shape[1])
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[0]):
            s = sims[qi]
            # partial select then exact ordering with the tie rule
            cand = np.argpartition(-s, take - 1)[:take] if take < len(s) else np.arange(len(s))
            order = np.lexsort((ids[cand], -s[cand]))
            sel = cand[order]
            out_q.extend([int(query_ids[qi])] * len(sel))
            out_id.extend(ids[sel].tolist())
            out_sim.extend(s[sel].tolist())
        return pa.table({"q_id": pa.array(out_q, pa.int64()),
                         id_col: pa.array(out_id, pa.int64()),
                         "sim": pa.array(out_sim, pa.float64())})

    cands = ds.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    return _merge_topk(cands, k, id_col)


def _merge_topk(cands: pd.DataFrame, k: int, id_col: str) -> pd.DataFrame:
    """Merge per-block candidate rows into the global top-k per query —
    vectorized (sort + groupby head + cumcount), no per-query Python."""
    if cands.empty:
        return pd.DataFrame({"q_id": [], id_col: [], "rank": []}).astype(np.int64)
    top = (cands.sort_values(["q_id", "sim", id_col],
                             ascending=[True, False, True], kind="mergesort")
           .groupby("q_id", sort=True).head(k).copy())
    top["rank"] = top.groupby("q_id").cumcount() + 1
    return top[["q_id", id_col, "rank"]].astype(np.int64).reset_index(drop=True)


# cosine_neardup_pairs_ds: corpora up to this many rows take the exact
# block-pair route under route="auto" (read at call time)
EXACT_MAX_ROWS = 200_000


def cosine_neardup_pairs_ds(ds, threshold: float = 0.9,
                            id_col: str = "vec_id",
                            vec_col: str = "embedding",
                            block_rows: int = 8192, route: str = "auto",
                            bands: int = 16, band_bits: int | None = None,
                            seed: int = 7):
    """Distinct (a < b, int64) pairs with cosine >= threshold, as a
    DATASET — pairs never transit the driver (round-3 verdict #4). Two
    routes, picked by corpus size under ``route="auto"``:

    - **exact** (corpus <= ``EXACT_MAX_ROWS``): block-pair self-join. The
      corpus packs into ~N/block_rows normalized (ids, matrix) object-store
      blocks (the driver streams one batch at a time while packing); one
      Ray task per block pair (i <= j) does the matmul and RETURNS ITS
      pa.Table of found pairs, and the tables become the result via
      ``from_arrow_refs`` — the driver holds ObjectRefs only. O(B^2) tasks
      is inherent to exact low-threshold pair generation, hence the cap.
    - **signcode** (above the cap): ``bands`` bands of ``band_bits``
      random-hyperplane signs each; a pair is a candidate iff some band
      matches exactly (stages/hamming.py::band_pairs_ds — skinny shuffles,
      bucket caps), then ONLY the candidates are verified with exact
      float64 cosine (one broadcast of the candidate vectors). Precision
      is exact; recall follows the LSH banding curve
      ``1 - (1 - (1-p)^r)^B`` with ``p = arccos(threshold)/pi`` (reported
      as ``info["est_recall_at_threshold"]``; pairs ABOVE the threshold
      recall higher). ``band_bits`` defaults to ``log2(corpus) - 4``
      clamped to [8, 20], so expected bucket size stays O(16) regardless
      of corpus size. A pigeonhole Hamming-ball route was structurally
      WRONG here (review finding): a cosine-0.9 radius spans ~a third of
      the code bits, forcing 1-3-bit chunks whose buckets all blow past
      the cap — banding is the published shape for high-radius codes.
      This is the 100-TB default; run the exact route on samples to audit
      recall.

    Returns ``(pairs_ds, info)`` where info carries route/telemetry
    (including ``dropped_buckets`` — callers must surface it). The exact
    route collects no corpus-derived rows on the driver (pairs stay in the
    object store as ObjectRef[Table]); the signcode route collects only
    ``info["n_candidate_ids"]`` candidate ids — never O(corpus).
    """
    import ray
    import ray.data as rd

    n_total = ds.count()
    use_exact = route == "exact" or (route == "auto"
                                     and n_total <= EXACT_MAX_ROWS)
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})

    if use_exact:
        packed = []
        for batch in ds.select_columns([id_col, vec_col]).iter_batches(
                batch_size=block_rows, batch_format="pyarrow"):
            ids = batch[id_col].to_numpy().astype(np.int64)
            m = _normalize(_to_matrix(batch[vec_col]))
            packed.append(ray.put((ids, m)))

        @ray.remote(num_cpus=1)
        def compare(a_blk, b_blk, same: bool) -> pa.Table:
            ids_a, m_a = a_blk
            ids_b, m_b = b_blk
            sims = m_a @ m_b.T
            ai, bi = np.nonzero(sims >= threshold)
            lo = np.minimum(ids_a[ai], ids_b[bi])
            hi = np.maximum(ids_a[ai], ids_b[bi])
            keep = lo < hi  # drops self-pairs
            if same:
                keep &= ids_a[ai] < ids_b[bi]  # each unordered pair once
            return pa.table({"a": pa.array(lo[keep], pa.int64()),
                             "b": pa.array(hi[keep], pa.int64())})

        refs = [compare.remote(packed[i], packed[j], i == j)
                for i in range(len(packed)) for j in range(i, len(packed))]
        pairs = (rd.from_arrow_refs(refs) if refs else rd.from_arrow(empty))
        return pairs, {"route": "exact", "n_blocks": len(packed)}

    # ---- signcode route: banded-LSH candidates + exact cosine verify
    from .hamming import band_pairs_ds

    p_flip = float(np.arccos(np.clip(threshold, -1.0, 1.0)) / np.pi)
    if band_bits is None:
        band_bits = int(np.clip(
            np.ceil(np.log2(max(n_total, 2))) - 4, 8, 20))
    est_recall = float(
        1.0 - (1.0 - (1.0 - p_flip) ** band_bits) ** bands)

    def band_fn(batch: pa.Table) -> np.ndarray:
        if batch.num_rows == 0:
            return np.empty((0, bands), dtype=np.uint64)
        m = _normalize(_to_matrix(batch[vec_col]))
        # planes regenerated per batch from the fixed seed: deterministic
        # and identical across tasks, no broadcast needed (B*r x d floats)
        planes = np.random.default_rng(seed).normal(
            size=(bands * band_bits, m.shape[1]))
        signs = (m @ planes.T) > 0  # (N, B*r)
        w = np.uint64(1) << np.arange(band_bits, dtype=np.uint64)
        return signs.reshape(len(m), bands, band_bits).astype(np.uint64) @ w

    cand_ds, n_dropped = band_pairs_ds(
        ds.select_columns([id_col, vec_col]), band_fn, id_col=id_col)

    # candidate ids (bounded by candidate count, NOT corpus) -> one
    # filtered corpus scan collects their vectors for the broadcast verify
    need: set[int] = set()
    for t in cand_ds.select_columns(["a", "b"]).iter_batches(
            batch_format="pyarrow"):
        need.update(t["a"].to_pylist())
        need.update(t["b"].to_pylist())
    if not need:
        return rd.from_arrow(empty), {
            "route": "signcode", "bands": bands, "band_bits": band_bits,
            "est_recall_at_threshold": est_recall,
            "dropped_buckets": n_dropped, "n_candidate_ids": 0}
    need_arr = pa.array(sorted(need), pa.int64())
    need_ref = ray.put(need_arr)

    def collect(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sel = t.filter(pc.is_in(t[id_col], value_set=ray.get(need_ref)))
        return pa.table({id_col: sel[id_col], vec_col: sel[vec_col]})

    vec_tab = collect_table(
        ds.select_columns([id_col, vec_col])
        .map_batches(collect, batch_format="pyarrow"),
        pa.schema([(id_col, pa.int64()), (vec_col, pa.list_(pa.float64()))]))
    ids_v = vec_tab[id_col].combine_chunks().to_numpy().astype(np.int64)
    mat_v = _normalize(_to_matrix(vec_tab[vec_col]))
    order = np.argsort(ids_v)  # searchsorted below needs sorted ids
    vref = ray.put((ids_v[order], mat_v[order]))

    def verify(t: pa.Table) -> pa.Table:
        iv, mv = ray.get(vref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        ia = np.searchsorted(iv, a)
        ib = np.searchsorted(iv, b)
        sims = np.einsum("ij,ij->i", mv[ia], mv[ib])
        keep = sims >= threshold
        return pa.table({"a": pa.array(a[keep], pa.int64()),
                         "b": pa.array(b[keep], pa.int64())})

    pairs = cand_ds.select_columns(["a", "b"]).map_batches(
        verify, batch_format="pyarrow")
    return pairs, {"route": "signcode", "bands": bands,
                   "band_bits": band_bits,
                   "est_recall_at_threshold": est_recall,
                   "dropped_buckets": n_dropped,
                   "n_candidate_ids": len(need)}


def cosine_neardup_pairs(ds, threshold: float = 0.9, id_col: str = "vec_id",
                         vec_col: str = "embedding",
                         block_rows: int = 8192,
                         **kw) -> pd.DataFrame:
    """:func:`cosine_neardup_pairs_ds` collected to a sorted (a, b)
    DataFrame — for bounded contexts (tests, oracle gates) where the pair
    list is known to fit the driver."""
    pairs_ds, info = cosine_neardup_pairs_ds(
        ds, threshold=threshold, id_col=id_col, vec_col=vec_col,
        block_rows=block_rows, **kw)
    if info.get("dropped_buckets"):
        import logging

        logging.getLogger(__name__).warning(
            "cosine_neardup_pairs: %d oversize LSH buckets dropped — "
            "recall is reduced; raise max_bucket or band_bits",
            info["dropped_buckets"])
    out = pairs_ds.to_pandas().reindex(columns=["a", "b"])
    out = (out.sort_values(["a", "b"]).reset_index(drop=True)
           .astype({"a": np.int64, "b": np.int64}))
    out.attrs["info"] = info
    return out


# ------------------------------------------------------------------ IVF
def kmeans_fit(m: np.ndarray, k: int, n_iter: int = 10, seed: int = 11) -> np.ndarray:
    """Deterministic Lloyd's k-means on normalized vectors -> (k, d) centroids.

    Fits on a sample driver-side (centroid count is small); assignment is
    distributed. Empty clusters are re-seeded deterministically."""
    rng = np.random.default_rng(seed)
    n = len(m)
    centroids = m[rng.choice(n, size=min(k, n), replace=False)].copy()
    for _ in range(n_iter):
        sims = m @ centroids.T
        assign = sims.argmax(axis=1)
        for c in range(len(centroids)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    centroids[c] = v / nv
            else:
                centroids[c] = m[int(rng.integers(0, n))]
    return centroids


def ivf_topk_cosine(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                    n_clusters: int = 16, n_probe: int = 4, seed: int = 11,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    train_sample: int = 10_000) -> pd.DataFrame:
    """IVF approximate top-k: rows are bucketed by nearest centroid; each
    query scans only its ``n_probe`` closest clusters. Same output schema
    as ``topk_cosine``. The scanned fraction is ~n_probe/n_clusters.

    Training samples ~``train_sample`` rows via DETERMINISTIC hash-based
    row sampling (splitmix of the id column modulo a rate computed from a
    cheap count) — a distributed filter pass, not a head-of-dataset
    ``limit`` whose sample would be one storage shard's rows; only the
    sampled rows reach the driver (centroids are tiny)."""
    import ray

    from ..functions.hashing import splitmix64

    # ONE upstream execution: materialize the skinny projection, then the
    # count is metadata and both the sampling scan and the query scan read
    # the materialized blocks (a lazy ds would re-execute its whole
    # pipeline three times — CLAUDE.md lazy-double-execution lesson)
    ds = ds.select_columns([id_col, vec_col]).materialize()
    n_total = ds.count()
    rate = max(1, n_total // max(1, train_sample))

    def pick(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.uint64)
        keep = (splitmix64(ids ^ np.uint64(seed)) % np.uint64(rate)) == 0
        return t.filter(pa.array(keep))

    sample = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    if len(sample) == 0:
        sample = ds.limit(min(train_sample, n_total)).to_pandas()
    # id-sorted training rows: kmeans' float sums are order-sensitive, and
    # block arrival order is not part of the contract — sorting makes the
    # centroids (hence recall) a pure function of (data, params, seed)
    sample = sample.sort_values(id_col, kind="mergesort")
    m_train = _normalize(
        np.stack([np.asarray(v, dtype=np.float64) for v in sample[vec_col]]))
    centroids = kmeans_fit(m_train, n_clusters, seed=seed)

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_clusters = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probe]
    ref = ray.put((qn, q_clusters, centroids))

    def local(batch: pa.Table) -> pa.Table:
        q, qc, cents = ray.get(ref)
        m = _normalize(_to_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy()
        assign = (m @ cents.T).argmax(axis=1)
        out_q, out_id, out_sim = [], [], []
        for qi in range(len(q)):
            mask = np.isin(assign, qc[qi])
            if not mask.any():
                continue
            s = q[qi] @ m[mask].T
            sub_ids = ids[mask]
            take = min(k, len(s))
            cand = np.argpartition(-s, take - 1)[:take] if take < len(s) else np.arange(len(s))
            order = np.lexsort((sub_ids[cand], -s[cand]))
            sel = cand[order]
            out_q.extend([int(query_ids[qi])] * len(sel))
            out_id.extend(sub_ids[sel].tolist())
            out_sim.extend(s[sel].tolist())
        return pa.table({"q_id": pa.array(out_q, pa.int64()),
                         id_col: pa.array(out_id, pa.int64()),
                         "sim": pa.array(out_sim, pa.float64())})

    cands = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    return _merge_topk(cands, k, id_col)


# ------------------------------------------------------------------ LSH
def hyperplane_codes(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(N, d) vectors x (b, d) hyperplanes -> (N,) uint64 sign codes."""
    signs = (m @ planes.T) > 0
    bits = (np.uint64(1) << np.arange(planes.shape[0], dtype=np.uint64))
    return (signs.astype(np.uint64) * bits[None, :]).sum(axis=1)


def lsh_topk_cosine(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                    n_planes: int = 12, probe_hamming: int = 2, seed: int = 7,
                    n_tables: int = 1,
                    id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """Approximate top-k: scan only rows whose LSH code is within
    ``probe_hamming`` of the query's code in ANY of ``n_tables`` independent
    hyperplane tables (the classic multi-table recall lever — each table's
    candidate set misses independently, so the union's miss rate decays
    geometrically). Same output schema as ``topk_cosine`` (q_id, vec_id,
    rank); scanned fraction grows ~linearly with ``n_tables``."""
    import ray

    d = np.asarray(queries).shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(n_tables, n_planes, d))
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    qcodes = np.stack([hyperplane_codes(qn, planes[t]) for t in range(n_tables)])
    ref = ray.put((qn, qcodes, planes))

    from ..functions.phash import hamming_batch

    def local(batch: pa.Table) -> pa.Table:
        q, qc, pl = ray.get(ref)
        m = _normalize(_to_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy()
        codes = np.stack([hyperplane_codes(m, pl[t]) for t in range(len(pl))])
        out_q, out_id, out_sim = [], [], []
        for qi in range(len(q)):
            mask = np.zeros(len(ids), dtype=bool)
            for t in range(len(pl)):
                mask |= (hamming_batch(codes[t], np.full(len(ids), qc[t, qi],
                                                         dtype=np.uint64))
                         <= probe_hamming)
            if not mask.any():
                continue
            s = q[qi] @ m[mask].T
            sub_ids = ids[mask]
            take = min(k, len(s))
            cand = np.argpartition(-s, take - 1)[:take] if take < len(s) else np.arange(len(s))
            order = np.lexsort((sub_ids[cand], -s[cand]))
            sel = cand[order]
            out_q.extend([int(query_ids[qi])] * len(sel))
            out_id.extend(sub_ids[sel].tolist())
            out_sim.extend(s[sel].tolist())
        return pa.table({"q_id": pa.array(out_q, pa.int64()),
                         id_col: pa.array(out_id, pa.int64()),
                         "sim": pa.array(out_sim, pa.float64())})

    cands = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    return _merge_topk(cands, k, id_col)
