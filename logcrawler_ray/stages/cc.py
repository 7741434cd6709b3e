"""Connected components over near-dup pair graphs (cluster labeling).

Near-dup detectors (stages/hamming.py, dedup_text.py, ann.py) emit PAIRS;
turning pairs into "keep one representative per duplicate CLUSTER" needs
the transitive closure — a pair graph's connected components, labeled by
each component's minimum id (the same first-wins rule as exact dedup,
stages/dedup.py). Two paths:

- :func:`cc_labels_df` — driver-side vectorized min-propagation with
  pointer jumping over the bounded pair DataFrames the detectors return
  (their bucket caps bound the pair count). O((E+V) log V) numpy.

- :func:`cc_labels_dataset` — distributed rounds for pair graphs too
  large to hold: the alternating two-phase star contraction of Kiveris
  et al., "Connected Components in MapReduce and Beyond" (SoCC'14 —
  public algorithm). Each round is one LARGE-STAR step (every node
  hangs its larger neighbors off its minimum neighbor) then one
  SMALL-STAR step (every node re-points its smaller neighbors and
  itself at the minimum), each a single skinny (int64, int64) shuffle;
  the alternation provably converges to a min-rooted star forest in
  O(log^2 n) rounds — even path graphs, the worst case for plain
  min-propagation. Convergence is detected by an order-insensitive
  edge-set checksum; ``max_rounds`` guards pathological inputs with a
  loud error, never a wrong answer.

No step materializes the node set on the driver in the dataset path:
per-node minima are computed inside coarse :func:`cogroup` buckets of u
(vectorized run scans within — the repo's standard many-small-keys
shape, CLAUDE.md), not per node and not a driver broadcast.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.cogroup import N_BUCKETS, _runs, cogroup

_EDGES = pa.schema([("u", pa.int64()), ("v", pa.int64())])

# Input edges per co-group bucket of a cc round. Both star steps over 32K
# edges take ~28 ms on one core, and a bucket adds a reduce and a map task
# to each of the round's two co-groups (~6 ms a bucket at 8 Ray CPUs on
# one vCPU), so a small edge set runs its rounds in fewer buckets.
_EDGES_PER_BUCKET = 1 << 15


class CCNotConverged(RuntimeError):
    """cc_labels_dataset hit ``max_rounds`` before the edge set stabilized
    — raised loudly instead of returning partial components."""


def cc_labels_df(pairs: pd.DataFrame, a: str = "a", b: str = "b") -> pd.DataFrame:
    """(a, b) int64 pair DataFrame -> (node, component) labels for every
    node appearing in a pair; component = min node id of the component.

    Vectorized min-propagation: per edge, push min(label[u], label[v]) to
    both endpoints (np.minimum.at), then pointer-jump labels to their
    fixpoint — O(log V) sweeps, no per-edge Python.
    """
    if pairs.empty:
        return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                             "component": pd.Series([], dtype=np.int64)})
    nodes, inv = np.unique(
        np.concatenate([pairs[a].to_numpy(np.int64),
                        pairs[b].to_numpy(np.int64)]), return_inverse=True)
    e_a, e_b = inv[: len(pairs)], inv[len(pairs):]
    # labels are INDICES of the min-id node (nodes is sorted, so index
    # order == id order and min-index == min-id)
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        m = np.minimum(label[e_a], label[e_b])
        new = label.copy()
        np.minimum.at(new, e_a, m)
        np.minimum.at(new, e_b, m)
        while True:  # pointer jumping to the current fixpoint
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    return pd.DataFrame({"node": nodes, "component": nodes[label]})


def _edge_checksum(ds) -> tuple[int, int]:
    """(count, order-insensitive content checksum) of an (u, v) dataset.

    Per-BLOCK partials (one wrap-mod-2^64 sum + count per block, via
    map_batches over the materialized blocks — no shuffle), merged with a
    wrap-sum on the driver: Ray's native Sum aggregates in Python ints
    and overflows the int64 Arrow column for exactly this kind of
    hash-sum, so the partial path is both faster and type-stable."""

    def partial(t: pa.Table) -> pa.Table:
        from ..functions.hashing import splitmix64, to_uint64

        u = to_uint64(t["u"].to_numpy(zero_copy_only=False))
        v = to_uint64(t["v"].to_numpy(zero_copy_only=False))
        with np.errstate(over="ignore"):
            h = splitmix64(splitmix64(u) ^ v)
            s = np.uint64(h.sum(dtype=np.uint64))
        return pa.table({"n": pa.array([len(u)], pa.int64()),
                         "s": pa.array([np.int64(s.view(np.int64))], pa.int64())})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = int(sum(r["n"] for r in rows))
    with np.errstate(over="ignore"):
        s = np.uint64(0)
        for r in rows:
            s = s + np.uint64(np.int64(r["s"]).view(np.uint64))
    return n, int(s)


def cc_labels_dataset(edges_ds, a: str = "a", b: str = "b", *,
                      n_buckets: int = N_BUCKETS, max_rounds: int = 60):
    """Distributed connected components: (a, b) int64 edge Dataset ->
    (node, component) Dataset, component = min node id.

    Alternating star contraction (Kiveris et al., SoCC'14). Edges are
    kept DIRECTED big->small and distinct. Per round:

    - large-star: per node u over its full (symmetrized) neighborhood,
      m(u) = min(u, N(u)); every LARGER neighbor v > u re-hangs as
      (v, m(u)).
    - small-star: per node u over its smaller neighbors (directed
      edges), m(u) = min(N(u)); every smaller neighbor v != m(u)
      re-hangs as (v, m(u)), and u itself hangs as (u, m(u)).

    Both steps co-group rows on u in at most ``n_buckets`` coarse buckets
    (one per ``_EDGES_PER_BUCKET`` input edges) and compute the per-node
    minima vectorized inside each bucket. At the fixpoint
    the edge set IS the (node, component) star forest.
    """
    import ray.data as rd

    def norm(t: pa.Table) -> pa.Table:
        x = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = x != y
        x, y = x[keep], y[keep]
        return pa.table({"u": np.maximum(x, y), "v": np.minimum(x, y)})

    edges = edges_ds.map_batches(norm, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "component": pa.array([], pa.int64())}))
    # at least two: one bucket adds an always-empty sentinel partition
    n_buckets = min(n_buckets, max(2, edges.count() // _EDGES_PER_BUCKET))

    def symmetric(t: pa.Table) -> pa.Table:
        """Both directions of every edge, so large-star sees full
        neighborhoods."""
        return pa.concat_tables(
            [t, t.select(["v", "u"]).rename_columns(["u", "v"])])

    def star(t: pa.Table, large: bool) -> pa.Table:
        u, v = t["u"].to_numpy(), t["v"].to_numpy()
        order, starts, counts = _runs(u, v)
        u, v = u[order], v[order]
        m = np.repeat(v[starts], counts)  # min(N(u)) per row
        if large:  # m(u) = min(u, N(u)); larger neighbors re-hang on it
            keep = v > u
            nu, nv = v[keep], np.minimum(m, u)[keep]
        else:  # smaller neighbors re-hang; u itself hangs on m(u)
            keep = v != m
            nu = np.concatenate([v[keep], u[starts]])
            nv = np.concatenate([m[keep], m[starts]])
        order, starts, _ = _runs((nu, nv))  # distinct edges
        return pa.table({"u": nu[order[starts]], "v": nv[order[starts]]})

    prev = (-1, 0)
    for _round in range(max_rounds):
        ls = cogroup([(edges.map_batches(symmetric, batch_format="pyarrow"),
                       _EDGES)], "u", lambda t: star(t, large=True),
                     schema=_EDGES, n_buckets=n_buckets)
        edges = cogroup([(ls, _EDGES)], "u", lambda t: star(t, large=False),
                        schema=_EDGES, n_buckets=n_buckets).materialize()
        sig = _edge_checksum(edges)
        if sig == prev:
            # fixpoint: edges form the min-rooted star forest; emit the
            # leaves (u -> root) plus each root labeled as itself
            def labels(t: pa.Table) -> pa.Table:
                roots = np.unique(t["v"].to_numpy(zero_copy_only=False))
                return pa.table({
                    "node": np.concatenate(
                        [t["u"].to_numpy(zero_copy_only=False), roots]),
                    "component": np.concatenate(
                        [t["v"].to_numpy(zero_copy_only=False), roots]),
                })

            # only roots can repeat (identical (root, root) rows emitted
            # once per batch) — distinct via the coarse-bucket combine
            # (a native groupby pays per-group cost at node cardinality)
            from .hamming import distinct_pairs

            return distinct_pairs(
                edges.map_batches(labels, batch_format="pyarrow"),
                cols=("node", "component"))
        prev = sig
    raise CCNotConverged(f"no fixpoint after {max_rounds} rounds")


def cluster_losers_ds(pairs_ds, idmap_ds, *, id64_col: str = "__id64",
                      id_col: str = "image_id", n_buckets: int = N_BUCKETS,
                      max_rounds: int = 60):
    """Pair Dataset (int64 hashed ids) + (id64, string id) map Dataset ->
    Dataset of LOSER string ids under first-wins cluster dedup (the
    per-component lexicographic-MIN string id survives), fully
    distributed:

    1. :func:`cc_labels_dataset` labels every paired node;
    2. string ids attach to labels via a :func:`cogroup` on the id64 —
       ONE skinny (int64, string) shuffle of the corpus map, never a
       driver broadcast;
    3. per-component winners are picked inside coarse component buckets
       (sort by (component, id), first kept), vectorized.

    The driver never holds a node, a label, or a loser. id64 collisions
    (~2^-63 for :func:`..hamming.str_id64`) could merge two clusters —
    the standard hashed-id caveat, shared with the pair generator.
    """
    import pyarrow.compute as pc

    labels = cc_labels_dataset(pairs_ds, max_rounds=max_rounds)
    idmap = idmap_ds.rename_columns({id64_col: "node"})
    comp = pa.schema([("component", pa.int64()), (id_col, pa.string())])

    def attach(lab: pa.Table, m: pa.Table) -> pa.Table:
        idx = pc.index_in(lab["node"], value_set=m["node"].combine_chunks())
        ids = pc.take(m[id_col].combine_chunks(), idx)
        if ids.null_count:  # ADVICE r3: an idmap coverage gap (or id64
            # collision) must fail loudly, not commit null delete keys
            raise ValueError(
                f"cluster_losers_ds: {ids.null_count} paired node(s) have "
                f"no id in idmap_ds — idmap must cover every paired id")
        return pa.table({"component": lab["component"], id_col: ids})

    def losers(t: pa.Table) -> pa.Table:
        order, starts, _ = _runs(t["component"].to_numpy(),
                                 t[id_col].to_numpy(zero_copy_only=False))
        first = np.zeros(len(order), dtype=bool)
        first[starts] = True  # each component's min id survives
        return t.take(order[~first])

    comp_ids = cogroup(
        [(labels, pa.schema([("node", pa.int64()), ("component", pa.int64())])),
         (idmap, pa.schema([("node", pa.int64()), (id_col, pa.string())]))],
        "node", attach, schema=comp, n_buckets=n_buckets)
    return cogroup([(comp_ids, comp)], "component", losers,
                   schema=pa.schema([comp.field(id_col)]), n_buckets=n_buckets)


def neardup_losers(pairs: pd.DataFrame, a: str = "a", b: str = "b") -> frozenset:
    """Pair DataFrame -> ids to DROP under first-wins cluster dedup
    (everything but each component's min id) — the same loser-set shape
    stages/dedup.py broadcasts, so delete-vector commits apply unchanged."""
    lab = cc_labels_df(pairs, a=a, b=b)
    return frozenset(lab.loc[lab["node"] != lab["component"], "node"])
