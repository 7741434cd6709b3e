"""Property test for the store snapshot lifecycle (ObjectStore's
whole-store snapshot reads).

Random sequences of partition ops — append / delete-view / merge_insert /
rewrite / whole-partition overwrite / drop — replayed on a plain local
path and on memory:// against an independent
dict-based model. After every op the whole-store snapshot
(``read_table()`` content and ``rows()``) must match the model exactly.

The modeled rule: every pid carries a SHADOW SET (the view's base plus
anything inherited); whatever writer replaces the pid, the shadow set
only grows until the pid is dropped. The snapshot is the union of the
non-shadowed pids, each read with its own view semantics.

Generator restrictions mirror the engine's real usage: a partition that
is the base of a live view is never mutated or dropped (a view's
manifest row count snapshots the base at commit time). Upserts and
rewrites of a view, chained or not, materialize it through every link.
"""

import uuid

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings, strategies as st

from logcrawler_ray.sources.objstore import ObjectStore

PIDS = ["p0", "p1", "p2", "p3"]
IDS = [f"k{i}" for i in range(6)]


class Model:
    """Independent (intentionally naive) snapshot semantics.

    parts: pid -> ("plain", {id: v}, sup) | ("view", base, keys, sup)
    where ``sup`` is the pid's inherited shadow set (frozenset).
    """

    def __init__(self):
        self.parts: dict[str, tuple] = {}

    def read(self, pid: str) -> dict:
        p = self.parts[pid]
        if p[0] == "plain":
            return dict(p[1])
        return {k: v for k, v in self.read(p[1]).items() if k not in p[2]}

    def shadowed(self) -> set:
        out = set()
        for p in self.parts.values():
            if p[0] == "view":
                out.add(p[1])
            out |= set(p[-1])
        return out

    def snapshot(self) -> list[tuple]:
        sh = self.shadowed()
        rows = []
        for pid in self.parts:
            if pid not in sh:
                rows.extend(self.read(pid).items())
        return sorted(rows)

    def bases(self) -> set:
        return {p[1] for p in self.parts.values() if p[0] == "view"}

    def shadow_of(self, pid: str) -> frozenset:
        """What replaces ``pid`` must keep shadowing (grow-only rule)."""
        if pid not in self.parts:
            return frozenset()
        p = self.parts[pid]
        return (frozenset([p[1]]) | p[3]) if p[0] == "view" else p[2]


def _table(rows: dict) -> pa.Table:
    ids = sorted(rows)
    return pa.table({"image_id": ids,
                     "v": [rows[i] for i in ids]},
                    schema=pa.schema([("image_id", pa.string()),
                                      ("v", pa.int64())]))


def _apply(store, model: Model, op) -> None:
    kind = op[0]
    if kind == "append":
        _, pid, rows = op
        if pid in model.bases():
            return  # never overwrite a live view's base
        keep = model.shadow_of(pid)
        store.append_table(pid, _table(rows))
        model.parts[pid] = ("plain", dict(rows), keep)
    elif kind == "view":
        _, pid, base, keys = op
        if base not in model.parts or base == pid or pid in model.bases():
            return
        keep = model.shadow_of(pid) - {base}
        present = set(model.read(base))
        dele = sorted(set(keys) & present)
        store.commit_delete_view(pid, base, dele, key_col="image_id")
        model.parts[pid] = ("view", base, frozenset(dele), keep)
    elif kind == "upsert":
        _, pid, rows = op
        if pid not in model.parts or pid in model.bases():
            return
        keep = model.shadow_of(pid)
        store.merge_insert(pid, _table(rows), key="image_id")
        merged = model.read(pid)
        merged.update(rows)
        model.parts[pid] = ("plain", merged, keep)
    elif kind == "rewrite":
        _, pid = op
        if pid not in model.parts or pid in model.bases():
            return
        keep = model.shadow_of(pid)

        def bump(t: pa.Table) -> pa.Table:
            return t.set_column(t.schema.get_field_index("v"), "v",
                                pc.add(t["v"], 100))

        store.rewrite_partition(pid, bump)
        model.parts[pid] = ("plain",
                            {k: v + 100 for k, v in model.read(pid).items()},
                            keep)
    elif kind == "drop":
        _, pid = op
        if pid not in model.parts or pid in model.bases():
            return
        store.drop_partition(pid)
        del model.parts[pid]


_rows = st.dictionaries(st.sampled_from(IDS),
                        st.integers(min_value=0, max_value=9),
                        min_size=1, max_size=4)
_op = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(PIDS), _rows),
    st.tuples(st.just("view"), st.sampled_from(PIDS), st.sampled_from(PIDS),
              st.lists(st.sampled_from(IDS), max_size=3)),
    st.tuples(st.just("upsert"), st.sampled_from(PIDS), _rows),
    st.tuples(st.just("rewrite"), st.sampled_from(PIDS)),
    st.tuples(st.just("drop"), st.sampled_from(PIDS)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=10))
def test_snapshot_matches_model(tmp_path_factory, ops):
    root = tmp_path_factory.mktemp("snap")
    for store in (ObjectStore(str(root / f"loc-{uuid.uuid4().hex}")),
                  ObjectStore(f"memory://snap-{uuid.uuid4().hex}")):
        model = Model()
        for op in ops:
            _apply(store, model, op)
            expect = model.snapshot()
            t = store.read_table(columns=["image_id", "v"])
            got = (sorted(zip(t["image_id"].to_pylist(), t["v"].to_pylist()))
                   if t.num_columns else [])
            assert got == expect, (op, ops)
            assert store.rows() == len(expect), (op, ops)
