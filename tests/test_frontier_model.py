"""Property test: ``FrontierShard`` against a heap-of-entries model.

``HeapFrontier`` below is the frontier as it was first written: a binary
heap of entries popped one at a time, the politeness budget applied per
popped entry. It is kept here, test-only, as the executable definition of
the frontier's semantics. Hypothesis drives both through the same random
push / drain / crawl-delay / snapshot-restore sequences; every drain must
emit the same rows with the same fetch times, and the budgets, queue
lengths, seq counters and queued entries must stay equal.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from logcrawler_ray.state import frontier as frontier_mod
from logcrawler_ray.state.frontier import FrontierShard
from logcrawler_ray.state.politeness import HostBudget


@dataclass(order=True)
class _Entry:
    priority: int
    next_fetch_time: int
    seq: int
    url: str = field(compare=False)
    host: str = field(compare=False)
    depth: int = field(compare=False, default=0)


class HeapFrontier:
    """The model: (priority, next_fetch_time, seq) min-heap."""

    def __init__(self, shard_id: int = 0, n_shards: int = 1):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.heap: list[_Entry] = []
        self.next_seq = shard_id

    def push(self, rows: list[dict]) -> None:
        for r in rows:
            heapq.heappush(self.heap, _Entry(
                int(r.get("priority", 0)), int(r.get("next_fetch_time", 0)),
                self.next_seq, r["url"], r["host"], int(r.get("depth", 0))))
            self.next_seq += self.n_shards

    def __len__(self) -> int:
        return len(self.heap)

    def drain(self, budget, now: int, max_n: int, horizon: int):
        emitted: list[dict] = []
        deferred: list[_Entry] = []
        new_now = now
        while self.heap and len(emitted) < max_n:
            e = heapq.heappop(self.heap)
            t = budget.peek(e.host, max(now, e.next_fetch_time))
            if t > now + horizon:
                e.next_fetch_time = t
                deferred.append(e)
                continue
            budget.commit(e.host, t)
            new_now = max(new_now, t)
            emitted.append({
                "url": e.url, "host": e.host, "priority": e.priority,
                "depth": e.depth, "seq": e.seq, "fetch_time": t,
            })
        for e in deferred:
            heapq.heappush(self.heap, e)
        return emitted, new_now

    def entries(self) -> list[tuple]:
        return [(e.priority, e.next_fetch_time, e.seq, e.url, e.host, e.depth)
                for e in sorted(self.heap)]


def _push(f: FrontierShard, rows: list[dict]) -> None:
    f.push(pa.Table.from_pylist(rows))


def _drain(f: FrontierShard, budget, now, max_n, horizon):
    rows, t = f.drain(budget, now, max_n, horizon)
    return rows.to_pylist(), t


def _entries(f: FrontierShard) -> list[tuple]:
    """Queued entries in total order, read through a restored copy drained
    one entry at a time, each against a fresh budget."""
    copy = FrontierShard.from_state(f.state())
    out = []
    while len(copy):
        (r,), _ = _drain(copy, HostBudget(), 0, 1, 1 << 60)
        out.append((r["priority"], r["fetch_time"], r["seq"], r["url"],
                    r["host"], r["depth"]))
    return out


HOSTS = ["a.test", "b.test", "c.test", "d.test"]

_row = st.fixed_dictionaries({
    "host": st.sampled_from(HOSTS),
    "priority": st.integers(0, 3),
    "depth": st.integers(0, 3),
    "next_fetch_time": st.sampled_from([0, 0, 0, 50, 400, 2_000]),
})
_op = st.one_of(
    st.tuples(st.just("push"), st.lists(_row, max_size=12)),
    st.tuples(st.just("drain"), st.integers(0, 600), st.integers(0, 12),
              st.sampled_from([0, 90, 250, 1_000, 10_000])),
    st.tuples(st.just("delay"), st.sampled_from(HOSTS),
              st.sampled_from([0, 40, 100, 500])),
    st.tuples(st.just("restore")),
)


@settings(max_examples=200, deadline=None)
@given(shard=st.sampled_from([(0, 1), (1, 4), (2, 3)]),
       chunk=st.sampled_from([1, 3, None]),
       ops=st.lists(_op, min_size=1, max_size=25))
def test_frontier_matches_heap_model(shard, chunk, ops):
    """``chunk`` (None: the real first step) forces the first chunk of
    each drain's walk, so small values carry the budget across many
    chunks."""
    with _walk(chunk) as passes:
        _run_against_model(shard, ops, passes)


@contextmanager
def _walk(chunk: int | None):
    """Force each drain's first chunk to ``chunk`` entries; yields the
    list of entries each ``_budget_pass`` consumed, in call order."""
    first_step, budget_pass = frontier_mod._first_step, frontier_mod._budget_pass
    passes: list[int] = []

    def counted(*a, **k):
        out = budget_pass(*a, **k)
        passes.append(out[0])
        return out

    frontier_mod._budget_pass = counted
    if chunk is not None:
        frontier_mod._first_step = lambda max_n: chunk
    try:
        yield passes
    finally:
        frontier_mod._first_step = first_step
        frontier_mod._budget_pass = budget_pass


def test_budget_carries_across_chunks():
    """A throttled host's entries drained in chunks of 1, 2, 4 entries get
    the same spaced fetch times as the model's one-at-a-time pass."""
    rows = [{"url": f"http://a.test/{i}", "host": "a.test"} for i in range(6)]
    rows.insert(3, {"url": "http://b.test/0", "host": "b.test"})
    f, model = FrontierShard(), HeapFrontier()
    _push(f, rows)
    model.push(rows)
    fb, mb = HostBudget(), HostBudget()
    fb.delays["a.test"] = mb.delays["a.test"] = 100
    with _walk(1) as passes:
        got, t = _drain(f, fb, 0, 7, 350)
    want, t_model = model.drain(mb, 0, 7, 350)
    assert passes == [1, 2, 4]
    assert [r["fetch_time"] for r in got] == [0, 100, 200, 0, 300]
    assert (got, t) == (want, t_model)
    assert fb.state() == mb.state()
    assert _entries(f) == model.entries()


def _run_against_model(shard, ops, passes: list[int]):
    f, model = FrontierShard(*shard), HeapFrontier(*shard)
    fb, mb = HostBudget(), HostBudget()
    now = n_urls = 0
    for op in ops:
        if op[0] == "push":
            rows = []
            for r in op[1]:
                rows.append({"url": f"http://{r['host']}/p/{n_urls}", **r})
                n_urls += 1
            _push(f, rows)
            model.push(rows)
        elif op[0] == "drain":
            now += op[1]
            passes.clear()
            got, t = _drain(f, fb, now, op[2], op[3])
            if passes:  # the walk doubles from the first step
                step = frontier_mod._first_step(op[2])
                assert passes[0] <= step
                assert all(u <= step << i for i, u in enumerate(passes))
                assert len(passes) == 1 or passes[0] == step
            want, t_model = model.drain(mb, now, op[2], op[3])
            assert got == want
            assert t == t_model
        elif op[0] == "delay":
            fb.delays[op[1]] = mb.delays[op[1]] = op[2]
        else:
            f = FrontierShard.from_state(f.state())
        assert len(f) == len(model)
        assert f.next_seq == model.next_seq
        assert fb.state() == mb.state()
    assert _entries(f) == model.entries()


@settings(max_examples=100, deadline=None)
@given(runs=st.lists(st.lists(st.integers(-2**40, 2**40), min_size=1,
                              max_size=6), min_size=1, max_size=6),
       huge=st.booleans())
def test_segmented_running_max(runs, huge):
    """The one-pass lifted running max equals a per-segment loop, and so
    does its fallback when the lift would overflow int64."""
    v = np.array([x for r in runs for x in r], np.int64)
    if huge:
        v[0] = -2**62
    seg = np.repeat(np.arange(len(runs)), [len(r) for r in runs])
    want = np.concatenate([np.maximum.accumulate(np.array(r, np.int64))
                           for r in runs])
    if huge:
        want[:len(runs[0])] = np.maximum.accumulate(v[:len(runs[0])])
    assert (frontier_mod._seg_cummax(v, seg) == want).all()
