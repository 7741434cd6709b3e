"""Frontier: (priority, next_fetch_time, seq) min-heap, host-hash sharded.

The reference's "frontier" is a sorted for-loop over logs — deterministic
order by construction (reference: 01_input_game_data.py:78-87 sorted
events, 02_combine_logs.py:227-230 sort by log_path, with ``--reverse`` as
manual two-human work sharing, 02:216-219). This module is the real
scheduler that degenerates to exactly that when priorities are equal and
politeness delays are zero: a total order

    (priority asc, next_fetch_time asc, seq asc)

where ``seq`` is the global admission number (assigned at enqueue, unique,
monotone per shard run) — the tie-breaker that makes parallel draining
reproducible.

``FrontierShard`` is plain Python, shared by the serial reference executor
and the engine's ``state/shard.py::ShardGroup``. Draining applies the
per-host politeness budget *in heap order*, deferring entries whose host is
throttled beyond the horizon — deterministic because the budget math is a
pure function of drain order (see politeness.py).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass(order=True)
class Entry:
    priority: int
    next_fetch_time: int
    seq: int
    url: str = field(compare=False)
    host: str = field(compare=False)
    depth: int = field(compare=False, default=0)


class FrontierShard:
    def __init__(self, shard_id: int = 0, n_shards: int = 1):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.heap: list[Entry] = []
        self.next_seq = shard_id  # interleaved seq spaces: shard_id + k*n_shards

    def push(self, rows: list[dict], seqs: list[int] | None = None) -> list[int]:
        """Enqueue url rows; assigns (and returns) admission seqs.

        Pass explicit ``seqs`` when restoring a snapshot.
        """
        out = []
        for i, r in enumerate(rows):
            seq = seqs[i] if seqs is not None else self.next_seq
            if seqs is None:
                self.next_seq += self.n_shards
            else:
                self.next_seq = max(self.next_seq, (seq // self.n_shards) * self.n_shards
                                    + self.shard_id + self.n_shards)
            heapq.heappush(self.heap, Entry(
                int(r.get("priority", 0)), int(r.get("next_fetch_time", 0)), seq,
                r["url"], r["host"], int(r.get("depth", 0))))
            out.append(seq)
        return out

    def __len__(self) -> int:
        return len(self.heap)

    def drain(self, budget, now: int, max_n: int, horizon: int) -> tuple[list[dict], int]:
        """Pop up to ``max_n`` entries in total order, assigning fetch times
        against ``budget`` (a HostBudget). Entries whose assigned time would
        exceed ``now + horizon`` are re-queued with that time as their new
        ``next_fetch_time`` instead of being emitted.

        Returns (emitted rows, new virtual now = max assigned fetch time).
        """
        emitted: list[dict] = []
        deferred: list[Entry] = []
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

    # -- snapshot ----------------------------------------------------------
    def state(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "next_seq": self.next_seq,
            "entries": [
                (e.priority, e.next_fetch_time, e.seq, e.url, e.host, e.depth)
                for e in sorted(self.heap)
            ],
        }

    @classmethod
    def from_state(cls, st: dict) -> "FrontierShard":
        obj = cls(st["shard_id"], st["n_shards"])
        obj.next_seq = st["next_seq"]
        obj.heap = [Entry(p, t, s, u, h, d) for p, t, s, u, h, d in st["entries"]]
        heapq.heapify(obj.heap)
        return obj
