"""CrawlShard — one self-contained control-plane shard: frontier heap +
politeness budget + URL-seen (bloom+cuckoo) + robots rules for the hosts
that hash to it.

This is the unit the north rule shards by host_hash: a host's URLs always
meet the same shard, so shards never coordinate. The SAME class runs
inside ``ShardGroup``s, which hold several shards in one process:

- the reference executor holds all shards in one group on the driver;
- the engine runs ``min(n_shards, cluster CPUs)`` groups. Several groups
  are actors (``make_shard_actor_cls``), so the process count follows the
  cluster's CPUs, not the shard count, and enqueue/drain of a wave
  parallelize across groups. One group (a one-CPU cluster) stays in the
  driver as a plain object (see ``CrawlState``).

Equivalence argument (tested): the engine routes each wave's links to
shards preserving per-shard relative order; seq spaces are interleaved per
shard (seq ≡ shard_id mod n_shards), budgets and seen state are
shard-local — so per-shard state evolution is independent of whether, and
how, the shards are grouped or execute concurrently. The merged drain
output, sorted by the global (priority, fetch_time, seq) order, is
therefore identical to the serial executor's.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import hash64_str_array
from .frontier import FrontierShard
from .politeness import HostBudget, RobotsCache
from .urlseen import GrowableSeen


class CrawlShard:
    def __init__(self, shard_id: int, n_shards: int, seen_capacity: int,
                 seed: int, robots_fetcher):
        self.shard_id = shard_id
        self.frontier = FrontierShard(shard_id, n_shards)
        self.budget = HostBudget()
        self.seen = GrowableSeen(seen_capacity, seed=seed + shard_id)
        self.robots = RobotsCache(robots_fetcher)

    def enqueue_routed_blocks(self, tables) -> int:
        """Shard-side ordered enqueue: ``tables`` are the wave's ROUTED link
        tables (columns seq, idx, url, host, path, depth, priority, shard),
        shared by every shard. The shard filters ITS rows, sorts them by
        (seq, idx) — the per-shard relative order IS the engine contract —
        and enqueues them, so the driver never touches a wave's links."""
        import pyarrow as pa
        import pyarrow.compute as pc

        mine = [b.filter(pc.equal(b["shard"], self.shard_id))
                for b in tables if b.num_rows]
        mine = [m for m in mine if m.num_rows]
        if not mine:
            return 0
        t = pa.concat_tables(mine)
        order = np.lexsort((t["idx"].to_numpy(), t["seq"].to_numpy()))
        t = t.take(pa.array(order))
        return self.enqueue_batch(list(zip(
            t["url"].to_pylist(), t["host"].to_pylist(),
            t["path"].to_pylist(), t["depth"].to_pylist(),
            t["priority"].to_pylist())))

    def enqueue_batch(self, items: list[tuple[str, str, str, int, int]]) -> int:
        """Items: (canonical_url, host, path, depth, priority), in order.

        robots filter -> crawl-delay registration -> seen add_if_new
        (batched over the whole item list) -> frontier push. Returns count
        admitted."""
        allowed: list[tuple[str, str, int, int]] = []
        for url, host, path, depth, priority in items:
            rules = self.robots.rules(host)
            if not rules.allowed(path):
                continue
            if rules.crawl_delay_ms and host not in self.budget.delays:
                self.budget.delays[host] = rules.crawl_delay_ms
            allowed.append((url, host, depth, priority))
        if not allowed:
            return 0
        keys = hash64_str_array([u for u, _, _, _ in allowed], seed=0x5EED)
        new = self.seen.add_if_new(keys)
        rows = [
            {"url": u, "host": h, "priority": p, "depth": d}
            for (u, h, d, p), is_new in zip(allowed, new) if is_new
        ]
        if rows:
            self.frontier.push(rows)
        return len(rows)

    def drain(self, now: int, max_n: int, horizon: int):
        return self.frontier.drain(self.budget, now, max_n, horizon)

    def size(self) -> int:
        return len(self.frontier)

    def seen_size(self) -> int:
        return self.seen.size

    def cuckoo_table(self) -> np.ndarray:
        # all generations flattened — the byte-equivalence probe
        return np.concatenate([g.cuckoo.table.reshape(-1) for g in self.seen.gens])

    # -- snapshot ----------------------------------------------------------
    def state(self) -> dict:
        return {
            "frontier": self.frontier.state(),
            "budget": self.budget.state(),
            "seen": self.seen.state(),
            "robots": {h: (r.crawl_delay_ms, list(r.disallow))
                       for h, r in self.robots.cache.items()},
        }

    def restore(self, st: dict) -> None:
        from .politeness import RobotsRules

        self.frontier = FrontierShard.from_state(st["frontier"])
        self.budget = HostBudget.from_state(st["budget"])
        self.seen = GrowableSeen.from_state(st["seen"])
        self.robots.cache = {h: RobotsRules(d, dis)
                             for h, (d, dis) in st["robots"].items()}


class ShardGroup:
    """Several CrawlShards in one process: the engine's shard host, an
    actor or (with one group) a plain object in the driver.

    Host-hash partitioning means shards never coordinate, so how shards
    map to processes is a placement choice: the engine runs one group per
    CPU (at most one per shard) instead of paying a process spawn per
    shard on every start and resume."""

    def __init__(self, shard_ids: list[int], n_shards: int,
                 seen_capacity: int, seed: int, robots_fetcher):
        self.shards = [CrawlShard(i, n_shards, seen_capacity, seed,
                                  robots_fetcher) for i in shard_ids]

    def each(self, method: str, args_per_shard: list[tuple]) -> list:
        """``method`` on each of this group's shards, in group order."""
        return [getattr(s, method)(*a)
                for s, a in zip(self.shards, args_per_shard)]

    def call(self, method: str, args_per_shard: list[tuple]):
        """:meth:`each` as an actor method.

        The caller asks for one return object per shard, so each shard's
        result is serialized on its own, exactly as with one actor per
        shard. Shards of one process share objects (numpy dtypes); sent
        as one object they would stay shared on the driver, and the
        checkpoint's pickle memo — so its bytes — would depend on the
        grouping."""
        out = self.each(method, args_per_shard)
        return out if len(out) > 1 else out[0]

    def enqueue_routed_blocks(self, block_refs: list) -> int:
        """Fetch the wave's routed-link blocks once for the whole group;
        each shard filters its own rows from the shared tables."""
        import ray

        tables = ray.get(block_refs)
        return sum(s.enqueue_routed_blocks(tables) for s in self.shards)


def make_shard_actor_cls():
    import ray

    return ray.remote(num_cpus=0)(ShardGroup)
