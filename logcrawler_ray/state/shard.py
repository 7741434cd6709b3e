"""CrawlShard — one self-contained control-plane shard: frontier +
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

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64_str_array
from .frontier import FrontierShard
from .politeness import HostBudget, RobotsCache, RobotsRules
from .urlseen import GrowableSeen


def _disallowed(path: pa.Array, codes: np.ndarray, rules) -> np.ndarray:
    """Rows whose ``path`` starts with a Disallow prefix of the row's own
    host (``rules[codes[i]]``), as ``RobotsRules.allowed`` decides it. One
    byte compare per (row, prefix of its host) pair and prefix byte: no
    Python work per row or per prefix, and a prefix never meets another
    host's rows."""
    out = np.zeros(len(codes), bool)
    n_pre = np.array([len(r.disallow) for r in rules], np.int64)
    if not n_pre.any():
        return out
    pre = [p.encode() for r in rules for p in r.disallow]
    plen_all = np.array([len(p) for p in pre], np.int64)
    pstart = np.cumsum(plen_all) - plen_all  # each prefix's first byte
    pbytes = np.frombuffer(b"".join(pre), np.uint8)
    # (row, k) pairs: each row with each prefix k of its host
    reps = n_pre[codes]
    row = np.repeat(np.arange(len(codes)), reps)
    first_k = np.cumsum(n_pre) - n_pre  # each host's first prefix
    k = np.arange(len(row)) + np.repeat(first_k[codes] - (np.cumsum(reps) - reps),
                                        reps)
    wide = pa.types.is_large_string(path.type)
    off_buf, data_buf = path.buffers()[1:]
    off = np.frombuffer(off_buf, np.int64 if wide else np.int32,
                        len(path) + 1, path.offset * (8 if wide else 4))
    data = np.frombuffer(data_buf, np.uint8) if data_buf else np.zeros(0, np.uint8)
    start, plen = off[row].astype(np.int64), plen_all[k]
    fits = off[row + 1] - start >= plen
    row, k, start, plen = row[fits], k[fits], start[fits], plen[fits]
    out[row[plen == 0]] = True  # an empty prefix disallows every path
    row, k, start, plen = (v[plen > 0] for v in (row, k, start, plen))
    if len(row):
        # pair i spans bytes pos[i] .. pos[i] + plen[i] - 1 of ``eq``
        pos = np.cumsum(plen) - plen
        within = np.arange(int(plen.sum())) - np.repeat(pos, plen)
        eq = (data[np.repeat(start, plen) + within]
              == pbytes[np.repeat(pstart[k], plen) + within])
        out[row[np.logical_and.reduceat(eq, pos)]] = True
    return out


class CrawlShard:
    def __init__(self, shard_id: int, n_shards: int, seen_capacity: int,
                 seed: int, robots_fetcher):
        self.frontier = FrontierShard(shard_id, n_shards)
        self.budget = HostBudget()
        self.seen = GrowableSeen(seen_capacity, seed=seed + shard_id)
        self.robots = RobotsCache(robots_fetcher)

    @property
    def shard_id(self) -> int:
        return self.frontier.shard_id

    def enqueue_routed_blocks(self, tables) -> int:
        """Shard-side ordered enqueue: ``tables`` are the wave's ROUTED link
        tables (columns seq, idx, url, host, path, depth, priority, shard),
        shared by every shard. The shard filters ITS rows, sorts them by
        (seq, idx) — the per-shard relative order IS the engine contract —
        and enqueues them, so the driver never touches a wave's links."""
        mine = [b.filter(pc.equal(b["shard"], self.shard_id))
                for b in tables if b.num_rows]
        mine = [m for m in mine if m.num_rows]
        if not mine:
            return 0
        t = pa.concat_tables(mine)
        order = np.lexsort((t["idx"].to_numpy(), t["seq"].to_numpy()))
        return self.enqueue_batch(t.take(pa.array(order)))

    def enqueue_batch(self, items: pa.Table) -> int:
        """``items``: columns url (canonical), host, path, depth, priority,
        in order.

        robots filter -> crawl-delay registration -> seen add_if_new
        (batched over the whole item list) -> frontier push. Robots rules
        are looked up once per distinct host and matched in one vector
        step (``_disallowed``). Returns count admitted."""
        if not items.num_rows:
            return 0
        items = items.combine_chunks()
        enc = pc.dictionary_encode(items["host"]).chunk(0)
        codes = enc.indices.to_numpy()
        hosts = enc.dictionary.to_pylist()  # in order of first appearance
        rules = [self.robots.rules(h) for h in hosts]
        allowed = ~_disallowed(items["path"].chunk(0), codes, rules)
        # crawl delays register in order of each host's first allowed item
        ok = codes[allowed]
        _, first = np.unique(ok, return_index=True)
        for k in ok[np.sort(first)].tolist():
            h = hosts[k]
            if rules[k].crawl_delay_ms and h not in self.budget.delays:
                self.budget.delays[h] = rules[k].crawl_delay_ms
        items = items.filter(pa.array(allowed))
        if not items.num_rows:
            return 0
        new = self.seen.add_if_new(hash64_str_array(items["url"], seed=0x5EED))
        admitted = items.filter(pa.array(new))
        self.frontier.push(admitted.select(["url", "host", "priority", "depth"]))
        return admitted.num_rows

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
    def snapshot(self) -> bytes:
        """The shard's state, pickled by the process that owns the shard.

        The bytes are the canonical snapshot: a shard's state pickles the
        same in any process (flat column bytes and writable arrays, no
        object shared with another shard), so a checkpoint is byte-equal
        whichever process hosted each shard and however the shards were
        grouped."""
        return pickle.dumps({
            "frontier": self.frontier.state(),
            "budget": self.budget.state(),
            "seen": self.seen.state(),
            "robots": {h: (r.crawl_delay_ms, list(r.disallow))
                       for h, r in self.robots.cache.items()},
        }, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_snapshot(cls, snap: bytes, robots_fetcher) -> "CrawlShard":
        """A shard built straight from :meth:`snapshot` bytes: no empty
        seen filter is allocated first."""
        st = pickle.loads(snap)
        obj = cls.__new__(cls)
        obj.frontier = FrontierShard.from_state(st["frontier"])
        obj.budget = HostBudget.from_state(st["budget"])
        obj.seen = GrowableSeen.from_state(st["seen"])
        obj.robots = RobotsCache(robots_fetcher)
        obj.robots.cache = {h: RobotsRules(d, dis)
                            for h, (d, dis) in st["robots"].items()}
        return obj


class ShardGroup:
    """Several CrawlShards in one process: the engine's shard host, an
    actor or (with one group) a plain object in the driver.

    Host-hash partitioning means shards never coordinate, so how shards
    map to processes is a placement choice: the engine runs one group per
    CPU (at most one per shard) instead of paying a process spawn per
    shard on every start and resume."""

    def __init__(self, shard_ids: list[int], n_shards: int,
                 seen_capacity: int, seed: int, robots_fetcher,
                 snapshots: list[bytes] | None = None):
        """Fresh shards, or (``snapshots``) the shards those
        :meth:`CrawlShard.snapshot` bytes hold, in ``shard_ids`` order."""
        if snapshots is not None:
            self.shards = [CrawlShard.from_snapshot(b, robots_fetcher)
                           for b in snapshots]
        else:
            self.shards = [CrawlShard(i, n_shards, seen_capacity, seed,
                                      robots_fetcher) for i in shard_ids]

    def each(self, method: str, args_per_shard: list[tuple]) -> list:
        """``method`` on each of this group's shards, in group order."""
        return [getattr(s, method)(*a)
                for s, a in zip(self.shards, args_per_shard)]

    def call(self, method: str, args_per_shard: list[tuple]):
        """:meth:`each` as an actor method; the caller asks for one return
        object per shard (a snapshot is each shard's own bytes)."""
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
