"""Sharded URL-seen membership: bloom pre-filter + cuckoo filter per shard.

This replaces every one of the reference's idempotency ledgers — the
per-log count checks (reference: 07_input_cognition_data_rust.py:28-43),
marker files (06_extract_images.py:45-105) and "old data filtered on
insertion" (07:108-114) — with one structure: a URL enters the frontier
iff ``add_if_new`` returns True, exactly once across the whole run,
resumable from snapshot.

Sharding is by ``host_hash % n_shards`` — the SAME partition key as the
frontier and the politeness budgets (SURVEY.md §7.4), so one host's URLs
always meet the same shard and per-shard state needs no coordination.

``SeenShard`` is plain Python, used serially by the reference executor and
hosted by the engine's ``state/shard.py::ShardGroup``. Snapshot/restore is
a dict of numpy arrays -> a pickle per shard, written atomically by the
checkpoint module.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import hash64_str_array
from .bloom import BloomFilter
from .cuckoo import CuckooFilter


class SeenShard:
    def __init__(self, capacity: int = 1 << 16, fp_rate: float = 0.01, seed: int = 7):
        self.bloom = BloomFilter(capacity, fp_rate)
        self.cuckoo = CuckooFilter(capacity, seed)

    def url_keys(self, urls: list[str]) -> np.ndarray:
        return hash64_str_array(urls, seed=0x5EED)

    def add_if_new(self, keys: np.ndarray) -> np.ndarray:
        """uint64 keys -> bool mask of first-ever sightings.

        The cuckoo is the membership authority (add_if_new is exact up to
        fingerprint collisions, and handles intra-batch duplicates
        sequentially); the bloom mirrors every insert so the read-only
        ``contains`` fast path can answer "definitely new" without touching
        the cuckoo table.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = self.cuckoo.add_if_new(keys)
        self.bloom.add(keys[out])
        return out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        maybe = self.bloom.contains(keys)
        res = np.zeros(len(keys), dtype=bool)
        if maybe.any():
            res[maybe] = self.cuckoo.contains(keys[maybe])
        return res

    @property
    def size(self) -> int:
        return self.cuckoo.size

    def state(self) -> dict:
        return {"bloom": self.bloom.state(), "cuckoo": self.cuckoo.state()}

    @classmethod
    def from_state(cls, st: dict) -> "SeenShard":
        obj = cls.__new__(cls)
        obj.bloom = BloomFilter.from_state(st["bloom"])
        obj.cuckoo = CuckooFilter.from_state(st["cuckoo"])
        return obj


class GrowableSeen:
    """Generational seen-filter: grows without rehashing old keys.

    A cuckoo table cannot be enlarged in place (bucket indices derive from
    the full key hash, which fingerprints don't retain), so growth appends
    a NEW generation of 2x capacity once the current one passes the load
    threshold: lookups consult every generation, inserts go to the newest.
    Lookup cost is O(generations) = O(log(total/initial)) — bounded and
    cache-friendly since older generations are read-only.

    Deterministic: growth happens at exact insert counts, so serial and
    parallel executions (and resumed runs) evolve identical structures.
    """

    GROW_AT = 0.5  # of the newest generation's slot capacity

    def __init__(self, initial_capacity: int = 1 << 16, fp_rate: float = 0.01,
                 seed: int = 7):
        self.fp_rate = fp_rate
        self.seed = seed
        self.gens: list[SeenShard] = [SeenShard(initial_capacity, fp_rate, seed)]

    def _maybe_grow(self) -> None:
        cur = self.gens[-1]
        cap = cur.cuckoo.n_buckets * cur.cuckoo.SLOTS
        if cur.cuckoo.size >= int(cap * self.GROW_AT):
            self.gens.append(
                SeenShard(cap * 2, self.fp_rate, self.seed + len(self.gens)))

    def add_if_new(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized: older generations answer contains() in bulk; the
        newest takes the batched insert. Growth is checked at batch end —
        batch boundaries are identical in the serial executor and the
        engine (same enqueue_batch calls), so evolution stays deterministic;
        the newest generation's 2x headroom absorbs any batch overshoot."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        seen_old = np.zeros(len(keys), dtype=bool)
        for g in self.gens[:-1]:
            rem = ~seen_old
            if not rem.any():
                break
            seen_old[rem] |= g.contains(keys[rem])
        idx = np.nonzero(~seen_old)[0]
        if len(idx):
            out[idx] = self.gens[-1].add_if_new(keys[idx])
        self._maybe_grow()
        return out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        res = np.zeros(len(keys), dtype=bool)
        for g in self.gens:
            rem = ~res
            if not rem.any():
                break
            res[rem] |= g.contains(keys[rem])
        return res

    @property
    def size(self) -> int:
        return sum(g.size for g in self.gens)

    def url_keys(self, urls: list[str]) -> np.ndarray:
        return hash64_str_array(urls, seed=0x5EED)

    def state(self) -> dict:
        return {"fp_rate": self.fp_rate, "seed": self.seed,
                "gens": [g.state() for g in self.gens]}

    @classmethod
    def from_state(cls, st: dict) -> "GrowableSeen":
        obj = cls.__new__(cls)
        obj.fp_rate = st["fp_rate"]
        obj.seed = st["seed"]
        obj.gens = [SeenShard.from_state(g) for g in st["gens"]]
        return obj
