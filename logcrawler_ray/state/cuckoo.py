"""Cuckoo filter over uint64 key hashes — numpy bucket table.

The exact-ish membership structure of each URL-seen shard (north_rule:
"bloom/cuckoo URL-seen" at ~10^10 aggregate capacity: at 4 slots x 16-bit
fingerprints and 95% load, 10^10 keys cost ~25 GB across all shards —
feasible on a 256-node cluster, which is why cuckoo-over-bloom-only:
cuckoo supports deletion and ~2^-13 FP at this load, and insertion is
incremental).

Standard partial-key cuckoo hashing (Fan et al., CoNEXT'14, public):
bucket1 = h(key); bucket2 = bucket1 XOR h(fingerprint); eviction walk with
a deterministic (seeded) choice so runs are reproducible.

False positives (distinct key, same fingerprint+buckets) are possible and
*accepted* crawl semantics: a colliding URL is treated as already seen and
skipped. Because lookups are pure functions of the table state, the
single-threaded reference executor and the parallel engine share identical
FP behavior — the URL-seen equivalence test covers it.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import splitmix64

_EMPTY = np.uint16(0)


class CuckooFilter:
    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int, seed: int = 7):
        n_buckets = 1
        while n_buckets * self.SLOTS < capacity:
            n_buckets <<= 1
        n_buckets <<= 1  # headroom -> ~50% target load
        self.n_buckets = n_buckets
        self.table = np.zeros((n_buckets, self.SLOTS), dtype=np.uint16)
        self.size = 0
        self.seed = seed
        self._kick_state = np.uint64(seed * 2654435761 + 1)

    # -- derivations -------------------------------------------------------
    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        fp = (splitmix64(keys ^ np.uint64(0xC0FFEE)) & np.uint64(0xFFFF)).astype(np.uint16)
        return np.where(fp == _EMPTY, np.uint16(1), fp)  # 0 means empty slot

    def _bucket1(self, keys: np.ndarray) -> np.ndarray:
        return (splitmix64(keys) % np.uint64(self.n_buckets)).astype(np.int64)

    def _alt_bucket(self, bucket: np.ndarray, fp: np.ndarray) -> np.ndarray:
        h = splitmix64(fp.astype(np.uint64) ^ np.uint64(0x5BD1E995))
        return ((bucket.astype(np.uint64) ^ h) % np.uint64(self.n_buckets)).astype(np.int64)

    # -- ops ---------------------------------------------------------------
    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fingerprint(keys)
        b1 = self._bucket1(keys)
        b2 = self._alt_bucket(b1, fp)
        in1 = (self.table[b1] == fp[:, None]).any(axis=1)
        in2 = (self.table[b2] == fp[:, None]).any(axis=1)
        return in1 | in2

    def _put(self, b: int, fp: np.uint16) -> bool:
        """Store ``fp`` in bucket ``b``'s first empty slot, if it has one
        (``argmin``: an empty slot is 0, the least value)."""
        row = self.table[b]
        s = row.argmin()
        if row[s] != _EMPTY:
            return False
        row[s] = fp
        self.size += 1
        return True

    def _insert_one(self, b1: int, fp: np.uint16, b2: int) -> bool:
        if self._put(b1, fp) or self._put(b2, fp):
            return True
        # eviction walk, deterministic slot choice
        b = b1
        cur = fp
        for _ in range(self.MAX_KICKS):
            self._kick_state = splitmix64(self._kick_state)
            slot = int(self._kick_state % np.uint64(self.SLOTS))
            cur, self.table[b, slot] = self.table[b, slot], cur
            b = int(self._alt_bucket(np.array([b]), np.array([cur]))[0])
            if self._put(b, cur):
                return True
        raise RuntimeError("cuckoo filter full (resize shard count)")

    def add(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fingerprint(keys)
        b1 = self._bucket1(keys)
        b2 = self._alt_bucket(b1, fp)
        for i in range(len(keys)):
            self._insert_one(int(b1[i]), fp[i], int(b2[i]))

    def add_if_new(self, keys: np.ndarray) -> np.ndarray:
        """Insert keys not present; returns bool mask of *newly added*.

        Duplicate keys inside one call: only the first occurrence is new
        (sequential semantics — matches the serial reference executor).

        Same result as probing and inserting one key at a time, without a
        per-key probe. ``alt`` is an involution, so a key's fingerprint
        only ever sits in its own two buckets, and an eviction moves it to
        the other one: it is in the pair at a key's turn iff it was there
        before the batch (one vector probe) or an earlier key of the batch
        with the same fingerprint and bucket pair inserted it. So the new
        keys are the first of each (fingerprint, pair) among the misses;
        only they run the sequential ``_insert_one``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        fp = self._fingerprint(keys)
        b1 = self._bucket1(keys)
        b2 = self._alt_bucket(b1, fp)
        hit = ((self.table[b1] == fp[:, None]).any(axis=1)
               | (self.table[b2] == fp[:, None]).any(axis=1))
        miss = np.flatnonzero(~hit)
        pair = np.minimum(b1[miss], b2[miss]) * 65536 + fp[miss]
        _, first = np.unique(pair, return_index=True)
        new = miss[np.sort(first)]
        for i in new.tolist():
            self._insert_one(int(b1[i]), fp[i], int(b2[i]))
        out[new] = True
        return out

    def remove(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        fp = self._fingerprint(keys)
        b1 = self._bucket1(keys)
        b2 = self._alt_bucket(b1, fp)
        out = np.zeros(len(keys), dtype=bool)
        for i in range(len(keys)):
            for b in (b1[i], b2[i]):
                row = self.table[b]
                hit = np.nonzero(row == fp[i])[0]
                if len(hit):
                    row[hit[0]] = _EMPTY
                    self.size -= 1
                    out[i] = True
                    break
        return out

    @property
    def load_factor(self) -> float:
        return self.size / (self.n_buckets * self.SLOTS)

    # -- snapshot ----------------------------------------------------------
    def state(self) -> dict:
        return {"n_buckets": self.n_buckets, "table": self.table.copy(),
                "size": self.size, "seed": self.seed,
                "kick_state": int(self._kick_state)}

    @classmethod
    def from_state(cls, st: dict) -> "CuckooFilter":
        obj = cls.__new__(cls)
        obj.n_buckets = st["n_buckets"]
        # owns the state's array (state() hands out a copy); copies only a
        # read-only one
        obj.table = np.require(st["table"], np.uint16, "CW")
        obj.size = st["size"]
        obj.seed = st["seed"]
        obj._kick_state = np.uint64(st["kick_state"])
        return obj
