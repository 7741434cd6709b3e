"""Bloom filter over uint64 key hashes — numpy bit array, vectorized.

Used as the cheap pre-filter in front of the cuckoo filter in each URL-seen
shard (BASELINE.json north_star: "sharded cuckoo-filter URL-seen actors ...
with bloom pre-filter"): a bloom miss proves "never seen" without touching
the cuckoo table. No false negatives; false-positive rate set by sizing.

k index functions are derived from the key by double hashing
(h1 + i*h2 mod m), so membership is a pure function of the uint64 key —
deterministic across processes, which checkpoint equivalence requires.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import splitmix64


class BloomFilter:
    def __init__(self, capacity: int, fp_rate: float = 0.01):
        n_bits = int(max(64, -capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self.n_bits = n_bits
        self.k = max(1, int(round(n_bits / capacity * np.log(2))))
        self.bits = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
        self.capacity = capacity
        self.fp_rate = fp_rate

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(N,) uint64 -> (k, N) bit positions."""
        h1 = splitmix64(keys)
        h2 = splitmix64(h1) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (h1[None, :] + i * h2[None, :]) % np.uint64(self.n_bits)

    def add(self, keys: np.ndarray) -> None:
        pos = self._positions(np.asarray(keys, dtype=np.uint64)).reshape(-1)
        np.bitwise_or.at(self.bits, (pos >> 6).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """(N,) -> bool mask; False is definitive (never added)."""
        keys = np.asarray(keys, dtype=np.uint64)
        pos = self._positions(keys)
        word = self.bits[(pos >> 6).astype(np.int64)]
        hit = (word >> (pos & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=0).astype(bool)

    # -- snapshot ----------------------------------------------------------
    def state(self) -> dict:
        return {"n_bits": self.n_bits, "k": self.k, "bits": self.bits.copy(),
                "capacity": self.capacity, "fp_rate": self.fp_rate}

    @classmethod
    def from_state(cls, st: dict) -> "BloomFilter":
        obj = cls.__new__(cls)
        obj.n_bits = st["n_bits"]
        obj.k = st["k"]
        # owns the state's array (state() hands out a copy); copies only a
        # read-only one
        obj.bits = np.require(st["bits"], np.uint64, "CW")
        obj.capacity = st["capacity"]
        obj.fp_rate = st["fp_rate"]
        return obj
