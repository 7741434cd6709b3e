"""Atomic crawl checkpoints: frontier + budgets + URL-seen + clock, one
pickle per wave, committed by temp-write + rename.

The invariant (SURVEY.md §7.5 #2): the seen-set, the frontier heap and the
store watermark are snapshotted together *after* the wave's store partition
committed. A crash between store-commit and checkpoint-write merely re-runs
one wave on resume — the wave is a pure function of the checkpoint state,
and the store partition overwrite is idempotent, so the final state is
identical to an uninterrupted run (tested in tests/test_crawl.py).
"""

from __future__ import annotations

import os
import pickle
import uuid


class CheckpointDir:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, wave: int) -> str:
        return os.path.join(self.root, f"wave-{wave:06d}.ckpt")

    KEEP = 3  # retained checkpoints; older ones are pruned after a commit

    def save(self, wave: int, state: dict) -> None:
        tmp = self._path(wave) + f".tmp.{uuid.uuid4().hex}"
        with open(tmp, "wb") as f:
            pickle.dump(state, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._path(wave))
        self._prune()

    def _waves(self) -> list[int]:
        return sorted(int(f[5:11]) for f in os.listdir(self.root)
                      if f.startswith("wave-") and f.endswith(".ckpt"))

    def _prune(self, keep: int = KEEP) -> None:
        waves = self._waves()
        for w in waves[: max(0, len(waves) - keep)]:
            try:
                os.remove(self._path(w))
            except OSError:
                pass

    def clear(self) -> None:
        """Remove every checkpoint: a fresh crawl must not resume, or have
        :meth:`_prune` keep, the checkpoints of an earlier run whose wave
        numbers are higher than its own."""
        self._prune(keep=0)

    def latest(self) -> tuple[int, dict] | None:
        waves = self._waves()
        if not waves:
            return None
        wave = waves[-1]
        with open(self._path(wave), "rb") as f:
            return wave, pickle.load(f)

    def load(self, wave: int) -> dict:
        with open(self._path(wave), "rb") as f:
            return pickle.load(f)
