"""Host-speed factor for the times the benchmark reports.

The benchmark runs on a shared virtual machine whose per-core speed drifts
by +-30 % over tens of seconds as neighbours load the host. Identical runs
of an ingest pass measured 1.2 s and 2.3 s a minute apart, so raw wall
times spread 25-35 % between runs whatever their length. A probe process
(probe.py) times a fixed pure-Python loop about ten times a second, next
to the workload. Over an interval, ``factor = NOMINAL_S / median(probe
time)``; a time measured in the interval times the factor is what it would
have taken on the host at its nominal speed. On one 180 s recording the
probe's median tracked the ingest pass time (correlation 0.71) and scaling
cut the spread of 10-pass medians from 29 % to 9 %.

The probe costs ~4 % of one core. Raw times are printed beside the scaled
ones. The probe runs no library code, so no change to the program moves it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# the probe loop's time on an unloaded core of the reference host (4 vCPU
# KVM guest, 2.1 GHz); a fixed constant, so scaled times compare across runs
NOMINAL_S = 0.005
MIN_WINDOW_S = 2.0  # shorter intervals use the samples around them


class HostSpeed:
    """One unpinned probe: the scheduler runs it on the least busy CPU, so
    it measures the host rather than the benchmark's own load (which keeps
    one to two of the CPUs busy)."""

    def __init__(self, path: str):
        self.path = path
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), path])
        self._t = np.empty(0)
        self._d = np.empty(0)
        self._read = 0

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path) as f:
            f.seek(self._read)
            chunk = f.read()
        whole = chunk[: chunk.rfind("\n") + 1]
        self._read += len(whole.encode())
        if whole:
            arr = np.loadtxt(whole.splitlines(), ndmin=2)
            self._t = np.concatenate([self._t, arr[:, 0]])
            self._d = np.concatenate([self._d, arr[:, 1]])

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured over [t0, t1] (``time.monotonic``)."""
        self._load()
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        sel = self._d[(self._t >= t0 - pad) & (self._t <= t1 + pad)]
        if len(sel) == 0:  # probe not started yet: take the nearest samples
            near = np.argsort(np.abs(self._t - (t0 + t1) / 2))[:10]
            sel = self._d[near]
        return NOMINAL_S / float(np.median(sel)) if len(sel) else 1.0

    def wait_ready(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self._load()
            if len(self._t) >= 3:
                return
            time.sleep(0.05)

    def close(self) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=10)
