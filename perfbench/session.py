"""Ray session lifecycle for the benchmark: environment, start, warm-up,
stop, and reaping every process the session started.

The session is sized from ``nproc`` (see :func:`nproc`), never from a
fixed CPU count, and workers find the package through
``PYTHONPATH`` set here before Ray starts, so the harness runs from any
working directory.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Ray places AF_UNIX sockets under <temp_dir>/session_<stamp>_<pid>/sockets/;
# Linux caps a socket path at 107 bytes, which leaves ~42 for temp_dir.
_MAX_RAY_TMP = 40

# DataContext settings this benchmark changes from Ray's defaults; printed
# with every result so a run records how it was configured.
DATA_CONTEXT_OVERRIDES = {"enable_progress_bars": False}

OBJECT_STORE_BYTES = 512 * 1024 * 1024


def work_dir() -> str:
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def _env_int(name: str) -> int | None:
    head = os.environ.get(name, "").split(",")[0].strip()
    return int(head) if head.isdigit() and int(head) > 0 else None


def nproc() -> int:
    """The CPU count coreutils ``nproc`` prints: the affinity mask, unless
    OMP_NUM_THREADS sets it, capped by OMP_THREAD_LIMIT."""
    n = _env_int("OMP_NUM_THREADS") or len(os.sched_getaffinity(0))
    limit = _env_int("OMP_THREAD_LIMIT")
    return min(n, limit) if limit else n


def prepare_env() -> None:
    """Make the package importable here and in every Ray worker."""
    paths = [ROOT, HERE]
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([old] if old else []))
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)


def _warm(batch):
    """Import the library's hot modules in the worker before timing."""
    from logcrawler_ray.pipelines import crawl, ingest  # noqa: F401

    return batch


class Session:
    def __init__(self):
        self.ncpu = nproc()
        ray_tmp = os.path.join(work_dir(), "ray")
        self._own_tmp = len(ray_tmp) > _MAX_RAY_TMP
        if self._own_tmp:
            # checkout path too long for Ray's socket paths: use a short
            # private directory instead, removed again in close()
            ray_tmp = tempfile.mkdtemp(prefix="pbray-")
        self.ray_tmp = ray_tmp
        self._others: set[int] = set()  # processes not started by Ray

    def start(self) -> None:
        """Session start + worker warm-up (one Ray Data execution)."""
        import ray
        import ray.data as rd
        from ray.data import DataContext

        self._others = _descendants(os.getpid())
        ray.init(address="local", num_cpus=self.ncpu, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.ray_tmp)
        ctx = DataContext.get_current()
        for k, v in DATA_CONTEXT_OVERRIDES.items():
            setattr(ctx, k, v)
        rd.range(8 * self.ncpu, override_num_blocks=self.ncpu).map_batches(
            _warm, batch_format="pyarrow").materialize()

    def stop(self) -> None:
        import ray

        started = _descendants(os.getpid()) - self._others
        ray.shutdown()
        _wait_gone(started)

    def close(self) -> None:
        """Remove Ray's per-session logs and sockets (after stop())."""
        if self._own_tmp:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)
        else:
            for name in os.listdir(self.ray_tmp) if os.path.isdir(self.ray_tmp) else ():
                p = os.path.join(self.ray_tmp, name)
                if os.path.islink(p) or os.path.isfile(p):
                    os.remove(p)
                else:
                    shutil.rmtree(p, ignore_errors=True)


def versions() -> dict:
    import pyarrow
    import ray

    return {"nproc": nproc(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "python": sys.version.split()[0],
            "data_context_overrides": DATA_CONTEXT_OVERRIDES,
            "object_store_bytes": OBJECT_STORE_BYTES}


# -- process reaping (no psutil in this environment: read /proc) -------------
def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = stat[stat.rfind(")") + 2:].split()
        out[int(name)] = int(fields[1])
    return out


def _descendants(pid: int) -> set[int]:
    kids: dict[int, list[int]] = {}
    for p, pp in _ppid_map().items():
        kids.setdefault(pp, []).append(p)
    out, todo = set(), [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def _wait_gone(pids: set[int], timeout: float = 20.0) -> None:
    """Wait for every process the session started to end; kill stragglers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for p in pids:  # reap those that are our own children
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        if not any(_alive(p) for p in pids):
            return
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
