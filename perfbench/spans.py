"""In-memory span recorder for the traced run.

A span is (name, start, end, parent). Spans nest by call order on the one
driver thread the benchmark uses, so a span's parent is whichever span was
open when it started. Nothing here is imported by the library: the harness
opens spans around its own calls into the library, or installs wrappers on
library objects it created (instance attributes) for the length of a run.

``NullTracer`` is the untraced stand-in: same interface, records nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def wrap(self, obj, attr: str, name: str, after=None) -> None:
        """Replace ``obj.attr`` with a spanned call. ``after(result, *args)``
        runs in its own span after the call (bookkeeping that must not
        count as the layer's time)."""
        fn = getattr(obj, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                with self.span("trace.bookkeeping"):
                    after(out, *args)
            return out

        setattr(obj, attr, spanned)

    # -- derived figures -----------------------------------------------------
    def mark(self) -> int:
        return len(self.spans)

    def window(self, first: int, last: int | None = None) -> list[dict]:
        return self.spans[first:last]

    @staticmethod
    def totals(spans: list[dict]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    @staticmethod
    def self_times(spans: list[dict]) -> dict[str, float]:
        """Duration minus the time covered by direct children. Children of
        one span never overlap (single thread), so subtraction is exact."""
        child: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    @staticmethod
    def top_level_time(spans: list[dict], parent: int | None) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["parent"] == parent)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NullTracer:
    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield None

    def wrap(self, obj, attr: str, name: str, after=None) -> None:
        pass


@contextlib.contextmanager
def patched(module, attr: str, wrapper_factory):
    """Temporarily replace a module attribute (in this process only) with
    ``wrapper_factory(original)``; used by the in-process layer replay."""
    orig = getattr(module, attr)
    setattr(module, attr, wrapper_factory(orig))
    try:
        yield
    finally:
        setattr(module, attr, orig)
