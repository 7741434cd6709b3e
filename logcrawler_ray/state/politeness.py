"""Per-host politeness: token-bucket fetch-time assignment + robots rules.

The reference's politeness is a blanket ``sleep(0.5)`` between sink batches
(reference: 12_input_images.py:79); here it is the real thing: each host h
has a crawl delay d(h) (from its robots rules) and the budget assigns fetch
times t_i spaced >= d(h) apart. The clock is *virtual* (integer ms) so
tests and the serial reference executor are bit-deterministic — wall-clock
sleeping is an execution concern, not a scheduling one, and in this sandbox
fetches are synthetic anyway.

``peek(host, t)`` answers "when could host h next be fetched, not earlier
than t" without mutating; ``commit`` reserves it. Both are pure functions
of (delays, last committed time per host) -> snapshot-friendly. They are
the one-entry form of the rule: ``FrontierShard.drain`` applies it to a
whole run of entries at once (state/frontier.py::_budget_pass), reading
and writing ``delays`` and ``next_ok`` directly.

RobotsRules parses the subset of robots.txt the engine honors:
``Disallow:`` path prefixes and ``Crawl-delay:`` (seconds, may be
fractional) for ``User-agent: *``.
"""

from __future__ import annotations


class HostBudget:
    def __init__(self, delays: dict[str, int] | None = None, default_delay: int = 0):
        self.delays = dict(delays or {})
        self.default_delay = default_delay
        self.next_ok: dict[str, int] = {}

    def delay(self, host: str) -> int:
        return self.delays.get(host, self.default_delay)

    def peek(self, host: str, t: int) -> int:
        return max(t, self.next_ok.get(host, 0))

    def commit(self, host: str, t: int) -> None:
        self.next_ok[host] = t + self.delay(host)

    def state(self) -> dict:
        return {"delays": dict(self.delays), "default_delay": self.default_delay,
                "next_ok": dict(self.next_ok)}

    @classmethod
    def from_state(cls, st: dict) -> "HostBudget":
        obj = cls(st["delays"], st["default_delay"])
        obj.next_ok = dict(st["next_ok"])
        return obj


class RobotsRules:
    def __init__(self, crawl_delay_ms: int = 0, disallow: list[str] | None = None):
        self.crawl_delay_ms = crawl_delay_ms
        self.disallow = tuple(disallow or ())

    def allowed(self, path: str) -> bool:
        return not any(path.startswith(p) for p in self.disallow)

    @classmethod
    def parse(cls, text: str) -> "RobotsRules":
        delay_ms = 0
        disallow: list[str] = []
        active = False  # inside a `User-agent: *` group
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                active = val == "*"
            elif active and key == "disallow" and val:
                disallow.append(val)
            elif active and key == "crawl-delay":
                try:
                    delay_ms = int(float(val) * 1000)
                except ValueError:
                    pass
        return cls(delay_ms, disallow)


class RobotsCache:
    """Host -> RobotsRules cache; fetches via a pluggable fetcher once per
    host (the reference's choose-server-once pattern,
    13_calculate_image_stats.py:11-29, generalized)."""

    def __init__(self, fetcher):
        self.fetcher = fetcher  # host -> robots.txt text (or None)
        self.cache: dict[str, RobotsRules] = {}

    def rules(self, host: str) -> RobotsRules:
        r = self.cache.get(host)
        if r is None:
            text = self.fetcher(host)
            r = RobotsRules.parse(text) if text else RobotsRules()
            self.cache[host] = r
        return r

    def allowed(self, host: str, path: str) -> bool:
        return self.rules(host).allowed(path)

    def crawl_delay_ms(self, host: str) -> int:
        return self.rules(host).crawl_delay_ms
