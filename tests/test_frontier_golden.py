"""Golden digests of the crawl control plane, independent of how the
frontier is stored.

The serial executor and the engine share ``FrontierShard``, so the crawl
equivalence tests cannot catch a change that moves both sides at once.
These digests pin, for two fixed configs run by the serial executor:

- the fetch order (wave, seq, url, fetch_time);
- every shard's cuckoo table;
- the frontier's entries after the last wave, listed in total order.

Both configs use a short horizon, so some entries are deferred (their
``next_fetch_time`` moves past 0), and both crawl hosts with a crawl delay.
The values were recorded from the heap-of-entries frontier.
"""

import hashlib
import json

import pytest

from logcrawler_ray.pipelines.crawl import CrawlConfig
from logcrawler_ray.pipelines.reference_crawler import SerialCrawler
from logcrawler_ray.state.frontier import FrontierShard
from logcrawler_ray.state.politeness import HostBudget

CONFIGS = {
    "hash": dict(cfg=dict(seed=42, n_hosts=8, pages_per_host=40, n_shards=4,
                          wave_size=64, horizon=1_000, max_depth=6),
                 seeds=16, waves=6),
    "reverse": dict(cfg=dict(seed=3, n_hosts=12, pages_per_host=30, n_shards=3,
                             wave_size=48, horizon=300, max_depth=6,
                             priority_mode="reverse"),
                    seeds=24, waves=6),
}

GOLDEN = {
    "hash": {
        "fetch_order":
            "9328d6e407ec15a86c60fe82fabd0581e97abb195b811715d099c727c40b2716",
        "cuckoo":
            "7efcdbae2ea87fbf4d5535a447417f4eb49fc09e6354dd73821f80148ff14037",
        "entries":
            "0bcdde132e4fe80ead9858678fe0127d2041f041b19c36829a1357726dcbce68",
    },
    "reverse": {
        "fetch_order":
            "f05784df0ededf9e05515d770e5d50968801c4fc138584293f23dd83246dd4d7",
        "cuckoo":
            "2b391a293b56e22f2f0f97bc10ec0645334a0018c30b6b3e81d94d12bcaa726d",
        "entries":
            "e5640318a0529c3503fea5714fc8564e10388500e556236260bbd5e91e013645",
    },
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _rows(drained) -> list[dict]:
    """A drain's rows as dicts, whether it returns dicts or a table."""
    return drained.to_pylist() if hasattr(drained, "to_pylist") else drained


def _entries(frontier) -> list[list]:
    """(priority, next_fetch_time, seq, url, host, depth) of every queued
    entry in total order: a restored copy drained one entry at a time, each
    against a fresh budget, so each fetch time is the entry's
    next_fetch_time."""
    copy = type(frontier).from_state(frontier.state())
    out = []
    while len(copy):
        (r,) = _rows(copy.drain(HostBudget(), 0, 1, 1 << 60)[0])
        out.append([r["priority"], r["fetch_time"], r["seq"], r["url"],
                    r["host"], r["depth"]])
    return out


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def golden_run(request):
    spec = CONFIGS[request.param]
    cfg = CrawlConfig(**spec["cfg"])
    sc = SerialCrawler(cfg)
    sc.run(cfg.web().seed_urls(spec["seeds"]), max_waves=spec["waves"])
    return request.param, sc


def test_golden_configs_exercise_budget(golden_run):
    """Each config crawls hosts with a crawl delay and defers entries past
    the horizon, and leaves a frontier behind."""
    _, sc = golden_run
    shards = sc.state.shards[0].shards
    assert any(s.budget.delays for s in shards)
    entries = [e for s in shards for e in _entries(s.frontier)]
    assert entries
    assert any(e[1] > 0 for e in entries)  # only a deferral moves it


def test_golden_digests(golden_run):
    name, sc = golden_run
    shards = sc.state.shards[0].shards
    got = {
        "fetch_order": _sha([list(t) for t in sc.fetch_order()]),
        "cuckoo": hashlib.sha256(b"".join(
            t.tobytes() for t in sc.seen_tables())).hexdigest(),
        "entries": _sha([_entries(s.frontier) for s in shards]),
    }
    assert got == GOLDEN[name]


def test_frontier_snapshot_is_a_fixed_point(golden_run):
    """state() -> from_state() -> state() lists the same entries in the
    same order and keeps the seq counter."""
    _, sc = golden_run
    for s in sc.state.shards[0].shards:
        copy = FrontierShard.from_state(s.frontier.state())
        assert copy.next_seq == s.frontier.next_seq
        assert _entries(copy) == _entries(s.frontier)
