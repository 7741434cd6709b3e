"""Unit tests: bloom, cuckoo, URL-seen shards, frontier heap, politeness."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from logcrawler_ray.functions.hashing import splitmix64
from logcrawler_ray.state.bloom import BloomFilter
from logcrawler_ray.state.cuckoo import CuckooFilter
from logcrawler_ray.state.frontier import FrontierShard
from logcrawler_ray.state.politeness import HostBudget, RobotsCache, RobotsRules
from logcrawler_ray.state.urlseen import SeenShard


# ---------------------------------------------------------------- bloom
def test_bloom_no_false_negatives():
    bf = BloomFilter(10_000, 0.01)
    keys = np.random.default_rng(0).integers(0, 2**63, 5000, dtype=np.uint64)
    bf.add(keys)
    assert bf.contains(keys).all()


def test_bloom_fp_rate_reasonable():
    bf = BloomFilter(10_000, 0.01)
    rng = np.random.default_rng(1)
    bf.add(rng.integers(0, 2**62, 10_000, dtype=np.uint64))
    probe = rng.integers(2**62, 2**63, 20_000, dtype=np.uint64)
    fp = bf.contains(probe).mean()
    assert fp < 0.05


def test_bloom_snapshot_roundtrip():
    bf = BloomFilter(1000)
    keys = np.arange(100, dtype=np.uint64)
    bf.add(keys)
    bf2 = BloomFilter.from_state(bf.state())
    assert (bf2.contains(keys) == bf.contains(keys)).all()
    assert (bf2.bits == bf.bits).all()


# ---------------------------------------------------------------- cuckoo
def test_cuckoo_add_contains_remove():
    cf = CuckooFilter(1000)
    keys = np.random.default_rng(2).integers(0, 2**63, 500, dtype=np.uint64)
    cf.add(keys)
    assert cf.contains(keys).all()
    assert cf.size == 500
    removed = cf.remove(keys[:100])
    assert removed.all()
    assert cf.size == 400


def test_cuckoo_add_if_new_dedups_within_batch():
    cf = CuckooFilter(100)
    keys = np.array([5, 5, 7, 5, 7, 9], dtype=np.uint64)
    new = cf.add_if_new(keys)
    assert new.tolist() == [True, False, True, False, False, True]
    assert cf.size == 3


def test_cuckoo_batch_insert_matches_one_key_at_a_time():
    """Batched add/add_if_new leave the table exactly as one-key calls do,
    eviction walks and in-batch duplicates included."""
    keys = np.random.default_rng(5).integers(0, 2**63, 1500, dtype=np.uint64)
    keys = np.concatenate([keys, keys[:200]])
    a, b = CuckooFilter(1000, seed=3), CuckooFilter(1000, seed=3)
    kick0 = a._kick_state
    new = a.add_if_new(keys)
    assert new.tolist() == [bool(b.add_if_new(keys[i:i + 1])[0])
                            for i in range(len(keys))]
    assert a._kick_state != kick0  # the load forced evictions
    assert a._kick_state == b._kick_state and a.size == b.size
    assert (a.table == b.table).all()
    c, d = CuckooFilter(1000, seed=3), CuckooFilter(1000, seed=3)
    c.add(keys[:1500])
    for k in keys[:1500]:
        d.add(np.array([k]))
    assert (c.table == d.table).all() and c._kick_state == d._kick_state


class _TinyFingerprints(CuckooFilter):
    """Fingerprints 1-3 only: keys of one batch often share a fingerprint
    and a bucket pair (the collisions add_if_new must treat as seen)."""

    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        h = splitmix64(keys ^ np.uint64(0xC0FFEE)) % np.uint64(3)
        return (h + np.uint64(1)).astype(np.uint16)


@settings(max_examples=300, deadline=None)
@given(pre=hst.lists(hst.integers(0, 300), max_size=16, unique=True),
       gone=hst.lists(hst.integers(0, 300), max_size=8),
       batch=hst.lists(hst.integers(0, 300), max_size=48),
       cls=hst.sampled_from([CuckooFilter, _TinyFingerprints]))
def test_cuckoo_add_if_new_matches_sequential_probe(pre, gone, batch, cls):
    """One batched add_if_new equals one-key calls (each probes the table
    as the earlier keys left it): in-batch duplicates, fingerprint
    collisions, keys present before the batch, removed slots and eviction
    walks in a small table; a full table fails at the same key."""
    a, b = cls(32, seed=3), cls(32, seed=3)
    for f in (a, b):
        f.add(np.array(pre, np.uint64))
        f.remove(np.array(gone, np.uint64))
    keys = np.array(batch, np.uint64)
    one = []
    try:
        for i in range(len(keys)):
            one.append(bool(b.add_if_new(keys[i:i + 1])[0]))
    except RuntimeError:
        with pytest.raises(RuntimeError):
            a.add_if_new(keys)
    else:
        assert a.add_if_new(keys).tolist() == one
    assert (a.table == b.table).all()
    assert a.size == b.size and a._kick_state == b._kick_state


def test_cuckoo_fp_rate_small():
    cf = CuckooFilter(20_000)
    rng = np.random.default_rng(3)
    cf.add(rng.integers(0, 2**62, 20_000, dtype=np.uint64))
    probe = rng.integers(2**62, 2**63, 50_000, dtype=np.uint64)
    assert cf.contains(probe).mean() < 0.01


def test_cuckoo_high_load_survives():
    cf = CuckooFilter(5000)
    keys = np.random.default_rng(4).integers(0, 2**63, 5000, dtype=np.uint64)
    cf.add(keys)  # ~50% load with headroom sizing — must not raise
    assert cf.contains(keys).all()


def test_cuckoo_snapshot_roundtrip_bitexact():
    cf = CuckooFilter(1000, seed=11)
    cf.add(np.arange(300, dtype=np.uint64))
    st = cf.state()
    cf2 = CuckooFilter.from_state(st)
    assert (cf2.table == cf.table).all()
    # continued inserts evolve identically (kick RNG state restored)
    more = np.arange(1000, 1100, dtype=np.uint64)
    cf.add(more)
    cf2.add(more)
    assert (cf2.table == cf.table).all()


# ---------------------------------------------------------------- seen
def test_seen_shard_first_wins_and_snapshot():
    s = SeenShard(4096)
    urls = ["http://a.test/1", "http://a.test/2", "http://a.test/1"]
    new = s.add_if_new(s.url_keys(urls))
    assert new.tolist() == [True, True, False]
    st = s.state()
    s2 = SeenShard.from_state(st)
    assert s2.contains(s.url_keys(["http://a.test/1"]))[0]
    assert not s2.add_if_new(s.url_keys(["http://a.test/2"]))[0]
    assert s2.add_if_new(s.url_keys(["http://a.test/3"]))[0]


# ---------------------------------------------------------------- frontier
def test_frontier_total_order():
    f = FrontierShard()
    f.push(pa.Table.from_pylist([{"url": "u1", "host": "h", "priority": 5},
                                 {"url": "u2", "host": "h", "priority": 1},
                                 {"url": "u3", "host": "h", "priority": 1}]))
    rows, now = f.drain(HostBudget(), now=0, max_n=10, horizon=1000)
    rows = rows.to_pylist()
    assert [r["url"] for r in rows] == ["u2", "u3", "u1"]  # prio, then seq
    assert now == 0


def test_frontier_politeness_spacing():
    f = FrontierShard()
    f.push(pa.Table.from_pylist(
        [{"url": f"u{i}", "host": "slow.test", "priority": 0} for i in range(4)]))
    budget = HostBudget({"slow.test": 100})
    rows, now = f.drain(budget, now=0, max_n=10, horizon=10_000)
    rows = rows.to_pylist()
    assert [r["fetch_time"] for r in rows] == [0, 100, 200, 300]
    assert now == 300


def test_frontier_horizon_defers():
    f = FrontierShard()
    f.push(pa.Table.from_pylist(
        [{"url": f"u{i}", "host": "slow.test", "priority": 0} for i in range(5)]))
    budget = HostBudget({"slow.test": 100})
    rows, _ = f.drain(budget, now=0, max_n=10, horizon=150)
    rows = rows.to_pylist()
    assert len(rows) == 2  # t=0,100 fit; t=200 beyond horizon
    assert len(f) == 3
    # deferred entries keep their recomputed next_fetch_time
    rows2, _ = f.drain(budget, now=200, max_n=10, horizon=150)
    rows2 = rows2.to_pylist()
    assert [r["fetch_time"] for r in rows2] == [200, 300]


def test_frontier_two_hosts_interleave():
    f = FrontierShard()
    f.push(pa.Table.from_pylist([{"url": "a1", "host": "a", "priority": 0},
                                 {"url": "a2", "host": "a", "priority": 0},
                                 {"url": "b1", "host": "b", "priority": 0}]))
    budget = HostBudget({"a": 500})
    rows, _ = f.drain(budget, now=0, max_n=10, horizon=10_000)
    rows = rows.to_pylist()
    by_url = {r["url"]: r["fetch_time"] for r in rows}
    assert by_url == {"a1": 0, "a2": 500, "b1": 0}


def test_frontier_snapshot_roundtrip():
    f = FrontierShard(1, 4)
    f.push(pa.Table.from_pylist([{"url": "x", "host": "h", "priority": 3},
                                 {"url": "y", "host": "h", "priority": 1}]))
    f2 = FrontierShard.from_state(f.state())
    r1, _ = f.drain(HostBudget(), 0, 10, 100)
    r2, _ = f2.drain(HostBudget(), 0, 10, 100)
    assert r1.to_pylist() == r2.to_pylist()
    assert f2.next_seq == f.next_seq


# ---------------------------------------------------------------- robots
def test_robots_parse():
    r = RobotsRules.parse(
        "# comment\nUser-agent: *\nDisallow: /private\nCrawl-delay: 0.5\n"
        "User-agent: other\nDisallow: /everything\n")
    assert r.crawl_delay_ms == 500
    assert not r.allowed("/private/x")
    assert r.allowed("/public")
    assert r.allowed("/everything")  # only * group honored


def test_robots_cache_fetches_once():
    calls = []

    def fetcher(host):
        calls.append(host)
        return "User-agent: *\nDisallow: /no\n"

    c = RobotsCache(fetcher)
    assert not c.allowed("h1", "/no/x")
    assert c.allowed("h1", "/yes")
    assert c.crawl_delay_ms("h1") == 0
    assert calls == ["h1"]


def test_shard_robots_filter_host_specific_prefixes():
    """CrawlShard.enqueue_batch admits exactly the URLs that their own
    host's rules allow, when hosts carry different, overlapping and shared
    Disallow prefixes (and some none)."""
    from logcrawler_ray.state.shard import CrawlShard

    rng = np.random.default_rng(3)
    prefixes = ["/a", "/ab", "/b/c", "/c", "/private"]

    def robots(host: str) -> str:
        k = int(host[1:].split(".")[0])
        lines = ["User-agent: *"]
        lines += [f"Disallow: {p}" for i, p in enumerate(prefixes)
                  if (k >> i) & 1]
        return "\n".join(lines)

    hosts = [f"h{k}.test" for k in rng.integers(0, 40, 600)]
    paths = [rng.choice(["/a", "/abc", "/b", "/b/c/d", "/c", "/x", "/private/1"])
             + f"/{i}" for i in range(len(hosts))]
    urls = [f"http://{h}{p}" for h, p in zip(hosts, paths)]
    shard = CrawlShard(0, 1, 1 << 12, 7, robots)
    n = shard.enqueue_batch(pa.table({
        "url": urls, "host": hosts, "path": paths,
        "depth": pa.array(np.zeros(len(urls)), pa.int32()),
        "priority": pa.array(np.zeros(len(urls)), pa.int32())}))
    want = [u for u, h, p in zip(urls, hosts, paths)
            if RobotsRules.parse(robots(h)).allowed(p)]
    got = shard.drain(0, len(urls), 1 << 60)[0].column("url").to_pylist()
    assert n == len(got) == len(want)
    assert sorted(got) == sorted(want)
    assert 0 < len(want) < len(urls)


def test_disallowed_matches_robots_rules():
    """The vector prefix match equals RobotsRules.allowed on a sliced
    array, non-ASCII paths, prefixes longer than the path and an empty
    prefix (which disallows every path)."""
    from logcrawler_ray.state.shard import _disallowed

    rules = [RobotsRules(0, ["/é", "/ab"]), RobotsRules(0, []),
             RobotsRules(0, [""]), RobotsRules(0, ["/abcdefgh", "/x"])]
    paths = ["/skip", "/é/1", "/ab", "/a", "/éé", "/abc", "", "/x/y",
             "/abcdefg", "/abcdefghi", "/", "/xé"]
    codes = np.array([0, 0, 0, 3, 0, 1, 2, 3, 3, 3, 1, 3])
    arr = pa.array(paths).slice(1)
    for typ in (pa.string(), pa.large_string()):
        got = _disallowed(arr.cast(typ), codes[1:], rules)
        want = [not rules[c].allowed(p) for c, p in zip(codes[1:], paths[1:])]
        assert got.tolist() == want
    assert 0 < sum(want) < len(want)


# ---------------------------------------------------------------- checkpoint
def test_checkpoint_prune_keeps_latest(tmp_path):
    from logcrawler_ray.state.checkpoint import CheckpointDir

    ck = CheckpointDir(str(tmp_path))
    for w in range(6):
        ck.save(w, {"wave": w})
    import os

    kept = sorted(f for f in os.listdir(tmp_path) if f.endswith(".ckpt"))
    assert len(kept) == CheckpointDir.KEEP
    wave, payload = ck.latest()
    assert wave == 5 and payload["wave"] == 5


# ---------------------------------------------------------------- growable
def test_growable_seen_grows_and_stays_exact():
    from logcrawler_ray.state.urlseen import GrowableSeen

    g = GrowableSeen(initial_capacity=64, seed=5)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**63, 3000, dtype=np.uint64)
    # insert in batches (like wave enqueues)
    for i in range(0, len(keys), 100):
        g.add_if_new(keys[i : i + 100])
    assert len(g.gens) > 1  # actually grew
    assert g.contains(keys).all()
    # no key reported new twice
    again = g.add_if_new(keys)
    assert not again.any()
    assert g.size == len(np.unique(keys))


def test_growable_seen_snapshot_deterministic():
    from logcrawler_ray.state.urlseen import GrowableSeen

    def build(upto):
        g = GrowableSeen(initial_capacity=64, seed=5)
        for i in range(0, upto, 50):
            g.add_if_new(np.arange(i, min(i + 50, upto), dtype=np.uint64))
        return g

    g1 = build(1000)
    # snapshot at 500, restore, continue -> identical structure
    ghalf = build(500)
    g2 = GrowableSeen.from_state(ghalf.state())
    for i in range(500, 1000, 50):
        g2.add_if_new(np.arange(i, min(i + 50, 1000), dtype=np.uint64))
    assert len(g1.gens) == len(g2.gens)
    for a, b in zip(g1.gens, g2.gens):
        assert (a.cuckoo.table == b.cuckoo.table).all()


def test_frontier_restore_allocates_no_object_per_entry():
    """A frontier snapshot restores as columns: the Python blocks alive
    after from_state (and after a whole shard's from_snapshot) do not grow
    with the entry count."""
    import sys

    from logcrawler_ray.state.shard import CrawlShard

    def restored_blocks(n: int) -> tuple[int, int]:
        shard = CrawlShard(0, 1, 1 << 10, 7, lambda host: None)
        shard.frontier.push(pa.table({
            "url": [f"http://h{i % 50}.test/p/{i}" for i in range(n)],
            "host": [f"h{i % 50}.test" for i in range(n)],
            "priority": pa.array(np.arange(n) % 10, pa.int32()),
            "depth": pa.array(np.zeros(n), pa.int32())}))
        st, snap = shard.frontier.state(), shard.snapshot()
        b0 = sys.getallocatedblocks()
        f = FrontierShard.from_state(st)
        b1 = sys.getallocatedblocks()
        s = CrawlShard.from_snapshot(snap, lambda host: None)
        b2 = sys.getallocatedblocks()
        assert len(f) == len(s.frontier) == n
        return b1 - b0, b2 - b1

    # least of three: other threads of the process (a Ray session) may
    # allocate inside a window
    small = [min(v) for v in zip(*(restored_blocks(100) for _ in range(3)))]
    large = [min(v) for v in zip(*(restored_blocks(20_000) for _ in range(3)))]
    assert large[0] < small[0] + 50 < 200
    assert large[1] < small[1] + 50 < 400
