"""The benchmark's workloads: closed-loop batch jobs over the library's
public entry points, each with its correctness checks.

A workload object owns its inputs and one directory per iteration. The
runner calls ``prepare()`` once (input synthesis, cached), ``warm()`` once
(untimed), then ``iteration()`` + ``check()`` + ``cleanup()`` in a loop.
``iteration()`` is the timed unit; everything a check needs is read after
its clock stops. With a real ``Tracer`` the iteration also records spans
around each library call (see spans.py); ``replay()`` then measures the
per-row CPU of the in-process layers on a sample of the iteration's rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time

import numpy as np

import inputs
import spans

# Sized for one CPU: at nominal host speed (see hostspeed.py) a crawl
# iteration takes ~10 s and an ingest pass ~1.4 s.
SIZES = {
    "crawl": {
        # six full waves of 640 URLs, stopped after `split` waves and
        # resumed by a new engine. The default SyntheticWeb has 2,400
        # pages; with 96 hosts (same pages per host, same format mix) the
        # frontier never runs short, so every wave drains the same count.
        "normal": {"cfg": {"wave_size": 640, "max_waves": 6, "max_depth": 20,
                           "n_hosts": 96},
                   "seeds": 1024, "split": 3},
        "tiny": {"cfg": {"wave_size": 32, "max_waves": 4, "max_depth": 20},
                 "seeds": 32, "split": 2},
    },
    "ingest": {
        "normal": {"rows": 1200, "files": 16},
        "tiny": {"rows": 48, "files": 4},
    },
}

# rows replayed in-process per traced run (per-row CPU of each layer)
REPLAY_ROWS = {"normal": 512, "tiny": 64}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _cpu_timed(fn, acc: dict, key: str):
    """Wrap ``fn`` so its thread CPU time accumulates into ``acc[key]``."""
    def timed(*args, **kwargs):
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[key] = acc.get(key, 0.0) + time.thread_time() - c0
    return timed


def codec_layers(payloads: list[tuple[str, bytes, int, int]]) -> dict:
    """Per-row CPU of the codec, phash and image-stats layers on the given
    (fmt, bytes, w, h) rows, through their public functions."""
    from logcrawler_ray.codecs import registry
    from logcrawler_ray.functions.image_stats import (blurredness_batch,
                                                      brightness_batch)
    from logcrawler_ray.functions.phash import phash_from_gray

    out: dict[str, float] = {}
    by_fmt: dict[str, list[float]] = {}
    groups: dict[tuple[int, int], list[np.ndarray]] = {}
    for fmt, blob, w, h in payloads:
        c0 = time.thread_time()
        try:
            luma = registry.decode_gray(fmt, blob, w, h)
        except Exception:  # the synthetic web's planted corrupt payloads
            continue
        by_fmt.setdefault(fmt, []).append(time.thread_time() - c0)
        groups.setdefault((h, w), []).append(luma)
    for fmt in ("png", "jpeg", "yuv422"):
        ts = by_fmt.get(fmt, [])
        out[f"codecs.{fmt}_us_per_row"] = 1e6 * sum(ts) / len(ts) if ts else 0.0
    n = sum(len(g) for g in groups.values())
    t_phash = t_stats = 0.0
    for g in groups.values():
        gray = np.stack(g)
        c0 = time.thread_time()
        phash_from_gray(gray)
        c1 = time.thread_time()
        brightness_batch(gray)
        blurredness_batch(gray)
        c2 = time.thread_time()
        t_phash += c1 - c0
        t_stats += c2 - c1
    out["phash.cpu_us_per_row"] = 1e6 * t_phash / n if n else 0.0
    out["image_stats.cpu_us_per_row"] = 1e6 * t_stats / n if n else 0.0
    return out


def span_seconds(traced: list[dict], tr: spans.Tracer) -> tuple[dict, dict]:
    """Span totals and self times of the traced iterations, per iteration,
    in host-speed-scaled seconds (see hostspeed.py)."""
    win = [s for it in traced for s in tr.window(*it["span_range"])]
    k = float(np.mean([it["f"] for it in traced])) / len(traced)
    return ({name: v * k for name, v in tr.totals(win).items()},
            {name: v * k for name, v in tr.self_times(win).items()})


def _stop(eng) -> None:
    """End an engine's shard actors now. The harness's wrappers make the
    engine part of a reference cycle, so dropping it would leave them to
    the cycle collector."""
    if eng is None or eng.state is None or not eng.state.use_actors:
        return
    import ray

    for actor in eng.state.shards:
        ray.kill(actor)
    eng.state = None


class CrawlWorkload:
    """``crawl``: one full crawl per iteration. ``CrawlEngine.run`` stops
    after ``split`` waves; a new engine resumes from the checkpoint and
    runs the remaining waves. Both halves and the resume are timed."""

    def __init__(self, name: str, size: str, seed: int, work: str, run_dir: str):
        spec = SIZES[name][size]
        self.name, self.size, self.seed = name, size, seed
        self.work, self.run_dir = work, run_dir
        self.cfg_kwargs = spec["cfg"]
        self.n_seeds = spec["seeds"]
        self.split = spec["split"]
        self.ref_checked = False

    def prepare(self) -> bool:
        from logcrawler_ray.pipelines.crawl import CrawlConfig

        data, hit = inputs.crawl_inputs(self.work, self.seed, self.cfg_kwargs,
                                        self.n_seeds)
        self.cfg = CrawlConfig(**data["cfg"])
        self.seeds = data["seeds"]
        return hit

    def warm(self) -> None:
        """Nothing beyond the session warm-up, which already imported the
        crawl modules in the worker: every engine starts its own shard
        actors, so there is no cache a throwaway crawl would fill."""

    # -- instrumentation (harness-side wrappers on instances) ---------------
    def _hook_engine(self, eng, it: dict, tr) -> None:
        run_wave, resume = eng.run_wave, eng.resume

        def timed_wave():
            t0 = time.perf_counter()
            m = run_wave()
            if not m.get("done"):
                it["wave_iv"].append((t0, time.perf_counter()))
            return m

        def timed_resume():
            t0 = time.perf_counter()
            ok = resume()
            it["resume_probes"][0].append((t0, time.perf_counter()))
            return ok

        eng.run_wave, eng.resume = timed_wave, timed_resume
        if not tr.enabled:
            return
        hook_state = lambda *_: self._hook_state(eng.state, it, tr)  # noqa: E731
        tr.wrap(eng, "run_wave", "crawl.wave")
        tr.wrap(eng, "resume", "crawl.resume", after=hook_state)
        tr.wrap(eng, "start", "crawl.start", after=hook_state)
        tr.wrap(eng.store, "commit_external", "crawl.commit")
        tr.wrap(eng.log_store, "append_table", "crawl.log_append")
        tr.wrap(eng.ckpt, "save", "crawl.checkpoint_save")

    @staticmethod
    def _hook_state(st, it: dict, tr) -> None:
        def keep_drained(emitted, *_):
            if emitted:
                it["drained"].append(emitted)

        def count_links(_new, blocks):
            import ray

            tabs = [b if hasattr(b, "num_rows") else None for b in blocks]
            refs = [b for b, t in zip(blocks, tabs) if t is None]
            got = iter(ray.get(refs)) if refs else iter(())
            tr.count("crawl.links_routed",
                     sum((t if t is not None else next(got)).num_rows for t in tabs))

        tr.wrap(st, "drain_wave", "crawl.drain", after=keep_drained)
        tr.wrap(st, "enqueue_routed_blocks", "crawl.enqueue", after=count_links)
        tr.wrap(st, "state", "crawl.checkpoint_state")
        tr.wrap(st, "frontier_size", "crawl.tail")
        tr.wrap(st, "seen_size", "crawl.tail")

    # -- the timed unit -----------------------------------------------------
    def iteration(self, i: int, tr) -> dict:
        from logcrawler_ray.pipelines.crawl import CrawlEngine

        root = os.path.join(self.run_dir, f"iter-{i:04d}")
        store, ckpt = root + "/store", root + "/ckpt"
        # timed intervals (perf_counter); run.py turns them into scaled
        # seconds once the host-speed probe has covered them
        it = {"root": root, "wave_iv": [], "resume_probes": [[]], "drained": []}
        t0 = time.perf_counter()
        with tr.span("crawl.engine_init"):
            eng = CrawlEngine(self.cfg, store, ckpt)
        self._hook_engine(eng, it, tr)
        with tr.span("crawl.run"):
            m = eng.run(seeds=self.seeds, max_waves=self.split)
        _stop(eng)  # the crawl stops here; a new engine takes over
        t1 = time.perf_counter()
        with tr.span("crawl.engine_init"):
            eng2 = CrawlEngine(self.cfg, store, ckpt)
        it["resume_probes"][0].append((t1, time.perf_counter()))
        self._hook_engine(eng2, it, tr)
        with tr.span("crawl.run"):  # resumes from the checkpoint
            m2 = eng2.run(max_waves=self.cfg.max_waves - self.split)
        it["wall_iv"] = (t0, time.perf_counter())
        for k in ("fetched", "written", "new_urls", "waves"):
            m[k] += m2[k]
        m["frontier_left"], m["seen"] = m2["frontier_left"], m2["seen"]
        it.update({k: m[k] for k in ("fetched", "written", "new_urls", "waves",
                                      "frontier_left", "seen")})
        it["engine"] = eng2
        return it

    # -- checks (outside timing) -------------------------------------------
    def check(self, it: dict) -> None:
        """Per wave: fetch log sorted by (priority, fetch_time, seq), no URL
        fetched twice, written + error rows == fetched, rows() == read
        count. Per run: wave totals match run(), whole-store rows() equals
        the snapshot read. A failed run-level check fails every wave."""
        import pyarrow.compute as pc

        from logcrawler_ray.pipelines.crawl import url_priority

        eng = it["engine"]
        store, log_store = eng.store, eng.log_store
        seen: set[str] = set()
        failed = 0
        fetched = written = errors = payload = 0
        pids = log_store.partitions()
        for pid in pids:
            log = log_store.read_table(pid)
            urls = log["url"].to_pylist()
            keys = [(url_priority(u, self.cfg.seed, self.cfg.priority_mode), ft, s)
                    for u, ft, s in zip(urls, log["fetch_time"].to_pylist(),
                                        log["seq"].to_pylist())]
            url_set = set(urls)
            ok = keys == sorted(keys)
            ok &= len(url_set) == len(urls) and not (seen & url_set)
            seen |= url_set
            n_rows = store.rows(pid) if store.is_done(pid) else -1
            img = store.read_table(pid, columns=["url", "bytes"]) if n_rows > 0 else None
            stored = img["url"].to_pylist() if img is not None else []
            stored_set = set(stored)
            err = len(url_set - stored_set)
            ok &= n_rows == len(stored) and len(stored_set) == len(stored)
            ok &= stored_set <= url_set and n_rows + err == len(urls)
            if img is not None:
                payload += int(pc.sum(pc.binary_length(img["bytes"])).as_py())
            failed += not ok
            fetched += len(urls)
            written += max(n_rows, 0)
            errors += err
        run_ok = (len(pids) == it["waves"] and fetched == it["fetched"]
                  and written == it["written"]
                  and store.rows() == store.read_table(columns=["url"]).num_rows)
        it["attempted"] = max(len(pids), it["waves"], 1)
        it["failed"] = it["attempted"] if not run_ok else failed
        it["error_rows"] = errors
        it["mb"] = payload / 1e6
        files = sorted(f for f in os.listdir(eng.ckpt.root) if f.endswith(".ckpt"))
        it["checkpoint_bytes"] = (os.path.getsize(os.path.join(eng.ckpt.root, files[-1]))
                                  if files else 0)

    def reference_check(self, it: dict) -> bool:
        """Fetch order and (image_id, phash) set equal the serial executor's
        for the same config; the serial side is cached per (seed, size)."""
        from logcrawler_ray.pipelines.reference_crawler import SerialCrawler

        def build() -> dict:
            sc = SerialCrawler(self.cfg)
            sc.run(self.seeds)
            return {"order": _sha([list(t) for t in sc.fetch_order()]),
                    "rows": _sha(sorted([r["image_id"], r["phash"]] for r in sc.rows))}

        key = "serial-" + inputs.crawl_key(self.seed, self.cfg_kwargs, self.n_seeds)
        ref, _ = inputs.cached_json(self.work, key, build)
        eng = it["engine"]
        tab = eng.store.read_table(columns=["image_id", "phash"])
        got = {"order": _sha([list(t) for t in eng.fetch_log()]),
               "rows": _sha(sorted(map(list, zip(tab["image_id"].to_pylist(),
                                                 tab["phash"].to_pylist()))))}
        self.ref_checked = True
        return got == ref

    def cleanup(self, it: dict) -> None:
        _stop(it.pop("engine", None))
        shutil.rmtree(it["root"], ignore_errors=True)

    # -- traced-run figures -------------------------------------------------
    def replay(self, traced: list[dict]) -> dict:
        """Replay the traced iterations' drained wave tables through a
        ``WaveStage`` in this process; CPU per row of fetch, decode, sink and
        routing (the remainder of ``WaveStage.__call__``)."""
        import pyarrow as pa

        from logcrawler_ray.pipelines import crawl as crawl_mod

        waves = [w for it in traced for w in it["drained"]]
        quota = -(-REPLAY_ROWS[self.size] // max(1, len(waves)))
        tmp = os.path.join(self.run_dir, "replay")
        os.makedirs(tmp, exist_ok=True)
        cfg = self.cfg
        stage = crawl_mod.WaveStage(
            {"seed": cfg.seed, "n_hosts": cfg.n_hosts,
             "pages_per_host": cfg.pages_per_host, **cfg.web_params},
            tmp, seed=cfg.seed, mode=cfg.priority_mode, n_shards=cfg.n_shards,
            max_depth=cfg.max_depth)
        acc: dict[str, float] = {}
        fetched: list = []
        fetch = _cpu_timed(stage.fetch, acc, "fetch")

        def fetch_and_keep(t):
            out = fetch(t)
            fetched.append(out)
            return out

        stage.fetch = fetch_and_keep
        stage.decode = _cpu_timed(stage.decode, acc, "decode")
        rows = 0
        with spans.patched(crawl_mod, "write_fragment",
                           lambda f: _cpu_timed(f, acc, "sink")):
            for emitted in waves:
                emitted = emitted[:quota]
                # the same input table CrawlEngine.run_wave builds
                t = pa.table({
                    "url": [r["url"] for r in emitted],
                    "host": [r["host"] for r in emitted],
                    "priority": pa.array([r["priority"] for r in emitted], pa.int32()),
                    "depth": pa.array([r["depth"] for r in emitted], pa.int32()),
                    "seq": pa.array([r["seq"] for r in emitted], pa.int64()),
                    "fetch_time": pa.array([r["fetch_time"] for r in emitted], pa.int64()),
                })
                for s in range(0, t.num_rows, cfg.batch_size):
                    batch = t.slice(s, cfg.batch_size)
                    c0 = time.thread_time()
                    stage(batch)
                    acc["total"] = acc.get("total", 0.0) + time.thread_time() - c0
                    rows += batch.num_rows
        shutil.rmtree(tmp, ignore_errors=True)
        if not rows:
            return {}
        us = {k: 1e6 * v / rows for k, v in acc.items()}
        out = {"fetch.cpu_us_per_row": us.get("fetch", 0.0),
               "decode.cpu_us_per_row": us.get("decode", 0.0),
               "sink.cpu_us_per_row": us.get("sink", 0.0),
               "wavestage.cpu_us_per_row": us["total"],
               "route.cpu_us_per_row": us["total"] - us.get("fetch", 0.0)
               - us.get("decode", 0.0) - us.get("sink", 0.0)}
        pages = pa.concat_tables(fetched)
        ok = pages.filter(pages["fetch_ok"])
        out.update(codec_layers(list(zip(
            ok["fmt"].to_pylist(), ok["bytes"].to_pylist(),
            ok["w"].to_pylist(), ok["h"].to_pylist()))))
        return out

    def layer_metrics(self, traced: list[dict], untraced: list[dict],
                      tr: spans.Tracer, replay: dict) -> dict:
        n = len(traced)
        tot, self_t = span_seconds(traced, tr)
        per = lambda v: v / n  # noqa: E731  (counts are per iteration)
        waves = sum(it["waves"] for it in traced)
        fetched = sum(it["fetched"] for it in traced)
        exec_s = self_t.get("crawl.wave", 0.0)
        ws_us = replay.get("wavestage.cpu_us_per_row", 0.0)
        links = per(tr.counts.get("crawl.links_routed", 0.0))
        new_urls = per(sum(it["new_urls"] for it in traced))
        untraced_wall = float(np.median([it["wall"] for it in untraced]))
        untraced_fetched = float(np.median([it["fetched"] for it in untraced]))
        fetch_s = untraced_fetched * replay.get("fetch.cpu_us_per_row", 0.0) * 1e-6
        out = {
            "crawl.drain_s": tot.get("crawl.drain", 0.0),
            "crawl.commit_s": tot.get("crawl.commit", 0.0),
            "crawl.log_append_s": tot.get("crawl.log_append", 0.0),
            "crawl.enqueue_s": tot.get("crawl.enqueue", 0.0),
            "crawl.checkpoint_s": (tot.get("crawl.checkpoint_state", 0.0)
                                   + tot.get("crawl.checkpoint_save", 0.0)),
            "crawl.resume_restore_s": tot.get("crawl.resume", 0.0),
            "crawl.exec_s": exec_s,
            "crawl.exec_overhead_s_per_wave":
                (exec_s * n - fetched * ws_us * 1e-6) / waves if waves else 0.0,
            "crawl.waves": per(waves),
            "crawl.fetched": per(fetched),
            "crawl.written": per(sum(it["written"] for it in traced)),
            "crawl.error_rows": per(sum(it["error_rows"] for it in traced)),
            "crawl.new_urls": new_urls,
            "crawl.links_routed": links,
            "crawl.new_url_ratio": new_urls / links if links else 0.0,
            "crawl.frontier_left": per(sum(it["frontier_left"] for it in traced)),
            "crawl.seen": per(sum(it["seen"] for it in traced)),
            "state.checkpoint_bytes": per(sum(it["checkpoint_bytes"] for it in traced)),
            "crawl.engine_only_urls_per_s":
                untraced_fetched / (untraced_wall - fetch_s)
                if untraced_wall > fetch_s else 0.0,
        }
        out.update(replay)
        return out

    def throughput(self, it: dict) -> dict:
        w = it["wall"]
        return {"urls": it["fetched"] / w, "rows": it["written"] / w,
                "mb": it["mb"] / w}


class IngestWorkload:
    """``ingest``: a seeded corpus through ``pipelines.ingest.ingest`` with
    dedup into a fresh ``open_store`` root, then a snapshot read-back. After
    the clock stops, resume probes: further ``ingest`` calls on new store
    handles, which must find the committed partition and do no work."""

    PID = "bench"
    RESUME_PROBES = 5
    BATCH = 128  # rows per IngestStage call (the legacy bench's value)

    def __init__(self, name: str, size: str, seed: int, work: str, run_dir: str):
        spec = SIZES[name][size]
        self.name, self.size, self.seed = name, size, seed
        self.work, self.run_dir = work, run_dir
        self.n_rows, self.n_files = spec["rows"], spec["files"]
        self.ref_checked = True  # the distinct-phash oracle runs every pass

    def prepare(self) -> bool:
        path, self.facts, hit = inputs.corpus(self.work, self.seed, self.n_rows,
                                              self.n_files)
        self.files = inputs.parquet_files(path)
        return hit

    def warm(self) -> None:
        it = self.iteration(-1, spans.NullTracer())
        self.cleanup(it)

    def iteration(self, i: int, tr) -> dict:
        import ray.data as rd

        from logcrawler_ray.pipelines.ingest import ingest
        from logcrawler_ray.sources.objstore import open_store
        from logcrawler_ray.stages import dedup

        root = os.path.join(self.run_dir, f"iter-{i:04d}")
        it = {"root": root}

        def merge_factory(merge):
            def traced_merge(pdf, key):
                with tr.span("ingest.merge_losers"):
                    out = merge(pdf, key)
                tr.count("ingest.driver_rows", len(pdf))
                tr.count("ingest.losers", len(out))
                return out
            return traced_merge

        t0 = time.perf_counter()
        with tr.span("ingest.open_store"):
            store = open_store(root + "/store")
        tr.wrap(store, "commit_external", "ingest.commit_raw")
        tr.wrap(store, "commit_delete_view", "ingest.view_commit")
        with tr.span("ingest.source"):
            src = rd.read_parquet(self.files)
        merge_spans = (spans.patched(dedup, "merge_loser_partials", merge_factory)
                       if tr.enabled else contextlib.nullcontext())
        with merge_spans, tr.span("ingest.run"):
            ingest(src, store, pid=self.PID, batch_size=self.BATCH)
        with tr.span("ingest.read"):
            snap = store.read_table()
        it["wall_iv"] = (t0, time.perf_counter())
        it["resume_probes"] = []
        for _ in range(self.RESUME_PROBES):  # after the clock stops
            t1 = time.perf_counter()
            with tr.span("ingest.resume"):
                again = open_store(root + "/store")
                ingest(src, again, pid=self.PID, batch_size=self.BATCH)
            it["resume_probes"].append([(t1, time.perf_counter())])
        it.update(store=store, snap=snap, rows_written=store.rows(self.PID))
        return it

    def check(self, it: dict) -> None:
        """rows(pid) equals the corpus's distinct-phash count and the
        read-back count; whole-store rows() equals the snapshot read; the
        read-back holds no phash twice."""
        import pyarrow.compute as pc

        store, snap = it["store"], it["snap"]
        ok = (it["rows_written"] == self.facts["distinct_phash"]
              and it["rows_written"] == snap.num_rows
              and store.rows() == snap.num_rows
              and len(pc.unique(snap["phash"])) == snap.num_rows)
        it["attempted"], it["failed"] = 1, int(not ok)

    def cleanup(self, it: dict) -> None:
        it.pop("store", None)
        it.pop("snap", None)
        shutil.rmtree(it["root"], ignore_errors=True)

    def replay(self, traced: list[dict]) -> dict:
        """Replay corpus batches through an ``IngestStage`` in this process:
        CPU per row of the whole stage, its DecodeStats, its parquet sink
        and its loser partials; then the codec layers on the same rows."""
        import pyarrow.parquet as pq

        from logcrawler_ray.pipelines import ingest as ingest_mod
        from logcrawler_ray.stages import dedup

        tmp = os.path.join(self.run_dir, "replay")
        os.makedirs(tmp, exist_ok=True)
        stage = ingest_mod.IngestStage(tmp, emit="partials")
        acc: dict[str, float] = {}
        stage.decode = _cpu_timed(stage.decode, acc, "decode")
        t = pq.read_table(self.files).slice(0, REPLAY_ROWS[self.size])
        with spans.patched(ingest_mod, "write_fragment",
                           lambda f: _cpu_timed(f, acc, "sink")), \
                spans.patched(dedup, "loser_partials",
                              lambda f: _cpu_timed(f, acc, "partials")):
            for s in range(0, t.num_rows, self.BATCH):
                c0 = time.thread_time()
                stage(t.slice(s, self.BATCH))
                acc["total"] = acc.get("total", 0.0) + time.thread_time() - c0
        shutil.rmtree(tmp, ignore_errors=True)
        us = {k: 1e6 * v / t.num_rows for k, v in acc.items()}
        out = {"ingest.stage_cpu_us_per_row": us["total"],
               "decode.cpu_us_per_row": us.get("decode", 0.0),
               "ingest.sink.cpu_us_per_row": us.get("sink", 0.0),
               "ingest.loser_partials.cpu_us_per_row": us.get("partials", 0.0)}
        out.update(codec_layers(list(zip(
            t["fmt"].to_pylist(), t["bytes"].to_pylist(),
            t["w"].to_pylist(), t["h"].to_pylist()))))
        return out

    def layer_metrics(self, traced: list[dict], untraced: list[dict],
                      tr: spans.Tracer, replay: dict) -> dict:
        n = len(traced)
        tot, self_t = span_seconds(traced, tr)
        per = lambda v: v / n  # noqa: E731  (counts are per iteration)
        rows_in = self.facts["rows"]
        losers = per(tr.counts.get("ingest.losers", 0.0))
        out = {
            "ingest.exec_s": self_t.get("ingest.run", 0.0),
            "ingest.commit_raw_s": tot.get("ingest.commit_raw", 0.0),
            "ingest.merge_losers_s": tot.get("ingest.merge_losers", 0.0),
            "ingest.view_commit_s": tot.get("ingest.view_commit", 0.0),
            "ingest.read_s": tot.get("ingest.read", 0.0),
            "ingest.rows_in": rows_in,
            "ingest.rows_written": per(sum(it["rows_written"] for it in traced)),
            "ingest.losers": losers,
            "ingest.driver_rows": per(tr.counts.get("ingest.driver_rows", 0.0)),
            "ingest.dedup_ratio": losers / rows_in if rows_in else 0.0,
        }
        out.update(replay)
        return out

    def throughput(self, it: dict) -> dict:
        w = it["wall"]
        return {"urls": self.facts["rows"] / w, "rows": it["rows_written"] / w,
                "mb": self.facts["payload_bytes"] / 1e6 / w}


WORKLOADS = {"crawl": CrawlWorkload, "ingest": IngestWorkload}
