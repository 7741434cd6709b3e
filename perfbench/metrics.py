"""Metric tables: every metric the benchmark prints, with its unit.

``END_TO_END`` is printed by untraced runs (``--trace 0``) and
``PER_LAYER`` by traced runs (``--trace 1``), on every workload. A layer
a workload never enters reads 0 there (for example the ingest phases on
``crawl``); README.md maps each layer metric to the end-to-end metric and
workload it should move. ``BENCHMARK.json`` repeats these tables and the
smoke test keeps the two in step.
"""

from __future__ import annotations

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "urls_per_s": ("urls/s", "higher", 0.25),
    "rows_per_s": ("rows/s", "higher", 0.25),
    "mb_per_s": ("MB/s", "higher", 0.25),
    "wave_s_p50": ("s", "lower", 0.25),
    "wave_s_p90": ("s", "lower", 0.25),
    "resume_s": ("s", "lower", 0.25),
    "driver_peak_rss_mb": ("MB", "lower", 0.15),
}

_CRAWL_PHASES = ["crawl.drain_s", "crawl.commit_s", "crawl.log_append_s",
                 "crawl.enqueue_s", "crawl.checkpoint_s",
                 "crawl.resume_restore_s", "crawl.exec_s"]
_INGEST_PHASES = ["ingest.exec_s", "ingest.commit_raw_s",
                  "ingest.merge_losers_s", "ingest.view_commit_s",
                  "ingest.read_s"]
_PER_ROW = ["fetch.cpu_us_per_row", "decode.cpu_us_per_row",
            "sink.cpu_us_per_row", "route.cpu_us_per_row",
            "wavestage.cpu_us_per_row", "codecs.png_us_per_row",
            "codecs.jpeg_us_per_row", "codecs.yuv422_us_per_row",
            "phash.cpu_us_per_row", "image_stats.cpu_us_per_row",
            "ingest.stage_cpu_us_per_row",
            "ingest.loser_partials.cpu_us_per_row",
            "ingest.sink.cpu_us_per_row"]
_COUNTS = ["crawl.waves", "crawl.fetched", "crawl.written",
           "crawl.error_rows", "crawl.new_urls", "crawl.links_routed",
           "crawl.frontier_left", "crawl.seen", "ingest.rows_in",
           "ingest.rows_written", "ingest.losers", "ingest.driver_rows"]

_FEWER_IS_BETTER = {"crawl.error_rows", "crawl.frontier_left",
                    "ingest.driver_rows"}

# name -> (unit, better). Counts are fixed by the seed; their direction
# only says which way a change in the program would be welcome.
PER_LAYER = {
    **{n: ("s", "lower") for n in _CRAWL_PHASES},
    "crawl.exec_overhead_s_per_wave": ("s", "lower"),
    **{n: ("s", "lower") for n in _INGEST_PHASES},
    **{n: ("us/row", "lower") for n in _PER_ROW},
    **{n: ("count", "lower" if n in _FEWER_IS_BETTER else "higher")
       for n in _COUNTS},
    "state.checkpoint_bytes": ("bytes", "lower"),
    "crawl.new_url_ratio": ("ratio", "higher"),
    "ingest.dedup_ratio": ("ratio", "higher"),
    "crawl.engine_only_urls_per_s": ("urls/s", "higher"),
    "trace.coverage_frac": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
    "failed_frac": ("frac", "lower"),
}
