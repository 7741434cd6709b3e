"""Serial reference executor — the oracle for crawl-equivalence tests.

A deliberately simple, single-process, no-Ray implementation of the SAME
BSP wave semantics as CrawlEngine (shared CrawlState: identical frontiers,
politeness budgets, seen shards, robots cache, clock). It fetches
and decodes inline, row by row, in drain order.

This mirrors the reference repo's own oracle pattern — the brute-force
``test_closest_other_frames`` kept beside the fast bisect implementation
(reference: 14_calculate_closest_frames.py:7-34): an obviously-correct
serial twin whose outputs the parallel engine must reproduce exactly
(fetch ordering, URL-seen set, image ids + phashes).
"""

from __future__ import annotations

import numpy as np

from ..codecs import registry
from ..functions.phash import phash_from_gray
from ..functions.hashing import to_int64
from ..pipelines.crawl import CrawlConfig, CrawlState, _links_in_order
import pyarrow as pa


class SerialCrawler:
    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg
        self.web = cfg.web()
        self.state = CrawlState(cfg)
        self.rows: list[dict] = []  # committed image rows (ok only)
        self.fetch_log: list[tuple] = []  # (wave, seq, url, fetch_time)

    def run(self, seeds: list[dict], max_waves: int | None = None) -> dict:
        st = self.state
        st.enqueue([s["url"] for s in seeds], [s["depth"] for s in seeds])
        st.wave = 0
        waves = 0
        limit = max_waves if max_waves is not None else self.cfg.max_waves
        while waves < limit:
            emitted = st.drain_wave()
            if not emitted:
                break
            for r in emitted:
                self.fetch_log.append((st.wave, r["seq"], r["url"], r["fetch_time"]))
            link_rows = {"seq": [], "depth": [], "links": []}
            for r in emitted:
                try:
                    page = self.web.fetch(r["url"])
                except Exception:
                    continue
                link_rows["seq"].append(r["seq"])
                link_rows["depth"].append(r["depth"])
                link_rows["links"].append(page["links"])
                try:
                    luma = registry.decode_gray(page["fmt"], page["bytes"],
                                                page["w"], page["h"])
                except Exception:
                    continue
                self.rows.append({
                    "url": r["url"], "seq": r["seq"], "fetch_time": r["fetch_time"],
                    "image_id": page["image_id"], "fmt": page["fmt"],
                    "w": page["w"], "h": page["h"], "caption": page["caption"],
                    "phash": to_int64(int(phash_from_gray(luma[None])[0])),
                })
            urls, depths = _links_in_order(pa.table({
                "seq": pa.array(link_rows["seq"], pa.int64()),
                "depth": pa.array(link_rows["depth"], pa.int32()),
                "links": pa.array(link_rows["links"], pa.list_(pa.string())),
            }))
            keep = [i for i, d in enumerate(depths) if d <= self.cfg.max_depth]
            st.enqueue([urls[i] for i in keep], [depths[i] for i in keep])
            st.wave += 1
            waves += 1
        return {
            "waves": waves,
            "fetched": len(self.fetch_log),
            "written": len(self.rows),
            "seen": st.seen_size(),
        }

    # -- equivalence probes ----------------------------------------------
    def fetch_order(self) -> list[tuple]:
        return list(self.fetch_log)

    def seen_tables(self) -> list[np.ndarray]:
        return self.state.seen_tables()
