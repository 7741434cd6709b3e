"""logcrawler_ray — a Ray-Data-native crawl/ingest engine.

Public API surface (see README.md for architecture, COVERAGE.md for the
operator inventory):

- pipelines: ``CrawlEngine``/``CrawlConfig`` (frontier crawl),
  ``ingest`` (decode+stats+phash+dedup), ``update_image_stats``,
  combine pipelines.
- sources: ``open_store`` (the one partitioned table store: manifest-last
  commits on a plain path or any fsspec URL, delete-vector views,
  snapshot reads), corpus synthesizers, NaoTH binary scanners, ``SyntheticWeb``.
- stages: ``DecodeStats``, ``FetchWorker``, dedup (exact/MinHash/SimHash),
  ANN, as-of joins, skew helpers, multimodal stages.
- state: bloom/cuckoo URL-seen, frontier shards, politeness, checkpoints.
"""

__version__ = "0.1.0"

__all__ = [
    "CrawlConfig",
    "CrawlEngine",
    "ingest",
    "open_store",
]


def __getattr__(name):  # lazy: importing the package must not pull ray
    if name in ("CrawlConfig", "CrawlEngine"):
        from .pipelines import crawl

        return getattr(crawl, name)
    if name == "open_store":
        from .sources.objstore import open_store

        return open_store
    if name == "ingest":
        from .pipelines.ingest import ingest

        return ingest
    raise AttributeError(name)
