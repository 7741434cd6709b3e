"""Fetch stage: turns frontier rows into raw image rows + discovered links.

Maps the reference's HTTP-fetch-with-failover stage (reference:
13_calculate_image_stats.py:11-29 choose-alive-server-once + :78-84
fetch+decode) onto ``map_batches(FetchWorker, concurrency=N)``: the backend
handle (here the deterministic SyntheticWeb; in production an HTTP session
pool with mirror failover) is built ONCE per worker in ``__init__``, and
each batch is ONE ``fetch_batch`` call over its URL column.

Output schema per input row:
  url, host, seq, fetch_time, depth, image_id, bytes, w, h, fmt, caption,
  links (list<string>), fetch_ok

Fetch failures are a per-row error channel (fetch_ok=False with empty page
columns; the other rows of the batch are unaffected), not a crash — the
reference ``quit()``s instead (13:107)."""

from __future__ import annotations

import pyarrow as pa

from ..sources.hosts import PAGE_SCHEMA, SyntheticWeb

_FRONTIER_FIELDS = [
    ("url", pa.string()),
    ("host", pa.string()),
    ("seq", pa.int64()),
    ("fetch_time", pa.int64()),
    ("depth", pa.int32()),
]
FETCH_SCHEMA = pa.schema(_FRONTIER_FIELDS + list(PAGE_SCHEMA))


class FetchWorker:
    """``ds.map_batches(FetchWorker, fn_constructor_kwargs={"web_params": ...},
    batch_format="pyarrow", concurrency=N)``."""

    def __init__(self, web_params: dict | None = None):
        self.web = SyntheticWeb(**(web_params or {}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        pages = self.web.fetch_batch(batch["url"])
        cols = [batch[name].cast(typ) for name, typ in _FRONTIER_FIELDS]
        return pa.Table.from_arrays(cols + pages.columns, schema=FETCH_SCHEMA)
