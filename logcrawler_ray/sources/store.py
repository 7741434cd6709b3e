"""Parquet fragment writer shared by the table store
(:mod:`.objstore`) and every task-side sink that writes store fragments
directly (crawl WaveStage, IngestStage, distributed loser passes)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

# Low-cardinality string columns worth parquet dictionary encoding. The
# pyarrow default (use_dictionary=True) hashes EVERY value — including
# multi-KB image payloads and unique ids — into a per-column dict that
# then overflows and falls back to plain anyway; measured 3x the encode
# CPU of plain encoding on 128-row decode batches (9.3 -> 3.2 ms).
_DICT_COLS = frozenset({"host", "fmt", "resolution", "lang", "name", "label"})


def write_fragment(table: pa.Table, path: str, compression: str = "none",
                   storage_options: dict | None = None) -> None:
    """Hot-path parquet fragment writer (task-side sinks + store commits):
    dictionary encoding only where it pays (see ``_DICT_COLS``).

    ``path`` may be an fsspec URL (``s3://…``, ``memory://…``) — the
    store hands fused-sink tasks a staging URL and each task PUTs its
    fragment directly; plain paths keep the local fast path.
    ``storage_options`` are the store's fsspec connection kwargs
    (endpoint, credentials) — REQUIRED wherever the driver's filesystem was
    built with them, else task-side writes reconnect with defaults and
    misroute (ADVICE r4)."""
    use_dict = [n for n in table.column_names if n in _DICT_COLS]
    if "://" in path:
        import fsspec

        fs, key = fsspec.core.url_to_fs(path, **(storage_options or {}))
        try:
            with fs.open(key, "wb") as f:
                pq.write_table(table, f, compression=compression,
                               use_dictionary=use_dict)
        except FileNotFoundError:
            # directory-ful fs behind the URL (dir://, sftp, ...) whose
            # stage prefix only exists on the driver's instance — object
            # stores never hit this branch
            fs.makedirs(key.rsplit("/", 1)[0], exist_ok=True)
            with fs.open(key, "wb") as f:
                pq.write_table(table, f, compression=compression,
                               use_dictionary=use_dict)
        return
    pq.write_table(table, path, compression=compression,
                   use_dictionary=use_dict)
