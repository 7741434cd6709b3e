"""Deterministic synthetic image+caption corpus (FIXTURES.md F1/F2).

Generates the canonical input table of BASELINE.json ``input_hint``:
``(image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
caption:string, phash:int64)`` — plus the crawl seed columns (url, host,
host_hash, priority, depth).

Everything is a pure function of ``(seed, row_index)``:
- ``image_id`` = ``{host}/{page:06d}/{img:02d}`` and doubles as the URL path;
- pixels = deterministic gradient + seeded noise, sizes 64x48 … 640x480
  (640x480 yuv422 rows are the reference's 614,400-byte records,
  reference: 02_combine_logs.py:24-27);
- ~5% of rows belong to planted duplicate groups sharing pixel content
  (hence phash) — the dedup oracle;
- one hot host holds ~30% of rows — the skew fixture;
- ``fmt`` ∈ {png, jpeg, yuv422} decided by content (duplicates share fmt).

Scales: use ``corpus_table`` for small driver-side fixtures and
``corpus_dataset`` (``ray.data.range -> map_batches``) to synthesize
benchmark-scale corpora fully in parallel with no driver loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import registry
from ..functions.hashing import splitmix64, to_int64
from ..functions.phash import phash_from_gray
from ..functions.urlnorm import host_hash

SIZES = [(64, 48), (96, 64), (128, 96), (320, 240), (640, 480)]
_SIZE_W = np.array([30, 30, 25, 10, 5], dtype=np.float64)
_SIZE_CDF = np.cumsum(_SIZE_W) / _SIZE_W.sum()
FMTS = ["png", "jpeg", "yuv422"]
_FMT_CDF = np.array([0.4, 0.8, 1.0])

DUP_FRAC_PCT = 5  # % of rows in planted duplicate groups
HOT_HOST_PCT = 30  # % of rows on the hot host

SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("url", pa.string()),
        ("host", pa.string()),
        ("host_hash", pa.int64()),
        ("priority", pa.int32()),
        ("depth", pa.int32()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


def caption_for(image_id: str) -> str:
    """Exact-equality caption oracle: pure function of image_id."""
    tokens = image_id.replace("/", " ").replace("-", " ").replace(".", " ")
    return f"a synthetic photo of {tokens} in the test corpus"


def _pixel_stack(content_keys, w: int, h: int) -> np.ndarray:
    """Deterministic gradient + luma-noise RGB images, one per content key:
    ``(n, h, w, 3)`` uint8.

    Noise is applied to luma only (same delta on all three channels) so the
    image survives 4:2:2 chroma subsampling at high fidelity — pixel chroma
    stays smooth, like real photos, keeping the jpeg/yuv422 round trip
    above the PSNR >= 40 dB fixture bar.

    Each key keeps its own ``default_rng`` stream (6 gradient params, then
    h*w noise draws); the float32 math then runs once over the whole stack,
    planar, in the per-image op order ``((p_c*y + p_3+c*x) * 0.7 + noise)``
    -> clip -> truncate. The params are cast to float32 before the
    multiply: NumPy 1.26 evaluates ``int64 scalar * float32 array`` in
    float32, and every param (< 256) is exact there.
    """
    keys = [int(k) for k in content_keys]
    n = len(keys)
    params = np.empty((n, 6), dtype=np.float32)
    noise = np.empty((n, h, w), dtype=np.float32)
    for i, key in enumerate(keys):
        rng = np.random.default_rng(key)
        params[i] = rng.integers(0, 256, size=6)
        noise[i] = rng.integers(0, 24, size=(h, w))
    yy = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None]
    xx = np.linspace(0.0, 1.0, w, dtype=np.float32)[None, :]
    out = np.empty((n, h, w, 3), dtype=np.uint8)
    plane = np.empty((n, h, w), dtype=np.float32)
    for c in range(3):
        np.add(params[:, c, None, None] * yy, params[:, 3 + c, None, None] * xx,
               out=plane)
        plane *= np.float32(0.7)
        plane += noise
        # every term is >= 0, so only the upper clip bound can bite
        np.minimum(plane, 255, out=plane)
        out[..., c] = plane
    return out


def _pixels(content_key: int, w: int, h: int) -> np.ndarray:
    """One key's ``(h, w, 3)`` image: the one-key case of :func:`_pixel_stack`."""
    return _pixel_stack([content_key], w, h)[0]


def _content_keys(idx: np.ndarray, seed: int, n_rows_hint: int) -> np.ndarray:
    """Row index -> content key; ~DUP_FRAC_PCT% of rows share keys in groups of ~3."""
    mix = splitmix64(idx.astype(np.uint64) ^ np.uint64(seed * 0x9E37 + 1))
    is_dup = (mix % np.uint64(100)) < np.uint64(DUP_FRAC_PCT)
    n_groups = max(1, (n_rows_hint * DUP_FRAC_PCT) // 100 // 3)
    group = splitmix64(mix) % np.uint64(n_groups)
    dup_key = splitmix64(group + np.uint64(seed * 7919 + 13))
    uniq_key = splitmix64(idx.astype(np.uint64) + np.uint64(seed * 104729 + 17))
    return np.where(is_dup, dup_key, uniq_key)


def corpus_batch(idx: np.ndarray, seed: int = 42, n_rows_hint: int | None = None,
                 n_hosts: int | None = None) -> pa.Table:
    """Pure function: int64 row indices -> corpus rows (SCHEMA above)."""
    idx = np.asarray(idx, dtype=np.int64)
    n = len(idx)
    hint = n_rows_hint or max(int(idx.max()) + 1 if n else 1, n)
    n_hosts = n_hosts or max(4, hint // 50)

    keys = _content_keys(idx, seed, hint)
    hsel = splitmix64(idx.astype(np.uint64) + np.uint64(seed * 31 + 3))
    hot = (hsel % np.uint64(100)) < np.uint64(HOT_HOST_PCT)
    host_id = np.where(hot, 0, 1 + splitmix64(hsel) % np.uint64(max(1, n_hosts - 1)))

    u = (keys % np.uint64(10_000)).astype(np.float64) / 10_000.0
    size_idx = np.searchsorted(_SIZE_CDF, u, side="right").clip(0, len(SIZES) - 1)
    f = (splitmix64(keys ^ np.uint64(0xF0F0)) % np.uint64(1000)).astype(np.float64) / 1000.0
    fmt_idx = np.searchsorted(_FMT_CDF, f, side="right").clip(0, len(FMTS) - 1)

    image_ids, urls, hosts, blobs, fmts = [], [], [], [], []
    ws = np.empty(n, dtype=np.int32)
    hs = np.empty(n, dtype=np.int32)
    phashes = np.empty(n, dtype=np.uint64)

    # group rows by (size, fmt) so decode-free phash runs batched per group
    order = np.lexsort((fmt_idx, size_idx))
    pix_cache: dict[int, np.ndarray] = {}
    rgb_by_row: dict[int, np.ndarray] = {}
    for j in order:
        w, h = SIZES[size_idx[j]]
        key = int(keys[j])
        cached = pix_cache.get(key)
        if cached is None or cached.shape[:2] != (h, w):
            cached = _pixels(key, w, h)
            pix_cache[key] = cached
        rgb_by_row[j] = cached

    luma_by_row: dict[int, np.ndarray] = {}
    for j in range(n):
        i = int(idx[j])
        host = f"host-{int(host_id[j]):04d}.test"
        page, img_no = i // 4, i % 4
        image_id = f"{host}/{page:06d}/{img_no:02d}"
        fmt = FMTS[fmt_idx[j]]
        rgb = rgb_by_row[j]
        blob = registry.encode(fmt, rgb)
        w, h = SIZES[size_idx[j]]
        # the stored phash is the hash of the *decoded luma* (the same
        # registry.decode_gray path the pipeline uses), so a pipeline that
        # re-decodes the blob reproduces the column bit-exactly
        luma_by_row[j] = registry.decode_gray(fmt, blob, w, h)
        image_ids.append(image_id)
        urls.append(f"http://{image_id}")
        hosts.append(host)
        blobs.append(blob)
        fmts.append(fmt)
        ws[j] = w
        hs[j] = h

    for size_i in np.unique(size_idx):
        rows = np.nonzero(size_idx == size_i)[0]
        stack = np.stack([luma_by_row[j] for j in rows])
        phashes[rows] = phash_from_gray(stack)

    prio = (splitmix64(idx.astype(np.uint64) ^ np.uint64(0xABCD)) % np.uint64(100)).astype(np.int32)
    return pa.table(
        {
            "image_id": image_ids,
            "url": urls,
            "host": hosts,
            "host_hash": [to_int64(host_hash(hst)) for hst in hosts],
            "priority": prio,
            "depth": np.zeros(n, dtype=np.int32),
            "bytes": blobs,
            "w": ws,
            "h": hs,
            "fmt": fmts,
            "caption": [caption_for(iid) for iid in image_ids],
            "phash": to_int64(phashes),
        },
        schema=SCHEMA,
    )


def corpus_table(n_rows: int, seed: int = 42, n_hosts: int | None = None) -> pa.Table:
    """Small driver-side corpus (tests / fixtures)."""
    return corpus_batch(np.arange(n_rows, dtype=np.int64), seed, n_rows, n_hosts)


def corpus_dataset(n_rows: int, seed: int = 42, batch_size: int = 512):
    """Benchmark-scale corpus as a parallel Ray Data pipeline (no driver loop)."""
    import ray.data as rd

    def synth(batch: pa.Table) -> pa.Table:
        return corpus_batch(batch["id"].to_numpy(), seed, n_rows)

    return rd.range(n_rows).map_batches(
        synth, batch_format="pyarrow", batch_size=batch_size
    )


def write_corpus_parquet(path: str, n_rows: int, seed: int = 42,
                         batch_size: int = 512,
                         num_files: int | None = None) -> None:
    """Materialize a corpus to parquet once (bench inputs are then re-read).

    ``num_files`` controls the output file count (default: one file per
    ~312 rows, capped at 64). A handful of giant files caps every
    downstream reader's fan-out at len(files) tasks — the 100-TB layout
    is MANY files sized well under the block target, so read parallelism
    is set by the cluster, not the writer (measured: a 4-file 20k-row
    corpus capped ingest reads at 4 tasks and halved 2->8 scaling).

    Dictionary encoding only on the low-cardinality columns (same policy
    as ``sources.store.write_fragment``): pyarrow's default dictionary
    pass hashes every multi-KB payload for nothing, and dictionary-encoded
    binary also reads ~25% slower."""
    if num_files is None:
        num_files = max(1, min(64, n_rows // 312))
    corpus_dataset(n_rows, seed, batch_size).repartition(num_files).write_parquet(
        path, use_dictionary=["host", "fmt"])
