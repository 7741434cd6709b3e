"""Decode + stats + phash — the flagship per-image compute stage.

One batch callable replaces the reference's producer/consumer thread pool
(reference: 06_extract_images.py:296-366 — ``ThreadPoolExecutor(2*cpu)``
popping batches of 50 from an unbounded queue) and its separate stats pass
(13_calculate_image_stats.py:61-124): decode YUV422/JPEG/PNG (M5/M6),
grayscale + brightness + blurredness (M11) and the 64-bit phash (O7) in one
pass over zero-copy Arrow batches.

Vectorization strategy: the per-row codec call is unavoidable
(variable-size binary payloads), but it decodes only luma, and straight
into its size group's stack: rows are grouped by their declared (h, w),
each group's float32 (N, h, w) stack is allocated once, and every luma
fast path (``codecs/registry.py::decode_gray``) writes its row in place,
its zlib stream inflated by libdeflate (``codecs/inflate.py``). A payload
whose own dims differ from the declared ones (a PNG's header) is stacked
with the rows of its decoded dims instead. The phash pooling, the
brightness mean and the Laplacian then run as whole-stack numpy ops per
group (``functions/phash.py``, ``functions/image_stats.py``), the latter
two over L2-sized blocks.

Rows that fail to decode go to an error channel (``decode_ok = False``)
instead of killing the run — the reference ``quit()``s on the first bad row
(07_input_cognition_data_rust.py:104-106, 12_input_images.py:59); at 100 TB
a poison row must not stop the stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import registry
from ..functions.image_stats import blurredness_batch, brightness_batch
from ..functions.phash import phash_from_gray
from ..functions.hashing import to_int64


class DecodeStats:
    """Batch stage: ``ds.map_batches(DecodeStats, batch_format="pyarrow")``
    as tasks, or called in-process on a ``pa.Table`` by the fused ingest and
    crawl stages (``IngestStage``, ``WaveStage``) and ``update_image_stats``.

    Parameters are plain data so the class pickles cheaply; codec lookup
    happens once per instance in ``__init__`` (never per batch).
    """

    def __init__(self, keep_bytes: bool = True, keep_pixels: bool = False):
        self.keep_bytes = keep_bytes
        self.keep_pixels = keep_pixels
        self.decode = registry.decode  # bind once per instance
        self.decode_gray = registry.decode_gray

    def _luma_groups(self, fmts, blobs, ws, hs, ok, decoded):
        """Decode every row's luma straight into its size group's stack.

        Returns ``(rows, (N, h, w) float32 stack)`` pairs, one stack per
        decoded size. Rows that fail to decode are marked in ``ok`` and
        appear in no group."""
        declared: dict[tuple[int, int], list[int]] = {}
        for i, dims in enumerate(zip(hs.tolist(), ws.tolist())):
            declared.setdefault(dims, []).append(i)
        groups = []
        other: dict[tuple[int, int], tuple[list[int], list[np.ndarray]]] = {}
        for (h, w), members in declared.items():
            stack = np.empty((len(members), max(h, 0), max(w, 0)), dtype=np.float32)
            rows: list[int] = []
            for i in members:
                dst = stack[len(rows)]
                try:
                    luma = self.decode_gray(fmts[i], blobs[i], w, h, out=dst)
                    if not luma.size:
                        raise ValueError("empty image")
                    if self.keep_pixels:
                        decoded[i] = self.decode(fmts[i], blobs[i], w, h)
                except Exception:
                    ok[i] = False
                    continue
                if luma.shape != dst.shape:  # the payload's own dims rule
                    lumas = other.setdefault(luma.shape, ([], []))
                    lumas[0].append(i)
                    lumas[1].append(luma)
                    continue
                if luma is not dst:
                    dst[...] = luma
                rows.append(i)
            if rows:
                groups.append((rows, stack[:len(rows)]))
        return groups + [(rows, np.stack(lumas)) for rows, lumas in other.values()]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        blobs = batch["bytes"].to_pylist()

        # luma path only — Y-plane formats never materialize RGB here
        # (full RGB is decoded only when keep_pixels is requested)
        decoded: list[np.ndarray | None] = [None] * n
        ok = np.ones(n, dtype=bool)
        phash = np.zeros(n, dtype=np.uint64)
        bright = np.zeros(n, dtype=np.float64)
        blur = np.zeros(n, dtype=np.float64)
        res_w, res_h = ws.astype(np.int64), hs.astype(np.int64)

        for rows, gray in self._luma_groups(fmts, blobs, ws, hs, ok, decoded):
            phash[rows] = phash_from_gray(gray)
            bright[rows] = brightness_batch(gray)
            blur[rows] = blurredness_batch(gray)
            res_h[rows], res_w[rows] = gray.shape[1:]

        cols = {name: batch[name] for name in batch.column_names}
        if not self.keep_bytes:
            cols.pop("bytes", None)
        cols["phash"] = pa.array(to_int64(phash), type=pa.int64())
        cols["brightness"] = pa.array(bright)
        cols["blurredness"] = pa.array(blur)
        cols["resolution"] = pa.array(
            [f"{w}x{h}" for w, h in zip(res_w.tolist(), res_h.tolist())], type=pa.string()
        )
        cols["decode_ok"] = pa.array(ok)
        if self.keep_pixels:
            cols["pixels"] = pa.array(
                [d.tobytes() if d is not None else None for d in decoded], type=pa.binary()
            )
        return pa.table(cols)
