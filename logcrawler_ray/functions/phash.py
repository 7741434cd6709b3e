"""64-bit DCT perceptual hash (pHash), pure numpy, batch-vectorized.

The reference has no near-dup operator (SURVEY.md §2.6 O7 — its closest-frame
join is time-based); the north rule adds phash-keyed dedup as a first-class
column of the image table, so this implementation is the engine's canonical
one: gray -> area-mean resize to 32x32 -> 2D DCT-II -> top-left 8x8 minus DC
-> median threshold -> 64 bits.

``phash_batch`` hashes N images of *identical* dims in one batched matmul
(N, 32, 32) x DCT matrices — images of mixed sizes are grouped by (w, h)
by the caller (see stages/decode.py).
"""

from __future__ import annotations

import math

import numpy as np

_N = 32  # resize target
_K = 8  # low-frequency block

_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)).reshape(1, 64)


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None].astype(np.float64)
    i = np.arange(n)[None, :].astype(np.float64)
    m = np.cos(np.pi / n * (i + 0.5) * k)
    m[0] *= 1.0 / np.sqrt(2.0)
    return m * np.sqrt(2.0 / n)


_DCT = _dct_matrix(_N)
_DCT_T = _DCT.T.copy()


def grayscale(rgb: np.ndarray) -> np.ndarray:
    """(..., h, w, 3) uint8 RGB -> (..., h, w) float32 luma (ITU-R 601)."""
    arr = rgb.astype(np.float32)
    return 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]


def _pairwise(parts: list[np.ndarray]) -> np.ndarray:
    """Element-wise sum of equal-shape arrays in the order of numpy's
    pairwise summation (``pairwise_sum`` in its add loops): under 8 terms
    a running sum; up to 128, eight interleaved accumulators combined as
    ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))`` before the tail is added;
    above that, the two halves split at a multiple of 8. The result may be
    ``parts[0]`` itself."""
    m = len(parts)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise(parts[:half]) + _pairwise(parts[half:])
    if m < 8:
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p if acc is parts[0] else np.add(acc, p, out=acc)
        return acc
    r = list(parts[:8])
    i = 8
    while i < m - m % 8:
        r = [np.add(r[j], parts[i + j], out=None if i == 8 else r[j]) for j in range(8)]
        i += 8
    acc = r[0] + r[1]
    acc += r[2] + r[3]
    tail = r[4] + r[5]
    tail += r[6] + r[7]
    acc += tail
    for p in parts[i:]:
        acc += p
    return acc


def _pool(x: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    """Sum the area bins of ``x`` along ``axis`` bit for bit as
    ``np.add.reduceat(x, (np.arange(out_len) * n) // out_len, axis)`` does:
    each bin is its first element plus the pairwise sum of the rest, and a
    bin whose edge repeats (n < out_len) holds its single first element.

    The bins repeat with a period of ``out_len / g`` bins over ``n / g``
    elements (g = gcd(n, out_len)), so the k-th element of bin j in every
    period is one strided slab ``x[..., s_j + k :: n / g, ...]``: the sum
    runs as whole-slab adds, where reduceat makes one strided inner-loop
    call per output element."""
    n = x.shape[axis]
    g = math.gcd(n, out_len)
    period, bins = n // g, out_len // g

    def take(a: np.ndarray, sl: slice) -> np.ndarray:
        return a[(slice(None),) * axis + (sl,)]

    shape = list(x.shape)
    shape[axis] = out_len
    out = np.empty(shape, dtype=x.dtype)
    for j in range(bins):
        s = j * n // out_len
        e = max((j + 1) * n // out_len, s + 1)
        parts = [take(x, slice(s + k, None, period)) for k in range(e - s)]
        dst = take(out, slice(j, None, bins))
        if len(parts) == 1:
            dst[...] = parts[0]
        else:
            np.add(parts[0], _pairwise(parts[1:]), out=dst)
    return out


def _bin_counts(n: int, out_len: int) -> np.ndarray:
    """Elements per area bin, at least 1 (a repeated edge's bin holds one)."""
    edges = (np.arange(out_len + 1) * n) // out_len
    return np.maximum(np.diff(edges), 1).astype(np.float32)


def area_resize(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(N, h, w) float -> (N, out_h, out_w) via area-mean pooling.

    Works for arbitrary h, w, fully vectorized over N; an axis shorter than
    its output repeats its elements (nearest neighbour). Rows pool first,
    then columns, each bit-identical to ``np.add.reduceat`` over the bin
    edges (see ``_pool``); the bin means divide by the bin counts, rows
    first. (A BLAS-matmul variant was measured SLOWER single-threaded —
    the shape Ray tasks run in.)
    """
    _, h, w = gray.shape
    pooled = _pool(_pool(gray, out_h, 1), out_w, 2)
    pooled /= _bin_counts(h, out_h)[None, :, None]
    pooled /= _bin_counts(w, out_w)[None, None, :]
    return pooled


def phash_batch(rgb: np.ndarray) -> np.ndarray:
    """(N, h, w, 3) uint8 RGB -> (N,) uint64 phash."""
    return phash_from_gray(grayscale(rgb))


def phash_from_gray(gray: np.ndarray) -> np.ndarray:
    """(N, h, w) float luma -> (N,) uint64 phash (reuses a precomputed
    grayscale so decode stages run luma extraction once per batch)."""
    n = len(gray)
    small = area_resize(gray, _N, _N).astype(np.float64)
    freq = _DCT @ small @ _DCT_T  # (N, 32, 32)
    block = freq[:, :_K, :_K].reshape(n, _K * _K)
    coeffs = block[:, 1:]  # drop DC
    med = np.median(coeffs, axis=1, keepdims=True)
    bits = (coeffs > med).astype(np.uint64)
    padded = np.concatenate([np.zeros((n, 1), dtype=np.uint64), bits], axis=1)
    return (padded * _BITS).sum(axis=1, dtype=np.uint64)


def phash_one(rgb: np.ndarray) -> int:
    return int(phash_batch(rgb[None, ...])[0])


def hamming_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise popcount(a ^ b) over uint64 arrays."""
    x = (a ^ b).view(np.uint64)
    cnt = np.zeros(x.shape, dtype=np.uint8)
    bytes_view = x.view(np.uint8).reshape(*x.shape, 8)
    return np.unpackbits(bytes_view, axis=-1).sum(axis=-1).astype(np.uint8) + cnt
