"""Per-image quality statistics: brightness, blurredness, resolution.

Mirrors the reference's stats stage (reference: 13_calculate_image_stats.py:
32-35 ``calculate_blurredness`` = variance of the Laplacian, :86-97
brightness = mean of the grayscale image, resolution = "WxH" string) without
cv2: the Laplacian uses the same 3x3 kernel [[0,1,0],[1,-4,1],[0,1,0]] that
``cv2.Laplacian(img, CV_64F)`` applies, with edge replication.

Batched over (N, h, w) stacks of identical dims, in blocks of whole images
or row bands sized to stay in L2 (the stacks of large images do not).
"""

from __future__ import annotations

import numpy as np


# Elements per Laplacian block: the block, its float64 copy and the input
# rows it reads stay inside a 2 MiB L2 instead of streaming whole stacks
# through memory once per pass.
_BLOCK = 1 << 16


def _block_shape(h: int, w: int) -> tuple[int, int]:
    """(images, rows) per block of about ``_BLOCK`` pixels: several whole
    images when they fit, else row bands of one image."""
    per = max(1, _BLOCK // max(1, h * w))
    return per, (h if per > 1 else max(1, min(h, _BLOCK // max(1, w))))


def _blocks(n: int, h: int, w: int):
    """(first image, end image, first row, end row) of each block, in order."""
    per, rows = _block_shape(h, w)
    for i in range(0, n, per):
        for a in range(0, h, rows):
            yield i, min(n, i + per), a, min(h, a + rows)


def _laplacian_rows(gray: np.ndarray, a: int, b: int, out: np.ndarray,
                    tmp: np.ndarray) -> np.ndarray:
    """Rows ``a:b`` of ``laplacian(gray)`` into ``out`` ((N, b - a, w));
    ``tmp`` is scratch of the same shape.

    Each element is summed as ``(((up + down) + left) + right) - 4c``,
    the neighbours of border pixels replicated, so a band equals the same
    rows of the whole-image Laplacian bit for bit."""
    h = gray.shape[1]
    i0, i1 = max(a, 1), min(b, h - 1)  # rows with both vertical neighbours
    if i1 > i0:
        np.add(gray[:, i0 - 1:i1 - 1], gray[:, i0 + 1:i1 + 1], out=out[:, i0 - a:i1 - a])
    for r in {0, h - 1}:
        if a <= r < b:
            np.add(gray[:, max(r - 1, 0)], gray[:, min(r + 1, h - 1)], out=out[:, r - a])
    c = gray[:, a:b]
    out[:, :, 1:] += c[:, :, :-1]  # left neighbour (col 0 replicates)
    out[:, :, 0] += c[:, :, 0]
    out[:, :, :-1] += c[:, :, 1:]  # right neighbour (last col replicates)
    out[:, :, -1] += c[:, :, -1]
    np.multiply(c, 4.0, out=tmp)
    out -= tmp
    return out


def laplacian(gray: np.ndarray) -> np.ndarray:
    """(N, h, w) float -> (N, h, w) Laplacian with replicated borders.

    Dtype-preserving (float32 in the decode hot path). Shifted in-place
    accumulation straight into the output — no padded copy of the input
    (np.pad cost one full extra array write+read per batch; measured ~25%
    of the kernel). Summation order (up+down+left+right-4c) matches the
    padded version element-for-element, so results are bitwise-identical.
    """
    out = np.empty_like(gray)
    return _laplacian_rows(gray, 0, gray.shape[1], out, np.empty_like(gray))


def blurredness_batch(gray: np.ndarray) -> np.ndarray:
    """Variance of the Laplacian per image (13_calculate_image_stats.py:32-35).

    Accepts float32 luma. The Laplacian is built block by block (see
    ``_blocks``); each block's values are widened to float64 once and
    folded into per-image float64 moments, E[x^2] - E[x]^2. The Laplacian
    with replicated borders sums to zero, so that form loses no precision
    here.
    """
    n, h, w = gray.shape
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    per, rows = _block_shape(h, w)
    size = min(n, per) * rows * w
    lap_buf = np.empty(size, dtype=gray.dtype)
    tmp_buf = np.empty_like(lap_buf)
    wide_buf = np.empty(size, dtype=np.float64)
    for i, j, a, b in _blocks(n, h, w):
        shape = (j - i, b - a, w)
        m = (j - i) * (b - a) * w
        lap = _laplacian_rows(gray[i:j], a, b, lap_buf[:m].reshape(shape),
                              tmp_buf[:m].reshape(shape))
        wide = wide_buf[:m].reshape(j - i, -1)
        np.copyto(wide, lap.reshape(j - i, -1))
        # pairwise sums along contiguous rows: a pure function of each
        # image, whatever else shares its block
        s1[i:j] += wide.sum(axis=1)
        np.square(wide, out=wide)
        s2[i:j] += wide.sum(axis=1)
    px = h * w
    mean = s1 / px
    return s2 / px - mean * mean


def brightness_batch(gray: np.ndarray) -> np.ndarray:
    """Mean gray level per image (13_calculate_image_stats.py:88), summed
    in float64 over blocks of whole images (see ``_blocks``)."""
    n, h, w = gray.shape
    out = np.empty(n)
    per, _ = _block_shape(h, w)
    for i in range(0, n, per):
        np.add.reduce(gray[i:i + per].reshape(-1, h * w), axis=1, dtype=np.float64,
                      out=out[i:i + per])
    return out / (h * w)
