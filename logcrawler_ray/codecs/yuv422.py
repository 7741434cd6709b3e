"""YUV422 (YUYV) <-> RGB codec, pure numpy.

Decode math mirrors the reference pipeline's image extraction
(reference: 06_extract_images.py:207-229 ``image_from_proto``): stride-slice
y/u/v from the interleaved YUYV buffer, duplicate chroma horizontally to
YCbCr888, then full-range JPEG YCbCr -> RGB (what PIL's
``Image.frombytes("YCbCr", ...).convert("RGB")`` computes).

This module is the pixel-correctness oracle for every other codec: the
qjpeg codec (see ``qjpeg.py``) decodes *through* this path exactly like the
reference routes decoded JPEGs through its yuv422 path
(reference: 06_extract_images.py:232-267 ``image_from_proto_jpeg``).
"""

from __future__ import annotations

import numpy as np

# Full-range JPEG YCbCr coefficients (ITU-T T.871), identical to PIL's
# YCbCr->RGB conversion up to rounding.
_R_CR = 1.402
_G_CB = -0.344136
_G_CR = -0.714136
_B_CB = 1.772


def yuv422_to_ycbcr(data: bytes | np.ndarray, w: int, h: int) -> np.ndarray:
    """Interleaved YUYV bytes -> (h, w, 3) uint8 YCbCr array.

    Chroma is upsampled by duplication, exactly like the reference
    (06_extract_images.py:214-221).
    """
    buf = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    if buf.size != w * h * 2:
        raise ValueError(f"yuv422 buffer size {buf.size} != w*h*2 = {w * h * 2}")
    y = buf[0::2]
    u = buf[1::4]
    v = buf[3::4]
    out = np.empty(w * h * 3, dtype=np.uint8)
    out[0::3] = y
    out[1::6] = u
    out[2::6] = v
    out[4::6] = u
    out[5::6] = v
    return out.reshape((h, w, 3))


def _ycbcr_to_rgb_float(ycbcr: np.ndarray) -> np.ndarray:
    """Float32 reference pipeline (the LUT tables below are built FROM it
    and pinned bit-identical by tests/test_codecs.py; kept as the oracle)."""
    arr = ycbcr.astype(np.float32)
    y = arr[..., 0]
    cb = arr[..., 1]
    cb -= 128.0
    cr = arr[..., 2]
    cr -= 128.0
    rgb = np.empty_like(arr)
    np.multiply(cr, _R_CR, out=rgb[..., 0])
    rgb[..., 0] += y
    np.multiply(cb, _G_CB, out=rgb[..., 1])
    rgb[..., 1] += _G_CR * cr
    rgb[..., 1] += y
    np.multiply(cb, _B_CB, out=rgb[..., 2])
    rgb[..., 2] += y
    np.round(rgb, out=rgb)
    np.clip(rgb, 0, 255, out=rgb)
    return rgb.astype(np.uint8)


def _build_luts():
    """R/B as exhaustive 2D uint8 tables (one 64 KB gather per pixel, zero
    float work — identical BY CONSTRUCTION: every (y, chroma) combo is
    computed with the float32 reference ops); G as a 256 KB float32
    (cb, cr) table whose ``+ y -> round -> clip`` tail replays the
    reference's exact op order (proven identical over all 16.7M combos,
    round-4 verdict #7). Decode is the engine's memory-bandwidth ceiling:
    under 24-way contention the LUT path measures ~1.27x the float path
    (3,988 vs 3,146 imgs/s aggregate, 480x640) — see CLAUDE.md."""
    yv, cv = np.meshgrid(np.arange(256, dtype=np.uint8),
                         np.arange(256, dtype=np.uint8), indexing="ij")
    yf = yv.astype(np.float32)

    def table(coef: float) -> np.ndarray:
        a = np.multiply(cv.astype(np.float32) - 128.0, np.float32(coef))
        return np.clip(np.round(a + yf), 0, 255).astype(np.uint8).reshape(-1)

    cbf, crf = np.meshgrid(np.arange(256, dtype=np.float32) - 128.0,
                           np.arange(256, dtype=np.float32) - 128.0,
                           indexing="ij")
    gf = (cbf * np.float32(_G_CB) + np.float32(_G_CR) * crf).reshape(-1)
    return table(_R_CR), table(_B_CB), gf


_R_TAB, _B_TAB, _G_TAB = _build_luts()


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """(h, w, 3) uint8 YCbCr -> (h, w, 3) uint8 RGB, full-range JPEG matrix
    (LUT pipeline, bit-identical to :func:`_ycbcr_to_rgb_float`)."""
    y = ycbcr[..., 0]
    cb = ycbcr[..., 1]
    cr = ycbcr[..., 2]
    out = np.empty_like(ycbcr)
    yi = y.astype(np.int32) << 8
    out[..., 0] = _R_TAB[yi + cr]
    out[..., 2] = _B_TAB[yi + cb]
    g = _G_TAB[(cb.astype(np.int32) << 8) + cr]
    g += y.astype(np.float32)
    np.round(g, out=g)
    np.clip(g, 0, 255, out=g)
    out[..., 1] = g.astype(np.uint8)
    return out


# (offset, (r, g, b) coefficients) per output channel, summed left to right
_TO_YCBCR = ((0.0, (0.299, 0.587, 0.114)),
             (128.0, (-0.168736, -0.331264, 0.5)),
             (128.0, (0.5, -0.418688, -0.081312)))


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """(h, w, 3) uint8 RGB -> (h, w, 3) uint8 YCbCr (full-range JPEG).

    Planar float32, in place: each output channel accumulates in one plane
    buffer in the op order of ``128 - 0.168736*r - 0.331264*g + 0.5*b``
    (subtracting ``|c|*x`` equals adding ``c*x`` bit for bit), then rounds
    half-to-even and clips. Pinned bit-identical to that float expression
    over all 2**24 RGB triples by tests/test_codecs.py."""
    planes = [rgb[..., i].astype(np.float32) for i in range(3)]
    acc = np.empty_like(planes[0])
    term = np.empty_like(acc)
    out = np.empty(rgb.shape, dtype=np.uint8)
    for c, (offset, coefs) in enumerate(_TO_YCBCR):
        np.multiply(planes[0], np.float32(coefs[0]), out=acc)
        if offset:
            acc += np.float32(offset)
        for x, coef in zip(planes[1:], coefs[1:]):
            np.multiply(x, np.float32(coef), out=term)
            acc += term
        np.round(acc, out=acc)
        np.maximum(acc, 0, out=acc)
        np.minimum(acc, 255, out=acc)
        out[..., c] = acc
    return out


def ycbcr_to_yuv422(ycbcr: np.ndarray) -> bytes:
    """(h, w, 3) uint8 YCbCr -> interleaved YUYV bytes (w must be even).

    Chroma of each horizontal pixel pair is averaged (the decode side
    duplicates, so Y survives bit-exactly and chroma within rounding).
    """
    h, w, _ = ycbcr.shape
    if w % 2:
        raise ValueError("yuv422 requires even width")
    y = ycbcr[..., 0]
    cb = ycbcr[..., 1].astype(np.uint16)
    cr = ycbcr[..., 2].astype(np.uint16)
    cb2 = ((cb[:, 0::2] + cb[:, 1::2] + 1) // 2).astype(np.uint8)
    cr2 = ((cr[:, 0::2] + cr[:, 1::2] + 1) // 2).astype(np.uint8)
    out = np.empty(w * h * 2, dtype=np.uint8)
    out[0::2] = y.reshape(-1)
    out[1::4] = cb2.reshape(-1)
    out[3::4] = cr2.reshape(-1)
    return out.tobytes()


def decode(data: bytes, w: int, h: int) -> np.ndarray:
    """YUYV bytes -> RGB uint8 (h, w, 3)."""
    return ycbcr_to_rgb(yuv422_to_ycbcr(data, w, h))


def decode_luma(data: bytes, w: int, h: int, out: np.ndarray | None = None) -> np.ndarray:
    """YUYV bytes -> float32 (h, w) luma, straight from the Y plane (into
    ``out`` when given).

    The stats/phash fast path: Y of the stored stream IS the luma — no
    chroma upsample, no RGB conversion, no 601 re-projection. Within +-1
    gray level of ``grayscale(decode(...))`` (rounding through the RGB
    round-trip); the engine defines its luma as THIS for yuv-sourced
    formats, consistently across corpus generation, pipeline and oracles.
    """
    buf = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    if buf.size != w * h * 2:
        raise ValueError(f"yuv422 buffer size {buf.size} != w*h*2 = {w * h * 2}")
    if out is None or out.shape != (h, w):
        return buf[0::2].reshape(h, w).astype(np.float32)
    np.copyto(out, buf[0::2].reshape(h, w))
    return out


def encode(rgb: np.ndarray) -> bytes:
    """RGB uint8 (h, w, 3) -> YUYV bytes."""
    return ycbcr_to_yuv422(rgb_to_ycbcr(rgb))
