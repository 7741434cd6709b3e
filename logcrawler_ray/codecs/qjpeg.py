"""Deterministic lossy stand-in for JPEG ("qjpeg").

No JPEG library exists in this container (no PIL/cv2/libjpeg), so rows with
``fmt == "jpeg"`` carry this deterministic quantized codec instead. The
*semantics* mirror the reference's JPEG path bit-for-bit in structure
(reference: 06_extract_images.py:232-267 ``image_from_proto_jpeg``):

1. the stored payload is an **inverted** image — the reference applies
   ``255 - arr`` to every decoded JPEG ("HACK: for some reason the decoded
   image is inverted", 06_extract_images.py:238-239); we store ``255 - x``
   and the decoder un-inverts;
2. after un-inversion the payload is a YUV422 buffer routed through the
   exact same yuv422 -> YCbCr -> RGB path as raw images
   (06_extract_images.py:243-267).

Lossy step: YUV values are quantized to a step of 4 before inversion, which
keeps decode(encode(x)) within PSNR >= 40 dB of x (the FIXTURES.md lossy
oracle) while remaining fully deterministic.

Wire format: b"QJP1" + u16le w + u16le h + zlib(255 - quantized_yuv422);
the stream inflates into an exact-size buffer (``inflate.py``, libdeflate).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import yuv422
from .inflate import inflate

MAGIC = b"QJP1"
_Q = 4  # quantization step on YUV bytes


def encode(rgb: np.ndarray) -> bytes:
    h, w, _ = rgb.shape
    yuv = np.frombuffer(yuv422.encode(rgb), dtype=np.uint8)
    quant = np.minimum((yuv.astype(np.uint16) + _Q // 2) // _Q * _Q, 255).astype(np.uint8)
    inverted = (255 - quant).astype(np.uint8)
    return MAGIC + struct.pack("<HH", w, h) + zlib.compress(inverted.tobytes(), 6)


def _inverted(data: bytes, w: int | None, h: int | None) -> tuple[np.ndarray, int, int]:
    """Header check, then the inflated inverted YUYV bytes and their dims."""
    if data[:4] != MAGIC:
        raise ValueError("not a qjpeg payload")
    pw, ph = struct.unpack_from("<HH", data, 4)
    if w is not None and (pw != w or ph != h):
        raise ValueError(f"qjpeg dims {(pw, ph)} != expected {(w, h)}")
    return inflate(memoryview(data)[8:], pw * ph * 2), pw, ph


def decode(data: bytes, w: int | None = None, h: int | None = None) -> np.ndarray:
    inverted, pw, ph = _inverted(data, w, h)
    # un-invert, then the reference's shared yuv422 path (06:243-267)
    return yuv422.decode(255 - inverted, pw, ph)


def decode_luma(data: bytes, w: int | None = None, h: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Stats/phash fast path: the un-inverted Y plane as float32 luma
    (into ``out`` when it has the payload's dims), read straight from the
    inflated bytes; chroma is never touched."""
    inverted, pw, ph = _inverted(data, w, h)
    if out is None or out.shape != (ph, pw):
        out = np.empty((ph, pw), dtype=np.float32)
    # 255 - y is exact in float32 and equals the uint8 un-inversion
    return np.subtract(np.float32(255), inverted[0::2].reshape(ph, pw), out=out,
                       dtype=np.float32)
