"""Codec registry: fmt string -> encode/decode functions.

This is the engine's user-extension hook for new payload types, the analog
of the reference's parser-alias registry (``Parser.register(alias, base)``,
reference: 06_extract_images.py:368-370, 07_input_cognition_data_rust.py:217-220):
register a new format name once and every decode stage picks it up.

The registry dict is plain data — broadcast-safe: it is captured by the
decode actor's ``__init__`` once per worker, never re-shipped per batch.

If a real ``PIL``/``cv2`` is ever present, a true JPEG codec can be
registered under "jpeg" here; in this container "jpeg" maps to the
deterministic qjpeg stand-in (see ``qjpeg.py``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from . import png, qjpeg, yuv422


def _decode_png(data: bytes, w: int, h: int) -> np.ndarray:
    img, _ = png.decode(data)
    return img


def _encode_png(rgb: np.ndarray) -> bytes:
    return png.encode(rgb)


# fmt -> (encode(rgb)->bytes, decode(bytes, w, h)->rgb)
_CODECS: dict[str, tuple[Callable, Callable]] = {
    "png": (_encode_png, _decode_png),
    "jpeg": (qjpeg.encode, qjpeg.decode),
    "yuv422": (yuv422.encode, yuv422.decode),
}

# fmt -> decode_gray(bytes, w, h, out=None) -> float32 luma, written into
# ``out`` when it fits; formats without a fast path fall back to
# grayscale(decode(...)). Y-plane formats skip the whole RGB conversion in
# the stats/phash path (the engine's luma DEFINITION for those formats —
# consistent across corpus, pipeline, oracles); PNG builds its luma from
# the inflated rows, bit-identical to grayscale(decode(...)).
_GRAY_FAST: dict[str, Callable] = {
    "png": png.decode_luma,
    "jpeg": qjpeg.decode_luma,
    "yuv422": yuv422.decode_luma,
}

LOSSLESS = {"png", "yuv422"}  # yuv422 is lossless *as stored bytes -> pixels*


def register(fmt: str, encode: Callable, decode: Callable, lossless: bool = False,
             decode_gray_fn: Callable | None = None) -> None:
    """Add ``fmt``, or replace it whole: a re-registered format keeps none
    of the old codec's lossless flag or luma fast path (e.g. a real JPEG
    library registered under "jpeg" must not be read by qjpeg's luma)."""
    _CODECS[fmt] = (encode, decode)
    if lossless:
        LOSSLESS.add(fmt)
    else:
        LOSSLESS.discard(fmt)
    if decode_gray_fn is not None:
        _GRAY_FAST[fmt] = lambda data, w, h, out=None: decode_gray_fn(data, w, h)
    else:
        _GRAY_FAST.pop(fmt, None)


def decode_gray(fmt: str, data: bytes, w: int, h: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """bytes -> float32 luma — the stats/phash input — at the dims the
    payload decodes to, which a PNG's own header sets. A given ``out`` may
    receive the luma: the result is ``out`` itself when it did, else a new
    array (other dims, or a format whose decoder takes no buffer)."""
    fast = _GRAY_FAST.get(fmt)
    if fast is not None:
        return fast(data, w, h, out=out)
    from ..functions.phash import grayscale

    return grayscale(decode(fmt, data, w, h)[None])[0]


def formats() -> list[str]:
    return sorted(_CODECS)


def encode(fmt: str, rgb: np.ndarray) -> bytes:
    try:
        enc, _ = _CODECS[fmt]
    except KeyError:
        raise KeyError(f"no codec registered for fmt={fmt!r}; register() one") from None
    return enc(rgb)


def decode(fmt: str, data: bytes, w: int, h: int) -> np.ndarray:
    try:
        _, dec = _CODECS[fmt]
    except KeyError:
        raise KeyError(f"no codec registered for fmt={fmt!r}; register() one") from None
    return dec(data, w, h)
