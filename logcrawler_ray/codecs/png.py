"""Minimal pure-Python/numpy PNG codec (no PIL/cv2 in this environment).

Encoder writes 8-bit RGB (color type 2) with filter 0 rows; decoder reads
8-bit gray (0) / RGB (2) / RGBA (6) with all five standard filters. Supports
ancillary tEXt chunks, mirroring the reference's practice of storing camera
metadata in PNG headers (reference: 06_extract_images.py:270-293
``save_image_to_png`` writes CameraID / camera-matrix tEXt fields;
patch_exporter/PatchExecutor.py:82-108 reads them back).

Lossless: encode->decode round-trips bit-exactly (the FIXTURES.md "exact for
png" oracle).

IDAT streams inflate into an exact-size buffer (``inflate.py``, libdeflate);
``decode_luma`` is the stats/phash fast path, the luma straight from the
inflated rows.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .inflate import inflate

_SIG = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 6: 4}


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode(rgb: np.ndarray, text: dict[str, str] | None = None) -> bytes:
    """uint8 (h, w, 3) RGB or (h, w) gray -> PNG bytes (filter 0, level 6)."""
    if rgb.ndim == 2:
        rgb = rgb[:, :, None]
    h, w, c = rgb.shape
    color_type = {1: 0, 3: 2, 4: 6}[c]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    raw = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8), rgb.reshape(h, w * c)], axis=1
    ).tobytes()
    out = [_SIG, _chunk(b"IHDR", ihdr)]
    for key, val in (text or {}).items():
        out.append(_chunk(b"tEXt", key.encode("latin-1") + b"\x00" + val.encode("latin-1")))
    out.append(_chunk(b"IDAT", zlib.compress(raw, 6)))
    out.append(_chunk(b"IEND", b""))
    return b"".join(out)


def _unfilter(rows: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Filtered rows (h, stride + 1) -> unfiltered (h, stride) uint8."""
    ftypes = rows[:, 0]
    if not ftypes.any():  # all filter 0 (our own encoder) -> zero work
        return np.ascontiguousarray(rows[:, 1:])
    if (ftypes <= 2).all() and 1 not in ftypes:  # only None/Up -> cumsum
        data = rows[:, 1:].astype(np.uint16)
        out = np.empty((h, stride), dtype=np.uint8)
        acc = np.zeros(stride, dtype=np.uint16)
        for i in range(h):
            acc = (data[i] + (acc if ftypes[i] == 2 else 0)) & 0xFF
            out[i] = acc
        return out
    data = rows[:, 1:].astype(np.int16)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int16)
    for i in range(h):
        ft = ftypes[i]
        cur = data[i]
        if ft == 0:
            line = cur.copy()
        elif ft == 2:  # Up
            line = (cur + prev) & 0xFF
        elif ft == 1:  # Sub — sequential in x
            line = cur.copy()
            for x in range(bpp, stride):
                line[x] = (line[x] + line[x - bpp]) & 0xFF
        elif ft == 3:  # Average
            line = cur.copy()
            for x in range(stride):
                a = line[x - bpp] if x >= bpp else 0
                line[x] = (line[x] + ((a + prev[x]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            line = cur.copy()
            for x in range(stride):
                a = int(line[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                cc = int(prev[x - bpp]) if x >= bpp else 0
                p = a + b - cc
                pa, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa <= pb and pa <= pc_) else (b if pb <= pc_ else cc)
                line[x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {ft}")
        out[i] = line.astype(np.uint8)
        prev = line
    return out


def _read(data: bytes) -> tuple[np.ndarray, int, int, int, dict[str, str]]:
    """PNG bytes -> (filtered rows (h, w*c + 1) uint8, w, h, c, tEXt dict).

    Chunk payloads are read through a memoryview, so a single-IDAT image
    is inflated with no copy of its compressed bytes."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG")
    view = memoryview(data)
    pos = 8
    idat = []
    text: dict[str, str] = {}
    w = h = color_type = None
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = view[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or interlace != 0 or color_type not in _CHANNELS:
                raise ValueError("unsupported PNG variant")
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"tEXt":
            key, _, val = bytes(payload).partition(b"\x00")
            text[key.decode("latin-1")] = val.decode("latin-1")
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    c = _CHANNELS[color_type]
    stream = idat[0] if len(idat) == 1 else b"".join(idat)
    raw = inflate(stream, h * (w * c + 1))
    return raw.reshape(h, w * c + 1), w, h, c, text


def decode(data: bytes) -> tuple[np.ndarray, dict[str, str]]:
    """PNG bytes -> (uint8 array (h, w, c) or (h, w), tEXt metadata dict)."""
    rows, w, h, c, text = _read(data)
    img = _unfilter(rows, h, w * c, c).reshape(h, w, c)
    return (img[:, :, 0] if c == 1 else img), text


# ITU-R 601 luma weights, the ones ``functions/phash.py::grayscale`` applies
_LUMA = (0.299, 0.587, 0.114)


def decode_luma(data: bytes, w: int | None = None, h: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """PNG bytes -> float32 luma at the IHDR dims, bit-identical to
    ``grayscale(decode(data)[0][None])[0]`` for RGB/RGBA (a gray image is
    read as R = G = B). ``w``/``h`` are ignored: the image's own header
    gives its dims. ``out``, when it has those dims, receives the luma.

    Rows that all carry filter 0 (every PNG this engine writes) are read
    in place from the inflated buffer, with no unfiltered copy; the luma
    is built per channel in ``grayscale``'s op order
    ``(0.299*r + 0.587*g) + 0.114*b``, each product taken in float32."""
    rows, pw, ph, c, _ = _read(data)
    pix = rows[:, 1:] if not rows[:, 0].any() else _unfilter(rows, ph, pw * c, c)
    img = pix.reshape(ph, pw, c)
    chans = (0, 0, 0) if c == 1 else (0, 1, 2)
    if out is None or out.shape != (ph, pw):
        out = np.empty((ph, pw), dtype=np.float32)
    term = np.empty_like(out)
    np.multiply(img[:, :, chans[0]], _LUMA[0], dtype=np.float32, out=out)
    for ch, k in zip(chans[1:], _LUMA[1:]):
        np.multiply(img[:, :, ch], k, dtype=np.float32, out=term)
        out += term
    return out
