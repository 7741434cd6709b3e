"""Exact-size zlib inflate into a numpy buffer.

Every zlib stream the decoders read (PNG IDAT, qjpeg) inflates to a size
the header already gives, so the output buffer is allocated once at that
size and the stream is inflated straight into it by libdeflate
(``libdeflate_zlib_decompress``, called through ``ctypes``), which takes
about half of ``zlib.decompress``'s CPU on the corpus payloads.

The library is loaded lazily, once per process, and each thread gets its
own decompressor (a libdeflate decompressor is not thread-safe). Where the
library cannot be loaded, ``zlib.decompress`` plus a size check gives the
same bytes and the same ``ValueError``. libdeflate does not validate
Huffman code entries that no symbol uses, so it also accepts a few corrupt
streams that zlib rejects; such a stream still meets its adler32 and its
size.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import zlib

import numpy as np

_SONAME = "libdeflate.so.0"

_local = threading.local()


@functools.cache
def _load() -> ctypes.CDLL | None:
    """The libdeflate handle, or None when the library is unavailable."""
    try:
        lib = ctypes.CDLL(_SONAME)
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_zlib_decompress.restype = ctypes.c_int
        lib.libdeflate_zlib_decompress.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
    except (OSError, AttributeError):
        return None
    return lib


def backend() -> str:
    """``"libdeflate"`` or ``"zlib"``: which inflate this process runs."""
    return "libdeflate" if _load() is not None else "zlib"


class _Decompressor:
    """One thread's libdeflate decompressor, freed with the thread."""

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        self.ptr = lib.libdeflate_alloc_decompressor()
        if not self.ptr:
            raise MemoryError("libdeflate_alloc_decompressor failed")

    def __del__(self):
        self.lib.libdeflate_free_decompressor(self.ptr)


def _error(size: int) -> ValueError:
    return ValueError(f"zlib stream does not inflate to {size} bytes")


def inflate(data, size: int) -> np.ndarray:
    """Inflate the zlib stream ``data`` (any bytes-like) into a new uint8
    array of exactly ``size`` bytes; treat the result as read-only.

    A stream that is corrupt, truncated, fails its checksum or inflates to
    any other size raises ``ValueError``, with the same message on either
    backend (bar the corrupt streams libdeflate accepts, above). Bytes
    after the end of the stream are ignored, as ``zlib.decompress``
    ignores them.
    """
    lib = _load()
    if lib is None:
        try:
            raw = zlib.decompress(data)
        except zlib.error:
            raise _error(size) from None
        if len(raw) != size:
            raise _error(size)
        return np.frombuffer(raw, dtype=np.uint8)
    dec = getattr(_local, "dec", None)
    if dec is None:
        dec = _local.dec = _Decompressor(lib)
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(size, dtype=np.uint8)
    # a NULL actual-size pointer makes libdeflate demand exactly ``size``
    if lib.libdeflate_zlib_decompress(dec.ptr, src.ctypes.data, src.size,
                                      out.ctypes.data, size, None):
        raise _error(size)
    return out
