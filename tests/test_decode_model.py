"""Property tests: the decode kernels against their first formulations.

The models below are the kernels as first written, kept here test-only as
the executable definition of what the decode stage computes:

- ``reduceat_area_resize``: area pooling by ``np.add.reduceat`` over the
  bin edges (the phash input);
- ``whole_stack_stats``: brightness and Laplacian variance over a whole
  stack in one pass each;
- ``grayscale_of_decode``: PNG luma as ``grayscale(png.decode(...))``;
- ``zlib_inflate``: ``zlib.decompress`` plus a size check.

Hypothesis drives both sides with random shapes, images and streams. Pools
and phash must be bit-equal, the stats equal to float64 summation order,
PNG luma bit-equal, and inflate must return equal bytes or raise the same
``ValueError``. Every codec property runs twice: on libdeflate, and with
its loader forced to fail (the zlib fallback).
"""

from __future__ import annotations

import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logcrawler_ray.codecs import inflate as inflate_mod
from logcrawler_ray.codecs import png
from logcrawler_ray.codecs.inflate import inflate
from logcrawler_ray.functions import phash
from logcrawler_ray.functions.phash import grayscale


def reduceat_area_resize(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """The model: reduceat over the bin edges, then divide by bin counts."""
    n, h, w = gray.shape
    row_edges = (np.arange(out_h) * h) // out_h
    col_edges = (np.arange(out_w) * w) // out_w
    row_counts = np.diff(np.append(row_edges, h)).astype(np.float32)
    col_counts = np.diff(np.append(col_edges, w)).astype(np.float32)
    pooled = np.add.reduceat(gray, row_edges, axis=1)
    pooled = np.add.reduceat(pooled, col_edges, axis=2)
    pooled /= row_counts[None, :, None]
    pooled /= col_counts[None, None, :]
    return pooled


def grayscale_of_decode(data: bytes) -> np.ndarray:
    """The model: full PNG decode, then the RGB luma (gray read as R=G=B)."""
    img, _ = png.decode(data)
    if img.ndim == 2:
        img = np.repeat(img[:, :, None], 3, axis=2)
    return grayscale(img[None])[0]


def whole_stack_stats(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model: brightness and Laplacian variance over the whole stack at
    once, the variance from float64 moments of the full Laplacian."""
    lap = np.empty_like(gray)
    lap[:, 1:] = gray[:, :-1]
    lap[:, 0] = gray[:, 0]
    lap[:, :-1] += gray[:, 1:]
    lap[:, -1] += gray[:, -1]
    lap[:, :, 1:] += gray[:, :, :-1]
    lap[:, :, 0] += gray[:, :, 0]
    lap[:, :, :-1] += gray[:, :, 1:]
    lap[:, :, -1] += gray[:, :, -1]
    lap -= 4.0 * gray
    flat = lap.reshape(len(gray), -1)
    mean = np.einsum("ij->i", flat, dtype=np.float64) / flat.shape[1]
    var = np.einsum("ij,ij->i", flat, flat, dtype=np.float64) / flat.shape[1] - mean * mean
    return gray.mean(axis=(1, 2), dtype=np.float64), var


def zlib_inflate(data: bytes, size: int) -> bytes:
    """The model: zlib.decompress, failing as inflate fails."""
    try:
        raw = zlib.decompress(data)
    except zlib.error:
        raise ValueError(f"zlib stream does not inflate to {size} bytes") from None
    if len(raw) != size:
        raise ValueError(f"zlib stream does not inflate to {size} bytes")
    return raw


def _outcome(fn, *args):
    try:
        return "ok", bytes(fn(*args))
    except ValueError as e:
        return "error", str(e)


@pytest.fixture(params=["libdeflate", "zlib"])
def backend(request):
    """Run the test on libdeflate, then with its loader forced to fail."""
    if request.param == "libdeflate":
        if inflate_mod.backend() != "libdeflate":
            pytest.skip("libdeflate is not installed")
        yield request.param
        return
    with mock.patch.object(inflate_mod, "_load", lambda: None):
        assert inflate_mod.backend() == "zlib"
        yield request.param


# the ``backend`` patch holds for a whole test, across its examples
_codec = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _luma(seed: int, n: int, h: int, w: int, integral: bool) -> np.ndarray:
    """Random float32 luma; ``integral`` mimics the Y-plane formats."""
    g = np.random.default_rng(seed).random((n, h, w), dtype=np.float32) * 255
    return np.floor(g) if integral else g


# ------------------------------------------------------------- area pooling
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(32, 700),
       st.integers(32, 700), st.booleans())
@example(0, 2, 288, 33, False)   # 9 rows per bin: the unrolled pairwise path
@example(1, 1, 700, 700, False)  # 21-22 rows per bin, non-multiple of 32
@example(2, 3, 480, 640, True)   # the corpus's largest size
@example(3, 1, 4200, 40, False)  # 131+ rows per bin: the recursive split
def test_area_resize_and_phash_bit_equal_reduceat(seed, n, h, w, integral):
    gray = _luma(seed, n, h, w, integral)
    got = phash.area_resize(gray, 32, 32)
    want = reduceat_area_resize(gray, 32, 32)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    with mock.patch.object(phash, "area_resize", reduceat_area_resize):
        model = phash.phash_from_gray(gray)
    assert np.array_equal(phash.phash_from_gray(gray), model)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300),
       st.integers(1, 40), st.integers(1, 40))
def test_area_resize_any_output_size_bit_equal_reduceat(seed, h, w, out_h, out_w):
    """Outputs no larger than the input (the other callers' 4x4 grids and
    per-channel pools), float64 too."""
    out_h, out_w = min(out_h, h), min(out_w, w)
    gray = _luma(seed, 2, h, w, False).astype(np.float64)
    assert np.array_equal(phash.area_resize(gray, out_h, out_w),
                          reduceat_area_resize(gray, out_h, out_w))


# ---------------------------------------------------------------- image stats
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 700),
       st.integers(1, 700), st.booleans())
@example(0, 6, 480, 640, False)  # row bands of one image
@example(1, 6, 48, 64, True)     # several whole images per block
def test_image_stats_match_whole_stack_model(seed, n, h, w, integral):
    """Blocked stats equal the model to float64 summation order (relative
    1e-12 for the mean, 1e-9 for the variance), and each image's stats are
    the same whatever stack it arrives in."""
    from logcrawler_ray.functions.image_stats import blurredness_batch, brightness_batch

    gray = _luma(seed, n, h, w, integral)
    bright, blur = whole_stack_stats(gray)
    np.testing.assert_allclose(brightness_batch(gray), bright, rtol=1e-12, atol=0)
    np.testing.assert_allclose(blurredness_batch(gray), blur, rtol=1e-9, atol=1e-9)
    for f in (brightness_batch, blurredness_batch):
        assert np.array_equal(f(gray), np.concatenate([f(g[None]) for g in gray]))


# ------------------------------------------------------------------ PNG luma
def _png(rows: np.ndarray, w: int, h: int, color_type: int, n_idat: int) -> bytes:
    """A PNG around raw filtered rows (filter byte + samples per row),
    its zlib stream cut into ``n_idat`` IDAT chunks."""
    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    stream = zlib.compress(rows.tobytes(), 6)
    cuts = np.linspace(0, len(stream), n_idat + 1).astype(int)
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0))
            + b"".join(chunk(b"IDAT", stream[a:b]) for a, b in zip(cuts, cuts[1:]))
            + chunk(b"IEND", b""))


@settings(_codec, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 48), st.integers(1, 48),
       st.sampled_from([0, 2, 6]), st.booleans(), st.integers(1, 3))
def test_png_luma_bit_equal_grayscale_of_decode(backend, seed, w, h, color_type,
                                                filtered, n_idat):
    """Any filter mix (all-zero rows take the in-place path) and chunking."""
    c = {0: 1, 2: 3, 6: 4}[color_type]
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, size=(h, w * c + 1), dtype=np.uint8)
    rows[:, 0] = rng.integers(0, 5, size=h) if filtered else 0
    data = _png(rows, w, h, color_type, n_idat)
    want = grayscale_of_decode(data)
    got = png.decode_luma(data)
    assert got.dtype == np.float32 and got.shape == (h, w)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    out = np.empty((h, w), np.float32)
    assert png.decode_luma(data, out=out) is out
    assert np.array_equal(out, want)


def test_png_luma_of_corpus_sizes_bit_equal(backend):
    from logcrawler_ray.sources.corpus import SIZES, _pixels

    for i, (w, h) in enumerate(SIZES):
        data = png.encode(_pixels(i, w, h))
        assert np.array_equal(png.decode_luma(data), grayscale_of_decode(data))


# ------------------------------------------------------------------- inflate
_payloads = st.builds(
    lambda seed, n, alphabet: np.random.default_rng(seed).integers(
        0, alphabet, n, dtype=np.uint8).tobytes(),
    st.integers(0, 2**32 - 1), st.integers(0, 5000), st.integers(1, 256))


@settings(_codec, max_examples=80)
@given(_payloads, st.integers(0, 9), st.binary(max_size=8))
def test_inflate_equals_zlib_on_valid_streams(backend, raw, level, trailing):
    stream = zlib.compress(raw, level) + trailing
    got = inflate(stream, len(raw))
    assert got.dtype == np.uint8 and got.tobytes() == raw == zlib_inflate(stream, len(raw))
    assert inflate(memoryview(b"xx" + stream)[2:], len(raw)).tobytes() == raw


@settings(_codec, max_examples=80)
@given(_payloads, st.integers(0, 9), st.data())
def test_inflate_fails_like_zlib_on_truncated_and_wrong_size(backend, raw, level, data):
    stream = zlib.compress(raw, level)
    cut = data.draw(st.integers(0, len(stream) - 1))
    assert _outcome(inflate, stream[:cut], len(raw)) == \
        _outcome(zlib_inflate, stream[:cut], len(raw))
    size = data.draw(st.integers(0, len(raw) + 16).filter(lambda s: s != len(raw)))
    want = ("error", f"zlib stream does not inflate to {size} bytes")
    assert _outcome(inflate, stream, size) == _outcome(zlib_inflate, stream, size) == want


@settings(_codec, max_examples=150)
@given(_payloads, st.integers(0, 9), st.data())
def test_inflate_fails_like_zlib_on_bit_flips(backend, raw, level, data):
    """A flipped bit fails on both sides with the same error, or both
    return equal bytes. One exception, on libdeflate only: it does not
    validate Huffman code entries that no symbol uses, so a flip there
    can pass where zlib reports "invalid literal/length code". Such a
    stream still meets its adler32 and its size, and inflates to the
    original payload (16 of 90,000 random flips did, in a fuzz run)."""
    stream = bytearray(zlib.compress(raw, level))
    pos = data.draw(st.integers(0, len(stream) - 1))
    stream[pos] ^= 1 << data.draw(st.integers(0, 7))
    got = _outcome(inflate, bytes(stream), len(raw))
    want = _outcome(zlib_inflate, bytes(stream), len(raw))
    if backend == "libdeflate" and want[0] == "error" and got[0] == "ok":
        assert got[1] == raw
    else:
        assert got == want


def test_inflate_threads_use_their_own_decompressor():
    """ctypes drops the GIL for the call, so threads inflate at the same
    time; one decompressor shared between them would mix their streams."""
    import sys
    import threading

    rng = np.random.default_rng(9)
    raws = [rng.integers(0, 16, int(n), dtype=np.uint8).tobytes()
            for n in rng.integers(50_000, 200_000, 8)]
    streams = [zlib.compress(r, 1) for r in raws]
    bad = []

    def work(k: int) -> None:
        for j in range(40):
            i = (k + j) % len(raws)
            try:
                ok = inflate(streams[i], len(raws[i])).tobytes() == raws[i]
            except ValueError:
                ok = False
            if not ok:
                bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


# -------------------------------------------------- the workers' backend
def test_ray_tasks_inflate_through_the_drivers_backend(ray_session):
    """Decode runs in Ray workers: a loader or import-path regression there
    must fail here, not silently double the decode CPU."""
    import ray

    @ray.remote
    def worker_backend() -> str:
        from logcrawler_ray.codecs import inflate

        return inflate.backend()

    assert ray.get(worker_backend.remote()) == inflate_mod.backend()
