"""Unit tests: phash, image stats, hashing, URL canonicalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcrawler_ray.functions import hashing, image_stats, phash, urlnorm


# ---------------------------------------------------------------- phash
def test_phash_identical_images_equal():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(48, 64, 3)).astype(np.uint8)
    h = phash.phash_batch(np.stack([img, img.copy()]))
    assert h[0] == h[1]


def test_phash_distinct_images_differ():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, size=(48, 64, 3)).astype(np.uint8)
    b = rng.integers(0, 256, size=(48, 64, 3)).astype(np.uint8)
    h = phash.phash_batch(np.stack([a, b]))
    assert h[0] != h[1]


def test_phash_robust_to_small_noise():
    """A perceptual hash should barely move under mild brightness jitter."""
    rng = np.random.default_rng(2)
    yy = np.linspace(0, 255, 96)[:, None]
    img = np.clip(yy + rng.integers(0, 30, (96, 128)), 0, 255)[..., None].repeat(3, 2).astype(np.uint8)
    jit = np.clip(img.astype(int) + 3, 0, 255).astype(np.uint8)
    h = phash.phash_batch(np.stack([img, jit]))
    assert phash.hamming_batch(h[:1], h[1:])[0] <= 6


def test_phash_scale_invariant_ish():
    """Same content at 2x resolution -> small hamming distance."""
    yy = np.linspace(0, 255, 48)[:, None]
    xx = np.linspace(0, 128, 64)[None, :]
    small = np.clip(yy + xx, 0, 255)[..., None].repeat(3, 2).astype(np.uint8)
    big = small.repeat(2, axis=0).repeat(2, axis=1)
    h1 = phash.phash_batch(small[None])
    h2 = phash.phash_batch(big[None])
    assert phash.hamming_batch(h1, h2)[0] <= 4


def test_hamming():
    a = np.array([0], dtype=np.uint64)
    b = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert phash.hamming_batch(a, b)[0] == 64
    assert phash.hamming_batch(a, a)[0] == 0


def test_phash_of_small_images_distinct_and_warning_free():
    """Images under 32 px on a side (patch crops) pool by repeating pixels:
    distinct ones get distinct phashes, with no divide-by-zero."""
    import warnings

    rng = np.random.default_rng(5)
    for h, w in [(16, 16), (20, 48), (48, 9)]:
        a, b = rng.integers(0, 256, size=(2, h, w, 3)).astype(np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hashes = phash.phash_batch(np.stack([a, b]))
        assert hashes[0] != hashes[1]


def test_area_resize_constant_preserved():
    g = np.full((1, 37, 53), 42.0)
    out = phash.area_resize(g, 32, 32)
    assert np.allclose(out, 42.0)


# ---------------------------------------------------------------- stats
def test_brightness_constant():
    g = np.full((2, 10, 10), 77.0)
    assert np.allclose(image_stats.brightness_batch(g), 77.0)


def test_blur_constant_is_zero():
    g = np.full((1, 16, 16), 100.0)
    assert image_stats.blurredness_batch(g)[0] == pytest.approx(0.0)


def test_blur_sharper_is_higher():
    rng = np.random.default_rng(3)
    sharp = rng.integers(0, 256, (32, 32)).astype(np.float64)
    # blur by 2x2 mean pooling then upsampling
    soft = sharp.reshape(16, 2, 16, 2).mean(axis=(1, 3)).repeat(2, 0).repeat(2, 1)
    v = image_stats.blurredness_batch(np.stack([sharp, soft]))
    assert v[0] > v[1]


def test_laplacian_kernel_matches_naive():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(1, 8, 9))
    lap = image_stats.laplacian(g)
    padded = np.pad(g[0], 1, mode="edge")
    for y in range(8):
        for x in range(9):
            expect = (
                padded[y, x + 1] + padded[y + 2, x + 1]
                + padded[y + 1, x] + padded[y + 1, x + 2]
                - 4 * padded[y + 1, x + 1]
            )
            assert lap[0, y, x] == pytest.approx(expect)


# ---------------------------------------------------------------- hashing
def test_hash64_stable_and_seeded():
    assert hashing.hash64_str("abc") == hashing.hash64_str("abc")
    assert hashing.hash64_str("abc") != hashing.hash64_str("abd")
    assert hashing.hash64_str("abc", seed=1) != hashing.hash64_str("abc", seed=2)


def test_hash64_array_matches_scalar():
    vals = ["a", "bb", "ccc"]
    arr = hashing.hash64_str_array(vals)
    assert [int(x) for x in arr] == [hashing.hash64_str(v) for v in vals]


def test_hash64_array_matches_scalar_edge_cases():
    """The vectorized word-fold and the pure-int scalar are ONE spec — the
    serial executor (scalar) and the Ray engine (vector) share the ordering
    contract, so equality here pins crawl-equivalence byte-for-byte."""
    import pyarrow as pa

    vals = ["", "a", "1234567", "12345678", "123456789", "x" * 16, "x" * 17,
            "héllo ☃", "\ud800lone-surrogate", "y" * 2048, "z" * 2049,
            "http://host-0001.test/p/7"]
    for seed in (0, 1, 0x5EED, 0x05757):
        vec = hashing.hash64_str_array(vals, seed=seed)
        assert [int(x) for x in vec] == [hashing.hash64_str(v, seed=seed) for v in vals]
    # Arrow inputs (incl. sliced / chunked / large_string) are zero-copy paths
    ok = [v for v in vals if "\ud800" not in v]
    arr = pa.array(ok)
    expect = [hashing.hash64_str(v) for v in ok]
    assert [int(x) for x in hashing.hash64_str_array(arr)] == expect
    assert [int(x) for x in hashing.hash64_str_array(arr.slice(2, 6))] == expect[2:8]
    chunked = pa.chunked_array([arr.slice(0, 4), arr.slice(4)])
    assert [int(x) for x in hashing.hash64_str_array(chunked)] == expect
    assert ([int(x) for x in hashing.hash64_str_array(arr.cast(pa.large_string()))]
            == expect)
    assert len(hashing.hash64_str_array([])) == 0


@given(st.lists(st.text(min_size=0, max_size=120), max_size=60),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hash64_array_property(vals, seed):
    vec = hashing.hash64_str_array(vals, seed=seed)
    assert [int(x) for x in vec] == [hashing.hash64_str(v, seed=seed) for v in vals]


def test_splitmix64_vectorized_matches_scalar():
    xs = np.array([0, 1, 2**63, 12345], dtype=np.uint64)
    vec = hashing.splitmix64(xs)
    for i, x in enumerate(xs):
        assert int(vec[i]) == hashing.splitmix64(int(x))


def test_int64_uint64_roundtrip():
    u = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert (hashing.to_uint64(hashing.to_int64(u)) == u).all()


# ---------------------------------------------------------------- urlnorm
@pytest.mark.parametrize(
    "raw,canon",
    [
        ("HTTP://Host.TEST:80/a/b/", "http://host.test/a/b"),
        ("https://host.test:443/", "https://host.test/"),
        ("http://host.test:8080/x", "http://host.test:8080/x"),
        ("http://host.test//a///b", "http://host.test/a/b"),
        ("http://host.test/a/./b/../c", "http://host.test/a/c"),
        ("http://host.test/a#frag", "http://host.test/a"),
        ("http://host.test/a?q=1#f", "http://host.test/a?q=1"),
        ("host.test/a", "http://host.test/a"),
        ("http://host.test", "http://host.test/"),
    ],
)
def test_canonicalize(raw, canon):
    assert urlnorm.canonicalize(raw) == canon


def test_canonicalize_idempotent():
    urls = ["HTTP://A.b:80//x/../y/", "https://z.example:443/p?a=1#c"]
    for u in urls:
        once = urlnorm.canonicalize(u)
        assert urlnorm.canonicalize(once) == once


def test_host_hash_stable():
    assert urlnorm.host_hash("a.test") == urlnorm.host_hash("a.test")
    assert urlnorm.host_hash("a.test") != urlnorm.host_hash("b.test")
