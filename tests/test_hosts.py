"""SyntheticWeb backend contract: pages are a pure, byte-stable function of
(seed, URL).

The crawl's equivalence tests, q30's differential oracle and the stored
phash columns all depend on the backend's bytes, image ids, captions and
link order never changing. The golden digests below pin them for two web
shapes, including URL keys at and above 2**63 (about half of all pages).
"""

import hashlib
import struct
import sys
import types
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcrawler_ray.codecs import registry
from logcrawler_ray.functions.hashing import splitmix64
from logcrawler_ray.functions.phash import grayscale, phash_from_gray
from logcrawler_ray.sources.corpus import SIZES, _pixel_stack, _pixels
from logcrawler_ray.sources.hosts import SyntheticWeb, scalar_mod
from logcrawler_ray.stages.decode import DecodeStats
from logcrawler_ray.stages.fetch import FetchWorker

# sha256 over every page of each URL list below, recorded from the original
# per-URL scalar backend (see _page_digest for the framing)
GOLDEN_DEFAULT = "2f7d576adf2bb5bbc26ba327306d4afa30e11c260667a8040cc43d4265f8dcbc"
GOLDEN_SEED7 = "f7f17f3202172af9fd8dc59e391791b82ca42bc8b63a0e2fa4df8e775cae64ac"


def _default_urls() -> list[str]:
    web = SyntheticWeb()
    return [web.page_url(h, p) for h in range(web.n_hosts)
            for p in range(web.pages_per_host)]


def _seed7_urls() -> list[str]:
    """~1,000 pages spread over all 96 hosts, plus /private/ pages, the
    trailing-slash spellings the backend links to and an explicit :80."""
    web = SyntheticWeb(seed=7, n_hosts=96)
    urls = [web.page_url(h, p) for h in range(web.n_hosts)
            for p in range(h % 19, web.pages_per_host, 19)]
    urls += [f"http://{web.host_name(h)}/private/{h % 50}" for h in range(web.n_hosts)]
    urls += [web.page_url(h, 7) + "/" for h in range(0, web.n_hosts, 8)]
    urls.append(f"http://{web.host_name(3)}:80/p/11")
    return urls


def _frame(h, *parts) -> None:
    for part in parts:
        b = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)


def _page_digest(pages) -> str:
    h = hashlib.sha256()
    for page in pages:
        _frame(h, page["image_id"], page["bytes"], page["w"], page["h"],
               page["fmt"], page["caption"], len(page["links"]), *page["links"])
    return h.hexdigest()


def test_golden_pages_default_web():
    web = SyntheticWeb()
    urls = _default_urls()
    assert len(urls) == 2400
    assert _page_digest(web.fetch(u) for u in urls) == GOLDEN_DEFAULT
    assert _page_digest(web.fetch_batch(pa.array(urls)).to_pylist()) == GOLDEN_DEFAULT


def test_golden_pages_seed7_web():
    web = SyntheticWeb(seed=7, n_hosts=96)
    urls = _seed7_urls()
    assert len(urls) > 1000
    assert _page_digest(web.fetch(u) for u in urls) == GOLDEN_SEED7
    assert _page_digest(web.fetch_batch(pa.array(urls)).to_pylist()) == GOLDEN_SEED7


def _batch(urls: list[str]) -> pa.Table:
    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
        "seq": pa.array(range(n), pa.int64()),
        "fetch_time": pa.array([10 * i for i in range(n)], pa.int64()),
        "depth": pa.array([i % 3 for i in range(n)], pa.int32()),
    })


def test_fetch_worker_error_channel_is_per_row():
    """One unservable URL in a batch flags only its own row; every other row
    equals the same row fetched in an all-valid batch."""
    urls = _default_urls()[::97]
    bad = "http://example.com/p/1"  # host is not host-NNNN.test
    at = 5
    mixed_urls = urls[:at] + [bad] + urls[at:]
    worker = FetchWorker()
    clean = worker(_batch(urls))
    mixed = worker(_batch(mixed_urls))
    assert clean["fetch_ok"].to_pylist() == [True] * len(urls)
    ok = mixed["fetch_ok"].to_pylist()
    assert ok == [i != at for i in range(len(mixed_urls))]
    row = mixed.slice(at, 1).to_pylist()[0]
    assert row["url"] == bad and row["seq"] == at and row["depth"] == at % 3
    assert {k: row[k] for k in ("image_id", "bytes", "w", "h", "fmt", "caption",
                                "links")} == {
        "image_id": "", "bytes": b"", "w": 0, "h": 0, "fmt": "", "caption": "",
        "links": []}
    pages = ["image_id", "bytes", "w", "h", "fmt", "caption", "links"]
    others = mixed.filter(pa.array(ok))
    assert others.select(pages).equals(clean.select(pages))
    assert others["url"].equals(clean["url"])


_EMPTY_PAGE = {"image_id": "", "bytes": b"", "w": 0, "h": 0, "fmt": "",
               "caption": "", "links": [], "fetch_ok": False}


def test_fetch_batch_error_channel_is_per_row():
    """Unservable URLs anywhere in a batch get empty pages; the batch's
    other rows equal an all-valid batch, and fetch() raises for them."""
    web = SyntheticWeb()
    urls = _default_urls()[::131]
    bad = ["http://example.com/p/1", "no-scheme-at-all", None,
           "http://host-x.test/p/2"]
    mixed = urls[:3] + bad[:2] + urls[3:9] + bad[2:] + urls[9:]
    got = web.fetch_batch(pa.array(mixed, pa.string()))
    clean = web.fetch_batch(pa.array(urls, pa.string()))
    assert clean["fetch_ok"].to_pylist() == [True] * len(urls)
    is_bad = [u in bad for u in mixed]
    assert got["fetch_ok"].to_pylist() == [not b for b in is_bad]
    rows = got.to_pylist()
    assert [r for r, b in zip(rows, is_bad) if b] == [_EMPTY_PAGE] * len(bad)
    assert got.filter(got["fetch_ok"]).equals(clean)
    for u in bad[:2] + bad[3:]:
        with pytest.raises(Exception):
            web.fetch(u)


def test_codec_failure_is_a_row_error(monkeypatch):
    """A codec that raises fails only the rows it encodes; fetch() re-raises
    the codec's own exception."""
    web = SyntheticWeb()
    urls = _default_urls()[::53]
    before = web.fetch_batch(pa.array(urls, pa.string()))
    hit = [f == "jpeg" and not b.startswith(b"CORRUPT")
           for f, b in zip(before["fmt"].to_pylist(), before["bytes"].to_pylist())]
    assert any(hit) and not all(hit)

    def broken(rgb):
        raise RuntimeError("codec down")

    monkeypatch.setitem(registry._CODECS, "jpeg", (broken, registry._CODECS["jpeg"][1]))
    got = web.fetch_batch(pa.array(urls, pa.string()))
    assert got["fetch_ok"].to_pylist() == [not h for h in hit]
    assert [r for r, h in zip(got.to_pylist(), hit) if h] == [_EMPTY_PAGE] * sum(hit)
    assert got.filter(got["fetch_ok"]).equals(before.filter(pa.array([not h for h in hit])))
    with pytest.raises(RuntimeError, match="codec down"):
        web.fetch(urls[hit.index(True)])


# ------------------------------------------------------------ modulo rule
_EDGES = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62 + 12345, 2**63 - 1, 2**63,
          2**63 + 1, 2**64 - 1]


@pytest.mark.parametrize("m", [2, 3, 4, 10, 100, 200, 12, 96])
def test_scalar_mod_matches_scalar_expression(m):
    """2, 3 (size pools), 4, 10, 100, pages_per_host and both fixture
    n_hosts: every modulus the backend takes."""
    rng = np.random.default_rng(m)
    zs = _EDGES + rng.integers(0, 2**64 - 1, 2000, dtype=np.uint64,
                               endpoint=True).tolist()
    vec = np.array(zs, dtype=np.uint64)
    # the scalar splitmix64 returns a Python int: that is the operand here
    assert scalar_mod(vec, m).tolist() == [int(z % np.uint64(m)) for z in zs]
    assert scalar_mod(splitmix64(vec), m).tolist() == [
        int(splitmix64(np.uint64(z)) % np.uint64(m)) for z in zs]


def test_scalar_mod_keeps_the_float_branch():
    """Below 2**63 the scalar rule rounds to float64 first, so it is NOT the
    exact modulo; the helper must not "fix" that."""
    z = 2**53 + 1
    assert int(scalar_mod(np.array([z], np.uint64), 10)[0]) == 2 != z % 10
    assert int(scalar_mod(np.array([2**63 + 1], np.uint64), 10)[0]) == (2**63 + 1) % 10


# ----------------------------------------------------------- split property
_POOL = (_default_urls()[::37] + ["http://example.com/p/1", "HTTP://host-0002.test/p/9",
                                   "http://host-0003.test:80/p/4",
                                   "http://host-0004.test/private/3",
                                   "http://host-0005.test/p/12/"])


@given(st.lists(st.sampled_from(_POOL), max_size=20),
       st.lists(st.integers(min_value=0, max_value=20), max_size=5))
@settings(max_examples=25, deadline=None)
def test_fetch_batch_split_invariant(urls, cuts):
    """fetch_batch over a URL list == the concatenation of fetch_batch over
    any split of it (Ray Data moves batch boundaries with the wave's block
    count and batch_size); repeated cuts give empty parts, adjacent ones
    one-row parts."""
    web = SyntheticWeb()
    whole = web.fetch_batch(pa.array(urls, pa.string()))
    bounds = [0] + sorted(min(c, len(urls)) for c in cuts) + [len(urls)]
    parts = [web.fetch_batch(pa.array(urls[a:b], pa.string()))
             for a, b in zip(bounds, bounds[1:])]
    assert pa.concat_tables(parts).equals(whole)
    chunked = pa.chunked_array([pa.array(urls[a:b], pa.string())
                                for a, b in zip(bounds, bounds[1:])], pa.string())
    assert web.fetch_batch(chunked).equals(whole)


# ---------------------------------------------------------- kernel oracle
def _pixels_oracle(content_key: int, w: int, h: int) -> np.ndarray:
    """The original one-image float expression of the pixel kernel."""
    rng = np.random.default_rng(content_key)
    params = rng.integers(0, 256, size=6)
    yy = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None]
    xx = np.linspace(0.0, 1.0, w, dtype=np.float32)[None, :]
    img = np.empty((h, w, 3), dtype=np.float32)
    for c in range(3):
        img[..., c] = params[c] * yy + params[3 + c] * xx
    noise = rng.integers(0, 24, size=(h, w)).astype(np.float32)
    return np.clip(img * 0.7 + noise[..., None], 0, 255).astype(np.uint8)


@pytest.mark.parametrize("w,h", SIZES)
def test_pixel_kernel_matches_oracle(w, h):
    keys = [0, 1, 2**63 - 1, 2**63, 2**64 - 1] + np.random.default_rng(w).integers(
        0, 2**64 - 1, 3, dtype=np.uint64, endpoint=True).tolist()
    stack = _pixel_stack(keys, w, h)
    assert stack.shape == (len(keys), h, w, 3) and stack.dtype == np.uint8
    for key, img in zip(keys, stack):
        oracle = _pixels_oracle(key, w, h)
        assert np.array_equal(img, oracle)
        assert np.array_equal(_pixels(key, w, h), oracle)


# ------------------------------------------- registry-conditional codec
_FAKE_MAGIC = b"FJPG"


def _fake_jpeg_module() -> types.ModuleType:
    """Stands in for a third-party JPEG library: lossless zlib'd RGB."""
    mod = types.ModuleType("fake_jpeg_lib")

    def compress(rgb):
        h, w, _ = rgb.shape
        return _FAKE_MAGIC + struct.pack("<HH", w, h) + zlib.compress(rgb.tobytes(), 1)

    def decompress(data):
        if data[:4] != _FAKE_MAGIC:
            raise ValueError("not a fake jpeg payload")
        w, h = struct.unpack_from("<HH", data, 4)
        return np.frombuffer(zlib.decompress(data[8:]), np.uint8).reshape(h, w, 3)

    mod.compress, mod.decompress = compress, decompress
    return mod


@pytest.fixture
def fake_jpeg_codec(monkeypatch):
    """Register a codec from a (fake) module under "jpeg", the way a real
    JPEG library would be wired in, and restore the registry afterwards."""
    saved = (dict(registry._CODECS), dict(registry._GRAY_FAST), set(registry.LOSSLESS))
    monkeypatch.setitem(sys.modules, "fake_jpeg_lib", _fake_jpeg_module())
    import fake_jpeg_lib

    registry.register("jpeg", fake_jpeg_lib.compress,
                      lambda data, w, h: fake_jpeg_lib.decompress(data))
    yield fake_jpeg_lib
    for live, old in zip((registry._CODECS, registry._GRAY_FAST, registry.LOSSLESS), saved):
        live.clear()
        live.update(old)


def test_registered_jpeg_codec_flows_through_fetch_and_decode(fake_jpeg_codec):
    web = SyntheticWeb()
    urls = _default_urls()[::7]
    pages = web.fetch_batch(pa.array(urls, pa.string()))
    jpeg = pages.filter(pc.equal(pages["fmt"], "jpeg"))
    jpeg = jpeg.filter([not b.startswith(b"CORRUPT") for b in jpeg["bytes"].to_pylist()])
    assert jpeg.num_rows > 10
    imgs = []
    for blob, w, h in zip(jpeg["bytes"].to_pylist(), jpeg["w"].to_pylist(),
                          jpeg["h"].to_pylist()):
        assert blob[:4] == _FAKE_MAGIC
        img = fake_jpeg_codec.decompress(blob)
        assert img.shape == (h, w, 3)
        imgs.append(img)
    n = jpeg.num_rows
    out = DecodeStats(keep_bytes=False)(jpeg.append_column(
        "seq", pa.array(range(n), pa.int64())))
    assert out["decode_ok"].to_pylist() == [True] * n
    expect = [int(phash_from_gray(grayscale(img[None]))[0]) for img in imgs]
    assert [p & (2**64 - 1) for p in out["phash"].to_pylist()] == expect
    assert "jpeg" not in registry.LOSSLESS
