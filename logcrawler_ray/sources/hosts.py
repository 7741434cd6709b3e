"""SyntheticWeb: a deterministic, self-contained "internet" for the crawler.

No network exists in this container, so fetching is a pure function of the
URL (seeded): every page URL yields one encoded image + caption (the
engine's row unit, per BASELINE.json input_hint) plus outgoing links.
This plays the role the filesystem tree of game logs plays for the
reference (README.md:6-76): a deterministic, enumerable corpus the crawler
discovers incrementally.

Determinism is the point — the serial reference executor and the parallel
Ray engine fetch the same URLs and must produce identical bytes, so the
equivalence tests (ordering, seen-set, kill+resume) are exact. Page bytes,
image ids, captions and link order are pinned by golden digests
(tests/test_hosts.py).

The backend is columnar: ``fetch_batch`` renders a whole URL column at
once — URL keys by ``hash64_str_array``, every per-page field as uint64
column math, pixels by one kernel per (w, h) group — and only the codec
encode runs per row. Errors are a per-row channel: an unservable URL gets
``fetch_ok=False`` and empty defaults, the rest of its batch is unaffected.
``fetch(url)`` is the one-row case and raises for an unservable URL.

Link structure per page (all derived from splitmix64 of the URL key):
- 1..4 same-host child pages (the frontier's bread and butter)
- ~10% chance of one cross-host link (hot host favored -> skew)
- ~10% chance of a /private/... link (robots disallow exercise)
- ~15% chance one link is a NON-CANONICAL spelling (trailing slash) of an
  already-linked page (URL-seen canonicalization test)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import registry
from ..functions.hashing import hash64_str, hash64_str_array, splitmix64
from ..sources.corpus import FMTS, SIZES, _pixel_stack, caption_for

_U64 = np.uint64
_SIZE_W = np.array([w for w, _ in SIZES], dtype=np.int32)
_SIZE_H = np.array([h for _, h in SIZES], dtype=np.int32)
_STACK_PIXELS = 1 << 21  # pixels per _pixel_stack call (bounds its buffers)

# fetch_batch output: the page columns of stages.fetch.FETCH_SCHEMA
PAGE_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("links", pa.list_(pa.string())),
    ("fetch_ok", pa.bool_()),
])


def scalar_mod(z: np.ndarray, m: int) -> np.ndarray:
    """Vector form of ``int(splitmix64(x) % np.uint64(m))`` for
    ``z = splitmix64(x)``, as NumPy 1.26 evaluates it.

    The scalar ``splitmix64`` returns a Python int, and ``int % np.uint64``
    promotes by value: below 2**63 the int becomes int64, int64 with uint64
    promotes to float64, so the result is ``fmod(float64(z), m)`` — z
    rounded to 53 bits first. At or above 2**63 the int becomes uint64 and
    the result is the exact ``z % m``. The pages were defined by that rule,
    so this helper reproduces it bit for bit (tests/test_hosts.py pins it
    against the scalar expression at the boundaries).

    NumPy >= 2 (NEP 50) changes the scalar semantics (a Python int takes the
    uint64 operand's type, so every value takes the exact branch); the
    golden page digests in tests/test_hosts.py fail if that ever reaches
    the page bytes.
    """
    z = np.asarray(z, dtype=_U64)
    out = (z % _U64(m)).astype(np.int64)
    low = z < _U64(1 << 63)
    out[low] = np.remainder(z[low].view(np.int64).astype(np.float64), float(m))
    return out


def _mix_mod(k: np.ndarray, salt: int, m: int) -> np.ndarray:
    """``int(splitmix64(k ^ salt) % np.uint64(m))`` per row."""
    return scalar_mod(splitmix64(k ^ _U64(salt)), m)


class SyntheticWeb:
    def __init__(self, seed: int = 42, n_hosts: int = 12, pages_per_host: int = 200,
                 hot_host: int = 0):
        self.seed = seed
        self.n_hosts = n_hosts
        self.pages_per_host = pages_per_host
        self.hot_host = hot_host

    # -- naming --------------------------------------------------------
    def host_name(self, h: int) -> str:
        return f"host-{h:04d}.test"

    def page_url(self, h: int, p: int) -> str:
        return f"http://{self.host_name(h)}/p/{p % self.pages_per_host}"

    def seed_urls(self, n: int) -> list[dict]:
        """First pages of each host, round-robin, with deterministic
        priorities — plus a couple of duplicate/non-canonical seeds."""
        rows = []
        for i in range(n):
            h = i % self.n_hosts
            url = self.page_url(h, i // self.n_hosts)
            prio = int(splitmix64(np.uint64(hash64_str(url)) ^ np.uint64(self.seed)) % np.uint64(10))
            rows.append({"url": url, "priority": prio, "depth": 0})
        if n >= 4:
            rows.append({"url": rows[0]["url"] + "/", "priority": 0, "depth": 0})
            rows.append({"url": rows[1]["url"].replace("http://", "HTTP://"), "priority": 0,
                         "depth": 0})
        return rows

    # -- robots --------------------------------------------------------
    def robots_txt(self, host: str) -> str:
        k = splitmix64(np.uint64(hash64_str(host)) ^ np.uint64(self.seed * 13 + 5))
        delay_ms = [0, 0, 100, 500][int(k % np.uint64(4))]
        lines = ["User-agent: *"]
        # host-0001 always disallows (fixture guarantee); ~10% of others do
        if host == self.host_name(1) or int(splitmix64(k) % np.uint64(10)) == 0:
            lines.append("Disallow: /private")
        if delay_ms:
            lines.append(f"Crawl-delay: {delay_ms / 1000}")
        return "\n".join(lines)

    # -- pages ---------------------------------------------------------
    def fetch(self, url: str) -> dict:
        """URL -> {image_id, bytes, w, h, fmt, caption, links}: the one-row
        case of :meth:`fetch_batch`. Raises for an unservable URL."""
        pages, errors = self._render(pa.array([url], pa.string()))
        if errors[0] is not None:
            raise errors[0]
        page = pages.to_pylist()[0]
        del page["fetch_ok"]
        return page

    def fetch_batch(self, urls) -> pa.Table:
        """URL column (``pa.Array``/``pa.ChunkedArray``) -> one page row per
        URL (``PAGE_SCHEMA``). ~3% of pages carry a corrupt payload (the
        decode error channel); an unservable URL (not ``scheme://host-N...``)
        gets ``fetch_ok=False`` and empty page columns, and the other rows
        are exactly what they would be without it."""
        return self._render(urls)[0]

    def _render(self, urls) -> tuple[pa.Table, list[Exception | None]]:
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        url_list = urls.to_pylist()
        n = len(url_list)
        image_ids = [""] * n
        hosts = [""] * n
        h_idx = [0] * n
        errors: list[Exception | None] = [None] * n
        for i, url in enumerate(url_list):
            try:
                host, _, tail = url.split("://", 1)[1].partition("/")
                h_idx[i] = int(host.split("-")[1].split(".")[0])
            except (AttributeError, IndexError, ValueError) as e:  # per-row error channel
                errors[i] = e
                continue
            hosts[i] = host
            image_ids[i] = f"{host}/{tail}"

        key = splitmix64(hash64_str_array(urls) ^ _U64(self.seed * 1_000_003))
        fmts = [FMTS[f] for f in (key % _U64(3)).tolist()]
        # 90% from the three small sizes, else the two large ones
        size = np.where(_mix_mod(key, 1, 10) < 9, _mix_mod(key, 2, 3),
                        3 + _mix_mod(key, 2, 2))
        ws = _SIZE_W[size]
        hs = _SIZE_H[size]
        corrupt = _mix_mod(key, 3, 100) < 3
        valid = np.array([e is None for e in errors], dtype=bool)
        links = self._links(valid, hosts, h_idx, key)

        blobs = [b""] * n
        for i in np.nonzero(valid & corrupt)[0]:
            blobs[i] = b"CORRUPT" + bytes(str(int(key[i])), "ascii")
        # one pixel kernel per size group; the codec still encodes per row
        draw = valid & ~corrupt
        for s in np.unique(size[draw]):
            w, h = SIZES[s]
            rows = np.nonzero(draw & (size == s))[0]
            step = max(1, _STACK_PIXELS // (w * h))
            for lo in range(0, len(rows), step):
                chunk = rows[lo:lo + step]
                for i, rgb in zip(chunk, _pixel_stack(key[chunk], w, h)):
                    try:
                        blobs[i] = registry.encode(fmts[i], rgb)
                    except Exception as e:  # a codec failure is this row's error
                        errors[i] = e
                        valid[i] = False

        pages = pa.table({
            "image_id": [iid if ok else "" for iid, ok in zip(image_ids, valid)],
            "bytes": pa.array(blobs, pa.binary()),
            "w": np.where(valid, ws, 0).astype(np.int32),
            "h": np.where(valid, hs, 0).astype(np.int32),
            "fmt": [f if ok else "" for f, ok in zip(fmts, valid)],
            "caption": [caption_for(iid) if ok else ""
                        for iid, ok in zip(image_ids, valid)],
            "links": pa.array([lk if ok else [] for lk, ok in zip(links, valid)],
                              pa.list_(pa.string())),
            "fetch_ok": valid,
        }, schema=PAGE_SCHEMA)
        return pages, errors

    def _links(self, valid: np.ndarray, hosts: list[str], h_idx: list[int],
               key: np.ndarray) -> list[list[str]]:
        """Per row: the children, then the cross-host, private and
        non-canonical duplicate links, in that order."""
        pph = self.pages_per_host
        n_children = (1 + _mix_mod(key, 10, 4)).tolist()
        child_p = np.stack([_mix_mod(key, 20 + c, pph) for c in range(4)], axis=1)
        r = splitmix64(key ^ _U64(30))
        cross = (r % _U64(10)) == 0
        target = np.where((r % _U64(2)) == 1, self.hot_host,
                          scalar_mod(splitmix64(r), self.n_hosts))
        cross_p = _mix_mod(r, 1, pph)
        private = _mix_mod(key, 40, 10) == 0
        private_p = key % _U64(50)
        dup = _mix_mod(key, 50, 100) < 15
        out: list[list[str]] = []
        for i in range(len(hosts)):
            if not valid[i]:
                out.append([])
                continue
            links = [self.page_url(h_idx[i], p) for p in child_p[i, :n_children[i]].tolist()]
            if cross[i]:
                links.append(self.page_url(int(target[i]), int(cross_p[i])))
            if private[i]:
                links.append(f"http://{hosts[i]}/private/{int(private_p[i])}")
            if dup[i]:
                links.append(links[0] + "/")
            out.append(links)
        return out
