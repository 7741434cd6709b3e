"""The store's delete-vector kernel (sources/objstore.py::drop_keys) and the
view read built on it.

``drop_keys`` must keep exactly the rows whose key is not in the delete
vector, in order and with the input's types. ``read_table`` of a view
filters one base file at a time, so it never holds the whole unfiltered
partition next to a filtered copy of it.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from logcrawler_ray.sources.objstore import drop_keys, open_store
from logcrawler_ray.sources.store import write_fragment

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _table(n: int, width: int, chunks: int, seed: int = 0) -> pa.Table:
    """``n`` rows in ``chunks`` real chunks (separate buffers each)."""
    rng = np.random.default_rng(seed)
    cuts = [n * i // chunks for i in range(chunks + 1)]
    return pa.concat_tables([pa.table({
        "image_id": pa.array(np.arange(a, b), pa.int64()),
        "bytes": pa.array([rng.bytes(width) for _ in range(a, b)], pa.binary()),
        "url": pa.array([f"u{i}" for i in range(a, b)], pa.string()),
        "w": pa.array(rng.random(b - a), pa.float64()),
    }) for a, b in zip(cuts, cuts[1:])])


@settings(max_examples=100, deadline=None)
@given(keep=st.lists(st.booleans(), min_size=0, max_size=60),
       width=st.sampled_from([0, 16, 3000]),
       chunks=st.integers(1, 3))
def test_drop_keys_keeps_the_rows_not_in_the_vector(keep, width, chunks):
    t = _table(len(keep), width, min(chunks, max(len(keep), 1)))
    drop = [i for i, k in enumerate(keep) if not k]

    got = drop_keys(t, "image_id", pa.array(drop, pa.int64()))

    assert got.schema == t.schema
    assert got.to_pylist() == [r for r, k in zip(t.to_pylist(), keep) if k]


def test_drop_keys_empty_and_untyped_delete_vectors():
    t = _table(5, 8, 1)
    assert drop_keys(t, "image_id", pa.array([])) is t
    assert drop_keys(t, "image_id", pa.array([], pa.int64())) is t
    assert drop_keys(t.slice(0, 0), "image_id", pa.array([1])).num_rows == 0
    gone = drop_keys(t, "image_id", pa.array(range(5), pa.int64()))
    assert gone.num_rows == 0 and gone.schema == t.schema


# Runs in a fresh interpreter, so that the default pool's high-water mark
# counts this read and nothing any other test (or a Ray session) allocated.
_READ_VIEW = """
import json, sys
import pyarrow as pa
from logcrawler_ray.sources.objstore import open_store
got = open_store(sys.argv[1]).read_table("v")
peak = pa.default_memory_pool().max_memory()
print(json.dumps({"peak": peak, "nbytes": got.nbytes,
                  "ids": got["image_id"].to_pylist()}))
"""


def test_view_read_holds_one_base_file_beyond_its_result(tmp_path):
    """Peak Arrow allocation of ``read_table(view)`` stays below the
    result plus three of the largest base files: reading one file peaks at
    twice its size (its raw bytes and the decoded table) and the filter
    adds the kept copy. The read never holds the whole base partition next
    to a filtered copy of it (which peaks near twice the result)."""
    root = str(tmp_path / "store")
    st_ = open_store(root)
    stage = st_.external_tmp("raw")
    losers, largest = [], 0
    for f in range(8):
        t = _table(24, 40_000, 1, seed=f)
        t = t.set_column(0, "image_id", pc.add(t["image_id"], f * 24))
        write_fragment(t, os.path.join(stage, f"part-{f}.parquet"))
        losers.append(f * 24 + 5)
        largest = max(largest, t.nbytes)
    st_.commit_external("raw", stage)
    st_.commit_delete_view("v", "raw", losers, key_col="image_id")

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [REPO, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _READ_VIEW, root], env=env,
                         capture_output=True, text=True, check=True)
    r = json.loads(out.stdout.strip().splitlines()[-1])

    assert sorted(r["ids"]) == sorted(set(range(8 * 24)) - set(losers))
    assert r["peak"] < r["nbytes"] + 3 * largest
