"""``update_image_stats`` reads the partition through the store, never
the local filesystem: both of its passes run on a ``memory://`` root (a
stand-in for any non-local fsspec root), and on a view."""

import uuid

import pyarrow as pa
import pyarrow.compute as pc

from logcrawler_ray.pipelines.update import update_image_stats
from logcrawler_ray.sources.corpus import corpus_table
from logcrawler_ray.sources.objstore import ObjectStore

RAW = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]


def _mem() -> ObjectStore:
    return ObjectStore(f"memory://update-{uuid.uuid4().hex}")


def test_update_widen_and_refresh_on_memory_root():
    st = _mem()
    tab = corpus_table(12, seed=4).select(RAW)
    st.append_table("p0", tab)
    assert update_image_stats(st, "p0") == 12
    done = st.read_table("p0").sort_by("image_id")
    assert "brightness" in done.column_names and done.num_rows == 12
    # blank two rows' stats: the refresh pass recomputes exactly those
    i = done.schema.get_field_index("brightness")
    blank = pc.is_in(done["image_id"], value_set=done["image_id"][:2].combine_chunks())
    holed = done.set_column(i, "brightness", pc.if_else(
        blank, pa.scalar(None, done["brightness"].type), done["brightness"]))
    st.append_table("p0", holed)
    assert update_image_stats(st, "p0") == 2
    again = st.read_table("p0").sort_by("image_id")
    assert again.equals(done)
    assert update_image_stats(st, "p0") == 0


def test_update_on_a_view_reads_through_its_deletes():
    st = _mem()
    tab = corpus_table(10, seed=6).select(RAW)
    st.append_table("raw", tab)
    gone = tab["image_id"][0].as_py()
    st.commit_delete_view("v", "raw", [gone], key_col="image_id")
    assert update_image_stats(st, "v") == 9
    out = st.read_table("v")
    assert out.num_rows == st.rows("v") == 9
    assert gone not in out["image_id"].to_pylist()
    assert out["brightness"].null_count == 0
