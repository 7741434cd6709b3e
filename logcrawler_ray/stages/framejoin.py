"""Frame-number joins (SURVEY.md §2.4 J1/J2/J3) and representation stats.

- ``frame_join``: per-log hash join of game frames to an image index on
  frame_number. ``how="inner"`` drops frames without images — the
  combined.log rule "only write frames which have corresponding images"
  (reference: 02_combine_logs.py:118-136); ``how="left"`` keeps them, the
  images_jpeg variant (02_combine_logs.py:165-190). One :func:`cogroup`
  on log_id, an Arrow hash join on (log_id, frame_number) per bucket.

- ``broadcast_lookup``: the frame_number -> frame_id dict probe
  (07_input_cognition_data_rust.py:119-124, 12_input_images.py:39-59) as a
  broadcast ray.put map. ``miss`` policy: "null" (07's None) or "error"
  (12 quits; here the row goes to an error-channel column instead).

- ``representation_stats``: per-log distinct representation names + counts
  of non-empty payloads (src/lib.rs:43-81 A1/A2) as one groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.cogroup import arrow_schema, cogroup


def frame_join(game_ds, image_ds, how: str = "inner", by: str = "log_id",
               on: str = "frame_number"):
    """Join image-index rows onto game-frame rows per log. Image columns
    arrive suffixed ``_img``; inner drops game frames with no image."""
    if how not in ("inner", "left"):
        raise ValueError(how)

    gsch, isch = arrow_schema(game_ds), arrow_schema(image_ds)
    iside = pa.schema([gsch.field(by), gsch.field(on)]
                      + [f for f in isch if f.name not in (by, on)])
    out = pa.schema(list(gsch) + [
        f.with_name(f.name + "_img" if f.name in gsch.names else f.name)
        for f in iside if f.name not in (by, on)])

    def per_bucket(game: pa.Table, img: pa.Table) -> pa.Table:
        return game.join(img, keys=[by, on], right_suffix="_img",
                         join_type="inner" if how == "inner" else "left outer",
                         use_threads=False)

    return cogroup([(game_ds, gsch), (image_ds, iside)], by, per_bucket,
                   schema=out)


def broadcast_lookup(ds, mapping: dict, key: str, out_col: str, miss: str = "null"):
    """Broadcast dict probe: adds ``out_col``; misses -> null (07's policy)
    or flagged via ``{out_col}_ok`` = False (12's quit() becomes a channel).
    The dict ships once as an Arrow (keys, vals) pair and is probed
    vectorized (pc.index_in + take) — size-guarded, never a per-row loop."""
    import pyarrow.compute as pc
    import ray

    from .broadcast import broadcast_map_from_dict, probe_values

    ref = broadcast_map_from_dict(mapping)

    def probe(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        matched = probe_values(t[key], keys, vals)
        t = t.append_column(out_col, matched)
        if miss == "error":
            t = t.append_column(f"{out_col}_ok", pc.is_valid(matched))
        return t

    return ds.map_batches(probe, batch_format="pyarrow")


def representation_stats(index_ds, by: str = "log_path"):
    """(log, name) -> frames-with-payload count (size>0) + total count —
    the A1/A2 aggregates of src/lib.rs:43-81, partial-aggregated per batch."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([by, "name", "size"]).to_pandas()
        df["non_empty"] = (df["size"] > 0).astype(np.int64)
        df["n"] = 1
        g = df.groupby([by, "name"], as_index=False)[["non_empty", "n"]].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (index_ds.map_batches(partial, batch_format="pyarrow")
            .groupby([by, "name"])
            .aggregate(Sum("non_empty", alias_name="non_empty"),
                       Sum("n", alias_name="n")))
