"""Combine pipeline: game log ⋈ image log -> combined log (S5 + J1/J2).

The Ray-Data restatement of the reference's 02_combine_logs.py:

- raw variant (``combine_raw``): build the per-file image index
  (frame -> camera -> (offset, size), 02:19-68), stream game-log frames,
  attach image payloads, and serialize back to the NaoTH wire format.
  **Inner-join semantics: frames without images are dropped**
  ("only write frames which have corresponding images", 02:118-136).
- jpeg variant (``combine_jpeg``): left-join semantics — frames without
  images are written unmodified (02:165-190).

Camera-representation naming follows the reference: a TOP image becomes
representation "ImageTop", BOTTOM becomes "Image" (raw), with "ImageJPEG"/
"ImageJPEGTop" for the jpeg log (02:62-66, 02:84-92).

Failure policy: the reference deletes a partially-written combined.log on
error (02:156-162); here serialization is pure bytes-in/bytes-out, and the
caller commits through the store's manifest-last protocol, so a crash
leaves no partial output by construction.

These are pure functions of (game_bytes, images_bytes) -> usable inside
``map_batches`` over ``read_binary_files`` pairs — one task per log, which
is the reference's unit of work too.
"""

from __future__ import annotations

import struct

from ..sources import naoth


def build_image_index_raw(images_data: bytes, first_top: bool) -> dict[int, dict[str, tuple[int, int]]]:
    """images.log -> {frame_number: {repr_name: (offset, size)}} (02:19-68)."""
    idx = naoth.scan_images_log(images_data, first_top)
    out: dict[int, dict[str, tuple[int, int]]] = {}
    for row in idx.to_pylist():
        name = "ImageTop" if row["camera"] == "TOP" else "Image"
        out.setdefault(row["frame_number"], {})[name] = (row["offset"], row["size"])
    return out


def build_image_index_jpeg(jpeg_log_data: bytes) -> dict[int, dict[str, tuple[int, int]]]:
    """images_jpeg.log (NaoTH format, ImageJPEG/ImageJPEGTop records) ->
    same index shape (02:71-94)."""
    idx = naoth.scan_records(jpeg_log_data)
    out: dict[int, dict[str, tuple[int, int]]] = {}
    for row in idx.to_pylist():
        if row["name"] in ("ImageJPEG", "ImageJPEGTop"):
            out.setdefault(row["frame_number"], {})[row["name"]] = (
                row["offset"], row["size"])
    return out


def _serialize_frame(fn: int, fields: list[tuple[str, bytes]]) -> bytes:
    out = bytearray()
    for name, payload in fields:
        out += struct.pack("<i", fn)
        out += name.encode("ascii") + b"\x00"
        out += struct.pack("<i", len(payload))
        out += payload
    return bytes(out)


def _combine(game_data: bytes, image_source: bytes,
             image_index: dict[int, dict[str, tuple[int, int]]],
             keep_unmatched: bool) -> bytes:
    game_idx = naoth.scan_records(game_data)
    rows = game_idx.to_pylist()
    out = bytearray()
    # group game records into frames, preserving record order
    i = 0
    while i < len(rows):
        fn = rows[i]["frame_number"]
        fields: list[tuple[str, bytes]] = []
        while i < len(rows) and rows[i]["frame_number"] == fn:
            r = rows[i]
            fields.append((r["name"], naoth.payload(game_data, r["offset"], r["size"])))
            i += 1
        images = image_index.get(fn)
        if images:
            for name in sorted(images):
                off, size = images[name]
                fields.append((name, image_source[off : off + size]))
        elif not keep_unmatched:
            continue  # inner join: drop the frame (02:118-136)
        out += _serialize_frame(fn, fields)
    return bytes(out)


def combine_raw(game_data: bytes, images_data: bytes, first_top: bool) -> bytes:
    """game.log ⋈ images.log (inner) -> combined.log bytes."""
    idx = build_image_index_raw(images_data, first_top)
    return _combine(game_data, images_data, idx, keep_unmatched=False)


def combine_jpeg(game_data: bytes, jpeg_log_data: bytes) -> bytes:
    """game.log ⟕ images_jpeg.log (left) -> combined.log bytes."""
    idx = build_image_index_jpeg(jpeg_log_data)
    return _combine(game_data, jpeg_log_data, idx, keep_unmatched=True)


def combine_files_dataset(pairs: list[tuple[str, str, bool]]):
    """Ray wrapper: [(game_path, images_path, first_top)] -> Dataset of
    (game_path, combined_bytes) — one task per log pair."""
    import pyarrow as pa
    import ray.data as rd

    def work(batch: pa.Table) -> pa.Table:
        outs = []
        for g, im, ft in zip(batch["game_path"].to_pylist(),
                             batch["images_path"].to_pylist(),
                             batch["first_top"].to_pylist()):
            with open(g, "rb") as f:
                game = f.read()
            with open(im, "rb") as f:
                images = f.read()
            outs.append(combine_raw(game, images, ft))
        return pa.table({"game_path": batch["game_path"],
                         "combined": pa.array(outs, pa.binary())})

    tbl = pa.table({
        "game_path": [p[0] for p in pairs],
        "images_path": [p[1] for p in pairs],
        "first_top": [p[2] for p in pairs],
    })
    return rd.from_arrow(tbl).map_batches(work, batch_format="pyarrow", batch_size=1)
