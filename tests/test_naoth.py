"""NaoTH binary scanner, frame joins, and keyframe+delta stream tests
(FIXTURES.md F5/F6/F7)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logcrawler_ray.sources import naoth


def _side(df: pd.DataFrame, **kw):
    """``df`` as a ``(Dataset, schema)`` side, with the types pandas gives it."""
    import ray.data as rd

    return rd.from_pandas(df, **kw), pa.Schema.from_pandas(df, preserve_index=False)


def make_clean_log():
    return [
        (1, [("FrameInfo", b"fi1"), ("Image", b"x" * 10), ("BallCandidates", b"bc")]),
        (2, [("FrameInfo", b"fi2"), ("ImageTop", b"y" * 5)]),
        (3, [("FrameInfo", b"fi3")]),
    ]


# ---------------------------------------------------------------- scanner
def test_scan_clean_log():
    data = naoth.write_records(make_clean_log())
    idx = naoth.scan_records(data)
    assert idx["frame_number"].to_pylist() == [1, 1, 1, 2, 2, 3]
    assert idx["name"].to_pylist() == [
        "FrameInfo", "Image", "BallCandidates", "FrameInfo", "ImageTop", "FrameInfo"]
    # offsets point at payloads: fetch and compare
    row = idx.slice(1, 1).to_pylist()[0]
    assert naoth.payload(data, row["offset"], row["size"]) == b"x" * 10


def test_scan_truncated_tail_drops_whole_frame():
    """A torn final payload drops the ENTIRE last frame (src/reader.rs:72-78)."""
    data = naoth.write_records(make_clean_log())
    torn = data[:-2]  # cut into frame 3's record
    idx = naoth.scan_records(torn)
    assert idx["frame_number"].to_pylist() == [1, 1, 1, 2, 2]
    # cutting into frame 2's second record drops both frame-2 records
    cut = data.find(b"ImageTop")
    idx2 = naoth.scan_records(data[: cut + 3])
    assert idx2["frame_number"].to_pylist() == [1, 1, 1]


def test_scan_garbage_keeps_prefix():
    data = naoth.write_records(make_clean_log())
    garbage = data + b"\xff" * 7  # not even a full header
    idx = naoth.scan_records(garbage)
    # trailing garbage parses as a torn record -> prefix kept (frames 1-2;
    # frame 3 is the frame the torn record appears to belong to... the
    # garbage starts a NEW pseudo-frame, so 3 survives)
    assert idx["frame_number"].to_pylist()[-1] == 3 or idx.num_rows == 5


def test_scan_empty():
    assert naoth.scan_records(b"").num_rows == 0
    assert naoth.scan_records(b"\x01").num_rows == 0


def test_truncate_at_missing_frameinfo():
    frames = [
        (1, [("FrameInfo", b"a"), ("Image", b"b")]),
        (2, [("Image", b"c")]),  # missing FrameInfo -> truncate here
        (3, [("FrameInfo", b"d")]),
    ]
    idx = naoth.scan_records(naoth.write_records(frames))
    out = naoth.truncate_at_missing_frameinfo(idx)
    assert out["frame_number"].to_pylist() == [1, 1]


def test_images_log_scan_parity():
    rec = lambda fn: np.int32(fn).tobytes() + bytes(naoth.IMAGE_DATA_SIZE)
    data = rec(10) + rec(10) + rec(20) + rec(20)
    top_first = naoth.scan_images_log(data, first_top=True)
    assert top_first["camera"].to_pylist() == ["TOP", "BOTTOM", "TOP", "BOTTOM"]
    bottom_first = naoth.scan_images_log(data, first_top=False)
    assert bottom_first["camera"].to_pylist() == ["BOTTOM", "TOP", "BOTTOM", "TOP"]
    assert top_first["frame_number"].to_pylist() == [10, 10, 20, 20]
    # truncated trailing image dropped
    torn = naoth.scan_images_log(data + rec(30)[:100], first_top=True)
    assert torn.num_rows == 4


def test_first_image_year_rule():
    assert naoth.first_image_is_top(2022)
    assert not naoth.first_image_is_top(2023)


def test_scan_files_dataset(ray_session, tmp_path):
    p1 = tmp_path / "a.log"
    p1.write_bytes(naoth.write_records(make_clean_log()))
    p2 = tmp_path / "b.log"
    p2.write_bytes(naoth.write_records([(7, [("FrameInfo", b"z")])]))
    out = naoth.scan_files_dataset([str(p1), str(p2)]).to_pandas()
    assert len(out) == 7
    assert set(out[out["log_path"].str.endswith("b.log")]["frame_number"]) == {7}


# ---------------------------------------------------------------- joins
@pytest.fixture()
def join_fixture():
    game = pd.DataFrame({
        "log_id": [1, 1, 1, 1, 2],
        "frame_number": [10, 20, 30, 40, 10],
        "payload_names": ["a", "b", "c", "d", "e"],
    })
    img = pd.DataFrame({
        "log_id": [1, 1, 1, 2],
        "frame_number": [10, 30, 99, 11],
        "camera": ["TOP", "BOTTOM", "TOP", "TOP"],
        "offset": [0, 4, 8, 0],
    })
    return game, img


def test_frame_join_inner(ray_session, join_fixture):
    from logcrawler_ray.stages.framejoin import frame_join

    game, img = join_fixture
    out = frame_join(_side(game), _side(img), how="inner").to_pandas()
    # frames without images dropped (02_combine_logs.py:118-136)
    assert sorted(zip(out["log_id"], out["frame_number"])) == [(1, 10), (1, 30)]
    assert set(out["camera"]) == {"TOP", "BOTTOM"}


def test_frame_join_left(ray_session, join_fixture):
    from logcrawler_ray.stages.framejoin import frame_join

    game, img = join_fixture
    out = frame_join(_side(game), _side(img), how="left").to_pandas()
    # all game frames kept (02_combine_logs.py:165-177); log 2 has no match
    assert sorted(zip(out["log_id"], out["frame_number"])) == [
        (1, 10), (1, 20), (1, 30), (1, 40), (2, 10)]
    l2 = out[(out["log_id"] == 2)]
    assert l2["camera"].isna().all()


def test_broadcast_lookup_policies(ray_session):
    import ray.data as rd

    from logcrawler_ray.stages.framejoin import broadcast_lookup

    ds = rd.from_pandas(pd.DataFrame({"frame_number": [1, 2, 3]}))
    out = broadcast_lookup(ds, {1: 100, 3: 300}, "frame_number", "frame_id").to_pandas()
    got = dict(zip(out["frame_number"], out["frame_id"]))
    assert got[1] == 100 and got[3] == 300 and pd.isna(got[2])
    out2 = broadcast_lookup(ds, {1: 100}, "frame_number", "frame_id",
                            miss="error").to_pandas()
    assert list(out2.sort_values("frame_number")["frame_id_ok"]) == [True, False, False]


def test_representation_stats(ray_session, tmp_path):
    import ray.data as rd

    from logcrawler_ray.stages.framejoin import representation_stats

    idx = pd.DataFrame({
        "log_path": ["a", "a", "a", "b"],
        "name": ["Image", "Image", "FrameInfo", "Image"],
        "size": [10, 0, 5, 3],
    })
    out = representation_stats(rd.from_pandas(idx)).to_pandas()
    got = {(r.log_path, r.name): (r.non_empty, r.n) for r in out.itertuples()}
    assert got == {("a", "Image"): (1, 2), ("a", "FrameInfo"): (1, 1),
                   ("b", "Image"): (1, 1)}


# ---------------------------------------------------------------- behavior
def make_behavior_rows():
    return [
        {"log_id": 1, "seq": 0, "kind": "complete", "ids": [1, 2],
         "names": ["ball_x", "ball_y"], "values": [0.0, 1.0]},
        {"log_id": 1, "seq": 1, "kind": "sparse", "ids": [2], "names": [],
         "values": [5.0]},
        {"log_id": 1, "seq": 2, "kind": "sparse", "ids": [1, 99], "names": [],
         "values": [7.0, 8.0]},  # 99 unknown -> skipped
        {"log_id": 1, "seq": 3, "kind": "complete", "ids": [3],
         "names": ["new_sym"], "values": [2.0]},  # keyframe resets tables
        {"log_id": 1, "seq": 4, "kind": "sparse", "ids": [3], "names": [],
         "values": [9.0]},
        {"log_id": 2, "seq": 0, "kind": "sparse", "ids": [1], "names": [],
         "values": [1.0]},  # orphan before keyframe -> dropped
        {"log_id": 2, "seq": 1, "kind": "complete", "ids": [4],
         "names": ["s"], "values": [4.0]},
    ]


def test_behavior_decode_matches_reference(ray_session):
    import ray.data as rd

    from logcrawler_ray.stages.behavior import decode_behavior, reference_decode

    rows = make_behavior_rows()
    out = decode_behavior(rd.from_items(rows)).to_pandas()
    got = sorted(map(tuple, out[["log_id", "seq", "symbol", "value"]].values.tolist()))
    expect = sorted(reference_decode(rows))
    assert got == expect
    # spot checks: delta applied, keyframe reset, orphan dropped
    df = out[(out["log_id"] == 1) & (out["seq"] == 2)]
    assert dict(zip(df["symbol"], df["value"])) == {"ball_x": 7.0, "ball_y": 5.0}
    df3 = out[(out["log_id"] == 1) & (out["seq"] == 3)]
    assert dict(zip(df3["symbol"], df3["value"])) == {"new_sym": 2.0}
    assert not ((out["log_id"] == 2) & (out["seq"] == 0)).any()


def test_behavior_parallelism_safe(ray_session):
    """Many logs, each an ordered group — results equal the serial oracle."""
    import ray.data as rd

    from logcrawler_ray.stages.behavior import decode_behavior, reference_decode

    rng = np.random.default_rng(0)
    rows = []
    for log in range(8):
        rows.append({"log_id": log, "seq": 0, "kind": "complete",
                     "ids": [1, 2, 3], "names": ["a", "b", "c"],
                     "values": [0.0, 0.0, 0.0]})
        for seq in range(1, 20):
            if seq % 7 == 0:
                rows.append({"log_id": log, "seq": seq, "kind": "complete",
                             "ids": [1, 2], "names": ["a", "b"],
                             "values": [float(seq), 0.0]})
            else:
                ids = rng.choice([1, 2, 3], size=rng.integers(1, 3), replace=False)
                rows.append({"log_id": log, "seq": seq, "kind": "sparse",
                             "ids": ids.tolist(), "names": [],
                             "values": rng.normal(size=len(ids)).round(3).tolist()})
    out = decode_behavior(rd.from_items(rows)).to_pandas()
    got = sorted(map(tuple, out[["log_id", "seq", "symbol", "value"]].values.tolist()))
    assert got == sorted(reference_decode(rows))


def test_frame_join_left_no_image_group_string_col(ray_session):
    """Review repro: a left-join group with zero image rows must unify with
    groups whose image side has string columns."""
    import pandas as pd

    from logcrawler_ray.stages.framejoin import frame_join

    game = pd.DataFrame({"log_id": [1, 1, 2], "frame_number": [5, 6, 5],
                         "state": ["a", "b", "c"]})
    img = pd.DataFrame({"log_id": [1, 1], "frame_number": [5, 5],
                        "camera": ["TOP", "BOTTOM"], "offset": [0, 4]})
    out = frame_join(_side(game), _side(img),
                     how="left").to_pandas()
    g1 = out[out["log_id"] == 1].sort_values(["frame_number", "camera"])
    assert g1["camera"].dropna().tolist() == ["BOTTOM", "TOP"]
    g2 = out[out["log_id"] == 2]
    assert len(g2) == 1 and g2["camera"].isna().all()
    # inner mode drops the no-image log entirely
    out_i = frame_join(_side(game), _side(img),
                       how="inner").to_pandas()
    assert set(out_i["log_id"]) == {1}
    assert out_i["offset"].dtype == np.int64  # native dtype kept in inner
