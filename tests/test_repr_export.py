"""M16 timestamp normalizer + representation.json export artifact tests."""

import json
import os

from logcrawler_ray.functions.videots import (
    TIMESTAMP_HEADER,
    normalize_timestamp_text,
    recording_name,
    sibling_names,
)
from logcrawler_ray.pipelines.repr_export import export_representation_sets
from logcrawler_ray.sources.naoth import write_records


def test_timestamp_header_added_once():
    raw = "0\n33\n66\n"
    out = normalize_timestamp_text(raw)
    assert out.splitlines()[0] == TIMESTAMP_HEADER
    assert out.endswith(raw)
    assert normalize_timestamp_text(out) == out  # idempotent
    # header line with surrounding whitespace still counts (strip compare)
    assert normalize_timestamp_text(TIMESTAMP_HEADER + "  \n1\n") \
        == TIMESTAMP_HEADER + "  \n1\n"


def test_timestamp_names():
    assert recording_name("/a/b/timestamp_01.txt") == "/a/b/recording_01.txt"
    sib = sibling_names("/v/recording_01.h264")
    assert sib["timestamps"].endswith(".txt")
    assert sib["mkv"].endswith(".mkv") and sib["mp4"].endswith(".mp4")


def _make_log(path, names):
    with open(path, "wb") as f:
        f.write(write_records([(1, [(n, b"x" * 4) for n in names]),
                               (2, [(n, b"y" * 2) for n in names])]))


def test_export_representation_sets(ray_session, tmp_path):
    from logcrawler_ray.sources.objstore import open_store

    a = tmp_path / "log_a"
    b = tmp_path / "log_b"
    c = tmp_path / "log_c"
    for d in (a, b, c):
        os.makedirs(d)
    # a: combined + sensor; b: game only; c: empty cognition -> no artifact
    _make_log(a / "combined.log", ["FrameInfo", "Image"])
    _make_log(a / "sensor.log", ["IMUData"])
    _make_log(b / "game.log", ["FrameInfo", "BallCandidates"])
    open(c / "combined.log", "wb").close()  # zero bytes -> not parsed

    store = open_store(str(tmp_path / "store"))
    got = export_representation_sets([str(a), str(b), str(c)], store=store)

    da = json.load(open(a / "representation.json"))
    assert da == {"cognition_representations": ["FrameInfo", "Image"],
                  "motion_representations": ["IMUData"]}
    db = json.load(open(b / "representation.json"))
    assert db == {"cognition_representations": ["BallCandidates", "FrameInfo"]}
    assert not os.path.exists(c / "representation.json")
    assert set(got) == {str(a), str(b)}
    # the "DB field": manifest meta carries the same dict
    assert store.manifest("repr-log_a")["meta"]["representation_list"] == da

    # is_done: second run skips everything (03:75-77)
    assert export_representation_sets([str(a), str(b), str(c)], store=store) == {}
    # force reprocesses
    again = export_representation_sets([str(a), str(b)], store=store, force=True)
    assert set(again) == {str(a), str(b)}

def test_cli_repr_export(ray_session, tmp_path, capsys):
    from logcrawler_ray.__main__ import main

    d = tmp_path / "logs" / "game_x"
    os.makedirs(d)
    _make_log(d / "combined.log", ["FrameInfo"])
    main(["repr-export", "--root", str(tmp_path / "logs")])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["processed"] == 1
    assert json.load(open(d / "representation.json")) == {
        "cognition_representations": ["FrameInfo"]}


def test_wide_row_tuning_targets():
    from logcrawler_ray.tuning import RAW_IMAGE_ROW_BYTES, wide_row_targets

    t = wide_row_targets(concurrency=32)
    # batch x concurrency x inflight stays under the 2 GiB heap budget
    assert t["batch_size"] * 32 * RAW_IMAGE_ROW_BYTES * 6 <= (2 << 30) * 1.05
    assert t["target_max_block_size"] >= t["batch_size"] * RAW_IMAGE_ROW_BYTES
    # tiny rows -> batch floors at a sane minimum
    assert wide_row_targets(row_bytes=100)["batch_size"] >= 8
