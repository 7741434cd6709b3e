"""CLI surface tests (in-process main(); the CLI guards its own ray.init
so running under the session fixture is a no-op init)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from logcrawler_ray.__main__ import main
from logcrawler_ray.sources.corpus import corpus_table


def test_cli_crawl_and_resume_and_report(ray_session, tmp_path, capsys):
    store, ckpt = str(tmp_path / "s"), str(tmp_path / "c")
    rc = main(["crawl", "--store", store, "--ckpt", ckpt, "--seeds", "8",
               "--hosts", "4", "--waves", "2", "--wave-size", "32"])
    assert rc == 0
    m1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m1["fetched"] > 0

    rc = main(["crawl", "--store", store, "--ckpt", ckpt, "--resume",
               "--hosts", "4", "--waves", "2", "--wave-size", "32"])
    assert rc == 0
    m2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m2["seen"] >= m1["seen"]

    rc = main(["report", "--store", store])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["total_rows"] > 0
    assert any(p["meta"].get("wave") == 0 for p in rep["partitions"])


def test_cli_reverse_changes_order(ray_session, tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["crawl", "--store", a + "/s", "--ckpt", a + "/c", "--seeds", "8",
          "--hosts", "4", "--waves", "1", "--wave-size", "16"])
    capsys.readouterr()
    main(["crawl", "--store", b + "/s", "--ckpt", b + "/c", "--seeds", "8",
          "--hosts", "4", "--waves", "1", "--wave-size", "16", "--reverse"])
    capsys.readouterr()
    from logcrawler_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    la = CrawlEngine(CrawlConfig(), a + "/s", a + "/c").fetch_log()
    lb = CrawlEngine(CrawlConfig(), b + "/s", b + "/c").fetch_log()
    assert [u for _, _, u, _ in la] != [u for _, _, u, _ in lb]
    assert {u for _, _, u, _ in la} == {u for _, _, u, _ in lb}  # same wave set


def test_cli_ingest_and_stats(ray_session, tmp_path, capsys):
    tab = corpus_table(40, seed=11)
    inp = tmp_path / "in"
    inp.mkdir()
    for i in range(2):
        pq.write_table(tab.slice(i * 20, 20), str(inp / f"f{i}.parquet"))
    store = str(tmp_path / "store")
    rc = main(["ingest", "--input", str(inp / "*.parquet"), "--store", store,
               "--shards-of", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["pid"] == "ingest" and out["rows"] > 0
    # kill-and-rerun contract: a second run over the same store finds every
    # group committed, prints the same rows and rewrites no manifest
    mtimes = {p: os.path.getmtime(os.path.join(store, "_manifests", p))
              for p in os.listdir(os.path.join(store, "_manifests"))}
    rc = main(["ingest", "--input", str(inp / "*.parquet"), "--store", store,
               "--shards-of", "1"])
    assert rc == 0
    again = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert again["rows"] == out["rows"]
    assert {p: os.path.getmtime(os.path.join(store, "_manifests", p))
            for p in os.listdir(os.path.join(store, "_manifests"))} == mtimes
    rc = main(["report", "--store", store])
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["total_rows"] > 0


def test_cli_ingest_missing_input(ray_session, tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope*.parquet"),
               "--store", str(tmp_path / "s")])
    assert rc == 2


def test_cli_dump_frame(tmp_path, capsys):
    """dump-frame (log_debugger analog): frame filter, name filter, proto
    parsing with the corrupt-payload error channel. No Ray session."""
    from logcrawler_ray.codecs import protowire as pw
    from logcrawler_ray.sources.naoth import write_records

    fi = pw.encode_message({"frame_number": 7, "frame_time": 1234},
                           pw.FRAMEINFO)
    frames = [(7, [("FrameInfo", fi), ("Mystery", b"\xff\xfe")]),
              (8, [("FrameInfo", fi)])]
    log = tmp_path / "game.log"
    log.write_bytes(write_records(frames))

    rc = main(["dump-frame", str(log), "--frame", "7", "--parse"])
    assert rc == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert [x["name"] for x in lines] == ["FrameInfo", "Mystery"]
    assert lines[0]["fields"]["frame_number"] == 7
    assert "parse_error" in lines[1] or "fields" not in lines[1]

    rc = main(["dump-frame", str(log), "--name", "FrameInfo"])
    assert rc == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert [x["frame"] for x in lines] == [7, 8]

    rc = main(["dump-frame", str(log), "--frame", "99"])
    assert rc == 2


def test_cli_compact_and_gc(ray_session, tmp_path, capsys):
    """compact merges a crawl wave's fragments; gc on a plain-path root and
    on a local:// URL root reports reclaimed objects (0 when clean)."""
    store, ckpt = str(tmp_path / "s"), str(tmp_path / "c")
    main(["crawl", "--store", store, "--ckpt", ckpt, "--seeds", "8",
          "--hosts", "4", "--waves", "2", "--wave-size", "32"])
    capsys.readouterr()
    from logcrawler_ray.sources.objstore import open_store

    st = open_store(store)
    wave = [p for p in st.partitions() if p.startswith("wave-")][0]
    rows_before = st.rows(wave)
    rc = main(["compact", "--store", store, "--pid", wave,
               "--target-rows", "1000"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["fragments"] == 1 and out["rows"] == rows_before
    rc = main(["gc", "--store", store])
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["removed"] == 0
    # URL root: gc walks partitions (clean store -> 0 removed)
    obj = f"local://{tmp_path}/obj"
    ost = open_store(obj)
    ost.append_table("p", pq.read_table(st.files(wave)[0]))
    rc = main(["gc", "--store", obj])
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["removed"] == 0
