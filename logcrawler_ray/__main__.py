"""CLI entry points — the reference's per-script flag surface (SURVEY.md
§2.9: ``--force`` recompute, ``--reverse`` traversal order,
02_combine_logs.py:216-219) re-expressed as one command:

  python -m logcrawler_ray crawl  --store DIR --ckpt DIR [--seeds N]
         [--resume] [--force] [--reverse] [--waves N] [--wave-size N] ...
  python -m logcrawler_ray ingest --input GLOB --store DIR [--pid P]
         [--force] [--shards-of N]   # N input files per resumable group
  python -m logcrawler_ray stats  --store DIR --pid P [--force]
  python -m logcrawler_ray report --store DIR
  python -m logcrawler_ray compact --store DIR --pid P [--target-rows N]
  python -m logcrawler_ray gc      --store DIR [--grace S]

``--store`` accepts a plain path or an fsspec URL (``s3://…``); both
open the same store via open_store.

The CLI owns its Ray session (guarded init; the driver contract in
__ray_entry__.py never goes through here).
"""

from __future__ import annotations

import argparse
import glob
import json
import shutil
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_crawl(args) -> int:
    from .pipelines.crawl import CrawlConfig, CrawlEngine

    _ray_session()
    if args.force:
        shutil.rmtree(args.store, ignore_errors=True)
        shutil.rmtree(args.ckpt, ignore_errors=True)
    cfg = CrawlConfig(seed=args.seed, n_hosts=args.hosts, n_shards=args.shards,
                      wave_size=args.wave_size, max_waves=args.waves,
                      max_depth=args.depth,
                      priority_mode="reverse" if args.reverse else "hash")
    eng = CrawlEngine(cfg, args.store, args.ckpt)
    seeds = None if args.resume else cfg.web().seed_urls(args.seeds)
    metrics = eng.run(seeds=seeds)
    print(json.dumps(metrics))
    return 0


def cmd_ingest(args) -> int:
    from .pipelines.ingest import ingest
    from .sources.objstore import open_store

    _ray_session()
    files = sorted(glob.glob(args.input))
    if not files:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2
    store = open_store(args.store)
    if args.force:
        if "://" in args.store:
            for p in store.partitions():
                store.drop_partition(p, force=True)
        else:
            shutil.rmtree(args.store, ignore_errors=True)
            store = open_store(args.store)
    # memory-aware sizing from the actual input row width (tuning.py):
    # block/batch targets so batch x concurrency fits a worker heap
    import pyarrow.parquet as pq

    from .tuning import apply_wide_row_context

    # aggregate width over a metadata sample (footers only); empty input
    # files contribute nothing — a lone empty first file must not yield a
    # tiny row_bytes and an OOM-sized batch
    tot_bytes = tot_rows = 0
    for f in files[:16]:
        meta = pq.read_metadata(f)
        tot_rows += meta.num_rows
        tot_bytes += sum(meta.row_group(i).total_byte_size
                         for i in range(meta.num_row_groups))
    from .tuning import RAW_IMAGE_ROW_BYTES

    row_bytes = tot_bytes // tot_rows if tot_rows else RAW_IMAGE_ROW_BYTES
    import os as _os

    t = apply_wide_row_context(row_bytes=max(1, row_bytes),
                               concurrency=_os.cpu_count() or 8)
    ingest(files, store, args.pid, files_per_group=args.shards_of,
           batch_size=t["batch_size"])
    print(json.dumps({"pid": args.pid, "rows": store.rows(args.pid),
                      "partitions": store.partitions()}))
    return 0


def cmd_stats(args) -> int:
    from .pipelines.update import update_image_stats
    from .sources.objstore import open_store

    _ray_session()
    store = open_store(args.store)
    n = update_image_stats(store, args.pid, force=args.force)
    print(json.dumps({"updated": n}))
    return 0


def cmd_report(args) -> int:
    from .sources.objstore import open_store

    store = open_store(args.store)
    out = []
    for pid in store.partitions():
        m = store.manifest(pid)
        out.append({"pid": pid, "rows": m["rows"], "view": bool(m.get("view")),
                    "meta": m.get("meta", {})})
    print(json.dumps({"partitions": out, "total_rows": store.rows()}))
    return 0


def cmd_compact(args) -> int:
    from .sources.objstore import open_store

    store = open_store(args.store)
    n = store.compact_partition(args.pid, target_rows=args.target_rows)
    print(json.dumps({"pid": args.pid, "fragments": n,
                      "rows": store.rows(args.pid)}))
    return 0


def cmd_gc(args) -> int:
    from .sources.objstore import open_store

    store = open_store(args.store)
    per = {p: store.gc(p, grace_s=args.grace) for p in store.partitions()}
    print(json.dumps({"removed": sum(per.values()),
                      "per_pid": {k: v for k, v in per.items() if v}}))
    return 0


def cmd_repr_export(args) -> int:
    import os

    from .pipelines.repr_export import export_representation_sets
    from .sources.objstore import open_store

    folders = sorted(
        os.path.join(args.root, d) for d in os.listdir(args.root)
        if os.path.isdir(os.path.join(args.root, d)))
    if args.reverse:  # the reference's --reverse traversal (03:70)
        folders = folders[::-1]
    store = open_store(args.store) if args.store else None
    done = export_representation_sets(folders, store=store, force=args.force)
    print(json.dumps({"processed": len(done), "folders": sorted(done)}))
    return 0


def cmd_dump_frame(args) -> int:
    """Interactive log inspection (scripts/log_debugger.py:177-178 analog):
    dump one frame's representations — name, offset, size, and the parsed
    proto fields where the registry knows the schema. Pure local reads via
    the lazy payload-by-offset path (sources/naoth.py::payload); no Ray
    session."""
    from .codecs.protowire import WireError, parse
    from .sources.naoth import payload, scan_records

    with open(args.log, "rb") as f:
        data = f.read()
    idx = scan_records(data)
    if args.frame is not None:
        import pyarrow.compute as pc

        idx = idx.filter(pc.equal(idx["frame_number"], args.frame))
    if idx.num_rows == 0:
        print(f"no records for frame {args.frame}", file=sys.stderr)
        return 2
    for row in idx.to_pylist():
        if args.name and row["name"] != args.name:
            continue
        out = {"frame": row["frame_number"], "name": row["name"],
               "offset": row["offset"], "size": row["size"]}
        if args.parse:
            blob = payload(data, row["offset"], row["size"])
            try:
                out["fields"] = parse(row["name"], blob)
            except (WireError, KeyError) as e:
                out["parse_error"] = str(e)
        print(json.dumps(out, default=repr))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="logcrawler_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run the frontier crawl on the synthetic web")
    c.add_argument("--store", required=True)
    c.add_argument("--ckpt", required=True)
    c.add_argument("--seeds", type=int, default=64)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--hosts", type=int, default=12)
    c.add_argument("--shards", type=int, default=4)
    c.add_argument("--waves", type=int, default=8)
    c.add_argument("--wave-size", type=int, default=256)
    c.add_argument("--depth", type=int, default=4)
    c.add_argument("--resume", action="store_true",
                   help="resume from the latest checkpoint instead of seeding")
    c.add_argument("--force", action="store_true",
                   help="wipe store+checkpoints first (the reference's --force)")
    c.add_argument("--reverse", action="store_true",
                   help="invert priorities (the reference's --reverse)")
    c.set_defaults(fn=cmd_crawl)

    i = sub.add_parser("ingest", help="decode+dedup a parquet corpus into the store")
    i.add_argument("--input", required=True, help="glob of input parquet files")
    i.add_argument("--store", required=True)
    i.add_argument("--pid", default="ingest")
    i.add_argument("--shards-of", type=int, default=8, help="input files per resumable group")
    i.add_argument("--force", action="store_true")
    i.set_defaults(fn=cmd_ingest)

    s = sub.add_parser("stats", help="recompute stats columns for a partition")
    s.add_argument("--store", required=True)
    s.add_argument("--pid", required=True)
    s.add_argument("--force", action="store_true")
    s.set_defaults(fn=cmd_stats)

    r = sub.add_parser("report", help="partition/lineage report from manifests")
    r.add_argument("--store", required=True)
    r.set_defaults(fn=cmd_report)

    k = sub.add_parser("compact", help="merge small fragments of a partition")
    k.add_argument("--store", required=True)
    k.add_argument("--pid", required=True)
    k.add_argument("--target-rows", type=int, default=100_000)
    k.set_defaults(fn=cmd_compact)

    g = sub.add_parser("gc", help="reclaim data objects no manifest references")
    g.add_argument("--store", required=True)
    g.add_argument("--grace", type=float, default=3600.0,
                   help="only reclaim objects older than this many seconds "
                        "(an external sweep must not race an in-flight "
                        "writer's staged objects); 0 = single-writer mode")
    g.set_defaults(fn=cmd_gc)

    e = sub.add_parser("repr-export",
                       help="write per-log representation.json artifacts "
                            "(03_representation_exporter analog)")
    e.add_argument("--root", required=True, help="directory of log folders")
    e.add_argument("--store", default=None,
                   help="optional store for the DB-field manifest meta")
    e.add_argument("--force", action="store_true")
    e.add_argument("--reverse", action="store_true")
    e.set_defaults(fn=cmd_repr_export)

    d = sub.add_parser("dump-frame",
                       help="dump one frame's representations from a binary "
                            "log (log_debugger analog)")
    d.add_argument("log", help="path to the binary log file")
    d.add_argument("--frame", type=int, default=None,
                   help="frame number (default: all frames)")
    d.add_argument("--name", default=None,
                   help="only this representation name")
    d.add_argument("--parse", action="store_true",
                   help="decode protobuf payloads where the schema is known")
    d.set_defaults(fn=cmd_dump_frame)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
