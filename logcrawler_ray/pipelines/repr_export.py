"""Per-log representation-set JSON export (round-1 missing #4).

Mirrors 03_representation_exporter.py:58-115: for every log folder,
compute the distinct representation-name sets of its cognition log
(combined.log if present, else game.log) and its motion log (sensor.log),
write ``representation.json`` next to the log, and record the same dict in
a manifest "DB field" — here a store partition meta entry, the
engine's database analog. ``is_done`` = the json file already exists
(03:75-77), unless force.

The representation-set scans run distributed (one scan task per log file,
sources/naoth.py); only the (folder, kind, name) distinct rows return to
the driver, which writes the small JSON artifacts.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa


def _set_from_log(path: str) -> bool:
    """03:51-55: parse only existing, non-empty files."""
    return os.path.isfile(path) and os.stat(path).st_size > 0


def export_representation_sets(log_folders: list[str], *, store=None,
                               force: bool = False) -> dict[str, dict]:
    """Returns {folder: representation_dict} for folders processed this run
    (skipped-as-done folders excluded, like the reference's early continue).

    When ``store`` (an ``open_store`` store) is given, each folder's dict is also
    committed as partition meta ``repr-<basename>`` — the client.logs.update
    representation_list analog (03:108-115)."""
    import ray.data as rd

    from ..sources.naoth import INDEX_SCHEMA, scan_records

    todo: list[tuple[str, str, str]] = []  # (folder, kind, file path)
    for folder in sorted(log_folders):
        if not force and os.path.exists(os.path.join(folder, "representation.json")):
            continue  # is_done (03:75-77)
        combined = os.path.join(folder, "combined.log")
        game = os.path.join(folder, "game.log")
        cog = combined if os.path.isfile(combined) else game
        if _set_from_log(cog):
            todo.append((folder, "cognition", cog))
        sensor = os.path.join(folder, "sensor.log")
        if _set_from_log(sensor):
            todo.append((folder, "motion", sensor))

    if not todo:
        return {}

    def scan(t: pa.Table) -> pa.Table:
        folders, kinds, names = [], [], []
        for folder, kind, path in zip(t["folder"].to_pylist(),
                                      t["kind"].to_pylist(),
                                      t["path"].to_pylist()):
            with open(path, "rb") as f:
                idx = scan_records(f.read())
            for n in set(idx["name"].to_pylist()):
                folders.append(folder)
                kinds.append(kind)
                names.append(n)
        return pa.table({"folder": pa.array(folders, pa.string()),
                         "kind": pa.array(kinds, pa.string()),
                         "name": pa.array(names, pa.string())})

    rows = (rd.from_items([{"folder": f, "kind": k, "path": p}
                           for f, k, p in todo])
            .map_batches(scan, batch_format="pyarrow")
            .to_pandas())

    out: dict[str, dict] = {}
    for folder in sorted({f for f, _, _ in todo}):
        sub = rows[rows["folder"] == folder]
        cog = sorted(sub[sub["kind"] == "cognition"]["name"])
        mot = sorted(sub[sub["kind"] == "motion"]["name"])
        if not cog:  # 03:97-99: no cognition set -> no artifact
            continue
        d: dict = {"cognition_representations": cog}
        if mot:
            d["motion_representations"] = mot
        path = os.path.join(folder, "representation.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(d, f, ensure_ascii=False, indent=4)
        os.replace(tmp, path)
        out[folder] = d
        if store is not None:
            store.append_table(
                f"repr-{os.path.basename(folder)}",
                pa.table({"folder": pa.array([folder], pa.string())}),
                meta={"representation_list": d})
    return out
