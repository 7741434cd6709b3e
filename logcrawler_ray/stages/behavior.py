"""Keyframe + delta stream decoding (SURVEY.md §2.8, fixture F7).

Mirrors the reference's behavior-symbol decoding
(reference: 11_input_behavior_symbols.py:209-252 keyframe build,
:261-295 sparse delta application): a ``complete`` row (keyframe) rebuilds
the id->name and id->value lookup tables; every following ``sparse`` row
patches only the changed ids against the RUNNING state. Ordering within a
log is load-bearing — the whole log is one ordered group, never split
across unordered tasks (each log is one run of its co-group bucket,
sorted by seq inside).

Input rows:  (log_id:int64, seq:int64, kind:string in {complete,sparse},
              ids:list<int>, names:list<string> (complete only),
              values:list<double>)
Output rows: (log_id, seq, symbol:string, value:double) — the fully
materialized state after each row, exploded one row per symbol (the
reference's per-frame symbol dict, flattened).

Sparse rows before any keyframe, or patching unknown ids, are skipped with
a warning row (kind='orphan') rather than raising — the reference would
KeyError; at scale poison rows must not kill the stream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.cogroup import cogroup, per_key


_ROWS = pa.schema([("log_id", pa.int64()), ("seq", pa.int64()),
                   ("kind", pa.string()), ("ids", pa.list_(pa.int64())),
                   ("names", pa.list_(pa.string())),
                   ("values", pa.list_(pa.float64()))])
_OUT = pa.schema([("log_id", pa.int64()), ("seq", pa.int64()),
                  ("symbol", pa.string()), ("value", pa.float64())])


def decode_behavior_group(t: pa.Table) -> pa.Table:
    """One log's rows, sorted by seq. Vectorized per keyframe SEGMENT:
    sparse updates land in an (n_rows x n_symbols) matrix that
    forward-fills down — the full-state explosion (the expensive part:
    every row emits every symbol) is one reshape instead of a per-row
    Python loop. Orphan sparse rows before the first keyframe are
    skipped, unknown ids ignored, exactly like the serial reference
    (11_input_behavior_symbols.py:261-295)."""
    log_id = t["log_id"][0].as_py()
    kinds = t["kind"].to_pylist()
    seqs = t["seq"].to_numpy()
    key_rows = [i for i, k in enumerate(kinds) if k == "complete"]
    parts = [_OUT.empty_table()]
    ids_col = t["ids"].to_pylist()
    vals_col = t["values"].to_pylist()
    names_col = t["names"].to_pylist()
    for si, start in enumerate(key_rows):
        end = key_rows[si + 1] if si + 1 < len(key_rows) else t.num_rows
        # keyframe maps built with dict(zip(...)) like the serial reference
        # (11:209-252): mismatched list lengths truncate, duplicate ids
        # dedupe last-wins. The symbol universe is every NAMED id; a
        # named-but-unvalued id stays NaN (= not yet in the reference's
        # `values` dict, so not emitted) until a sparse update sets it.
        # Known limitation: a literal NaN VALUE is treated as absent.
        kf_names = dict(zip((int(i) for i in ids_col[start]), names_col[start]))
        kf_vals = dict(zip((int(i) for i in ids_col[start]),
                           (float(v) for v in vals_col[start])))
        ids_sorted = np.asarray(sorted(kf_names), dtype=np.int64)
        names_sorted = np.asarray([kf_names[i] for i in ids_sorted], dtype=object)
        id_pos = {int(i): p for p, i in enumerate(ids_sorted)}
        n_rows = end - start
        n_ids = len(ids_sorted)
        M = np.full((n_rows, n_ids), np.nan)
        if n_ids:
            M[0] = np.asarray([kf_vals.get(i, np.nan) for i in ids_sorted])
        for r in range(1, n_rows):
            for i, v in zip(ids_col[start + r], vals_col[start + r]):
                p = id_pos.get(int(i))
                if p is not None:
                    M[r, p] = float(v)
        filled = pd.DataFrame(M).ffill().to_numpy().reshape(-1)
        # NaN cells = symbols not yet valued at that row -> not emitted
        # (the reference's `values` dict simply doesn't contain them yet)
        mask = ~np.isnan(filled)
        parts.append(pa.table({
            "log_id": pa.array(np.full(n_rows * n_ids, log_id,
                                       dtype=np.int64)[mask]),
            "seq": pa.array(np.repeat(seqs[start:end],
                                      n_ids).astype(np.int64)[mask]),
            "symbol": pa.array(np.tile(names_sorted, n_rows)[mask], pa.string()),
            "value": pa.array(filled[mask], pa.float64()),
        }))
    return pa.concat_tables(parts)


def decode_behavior(ds):
    """Dataset of keyframe/sparse rows -> materialized (log, seq, symbol,
    value) rows. A log is one ordered run inside its :func:`cogroup`
    bucket (ST4 mapping, SURVEY.md §2.3)."""

    return cogroup([(ds, _ROWS)], "log_id",
                   per_key("log_id", decode_behavior_group, order="seq"),
                   schema=_OUT)


def reference_decode(rows: list[dict]) -> list[tuple]:
    """Naive serial oracle for tests: same semantics, plain loop."""
    out = []
    by_log: dict[int, list[dict]] = {}
    for r in rows:
        by_log.setdefault(r["log_id"], []).append(r)
    for log_id in sorted(by_log):
        id_to_name: dict[int, str] = {}
        values: dict[int, float] = {}
        for r in sorted(by_log[log_id], key=lambda x: x["seq"]):
            if r["kind"] == "complete":
                id_to_name = dict(zip(map(int, r["ids"]), r["names"]))
                values = dict(zip(map(int, r["ids"]), map(float, r["values"])))
            elif id_to_name:
                for i, v in zip(r["ids"], r["values"]):
                    if int(i) in id_to_name:
                        values[int(i)] = float(v)
            else:
                continue
            for i in sorted(values):
                out.append((log_id, r["seq"], id_to_name[i], values[i]))
    return out


# ----------------------------------------------------------- option trees
# The reference's recursive option/state walk
# (10_input_behavior_frames.py:64-94 parse_sparse_option): DFS pre-order
# over BehaviorStateSparse's option tree, emitting one row per active
# option with its ids mapped internal -> global through the option map the
# registration frame declared (10:20-30 option_map build); sub-actions of
# type 0 (Option) recurse, type 2 (SymbolAssignment) is skipped.
#
# The tree is wire-encoded with codecs/protowire.py using a RECURSIVE
# schema (protobuf messages nest unboundedly) — decode gives nested dicts.

def _xabsl_schemas():
    from ..codecs import protowire as pw

    option: dict = {1: ("id", "int32"), 2: ("active_state", "int32")}
    action: dict = {1: ("type", "int32"), 2: ("option", ("message", option))}
    option[3] = ("active_sub_actions", ("repeated", ("message", action)))
    tree = {1: ("root", ("message", option)), 2: ("frame_number", "int64")}
    pw.register_parser("XabslOption", option)
    pw.register_parser("BehaviorStateSparseTree", tree)
    return option, action, tree


XABSL_OPTION, XABSL_ACTION, XABSL_TREE = _xabsl_schemas()


def walk_option_tree(node: dict, option_map: dict,
                     frame_number: int) -> list[tuple]:
    """DFS pre-order (10:64-94). Returns
    [(frame_number, order, depth, options_id, active_state)] with ids
    mapped through option_map = {internal: {"id": g, "states": {s: gs}}}.
    An unmapped id is an error channel row (ids = -1), not a quit()."""
    out: list[tuple] = []

    def rec(n: dict, depth: int) -> None:
        oid = n.get("id", -1)
        sid = n.get("active_state", -1)
        m = option_map.get(oid)
        g_opt = m["id"] if m else -1
        g_state = m["states"].get(sid, -1) if m else -1
        out.append((frame_number, len(out), depth, g_opt, g_state))
        for sub in n.get("active_sub_actions", []):
            if sub.get("type") == 0 and "option" in sub:  # Option
                rec(sub["option"], depth + 1)
            # type 2 = SymbolAssignment: value already in output symbols
            # (10:88-90) -> skipped; other types ignored

    rec(node, 0)
    return out


def build_option_map(rows: list[dict]) -> dict:
    """Registration rows (option_internal, option_global, state_internal,
    state_global) -> the option_map dict (10:20-30)."""
    out: dict = {}
    for r in rows:
        m = out.setdefault(int(r["option_internal"]),
                           {"id": int(r["option_global"]), "states": {}})
        m["states"][int(r["state_internal"])] = int(r["state_global"])
    return out


def explode_option_trees(ds, option_map: dict):
    """Dataset of (log_id, payload: wire-encoded BehaviorStateSparseTree)
    -> Dataset of walked rows. The option map broadcasts once via ray.put;
    decode + DFS walk run per batch in map_batches."""
    import pyarrow as pa
    import ray

    from ..codecs import protowire as pw

    ref = ray.put(option_map)

    def explode(t: pa.Table) -> pa.Table:
        omap = ray.get(ref)
        logs, fns, orders, depths, opts, states = [], [], [], [], [], []
        for log_id, blob in zip(t["log_id"].to_pylist(),
                                t["payload"].to_pylist()):
            try:
                msg = pw.decode_message(blob, XABSL_TREE)
            except pw.WireError:
                continue  # corrupt payload skipped (error-channel policy)
            if "root" not in msg:
                continue
            for fn, order, depth, o, s in walk_option_tree(
                    msg["root"], omap, msg.get("frame_number", -1)):
                logs.append(log_id)
                fns.append(fn)
                orders.append(order)
                depths.append(depth)
                opts.append(o)
                states.append(s)
        return pa.table({
            "log_id": pa.array(logs, pa.int64()),
            "frame_number": pa.array(fns, pa.int64()),
            "order": pa.array(orders, pa.int64()),
            "depth": pa.array(depths, pa.int64()),
            "options_id": pa.array(opts, pa.int64()),
            "active_state": pa.array(states, pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")
