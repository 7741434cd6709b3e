"""Frontier: (priority, next_fetch_time, seq) total order, host-hash sharded.

The reference's "frontier" is a sorted for-loop over logs — deterministic
order by construction (reference: 01_input_game_data.py:78-87 sorted
events, 02_combine_logs.py:227-230 sort by log_path, with ``--reverse`` as
manual two-human work sharing, 02:216-219). This module is the real
scheduler that degenerates to exactly that when priorities are equal and
politeness delays are zero: a total order

    (priority asc, next_fetch_time asc, seq asc)

where ``seq`` is the global admission number (assigned at enqueue, unique,
monotone per shard run) — the tie-breaker that makes parallel draining
reproducible.

``FrontierShard`` holds its entries as sorted columnar runs (int64
priority / next_fetch_time / seq / depth, Arrow url / host), so push,
drain and snapshot cost numpy and Arrow kernels, not Python work per URL.
It is shared by the serial reference executor and the engine's
``state/shard.py::ShardGroup``. Draining applies the per-host politeness
budget *in total order*, deferring entries whose host is throttled beyond
the horizon — deterministic because the budget math is a pure function of
drain order (see politeness.py). ``tests/test_frontier_model.py`` keeps the
one-entry-at-a-time heap this replaced as the executable model.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SCHEMA = pa.schema([("priority", pa.int64()), ("next_fetch_time", pa.int64()),
                    ("seq", pa.int64()), ("depth", pa.int64()),
                    ("url", pa.string()), ("host", pa.string())])
_INTS = ("priority", "next_fetch_time", "seq", "depth")
_ORDER = ("priority", "next_fetch_time", "seq")
CHUNK = 256  # least first chunk of a drain's walk (doubles per chunk)
# the rows a drain emits, in total order: SCHEMA with each entry's
# assigned fetch time in place of its next_fetch_time
DRAINED = SCHEMA.set(1, pa.field("fetch_time", pa.int64()))


def _ints(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy()


def _sorted(t: pa.Table) -> pa.Table:
    order = np.lexsort([_ints(t, k) for k in reversed(_ORDER)])
    return t.take(pa.array(order)).combine_chunks()


def _seg_cummax(v: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Running max of ``v`` restarted at each segment; ``seg`` holds
    non-decreasing segment numbers from 0. Each segment is lifted above
    the previous one, so one ``maximum.accumulate`` serves all of them
    unless the lift would overflow int64."""
    n_seg = int(seg[-1]) + 1
    if n_seg == 1:
        return np.maximum.accumulate(v)
    lo = int(v.min())
    span = int(v.max()) - lo + 1
    if span * n_seg < 1 << 62:
        lift = seg.astype(np.int64) * span - lo
        return np.maximum.accumulate(v + lift) - lift
    out = np.empty_like(v)
    cuts = np.flatnonzero(np.diff(seg)) + 1
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(v)]):
        out[a:b] = np.maximum.accumulate(v[a:b])
    return out


def _first_step(max_n: int) -> int:
    """The first chunk of a drain's walk: room for ``max_n`` emissions
    and as many deferrals, so a wave's drain is one pass."""
    return max(CHUNK, 2 * max_n)


def _budget_pass(nft: np.ndarray, host: pa.Array, budget, now: int,
                 limit: int, quota: int):
    """Fetch times for consecutive entries (in total order) against
    ``budget``, which is updated for the entries consumed.

    Per host h with delay d and last slot L, each entry gets
    t = max(now, next_fetch_time, L); it is emitted if t <= ``limit`` and
    then moves L to t + d, else it is deferred to t. Among one host's
    entries that start within the limit, the emitted times follow the
    closed form t_j = j*d + max(L0, max_{i<=j}(c_i - i*d)), a running max
    per host. Stops after ``quota`` emissions.

    Returns (entries consumed, emitted mask, time per consumed entry:
    the fetch time if emitted, the new next_fetch_time if deferred)."""
    n = len(nft)
    c = np.maximum(nft, now)
    enc = pc.dictionary_encode(host)
    codes = enc.indices.to_numpy()
    hosts = enc.dictionary.to_numpy(zero_copy_only=False).tolist()
    base = np.array([budget.next_ok.get(h, 0) for h in hosts], np.int64)
    delay = np.array([budget.delay(h) for h in hosts], np.int64)

    # host segments, total order kept inside each
    order = np.argsort(codes, kind="stable")
    cs = codes[order]
    starts = np.empty(n, bool)
    starts[0] = True
    np.not_equal(cs[1:], cs[:-1], out=starts[1:])
    seg = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    c_s, d_s, l0_s = c[order], delay[cs], base[cs]
    elig = c_s <= limit
    ranks = np.cumsum(elig)
    j = ranks - 1 - (ranks - elig)[first][seg]  # rank among eligible
    t = np.zeros(n, np.int64)
    emit = np.zeros(n, bool)
    if elig.any():
        a = c_s - j * d_s
        a[~elig] = a[elig].min() - 1  # below every real value
        t = j * d_s + np.maximum(l0_s, _seg_cummax(a, seg))
        emit = elig & (t <= limit)
    if not emit.all():
        # deferred entries wait for the host's slot after its last
        # emission before them (or its slot at drain start)
        slot = l0_s
        if emit.any():
            b = np.where(emit, t + d_s, l0_s.min())  # masked by has_prev
            prev = np.empty(n, np.int64)
            prev[1:] = _seg_cummax(b, seg)[:-1]
            n_before = np.cumsum(emit) - emit
            has_prev = (n_before - n_before[first][seg]) > 0
            slot = np.where(has_prev, prev, l0_s)
        t = np.where(emit, t, np.maximum(c_s, slot))

    emit_o = np.empty(n, bool)
    emit_o[order] = emit
    t_o = np.empty(n, np.int64)
    t_o[order] = t
    hit = np.flatnonzero(emit_o)
    used = n if len(hit) < quota else int(hit[quota - 1]) + 1
    hit = hit[:quota]
    if len(hit):
        # last emitted slot per host, written in order of first emission
        # (HostBudget.next_ok keeps the order hosts first committed in)
        hc = codes[hit]
        last = np.zeros(len(hosts), np.int64)
        np.maximum.at(last, hc, t_o[hit])
        _, first_hit = np.unique(hc, return_index=True)
        for k in hc[np.sort(first_hit)].tolist():
            budget.next_ok[hosts[k]] = int(last[k] + delay[k])
    return used, emit_o[:used], t_o[:used]


def _pack_strings(col) -> tuple[bytes, bytes]:
    """A string column as (int32 offsets from 0, UTF-8 bytes): the same
    bytes for the same strings, however the column was sliced or built."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    _, off_buf, data_buf = a.buffers()
    off = np.frombuffer(off_buf, np.int32, len(a) + 1, a.offset * 4)
    data = data_buf[int(off[0]):int(off[-1])].to_pybytes() if len(a) else b""
    return (off - off[0]).tobytes(), data


def _unpack_strings(n: int, packed: tuple[bytes, bytes]) -> pa.Array:
    off, data = packed
    return pa.StringArray.from_buffers(n, pa.py_buffer(off), pa.py_buffer(data))


class FrontierShard:
    def __init__(self, shard_id: int = 0, n_shards: int = 1):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.runs: list[pa.Table] = []  # each sorted in total order
        self.next_seq = shard_id  # interleaved seq spaces: shard_id + k*n_shards

    def push(self, rows: pa.Table) -> None:
        """Enqueue url rows (columns url, host and optionally priority,
        depth, next_fetch_time; missing ints are 0) in admission order:
        assigns their seqs and adds them as one sorted run."""
        n = rows.num_rows
        if not n:
            return
        seq = self.next_seq + self.n_shards * np.arange(n, dtype=np.int64)
        self.next_seq += n * self.n_shards

        def col(name: str, typ=pa.int64()):
            if name in rows.column_names:
                return pc.cast(rows[name], typ)
            return pa.array(np.zeros(n, np.int64))

        run = pa.table([col("priority"), col("next_fetch_time"), pa.array(seq),
                        col("depth"), col("url", pa.string()),
                        col("host", pa.string())], schema=SCHEMA)
        self.runs.append(_sorted(run))

    def __len__(self) -> int:
        return sum(r.num_rows for r in self.runs)

    def _merged(self) -> pa.Table:
        """All entries as one sorted run (kept as the only run)."""
        if len(self.runs) != 1:
            self.runs = [_sorted(pa.concat_tables(self.runs))] if self.runs \
                else [SCHEMA.empty_table()]
        return self.runs[0]

    def drain(self, budget, now: int, max_n: int, horizon: int
              ) -> tuple[pa.Table, int]:
        """Take up to ``max_n`` entries in total order, assigning fetch
        times against ``budget`` (a HostBudget). Entries whose assigned
        time would exceed ``now + horizon`` are re-queued with that time as
        their new ``next_fetch_time`` instead of being emitted.

        Walks the order in chunks. Returns (emitted rows as a ``DRAINED``
        table in total order, new virtual now = max assigned fetch time)."""
        f = self._merged()
        n = f.num_rows
        nft = _ints(f, "next_fetch_time")
        host = f.column("host").chunk(0) if n else None
        pos, quota, step = 0, max_n, _first_step(max_n)
        emit_parts, t_parts = [], []
        while pos < n and quota > 0:
            end = min(n, pos + step)
            used, emit, t = _budget_pass(nft[pos:end], host[pos:end], budget,
                                         now, now + horizon, quota)
            emit_parts.append(emit)
            t_parts.append(t)
            quota -= int(emit.sum())
            pos += used
            step *= 2
        if not pos:
            return DRAINED.empty_table(), now
        # the walk consumed the first ``pos`` entries: emitted or deferred
        emit = np.concatenate(emit_parts)
        t = np.concatenate(t_parts)
        out = f.slice(0, pos)
        self.runs = [f.slice(pos)]
        if not emit.all():
            deferred = out.filter(pa.array(~emit)).set_column(
                1, "next_fetch_time", pa.array(t[~emit]))
            self.runs.append(_sorted(deferred))
            out = out.filter(pa.array(emit))
            t = t[emit]
        new_now = max(now, int(t.max())) if len(t) else now
        return out.set_column(1, DRAINED.field(1), pa.array(t)), new_now

    # -- snapshot ----------------------------------------------------------
    def state(self) -> dict:
        """The entries in total order as flat column bytes: no object per
        entry, and equal frontiers give equal (and equally pickled)
        states."""
        f = self._merged()
        st = {"shard_id": self.shard_id, "n_shards": self.n_shards,
              "next_seq": self.next_seq, "n": f.num_rows}
        for k in _INTS:
            st[k] = _ints(f, k).tobytes()
        for k in ("url", "host"):
            st[k] = _pack_strings(f.column(k))
        return st

    @classmethod
    def from_state(cls, st: dict) -> "FrontierShard":
        obj = cls(st["shard_id"], st["n_shards"])
        obj.next_seq = st["next_seq"]
        n = st["n"]
        if n:
            cols = [pa.array(np.frombuffer(st[k], np.int64)) for k in _INTS]
            cols += [_unpack_strings(n, st[k]) for k in ("url", "host")]
            obj.runs = [pa.Table.from_arrays(cols, schema=SCHEMA)]
        return obj
