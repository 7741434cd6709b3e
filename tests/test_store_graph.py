"""Only ``sources/objstore.py`` knows the store's view and supersedes
graph: a source scan fails on any other module that fetches every
manifest (``_all_manifests``) or subscripts a manifest's ``"view"`` or
``"supersedes"``; the graph walks other modules need are store methods
(``drop_partitions``), tested here."""

import ast
import pathlib
import uuid

import pyarrow as pa

from logcrawler_ray.sources.objstore import ObjectStore
from logcrawler_ray.state.checkpoint import CheckpointDir

PKG = pathlib.Path(__file__).resolve().parents[1] / "logcrawler_ray"
GRAPH_KEYS = {"view", "supersedes"}


def _graph_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_all_manifests":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.slice, ast.Constant)
              and node.slice.value in GRAPH_KEYS):
            lines.append(node.lineno)
    return lines


def test_only_the_store_reads_the_view_graph():
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        if path.relative_to(PKG).as_posix() == "sources/objstore.py":
            continue
        bad += [f"{path.relative_to(PKG)}:{n}"
                for n in _graph_reads(ast.parse(path.read_text()))]
    assert not bad, bad


def test_guard_sees_graph_reads():
    src = ("ms = store._all_manifests()\n"
           "b = m['view']['base']\n"
           "s = m['supersedes']\n"
           "ok = m['files']\n")
    assert sorted(_graph_reads(ast.parse(src))) == [1, 2, 3]


def _t(ids):
    return pa.table({"image_id": ids, "v": list(range(len(ids)))})


def test_drop_partitions_takes_dependents_first(tmp_path, monkeypatch):
    for st in (ObjectStore(f"memory://graph-{uuid.uuid4().hex}"),
               ObjectStore(str(tmp_path / f"loc-{uuid.uuid4().hex}"))):
        st.append_table("wave-1", _t(["a", "b", "c"]))
        st.commit_delete_view("v1", "wave-1", ["a"], key_col="image_id")
        st.commit_delete_view("v2", "v1", ["b"], key_col="image_id")
        # m materializes a view over wave-1: it supersedes wave-1
        st.commit_delete_view("m", "wave-1", [], key_col="image_id")
        st.merge_insert("m", _t(["z"]), key="image_id")
        st.append_table("keep", _t(["k"]))
        order = []
        drop = st.drop_partition

        def recording(pid, **kw):
            assert kw == {"force": True}
            order.append(pid)
            drop(pid, **kw)

        monkeypatch.setattr(st, "drop_partition", recording)
        st.drop_partitions(["wave-1"])
        monkeypatch.undo()
        assert st.partitions() == ["keep"]
        assert sorted(order) == ["m", "v1", "v2", "wave-1"]
        assert order.index("v2") < order.index("v1") < order.index("wave-1")
        assert order.index("m") < order.index("wave-1")
        assert st.read_table()["image_id"].to_pylist() == ["k"]
        st.drop_partitions(["absent"])  # a pid with no manifest is a no-op
        assert st.partitions() == ["keep"]


def test_checkpoint_clear_removes_every_checkpoint(tmp_path):
    ck = CheckpointDir(str(tmp_path / "c"))
    for w in range(5):
        ck.save(w, {"w": w})
    (tmp_path / "c" / "other.txt").write_text("x")
    ck.clear()
    assert ck.latest() is None
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["other.txt"]
