"""The package's modules import one another without a cycle, counting the
relative imports inside function bodies too, and importing the CLI loads
none of the standard modules that cost a process most of its start-up."""

import ast
import subprocess
import sys
from pathlib import Path

import knesergeom

PACKAGE = Path(knesergeom.__file__).resolve().parent


def import_graph():
    """Module name -> the package modules it imports with `from .x import`
    or `from . import x`, at any depth of its syntax tree."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(a.name for a in node.names if a.name in modules)
        graph[name] = targets & modules.keys()
    return graph


def find_cycle(graph):
    """Some cycle of the directed graph as a list of nodes, or None."""
    state = {}  # node -> "open" while on the DFS path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt, path + [nxt])):
                return cycle
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node, [node])):
            return cycle
    return None


def test_find_cycle_sees_a_back_edge():
    assert find_cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert "kneser" in graph["kneser_geometry"]  # the parse sees the imports
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_cli_import_loads_no_costly_modules():
    # -S skips site, whose .pth hooks may import typing on their own
    costly = ("dataclasses", "inspect", "typing", "hashlib")
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import knesergeom.cli; "
            f"print(*[m for m in {costly!r} if m in sys.modules])")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []
