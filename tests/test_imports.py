"""The package's modules import one another without a cycle, counting the
relative imports inside function bodies too, importing the CLI loads none
of the standard modules that cost a process most of its start-up, no
command loads argparse or json, and the commands that print a digest never
load hashlib or OpenSSL."""

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
    costly = ("dataclasses", "inspect", "typing", "hashlib", "argparse", "json")
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import knesergeom.cli; "
            f"print(*[m for m in {costly!r} if m in sys.modules])")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_digests_load_no_openssl(tmp_path):
    # graph_digest takes sha256 from the built-in module, _sha2 from Python
    # 3.12 on and _sha256 before; hashlib would load _hashlib and libcrypto,
    # about 3.6 MB of resident memory
    g6, x6 = tmp_path / "g.g6", tmp_path / "x.g6"
    runs = [
        ["verify", "--all", "--n", "6", "--k", "2", "--r", "3", "--out", str(tmp_path / "v")],
        ["build", "--format", "graph6", "--n", "5", "--k", "2", "--r", "4", "--out", str(g6)],
        ["build", "--format", "graph6", "--n", "5", "--k", "2", "--r", "3", "--out", str(x6)],
        ["locally-x", str(g6), str(x6), "--out", str(tmp_path / "l")],
    ]
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import knesergeom.cli; "
            f"print(*[knesergeom.cli.main(a) for a in {runs!r}]); "
            f"print(*[m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    codes, loaded = res.stdout.split("\n")[:2]
    assert codes.split() == ["1", "0", "0", "0"]  # ip2 fails at n > 2k+1
    assert loaded.split() == []
    assert '"reference":' in (tmp_path / "l").read_text()


def test_commands_load_no_argparse_and_graph6_exports_no_json(tmp_path):
    # argparse costs a process about 0.35 MB and json about 0.15 MB; no
    # command loads either, the JSON outputs (build --format json, verify,
    # locally-x) included, as cli._dump lays JSON out itself
    g6, x6 = tmp_path / "g.g6", tmp_path / "x.g6"
    runs = [
        ["--version"],
        ["--help"],
        ["build", "--format", "graph6", "--n", "5", "--k", "2", "--r", "4", "--out", str(g6)],
        ["build", "--format", "graph6", "--n", "5", "--k", "2", "--r", "3", "--out", str(x6)],
        ["build", "--format", "dot", "--n", "5", "--k", "2", "--r", "3", "--out", str(tmp_path / "d")],
        ["build", "--n", "5", "--k", "2", "--r", "3", "--out", str(tmp_path / "b")],
        ["verify", "--all", "--n", "5", "--k", "2", "--r", "3", "--out", str(tmp_path / "v")],
        ["locally-x", str(g6), str(x6), "--out", str(tmp_path / "l")],
    ]
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); from knesergeom import cli; "
            f"print([(cli.main(a), *[m for m in ('argparse', 'json') if m in sys.modules]) "
            f"for a in {runs!r}])")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == repr([(0,)] * len(runs))
    assert '"reference":' in (tmp_path / "l").read_text()
