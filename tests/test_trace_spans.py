"""The benchmark's traced CLI rebinds package functions by name; every name
it lists must still exist, and every module it names must be loaded by
importing the CLI, or each traced run fails when it starts."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import knesergeom

TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def traced_spans():
    """The SPANS list of bench/traced_cli.py, read without importing it."""
    for node in ast.parse(TRACED_CLI.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS list in {TRACED_CLI}")


def test_traced_spans_resolve_to_plain_functions():
    spans = traced_spans()
    assert spans
    for module, path in spans:
        obj = importlib.import_module(f"knesergeom.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), (module, path)
            obj = getattr(obj, part)
        assert inspect.isfunction(obj), (module, path)
        assert not inspect.isgeneratorfunction(obj), (module, path)


def test_importing_the_cli_loads_every_traced_module():
    # bench/traced_cli.py imports knesergeom.cli, then reads each module from
    # sys.modules; a module the package loaded lazily would be a KeyError there
    modules = sorted({f"knesergeom.{module}" for module, _ in traced_spans()})
    root = str(Path(knesergeom.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {root!r}); import knesergeom.cli; "
            f"print(*[m for m in {modules!r} if m not in sys.modules])")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []
