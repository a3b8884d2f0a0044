"""The benchmark's traced CLI rebinds package functions by name; every name
it lists must still exist, or each traced run fails when it starts."""

import ast
import importlib
import inspect
from pathlib import Path

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
