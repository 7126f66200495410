"""The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
by name.  Every name it watches must resolve in ``mlscert``, or a traced
benchmark run breaks; this test reads the list without importing the
benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _watched() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WATCHED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WATCHED tuple in {TRACER}")


@pytest.mark.parametrize("layer,attr", _watched())
def test_watched_name_resolves(layer, attr):
    obj = importlib.import_module(f"mlscert.{layer}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
