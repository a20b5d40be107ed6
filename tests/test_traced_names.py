"""The benchmark traces planecurves functions by name: every name must resolve.

perfbench/run.py is read with ast, never imported, so this test needs
nothing the benchmark needs.  A renamed or deleted function would otherwise
surface only as a KeyError in `perfbench/run.py --trace 1`.
"""

import ast
import importlib
import pathlib

import pytest

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _layer_names():
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_NAMES")


@pytest.mark.parametrize("name", _layer_names())
def test_traced_name_resolves(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"planecurves.{module_name}")
    fn = module
    for attr in path:
        fn = getattr(fn, attr)
    assert callable(fn)
    if not path[-1].startswith("_"):
        # the tracer wraps only functions defined in the module itself
        assert fn.__module__ == module.__name__
