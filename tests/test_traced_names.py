"""The benchmark traces planecurves functions by name: every name must resolve.

perfbench/run.py and perfbench/tracer.py are read with ast, never imported,
so this test needs nothing the benchmark needs.  A renamed or deleted
function, method or Scalar operator would otherwise surface only as a
KeyError in `perfbench/run.py --trace 1`, and a deleted module attribute
that run.py reads, such as fields.DEFAULT_FACTOR_SEED, as an
AttributeError in every benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

from planecurves.fields import Scalar

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _constant(filename, name):
    for node in ast.parse((PERFBENCH / filename).read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


@pytest.mark.parametrize("name", _constant("run.py", "LAYER_NAMES"))
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


# the tracer patches these with vars(owner)[name], so each must be defined on
# the class itself: an alias such as __radd__ = __add__ counts, inheritance not
@pytest.mark.parametrize("op", _constant("tracer.py", "SCALAR_OPS"))
def test_scalar_op_is_defined_on_scalar(op):
    assert callable(vars(Scalar).get(op))


@pytest.mark.parametrize("module_name,cls_name,method", _constant("tracer.py", "METHODS"))
def test_traced_method_is_defined_on_its_class(module_name, cls_name, method):
    cls = getattr(importlib.import_module(f"planecurves.{module_name}"), cls_name)
    assert callable(vars(cls).get(method))


def _module_attributes(filename):
    """(module, attribute) for every attribute `filename` reads off a
    planecurves module it imports, under the name it binds the module to."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "planecurves":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("planecurves.") and a.asname:
                    modules[a.asname] = a.name.split(".", 1)[1]
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


RUN_READS = _module_attributes("run.py")


def test_run_reads_module_attributes():
    # the walk itself must find the reads, or the test below checks nothing
    assert RUN_READS


@pytest.mark.parametrize("module_name,attr", RUN_READS)
def test_module_attribute_read_by_run_resolves(module_name, attr):
    module = importlib.import_module(f"planecurves.{module_name}")
    assert hasattr(module, attr), f"perfbench/run.py reads {module_name}.{attr}"
