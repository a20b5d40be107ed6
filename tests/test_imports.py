"""No module of the package imports a name it never uses."""

import ast
import pathlib

import pytest

import planecurves

SRC = pathlib.Path(planecurves.__file__).parent


def _annotation_names(node):
    # a quoted annotation is a string constant: parse it for its names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from .fields import Field, Scalar, UniPoly, join_fields\n"
        "def f(a: Field) -> 'UniPoly':\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(source) == [
        "Scalar (line 4)", "join_fields (line 4)", "regex (line 3)"
    ]


# __init__.py imports to re-export
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
