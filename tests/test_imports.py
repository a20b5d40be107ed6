"""No module of the package imports a name it never uses, none defines a
private helper that nothing in the package names, and none passes the
parser's token budget."""

import ast
import io
import pathlib
import tokenize

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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unnamed_definitions(sources: dict) -> list:
    """Definitions in `sources` {module name: source} that no source names.

    A definition is a private module-level function or class, a _method of
    any class, or any method of a private class that has no base class;
    dunder methods are exempt.  A name is read off a Name, an attribute or
    an import; the def statement itself names nothing.
    """
    named, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not _is_dunder(node.name):
                    defined.append((module, node.name, node.name, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.ClassDef):
                every = node.name.startswith("_") and not node.bases
                for sub in node.body:
                    if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if (every or sub.name.startswith("_")) and not _is_dunder(sub.name):
                        defined.append((module, f"{node.name}.{sub.name}", sub.name, sub.lineno))
    return sorted(
        f"{module}: {label} (line {line})"
        for module, label, name, line in defined
        if name not in named
    )


def test_the_check_finds_unnamed_definitions():
    sources = {
        "a": (
            "def _used(): return 1\n"
            "def _dead(): return 2\n"
            "def public(): return _used() + _Reader().read()\n"
            "class _Reader:\n"
            "    def __init__(self): self.n = 0\n"
            "    def read(self): return self._next()\n"
            "    def _next(self): return self.n\n"
            "    def atom(self): return 0\n"
            "class _Error(ValueError):\n"
            "    def describe(self): return 'kept: the class has a base'\n"
            "    def _hint(self): return ''\n"
        ),
        "b": "from .a import _Error\nclass Public:\n    def _helper(self): pass\n",
    }
    assert unnamed_definitions(sources) == [
        "a: _Error._hint (line 11)",
        "a: _Reader.atom (line 8)",
        "a: _dead (line 2)",
        "b: Public._helper (line 3)",
    ]


def test_no_unnamed_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unnamed_definitions(sources) == []


# CPython 3.11's parser holds a module's tokens in one array and doubles it
# when it fills, so past 8192 tokens a module's compile takes a step more
# memory.  Where bytecode is not cached (PYTHONDONTWRITEBYTECODE=1) every
# process compiles the sources: a fields.py of 8241 tokens compiled with a
# 0.46 MB higher peak than one of 8177 (tracemalloc), and the benchmark's
# peak_rss_mb read 1.0% to 2.8% higher on every workload.
TOKEN_BUDGET = 8192


def parser_tokens(source: str) -> int:
    """The tokens the parser reads from `source`: tokenize's tokens without
    comments and the newlines that end no logical line."""
    skip = (tokenize.COMMENT, tokenize.NL)
    return sum(
        1 for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in skip
    )


def test_the_token_count_skips_comments_and_blank_lines():
    # NAME OP NUMBER NEWLINE ENDMARKER
    assert parser_tokens("x = 1\n") == 5
    assert parser_tokens("# one\nx = 1  # two\n\n") == 5
    # a docstring is one STRING token, however long
    assert parser_tokens('def f():\n    """Doc."""\n') == 11


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_stay_within_the_parser_token_budget(path):
    assert parser_tokens(path.read_text()) <= TOKEN_BUDGET
