"""Byte-for-byte snapshot of the CLI on the golden corpus.

Every corpus entry is run through cli.main in text and --json mode, plus
the README's appendix and adjoint examples and a few depth-cap, --dot and
non-rational cases; stdout, stderr and the exit code must match the
recorded fixture exactly.  The frozen text output is a contract, and this
is the test that pins it.

To re-record the fixture after a deliberate output change:

    PYTHONPATH=src python -m tests.test_cli_snapshot
"""

import contextlib
import functools
import io
import json
import os

import pytest

from planecurves.cli import main

from .helpers import corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cli_snapshot.json")

EXTRA = [
    ["resolve", "y^2-x^7", "--max-depth", "1"],
    ["resolve", "y^2-x^7", "--max-depth", "1", "--json"],
    ["resolve", "y^2-x^7", "--max-depth", "1", "--dot"],
    ["delta", "y^2-x^7", "--max-depth", "1"],
    ["intersect", "y^2-x^7", "y", "--max-depth", "1"],
    ["intersect", "y^2-x^7", "y^2-x^7-x^9", "--max-depth", "2", "--json"],
    ["adjoint", "y^2-x^7", "y", "--max-depth", "1"],
    ["adjoint", "y^2-x^7", "y^2-x^9", "--json"],
    ["noether-check", "Y^2*Z-X^3", "Y", "X*Y", "--max-depth", "1"],
    ["bezout", "Y^2*Z-X^3", "Y", "--max-depth", "0"],
    ["noether-check", "Y^2*Z-X^3", "Y^3-X^2*Z", "X*Y", "--max-depth", "1"],
    ["resolve", "y^2+x^2+x^3"],
    ["intersect", "y^2+x^2+x^3", "y^2+x^2", "--json"],
    ["adjoint", "y^2+x^2+x^3", "y"],
    ["noether-check", "Y^2*Z+X^2*Z+X^3", "Y", "X*Y"],
]


def _both(argv, field):
    if field != "q":
        argv = argv + ["--field", field]
    return [argv, argv + ["--json"]]


def invocations():
    """Distinct argv lists, in a fixed order."""
    c = corpus()
    calls = []
    for s in c["singularities"]:
        calls += _both(["resolve", s["poly"]], s["field"])
        calls += _both(["delta", s["poly"]], s["field"])
        calls.append(_both(["resolve", s["poly"]], s["field"])[0] + ["--dot"])
    for s in c["not_squarefree"] + c["termination_f5"]:
        calls += _both(["resolve", s["poly"]], s["field"])
    for s in c["intersection_pairs"]:
        calls += _both(["intersect", s["F"], s["G"]], s["field"])
    for s in c["bezout_pairs"]:
        calls += _both(["bezout", s["F"], s["G"]], s["field"])
    for s in c["genus_cases"]:
        calls += _both(["genus", s["F"]], s["field"])
    for s in c["noether_triples"]:
        for command in ("noether-check", "noether-solve"):
            calls += _both([command, s["F"], s["G"], s["H"]], s["field"])
    calls += _both(["appendix", "y^2+2x^2*y+x^4+x^7", "3"], "q")
    calls += _both(["adjoint", "y^2-x^4", "y"], "q")
    calls += EXTRA
    out, seen = [], set()
    for argv in calls:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(argv)
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _key(argv):
    return json.dumps(argv)


@functools.lru_cache(maxsize=None)
def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


CASES = invocations()


def test_fixture_covers_every_invocation():
    assert sorted(_load()) == sorted(_key(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_frozen(argv):
    assert run(argv) == _load()[_key(argv)]


def record():
    snapshot = {_key(argv): run(argv) for argv in CASES}
    with open(FIXTURE, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(snapshot)} invocations to {FIXTURE}")


if __name__ == "__main__":
    record()
