"""The benchmark's own answer checks, run as a test on every seed-1 call.

perfbench/workloads.py fixes each call's exit code and answer before the
program runs: from the golden corpus or from a construction whose answer is
known in closed form, such as cofactor's H = A F + B G with 12-digit
coefficients.  It is loaded by path and only read, so the benchmark stays
as it is.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from planecurves import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its helper module as `arith`, a sibling on the path
    saved = sys.modules.get("arith")
    sys.modules["arith"] = _load("arith")
    try:
        return _load("workloads")
    finally:
        if saved is None:
            del sys.modules["arith"]
        else:
            sys.modules["arith"] = saved


@pytest.mark.parametrize("name", ["corpus", "local_deep", "proj_tower", "cofactor"])
def test_every_seed_one_call_gives_its_expected_answer(workloads, name):
    calls = workloads.BUILDERS[name](1, str(ROOT))
    wrong = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
        reason = workloads.check(call, code, out.getvalue())
        if reason is not None and not call.known_failure:
            wrong.append((call.label(), reason, err.getvalue()[-200:]))
    assert calls
    assert wrong == []
