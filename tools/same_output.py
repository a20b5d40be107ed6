#!/usr/bin/env python3
"""Compare the output of two checkouts on every benchmark workload call.

    python3 tools/same_output.py OTHER_CHECKOUT [--seeds 1 2 3]
        [--workloads corpus local_deep proj_tower cofactor] [--calls FILE ...]

The call lists come from this checkout's perfbench/workloads.py, loaded by
path and only read, as tests/test_workloads.py loads it, followed by the
argv lists in each JSON file given with --calls, if any (a list of lists
of strings, such as ["bezout", "X^2-Y*Z", "Y^2-X*Z", "--field", "p:7"]);
`--workloads` with no names leaves only those.  Each distinct argv runs
once through planecurves.cli.main in a fresh interpreter per checkout,
with that checkout's src on the path, and the script lists every call
whose (exit code, stdout, stderr) differs.  Exit code 0 when every call
matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ["corpus", "local_deep", "proj_tower", "cofactor"]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call_lists(seeds, names):
    """The distinct argv lists of the named workloads for the seeds, in first-seen order."""
    # workloads.py imports its helper module as `arith`, a sibling on the path
    saved = sys.modules.get("arith")
    sys.modules["arith"] = _load("arith")
    try:
        workloads = _load("workloads")
    finally:
        if saved is None:
            del sys.modules["arith"]
        else:
            sys.modules["arith"] = saved
    seen = {}
    for name in names:
        for seed in seeds:
            for call in workloads.BUILDERS[name](seed, ROOT):
                seen.setdefault(tuple(call.argv), None)
    return [list(argv) for argv in seen]


def run_calls(argvs):
    """[exit code, stdout, stderr] of each argv, run in this interpreter."""
    from planecurves import cli

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def run_checkout(checkout, argvs):
    """The results of the argvs in a fresh interpreter importing checkout/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run-calls"],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        cwd=checkout,
        check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None):
    # a literal, not __doc__: python -OO strips docstrings
    description = "Compare the output of two checkouts on every benchmark workload call."
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("other", nargs="?", help="the checkout to compare this one with")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="*", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--calls", nargs="+", default=[],
                    help="JSON files of argv lists to compare as well")
    ap.add_argument("--run-calls", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_calls:
        json.dump(run_calls(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.other is None:
        ap.error("the other checkout is required")
    argvs = call_lists(args.seeds, args.workloads)
    for path in args.calls:
        with open(path) as f:
            extra = json.load(f)
        if not (isinstance(extra, list) and all(
            isinstance(argv, list) and all(isinstance(a, str) for a in argv) for argv in extra
        )):
            ap.error(f"{path} does not hold a list of argv lists")
        for argv in extra:
            if argv not in argvs:
                argvs.append(argv)
    ours, theirs = run_checkout(ROOT, argvs), run_checkout(args.other, argvs)
    labels = ("exit code", "stdout", "stderr")
    differ = 0
    for argv, a, b in zip(argvs, ours, theirs):
        if a != b:
            differ += 1
            which = ", ".join(lab for lab, x, y in zip(labels, a, b) if x != y)
            print(f"differs in {which}: {' '.join(argv)}")
    sources = " ".join(args.workloads + args.calls)
    print(f"{differ} of {len(argvs)} distinct calls differ "
          f"(seeds {' '.join(map(str, args.seeds))}; {sources})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
