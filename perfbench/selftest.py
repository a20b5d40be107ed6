#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
- a tiny untraced run and a tiny traced run print every metric named in
  BENCHMARK.json with its unit, and are correct;
- a wrong expected answer injected into one call is counted as a failed
  call and makes the run incorrect;
- the closed-form answers of local_deep agree with each other;
- without the planecurves sources the benchmark exits non-zero and prints
  no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench("--workload", "cofactor", "--seed", "0", "--seconds", "0",
                      "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True, done.stdout
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (sorted(set(got) ^ set(want)), key)
        for name, unit in sorted(got.items()):
            print(f"  {key:10s} {name} [{unit}] = {result['metrics'][name]['value']}")


def check_injected_failure():
    calls = workloads.corpus(0, ROOT)
    victim = next(c for c in calls if c.command == "intersect")
    victim.expect["I"] += 1
    sys.path.insert(0, run.SRC)
    from planecurves import cli

    r = run.Run(calls)
    run.run_pass(cli, calls, r)
    assert r.failed == 1 and r.attempted == len(calls), (r.failed, r.attempted)
    correct, problems = r.correct()
    assert not correct and victim.label() in problems[0], problems
    print(f"  injected wrong I counted: failed_ratio = {r.failed}/{r.attempted}")


def check_closed_forms():
    for ladder in (workloads.DEEP_Q, workloads.DEEP_FP):
        for a, b, c, e in ladder:
            _, delta, seq = workloads.deep_answers(a, b, c, e)
            assert delta == sum(r * (r - 1) // 2 for r in seq), (a, b, c, e)
    print("  delta(fg) = sum r(r-1)/2 over the closed-form sequence on every shape")


def check_no_sources():
    bare = os.path.join(run.SPAN_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = _bench("--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print(f"  without sources: exit {done.returncode}, no result printed")


def main():
    for check in (check_closed_forms, check_injected_failure, check_no_sources,
                  check_metric_names):
        print(check.__name__)
        check()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
