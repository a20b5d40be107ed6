#!/usr/bin/env python3
"""One capped probe of the stress inputs, outside the timed workloads.

    python3 perfbench/probe.py

Runs each input once in a fresh interpreter and reports its exit code and
wall time, or "timeout" when it outlives its cap.  The caps are the ones
the inputs were first reported with; they are never raised to make an
input finish.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (argv, cap in seconds)
STRESS = [
    (["intersect", "y^2-x^21", "y^2-x^21-x^30"], 60),
    (["bezout", "Y^2*Z-X^3-X*Z^2", "X^3+Y^3+Z^3", "--field", "p:101"], 60),
    (["bezout", "Y^2*Z-X^3-X*Z^2", "X^3+Y^3+Z^3", "--field", "p:5"], 60),
    (["bezout", "X^4+Y^4+Z^4+X*Y*Z^2", "X^4-2*Y^4+3*Z^4+X^2*Y*Z", "--field", "p:7"], 60),
    (["bezout", "X^4+Y^4+Z^4+X*Y*Z^2", "X^4-2*Y^4+3*Z^4+X^2*Y*Z", "--field", "p:101"], 60),
    (["resolve", "(y-1000000000000000003*x)*(y+x)+x^3"], 30),
]


def probe(argv, cap):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "planecurves", *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return {"input": " ".join(argv), "cap_s": cap, "status": "timeout"}
    last = (done.stdout.strip().splitlines() or done.stderr.strip().splitlines() or [""])[-1]
    return {"input": " ".join(argv), "cap_s": cap, "status": "finished",
            "exit": done.returncode, "seconds": round(time.perf_counter() - t0, 3),
            "last_line": last}


def main():
    results = []
    for argv, cap in STRESS:
        results.append(probe(argv, cap))
        print(json.dumps(results[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"stress_probe": results}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
