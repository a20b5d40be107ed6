#!/usr/bin/env python3
"""Measure the baseline: two sets of seeded runs per workload, plus a trace.

    python3 perfbench/baseline.py [workload ...]

Run from the root of a checkout.  For each workload (all of BENCHMARK.json
by default) runs `perfbench/run.py --trace 0` on seeds 1-10 (set A) and
11-20 (set B) and one `--trace 1` run on seed 1, each in a fresh
interpreter, with run_seconds from BENCHMARK.json.  For every end-to-end
metric it records each set's median, quartiles and spread (quartile
distance over the median, as statistics.quantiles(n=4) gives them) and
the median latencies in seconds, and writes the result into perfbench/baseline.json, keeping the stress probe
and the per-workload `why` already there.  Progress goes to stderr.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SETS = {"set_A": range(1, 11), "set_B": range(11, 21)}
TRACE_SEED = 1
TOP_SELF = 8


def bench(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def summarize(results, spec):
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "bound": m["bound"],
                          "values": values}
    return out


def measure(workload, spec):
    """Both sets of runs and the trace of one workload."""
    seconds = spec["run_seconds"]
    entry = {}
    for name, seeds in SETS.items():
        runs = []
        for seed in seeds:
            detail, result = bench(workload, seed, seconds, 0)
            runs.append((detail, result))
            print(f"{workload} {name} seed {seed}: wall_ref "
                  f"{result['metrics']['wall_ref']['value']:.4f}", file=sys.stderr, flush=True)
        results = [r for _, r in runs]
        entry[name] = {
            "seeds": list(seeds),
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "timed_executions": sum(d["timed_executions"] for d, _ in runs),
            "end_to_end": summarize(results, spec),
            "seconds_median": {k: statistics.median(d["seconds"][k] for d, _ in runs)
                               for k in runs[0][0]["seconds"]},
        }
        first = runs[0][0]
        entry.update(calls_per_pass=first["calls"], tail_percentile=first["tail_percentile"],
                     failures_today=first["failures"])
    a, b = (entry[k]["end_to_end"] for k in SETS)
    entry["set_B_median_over_set_A"] = {k: b[k]["median"] / a[k]["median"] for k in a}
    entry["trace"] = trace(workload, spec)
    return entry


def trace(workload, spec):
    """One traced run: overhead, untraced and traced pass times, top self times, counts."""
    detail, result = bench(workload, TRACE_SEED, spec["run_seconds"], 1)
    metrics = result["metrics"]
    self_s = {k[:-len(".self_s")]: v["value"] for k, v in metrics.items()
              if k.endswith(".self_s")}
    return {
        "seed": TRACE_SEED, "correct": result["correct"],
        "overhead_ratio": metrics["trace.overhead_ratio"]["value"],
        "untraced_passes_s": detail["untraced_walls_s"], "traced_passes_s": detail["traced_walls_s"],
        "top_self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])[:TOP_SELF]),
        "counts": {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"},
    }


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    with open(OUT) as fh:
        baseline = json.load(fh)
    for workload in names:
        old = baseline["workloads"].get(workload, {})
        entry = measure(workload, spec)
        baseline["workloads"][workload] = {"why": old.get("why"), **entry}
        with open(OUT, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
