#!/usr/bin/env python3
"""Benchmark of the planecurves command line, end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one thread, closed loop:
each call of planecurves.cli.main(argv) starts when the previous one
returns, with stdout captured and checked against an answer fixed before
the run (see workloads.py).  The first pass over the workload's list of
calls checks every answer and warms up; the calls are then cycled in the
same order until --seconds have gone by since the start, and every later
execution of a call must print what its first one printed.

--trace 0 prints the end-to-end metrics; --trace 1 runs the checking
pass, then untraced and traced passes in turn, and prints the per-layer
metrics and the tracing overhead.  The line before the last holds details
(the latencies in seconds, executions, failures by input, tail percentile
and sample count); the last line of stdout is the result as JSON.
attempted counts the calls of the list and failed those whose answer is
wrong.  setup_s is the median wall time of fresh interpreters that import
planecurves.cli, started between calls at even intervals over the timed
part of the run.

The latency metrics are given in units of a reference task (see
reference_task), timed between the calls of the same run.  On a shared
host the speed can move by 1.6 times within minutes (a 2-vCPU virtual
machine: corpus, whose inputs do not depend on the seed, took 2.3 s and
then 3.7 s), and the ratio of a call's time to the reference's follows
the program rather than the host.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(HERE, "out")
CALL_CAP_S = 30.0
SETUP_RUNS = 11
TAIL_BEYOND = 10
# the reference task runs once each time the calls have taken this long
REF_EVERY_S = 0.1
REF_P = 10007

sys.path.insert(0, HERE)
import arith  # noqa: E402
import workloads  # noqa: E402


class CallTimeout(BaseException):
    """Raised inside a call that exceeds the per-call cap.

    A BaseException, so the CLI's own `except Exception` does not turn it
    into an exit code.
    """


def _alarm(signum, frame):
    raise CallTimeout()


def setup_once():
    """Wall time of one fresh interpreter that imports planecurves.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import planecurves.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def _reference_inputs():
    """Two fixed forms of degree 4 over F_10007; the same in every run."""
    rng = Random("reference")
    return [arith.random_form(4, lambda: rng.randrange(REF_P), REF_P) for _ in range(2)]


def reference_task(inputs):
    """Seconds of one fixed task of exact arithmetic, done by the benchmark's own code.

    It multiplies the two forms and reads the product back from its text,
    the same kind of work (dicts of monomials, small ints, string parsing)
    as the program does, and none of it depends on the program's code.
    """
    f, g = inputs
    t0 = time.perf_counter()
    h = arith.pmul(f, g, REF_P)
    if arith.parse(arith.fmt(h), REF_P) != h:
        raise AssertionError("the reference task computed a wrong product")
    return time.perf_counter() - t0


def run_call(cli, argv):
    """(exit code, stdout, stderr, seconds) of one call; code None when the cap hit."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except CallTimeout:
        code = None
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue(), dt


def run_pass(cli, calls, run):
    """Run every call once, recording each result; returns the wall seconds."""
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        run.record(i, run_call(cli, call.argv))
    return time.perf_counter() - t0


def judge(call, result):
    """Why one result is wrong, or None; a timeout is a failure."""
    code, out, err, _ = result
    if code is None:
        return f"exceeded the {CALL_CAP_S:g} s cap"
    try:
        reason = workloads.check(call, code, out)
    except (ValueError, KeyError, AttributeError, IndexError, TypeError) as e:
        reason = f"unreadable output ({type(e).__name__}: {e})"
    last = err.strip().splitlines()[-1:]
    return reason and reason + (f" [{last[0]}]" if last else "")


class Run:
    """Latencies, counts and integrity findings of one run.

    Each call's first result is checked against its expected answer and is
    not timed: it is the warm-up.  Every later result of the same call must
    repeat the first one exactly, and its time is a latency sample.  A call
    is attempted once it has run and failed when its first answer is wrong,
    so the counts do not depend on how many repetitions fit in the run.
    """

    def __init__(self, calls):
        self.calls = calls
        self.latencies = [[] for _ in calls]
        self.first = [None] * len(calls)
        self.verdict = [None] * len(calls)
        self.executions = 0
        self.problems = []

    def record(self, i, result):
        code, out, _, dt = result
        self.executions += 1
        if self.first[i] is None:
            self.first[i] = (code, out)
            self.verdict[i] = judge(self.calls[i], result)
            return
        self.latencies[i].append(dt)
        if self.first[i] != (code, out):
            self.problems.append(f"{self.calls[i].label()}: output differs between passes")

    @property
    def attempted(self):
        return sum(first is not None for first in self.first)

    @property
    def failed(self):
        return len(self.failures())

    def failures(self):
        return [(c, v) for c, v in zip(self.calls, self.verdict) if v]

    def correct(self):
        unexpected = [f"{c.label()}: {v}" for c, v in self.failures() if not c.known_failure]
        return not (unexpected or self.problems), unexpected + self.problems


def tail(values):
    """Highest order statistic with TAIL_BEYOND values above it, and its percentile."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def untraced(cli, calls, seconds):
    """A checking pass, then the calls in cycle until the deadline.

    Each call's latency is the mean of its timed executions.  wall is the
    sum of the calls' latencies, call_p50 their median and call_tail the
    highest of them that still has TAIL_BEYOND calls above it; each is
    given in seconds in the detail and, divided by the mean time of the
    reference task, as the metric.  The reference task runs between calls
    whenever the calls have taken REF_EVERY_S since its last run.  Every
    call is timed at least once, even when the checking pass outlasts the
    deadline.  The fresh interpreters of setup_s run between calls at even
    intervals over the timed part.
    """
    run = Run(calls)
    deadline = time.perf_counter() + seconds
    run_pass(cli, calls, run)
    start = time.perf_counter()
    step = max(deadline - start, 0.0) / SETUP_RUNS
    next_setup = start + step / 2
    setup = []
    ref_inputs, refs, since_ref = _reference_inputs(), [], 0.0
    i = 0
    while time.perf_counter() < deadline or not all(run.latencies):
        result = run_call(cli, calls[i].argv)
        run.record(i, result)
        since_ref += result[3]
        if since_ref >= REF_EVERY_S:
            refs.append(reference_task(ref_inputs))
            since_ref = 0.0
        i = (i + 1) % len(calls)
        if len(setup) < SETUP_RUNS and time.perf_counter() >= next_setup:
            setup.append(setup_once())
            next_setup += step
    while len(setup) < SETUP_RUNS:
        setup.append(setup_once())
    if not refs:
        refs.append(reference_task(ref_inputs))
    latency = [statistics.fmean(lat) for lat in run.latencies]
    tail_s, pct = tail(latency)
    seconds = {"wall_s": sum(latency), "call_p50_s": statistics.median(latency),
               "call_tail_s": tail_s, "ref_s": statistics.fmean(refs)}
    ref = seconds["ref_s"]
    metrics = {
        "wall_ref": (seconds["wall_s"] / ref, "ref"),
        "call_p50_ref": (seconds["call_p50_s"] / ref, "ref"),
        "call_tail_ref": (tail_s / ref, "ref"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {"seconds": seconds, "ref_runs": len(refs),
              "calls": len(calls), "timed_executions": sum(map(len, run.latencies)),
              "timed_per_call": [min(map(len, run.latencies)), max(map(len, run.latencies))],
              "tail_percentile": pct, "tail_samples": len(latency), "setup_runs_s": setup}
    return run, metrics, detail


def traced(cli, calls, seconds, span_path):
    """The checking pass, then untraced and traced passes in turn until the deadline.

    The overhead is the median traced pass over the median untraced pass;
    alternating them exposes both to the same drift of the host's speed.
    The spans of the last traced pass are written to span_path.
    """
    import tracer

    run = Run(calls)
    deadline = time.perf_counter() + seconds
    run_pass(cli, calls, run)
    tr = tracer.Tracer()
    ref_walls, walls, per_pass = [], [], []
    try:
        while not walls or time.perf_counter() < deadline:
            tr.clear()
            ref_walls.append(run_pass(cli, calls, run))
            tr.install()
            walls.append(run_pass(cli, calls, run))
            tr.uninstall()
            per_pass.append(tr.take_pass())
    finally:
        tr.uninstall()
    if span_path:
        os.makedirs(os.path.dirname(span_path), exist_ok=True)
        tr.write_spans(span_path)
    tr.clear()
    first_stats, first_counters = per_pass[0]
    for stats, counters in per_pass[1:]:
        if counters != first_counters or any(stats[k][0] != v[0] for k, v in first_stats.items()):
            run.problems.append("traced passes counted different calls")
            break
    metrics = {}
    for name in LAYER_NAMES:
        metrics.update(_layer_metrics(name, first_stats, per_pass))
    for name, value in first_counters.items():
        metrics[name] = (value, "count")
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / statistics.median(ref_walls),
                                       "ratio")
    detail = {"passes": len(walls), "untraced_walls_s": ref_walls, "traced_walls_s": walls,
              "spans_per_pass": {k: v[0] for k, v in first_stats.items() if v[0]},
              "span_file": span_path}
    return run, metrics, detail


def _layer_metrics(name, first_stats, per_pass):
    med = statistics.median
    return {
        f"{name}.calls": (first_stats[name][0], "count"),
        f"{name}.total_s": (med(stats[name][1] for stats, _ in per_pass), "s"),
        f"{name}.self_s": (med(stats[name][2] for stats, _ in per_pass), "s"),
    }


# The layers named in BENCHMARK.json; every other traced function is still
# in the span file.
LAYER_NAMES = (
    "cli.main", "poly.parse_poly",
    "blowup.resolve_tree", "blowup.joint_tree", "blowup.tracked_resolution",
    "blowup.appendix_sequence", "blowup._chart_transform",
    "invariants.intersection_oracle", "poly.resultant_biv",
    "fields.roots_with_extension", "fields.uni_factor", "fields.uni_gcd", "fields.extend_field",
    "linalg.solve_linear", "poly.biv_gcd", "poly.MultiPoly.substitute", "poly.translate",
    "noether.find_common_points", "noether.find_singular_points", "noether.check_condition",
    "noether.bezout_check", "noether.solve_af_bg",
    "invariants.intersection_multiplicity", "invariants.delta_invariant",
    "invariants.adjoint_check", "invariants.genus",
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "planecurves", "cli.py")):
        print(f"error: no planecurves sources under {SRC}", file=sys.stderr)
        return 2
    calls = workloads.BUILDERS[args.workload](args.seed, ROOT)

    sys.path.insert(0, SRC)
    from planecurves import cli, fields

    seed_before = fields.DEFAULT_FACTOR_SEED
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        span_path = os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
        run, metrics, detail = traced(cli, calls, args.seconds, span_path)
    else:
        run, metrics, detail = untraced(cli, calls, args.seconds)
        metrics["ok_ratio"] = (1 - run.failed / len(calls), "ratio")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if fields.DEFAULT_FACTOR_SEED != seed_before:
        run.problems.append(f"fields.DEFAULT_FACTOR_SEED changed from {seed_before} "
                            f"to {fields.DEFAULT_FACTOR_SEED}")
    correct, problems = run.correct()
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  executions=run.executions, failed_ratio=run.failed / run.attempted,
                  failures=[{"call": c.label(), "reason": v} for c, v in run.failures()],
                  problems=problems)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
