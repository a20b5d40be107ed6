"""Command line interface: parse curves, dispatch, render text or JSON.

Exit codes are a function of the outcome class alone: 0 success (including
an appendix run that stops with a hypothesis failure, which is a normal
report), 1 usage or domain precondition, 2 no solution or condition
failed, 3 non-rational point over Q, 4 depth cap, 5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import fields as _fields
from .blowup import appendix_sequence, resolve_tree, to_dot
from .errors import (
    CurveError,
    DepthCapExceeded,
    HypothesisFailed,
    InternalError,
    NonRationalPoint,
    UnresolvedTree,
    UsageError,
)
from .fields import PrimeField, RationalField
from .invariants import (
    _genus_and_deltas,
    adjoint_check,
    delta_invariant,
    intersection_multiplicity,
)
from .noether import bezout_check, check_condition, find_singular_points, solve_af_bg
from .poly import parse_poly


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # parse_args leaves the parser as it was, and errors raise
def _build_parser() -> _Parser:
    p = _Parser(prog="planecurves", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")

    def common(sp, polys, extra=()):
        for name in polys:
            sp.add_argument(name, help=f"polynomial {name}")
        sp.add_argument("--field", default="q", help="q for rationals, p:N for F_N")
        sp.add_argument("--max-depth", type=int, default=48, dest="max_depth")
        sp.add_argument("--seed", type=int, default=None, help="factorization seed")
        sp.add_argument("--json", action="store_true", dest="as_json")
        for flag in extra:
            sp.add_argument(flag, action="store_true", dest=flag.lstrip("-").replace("-", "_"))
        return sp

    common(sub.add_parser("resolve", help="resolution tree at the origin"), ["F"], ["--dot"])
    common(sub.add_parser("delta", help="delta invariant at the origin"), ["F"])
    common(
        sub.add_parser("genus", help="geometric genus of a projective curve"),
        ["F"],
        ["--assume-irreducible"],
    )
    common(sub.add_parser("intersect", help="local intersection number at the origin"), ["F", "G"])
    common(sub.add_parser("adjoint", help="adjoint margins of G on the tree of C"), ["C", "G"])
    common(
        sub.add_parser("noether-check", help="r_H >= r_F + r_G - 1 at all common points"),
        ["F", "G", "H"],
    )
    common(sub.add_parser("noether-solve", help="solve H = A*F + B*G"), ["F", "G", "H"])
    common(sub.add_parser("bezout", help="sum of local intersections vs deg F * deg G"), ["F", "G"])
    ap = common(sub.add_parser("appendix", help="tangent-normalization recursion"), ["F"])
    ap.add_argument("n", type=int, help="last stage to compute")
    return p


def _field_of(flag: str):
    if flag == "q":
        return RationalField()
    if flag.startswith("p:"):
        return PrimeField(int(flag[2:]))
    raise UsageError(f"--field must be 'q' or 'p:N', got {flag!r}")


def _emit(obj):
    print(json.dumps(obj, indent=2))


# ---- human renderers ----


def _render_resolve(tree):
    lines = [f"termination: {tree.termination}"]
    # preorder by an explicit stack: a nested function that calls itself
    # would leave a reference cycle behind on every call
    stack = [(tree.root, 0)]
    while stack:
        node, indent = stack.pop()
        at = "" if node.shift is None else f"  (t = {node.shift})"
        lines.append("  " * indent + f"r={node.r}  {node.local_eq}{at}")
        stack.extend((c, indent + 1) for c in reversed(node.children))
    seq = [r for _, r in tree.multiplicity_sequence()]
    lines.append("multiplicity sequence: [" + ",".join(str(r) for r in seq) + "]")
    return "\n".join(lines)


def _render_condition(report):
    lines = []
    for pc in report.points:
        verdict = "ok" if pc.ok else f"FAILS at depth {pc.failure_depth}"
        lines.append(f"point {pc.point} (chart {pc.chart}): {verdict}")
        for d, rf, rg, rh, margin in pc.entries:
            lines.append(f"  depth {d}: r_F={rf} r_G={rg} r_H={rh} margin={margin}")
    lines.append("condition " + ("holds" if report.ok else "fails"))
    return "\n".join(lines)


# ---- command bodies ----


def _cmd_resolve(args, field):
    F = parse_poly(args.F, field, space="affine")
    tree = resolve_tree(F, max_depth=args.max_depth)
    if args.dot:
        print(to_dot(tree))
    elif args.as_json:
        _emit(tree.to_json())
    else:
        print(_render_resolve(tree))
    return 4 if tree.termination == "DepthCapped" else 0


def _cmd_delta(args, field):
    F = parse_poly(args.F, field, space="affine")
    rep = delta_invariant(resolve_tree(F, max_depth=args.max_depth))
    if args.as_json:
        _emit(rep.to_json())
    else:
        seq = ",".join(str(r) for _, r in rep.multiplicity_sequence)
        print(f"delta = {rep.delta}, sequence = [{seq}]")
    return 0


def _cmd_genus(args, field):
    F = parse_poly(args.F, field, space="homogeneous")
    points = find_singular_points(F)
    g, deltas = _genus_and_deltas(F, points, args.assume_irreducible, args.max_depth)
    if args.as_json:
        _emit(
            {
                "genus": g,
                "degree": F.total_degree(),
                "singular_points": [p.to_json() for p in points],
                "deltas": deltas,
            }
        )
    else:
        print(g)
    return 0


def _cmd_intersect(args, field):
    F = parse_poly(args.F, field, space="affine")
    G = parse_poly(args.G, field, space="affine")
    rep = intersection_multiplicity(F, G, max_depth=args.max_depth)
    if args.as_json:
        _emit(rep.to_json())
    else:
        print(f"I = {rep.noether_sum} (tree) / {rep.oracle_value} (resultant)")
        for d, rc, rd in rep.contributions:
            print(f"  depth {d}: {rc}*{rd}")
    if not rep.agreement:
        print("internal: tree and resultant disagree", file=sys.stderr)
        return 5
    return 0


def _cmd_adjoint(args, field):
    C = parse_poly(args.C, field, space="affine")
    G = parse_poly(args.G, field, space="affine")
    rep = adjoint_check(C, G, max_depth=args.max_depth)
    if args.as_json:
        _emit(rep.to_json())
    else:
        for d, rc, rg, margin in rep.entries:
            print(f"depth {d}: r_C={rc} r_G={rg} margin={margin}")
        print("adjoint condition " + ("holds" if rep.ok else "fails"))
    return 0 if rep.ok else 2


def _cmd_noether_check(args, field):
    F = parse_poly(args.F, field, space="homogeneous")
    G = parse_poly(args.G, field, space="homogeneous")
    H = parse_poly(args.H, field, space="homogeneous")
    rep = check_condition(F, G, H, max_depth=args.max_depth)
    if args.as_json:
        _emit(rep.to_json())
    else:
        print(_render_condition(rep))
    return 0 if rep.ok else 2


def _cmd_noether_solve(args, field):
    F = parse_poly(args.F, field, space="homogeneous")
    G = parse_poly(args.G, field, space="homogeneous")
    H = parse_poly(args.H, field, space="homogeneous")
    cert = solve_af_bg(F, G, H)
    if args.as_json:
        _emit(cert.to_json())
    elif cert.status == "Solved":
        print(f"Solved: A = {cert.A}, B = {cert.B}")
    else:
        print(cert.status)
    return 0 if cert.status == "Solved" else 2


def _cmd_bezout(args, field):
    F = parse_poly(args.F, field, space="homogeneous")
    G = parse_poly(args.G, field, space="homogeneous")
    rep = bezout_check(F, G, max_depth=args.max_depth)
    if args.as_json:
        _emit(rep.to_json())
    else:
        for p, chart, r in rep.entries:
            print(f"point {p} (chart {chart}): I = {r.noether_sum}")
        print(f"total = {rep.total}, expected = {rep.expected}")
    if not rep.ok:
        print("internal: Bezout total does not match the degree product", file=sys.stderr)
        return 5
    return 0


def _cmd_appendix(args, field):
    F = parse_poly(args.F, field, space="affine")
    failed = None
    try:
        stages, phi = appendix_sequence(F, args.n)
    except HypothesisFailed as e:
        stages, phi = e.stages, e.phi
        failed = {"stage": e.stage, "reason": e.reason}
    if args.as_json:
        _emit(
            {
                "stages": [
                    {
                        "stage": i,
                        "equation": str(eq),
                        "shift": None if a is None else str(a),
                    }
                    for i, eq, a in stages
                ],
                "phi": str(phi),
                "failed": failed,
            }
        )
    else:
        for i, eq, a in stages:
            at = "" if a is None else f"  (shift {a})"
            print(f"stage {i}: {eq}{at}")
        print(f"phi = {phi}")
        if failed is not None:
            print(f"stopped at stage {failed['stage']}: {failed['reason']}")
    return 0


_COMMANDS = {
    "resolve": _cmd_resolve,
    "delta": _cmd_delta,
    "genus": _cmd_genus,
    "intersect": _cmd_intersect,
    "adjoint": _cmd_adjoint,
    "noether-check": _cmd_noether_check,
    "noether-solve": _cmd_noether_solve,
    "bezout": _cmd_bezout,
    "appendix": _cmd_appendix,
}


def main(argv=None) -> int:
    parser = _build_parser()
    seed_before = _fields.DEFAULT_FACTOR_SEED
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        field = _field_of(args.field)
        if args.seed is not None:
            _fields.DEFAULT_FACTOR_SEED = args.seed
        return _COMMANDS[args.command](args, field)
    except InternalError as e:
        print(f"internal: {e}", file=sys.stderr)
        return 5
    except NonRationalPoint as e:
        print(
            f"error: non-rational point: {e}\n"
            "hint: retry over a finite field with --field p:N",
            file=sys.stderr,
        )
        return 3
    except (DepthCapExceeded, UnresolvedTree) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (UsageError, ValueError, CurveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 5
    finally:
        _fields.DEFAULT_FACTOR_SEED = seed_before


if __name__ == "__main__":
    sys.exit(main())
