"""Command line interface: parse curves, dispatch, render text or JSON.

One table, _TABLE, drives the parser, the parsing of the polynomials and
the dispatch; each body only computes, and main prints the form asked for.

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
from .blowup import DEFAULT_MAX_DEPTH, appendix_sequence, resolve_tree, to_dot
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

_scalar = json.JSONEncoder().encode  # the encoder json.dumps(obj) uses


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # parse_args leaves the parser as it was, and errors raise
def _build_parser():
    """(the top-level parser, {command name: its subparser})."""
    # a literal, not __doc__: python -OO strips docstrings
    description = "Command line interface: parse curves, dispatch, render text or JSON."
    p = _Parser(prog="planecurves", description=description)
    sub = p.add_subparsers(dest="command", metavar="command")
    for name, (_body, help_, polys, _space, extra) in _TABLE.items():
        sp = sub.add_parser(name, help=help_)
        for poly in polys:
            sp.add_argument(poly, help=f"polynomial {poly}")
        sp.add_argument("--field", default="q", help="q for rationals, p:N for F_N")
        sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH, dest="max_depth")
        sp.add_argument("--seed", type=int, default=None, help="factorization seed")
        sp.add_argument("--json", action="store_true", dest="as_json")
        for arg, kwargs in extra.items():
            sp.add_argument(arg, **kwargs)
    return p, sub.choices


def _field_of(flag: str):
    if flag == "q":
        return RationalField()
    try:
        p = int(flag[2:] if flag.startswith("p:") else "")
    except ValueError:
        raise UsageError(f"--field must be 'q' or 'p:N', got {flag!r}") from None
    return PrimeField(p)


def _json(obj, indent="\n"):
    """json.dumps(obj, indent=2): with an indent the stdlib falls back to its
    pure-Python encoder, whose closures leave reference cycles on every call."""
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return _scalar(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = (f"{_scalar(k)}: {_json(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + indent + "]"


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


# ---- command bodies: each returns (exit code, JSON builder, text builder) ----


def _cmd_resolve(args, F):
    tree = resolve_tree(F, max_depth=args.max_depth)
    text = functools.partial(to_dot if args.dot else _render_resolve, tree)
    return (4 if tree.termination == "DepthCapped" else 0), tree.to_json, text


def _cmd_delta(args, F):
    rep = delta_invariant(resolve_tree(F, max_depth=args.max_depth))
    return 0, rep.to_json, lambda: "delta = {}, sequence = [{}]".format(
        rep.delta, ",".join(str(r) for _, r in rep.multiplicity_sequence)
    )


def _cmd_genus(args, F):
    points = find_singular_points(F)
    g, deltas = _genus_and_deltas(F, points, args.assume_irreducible, args.max_depth)

    def payload():
        return {
            "genus": g,
            "degree": F.total_degree(),
            "singular_points": [p.to_json() for p in points],
            "deltas": deltas,
        }

    return 0, payload, lambda: str(g)


def _cmd_intersect(args, F, G):
    rep = intersection_multiplicity(F, G, max_depth=args.max_depth)
    return (0 if rep.agreement else 5), rep.to_json, lambda: "\n".join(
        [f"I = {rep.noether_sum} (tree) / {rep.oracle_value} (resultant)"]
        + [f"  depth {d}: {rc}*{rd}" for d, rc, rd in rep.contributions]
    )


def _cmd_adjoint(args, C, G):
    rep = adjoint_check(C, G, max_depth=args.max_depth)
    return (0 if rep.ok else 2), rep.to_json, lambda: "\n".join(
        [f"depth {d}: r_C={rc} r_G={rg} margin={margin}" for d, rc, rg, margin in rep.entries]
        + ["adjoint condition " + ("holds" if rep.ok else "fails")]
    )


def _cmd_noether_check(args, F, G, H):
    rep = check_condition(F, G, H, max_depth=args.max_depth)
    return (0 if rep.ok else 2), rep.to_json, lambda: _render_condition(rep)


def _cmd_noether_solve(args, F, G, H):
    cert = solve_af_bg(F, G, H)
    if cert.status == "Solved":
        return 0, cert.to_json, lambda: f"Solved: A = {cert.A}, B = {cert.B}"
    return 2, cert.to_json, lambda: cert.status


def _cmd_bezout(args, F, G):
    rep = bezout_check(F, G, max_depth=args.max_depth)
    return (0 if rep.ok else 5), rep.to_json, lambda: "\n".join(
        [f"point {p} (chart {chart}): I = {r.noether_sum}" for p, chart, r in rep.entries]
        + [f"total = {rep.total}, expected = {rep.expected}"]
    )


def _cmd_appendix(args, F):
    try:
        (stages, phi), failed = appendix_sequence(F, args.n), None
    except HypothesisFailed as e:
        (stages, phi), failed = (e.stages, e.phi), {"stage": e.stage, "reason": e.reason}

    def payload():
        rows = [
            {"stage": i, "equation": str(eq), "shift": None if a is None else str(a)}
            for i, eq, a in stages
        ]
        return {"stages": rows, "phi": str(phi), "failed": failed}

    def text():
        lines = [
            f"stage {i}: {eq}" + ("" if a is None else f"  (shift {a})") for i, eq, a in stages
        ]
        lines.append(f"phi = {phi}")
        if failed is not None:
            lines.append(f"stopped at stage {failed['stage']}: {failed['reason']}")
        return "\n".join(lines)

    return 0, payload, text


# name: (body, help, polynomial arguments one letter each, their space, extra arguments)
_TABLE = {
    "resolve": (_cmd_resolve, "resolution tree at the origin", "F", "affine",
                {"--dot": {"action": "store_true"}}),
    "delta": (_cmd_delta, "delta invariant at the origin", "F", "affine", {}),
    "genus": (_cmd_genus, "geometric genus of a projective curve", "F", "homogeneous",
              {"--assume-irreducible": {"action": "store_true"}}),
    "intersect": (_cmd_intersect, "local intersection number at the origin", "FG", "affine", {}),
    "adjoint": (_cmd_adjoint, "adjoint margins of G on the tree of C", "CG", "affine", {}),
    "noether-check": (_cmd_noether_check, "r_H >= r_F + r_G - 1 at all common points", "FGH",
                      "homogeneous", {}),
    "noether-solve": (_cmd_noether_solve, "solve H = A*F + B*G", "FGH", "homogeneous", {}),
    "bezout": (_cmd_bezout, "sum of local intersections vs deg F * deg G", "FG", "homogeneous", {}),
    "appendix": (_cmd_appendix, "tangent-normalization recursion", "F", "affine",
                 {"n": {"type": int, "help": "last stage to compute"}}),
}
_COMMANDS = {name: row[0] for name, row in _TABLE.items()}

# exit code 5 from a body: its two computations of one number disagree
_CROSS_CHECKS = {"intersect": "tree and resultant disagree",
                 "bezout": "Bezout total does not match the degree product"}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    seed_before = _fields.DEFAULT_FACTOR_SEED
    try:
        # a known command goes straight to its subparser, which the top-level
        # parser would hand it to; anything else goes to the top level
        sub = commands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        if args.command is None:
            raise UsageError("a command is required")
        field = _field_of(args.field)
        if args.seed is not None:
            _fields.DEFAULT_FACTOR_SEED = args.seed
        _, _, names, space, _ = _TABLE[args.command]
        polys = [parse_poly(getattr(args, n), field, space=space) for n in names]
        code, payload, text = _COMMANDS[args.command](args, *polys)
        # --dot is a text form, so it wins over --json
        print(_json(payload()) if args.as_json and not getattr(args, "dot", False) else text())
        if code == 5:
            print(f"internal: {_CROSS_CHECKS[args.command]}", file=sys.stderr)
        return code
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
