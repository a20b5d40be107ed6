"""Numerical invariants read off resolution trees.

The delta invariant of a curve singularity is the sum of r*(r-1)/2 over
the multiplicities r of all infinitely near points, the conductor degree
is twice that, and the genus of an irreducible plane curve of degree n
drops from (n-1)(n-2)/2 by the delta of each singular point.  Local
intersection multiplicities come out of a joint tree as the sum of
products of multiplicities, checked against Fulton's algorithm, an
independent computation from the intersection axioms, so that neither
route is trusted alone.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import islice
from math import gcd

from .blowup import (
    DEFAULT_MAX_DEPTH,
    InfNearTree,
    _joint_tree,
    resolve_tree,
    tracked_resolution,
)
from .errors import (
    CommonComponent,
    IncompatibleFields,
    InternalError,
    NegativeGenus,
    Reducible,
    UnresolvedTree,
    ZeroPolynomial,
)
from .fields import (
    RationalField,
    Scalar,
    UniPoly,
    _join,
    _joined,
    is_irreducible,
    join_fields,
)
from .frobenius import _frobenius
from .integers import _coprime_ints
from .poly import (
    MultiPoly,
    PROJECTIVE,
    _shear_candidates,
    biv_coeffs,
    biv_gcd,
    dehomogenize,
    squarefree_defect,
    translate,
)


class SingularityReport:
    """Delta invariant and conductor degree of one singular point."""

    __slots__ = ("point", "field", "multiplicity_sequence", "delta", "conductor_degree")

    def __init__(self, point, field, multiplicity_sequence, delta, conductor_degree):
        self.point = point
        self.field = field
        self.multiplicity_sequence = multiplicity_sequence
        self.delta = delta
        self.conductor_degree = conductor_degree

    def to_json(self):
        return {
            "point": [str(c) for c in self.point],
            "field": self.field.describe(),
            "multiplicity_sequence": [[d, r] for d, r in self.multiplicity_sequence],
            "delta": self.delta,
            "conductor_degree": self.conductor_degree,
        }


def delta_invariant(tree: InfNearTree, point=None) -> SingularityReport:
    """Sum r*(r-1)/2 over the multiplicity sequence of a resolved tree."""
    if tree.termination != "Resolved":
        raise UnresolvedTree(
            f"tree terminated with {tree.termination}; raise max_depth and retry"
        )
    seq = tree.multiplicity_sequence()
    delta = sum(r * (r - 1) // 2 for _, r in seq)
    field = tree.root.field
    if point is None:
        point = (field.zero(), field.zero())
    return SingularityReport(tuple(point), field, seq, delta, 2 * delta)


class IntersectionReport:
    """Local intersection number computed two ways, with the receipts."""

    __slots__ = ("point", "field", "contributions", "noether_sum", "oracle_value", "agreement")

    def __init__(self, point, field, contributions, noether_sum, oracle_value):
        self.point = point
        self.field = field
        self.contributions = contributions
        self.noether_sum = noether_sum
        self.oracle_value = oracle_value
        self.agreement = noether_sum == oracle_value

    def to_json(self):
        return {
            "point": [str(c) for c in self.point],
            "field": self.field.describe(),
            "contributions": [[d, rc, rd] for d, rc, rd in self.contributions],
            "noether_sum": self.noether_sum,
            "oracle_value": self.oracle_value,
            "agreement": self.agreement,
        }


def _fulton(F: MultiPoly, G: MultiPoly) -> int:
    """I_0(F, G) for coprime F, G over one field, by Fulton's reduction.

    Works on the raw value dicts: while both curves pass through the origin,
    either one restriction to y = 0 vanishes, so that curve is y*H and
    I(y, other) = ord_x of the other's restriction is split off, or the
    restriction of higher degree s is cut down by (b/a) x^(s-r) times the
    other one (Fulton, Algebraic Curves, section 3.3).  Only the
    intersection axioms are used; no shear, determinant or field growth.
    Over Q the denominators are cleared once and each cut runs on ints,
    as a'*g - b'*x^(s-r)*f with a', b' the cofactors of gcd(a, b), and the
    result is divided by its content: a nonzero constant is a unit of the
    local ring, so I_0 does not change, and the coefficients do not grow
    into fractions.
    """
    K = F.field
    f, g = dict(F.values), dict(G.values)
    # total + I_0(f, g) stays I_0(F, G) <= deg F * deg G for coprime curves,
    # and each y-split adds at least 1, so a larger total means a shared
    # component that no restriction shows
    bound = F.total_degree() * G.total_degree()
    if isinstance(K, RationalField):
        f, g = (dict(zip(h, _coprime_ints(list(h.values())))) for h in (f, g))
        cut = _cut_integral
    else:
        cut = partial(_cut, K)
    total = 0
    while True:
        if not f or not g:
            raise CommonComponent("curves share a component")
        if (0, 0) in f or (0, 0) in g:
            return total
        fx = {i: c for (i, j), c in f.items() if j == 0}
        gx = {i: c for (i, j), c in g.items() if j == 0}
        if not fx or (gx and max(fx) > max(gx)):
            f, g, fx, gx = g, f, gx, fx
        if not gx:
            if not fx:
                raise CommonComponent("curves share the component y")
            # G = y*H: I(F, G) = I(F, y) + I(F, H)
            total += min(fx)
            if total > bound:
                raise CommonComponent("curves share a component")
            g = {(i, j - 1): c for (i, j), c in g.items()}
            continue
        r, s = max(fx), max(gx)
        g = cut(f, g, s - r, fx[r], gx[s])


def _cut(K, f: dict, g: dict, k: int, a, b) -> dict:
    """g - (b/a)*x^k*f over the field K, in place."""
    sub, mul, neg = K.sub, K.mul, K.neg
    q = K.divider(a)(b)
    for (i, j), c in f.items():
        key = (i + k, j)
        v = sub(g[key], mul(q, c)) if key in g else neg(mul(q, c))
        if v:
            g[key] = v
        else:
            del g[key]
    return g


def _cut_integral(f: dict, g: dict, k: int, a: int, b: int) -> dict:
    """(a'*g - b'*x^k*f) / content on ints, a' = a/gcd(a, b), b' = b/gcd(a, b)."""
    d = gcd(a, b)
    a, b = a // d, b // d
    g = {e: a * c for e, c in g.items()}
    for (i, j), c in f.items():
        key = (i + k, j)
        v = g.get(key, 0) - b * c
        if v:
            g[key] = v
        else:
            del g[key]
    content = gcd(*g.values())
    return g if content == 1 else {e: c // content for e, c in g.items()}


def intersection_oracle(F: MultiPoly, G: MultiPoly) -> int:
    """Local intersection number at the origin by Fulton's algorithm.

    Shares no code with the blow-up trees, so it is an independent check
    on their sum.  Works over any field, with no extension and no shear.
    """
    if F.is_zero() or G.is_zero():
        raise ZeroPolynomial("intersection with the zero curve")
    if biv_gcd(F, G).total_degree() >= 1:
        raise CommonComponent("curves share a component")
    return _fulton(*_joined(F, G)[1])


def intersection_multiplicity(
    F: MultiPoly, G: MultiPoly, max_depth: int = DEFAULT_MAX_DEPTH
) -> IntersectionReport:
    """Local intersection number at the origin, computed two ways.

    The primary route sums r_C * r_D over the shared infinitely near
    points of a joint tree; the oracle route is Fulton's algorithm, which
    shares no code with the tree.  Both land in the report, together with
    the per-depth contributions.
    """
    if F.is_zero() or G.is_zero():
        raise ZeroPolynomial("intersection with the zero curve")
    if biv_gcd(F, G).total_degree() >= 1:
        raise CommonComponent("curves share a component")
    return _intersection_multiplicity(F, G, max_depth)


def _intersection_multiplicity(F: MultiPoly, G: MultiPoly, max_depth: int) -> IntersectionReport:
    """intersection_multiplicity for nonzero F, G already known to be coprime."""
    field, (F, G) = _joined(F, G)
    origin = (field.zero(), field.zero())
    if not (F.constant_term().is_zero() and G.constant_term().is_zero()):
        return IntersectionReport(origin, field, [], 0, 0)
    jt = _joint_tree([F, G], max_depth=max_depth, labels=("C", "D"))
    contributions = [(d, rs[0], rs[1]) for d, rs in jt.contributions()]
    noether_sum = sum(rc * rd for _, rc, rd in contributions)
    oracle = _fulton(F, G)
    return IntersectionReport(origin, field, contributions, noether_sum, oracle)


class AdjointReport:
    """Outcome of the adjoint test r_Q(G) >= r_Q(C) - 1 on a resolution tree."""

    __slots__ = ("ok", "entries")

    def __init__(self, ok, entries):
        self.ok = ok
        self.entries = entries

    def to_json(self):
        return {
            "ok": self.ok,
            "nodes": [
                {"depth": d, "r_C": rc, "r_G": rg, "margin": margin}
                for d, rc, rg, margin in self.entries
            ],
        }


def adjoint_check(
    C: MultiPoly, G: MultiPoly, max_depth: int = DEFAULT_MAX_DEPTH
) -> AdjointReport:
    """Check r_Q(G) >= r_Q(C) - 1 at every infinitely near point of C.

    C is resolved at the origin and G is carried through the same charts;
    the margin r_Q(G) - r_Q(C) + 1 is reported per node.  This is the
    sufficient local condition under which G can play the adjoint role in
    the residue argument, not a full conductor membership test.
    """
    if C.is_zero() or G.is_zero():
        raise ZeroPolynomial("adjoint check with the zero curve")
    if C.mult_at_origin() < 1:
        raise ValueError("curve does not pass through the origin")
    if biv_gcd(C, G).total_degree() >= 1:
        raise CommonComponent("candidate shares a component with the curve")
    tree = tracked_resolution([C, G], max_depth=max_depth, labels=("C", "G"))
    entries = []
    ok = True
    for node in tree.nodes():
        rc, rg = node.rs
        margin = rg - rc + 1
        entries.append((node.depth, rc, rg, margin))
        if margin < 0:
            ok = False
    return AdjointReport(ok, entries)


def _localize(F: MultiPoly, coords):
    """Affine equation of a projective curve with the given point at the origin.

    Picks the chart Z, Y or X, preferring the later coordinate when it is
    nonzero so the choice is deterministic.  Returns (affine poly, chart).
    """
    # translate maps F into the join of its field and the point's
    for chart, idx, others in (("Z", 2, (0, 1)), ("Y", 1, (0, 2)), ("X", 0, (1, 2))):
        if not coords[idx].is_zero():
            field = _join(*coords)
            div = field.divider(field.embed(coords[idx]).value)
            a, b = (Scalar(field, div(field.embed(coords[k]).value)) for k in others)
            return translate(dehomogenize(F, chart), a, b), chart
    raise ValueError("projective point has no nonzero coordinate")


def _orbit_reps(coords_list, base, complete=False):
    """For each projective point, the index of the first listed point of
    its Frobenius orbit over the finite field base.

    A field automorphism fixing the curves maps common points to common
    points and keeps every local number (Fulton, Algebraic Curves, 3.3), so
    a point may reuse the local result of an earlier conjugate.  The
    Frobenius image of a point raises its coordinates to the power
    q = |base|; it is computed by _frobenius on raw values in the top field
    of the points' tower, once each point is scaled to a first nonzero
    coordinate of 1.  When every point lies in base (always over Q), and
    for points outside one tower over base or with no nonzero coordinate,
    every point is its own representative.  With complete=True, an orbit
    that the list does not hold whole raises InternalError.
    """
    reps = list(range(len(coords_list)))
    try:
        top = reduce(join_fields, [c.field for coords in coords_list for c in coords], base)
    except IncompatibleFields:
        return reps
    if top == base:
        return reps
    keys = []
    for coords in coords_list:
        raw = [top.embed(c).value for c in coords]
        pivot = next((v for v in raw if v), None)
        keys.append(None if pivot is None else tuple(map(top.divider(pivot), raw)))
    listed = set(keys)
    frobenius = _frobenius(top, base)
    first = {}
    for i, key in enumerate(keys):
        if key in first:
            reps[i] = first[key]
        elif key is not None:
            orbit = [key]
            while (image := tuple(map(frobenius, orbit[-1]))) != key:
                orbit.append(image)
            if complete and not listed.issuperset(orbit):
                raise InternalError(f"a conjugate of point {i} is missing from the point list")
            first.update(dict.fromkeys(orbit, i))
    return reps


def _full_degree_fibers(F: MultiPoly, n: int):
    # fibers of the first affine restriction whose main-variable degree is n,
    # if any chart allows it: n + 1 rows in that variable
    for chart in ("Z", "Y", "X"):
        aff = dehomogenize(F, chart)
        for main in ("y", "x"):
            rows = biv_coeffs(aff, main)
            if len(rows) == n + 1:
                for a in islice(_shear_candidates(F.field), 8):
                    yield UniPoly(F.field, [row.eval(a) for row in rows], var=main)
                return


def _certify_irreducible(F: MultiPoly):
    """Raise Reducible unless F passes the (partial) irreducibility guard.

    A repeated factor is always detected.  Full irreducibility is certified
    when some specialized fiber of full degree is irreducible, which implies
    that F is.  The test is one-sided: a reducible fiber proves nothing.
    Over a finite field is_irreducible decides each fiber, but an
    irreducible F can still have no irreducible fiber: when p = 2 mod 3,
    cubing is a bijection of F_p, so y^3 + c always has a root and the Fermat
    cubic is never certified.  Over Q is_irreducible stops at cubics, so
    higher-degree rational inputs need assume_irreducible.
    """
    n = F.total_degree()
    if n == 1:
        return
    for v in PROJECTIVE:
        idx = PROJECTIVE.index(v)
        if all(e[idx] >= 1 for e in F.values):
            raise Reducible(f"curve is divisible by {v}")
    aff = dehomogenize(F, "Z")
    defect = squarefree_defect(aff)
    if defect is not None:
        raise Reducible(f"repeated factor detected: {defect}")
    if not (isinstance(F.field, RationalField) and n > 3):
        for fib in _full_degree_fibers(F, n):
            if fib.degree == n and is_irreducible(fib):
                return
    raise Reducible(
        "could not certify irreducibility; pass assume_irreducible for a "
        "curve known to be irreducible"
    )


def genus(
    F: MultiPoly,
    singular_points,
    assume_irreducible: bool = False,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> int:
    """Geometric genus (n-1)(n-2)/2 - sum of deltas of the singular points.

    F must be homogeneous and irreducible; singular_points must list every
    singular point of the curve (empty for a smooth curve).  A negative
    result means the list was incomplete or the curve reducible, and raises
    NegativeGenus rather than returning nonsense.
    """
    return _genus_and_deltas(F, singular_points, assume_irreducible, max_depth)[0]


def _genus_and_deltas(F: MultiPoly, singular_points, assume_irreducible: bool, max_depth: int):
    """genus() together with the delta of each singular point, in order."""
    if F.is_zero():
        raise ZeroPolynomial("genus of the zero curve")
    if F.variables != PROJECTIVE or not F.is_homogeneous():
        raise ValueError("genus expects a homogeneous polynomial in X, Y, Z")
    n = F.total_degree()
    if n < 1:
        raise ValueError("genus needs degree at least 1")
    if not assume_irreducible:
        _certify_irreducible(F)
    points = [tuple(getattr(p, "coords", p)) for p in singular_points]
    deltas = []
    # a delta is an invariant of the point, so a conjugate copies it
    for coords, i in zip(points, _orbit_reps(points, F.field)):
        if i < len(deltas):
            deltas.append(deltas[i])
            continue
        local, _ = _localize(F, coords)
        if not local.constant_term().is_zero():
            raise ValueError(f"point {[str(c) for c in coords]} is not on the curve")
        report = delta_invariant(resolve_tree(local, max_depth=max_depth), point=coords)
        deltas.append(report.delta)
    g = (n - 1) * (n - 2) // 2 - sum(deltas)
    if g < 0:
        raise NegativeGenus(
            f"genus came out {g}; the singular-point list is incomplete "
            "or the curve is reducible"
        )
    return g, deltas
