"""Projective common points, the local AF+BG condition, and the solver.

Common points of two coprime projective curves come from eliminating Z by
a resultant after moving [0:0:1] off both curves, factoring the resulting
binary form into directions, and intersecting the two fibers over each
direction.  The shifted curves have constant Z-leading coefficients, so
the resultant vanishes exactly when they share a component, and that is
the coprimality test: no gcd runs.  Frobenius over the field of the shift
maps directions, fibers and their common roots to conjugate ones, so only
the first listed direction of each orbit intersects its fibers, and its
conjugates take the Frobenius images of its roots.  Field extensions are
threaded sequentially, so every point lives somewhere along a single tower
and points can be compared.

The AF+BG machinery has two independent halves: check_condition walks
joint blow-up trees at every common point of F and G and verifies the
multiplicity inequality r_H >= r_F + r_G - 1 at each infinitely near
point, while solve_af_bg sets up the linear system on coefficients of A
and B directly and solves it exactly.  Agreement of the two halves on
both positive and negative instances is what the test suite leans on.

Local results are invariants of a point: Frobenius over the base field
fixes F, G and H, maps common points to common points and keeps every
local number (Fulton, Algebraic Curves, section 3.3).  So bezout_check
computes once per Frobenius orbit, at its first listed point, and each
later conjugate shares that report, rebuilt with its own point and field,
whenever the report's rows show no sibling order (at most one distinct row
per depth); sibling order follows the text of the roots, which Frobenius
does not keep, so any other conjugate, and every check_condition point
(_orderless), is computed afresh.
"""

from __future__ import annotations

from itertools import count

from .blowup import DEFAULT_MAX_DEPTH, _joint_tree
from .errors import (
    CommonComponent,
    IncompatibleFields,
    InternalError,
    Reducible,
    ZeroPolynomial,
)
from .fields import (
    Field,
    RationalField,
    Scalar,
    UniPoly,
    _join,
    _joined,
    _trim,
    roots_with_extension,
    uni_gcd,
)
from .frobenius import _frobenius
from .invariants import IntersectionReport, _intersection_multiplicity, _localize, _orbit_reps
from .linalg import solve_linear
from .poly import (
    MultiPoly,
    PROJECTIVE,
    _first_fit,
    _shear_candidates,
    add_multiples,
    biv_coeffs,
    biv_gcd,
    dehomogenize,
    resultant_biv,
)


class ProjPoint:
    """Projective point with the first nonzero coordinate scaled to 1."""

    __slots__ = ("coords", "field")

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("projective points have three coordinates")
        field = _join(*coords)
        coords = tuple(field.embed(c) for c in coords)
        pivot = next((c for c in coords if not c.is_zero()), None)
        if pivot is None:
            raise ValueError("all coordinates are zero")
        div = field.divider(pivot.value)
        self.coords = tuple(Scalar(field, div(c.value)) for c in coords)
        self.field = field

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        try:
            return all(a == b for a, b in zip(self.coords, other.coords))
        except IncompatibleFields:
            return False

    def __repr__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"

    def to_json(self):
        return {"coords": [str(c) for c in self.coords], "field": self.field.describe()}


def _strip_var(F: MultiPoly, idx: int):
    # F = v^k * rest with v the idx-th variable and rest not divisible by v
    k = min(e[idx] for e in F.values)
    if k == 0:
        return F, 0
    values = {
        tuple(ei - k if i == idx else ei for i, ei in enumerate(e)): c
        for e, c in F.values.items()
    }
    return MultiPoly._from_values(F.field, F.variables, values), k


def _strip_z(F: MultiPoly, G: MultiPoly):
    """(F', kF, G', kG) with F = Z^kF * F' and G = Z^kG * G', where Z
    divides neither F' nor G'; CommonComponent when Z divides both."""
    (Fh, kF), (Gh, kG) = _strip_var(F, 2), _strip_var(G, 2)
    if kF >= 1 and kG >= 1:
        raise CommonComponent("curves share the component Z")
    return Fh, kF, Gh, kG


def _assert_coprime_forms(F: MultiPoly, G: MultiPoly):
    """Raise CommonComponent when two forms share a nonconstant factor."""
    Fh, _, Gh, _ = _strip_z(F, G)
    if Fh.total_degree() >= 1 and Gh.total_degree() >= 1:
        if biv_gcd(dehomogenize(Fh, "Z"), dehomogenize(Gh, "Z")).total_degree() >= 1:
            raise CommonComponent("curves share a component")


def _pair_candidates(field: Field, curves):
    """Pairs (a, b) to try for a point [a : b : 1] off the Z-free forms in curves."""
    if isinstance(field, RationalField):
        def gen():
            # pairs by antidiagonals of the integer order 0, 1, -1, 2, -2, ...
            ints = _shear_candidates(field)
            cands = []
            for s in count(0):
                cands.append(next(ints))
                for i in range(s + 1):
                    yield cands[i], cands[s - i]
        return gen()

    def columns():
        rows = None
        for a in field.elements():
            bs = field.elements()
            yield a, next(bs)
            # when the line X = aZ lies on a curve every (a, b) fails, and the
            # rest of the column would be scanned to the end of a large field
            rows = rows or [biv_coeffs(dehomogenize(P, "Z"), "y") for P in curves]
            if all(any(not r.eval(a).is_zero() for r in rs) for rs in rows):
                yield from ((a, b) for b in bs)
    return columns()


def _z_fiber(P: MultiPoly, x0: Scalar, y0: Scalar) -> UniPoly:
    # P(x0, y0, Z) as a univariate polynomial in Z, summed on raw values
    field = _join(P, x0, y0)
    x, y = field.embed(x0).value, field.embed(y0).value
    add, mul = field.add, field.mul
    coeffs = [field.raw_zero] * (P.degree_in("Z") + 1)
    for (i, j, k), c in P.map_field(field).values.items():
        for v in (x,) * i + (y,) * j:
            c = mul(c, v)
        coeffs[k] = add(coeffs[k], c)
    return UniPoly._from_values(field, _trim(coeffs), "Z")


def _directions(u: UniPoly, deg: int, fld: Field):
    """Zeros [x : y] of a binary form of degree deg, given u(t) = form(1, t):
    [1 : t] at each root t of u, and [0 : 1] when deg u < deg."""
    points = []
    if u.degree >= 1:
        fld, roots = roots_with_extension(u.map_field(fld))
        points = [(fld.one(), t) for t, _ in roots]
    if u.degree < deg:
        points.append((fld.zero(), fld.one()))
    return points, fld


def find_common_points(F: MultiPoly, G: MultiPoly):
    """All common projective zeros of two coprime forms, as ProjPoints.

    Over Q a common point with irrational coordinates raises
    NonRationalPoint; over a finite field the coefficient tower grows as
    needed and each returned point carries the field it lives in.
    """
    if F.is_zero() or G.is_zero():
        raise ZeroPolynomial("common points with the zero curve")
    if F.variables != PROJECTIVE or G.variables != PROJECTIVE:
        raise ValueError("common points expect homogeneous polynomials in X, Y, Z")
    if not (F.is_homogeneous() and G.is_homogeneous()):
        raise ValueError("common points expect homogeneous polynomials in X, Y, Z")
    if F.total_degree() < 1 or G.total_degree() < 1:
        raise ValueError("curves must have degree at least 1")
    fld, (F, G) = _joined(F, G)
    # a component other than Z shared by the forms shows as a zero resultant
    Fh, kF, Gh, kG = _strip_z(F, G)
    points = []

    def add(raw):
        p = ProjPoint(raw)
        if not any(p == q for q in points):
            points.append(p)

    # the component Z = 0 of one input meets the other in its directions
    if Fh.total_degree() >= 1 and Gh.total_degree() >= 1:
        fld = _common_points_core(Fh, Gh, fld, add)
    for k, P in ((kF, G), (kG, F)):
        if k >= 1:
            # P(1, t, 0): the zeros of P on the line Z = 0
            deg, zero = P.total_degree(), P.field.raw_zero
            row = [P.values.get((deg - j, j, 0), zero) for j in range(deg + 1)]
            dirs, fld = _directions(UniPoly._from_values(P.field, _trim(row), "t"), deg, fld)
            for x0, y0 in dirs:
                add((x0, y0, fld.zero()))
    return points


def _common_points_core(F: MultiPoly, G: MultiPoly, fld: Field, add):
    """Z-free forms: eliminate Z, factor directions, intersect fibers.

    CommonComponent when the forms share a component.  Frobenius over the
    field of the shift (a, b) fixes the shifted forms, so it maps the fibers
    over a direction [1 : t] to those over [1 : t^q] and their common roots
    to the common roots there: only the first listed direction of each
    orbit computes its fibers, their gcd and its roots, and each conjugate
    takes the images of those roots, in the text order of
    roots_with_extension.
    """
    n, m = F.total_degree(), G.total_degree()

    # move [0:0:1] off both curves so the Z-leading coefficients are constants
    one = fld.one()

    def off_both(ab):
        point = {"X": ab[0], "Y": ab[1], "Z": one}
        return not F.evaluate(point).is_zero() and not G.evaluate(point).is_zero()

    (a, b), fld = _first_fit(fld, lambda k: _pair_candidates(k, (F, G)), off_both)
    # a and b lie in fld, so the shift maps F and G into it
    Fp, Gp = (add_multiples(P, (0, a, 2), (1, b, 2)) for P in (F, G))
    if Fp.coeff((0, 0, n)).is_zero() or Gp.coeff((0, 0, m)).is_zero():
        raise InternalError("the shifted curves still pass through [0 : 0 : 1]")

    # X = 1 leaves (Y, Z) as the bivariate pair (t, Z)
    Ft, Gt = (dehomogenize(P, "X").rename(("t", "Z")) for P in (Fp, Gp))
    R1 = resultant_biv(Ft, Gt, main="Z")
    # the Z-leading coefficients are nonzero constants, so R1 vanishes
    # exactly when the forms share a component
    if R1.is_zero():
        raise CommonComponent("curves share a component")
    base = fld
    directions, fld = _directions(R1, n * m, fld)
    frob = _frobenius(fld, base)
    # the roots over each conjugate direction still to come, by its t
    images = {}
    for x0, y0 in directions:
        roots = images.pop(y0.value, None)
        if roots is None:
            h = uni_gcd(_z_fiber(Fp, x0, y0), _z_fiber(Gp, x0, y0))
            if h.degree < 1:
                raise InternalError("no common point over a root of the resultant")
            fld, roots = roots_with_extension(h.map_field(fld))
            roots = [z for z, _ in roots]
            t = frob(y0.value)
            if t != y0.value:
                sigma = _frobenius(fld, base)
                values = [z.value for z in roots]
                while t != y0.value:
                    values = [sigma(v) for v in values]
                    images[t] = sorted([Scalar(fld, v) for v in values], key=str)
                    t = frob(t)
        for z0 in roots:
            z0 = fld.embed(z0)
            add((x0 + a * z0, y0 + b * z0, z0))
    return fld


def find_singular_points(F: MultiPoly):
    """Singular points of a projective curve, via resultant elimination.

    Common zeros of one coprime pair among the curve and its partials are
    computed and then filtered through all four equations.  If every
    partial derivative vanishes identically the curve is a p-th power and
    Reducible is raised.
    """
    if F.is_zero():
        raise ZeroPolynomial("singular points of the zero curve")
    if F.variables != PROJECTIVE or not F.is_homogeneous():
        raise ValueError("singular points expect a homogeneous polynomial in X, Y, Z")
    if F.total_degree() < 1:
        raise ValueError("curves must have degree at least 1")
    if F.total_degree() == 1:
        return []
    parts = [F.derivative(v) for v in PROJECTIVE]
    if all(p.is_zero() for p in parts):
        raise Reducible("every partial vanishes; the curve is a p-th power")
    system = [F] + parts
    cands = None
    pairs = [(1, 2), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3)]
    for i, j in pairs:
        P, Q = system[i], system[j]
        if P.is_zero() or Q.is_zero():
            continue
        try:
            cands = find_common_points(P, Q)
            break
        except CommonComponent:
            continue
    if cands is None:
        raise CommonComponent("all pairs of defining equations share components")
    out = []
    for p in cands:
        vals = {"X": p.coords[0], "Y": p.coords[1], "Z": p.coords[2]}
        if all(eq.evaluate(vals).is_zero() for eq in system):
            out.append(p)
    return out


class PointCondition:
    """Result of the multiplicity inequality at one common point."""

    __slots__ = ("point", "chart", "ok", "entries", "failure_depth")

    def __init__(self, point, chart, ok, entries, failure_depth):
        self.point = point
        self.chart = chart
        self.ok = ok
        self.entries = entries
        self.failure_depth = failure_depth

    def to_json(self):
        return {
            "point": self.point.to_json(),
            "chart": self.chart,
            "ok": self.ok,
            "nodes": [
                {"depth": d, "r_F": rf, "r_G": rg, "r_H": rh, "margin": mg}
                for d, rf, rg, rh, mg in self.entries
            ],
            "failure_depth": self.failure_depth,
        }


class ConditionReport:
    __slots__ = ("ok", "points")

    def __init__(self, ok, points):
        self.ok = ok
        self.points = points

    def to_json(self):
        return {"ok": self.ok, "points": [p.to_json() for p in self.points]}


def check_condition(
    F: MultiPoly, G: MultiPoly, H: MultiPoly, max_depth: int = DEFAULT_MAX_DEPTH
) -> ConditionReport:
    """Verify r_H >= r_F + r_G - 1 at every infinitely near common point.

    At each common point of F and G a joint tree is grown through the
    points where at least one of F, G still passes, and the inequality is
    read off at every node.  A curve H passing the check at all points
    satisfies the local hypothesis of the AF+BG construction.
    """
    for P in (F, G, H):
        if P.is_zero():
            raise ZeroPolynomial("check_condition needs nonzero curves")
        if P.variables != PROJECTIVE or not P.is_homogeneous():
            raise ValueError("check_condition expects homogeneous polynomials in X, Y, Z")
    fld, (F, G, H) = _joined(F, G, H)
    report_points = []
    # find_common_points tests F and G for a common component, so the
    # local trees skip the gcd
    points = find_common_points(F, G)
    # each Frobenius orbit must be listed whole
    _orbit_reps([p.coords for p in points], fld, complete=True)
    for p in points:
        fL, chart = _localize(F, p.coords)
        gL, _ = _localize(G, p.coords)
        hL, _ = _localize(H, p.coords)
        jt = _joint_tree(
            [fL, gL, hL], max_depth=max_depth, labels=("F", "G", "H"), witness=True
        )
        entries = []
        failure_depth = None
        for node in jt.nodes():
            rf, rg, rh = node.rs
            margin = rh - (rf + rg - 1)
            entries.append((node.depth, rf, rg, rh, margin))
            if margin < 0 and failure_depth is None:
                failure_depth = node.depth
        ok = failure_depth is None
        report_points.append(PointCondition(p, chart, ok, entries, failure_depth))
    return ConditionReport(all(pc.ok for pc in report_points), report_points)


def _orderless(rows):
    """True when rows of (depth, ...) show no sibling order: at most one
    distinct row per depth, so every conjugate point lists the same rows.
    Only bezout_check asks: a check_condition witness tree grows until no
    node has both F and G passing, so the deepest node where both pass has
    a child with r_G = 0 and another with r_F = 0, and it never passes."""
    return len({row[0] for row in rows}) == len(set(rows))


class NoetherCertificate:
    """Outcome of the AF+BG solver: cofactors or a refusal.

    status is "Solved" with A, B and a recomputed residual (always zero for
    a solved instance), or "NoSolution" when the exact linear system is
    inconsistent.  The JSON keeps the schema's "point" and "depth" keys,
    always null.
    """

    __slots__ = ("status", "A", "B", "residual")

    def __init__(self, status, A=None, B=None, residual=None):
        self.status = status
        self.A = A
        self.B = B
        self.residual = residual

    def to_json(self):
        return {
            "status": self.status,
            "A": None if self.A is None else str(self.A),
            "B": None if self.B is None else str(self.B),
            "residual": None if self.residual is None else str(self.residual),
            "point": None,
            "depth": None,
        }


def _monomials(deg: int):
    # every exponent triple of total degree deg, X-heaviest first
    return [
        (i, j, deg - i - j)
        for i in range(deg, -1, -1)
        for j in range(deg - i, -1, -1)
    ]


def solve_af_bg(
    F: MultiPoly, G: MultiPoly, H: MultiPoly, free_values=None
) -> NoetherCertificate:
    """Solve H = A*F + B*G exactly by linear algebra on coefficients.

    Unknowns are the coefficients of A (degree deg H - deg F) followed by
    the coefficients of B (degree deg H - deg G), each block in the
    _monomials order; free_values pins chosen free columns by that index.
    The returned residual is recomputed from A and B independently of the
    solver and must be zero on a Solved certificate.
    """
    for P in (F, G, H):
        if P.is_zero():
            raise ZeroPolynomial("solve_af_bg needs nonzero curves")
        if P.variables != PROJECTIVE or not P.is_homogeneous():
            raise ValueError("solve_af_bg expects homogeneous polynomials in X, Y, Z")
    fld, (F, G, H) = _joined(F, G, H)
    _assert_coprime_forms(F, G)
    c, d, e = F.total_degree(), G.total_degree(), H.total_degree()
    mons_A = _monomials(e - c) if e >= c else []
    mons_B = _monomials(e - d) if e >= d else []
    if not mons_A and not mons_B:
        return NoetherCertificate("NoSolution")
    # row t, column u of A's block holds F's coefficient of t - u: fill each
    # column from the terms of F*x^u (G*x^v for B's), every other cell zero
    targets = {t: i for i, t in enumerate(_monomials(e))}
    zero = fld.zero()
    rows = [[zero] * (len(mons_A) + len(mons_B)) for _ in targets]
    F_terms, G_terms, H_terms = F.terms, G.terms, H.terms
    columns = [(F_terms, u) for u in mons_A] + [(G_terms, v) for v in mons_B]
    for col, (terms, (p, q, r)) in enumerate(columns):
        for (i, j, k), s in terms.items():
            rows[targets[i + p, j + q, k + r]][col] = s
    rhs = [H_terms.get(t, zero) for t in targets]
    sol = solve_linear(rows, rhs, fld, free_values=free_values)
    if sol is None:
        return NoetherCertificate("NoSolution")
    nA = len(mons_A)
    A = MultiPoly(fld, PROJECTIVE, dict(zip(mons_A, sol[:nA])))
    B = MultiPoly(fld, PROJECTIVE, dict(zip(mons_B, sol[nA:])))
    residual = H - A * F - B * G
    if not residual.is_zero():
        raise InternalError("H - A*F - B*G is not zero")
    return NoetherCertificate("Solved", A=A, B=B, residual=residual)


class BezoutReport:
    """Sum of local intersection numbers against the degree product."""

    __slots__ = ("total", "expected", "ok", "entries")

    def __init__(self, total, expected, entries):
        self.total = total
        self.expected = expected
        self.ok = total == expected
        self.entries = entries

    def to_json(self):
        return {
            "total": self.total,
            "expected": self.expected,
            "ok": self.ok,
            "points": [
                {"point": p.to_json(), "chart": chart, "multiplicity": rep.to_json()}
                for p, chart, rep in self.entries
            ],
        }


def bezout_check(
    F: MultiPoly, G: MultiPoly, max_depth: int = DEFAULT_MAX_DEPTH
) -> BezoutReport:
    """Sum local intersection numbers over all common points of F and G.

    Each local number is computed through a joint tree and cross-checked
    against the Fulton oracle at the first listed point of each Frobenius
    orbit; a later conjugate shares that report, with its own point and
    field, unless the contributions show a sibling order.  The total is
    compared with deg F * deg G.  Any mismatch survives into the report
    rather than being patched over.
    """
    if F.is_zero() or G.is_zero():
        raise ZeroPolynomial("Bezout with the zero curve")
    fld, (F, G) = _joined(F, G)
    entries = []
    # find_common_points tests F and G for a common component, so the
    # local numbers skip the gcd
    points = find_common_points(F, G)
    for p, i in zip(points, _orbit_reps([p.coords for p in points], fld, complete=True)):
        if i < len(entries) and _orderless(entries[i][2].contributions):
            _, chart, rep = entries[i]
            origin = (p.field.zero(), p.field.zero())
            rep = IntersectionReport(
                origin, p.field, rep.contributions, rep.noether_sum, rep.oracle_value
            )
        else:
            fL, chart = _localize(F, p.coords)
            gL, _ = _localize(G, p.coords)
            rep = _intersection_multiplicity(fL, gL, max_depth)
        entries.append((p, chart, rep))
    total = sum(rep.noether_sum for _, _, rep in entries)
    return BezoutReport(total, F.total_degree() * G.total_degree(), entries)
