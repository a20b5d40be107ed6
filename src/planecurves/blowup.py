"""Blow-up chart transforms and infinitely near point trees.

The single chart y = x*t suffices once coordinates are suitable: every
point of the proper transform over the origin has a finite t-coordinate.
A tree node records the recentered, re-suitabilized local equations of
every tracked curve, so the blow-up step is always the same substitution.

One grower builds every tree, one depth level at a time; the kinds differ
only in which points are blown up and which exceptional points become
children:

- lead: blown up while curve 0 is singular, every root of its fiber is a
  child (resolve_tree for one curve, tracked_resolution with companions
  carried along for the adjoint condition);
- shared: blown up while both drivers pass, children are the roots of the
  gcd of their fibers (joint_tree, for intersection numbers);
- witness: as shared, plus the points where a single driver passes, until
  a level holds no shared point, one level past the shared tree
  (joint_tree(witness=True), for the AF+BG condition); the children come
  from each passing driver's own fiber factors, merged without repeats,
  which over F_q is the factorization of the fibers' product.

A resolution tree (resolve_tree) is an InfNearTree over the same nodes.

Over finite fields, tangent directions that do not exist over the current
field trigger an extension of the coefficient tower; over Q a non-rational
direction raises NonRationalPoint instead (retry over a finite field).
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import count

from .errors import (
    CommonComponent,
    DepthCapExceeded,
    HypothesisFailed,
    NonRationalPoint,
    NotSquarefree,
    NotSuitable,
    ZeroPolynomial,
)
from .fields import RationalField, UniPoly, _split_factors, roots_with_extension, uni_factor
from .fields import uni_gcd
from .poly import (
    AFFINE,
    CHART,
    MultiPoly,
    add_multiples,
    biv_gcd,
    is_suitable,
    make_suitable_many,
    squarefree_defect,
    translate,
)

DEFAULT_MAX_DEPTH = 48
JOINT_LABELS = ("C", "D", "H")


def _chart_transform(F: MultiPoly, r: int) -> MultiPoly:
    """F(x, x*t) / x^r, exact; result in variables (x, t)."""
    return MultiPoly._from_values(
        F.field, CHART, {(i + j - r, j): c for (i, j), c in F.values.items()}
    )


def blow_up_chart(F: MultiPoly) -> MultiPoly:
    """Proper transform F' with F(x, x*t) = x^r * F'(x, t).

    F must vanish at the origin and be suitable, so that F'(0, t) has
    degree exactly r and no tangent direction escapes the chart.
    """
    r = F.mult_at_origin()
    if r < 1:
        raise ValueError("blow-up center must lie on the curve (r >= 1)")
    if not is_suitable(F):
        raise NotSuitable(f"lowest form of {F} vanishes at (0, 1)")
    return _chart_transform(F, r)


def fiber_poly(Fprime: MultiPoly) -> UniPoly:
    """F'(0, t) as a univariate polynomial: the exceptional fiber."""
    terms = {j: c for (i, j), c in Fprime.values.items() if not i}
    zero = Fprime.field.raw_zero
    values = tuple([terms.get(j, zero) for j in range(max(terms, default=-1) + 1)])
    return UniPoly._from_values(Fprime.field, values, Fprime.variables[1])


def exceptional_points(Fprime: MultiPoly):
    """Roots of F'(0, t) with multiplicities, the tangent directions.

    Over a finite field the tower is extended until every root is rational;
    over Q a surviving nonlinear factor raises NonRationalPoint.
    """
    fiber = fiber_poly(Fprime)
    if fiber.is_zero():
        raise ZeroPolynomial("exceptional fiber is identically zero")
    _, roots = roots_with_extension(fiber)
    return roots


# ---------------------------------------------------------------------------
# single-curve resolution trees
# ---------------------------------------------------------------------------


def _coord_change_json(shift, lam):
    """A node's coordinate change as JSON: translate by (0, shift), then shear by lam."""
    steps = [] if shift is None else [{"kind": "translate", "a": "0", "b": str(shift)}]
    if not lam.is_zero():
        steps.append({"kind": "shear", "lambda": str(lam)})
    return steps


def _bfs(root):
    queue = deque([root])
    while queue:
        node = queue.popleft()
        yield node
        queue.extend(node.children)


class InfNearTree:
    """The resolution tree of one curve: JointNodes whose lead curve is it."""

    __slots__ = ("root", "termination")

    def __init__(self, root: JointNode, termination: str):
        self.root = root
        self.termination = termination  # "Resolved" | "DepthCapped"

    def nodes(self):
        return _bfs(self.root)

    def multiplicity_sequence(self):
        return [(n.depth, n.r) for n in self.nodes() if n.r >= 2]

    def to_json(self):
        return {"termination": self.termination, "root": self.root.to_json()}


def _check_resolvable(F: MultiPoly):
    """A resolution needs a nonzero squarefree curve through the origin."""
    if F.is_zero():
        raise ZeroPolynomial("cannot resolve the zero polynomial")
    if F.mult_at_origin() < 1:
        raise ValueError("curve does not pass through the origin")
    defect = squarefree_defect(F)
    if defect is not None:
        raise NotSquarefree(f"repeated factor detected: {defect}")


def resolve_tree(F: MultiPoly, max_depth: int = DEFAULT_MAX_DEPTH) -> InfNearTree:
    """Infinitely near tree of F at the origin.

    Nodes with r >= 2 are blown up; every exceptional point becomes a child
    (smooth ones as r = 1 leaves).  Requires squarefree input, otherwise the
    process cannot terminate.  A node still singular at max_depth is left a
    leaf and the tree is marked DepthCapped.
    """
    _check_resolvable(F)
    capped = []
    root = _grow([F], "lead", max_depth, capped=capped)
    return InfNearTree(root, "DepthCapped" if capped else "Resolved")


def to_dot(tree) -> str:
    """Graphviz rendering of a resolution or joint tree."""
    lines = ["digraph blowups {", '  node [shape=box, fontname="monospace"];']
    joint = isinstance(tree, JointTree)
    for node in tree.nodes():
        if joint:
            rs = ", ".join(f"{lab}:{r}" for lab, r in zip(tree.labels, node.rs))
            label = f"depth {node.depth}\\n{rs}"
        else:
            label = f"depth {node.depth}, r={node.r}\\n{node.local_eq}"
        lines.append(f'  n{node.id} [label="{label}"];')
        for child in node.children:
            lines.append(f"  n{node.id} -> n{child.id};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# joint trees: several curves through shared charts
# ---------------------------------------------------------------------------


class JointNode:
    """One infinitely near point shared by several tracked curves.

    Every curve reaches it through the same coordinates: the parent's chart
    transforms translated by (0, shift), then one common shear
    x -> x + shear*y (zero when no shear was needed).  A resolution tree
    is made of these nodes too, with its curve as the lead (curve 0).
    """

    __slots__ = ("id", "depth", "field", "eqs", "rs", "shift", "shear", "children")

    def __init__(self, depth, field, eqs, rs, shift, shear):
        self.id = None  # numbered in preorder once the tree is grown
        self.depth = depth
        self.field = field
        self.eqs = eqs  # tuple of transforms, one per tracked curve, shared chart
        self.rs = rs  # multiplicity of each transform at this point (0 = absent)
        self.shift = shift  # recentering root on the parent's exceptional line; None at the root
        self.shear = shear
        self.children = []

    @property
    def local_eq(self):
        """The lead curve in this node's suitable coordinates."""
        return self.eqs[0]

    @property
    def r(self):
        """The lead curve's multiplicity at this point."""
        return self.rs[0]

    def to_json(self, labels=None):
        """Every tracked curve under its label, or without labels the lead
        curve alone, as a resolution tree node."""
        out = {"id": self.id, "depth": self.depth, "field": self.field.describe()}
        if labels is None:
            out["local_eq"] = str(self.local_eq)
            out["r"] = self.r
        else:
            out["curves"] = {
                lab: {"local_eq": str(eq), "r": r}
                for lab, eq, r in zip(labels, self.eqs, self.rs)
            }
        out["shift"] = None if self.shift is None else str(self.shift)
        out["coord_change"] = _coord_change_json(self.shift, self.shear)
        out["children"] = [c.to_json(labels) for c in self.children]
        return out


class JointTree:
    __slots__ = ("root", "labels")

    def __init__(self, root: JointNode, labels):
        self.root = root
        self.labels = tuple(labels)

    def nodes(self):
        return _bfs(self.root)

    def contributions(self):
        return [(n.depth, n.rs) for n in self.nodes()]

    def to_json(self):
        return {"labels": list(self.labels), "root": self.root.to_json(self.labels)}


def _assert_no_singular_residual(Fp: MultiPoly, residuals):
    """Over Q: a nonlinear fiber factor is tolerable only at smooth points."""
    if not residuals:
        return
    g = fiber_poly(Fp)
    for part in (Fp.derivative("x"), Fp.derivative("t")):
        g = uni_gcd(g, fiber_poly(part)) if not part.is_zero() else g
    for q in residuals:
        if uni_gcd(q, g).degree >= 1:
            raise NonRationalPoint(
                f"singular infinitely near point with non-rational direction (factor {q})"
            )


def joint_tree(
    curves,
    max_depth: int = DEFAULT_MAX_DEPTH,
    labels=None,
    witness: bool = False,
) -> JointTree:
    """Shared infinitely-near tree of 2 or 3 curves at the origin.

    The first two curves drive growth: a node is expanded while both pass
    through it, and children are the exceptional points both transforms
    share.  A third curve is carried along the same charts (its multiplicity
    is reported at every node) but never influences which points appear.

    witness=True additionally materializes the points where a single driver
    passes, and keeps blowing up those where that driver is singular, until
    a level holds no shared node: one level past the deepest shared node.
    This is the point set over which the AF+BG hypothesis must be verified;
    plain intersection trees do not need it.
    """
    if not 2 <= len(curves) <= 3:
        raise ValueError("joint_tree tracks two or three curves")
    for c in curves[:2]:
        if c.is_zero():
            raise ZeroPolynomial("tracked curve is the zero polynomial")
        if c.mult_at_origin() < 1:
            raise ValueError("both driving curves must pass through the origin")
    g = biv_gcd(curves[0], curves[1])
    if g.total_degree() >= 1:
        raise CommonComponent(f"curves share the factor {g}")
    return _joint_tree(curves, max_depth, labels, witness)


def _joint_tree(curves, max_depth, labels, witness=False) -> JointTree:
    """joint_tree without its guards, for drivers known to be coprime.

    Forms that are coprime stay coprime after dehomogenizing, translating
    and extending the field, so callers that have tested the global pair
    (or have just run the guard themselves) grow the tree without
    repeating the gcd.
    """
    labels = tuple(labels) if labels is not None else JOINT_LABELS[: len(curves)]
    return JointTree(_grow(curves, "witness" if witness else "shared", max_depth), labels)


def tracked_resolution(curves, max_depth: int = DEFAULT_MAX_DEPTH, labels=None) -> JointTree:
    """Resolution tree of the first curve with companions carried along.

    Expansion is driven by the first curve alone (blown up while singular,
    every exceptional point becomes a child); the other curves only report
    their multiplicities r_Q along the same shared charts.  This is the
    structure the adjoint condition r_Q(G) >= r_Q(C) - 1 is read from.
    """
    labels = tuple(labels) if labels is not None else JOINT_LABELS[: len(curves)]
    _check_resolvable(curves[0])
    return JointTree(_grow(curves, "lead", max_depth), labels)


def _grow(curves, kind, max_depth, capped=None) -> JointNode:
    """The one tree grower: a JointNode tree of `curves` at the origin,
    grown one depth level at a time.

    kind is "lead" (blow up while curve 0 is singular, every root of its
    fiber is a child), "shared" (blow up while curves 0 and 1 both pass,
    children are the common roots of their fibers) or "witness" (shared,
    plus the points where one driver passes, blown up while that driver is
    singular).  A witness tree stops at the first level that holds no
    shared node: a driver that misses a point misses every point above it,
    so the shared nodes form a subtree at the root, and the witness tree
    ends one level past its deepest node.  Every other curve is carried
    through the same charts.  A lead node still singular at max_depth is
    appended to `capped` and left a leaf, or raises DepthCapExceeded when
    capped is None; the other kinds raise when a kept child would lie
    deeper than max_depth.  The ids are numbered in preorder once the tree
    is grown.
    """
    lead, witness = kind == "lead", kind == "witness"
    n_drivers = 1 if lead else 2
    rational = isinstance(curves[0].field, RationalField)
    root = _node(curves, 0, None)
    level = [root]
    while level:
        if witness and not any(min(n.rs[:2]) >= 1 for n in level):
            break
        below = []
        for node in level:
            drivers = node.rs[:n_drivers]
            if lead:
                expand = drivers[0] >= 2
            else:
                expand = min(drivers) >= 1 or (witness and max(drivers) >= 2)
            if not expand:
                continue
            if lead and node.depth >= max_depth:
                if capped is None:
                    raise DepthCapExceeded(
                        f"resolution exceeded max depth {max_depth}; lead curve still singular"
                    )
                capped.append(node)
                continue
            transforms = [_chart_transform(e, r) for e, r in zip(node.eqs, node.rs)]
            points = _child_points(transforms[:n_drivers], drivers, witness, rational)
            if points and node.depth >= max_depth:
                raise DepthCapExceeded(
                    f"joint tree exceeded max depth {max_depth}; transforms still meet"
                )
            for alpha in points:
                eqs = [
                    translate(t.rename(AFFINE).map_field(alpha.field), 0, alpha)
                    for t in transforms
                ]
                node.children.append(_node(eqs, node.depth + 1, alpha))
            below.extend(node.children)
        level = below
    ids = count()
    stack = [root]
    while stack:
        node = stack.pop()
        node.id = next(ids)
        stack.extend(reversed(node.children))
    return root


def _node(eqs, depth, shift) -> JointNode:
    """A node of `eqs` made suitable together, with each one's multiplicity."""
    suited, lam, field = make_suitable_many(eqs)
    rs = tuple(e.mult_at_origin() for e in suited)
    return JointNode(depth, field, tuple(suited), rs, shift, lam)


def _child_points(driver_transforms, driver_rs, witness, rational):
    """Candidate exceptional t-values for the next level, deterministic order.

    Without witness these are the roots of the gcd of the driver fibers,
    so a single (lead) driver gets every root of its own fiber.  At a
    witness node they come from each passing driver's own fiber factors,
    merged without repeats: over F_q the merged list is the factorization
    of the fibers' product, as monic factorization is unique.  Over Q only
    the linear factors are kept, once _assert_no_singular_residual has
    cleared the others.
    """
    fibers = [fiber_poly(t) for t in driver_transforms]
    if not witness or (rational and min(driver_rs) >= 1):
        # over Q this also guards a witness node where both drivers pass:
        # splitting their gcd raises NonRationalPoint on a conjugate pair of
        # points they share, which keeping only linear factors below would drop
        shared = reduce(uni_gcd, fibers)
        roots = roots_with_extension(shared)[1] if shared.degree >= 1 else []
        if not witness:
            return [alpha for alpha, _m in roots]
    merged = []
    for Fp, fib, r in zip(driver_transforms, fibers, driver_rs):
        if r < 1:
            continue
        factors = uni_factor(fib)[1]
        if rational:
            _assert_no_singular_residual(Fp, [g for g, _m in factors if g.degree >= 2])
            factors = [gm for gm in factors if gm[0].degree == 1]
        merged.extend(gm for gm in factors if all(gm[0] != h for h, _m in merged))
    return [alpha for alpha, _m in _split_factors(fibers[0].field, merged)[1]]


# ---------------------------------------------------------------------------
# the Appendix recursion: one branch, tangent direction normalized each step
# ---------------------------------------------------------------------------


def _is_pure_y_power(L: MultiPoly) -> bool:
    keys = list(L.values)
    return len(keys) == 1 and keys[0][0] == 0


def appendix_sequence(F: MultiPoly, n: int):
    """Iterate F^(i-1)(X, XY) = X^r F^(i)(X, Y - a_i X) for i = 2..n.

    F must have lowest form c*y^r.  Each stage demands a unique point of
    multiplicity r on the exceptional line; when that breaks (it must,
    for irreducible F), HypothesisFailed(stage) is raised carrying the
    stages completed so far.  Returns (stages, phi) where stages is a list
    of (i, F^(i), a_i) starting at (1, F, None) and phi(x) = sum a_i x^i.
    """
    if F.is_zero():
        raise ZeroPolynomial("appendix recursion needs a nonzero curve")
    if n < 1:
        raise ValueError("stage count must be at least 1")
    r = F.mult_at_origin()
    if r < 1:
        raise ValueError("curve does not pass through the origin")
    if not _is_pure_y_power(F.lowest_form()):
        raise ValueError("lowest form must be c*y^r; shear the input first")

    stages = [(1, F, None)]
    phi = MultiPoly.zero(F.field, AFFINE)
    if r == 1:
        # already smooth: nothing forces the process to stop, and nothing
        # interesting happens; report the trivial sequence
        return stages, phi

    cur = F
    for i in range(2, n + 1):
        Fp = _chart_transform(cur, r).rename(AFFINE)
        m = Fp.mult_at_origin()
        if m < r:
            raise _stopped(i, f"multiplicity dropped from {r} to {m}", stages, phi)
        L = Fp.lowest_form()
        a = _unique_tangent(L, r)
        if a is None:
            raise _stopped(i, "tangent cone is not a single r-fold line", stages, phi)
        cur = add_multiples(Fp, (1, a, 0))
        phi = phi.map_field(Fp.field) + MultiPoly(Fp.field, AFFINE, {(i, 0): a})
        stages.append((i, cur, a))
    return stages, phi


def _stopped(stage: int, reason: str, stages, phi) -> HypothesisFailed:
    # built here and raised unbound: an exception held in a local of the
    # raising frame would make a cycle through its own traceback
    err = HypothesisFailed(stage, reason)
    err.stages, err.phi = stages, phi
    return err


def _unique_tangent(L: MultiPoly, r: int):
    """The scalar a with L = c*(y - a*x)^r, or None."""
    coeffs = [L.coeff((r - j, j)) for j in range(r + 1)]
    u = UniPoly(L.field, coeffs, "t")
    if u.degree != r:
        return None
    _unit, factors = uni_factor(u)
    if len(factors) != 1:
        return None
    fac, mult = factors[0]
    if mult != r or fac.degree != 1:
        return None
    return -fac.coeff(0)
