"""The level-by-level tree grower against the recursive one it replaced.

The reference below is the earlier grower, kept as it was: a recursive
builder that numbers the nodes as it creates them, a witness tree grown
from the root again after a full shared tree has supplied its depth, and
resolution trees copied node by node into a single-curve node class.  Both
growers must print the same JSON for every tree, or raise the same
exception class.
"""

import operator
from functools import reduce
from itertools import count

import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

from planecurves import blowup
from planecurves.blowup import (
    DEFAULT_MAX_DEPTH,
    JOINT_LABELS,
    _assert_no_singular_residual,
    _chart_transform,
    _check_resolvable,
    _coord_change_json,
    _joint_tree,
    fiber_poly,
    joint_tree,
    resolve_tree,
    tracked_resolution,
)
from planecurves.cli import main
from planecurves.errors import CommonComponent, CurveError, DepthCapExceeded, ZeroPolynomial
from planecurves.fields import RationalField, roots_with_extension, uni_factor, uni_gcd
from planecurves.noether import _localize, check_condition, find_common_points
from planecurves.poly import AFFINE, MultiPoly, biv_gcd, make_suitable_many, translate

from .helpers import F3, F5, F7, F9, QQ, aff, corpus, field_by_name, hom, patch_everywhere

# ---- the reference: the recursive grower and its two-pass witness tree ----


class _RefNode:
    def __init__(self, id, depth, field, eqs, rs, shift, shear):
        self.id = id
        self.depth = depth
        self.field = field
        self.eqs = eqs
        self.rs = rs
        self.shift = shift
        self.shear = shear
        self.children = []

    def to_json(self, labels):
        return {
            "id": self.id,
            "depth": self.depth,
            "field": self.field.describe(),
            "curves": {
                lab: {"local_eq": str(eq), "r": r}
                for lab, eq, r in zip(labels, self.eqs, self.rs)
            },
            "shift": None if self.shift is None else str(self.shift),
            "coord_change": _coord_change_json(self.shift, self.shear),
            "children": [c.to_json(labels) for c in self.children],
        }


class _RefInfNearNode:
    def __init__(self, id, depth, field, local_eq, r, shift, shear):
        self.id = id
        self.depth = depth
        self.field = field
        self.local_eq = local_eq
        self.r = r
        self.shift = shift
        self.shear = shear
        self.children = []

    def to_json(self):
        return {
            "id": self.id,
            "depth": self.depth,
            "field": self.field.describe(),
            "local_eq": str(self.local_eq),
            "r": self.r,
            "shift": None if self.shift is None else str(self.shift),
            "coord_change": _coord_change_json(self.shift, self.shear),
            "children": [c.to_json() for c in self.children],
        }


def _ref_inf_near(node):
    out = _RefInfNearNode(
        node.id, node.depth, node.field, node.eqs[0], node.rs[0], node.shift, node.shear
    )
    out.children = [_ref_inf_near(c) for c in node.children]
    return out


def _ref_max_depth(node):
    return max([node.depth] + [_ref_max_depth(c) for c in node.children])


def _ref_grow(curves, kind, max_depth, capped=None, depth_limit=None):
    return _RefGrower(kind, max_depth, capped, depth_limit, curves[0].field).build(
        list(curves), 0, None
    )


class _RefGrower:
    def __init__(self, kind, max_depth, capped, depth_limit, field):
        self.ids = count()
        self.lead = kind == "lead"
        self.witness = kind == "witness"
        self.n_drivers = 1 if self.lead else 2
        self.rational = isinstance(field, RationalField)
        self.max_depth = max_depth
        self.capped = capped
        self.depth_limit = depth_limit

    def build(self, eqs, depth, shift):
        lead, witness = self.lead, self.witness
        n_drivers, max_depth = self.n_drivers, self.max_depth
        suited, lam, field = make_suitable_many(eqs)
        rs = tuple(e.mult_at_origin() if e.constant_term().is_zero() else 0 for e in suited)
        node = _RefNode(next(self.ids), depth, field, tuple(suited), rs, shift, lam)

        drivers = rs[:n_drivers]
        if lead:
            expand = rs[0] >= 2
        else:
            expand = all(r >= 1 for r in drivers) or (witness and any(r >= 2 for r in drivers))
        if not expand or (self.depth_limit is not None and depth >= self.depth_limit):
            return node
        if lead and depth >= max_depth:
            if self.capped is None:
                raise DepthCapExceeded("lead curve still singular")
            self.capped.append(node)
            return node

        transforms = [_chart_transform(e, r) for e, r in zip(suited, rs)]
        for alpha in _ref_child_points(transforms[:n_drivers], drivers, witness, self.rational):
            child_eqs = [
                translate(t.rename(AFFINE).map_field(alpha.field), 0, alpha)
                for t in transforms
            ]
            if depth >= max_depth:
                raise DepthCapExceeded("transforms still meet")
            node.children.append(self.build(child_eqs, depth + 1, alpha))
        return node


def _rational_fiber_roots(fiber):
    """Rational roots plus the leftover nonlinear irreducible factors (Q base)."""
    roots = []
    residuals = []
    _unit, factors = uni_factor(fiber)
    for fac, mult in factors:
        if fac.degree == 1:
            roots.append((-fac.coeff(0), mult))
        else:
            residuals.append(fac)
    return roots, residuals


def _ref_child_points(driver_transforms, driver_rs, witness, rational):
    fibers = [fiber_poly(t) for t in driver_transforms]
    if not witness:
        shared = reduce(uni_gcd, fibers)
        if shared.degree < 1:
            return []
        _, roots = roots_with_extension(shared)
        return [alpha for alpha, _m in roots]
    if rational:
        points = []
        for Fp, fib, r in zip(driver_transforms, fibers, driver_rs):
            if r < 1:
                continue
            roots, residuals = _rational_fiber_roots(fib)
            _assert_no_singular_residual(Fp, residuals)
            points.extend(alpha for alpha, _m in roots)
        seen = []
        for alpha in sorted(points, key=str):
            if not any(alpha == s for s in seen):
                seen.append(alpha)
        return seen
    product = None
    for fib, r in zip(fibers, driver_rs):
        if r < 1:
            continue
        product = fib if product is None else product * fib
    if product is None or product.degree < 1:
        return []
    _, roots = roots_with_extension(product)
    return [alpha for alpha, _m in roots]


def ref_resolve_json(F, max_depth):
    _check_resolvable(F)
    capped = []
    root = _ref_grow([F], "lead", max_depth, capped=capped)
    termination = "DepthCapped" if capped else "Resolved"
    return {"termination": termination, "root": _ref_inf_near(root).to_json()}


def ref_unguarded_joint_json(curves, max_depth, witness):
    labels = JOINT_LABELS[: len(curves)]
    root = _ref_grow(curves, "shared", max_depth)
    if witness:
        limit = _ref_max_depth(root) + 1
        root = _ref_grow(curves, "witness", max_depth, depth_limit=limit)
    return {"labels": list(labels), "root": root.to_json(labels)}


def ref_joint_json(curves, max_depth, witness):
    for c in curves[:2]:
        if c.is_zero():
            raise ZeroPolynomial("tracked curve is the zero polynomial")
        if c.mult_at_origin() < 1:
            raise ValueError("both driving curves must pass through the origin")
    if biv_gcd(curves[0], curves[1]).total_degree() >= 1:
        raise CommonComponent("shared factor")
    return ref_unguarded_joint_json(curves, max_depth, witness)


def ref_tracked_json(curves, max_depth):
    labels = JOINT_LABELS[: len(curves)]
    _check_resolvable(curves[0])
    root = _ref_grow(curves, "lead", max_depth)
    return {"labels": list(labels), "root": root.to_json(labels)}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CurveError, ValueError) as e:
        return type(e)


def assert_same(reference, grown):
    """Equal JSON, or the exception class the reference raised."""
    want = _outcome(reference)
    got = _outcome(lambda: grown().to_json())
    assert got == want


# ---- random curves through the origin ----

_F9 = F9()
FIELDS = {
    "Q": (QQ, [QQ.scalar(c) for c in (-3, -2, -1, 1, 2, 3)]),
    "F_5": (F5, [F5.scalar(c) for c in range(1, 5)]),
    "F_7": (F7, [F7.scalar(c) for c in range(1, 7)]),
    "F_9": (_F9, [c for c in _F9.elements() if not c.is_zero()]),
}
EXPONENTS = [(i, j) for i in range(4) for j in range(4 - i) if i + j]


@st.composite
def branches(draw, field, coeffs):
    """A curve of degree at most 3 through the origin."""
    chosen = draw(st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=4, unique=True))
    return MultiPoly(field, AFFINE, {e: draw(st.sampled_from(coeffs)) for e in chosen})


@st.composite
def curves(draw, field, coeffs):
    """A product of one to three branches, so often singular at the origin."""
    parts = draw(st.lists(branches(field, coeffs), min_size=1, max_size=3))
    return reduce(operator.mul, parts)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_level_grower_matches_the_recursive_one(name):
    field, coeffs = FIELDS[name]
    seen = {"resolved": 0, "raised": 0}

    @seed(2002)
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        curves(field, coeffs),
        curves(field, coeffs),
        branches(field, coeffs),
        st.sampled_from([2, 4, DEFAULT_MAX_DEPTH]),
    )
    def check(F, G, H, max_depth):
        if biv_gcd(F, G).total_degree() >= 1:
            reject()  # joint_tree's guard is shared code; both sides raise
        assert_same(lambda: ref_resolve_json(F, max_depth), lambda: resolve_tree(F, max_depth))
        assert_same(
            lambda: ref_tracked_json([F, G], max_depth),
            lambda: tracked_resolution([F, G], max_depth),
        )
        for tracked in ([F, G], [F, G, H]):
            for witness in (False, True):
                assert_same(
                    lambda: ref_joint_json(tracked, max_depth, witness),
                    lambda: joint_tree(tracked, max_depth, witness=witness),
                )
        outcome = _outcome(lambda: ref_joint_json([F, G, H], max_depth, True))
        seen["raised" if isinstance(outcome, type) else "resolved"] += 1

    check()
    assert seen["resolved"] >= 20, seen


HAND_PICKED = [
    # a conjugate pair of points both drivers share: NonRationalPoint over Q
    ("y^2+x^2+x^3", "y^2+x^2+x^3+x^2*y", "x*y"),
    # conjugate directions at a singular point that only F passes
    ("(y^2+x^2)^2+x^6", "y-x", "x"),
    ("y^2-x^3", "y", "x*y"),
    ("(y^2-x^3)*(y-x)", "y^2-x^5", "y"),
    ("y^3-x^7", "(y-x^2)*(y+x^2)", "x^2"),
    # driver fibers sharing the factor t^2+1 (irreducible mod 3 and mod 7),
    # each with factors of its own: the merged factor lists drop the repeat
    ("y^2+x^2+x^3", "(y^2+x^2)*(y-x)+x^4", "x*y"),
    ("(y^2+x^2)*(y-x)+x^5", "(y^2+x^2)*(y+x)+x^5", "y"),
]


@pytest.mark.parametrize("field", [QQ, F3, F7], ids=["Q", "F_3", "F_7"])
@pytest.mark.parametrize("texts", HAND_PICKED, ids="~".join)
def test_hand_picked_trees_match(field, texts):
    F, G, H = (aff(t, field) for t in texts)
    assert_same(lambda: ref_resolve_json(F, DEFAULT_MAX_DEPTH), lambda: resolve_tree(F))
    assert_same(
        lambda: ref_tracked_json([F, G, H], DEFAULT_MAX_DEPTH),
        lambda: tracked_resolution([F, G, H]),
    )
    for witness in (False, True):
        assert_same(
            lambda: ref_joint_json([F, G, H], DEFAULT_MAX_DEPTH, witness),
            lambda: joint_tree([F, G, H], witness=witness),
        )


def _corpus_triple_points():
    for t in corpus()["noether_triples"]:
        fld = field_by_name(t["field"])
        F, G, H = (hom(t[k], fld) for k in "FGH")
        for p in find_common_points(F, G):
            yield pytest.param(
                _localize((F, G, H), p.coords)[0],
                id=f"{t['F']}~{t['G']}~{t['H']}~{t['field']} at {p}",
            )


@pytest.mark.parametrize("local", list(_corpus_triple_points()))
def test_corpus_witness_trees_match_the_two_pass_ones(local):
    assert_same(
        lambda: ref_unguarded_joint_json(local, DEFAULT_MAX_DEPTH, True),
        lambda: _joint_tree(local, DEFAULT_MAX_DEPTH, None, witness=True),
    )


# ---- one growth per witness tree ----


def test_check_condition_grows_one_tree_per_common_point(monkeypatch):
    grown = []
    original = blowup._grow

    def spy(curves, kind, *args, **kwargs):
        grown.append(kind)
        return original(curves, kind, *args, **kwargs)

    monkeypatch.setattr(blowup, "_grow", spy)
    F, G, H = hom("Y^2*Z-X^3"), hom("Y*Z-X^2"), hom("X*Y")
    points = find_common_points(F, G)
    assert len(points) == 3
    check_condition(F, G, H)
    assert grown == ["witness"] * len(points)


def test_witness_children_factor_each_driver_fiber_alone(monkeypatch):
    # a conic pair over F_101 built as the benchmark's proj_tower builds its
    # p:101 triples: G(t, t^2, 1) = (t^2-2)(t-1)(t-2), and 2 is a
    # non-residue mod 101, so two of the four transversal points lie over
    # F_(101^2) and the trees grow over it; every polynomial factored for a
    # witness node's children must be one passing driver's fiber, of degree
    # at most that driver's r
    F101 = field_by_name("p:101")
    F, G = hom("Y*Z-X^2", F101), hom("Y^2-3*X*Y+6*X*Z-4*Z^2", F101)
    H = hom("X", F101) * F + hom("Y+Z", F101) * G
    current, factored = [], []  # the passing drivers' fibers at the node expanded
    child_points, original = blowup._child_points, uni_factor

    def spy_child_points(eqs, rs, witness, rational):
        # the node equations of the drivers; their fibers are those of the
        # chart transforms, built here on the reference's path
        if witness:
            current[:] = [
                (fiber_poly(_chart_transform(e, r)), r) for e, r in zip(eqs, rs) if r >= 1
            ]
        try:
            return child_points(eqs, rs, witness, rational)
        finally:
            current.clear()

    def spy_factor(f, *args, **kwargs):
        if current:
            factored.append((f, list(current)))
        return original(f, *args, **kwargs)

    monkeypatch.setattr(blowup, "_child_points", spy_child_points)
    patch_everywhere(monkeypatch, original, spy_factor)
    assert check_condition(F, G, H).ok
    for f, drivers in factored:
        assert any(f == fib and f.degree <= r for fib, r in drivers), f
    # both drivers' fibers at each of the four points, all over F_(101^2)
    assert len(factored) == 8
    assert {f.field.order() for f, _ in factored} == {101**2}


def test_shallowest_failure_is_reported_first(capsys):
    # two conjugate pairs of directions in different subtrees: t^2+1 is the
    # fiber of a depth-2 point over t = 0, t^2+2 that of the depth-1 point
    # t = 1; growing level by level meets the shallower one first, where
    # the recursive grower met the first one in preorder
    code = main(["resolve", "(y^2+x^6)*((y-x)^2+2*x^4)"])
    _, err = capsys.readouterr()
    assert code == 3
    assert err.splitlines()[0] == "error: non-rational point: t^2+2"
