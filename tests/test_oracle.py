"""Fulton's oracle on its own: independent of the blow-up code, and in
agreement with the joint-tree sum and the resultant order on random pairs."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

import planecurves
from planecurves import blowup
from planecurves.blowup import joint_tree
from planecurves.errors import CommonComponent, NonRationalPoint
from planecurves.fields import UniPoly, uni_gcd
from planecurves.invariants import _fulton, intersection_multiplicity, intersection_oracle
from planecurves.poly import AFFINE, MultiPoly, biv_gcd, parse_poly, resultant_biv

from .helpers import F5, F9, QQ, corpus, field_by_name

DATA = corpus()
BLOWUP_ENTRY_POINTS = (
    "joint_tree", "resolve_tree", "tracked_resolution", "_grow", "_chart_transform"
)


@pytest.fixture
def no_blowups(monkeypatch):
    """Make every blow-up entry point raise, wherever planecurves holds it."""
    originals = {name: getattr(blowup, name) for name in BLOWUP_ENTRY_POINTS}

    def forbidden(name):
        def raiser(*args, **kwargs):
            raise RuntimeError(f"blowup.{name} was called")

        return raiser

    patched = set()
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "planecurves":
            continue
        for key, val in list(vars(mod).items()):
            for name, fn in originals.items():
                if val is fn:
                    monkeypatch.setattr(mod, key, forbidden(name))
                    patched.add((modname, key))
    return patched


class TestIndependence:
    def test_the_patches_bite(self, no_blowups):
        # every tree, whatever its entry point, is grown by blowup._grow
        assert ("planecurves.blowup", "_chart_transform") in no_blowups
        assert ("planecurves.blowup", "_grow") in no_blowups
        with pytest.raises(RuntimeError, match="blowup._grow was called"):
            intersection_multiplicity(parse_poly("y^2-x^3", QQ), parse_poly("y", QQ))

    @pytest.mark.parametrize(
        "entry",
        DATA["intersection_pairs"],
        ids=lambda e: f"{e['F']}~{e['G']}~{e['field']}",
    )
    def test_corpus_pairs_without_blowups(self, no_blowups, entry):
        fld = field_by_name(entry["field"])
        F = parse_poly(entry["F"], fld, space="affine")
        G = parse_poly(entry["G"], fld, space="affine")
        assert intersection_oracle(F, G) == entry["I"]


# ---- differential: Fulton = tree sum = resultant order ----

_F9 = F9()
FIELDS = {
    "Q": (QQ, [QQ.scalar(c) for c in (-3, -2, -1, 1, 2, 3)]),
    "F_5": (F5, [F5.scalar(c) for c in range(1, 5)]),
    "F_9": (_F9, [c for c in _F9.elements() if not c.is_zero()]),
}
MAX_DEGREE = 4


@st.composite
def curves_through_origin(draw, field, coeffs):
    exps = [(i, j) for i in range(MAX_DEGREE + 1) for j in range(MAX_DEGREE + 1 - i) if i + j]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=2, max_size=5, unique=True))
    terms = {e: draw(st.sampled_from(coeffs)) for e in chosen}
    if draw(st.booleans()):
        # a constant leading y-coefficient, so the plain resultant often applies
        top = max(j for _, j in terms) + 1
        terms[(0, top)] = draw(st.sampled_from(coeffs))
    return MultiPoly(field, AFFINE, terms)


def _tree_sum(F, G):
    return sum(rs[0] * rs[1] for _, rs in joint_tree([F, G]).contributions())


def _resultant_order(F, G):
    """ord_x Res_y(F, G) when it equals I_0(F, G), else None.

    It does when both leading y-coefficients are nonzero constants (no
    common point escapes to infinity) and the y-fibers at x = 0 meet only
    at y = 0 (no other common point counts towards the order at x = 0).
    """
    for P in (F, G):
        top = P.degree_in("y")
        if any(j == top and i > 0 for i, j in P.terms):
            return None
    fibers = [
        UniPoly(P.field, [P.coeff((0, j)) for j in range(P.degree_in("y") + 1)], var="y")
        for P in (F, G)
    ]
    h = uni_gcd(*fibers)
    if any(not h.coeff(k).is_zero() for k in range(h.degree)):
        return None
    R = resultant_biv(F, G, main="y")
    return next(k for k in range(R.degree + 1) if not R.coeff(k).is_zero())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fulton_equals_tree_sum_and_resultant_order(name):
    field, coeffs = FIELDS[name]
    seen = {"tree": 0, "resultant": 0}

    @seed(2002)
    @settings(max_examples=50, deadline=None, database=None)
    @given(curves_through_origin(field, coeffs), curves_through_origin(field, coeffs))
    def check(F, G):
        try:
            oracle = intersection_oracle(F, G)
        except CommonComponent:
            reject()
        try:
            assert oracle == _tree_sum(F, G)
            seen["tree"] += 1
        except NonRationalPoint:
            pass  # the tree needs an irrational point; Fulton does not
        order = _resultant_order(F, G)
        if order is not None:
            assert oracle == order
            seen["resultant"] += 1

    check()
    assert seen["tree"] >= 40, seen
    assert seen["resultant"] >= 5, seen


# ---- the integer step over Q against the field step it replaced ----


def _fulton_before(F, G):
    """invariants._fulton before Q ran on ints, kept as the reference: every
    cut is g - (b/a)*x^(s-r)*f on the field's raw values."""
    K = F.field
    sub, mul, neg = K.sub, K.mul, K.neg
    f, g = dict(F.values), dict(G.values)
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
            total += min(fx)
            g = {(i, j - 1): c for (i, j), c in g.items()}
            continue
        r, s = max(fx), max(gx)
        q = mul(gx[s], K.inv(fx[r]))
        for (i, j), c in f.items():
            key = (i + s - r, j)
            v = sub(g[key], mul(q, c)) if key in g else neg(mul(q, c))
            if v:
                g[key] = v
            else:
                del g[key]


WIDE_Q = [QQ.scalar(c) for c in (-7, -2, 1, 3, 10**12 + 39, Fraction(-5, 6), Fraction(9, 4))]


@pytest.mark.parametrize("name", ["Q", "F_5"])
def test_fulton_agrees_with_the_field_step_before(name):
    field, coeffs = (QQ, WIDE_Q) if name == "Q" else FIELDS[name]
    values = []

    @seed(2203)
    @settings(max_examples=60, deadline=None, database=None)
    @given(curves_through_origin(field, coeffs), curves_through_origin(field, coeffs))
    def check(F, G):
        # _fulton is defined for coprime curves; on a common component it
        # need not end
        if biv_gcd(F, G).total_degree() >= 1:
            reject()
        values.append(_fulton_before(F, G))
        assert _fulton(F, G) == values[-1]

    check()
    assert len(values) >= 40 and max(values) >= 4, values


def test_fulton_over_q_runs_on_ints(monkeypatch):
    # the stress pair's shape, smaller: no Fraction is made on integer input
    F = parse_poly("(y^3-3*x^2+2*x^3)*(y-3*x^3+2*x^4)", QQ, space="affine")
    G = parse_poly("(y^2-x^7+x^8)*(y-x^2)+x^9", QQ, space="affine")
    made, new = [], Fraction.__new__

    def spy(cls, *a, **k):
        made.append(a)
        return new(cls, *a, **k)

    want = _fulton_before(F, G)
    monkeypatch.setattr(Fraction, "__new__", spy)
    assert _fulton(F, G) == want
    assert made == []


FULTON_SHARED = """
import sys
from planecurves.errors import CommonComponent
from planecurves.fields import PrimeField, RationalField
from planecurves.invariants import _fulton
from planecurves.poly import parse_poly
K = RationalField() if sys.argv[1] == "q" else PrimeField(int(sys.argv[1][2:]))
F, G = (parse_poly(t, K, space="affine") for t in sys.argv[2:])
try:
    _fulton(F, G)
except CommonComponent:
    print("CommonComponent")
"""


@pytest.mark.parametrize("name", ["q", "p:5"])
def test_fulton_stops_on_a_shared_component_off_y(name):
    # the pair shares x, so no restriction to y = 0 ever vanishes for good;
    # a child process with a timeout turns an endless loop into a failure
    src = os.path.dirname(os.path.dirname(os.path.abspath(planecurves.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", FULTON_SHARED, name, "x*y-x^2", "x*y+x^2+x^3"],
        capture_output=True,
        text=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "CommonComponent"), proc.stderr
