"""Point sets against a brute-force enumeration of P^2 over small fields.

find_common_points and find_singular_points eliminate Z by resultants,
shift the plane and split fibers, possibly over extension towers.  Here
their F_q-rational points are compared, as sets, with every point of
P^2(F_q) at which the forms vanish.  Over prime fields the forms are
evaluated on plain ints; over F_4 and F_9 with the fields arithmetic alone,
which shares no resultant, shift or splitting code with the finders.
"""

from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from planecurves.errors import CommonComponent, Reducible
from planecurves.fields import PrimeField, Scalar, extend_field, find_irreducible
from planecurves.noether import find_common_points, find_singular_points
from planecurves.poly import PROJECTIVE, MultiPoly

from .helpers import F2, F3, F5, F7, F11, F9

F4 = extend_field(F2, find_irreducible(F2, 2))
FIELDS = {"F2": F2, "F3": F3, "F5": F5, "F7": F7, "F11": F11, "F4": F4, "F9": F9()}


def _monomials(deg):
    return [(i, j, deg - i - j) for i in range(deg + 1) for j in range(deg + 1 - i)]


@st.composite
def _forms(draw, field, deg):
    elements = [c.value for c in field.elements()]
    monos = _monomials(deg)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=len(monos), unique=True))
    nonzero = [v for v in elements if v != field.raw_zero]
    values = {e: draw(st.sampled_from(nonzero)) for e in chosen}
    return MultiPoly._from_values(field, PROJECTIVE, values)


def _partials(field, values):
    """The three partial derivatives of a raw term dict, on raw values."""
    out = []
    for v in range(3):
        d = {}
        for e, c in values.items():
            if e[v]:
                c = field.mul(field.raw(e[v]), c)
                if c:
                    d[e[:v] + (e[v] - 1,) + e[v + 1:]] = c
        out.append(d)
    return out


def _plane(field):
    """Every point of P^2(F_q) as raw values, first nonzero coordinate 1."""
    zero, one = field.raw_zero, field.raw_one
    elements = [c.value for c in field.elements()]
    yield from ((one, b, c) for b, c in product(elements, repeat=2))
    yield from ((zero, one, c) for c in elements)
    yield (zero, zero, one)


def _vanishes(field, values, point):
    if isinstance(field, PrimeField):
        # plain ints
        p = field.p
        return sum(c * pow(point[0], i, p) * pow(point[1], j, p) * pow(point[2], k, p)
                   for (i, j, k), c in values.items()) % p == 0
    x, y, z = (Scalar(field, v) for v in point)
    total = field.zero()
    for (i, j, k), c in values.items():
        total = total + Scalar(field, c) * x ** i * y ** j * z ** k
    return total.is_zero()


def _enumerate(field, systems):
    return {pt for pt in _plane(field) if all(_vanishes(field, s, pt) for s in systems)}


def _down(point, field):
    """The raw coordinates in `field` of a returned ProjPoint, or None when
    it does not lie over `field`."""
    out = []
    for c in point.coords:
        K, v = c.field, c.value
        while K is not field and K != field:
            if len(v) > 1:
                return None
            v, K = (v[0] if v else K.base.raw_zero), K.base
        out.append(v)
    return tuple(out)


def _rational(points, field):
    found = [_down(p, field) for p in points]
    return {pt for pt in found if pt is not None}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_common_and_singular_points_match_enumeration(name):
    field = FIELDS[name]
    seen = {"common": 0, "singular": 0, "singular points": 0}

    @seed(2213)
    @settings(max_examples=18, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        dF = data.draw(st.integers(1, 4))
        dG = data.draw(st.integers(1, 3 if dF > 2 else 4))
        F, G = data.draw(_forms(field, dF)), data.draw(_forms(field, dG))
        if dF > 1 and data.draw(st.booleans()):
            # a product of two forms is singular where they meet
            k = data.draw(st.integers(1, dF - 1))
            F = data.draw(_forms(field, k)) * data.draw(_forms(field, dF - k))
        try:
            common = find_common_points(F, G)
        except CommonComponent:
            pass
        else:
            assert _rational(common, field) == _enumerate(field, [F.values, G.values])
            seen["common"] += 1
        try:
            singular = find_singular_points(F)
        except (CommonComponent, Reducible):
            return
        systems = [F.values, *_partials(field, F.values)]
        assert _rational(singular, field) == _enumerate(field, systems)
        seen["singular"] += 1
        seen["singular points"] += len(singular)

    check()
    assert seen["common"] >= 8 and seen["singular"] >= 8, seen
    assert seen["singular points"] >= 5, seen
