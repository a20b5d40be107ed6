"""Field towers, scalars, and univariate factorization."""

import functools
import gc
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

import planecurves.fields as fields
import planecurves.frobenius as frobenius
import planecurves.integers as integers
import planecurves.poly as poly
from planecurves.errors import (
    DivisionByZero,
    IncompatibleFields,
    InternalError,
    NonRationalPoint,
    ReducibleMinPoly,
    UnsupportedExtension,
)
from planecurves.fields import (
    ExtensionField,
    PrimeField,
    RationalField,
    Scalar,
    UniPoly,
    extend_field,
    find_irreducible,
    is_irreducible,
    join_fields,
    roots_with_extension,
    uni_factor,
    uni_gcd,
)
from planecurves.poly import parse_poly

from .helpers import F2, F3, F5, F7, F9, QQ, patch_everywhere


def T(field, *coeffs):
    return UniPoly(field, coeffs)


class TestScalars:
    def test_rational_arithmetic_is_exact(self):
        a = QQ.scalar(1) / QQ.scalar(3)
        b = QQ.scalar(1) / QQ.scalar(6)
        assert a + b == QQ.scalar(1) / QQ.scalar(2)

    def test_prime_field_inverses(self):
        for k in range(1, 7):
            s = F7.scalar(k)
            assert s * s.inverse() == F7.one()

    def test_zero_has_no_inverse(self):
        with pytest.raises(DivisionByZero):
            F5.zero().inverse()

    def test_characteristic_kills_multiples(self):
        assert F5.scalar(10).is_zero()
        assert (F5.scalar(3) + F5.scalar(2)).is_zero()

    def test_int_mixing(self):
        assert F7.scalar(3) + 4 == F7.zero()
        assert 2 * QQ.scalar(3) == QQ.scalar(6)

    def test_power_negative_exponent(self):
        assert F7.scalar(3) ** -1 == F7.scalar(3).inverse()


class TestTowers:
    def test_extension_order_and_elements(self):
        K = F9()
        assert K.order() == 9
        assert K.characteristic() == 3
        elems = list(K.elements())
        assert len(elems) == 9
        assert len({str(e) for e in elems}) == 9

    def test_generator_satisfies_minpoly(self):
        K = F9()
        g = K.generator()
        acc = K.zero()
        for i, c in enumerate(K.minpoly.coeffs):
            acc = acc + K.embed(c) * g ** i
        assert acc.is_zero()

    def test_join_picks_the_larger_tower(self):
        K = F9()
        assert join_fields(F3, K) == K
        assert join_fields(K, F3) == K
        assert join_fields(QQ, RationalField()) == QQ

    def test_join_rejects_unrelated_fields(self):
        with pytest.raises(IncompatibleFields):
            join_fields(QQ, F5)
        with pytest.raises(IncompatibleFields):
            join_fields(F5, F7)

    def test_embed_round_trip(self):
        K = F9()
        two = F3.scalar(2)
        lifted = K.embed(two)
        assert lifted == two  # cross-tower comparison embeds first
        assert lifted * lifted == K.embed(F3.scalar(1))

    def test_no_extensions_of_q(self):
        with pytest.raises(UnsupportedExtension):
            extend_field(QQ, T(QQ, -2, 0, 1))

    def test_reducible_minpoly_rejected(self):
        with pytest.raises(ReducibleMinPoly):
            extend_field(F5, T(F5, -1, 0, 1))  # t^2 - 1 = (t-1)(t+1)

    def test_second_level_tower(self):
        K = F9()
        L = extend_field(K, find_irreducible(K, 2))
        assert L.order() == 81
        assert L.tower_contains(F3)
        assert L.embed(F3.scalar(2)) == F3.scalar(2)


class TestFactor:
    def test_reconstruction_over_q(self):
        f = T(QQ, 0, 1) * T(QQ, -1, 1) * T(QQ, -2, 1) ** 2 * T(QQ, 1, 0, 1)
        unit, factors = uni_factor(f)
        prod = UniPoly.constant(unit)
        for g, m in factors:
            assert g.lc() == QQ.one()
            prod = prod * g ** m
        assert prod == f
        degrees = sorted((g.degree, m) for g, m in factors)
        assert degrees == [(1, 1), (1, 1), (1, 2), (2, 1)]

    def test_irreducible_residual_stays_whole_over_q(self):
        f = T(QQ, 1, 0, 1)  # t^2 + 1
        _, factors = uni_factor(f)
        assert [(g.degree, m) for g, m in factors] == [(2, 1)]

    def test_finite_field_split_is_complete(self):
        f = T(F5, 1, 0, 1)  # t^2 + 1 = (t-2)(t-3) mod 5
        unit, factors = uni_factor(f)
        assert all(g.degree == 1 for g, _ in factors)
        prod = UniPoly.constant(unit)
        for g, m in factors:
            prod = prod * g ** m
        assert prod == f

    def test_finite_factors_are_irreducible(self):
        f = T(F7, 3, 0, 1, 1, 0, 2)
        unit, factors = uni_factor(f)
        prod = UniPoly.constant(unit)
        for g, m in factors:
            assert is_irreducible(g)
            prod = prod * g ** m
        assert prod == f

    def test_factorization_is_deterministic(self):
        f = T(F7, 3, 0, 1, 1, 0, 2)
        a = [(str(g), m) for g, m in uni_factor(f, seed=11)[1]]
        b = [(str(g), m) for g, m in uni_factor(f, seed=11)[1]]
        assert a == b

    def test_multiplicity_in_char_p(self):
        # (t+1)^3 over F3 is t^3 + 1: the p-th power route must see mult 3
        f = T(F3, 1, 1) ** 3
        _, factors = uni_factor(f)
        assert [(g.degree, m) for g, m in factors] == [(1, 3)]

    def test_is_irreducible_known_cases(self):
        assert is_irreducible(T(F2, 1, 1, 1))
        assert not is_irreducible(T(F2, 1, 0, 1))  # (t+1)^2
        assert is_irreducible(T(QQ, -2, 0, 1))
        assert not is_irreducible(T(QQ, -1, 0, 1))


class TestRoots:
    def test_rational_roots_sorted_by_str(self):
        f = T(QQ, -4, 0, 1) * T(QQ, -3, 1)
        field, roots = roots_with_extension(f)
        assert field == QQ
        assert [(str(r), m) for r, m in roots] == [("-2", 1), ("2", 1), ("3", 1)]

    def test_non_rational_root_raises(self):
        with pytest.raises(NonRationalPoint):
            roots_with_extension(T(QQ, -2, 0, 1))

    def test_finite_field_extends_instead(self):
        field, roots = roots_with_extension(T(F3, 1, 0, 1))
        assert field.order() == 9
        assert len(roots) == 2
        for r, m in roots:
            assert m == 1
            assert (r * r + field.embed(F3.one())).is_zero()

    def test_multiplicities_carried(self):
        f = T(F5, -1, 1) ** 2 * T(F5, -2, 1)
        _, roots = roots_with_extension(f)
        assert sorted(m for _, m in roots) == [1, 2]

    def test_gcd_is_monic(self):
        g = uni_gcd(T(QQ, -1, 0, 1), T(QQ, -1, 0, 0, 1))
        assert g == T(QQ, -1, 1)
        assert uni_gcd(T(F5, 2, 1), T(F5, 1, 1)).degree == 0


def test_find_irreducible_smallest_scan():
    f = find_irreducible(F3, 2)
    assert f.degree == 2
    assert f.lc() == F3.one()
    assert is_irreducible(f)


def _full_scan_irreducible(field, degree):
    """Every monic candidate in the canonical order, constant term outermost."""
    for combo in itertools.product(list(field.elements()), repeat=degree):
        f = UniPoly(field, [*combo, field.one()], "t")
        if is_irreducible(f):
            return f


SCAN_FIELDS = {
    "F2": lambda: F2,
    "F3": lambda: F3,
    "F5": lambda: F5,
    "F7": lambda: F7,
    "F11": lambda: PrimeField(11),
    "F13": lambda: PrimeField(13),
    "F4": lambda: extend_field(F2, find_irreducible(F2, 2)),
    "F9": F9,
}


@pytest.mark.parametrize("name", SCAN_FIELDS)
def test_find_irreducible_keeps_the_full_scan_answer(name):
    field = SCAN_FIELDS[name]()
    for degree in (1, 2, 3, 4):
        assert find_irreducible(field, degree) == _full_scan_irreducible(field, degree)


def test_find_irreducible_skips_zero_constant_terms(monkeypatch):
    # over F_p the candidates t^2 + c*t come first; each has the factor t
    tested = []
    real = fields.is_irreducible

    def counted(f):
        tested.append(f)
        assert len(tested) < 100, "find_irreducible scans the zero constant terms"
        return real(f)

    monkeypatch.setattr(fields, "is_irreducible", counted)
    f = find_irreducible(PrimeField(1000003), 2)
    assert real(f) and f.degree == 2
    assert str(f) == "t^2+1"
    with pytest.raises(ValueError):
        find_irreducible(F5, 0)


def refactor_roots(f):
    """The root loop that factors all of f again over every new level."""
    field = f.field
    while True:
        _, factors = uni_factor(f)
        nonlinear = [g for g, _ in factors if g.degree >= 2]
        if not nonlinear:
            roots = [(-g.coeff(0), m) for g, m in factors]
            roots.sort(key=lambda rm: str(rm[0]))
            return field, roots
        if isinstance(field, RationalField):
            raise NonRationalPoint(str(nonlinear[0]))
        field = extend_field(field, nonlinear[0])
        f = f.map_field(field)


def split_by_full_factoring(field, factors):
    """_split_factors as it factored each other nonlinear factor in full,
    with uni_factor, over every new level; kept as the reference."""
    while True:
        factors = sorted(factors, key=fields._factor_key)
        k = next((i for i, (g, _) in enumerate(factors) if g.degree >= 2), None)
        if k is None:
            break
        g, m = factors[k]
        q = field.order()
        field = extend_field(field, g)
        images = [field.generator()]
        while len(images) < g.degree:
            images.append(images[-1] ** q)
        split = [(UniPoly(field, (-r, field.one()), g.var), m) for r in images]
        for i, (h, mh) in enumerate(factors):
            if i == k:
                continue
            if h.degree >= 2:
                _, parts = uni_factor(h.map_field(field))
                split.extend((part, mh * mp) for part, mp in parts)
            else:
                split.append((h.map_field(field), mh))
        factors = split
    roots = [(-g.coeff(0), m) for g, m in factors]
    roots.sort(key=lambda rm: str(rm[0]))
    return field, roots


# field, degrees of the drawn irreducibles.  A quartic over F2 or F3 splits
# into two quadratics over a quadratic extension, which puts the order of
# the remaining nonlinear factors to the test.  The degrees keep every tower
# at degree 6 or less over its base: the reference factors all of f again
# over each level, which takes seconds on a cubic and then a quartic level.
DIFF_FIELDS = {
    "F2": (F2, (1, 2, 4)),
    "F3": (F3, (1, 2, 4)),
    "F5": (F5, (1, 2, 3)),
    "F7": (F7, (1, 2, 3)),
    "F9": (F9(), (1, 2)),
}


@functools.lru_cache(maxsize=None)
def monic_irreducibles(name):
    """The field and every monic irreducible over it of the listed degrees."""
    field, degrees = DIFF_FIELDS[name]
    elems = list(field.elements())
    found = []
    for d in degrees:
        for combo in itertools.product(elems, repeat=d):
            g = UniPoly(field, list(combo) + [field.one()])
            if is_irreducible(g):
                found.append(g)
    return field, found


class TestFrobeniusRoots:
    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    # no shrinking: every example runs the slow reference again
    @seed(2002)
    @settings(max_examples=12, deadline=None, database=None, phases=[Phase.generate])
    @given(data=st.data())
    def test_same_tower_and_roots_as_refactoring(self, name, data):
        field, irreducibles = monic_irreducibles(name)
        picks = data.draw(
            st.lists(st.tuples(st.sampled_from(irreducibles), st.integers(1, 3)),
                     min_size=1, max_size=3)
        )
        unit = data.draw(st.sampled_from([e for e in field.elements() if not e.is_zero()]))
        f = UniPoly.constant(unit)
        for g, m in picks:
            f = f * g ** m
        ext, roots = roots_with_extension(f)
        ref_ext, ref_roots = refactor_roots(f)
        assert ext.describe() == ref_ext.describe()
        assert [(str(r), m) for r, m in roots] == [(str(r), m) for r, m in ref_roots]
        lifted = f.map_field(ext)
        for r, _ in roots:
            assert lifted.eval(r).is_zero()
        assert sum(m for _, m in roots) == f.degree

    def test_adjoined_factor_is_not_factored_again(self, monkeypatch):
        F101 = PrimeField(101)
        g = T(F101, 5, 1, 0, 0, 0, 0, 0, 0, 1)  # t^8+t+5
        assert is_irreducible(g)
        calls = []
        original = fields.uni_factor

        def counted(f, *args, **kwargs):
            calls.append(f)
            return original(f, *args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
        ext, roots = roots_with_extension(g)
        assert len(calls) == 1
        assert calls[0].field == F101 and calls[0] == g
        assert isinstance(ext, ExtensionField) and ext.base == F101 and ext.degree == 8
        z = ext.generator()
        images = {str(z ** (101 ** i)) for i in range(8)}
        assert len(images) == 8
        assert {str(r) for r, _ in roots} == images
        assert all(m == 1 for _, m in roots)
        lifted = g.map_field(ext)
        for r, _ in roots:
            assert lifted.eval(r).is_zero()

    @pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
    def test_split_factors_agrees_with_full_factoring(self, name):
        field, irreducibles = monic_irreducibles(name)
        several = []

        @seed(2323)
        @settings(max_examples=25, deadline=None, database=None)
        @given(data=st.data())
        def check(data):
            picks = data.draw(
                st.lists(st.sampled_from(irreducibles), min_size=1, max_size=4, unique_by=str)
            )
            factors = [(g, data.draw(st.integers(1, 3))) for g in picks]
            ext, roots = fields._split_factors(field, factors)
            ref_ext, ref_roots = split_by_full_factoring(field, factors)
            assert ext.describe() == ref_ext.describe()
            assert [(str(r), m) for r, m in roots] == [(str(r), m) for r, m in ref_roots]
            several.append(sum(g.degree >= 2 for g in picks) >= 2)

        check()
        assert any(several)

    @pytest.mark.parametrize(
        "coeffs",
        [
            # t^2 + 1 = (t - 2)(t - 3): z^5 = z, an orbit one step short
            (1, 0, 1),
            # t^2: z^5 = 0, and the orbit never returns to z
            (0, 0, 1),
            # t^3 + 2 = (t - 2)(t^2 + 2t + 4): the orbit of z closes after 2
            (2, 0, 0, 1),
        ],
        ids=["t^2+1", "t^2", "t^3+2"],
    )
    def test_a_reducible_factor_is_an_internal_error(self, coeffs):
        # the images of z close into an orbit of exactly deg g, or the
        # factor was not irreducible
        with pytest.raises(InternalError, match="does not close"):
            fields._split_factors(F5, [(T(F5, *coeffs), 1)])

    @pytest.mark.parametrize("field", [QQ, F7, F9()], ids=["Q", "F7", "F9"])
    def test_linear_factor_is_its_own_monic(self, field):
        f = T(field, 3, 2)
        unit, factors = uni_factor(f)
        assert unit == field.scalar(2)
        assert factors == [(f.monic(), 1)]
        assert factors[0][0].coeff(0) == field.scalar(3) / field.scalar(2)


@functools.lru_cache(maxsize=None)
def tower(name):
    """The tower's fields, prime field first: F_4, F_9, or F_7 < F_49 < F_(7^6)."""
    if name == "F4":
        return (F2, extend_field(F2, find_irreducible(F2, 2)))
    if name == "F9":
        return (F3, F9())
    F49 = extend_field(F7, T(F7, 1, 0, 1))
    z1 = F49.generator()
    return (F7, F49, extend_field(F49, T(F49, z1, 0, 3 * z1, 1)))


def elements_of(K):
    """Elements of K drawn coefficient by coefficient down to the prime field."""
    if isinstance(K, PrimeField):
        return st.integers(0, K.p - 1).map(K.scalar)
    z = K.generator()
    return st.lists(elements_of(K.base), min_size=K.degree, max_size=K.degree).map(
        lambda cs: sum((K.embed(c) * z ** i for i, c in enumerate(cs)), K.zero())
    )


TOWERS = ["F4", "F9", "F7^6"]


class TestTowerArithmetic:
    @pytest.mark.parametrize("name", TOWERS)
    @seed(6)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_field_axioms(self, name, data):
        K = tower(name)[-1]
        a, b, c = (data.draw(elements_of(K)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if not a.is_zero():
            assert a * a.inverse() == K.one()
        assert a ** K.order() == a

    @pytest.mark.parametrize("name", TOWERS)
    @seed(6)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_embedding_is_a_ring_homomorphism(self, name, data):
        levels = tower(name)
        i = data.draw(st.integers(0, len(levels) - 2))
        j = data.draw(st.integers(i + 1, len(levels) - 1))
        S, K = levels[i], levels[j]
        a, b = data.draw(elements_of(S)), data.draw(elements_of(S))
        assert K.embed(a + b) == K.embed(a) + K.embed(b)
        assert K.embed(a - b) == K.embed(a) - K.embed(b)
        assert K.embed(a * b) == K.embed(a) * K.embed(b)
        assert a == K.embed(a) and K.embed(a) == a
        assert hash(a) == hash(K.embed(a))
        # mixed-field arithmetic embeds first
        assert a * K.one() == K.embed(a)

    def test_two_level_element_text(self):
        F49, L = tower("F7^6")[1:]
        assert L.describe() == "F7[z1]/(z1^2+1)[z2]/(z2^3+(3*z1)*z2^2+z1)"
        a, b = L.embed(F49.generator()), L.generator()
        assert str((a + 1) * b * b + 2 * a) == "(z1+1)*z2^2+2*z1"
        assert str((3 * a + 5) * b + 6) == "(3*z1+5)*z2+6"
        assert str(-b * b - a * b) == "6*z2^2+(6*z1)*z2"
        assert str(b ** 3) == "(4*z1)*z2^2+6*z1"
        K = F9()
        M = extend_field(K, find_irreducible(K, 2))
        assert M.describe() == "F3[z1]/(z1^2+1)[z2]/(z2^2+z1*z2+z1)"
        z1, z2 = M.embed(K.generator()), M.generator()
        assert str((z1 + 1) * z2 + 2 * z1) == "(z1+1)*z2+2*z1"
        assert str(z2 * z2) == "(2*z1)*z2+2*z1"
        assert str(-(z1 + 1) * z2) == "(2*z1+2)*z2"
        assert str(M.zero()) == "0" and str(M.embed(F3.scalar(2))) == "2"


class TestUniPolyStorage:
    def test_subfield_scalars_are_embedded(self):
        K = F9()
        z = K.generator()
        f = UniPoly(K, [F3.scalar(2), z, 1])
        assert f.values == ((2,), (0, 1), (1,))
        assert all(c.field is K for c in f.coeffs)
        assert f.coeffs[0] == F3.scalar(2)

    def test_trailing_zeros_are_trimmed(self):
        assert T(QQ, 1, 2, 0, 0).values == (Fraction(1), Fraction(2))
        assert T(F5, 3, 5, 10).values == (3,)
        assert T(F5, 0, 5).values == () and T(F5, 0, 5).is_zero()
        assert T(F5, 0, 5).degree == float("-inf")

    @pytest.mark.parametrize("field", [QQ, F7, F9()], ids=["Q", "F7", "F9"])
    def test_coeffs_agree_with_coeff(self, field):
        f = T(field, 3, 0, field.scalar(2) / 5, 1)
        assert len(f.coeffs) == 4
        for k, c in enumerate(f.coeffs):
            assert c == f.coeff(k) and c.field is field
        assert f.coeff(4).is_zero() and f.coeff(-1).is_zero()
        assert f.lc() == f.coeffs[-1]

    @pytest.mark.parametrize("field", [QQ, F5, F9()], ids=["Q", "F5", "F9"])
    def test_only_one_is_one(self, field):
        assert UniPoly(field, [1]).is_one()
        assert not UniPoly(field, [2]).is_one()
        assert not UniPoly(field, [1, 1]).is_one()
        assert not UniPoly(field, []).is_one()

    @pytest.mark.parametrize("field", [QQ, F7, F9()], ids=["Q", "F7", "F9"])
    def test_kernel_and_constructor_results_hash_alike(self, field):
        f = T(field, 1, 1) * T(field, -1, 1)
        g = T(field, -1, 0, 1)
        assert f == g and hash(f) == hash(g)
        assert len({f, g, uni_gcd(f * T(field, 2, 1), g)}) == 1

    def test_equal_over_a_tower_hash_alike(self):
        f = T(F3, 1, 2, 1)
        lifted = f.map_field(F9())
        assert lifted.field != F3 and lifted == f and hash(lifted) == hash(f)

    def test_equal_to_a_scalar_of_a_larger_tower_field(self):
        F49 = tower("F7^6")[1]
        one = UniPoly(F7, (1,))
        assert one == F49.one() and F49.one() == one and one != F49.generator()

    def test_equal_polynomials_and_scalars_hash_alike(self):
        F49 = tower("F7^6")[1]
        assert len({UniPoly(F7, (1,)), F7.one()}) == 1
        assert len({UniPoly(F7, (1,)), F49.one()}) == 1
        assert len({UniPoly(F7, ()), F49.zero()}) == 1
        assert len({UniPoly(F7, (3, 1), "t"), UniPoly(F7, (3, 1), "s")}) == 1

    def test_unequal_to_a_scalar_of_an_unrelated_field(self):
        one = UniPoly(F7, (1,))
        assert one != F5.one() and one != F9().one() and one != QQ.one()


def euclid_gcd(a, b):
    """Reference gcd: Euclid on plain remainders, made monic at the end."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


GCD_FIELDS = {
    "Q": (QQ, [QQ.scalar(c) for c in (-3, -1, 0, 1, 2, Fraction(1, 2), Fraction(-5, 7))]),
    "F7": (F7, list(F7.elements())),
    "F9": (F9(), list(F9().elements())),
}


@pytest.mark.parametrize("name", sorted(GCD_FIELDS))
def test_uni_gcd_agrees_with_plain_euclid(name):
    field, elems = GCD_FIELDS[name]
    polys = st.lists(st.sampled_from(elems), max_size=5).map(lambda cs: UniPoly(field, cs))
    seen = {"zero input": 0, "common factor": 0}

    @seed(1937)
    @settings(max_examples=60, deadline=None, database=None)
    @given(a=polys, b=polys, h=polys)
    def check(a, b, h):
        if not h.is_zero():
            a, b = a * h, b * h
        g = uni_gcd(a, b)
        want = euclid_gcd(a, b)
        assert g == want and str(g) == str(want)
        if not g.is_zero():
            assert g.lc() == field.one()
            assert (a % g).is_zero() and (b % g).is_zero()
        seen["zero input"] += a.is_zero() or b.is_zero()
        seen["common factor"] += g.degree >= 1

    check()
    assert all(seen.values()), seen


def test_gcd_over_q_divides_only_by_monic_remainders(monkeypatch):
    # monic remainders keep Euclid's coefficients small over Q
    divisors = []
    original = fields._pdivmod

    def recording(F, a, b):
        if F is QQ:
            divisors.append(b)
        return original(F, a, b)

    monkeypatch.setattr(fields, "_pdivmod", recording)
    f = T(QQ, 1, 1) * T(QQ, 2, 0, 3) * T(QQ, 7, 5, 0, 11)
    g = T(QQ, 1, 1) * T(QQ, 3, 0, 3, 2)
    assert uni_gcd(f, g) == T(QQ, 1, 1)
    assert uni_gcd(T(QQ, 4, 6), T(QQ, 2, 3)) == T(QQ, Fraction(2, 3), 1)
    assert divisors and all(b[-1] == 1 for b in divisors), divisors


@pytest.mark.parametrize("name", ["F5", "F9"])
def test_factor_seed_picks_only_the_random_stream(name):
    # several irreducibles of one degree make the equal-degree split draw
    # random polynomials; the factors come back sorted whatever was drawn
    field, irreducibles = monic_irreducibles(name)
    planted = [g for g in irreducibles if g.degree == 2][:3]
    planted += [g for g in irreducibles if g.degree == 1][:3]
    f = T(field, 2)
    for g in planted:
        f = f * g
    results = [[(str(g), m) for g, m in uni_factor(f, seed=s)[1]] for s in (None, 1, 7, 12345)]
    assert all(r == results[0] for r in results)
    assert sorted(results[0]) == sorted((str(g), 1) for g in planted)


# ---------------------------------------------------------------------------
# rational roots over Q: the p-adic lift against trial division
# ---------------------------------------------------------------------------


def trial_divisors(n):
    """The positive divisors of n != 0, from its factorization by trial division."""
    n, exponents, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            exponents[d] = exponents.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1
    divisors = [1]
    for q, k in exponents.items():
        divisors = [v * q ** i for v in divisors for i in range(k + 1)]
    return divisors


def trial_division_roots(f):
    """The distinct rational roots of f over Q, by the rational root theorem."""
    den = math.lcm(*[c.denominator for c in f.values])
    ints = [int(c * den) for c in f.values]
    roots = set()
    if ints[0] == 0:
        roots.add(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    n = len(ints) - 1
    denominators = trial_divisors(ints[-1])
    for u in trial_divisors(ints[0]) if n else ():
        for v in denominators:
            if math.gcd(u, v) != 1:
                continue
            for s in (u, -u):
                if sum(c * s ** k * v ** (n - k) for k, c in enumerate(ints)) == 0:
                    roots.add(Fraction(s, v))
    return roots


# primes below 10^5, so that trial division factors products of them quickly
FIVE_DIGIT_PRIMES = [10007, 10009, 10037, 24989, 49999, 65537, 77761, 99989, 99991]

small_integer_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(
    lambda cs: cs[-1] != 0
).map(lambda cs: T(QQ, *cs))
big_integer = st.tuples(
    st.lists(st.sampled_from(FIVE_DIGIT_PRIMES), min_size=3, max_size=4),
    st.sampled_from([1, -1, 2, -3]),
).map(lambda ps: ps[1] * math.prod(ps[0]))
big_linear_factors = st.lists(
    st.tuples(big_integer, big_integer).map(lambda ab: T(QQ, -ab[0], ab[1])),  # b*t - a
    min_size=1,
    max_size=2,
)


@st.composite
def rational_root_inputs(draw):
    """Small integer polynomials, products of b*t - a with 10-20 digit a and
    b, repeated factors, roots at 0 and non-monic leading coefficients."""
    f = draw(small_integer_polys)
    if draw(st.booleans()):
        f = T(QQ, *draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(
            lambda cs: cs[-1] != 0)))
        for g in draw(big_linear_factors):
            f = f * g ** draw(st.integers(1, 2))
    f = f * T(QQ, 0, 1) ** draw(st.integers(0, 2))
    return f * draw(st.sampled_from([1, -1, Fraction(1, 6), 35]))


def test_rational_roots_match_trial_division():
    seen = {"big": 0, "repeated": 0, "root at 0": 0, "non-monic": 0, "residual": 0}

    @seed(1983)
    @settings(max_examples=60, deadline=None, database=None)
    @given(f=rational_root_inputs())
    def check(f):
        want = trial_division_roots(f)
        unit, factors = uni_factor(f)
        linear = {-g.coeff(0).value: m for g, m in factors if g.degree == 1}
        assert set(linear) == want
        for r, m in linear.items():
            # the multiplicity is the number of times t - r divides f
            lin = T(QQ, -r, 1)
            assert (f % lin ** m).is_zero() and not (f % lin ** (m + 1)).is_zero()
        for g, _m in factors:
            if g.degree >= 2:
                assert not trial_division_roots(g)
        product = T(QQ, unit)
        for g, m in factors:
            product = product * g ** m
        assert product == f
        # the splitter itself, on the squarefree part without the factor t:
        # it takes g(0) != 0, as uni_factor divides t^k off first
        g = (f // uni_gcd(f, f.derivative())).monic()
        nonzero = want - {0}
        if 0 in want:
            g = g // T(QQ, 0, 1)
        roots, residual = fields._rational_roots_split(g) if g.degree >= 1 else ([], g)
        assert {r.value for r in roots} == nonzero and len(roots) == len(nonzero)
        assert residual.degree == g.degree - len(nonzero)
        seen["big"] += max(abs(c.numerator) for c in f.values) >= 10 ** 10
        seen["repeated"] += any(m > 1 for _g, m in factors)
        seen["root at 0"] += 0 in want
        seen["non-monic"] += f.lc() != QQ.one()
        seen["residual"] += residual.degree >= 1

    check()
    assert all(seen.values()), seen


def test_rational_roots_of_the_stress_slope():
    n = 1000000000000000003
    f = T(QQ, -n, 1) * T(QQ, 1, 1) * T(QQ, 2, 0, 1)
    _, factors = uni_factor(f)
    assert [str(g) for g, _m in factors] == ["t+1", f"t-{n}", "t^2+2"]


def test_rational_roots_use_no_random_stream(monkeypatch):
    def refuse(*_a):
        raise AssertionError("Random used over Q")

    monkeypatch.setattr(fields, "Random", refuse)
    _, factors = uni_factor(T(QQ, 6, -5, 1) * T(QQ, 3, 0, 1))
    assert [str(g) for g, _m in factors] == ["t-2", "t-3", "t^2+3"]


def squarefree_decomposition_before(f):
    """Yun's loop over Q run to the end, without reading off f = w^n."""
    result = []
    g = uni_gcd(f, f.derivative())
    w = f // g
    i = 1
    while w.degree >= 1:
        y = uni_gcd(w, g)
        z = w // y
        if z.degree >= 1:
            result.append((z, i))
        w, g = y, g // y
        i += 1
    return result


def rational_roots_split_before(g):
    """The rational roots of g, a linear g's as well, by p-adic candidates."""
    roots = []
    while g.coeff(0).is_zero() and g.degree >= 1:
        roots.append(QQ.zero())
        g = g // T(QQ, 0, 1)
    if g.degree < 1:
        return roots, g
    for cand in fields._padic_root_candidates(g.values):
        root = QQ.scalar(cand)
        if g.eval(root).is_zero():
            roots.append(root)
            g = g // UniPoly(QQ, (-root, QQ.one()), g.var)
    return roots, g


def uni_factor_before(f):
    """uni_factor over Q before the linear cases were read off."""
    unit = f.lc()
    if f.degree < 1:
        return unit, []
    if f.degree == 1:
        return unit, [(f.monic(), 1)]
    f = f.monic()
    out = []
    for g, m in squarefree_decomposition_before(f):
        roots, residual = rational_roots_split_before(g)
        out.extend((T(QQ, -r, 1), m) for r in roots)
        if residual.degree >= 1:
            out.append((residual, m))
    out.sort(key=fields._factor_key)
    return unit, out


rational_linear = st.fractions(-20, 20, max_denominator=6).map(lambda a: T(QQ, -a, 1))
# no rational roots: t^2 + b t + c with b^2 < 4c, and t^2 - q, t^3 - q for
# a prime q
rational_irreducible = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(5, 9)).map(lambda bc: T(QQ, bc[1], bc[0], 1)),
    st.sampled_from([2, 3, 5, 7]).map(lambda q: T(QQ, -q, 0, 1)),
    st.sampled_from([2, 3, 5]).map(lambda q: T(QQ, -q, 0, 0, 1)),
)


def test_uni_factor_over_q_agrees_with_the_path_before():
    seen = {"one root to a power": 0, "linear squarefree part": 0, "irreducible": 0}

    @seed(2026)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        parts=st.lists(
            st.tuples(st.one_of(rational_linear, rational_irreducible), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        ),
        unit=st.sampled_from([1, -1, Fraction(2, 3), 35]),
    )
    def check(parts, unit):
        f = T(QQ, unit)
        for g, m in parts:
            f = f * g ** m
        got = uni_factor(f)
        want = uni_factor_before(f)
        assert got[0] == want[0]
        assert [(str(g), m) for g, m in got[1]] == [(str(g), m) for g, m in want[1]]
        assert got[1] == want[1]
        squarefree = [g for g, _m in squarefree_decomposition_before(f.monic())]
        seen["one root to a power"] += len(squarefree) == 1 and squarefree[0].degree == 1
        seen["linear squarefree part"] += any(g.degree == 1 for g in squarefree)
        seen["irreducible"] += any(g.degree >= 2 for g, _m in got[1])

    check()
    assert all(seen.values()), seen


def test_a_linear_squarefree_part_is_read_off_only_in_characteristic_0():
    # over F_5, (t-2)^5 has derivative 0, so f / gcd(f, f') = t - 1 is linear
    # although f is no power of it
    f = T(F5, 4, 1) * T(F5, 3, 1) ** 5
    assert [(str(g), m) for g, m in uni_factor(f)[1]] == [("t+3", 5), ("t+4", 1)]


def squarefree_decomposition_gcd_first(f):
    """_squarefree_decomposition as it was when f = w^n was read off in
    characteristic 0 only; kept as the reference."""
    result = []
    g = uni_gcd(f, f.derivative())
    w = f // g
    if w.degree == 1 and not f.field.is_finite:
        return [(w, f.degree)]
    i = 1
    while w.degree >= 1:
        y = uni_gcd(w, g)
        z = w // y
        if z.degree >= 1:
            result.append((z, i))
        w, g = y, g // y
        i += 1
    if f.field.is_finite and g.degree >= 1:
        p = f.field.characteristic()
        result.extend(
            (h, p * m) for h, m in squarefree_decomposition_gcd_first(fields._pth_root(g))
        )
    return result


def rational_roots_split_gcd_first(g):
    """_rational_roots_split as it was when it stripped the root at 0 itself."""
    roots = []
    while g.coeff(0).is_zero() and g.degree >= 1:
        roots.append(QQ.zero())
        g = g // T(QQ, 0, 1)
    if g.degree < 1:
        return roots, g
    if g.degree == 1:
        candidates = [QQ.divider(g.values[1])(QQ.neg(g.values[0]))]
    else:
        candidates = fields._padic_root_candidates(g.values)
    for cand in candidates:
        root = QQ.scalar(cand)
        if g.eval(root).is_zero():
            roots.append(root)
            g = g // UniPoly(QQ, (-root, QQ.one()), g.var)
    return roots, g


def uni_factor_gcd_first(f, seed=None):
    """uni_factor as it was before t^k came off first: every monic f of
    degree >= 2 went through Yun's gcd loop whole, and over F_q the random
    stream was made on every call; kept as the reference."""
    unit = f.lc()
    if f.degree < 1:
        return unit, []
    if f.degree == 1:
        return unit, [(f.monic(), 1)]
    f = f.monic()
    out = []
    if isinstance(f.field, RationalField):
        for g, m in squarefree_decomposition_gcd_first(f):
            roots, residual = rational_roots_split_gcd_first(g)
            for r in roots:
                out.append((UniPoly(f.field, (-r, f.field.one()), f.var), m))
            if residual.degree >= 1:
                out.append((residual, m))
    else:
        rng = random.Random(fields.DEFAULT_FACTOR_SEED if seed is None else seed)
        for g, m in squarefree_decomposition_gcd_first(f):
            for h, d in fields._distinct_degree(g):
                for irr in frobenius._equal_degree(h, d, rng):
                    out.append((irr.monic(), m))
    out.sort(key=fields._factor_key)
    return unit, out


def _same_factors(f):
    got, want = uni_factor(f), uni_factor_gcd_first(f)
    assert got[0] == want[0]
    assert [(str(g), m) for g, m in got[1]] == [(str(g), m) for g, m in want[1]]
    assert [(g.field, g.values, m) for g, m in got[1]] == [
        (g.field, g.values, m) for g, m in want[1]
    ]


FACTOR_FIELDS = {
    "Q": QQ, "F2": F2, "F3": F3, "F5": F5, "F7": F7, "F9": F9(), "F101": PrimeField(101)
}


@st.composite
def monomial_times(draw, field):
    """c * t^k * g with g a product of up to three small polynomials, each
    to a power, and k from 0 to 4."""
    if field.is_finite:
        coeff = st.sampled_from(list(field.elements()))
    else:
        coeff = st.integers(-5, 5).map(field.scalar)
    f = T(field, draw(coeff.filter(bool))) * T(field, 0, 1) ** draw(st.integers(0, 4))
    for _ in range(draw(st.integers(0, 3))):
        g = T(field, *draw(st.lists(coeff, min_size=2, max_size=4)))
        if g.degree >= 1:
            f = f * g ** draw(st.integers(1, 3))
    return f


@st.composite
def linear_powers(draw, field):
    """(t - a)^n with n below the characteristic (at most 12), times a unit."""
    p = field.characteristic()
    a = draw(st.sampled_from(list(field.elements())))
    unit = draw(st.sampled_from(list(field.elements())).filter(bool))
    return T(field, unit) * T(field, -a, 1) ** draw(st.integers(1, min(p - 1, 12)))


@pytest.mark.parametrize("name", sorted(FACTOR_FIELDS))
def test_uni_factor_agrees_with_the_gcd_loop_first(name):
    K = FACTOR_FIELDS[name]
    inputs = monomial_times(K)
    if K.is_finite:
        inputs = st.one_of(inputs, linear_powers(K))
    seen = {"t^k": 0, "t^k alone": 0, "g": 0}

    @seed(2525)
    @settings(max_examples=100, deadline=None, database=None)
    @given(f=inputs)
    def check(f):
        _same_factors(f)
        k = next(i for i, v in enumerate(f.values) if v)
        seen["t^k"] += k >= 1
        seen["t^k alone"] += k >= 1 and f.degree == k
        seen["g"] += f.degree > k

    check()
    assert all(seen.values()), seen


# (f, does the f = w^n shortcut read f off?): the shortcut runs when
# deg f is below the characteristic, so no multiplicity is a multiple of p
BOUNDARY = {
    "(t+1)^4 over F3": (T(F3, 1, 1) ** 4, False),
    "t^3*(t+1)^2 over F2": (T(F2, 0, 1) ** 3 * T(F2, 1, 1) ** 2, False),
    "(t+2)^5 over F5, f' = 0": (T(F5, 2, 1) ** 5, False),
    "(t+2)^4 over F5": (T(F5, 2, 1) ** 4, True),
    "3*(t-3)^6 over F7": (T(F7, 3) * T(F7, -3, 1) ** 6, True),
    "(t+1)^7 over F7": (T(F7, 1, 1) ** 7, False),
    # deg f passes p, deg g does not; g is no quadratic, which the
    # discriminant would split without a gcd
    "2*t^3*(t+1)^3 over F5": (T(F5, 0, 0, 0, 2) * T(F5, 1, 1) ** 3, True),
    "(t+2)^5*(t+4) over F5": (T(F5, 2, 1) ** 5 * T(F5, 4, 1), False),
}


@pytest.mark.parametrize("label", sorted(BOUNDARY))
def test_uni_factor_at_the_characteristic_boundary(monkeypatch, label):
    f, shortcut = BOUNDARY[label]
    _same_factors(f)
    gcds = []
    original = fields.uni_gcd

    def counting(a, b):
        gcds.append(1)
        return original(a, b)

    # the shortcut stops at gcd(f, f'); Yun's loop and the p-th root
    # recursion take more
    monkeypatch.setattr(fields, "uni_gcd", counting)
    uni_factor(f)
    assert (len(gcds) == 1) is shortcut, len(gcds)


def test_uni_factor_makes_the_random_stream_only_to_split(monkeypatch):
    made = []
    original = fields.Random

    def counting(*a):
        made.append(a)
        return original(*a)

    monkeypatch.setattr(fields, "Random", counting)
    F101 = FACTOR_FIELDS["F101"]
    # no block to split: t^k, one linear factor to a power, one
    # irreducible of each degree
    for f in (T(F101, 0, 0, 0, 0, 7), T(F101, 5, 1) ** 9, T(F7, 3, 1) * T(F7, 1, 0, 1)):
        uni_factor(f)
    assert made == []
    # a quadratic splits by its discriminant, so the block is a cubic
    f = T(F7, 1, 1) * T(F7, 2, 1) * T(F7, 3, 1)
    assert [str(g) for g, _m in uni_factor(f)[1]] == ["t+1", "t+2", "t+3"]
    assert len(made) == 1


@st.composite
def quadratics(draw, field):
    """unit * t^k * q with q a monic quadratic, k from 0 to 2: the product of
    two linear factors (a double root when they agree), or t^2 + b*t + c
    with free b and c, most often irreducible."""
    if field.is_finite:
        coeff = st.sampled_from(list(field.elements()))
    else:
        # small, 13-digit and fractional coefficients
        coeff = st.one_of(
            st.integers(-9, 9),
            st.integers(-10**13, 10**13),
            st.fractions(-20, 20, max_denominator=12),
        ).map(field.scalar)
    # q(0) != 0, so that t^k is all that comes off before the split
    nonzero = coeff.filter(bool)
    kind = draw(st.sampled_from(["roots", "double", "free"]))
    if kind == "free":
        q = T(field, draw(nonzero), draw(coeff), 1)
    else:
        r = draw(nonzero)
        q = T(field, -r, 1) * T(field, -(r if kind == "double" else draw(nonzero)), 1)
    return T(field, draw(nonzero)) * T(field, 0, 1) ** draw(st.integers(0, 2)) * q


def _yun_path(monkeypatch, call, *args):
    """call(*args) with the discriminant split switched off, so that every
    quadratic takes Yun's gcd and then the p-adic root search over Q or
    distinct-degree and Cantor-Zassenhaus splitting over F_p: the path
    before the split, kept as the reference."""
    with monkeypatch.context() as m:
        m.setattr(fields, "_quadratic_split", lambda f: [])
        return _or_non_rational(call, *args)


def _or_non_rational(call, *args):
    try:
        return call(*args)
    except NonRationalPoint as e:
        return ("NonRationalPoint", str(e))


def _split_kind(f):
    """How the quadratic that f has after t^k splits: "split", "double" or
    "whole"."""
    factors = [(g, m) for g, m in uni_factor(f)[1] if str(g) != "t"]
    if len(factors) == 2:
        return "split"
    return "double" if factors[0][1] == 2 else "whole"


QUADRATIC_FIELDS = {"Q": QQ, "F3": F3, "F5": F5, "F7": F7, "F101": PrimeField(101)}


@pytest.mark.parametrize("name", sorted(QUADRATIC_FIELDS))
def test_discriminant_split_agrees_with_the_yun_path(monkeypatch, name):
    K = QUADRATIC_FIELDS[name]
    seen = {"split": 0, "double": 0, "whole": 0}

    @seed(2828)
    @settings(max_examples=120, deadline=None, database=None)
    @given(f=quadratics(K))
    def check(f):
        got, want = uni_factor(f), _yun_path(monkeypatch, uni_factor, f)
        assert got[0] == want[0]
        assert [(str(g), m) for g, m in got[1]] == [(str(g), m) for g, m in want[1]]
        assert [(g.values, m) for g, m in got[1]] == [(g.values, m) for g, m in want[1]]
        assert _or_non_rational(_roots_text, f) == _yun_path(monkeypatch, _roots_text, f)
        q = f.monic()
        q = UniPoly(K, q.coeffs[next(i for i, v in enumerate(q.values) if v):])
        assert is_irreducible(q) is _yun_path(monkeypatch, is_irreducible, q)
        seen[_split_kind(f)] += 1

    check()
    assert all(seen.values()), seen


def test_the_discriminant_split_skips_characteristic_2_and_higher_levels(monkeypatch):
    called = []
    split = fields._quadratic_split
    # extend_field's irreducibility check reads the split too, so the
    # towers are built first
    F4, F9_ = _tower(F2, (2,))[-1], F9()
    F27, F81 = _tower(F3, (3,))[-1], _tower(F3, (2, 2))[-1]

    def spy(f):
        out = split(f)
        called.append((f.field.describe(), bool(out)))
        return out

    monkeypatch.setattr(fields, "_quadratic_split", spy)
    cases = {
        # characteristic 2: no discriminant split, on any level
        F2: False, F4: False,
        # a quadratic level over an odd F_p splits by its norm
        F9_: True,
        # a cubic level, and a quadratic level over a quadratic level, do not
        F27: False, F81: False,
        F7: True, QQ: True,
    }
    for K in cases:
        uni_factor(T(K, 1, 1, 1))
    assert [used for _field, used in called] == list(cases.values())


def _quadratic_moduli(p):
    """Every monic quadratic modulus (c, b, 1) over F_p, with whether it is
    irreducible: whether t^2 + b*t + c has no root."""
    for b in range(p):
        for c in range(p):
            yield (c, b, 1), all((x * x + b * x + c) % p for x in range(p))


def _raw_elements(p):
    return [fields._trim([a0, a1]) for a1 in range(p) for a0 in range(p)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_closed_form_quadratic_levels_match_the_generic_arithmetic(p):
    Fp = PrimeField(p)
    elements = _raw_elements(p)
    levels = 0
    for modulus, irreducible in _quadratic_moduli(p):
        if not irreducible and p > 5:
            continue
        K = ExtensionField(Fp, UniPoly(Fp, modulus), "z1")
        # the level binds the closed forms; the generic product is the one
        # every other level computes
        assert vars(K).keys() >= {"mul", "inv", "sqrt"}
        for a in elements:
            for b in elements:
                assert K.mul(a, b) == fields._pdivmod(Fp, fields._pmul(Fp, a, b), modulus)[1]
        if not irreducible:
            # K is only a ring, as in _equal_degree: inv and sqrt do not apply
            continue
        levels += 1
        for a in elements[1:]:
            assert K.mul(a, K.inv(a)) == (1,), (modulus, a)
            assert K.inv(a) == ExtensionField.inv(K, a)
        assert (K.sqrt is None) is (p == 2)
        if K.sqrt is None:
            continue
        squares = {K.mul(x, x) for x in elements}
        for a in elements:
            r = integers._sqrt_quadratic(a, p, modulus)
            assert r == K.sqrt(a)
            if a in squares:
                assert r is not None and K.mul(r, r) == a, (modulus, a, r)
            else:
                assert r is None, (modulus, a, r)
    # (p^2 - p) / 2 monic irreducible quadratics over F_p
    assert levels == (p * p - p) // 2


def _generic_levels(monkeypatch):
    """Switch the closed forms off: every level built from here on keeps
    the generic product, the extended-Euclid inverse and no sqrt."""
    init = ExtensionField.__init__

    def generic_init(self, *args):
        init(self, *args)
        for name in ("mul", "inv", "sqrt"):
            vars(self).pop(name, None)

    monkeypatch.setattr(ExtensionField, "__init__", generic_init)


@st.composite
def quadratic_products(draw, field):
    """A product of two to four monic factors over the prime field `field`,
    mostly quadratics and linears with now and then a cubic, some repeated."""
    coeff = st.integers(0, field.p - 1)
    f = T(field, 1)
    for _ in range(draw(st.integers(2, 4))):
        degree = draw(st.sampled_from([1, 2, 2, 2, 2, 3]))
        g = T(field, *draw(st.lists(coeff, min_size=degree, max_size=degree)), 1)
        f = f * g ** draw(st.sampled_from([1, 1, 1, 2]))
    return f


@pytest.mark.parametrize("p", [3, 5, 7, 101, 10007])
def test_roots_over_closed_form_levels_match_the_generic_levels(monkeypatch, p):
    Fp = PrimeField(p)
    seen = {"quadratic level": 0, "higher level": 0}

    @seed(2929)
    @settings(max_examples=80, deadline=None, database=None)
    @given(f=quadratic_products(Fp))
    def check(f):
        field, roots = roots_with_extension(f)
        got = field.describe(), [(str(r), m) for r, m in roots]
        with monkeypatch.context() as m:
            _generic_levels(m)
            assert _roots_text(f) == got
        # _split_factors builds its levels without extend_field's check
        levels = [K for K in (field, *field.bases) if isinstance(K, ExtensionField)]
        for K in levels:
            assert is_irreducible(K.minpoly)
            closed = K.degree == 2 and K.base == Fp
            assert ("mul" in vars(K)) is closed
            seen["quadratic level" if closed else "higher level"] += 1
        # every root is a root, with its multiplicity
        for r, mult in roots:
            assert f.eval(r).is_zero()
            assert not f.derivative().eval(r).is_zero() or mult > 1

    check()
    assert all(seen.values()), seen


def test_discriminant_split_over_q_reads_rational_roots():
    cases = {
        # d = 0: (t - 3/2)^2
        (Fraction(9, 4), -3): [("t-3/2", 2)],
        # d = 25/4: roots 1/2 and 3
        (Fraction(3, 2), Fraction(-7, 2)): [("t-1/2", 1), ("t-3", 1)],
        # d = 8, no square: the residual
        (-1, 2): [("t^2+2*t-1", 1)],
        # 13-digit roots
        (1234567890123 * 9876543210987, 1234567890123 + 9876543210987):
            [("t+1234567890123", 1), ("t+9876543210987", 1)],
    }
    for (c, b), want in cases.items():
        got = uni_factor(T(QQ, c, b, 1))[1]
        assert [(str(g), m) for g, m in got] == want
        # integral coefficients are ints, as RationalField.raw makes them
        assert all(type(v) is int or v.denominator > 1 for g, _m in got for v in g.values)


def test_sqrt_mod_over_every_odd_prime_below_200():
    primes = [p for p in range(3, 200) if integers._is_prime(p)]
    # Tonelli-Shanks' loop runs for p = 1 mod 4, longest at p = 1 mod 8
    assert {17, 41, 73, 89, 97, 113, 137, 193} <= {p for p in primes if p % 8 == 1}
    for p in primes:
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = integers._sqrt_mod(a, p)
            if a in squares:
                assert r is not None and r * r % p == a, (a, p, r)
            else:
                assert r is None, (a, p, r)
        # the argument is reduced first
        assert integers._sqrt_mod(p + 4, p) in (2, p - 2)


def test_sqrt_rational_needs_square_numerator_and_denominator():
    assert integers._sqrt_rational(0) == 0
    assert integers._sqrt_rational(10**26) == 10**13
    assert type(integers._sqrt_rational(Fraction(16, 1))) is int
    assert integers._sqrt_rational(Fraction(49, 36)) == Fraction(7, 6)
    for a in (-4, 2, Fraction(1, 2), Fraction(2, 9), Fraction(-1, 4), 10**26 + 1):
        assert integers._sqrt_rational(a) is None


def test_good_prime_search_ends_on_non_squarefree_input():
    # t^2 - 2t + 1 = (t - 1)^2 is not squarefree modulo any prime
    with pytest.raises(InternalError):
        fields._good_prime([1, -2, 1], [-2, 2])
    assert fields._good_prime([-1, 0, 1], [0, 2]) == 3


@pytest.mark.parametrize("f", [T(QQ, -1, 1) ** 2, T(QQ, -1, 1) ** 2 * T(QQ, 2, 1)])
def test_is_irreducible_over_q_rejects_repeated_factors(f):
    assert is_irreducible(f) is False


def test_unipoly_negative_power_is_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        UniPoly(QQ, (1, 1), "x") ** -1


def test_rational_raw_values_are_ints_when_integral():
    assert type(QQ.raw(3)) is int
    assert type(QQ.raw(Fraction(6, 3))) is int and QQ.raw(Fraction(6, 3)) == 2
    assert type(QQ.raw(Fraction(1, 2))) is Fraction
    assert type(QQ.raw_zero) is int and type(QQ.raw_one) is int
    # the inverse of an int is a Fraction, and an integral Fraction still
    # equals, hashes and prints like its int
    assert QQ.inv(4) == Fraction(1, 4) and type(QQ.inv(1)) is Fraction
    assert QQ.scalar(Fraction(4, 2)) == QQ.scalar(2)
    assert hash(Scalar(QQ, Fraction(2))) == hash(QQ.scalar(2))
    assert str(Scalar(QQ, Fraction(-2))) == str(QQ.scalar(-2)) == "-2"


def test_unipoly_map_field_lifts_raw_values():
    K = extend_field(F7, find_irreducible(F7, 2))
    L = extend_field(K, find_irreducible(K, 3))
    f = T(F7, 3, 0, 5)
    for target in (K, L):
        g = f.map_field(target)
        assert g.field is target and g == f and hash(g) == hash(f)
        assert g.coeffs == tuple(target.embed(c) for c in f.coeffs)
    with pytest.raises(IncompatibleFields):
        f.map_field(F5)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(200_000) if integers._is_prime(n)] == [
        n for n in range(200_000) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        # strong pseudoprimes to the bases 2-7, 2-23 and 2-37
        (3215031751, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        (2**61 - 1, True),
        (10**18 + 3, True),
    ],
)
def test_is_prime_on_large_inputs(n, prime):
    assert integers._is_prime(n) is prime


def test_is_prime_refuses_inputs_past_its_bound():
    assert integers.PSI_13 == 3317044064679887385961981
    integers._is_prime(integers.PSI_13 - 1)
    with pytest.raises(ValueError, match="primality is decided only below"):
        integers._is_prime(integers.PSI_13)
    with pytest.raises(ValueError):
        PrimeField(integers.PSI_13 + 2)


def _product_order(K):
    base = [e.value for e in K.base.elements()]
    return [fields._trim(c) for c in itertools.product(base, repeat=K.degree)]


@pytest.mark.parametrize("name", ["F4", "F9", "F81 over F9"])
def test_elements_follow_the_product_order(name):
    K = {
        "F4": lambda: extend_field(F2, find_irreducible(F2, 2)),
        "F9": F9,
        "F81 over F9": lambda: extend_field(F9(), find_irreducible(F9(), 2)),
    }[name]()
    got = [e.value for e in K.elements()]
    assert got == _product_order(K)
    assert len(set(got)) == K.order()


def test_elements_of_a_huge_extension_start_at_once():
    # x^2 + 1 is irreducible mod p = 3 (mod 4); listing F_p first would
    # never finish
    p = 10**18 + 3
    K = extend_field(PrimeField(p), T(PrimeField(p), 1, 0, 1))
    first = [e.value for e in itertools.islice(K.elements(), 4)]
    assert first == [(), (0, 1), (0, 2), (0, 3)]


def rabin_is_irreducible(f):
    """Rabin's test (SIAM J. Comput. 9, 1980), kept as the reference for
    is_irreducible over F_q: f of degree n >= 1 is irreducible when
    x^(q^n) = x mod f and gcd(x^(q^(n/l)) - x, f) = 1 for each prime l | n."""
    q, n = f.field.order(), int(f.degree)
    x = UniPoly.x(f.field, f.var)

    def x_power_q_tower(m):
        w = x % f
        for _ in range(m):
            w = w.pow_mod(q, f)
        return w

    for ell in (d for d in range(2, n + 1) if n % d == 0 and integers._is_prime(d)):
        if uni_gcd(x_power_q_tower(n // ell) - x, f).degree >= 1:
            return False
    return (x_power_q_tower(n) - x % f).is_zero()


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gauss_count(q, n):
    """Monic irreducibles of degree n over F_q: (1/n) sum_{d | n} mu(d) q^(n/d)."""
    return sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


IRREDUCIBILITY_FIELDS = {
    "F2": (lambda: F2, 4),
    "F3": (lambda: F3, 4),
    "F4": (lambda: extend_field(F2, find_irreducible(F2, 2)), 4),
    "F5": (lambda: F5, 3),
    "F7": (lambda: F7, 3),
    "F9": (F9, 3),
}


@pytest.mark.parametrize("name", IRREDUCIBILITY_FIELDS)
def test_is_irreducible_matches_rabin_and_gauss(name):
    make, top = IRREDUCIBILITY_FIELDS[name]
    field = make()
    elems = list(field.elements())
    for n in range(1, top + 1):
        count = 0
        for combo in itertools.product(elems, repeat=n):
            f = UniPoly(field, [*combo, field.one()])
            got = is_irreducible(f)
            assert got == rabin_is_irreducible(f), str(f)
            count += got
        assert count == gauss_count(field.order(), n), (n, count)


def test_is_irreducible_needs_a_squarefree_input():
    # t^2 = t*t, and over F_2 (t + 1)^2 = t^2 + 1 has derivative 0
    assert not is_irreducible(T(F2, 0, 0, 1))
    assert not is_irreducible(T(F2, 1, 0, 1))
    assert not is_irreducible(T(F3, 1, 0, 0, 1))  # (t + 1)^3
    with pytest.raises(ValueError):
        is_irreducible(T(QQ, 1, 0, 0, 0, 1))


def test_gauss_count_reference():
    assert [gauss_count(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [gauss_count(3, n) for n in range(1, 5)] == [3, 3, 8, 18]


POWER_EXPONENTS = (0, 1, 2, 5, 16)


@pytest.mark.parametrize("e", POWER_EXPONENTS)
def test_power_helper_matches_repeated_multiplication(e):
    assert fields._power(operator.mul, 1, 3, e) == 3 ** e
    K = F9()
    a = K.generator() + K.one()
    want = K.one()
    for _ in range(e):
        want = want * a
    assert a ** e == want
    f, m = T(F7, 3, 1, 2), T(F7, 1, 0, 5, 0, 1)
    want_f = T(F7, 1)
    for _ in range(e):
        want_f = want_f * f
    assert f ** e == want_f
    assert f.pow_mod(e, m) == want_f % m
    P = parse_poly("x + 2*y + 1", F5, space="affine")
    want_p = parse_poly("1", F5, space="affine")
    for _ in range(e):
        want_p = want_p * P
    assert P ** e == want_p
    unit = (0, 0)
    assert poly._dpow(F5, P.values, e, unit) == want_p.values


def test_negative_powers():
    a = F7.scalar(3)
    assert a ** -2 == (a.inverse()) * (a.inverse())
    with pytest.raises(ValueError, match="negative exponent"):
        fields._power(operator.mul, 1, 3, -1)
    with pytest.raises(ValueError, match="negative exponent"):
        T(F7, 3, 1) ** -1
    with pytest.raises(ValueError, match="negative exponent"):
        T(F7, 3, 1).pow_mod(-1, T(F7, 1, 0, 1))
    with pytest.raises(ValueError, match="negative exponent"):
        parse_poly("x + 1", F5, space="affine") ** -1
    with pytest.raises(ValueError, match="negative exponent"):
        poly._dpow(F5, {(1, 0): 1}, -2, (0, 0))


def test_find_irreducible_over_q_is_unsupported():
    with pytest.raises(UnsupportedExtension):
        find_irreducible(QQ, 2)
    with pytest.raises(UnsupportedExtension):
        find_irreducible(RationalField(), 1)


# the tower walks that Field.bases replaced, kept as references


def _walk_tower_contains(field, other):
    cur = field
    while True:
        if cur == other:
            return True
        if isinstance(cur, ExtensionField):
            cur = cur.base
        else:
            return False


def _walk_levels_above(target, source):
    k, cur = 0, target
    while not (cur is source or cur == source):
        if not isinstance(cur, ExtensionField):
            raise IncompatibleFields(f"{source.describe()} !< {cur.describe()}")
        cur, k = cur.base, k + 1
    return k


def _walk_level(base):
    # the level of a generator adjoined to base: z1 over Q or F_p
    level, cur = 1, base
    while isinstance(cur, ExtensionField):
        level, cur = level + 1, cur.base
    return level


def _walk_tower(field):
    out = [field]
    while isinstance(out[-1], ExtensionField):
        out.append(out[-1].base)
    return out


def _walk_generator_table(field):
    gens, cur = {}, field
    while isinstance(cur, ExtensionField):
        gens[cur.gen_name] = field.embed(cur.generator()).value
        cur = cur.base
    return gens


def _tower(base, degrees):
    fields_ = [base]
    for d in degrees:
        fields_.append(extend_field(fields_[-1], find_irreducible(fields_[-1], d)))
    return fields_


def _outcome(f, *args):
    try:
        return f(*args)
    except IncompatibleFields as e:
        return ("IncompatibleFields", str(e))


def _all_towers():
    # towers of 1 to 3 levels over F_2, F_3 and F_5, a second copy of one
    # (equal fields that are distinct objects), a rival tower and Q
    towers = [_tower(p, (2, 3, 2)) for p in (F2, F3, F5)]
    towers += [_tower(PrimeField(3), (2, 3)), _tower(F2, (3,)), [QQ]]
    return [K for tower in towers for K in tower]


def test_tower_queries_agree_with_the_walks():
    every = _all_towers()
    assert max(len(K.bases) for K in every) == 3
    for K in every:
        assert [id(B) for B in K.bases] == [id(B) for B in _walk_tower(K)[1:]]
        for L in every:
            assert K.tower_contains(L) == _walk_tower_contains(K, L)
            assert _outcome(fields._levels_above, K, L) == _outcome(_walk_levels_above, K, L)
        assert list(poly._generator_table(K).items()) == list(_walk_generator_table(K).items())


@pytest.mark.parametrize("base", [F2, F3, F5], ids=str)
def test_generator_names_count_the_levels(base):
    K = base
    for d in (2, 3, 2):
        L = extend_field(K, find_irreducible(K, d))
        assert L.gen_name == f"z{_walk_level(K)}" == f"z{len(L.bases)}"
        K = L


def test_a_dropped_tower_leaves_no_reference_cycles():
    # a field listed in its own bases would be a cycle per field built
    gc.collect()
    gc.disable()
    try:
        K = _tower(PrimeField(5), (2, 3, 2))[-1]
        assert len(K.bases) == 3
        del K
        assert gc.collect() == 0
    finally:
        gc.enable()


def equal_degree_plain_power(f, d, rng):
    """_equal_degree as it split before the Frobenius of the level below:
    Cantor-Zassenhaus with plain powers over f's own field, recursing on
    both parts; kept as the reference."""
    if f.degree == d:
        return [f]
    field = f.field
    q = field.order()
    p = field.characteristic()
    n = int(f.degree)
    one = UniPoly(field, (field.one(),), f.var)
    while True:
        h = UniPoly(field, [field.random_scalar(rng) for _ in range(n)], f.var)
        if h.degree < 1:
            continue
        g = uni_gcd(h, f)
        if 1 <= g.degree < f.degree:
            return equal_degree_plain_power(g, d, rng) + equal_degree_plain_power(f // g, d, rng)
        if p == 2:
            k = q.bit_length() - 1  # q = 2^k
            acc = h % f
            cur = h % f
            for _ in range(k * d - 1):
                cur = cur.pow_mod(2, f)
                acc = (acc + cur) % f
            g = uni_gcd(acc, f)
        else:
            w = h.pow_mod((q ** d - 1) // 2, f)
            g = uni_gcd(w - one, f)
        if 1 <= g.degree < f.degree:
            return equal_degree_plain_power(g, d, rng) + equal_degree_plain_power(f // g, d, rng)


SPLIT_FIELDS = {
    "F2": lambda: F2,
    "F3": lambda: F3,
    "F4": lambda: _tower(F2, (2,))[-1],
    "F5": lambda: F5,
    "F7": lambda: F7,
    "F9": F9,
    "F64 over F4": lambda: _tower(F2, (2, 3))[-1],
}


@st.composite
def factor_products(draw, field):
    """A product of one to three monic factors of degree 1 to 4, with
    coefficients in the level below field (when there is one) or in field."""
    below = draw(st.booleans()) and isinstance(field, ExtensionField)
    coeff = st.sampled_from(list((field.base if below else field).elements()))
    f = T(field, 1)
    for _ in range(draw(st.integers(1, 3))):
        lower = draw(st.lists(coeff, min_size=1, max_size=4))
        f = f * UniPoly(field, lower + [1])
    return f


def _roots_text(f):
    field, roots = roots_with_extension(f)
    return field.describe(), [(str(r), m) for r, m in roots]


@pytest.mark.parametrize("name", SPLIT_FIELDS)
def test_roots_agree_with_plain_power_splitting(monkeypatch, name):
    field = SPLIT_FIELDS[name]()
    seen = {"from the level below": 0, "from its own field": 0, "d > 1": 0}
    split = frobenius._equal_degree

    def spy(f, d, rng):
        if f.degree > d:
            F = f.field
            below = isinstance(F, ExtensionField) and all(len(c) <= 1 for c in f.values)
            seen["from the level below" if below else "from its own field"] += 1
            seen["d > 1"] += d > 1
        return split(f, d, rng)

    @seed(2626)
    @settings(max_examples=40, deadline=None, database=None)
    @given(f=factor_products(field))
    def check(f):
        with monkeypatch.context() as m:
            m.setattr(frobenius, "_equal_degree", equal_degree_plain_power)
            want = _roots_text(f)
        with monkeypatch.context() as m:
            m.setattr(frobenius, "_equal_degree", spy)
            assert _roots_text(f) == want

    check()
    if name == "F2":
        # F_2 has one irreducible quadratic and two cubics, so a block of
        # distinct factors over F_2 itself is rare; the fixed cases below
        # split one
        del seen["from its own field"]
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "field, factors, call",
    [
        # an irreducible quartic over F_2 splits into two quadratics over F_4
        (F2, [(1, 1, 1), (1, 1, 0, 0, 1)], (2, 4, 2)),
        # and over F_3, over F_9
        (F3, [(1, 0, 1), (1, 0, 1, 1, 1)], (3, 4, 2)),
        # the two irreducible cubics over F_2 split over F_2 itself
        (F2, [(1, 1, 0, 1), (1, 0, 1, 1)], (2, 6, 3)),
    ],
    ids=["F2 quartic", "F3 quartic", "F2 cubics"],
)
def test_fixed_splits_agree_with_plain_power(monkeypatch, field, factors, call):
    calls = []
    split = frobenius._equal_degree

    def spy(f, d, rng):
        calls.append((f.field.characteristic(), int(f.degree), d))
        return split(f, d, rng)

    f = functools.reduce(operator.mul, [T(field, *c) for c in factors])
    with monkeypatch.context() as m:
        m.setattr(frobenius, "_equal_degree", equal_degree_plain_power)
        want = _roots_text(f)
    monkeypatch.setattr(frobenius, "_equal_degree", spy)
    assert _roots_text(f) == want
    assert call in calls
