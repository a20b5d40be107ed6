"""Sparse polynomials: parsing, coordinate moves, gcd, resultants."""

import gc
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from planecurves import linalg, poly
from planecurves.cli import main
from planecurves.errors import DivisionByZero, NotSuitable, ZeroPolynomial
from planecurves.fields import (
    PrimeField,
    Scalar,
    UniPoly,
    extend_field,
    find_irreducible,
    join_fields,
    uni_gcd,
)
from planecurves.poly import (
    AFFINE,
    PROJECTIVE,
    MultiPoly,
    add_multiples,
    biv_coeffs,
    biv_gcd,
    dehomogenize,
    homogenize,
    is_suitable,
    make_suitable,
    make_suitable_many,
    parse_poly,
    resultant_biv,
    shear,
    squarefree_defect,
    translate,
)

from .helpers import F2, F3, F5, F7, F9, QQ, aff, corpus, hom


class TestParsing:
    def test_terms_of_a_simple_curve(self):
        F = aff("y^2 - x^3")
        assert F.terms == {(0, 2): QQ.one(), (3, 0): -QQ.one()}

    def test_adjacency_is_multiplication(self):
        assert aff("2xy") == aff("2*x*y")
        assert aff("y(y-x)(y+x)") == aff("y^3 - x^2*y")

    def test_fraction_coefficients(self):
        F = aff("1/2*x + 3/4")
        assert F.coeff((1, 0)) == QQ.scalar(1) / QQ.scalar(2)

    def test_case_folded_to_target_space(self):
        assert parse_poly("Y^2 - X^3", QQ, space="affine") == aff("y^2-x^3")
        assert parse_poly("x*z - y^2", QQ, space="homogeneous") == hom("X*Z - Y^2")

    def test_auto_space_detection(self):
        assert parse_poly("y^2-x^3", QQ).variables == AFFINE
        assert parse_poly("Y^2*Z-X^3", QQ).variables == PROJECTIVE

    @pytest.mark.parametrize(
        "bad",
        ["y^2 - W", "x + Y", "z^2 + x", "x +", "(x+y", "x^y", "x$y"],
    )
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad, QQ, space="affine")

    def test_str_round_trip_on_corpus(self):
        data = corpus()
        texts = [e["poly"] for e in data["singularities"]]
        texts += [e["F"] for e in data["intersection_pairs"]]
        texts += [e["F"] for e in data["bezout_pairs"]]
        for text in texts:
            space = "homogeneous" if any(c in text for c in "ZX") else "affine"
            F = parse_poly(text, QQ, space=space) if space == "affine" else None
            if F is None:
                F = parse_poly(text, QQ, space="homogeneous")
            G = parse_poly(str(F), QQ, space=space)
            assert G == F, text


MESSAGES = [
    ("x +", "polynomial ended early"),
    ("(x+y", "unbalanced parenthesis"),
    ("x^y", "exponent must be a nonnegative integer"),
    ("x$y", "unexpected character '$' in polynomial"),
    ("3/0*x", "malformed rational coefficient"),
    ("2/", "malformed rational coefficient"),
    ("2/x", "malformed rational coefficient"),
    ("0/0", "malformed rational coefficient"),
    ("^2", "unexpected token '^'"),
    (")", "unexpected token ')'"),
    ("()", "unexpected token ')'"),
    ("*x", "unexpected token '*'"),
    ("x**2", "unexpected token '*'"),
    ("--x", "unexpected token '-'"),
    ("(", "polynomial ended early"),
    ("x(", "polynomial ended early"),
    ("x-", "polynomial ended early"),
    ("x^", "exponent must be a nonnegative integer"),
    ("(x+y)^", "exponent must be a nonnegative integer"),
    ("2/3/4", "trailing input near token '/'"),
    ("x)", "trailing input near token ')'"),
    ("y^2 - W", "unknown variable 'W'"),
    ("x + Y", "mixed upper and lower case variables"),
    ("z^2 + x", "z is not an affine variable; affine input uses x, y"),
]


@pytest.mark.parametrize("bad, message", MESSAGES)
def test_parse_error_messages(bad, message):
    with pytest.raises(ValueError) as err:
        parse_poly(bad, QQ, space="affine")
    assert str(err.value) == message


def test_parse_fraction_whose_denominator_vanishes_in_the_field():
    with pytest.raises(DivisionByZero) as err:
        parse_poly("1/7*x", F7, space="affine")
    assert str(err.value) == "denominator divisible by 7"


def test_parse_builds_no_intermediate_polynomials(monkeypatch):
    # a product of atoms is one term; the MultiPoly is built once at the end
    x, y = MultiPoly.var(QQ, "x"), MultiPoly.var(QQ, "y")
    X, Y, Z = (MultiPoly.var(QQ, v, PROJECTIVE) for v in PROJECTIVE)
    want = {
        "123*X^2*Y*Z^3": 123 * X ** 2 * Y * Z ** 3,
        "2/3 x y^4 - (x+1)^3 y": Fraction(2, 3) * x * y ** 4 - (x + 1) ** 3 * y,
        "-(y-x)(y+x) + 0*x^5": -(y - x) * (y + x),
    }
    constructors = ("__init__", "_from_values")
    for op in constructors + ("__mul__", "__pow__", "__add__", "__sub__", "__neg__"):
        original = getattr(MultiPoly, op)
        monkeypatch.setattr(MultiPoly, op, lambda *a, _f=original, _op=op: calls.append(_op) or _f(*a))
    for text, G in want.items():
        calls = []
        F = parse_poly(text, QQ)
        # exactly one construction, by either constructor, and no arithmetic
        assert len(calls) == 1 and calls[0] in constructors, (text, calls)
        assert F == G


def _expr_trees():
    # (text, builder) pairs; the builder makes the same polynomial with
    # MultiPoly's own arithmetic
    num = st.tuples(st.integers(0, 20), st.sampled_from([1, 1, 2, 3, 4, 6])).map(
        lambda nd: (f"{nd[0]}/{nd[1]}" if nd[1] > 1 else str(nd[0]),
                    lambda K, c=Fraction(*nd): MultiPoly.constant(K, c))
    )
    var = st.sampled_from(["x", "y"]).map(lambda v: (v, lambda K, v=v: MultiPoly.var(K, v)))
    power = st.tuples(var, st.integers(0, 4)).map(
        lambda vk: (f"{vk[0][0]}^{vk[1]}", lambda K, b=vk[0][1], k=vk[1]: b(K) ** k)
    )
    atom = st.one_of(num, var, power)
    monomial = st.lists(atom, min_size=1, max_size=4).map(
        lambda atoms: ("*".join(t for t, _ in atoms),
                       lambda K, bs=[b for _, b in atoms]: _product(K, bs))
    )

    def extend(inner):
        pair = st.tuples(inner, inner)
        return st.one_of(
            pair.map(lambda ab: (f"({ab[0][0]})+({ab[1][0]})",
                                 lambda K, a=ab[0][1], b=ab[1][1]: a(K) + b(K))),
            pair.map(lambda ab: (f"{ab[0][0]}-({ab[1][0]})",
                                 lambda K, a=ab[0][1], b=ab[1][1]: a(K) - b(K))),
            pair.map(lambda ab: (f"({ab[0][0]})({ab[1][0]})",
                                 lambda K, a=ab[0][1], b=ab[1][1]: a(K) * b(K))),
            inner.map(lambda a: (f"-({a[0]})", lambda K, a=a[1]: -a(K))),
            st.tuples(inner, st.integers(0, 3)).map(
                lambda ak: (f"({ak[0][0]})^{ak[1]}", lambda K, a=ak[0][1], k=ak[1]: a(K) ** k)
            ),
        )

    return st.recursive(monomial, extend, max_leaves=8)


def _product(K, builders):
    out = builders[0](K)
    for b in builders[1:]:
        out = out * b(K)
    return out


@seed(1883)
@settings(max_examples=80, deadline=None, database=None)
@given(tree=_expr_trees(), field=st.sampled_from([QQ, F5]))
def test_parse_agrees_with_multipoly_arithmetic(tree, field):
    text, build = tree
    F, G = parse_poly(text, field, space="affine"), build(field)
    assert F.terms == G.terms
    # the same key order as MultiPoly's own sums and products
    assert list(F.terms) == list(G.terms)


class _ParserBefore(poly._Parser):
    """The parser before its sums ran in place and before its terms read
    runs, kept as the reference: every + or - copies the accumulator through
    _dadd, every power multiplies through _dmul, and a term multiplies its
    factors one factor() call at a time, each read by atom() into a dict of
    its own."""

    def term(self):
        mul = self.field.mul
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
            elif kind not in ("num", "name", "("):
                return acc
            other = self.factor()
            if len(acc) == 1 and len(other) == 1:
                [(ea, ca)], [(eb, cb)] = acc.items(), other.items()
                c = mul(ca, cb)
                acc = {tuple([i + j for i, j in zip(ea, eb)]): c} if c else {}
            else:
                acc = poly._dmul(self.field, acc, other)

    def expr(self):
        F = self.field
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = poly._dneg(F, acc)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            acc = poly._dadd(F, acc, poly._dneg(F, t) if op == "-" else t)
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ValueError("exponent must be a nonnegative integer")
            F = self.field
            base = poly._power(partial(poly._dmul, F), {self.unit: F.raw_one}, base, val)
        return base

    def constant(self, value):
        v = self.field.raw(value)
        return {self.unit: v} if v else {}

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            if self.peek()[0] == "/":
                self.take()
                k2, v2 = self.take()
                if k2 != "num" or v2 == 0:
                    raise ValueError("malformed rational coefficient")
                return self.constant(Fraction(val, v2))
            return self.constant(val)
        if kind == "name":
            if val in self.gens:
                return {self.unit: self.gens[val]}
            i = self.index.get(val)
            if i is None:
                raise ValueError(f"unknown symbol {val!r} for variables {self.variables}")
            exps = [0] * len(self.variables)
            exps[i] = 1
            return {tuple(exps): self.field.raw_one}
        if kind == "(":
            inner = self.expr()
            if self.take()[0] != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if kind == "end":
            raise ValueError("polynomial ended early")
        raise ValueError(f"unexpected token {val!r}")


def _parse_before(text, field):
    tokens, gens = poly._tokenize(text), poly._generator_table(field)
    return _ParserBefore(tokens, field, AFFINE, gens).parse()


def _sums(coefficients):
    # signed terms over a few monomials, so that terms cancel and reappear
    monomial = st.sampled_from(
        ["x", "y", "x*y", "x^2*y^3", "1", "(x+y)^2", "(x-1)*(y+1)", "(2*x)^3"]
    )
    term = st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(coefficients), monomial)
    return st.lists(term, min_size=1, max_size=8).map(
        lambda ts: "".join(f"{s}{c}{m}" for s, c, m in ts)
    )


PARSE_FIELDS = {
    "Q": (QQ, ["", "2*", "1/2*", "3*"]),
    "F7": (F7, ["", "2*", "1/2*", "7*", "6*"]),
    "F9": (F9(), ["", "2*", "z1*", "(z1+1)*", "z1^2*"]),
}


def _parsed_or_error(parse, text, field):
    # the terms in key order, or the error raised
    try:
        return list(parse(text, field).values.items())
    except (ValueError, ArithmeticError) as e:
        return repr(e)


@pytest.mark.parametrize("name", sorted(PARSE_FIELDS))
def test_parse_agrees_with_the_parser_before(name):
    field, coefficients = PARSE_FIELDS[name]
    aff_in = partial(parse_poly, space="affine")
    # x cancels and comes back after y, as _dadd would put it
    assert list(aff_in("x + y - x + x", field).values) == [(0, 1), (1, 0)]
    fixed = ["x + y - x + x", "x*y + 1 - x*y - 1 + x*y + 1", "-x - y + x^2 + x", "(x+y)^0 - 1 + y"]
    for text in fixed:
        assert _parsed_or_error(aff_in, text, field) == _parsed_or_error(_parse_before, text, field)

    @seed(1884)
    @settings(max_examples=80, deadline=None, database=None)
    @given(text=st.one_of(_sums(coefficients), _expr_trees().map(lambda t: t[0])))
    def check(text):
        assert _parsed_or_error(aff_in, text, field) == _parsed_or_error(_parse_before, text, field)

    check()


F4 = extend_field(F2, find_irreducible(F2, 2))

RUN_FIELDS = {"Q": QQ, "F7": F7, "F4": F4, "F9": F9()}

RUN_CASES = [
    # tower generators, alone, in runs and raised to powers
    ("F4", "z1*x^2 + (z1+1)*y + z1^2*x*y + x*z1*y^2*z1"),
    ("F4", "z1 x z1^3 y^2 - x (z1 + x)^2 z1"),
    ("F9", "z1*x^2*2 + 2*z1^3*y - (z1+1)^2*x*y + z1^8"),
    ("F9", "x z1 y (x + z1) z1^2 (y - 1) 2"),
    # a fraction inside a run
    ("Q", "3/4*x^2"),
    ("Q", "3/4*x^2*y - 2/3*x*3/2 + x*4*3/4"),
    ("F7", "3/4*x^2 + 1/2 x 2"),
    # juxtaposed factors
    ("Q", "2x^2y"),
    ("Q", "2x^2y 3x - 6x^3y + 2 3 x 4"),
    ("F7", "2x^2y 4y^3 2^3"),
    # a parenthesised factor mid-run
    ("Q", "2*(x+1)*y^3"),
    ("Q", "x*(y+1)*2*(x-1)*y^2 - 3(x+y)^2x(x-y)y"),
    ("F9", "2*(x+z1)*y^3*z1*(y+1)"),
    # zero coefficients
    ("Q", "0*x^2+x"),
    ("Q", "x*0*(x+1) + y - 0 + 0^0*x + 0^2*y + 2^0"),
    ("F7", "7*x^2 + x + 14*(x+1)*y + x 7 y"),
    # malformed runs
    ("Q", "x^y"),
    ("Q", "x^"),
    ("Q", "x*"),
    ("Q", "2*x*y*"),
    ("Q", "2^x"),
    ("Q", "x^2^3"),
    ("Q", "x**y"),
    ("Q", "2*/3"),
    ("F9", "z1^"),
    ("F9", "z1*"),
]


@pytest.mark.parametrize("name, text", RUN_CASES)
def test_parse_runs_agree_with_the_parser_before(name, text):
    field = RUN_FIELDS[name]
    aff_in = partial(parse_poly, space="affine")
    assert _parsed_or_error(aff_in, text, field) == _parsed_or_error(_parse_before, text, field)


@seed(1885)
@settings(max_examples=120, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(RUN_FIELDS)),
    pieces=st.lists(
        st.sampled_from(
            ["x", "y", "2", "0", "7", "12", "3/4", "z1", "(x+1)", "(y-x)", "^2", "^0", "^",
             "*", "+", "-", " ", "/", "(", ")", "/0", "1/7"]
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_parse_token_soups_agree_with_the_parser_before(name, pieces):
    # the two parsers on the same tokens, without parse_poly's name checks,
    # so that a name such as y12 reaches both
    def parse_now(text, field):
        tokens, gens = poly._tokenize(text), poly._generator_table(field)
        return poly._Parser(tokens, field, AFFINE, gens).parse()

    field, text = RUN_FIELDS[name], "".join(pieces)
    assert _parsed_or_error(parse_now, text, field) == _parsed_or_error(_parse_before, text, field)


class TestArithmetic:
    def test_binomial_square(self):
        x = MultiPoly.var(QQ, "x")
        y = MultiPoly.var(QQ, "y")
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2

    def test_product_rule(self):
        F = aff("x^2*y + y^3")
        G = aff("x - y^2")
        lhs = (F * G).derivative("y")
        rhs = F.derivative("y") * G + F * G.derivative("y")
        assert lhs == rhs

    def test_evaluate_matches_substitute(self):
        F = aff("x^3 - 2*x*y + 5")
        v = F.evaluate({"x": QQ.scalar(2), "y": QQ.scalar(-1)})
        assert v == QQ.scalar(2 ** 3 + 4 + 5)

    def test_field_join_in_mixed_arithmetic(self):
        K = join_fields(F3, F3)
        assert K == F3
        a = aff("x + 1", F3)
        b = aff("x + 2", F3)
        assert (a + b) == aff("2*x", F3)

    @pytest.mark.parametrize("e, products", [(0, 0), (1, 1), (4, 3), (5, 4)])
    @pytest.mark.parametrize("cls", [MultiPoly, UniPoly])
    def test_power_skips_the_final_squaring(self, monkeypatch, cls, e, products):
        if cls is MultiPoly:
            base, want = aff("x + y + 1"), aff("1")
        else:
            base, want = UniPoly(QQ, (1, 1), "x"), UniPoly(QQ, (1,), "x")
        for _ in range(e):
            want = want * base
        # MultiPoly's power runs on the raw kernels, so count its products there
        owner, name = (poly, "_dmul") if cls is MultiPoly else (cls, "__mul__")
        mul, count = getattr(owner, name), []

        def counting(*a):
            count.append(1)
            return mul(*a)

        monkeypatch.setattr(owner, name, counting)
        assert base ** e == want
        assert len(count) == products

    def test_mult_at_origin_and_lowest_form(self):
        F = aff("y^2 - x^3 + x^2*y^2")
        assert F.mult_at_origin() == 2
        assert F.lowest_form() == aff("y^2")
        with pytest.raises(ZeroPolynomial):
            MultiPoly.zero(QQ).mult_at_origin()


class TestCoordinateMoves:
    def test_translate_moves_the_point(self):
        F = aff("y^2 - x^3")
        G = translate(F, 1, 1)  # F(x+1, y+1)
        assert G.constant_term() == QQ.zero()  # (1,1) is on the curve
        assert G.evaluate({"x": QQ.scalar(-1), "y": QQ.scalar(-1)}).is_zero()

    def test_homogenize_dehomogenize_round_trip(self):
        F = aff("y^2 - x^3 + 2*x")
        assert dehomogenize(homogenize(F), "Z") == F
        assert homogenize(F).is_homogeneous()

    def test_dehomogenize_other_charts(self):
        F = hom("Y^2*Z - X^3")
        # chart Y: (X, Z) -> (x, y)
        assert dehomogenize(F, "Y") == aff("y - x^3")
        assert dehomogenize(F, "X") == aff("x^2*y - 1")

    def test_coord_change_inverse_round_trip(self):
        F = aff("y^2 - x^3 + x*y")
        moved = translate(shear(F, QQ.scalar(2)), 1, -1)
        assert moved != F
        assert shear(translate(moved, -1, 1), QQ.scalar(-2)) == F

    def test_substitute_leaves_no_reference_cycles(self):
        # cyclic garbage waits for the collector, so it raises peak memory
        F = aff("y^3 - x^5 + x^2*y")
        P = homogenize(F)
        gc.collect()
        gc.disable()
        try:
            moved = translate(F, 2, -1)
            sheared = shear(F, 3)
            shifted = add_multiples(P, (0, 2, 2), (1, -1, 2))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert translate(moved, -2, 1) == F
        assert shear(sheared, -3) == F
        assert add_multiples(shifted, (0, -2, 2), (1, 1, 2)) == P

    def test_translate_by_zero_only_changes_the_field(self):
        F = aff("y^2 - x^3", F3)
        K = F9()
        moved = translate(F, 0, K.zero())
        assert moved.field == K
        assert moved == F


class TestSuitability:
    def test_pure_y_lowest_form_is_suitable(self):
        assert is_suitable(aff("y^2 - x^3"))
        assert not is_suitable(aff("x^2 - y^3"))

    def test_make_suitable_fixes_it(self):
        G, lam = make_suitable(aff("x^2 - y^3"))
        assert is_suitable(G)
        assert not lam.is_zero()
        assert shear(aff("x^2 - y^3"), lam) == G

    def test_suitable_input_needs_no_shear(self):
        F = aff("y^2 - x^3")
        assert make_suitable(F) == (F, QQ.zero())

    def test_shared_shear_over_f2_extends_the_field(self):
        # forms x, y, x+y kill every lambda in F_2, so the tower must grow
        polys = [aff("x", F2), aff("y", F2), aff("x+y", F2)]
        sheared, _, field = make_suitable_many(polys)
        assert field.order() == 4
        assert all(is_suitable(p) for p in sheared)

    def test_zero_cannot_be_sheared(self):
        with pytest.raises(ZeroPolynomial):
            make_suitable(MultiPoly.zero(QQ))

    @pytest.mark.parametrize("text", ["y^2 - x*y", "x*y + y^3", "x^2 + y^3", "y - x", "x + y^2"])
    def test_suitable_means_the_lowest_form_misses_0_1(self, text):
        F = aff(text)
        at_0_1 = F.lowest_form().evaluate({"x": 0, "y": 1})
        assert is_suitable(F) == (not at_0_1.is_zero())

    def test_suitability_of_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            is_suitable(MultiPoly.zero(QQ))


def make_suitable_many_before(polys):
    """make_suitable_many as it was before each tangent cone was read once:
    every lowest form built whole and evaluated at (lam, 1) by
    MultiPoly.evaluate, candidate after candidate; kept as the reference."""
    field, polys = poly._joined(*polys)
    for p in polys:
        if p.is_zero():
            raise ZeroPolynomial("cannot shear the zero polynomial")
    forms = [p.lowest_form() for p in polys]
    x, y = polys[0].variables
    one = field.one()
    limit = sum(int(p.total_degree()) for p in polys) + 3

    def candidates(fld):
        return islice(poly._shear_candidates(fld), None if fld.is_finite else limit)

    def fits(lam):
        return all(not L.evaluate({x: lam, y: one}).is_zero() for L in forms)

    lam, field = poly._first_fit(field, candidates, fits)
    if lam is None:
        raise NotSuitable("no rational shear found; impossible")
    if not lam.is_zero():
        polys = [shear(p.map_field(field), lam) for p in polys]
    return polys, lam, field


SUITABLE_FIELDS = {"Q": QQ, "F2": F2, "F5": F5, "F7": F7, "F9": F9()}


def _lines(field, slopes):
    """The product of the lines x + c*y over the slopes c."""
    x, y = (MultiPoly.var(field, v) for v in AFFINE)
    form = MultiPoly.constant(field, 1)
    for c in slopes:
        form = form * (x + y * c)
    return form


@st.composite
def cone_polys(draw, field):
    """Mostly a polynomial whose lowest form is y^a times lines x + c*y with
    slopes c drawn from the field (from -3..3 over Q), under terms of higher
    degree; one time in four any nonzero small polynomial."""
    if draw(st.integers(0, 3)) == 0:
        return draw(small_polys(field).filter(lambda p: not p.is_zero()))
    slopes = list(field.elements()) if field.is_finite else [field.scalar(k) for k in range(-3, 4)]
    y = MultiPoly.var(field, "y")
    lines = _lines(field, draw(st.lists(st.sampled_from(slopes), max_size=4)))
    form = y ** draw(st.integers(0, 2)) * lines
    r = form.total_degree()
    above = {e: c for e, c in draw(small_polys(field)).values.items() if sum(e) > r}
    return form + MultiPoly._from_values(field, AFFINE, above)


def _same_suitable(polys):
    sheared, lam, field = make_suitable_many(polys)
    want_sheared, want_lam, want_field = make_suitable_many_before(polys)
    assert field == want_field and field.describe() == want_field.describe()
    assert lam.field == want_lam.field and lam == want_lam and str(lam) == str(want_lam)
    assert [(p.field, p.variables, p.values) for p in sheared] == [
        (p.field, p.variables, p.values) for p in want_sheared
    ]
    return lam, field


@pytest.mark.parametrize("name", sorted(SUITABLE_FIELDS))
def test_make_suitable_many_agrees_with_the_forms_before(name):
    K = SUITABLE_FIELDS[name]
    seen = {"no shear": 0, "shear": 0}

    @seed(2525)
    @settings(max_examples=60, deadline=None, database=None)
    @given(polys=st.lists(cone_polys(K), min_size=1, max_size=3))
    def check(polys):
        lam, _field = _same_suitable(polys)
        seen["shear" if lam else "no shear"] += 1

    check()
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", ["F2", "F5", "F7", "F9"])
def test_make_suitable_many_extends_the_field_as_before(name):
    # lines through every slope of the field, spread over three curves, so
    # that every candidate fails and the tower grows a quadratic level
    K = SUITABLE_FIELDS[name]
    slopes = list(K.elements())
    x = MultiPoly.var(K, "x")
    polys = [_lines(K, slopes[i::3]) + x ** (len(slopes) + 1) for i in range(3)]
    lam, field = _same_suitable(polys)
    assert field.order() == K.order() ** 2 and lam


def test_make_suitable_many_refuses_zero_as_before():
    polys = [aff("x^2 - y"), MultiPoly.zero(QQ)]
    for suit in (make_suitable_many, make_suitable_many_before):
        with pytest.raises(ZeroPolynomial):
            suit(polys)


class TestGcdResultant:
    def test_coprime_pair_has_constant_gcd(self):
        assert biv_gcd(aff("y^2-x^3"), aff("y")).total_degree() == 0

    @pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
    def test_gcd_of_three_variables_is_refused(self, field):
        # the slices are bivariate, so the certificate must not answer here
        with pytest.raises(ValueError, match="two variables"):
            biv_gcd(hom("X^2 - Y*Z", field), hom("Y - Z", field))

    def test_common_factor_degree(self):
        h = aff("x + y")
        a = aff("y - x^2")
        b = aff("y^2 + x")
        g = biv_gcd(h * a, h * b)
        assert g.total_degree() == h.total_degree()
        assert g.evaluate({"x": QQ.scalar(1), "y": QQ.scalar(-1)}).is_zero()

    def test_resultant_of_tangent_line(self):
        R = resultant_biv(aff("y^2 - x^3"), aff("y"), "y")
        assert isinstance(R, UniPoly)
        assert R.degree == 3
        assert all(R.coeff(k).is_zero() for k in range(3))

    def test_resultant_vanishes_iff_common_factor(self):
        h = aff("y - x")
        R = resultant_biv(h * aff("y + x"), h * aff("y - x^2"), "y")
        assert R.is_zero()

    def test_resultant_in_the_other_variable(self):
        R = resultant_biv(aff("y^2 - x^3"), aff("x"), "x")
        # Res_x(y^2 - x^3, x) = y^2 up to sign
        assert R.degree == 2
        assert R.coeff(0).is_zero() and R.coeff(1).is_zero()


def sylvester_bareiss(F, G, main):
    """Reference resultant: Bareiss on the Sylvester matrix of UniPoly entries."""
    A, B = biv_coeffs(F, main), biv_coeffs(G, main)
    m, n = len(A) - 1, len(B) - 1
    field, var = A[0].field, A[0].var
    zero = UniPoly.zero(field, var)
    M = [[zero] * i + A[::-1] + [zero] * (n - 1 - i) for i in range(n)]
    M += [[zero] * i + B[::-1] + [zero] * (m - 1 - i) for i in range(m)]
    size, sign, prev = m + n, 1, UniPoly(field, (field.one(),), var)
    for k in range(size - 1):
        if M[k][k].is_zero():
            pivot = next((i for i in range(k + 1, size) if not M[i][k].is_zero()), None)
            if pivot is None:
                return zero
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                q, r = divmod(M[k][k] * M[i][j] - M[i][k] * M[k][j], prev)
                assert r.is_zero()
                M[i][j] = q
        prev = M[k][k]
    return M[-1][-1] if sign > 0 else -M[-1][-1]


RESULTANT_FIELDS = {
    "Q": (QQ, [QQ.scalar(c) for c in (-3, -1, 1, 2, Fraction(1, 2))]),
    "F5": (F5, [F5.scalar(c) for c in range(1, 5)]),
    "F9": (F9(), None),
}


@st.composite
def biv_polys(draw, field, coeffs, main, deg=3):
    """A polynomial in (x, y) of degree 1 to deg in `main`, at most deg in the other."""
    mi = AFFINE.index(main)
    exps = [(i, j) for i in range(deg + 1) for j in range(deg + 1)]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=5, unique=True))
    top = [0, 0]
    top[mi] = draw(st.integers(1, deg))
    chosen.append(tuple(top))
    return MultiPoly(field, AFFINE, {e: draw(st.sampled_from(coeffs)) for e in chosen})


@pytest.mark.parametrize("name", sorted(RESULTANT_FIELDS))
def test_resultant_agrees_with_bareiss_on_unipoly_entries(name):
    field, coeffs = RESULTANT_FIELDS[name]
    coeffs = coeffs or [c for c in field.elements() if not c.is_zero()]
    seen = {"zero": 0, "nonzero": 0}

    @seed(1968)
    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        main = data.draw(st.sampled_from(AFFINE))
        F = data.draw(biv_polys(field, coeffs, main))
        G = data.draw(biv_polys(field, coeffs, main))
        if data.draw(st.booleans()):
            h = data.draw(biv_polys(field, coeffs, main, deg=1))
            F, G = F * h, G * h
        R = resultant_biv(F, G, main)
        want = sylvester_bareiss(F, G, main)
        assert R == want and str(R) == str(want)
        seen["zero" if R.is_zero() else "nonzero"] += 1

    check()
    assert all(seen.values()), seen


class TestSquarefree:
    @pytest.mark.parametrize("entry", corpus()["not_squarefree"], ids=lambda e: e["poly"])
    def test_corpus_defects_detected(self, entry):
        from .helpers import field_by_name

        F = parse_poly(entry["poly"], field_by_name(entry["field"]), space="affine")
        assert squarefree_defect(F) is not None

    def test_squarefree_curve_has_no_defect(self):
        assert squarefree_defect(aff("y^2 - x^3")) is None
        assert squarefree_defect(aff("(y-x)(y+x)", F5)) is None

    def test_defect_is_the_repeated_part(self):
        d = squarefree_defect(aff("(x+y)^2*(x-y)"))
        assert d.total_degree() == 1
        assert d.evaluate({"x": QQ.scalar(1), "y": QQ.scalar(-1)}).is_zero()

    def test_char_p_pure_power(self):
        # x^3 + y^3 = (x+y)^3 over F_3
        d = squarefree_defect(aff("x^3 + y^3", F3))
        assert d is not None


def unipoly_prs_gcd(F, G):
    """Reference bivariate gcd: the primitive PRS on lists of UniPoly coefficients."""

    def trim(cs):
        while cs and cs[-1].is_zero():
            cs.pop()
        return cs

    def pseudo_rem(A, B):
        A = list(A)
        db, lb = len(B) - 1, B[-1]
        while len(A) - 1 >= db and A:
            la, shift = A[-1], len(A) - 1 - db
            A = [c * lb for c in A]
            for j in range(db + 1):
                A[shift + j] = A[shift + j] - la * B[j]
            A.pop()
            trim(A)
        return A

    def primitive(cs, var):
        g = UniPoly.zero(field, var)
        for c in cs:
            g = uni_gcd(g, c)
        if g.is_zero() or g.is_one():
            return list(cs), g
        out = []
        for c in cs:
            q, r = divmod(c, g)
            assert r.is_zero()
            out.append(q)
        return out, g

    if F.is_zero() or G.is_zero():
        return normalized(G if F.is_zero() else F)
    F, G = F._pair(G)
    field = F.field
    x, y = F.variables
    A, B = biv_coeffs(F, y), biv_coeffs(G, y)
    if len(A) < len(B):
        A, B = B, A
    A, contA = primitive(A, x)
    B, contB = primitive(B, x)
    cont = uni_gcd(contA, contB)
    while True:
        if len(B) == 1:
            prim = [UniPoly(field, (field.one(),), x)]
            break
        R = pseudo_rem(A, B)
        if not R:
            prim, _ = primitive(B, x)
            break
        A, B = B, primitive(R, x)[0]
    terms = {}
    for k, u in enumerate(prim):
        for j, c in enumerate((u * cont).coeffs):
            terms[(j, k)] = c
    return normalized(MultiPoly(field, F.variables, terms))


def normalized(P):
    """P divided by its leading coefficient in degree-then-reverse-lex order."""
    if P.is_zero():
        return P
    lead = max(P.terms, key=lambda e: (sum(e), e))
    return P * P.terms[lead].inverse()


def divides(g, P):
    """Whether g divides P: one polynomial is a Groebner basis of its ideal."""

    def lead(Q):
        return max(Q.terms, key=lambda e: (e[1], e[0]))

    eg = lead(g)
    while not P.is_zero():
        e = lead(P)
        if e[0] < eg[0] or e[1] < eg[1]:
            return False
        quotient = {(e[0] - eg[0], e[1] - eg[1]): P.terms[e] / g.terms[eg]}
        P = P - MultiPoly(P.field, P.variables, quotient) * g
    return True


@pytest.mark.parametrize("name", sorted(RESULTANT_FIELDS))
def test_biv_gcd_agrees_with_the_unipoly_prs(name):
    field, coeffs = RESULTANT_FIELDS[name]
    coeffs = coeffs or [c for c in field.elements() if not c.is_zero()]
    seen = {"trivial": 0, "planted": 0}

    @seed(1890)
    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        F = data.draw(biv_polys(field, coeffs, "y", deg=2))
        G = data.draw(biv_polys(field, coeffs, data.draw(st.sampled_from(AFFINE)), deg=2))
        if data.draw(st.booleans()):
            h = data.draw(biv_polys(field, coeffs, data.draw(st.sampled_from(AFFINE)), deg=1))
            F, G = F * h, G * h
        g = biv_gcd(F, G)
        want = unipoly_prs_gcd(F, G)
        assert g == want and str(g) == str(want)
        assert divides(g, F) and divides(g, G)
        seen["trivial" if g.total_degree() == 0 else "planted"] += 1

    check()
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# raw-value kernels against a reference on Scalar dicts
# ---------------------------------------------------------------------------


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_pow(a, k, one):
    out = {(0, 0): one}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, gx, gy, one):
    out = {}
    for (i, j), c in a.items():
        term = _ref_mul(_ref_pow(gx, i, one), _ref_pow(gy, j, one))
        out = _ref_add(out, {e: c * v for e, v in term.items()})
    return out


def _ref_derivative_x(a):
    out = {(i - 1, j): c * i for (i, j), c in a.items() if i}
    return {e: c for e, c in out.items() if not c.is_zero()}


def _tower(base):
    return extend_field(base, find_irreducible(base, 2))


KERNEL_FIELDS = {"Q": QQ, "F7": F7, "F9": F9()}
# a level above each finite field, for map_field, == and hash
KERNEL_TOWERS = {name: _tower(K) for name, K in KERNEL_FIELDS.items() if K.is_finite}


@st.composite
def small_polys(draw, field):
    """At most five terms in (x, y), each exponent at most 3."""
    if field.is_finite:
        coeff = st.sampled_from(list(field.elements()))
    else:
        coeff = st.tuples(st.integers(-9, 9), st.integers(1, 4)).map(lambda nd: Fraction(*nd))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return MultiPoly(field, AFFINE, draw(st.dictionaries(exps, coeff, max_size=5)))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernels_agree_with_scalar_reference(name):
    K = KERNEL_FIELDS[name]
    one = K.one()

    @seed(1910)
    @settings(max_examples=40, deadline=None, database=None)
    @given(F=small_polys(K), G=small_polys(K), H=small_polys(K), k=st.integers(0, 3))
    def check(F, G, H, k):
        f, g, h = F.terms, G.terms, H.terms
        assert (F + G).terms == _ref_add(f, g)
        assert (F - G).terms == _ref_add(f, {e: -c for e, c in g.items()})
        assert (-F).terms == {e: -c for e, c in f.items()}
        assert (F * G).terms == _ref_mul(f, g)
        assert (F ** k).terms == _ref_pow(f, k, one)
        assert F.substitute({"x": G, "y": H}).terms == _ref_substitute(f, g, h, one)
        assert F.derivative("x").terms == _ref_derivative_x(f)
        assert parse_poly(str(F), K, space="affine") == F
        if name in KERNEL_TOWERS:
            up = F.map_field(KERNEL_TOWERS[name])
            assert F == up and up == F
            assert hash(F) == hash(up)

    check()


@pytest.mark.parametrize("name", ["Q", "F7", "F7[z1]"])
def test_kernels_build_no_scalars(monkeypatch, name):
    K = {"Q": QQ, "F7": F7, "F7[z1]": _tower(F7)}[name]
    c = "z1" if name == "F7[z1]" else "3"
    F = aff(f"2*x^2*y - {c}*y^2 + x + 1", K)
    G = aff(f"x*y - 5*x + {c}*y^3 + 4", K)
    s = F.values[(0, 2)]
    ops = {
        "F + G": lambda: F + G,
        "F - G": lambda: F - G,
        "-F": lambda: -F,
        "F * G": lambda: F * G,
        "F ** 3": lambda: F ** 3,
        "substitute": lambda: F.substitute({"x": G, "y": F}),
        "derivative": lambda: F.derivative("x"),
        "_dshift": lambda: poly._dshift(K, F.values, 0, s),
        "_dshift along y": lambda: poly._dshift(K, F.values, 0, s, 1),
    }
    init, built = Scalar.__init__, []

    def counting(self, *a):
        built.append(1)
        init(self, *a)

    monkeypatch.setattr(Scalar, "__init__", counting)
    counts = {}
    for label, op in ops.items():
        built.clear()
        op()
        counts[label] = len(built)
    assert counts == dict.fromkeys(ops, 0)


# each base field of the shift test, and a quadratic level above it for
# shift scalars that F's own field does not hold
SHIFT_FIELDS = {name: (K, KERNEL_TOWERS.get(name)) for name, K in KERNEL_FIELDS.items()}
SHIFT_FIELDS["F7[z1]"] = (KERNEL_TOWERS["F7"], _tower(KERNEL_TOWERS["F7"]))


@st.composite
def shift_scalars(draw, field, upper):
    """Zero, an element of field, or one of the level above it."""
    if not field.is_finite:
        return draw(st.sampled_from([0, 1, -2, Fraction(3, 2)]).map(field.scalar))
    base = st.sampled_from(list(field.elements()))
    a0, a1 = draw(base), draw(base)
    kind = draw(st.sampled_from(["zero", "field", "upper"]))
    if kind == "zero":
        return draw(st.sampled_from([field.zero(), upper.zero()]))
    if kind == "field":
        return a0
    return upper.embed(a0) + upper.embed(a1) * upper.generator()


@pytest.mark.parametrize("name", sorted(SHIFT_FIELDS))
def test_taylor_shift_agrees_with_substitute(name):
    K, upper = SHIFT_FIELDS[name]
    x, y = (MultiPoly.var(K, v, AFFINE) for v in AFFINE)
    X, Y, Z = (MultiPoly.var(K, v, PROJECTIVE) for v in PROJECTIVE)

    @seed(1916)
    @settings(max_examples=40, deadline=None, database=None)
    @given(F=small_polys(K), a=shift_scalars(K, upper), b=shift_scalars(K, upper),
           k=st.integers(0, 3))
    def check(F, a, b, k):
        # a polynomial in X, Y, Z that is not homogeneous
        P = MultiPoly._from_values(
            K, PROJECTIVE, {(i, j, (i + k * j) % 4): c for (i, j), c in F.values.items()}
        )
        shapes = [
            (F, ((0, a), (1, b)), F.substitute({"x": x + a, "y": y + b})),
            (F, ((0, a, 1),), F.substitute({"x": x + y * a})),
            (F, ((1, a, 0),), F.substitute({"y": y + x * a})),
            (P, ((0, a, 2), (1, b, 2)), P.substitute({"X": X + Z * a, "Y": Y + Z * b})),
        ]
        for G, moves, ref in shapes:
            field = ref.field
            got = add_multiples(G, *moves)
            assert got.field == field and got.variables == G.variables
            assert got.values == ref.values
            values = G.map_field(field).values
            for i, s, *j in moves:
                s = field.scalar(s).value
                values = poly._dshift(field, values, i, s, *j) if s else values
            assert values == ref.values
            if all(s.is_zero() for _, s, *_ in moves):
                assert got == G.map_field(field)
                assert got is G or got.field != G.field

    check()


# the one Taylor-shift loop on each of its paths: bare ints and Fractions
# over Q, bare ints reduced modulo p over F_2 and F_101, raw tuples over F_9
_F101, _F9_CORE = PrimeField(101), F9()
CORE_FIELDS = {
    "Q int": (QQ, st.integers(-9, 9)),
    "Q Fraction": (QQ, st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(lambda nd: Fraction(*nd))),
    "F_2": (F2, st.sampled_from(list(F2.elements()))),
    "F_101": (_F101, st.integers(0, 100).map(_F101.scalar)),
    "F_9": (_F9_CORE, st.sampled_from(list(_F9_CORE.elements()))),
}


@pytest.mark.parametrize("name", sorted(CORE_FIELDS))
def test_dshift_agrees_with_substitute_on_every_path(name):
    # substitute runs on _dmul alone, so it shares no code with the Horner loop
    K, coeffs = CORE_FIELDS[name]
    xy = [MultiPoly.var(K, v, AFFINE) for v in AFFINE]
    exps = st.tuples(st.integers(0, 7), st.integers(0, 7))

    @seed(1997)
    @settings(max_examples=40, deadline=None, database=None)
    @given(terms=st.dictionaries(exps, coeffs, max_size=12), s=coeffs,
           i=st.sampled_from([0, 1]), sheared=st.booleans())
    def check(terms, s, i, sheared):
        F = MultiPoly(K, AFFINE, terms)
        s = K.scalar(s)
        j = 1 - i if sheared else None
        image = xy[i] + (xy[j] * s if sheared else s)
        want = F.substitute({AFFINE[i]: image})
        got = poly._dshift(K, F.values, i, s.value, j)
        assert got == want.values
        if name == "Q int":
            assert all(type(c) is int for c in got.values())

    check()


def test_coordinate_changes_call_no_substitute(monkeypatch, capsys):
    calls = []
    substitute = MultiPoly.substitute

    def spy(self, *a, **k):
        calls.append(self)
        return substitute(self, *a, **k)

    monkeypatch.setattr(MultiPoly, "substitute", spy)
    shapes, dshift = set(), poly._dshift

    def count(field, values, i, s, j=None):
        shapes.add((i, j))
        return dshift(field, values, i, s, j)

    monkeypatch.setattr(poly, "_dshift", count)
    F = aff("y^3 - x^5 + x^2*y")
    assert translate(F, 2, -1) != F and shear(F, 3) != F
    # both curves pass through [0 : 0 : 1], so the core shifts Y by a multiple of Z
    assert main(["bezout", "X^2 + Y^2 - X*Z", "X*Y - Y*Z + X^2", "--field", "p:7"]) == 0
    assert main(["appendix", "y^2+2x^2*y+x^4+x^7", "3"]) == 0
    capsys.readouterr()
    assert calls == []
    # translate's x and y, shear's x + lam*y, the core's Y + b*Z, the appendix's y + a*x
    assert shapes >= {(0, None), (1, None), (0, 1), (1, 2), (1, 0)}


def test_eq_is_false_across_variables_and_incompatible_fields():
    F = aff("x^2 + y")
    assert F != F.rename(("x", "t"))
    assert F != homogenize(F)
    assert aff("x + 1", F5) != aff("x + 1", F7)
    assert aff("x + 1", F5) != aff("x + 1")
    assert aff("1", F5) != F7.one()


def test_eq_coerces_constants_into_the_tower():
    K = _tower(F3)
    assert aff("2", F3) == 2 and aff("2", F3) == K.scalar(2) and aff("2", F3) != K.generator()
    assert aff("1/2") == Fraction(1, 2)


def test_negative_power_is_rejected():
    with pytest.raises(ValueError):
        aff("x + 1") ** -1


# ---------------------------------------------------------------------------
# over Q: integer raw values and biv_gcd's modular coprimality certificate
# ---------------------------------------------------------------------------


def test_integer_polynomials_over_q_hold_ints():
    F = aff("3*x^2*y - 12*y^3 + 7 - (x+2)^3")
    G = aff("x*y - 5")
    for P in (F, G, F * F - G, F.derivative("x"), translate(F, 2, -5)):
        assert all(type(v) is int for v in P.values.values()), P
    assert type(aff("1/2*x").values[(1, 0)]) is Fraction


def test_coprime_pair_over_q_runs_no_exact_prs(monkeypatch):
    # 12-digit coefficients, as in the cofactor workload
    F = aff("483920174652*x^2*y - 918273645501*y^2 + 102938475611*x^3 + 564738291003*x*y")
    G = aff("-739182645520*y^3 + 111122223333*x*y + 987654321012*x^2 - 246813579024*y")
    fields_seen = []
    original = poly._pseudo_rem

    def spy(field, A, B):
        fields_seen.append(field)
        return original(field, A, B)

    monkeypatch.setattr(poly, "_pseudo_rem", spy)
    g = biv_gcd(F, G)
    assert g == aff("1") and g.field is QQ
    # two slices of the images modulo p settle it: no PRS over any field
    assert fields_seen == []
    # the exact core, run on its own, does go through the PRS over Q
    assert poly._biv_gcd(F, G) == g and any(K is QQ for K in fields_seen)


P = linalg.CERT_PRIME


def lex_lead(F):
    return max(F.values, key=lambda e: (e[1], e[0]))


@st.composite
def cert_pairs(draw):
    """(F, G) over Q, integral or not, some sharing a factor (in x alone or
    not), some whose lex-leading coefficient is a multiple of p (one kind
    sharing p*y + c, which is a unit modulo p), and some congruent modulo p
    though coprime over Q."""
    coeff = st.integers(-9, 9)
    if draw(st.booleans()):
        coeff = st.tuples(coeff, st.integers(1, 4)).map(lambda nd: Fraction(*nd))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    polys = st.dictionaries(exps, coeff, min_size=1, max_size=4).map(
        lambda t: MultiPoly(QQ, AFFINE, t)
    )
    F, G = draw(polys), draw(polys)
    kinds = ["random", "shared", "shared_x", "lead", "lead_shared", "congruent"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("shared", "shared_x", "lead_shared"):
        if kind == "shared_x":
            h = MultiPoly(QQ, AFFINE, {(1, 0): draw(st.integers(1, 5)), (0, 0): draw(coeff)})
        elif kind == "lead_shared":
            h = MultiPoly(QQ, AFFINE, {(0, 1): P, (0, 0): draw(st.integers(1, 5))})
        else:
            h = draw(polys)
        F, G = F * h, G * h
    elif kind == "lead" and not F.is_zero():
        F = F + MultiPoly(QQ, AFFINE, {lex_lead(F): F.values[lex_lead(F)] * (P - 1)})
    elif kind == "congruent":
        G = F + MultiPoly(QQ, AFFINE, {(0, 0): P * draw(st.integers(1, 3))})
    return F, G


def test_certificate_agrees_with_the_exact_prs():
    seen = dict.fromkeys(["certified", "nonconstant", "p_divides_lead", "unlucky"], 0)
    Fp = poly._cert_field()

    @seed(1971)
    @settings(max_examples=150, deadline=None, database=None)
    @given(pair=cert_pairs())
    def check(pair):
        F, G = pair
        got, want = biv_gcd(F, G), poly._biv_gcd(F, G)
        # coprime is never reported where the PRS finds a common factor
        if want.total_degree() >= 1:
            assert got.total_degree() >= 1
        assert got == want and str(got) == str(want) and got.field is want.field
        if F.is_zero() or G.is_zero():
            return
        A, B = poly._image_mod_p(F, Fp), poly._image_mod_p(G, Fp)
        if want.total_degree() >= 1:
            seen["nonconstant"] += 1
        elif A is None or B is None:
            seen["p_divides_lead"] += 1
        elif poly._biv_gcd(A, B).total_degree() >= 1:
            seen["unlucky"] += 1
        else:
            seen["certified"] += 1

    check()
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# biv_gcd's two-slice certificate over finite fields
# ---------------------------------------------------------------------------


SLICE_FIELDS = {"F2": F2, "F3": F3, "F5": F5, "F7": F7, "F9": F9()}


@st.composite
def slice_pairs(draw, field):
    """(F, G) over a finite field: random, sharing a factor in x alone, in y
    alone or in both, sharing (x - a)(y - b) + c, whose slices at x = a and
    at y = b are constants, or agreeing on every slice in one variable."""
    elements = [c.value for c in field.elements()]
    nonzero = elements[1:]
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    # a constant term keeps x and y from dividing most draws
    polys = st.tuples(
        st.dictionaries(exps, st.sampled_from(nonzero), max_size=4), st.sampled_from(nonzero)
    ).map(lambda tc: MultiPoly._from_values(field, AFFINE, {**tc[0], (0, 0): tc[1]}))

    def raw(terms):
        return MultiPoly._from_values(field, AFFINE, {e: c for e, c in terms.items() if c})

    F, G = draw(polys), draw(polys)
    kinds = ["random", "shared", "shared_x", "shared_y", "shared_lead", "every_slice"]
    kind = draw(st.sampled_from(kinds))
    # the points the certificate tries first
    a, b = (draw(st.sampled_from(nonzero[:2])) for _ in range(2))
    one, neg = field.raw_one, field.neg
    if kind == "shared":
        h = draw(polys)
    elif kind == "shared_x":
        h = raw({(1, 0): one, (0, 0): neg(a)})
    elif kind == "shared_y":
        h = raw({(0, 2): one, (0, 1): b, (0, 0): draw(st.sampled_from(elements))})
    elif kind == "shared_lead":
        # (x - a)(y - b) + c
        c = draw(st.sampled_from(nonzero))
        ab_c = field.add(field.mul(a, b), c)
        h = raw({(1, 1): one, (1, 0): neg(b), (0, 1): neg(a), (0, 0): ab_c})
    if kind.startswith("shared"):
        F, G = F * h, G * h
    elif kind == "every_slice":
        # x^q - x vanishes on the whole field, so G(t, y) = F(t, y) for
        # every t (or G(x, s) = F(x, s) for every s, with the roles swapped)
        q = field.order()
        i = draw(st.integers(0, 1))
        terms = {(q, 0): one, (1, 0): neg(one)}
        vanishing = raw({(e[i], e[1 - i]): c for e, c in terms.items()})
        G = F + vanishing * MultiPoly.var(field, AFFINE[1 - i])
    return kind, F, G


@pytest.mark.parametrize("name", sorted(SLICE_FIELDS))
def test_slice_certificate_agrees_with_the_exact_prs(monkeypatch, name):
    field = SLICE_FIELDS[name]
    seen = dict.fromkeys(["certified", "fell_back", "nonconstant"], 0)
    # record the certificate's verdicts inside biv_gcd itself
    verdicts, certify = [], poly._coprime_by_slices

    def recording(A, B):
        verdicts.append(certify(A, B))
        return verdicts[-1]

    monkeypatch.setattr(poly, "_coprime_by_slices", recording)

    @seed(1971)
    @settings(max_examples=120, deadline=None, database=None)
    @given(pair=slice_pairs(field))
    def check(pair):
        kind, F, G = pair
        verdicts.clear()
        got, want = biv_gcd(F, G), poly._biv_gcd(F, G)
        # coprime is never reported where the PRS finds a common factor
        if want.total_degree() >= 1:
            assert got.total_degree() >= 1, kind
            seen["nonconstant"] += 1
        elif verdicts == [True]:
            seen["certified"] += 1
        else:
            seen["fell_back"] += 1
        assert got == want and str(got) == str(want) and got.field is want.field

    check()
    assert all(seen.values()), seen


def test_map_field_builds_no_scalars(monkeypatch):
    K = _tower(F7)
    F = aff("2*x^2*y - 3*y^2 + x + 1", F7)
    init, built = Scalar.__init__, []

    def counting(self, *a):
        built.append(1)
        init(self, *a)

    monkeypatch.setattr(Scalar, "__init__", counting)
    G = F.map_field(K)
    assert built == []
    assert G.field is K and G == F and str(G) == str(F)
    assert G.values == {e: (v,) for e, v in F.values.items()}


def _scan_by_hand(text):
    """The character-by-character scanner that the regular expression replaced."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in polynomial")
    tokens.append(("end", None))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ValueError as e:
        return str(e)


# ASCII, and beyond it only characters on which str.isdigit/isalpha/isspace
# and the regular expression's \d, \w and \s agree
TOKEN_ALPHABET = (
    [chr(c) for c in range(128)]
    + list("٠١٢٣٤٥٦٧٨٩०१२३४५६७८९０１２３")  # decimal digits
    + list("  　 \x85")  # spaces
    + list("éßЖλΩ中ñ")  # letters
)


def test_tokenize_agrees_with_the_hand_scanner():
    seen = {"tokens": 0, "error": 0}
    common = st.sampled_from(list("xyzXYZ12+-*^()/ ") + ["z1", "20", "٣", " ", "λ"])

    @seed(1212)
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(st.one_of(common, st.sampled_from(TOKEN_ALPHABET)), max_size=16).map("".join))
    def check(text):
        want = _tokens_or_error(_scan_by_hand, text)
        assert _tokens_or_error(poly._tokenize, text) == want
        seen["error" if isinstance(want, str) else "tokens"] += 1

    check()
    assert all(seen.values()), seen


@pytest.mark.parametrize("text", ["y^2-x²", "x^2+½*y", "²", "1²"])
def test_digits_that_are_not_decimal_stay_an_error(monkeypatch, capsys, text):
    # str.isdigit and \d disagree on '²', str.isalpha and \w on '½': the
    # error text may differ from the hand scanner's, but not the exit code
    assert main(["resolve", text]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setattr(poly, "_tokenize", _scan_by_hand)
    with pytest.raises(ValueError):
        parse_poly(text, QQ, space="affine")


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("main", AFFINE)
def test_resultant_without_the_main_variable_is_a_power(field, main):
    # Res(A0, G) = A0^n when A0 is free of the main variable, n = deg_main G
    other = "y" if main == "x" else "x"
    A0 = aff(f"2*{other}^2 + {other} - 3", field)
    G = aff(f"{main}^3 + {other}*{main} + 5", field)
    B0 = aff(f"{other} + 4", field)
    unit = UniPoly(field, (field.one(),), other)
    a0 = biv_coeffs(A0, main)[0]
    b0 = biv_coeffs(B0, main)[0]
    assert resultant_biv(A0, G, main) == a0 ** 3
    assert resultant_biv(G, B0, main) == b0 ** 3
    assert resultant_biv(A0, B0, main) == unit
    assert str(resultant_biv(A0, G, main)) == str(a0 * a0 * a0)
