import copy
import operator
import random
from fractions import Fraction
from functools import partial
from itertools import islice
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from planecurves import linalg
from planecurves.errors import InternalError
from planecurves.fields import (
    PrimeField,
    RationalField,
    UniPoly,
    _pdivmod,
    _pmul,
    _psub,
    _trim,
    extend_field,
    find_irreducible,
)
from planecurves.linalg import echelon, solve_linear
from planecurves.noether import solve_af_bg
from planecurves.poly import AFFINE, PROJECTIVE, MultiPoly, biv_coeffs, resultant_biv

from .helpers import F5, F7, F9, QQ


def q(*vals):
    return [QQ.scalar(v) for v in vals]


class TestRational:
    def test_unique_solution(self):
        rows = [q(2, 1), q(1, -1)]
        sol = solve_linear(rows, q(5, 1), QQ)
        assert sol == q(2, 1)

    def test_fractions_stay_exact(self):
        rows = [q(3)]
        (x,) = solve_linear(rows, q(1), QQ)
        assert x == QQ.scalar(1) / QQ.scalar(3)

    def test_inconsistent_returns_none(self):
        rows = [q(1, 1), q(2, 2)]
        assert solve_linear(rows, q(1, 3), QQ) is None

    def test_free_variables_default_to_zero(self):
        rows = [q(1, 1)]
        sol = solve_linear(rows, q(4), QQ)
        assert sol == q(4, 0)

    def test_free_values_pin_chosen_columns(self):
        rows = [q(1, 1)]
        sol = solve_linear(rows, q(4), QQ, free_values={1: QQ.scalar(1)})
        assert sol == q(3, 1)

    def test_pivoting_handles_a_zero_corner(self):
        rows = [q(0, 1), q(1, 0)]
        assert solve_linear(rows, q(7, -2), QQ) == q(-2, 7)

    def test_wide_system(self):
        rows = [q(1, 2, 3), q(0, 1, 1)]
        x = solve_linear(rows, q(6, 2), QQ)
        assert [sum(a * b for a, b in zip(row, x)) for row in rows] == q(6, 2)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_linear([q(1, 2), q(1)], q(0, 0), QQ)
        with pytest.raises(ValueError):
            solve_linear([q(1)], q(1, 2), QQ)


class TestFinite:
    def f(self, *vals):
        return [F7.scalar(v) for v in vals]

    def test_unique_solution_mod_7(self):
        rows = [self.f(2, 1), self.f(1, 6)]
        x = solve_linear(rows, self.f(0, 0), F7)
        assert all(v.is_zero() for v in x)
        rows = [self.f(3, 0), self.f(0, 5)]
        x = solve_linear(rows, self.f(1, 1), F7)
        assert x[0] * F7.scalar(3) == F7.one()
        assert x[1] * F7.scalar(5) == F7.one()

    def test_inconsistent_mod_7(self):
        rows = [self.f(1, 1), self.f(2, 2)]
        assert solve_linear(rows, self.f(1, 1), F7) is None

    def test_free_values_mod_7(self):
        rows = [self.f(1, 1)]
        sol = solve_linear(rows, self.f(3), F7, free_values={1: F7.scalar(2)})
        assert sol == self.f(1, 2)


def test_random_consistent_systems_are_solved():
    rng = random.Random(20260818)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [q(*[rng.randint(-9, 9) for _ in range(n)]) for _ in range(m)]
        x0 = q(*[rng.randint(-9, 9) for _ in range(n)])
        rhs = [sum((a * b for a, b in zip(row, x0)), QQ.zero()) for row in rows]
        x = solve_linear(rows, rhs, QQ)
        assert x is not None
        # any solution is fine, as long as it solves the system
        for row, b in zip(rows, rhs):
            assert sum((a * v for a, v in zip(row, x)), QQ.zero()) == b


# ---- differential tests against Gauss-Jordan on Scalars ----


def gauss_jordan(rows, rhs, field, free_values):
    """Reference solver: reduced row echelon form by scalar inverses."""
    n = len(rows[0]) if rows else 0
    M = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(M)) if not M[i][col].is_zero()), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = M[rank][col].inverse()
        M[rank] = [v * inv for v in M[rank]]
        for i in range(len(M)):
            if i != rank and not M[i][col].is_zero():
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        pivots.append(col)
    if any(not M[i][n].is_zero() for i in range(len(pivots), len(M))):
        return None
    x = [free_values.get(j, field.zero()) for j in range(n)]
    for i, col in reversed(list(enumerate(pivots))):
        acc = M[i][n]
        for j in range(col + 1, n):
            acc = acc - M[i][j] * x[j]
        x[col] = acc
    return x


LINALG_FIELDS = {"Q": QQ, "F7": F7, "F9": F9()}
LINALG_FIELDS["F81"] = extend_field(LINALG_FIELDS["F9"], find_irreducible(LINALG_FIELDS["F9"], 2))


def elements(field):
    """Field elements, zero half the time so that rank drops often."""
    if isinstance(field, RationalField):
        nonzero = st.fractions(-6, 6, max_denominator=4).map(field.scalar)
    elif isinstance(field, PrimeField):
        nonzero = st.integers(1, field.p - 1).map(field.scalar)
    else:
        z = field.generator()
        nonzero = st.lists(elements(field.base), min_size=field.degree, max_size=field.degree).map(
            lambda cs: sum((field.embed(c) * z ** i for i, c in enumerate(cs)), field.zero())
        )
    return st.one_of(st.just(field.zero()), nonzero)


@pytest.mark.parametrize("name", sorted(LINALG_FIELDS))
def test_solver_agrees_with_gauss_jordan(name):
    field = LINALG_FIELDS[name]
    seen = {"inconsistent": 0, "rank deficient": 0, "pinned": 0}

    @seed(1968)
    @settings(max_examples=50, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        rows = [data.draw(st.lists(elements(field), min_size=n, max_size=n)) for _ in range(m)]
        dependent = data.draw(st.booleans())
        if dependent:
            # the sum of two rows, so the rank is below the row count
            i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
            rows.append([a + b for a, b in zip(rows[i], rows[j])])
        rhs = data.draw(st.lists(elements(field), min_size=len(rows), max_size=len(rows)))
        pinned = data.draw(st.dictionaries(st.integers(0, n - 1), elements(field), max_size=n))
        got = solve_linear(rows, rhs, field, free_values=pinned)
        want = gauss_jordan(rows, rhs, field, pinned)
        assert (got is None) == (want is None)
        if got is None:
            seen["inconsistent"] += 1
            return
        assert got == want
        assert [str(v) for v in got] == [str(v) for v in want]
        assert all(v.field == field for v in got)
        if dependent:
            seen["rank deficient"] += 1
        if any(not v.is_zero() for v in pinned.values()):
            seen["pinned"] += 1

    check()
    assert all(seen.values()), seen


def test_inexact_division_raises():
    # dividing by twice the previous pivot leaves a remainder in row 3
    M = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    with pytest.raises(InternalError, match="Bareiss division must be exact"):
        echelon(M, 3, operator.mul, operator.sub, lambda a, b: divmod(a, 2 * b))


def test_last_pivot_is_the_signed_determinant():
    # det = 3; the zero corner forces one row swap
    M = [[0, 1, 2], [1, 2, 3], [4, 5, 3]]
    pivots, sign = echelon(M, 3, operator.mul, operator.sub, divmod)
    assert pivots == [(0, 0), (1, 1), (2, 2)]
    assert sign == -1
    assert sign * M[2][2] == 3


# ---- the lazy elimination against the textbook Bareiss loop ----


def echelon_eager(M, ncols, mul, sub, div=None):
    """Textbook Bareiss: every lower row is rewritten at every step, also a
    row whose entry in the pivot column is zero, which is only rescaled."""
    m = len(M)
    pivots, sign, prev = [], 1, None
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if M[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            M[rank], M[pivot] = M[pivot], M[rank]
            sign = -sign
        top = M[rank]
        p = top[col]
        for row in M[rank + 1:]:
            c = row[col]
            if not c and (div is None or not any(row[col + 1:])):
                continue
            for j in range(col + 1, len(row)):
                v = sub(mul(p, row[j]), mul(c, top[j]))
                if prev is not None:
                    v, r = div(v, prev)
                    if r:
                        raise InternalError("Bareiss division must be exact")
                row[j] = v
        if div is not None:
            prev = p
        pivots.append((rank, col))
    return pivots, sign


def counting(div):
    """div wrapped to count its calls in .calls."""

    def counted(a, b):
        counted.calls += 1
        return div(a, b)

    counted.calls = 0
    return counted


def assert_same_elimination(lazy, eager, pivots, mul):
    """Pivot rows equal from their pivot column on; each row below the rank
    a nonzero factor away from the eager one right of the last pivot."""
    for i, col in pivots:
        assert lazy[i][col:] == eager[i][col:]
    start = pivots[-1][1] + 1 if pivots else 0
    for i in range(len(pivots), len(lazy)):
        a, b = lazy[i][start:], eager[i][start:]
        assert [bool(v) for v in a] == [bool(v) for v in b]
        assert all(mul(x, w) == mul(v, y) for x, y in zip(a, b) for v, w in zip(a, b))


@st.composite
def sparse_int_matrices(draw):
    """Z matrices, two thirds zeros, sometimes augmented, sometimes with a
    row that combines two others."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    width = n + draw(st.integers(0, 1))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
    rows = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(m)))[:3]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows, n


def test_lazy_elimination_agrees_with_the_eager_loop_over_z():
    seen = {"swap": 0, "rank deficient": 0, "fewer divisions": 0}

    @seed(1968)
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=sparse_int_matrices())
    def check(case):
        rows, n = case
        lazy, eager = copy.deepcopy(rows), copy.deepcopy(rows)
        d_lazy, d_eager = counting(divmod), counting(divmod)
        got = echelon(lazy, n, operator.mul, operator.sub, d_lazy)
        want = echelon_eager(eager, n, operator.mul, operator.sub, d_eager)
        assert got == want
        assert_same_elimination(lazy, eager, got[0], operator.mul)
        seen["swap"] += got[1] < 0
        seen["rank deficient"] += len(got[0]) < len(rows)
        seen["fewer divisions"] += d_lazy.calls < d_eager.calls

    check()
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [F5, F7], ids=["F5", "F7"])
def test_lazy_elimination_agrees_with_the_eager_loop_on_sylvester_matrices(field):
    ops = (partial(_pmul, field), partial(_psub, field), partial(_pdivmod, field))
    coeff = st.lists(st.integers(0, field.p - 1), max_size=3).map(_trim)
    seen = {"full rank": 0, "rank deficient": 0, "fewer divisions": 0}

    @seed(1968)
    @settings(max_examples=150, deadline=None, database=None)
    @given(a=st.lists(coeff, min_size=1, max_size=4), b=st.lists(coeff, min_size=1, max_size=4))
    def check(a, b):
        # the Sylvester matrix of two polynomials in y over F_p[x], leading
        # coefficient first, zero coefficients allowed anywhere
        m, n = len(a) - 1, len(b) - 1
        rows = [[()] * i + a + [()] * (n - 1 - i) for i in range(n)]
        rows += [[()] * i + b + [()] * (m - 1 - i) for i in range(m)]
        lazy, eager = copy.deepcopy(rows), copy.deepcopy(rows)
        d_lazy, d_eager = counting(ops[2]), counting(ops[2])
        got = echelon(lazy, m + n, ops[0], ops[1], d_lazy)
        want = echelon_eager(eager, m + n, ops[0], ops[1], d_eager)
        assert got == want
        assert_same_elimination(lazy, eager, got[0], ops[0])
        full = len(got[0]) == m + n
        seen["full rank" if full else "rank deficient"] += 1
        seen["fewer divisions"] += d_lazy.calls < d_eager.calls

    check()
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", ["F7", "F9"])
def test_field_pivot_rows_are_monic(name):
    field = LINALG_FIELDS[name]

    @seed(1968)
    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        rows = [
            [v.value for v in data.draw(st.lists(elements(field), min_size=n + 1, max_size=n + 1))]
            for _ in range(m)
        ]
        lazy, eager = copy.deepcopy(rows), copy.deepcopy(rows)
        got = echelon(lazy, n, field=field)
        assert got == echelon_eager(eager, n, field.mul, field.sub)
        for i, col in got[0]:
            s = field.inv(eager[i][col])
            assert lazy[i][col:] == [field.mul(s, v) for v in eager[i][col:]]
        start = got[0][-1][1] + 1 if got[0] else 0
        for i in range(len(got[0]), m):
            assert [bool(v) for v in lazy[i][start:]] == [bool(v) for v in eager[i][start:]]

    check()


def laplace_det(M, one, zero):
    """Determinant by expansion along the first row."""
    if not M:
        return one
    total = zero
    for j, a in enumerate(M[0]):
        if a.is_zero():
            continue
        term = a * laplace_det([row[:j] + row[j + 1:] for row in M[1:]], one, zero)
        total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_resultant_is_the_laplace_determinant_of_the_sylvester_matrix(field):
    coeff = st.integers(-3, 3) if field is QQ else st.integers(0, 6)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 3))
    poly = st.dictionaries(exps, coeff, min_size=1, max_size=5).map(
        lambda d: MultiPoly(field, AFFINE, d)
    )
    seen = {"nonzero": 0, "zero": 0}

    @seed(1968)
    @settings(max_examples=80, deadline=None, database=None)
    @given(F=poly, G=poly, main=st.sampled_from(AFFINE))
    def check(F, G, main):
        if F.is_zero() or G.is_zero():
            return
        co = AFFINE[1 - AFFINE.index(main)]
        A, B = biv_coeffs(F, main), biv_coeffs(G, main)
        m, n = len(A) - 1, len(B) - 1
        zero, one = UniPoly.zero(field, co), UniPoly(field, (1,), co)
        rows = [[zero] * i + A[::-1] + [zero] * (n - 1 - i) for i in range(n)]
        rows += [[zero] * i + B[::-1] + [zero] * (m - 1 - i) for i in range(m)]
        R = resultant_biv(F, G, main)
        assert R == laplace_det(rows, one, zero)
        seen["zero" if R.is_zero() else "nonzero"] += 1

    check()
    assert all(seen.values()), seen


def test_lazy_elimination_skips_most_rescaling_divisions(monkeypatch):
    # a cofactor-sized system over Q: H = A F + B G with 12-digit
    # coefficients, deg F = 3, deg G = 4, deg H = 6
    rng = random.Random(20261019)

    def form(d):
        terms = {(i, j, d - i - j): rng.choice((-1, 1)) * rng.randrange(10**11, 10**12)
                 for i in range(d + 1) for j in range(d + 1 - i)}
        return MultiPoly(QQ, PROJECTIVE, terms)

    F, G = form(3), form(4)
    H = form(3) * F + form(2) * G
    systems = []

    def recording(M, ncols, *args, **kwargs):
        # the one elimination over Z, not the choice of rows modulo p
        if kwargs.get("field") is None:
            systems.append((copy.deepcopy(M), ncols))
        return echelon(M, ncols, *args, **kwargs)

    monkeypatch.setattr(linalg, "echelon", recording)
    assert solve_af_bg(F, G, H).status == "Solved"
    [(M, n)] = systems
    assert len(M) == n
    lazy, eager = copy.deepcopy(M), copy.deepcopy(M)
    d_lazy, d_eager = counting(divmod), counting(divmod)
    got = echelon(lazy, n, operator.mul, operator.sub, d_lazy)
    assert got == echelon_eager(eager, n, operator.mul, operator.sub, d_eager)
    assert d_lazy.calls <= 0.6 * d_eager.calls, (d_lazy.calls, d_eager.calls)


# ---- the sparse field update against the dense one it replaced ----


def echelon_dense_field(M, ncols, field):
    """The field path as it was before the sparse update: each pivot row is
    made monic entry by entry, and each lower row with a nonzero entry in
    the pivot column is rewritten right of it, entry by entry."""
    m = len(M)
    pivots, sign = [], 1
    mul, sub, one = field.mul, field.sub, field.raw_one
    p_int = field.p if isinstance(field, PrimeField) else None
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if M[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            M[rank], M[pivot] = M[pivot], M[rank]
            sign = -sign
        pivots.append((rank, col))
        top = M[rank]
        if top[col] != one:
            by_pivot = field.divider(top[col])
            top[col:] = [one] + [by_pivot(b) for b in top[col + 1:]]
        tail = top[col + 1:]
        for i in range(rank + 1, m):
            row = M[i]
            c = row[col]
            if not c:
                continue
            if p_int is None:
                new = [sub(a, mul(c, b)) for a, b in zip(row[col + 1:], tail)]
            else:
                new = [(a - c * b) % p_int if b else a for a, b in zip(row[col + 1:], tail)]
            row[col + 1:] = new
    return pivots, sign


F10007 = PrimeField(10007)
SPARSE_FIELDS = {"F7": F7, "F9": LINALG_FIELDS["F9"], "F10007": F10007}


def assert_same_as_dense(M, ncols, field):
    sparse, dense = copy.deepcopy(M), copy.deepcopy(M)
    got = echelon(sparse, ncols, field=field)
    assert got == echelon_dense_field(dense, ncols, field)
    assert sparse == dense
    return got


@pytest.mark.parametrize("name", sorted(SPARSE_FIELDS))
def test_sparse_field_update_leaves_the_dense_matrix(name):
    field = SPARSE_FIELDS[name]
    seen = {"swap": 0, "rank deficient": 0, "full rank": 0}

    @seed(1968)
    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 6))
        width = n + data.draw(st.integers(0, 1))
        # zero two thirds of the time, so that pivot rows are sparse
        entry = st.one_of(st.just(field.zero()), st.just(field.zero()), elements(field))
        M = [[v.value for v in data.draw(st.lists(entry, min_size=width, max_size=width))]
             for _ in range(m)]
        pivots, sign = assert_same_as_dense(M, n, field)
        seen["swap"] += sign < 0
        seen["full rank" if len(pivots) == min(m, n) else "rank deficient"] += 1

    check()
    assert all(seen.values()), seen


def random_form(field, d, rng, top=True):
    """A random form of degree d; without its Z^d term unless top."""
    values = list(islice(field.elements(), 1, 40))
    terms = {(i, j, d - i - j): rng.choice(values) for i in range(d + 1) for j in range(d + 1 - i)}
    if not top:
        terms.pop((0, 0, d))
    return MultiPoly(field, PROJECTIVE, terms)


def macaulay_systems(monkeypatch, field, degrees, rng):
    """The matrices that solve_af_bg hands to echelon over the field, for
    H = A F + B G and for that H plus Z^(deg F + deg G - 2)."""
    systems = []

    def recording(M, ncols, *args, **kwargs):
        if kwargs.get("field") is field:
            systems.append((copy.deepcopy(M), ncols))
        return echelon(M, ncols, *args, **kwargs)

    monkeypatch.setattr(linalg, "echelon", recording)
    for dF, dG, dH in degrees:
        F, G = random_form(field, dF, rng, top=False), random_form(field, dG, rng, top=False)
        H = random_form(field, dH - dF, rng) * F + random_form(field, dH - dG, rng) * G
        d = dF + dG - 2
        H2 = random_form(field, d - dF, rng) * F + random_form(field, d - dG, rng) * G
        H2 = H2 + MultiPoly(field, PROJECTIVE, {(0, 0, d): 1})
        assert solve_af_bg(F, G, H).status == "Solved"
        assert solve_af_bg(F, G, H2).status == "NoSolution"
    monkeypatch.undo()
    return systems


@pytest.mark.parametrize("name", sorted(SPARSE_FIELDS))
def test_sparse_field_update_on_macaulay_systems(monkeypatch, name):
    field = SPARSE_FIELDS[name]
    degrees = [(2, 3, 4), (3, 4, 6), (3, 3, 7)]
    if field is F10007:
        degrees.append((4, 5, 8))
    systems = macaulay_systems(monkeypatch, field, degrees, random.Random(20261020))
    assert len(systems) == 2 * len(degrees)
    for M, n in systems:
        assert_same_as_dense(M, n, field)


# ---- over Q: the square system picked modulo p against full Bareiss ----


def solve_full_bareiss(rows, rhs, free_values=None):
    """The Q path before rows were picked modulo p: lazy Bareiss over Z on
    every cleared row, then back-substitution in Fractions."""
    n = len(rows[0]) if rows else 0
    M = []
    for row, b in zip(rows, rhs):
        vals = [Fraction(c.value) for c in row] + [Fraction(b.value)]
        scale = lcm(*[v.denominator for v in vals])
        M.append([int(v * scale) for v in vals])
    pivots, _ = echelon(M, n, operator.mul, operator.sub, divmod)
    if any(M[i][n] for i in range(len(pivots), len(M))):
        return None
    pivot_cols = {col for _, col in pivots}
    x = [Fraction(0)] * n
    for j, v in (free_values or {}).items():
        if j not in pivot_cols:
            x[j] = Fraction(v.value)
    for i, col in reversed(pivots):
        acc = M[i][n] - sum(M[i][j] * x[j] for j in range(col + 1, n))
        x[col] = Fraction(acc) / M[i][col]
    return [QQ.scalar(v) for v in x]


def spy_routes(monkeypatch):
    """Count solve_linear's routes over Q: the square one, and the fallback,
    the full Bareiss elimination of every row, which a square or wide
    system takes without a row choice modulo p."""
    routes = {"square": 0, "fallback": 0}
    square, echelon = linalg._solve_square, linalg.echelon
    inside_square = []

    def spy_square(*args):
        routes["square"] += 1
        inside_square.append(1)
        try:
            return square(*args)
        finally:
            inside_square.pop()

    def spy_echelon(M, ncols, *args, field=None):
        # the row choice modulo p passes a field; the square route's own
        # Bareiss runs inside _solve_square
        if field is None and not inside_square:
            routes["fallback"] += 1
        return echelon(M, ncols, *args, field=field)

    monkeypatch.setattr(linalg, "_solve_square", spy_square)
    monkeypatch.setattr(linalg, "echelon", spy_echelon)
    return routes


@st.composite
def tall_rational_systems(draw):
    """(rows, rhs, kind) over Q with more rows than columns: consistent,
    inconsistent, or with a column that combines two others."""
    n = draw(st.integers(1, 5))
    m = n + draw(st.integers(0, 4))
    big = draw(st.booleans())
    nonzero = (st.integers(-10**12, 10**12) if big
               else st.fractions(-6, 6, max_denominator=4))
    entry = st.one_of(st.just(0), nonzero)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    kind = draw(st.sampled_from(["consistent", "inconsistent", "rank deficient"]))
    if kind == "rank deficient" and n >= 3:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        for row in rows:
            row[n - 1] = a * Fraction(row[0]) + b * Fraction(row[1])
    x0 = draw(st.lists(nonzero, min_size=n, max_size=n))
    rhs = [sum(Fraction(a) * v for a, v in zip(row, x0)) for row in rows]
    if kind == "inconsistent":
        i = draw(st.integers(0, m - 1))
        rhs[i] += draw(st.sampled_from([1, Fraction(1, 3), linalg.CERT_PRIME]))
    return [q(*row) for row in rows], q(*rhs)


def test_square_route_agrees_with_full_bareiss(monkeypatch):
    routes = spy_routes(monkeypatch)
    seen = {"solved square": 0, "none square": 0, "solved fallback": 0, "none fallback": 0}

    @seed(1968)
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=tall_rational_systems())
    def check(case):
        rows, rhs = case
        before = dict(routes)
        got = solve_linear(rows, rhs, QQ)
        want = solve_full_bareiss(rows, rhs)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want
            assert [type(v.value) for v in got] == [type(v.value) for v in want]
            assert [str(v) for v in got] == [str(v) for v in want]
        route = "square" if routes["square"] > before["square"] else "fallback"
        assert routes["square"] + routes["fallback"] == before["square"] + before["fallback"] + 1
        seen[("none " if got is None else "solved ") + route] += 1

    check()
    assert all(seen.values()), seen


def test_a_prime_dividing_every_minor_falls_back(monkeypatch):
    # the second column holds only p, so it has no pivot modulo p
    P = linalg.CERT_PRIME
    routes = spy_routes(monkeypatch)
    rows = [q(1, P), q(2, P), q(3, P)]
    rhs = q(1 + 2 * P, 2 + 2 * P, 3 + 2 * P)
    x = solve_linear(rows, rhs, QQ)
    assert x == q(1, 2) == solve_full_bareiss(rows, rhs)
    assert routes == {"square": 0, "fallback": 1}
    rhs[2] = QQ.scalar(3)
    assert solve_linear(rows, rhs, QQ) is None and solve_full_bareiss(rows, rhs) is None


def test_only_tall_systems_choose_rows_modulo_p(monkeypatch):
    chosen = []
    independent = linalg._independent_rows

    def spy(M, n):
        chosen.append((len(M), n))
        return independent(M, n)

    monkeypatch.setattr(linalg, "_independent_rows", spy)
    # square, wide and tall, each solvable
    assert solve_linear([q(1, 2), q(3, 4)], q(5, 6), QQ) == q(-4, Fraction(9, 2))
    assert solve_linear([q(1, 2, 3)], q(6), QQ) == q(6, 0, 0)
    assert solve_linear([q(1), q(2), q(3)], q(2, 4, 6), QQ) == q(2)
    assert chosen == [(3, 1)]


def test_rows_consistent_modulo_p_are_still_checked_exactly(monkeypatch):
    # the second row differs from the first by p on the right: the same
    # modulo p, so only the exact check of every row finds no solution
    P = linalg.CERT_PRIME
    routes = spy_routes(monkeypatch)
    assert solve_linear([q(1), q(1)], q(0, P), QQ) is None
    assert solve_linear([q(1), q(1)], q(P, P), QQ) == q(P)
    assert routes == {"square": 2, "fallback": 0}


def test_cofactor_systems_take_the_square_route(monkeypatch):
    # cofactor-shaped triples over Q, solvable and not, have full column
    # rank; X | Y | X*Y has the syzygy (Y, -X) in degree 2, so a free column
    routes = spy_routes(monkeypatch)
    rng = random.Random(20261020)

    def form(d, top=True):
        terms = {(i, j, d - i - j): rng.choice((-1, 1)) * rng.randrange(10**11, 10**12)
                 for i in range(d + 1) for j in range(d + 1 - i)}
        if not top:
            terms.pop((0, 0, d))
        return MultiPoly(QQ, PROJECTIVE, terms)

    for dF, dG, dH in [(2, 2, 3), (3, 3, 5), (3, 4, 6)]:
        F, G = form(dF, top=False), form(dG, top=False)
        H = form(dH - dF) * F + form(dH - dG) * G
        d = dF + dG - 2
        H2 = form(d - dF) * F + form(d - dG) * G + MultiPoly(QQ, PROJECTIVE, {(0, 0, d): 1})
        assert solve_af_bg(F, G, H).status == "Solved"
        assert solve_af_bg(F, G, H2).status == "NoSolution"
    assert routes == {"square": 6, "fallback": 0}
    X, Y = MultiPoly(QQ, PROJECTIVE, {(1, 0, 0): 1}), MultiPoly(QQ, PROJECTIVE, {(0, 1, 0): 1})
    cert = solve_af_bg(X, Y, X * Y)
    assert cert.status == "Solved" and str(cert.A) == "Y" and str(cert.B) == "0"
    assert routes == {"square": 6, "fallback": 1}


def test_a_tall_system_inconsistent_modulo_p_needs_no_elimination_over_z(monkeypatch):
    # rows 1 and 2 give x = 1, y = 2; the third, x + y = 4, contradicts them,
    # and the contradiction holds modulo p as well
    eliminations = []
    echelon = linalg.echelon

    def spy(M, ncols, *args, field=None):
        eliminations.append("Z" if field is None else field.describe())
        return echelon(M, ncols, *args, field=field)

    monkeypatch.setattr(linalg, "echelon", spy)
    rows = [q(1, 0), q(0, 1), q(1, 1)]
    assert solve_linear(rows, q(1, 2, 4), QQ) is None
    assert eliminations == [f"F{linalg.CERT_PRIME}"]
    # a 13-digit tall system over Q with fractional entries, inconsistent
    # in its last row by 1/3
    rows = [q(10**12 + 39, Fraction(1, 7), 5), q(3, -2, 10**12), q(1, 1, 1), q(2, 0, -1)]
    x = [Fraction(2, 3), 7, -10**12]
    rhs = [sum(Fraction(a.value) * v for a, v in zip(row, x)) for row in rows]
    rhs[-1] += Fraction(1, 3)
    assert solve_linear(rows, q(*rhs), QQ) is None
    assert solve_full_bareiss(rows, q(*rhs)) is None
    assert eliminations == [f"F{linalg.CERT_PRIME}"] * 2
