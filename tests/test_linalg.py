import operator
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from planecurves.errors import InternalError
from planecurves.fields import PrimeField, RationalField, extend_field, find_irreducible
from planecurves.linalg import echelon, solve_linear

from .helpers import F7, F9, QQ


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
