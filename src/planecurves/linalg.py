"""Exact dense linear solving for the coefficient-matching systems.

Over Q, rows are cleared to integers and eliminated fraction-free
(Bareiss), so intermediate entries stay integral and division is exact.
Over finite fields plain Gauss-Jordan with scalar inverses is already
exact.  Both paths produce the same canonical particular solution: free
variables are zero unless the caller pins them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalError
from .fields import Field, RationalField, Scalar


def solve_linear(rows, rhs, field: Field, free_values=None):
    """Solve rows * x = rhs; a list of Scalars, or None when inconsistent.

    free_values maps column index -> Scalar for non-pivot columns (entries
    for pivot columns are ignored).  Default: all free variables zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
    if len(rhs) != m:
        raise ValueError("rhs length mismatch")
    free_values = dict(free_values or {})
    if isinstance(field, RationalField):
        return _solve_rational(rows, rhs, field, free_values)
    return _solve_finite(rows, rhs, field, free_values)


def _solve_rational(rows, rhs, field, free_values):
    m, n = len(rows), len(rows[0]) if rows else 0
    M = []
    for row, b in zip(rows, rhs):
        fracs = [_as_fraction(c) for c in row] + [_as_fraction(b)]
        scale = 1
        for f in fracs:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        M.append([int(f * scale) for f in fracs])

    pivots = []  # (row, col)
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(rank, m) if M[i][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for i in range(rank + 1, m):
            if all(v == 0 for v in M[i]):
                continue
            for j in range(col + 1, n + 1):
                num = M[rank][col] * M[i][j] - M[i][col] * M[rank][j]
                q, r = divmod(num, prev)
                if r != 0:
                    raise InternalError("Bareiss division must be exact")
                M[i][j] = q
            M[i][col] = 0
        prev = M[rank][col]
        pivots.append((rank, col))
        rank += 1

    for i in range(rank, m):
        if M[i][n] != 0:
            return None

    x = [None] * n
    pivot_cols = {col for _, col in pivots}
    for j in range(n):
        if j not in pivot_cols:
            v = free_values.get(j)
            x[j] = _as_fraction(v) if v is not None else Fraction(0)
    for i, col in reversed(pivots):
        acc = Fraction(M[i][n])
        for j in range(col + 1, n):
            if M[i][j]:
                acc -= Fraction(M[i][j]) * x[j]
        x[col] = acc / Fraction(M[i][col])
    return [field.scalar(v) for v in x]


def _as_fraction(c):
    if isinstance(c, Scalar):
        return Fraction(c.value)
    return Fraction(c)


def _solve_finite(rows, rhs, field, free_values):
    m, n = len(rows), len(rows[0]) if rows else 0
    M = [[field.scalar(c) if not isinstance(c, Scalar) else c for c in row] + [b]
         for row, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if not M[i][col].is_zero()), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = M[rank][col].inverse()
        M[rank] = [v * inv for v in M[rank]]
        for i in range(m):
            if i != rank and not M[i][col].is_zero():
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        pivots.append((rank, col))
        rank += 1

    zero = field.zero()
    for i in range(rank, m):
        if not M[i][n].is_zero():
            return None

    x = [zero] * n
    pivot_cols = {col for _, col in pivots}
    for j in range(n):
        if j not in pivot_cols and j in free_values:
            x[j] = free_values[j]
    for i, col in reversed(pivots):
        acc = M[i][n]
        for j in range(col + 1, n):
            if not M[i][j].is_zero():
                acc = acc - M[i][j] * x[j]
        x[col] = acc
    return x
