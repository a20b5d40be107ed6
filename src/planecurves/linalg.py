"""Exact dense linear algebra: one fraction-free elimination for every domain.

`echelon` is Bareiss elimination on raw values (Bareiss, Math. Comp. 22,
1968).  Over Z and F[x] each updated entry is divided exactly by the
previous pivot, so entries stay minors of the input and never grow into
fractions; over a field no division is needed.  `solve_linear` runs it on
rows cleared to integers over Q and on the field's raw values over F_q,
and `poly.resultant_biv` on raw coefficient tuples of F[x].  Solutions are
canonical: free variables are zero unless the caller pins them.
"""

from __future__ import annotations

import operator
from math import lcm

from .errors import InternalError
from .fields import Field, RationalField, Scalar


def echelon(M, ncols, mul, sub, div=None):
    """Row echelon form of the list of rows M, in place; (pivots, sign).

    Scans the first ncols columns; rows may be longer (an augmented right
    hand side).  Each pivot p is the first nonzero entry at or below the
    current rank, and every entry a right of the pivot column in a lower
    row becomes p*a - c*b, with c that row's entry in the pivot column and
    b the pivot row's.  div(n, d) -> (q, r), given over Z or F[x], divides
    each updated entry by the previous pivot, which must leave no
    remainder.  Entries at or left of a pivot in lower rows are stale.
    Returns the (row, col) pivots and the sign of the row permutation.
    """
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
            # over a field a row with c = 0 needs no update; fraction-free,
            # it must still be scaled by p / prev unless it is zero
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
    M = [[field.scalar(c).value for c in row] + [field.scalar(b).value]
         for row, b in zip(rows, rhs)]
    if isinstance(field, RationalField):
        M = [_clear_denominators(row) for row in M]
        pivots, _ = echelon(M, n, operator.mul, operator.sub, divmod)
    else:
        pivots, _ = echelon(M, n, field.mul, field.sub)
    if any(M[i][n] for i in range(len(pivots), m)):
        return None

    free_values = free_values or {}
    pivot_cols = {col for _, col in pivots}
    x = [field.raw_zero] * n
    for j in range(n):
        if j not in pivot_cols and free_values.get(j) is not None:
            x[j] = field.scalar(free_values[j]).value
    # over Q the entries are ints, and field.inv turns each quotient into a
    # Fraction
    sub, mul, inv = field.sub, field.mul, field.inv
    for i, col in reversed(pivots):
        row = M[i]
        acc = row[n]
        for j in range(col + 1, n):
            if row[j]:
                acc = sub(acc, mul(row[j], x[j]))
        x[col] = mul(acc, inv(row[col]))
    return [Scalar(field, v) for v in x]


def _clear_denominators(row):
    scale = lcm(*[f.denominator for f in row])
    return [f.numerator * (scale // f.denominator) for f in row]
