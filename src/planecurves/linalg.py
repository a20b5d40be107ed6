"""Exact linear algebra: one elimination for every domain, and the prime
that certificates modulo p share.

`echelon` is Bareiss elimination on raw values (Bareiss, Math. Comp. 22,
1968; Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992,
section 9.3).  Over Z and F[x] the entries stay minors of the input and
never grow into fractions.  The textbook loop rewrites every lower row at
every step, as (p_k*a - c*b) / p_(k-1), even a row whose entry c in the
pivot column is zero, where the step only rescales the row by
p_k / p_(k-1).  Here such a row waits.  A row whose last update was
against the pivot p_s (p_s = 1 before its first) holds, as step k begins,
the textbook row times p_s / p_(k-1), so when it next meets a nonzero c
its update is (p_k*a - c*b) / p_s on the stored values: the same minor,
so the division is exact, and it is checked.  A pivot row is first caught
up, times p_(k-1) and divided by its own p_s.  Over a field no division
is needed, and each pivot row is made monic by one inverse, so that an
update is a - c*b, and only in the columns where the pivot row b is
nonzero; over F_p that runs on bare ints, with one reduction modulo p per
touched entry.

`solve_linear` runs it on the field's raw values over F_q.  Over Q it
clears each row to integers; a tall system (more rows m than unknowns n)
is first eliminated modulo CERT_PRIME, right-hand side included, to
choose rows: when n independent rows turn up there, a row left over with
a nonzero right-hand side proves that there is no solution, and
otherwise Bareiss runs on those n alone and every row is checked exactly
against the solution; with fewer than n, and for every system with
m <= n, it runs on all of them.  `poly.resultant_biv` runs it on raw
coefficient tuples of F[x].  Solutions are canonical: free variables are
zero unless the caller pins them.
"""

from __future__ import annotations

import operator
from functools import cache

from .errors import InternalError
from .fields import Field, PrimeField, RationalField, Scalar
from .integers import _common_denominator

# the prime of every computation modulo p over Q: biv_gcd's coprimality
# certificate and solve_linear's choice of rows
CERT_PRIME = 2**31 - 1


@cache
def _cert_field() -> PrimeField:
    # built once, on first use: every image mod p lives in this one field
    return PrimeField(CERT_PRIME)


def echelon(M, ncols, mul=None, sub=None, div=None, field=None):
    """Row echelon form of the list of rows M, in place; (pivots, sign).

    Scans the first ncols columns; rows may be longer (an augmented right
    hand side).  Each pivot is the first nonzero entry at or below the
    current rank.  Rows are swapped and updated in place, so each list in M
    stays the same row of the input.  Over a domain (Z or F[x]) pass mul,
    sub and div(n, d) -> (q, r).  A lower row whose entry c in the pivot
    column is zero is skipped; otherwise each entry a right of the pivot
    column becomes (p*a - c*b) / d, with p the pivot, b the pivot row's
    entry and d the pivot of the row's last update (no division before its
    first), and a remainder raises InternalError.  Each pivot row equals
    the textbook Bareiss row from its pivot column on, so the last pivot of
    a square matrix of full rank is its determinant up to the returned
    sign; a row below the rank is a nonzero multiple of the textbook one.
    Over a field pass field instead: each pivot row is scaled to a leading
    1 and each entry a becomes a - c*b where b is nonzero, the others stay
    as they are.  Entries left of a row's pivot, and in lower rows at or
    left of the last pivot column, are stale.  Returns the (row, col)
    pivots and the sign of the row permutation.
    """
    m = len(M)
    pivots, sign, prev = [], 1, None
    # the pivot of each row's last update, which its next one divides by
    seen = [None] * m
    if field is not None:
        mul, sub, one = field.mul, field.sub, field.raw_one
        p_int = field.p if isinstance(field, PrimeField) else None
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if M[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            M[rank], M[pivot] = M[pivot], M[rank]
            seen[rank], seen[pivot] = seen[pivot], seen[rank]
            sign = -sign
        pivots.append((rank, col))
        top = M[rank]
        if field is not None:
            if top[col] != one:
                by_pivot = field.divider(top[col])
                top[col:] = [one] + [by_pivot(b) if b else b for b in top[col + 1:]]
            # the columns an update changes: those where the pivot row is nonzero
            support = [(j, b) for j, b in enumerate(top[col + 1:], col + 1) if b]
            for row in M[rank + 1:]:
                c = row[col]
                if not c:
                    continue
                if p_int is None:
                    for j, b in support:
                        row[j] = sub(row[j], mul(c, b))
                else:
                    for j, b in support:
                        row[j] = (row[j] - c * b) % p_int
            continue
        if prev is not None and seen[rank] is not prev:
            # catch the pivot row up to the last step, unless updated there
            new = [mul(prev, v) for v in top[col:]]
            top[col:] = new if seen[rank] is None else _exact(div, new, seen[rank])
        p, tail = top[col], top[col + 1:]
        for i in range(rank + 1, m):
            row = M[i]
            c = row[col]
            if not c:
                continue
            new = [sub(mul(p, a), mul(c, b)) for a, b in zip(row[col + 1:], tail)]
            if seen[i] is not None:
                new = _exact(div, new, seen[i])
            seen[i] = p
            row[col + 1:] = new
        prev = p
    return pivots, sign


def _exact(div, values, d):
    """The quotients of values by d, each division checked to be exact."""
    out = []
    for v in values:
        q, r = div(v, d)
        if r:
            raise InternalError("Bareiss division must be exact")
        out.append(q)
    return out


def solve_linear(rows, rhs, field: Field, free_values=None):
    """Solve rows * x = rhs; a list of Scalars, or None when inconsistent.

    free_values maps column index -> Scalar for non-pivot columns (entries
    for pivot columns are ignored).  Default: all free variables zero.

    Over Q the rows are cleared to integers.  A tall system (m > n) is
    reduced modulo CERT_PRIME, right-hand side included; when elimination
    there finds a pivot in each of the n columns, the n rows that gave them
    have a minor that is nonzero mod p, so nonzero over Z: they are
    independent, and the solution is unique if there is one.  If a row
    below those n has a nonzero right-hand side mod p, there is none: a
    rational solution would be the solution of the n rows, whose
    denominators divide their minor, a unit mod p, so it would reduce mod
    p and solve the system there, which elimination has just shown to be
    inconsistent.  None is returned at once, with no Bareiss.  Otherwise
    Bareiss solves those n rows alone, and the solution is returned only if
    every one of the m rows holds exactly, None otherwise.  With fewer
    pivots mod p (rank below n, or p divides every n-minor), and for a
    square or wide system, which has no row to drop, all m rows are
    eliminated over Z, and pinned free columns keep their meaning.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
    if len(rhs) != m:
        raise ValueError("rhs length mismatch")
    # a Scalar of this field is read as it is; anything else is coerced
    scalar = field.scalar
    M = [[c.value if type(c) is Scalar and c.field is field else scalar(c).value for c in row]
         + [scalar(b).value] for row, b in zip(rows, rhs)]
    if isinstance(field, RationalField):
        M = [_common_denominator(row)[0] for row in M]
        # a square or wide system has no row to drop
        chosen = _independent_rows(M, n) if m > n else None
        if chosen is not None:
            return _solve_square(M, *chosen, n, field)
        pivots, _ = echelon(M, n, operator.mul, operator.sub, divmod)
    else:
        pivots, _ = echelon(M, n, field=field)
    if any(M[i][n] for i in range(len(pivots), m)):
        return None

    free_values = free_values or {}
    pivot_cols = {col for _, col in pivots}
    x = [field.raw_zero] * n
    for j in range(n):
        if j not in pivot_cols and free_values.get(j) is not None:
            x[j] = field.scalar(free_values[j]).value
    _back_substitute(M, pivots, x, field)
    return [Scalar(field, v) for v in x]


def _back_substitute(M, pivots, x, field):
    """Fill x's pivot columns from the echelon rows, last pivot first."""
    # over Q the entries are ints, and field.divider returns an int for
    # each quotient that is integral and a Fraction only for the others
    n = len(x)
    sub, mul = field.sub, field.mul
    for i, col in reversed(pivots):
        row = M[i]
        acc = row[n]
        for j in range(col + 1, n):
            if row[j]:
                acc = sub(acc, mul(row[j], x[j]))
        x[col] = field.divider(row[col])(acc)


def _independent_rows(M, n):
    """(the indices, in order, of n rows of the integer rows M (n columns
    and a right hand side) that are independent modulo CERT_PRIME, whether
    the system is consistent there), or None when elimination there finds
    fewer than n pivots."""
    Fp = _cert_field()
    p = Fp.p
    R = [[v % p for v in row] for row in M]
    index = {id(row): i for i, row in enumerate(R)}
    # only the n unknown columns are scanned; the right-hand side, right of
    # every pivot, is kept up to date in every row
    pivots, _ = echelon(R, n, field=Fp)
    if len(pivots) < n:
        return None
    return sorted(index[id(R[i])] for i, _ in pivots), not any(row[n] for row in R[n:])


def _solve_square(M, chosen, consistent, n, field):
    """Bareiss on the chosen n independent rows of the integer rows M, then
    an exact check of every row; the solution as Scalars, or None when a
    row fails, so that the system has no solution.  None at once, with no
    Bareiss, when the system is not consistent modulo p (see
    solve_linear)."""
    if not consistent:
        return None
    S = [list(M[i]) for i in chosen]
    pivots, _ = echelon(S, n, operator.mul, operator.sub, divmod)
    if len(pivots) < n:
        raise InternalError("rows independent modulo p must be independent over Q")
    x = [field.raw_zero] * n
    _back_substitute(S, pivots, x, field)
    X, den = _common_denominator(x)
    for row in M:
        if sum(map(operator.mul, row, X)) != row[n] * den:
            return None
    return [Scalar(field, v) for v in x]
