"""Integer-only helpers below fields.py: primality, and the integer
arithmetic of the rational root search.

Polynomials here are lists of ints, low degree first.  Nothing here knows
a field: fields.py builds its prime fields on _is_prime, and its p-adic
rational root candidates clear denominators with _coprime_ints and
evaluate with _int_eval.
"""

from __future__ import annotations

import math

# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PSI_13 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PSI_13."""
    if n >= PSI_13:
        raise ValueError(f"primality is decided only below {PSI_13}, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _coprime_ints(values) -> list:
    """The rationals in values times the one positive constant that makes
    them coprime ints."""
    den = math.lcm(*[c.denominator for c in values])
    a = [c.numerator * (den // c.denominator) for c in values]
    content = math.gcd(*a)
    return [c // content for c in a]


def _int_eval(a, r: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * r + c
    return acc
