"""Number-theoretic helpers below fields.py: primality, the integer
arithmetic of the rational root search, and square roots modulo a prime
and in Q.

Polynomials here are lists of ints, low degree first.  Nothing here knows
a field: fields.py builds its prime fields on _is_prime, its p-adic
rational root candidates clear denominators with _coprime_ints and
evaluate with _int_eval, and it splits a quadratic over F_p or Q by the
square root of its discriminant, _sqrt_mod or _sqrt_rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _sqrt_mod(a: int, p: int):
    """A square root of a modulo an odd prime p, or None when a is not a
    square mod p, by Tonelli-Shanks (Shanks 1973; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.5.1).

    Euler's criterion decides whether a is a square.  With p - 1 = q*2^s, q
    odd, the non-residue z is the first of 2, 3, ... that Euler's criterion
    rejects, so the root returned depends on a and p alone.
    """
    a %= p
    if not a:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    q = (p - 1) >> s
    # r^2 = a*t, and t's order divides 2^(s-1)
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return r
    z = 2
    while pow(z, half, p) == 1:
        z += 1
    m, c = s, pow(z, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; i < m
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def _sqrt_rational(a):
    """The square root >= 0 of a rational a (an int or a Fraction), an int
    when it is integral, or None when a is not the square of a rational:
    a in lowest terms is a square exactly when its numerator and
    denominator are the squares of ints."""
    if a < 0:
        return None
    n, d = a.numerator, a.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return rn if rd == 1 else Fraction(rn, rd)
