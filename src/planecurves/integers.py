"""Number-theoretic helpers below fields.py: primality, the integer
arithmetic of the rational root search, square roots modulo a prime and in
Q, and the closed-form arithmetic of a quadratic extension of F_p.

Polynomials here are lists of ints, low degree first.  Nothing here knows
a field: fields.py builds its prime fields on _is_prime, its p-adic
rational root candidates clear denominators with _coprime_ints and
evaluate with _int_eval, and it splits a quadratic over F_p or Q by the
square root of its discriminant, _sqrt_mod or _sqrt_rational.  A level
F_p[z]/(z^2 + b*z + c) takes its product, inverse and square root from
_quadratic_level, on bare ints.  Over Q, linalg and poly clear
denominators with _common_denominator.
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


def _common_denominator(values):
    """(the rationals in values times den, as ints; den), den their lcm denominator."""
    den = math.lcm(*[c.denominator for c in values])
    return [c.numerator * (den // c.denominator) for c in values], den


def _coprime_ints(values) -> list:
    """The rationals in values times the one positive constant that makes
    them coprime ints."""
    a, _ = _common_denominator(values)
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


def _quadratic_level(p: int, modulus):
    """(mul, inv, sqrt) on the raw values of F_p[z]/(z^2 + b*z + c), the
    modulus (c, b, 1) over a prime p: trimmed tuples of ints in [0, p), low
    degree first, as fields.ExtensionField keeps them.  sqrt is None for
    p = 2, where a quadratic is not split by its discriminant.

    The product is (a0 + a1 z)(b0 + b1 z) = (a0 b0 - a1 b1 c) +
    (a0 b1 + a1 b0 - a1 b1 b) z, with one reduction mod p per coefficient.
    The inverse is conj(a) / N(a), with conj(a) = (a0 - a1 b) - a1 z and
    the norm N(a) = a conj(a) = a0^2 - a0 a1 b + a1^2 c in F_p, one inverse
    mod p.  mul holds for any monic modulus, as in a ring K[t]/(f); inv and
    sqrt need an irreducible one.
    """
    c, b, _ = modulus

    def mul(x, y):
        # a nonzero constant is a unit, so scaling by it keeps the length
        if len(x) == 2:
            if len(y) == 2:
                x0, x1 = x
                y0, y1 = y
                t = x1 * y1
                r0, r1 = (x0 * y0 - t * c) % p, (x0 * y1 + x1 * y0 - t * b) % p
                return (r0, r1) if r1 else (r0,) if r0 else ()
            if y:
                k = y[0]
                return (x[0] * k % p, x[1] * k % p)
            return ()
        if x:
            k = x[0]
            if len(y) == 2:
                return (y[0] * k % p, y[1] * k % p)
            return (y[0] * k % p,) if y else ()
        return ()

    def inv(x):
        if len(x) == 1:
            return (pow(x[0], -1, p),)
        x0, x1 = x
        t = (x0 - x1 * b) % p
        n = pow(x0 * t + x1 * x1 * c, -1, p)
        return (t * n % p, -x1 * n % p)

    def sqrt(x):
        return _sqrt_quadratic(x, p, modulus)

    return mul, inv, None if p == 2 else sqrt


def _sqrt_quadratic(a, p: int, modulus):
    """A square root of the raw value a of F_p[z]/(z^2 + b*z + c), p odd and
    the modulus (c, b, 1) irreducible, or None when a is no square; every
    root is taken by _sqrt_mod in F_p.

    With w = 2z + b, w^2 = D = b^2 - 4c, which is no square mod p, and
    a = u + v w, where v = a1/2 and u = a0 - v b.  a is a square exactly
    when its norm N = u^2 - D v^2 is a square in F_p, since
    a^((p^2 - 1)/2) = N^((p - 1)/2).  For v = 0 the root is sqrt(u), or
    sqrt(u/D) w when u is no square.  Otherwise (x + y w)^2 = a gives
    2xy = v and x^2 = (u +- sqrt N)/2; the two candidates multiply to
    D v^2 / 4, no square, so exactly one of them is a square, and
    y = v/(2x).
    """
    if not a:
        return ()
    c, b, _ = modulus
    half = (p + 1) // 2
    v = a[1] * half % p if len(a) == 2 else 0
    u = (a[0] - v * b) % p
    D = (b * b - 4 * c) % p
    if not v:
        x = _sqrt_mod(u, p)
        if x is not None:
            return (x,)
        y = _sqrt_mod(u * pow(D, -1, p), p)
        return (y * b % p, 2 * y % p)
    s = _sqrt_mod(u * u - D * v * v, p)
    if s is None:
        return None
    x = _sqrt_mod((u + s) * half, p)
    if x is None:
        x = _sqrt_mod((u - s) * half, p)
    y = v * pow(2 * x, -1, p) % p
    return ((x + y * b) % p, 2 * y % p)
