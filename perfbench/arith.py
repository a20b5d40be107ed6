"""Exact arithmetic of the benchmark's own, independent of planecurves.

The workloads build their inputs and check the program's answers with
these few routines, so that an expected answer never comes from the code
under test.  Polynomials are dicts {exponent tuple: coefficient}; the
coefficient ring is Q (p == 0, Fractions) or F_p (ints in [0, p)).
Univariate polynomials over F_p are coefficient lists, lowest first.
"""

from __future__ import annotations

import re
from fractions import Fraction

PROJ = ("X", "Y", "Z")


def norm(c, p):
    return c % p if p else Fraction(c)


def padd(a, b, p, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = norm(out.get(e, 0) + sign * c, p)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = norm(out.get(e, 0) + ca * cb, p)
    return {e: c for e, c in out.items() if c}


def monomials(deg):
    """Exponent triples of total degree deg in X, Y, Z."""
    return [(i, j, deg - i - j) for i in range(deg, -1, -1) for j in range(deg - i, -1, -1)]


def random_form(deg, draw, p):
    """A form of degree deg in X, Y, Z whose coefficients come from draw()."""
    out = {}
    for e in monomials(deg):
        c = norm(draw(), p)
        if c:
            out[e] = c
    return out


def fmt(poly, variables=PROJ):
    """Input text for the CLI grammar: integer coefficients, explicit '*'."""
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = poly[e]
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError("input coefficients are integers")
            c = c.numerator
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(variables, e) if k)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    # a leading '-' would read as an option flag on the command line
    first = next((i for i, t in enumerate(parts) if not t.startswith("-")), None)
    if first is None:
        return "(" + "+".join(parts).replace("+-", "-") + ")"
    parts.insert(0, parts.pop(first))
    return "+".join(parts).replace("+-", "-")


_TOKEN = re.compile(r"\d+|[A-Za-z]|\S")


def parse(text, p, variables=PROJ):
    """Parse the CLI polynomial grammar over Q (p == 0) or F_p.

    Sums, differences, products written with '*' or by adjacency, integer
    powers, parentheses and coefficients n or n/d: enough for every input
    the workloads pass and every polynomial planecurves prints over Q or F_p.
    """
    tokens = _TOKEN.findall(text) + [""]
    index = {v: i for i, v in enumerate(variables)}
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def constant(c):
        return {tuple(0 for _ in variables): norm(c, p)}

    def atom():
        tok = take()
        if tok.isdigit():
            c = Fraction(int(tok))
            if tokens[pos] == "/":
                take()
                c /= int(take())
            out = constant(c.numerator * pow(c.denominator, -1, p) if p else c)
        elif tok in index:
            out = {tuple(int(v == tok) for v in variables): norm(1, p)}
        elif tok == "(":
            out = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parenthesis in {text!r}")
        else:
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        if tokens[pos] == "^":
            take()
            base, out = out, constant(1)
            for _ in range(int(take())):
                out = pmul(out, base, p)
        return {e: c for e, c in out.items() if c}

    def term():
        out = atom()
        while tokens[pos] == "*" or tokens[pos] == "(" or tokens[pos].isalnum():
            if tokens[pos] == "*":
                take()
            out = pmul(out, atom(), p)
        return out

    def expr():
        out = {}
        sign = -1 if tokens[pos] == "-" else 1
        if tokens[pos] in ("+", "-"):
            take()
        while True:
            out = padd(out, term(), p, sign)
            if tokens[pos] not in ("+", "-"):
                return out
            sign = -1 if take() == "-" else 1

    out = expr()
    if tokens[pos] != "":
        raise ValueError(f"trailing input in {text!r}")
    return out


# ---- univariate polynomials over F_p, coefficient lists lowest first ----


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def u_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def u_mod(a, m, p):
    a = _trim([c % p for c in a])
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        q = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - q * c) % p
        _trim(a)
    return a


def u_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, u_mod(a, b, p)
    return a


def is_irreducible(f, p):
    """Ben-Or: monic f of degree d is irreducible iff gcd(x^(p^i) - x, f) = 1, i <= d/2."""
    w = [0, 1]
    for _ in range((len(f) - 1) // 2):
        r, e = [1], p
        while e:
            if e & 1:
                r = u_mod(u_mul(r, w, p), f, p)
            w = u_mod(u_mul(w, w, p), f, p)
            e >>= 1
        w = r
        x_minus = list(w) + [0] * (2 - len(w))
        x_minus[1] = (x_minus[1] - 1) % p
        if len(u_gcd(f, x_minus, p)) > 1:
            return False
    return True


def random_irreducible(d, p, rng):
    """A random monic irreducible of degree d over F_p with nonzero constant term."""
    while True:
        f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)] + [1]
        if is_irreducible(f, p):
            return f
