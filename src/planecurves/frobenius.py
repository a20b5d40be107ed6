"""The Frobenius of a finite field tower, and the equal-degree splitting
that reads its power maps off it.

_frobenius gives v -> v^q, q = |base|, as a linear map level by level;
_equal_degree is one Cantor-Zassenhaus loop whose |K|-th power map comes
from the Frobenius over the level below K.  Both sit above fields.py,
whose uni_factor imports _equal_degree when it has a block to split and
whose _split_factors imports it when it adjoins a level; invariants and
noether take the Frobenius images of points and directions from
_frobenius.
"""

from __future__ import annotations

from random import Random

from .fields import ExtensionField, UniPoly, _padd, _pdivmod, _pgcd, _power, _trim


def _equal_degree(f: UniPoly, d: int, rng: Random):
    """Cantor-Zassenhaus split of a monic f, a product of distinct degree-d
    irreducibles over its field K (Cantor and Zassenhaus, Math. Comp. 36,
    1981), in one loop.

    Each round draws u and computes w once modulo f: u^((|K|^d - 1)/2),
    which is 0 or +-1 modulo each factor, or in characteristic 2 the trace
    of u to F_2, which is 0 or 1.  Every part P is refined by
    gcd(w - 1 mod P, P) (gcd(w mod P, P) in characteristic 2).  w is read
    off the Frobenius Phi(v) = v^q of K[t]/(f), with q = |k| for the level
    k below K (k = K over a prime field), which _frobenius gives as a
    linear map: the norm prod_{i<s} Phi^i(u), or the trace, over the
    s = d*[K:k] steps of Phi that make up the |K|^d-th power, then its
    ((q - 1)/2)-th power, or the trace over the log2 q squarings down to
    F_2.  So no power runs with exponent |K| (von zur Gathen and Shoup,
    Comput. Complexity 2, 1992).  Monic factorization is unique, so the
    parts are the same whichever u split them.
    """
    F, n = f.field, len(f.values) - 1
    if n == d:
        return [f]
    # K[t]/(f) as a ring: ExtensionField's arithmetic needs an irreducible
    # modulus only for inv
    R = ExtensionField(F, f, f.var)
    k, s = (F.base, d * F.degree) if isinstance(F, ExtensionField) else (F, d)
    q = k.order()
    # with s = 1 no step of Phi is taken
    phi = _frobenius(R, k) if s > 1 else None
    char2 = F.characteristic() == 2
    parts = [f.values]
    while len(parts) < n // d:
        w = cur = _trim([F.random_scalar(rng).value for _ in range(n)])
        for _ in range(s - 1):
            cur = phi(cur)
            w = R.add(w, cur) if char2 else R.mul(w, cur)
        if char2:
            cur = w
            for _ in range(q.bit_length() - 2):
                cur = R.mul(cur, cur)
                w = R.add(w, cur)
        else:
            w = R.sub(_power(R.mul, R.raw_one, w, (q - 1) // 2), R.raw_one)
        split = []
        for P in parts:
            g = _pgcd(F, _pdivmod(F, w, P)[1], P) if len(P) > d + 1 else P
            split += [g, _pdivmod(F, P, g)[0]] if 1 < len(g) < len(P) else [P]
        parts = split
    return [UniPoly._from_values(F, P, f.var) for P in parts]


def _frobenius(field, base):
    """The raw map v -> v^q on field, q = |base|, as a linear map level by
    level: it fixes base, and above it sends sum c_i z^i to
    sum frob(c_i) w^i, with the powers of w = z^q computed once per level.
    A top level may be a ring K[t]/(f), as in _equal_degree."""
    if field == base:
        return lambda v: v
    below, B = _frobenius(field.base, base), field.base
    w = _power(field.mul, field.raw_one, (B.raw_zero, B.raw_one), base.order())
    powers = [field.raw_one]
    while len(powers) < field.degree:
        powers.append(field.mul(powers[-1], w))

    def frob(v):
        out = ()
        for c, wi in zip(v, powers):
            c = below(c)
            if c:
                out = _padd(B, out, [B.mul(c, x) for x in wi])
        return out

    return frob
