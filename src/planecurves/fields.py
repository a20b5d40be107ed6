"""Exact scalar arithmetic over Q, prime fields, and finite extension towers.

Each field owns the raw values of its elements and the arithmetic on them:
over Q an int for an integral value and a Fraction otherwise, an int in
[0, p) over F_p, and on an extension level a tuple of base raw values, low
degree first and trimmed, nesting like the tower.  Raw zeros are falsy, all
other raw values truthy.  Every division goes through one raw operation,
divider(b), the function a -> a / b: a loop that divides by one b computes
one inverse, and over Q an integral quotient comes back as an int, so
integer input stays on ints through monic gcds, polynomial quotients,
scalar division and the solver's back substitution.  Scalar (a field and a
raw value) and UniPoly (a field and the trimmed tuple of its coefficients'
raw values) are the API boundary: same-field arithmetic calls the field's
raw operation, and the univariate kernels loop on raw value tuples and
wrap their result once.
Each field stores the fields below it in its tower, `bases`, so a tower
query is a lookup.  Mixed-field operations embed along the unique tower
inclusion when one exists and raise otherwise, so a wrong-field bug
surfaces at the first arithmetic step instead of as a wrong answer later;
_joined maps polynomials into the join of their fields, the one join.

The univariate layer (UniPoly) provides division, gcd, and factorization.
One Euclid loop on raw tuples, _pgcd, makes each remainder monic before it
divides; it serves uni_gcd and the contents of poly.biv_gcd alike, and one
square-and-multiply, _power, serves every power.  Factorization first
takes the root at 0 off: f = t^k * g with g(0) != 0 gives the factor t to
the k, read off the coefficients, and only g goes on.  A quadratic g over
Q, a prime field of odd characteristic or a quadratic level over one
splits by the square root of its discriminant, the field's sqrt
(integers._sqrt_rational, Tonelli-Shanks in integers._sqrt_mod, or
integers._sqrt_quadratic through the norm), with no gcd; any other g goes
on to the gcds.  Yun's squarefree decomposition reads g = w^n off at once
when its squarefree part w = g / gcd(g, g') is linear, in characteristic 0
and below the characteristic p, where no multiplicity is a multiple of p.
Over a finite field factorization is complete: squarefree decomposition,
then distinct-degree splitting, then equal-degree splitting in one
Cantor-Zassenhaus loop with a seeded deterministic random stream, made only
when a block has to be split; a squarefree f is irreducible when its first
distinct-degree factor has degree deg f.  Over Q only rational roots are
split off; a residual factor of degree >= 2 is returned whole and callers
that need an actual point raise NonRationalPoint.  The rational roots of a
squarefree factor come from its roots modulo the first good prime p (one
that keeps the leading coefficient and squarefreeness), lifted p-adically
by Newton's iteration past twice |leading * constant coefficient| and read
back as rationals; only a candidate at which the factor vanishes exactly
is kept.  This needs no random choice and no divisor of any coefficient.

Roots come from a list of factors, split by one loop, _split_factors:
roots_with_extension hands it the factorization of one polynomial, and a
witness node in blowup the merged factors of its drivers' fibers.  Over a
finite field, adjoining an irreducible factor g of degree d over F_q gives
its d roots for free as the Frobenius images z^(q^i) of the new generator
z, so only the other nonlinear factors are split again over the extension,
a quadratic over a quadratic level by its discriminant.
Those images, and every equal-degree split, there and in uni_factor, read
the Frobenius as a linear map (over the level below the split's field K,
or over K itself when K is a prime field), so no power runs with the order
of an extension as exponent.  That map, frobenius._frobenius, and the
splitting, frobenius._equal_degree, live in frobenius.py, above this
module, which imports them where a level is adjoined or a block split.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial, reduce
from random import Random

from .errors import (
    DivisionByZero,
    IncompatibleFields,
    InternalError,
    NonRationalPoint,
    ReducibleMinPoly,
    UnsupportedExtension,
    ZeroPolynomial,
)
from .integers import (
    _coprime_ints,
    _int_eval,
    _is_prime,
    _quadratic_level,
    _sqrt_mod,
    _sqrt_rational,
)

DEFAULT_FACTOR_SEED = 0

NEG_INF = float("-inf")


def _trim(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(F, a, b, op="add") -> tuple:
    """a + b on raw coefficient sequences (a - b with op="sub")."""
    f = getattr(F, op)
    out = list(a) + [F.raw_zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = f(out[i], c)
    return _trim(out)


def _psub(F, a, b) -> tuple:
    return _padd(F, a, b, "sub")


def _pmul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    add, mul = F.add, F.mul
    out = [F.raw_zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b, i):
            out[j] = add(out[j], mul(ca, cb))
    # a field has no zero divisors, so the leading term survives
    return tuple(out)


def _pdivmod(F, a, b):
    """(quotient, remainder) of a by b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), tuple(a)
    # a monic divisor needs no division
    div = None if b[-1] == F.raw_one else F.divider(b[-1])
    mul, sub = F.mul, F.sub
    rem = list(a)
    quo = [F.raw_zero] * (len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if not c:
            continue
        q = c if div is None else div(c)
        quo[top - db] = q
        for j in range(db):
            rem[top - db + j] = sub(rem[top - db + j], mul(q, b[j]))
    return tuple(quo), _trim(rem[:db])


def _power(mul, one, base, e: int):
    """base^e by square-and-multiply, skipping the last squaring; one is the
    unit of mul.  The one power loop of Scalar, UniPoly and MultiPoly."""
    if e < 0:
        raise ValueError("negative exponent")
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _pmonic(F, a) -> tuple:
    if a[-1] == F.raw_one:
        return tuple(a)
    div = F.divider(a[-1])
    return tuple([div(c) for c in a])


def _poly_str(F, values, var: str) -> str:
    """Text of sum values[k]*var^k, highest degree first; the form of
    UniPoly text and of extension-field elements alike."""
    parts = []
    for k in range(len(values) - 1, -1, -1):
        c = values[k]
        if not c:
            continue
        cs = F.element_str(c)
        if k == 0:
            parts.append(cs)
            continue
        head = "" if cs == "1" else f"({cs})*" if _needs_parens(cs) else f"{cs}*"
        parts.append(head + (var if k == 1 else f"{var}^{k}"))
    return "+".join(parts).replace("+-", "-") if parts else "0"


def _needs_parens(text: str) -> bool:
    return "+" in text[1:] or "-" in text[1:] or "*" in text


class Field:
    """Common interface of the three field kinds.

    Each kind defines characteristic(), order() (None for an infinite
    field), describe() and, when finite, elements() in canonical order and
    random_scalar(rng).  On raw values it has add, sub, neg, mul, inv,
    divider, element_str and hash_value, the constants raw_zero and
    raw_one, and raw(n) for an int or a Fraction n.  sqrt(a) is a square
    root of a, or None when a is no square; sqrt itself is None where a
    quadratic is not split by its discriminant.  `bases`, set once at
    construction, holds the fields strictly below it in its tower, nearest
    first.
    """

    bases = ()
    sqrt = None

    def divider(self, b):
        """The function a -> a / b on raw values, for one nonzero raw b.

        Every division goes through it, and a loop that divides by one b
        computes one inverse.  This default multiplies by that inverse.
        """
        return partial(self.mul, self.inv(b))

    def scalar(self, value) -> "Scalar":
        """Coerce an int, a Fraction, or a scalar of a field in the tower."""
        if not isinstance(value, Scalar):
            return Scalar(self, self.raw(value))
        if value.field is self:
            return value
        return self.embed(value)

    def zero(self) -> "Scalar":
        return Scalar(self, self.raw_zero)

    def one(self) -> "Scalar":
        return Scalar(self, self.raw_one)

    @property
    def is_finite(self) -> bool:
        return self.order() is not None

    def tower_contains(self, other: "Field") -> bool:
        """True when `other` appears in this field's extension tower."""
        return other in (self, *self.bases)

    def embed(self, s: "Scalar") -> "Scalar":
        """Lift a scalar from a subfield of the tower into this field."""
        if s.field is self or s.field == self:
            return s
        return Scalar(self, _lift(s.value, _levels_above(self, s.field)))

    def __repr__(self):
        return self.describe()


class RationalField(Field):
    """Q.  Integral raw values are ints, so integer inputs compute on ints
    and pay no Fraction normalisation.  Sums and products of ints are ints,
    and divider returns an int whenever a quotient is integral, so integers
    stay ints through every division; inv alone returns a Fraction.  A
    Fraction with denominator 1 equals, hashes and prints like its int."""

    raw_zero = 0
    raw_one = 1
    add = operator.add
    sub = operator.sub
    neg = operator.neg
    mul = operator.mul
    inv = Fraction(1).__truediv__
    sqrt = staticmethod(_sqrt_rational)
    element_str = str
    hash_value = hash

    @staticmethod
    def raw(n):
        if type(n) is int:
            return n
        n = Fraction(n)
        return n.numerator if n.denominator == 1 else n

    @staticmethod
    def divider(b):
        return partial(_rational_quotient, b)

    def characteristic(self):
        return 0

    def order(self):
        return None

    def describe(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


def _rational_quotient(b, a):
    """a / b over Q: an int when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


QQ = RationalField()


class PrimeField(Field):
    raw_zero = 0
    raw_one = 1
    element_str = str
    hash_value = hash

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        if p > 2:
            self.sqrt = partial(_sqrt_mod, p=p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def raw(self, n):
        if isinstance(n, Fraction):
            den = n.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            return n.numerator * pow(den, -1, self.p) % self.p
        return n % self.p

    def characteristic(self):
        return self.p

    def order(self):
        return self.p

    def describe(self):
        return f"F{self.p}"

    def elements(self):
        return (Scalar(self, i) for i in range(self.p))

    def random_scalar(self, rng):
        return Scalar(self, rng.randrange(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class ExtensionField(Field):
    """base[z]/(minpoly), with the generator named z1, z2, ... by tower level.

    Raw values are reduced modulo the minpoly's raw coefficients, `modulus`.
    A level F_p[z]/(z^2 + b*z + c) binds the closed forms of
    integers._quadratic_level on bare ints as its mul, inv and sqrt.
    """

    raw_zero = ()

    def __init__(self, base: Field, minpoly: "UniPoly", gen_name: str):
        self.base = base
        # not self as well: a field holding itself is a reference cycle
        self.bases = (base, *base.bases)
        self.gen_name = gen_name
        self.minpoly = UniPoly(base, minpoly.coeffs, gen_name)
        self.modulus = self.minpoly.values
        self.degree = len(self.modulus) - 1
        self.raw_one = (base.raw_one,)
        self._describe = f"{base.describe()}[{gen_name}]/({self.minpoly})"
        if self.degree == 2 and isinstance(base, PrimeField) and self.modulus[2] == 1:
            self.mul, self.inv, self.sqrt = _quadratic_level(base.p, self.modulus)

    def add(self, a, b):
        return _padd(self.base, a, b)

    def sub(self, a, b):
        return _psub(self.base, a, b)

    def neg(self, a):
        return _psub(self.base, (), a)

    def mul(self, a, b):
        return _pdivmod(self.base, _pmul(self.base, a, b), self.modulus)[1]

    def inv(self, a):
        """Extended Euclid against the minpoly; a is nonzero and reduced."""
        B = self.base
        r0, r1 = self.modulus, a
        s0, s1 = (), (B.raw_one,)
        while r1:
            q, r = _pdivmod(B, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(B, s0, _pmul(B, q, s1))
        # r0 is a nonzero constant: the minpoly is irreducible
        div = B.divider(r0[0])
        return tuple([div(v) for v in s0])

    def element_str(self, a):
        return _poly_str(self.base, a, self.gen_name)

    def hash_value(self, a):
        # an element hashes like its image in the lowest level that holds it
        if len(a) <= 1:
            return self.base.hash_value(a[0]) if a else hash(0)
        return hash(tuple([self.base.hash_value(c) for c in a]))

    def raw(self, n):
        v = self.base.raw(n)
        return (v,) if v else ()

    def generator(self) -> "Scalar":
        return Scalar(self, (self.base.raw_zero, self.base.raw_one))

    def characteristic(self):
        return self.base.characteristic()

    def order(self):
        return self.base.order() ** self.degree

    def describe(self):
        return self._describe

    def elements(self):
        for combo in _raw_tuples(self.base, self.degree):
            yield Scalar(self, _trim(combo))

    def random_scalar(self, rng):
        return Scalar(self, _trim([self.base.random_scalar(rng).value for _ in range(self.degree)]))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, ExtensionField)
            and other.gen_name == self.gen_name
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self._describe))


def _raw_tuples(base: Field, k: int):
    # every k-tuple of base raw values in itertools.product's order, drawn
    # lazily: product lists the whole base field before its first tuple
    if k == 0:
        yield ()
        return
    for e in base.elements():
        for rest in _raw_tuples(base, k - 1):
            yield (e.value,) + rest


def _levels_above(target: Field, source: Field) -> int:
    """How many extension levels lie between `source` and `target`;
    IncompatibleFields when target's tower does not hold `source`."""
    tower = (target, *target.bases)
    try:
        return tower.index(source)
    except ValueError:
        raise IncompatibleFields(f"{source.describe()} !< {tower[-1].describe()}") from None


def _lift(v, k: int):
    """A raw value embedded k levels up a tower: a 1-tuple per level."""
    for _ in range(k):
        v = (v,) if v else ()
    return v


def join_fields(a: Field, b: Field) -> Field:
    if a.tower_contains(b):
        return a
    if b.tower_contains(a):
        return b
    raise IncompatibleFields(f"{a.describe()} vs {b.describe()}")


def _join(*items) -> Field:
    """The join of the fields of Scalars or polynomials, left to right."""
    return reduce(join_fields, [item.field for item in items])


def _joined(*polys):
    """(join of the polynomials' fields, the polynomials mapped into it)."""
    field = _join(*polys)
    return field, [p.map_field(field) for p in polys]


class Scalar:
    """Immutable field element: a field and one of its raw values."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return None
        if self.field == other.field:
            return self, other
        target = join_fields(self.field, other.field)
        return target.embed(self), target.embed(other)

    def _mixed(self, other, op: str):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return Scalar(a.field, getattr(a.field, op)(a.value, b.value))

    def __add__(self, other):
        f = self.field
        if type(other) is Scalar and other.field is f:
            return Scalar(f, f.add(self.value, other.value))
        return self._mixed(other, "add")

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __sub__(self, other):
        f = self.field
        if type(other) is Scalar and other.field is f:
            return Scalar(f, f.sub(self.value, other.value))
        return self._mixed(other, "sub")

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if type(other) is Scalar and other.field is f:
            return Scalar(f, f.mul(self.value, other.value))
        return self._mixed(other, "mul")

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return self.field.one() / self

    def __truediv__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        if not b.value:
            raise DivisionByZero("inverse of zero in " + b.field.describe())
        return Scalar(a.field, a.field.divider(b.value)(a.value))

    def __rtruediv__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else p[1] / p[0]

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        return Scalar(f, _power(f.mul, f.raw_one, self.value, e))

    def __eq__(self, other):
        if type(other) is Scalar and other.field is self.field:
            return self.value == other.value
        try:
            p = self._pair(other)
        except IncompatibleFields:
            return False if isinstance(other, Scalar) else NotImplemented
        return NotImplemented if p is None else p[0].value == p[1].value

    def __hash__(self):
        return self.field.hash_value(self.value)

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"<{scalar_to_str(self)} in {self.field.describe()}>"


def scalar_to_str(s: Scalar) -> str:
    """Canonical text form: '3', '-5/6', '2' mod p, '2*z1+1' in extensions."""
    return s.field.element_str(s.value)


class UniPoly:
    """Dense univariate polynomial over an explicit field.

    `values` is the tuple of the coefficients' raw values in `field`, low
    degree first with trailing zeros trimmed; the zero polynomial has an
    empty tuple and degree -inf.  Every kernel (products, sums, division, pow_mod, gcd) runs
    on these tuples, and `coeffs`, `coeff`, `lc` and `eval` wrap Scalars on
    demand.
    """

    __slots__ = ("field", "var", "values")

    def __init__(self, field: Field, coeffs, var: str = "t"):
        scalar = field.scalar
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "values", _trim([scalar(c).value for c in coeffs]))

    @classmethod
    def _from_values(cls, field: Field, values, var: str) -> "UniPoly":
        """Wrap a trimmed tuple of raw values of `field`, skipping coercion."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "values", values)
        return self

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Scalars, low degree first."""
        # tuples are built from lists here and in the kernels: tuple() of a
        # generator resizes its result, which fills the tuple free lists
        return tuple([Scalar(self.field, v) for v in self.values])

    @classmethod
    def zero(cls, field, var="t"):
        return cls(field, (), var)

    @classmethod
    def constant(cls, c: Scalar, var="t"):
        return cls(c.field, (c,), var)

    @classmethod
    def x(cls, field, var="t"):
        return cls(field, (0, 1), var)

    @property
    def degree(self):
        return len(self.values) - 1 if self.values else NEG_INF

    def is_zero(self):
        return not self.values

    def is_one(self):
        return self.values == (self.field.raw_one,)

    def lc(self) -> Scalar:
        if not self.values:
            raise ZeroPolynomial("leading coefficient of 0")
        return Scalar(self.field, self.values[-1])

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self.values):
            return Scalar(self.field, self.values[k])
        return self.field.zero()

    def _pair(self, other):
        if type(other) is UniPoly and other.field is self.field:
            return self, other
        if isinstance(other, Scalar):
            other = UniPoly(other.field, (other,), self.var)
        elif isinstance(other, (int, Fraction)):
            other = UniPoly(self.field, (self.field.scalar(other),), self.var)
        if not isinstance(other, UniPoly):
            return None
        if self.field == other.field:
            return self, other
        return _joined(self, other)[1]

    def _kernel(self, other, op):
        """op(field, raw self, raw other) over the joined field, wrapped."""
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return UniPoly._from_values(a.field, op(a.field, a.values, b.values), a.var)

    def map_field(self, target: Field) -> "UniPoly":
        if target == self.field:
            return self
        k = _levels_above(target, self.field)
        return UniPoly._from_values(target, tuple([_lift(v, k) for v in self.values]), self.var)

    def __add__(self, other):
        return self._kernel(other, _padd)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._from_values(self.field, _psub(self.field, (), self.values), self.var)

    def __sub__(self, other):
        return self._kernel(other, _psub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._kernel(other, _pmul)

    __rmul__ = __mul__

    def __divmod__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        q, r = _pdivmod(a.field, a.values, b.values)
        return UniPoly._from_values(a.field, q, a.var), UniPoly._from_values(a.field, r, a.var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        return _power(operator.mul, UniPoly(self.field, (self.field.one(),), self.var), self, e)

    def pow_mod(self, e: int, modulus: "UniPoly") -> "UniPoly":
        a, m = self._pair(modulus)
        F, m = a.field, m.values

        def mul_mod(u, v):
            return _pdivmod(F, _pmul(F, u, v), m)[1]

        result = _power(mul_mod, _pdivmod(F, (F.raw_one,), m)[1], _pdivmod(F, a.values, m)[1], e)
        return UniPoly._from_values(F, result, a.var)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroPolynomial("monic of 0")
        return UniPoly._from_values(self.field, _pmonic(self.field, self.values), self.var)

    def derivative(self) -> "UniPoly":
        F = self.field
        d = [F.mul(F.raw(k), v) for k, v in enumerate(self.values)][1:]
        return UniPoly._from_values(F, _trim(d), self.var)

    def eval(self, a) -> Scalar:
        F = join_fields(self.field, a.field) if isinstance(a, Scalar) else self.field
        a, acc = F.scalar(a).value, F.raw_zero
        for v in reversed(self.map_field(F).values):
            acc = F.add(F.mul(acc, a), v)
        return Scalar(F, acc)

    def __eq__(self, other):
        try:
            p = self._pair(other)
        except IncompatibleFields:
            return False
        return NotImplemented if p is None else p[0].values == p[1].values

    def __hash__(self):
        # == ignores var and lets a constant equal its Scalar, so the hash
        # does too; hash_value keeps equal polynomials over a tower alike
        h = self.field.hash_value
        if len(self.values) <= 1:
            return h(self.values[0] if self.values else self.field.raw_zero)
        return hash(tuple([h(v) for v in self.values]))

    def __str__(self):
        return _poly_str(self.field, self.values, self.var)

    def __repr__(self):
        return f"UniPoly({self}, {self.field.describe()})"


def _pgcd(F, u, v) -> tuple:
    """Monic gcd of raw coefficient sequences; () for gcd(0, 0).

    Each remainder is made monic before it divides: the gcd is the same, and
    over Q the coefficients stay small instead of growing at every step.
    """
    while v:
        v = _pmonic(F, v)
        u, v = v, _pdivmod(F, u, v)[1]
    return _pmonic(F, u) if u else ()


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd; gcd(f, 0) = monic f, gcd(0, 0) = 0."""
    a, b = a._pair(b)
    return UniPoly._from_values(a.field, _pgcd(a.field, a.values, b.values), a.var)


def _squarefree_decomposition(f: UniPoly):
    """[(squarefree factor, multiplicity)] of a monic f, by Yun's loop.

    In characteristic 0 the loop consumes f.  Over a finite field of
    characteristic p what it leaves is a p-th power (all of f when f' = 0);
    its p-th root is decomposed in turn, multiplicities times p.  Below p
    no multiplicity is a multiple of p, so there, as in characteristic 0,
    w = f / gcd(f, f') is the squarefree part of f, and when it is linear
    f = w^n is read off without the loop.
    """
    result = []
    g = uni_gcd(f, f.derivative())
    w = f // g
    p = f.field.characteristic()
    if w.degree == 1 and (not p or f.degree < p):
        return [(w, f.degree)]
    i = 1
    while w.degree >= 1:
        y = uni_gcd(w, g)
        z = w // y
        if z.degree >= 1:
            result.append((z, i))
        w, g = y, g // y
        i += 1
    if p and g.degree >= 1:
        result.extend((h, p * m) for h, m in _squarefree_decomposition(_pth_root(g)))
    return result


def _rational_roots_split(g: UniPoly):
    """Split the rational roots off a squarefree monic g over Q with
    g(0) != 0 unless g is linear.

    Returns (roots, residual) where residual has no rational roots.  A
    linear g is its own candidate, -g0; the candidates of a longer g come
    from _padic_root_candidates.  Each one is kept only when g vanishes at
    it exactly.
    """
    field = g.field
    roots = []
    if g.degree == 1:
        candidates = [field.neg(g.values[0])]
    else:
        candidates = _padic_root_candidates(g.values)
    for cand in candidates:
        root = field.scalar(cand)
        if g.eval(root).is_zero():
            roots.append(root)
            g = g // UniPoly(field, (-root, field.one()), g.var)
    return roots, g


def _padic_root_candidates(values) -> list:
    """A list of rationals holding every rational root of a squarefree g
    over Q with g(0) != 0, given g's raw coefficients (Loos, SIAM J. Comput.
    12, 1983).

    With denominators and content cleared, g has integer coefficients
    a_0..a_n, and a root u/v in lowest terms has v | a_n and u | a_0, so
    a_n*u/v is an integer of absolute value at most |a_n*a_0|.  Modulo a
    good prime p (_good_prime) every rational root reduces to a simple root
    of g mod p.  Newton's iteration lifts each simple root r to the unique
    root mod p^k above it, and once p^k > 2|a_n*a_0| the symmetric residue
    of a_n*r mod p^k is a_n*u/v when r came from u/v.  A residue beyond
    |a_n*a_0| comes from no rational root and is dropped; the others are
    only candidates, for the caller's exact check.
    """
    a = _coprime_ints(values)
    da = [k * c for k, c in enumerate(a)][1:]
    p = _good_prime(a, da)
    ap = [c % p for c in a]
    bound = abs(a[-1] * a[0])
    out = []
    # p is small (the primes below it multiply to at most |res(g, g')|), so
    # the roots mod p are found by trying every residue
    for r in range(p):
        if _int_eval(ap, r) % p:
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _int_eval(a, r) * pow(_int_eval(da, r), -1, m)) % m
        s = a[-1] * r % m
        s = s - m if 2 * s > m else s
        if abs(s) <= bound:
            out.append(QQ.divider(a[-1])(s))
    return out


def _good_prime(a, da) -> int:
    """The first prime p not dividing a[-1] such that the integer polynomial
    a (derivative da) stays squarefree modulo p.

    Every other prime divides res(a, da) = +-a_n*disc(a), which is nonzero
    for squarefree a and, by Hadamard's bound on the Sylvester matrix, at
    most |a|_2^(n-1) * |da|_2^n.  So the product of the primes passed over
    stays within that bound, and the search raises instead of running on
    when it does not.
    """
    n = len(a) - 1
    bound_sq = sum(c * c for c in a) ** (n - 1) * sum(c * c for c in da) ** n
    passed = 1
    p = 1
    while True:
        p += 1
        if not _is_prime(p):
            continue
        if a[-1] % p:
            F = PrimeField(p)
            ap = _trim([c % p for c in a])
            if len(_pgcd(F, ap, _trim([c % p for c in da]))) == 1:
                return p
        passed *= p
        if passed * passed > bound_sq:
            raise InternalError(f"no good prime for a squarefree polynomial of degree {n}")


def _pth_root(f: UniPoly) -> UniPoly:
    p = f.field.characteristic()
    inv_frob = f.field.order() // p
    if any(c for k, c in enumerate(f.values) if k % p):
        raise ValueError("not a p-th power")
    return UniPoly(f.field, [c ** inv_frob for c in f.coeffs[::p]], f.var)


def _distinct_degree(f: UniPoly):
    """f monic squarefree; returns [(product of degree-d irreducibles, d)]."""
    q = f.field.order()
    x = UniPoly.x(f.field, f.var)
    out = []
    v = f
    w = x % v
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        w = w.pow_mod(q, v)
        g = uni_gcd(w - x, v)
        if g.degree >= 1:
            out.append((g, d))
            v = v // g
            w = w % v
    if v.degree >= 1:
        out.append((v, int(v.degree)))
    return out


def _factor_key(fm):
    return (fm[0].degree, str(fm[0]))


def uni_factor(f: UniPoly, seed=None):
    """Factor f into (unit, [(monic factor, multiplicity), ...]).

    The product of the factors with multiplicity, times the unit, is f.
    Over a finite field every factor is irreducible.  Over Q the rational
    roots come off as linear factors and a residual without rational roots
    is returned whole (its full factorization is out of scope here).  Those
    roots are found per squarefree part by _rational_roots_split: roots
    modulo a good prime, lifted p-adically and checked exactly; seed plays
    no part over Q.  What is left after t^k, when it is a quadratic over a
    field with a sqrt, is split by its discriminant (_quadratic_split)
    instead.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor 0")
    unit = f.lc()
    if f.degree < 1:
        return unit, []
    if f.degree == 1:
        return unit, [(f.monic(), 1)]
    F = f.field
    # f = t^k * g with g(0) != 0: t^k comes off before any gcd
    k = next(i for i, v in enumerate(f.values) if v)
    out = [(UniPoly.x(F, f.var), k)] if k else []
    f = UniPoly._from_values(F, _pmonic(F, f.values[k:]), f.var)
    split = _quadratic_split(f)
    out += split
    parts = [] if split or f.degree < 1 else _squarefree_decomposition(f)
    if isinstance(F, RationalField):
        for g, m in parts:
            roots, residual = _rational_roots_split(g)
            for r in roots:
                out.append((UniPoly(F, (-r, F.one()), f.var), m))
            if residual.degree >= 1:
                out.append((residual, m))
    else:
        # a block of degree d is irreducible; only a block to split imports
        # the splitting (above this module) and makes a Random (about 6 us)
        rng = None
        for g, m in parts:
            for h, d in _distinct_degree(g):
                if h.degree == d:
                    out.append((h, m))
                    continue
                from .frobenius import _equal_degree

                rng = rng or Random(DEFAULT_FACTOR_SEED if seed is None else seed)
                out += [(irr, m) for irr in _equal_degree(h, d, rng)]
    out.sort(key=_factor_key)
    return unit, out


def _quadratic_split(f: UniPoly) -> list:
    """[(monic factor, multiplicity)] of a monic quadratic f = t^2 + b*t + c
    over a field with a sqrt (Q, an odd F_p, or a quadratic level over it),
    read off the square root of its discriminant d = b^2 - 4c: (t + b/2, 2)
    when d = 0, the two factors t + (b -+ sqrt d)/2 when d is a nonzero
    square, and (f, 1) when d is no square; [] for any other f."""
    F = f.field
    if f.degree != 2 or F.sqrt is None:
        return []
    c, b, _ = f.values
    d = F.sub(F.mul(b, b), F.mul(F.raw(4), c))
    s = F.sqrt(d)
    if s is None:
        return [(f, 1)]
    half = F.divider(F.raw(2))
    roots = {half(F.sub(b, s)), half(F.add(b, s))}
    return [(UniPoly._from_values(F, (r, F.raw_one), f.var), 3 - len(roots)) for r in roots]


def is_irreducible(f: UniPoly) -> bool:
    """Squarefree, and over a finite field one distinct-degree factor of
    full degree; over Q, for degree <= 3, squarefree with no rational root.
    A quadratic over a field with a sqrt is irreducible when its
    discriminant is no square."""
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    if not f.values[0]:
        # t divides f, of degree >= 2
        return False
    f = f.monic()
    split = _quadratic_split(f)
    if split:
        return split[0][0].degree == 2
    rational = isinstance(f.field, RationalField)
    if rational and f.degree > 3:
        raise ValueError("irreducibility over Q is only certified up to degree 3")
    if uni_gcd(f, f.derivative()).degree >= 1:
        return False
    if rational:
        return not _rational_roots_split(f)[0]
    return _distinct_degree(f)[0][1] == f.degree


def extend_field(base: Field, minpoly: UniPoly) -> ExtensionField:
    """Adjoin a root of a monic irreducible polynomial (finite fields only)."""
    if isinstance(base, RationalField):
        raise UnsupportedExtension("extensions of Q are not supported")
    minpoly = minpoly.map_field(base)
    if minpoly.degree < 2:
        raise ValueError("minimal polynomial must have degree >= 2")
    if minpoly.lc() != base.one():
        raise ValueError("minimal polynomial must be monic")
    if not is_irreducible(minpoly):
        raise ReducibleMinPoly(str(minpoly))
    return ExtensionField(base, minpoly, f"z{len(base.bases) + 1}")


def find_irreducible(field: Field, degree: int) -> UniPoly:
    """Smallest (in canonical scan order) monic irreducible of given degree.

    The scan runs from the constant term outward; above degree 1 a zero
    constant term leaves the factor t, so those candidates are skipped.
    """
    if isinstance(field, RationalField):
        raise UnsupportedExtension("irreducibles are searched only over finite fields")
    if degree < 1:
        raise ValueError("an irreducible polynomial has degree at least 1")
    for c0 in field.elements():
        if degree > 1 and c0.is_zero():
            continue
        for rest in _raw_tuples(field, degree - 1):
            f = UniPoly._from_values(field, (c0.value,) + rest + (field.raw_one,), "t")
            if is_irreducible(f):
                return f
    raise RuntimeError("no irreducible found; impossible over a finite field")


def roots_with_extension(f: UniPoly):
    """All roots of f with multiplicity, over f's field or a finite extension.

    Returns (field, [(root, multiplicity), ...]) with the roots in text order.
    f is factored once, over its own field, and _split_factors splits the
    factors.
    """
    if f.is_zero():
        raise ZeroPolynomial("roots of 0")
    return _split_factors(f.field, uni_factor(f)[1])


def _split_factors(field: Field, factors):
    """Roots of distinct monic factors [(g, m), ...] over `field`, each
    irreducible over a finite field, as (field, [(root, m), ...]) in text
    order.

    Over Q a factor of degree >= 2 raises NonRationalPoint.  Over a finite
    field F_q the first nonlinear factor g is adjoined as K = F_q[z]/(g), and
    its roots in K are the images of z under _frobenius, which close into
    an orbit after exactly deg g steps (else InternalError), so g is never
    factored again and K is built without extend_field's check.  Every
    other factor h is irreducible over F_q, so over K it splits into gcd(deg h, deg g) factors of degree
    deg h / gcd, found by the discriminant split when K has a sqrt and h is
    quadratic, else by one equal-degree split; the loop repeats until every
    factor is linear.
    Monic factorization is unique, so each level sees the same factors as
    factoring their product over it, and the tower and the roots are the same.
    """
    while True:
        factors = sorted(factors, key=_factor_key)
        k = next((i for i, (g, _) in enumerate(factors) if g.degree >= 2), None)
        if k is None:
            break
        g, m = factors.pop(k)
        if isinstance(field, RationalField):
            raise NonRationalPoint(str(g))
        from .frobenius import _equal_degree, _frobenius

        field = ExtensionField(field, g, f"z{len(field.bases) + 1}")
        phi = _frobenius(field, field.base)
        images = [z := field.generator().value]
        while len(images) < g.degree:
            images.append(phi(images[-1]))
        if phi(images[-1]) != z or z in images[1:]:
            raise InternalError(f"Frobenius orbit of {field.gen_name} does not close at {g.degree}")
        split = [(UniPoly(field, (-Scalar(field, r), 1), g.var), m) for r in images]
        rng = Random(DEFAULT_FACTOR_SEED)
        for h, mh in factors:
            h = h.map_field(field)
            # h is squarefree, so each part of the split has multiplicity 1
            parts = [part for part, _ in _quadratic_split(h)]
            d = h.degree // math.gcd(h.degree, g.degree)
            split.extend((part, mh) for part in parts or _equal_degree(h, d, rng))
        factors = split
    roots = [(-g.coeff(0), m) for g, m in factors]
    roots.sort(key=lambda rm: str(rm[0]))
    return field, roots
