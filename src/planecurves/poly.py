"""Sparse multivariate polynomials and the two coordinate changes.

A polynomial holds `values`, a dict from exponent tuples to raw values of
its field (see fields.Field) with no zeros, in affine variables (x, y) or
homogeneous ones (X, Y, Z).  Blow-up charts additionally use (x, t).  Sums,
products, powers and substitution run on these dicts through the sparse
kernels _dadd, _dneg, _dmul and _dpow; the parser multiplies and raises
powers with the same kernels and sums its terms into one dict in place.
Everything here is exact; there is no floating point anywhere in the
package.

The only coordinate changes an infinitely near point needs are a
translation to the origin and one shear x -> x + lam*y making the tangent
cone suitable.  Both add a multiple of a constant or of another variable to
one variable, and add_multiples does each such change by _dshift: Horner's
rule on the rows of terms it mixes, with no polynomial products.  The
general `substitute` stays as the reference.

The text format round-trips: str() output reparses to an identical
polynomial (same field, same terms).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial
from itertools import chain, islice

from .errors import IncompatibleFields, InternalError, NotSuitable, ZeroPolynomial
from .fields import (
    NEG_INF,
    Field,
    PrimeField,
    RationalField,
    Scalar,
    UniPoly,
    _joined,
    _levels_above,
    _lift,
    _needs_parens,
    _pdivmod,
    _pgcd,
    _pmul,
    _power,
    _psub,
    _trim,
    extend_field,
    find_irreducible,
    join_fields,
)
from .integers import _common_denominator
from .linalg import _cert_field, echelon

AFFINE = ("x", "y")
CHART = ("x", "t")
PROJECTIVE = ("X", "Y", "Z")


class MultiPoly:
    """Immutable sparse polynomial in named variables over a field.

    `values` maps exponent tuples to nonzero raw values of `field`; `terms`,
    `coeff` and `constant_term` wrap Scalars on demand.
    """

    __slots__ = ("field", "variables", "values")

    def __init__(self, field: Field, variables, terms):
        variables = tuple(variables)
        scalar = field.scalar
        values = {}
        for exps, c in terms.items():
            if len(exps) != len(variables):
                raise ValueError("exponent arity does not match variables")
            v = scalar(c).value
            if v:
                values[exps] = v
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", values)

    @classmethod
    def _from_values(cls, field: Field, variables: tuple, values: dict) -> "MultiPoly":
        """Wrap a dict of nonzero raw values of `field`, skipping coercion."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", values)
        return self

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, field, variables=AFFINE):
        return cls._from_values(field, tuple(variables), {})

    @classmethod
    def constant(cls, field, c, variables=AFFINE):
        return cls(field, variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, field, name, variables=AFFINE):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls._from_values(field, variables, {tuple(exps): field.raw_one})

    # ---- basic queries ----

    @property
    def terms(self) -> dict:
        """The coefficients as Scalars, keyed by exponent tuple."""
        F = self.field
        return {e: Scalar(F, v) for e, v in self.values.items()}

    def is_zero(self):
        return not self.values

    def total_degree(self):
        return max((sum(e) for e in self.values), default=NEG_INF)

    def min_total_degree(self):
        return min((sum(e) for e in self.values), default=NEG_INF)

    def degree_in(self, name: str):
        i = self.variables.index(name)
        return max((e[i] for e in self.values), default=NEG_INF)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.values}
        return len(degs) <= 1

    def coeff(self, exps) -> Scalar:
        return Scalar(self.field, self.values.get(tuple(exps), self.field.raw_zero))

    def constant_term(self) -> Scalar:
        return self.coeff((0,) * len(self.variables))

    # ---- arithmetic ----

    def _pair(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = MultiPoly.constant(
                other.field if isinstance(other, Scalar) else self.field,
                other,
                self.variables,
            )
        if not isinstance(other, MultiPoly):
            return None
        if other.variables != self.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )
        if self.field == other.field:
            return self, other
        return _joined(self, other)[1]

    def _kernel(self, other, op):
        """op(field, raw self, raw other) over the joined field, wrapped."""
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return MultiPoly._from_values(a.field, a.variables, op(a.field, a.values, b.values))

    def map_field(self, target: Field) -> "MultiPoly":
        if target == self.field:
            return self
        k = _levels_above(target, self.field)
        return MultiPoly._from_values(
            target, self.variables, {e: _lift(v, k) for e, v in self.values.items()}
        )

    def __add__(self, other):
        return self._kernel(other, _dadd)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._from_values(self.field, self.variables, _dneg(self.field, self.values))

    def __sub__(self, other):
        return self._kernel(other, lambda F, a, b: _dadd(F, a, _dneg(F, b)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._kernel(other, _dmul)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        F, unit = self.field, (0,) * len(self.variables)
        return MultiPoly._from_values(F, self.variables, _dpow(F, self.values, e, unit))

    def __eq__(self, other):
        if isinstance(other, MultiPoly) and other.variables != self.variables:
            return False
        try:
            p = self._pair(other)
        except IncompatibleFields:
            return False
        return NotImplemented if p is None else p[0].values == p[1].values

    def __hash__(self):
        # hash_value keeps the hash of equal polynomials over a tower alike
        h = self.field.hash_value
        return hash((self.variables, frozenset([(e, h(v)) for e, v in self.values.items()])))

    # ---- calculus and forms ----

    def derivative(self, name: str) -> "MultiPoly":
        i = self.variables.index(name)
        F = self.field
        out = {}
        for e, c in self.values.items():
            if e[i] == 0:
                continue
            k = F.mul(F.raw(e[i]), c)
            if not k:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = k
        return MultiPoly._from_values(F, self.variables, out)

    def form_of_degree(self, d: int) -> "MultiPoly":
        return MultiPoly._from_values(
            self.field,
            self.variables,
            {e: c for e, c in self.values.items() if sum(e) == d},
        )

    def mult_at_origin(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("multiplicity of the zero polynomial")
        return int(self.min_total_degree())

    def lowest_form(self) -> "MultiPoly":
        return self.form_of_degree(self.mult_at_origin())

    # ---- substitution ----

    def evaluate(self, values: dict) -> Scalar:
        F = self.field
        for v in self.variables:
            if isinstance(values[v], Scalar):
                F = join_fields(F, values[v].field)
        point = [F.scalar(values[v]).value for v in self.variables]
        add, mul = F.add, F.mul
        acc = F.raw_zero
        for e, c in self.map_field(F).values.items():
            for a, k in zip(point, e):
                for _ in range(k):
                    c = mul(c, a)
            acc = add(acc, c)
        return Scalar(F, acc)

    def substitute(self, repl: dict, variables=None) -> "MultiPoly":
        """Substitute polynomials (or scalars) for variables.

        Unreplaced variables must exist in the target variable tuple, which
        defaults to this polynomial's own.
        """
        variables = tuple(variables) if variables is not None else self.variables
        images = []
        for v in self.variables:
            img = repl.get(v)
            if img is None:
                img = MultiPoly.var(self.field, v, variables)
            elif isinstance(img, (int, Fraction, Scalar)):
                img = MultiPoly.constant(
                    img.field if isinstance(img, Scalar) else self.field, img, variables
                )
            images.append(img)
        field, (F, *images) = _joined(self, *images)
        images = {v: p.values for v, p in zip(self.variables, images)}
        unit = (0,) * len(variables)
        powers = {v: [{unit: field.raw_one}] for v in images}
        add = field.add
        out = {}
        for e, c in F.values.items():
            term = {unit: c}
            for v, k in zip(self.variables, e):
                if k:
                    cache = powers[v]
                    while len(cache) <= k:
                        cache.append(_dmul(field, cache[-1], images[v]))
                    term = _dmul(field, term, cache[k])
            for ek, ck in term.items():
                out[ek] = add(out[ek], ck) if ek in out else ck
        return MultiPoly._from_values(field, variables, {e: c for e, c in out.items() if c})

    def rename(self, variables) -> "MultiPoly":
        variables = tuple(variables)
        if len(variables) != len(self.variables):
            raise ValueError("rename must preserve arity")
        return MultiPoly._from_values(self.field, variables, dict(self.values))

    # ---- printing ----

    def __str__(self):
        if not self.values:
            return "0"
        keys = sorted(self.values, key=lambda e: (-sum(e), tuple(-k for k in e)))
        element_str = self.field.element_str
        parts = []
        for e in keys:
            cs = element_str(self.values[e])
            vars_part = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            )
            if not vars_part:
                parts.append(cs if not _needs_parens(cs) else f"({cs})")
            elif cs == "1":
                parts.append(vars_part)
            elif cs == "-1":
                parts.append("-" + vars_part)
            elif _needs_parens(cs):
                parts.append(f"({cs})*{vars_part}")
            else:
                parts.append(f"{cs}*{vars_part}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self):
        return f"MultiPoly({self}, {self.field.describe()}, vars={self.variables})"


# ---------------------------------------------------------------------------
# curve-level operations
# ---------------------------------------------------------------------------


def add_multiples(F: MultiPoly, *moves) -> MultiPoly:
    """F after each move (i, s) or (i, s, j) in turn, by _dshift.

    A move replaces variable i by var_i + s, or by var_i + s*var_j; s is an
    int, a Fraction or a Scalar, and the result lives in the join of F's
    field with the Scalars' fields.  When every s is zero, the result is F
    mapped into that field.
    """
    field = F.field
    for _, s, *_ in moves:
        if isinstance(s, Scalar):
            field = join_fields(field, s.field)
    G = F.map_field(field)
    values = G.values
    for i, s, *j in moves:
        s = field.scalar(s).value
        if s:
            values = _dshift(field, values, i, s, *j)
    return G if values is G.values else MultiPoly._from_values(field, G.variables, values)


def translate(F: MultiPoly, a, b) -> MultiPoly:
    """F(x + a, y + b): move the point (a, b) to the origin."""
    return add_multiples(F, (0, a), (1, b))


def shear(F: MultiPoly, lam) -> MultiPoly:
    """F(x + lam*y, y): the linear change that makes F suitable."""
    return add_multiples(F, (0, lam, 1))


def homogenize(F: MultiPoly) -> MultiPoly:
    """(x, y) -> (X, Y, Z) with Z carrying the degree."""
    if len(F.variables) != 2:
        raise ValueError("homogenize expects an affine polynomial")
    if F.is_zero():
        return MultiPoly.zero(F.field, PROJECTIVE)
    n = int(F.total_degree())
    return MultiPoly._from_values(
        F.field, PROJECTIVE, {(i, j, n - i - j): c for (i, j), c in F.values.items()}
    )


def dehomogenize(F: MultiPoly, chart: str = "Z") -> MultiPoly:
    """Set one projective variable to 1; the other two become (x, y).

    chart Z: (X, Y) -> (x, y); chart Y: (X, Z) -> (x, y);
    chart X: (Y, Z) -> (x, y).
    """
    if len(F.variables) != 3:
        raise ValueError("dehomogenize expects a homogeneous polynomial")
    idx = F.variables.index(chart)
    keep = [i for i in range(3) if i != idx]
    add = F.field.add
    out = {}
    for e, c in F.values.items():
        key = (e[keep[0]], e[keep[1]])
        out[key] = add(out[key], c) if key in out else c
    return MultiPoly._from_values(F.field, AFFINE, {e: c for e, c in out.items() if c})


def is_suitable(F: MultiPoly) -> bool:
    """True when the lowest form does not vanish at (x, y) = (0, 1): F has a y^r term."""
    return (0, F.mult_at_origin()) in F.values


def _shear_candidates(field: Field):
    if isinstance(field, RationalField):
        def gen():
            yield field.zero()
            k = 1
            while True:
                yield field.scalar(k)
                yield field.scalar(-k)
                k += 1
        return gen()
    return field.elements()


def _first_fit(field: Field, candidates, ok):
    """(c, field) for the first c of candidates(field) with ok(c).

    When every candidate of a finite field fails, the field is extended by
    the first monic irreducible quadratic and scanned again; c is None when
    the candidates of an infinite field run out.
    """
    while True:
        c = next((c for c in candidates(field) if ok(c)), None)
        if c is not None or not field.is_finite:
            return c, field
        field = extend_field(field, find_irreducible(field, 2))


def make_suitable_many(polys):
    """One shear making every polynomial in the list suitable at once.

    Returns (sheared polys, lam, field), lam zero when no shear was needed.
    Each tangent cone is read once: the coefficients of x^i*y^(r-i) in a
    polynomial of multiplicity r are the coefficients of lam^i in a
    univariate cone, whose value at lam is that of the lowest form at
    (lam, 1).  When every cone has a nonzero constant term (every
    polynomial has its y^r term) lam is zero at once; otherwise the cones
    are evaluated by Horner's rule at each candidate.  Over a finite field
    the tower is extended when no element of the current field works; over
    Q a working integer always exists.
    """
    field, polys = _joined(*polys)
    cones = []
    for p in polys:
        if p.is_zero():
            raise ZeroPolynomial("cannot shear the zero polynomial")
        r = p.min_total_degree()
        cone = [field.raw_zero] * (r + 1)
        for e, c in p.values.items():
            if e[0] + e[1] == r:
                cone[e[0]] = c
        cones.append(UniPoly._from_values(field, _trim(cone), "t"))
    if all(cone.values[0] for cone in cones):
        return polys, field.zero(), field
    # over Q the forms vanish at fewer integers than their degrees add up
    # to, so a shear lies among the first limit candidates
    limit = sum(int(p.total_degree()) for p in polys) + 3

    def candidates(fld):
        return islice(_shear_candidates(fld), None if fld.is_finite else limit)

    def fits(lam):
        return all(cone.eval(lam) for cone in cones)

    lam, field = _first_fit(field, candidates, fits)
    if lam is None:
        raise NotSuitable("no rational shear found; impossible")
    polys = [shear(p.map_field(field), lam) for p in polys]
    return polys, lam, field


def make_suitable(F: MultiPoly):
    """Shear x -> x + lam*y until the chart at [1:0] captures all tangents.

    Returns (G, lam) with G = shear(F, lam); lam is zero when F is already
    suitable.
    """
    if F.is_zero():
        raise ZeroPolynomial("cannot make the zero polynomial suitable")
    sheared, lam, _ = make_suitable_many([F])
    return sheared[0], lam


# ---------------------------------------------------------------------------
# bivariate gcd and resultants (rows of raw F[x] tuples)
# ---------------------------------------------------------------------------


def biv_coeffs(F: MultiPoly, main: str) -> list:
    """F as a polynomial in `main` with UniPoly coefficients in the other var."""
    if len(F.variables) != 2:
        raise ValueError("expected a polynomial in two variables")
    mi = F.variables.index(main)
    ci = 1 - mi
    co = F.variables[ci]
    dm = F.degree_in(main)
    n = 0 if dm == NEG_INF else int(dm)
    zero = F.field.raw_zero
    rows = [[] for _ in range(n + 1)]
    for e, c in F.values.items():
        row, k = rows[e[mi]], e[ci]
        if len(row) <= k:
            row.extend([zero] * (k + 1 - len(row)))
        row[k] = c
    # values hold no zeros, so each row ends in a nonzero value
    return [UniPoly._from_values(F.field, tuple(row), co) for row in rows]


def _pseudo_rem(field, A: list, B: list) -> list:
    """Pseudo-remainder of A by B, each a list of raw F[x] tuples indexed by y-degree."""
    db = len(B) - 1
    lb = B[-1]
    while len(A) > db:
        la = A[-1]
        shift = len(A) - 1 - db
        # lb * A - la * y^shift * B, whose top coefficient cancels
        A = [_pmul(field, c, lb) for c in A[:-1]]
        for j in range(db):
            A[shift + j] = _psub(field, A[shift + j], _pmul(field, la, B[j]))
        while A and not A[-1]:
            A.pop()
    return A


def _primitive(field, rows: list):
    """(rows divided by their content, the content): the content is their monic gcd."""
    g = ()
    for c in rows:
        g = _pgcd(field, g, c)
        if len(g) == 1:
            return rows, g
    out = []
    for c in rows:
        q, r = _pdivmod(field, c, g)
        if r:
            raise InternalError("content division must be exact")
        out.append(q)
    return out, g


def _image_mod_p(F: MultiPoly, Fp: PrimeField) -> MultiPoly | None:
    """F over Q with its denominators cleared, reduced modulo p; None when p
    divides the lex-leading (y, then x) coefficient of the cleared F."""
    ints, _ = _common_denominator(F.values.values())
    image = {e: r for e, v in zip(F.values, ints) if (r := v % Fp.p)}
    if max(F.values, key=lambda e: (e[1], e[0])) not in image:
        return None
    return MultiPoly._from_values(Fp, F.variables, image)


# good points tried per variable before the certificate gives up
SLICE_TRIES = 3


def _slice(field, values: dict, i: int, powers: list, n: int) -> tuple:
    """The raw univariate polynomial left when variable i of the term dict
    `values` is set to the point whose powers are listed; n is the degree
    of `values` in the other variable."""
    add, mul = field.add, field.mul
    out = [field.raw_zero] * (n + 1)
    for e, c in values.items():
        k = e[1 - i]
        out[k] = add(out[k], mul(c, powers[e[i]]))
    return _trim(out)


def _coprime_by_slices(F: MultiPoly, G: MultiPoly) -> bool:
    """True when a slice in each variable proves F and G coprime; see biv_gcd."""
    field = F.field
    mul = field.mul
    for i in (0, 1):
        n = max(e[1 - i] for e in F.values)
        m = max(e[1 - i] for e in G.values)
        top = max(e[i] for e in chain(F.values, G.values))
        tries = 0
        # the nonzero elements in canonical order, then 0: every local
        # computation is centred at the origin, where slices share roots most
        for t in chain(islice(field.elements(), 1, None), [field.zero()]):
            powers = [field.raw_one]
            for _ in range(top):
                powers.append(mul(powers[-1], t.value))
            f = _slice(field, F.values, i, powers, n)
            if len(f) <= n:
                continue  # t is a root of F's leading coefficient
            if len(_pgcd(field, f, _slice(field, G.values, i, powers, m))) == 1:
                break
            tries += 1
            if tries == SLICE_TRIES:
                return False
        else:
            return False
    return True


def biv_gcd(F: MultiPoly, G: MultiPoly) -> MultiPoly:
    """Gcd of two bivariate polynomials, primitive with monic leading part.

    A coprimality certificate comes first.  A slice is the univariate
    polynomial left when one variable is set to a field element.  F and G
    are coprime when there are a t with lc_y(F)(t) != 0 at which the slices
    F(t, y) and G(t, y) have a constant gcd, and an s with lc_x(F)(s) != 0
    at which F(x, s) and G(x, s) do.  Why: a common factor h has positive
    degree in y, say (x is the same with s).  Then lc_y(h) divides
    lc_y(F), so h(t, y) keeps its degree and divides both slices.  Up to
    SLICE_TRIES points with a nonzero leading coefficient are tried per
    variable, the nonzero elements of the field in canonical order and then
    0, with no randomness.

    Over Q the certificate runs on the inputs with their denominators
    cleared, reduced modulo linalg.CERT_PRIME = 2^31 - 1, unless p
    divides the lex-leading (y, then x) integer coefficient of either.
    Why: by Gauss's lemma a common factor h of the inputs can be taken
    primitive in Z[x, y], and it then divides both cleared inputs over Z.
    Its lex-leading coefficient divides theirs, so p does not divide it, h
    mod p keeps its lex-leading monomial and stays nonconstant, and h mod p
    divides both images.

    When no point proves it (the slices share a factor, the field is too
    small, or p divides a leading coefficient), the gcd comes from
    _biv_gcd's exact pseudo-remainder sequence, so every nonconstant gcd is
    the one it computes.
    """
    if F.values and G.values and len(F.variables) == 2:
        F, G = F._pair(G)
        A, B = F, G
        if isinstance(F.field, RationalField):
            Fp = _cert_field()
            A, B = _image_mod_p(F, Fp), _image_mod_p(G, Fp)
        if A is not None and B is not None and _coprime_by_slices(A, B):
            return MultiPoly._from_values(F.field, F.variables, {(0, 0): F.field.raw_one})
    return _biv_gcd(F, G)


def _biv_gcd(F: MultiPoly, G: MultiPoly) -> MultiPoly:
    """The exact gcd: a primitive pseudo-remainder sequence in y over F[x].

    Every remainder is divided by its content, and the gcd of the inputs'
    contents is multiplied back at the end.
    """
    if F.is_zero():
        return _normalize_biv(G)
    if G.is_zero():
        return _normalize_biv(F)
    F, G = F._pair(G)
    field = F.field
    y = F.variables[1]
    A = [c.values for c in biv_coeffs(F, y)]
    B = [c.values for c in biv_coeffs(G, y)]
    if len(A) < len(B):
        A, B = B, A
    A, contA = _primitive(field, A)
    B, contB = _primitive(field, B)
    cont = _pgcd(field, contA, contB)
    # B is always primitive, so when the sequence ends it is the gcd's primitive part
    while len(B) > 1:
        R = _pseudo_rem(field, A, B)
        if not R:
            break
        A, B = B, _primitive(field, R)[0]
    if len(B) == 1:
        # B is a unit times content already removed: gcd in y is trivial
        B = [(field.raw_one,)]
    values = {}
    for k, c in enumerate(B):
        for j, v in enumerate(_pmul(field, c, cont)):
            if v:
                values[(j, k)] = v
    return _normalize_biv(MultiPoly._from_values(field, F.variables, values))


def _normalize_biv(F: MultiPoly) -> MultiPoly:
    if F.is_zero():
        return F
    lead = F.values[min(F.values, key=lambda e: (-sum(e), tuple(-k for k in e)))]
    if lead == F.field.raw_one:
        return F
    div = F.field.divider(lead)
    return MultiPoly._from_values(F.field, F.variables, {e: div(c) for e, c in F.values.items()})


def squarefree_defect(F: MultiPoly) -> MultiPoly | None:
    """A nonconstant witness shared by F and its gradient, or None.

    Over a perfect field this is nonempty exactly when F has a repeated
    factor; when both partials vanish identically the whole F is a p-th
    power and F itself is returned.
    """
    x, y = F.variables
    fx = F.derivative(x)
    fy = F.derivative(y)
    if fx.is_zero() and fy.is_zero():
        return F
    g = F
    for d in (fx, fy):
        if not d.is_zero():
            g = biv_gcd(g, d)
            if g.total_degree() < 1:
                return None
    return g


def resultant_biv(F: MultiPoly, G: MultiPoly, main: str) -> UniPoly:
    """Resultant eliminating `main`; the result lives in the other variable."""
    F, G = F._pair(G)
    field = F.field
    co = [v for v in F.variables if v != main][0]
    A = biv_coeffs(F, main)
    B = biv_coeffs(G, main)
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        raise ZeroPolynomial("resultant with the zero polynomial")
    # the Sylvester matrix on raw coefficient tuples; () is the zero of F[x]
    size = m + n
    if size == 0:
        return UniPoly(field, (field.one(),), co)
    a = [c.values for c in reversed(A)]
    b = [c.values for c in reversed(B)]
    rows = [[()] * i + a + [()] * (n - 1 - i) for i in range(n)]
    rows += [[()] * i + b + [()] * (m - 1 - i) for i in range(m)]
    pivots, sign = echelon(
        rows, size, partial(_pmul, field), partial(_psub, field), partial(_pdivmod, field)
    )
    det = rows[-1][-1] if len(pivots) == size else ()
    return UniPoly._from_values(field, _psub(field, (), det) if sign < 0 else det, co)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# a number, a name (a word character other than a digit or '_', then
# digits), an operator, or any other non-space character, an error
_TOKEN = re.compile(r"(\d+)|([^\W\d_]\d*)|([-+*^()/])|(\S)")


def _tokenize(text: str):
    tokens = []
    for num, name, op, bad in _TOKEN.findall(text):
        if bad:
            raise ValueError(f"unexpected character {bad!r} in polynomial")
        tokens.append(("num", int(num)) if num else ("name", name) if name else (op, op))
    tokens.append(("end", None))
    return tokens


def _generator_table(field: Field):
    # every level of the tower but its bottom, Q or F_p, is an extension
    return {K.gen_name: field.embed(K.generator()).value for K in (field, *field.bases)[:-1]}


# raw term dicts {exponent tuple: raw value}: sums, products and powers for
# MultiPoly and the parser alike; they drop zero coefficients


def _dadd(F, a: dict, b: dict) -> dict:
    add = F.add
    out = dict(a)
    for e, c in b.items():
        out[e] = add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c}


def _dneg(F, a: dict) -> dict:
    neg = F.neg
    return {e: neg(c) for e, c in a.items()}


def _dmul(F, a: dict, b: dict) -> dict:
    add, mul, plus = F.add, F.mul, operator.add
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(plus, ea, eb))
            c = mul(ca, cb)
            out[e] = add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c}


def _dshift(F, a: dict, i: int, s, j=None) -> dict:
    """a with variable i replaced by var_i + s, or by var_i + s*var_j; s raw.

    Terms that agree off i (and, when j is given, in e_i + e_j) form one
    row, a polynomial q(u) in u = var_i (or var_i / var_j).  Horner's rule
    turns q(u) into q(u + s) in d(d+1)/2 multiply-adds, d the row's degree
    (von zur Gathen and Gerhard, ISSAC 1997), and the row maps back.
    """
    add, mul, zero = F.add, F.mul, F.raw_zero
    rows = {}
    for e, c in a.items():
        key = list(e)
        key[i] = 0
        if j is not None:
            key[j] += e[i]
        rows.setdefault(tuple(key), {})[e[i]] = c
    out = {}
    for key, row in rows.items():
        d = max(row)
        q = [row.get(k, zero) for k in range(d + 1)]
        for k in range(d):
            for m in range(d - 1, k - 1, -1):
                if q[m + 1]:
                    q[m] = add(q[m], mul(s, q[m + 1]))
        for m, c in enumerate(q):
            if c:
                e = list(key)
                e[i] = m
                if j is not None:
                    e[j] -= m
                out[tuple(e)] = c
    return out


def _dpow(F, a: dict, e: int, unit: tuple) -> dict:
    """a^e by fields._power; unit is the zero exponent.  A one-term a is
    raised directly: its exponents times e, its coefficient to the e."""
    if len(a) == 1:
        [(ea, c)] = a.items()
        return {tuple([k * e for k in ea]): _power(F.mul, F.raw_one, c, e)}
    return _power(partial(_dmul, F), {unit: F.raw_one}, a, e)


def _exponent(tokens, pos):
    """(e, the position after it) for the '^' at tokens[pos]."""
    kind, e = tokens[pos + 1]
    if kind != "num":
        raise ValueError("exponent must be a nonnegative integer")
    return e, pos + 2


class _Parser:
    """Recursive descent over the token list.

    expr() and term() return a dict {exponent tuple: raw value of the
    field}.  A term is one loop over the tokens that reads each factor
    once, with its optional ^e: a variable adds to one exponent list; a
    number (coerced once, where it is read, and over Q an int stays an int),
    a fraction a/b or a tower generator multiplies one coefficient; a
    parenthesised sum is read by expr(), joins the run when it is one term,
    and otherwise _dmul multiplies it into the product of the term's sums.
    The MultiPoly is built once, from the whole expression.
    """

    def __init__(self, tokens, field, variables, gens):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.variables = variables
        self.gens = gens
        self.unit = (0,) * len(variables)
        # each spelling of a variable -> its place in the exponent tuple; a
        # generator's name means the generator
        self.index = {}
        for i, v in enumerate(variables):
            for name in (v.lower(), v.upper()):
                if name not in gens:
                    self.index[name] = i

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        terms = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input near token {self.peek()[1]!r}")
        return MultiPoly._from_values(self.field, self.variables, terms)

    def expr(self):
        # the terms are summed into one dict; a key whose sum cancels is
        # deleted, so a later term puts it last, as _dadd would
        add, neg = self.field.add, self.field.neg
        acc = {}
        op = self.take()[0] if self.peek()[0] in "+-" else "+"
        while True:
            for e, c in self.term().items():
                if op == "-":
                    c = neg(c)
                if e in acc:
                    c = add(acc[e], c)
                    if not c:
                        del acc[e]
                        continue
                acc[e] = c
            if self.peek()[0] not in "+-":
                return acc
            op = self.take()[0]

    def term(self):
        field, tokens, index, gens = self.field, self.tokens, self.index, self.gens
        mul = field.mul
        # the run's coefficient and exponents, and the product of the sums
        coeff, exps, sums = field.raw_one, [0] * len(self.variables), None
        pos = self.pos
        while True:
            kind, val = tokens[pos]
            pos += 1
            if kind == "name" and val in index:
                e = 1
                if tokens[pos][0] == "^":
                    e, pos = _exponent(tokens, pos)
                exps[index[val]] += e
            elif kind == "num" or kind == "name" and val in gens:
                if kind == "name":
                    c = gens[val]
                elif tokens[pos][0] == "/":
                    k2, v2 = tokens[pos + 1]
                    if k2 != "num" or v2 == 0:
                        raise ValueError("malformed rational coefficient")
                    c, pos = field.raw(Fraction(val, v2)), pos + 2
                else:
                    c = field.raw(val)
                if tokens[pos][0] == "^":
                    e, pos = _exponent(tokens, pos)
                    c = _power(mul, field.raw_one, c, e)
                coeff = mul(coeff, c)
            elif kind == "(":
                self.pos = pos
                other = self.expr()
                pos = self.pos
                if tokens[pos][0] != ")":
                    raise ValueError("unbalanced parenthesis")
                pos += 1
                if tokens[pos][0] == "^":
                    e, pos = _exponent(tokens, pos)
                    other = _dpow(field, other, e, self.unit)
                if len(other) == 1:
                    [(e, c)] = other.items()
                    coeff = mul(coeff, c)
                    exps = [i + j for i, j in zip(exps, e)]
                else:
                    sums = other if sums is None else _dmul(field, sums, other)
            elif kind == "name":
                raise ValueError(f"unknown symbol {val!r} for variables {self.variables}")
            elif kind == "end":
                raise ValueError("polynomial ended early")
            else:
                raise ValueError(f"unexpected token {val!r}")
            kind = tokens[pos][0]
            if kind == "*":
                pos += 1
            elif kind not in ("num", "name", "("):
                break
        self.pos = pos
        if not coeff:
            return {}
        if sums is None:
            return {tuple(exps): coeff}
        # a one-term factor shifts the keys of a product and keeps their order
        return {tuple([i + j for i, j in zip(e, exps)]): mul(coeff, c) for e, c in sums.items()}


def parse_poly(text: str, field: Field, space: str = "auto") -> MultiPoly:
    """Parse the CLI polynomial grammar.

    space: "affine" for (x, y), "homogeneous" for (X, Y, Z), or "auto" which
    picks homogeneous exactly when a z/Z variable occurs.  Case is folded to
    the target space, but mixing upper and lower case in one input is
    rejected as a likely mistake.
    """
    tokens = _tokenize(text)
    gens = _generator_table(field)
    # the distinct names, in the order they first occur
    names = dict.fromkeys(v for k, v in tokens if k == "name" and v not in gens)
    for n in names:
        if n.lower() not in ("x", "y", "z"):
            raise ValueError(f"unknown variable {n!r}")
    has_z = "z" in names or "Z" in names
    if space == "auto":
        space = "homogeneous" if has_z else "affine"
    if any(map(str.islower, names)) and any(map(str.isupper, names)):
        raise ValueError("mixed upper and lower case variables")
    variables = PROJECTIVE if space == "homogeneous" else AFFINE
    if space == "affine" and has_z:
        raise ValueError("z is not an affine variable; affine input uses x, y")
    return _Parser(tokens, field, variables, gens).parse()
