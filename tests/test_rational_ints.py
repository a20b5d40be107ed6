"""Over Q an integral value stays an int through every division.

A spy on Fraction.__new__ counts the Fractions a call creates: noether-solve
on integer input creates none, and resolve, intersect and bezout create far
fewer integral ones than when each division multiplied by a Fraction
inverse (the counts of that code are kept below as BEFORE).
"""

import contextlib
import io
from fractions import Fraction
from random import Random

import pytest

from planecurves.cli import main
from planecurves.errors import DivisionByZero
from planecurves.fields import Scalar, UniPoly, _pdivmod, _pmonic
from planecurves.linalg import solve_linear
from planecurves.noether import ProjPoint, solve_af_bg
from planecurves.poly import PROJECTIVE, MultiPoly

from .helpers import F7, QQ


@pytest.fixture
def fractions_made(monkeypatch):
    """The list of every Fraction created while the test runs."""
    made, new = [], Fraction.__new__

    def spy(cls, *args, **kwargs):
        f = new(cls, *args, **kwargs)
        made.append(f)
        return f

    monkeypatch.setattr(Fraction, "__new__", spy)
    return made


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _form(rng, deg, without=None):
    terms = {
        (i, j, deg - i - j): rng.choice((-1, 1)) * rng.randrange(10**11, 10**12)
        for i in range(deg + 1)
        for j in range(deg + 1 - i)
    }
    terms.pop(without, None)
    return MultiPoly(QQ, PROJECTIVE, terms)


def _cofactor_triple(seed, dF, dG, dH):
    # F and G pass through [0 : 0 : 1]; H = A F + B G has 12-digit coefficients
    rng = Random(seed)
    F, G = _form(rng, dF, (0, 0, dF)), _form(rng, dG, (0, 0, dG))
    H = _form(rng, dH - dF) * F + _form(rng, dH - dG) * G
    return F, G, H


def test_integral_quotients_are_ints():
    assert (QQ.scalar(6) / QQ.scalar(3)).value == 2
    assert type((QQ.scalar(6) / QQ.scalar(3)).value) is int
    assert type((QQ.scalar(-6) / 3).value) is int
    assert type((6 / QQ.scalar(3)).value) is int and (1 / QQ.scalar(3)).value == Fraction(1, 3)
    assert (QQ.scalar(3) / QQ.scalar(6)).value == Fraction(1, 2)
    assert type((Scalar(QQ, Fraction(3, 2)) / Scalar(QQ, Fraction(1, 2))).value) is int
    assert type(QQ.scalar(-1).inverse().value) is int
    assert QQ.scalar(4).inverse().value == Fraction(1, 4)
    # the raw inverse alone still returns a Fraction
    assert type(QQ.inv(1)) is Fraction
    q, r = _pdivmod(QQ, (2, 0, 4), (1, 2))
    assert q == (-1, 2) and r == (3,) and {type(v) for v in q + r} == {int}
    assert {type(v) for v in _pmonic(QQ, (4, 2, 2))} == {int}
    # F_p divides as before
    assert (F7.scalar(3) / F7.scalar(5)).value == 3 * pow(5, -1, 7) % 7
    with pytest.raises(DivisionByZero):
        1 / F7.scalar(7)
    assert UniPoly(QQ, (6, 3)).monic().values == (2, 1)


def test_back_substitution_returns_ints():
    rows = [[QQ.scalar(2), QQ.scalar(4)], [QQ.scalar(0), QQ.scalar(3)]]
    x = solve_linear(rows, [QQ.scalar(10), QQ.scalar(6)], QQ)
    assert [v.value for v in x] == [1, 2] and {type(v.value) for v in x} == {int}


def test_projective_point_divides_by_its_pivot():
    P = ProjPoint([QQ.scalar(2), QQ.scalar(4), QQ.scalar(1)])
    assert [c.value for c in P.coords] == [1, 2, Fraction(1, 2)]
    assert type(P.coords[0].value) is int and type(P.coords[1].value) is int
    assert str(P) == "[1 : 2 : 1/2]"


@pytest.mark.parametrize("degrees", [(2, 2, 3), (3, 3, 5)])
def test_noether_solve_on_integer_input_makes_no_fraction(fractions_made, degrees):
    F, G, H = _cofactor_triple(2204, *degrees)
    off = H + MultiPoly(QQ, PROJECTIVE, {(0, 0, degrees[2]): 1})
    # a leading space keeps a leading minus sign from reading as an option
    texts = [f" {P}" for P in (F, G, H, off)]
    del fractions_made[:]
    code, out = _run(["noether-solve", *texts[:3]])
    assert code == 0 and out.startswith("Solved")
    code, out = _run(["noether-solve", *texts[:2], texts[3]])
    assert code == 2 and out.startswith("NoSolution")
    assert fractions_made == []


def test_cofactors_are_ints():
    F, G, H = _cofactor_triple(2205, 3, 3, 5)
    report = solve_af_bg(F, G, H)
    assert report.status == "Solved"
    assert {type(v) for P in (report.A, report.B) for v in P.values.values()} == {int}
    assert report.A * F + report.B * G == H


# integral Fractions that each call created when every division over Q
# multiplied by a Fraction inverse
BEFORE = {
    ("resolve", "y^2-x^5"): 12,
    ("resolve", "(y^2-x^3)^2-x^7"): 60,
    ("intersect", "y^2-x^3", "y^2-x^3-x^4"): 101,
    ("intersect", "(y^3-3*x^2+2*x^3)*(y-3*x^3+2*x^4)", "y^2-x^7+x^8"): 72,
    ("intersect", "y^2-x^2+x^3", "y+x"): 30,
    ("bezout", "Y^2*Z-X^3", "Y^2*Z+X^3"): 64,
    ("bezout", "X^2+Y^2-2*Z^2", "X^2-Y^2"): 388,
    ("bezout", "(X^2+Y^2-2*Z^2)*(X^2-Y^2)", "X-Z"): 330,
    ("bezout", "Y^2*Z-X^2*Z-X^3", "Y-2*X"): 71,
}


@pytest.mark.parametrize("argv", sorted(BEFORE), ids=" ".join)
def test_integral_fractions_fall(fractions_made, argv):
    # some remain by design: sums of Fractions in _pdivmod under _pgcd, and
    # quotients of Fractions, may be integral
    code, _ = _run(list(argv))
    assert code == 0
    integral = sum(f.denominator == 1 for f in fractions_made)
    assert integral <= BEFORE[argv] // 5, integral
