"""Delta invariants, intersection numbers two ways, adjoints, genus."""

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from planecurves.blowup import resolve_tree
from planecurves.errors import (
    CommonComponent,
    NegativeGenus,
    Reducible,
    UnresolvedTree,
    ZeroPolynomial,
)
from planecurves.fields import RationalField, UniPoly, uni_factor
from planecurves.invariants import (
    _certify_irreducible,
    adjoint_check,
    delta_invariant,
    genus,
    intersection_multiplicity,
    intersection_oracle,
)
from planecurves.noether import find_singular_points
from planecurves.poly import (
    PROJECTIVE,
    MultiPoly,
    _shear_candidates,
    dehomogenize,
    parse_poly,
    squarefree_defect,
)

from .helpers import F2, QQ, aff, corpus, field_by_name, hom

DATA = corpus()


class TestDelta:
    @pytest.mark.parametrize("entry", DATA["singularities"], ids=lambda e: e["name"])
    def test_corpus_values(self, entry):
        F = parse_poly(entry["poly"], field_by_name(entry["field"]), space="affine")
        rep = delta_invariant(resolve_tree(F))
        assert rep.delta == entry["delta"]
        assert rep.conductor_degree == 2 * entry["delta"]
        assert [r for _, r in rep.multiplicity_sequence] == entry["sequence"]

    def test_smooth_point_has_delta_zero(self):
        rep = delta_invariant(resolve_tree(aff("y - x^2")))
        assert rep.delta == 0
        assert rep.multiplicity_sequence == []

    def test_capped_tree_is_refused(self):
        tree = resolve_tree(aff("y^2 - x^7"), max_depth=1)
        with pytest.raises(UnresolvedTree):
            delta_invariant(tree)

    def test_point_passthrough(self):
        pt = (QQ.scalar(2), QQ.scalar(3))
        rep = delta_invariant(resolve_tree(aff("y^2-x^3")), point=pt)
        assert rep.point == pt


class TestIntersection:
    @pytest.mark.parametrize(
        "entry",
        DATA["intersection_pairs"],
        ids=lambda e: f"{e['F']}~{e['G']}~{e['field']}",
    )
    def test_corpus_pairs_agree_both_ways(self, entry):
        fld = field_by_name(entry["field"])
        F = parse_poly(entry["F"], fld, space="affine")
        G = parse_poly(entry["G"], fld, space="affine")
        rep = intersection_multiplicity(F, G)
        assert rep.noether_sum == entry["I"]
        assert rep.oracle_value == entry["I"]
        assert rep.agreement

    def test_symmetry(self):
        F, G = aff("y^2-x^3"), aff("y^2+x^3")
        assert (
            intersection_multiplicity(F, G).noether_sum
            == intersection_multiplicity(G, F).noether_sum
        )

    def test_contributions_multiply_out(self):
        rep = intersection_multiplicity(aff("y^2-x^3"), aff("y^2+x^3"))
        assert sum(rc * rd for _, rc, rd in rep.contributions) == rep.noether_sum

    def test_disjoint_at_origin_reports_zero(self):
        rep = intersection_multiplicity(aff("y - 1"), aff("x"))
        assert rep.noether_sum == 0
        assert rep.oracle_value == 0
        assert rep.contributions == []

    def test_common_component_rejected(self):
        with pytest.raises(CommonComponent):
            intersection_multiplicity(aff("y*(y-x^2)"), aff("y*(y+x)"))

    def test_zero_curve_rejected(self):
        with pytest.raises(ZeroPolynomial):
            intersection_multiplicity(MultiPoly.zero(QQ), aff("y"))

    def test_oracle_standalone(self):
        assert intersection_oracle(aff("y"), aff("x")) == 1
        assert intersection_oracle(aff("y^2-x^3"), aff("y")) == 3
        assert intersection_oracle(aff("y-x^2"), aff("y-x^2-x^5")) == 5

    def test_oracle_shears_away_a_bad_top_coefficient(self):
        # deg_y top coefficient of x*y^2 + ... is not constant at lam = 0
        F = aff("x*y^2 + y^2 - x^3")
        assert intersection_oracle(F, aff("y")) == 3

    def test_oracle_and_tree_agree_over_f2(self):
        # coprime curves that also share (0,1) and (1,1): no shear over F_2
        # isolates the origin on its fiber, and Fulton's algorithm needs none
        F = aff("y^2+y+xy+x^2", F2)
        G = aff("y^2+y+xy+x^4", F2)
        assert intersection_oracle(F, G) == 2
        rep = intersection_multiplicity(F, G)
        assert (rep.noether_sum, rep.oracle_value) == (2, 2)
        assert rep.agreement

    def test_oracle_on_a_deep_pair(self):
        # I(F, G) = I(F, G - F) = I(F, x^30) = 30 * I(y^2 - x^21, x) = 60
        assert intersection_oracle(aff("y^2-x^21"), aff("y^2-x^21-x^30")) == 60

    def test_oracle_rejects_common_components(self):
        with pytest.raises(CommonComponent):
            intersection_oracle(aff("y*(y-x^2)"), aff("y*(y+x)"))
        with pytest.raises(ZeroPolynomial):
            intersection_oracle(MultiPoly.zero(QQ), aff("y"))


class TestAdjoint:
    @pytest.mark.parametrize(
        "C,G,ok",
        [
            ("y^2-x^3", "x", True),
            ("y^2-x^3", "y", True),
            ("y^2-x^3", "1+x", False),
            ("y^2-x^4", "y", True),
            ("y^2-x^4", "x", False),
            ("y(y-x)(y+x)+x^4", "x*y", True),
            ("y(y-x)(y+x)+x^4", "x", False),
        ],
    )
    def test_frozen_verdicts(self, C, G, ok):
        rep = adjoint_check(aff(C), aff(G))
        assert rep.ok is ok

    def test_margins_are_reported_per_node(self):
        rep = adjoint_check(aff("y^2-x^4"), aff("x"))
        margins = {d: m for d, _, _, m in rep.entries}
        assert margins[0] == 0  # r_G = 1 against r_C = 2
        assert margins[1] == -1  # strict transform of x is a unit

    def test_common_component_rejected(self):
        with pytest.raises(CommonComponent):
            adjoint_check(aff("y*(y-x^2)"), aff("y"))

    def test_candidate_may_miss_the_origin(self):
        rep = adjoint_check(aff("y^2-x^3"), aff("1+x"))
        assert rep.entries[0][1:3] == (2, 0)


class TestGenus:
    @pytest.mark.parametrize(
        "entry", DATA["genus_cases"], ids=lambda e: f"{e['F']}~{e['field']}"
    )
    def test_corpus_cases(self, entry):
        fld = field_by_name(entry["field"])
        F = parse_poly(entry["F"], fld, space="homogeneous")
        points = find_singular_points(F)
        assert genus(F, points) == entry["genus"]

    def test_line_and_conic_have_genus_zero(self):
        assert genus(hom("X"), []) == 0
        assert genus(hom("X^2+Y^2-Z^2"), []) == 0

    def test_smooth_quartic_needs_the_flag_over_q(self):
        F = hom("X^4 + Y^4 + Z^4")
        with pytest.raises(Reducible):
            genus(F, [])
        assert genus(F, [], assume_irreducible=True) == 3

    def test_reducible_quartic_is_caught(self):
        F = hom("(X^2+Y^2-2Z^2)*(X^2-Y^2)")
        with pytest.raises(Reducible):
            genus(F, [])

    def test_coordinate_factor_is_caught(self):
        with pytest.raises(Reducible):
            genus(hom("X*Y"), [])

    def test_incomplete_or_reducible_data_goes_negative(self):
        F = hom("X*Y*Z")
        corners = [
            (QQ.one(), QQ.zero(), QQ.zero()),
            (QQ.zero(), QQ.one(), QQ.zero()),
            (QQ.zero(), QQ.zero(), QQ.one()),
        ]
        with pytest.raises(NegativeGenus):
            genus(F, corners, assume_irreducible=True)

    def test_point_must_lie_on_the_curve(self):
        F = hom("Y^2*Z - X^3")
        with pytest.raises(ValueError):
            genus(F, [(QQ.one(), QQ.one(), QQ.zero())], assume_irreducible=True)

    def test_affine_input_rejected(self):
        with pytest.raises(ValueError):
            genus(aff("y^2-x^3"), [])


def _fibers_by_substitution(F, n):
    """The fiber loop _certify_irreducible used before it read biv_coeffs rows."""
    for chart in ("Z", "Y", "X"):
        aff_F = dehomogenize(F, chart)
        for main, other in (("y", "x"), ("x", "y")):
            top = (0, n) if main == "y" else (n, 0)
            if aff_F.coeff(top).is_zero():
                continue
            field = F.field
            samples = _shear_candidates(field)
            for _ in range(8):
                try:
                    a = next(samples)
                except StopIteration:
                    break
                fib = aff_F.substitute({other: MultiPoly.constant(field, a)})
                coeffs = [fib.coeff((0, j) if main == "y" else (j, 0)) for j in range(n + 1)]
                yield UniPoly(field, coeffs, var=main)
            return


def certify_by_factoring(F):
    """The certificate as it was before is_irreducible decided the fibers:
    each fiber factored by uni_factor, rational degree > 3 skipped."""
    n = F.total_degree()
    if n == 1:
        return
    for v in PROJECTIVE:
        idx = PROJECTIVE.index(v)
        if all(e[idx] >= 1 for e in F.values):
            raise Reducible(f"curve is divisible by {v}")
    defect = squarefree_defect(dehomogenize(F, "Z"))
    if defect is not None:
        raise Reducible(f"repeated factor detected: {defect}")
    rational = isinstance(F.field, RationalField)
    for fib in _fibers_by_substitution(F, n):
        if fib.degree != n:
            continue
        _, factors = uni_factor(fib)
        if len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == n:
            if rational and n > 3:
                continue
            return
    raise Reducible(
        "could not certify irreducibility; pass assume_irreducible for a "
        "curve known to be irreducible"
    )


def _outcome(certify, F):
    try:
        certify(F)
    except Reducible as exc:
        return str(exc)
    return None


CERTIFY_CASES = [(e["F"], e["field"]) for e in DATA["genus_cases"]] + [
    ("X^3+Y^3+Z^3", "p:11"),
    ("X^3+Y^3+Z^3", "p:5"),
    ("X^4+Y^4+Z^4", "q"),
    ("X^4+Y^4+Z^4", "p:3"),
    ("X^4+Y^4+Z^4", "p:5"),
    ("(X^2+Y^2-2Z^2)*(X^2-Y^2)", "q"),
    ("(X^2+Y^2-Z^2)*(X-Y)", "p:7"),
    ("(X+Y+Z)^2", "p:5"),
    ("X*Y", "q"),
    ("Y^2*Z-X^3-X*Z^2", "q"),
]


@pytest.mark.parametrize("text, field", CERTIFY_CASES)
def test_certificate_matches_factoring_fibers(text, field):
    F = parse_poly(text, field_by_name(field), space="homogeneous")
    assert _outcome(_certify_irreducible, F) == _outcome(certify_by_factoring, F)


@pytest.mark.parametrize("field", ["p:2", "p:3", "p:5", "p:7", "q"])
def test_certificate_matches_factoring_fibers_on_random_forms(field):
    fld = field_by_name(field)
    coeff = st.integers(-3, 3) if field == "q" else st.integers(0, int(field[2:]) - 1)
    seen = {"certified": 0, "refused": 0}

    @seed(1870)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        mons = [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
        terms = data.draw(st.dictionaries(st.sampled_from(mons), coeff, min_size=1))
        F = MultiPoly(fld, PROJECTIVE, terms)
        assume(not F.is_zero())
        got = _outcome(_certify_irreducible, F)
        assert got == _outcome(certify_by_factoring, F)
        seen["certified" if got is None else "refused"] += 1

    check()
    assert all(seen.values()), seen
