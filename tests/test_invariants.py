"""Delta invariants, intersection numbers two ways, adjoints, genus."""

import pytest

from planecurves.blowup import resolve_tree
from planecurves.errors import (
    CommonComponent,
    NegativeGenus,
    Reducible,
    UnresolvedTree,
    ZeroPolynomial,
)
from planecurves.invariants import (
    adjoint_check,
    delta_invariant,
    genus,
    intersection_multiplicity,
    intersection_oracle,
)
from planecurves.noether import find_singular_points
from planecurves.poly import MultiPoly, parse_poly

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
