"""Blow-up charts, resolution trees, joint trees, the stage recursion."""

import pytest

from planecurves.blowup import (
    appendix_sequence,
    blow_up_chart,
    exceptional_points,
    fiber_poly,
    joint_tree,
    resolve_tree,
    to_dot,
    tracked_resolution,
)
from planecurves.errors import (
    CommonComponent,
    DepthCapExceeded,
    HypothesisFailed,
    NonRationalPoint,
    NotSquarefree,
    NotSuitable,
    ZeroPolynomial,
)
from planecurves.fields import UniPoly
from planecurves.poly import CHART, MultiPoly, parse_poly

from .helpers import F3, QQ, aff, corpus, field_by_name

SINGULAR = corpus()["singularities"]


def chart_vars(field):
    x = MultiPoly.var(field, "x", CHART)
    t = MultiPoly.var(field, "t", CHART)
    return x, t


class TestChart:
    @pytest.mark.parametrize(
        "text", ["y^2-x^3", "y^2-x^4", "y^3-x^5", "y(y-x)(y+x)+x^4", "y^2-x^2+x^3"]
    )
    def test_transform_identity(self, text):
        # F(x, x*t) = x^r * F'(x, t), exactly
        F = aff(text)
        r = F.mult_at_origin()
        Fp = blow_up_chart(F)
        x, t = chart_vars(F.field)
        assert F.substitute({"x": x, "y": x * t}, CHART) == x ** r * Fp

    @pytest.mark.parametrize("text", ["y^2-x^3", "y^3-x^5", "y^2-x^2+x^3"])
    def test_derivative_identity(self, text):
        # F_y(x, x*t) = x^(r-1) * dF'/dt
        F = aff(text)
        r = F.mult_at_origin()
        Fp = blow_up_chart(F)
        x, t = chart_vars(F.field)
        lhs = F.derivative("y").substitute({"x": x, "y": x * t}, CHART)
        assert lhs == x ** (r - 1) * Fp.derivative("t")

    def test_unsuitable_input_rejected(self):
        with pytest.raises(NotSuitable):
            blow_up_chart(aff("x^2 - y^3"))

    def test_center_must_be_on_the_curve(self):
        with pytest.raises(ValueError):
            blow_up_chart(aff("y + 1"))

    def test_fiber_and_exceptional_points(self):
        Fp = blow_up_chart(aff("y^2 - x^2 + x^3"))  # t^2 - 1 + x
        fiber = fiber_poly(Fp)
        assert fiber.degree == 2
        pts = exceptional_points(Fp)
        assert sorted(str(a) for a, _ in pts) == ["-1", "1"]

    def test_fiber_is_the_chart_at_x_0(self):
        x, t = chart_vars(QQ)
        Fp = (t ** 2 - 1) * (x + 1) + x * t ** 3 + 3 * x ** 2
        assert fiber_poly(Fp) == UniPoly(QQ, (-1, 0, 1), "t")
        zero = MultiPoly.zero(QQ, CHART)
        assert fiber_poly(zero).is_zero() and fiber_poly(zero).var == "t"
        with pytest.raises(ZeroPolynomial):
            exceptional_points(zero)


class TestResolveTree:
    @pytest.mark.parametrize("entry", SINGULAR, ids=lambda e: e["name"])
    def test_multiplicity_sequences(self, entry):
        F = parse_poly(entry["poly"], field_by_name(entry["field"]), space="affine")
        tree = resolve_tree(F)
        assert tree.termination == "Resolved"
        assert [r for _, r in tree.multiplicity_sequence()] == entry["sequence"]

    @pytest.mark.parametrize("entry", corpus()["not_squarefree"], ids=lambda e: e["poly"])
    def test_repeated_factors_rejected(self, entry):
        F = parse_poly(entry["poly"], field_by_name(entry["field"]), space="affine")
        with pytest.raises(NotSquarefree):
            resolve_tree(F)

    def test_depth_cap_is_a_flag_not_a_raise(self):
        tree = resolve_tree(aff("y^2 - x^7"), max_depth=1)
        assert tree.termination == "DepthCapped"

    def test_non_rational_direction_over_q(self):
        with pytest.raises(NonRationalPoint):
            resolve_tree(aff("y^2 + x^2 + x^3"))

    def test_finite_field_extends_for_directions(self):
        tree = resolve_tree(aff("y^2 + x^2 + x^3", F3))
        assert tree.termination == "Resolved"
        leaves = [n for n in tree.nodes() if n.depth == 1]
        assert len(leaves) == 2
        assert all(n.field.order() == 9 for n in leaves)

    def test_smooth_children_are_recentered_and_suitable(self):
        tree = resolve_tree(aff("y^2 - x^3"))
        (child,) = tree.root.children
        assert child.r == 1
        assert str(child.shift) == "0"
        # t^2 - x is re-sheared at the smooth child; r is what matters
        assert child.local_eq.mult_at_origin() == 1

    def test_shifts_are_the_fiber_roots(self):
        tree = resolve_tree(aff("y^2 - x^2 + x^3"))
        shifts = sorted(str(c.shift) for c in tree.root.children)
        assert shifts == ["-1", "1"]

    def test_nodes_iteration_is_breadth_first(self):
        tree = resolve_tree(aff("y^2 - x^4"))
        depths = [n.depth for n in tree.nodes()]
        assert depths == sorted(depths)

    def test_dot_rendering_mentions_every_node(self):
        tree = resolve_tree(aff("y^2 - x^4"))
        dot = to_dot(tree)
        for node in tree.nodes():
            assert f"n{node.id}" in dot

    def test_zero_and_off_origin_rejected(self):
        with pytest.raises(ZeroPolynomial):
            resolve_tree(MultiPoly.zero(QQ))
        with pytest.raises(ValueError):
            resolve_tree(aff("y - 1"))


class TestJointTree:
    def test_cusp_against_its_tangent(self):
        jt = joint_tree([aff("y^2-x^3"), aff("y")])
        assert jt.contributions() == [(0, (2, 1)), (1, (1, 1))]
        assert sum(a * b for _, (a, b) in jt.contributions()) == 3

    def test_default_labels(self):
        jt = joint_tree([aff("y^2-x^3"), aff("y")])
        assert jt.labels == ("C", "D")

    def test_common_component_rejected(self):
        with pytest.raises(CommonComponent):
            joint_tree([aff("x*y"), aff("y*(x+y)")])

    def test_drivers_must_pass_through_origin(self):
        with pytest.raises(ValueError):
            joint_tree([aff("y^2-x^3"), aff("y-1")])

    def test_depth_cap_raises(self):
        with pytest.raises(DepthCapExceeded):
            joint_tree([aff("y^2-x^7"), aff("y")], max_depth=2)

    def test_witness_mode_materializes_single_driver_points(self):
        shared = joint_tree([aff("y^2-x^3"), aff("y")])
        witness = joint_tree([aff("y^2-x^3"), aff("y")], witness=True)
        assert len(list(witness.nodes())) > len(list(shared.nodes()))
        assert all(len(n.rs) == 2 for n in witness.nodes())

    def test_third_curve_is_a_passenger(self):
        jt = joint_tree(
            [aff("y^2-x^3"), aff("y"), aff("x*y")], labels=("F", "G", "H")
        )
        # same node set as without H, with H's multiplicity reported
        assert [n.rs[:2] for n in jt.nodes()] == [(2, 1), (1, 1)]
        assert [n.rs[2] for n in jt.nodes()] == [2, 1]


class TestTrackedResolution:
    def test_lead_drives_companion_reports(self):
        tree = tracked_resolution([aff("y^2-x^4"), aff("x")], labels=("C", "G"))
        rs = [n.rs for n in tree.nodes()]
        assert rs[0] == (2, 1)
        assert rs[1] == (2, 0)  # strict transform of x is a unit on the chart
        assert all(r == (1, 0) for r in rs[2:])
        assert len(rs) == 4

    def test_companion_through_the_cusp(self):
        tree = tracked_resolution([aff("y^2-x^3"), aff("y")], labels=("C", "G"))
        assert [n.rs for n in tree.nodes()] == [(2, 1), (1, 1)]

    def test_cap_raises_when_lead_still_singular(self):
        with pytest.raises(DepthCapExceeded):
            tracked_resolution([aff("y^2-x^7"), aff("x")], max_depth=2)

    def test_lead_must_be_squarefree(self):
        with pytest.raises(NotSquarefree):
            tracked_resolution([aff("(y-x^2)^2"), aff("x")])


class TestStageRecursion:
    def test_multiplicity_drop_stops_the_cusp(self):
        with pytest.raises(HypothesisFailed) as err:
            appendix_sequence(aff("y^2-x^3"), 3)
        assert err.value.stage == 2
        assert len(err.value.stages) == 1

    def test_split_tangent_cone_stops_the_tacnode(self):
        with pytest.raises(HypothesisFailed) as err:
            appendix_sequence(aff("y^2-x^4"), 3)
        assert err.value.stage == 2

    def test_one_productive_stage(self):
        # (y - x^2)^2 - x^5 moves to y^2 - x^3 after normalizing a_2 = 1
        with pytest.raises(HypothesisFailed) as err:
            appendix_sequence(aff("(y-x^2)^2 - x^5"), 4)
        e = err.value
        assert e.stage == 3
        assert [i for i, _, _ in e.stages] == [1, 2]
        assert e.stages[1][1] == aff("y^2-x^3")
        assert e.stages[1][2] == QQ.one()
        assert e.phi == aff("x^2")

    def test_smooth_curve_returns_trivially(self):
        stages, phi = appendix_sequence(aff("y - x^2"), 5)
        assert len(stages) == 1
        assert phi.is_zero()

    def test_lowest_form_must_be_a_pure_y_power(self):
        with pytest.raises(ValueError):
            appendix_sequence(aff("y^2 - x^2"), 2)
