"""Common points, the residue condition, the AF+BG solver, Bezout totals."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from planecurves import invariants, noether
from planecurves.blowup import DEFAULT_MAX_DEPTH, _joint_tree, resolve_tree
from planecurves.cli import main
from planecurves.errors import (
    CommonComponent,
    CurveError,
    InternalError,
    NonRationalPoint,
    Reducible,
    ZeroPolynomial,
)
from planecurves.noether import (
    ProjPoint,
    _directions,
    _pair_candidates,
    _z_fiber,
    bezout_check,
    check_condition,
    find_common_points,
    find_singular_points,
    solve_af_bg,
)
from planecurves.fields import (
    PrimeField,
    Scalar,
    UniPoly,
    _joined,
    _power,
    extend_field,
    find_irreducible,
    join_fields,
    roots_with_extension,
    uni_gcd,
)
from planecurves.frobenius import _frobenius
from planecurves.invariants import (
    _genus_and_deltas,
    _intersection_multiplicity,
    _localize,
    _orbit_reps,
    delta_invariant,
)
from planecurves.linalg import solve_linear
from planecurves.poly import (
    PROJECTIVE,
    MultiPoly,
    _first_fit,
    add_multiples,
    dehomogenize,
    parse_poly,
    resultant_biv,
)

from .helpers import F2, F3, F5, F7, F9, F11, QQ, corpus, field_by_name, hom

DATA = corpus()


def qpt(a, b, c):
    return ProjPoint((QQ.scalar(a), QQ.scalar(b), QQ.scalar(c)))


class TestProjPoint:
    def test_scaling_is_quotiented_away(self):
        assert qpt(2, 2, 2) == qpt(1, 1, 1)
        assert qpt(0, 3, 6) == qpt(0, 1, 2)

    def test_first_nonzero_coordinate_is_one(self):
        assert qpt(0, 3, 6).coords == (QQ.zero(), QQ.one(), QQ.scalar(2))

    def test_distinct_points_differ(self):
        assert qpt(1, 0, 0) != qpt(0, 1, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            qpt(0, 0, 0)

    def test_cross_field_comparison_is_false(self):
        p5 = ProjPoint((F5.one(), F5.one(), F5.one()))
        assert (qpt(1, 1, 1) == p5) is False


class TestCommonPoints:
    def test_two_lines(self):
        assert find_common_points(hom("X"), hom("Y")) == [qpt(0, 0, 1)]

    def test_cusp_against_tangent_line(self):
        assert find_common_points(hom("Y^2*Z-X^3"), hom("Y")) == [qpt(0, 0, 1)]

    def test_point_at_infinity(self):
        assert find_common_points(hom("Y^2*Z-X^3"), hom("Z")) == [qpt(0, 1, 0)]

    def test_conic_against_secant_line(self):
        pts = find_common_points(hom("X^2+Y^2-2Z^2"), hom("X-Z"))
        assert len(pts) == 2
        assert qpt(1, 1, 1) in pts and qpt(1, -1, 1) in pts

    def test_two_conics_over_f7(self):
        F = parse_poly("Y*Z-X^2", F7, space="homogeneous")
        G = parse_poly("X*Z-Y^2", F7, space="homogeneous")
        pts = find_common_points(F, G)
        assert len(pts) == 4
        two, four = F7.scalar(2), F7.scalar(4)
        assert ProjPoint((two, four, F7.one())) in pts

    def test_irrational_intersection_is_refused_over_q(self):
        with pytest.raises(NonRationalPoint):
            find_common_points(hom("Y*Z-X^2"), hom("X*Z-Y^2"))


class TestSingularPoints:
    def test_nodal_and_cuspidal_cubics(self):
        assert find_singular_points(hom("Y^2*Z-X^2*Z-X^3")) == [qpt(0, 0, 1)]
        assert find_singular_points(hom("Y^2*Z-X^3")) == [qpt(0, 0, 1)]

    def test_smooth_curves_have_none(self):
        assert find_singular_points(hom("X^3+Y^3+Z^3")) == []
        assert find_singular_points(hom("X^2+Y^2-2Z^2")) == []

    def test_line_short_circuits(self):
        assert find_singular_points(hom("X+Y-2Z")) == []

    def test_three_lines_share_pairwise_components(self):
        with pytest.raises(CommonComponent):
            find_singular_points(hom("X*Y*Z"))

    def test_pth_power_is_flagged_reducible(self):
        F = parse_poly("X^5+Y^5", F5, space="homogeneous")
        with pytest.raises(Reducible):
            find_singular_points(F)


class TestCondition:
    @pytest.mark.parametrize(
        "entry",
        DATA["noether_triples"],
        ids=lambda e: f"{e['F']};{e['G']};{e['H']};{e['field']}",
    )
    def test_corpus_verdicts(self, entry):
        fld = field_by_name(entry["field"])
        F = parse_poly(entry["F"], fld, space="homogeneous")
        G = parse_poly(entry["G"], fld, space="homogeneous")
        H = parse_poly(entry["H"], fld, space="homogeneous")
        assert check_condition(F, G, H).ok is entry["condition"]

    def test_failure_depth_is_located(self):
        rep = check_condition(hom("X"), hom("Y"), hom("Z"))
        assert not rep.ok
        (pc,) = rep.points
        assert pc.failure_depth == 0
        assert pc.entries[0][4] == -1  # margin 0 - (1 + 1 - 1)

    def test_margins_at_a_cusp(self):
        rep = check_condition(hom("Y^2*Z-X^3"), hom("Y"), hom("X*Y"))
        assert rep.ok
        (pc,) = rep.points
        by_depth = {d: (rf, rg, rh) for d, rf, rg, rh, _ in pc.entries}
        assert by_depth[0] == (2, 1, 2)

    def test_common_component_rejected(self):
        with pytest.raises(CommonComponent):
            check_condition(hom("X*Y"), hom("X*Z"), hom("Z^2"))

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            check_condition(hom("X^2+Y"), hom("Y"), hom("Z^2"))


class TestSolver:
    @pytest.mark.parametrize(
        "entry",
        DATA["noether_triples"],
        ids=lambda e: f"{e['F']};{e['G']};{e['H']};{e['field']}",
    )
    def test_corpus_statuses(self, entry):
        fld = field_by_name(entry["field"])
        F = parse_poly(entry["F"], fld, space="homogeneous")
        G = parse_poly(entry["G"], fld, space="homogeneous")
        H = parse_poly(entry["H"], fld, space="homogeneous")
        cert = solve_af_bg(F, G, H)
        assert cert.status == entry["status"]
        if cert.status == "Solved":
            # recombine outside the solver, term by term
            assert (H - cert.A * F - cert.B * G).is_zero()
            e, c, d = H.total_degree(), F.total_degree(), G.total_degree()
            if not cert.A.is_zero():
                assert cert.A.total_degree() == e - c
            if not cert.B.is_zero():
                assert cert.B.total_degree() == e - d

    def test_free_column_steers_the_syzygy(self):
        F, G, H = hom("X"), hom("Y"), hom("X^2+Y^2")
        cert = solve_af_bg(F, G, H, free_values={3: QQ.scalar(5)})
        assert cert.status == "Solved"
        assert str(cert.A) == "X-5*Y"
        assert str(cert.B) == "5*X+Y"

    def test_degree_too_small_is_no_solution(self):
        cert = solve_af_bg(hom("X^2"), hom("Y^2"), hom("Z"))
        assert cert.status == "NoSolution"

    def test_zero_cofactor_allowed(self):
        cert = solve_af_bg(hom("Y^2*Z-X^3"), hom("Y"), hom("Y*Z"))
        assert cert.status == "Solved"
        assert cert.A.is_zero()
        assert str(cert.B) == "Z"

    def test_verdict_survives_a_translation(self):
        # move the cusp from [0:0:1] to [-1:0:1] by X -> X+Z
        before = check_condition(hom("Y^2*Z-X^3"), hom("Y"), hom("X*Y"))
        after = check_condition(
            hom("Y^2*Z-(X+Z)^3"), hom("Y"), hom("(X+Z)*Y")
        )
        assert before.ok is after.ok is True
        assert solve_af_bg(hom("Y^2*Z-(X+Z)^3"), hom("Y"), hom("(X+Z)*Y")).status == "Solved"

    def test_verdict_survives_swapping_axes(self):
        assert check_condition(hom("Y"), hom("X"), hom("Y*X")).ok
        assert solve_af_bg(hom("Y"), hom("X"), hom("Y*X")).status == "Solved"

    def test_common_component_rejected(self):
        with pytest.raises(CommonComponent):
            solve_af_bg(hom("X*Y"), hom("X*Z"), hom("Z^2"))

    def test_zero_curve_rejected(self):
        with pytest.raises(ZeroPolynomial):
            solve_af_bg(hom("X"), hom("Y"), MultiPoly.zero(QQ, PROJECTIVE))

    def test_affine_input_rejected(self):
        with pytest.raises(ValueError):
            solve_af_bg(hom("X"), hom("Y"), parse_poly("x*y", QQ, space="affine"))


class TestBezout:
    @pytest.mark.parametrize(
        "entry",
        DATA["bezout_pairs"],
        ids=lambda e: f"{e['F']};{e['G']};{e['field']}",
    )
    def test_corpus_totals(self, entry):
        fld = field_by_name(entry["field"])
        F = parse_poly(entry["F"], fld, space="homogeneous")
        G = parse_poly(entry["G"], fld, space="homogeneous")
        rep = bezout_check(F, G)
        assert rep.total == entry["total"]
        assert rep.expected == F.total_degree() * G.total_degree()
        assert rep.ok

    def test_entries_carry_local_reports(self):
        rep = bezout_check(hom("Y*Z-X^2"), hom("X+Y-2Z"))
        assert sorted(r.noether_sum for _, _, r in rep.entries) == [1, 1]

    def test_common_component_rejected(self):
        with pytest.raises(CommonComponent):
            bezout_check(hom("X*Y"), hom("Y*Z"))

    # the common points need a degree-8 extension of F_101, and a two-level
    # tower over F_5
    @pytest.mark.parametrize("field", ["p:101", "p:5"])
    def test_cubic_pair_over_an_extension_tower(self, capsys, field):
        code = main(["bezout", "Y^2*Z-X^3-X*Z^2", "X^3+Y^3+Z^3", "--field", field])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "total = 9, expected = 9" in out


def _per_cell_system(F, G, H):
    """The AF+BG system as solve_af_bg built it before it filled columns
    from the terms of F and G: one entry per (target, monomial) cell."""
    fld = join_fields(join_fields(F.field, G.field), H.field)
    F, G, H = F.map_field(fld), G.map_field(fld), H.map_field(fld)
    c, d, e = F.total_degree(), G.total_degree(), H.total_degree()
    mons_A = noether._monomials(e - c) if e >= c else []
    mons_B = noether._monomials(e - d) if e >= d else []
    targets = noether._monomials(e)

    def entry(P, target, mon):
        diff = tuple(t - u for t, u in zip(target, mon))
        if any(x < 0 for x in diff):
            return fld.zero()
        return P.coeff(diff)

    rows = [
        [entry(F, t, u) for u in mons_A] + [entry(G, t, v) for v in mons_B]
        for t in targets
    ]
    rhs = [H.coeff(t) for t in targets]
    return fld, rows, rhs, mons_A, mons_B


def _solve_per_cell(F, G, H, free_values):
    fld, rows, rhs, mons_A, mons_B = _per_cell_system(F, G, H)
    if not mons_A and not mons_B:
        return ("NoSolution",)
    sol = solve_linear(rows, rhs, fld, free_values=free_values)
    if sol is None:
        return ("NoSolution",)
    nA = len(mons_A)
    A = MultiPoly(fld, PROJECTIVE, dict(zip(mons_A, sol[:nA])))
    B = MultiPoly(fld, PROJECTIVE, dict(zip(mons_B, sol[nA:])))
    return ("Solved", str(A), str(B))


SOLVER_FIELDS = {"Q": QQ, "F7": F7, "F9": F9()}


def _scalars(field):
    if field is QQ:
        ints = st.integers(-4, 4)
        return st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 3))).map(QQ.scalar)
    return st.sampled_from(list(field.elements()))


@st.composite
def _forms(draw, field, deg):
    mons = noether._monomials(deg)
    coeffs = draw(st.lists(_scalars(field), min_size=len(mons), max_size=len(mons)))
    return MultiPoly(field, PROJECTIVE, dict(zip(mons, coeffs)))


@pytest.mark.parametrize("name", sorted(SOLVER_FIELDS))
def test_solver_matrix_agrees_with_the_per_cell_matrix(monkeypatch, name):
    field = SOLVER_FIELDS[name]
    seen = dict.fromkeys(["Solved", "NoSolution", "pinned"], 0)
    systems = []

    def spy(rows, rhs, fld, free_values=None):
        systems.append((rows, rhs))
        return solve_linear(rows, rhs, fld, free_values=free_values)

    monkeypatch.setattr(noether, "solve_linear", spy)

    @seed(2002)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        c, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        e = data.draw(st.integers(1, c + d + 1))
        F, G = data.draw(_forms(field, c)), data.draw(_forms(field, d))
        H = data.draw(_forms(field, e))
        if data.draw(st.booleans()):
            # H in the ideal, perturbed or not
            A = data.draw(_forms(field, e - c)) if e >= c else MultiPoly.zero(field, PROJECTIVE)
            B = data.draw(_forms(field, e - d)) if e >= d else MultiPoly.zero(field, PROJECTIVE)
            H = A * F + B * G + (H if data.draw(st.booleans()) else 0)
        if F.total_degree() != c or G.total_degree() != d or H.total_degree() != e:
            return
        ncols = sum(len(noether._monomials(e - k)) for k in (c, d) if e >= k)
        pinned = data.draw(
            st.dictionaries(st.integers(0, max(ncols - 1, 0)), _scalars(field), max_size=3)
        )
        systems.clear()
        try:
            cert = solve_af_bg(F, G, H, free_values=pinned)
        except CommonComponent:
            return
        want = _solve_per_cell(F, G, H, pinned)
        got = (cert.status,) if cert.A is None else (cert.status, str(cert.A), str(cert.B))
        assert got == want
        if systems:
            (rows, rhs), (_, want_rows, want_rhs, _, _) = systems[0], _per_cell_system(F, G, H)
            assert rows == want_rows and rhs == want_rhs
        seen[cert.status] += 1
        seen["pinned"] += bool(pinned) and cert.status == "Solved"

    check()
    assert all(seen.values()), seen


def test_solver_builds_no_scalar_per_zero_cell(monkeypatch):
    F, G = hom("X^3+Y^3+Z^3"), hom("X*Y*Z+Y^3")
    H = hom("X^5+Y*Z^4") * F + hom("Y^3*Z^2") * G
    init, built, at_solve = Scalar.__init__, [], []
    check_coprime, systems = noether._assert_coprime_forms, []

    def counting(self, *a):
        built.append(1)
        init(self, *a)

    def coprime_then_count(*a):
        check_coprime(*a)
        built.clear()

    def spy(rows, rhs, fld, free_values=None):
        at_solve.append(len(built))
        systems.append(rows)
        return solve_linear(rows, rhs, fld, free_values=free_values)

    monkeypatch.setattr(Scalar, "__init__", counting)
    monkeypatch.setattr(noether, "_assert_coprime_forms", coprime_then_count)
    monkeypatch.setattr(noether, "solve_linear", spy)
    assert solve_af_bg(F, G, H).status == "Solved"
    zero_cells = sum(not s for row in systems[0] for s in row)
    # one Scalar per term of F, G and H and one shared zero
    assert at_solve == [len(F.values) + len(G.values) + len(H.values) + 1]
    assert zero_cells > 10 * at_solve[0]


@pytest.mark.parametrize("field", [F5, F7, F11], ids=str)
def test_the_condition_implies_a_solution(field):
    # Max Noether's AF+BG theorem: r_H >= r_F + r_G - 1 at every infinitely
    # near point of F and G makes H = A*F + B*G.  The condition is only
    # sufficient, so a solved H that fails it proves nothing.
    held = []

    @seed(1888)
    @settings(max_examples=70, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        c, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        e = data.draw(st.integers(max(c, d), c + d))
        F, G = data.draw(_forms(field, c)), data.draw(_forms(field, d))
        H = data.draw(_forms(field, e))
        if data.draw(st.booleans()):
            # H in the ideal, perturbed or not
            A, B = data.draw(_forms(field, e - c)), data.draw(_forms(field, e - d))
            H = A * F + B * G + (H if data.draw(st.booleans()) else 0)
        if H.is_zero() or not H.is_homogeneous():
            return
        try:
            report = check_condition(F, G, H)
        except InternalError:
            raise
        except CurveError:
            return
        if report.ok:
            held.append(H)
            assert solve_af_bg(F, G, H).status == "Solved"

    check()
    assert held


# ---------------------------------------------------------------------------
# one local computation per Frobenius orbit
# ---------------------------------------------------------------------------


def _bezout_per_point(F, G, max_depth=DEFAULT_MAX_DEPTH):
    """bezout_check computing every common point, kept as the reference."""
    if F.is_zero() or G.is_zero():
        raise ZeroPolynomial("Bezout with the zero curve")
    _, (F, G) = _joined(F, G)
    entries = []
    total = 0
    for p in find_common_points(F, G):
        fL, chart = _localize(F, p.coords)
        gL, _ = _localize(G, p.coords)
        rep = _intersection_multiplicity(fL, gL, max_depth)
        entries.append((p, chart, rep))
        total += rep.noether_sum
    return noether.BezoutReport(total, F.total_degree() * G.total_degree(), entries)


def _condition_per_point(F, G, H, max_depth=DEFAULT_MAX_DEPTH):
    """check_condition computing every common point, kept as the reference."""
    for P in (F, G, H):
        if P.is_zero():
            raise ZeroPolynomial("check_condition needs nonzero curves")
    _, (F, G, H) = _joined(F, G, H)
    points = []
    for p in find_common_points(F, G):
        fL, chart = _localize(F, p.coords)
        gL, _ = _localize(G, p.coords)
        hL, _ = _localize(H, p.coords)
        jt = _joint_tree([fL, gL, hL], max_depth, ("F", "G", "H"), witness=True)
        entries = []
        failure_depth = None
        for node in jt.nodes():
            rf, rg, rh = node.rs
            margin = rh - (rf + rg - 1)
            entries.append((node.depth, rf, rg, rh, margin))
            if margin < 0 and failure_depth is None:
                failure_depth = node.depth
        ok = failure_depth is None
        points.append(noether.PointCondition(p, chart, ok, entries, failure_depth))
    return noether.ConditionReport(all(pc.ok for pc in points), points)


def _agrees_with_reference(live, reference):
    """Same JSON as the reference, or the same error class."""
    try:
        want = reference().to_json()
    except CurveError as err:
        with pytest.raises(type(err)):
            live()
        return
    assert live().to_json() == want


def _spy_orderless(monkeypatch):
    """Count the copies (True) and recomputations (False) at later conjugates."""
    taken = {True: 0, False: 0}
    orderless = noether._orderless

    def spy(rows):
        taken[orderless(rows)] += 1
        return orderless(rows)

    monkeypatch.setattr(noether, "_orderless", spy)
    return taken


ORBIT_FIELDS = {"F2": F2, "F3": F3, "F5": F5, "F7": F7, "F9": F9()}


@pytest.mark.parametrize("name", sorted(ORBIT_FIELDS))
def test_orbit_reuse_matches_the_per_point_loop(monkeypatch, name):
    field = ORBIT_FIELDS[name]
    taken = _spy_orderless(monkeypatch)

    @seed(2323)
    @settings(max_examples=12, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        c, d = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        F, G = data.draw(_forms(field, c)), data.draw(_forms(field, d))
        H = data.draw(_forms(field, data.draw(st.integers(1, c + d))))
        _agrees_with_reference(lambda: bezout_check(F, G), lambda: _bezout_per_point(F, G))
        _agrees_with_reference(
            lambda: check_condition(F, G, H), lambda: _condition_per_point(F, G, H)
        )

    check()
    # check_condition asks no copy; bezout_check's recomputations have a
    # test of their own below
    assert taken[True], taken


# C and D each hold a cusp at the conjugate pair [+-i : 0 : 1] over F_49,
# tangent to the conic that is the other's second factor; C's conic factor
# is squared, so at each conjugate one depth-1 point has r_C = 2 and the
# other r_C = 1: two rows at one depth, in an order of their own
TWO_ROWS_C = "((Y*Z-X^2-Z^2)^2*Z^2-(X^2+Z^2)^3)*(Y*Z+X^2+Z^2)^2"
TWO_ROWS_D = "((Y*Z+X^2+Z^2)^2*Z^2-(X^2+Z^2)^3)*(Y*Z-X^2-Z^2)"


def test_a_conjugate_with_two_rows_at_one_depth_is_computed_again(monkeypatch):
    C, D = hom(TWO_ROWS_C, F7), hom(TWO_ROWS_D, F7)
    taken = _spy_orderless(monkeypatch)
    report = bezout_check(C, D)
    assert report.to_json() == _bezout_per_point(C, D).to_json()
    assert report.total == report.expected == 80
    assert taken[False] >= 1, taken
    # the recomputed conjugates list their depth-1 rows in the other order
    rows = {str(p): [c for c in rep.contributions if c[0] == 1] for p, _, rep in report.entries}
    assert rows["[1 : 0 : 5*z1]"] == rows["[1 : 0 : 2*z1]"][::-1] != rows["[1 : 0 : 2*z1]"]


ORDERLESS_FIELDS = {"F2": F2, "F3": F3, "F5": F5, "F7": F7, "F11": F11}


@pytest.mark.parametrize("name", sorted(ORDERLESS_FIELDS))
def test_no_residue_condition_report_is_orderless(name):
    # a witness tree always ends in a node whose children split F from G,
    # so no conjugate of a check_condition point could share its rows
    field, points = ORDERLESS_FIELDS[name], []

    @seed(3030)
    @settings(max_examples=15, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        c, d = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        F, G = data.draw(_forms(field, c)), data.draw(_forms(field, d))
        H = data.draw(_forms(field, data.draw(st.integers(1, c + d))))
        try:
            report = check_condition(F, G, H)
        except InternalError:
            raise
        except CurveError:
            return
        for pc in report.points:
            assert not noether._orderless(pc.entries), (F, G, H, pc.entries)
        points.extend(report.points)

    check()
    assert points


@pytest.mark.parametrize("p, degrees", [(2, (2, 3)), (3, (2, 2)), (5, (3,)), (7, (2,))])
def test_frobenius_by_levels_is_the_qth_power(p, degrees):
    field, levels = ORBIT_FIELDS[f"F{p}"], []
    for d in degrees:
        levels.append(field)
        field = extend_field(field, find_irreducible(field, d))
    for base in levels:
        frobenius, q = _frobenius(field, base), base.order()
        for s in field.elements():
            assert frobenius(s.value) == _power(field.mul, field.raw_one, s.value, q)


# a cubic pair over F_3 whose Frobenius orbits span two tower levels
SPLIT_LEVELS = ("X^3+2*X^2*Y+2*X^2*Z+2*X*Z^2+Y^3+Y*Z^2+Z^3", "2*X^3+2*X*Y*Z+2*Y^3")


def test_conjugates_on_different_levels_keep_their_own_field(monkeypatch):
    F, G = (hom(t, F3) for t in SPLIT_LEVELS)
    points = find_common_points(F, G)
    reps = _orbit_reps([p.coords for p in points], F3, complete=True)
    assert any(
        points[i].field != points[j].field for j, i in enumerate(reps) if i < j
    )
    taken = _spy_orderless(monkeypatch)
    assert bezout_check(F, G).to_json() == _bezout_per_point(F, G).to_json()
    H = hom("X^2*Z+Y^3", F3)
    assert check_condition(F, G, H).to_json() == _condition_per_point(F, G, H).to_json()
    assert taken[True] == len(points) - len(set(reps))


def test_two_rows_at_one_depth_are_computed_again(monkeypatch):
    # F and G meet at [0 : 1 : 0] and at the conjugate pair [+-i : -1 : 1]
    # over F_49; each witness tree has one child for F and one for G
    F, G, H = hom("Y*Z-X^2", F7), hom("X^2+Z^2", F7), hom("Y^2+X*Z", F7)
    taken = _spy_orderless(monkeypatch)
    report = check_condition(F, G, H)
    assert report.to_json() == _condition_per_point(F, G, H).to_json()
    # check_condition computes every point and asks no copy
    assert taken == {True: 0, False: 0}
    depth1 = [e for e in report.points[-1].entries if e[0] == 1]
    assert len(set(depth1)) == 2


def test_a_missing_conjugate_is_an_internal_error(monkeypatch):
    F, G, H = hom("Y*Z-X^2", F7), hom("X^2+Z^2", F7), hom("Y^2+X*Z", F7)
    points = find_common_points(F, G)
    reps = _orbit_reps([p.coords for p in points], F7, complete=True)
    conjugate = next(j for j, i in enumerate(reps) if i < j)
    partial = points[:conjugate] + points[conjugate + 1:]
    monkeypatch.setattr(noether, "find_common_points", lambda *a: partial)
    with pytest.raises(InternalError):
        bezout_check(F, G)
    with pytest.raises(InternalError):
        check_condition(F, G, H)


# a reducible factor in _split_factors, and a check_condition point list
# with a conjugate missing
ORBIT_CHECKS = (
    "from planecurves import noether\n"
    "from planecurves.errors import InternalError\n"
    "from planecurves.fields import PrimeField, UniPoly, _split_factors\n"
    "from planecurves.invariants import _orbit_reps\n"
    "from planecurves.poly import parse_poly\n"
    "F5, F7 = PrimeField(5), PrimeField(7)\n"
    "try:\n"
    "    _split_factors(F5, [(UniPoly(F5, (1, 0, 1)), 1)])\n"
    "except InternalError as e:\n"
    "    print('split:', e)\n"
    "F, G, H = (parse_poly(t, F7, 'homogeneous') for t in ('Y*Z-X^2', 'X^2+Z^2', 'Y^2+X*Z'))\n"
    "points = noether.find_common_points(F, G)\n"
    "reps = _orbit_reps([p.coords for p in points], F7)\n"
    "j = next(j for j, i in enumerate(reps) if i < j)\n"
    "noether.find_common_points = lambda *a: points[:j] + points[j + 1:]\n"
    "try:\n"
    "    noether.check_condition(F, G, H)\n"
    "except InternalError as e:\n"
    "    print('orbit:', e)\n"
)


def test_orbit_checks_under_python_O():
    # neither check may rest on an assert, which -O strips
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ORBIT_CHECKS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "split: Frobenius orbit of z1 does not close at 2",
        "orbit: a conjugate of point 0 is missing from the point list",
    ]


def test_conjugate_singular_points_share_one_resolution(monkeypatch):
    # y^2 = x*(x^2+1)^2 over F_7: nodes at the conjugate pair x = +-i, y = 0,
    # and a triple point at [0 : 1 : 0]
    F = hom("Y^2*Z^3-X*(X^2+Z^2)^2", F7)
    points = find_singular_points(F)
    want = [
        delta_invariant(resolve_tree(_localize(F, p.coords)[0])).delta for p in points
    ]
    trees = []

    def counting(*a, **k):
        trees.append(1)
        return resolve_tree(*a, **k)

    monkeypatch.setattr(invariants, "resolve_tree", counting)
    assert _genus_and_deltas(F, points, True, DEFAULT_MAX_DEPTH) == (0, want)
    assert want == [1, 1, 4] and len(trees) == 2
    # a list without the first conjugate computes the second: no earlier conjugate
    trees.clear()
    assert _genus_and_deltas(F, points[1:], True, DEFAULT_MAX_DEPTH) == (1, [1, 4])
    assert len(trees) == 2


def test_points_from_two_towers_are_each_computed():
    # the conjugate nodes [1 : 0 : +-i] given over two different copies of
    # F_49 share no tower, so neither can reuse the other's delta
    F = hom("Y^2*Z^3-X*(X^2+Z^2)^2", F7)
    points = []
    for c0, c1 in ((1, 0), (3, 1)):  # t^2 + 1 and t^2 + t + 3
        K = extend_field(F7, UniPoly(F7, [F7.scalar(c0), F7.scalar(c1), F7.one()]))
        i = next(s for s in K.elements() if s * s == -K.one())
        points.append((K.one(), K.zero(), i if not points else -i))
    assert _orbit_reps(points, F7) == [0, 1]
    assert _genus_and_deltas(F, points, True, DEFAULT_MAX_DEPTH) == (4, [1, 1])


def _core_per_direction(F, G, fld, add):
    """noether._common_points_core as it was before orbits of directions:
    every direction computes its own fibers, their gcd and its roots; kept
    as the reference."""
    n, m = F.total_degree(), G.total_degree()
    one = fld.one()

    def off_both(ab):
        point = {"X": ab[0], "Y": ab[1], "Z": one}
        return not F.evaluate(point).is_zero() and not G.evaluate(point).is_zero()

    (a, b), fld = _first_fit(fld, lambda k: _pair_candidates(k, (F, G)), off_both)
    Fp, Gp = (add_multiples(P, (0, a, 2), (1, b, 2)) for P in (F, G))
    Ft, Gt = (dehomogenize(P, "X").rename(("t", "Z")) for P in (Fp, Gp))
    R1 = resultant_biv(Ft, Gt, main="Z")
    if R1.is_zero():
        raise CommonComponent("curves share a component")
    directions, fld = _directions(R1, n * m, fld)
    for x0, y0 in directions:
        h = uni_gcd(_z_fiber(Fp, x0, y0), _z_fiber(Gp, x0, y0))
        fld, roots = roots_with_extension(h.map_field(fld))
        for z0, _ in roots:
            add((x0 + a * z0, y0 + b * z0, z0))
    return fld


def _points_json(F, G):
    return [p.to_json() for p in find_common_points(F, G)]


def _per_direction_json(monkeypatch, F, G):
    with monkeypatch.context() as m:
        m.setattr(noether, "_common_points_core", _core_per_direction)
        return _points_json(F, G)


def _spy_fibers(monkeypatch):
    """Count the fiber gcds, and keep (base, directions) of each _directions call."""
    seen = {"gcds": 0, "directions": []}
    gcd, directions = noether.uni_gcd, noether._directions

    def gcd_spy(*args):
        seen["gcds"] += 1
        return gcd(*args)

    def directions_spy(u, deg, fld):
        out = directions(u, deg, fld)
        seen["directions"].append((fld, out[0]))
        return out

    monkeypatch.setattr(noether, "uni_gcd", gcd_spy)
    monkeypatch.setattr(noether, "_directions", directions_spy)
    return seen


def _orbits(base, directions):
    """The Frobenius orbits over base of the directions [x : y], by text."""
    q, orbits = base.order(), set()
    for x0, y0 in directions:
        orbit, y = {(str(x0), str(y0))}, y0 ** q
        while y != y0:
            orbit.add((str(x0), str(y)))
            y = y ** q
        orbits.add(frozenset(orbit))
    return orbits


def _one_fiber_per_orbit(monkeypatch, F, G):
    """find_common_points against the per-direction loop; returns the number
    of directions and of fiber gcds, which must be one per orbit."""
    want = _per_direction_json(monkeypatch, F, G)
    with monkeypatch.context() as m:
        seen = _spy_fibers(m)
        assert _points_json(F, G) == want
    if not seen["gcds"]:
        return 0, 0
    # the core's _directions runs first; the line Z = 0 may add a second
    base, directions = seen["directions"][0]
    assert seen["gcds"] == len(_orbits(base, directions))
    return len(directions), seen["gcds"]


COMMON_POINT_FIELDS = {
    "F2": F2, "F3": F3, "F4": extend_field(F2, find_irreducible(F2, 2)), "F5": F5, "F7": F7,
    "F9": F9(), "F11": F11, "F13": PrimeField(13),
}


@pytest.mark.parametrize("name", COMMON_POINT_FIELDS)
def test_one_fiber_per_orbit_matches_the_per_direction_loop(monkeypatch, name):
    field = COMMON_POINT_FIELDS[name]
    totals = [0, 0]

    @seed(2626)
    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        F = data.draw(_forms(field, data.draw(st.integers(1, 3))))
        G = data.draw(_forms(field, data.draw(st.integers(1, 3))))
        assume(not F.is_zero() and not G.is_zero())
        try:
            want = _per_direction_json(monkeypatch, F, G)
        except CurveError as err:
            with pytest.raises(type(err)):
                find_common_points(F, G)
            return
        for i, k in enumerate(_one_fiber_per_orbit(monkeypatch, F, G)):
            totals[i] += k
        assert _points_json(F, G) == want

    check()
    # some direction was a conjugate, and took no fiber gcd
    assert totals[0] > totals[1] > 0, totals


@pytest.mark.parametrize(
    "F, G, field, base, adjoins",
    [
        # the directions lie in F_4, and the fiber over a representative
        # adjoins a level above it, where its conjugate's roots are mapped
        ("X*Y+Z^2", "X*Z^2+X^3+X*Y^2+Y^2*Z", F2, "F2", True),
        # every point of F_2^2 lies on X*(X+Z), so _first_fit adjoins F_4 and
        # the orbits are those over F_4, of length 3 in F_64, not 6
        ("X^2+X*Z", "X^2*Z^2+Y^3*Z+Y*Z^3", F2, "F2[z1]/(z1^2+z1+1)", False),
        # the points (+-i, +-i*i) meet the conjugate directions y = +-i*x
        # two at a time; Frobenius swaps the two roots of each fiber, so the
        # images are put back in text order
        ("Y^2+2*X^2+Z^2", "X^2+Z^2", F3, "F3", False),
    ],
    ids=["adjoins", "shift over F4", "two roots"],
)
def test_conjugate_directions_map_their_representatives_roots(
    monkeypatch, F, G, field, base, adjoins
):
    F, G = hom(F, field), hom(G, field)
    directions, gcds = _one_fiber_per_orbit(monkeypatch, F, G)
    assert directions > gcds
    seen, fibers, bases = _spy_fibers(monkeypatch), [], set()
    z_fiber, roots, frobenius = noether._z_fiber, noether.roots_with_extension, noether._frobenius

    def fiber_spy(P, x0, y0):
        fibers.append([y0, False])
        return z_fiber(P, x0, y0)

    def roots_spy(h):
        fld, out = roots(h)
        if fibers:
            fibers[-1][1] = fld is not h.field
        return fld, out

    def frobenius_spy(fld, below):
        bases.add(below.describe())
        return frobenius(fld, below)

    monkeypatch.setattr(noether, "_z_fiber", fiber_spy)
    monkeypatch.setattr(noether, "roots_with_extension", roots_spy)
    monkeypatch.setattr(noether, "_frobenius", frobenius_spy)
    find_common_points(F, G)
    K = seen["directions"][0][0]
    assert K.describe() == base and bases == {base}
    assert any(new and y0 ** K.order() != y0 for y0, new in fibers) == adjoins


@pytest.mark.parametrize(
    "F, G, field, message, shift_fields",
    [
        ("(X+Y-Z)*X", "(X+Y-Z)*Y", QQ, "curves share a component", ["Q"]),
        # every point of F_2^2 lies on X*(X+Z): _first_fit adjoins F_4 first
        ("X*(X+Z)", "X*Y+X*Z", F2, "curves share a component", ["F2[z1]/(z1^2+z1+1)"]),
        ("Z*X", "Z*(Y+X)", QQ, "curves share the component Z", []),
    ],
    ids=["Q", "F2", "Z"],
)
def test_a_shared_component_raises_without_a_gcd(
    monkeypatch, F, G, field, message, shift_fields
):
    gcds, shifts = [], []
    first_fit = noether._first_fit

    def spy(*args):
        ab, fld = first_fit(*args)
        shifts.append(fld.describe())
        return ab, fld

    monkeypatch.setattr(noether, "biv_gcd", lambda *a: gcds.append(a))
    monkeypatch.setattr(noether, "_first_fit", spy)
    with pytest.raises(CommonComponent, match=f"^{message}$"):
        find_common_points(hom(F, field), hom(G, field))
    assert gcds == [] and shifts == shift_fields


def test_singular_points_pass_over_a_pair_with_a_shared_component(monkeypatch):
    # F_X = 2*X*Y^2 and F_Y = 2*X^2*Y share X*Y; F_X and F_Z = 4*Z^3 do not
    F = hom("X^2*Y^2+Z^4")
    outcomes = []
    common = noether.find_common_points

    def spy(P, Q):
        try:
            points = common(P, Q)
        except CommonComponent as err:
            outcomes.append(str(err))
            raise
        outcomes.append(len(points))
        return points

    monkeypatch.setattr(noether, "find_common_points", spy)
    assert find_singular_points(F) == [qpt(1, 0, 0), qpt(0, 1, 0)]
    assert outcomes == ["curves share a component", 2]
