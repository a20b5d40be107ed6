"""Command line behaviour: text formats, JSON schemas, exit codes."""

import ast
import gc
import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import planecurves
from planecurves import cli, fields, poly, schemas
from planecurves.blowup import joint_tree
from planecurves.cli import main
from planecurves.errors import InternalError

from .helpers import aff, patch_everywhere


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestHumanOutput:
    def test_delta(self, capsys):
        code, out, _ = run(capsys, "delta", "y^2-x^4")
        assert code == 0
        assert out.strip() == "delta = 2, sequence = [2,2]"

    def test_resolve(self, capsys):
        code, out, _ = run(capsys, "resolve", "y^2-x^2+x^3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "termination: Resolved"
        assert lines[1] == "r=2  x^3-x^2+y^2"
        assert set(lines[2:4]) == {"  r=1  y^2+x-2*y  (t = -1)", "  r=1  y^2+x+2*y  (t = 1)"}
        assert lines[-1] == "multiplicity sequence: [2]"

    def test_resolve_node_with_a_19_digit_slope(self, capsys):
        # the fiber's rational roots come from a p-adic lift, not from the
        # divisors of 10^18+3
        code, out, _ = run(capsys, "resolve", "(y-1000000000000000003*x)*(y+x)+x^3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "termination: Resolved"
        children = {line.split("(t = ")[1] for line in lines[2:4]}
        assert children == {"-1)", "1000000000000000003)"}
        assert lines[-1] == "multiplicity sequence: [2]"

    def test_intersect(self, capsys):
        code, out, _ = run(capsys, "intersect", "y^2-x^3", "y")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "I = 3 (tree) / 3 (resultant)"
        assert lines[1] == "  depth 0: 2*1"
        assert lines[2] == "  depth 1: 1*1"

    def test_noether_solve(self, capsys):
        code, out, _ = run(capsys, "noether-solve", "X", "Y", "X*Y")
        assert code == 0
        assert out.strip() == "Solved: A = Y, B = 0"

    def test_noether_check(self, capsys):
        code, out, _ = run(capsys, "noether-check", "X", "Y", "X*Y")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point [0 : 0 : 1] (chart Z): ok"
        assert lines[1] == "  depth 0: r_F=1 r_G=1 r_H=2 margin=1"
        assert lines[-1] == "condition holds"

    def test_bezout(self, capsys):
        code, out, _ = run(capsys, "bezout", "Y*Z-X^2", "X+Y-2Z")
        assert code == 0
        lines = out.strip().splitlines()
        assert "point [1 : 1 : 1] (chart Z): I = 1" in lines
        assert lines[-1] == "total = 2, expected = 2"

    def test_genus_prints_a_number(self, capsys):
        code, out, _ = run(capsys, "genus", "Y^2*Z-X^2*Z-X^3")
        assert code == 0
        assert out.strip() == "0"

    def test_adjoint(self, capsys):
        code, out, _ = run(capsys, "adjoint", "y^2-x^4", "y")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "depth 0: r_C=2 r_G=1 margin=0"
        assert lines[1] == "depth 1: r_C=2 r_G=1 margin=0"
        assert lines[-1] == "adjoint condition holds"

    def test_appendix_full_run(self, capsys):
        code, out, _ = run(capsys, "appendix", "y^2+2x^2*y+x^4+x^7", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "stage 1: x^7+x^4+2*x^2*y+y^2"
        assert lines[1] == "stage 2: x^5+y^2  (shift -1)"
        assert lines[2] == "stage 3: x^3+y^2  (shift 0)"
        assert lines[3] == "phi = -x^2"

    def test_appendix_stops_politely(self, capsys):
        code, out, _ = run(capsys, "appendix", "y^2-x^3", "2")
        assert code == 0
        assert "stopped at stage 2:" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "resolve", "y^2-x^3", "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_field_flag(self, capsys):
        code, out, _ = run(capsys, "delta", "y^4-x^8", "--field", "p:5")
        assert code == 0
        assert out.strip() == "delta = 12, sequence = [4,4]"

    def test_seed_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "resolve", "y^2-x^2+x^3", "--seed", "7")
        assert code == 0
        assert "termination: Resolved" in out

    def test_resolve_output_round_trips(self, capsys):
        _, out, _ = run(capsys, "resolve", "y^2-x^3")
        root_eq = out.splitlines()[1].split("r=2  ")[1]
        assert aff(root_eq) == aff("y^2-x^3")


class TestJson:
    def check(self, capsys, schema, *argv):
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        return code, doc

    def test_resolve(self, capsys):
        _, doc = self.check(capsys, schemas.RESOLVE_SCHEMA, "resolve", "y^2-x^3", "--json")
        assert doc["termination"] == "Resolved"

    def test_delta(self, capsys):
        _, doc = self.check(capsys, schemas.DELTA_SCHEMA, "delta", "y^2-x^3", "--json")
        assert doc["delta"] == 1
        assert doc["conductor_degree"] == 2

    def test_genus(self, capsys):
        _, doc = self.check(
            capsys, schemas.GENUS_SCHEMA, "genus", "Y^2*Z-X^3", "--json"
        )
        assert doc["genus"] == 0
        assert doc["deltas"] == [1]

    def test_intersect(self, capsys):
        _, doc = self.check(
            capsys, schemas.INTERSECT_SCHEMA, "intersect", "y^2-x^3", "y^2+x^3", "--json"
        )
        assert doc["agreement"] is True

    def test_adjoint(self, capsys):
        code, doc = self.check(
            capsys, schemas.ADJOINT_SCHEMA, "adjoint", "y^2-x^4", "x", "--json"
        )
        assert code == 2
        assert doc["ok"] is False

    def test_condition(self, capsys):
        _, doc = self.check(
            capsys, schemas.CONDITION_SCHEMA, "noether-check", "X", "Y", "X^2+Y^2", "--json"
        )
        assert doc["ok"] is True

    def test_certificate(self, capsys):
        _, doc = self.check(
            capsys, schemas.CERTIFICATE_SCHEMA, "noether-solve", "X", "Y", "X^2+Y^2", "--json"
        )
        assert doc["status"] == "Solved"
        assert doc["residual"] == "0"

    def test_bezout(self, capsys):
        _, doc = self.check(
            capsys, schemas.BEZOUT_SCHEMA, "bezout", "Y^2*Z-X^3", "X^2*Z-Y^3",
            "--field", "p:11", "--json",
        )
        assert doc["total"] == 9

    def test_appendix(self, capsys):
        _, doc = self.check(
            capsys, schemas.APPENDIX_SCHEMA, "appendix", "y^2+2x^2*y+x^4+x^7", "3", "--json"
        )
        assert doc["failed"] is None
        assert [s["equation"] for s in doc["stages"][1:]] == ["x^5+y^2", "x^3+y^2"]
        assert [s["shift"] for s in doc["stages"]] == [None, "-1", "0"]

    def test_joint_tree_schema_from_api(self):
        jt = joint_tree([aff("y^2-x^3"), aff("y")], witness=True)
        jsonschema.validate(jt.to_json(), schemas.JOINT_TREE_SCHEMA)


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error:" in err

    def test_bad_polynomial(self, capsys):
        code, _, err = run(capsys, "delta", "y^2 - w")
        assert code == 1
        assert "error:" in err

    def test_bad_field_flag(self, capsys):
        code, _, err = run(capsys, "delta", "y^2-x^3", "--field", "r:5")
        assert code == 1

    @pytest.mark.parametrize("field", ["q", "p:7"])
    def test_constant_curve_has_no_genus(self, capsys, field):
        # a constant has every partial zero, but it is not a p-th power
        code, out, err = run(capsys, "genus", "1", "--field", field)
        assert (code, out) == (1, "")
        assert err == "error: curves must have degree at least 1\n"

    def test_not_squarefree_is_domain_error(self, capsys):
        code, _, err = run(capsys, "resolve", "y^2")
        assert code == 1
        assert "error:" in err

    def test_condition_failure_is_two(self, capsys):
        code, out, _ = run(capsys, "noether-check", "X", "Y", "Z")
        assert code == 2
        assert out.strip().endswith("condition fails")

    def test_no_solution_is_two(self, capsys):
        code, out, _ = run(capsys, "noether-solve", "X", "Y", "Z")
        assert code == 2
        assert out.strip() == "NoSolution"

    def test_adjoint_failure_is_two(self, capsys):
        code, out, _ = run(capsys, "adjoint", "y^2-x^4", "x")
        assert code == 2
        assert out.strip().endswith("adjoint condition fails")

    def test_non_rational_point_is_three(self, capsys):
        code, _, err = run(capsys, "resolve", "y^2+x^2+x^3")
        assert code == 3
        assert "retry over a finite field with --field p:N" in err

    # F and G share a pair of conjugate points at depth 2 over Q(sqrt(-1)):
    # the shared pass of the witness tree is what refuses them over Q
    SHARED_CONJUGATES = ("noether-check", "Y^2*Z+X^2*Z+X^3", "Y^2*Z+X^2*Z+X^3+X^2*Y", "X*Y")

    def test_shared_non_rational_point_in_witness_tree_is_three(self, capsys):
        code, out, err = run(capsys, *self.SHARED_CONJUGATES)
        assert code == 3
        assert out == ""
        assert err.splitlines()[0] == "error: non-rational point: t^2+t+1/2"

    def test_shared_conjugates_over_a_finite_field_fail_the_condition(self, capsys):
        code, out, _ = run(capsys, *self.SHARED_CONJUGATES, "--field", "p:7")
        assert code == 2
        assert out.strip().endswith("condition fails")

    def test_depth_cap_on_resolve_is_four_with_output(self, capsys):
        code, out, _ = run(capsys, "resolve", "y^2-x^7", "--max-depth", "1")
        assert code == 4
        assert "termination: DepthCapped" in out

    def test_depth_cap_on_intersect_is_four(self, capsys):
        code, _, err = run(capsys, "intersect", "y^2-x^7", "y", "--max-depth", "1")
        assert code == 4
        assert "error:" in err

    def test_capped_delta_is_four(self, capsys):
        code, _, err = run(capsys, "delta", "y^2-x^7", "--max-depth", "1")
        assert code == 4

    def test_internal_error_is_five(self, capsys, monkeypatch):
        def broken(args, field):
            raise InternalError("Bareiss division must be exact")

        monkeypatch.setitem(cli._COMMANDS, "delta", broken)
        code, _, err = run(capsys, "delta", "y^2-x^3")
        assert code == 5
        assert "Bareiss division must be exact" in err


class TestOneCoprimalityTest:
    """biv_gcd runs at most once per command: callers that have proved
    coprimality grow their trees without testing it again, and bezout and
    noether-check read it off the resultant of find_common_points, with no
    gcd at all."""

    @pytest.fixture
    def gcd_calls(self, monkeypatch):
        calls = []
        original = poly.biv_gcd

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
        return calls

    @pytest.mark.parametrize(
        "argv,points",
        [
            (["intersect", "y^2-x^3", "y^2+x^3"], None),
            (["bezout", "YZ-X^2", "XZ-Y^2", "--field", "p:7"], 4),
            (["bezout", "X^2+Y^2-2Z^2", "X^2-Y^2"], 4),
            (["noether-check", "YZ-X^2", "YZ+X^2", "Y*Z"], 2),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_once_per_command(self, capsys, gcd_calls, argv, points):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if points is not None:
            assert out.count("point [") == points
        assert len(gcd_calls) == (1 if argv[0] == "intersect" else 0)


class TestNoGlobalState:
    # --seed belongs to the subcommand: placed before it, it is a usage error
    @pytest.mark.parametrize(
        "argv,code",
        [(["resolve", "y^2-x^3", "--seed", "7"], 0), (["resolve", "y^2", "--seed", "7"], 1)],
        ids=["success", "error"],
    )
    def test_seed_is_restored(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(fields, "DEFAULT_FACTOR_SEED", 0)
        assert main(argv) == code
        capsys.readouterr()
        assert fields.DEFAULT_FACTOR_SEED == 0


def test_parser_built_once_leaks_nothing_between_calls(capsys):
    # the parser is cached per process: every call must still print what the
    # same argv prints as the first call of a fresh process
    calls = [
        ["resolve", "y^2-x^3", "--json"],
        ["resolve", "y^2-x^3", "--json", "--max-depth"],
        ["noether-check", "X", "Y", "X*Y", "--field", "p:7"],
        ["resolve", "y^2-x^3"],
    ]
    assert cli._build_parser() is cli._build_parser()
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "planecurves", *argv], capture_output=True, text=True
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert run(capsys, *calls[1])[0] == 1


# argvs that a subparser must treat as the top-level parser's hand-off
# does: missing, extra and option-like positionals, unknown, abbreviated
# and repeated flags, "--", bad values and unknown commands
MALFORMED_ARGVS = [
    [],
    ["resolv", "y^2-x^3"],
    ["DELTA", "y^2-x^3"],
    ["--field", "p:5", "delta", "y^2-x^3"],
    ["-h"],
    ["bezout"],
    ["bezout", "X"],
    ["bezout", "-h"],
    ["delta", "y^2-x^3", "extra"],
    ["delta", "y^2-x^3", "--bogus"],
    ["delta", "--", "y^2-x^3"],
    ["delta", "y^2-x^3", "--"],
    ["delta", "-y^2+x^3"],
    ["delta", "--", "-y^2+x^3"],
    ["delta", "-1"],
    ["delta", "y^2-x^3", "--field=p:5"],
    ["delta", "y^2-x^3", "--field"],
    ["delta", "y^2-x^3", "--fi", "p:5"],
    ["delta", "y^2-x^3", "--field", "p:5", "--field", "p:7"],
    ["delta", "y^2-x^3", "--max-depth", "x"],
    ["delta", "y^2-x^3", "--max-depth"],
    ["delta", "y^2-x^3", "--seed", "1.5"],
    ["delta", "y^2-x^3", "--seed=-3"],
    ["delta", "y^2-x^3", "--he"],
    ["delta", ""],
    ["appendix", "y^2-x^3", "two"],
    ["noether-solve", "X", "Y"],
    ["resolve", "y^2-x^3", "--dot", "--json"],
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = ("exit", e.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", MALFORMED_ARGVS, ids=" ".join)
def test_commands_parse_as_through_the_top_level_parser(capsys, monkeypatch, argv):
    got = _outcome(capsys, argv)
    parser, _commands = cli._build_parser()
    # with no command known by name, every argv goes to the top-level parser
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert got == _outcome(capsys, argv)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "planecurves", "delta", "y^2-x^3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "delta = 1, sequence = [2]"


def test_module_entry_point_under_python_OO():
    # -OO strips docstrings, so the parser's description is no docstring
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "planecurves", "delta", "y^2-x^3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "delta = 1, sequence = [2]"


@pytest.mark.parametrize(
    "flag,err",
    [
        ("p:abc", "error: --field must be 'q' or 'p:N', got 'p:abc'"),
        ("p:", "error: --field must be 'q' or 'p:N', got 'p:'"),
        ("p:7.0", "error: --field must be 'q' or 'p:N', got 'p:7.0'"),
        ("p:4", "error: 4 is not prime"),
        ("p:+7", ""),
        ("p: 7", ""),
    ],
)
def test_field_flag_errors(capsys, flag, err):
    code, out, got = run(capsys, "delta", "y^2-x^3", "--field", flag)
    assert (code, got.strip()) == ((1, err) if err else (0, ""))
    assert out == ("" if err else "delta = 1, sequence = [2]\n")


def test_no_assert_statements_in_the_package():
    # exactness checks must survive python -O, so none may be an assert
    src = pathlib.Path(planecurves.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "argv,code,text",
    [
        # a shared component: the certificate cannot settle it, and the
        # exact gcd finds the factor
        (["intersect", "(y-x^2)*(y+x)", "(y-x^2)*(y-x)"], 1, "curves share a component"),
        # coprime over Q: the certificate settles it, and the residual
        # H - A F - B G is still recomputed
        (["noether-solve", "1/2*YZ-X^2", "YZ+3/5*X^2", "Y*Z*X+X^3"], 0, "Solved"),
        # coprime over F_10007: two slices of the inputs themselves settle it
        (
            ["noether-solve", "YZ-X^2", "YZ+3*X^2", "Y*Z*X+X^3", "--field", "p:10007"],
            0,
            "Solved: A = 5004*X, B = 5004*X",
        ),
    ],
    ids=["fallback", "certificate", "certificate-p10007"],
)
def test_gcd_paths_under_python_O(argv, code, text):
    # neither path may rest on an assert, which -O strips
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "planecurves", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert text in proc.stdout + proc.stderr


# deg H = 5 > deg F + deg G = 4, so the system has free columns, and the
# canonical solution (free columns zero) is not the (A, B) that built H
FREE_COLUMNS_H = "1/2*X^5-3/5*X^4*Z-X^3*Y^2-X^3*Y*Z+3/5*X*Y*Z^3+Y^3*Z^2"
WRONG_DIVISOR = (
    "import operator\n"
    "from planecurves.linalg import echelon\n"
    "echelon([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 3, operator.mul, operator.sub,\n"
    "        lambda a, b: divmod(a, 2 * b))\n"
)
# x = 0 from the first row; the second row asks x = p, the same modulo p,
# so only the exact check of every row finds that there is no solution
CONSISTENT_MOD_P = (
    "from planecurves.fields import RationalField\n"
    "from planecurves.linalg import CERT_PRIME, solve_linear\n"
    "print('solution:', solve_linear([[1], [1]], [0, CERT_PRIME], RationalField()))\n"
)


@pytest.mark.parametrize(
    "argv,code,text",
    [
        (["-c", WRONG_DIVISOR], 1, "InternalError: Bareiss division must be exact"),
        (
            ["-m", "planecurves", "noether-solve", "1/2*X^2-Y*Z", "Y^2+3/5*X*Z", FREE_COLUMNS_H],
            0,
            "Solved: A = X^3-3/5*X*Z^2-Y^2*Z, B = -X^3+1/2*X^2*Z",
        ),
        (["-c", CONSISTENT_MOD_P], 0, "solution: None"),
    ],
    ids=["wrong-divisor", "free-columns-q", "exact-row-check"],
)
def test_elimination_under_python_O(argv, code, text):
    # every Bareiss division stays checked when -O strips asserts
    proc = subprocess.run([sys.executable, "-O", *argv], capture_output=True, text=True)
    assert proc.returncode == code
    assert text in proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "y^2-x^5"],
        ["intersect", "y^2-x^3", "y^2+x^3"],
        ["noether-check", "X", "Y", "X*Y"],
        ["delta", "y^2-x^5"],
        ["adjoint", "y^2-x^3", "x"],
        ["bezout", "Y^2*Z-X^3", "Y"],
        ["genus", "Y^2*Z-X^3"],
        pytest.param(
            ["noether-check", "Y^2*Z-X^3", "Y", "Y^2", "--field", "p:7"],
            id="noether-check-p7",
        ),
        pytest.param(["intersect", "y^2-x^3", "y^2+x^3", "--json"], id="intersect-json"),
        # the recursion stops at stage 3 and reports it
        pytest.param(["appendix", "y^2-x^3", "3"], id="appendix-stopped"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_leave_no_reference_cycles(capsys, argv):
    # cyclic garbage waits for the collector, so it raises peak memory
    run(capsys, *argv)  # the first call also builds the process-wide parser
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run(capsys, *argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert code == 0


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text()


@seed(1717)
@settings(max_examples=200, deadline=None, database=None)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )
)
def test_json_writer_matches_json_dumps(obj):
    # escapes, non-ASCII text and empty containers included
    assert cli._json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["bezout", "Y*Z-X^2", "10*X^2+9*X*Y+2*X*Z+3*Y^2+8*Y*Z+4*Z^2", "--field", "p:11"],
        [
            "bezout",
            "Y*Z-X^2",
            "7*X^2*Y+10*X^2*Z+6*X*Y^2+6*X*Y*Z+11*X*Z^2+5*Y^3+7*Y^2*Z+9*Y*Z^2+3*Z^3",
            "--field",
            "p:13",
            "--json",
        ],
        ["genus", "Y^2*Z+X^2*Z-X^3", "--field", "p:7"],
        ["genus", "X^3+Y^3+Z^3", "--field", "p:7", "--json"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_seed_changes_no_result(capsys, argv):
    # each call splits factors of equal degree with random draws, which the
    # seed changes; the factors come back sorted, so the points and the tower
    # they live in stay the same
    want = run(capsys, *argv)
    assert want[0] == 0
    for s in ("1", "7", "12345"):
        assert run(capsys, *argv, "--seed", s) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "y^2-x^3"],
        ["intersect", "y^2-x^3", "y^2-x^5"],
        ["bezout", "Y^2*Z-X^3", "X^2-Y*Z"],
        ["genus", "Y^2*Z-X^3-X*Z^2"],
        ["noether-solve", "X^2-Y*Z", "Y^2-X*Z", "X^3-Y^3"],
        # p = 3 (mod 4), so the tangent directions need F_(p^2)
        ["resolve", "y^2+x^2"],
        # the line X = 0 lies on a curve: the shift off [0:0:1] must not scan
        # every b with a = 0 before it tries a = 1
        ["bezout", "X*Y+Z^2", "X*(Y+Z)"],
        ["genus", "X^2*Y+Y^2*Z+Z^3"],
    ],
    ids=[
        "resolve",
        "intersect",
        "bezout",
        "genus",
        "noether-solve",
        "resolve-extension",
        "bezout-line-on-curve",
        "genus-partial-with-line",
    ],
)
def test_large_prime_field(argv):
    # primality by Miller-Rabin and lazily listed field elements: a
    # regression that grows with p fails here instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "planecurves", *argv, "--field", "p:1000000000000000003"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, want",
    [
        # no pair of F_2 lies off both curves, so the common-point search
        # adjoins a quadratic before it shifts [0 : 0 : 1] away
        (
            ["bezout", "X^2+X*Z", "Y^2+Y*Z", "--field", "p:2"],
            "point [1 : 1 : 1] (chart Z): I = 1\n"
            "point [0 : 0 : 1] (chart Z): I = 1\n"
            "point [0 : 1 : 1] (chart Z): I = 1\n"
            "point [1 : 0 : 1] (chart Z): I = 1\n"
            "total = 4, expected = 4\n",
        ),
        # the component Z = 0 meets the conic where X^2 + Y^2 splits, over z1
        (
            ["bezout", "Z*(X-Y)", "X^2+Y^2-Z^2", "--field", "p:3"],
            "point [1 : 1 : 2*z1] (chart Z): I = 1\n"
            "point [1 : 1 : z1] (chart Z): I = 1\n"
            "point [1 : 2*z1 : 0] (chart Y): I = 1\n"
            "point [1 : z1 : 0] (chart Y): I = 1\n"
            "total = 4, expected = 4\n",
        ),
        (
            ["bezout", "X^2+Y^2-Z^2", "Z*(X-Y)", "--field", "p:3"],
            "point [1 : 1 : 2*z1] (chart Z): I = 1\n"
            "point [1 : 1 : z1] (chart Z): I = 1\n"
            "point [1 : 2*z1 : 0] (chart Y): I = 1\n"
            "point [1 : z1 : 0] (chart Y): I = 1\n"
            "total = 4, expected = 4\n",
        ),
    ],
    ids=["pairs-exhausted-p2", "z-component-first-p3", "z-component-second-p3"],
)
def test_common_point_branches_print_the_same(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")
