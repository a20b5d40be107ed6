"""The four seeded workloads and the checks on every answer.

A workload is a fixed list of CLI calls.  Each call carries its argv, the
exit code it must return and the answer it must print, all fixed before
the program runs: from the frozen golden corpus, or from a construction
whose answer is known in closed form.  The seed changes coefficients,
roots and call order, never the shape of a call, so every seed costs about
the same.  No call passes --seed to the program.
"""

from __future__ import annotations

import json
import os
import re
from math import gcd
from random import Random

import arith

# Inputs that fail today, by (command, polynomial, field).  They stay in
# their workload and count as failed calls; any other failure makes the
# run incorrect.
KNOWN_FAILURES = {
    # _certify_irreducible finds no irreducible fiber when p = 2 mod 3
    ("genus", "X^3+Y^3+Z^3", "p:11"),
    ("genus", "X^3+Y^3+Z^3", "p:101"),
}


class Call:
    """One CLI call: argv, expected exit code, expected answer fields."""

    __slots__ = ("argv", "code", "expect")

    def __init__(self, argv, code=0, **expect):
        self.argv = list(argv)
        self.code = code
        self.expect = expect

    @property
    def command(self):
        return self.argv[0]

    @property
    def field(self):
        return self.argv[self.argv.index("--field") + 1] if "--field" in self.argv else "q"

    @property
    def known_failure(self):
        return (self.command, self.argv[1], self.field) in KNOWN_FAILURES

    def label(self):
        return " ".join(self.argv)


def _cmd(command, polys, field, code=0, as_json=False, **expect):
    argv = [command, *polys]
    if field != "q":
        argv += ["--field", field]
    if as_json:
        argv.append("--json")
    return Call(argv, code, **expect)


def _both_modes(command, polys, field, code=0, **expect):
    return [_cmd(command, polys, field, code, j, **expect) for j in (False, True)]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_PATH = os.path.join("tests", "fixtures", "golden_corpus.json")
APPENDIX_TEXT = [
    "stage 1: x^7+x^4+2*x^2*y+y^2",
    "stage 2: x^5+y^2  (shift -1)",
    "stage 3: x^3+y^2  (shift 0)",
    "phi = -x^2",
]


def corpus(seed, root):
    with open(os.path.join(root, CORPUS_PATH)) as fh:
        c = json.load(fh)
    calls = []
    for s in c["singularities"]:
        calls += _both_modes("resolve", [s["poly"]], s["field"], seq=s["sequence"])
        calls += _both_modes("delta", [s["poly"]], s["field"], seq=s["sequence"], delta=s["delta"])
    for s in c["not_squarefree"]:
        calls += _both_modes("resolve", [s["poly"]], s["field"], code=1)
    for s in c["termination_f5"]:
        calls += _both_modes("resolve", [s["poly"]], s["field"])
    for s in c["intersection_pairs"]:
        calls += _both_modes("intersect", [s["F"], s["G"]], s["field"], I=s["I"])
    for s in c["bezout_pairs"]:
        calls += _both_modes("bezout", [s["F"], s["G"]], s["field"], total=s["total"])
    for s in c["genus_cases"]:
        calls += _both_modes("genus", [s["F"]], s["field"], genus=s["genus"])
    for s in c["noether_triples"]:
        polys = [s["F"], s["G"], s["H"]]
        calls += _both_modes("noether-check", polys, s["field"], 0 if s["condition"] else 2,
                             ok=s["condition"])
        solved = s["status"] == "Solved"
        calls += _both_modes("noether-solve", polys, s["field"], 0 if solved else 2,
                             status=s["status"])
    # the README's appendix example and the adjoint example beside it in the docs
    calls += _both_modes("appendix", ["y^2+2x^2*y+x^4+x^7", "3"], "q", text=APPENDIX_TEXT)
    calls += _both_modes("adjoint", ["y^2-x^4", "y"], "q", ok=True, seq=[2, 2])
    Random(f"corpus:{seed}").shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# local_deep
# ---------------------------------------------------------------------------

# (a, b, c, e): f = y^a - x^b, g = f + x^c y^e with gcd(a, b) = 1, ac + be > ab
DEEP_Q = [(2, 3, 2, 1), (2, 5, 3, 1), (3, 4, 2, 2), (3, 5, 2, 2), (2, 7, 4, 1),
          (3, 7, 3, 2), (2, 9, 5, 1)]
DEEP_FP = [(2, 5, 3, 1), (3, 4, 2, 2), (4, 5, 2, 3), (3, 8, 3, 2), (2, 13, 7, 1)]
DEEP_P = 101
# slopes of the nodes, each drawn within 1% above the value; trial division
# of the tangent roots costs about sqrt(N).  Four alike nodes give the tail
# call a plateau of similar calls to sit on.
NODE_SLOPES = (10**12,) * 4


def branch_sequence(a, b):
    """Multiplicities >= 2 of the branch y^a = x^b, by Euclid's algorithm."""
    a, b = min(a, b), max(a, b)
    seq = []
    while a > 1:
        q, r = divmod(b, a)
        seq += [a] * q
        a, b = r, a
    return seq


def deep_answers(a, b, c, e):
    """I(f, g), delta(f g) and the multiplicity sequence of f g in closed form.

    f is parametrized by (t^a, t^b) and g - f = x^c y^e, so I = ac + be.
    The two branches are equisingular and share their first infinitely near
    points while sum r^2 over the shared points stays within I; each shared
    point has multiplicity 2r on f g, and after they part every point is
    smooth because I > ab.
    """
    I = a * c + b * e
    seq = branch_sequence(a, b)
    fg_seq = [2 * r for r in seq] + [2] * (I - sum(r * r for r in seq))
    return I, (a - 1) * (b - 1) + I, fg_seq


def local_deep(seed, root=None):
    rng = Random(f"local_deep:{seed}")
    calls = []
    for p, ladder in ((0, DEEP_Q), (DEEP_P, DEEP_FP)):
        field = f"p:{p}" if p else "q"
        for a, b, c, e in ladder:
            assert gcd(a, b) == 1 and a * c + b * e > a * b and (not p or (a * b) % p)
            # a scaling x -> lam x, y -> mu y and a tail coefficient w keep
            # every answer; over Q they are signs
            if p:
                lam, mu, w = (rng.randrange(1, p) for _ in range(3))
            else:
                lam, mu, w = (rng.choice((-1, 1)) for _ in range(3))
            f = {(0, a): arith.norm(mu**a, p), (b, 0): arith.norm(-(lam**b), p)}
            g = arith.padd(f, {(c, e): arith.norm(w * lam**c * mu**e, p)}, p)
            fs, gs = arith.fmt(f, ("x", "y")), arith.fmt(g, ("x", "y"))
            fg = f"({fs})*({gs})"
            line = arith.fmt({(1, 0): rng.randrange(1, 10), (0, 1): rng.randrange(1, 10)}, ("x", "y"))
            I, delta, seq = deep_answers(a, b, c, e)
            calls.append(_cmd("intersect", [fs, gs], field, I=I))
            calls.append(_cmd("delta", [fg], field, delta=delta, seq=seq))
            calls.append(_cmd("resolve", [fg], field, seq=seq))
            # a line through a point of multiplicity >= 4 is never adjoint
            calls.append(_cmd("adjoint", [fg, line], field, 2, ok=False, seq=seq))
    for base in NODE_SLOPES:
        n = rng.randrange(base, base + base // 100)
        node = f"(y-{n}*x)*(y+x)+x^3"
        calls.append(_cmd("resolve", [node], "q", seq=[2]))
        calls.append(_cmd("intersect", [node, f"y-{n}*x"], "q", I=3))
        calls.append(_cmd("intersect", [node, "y"], "q", I=2))
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# proj_tower
# ---------------------------------------------------------------------------

CONIC = {(0, 1, 1): 1, (2, 0, 0): -1}  # YZ - X^2, parametrized by (t : t^2 : 1)
# (p, degree of G, degrees of the irreducible factors of G(t, t^2, 1), calls):
# one pair per call, the call being bezout or a noether-check whose H
# satisfies ("holds") or fails ("fails") the condition.  Twelve cheap
# degree-2 towers put the median and the tail call in the middle of the
# copies of one shape, where the seed moves them least; four carry the
# deeper towers.  The list stays short so that a run repeats every call.
TOWER_PAIRS = [
    (11, 2, (2, 2), ("bezout",) * 12),
    (7, 2, (4,), ("bezout",)),
    (13, 2, (3, 1), ("fails",)),
    (101, 2, (2, 1, 1), ("holds",)),
    (13, 3, (2, 2, 2), ("bezout",)),
]
# genus by construction: smooth diagonal curves, a nodal and a cuspidal cubic
TOWER_GENUS = [
    ("X^3+Y^3+Z^3", "p:7", 1), ("X^3+Y^3+Z^3", "p:11", 1),
    ("X^3+Y^3+Z^3", "p:13", 1), ("X^3+Y^3+Z^3", "p:101", 1),
    ("X^4+Y^4+Z^4", "p:13", 3), ("Y^2*Z-X^2*Z-X^3", "p:101", 0),
    ("Y^2*Z-X^3", "p:13", 0), ("Y^2*Z-X^2*Z-X^3", "p:11", 0),
]


def _conic_partner(q, deg, rng, p):
    """A form G of degree deg with G(t, t^2, 1) = q(t); q has degree 2 deg."""
    out = {}
    for n, qn in enumerate(q):
        mons = [e for e in arith.monomials(deg) if e[0] + 2 * e[1] == n]
        parts = [rng.randrange(p) for _ in mons[1:]]
        for mon, c in zip(mons, [qn - sum(parts)] + parts):
            if c % p:
                out[mon] = c % p
    return out


def proj_tower(seed, root=None):
    """Conic pairs and conic-cubic pairs meeting in closed points of known degrees.

    G(t, t^2, 1) = q(t) is a product of distinct irreducibles of the given
    degrees, so F and G meet transversally in deg q points, all with Z = 1,
    and none at (0 : 1 : 0) because q has full degree.  H = A F + B G then
    satisfies the condition and H + Z^d fails it at every common point.
    """
    rng = Random(f"proj_tower:{seed}")
    calls = []
    for p, deg, pattern, commands in TOWER_PAIRS:
        field = f"p:{p}"
        for command in commands:
            factors = [arith.random_irreducible(d, p, rng) for d in pattern]
            while len({tuple(f) for f in factors}) < len(factors):
                factors = [arith.random_irreducible(d, p, rng) for d in pattern]
            q = [rng.randrange(1, p)]
            for f in factors:
                q = arith.u_mul(q, f, p)
            G = _conic_partner(q, deg, rng, p)
            Fs, Gs = arith.fmt(CONIC), arith.fmt(G)
            if command == "bezout":
                calls.append(_cmd("bezout", [Fs, Gs], field, total=2 * deg, points=2 * deg))
                continue
            hdeg = deg + 1
            H = arith.padd(
                arith.pmul(arith.random_form(hdeg - 2, lambda: rng.randrange(p), p), CONIC, p),
                arith.pmul(arith.random_form(hdeg - deg, lambda: rng.randrange(p), p), G, p), p)
            holds = command == "holds"
            if not holds:
                H = arith.padd(H, {(0, 0, hdeg): 1}, p)
            calls.append(_cmd("noether-check", [Fs, Gs, arith.fmt(H)], field,
                              0 if holds else 2, ok=holds))
    for F, field, g in TOWER_GENUS:
        calls.append(_cmd("genus", [F], field, genus=g))
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# cofactor
# ---------------------------------------------------------------------------

COFACTOR_P = 10007
# (deg F, deg G, deg H, instances) of the solvable triples; each also gets a
# perturbed H of degree deg F + deg G - 2 with no solution.  Over Q the
# coprimality gcd grows with the coefficients, so Q stops at degree 8.
COFACTOR_Q = [(2, 2, 3, 2), (2, 3, 4, 2), (3, 3, 5, 2), (3, 4, 6, 2), (4, 5, 8, 1)]
COFACTOR_FP = [(2, 3, 4, 2), (3, 4, 6, 2), (4, 5, 8, 2), (5, 6, 10, 2)]


def cofactor(seed, root=None):
    """noether-solve on H = A F + B G and on H' = A F + B G + Z^d.

    F and G pass through [0 : 0 : 1] (no Z^deg term) and H' does not, so H'
    is not in the ideal (F, G) and the expected status is NoSolution.  Q
    coefficients have 12 digits.
    """
    rng = Random(f"cofactor:{seed}")
    calls = []
    for p, degrees in ((0, COFACTOR_Q), (COFACTOR_P, COFACTOR_FP)):
        field = f"p:{p}" if p else "q"
        if p:
            def draw():
                return rng.randrange(p)
        else:
            def draw():
                return rng.choice((-1, 1)) * rng.randrange(10**11, 10**12)
        for dF, dG, dH, k in degrees:
            for _ in range(k):
                F = arith.random_form(dF, draw, p)
                G = arith.random_form(dG, draw, p)
                F.pop((0, 0, dF), None)
                G.pop((0, 0, dG), None)
                for d, perturb in ((dH, False), (dF + dG - 2, True)):
                    H = arith.padd(arith.pmul(arith.random_form(d - dF, draw, p), F, p),
                                   arith.pmul(arith.random_form(d - dG, draw, p), G, p), p)
                    if perturb:
                        H = arith.padd(H, {(0, 0, d): 1}, p)
                    calls.append(_cmd("noether-solve",
                                      [arith.fmt(F), arith.fmt(G), arith.fmt(H)], field,
                                      2 if perturb else 0,
                                      status="NoSolution" if perturb else "Solved"))
    rng.shuffle(calls)
    return calls


BUILDERS = {"corpus": corpus, "local_deep": local_deep, "proj_tower": proj_tower,
            "cofactor": cofactor}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

_SOLVED = re.compile(r"^Solved: A = (.*), B = (.*)$")
_INT_LIST = re.compile(r"\[([0-9,]*)\]")


def _ints(text):
    return [int(v) for v in text.split(",") if v]


def _residual_zero(call, A, B):
    p = 0 if call.field == "q" else int(call.field[2:])
    F, G, H = (arith.parse(s, p) for s in call.argv[1:4])
    AF = arith.pmul(arith.parse(A, p), F, p)
    BG = arith.pmul(arith.parse(B, p), G, p)
    return not arith.padd(arith.padd(H, AF, p, -1), BG, p, -1)


def check(call, code, out):
    """None when the call gave its expected answer, else the reason it did not."""
    if code != call.code:
        return f"exit {code}, expected {call.code}"
    if code == 1:
        return None
    if "--json" in call.argv:
        got = _read_json(call, json.loads(out))
    else:
        got = _read_text(call, out.strip().splitlines())
    for key, want in call.expect.items():
        if key == "seq":
            want, have = sorted(want), sorted(got.get("seq", []))
        else:
            have = got.get(key)
        if have != want:
            return f"{key} = {have!r}, expected {want!r}"
    for key in ("agree", "term"):
        if got.get(key, True) is not True:
            return f"{key} check failed: {got[key]!r}"
    if call.command == "noether-solve" and got["status"] == "Solved":
        if not _residual_zero(call, got["A"], got["B"]):
            return "H - A F - B G is not zero"
    return None


def _read_text(call, lines):
    cmd = call.command
    got = {}
    if cmd == "resolve":
        got["term"] = lines[0] == "termination: Resolved" or lines[0]
        got["seq"] = _ints(_INT_LIST.search(lines[-1]).group(1))
    elif cmd == "delta":
        m = re.fullmatch(r"delta = (\d+), sequence = \[([0-9,]*)\]", lines[-1])
        got["delta"], got["seq"] = int(m.group(1)), _ints(m.group(2))
    elif cmd == "intersect":
        m = re.fullmatch(r"I = (\d+) \(tree\) / (\d+) \(resultant\)", lines[0])
        got["I"] = int(m.group(1))
        got["agree"] = m.group(1) == m.group(2) or lines[0]
    elif cmd == "bezout":
        m = re.fullmatch(r"total = (\d+), expected = (\d+)", lines[-1])
        got["total"] = int(m.group(1))
        got["agree"] = m.group(1) == m.group(2) or lines[-1]
        got["points"] = sum(1 for ln in lines if ln.startswith("point "))
    elif cmd == "genus":
        got["genus"] = int(lines[-1])
    elif cmd in ("noether-check", "adjoint"):
        got["ok"] = lines[-1].endswith("holds")
        got["seq"] = [int(m.group(1)) for m in map(re.compile(r"r_C=(\d+)").search, lines)
                      if m and int(m.group(1)) >= 2]
    elif cmd == "noether-solve":
        m = _SOLVED.match(lines[-1])
        got["status"] = "Solved" if m else lines[-1]
        if m:
            got["A"], got["B"] = m.group(1), m.group(2)
    elif cmd == "appendix":
        got["text"] = lines
    return got


def _read_json(call, obj):
    cmd = call.command
    got = {}
    if cmd == "resolve":
        got["term"] = obj["termination"] == "Resolved" or obj["termination"]
        stack, rs = [obj["root"]], []
        while stack:
            node = stack.pop()
            if node["r"] >= 2:
                rs.append(node["r"])
            stack += node["children"]
        got["seq"] = rs
    elif cmd == "delta":
        got["delta"] = obj["delta"]
        got["seq"] = [r for _, r in obj["multiplicity_sequence"]]
        got["agree"] = obj["conductor_degree"] == 2 * obj["delta"] or obj
    elif cmd == "intersect":
        got["I"] = obj["noether_sum"]
        got["agree"] = obj["agreement"] and obj["oracle_value"] == obj["noether_sum"] or obj
    elif cmd == "bezout":
        got["total"] = obj["total"]
        got["agree"] = obj["ok"] and obj["expected"] == obj["total"] or obj
        got["points"] = len(obj["points"])
    elif cmd == "genus":
        got["genus"] = obj["genus"]
    elif cmd in ("noether-check", "adjoint"):
        got["ok"] = obj["ok"]
        got["seq"] = [n["r_C"] for n in obj.get("nodes", []) if n.get("r_C", 0) >= 2]
    elif cmd == "noether-solve":
        got["status"] = obj["status"]
        if obj["status"] == "Solved":
            got["A"], got["B"] = obj["A"], obj["B"]
            got["agree"] = obj["residual"] == "0" or obj
    elif cmd == "appendix":
        got["text"] = [f"stage {s['stage']}: {s['equation']}"
                       + ("" if s["shift"] is None else f"  (shift {s['shift']})")
                       for s in obj["stages"]] + [f"phi = {obj['phi']}"]
    return got
