"""Shared shorthands for the test suite."""

import json
import os
import sys

from planecurves.fields import PrimeField, RationalField, extend_field, find_irreducible
from planecurves.poly import homogenize, parse_poly

QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F11 = PrimeField(11)


def F9():
    return extend_field(F3, find_irreducible(F3, 2))


def field_by_name(name):
    if name == "q":
        return RationalField()
    assert name.startswith("p:")
    return PrimeField(int(name[2:]))


def aff(text, field=QQ):
    return parse_poly(text, field, space="affine")


def hom(text, field=QQ):
    return parse_poly(text, field, space="homogeneous")


def haff(text, field=QQ):
    # affine input, projectivized
    return homogenize(parse_poly(text, field, space="affine"))


def corpus():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "golden_corpus.json")
    with open(path) as fh:
        return json.load(fh)


def patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` under every name that a planecurves module binds it to."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "planecurves":
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, key, replacement)
