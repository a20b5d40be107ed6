"""Exception taxonomy shared by every layer of the package.

Each exception marks a specific contract violation so callers (and the
command line front end) can map failures to stable exit codes instead of
pattern matching on messages.
"""

from __future__ import annotations


class CurveError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(CurveError, ZeroDivisionError):
    """Division by the zero scalar of a field."""


class IncompatibleFields(CurveError):
    """Operands live in fields with no canonical embedding between them."""


class ReducibleMinPoly(CurveError):
    """A field extension was requested modulo a reducible polynomial."""


class UnsupportedExtension(CurveError):
    """Extension of a field that does not support it (the rationals)."""


class ZeroPolynomial(CurveError):
    """The zero polynomial was passed where a nonzero one is required."""


class NonRationalPoint(CurveError):
    """A required point does not exist over the rationals.

    Raised when root extraction over Q leaves an irreducible factor of
    degree >= 2; finite fields extend instead of raising this.
    """


class NotSuitable(CurveError):
    """Coordinates are not suitable: the lowest form vanishes at (0, 1)."""


class NotSquarefree(CurveError):
    """The curve has a repeated component, so resolution data is undefined."""


class CommonComponent(CurveError):
    """Two curves share an irreducible component where they must not."""


class DepthCapExceeded(CurveError):
    """A blow-up recursion hit the depth cap before finishing its job."""


class UnresolvedTree(CurveError):
    """An invariant was requested from a tree that is not fully resolved."""


class Reducible(CurveError):
    """A curve required to be irreducible could not be certified as such."""


class NegativeGenus(CurveError):
    """The genus formula went negative: the input data is inconsistent."""


class InternalError(CurveError):
    """An exactness check failed: a bug, never a property of the input.

    Raised explicitly rather than through assert, so the checks also run
    under python -O.  The command line maps it to exit code 5.
    """


class HypothesisFailed(CurveError):
    """A hypothesis of an iterated blow-up construction broke at a stage.

    Carries the 1-based stage index at which the construction of the next
    polynomial in the sequence failed, plus a short reason.
    """

    def __init__(self, stage: int, reason: str = ""):
        self.stage = stage
        self.reason = reason
        msg = f"hypothesis failed at stage {stage}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class UsageError(CurveError):
    """Malformed command line input."""
