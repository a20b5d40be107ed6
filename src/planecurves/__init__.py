"""Exact resolution of plane curve singularities and the AF+BG construction.

Everything is computed over Q or a finite field tower with no floating
point anywhere: blow-up trees, multiplicity sequences, delta invariants,
genus, local intersection numbers (two independent routes), and exact
cofactors A, B with H = A*F + B*G when the local multiplicity condition
holds.
"""

from .blowup import (
    DEFAULT_MAX_DEPTH,
    InfNearTree,
    JointNode,
    JointTree,
    appendix_sequence,
    blow_up_chart,
    exceptional_points,
    joint_tree,
    resolve_tree,
    to_dot,
    tracked_resolution,
)
from .errors import (
    CommonComponent,
    CurveError,
    DepthCapExceeded,
    DivisionByZero,
    HypothesisFailed,
    IncompatibleFields,
    InternalError,
    NegativeGenus,
    NonRationalPoint,
    NotSquarefree,
    NotSuitable,
    Reducible,
    ReducibleMinPoly,
    UnresolvedTree,
    UnsupportedExtension,
    UsageError,
    ZeroPolynomial,
)
from .fields import (
    ExtensionField,
    Field,
    PrimeField,
    RationalField,
    Scalar,
    UniPoly,
    extend_field,
    find_irreducible,
    join_fields,
    roots_with_extension,
    uni_factor,
    uni_gcd,
)
from .invariants import (
    AdjointReport,
    IntersectionReport,
    SingularityReport,
    adjoint_check,
    delta_invariant,
    genus,
    intersection_multiplicity,
    intersection_oracle,
)
from .linalg import solve_linear
from .noether import (
    BezoutReport,
    ConditionReport,
    NoetherCertificate,
    ProjPoint,
    bezout_check,
    check_condition,
    find_common_points,
    find_singular_points,
    solve_af_bg,
)
from .poly import (
    MultiPoly,
    biv_gcd,
    dehomogenize,
    homogenize,
    is_suitable,
    make_suitable,
    make_suitable_many,
    parse_poly,
    resultant_biv,
    shear,
    squarefree_defect,
    translate,
)

__version__ = "0.1.0"
