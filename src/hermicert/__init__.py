"""Exact rational Hermite matrices from approximate roots.

Reconstructs the rational Hermite matrix of a zero-dimensional polynomial
ideal from floating-point root approximations, certifies it symbolically
through multiplication-matrix checks, and turns certified signatures into
rational certificates: real-root counts, real roots inside a ball, and
non-negativity of a polynomial over a real variety.
"""

from .certificates import (
    BallQuery,
    NonnegQuery,
    ball_from_outcome,
    ball_polynomial,
    bezout_bound,
    certify_ball,
    certify_nonneg,
    lagrange_system,
    real_root_count,
)
from .certify import (
    CertificationOutcome,
    certify_nonradical,
    certify_pipeline,
    derive_hg,
    signature,
)
from .hermite import (
    HermitePlus,
    PowerSums,
    approx_extended_hermite,
    build_extended_hermite,
    build_hermite,
    build_nonradical,
    reconstruct_hermite,
)
from .linalg import (
    Inertia,
    RatMatrix,
    char_poly,
    inertia_descartes,
    inertia_ldl,
    rank,
    sign_variations,
    solve,
)
from .numroots import (
    ApproxRootSet,
    match_and_filter,
    newton_refine,
    select_basis,
    smallest_singular_value,
)
from .polynomials import (
    ExtendedBasis,
    MonomialBasis,
    MultiPoly,
    PolySystem,
    parse_poly,
)
from .ratrecon import denominator_bound, rational_reconstruct

__version__ = "0.1.0"

# The exact kernels have one implementation, hermicert._kernels; benchmark
# records still name it.
KERNEL_BACKEND = "pure"

__all__ = [
    "ApproxRootSet",
    "BallQuery",
    "CertificationOutcome",
    "ExtendedBasis",
    "HermitePlus",
    "Inertia",
    "KERNEL_BACKEND",
    "MonomialBasis",
    "MultiPoly",
    "NonnegQuery",
    "PolySystem",
    "PowerSums",
    "RatMatrix",
    "approx_extended_hermite",
    "ball_from_outcome",
    "ball_polynomial",
    "bezout_bound",
    "build_extended_hermite",
    "build_hermite",
    "build_nonradical",
    "certify_ball",
    "certify_nonneg",
    "certify_nonradical",
    "certify_pipeline",
    "char_poly",
    "denominator_bound",
    "derive_hg",
    "inertia_descartes",
    "inertia_ldl",
    "lagrange_system",
    "match_and_filter",
    "newton_refine",
    "parse_poly",
    "rank",
    "rational_reconstruct",
    "real_root_count",
    "reconstruct_hermite",
    "select_basis",
    "sign_variations",
    "signature",
    "smallest_singular_value",
    "solve",
    "__version__",
]
