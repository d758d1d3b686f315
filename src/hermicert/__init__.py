"""Exact rational Hermite matrices from approximate roots.

Reconstructs the rational Hermite matrix of a zero-dimensional polynomial
ideal from floating-point root approximations, certifies it symbolically
through multiplication-matrix checks, and turns certified signatures into
rational certificates: real-root counts, real roots inside a ball, and
non-negativity of a polynomial over a real variety.

The package exports the names README documents; everything else is
imported from its module.
"""

from .certificates import BallQuery, NonnegQuery, ball_from_outcome, certify_ball, certify_nonneg
from .certify import CertificationOutcome, certify_nonradical, certify_pipeline, derive_hg, signature
from .hermite import HermitePlus, build_hermite
from .numroots import ApproxRootSet
from .polynomials import MonomialBasis, PolySystem, parse_poly

__version__ = "0.1.0"

# The exact kernels have one implementation, hermicert._kernels; benchmark
# records still name it.
KERNEL_BACKEND = "pure"

__all__ = [
    "ApproxRootSet",
    "BallQuery",
    "CertificationOutcome",
    "HermitePlus",
    "KERNEL_BACKEND",
    "MonomialBasis",
    "NonnegQuery",
    "PolySystem",
    "ball_from_outcome",
    "build_hermite",
    "certify_ball",
    "certify_nonneg",
    "certify_nonradical",
    "certify_pipeline",
    "derive_hg",
    "parse_poly",
    "signature",
    "__version__",
]
