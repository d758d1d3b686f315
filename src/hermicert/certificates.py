"""Signature-based certificates: real-root counts, real roots in a ball,
and non-negativity over a real variety.

Each verdict rests on exact signatures of certified Hermite matrices and is
tri-state: "true", "false", or "fail" when certification could not go
through.  A failed certification never turns into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certify import CertificationOutcome, certify_pipeline, derive_hg, signature
from .hermite import HermitePlus, build_extended_hermite
from .linalg import RatMatrix
from .numroots import ApproxRootSet, select_basis
from .polynomials import MonomialBasis, MultiPoly, PolySystem
from .ratrecon import exact_fraction


def real_root_count(h1: RatMatrix) -> int:
    """Number of distinct real roots, i.e. the signature of a certified H1.

    A certified outcome already carries it as sigma_h1."""
    return signature(h1)


@dataclass(frozen=True)
class BallQuery:
    """Closed ball with rational center and rational squared radius."""

    center: tuple[Fraction, ...]
    radius_squared: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(exact_fraction(c) for c in self.center))
        object.__setattr__(self, "radius_squared", exact_fraction(self.radius_squared))
        if self.radius_squared <= 0:
            raise ValueError("radius_squared must be positive")


@dataclass(frozen=True)
class NonnegQuery:
    """Is g non-negative on the real points of V(f)?

    Assumption flags record caller-asserted hypotheses (smoothness,
    boundedness, finitely many critical points); they are not verifiable
    here and are echoed into reports.
    """

    system: PolySystem
    g: MultiPoly
    assume_smooth_bounded: bool = False

    def __post_init__(self):
        if len(self.system.polys) > self.system.arity():
            raise ValueError("need at most as many constraints as variables")
        if self.g.variables != self.system.variables:
            raise ValueError("g must live in the system's ring")


def lagrange_variables(system: PolySystem) -> tuple[str, ...]:
    """The ring of the Lagrange system: the system's variables followed by
    one multiplier l1..ls per constraint."""
    multipliers = tuple(f"l{j + 1}" for j in range(len(system.polys)))
    clash = set(multipliers) & set(system.variables)
    if clash:
        raise ValueError(f"variable names {sorted(clash)} collide with multiplier names")
    return tuple(system.variables) + multipliers


def _embed(p: MultiPoly, variables: tuple[str, ...]) -> MultiPoly:
    """p in a ring that appends variables to p's own, as a polynomial free
    of the appended ones."""
    pad = (0,) * (len(variables) - len(p.variables))
    return MultiPoly(variables, {m + pad: c for m, c in p.terms.items()})


def lagrange_system(system: PolySystem, g: MultiPoly) -> PolySystem:
    """Critical-point system of g on V(f): the constraints plus
    dg/dx_i + sum_j l_j * df_j/dx_i for every variable x_i.

    The ring is lagrange_variables(system); the result is square (n+s
    polynomials in n+s variables).
    """
    if g.variables != system.variables:
        raise ValueError("g must live in the system's ring")
    n = system.arity()
    ext_vars = lagrange_variables(system)
    polys = [_embed(p, ext_vars) for p in system.polys]
    for i in range(n):
        acc = _embed(g.partial_derivative(i), ext_vars)
        for j, fj in enumerate(system.polys):
            lam = MultiPoly.variable(ext_vars, n + j)
            acc = acc + lam * _embed(fj.partial_derivative(i), ext_vars)
        polys.append(acc)
    return PolySystem(ext_vars, polys)


def bezout_bound(system: PolySystem, g: MultiPoly) -> int:
    """d^(n+s) with d the largest total degree among g and the constraints."""
    d = max([g.total_degree()] + [p.total_degree() for p in system.polys])
    return d ** (system.arity() + len(system.polys))


def ball_polynomial(variables: Sequence[str], query: BallQuery) -> MultiPoly:
    """g(x) = ||x - center||_2^2 - radius^2, exactly."""
    vs = tuple(variables)
    if len(query.center) != len(vs):
        raise ValueError("center arity does not match the ring")
    g = MultiPoly.constant(vs, -query.radius_squared)
    for i, c in enumerate(query.center):
        diff = MultiPoly.variable(vs, i) - MultiPoly.constant(vs, c)
        g = g + diff * diff
    return g


@dataclass
class BallCertificate:
    verdict: str  # "true" | "false" | "fail"
    sigma_h1: int | None
    sigma_hg: int | None
    outcome: CertificationOutcome
    query: BallQuery


def certify_ball(system: PolySystem, query: BallQuery, hplus: HermitePlus) -> BallCertificate:
    """Is there a real root within the closed ball?

    After certifying H1 and H_g for g = ||x - center||^2 - radius^2, equal
    signatures prove the ball holds no real root ("false"); different
    signatures prove it contains one ("true").
    """
    g = ball_polynomial(system.variables, query)
    outcome = certify_pipeline(system, g, hplus)
    return ball_from_outcome(outcome, system.variables, query)


def ball_from_outcome(
    outcome: CertificationOutcome, variables: Sequence[str], query: BallQuery
) -> BallCertificate:
    """Ball verdict from an outcome certified for any g: H_g for the ball
    polynomial is derived from it, and sigma(H1) is read off it.  Only an
    outcome that is not certified gives "fail"; derive_hg cannot fail."""
    if not outcome.certified:
        return BallCertificate("fail", None, None, outcome, query)
    s1, sg = outcome.sigma_h1, derive_hg(outcome, ball_polynomial(variables, query))[1]
    verdict = "false" if s1 == sg else "true"
    return BallCertificate(verdict, s1, sg, outcome, query)


@dataclass
class NonnegCertificate:
    verdict: str  # "true" | "false" | "fail"
    sigma_hg: int | None
    sigma_hg2: int | None
    outcome: CertificationOutcome | None
    lagrange: PolySystem
    basis: MonomialBasis | None
    hg2: RatMatrix | None = None
    reason: str | None = None
    assume_smooth_bounded: bool = False


def certify_nonneg(
    query: NonnegQuery,
    roots: ApproxRootSet,
    basis: MonomialBasis | None = None,
) -> NonnegCertificate:
    """Non-negativity of g over the real points of V(f).

    The supplied roots must approximate all critical points of g on V(f),
    i.e. the solutions of the Lagrange system; duplicates are rejected.  A
    basis is selected from the points unless one is given, the extended
    Hermite matrix is reconstructed and certified once, and both H_g and
    H_(g^2) are derived from the certified data; the derivation cannot fail
    (derive_hg).  Equal signatures prove g >= 0 on V(f) n R^n.  Basis
    selection and reconstruction raise their construction errors; duplicate
    points and a failed certification give a "fail" verdict.
    """
    lag = lagrange_system(query.system, query.g)
    n_ext = lag.arity()
    s = len(query.system.polys)

    def failed(reason: str, outcome=None, basis_=None) -> NonnegCertificate:
        return NonnegCertificate(
            "fail",
            None,
            None,
            outcome,
            lag,
            basis_,
            reason=reason,
            assume_smooth_bounded=query.assume_smooth_bounded,
        )

    if roots.arity() != n_ext:
        raise ValueError(
            f"roots must live in C^{n_ext} (variety variables plus {s} multipliers)"
        )
    pts = roots.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                return failed("duplicate_points")

    if basis is None:
        basis = select_basis(roots, lag.variables)
    hplus = build_extended_hermite(roots, basis)
    g_ext = _embed(query.g, lag.variables)
    outcome = certify_pipeline(lag, g_ext, hplus)
    if not outcome.certified:
        return failed(outcome.reason or "certification_failed", outcome, basis)
    hg2, s_g2 = derive_hg(outcome, g_ext * g_ext)
    return NonnegCertificate(
        "true" if outcome.sigma_hg == s_g2 else "false",
        outcome.sigma_hg,
        s_g2,
        outcome,
        lag,
        basis,
        hg2=hg2,
        assume_smooth_bounded=query.assume_smooth_bounded,
    )
