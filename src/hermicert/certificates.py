"""Signature-based certificates: real-root counts, real roots in a ball,
and non-negativity over a real variety.

Each verdict is read from a certified outcome: the caller builds the
extended Hermite matrix (hermite.build_hermite) and this module certifies
it and compares exact signatures; it constructs nothing.  A verdict is
tri-state: "true", "false", or "fail" when certification could not go
through.  A failed certification never turns into a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .certify import CertificationOutcome, certify_pipeline, derive_hg, signature
from .hermite import HermitePlus
from .linalg import RatMatrix
from .polynomials import Frozen, MultiPoly, PolySystem


def real_root_count(h1: RatMatrix) -> int:
    """Number of distinct real roots, i.e. the signature of a certified H1.

    A certified outcome already carries it as sigma_h1."""
    return signature(h1)


class BallQuery(Frozen):
    """Closed ball with rational center and rational squared radius."""

    __slots__ = ("center", "radius_squared")

    def __init__(self, center: Sequence[Fraction], radius_squared: Fraction):
        center, radius_squared = tuple(Fraction(c) for c in center), Fraction(radius_squared)
        if radius_squared <= 0:
            raise ValueError("radius_squared must be positive")
        self._set(center=center, radius_squared=radius_squared)


class NonnegQuery(Frozen):
    """Is g non-negative on the real points of V(f)?

    Assumption flags record caller-asserted hypotheses (smoothness,
    boundedness, finitely many critical points); they are not verifiable
    here and are echoed into reports.
    """

    __slots__ = ("system", "g", "assume_smooth_bounded")

    def __init__(self, system: PolySystem, g: MultiPoly, assume_smooth_bounded: bool = False):
        if len(system.polys) > system.arity():
            raise ValueError("need at most as many constraints as variables")
        if g.variables != system.variables:
            raise ValueError("g must live in the system's ring")
        self._set(system=system, g=g, assume_smooth_bounded=assume_smooth_bounded)


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


class BallCertificate(Frozen):
    """A ball verdict: "true", "false" or "fail", with the signatures of H1
    and H_g that decide it (None on "fail")."""

    __slots__ = ("verdict", "sigma_h1", "sigma_hg", "outcome", "query")

    def __init__(
        self,
        verdict: str,
        sigma_h1: int | None,
        sigma_hg: int | None,
        outcome: CertificationOutcome,
        query: BallQuery,
    ):
        self._set(verdict=verdict, sigma_h1=sigma_h1, sigma_hg=sigma_hg, outcome=outcome, query=query)


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


class NonnegCertificate(Frozen):
    """A non-negativity verdict: "true", "false" or "fail", with the
    signatures of H_g and H_(g^2) that decide it (None on "fail").  No
    H_(g^2) is kept: sigma_hg2 is read off sigma(H1) when H_g is
    nonsingular, and derive_hg(outcome, g^2) gives the matrix on request."""

    __slots__ = ("verdict", "sigma_hg", "sigma_hg2", "outcome", "lagrange", "assume_smooth_bounded")

    def __init__(
        self,
        verdict: str,
        sigma_hg: int | None,
        sigma_hg2: int | None,
        outcome: CertificationOutcome,
        lagrange: PolySystem,
        assume_smooth_bounded: bool = False,
    ):
        self._set(
            verdict=verdict, sigma_hg=sigma_hg, sigma_hg2=sigma_hg2,
            outcome=outcome, lagrange=lagrange, assume_smooth_bounded=assume_smooth_bounded,
        )


def certify_nonneg(query: NonnegQuery, hplus: HermitePlus) -> NonnegCertificate:
    """Non-negativity of g over the real points of V(f).

    hplus is the extended Hermite matrix built (hermite.build_hermite) from
    approximations of all critical points of g on V(f), the roots of the
    Lagrange system.  It is certified once against that system for g, which
    gives H_g.  Repeated critical points take the non-radical route, whose
    Hermite matrices are those of the radical: sigma(H_g) sums sign g and
    sigma(H_(g^2)) counts the real critical points off g = 0, so equal
    signatures prove g >= 0 on V(f) n R^n either way.  A failed
    certification gives a "fail" verdict.

    Both routes certify H1 as the trace form of a reduced algebra A, and
    H_g = H1 * g(M).  By Hermite's theorem rank H_g is the number of points
    of V(A) where g does not vanish (Pedersen-Roy-Szpirglas 1993), so when
    the outcome's inertia of H_g, confirmed by both methods, has no zero,
    g^2 > 0 at every real critical point and sigma(H_(g^2)) = sigma(H1).
    Only a singular H_g needs H_(g^2), derived from the certified data
    (derive_hg, which cannot fail).
    """
    lag = lagrange_system(query.system, query.g)
    g_ext = _embed(query.g, lag.variables)
    outcome = certify_pipeline(lag, g_ext, hplus)
    if not outcome.certified:
        return NonnegCertificate(
            "fail", None, None, outcome, lag, assume_smooth_bounded=query.assume_smooth_bounded
        )
    if outcome.hg_inertia.zero:
        s_g2 = derive_hg(outcome, g_ext * g_ext)[1]
    else:
        s_g2 = outcome.sigma_h1
    return NonnegCertificate(
        "true" if outcome.sigma_hg == s_g2 else "false",
        outcome.sigma_hg,
        s_g2,
        outcome,
        lag,
        assume_smooth_bounded=query.assume_smooth_bounded,
    )
