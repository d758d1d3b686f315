import math
from fractions import Fraction

import pytest

from hermicert.certificates import (
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
from hermicert.certify import certify_pipeline, derive_hg
from hermicert.hermite import build_extended_hermite, build_hermite
from hermicert.linalg import NotSymmetricError, RatMatrix
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import MonomialBasis, PolySystem, parse_poly

from conftest import exact_hermite_plus, matrix_rows, roots_as_qc

SQRT2 = math.sqrt(2)
B1X = MonomialBasis([(0,), (1,)])
F_SQRT2 = PolySystem(["x"], [parse_poly("x^2-2", ["x"])])
CIRCLE = PolySystem(["x", "y"], [parse_poly("x^2+y^2-1", ["x", "y"])])


def sqrt2_hermite():
    pts = ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=Fraction(1, 10**10), coord_bound=2
    )
    return build_extended_hermite(pts, B1X)


def circle_critical_roots():
    return ApproxRootSet(
        points=((1 + 0j, 0j, -0.5 + 0j), (-1 + 0j, 0j, 0.5 + 0j)),
        accuracy="1e-8",
        coord_bound=2,
    )


# the critical points of x^2 on the circle: (0, +-1, 0), where x^2 vanishes,
# and (+-1, 0, -1)
CIRCLE_X2_CRITICAL_ROOTS = ApproxRootSet(
    points=((0j, 1 + 0j, 0j), (0j, -1 + 0j, 0j), (1 + 0j, 0j, -1 + 0j), (-1 + 0j, 0j, -1 + 0j)),
    accuracy="1e-8",
    coord_bound=2,
)


def squared_in_lagrange_ring(cert, g: str):
    """g^2 in the ring of cert's Lagrange system."""
    g_ext = parse_poly(g, list(cert.lagrange.variables))
    return g_ext * g_ext


# -- real root count -----------------------------------------------------------


def test_real_root_count_examples():
    assert real_root_count(RatMatrix.from_rows([[2, 0], [0, 4]])) == 2
    assert real_root_count(RatMatrix.from_rows([[2, 0], [0, -2]])) == 0
    assert real_root_count(RatMatrix.from_rows([[2, 1], [1, 1]])) == 2


def test_real_root_count_matches_known_structure():
    # two real roots and one conjugate pair
    hp = exact_hermite_plus(
        roots_as_qc([Fraction(1), Fraction(-3)], [(Fraction(1, 2), Fraction(1))]),
        MonomialBasis([(d,) for d in range(4)]),
    )
    h1 = hp.matrix.submatrix(range(4), range(4))
    assert real_root_count(h1) == 2


# -- lagrange system -----------------------------------------------------------


def test_lagrange_circle_linear_objective():
    lag = lagrange_system(CIRCLE, parse_poly("x+2", ["x", "y"]))
    assert lag.variables == ("x", "y", "l1")
    assert [p.to_text() for p in lag.polys] == [
        "x^2 + y^2 - 1",
        "2*x*l1 + 1",
        "2*y*l1",
    ]


def test_lagrange_constant_objective():
    lag = lagrange_system(CIRCLE, parse_poly("5", ["x", "y"]))
    assert [p.to_text() for p in lag.polys][1:] == ["2*x*l1", "2*y*l1"]


def test_lagrange_without_constraints():
    lag = lagrange_system(
        PolySystem(["x", "y"], []), parse_poly("x^2+y^2-1", ["x", "y"])
    )
    assert lag.variables == ("x", "y")
    assert [p.to_text() for p in lag.polys] == ["2*x", "2*y"]


def test_lagrange_rejects_name_collision():
    bad = PolySystem(["x", "l1"], [parse_poly("x^2+l1^2-1", ["x", "l1"])])
    with pytest.raises(ValueError):
        lagrange_system(bad, parse_poly("x", ["x", "l1"]))


# -- bezout ----------------------------------------------------------------------


def test_bezout_examples():
    assert bezout_bound(CIRCLE, parse_poly("x+2", ["x", "y"])) == 8
    linear = PolySystem(["x", "y"], [parse_poly("x+y", ["x", "y"])])
    assert bezout_bound(linear, parse_poly("x", ["x", "y"])) == 1
    cubic = PolySystem(["x"], [parse_poly("x^3-1", ["x"])])
    assert bezout_bound(cubic, parse_poly("x", ["x"])) == 9


# -- ball certificates -------------------------------------------------------------


def test_ball_polynomial_expansion():
    g = ball_polynomial(["x"], BallQuery(center=(Fraction(7, 5),), radius_squared=Fraction(1, 100)))
    # (x - 7/5)^2 - 1/100, constant term 49/25 - 1/100 = 39/20
    assert g == parse_poly("x^2 - 14/5*x + 39/20", ["x"])
    assert g.terms[(0,)] == Fraction(49, 25) - Fraction(1, 100)


def test_ball_true_when_root_inside():
    cert = certify_ball(
        F_SQRT2, BallQuery(center=(Fraction(7, 5),), radius_squared=Fraction(1, 100)), sqrt2_hermite()
    )
    assert cert.verdict == "true"
    assert cert.sigma_h1 == 2 and cert.sigma_hg == 0


def test_ball_false_when_roots_outside():
    cert = certify_ball(
        F_SQRT2, BallQuery(center=(Fraction(7, 5),), radius_squared=Fraction(1, 10000)), sqrt2_hermite()
    )
    assert cert.verdict == "false"
    assert cert.sigma_h1 == 2 and cert.sigma_hg == 2
    origin = certify_ball(
        F_SQRT2, BallQuery(center=(Fraction(0),), radius_squared=Fraction(1, 100)), sqrt2_hermite()
    )
    assert origin.verdict == "false"


def test_ball_false_without_real_roots():
    f = PolySystem(["x"], [parse_poly("x^2+1", ["x"])])
    hp = exact_hermite_plus(roots_as_qc([], [(Fraction(0), Fraction(1))]), B1X)
    cert = certify_ball(f, BallQuery(center=(Fraction(0),), radius_squared=Fraction(1, 100)), hp)
    assert cert.verdict == "false"
    assert cert.sigma_h1 == 0 and cert.sigma_hg == 0


def test_ball_monotone_in_radius():
    hp = sqrt2_hermite()
    center = (Fraction(7, 5),)
    verdicts = []
    for eps2 in (Fraction(1, 10000), Fraction(1, 2500), Fraction(1, 400), Fraction(1, 100), Fraction(1, 25)):
        verdicts.append(certify_ball(F_SQRT2, BallQuery(center, eps2), hp).verdict)
    assert all(v in ("true", "false") for v in verdicts)
    first_true = verdicts.index("true") if "true" in verdicts else len(verdicts)
    assert all(v == "false" for v in verdicts[:first_true])
    assert all(v == "true" for v in verdicts[first_true:])


def test_ball_fail_propagates():
    from hermicert.hermite import HermitePlus

    hp = sqrt2_hermite()
    rows = matrix_rows(hp.matrix)
    rows[0][0] += 1
    bad = HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance)
    cert = certify_ball(
        F_SQRT2, BallQuery(center=(Fraction(0),), radius_squared=Fraction(1, 4)), bad
    )
    assert cert.verdict == "fail"
    assert cert.sigma_h1 is None and cert.sigma_hg is None


def test_ball_from_outcome_matches_certify_ball():
    outcome = certify_pipeline(F_SQRT2, parse_poly("x", ["x"]), sqrt2_hermite())
    steps = list(outcome.diagnostics)
    for eps2 in (Fraction(1, 100), Fraction(1, 10000)):
        query = BallQuery(center=(Fraction(7, 5),), radius_squared=eps2)
        derived = ball_from_outcome(outcome, ["x"], query)
        direct = certify_ball(F_SQRT2, query, sqrt2_hermite())
        assert (derived.verdict, derived.sigma_h1, derived.sigma_hg) == (
            direct.verdict,
            direct.sigma_h1,
            direct.sigma_hg,
        )
    assert outcome.diagnostics == steps


def test_ball_on_a_tampered_h1_raises_and_gives_no_verdict():
    outcome = certify_pipeline(F_SQRT2, parse_poly("x", ["x"]), sqrt2_hermite())
    # a wrong (still symmetric) H1 is no trace form: for g = (x - 1)^2 - 1/4,
    # g(M) is [[11/4, -4], [-2, 11/4]] and H1 * g(M) = [[33/4, -12], [-8, 11]];
    # the outcome is frozen, so the tampering goes around its guard
    object.__setattr__(outcome, "h1", RatMatrix.from_rows([[3, 0], [0, 4]]))
    query = BallQuery(center=(Fraction(1),), radius_squared=Fraction(1, 4))
    cert = None
    with pytest.raises(NotSymmetricError):
        cert = ball_from_outcome(outcome, ["x"], query)
    assert cert is None


# -- non-negativity ------------------------------------------------------------------


def test_nonneg_true_for_shifted_coordinate():
    query = NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"]), assume_smooth_bounded=True)
    cert = certify_nonneg(query, build_hermite(circle_critical_roots()))
    assert cert.verdict == "true"
    assert cert.sigma_hg == 2 and cert.sigma_hg2 == 2
    assert cert.outcome.hg == RatMatrix.from_rows([[4, 2], [2, 4]])
    hg2 = derive_hg(cert.outcome, squared_in_lagrange_ring(cert, "x+2"))[0]
    assert hg2 == RatMatrix.from_rows([[10, 8], [8, 10]])


def test_nonneg_false_for_plain_coordinate():
    query = NonnegQuery(CIRCLE, parse_poly("x", ["x", "y"]))
    cert = certify_nonneg(query, build_hermite(circle_critical_roots()))
    assert cert.verdict == "false"
    assert cert.sigma_hg == 0 and cert.sigma_hg2 == 2


# the critical points (+-1, 0, 0) of x^3 - 3x (and of x^3 - 3x + 2) on the
# circle, each of multiplicity 3 in the Lagrange system: dim Q[x, y, l1]/I = 6
TRIPLE_CRITICAL_ROOTS = ApproxRootSet(
    points=((1 + 0j, 0j, 0j),) * 3 + ((-1 + 0j, 0j, 0j),) * 3,
    accuracy="1e-10",
    coord_bound=2,
)
# 1, x, y, l1, x*y, x*l1
TRIPLE_BASIS = MonomialBasis(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
)


def test_nonneg_repeated_critical_points_select_the_reduced_basis():
    # select_basis accepts {1, x} of the six points, and H+ built from all
    # six on it is the reduced matrix that the given basis is reduced to
    selected = build_hermite(TRIPLE_CRITICAL_ROOTS)
    given = build_hermite(TRIPLE_CRITICAL_ROOTS, TRIPLE_BASIS)
    assert selected.reduced and selected.base_size() == 2
    assert selected.labels.base.monomials == given.labels.base.monomials == ((0, 0, 0), (1, 0, 0))
    assert selected.matrix == given.matrix
    assert selected.provenance.bounds == given.provenance.bounds


@pytest.mark.parametrize(
    "g, verdict, sigmas",
    [
        # g(1) = -2 and g(-1) = 2
        ("x^3-3*x", "false", (0, 2)),
        # (x - 1)^2 (x + 2): g(1) = 0 and g(-1) = 4
        ("x^3-3*x+2", "true", (1, 1)),
    ],
)
def test_nonneg_repeated_critical_points_certify_through_the_radical(g, verdict, sigmas):
    # on the radical, sigma(H_g) sums sign g and sigma(H_(g^2)) counts the
    # real critical points off g = 0
    hplus = build_hermite(TRIPLE_CRITICAL_ROOTS, TRIPLE_BASIS)
    cert = certify_nonneg(NonnegQuery(CIRCLE, parse_poly(g, ["x", "y"])), hplus)
    assert cert.verdict == verdict
    assert (cert.sigma_hg, cert.sigma_hg2) == sigmas
    assert cert.outcome.weighted_h1 == RatMatrix.from_rows([[6, 0], [0, 6]])


@pytest.mark.parametrize(
    "g, roots, singular",
    [
        ("x+2", circle_critical_roots, False),
        ("x", circle_critical_roots, False),
        ("x+3", circle_critical_roots, False),
        # x^2 vanishes at (0, +-1, 0): reading sigma(H_(g^2)) off
        # sigma(H1) = 4 would give "false"
        ("x^2", lambda: CIRCLE_X2_CRITICAL_ROOTS, True),
        ("x^3-3*x", lambda: TRIPLE_CRITICAL_ROOTS, False),
        ("x^3-3*x+2", lambda: TRIPLE_CRITICAL_ROOTS, True),
    ],
)
def test_nonneg_sigma_hg2_is_that_of_the_derived_hg2(g, roots, singular):
    # with H_g nonsingular sigma(H_(g^2)) is read off sigma(H1), otherwise
    # derived: either way it is the signature of H1 * g^2(M)
    cert = certify_nonneg(NonnegQuery(CIRCLE, parse_poly(g, ["x", "y"])), build_hermite(roots()))
    assert bool(cert.outcome.hg_inertia.zero) == singular
    assert cert.sigma_hg2 == derive_hg(cert.outcome, squared_in_lagrange_ring(cert, g))[1]


def test_nonneg_constant_shift_stays_true():
    # L depends on f and grad g only, so g and g + 1 share critical points
    base = certify_nonneg(
        NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"])), build_hermite(circle_critical_roots())
    )
    shifted = certify_nonneg(
        NonnegQuery(CIRCLE, parse_poly("x+3", ["x", "y"])), build_hermite(circle_critical_roots())
    )
    assert base.verdict == "true" and shifted.verdict == "true"


def test_nonneg_respects_query_validation():
    too_many = PolySystem(
        ["x"], [parse_poly("x", ["x"]), parse_poly("x^2", ["x"])]
    )
    with pytest.raises(ValueError):
        NonnegQuery(too_many, parse_poly("x", ["x"]))


def test_nonneg_tri_state_on_bad_roots():
    # far-off "critical points": certification must fail, never a verdict
    bogus = ApproxRootSet(
        points=((5 + 0j, 5 + 0j, 5 + 0j), (-5 + 0j, 5 + 0j, 5 + 0j)),
        accuracy="1e-8",
        coord_bound=6,
    )
    cert = certify_nonneg(NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"])), build_hermite(bogus))
    assert cert.verdict == "fail"
    assert cert.sigma_hg is None and cert.sigma_hg2 is None


X2 = PolySystem(("x",), [parse_poly("x^2-2", ["x"])])


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(
            lambda: NonnegQuery(X2, parse_poly("y", ["y"])), "g must live in the system's ring", id="nonneg g"
        ),
        pytest.param(
            lambda: lagrange_system(X2, parse_poly("y", ["y"])),
            "g must live in the system's ring",
            id="lagrange g",
        ),
        pytest.param(
            lambda: ball_polynomial(["x", "y"], BallQuery((1,), 1)),
            "center arity does not match the ring",
            id="ball center",
        ),
    ],
)
def test_certificates_guards(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
