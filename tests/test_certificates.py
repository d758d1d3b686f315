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
from hermicert.certify import certify_pipeline
from hermicert.hermite import build_extended_hermite
from hermicert.linalg import NotSymmetricError, RatMatrix
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import MonomialBasis, PolySystem, parse_poly

from conftest import exact_hermite_plus, roots_as_qc

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
    rows = hp.matrix.to_rows()
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
    # g(M) is [[11/4, -4], [-2, 11/4]] and H1 * g(M) = [[33/4, -12], [-8, 11]]
    outcome.h1 = RatMatrix.from_rows([[3, 0], [0, 4]])
    query = BallQuery(center=(Fraction(1),), radius_squared=Fraction(1, 4))
    cert = None
    with pytest.raises(NotSymmetricError):
        cert = ball_from_outcome(outcome, ["x"], query)
    assert cert is None


# -- non-negativity ------------------------------------------------------------------


def test_nonneg_true_for_shifted_coordinate():
    query = NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"]), assume_smooth_bounded=True)
    cert = certify_nonneg(query, circle_critical_roots())
    assert cert.verdict == "true"
    assert cert.sigma_hg == 2 and cert.sigma_hg2 == 2
    assert cert.outcome.hg == RatMatrix.from_rows([[4, 2], [2, 4]])
    assert cert.hg2 == RatMatrix.from_rows([[10, 8], [8, 10]])


def test_nonneg_false_for_plain_coordinate():
    query = NonnegQuery(CIRCLE, parse_poly("x", ["x", "y"]))
    cert = certify_nonneg(query, circle_critical_roots())
    assert cert.verdict == "false"
    assert cert.sigma_hg == 0 and cert.sigma_hg2 == 2


def test_nonneg_fails_on_duplicate_points():
    dup = ApproxRootSet(
        points=((1 + 0j, 0j, -0.5 + 0j), (1 + 0j, 0j, -0.5 + 0j)),
        accuracy="1e-8",
        coord_bound=2,
    )
    cert = certify_nonneg(NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"])), dup)
    assert cert.verdict == "fail" and cert.reason == "duplicate_points"


def test_nonneg_constant_shift_stays_true():
    # L depends on f and grad g only, so g and g + 1 share critical points
    base = certify_nonneg(
        NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"])), circle_critical_roots()
    )
    shifted = certify_nonneg(
        NonnegQuery(CIRCLE, parse_poly("x+3", ["x", "y"])), circle_critical_roots()
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
    cert = certify_nonneg(NonnegQuery(CIRCLE, parse_poly("x+2", ["x", "y"])), bogus)
    assert cert.verdict == "fail"
    assert cert.sigma_hg is None and cert.sigma_hg2 is None
