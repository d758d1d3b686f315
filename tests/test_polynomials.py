import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermicert.linalg import RatMatrix, char_poly, sign_variations
from hermicert.polynomials import (
    ExtendedBasis,
    MonomialBasis,
    MultiPoly,
    ParseError,
    PolySystem,
    is_connected_to_1,
    iter_monomials,
    monomial_str,
    parse_monomial,
    parse_poly,
    univ_derivative,
    univ_gcd,
)

from conftest import matrix_trace, newton_girard_power_sums, univariate_from_roots


# -- parsing ---------------------------------------------------------------


def test_parse_quadratic_minus_two():
    p = parse_poly("x1^2 - 2", ["x1"])
    assert p.terms == {(2,): Fraction(1), (0,): Fraction(-2)}


def test_parse_circle_embedded_in_three_vars():
    p = parse_poly("x^2+y^2-1", ["x", "y", "l"])
    assert p.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 0): -1}


def test_parse_fraction_coefficients():
    p = parse_poly("3/4*x1*x2 - x2^3", ["x1", "x2"])
    assert p.terms == {(1, 1): Fraction(3, 4), (0, 3): Fraction(-1)}


def test_parse_reports_position_of_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_poly("x + zz", ["x"])
    assert "zz" in str(err.value) and err.value.position == 4


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError):
        parse_poly("x + + y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("2x", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x^1/2", ["x"])


def test_print_parse_round_trip_canonicalizes():
    p = parse_poly("y^2 + x^2 + 2 - 1 - x^2", ["x", "y"])
    assert p.to_text() == "y^2 + 1"
    assert parse_poly(p.to_text(), ["x", "y"]) == p


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_parse_print_identity_on_random_polys(data):
    arity = data.draw(st.integers(min_value=1, max_value=3))
    variables = ["x", "y", "z"][:arity]
    n_terms = data.draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in range(arity))
        coeff = Fraction(
            data.draw(st.integers(min_value=-30, max_value=30)),
            data.draw(st.integers(min_value=1, max_value=12)),
        )
        terms[mono] = coeff
    p = MultiPoly(variables, terms)
    assert parse_poly(p.to_text(), variables) == p


# -- calculus and evaluation ------------------------------------------------


def test_partial_derivatives():
    p = parse_poly("x^2 - 2", ["x"])
    assert p.partial_derivative(0) == parse_poly("2*x", ["x"])
    c = parse_poly("x^2 + y^2 - 1", ["x", "y"])
    assert c.partial_derivative(1) == parse_poly("2*y", ["x", "y"])
    assert MultiPoly.constant(["x"], 3).partial_derivative(0).is_zero()


def test_eval_complex_near_root_is_tiny():
    p = parse_poly("x^2 - 2", ["x"])
    value = p.eval_complex([1.41421356])
    assert value == 1.41421356**2 - 2
    assert abs(value) < 1e-8


def test_eval_complex_at_zero_gives_constant_term():
    p = parse_poly("x^2 + 3*x - 7", ["x"])
    assert p.eval_complex([0j]) == -7


def test_eval_complex_ignores_unused_variables():
    p = parse_poly("x+2", ["x", "y", "l"])
    assert p.eval_complex([1, 0, -0.5]) == 3


def test_eval_at_matrices_examples():
    p = parse_poly("x^2 - 2", ["x"])
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    assert p.eval_at_matrices([m]).is_zero()
    assert MultiPoly.constant(["x"], 1).eval_at_matrices([m]) == RatMatrix.identity(2)
    cubic = parse_poly("x^3 - 3*x + 2", ["x"])  # (x-1)^2 (x+2)
    m2 = RatMatrix.from_rows([[0, 2], [1, -1]])
    assert cubic.eval_at_matrices([m2]).is_zero()


def test_eval_at_matrices_is_ring_homomorphism_on_commuting_family():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 3)
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)]
        )
        mats = [m, m @ m]  # powers of one matrix commute
        vs = ["a", "b"]
        p = MultiPoly(vs, {(1, 0): Fraction(2), (0, 1): Fraction(-1), (0, 0): Fraction(3)})
        q = MultiPoly(vs, {(1, 1): Fraction(1), (2, 0): Fraction(1, 2)})
        assert (p * q).eval_at_matrices(mats) == p.eval_at_matrices(mats) @ q.eval_at_matrices(mats)
        assert (p + q).eval_at_matrices(mats) == p.eval_at_matrices(mats) + q.eval_at_matrices(mats)


def test_eval_at_matrices_dimension_mismatch():
    p = parse_poly("x + y", ["x", "y"])
    with pytest.raises(ValueError):
        p.eval_at_matrices([RatMatrix.identity(2)])
    with pytest.raises(ValueError):
        p.eval_at_matrices([RatMatrix.identity(2), RatMatrix.identity(3)])


# -- univariate helpers ------------------------------------------------------


def test_univ_gcd_examples():
    assert univ_gcd([1, 0, -1], [1, -1]) == [1, -1]
    assert univ_gcd([1, -6, 8], [2, -6]) == [1]
    assert univ_gcd([1, -2, 1], [2, -2]) == [1, -1]


def test_sign_variations_examples():
    assert sign_variations([1, -6, 8]) == 2
    assert sign_variations([1, 6, 8]) == 0
    assert sign_variations([1, 0, -4]) == 1


def test_newton_girard_examples():
    assert newton_girard_power_sums([1, 0, -2], 4) == [2, 0, 4, 0, 8]
    c = Fraction(5, 7)
    assert newton_girard_power_sums([1, -c], 2) == [1, c, c * c]
    assert newton_girard_power_sums([1, 1, -2], 2) == [2, -1, 5]


def test_newton_girard_equals_traces_of_matrix_powers():
    rng = random.Random(12)
    for _ in range(12):
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        )
        sums = newton_girard_power_sums(char_poly(m), 6)
        power = RatMatrix.identity(3)
        for t in range(7):
            assert sums[t] == matrix_trace(power)
            power = power @ m


def test_descartes_on_all_real_factored_polynomials():
    rng = random.Random(9)
    for _ in range(25):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        poly = univariate_from_roots(roots, [])
        coeffs = [poly.terms.get((d,), Fraction(0)) for d in range(poly.total_degree(), -1, -1)]
        flipped = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
        positive = sum(1 for r in roots if r > 0)
        negative = sum(1 for r in roots if r < 0)
        assert sign_variations(coeffs) - sign_variations(flipped) == positive - negative


def test_univ_eval_and_derivative():
    p = [Fraction(1), Fraction(0), Fraction(-2)]  # x^2 - 2
    assert univ_derivative(p) == [2, 0]
    assert univ_derivative([0, 1, -3, 2]) == [2, -3]  # leading zeros are dropped


# -- bases -------------------------------------------------------------------


def test_monomial_basis_validation():
    MonomialBasis([(0,), (1,), (2,)])
    with pytest.raises(ValueError):
        MonomialBasis([(1,), (0,)])  # 1 must come first
    with pytest.raises(ValueError):
        MonomialBasis([(0,), (2,)])  # gap: x^2 without x
    with pytest.raises(ValueError):
        MonomialBasis([(0,), (1,), (1,)])  # duplicates


def test_connectedness_predicate():
    assert is_connected_to_1([(0, 0), (1, 0), (1, 1)])
    assert not is_connected_to_1([(0, 0), (1, 1)])


def test_extended_basis_univariate():
    ext = ExtendedBasis(MonomialBasis([(0,), (1,)]))
    assert ext.extension == ((0,), (1,), (2,))
    assert ext.index_of((2,)) == 2


def test_extended_basis_multivariate_order_and_prefix():
    ext = ExtendedBasis(MonomialBasis([(0, 0, 0), (1, 0, 0)]))
    assert ext.extension[:2] == ((0, 0, 0), (1, 0, 0))
    assert ext.extension == (
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
    )


def test_iter_monomials_scan_order():
    assert list(iter_monomials(2, 2)) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomial_strings_round_trip():
    vs = ["x", "y"]
    for mono in iter_monomials(2, 3):
        assert parse_monomial(monomial_str(mono, vs), vs) == mono


def test_poly_system_requires_shared_ring():
    with pytest.raises(ValueError):
        PolySystem(["x"], [parse_poly("x", ["x"]), parse_poly("y", ["y"])])
