import random
from fractions import Fraction
from math import gcd, isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from hermicert.numroots import ApproxRootSet
from hermicert.ratrecon import (
    _convergent_pairs,
    denominator_bound,
    rational_reconstruct,
    reconstruct_ints,
)


def brute_force_best(alpha: Fraction, bound: int):
    """Exhaustive oracle: the unique p/q with q <= bound within 1/(2*bound^2),
    or None."""
    radius = Fraction(1, 2 * bound * bound)
    hits = []
    for q in range(1, bound + 1):
        p = round(alpha * q)
        for cand_p in (p - 1, p, p + 1):
            cand = Fraction(cand_p, q)
            if abs(alpha - cand) < radius and cand not in hits:
                hits.append(cand)
    assert len(hits) <= 1
    return hits[0] if hits else None


def fraction_loop_reconstruct(alpha: Fraction, bound: int):
    """The reconstruction loop on Fraction convergents, as it was before
    the continued fraction moved onto integers: the first convergent within
    1/(2*bound^2), or None once a denominator exceeds bound."""
    if alpha < 0:
        found = fraction_loop_reconstruct(-alpha, bound)
        return None if found is None else -found
    radius = Fraction(1, 2 * bound * bound)
    num, den = alpha.numerator, alpha.denominator
    p_prev, q_prev, p_prev2, q_prev2 = 1, 0, 0, 1
    while True:
        a, rem = divmod(num, den)
        p, q = a * p_prev + p_prev2, a * q_prev + q_prev2
        conv = Fraction(p, q)
        if conv.denominator > bound:
            return None
        if abs(alpha - conv) < radius:
            return conv
        if rem == 0:
            return None
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
        num, den = den, rem


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(min_value=-(2**200), max_value=2**200),
    den_bits=st.integers(min_value=0, max_value=200),
    odd=st.integers(min_value=1, max_value=10**6),
    bound=st.integers(min_value=1, max_value=10**12),
    target=st.fractions(max_denominator=10**4),
)
def test_prop_integer_continued_fraction_matches_the_fraction_loop(num, den_bits, odd, bound, target):
    # powers of two, as in exact power sums, and general denominators; num
    # itself, and a value near a rational with a small denominator
    for den in (1 << den_bits, odd << den_bits):
        for n in (num, target.numerator * den // target.denominator + num % 5):
            want = fraction_loop_reconstruct(Fraction(n, den), bound)
            got = reconstruct_ints(n, den, bound)
            assert got == (None if want is None else (want.numerator, want.denominator))
            assert rational_reconstruct(Fraction(n, den), bound) == want


def test_convergents_zero():
    assert list(_convergent_pairs(0, 1)) == [(0, 1)]


def test_convergents_reproduce_exact_value():
    cs = list(_convergent_pairs(355, 113))
    assert cs[-1] == (355, 113)


def test_convergents_include_one_third():
    alpha = Fraction(333333, 1000000)
    cs = list(_convergent_pairs(alpha.numerator, alpha.denominator))
    assert (1, 3) in cs
    assert brute_force_best(alpha, 10) == Fraction(1, 3)


def test_reconstruct_exact_within_bound():
    assert rational_reconstruct(Fraction(1, 2), 10) == Fraction(1, 2)


def test_reconstruct_one_third():
    alpha = Fraction(3333333, 10000000)
    assert rational_reconstruct(alpha, 100) == Fraction(1, 3)
    assert brute_force_best(alpha, 100) == Fraction(1, 3)


def test_reconstruct_not_found():
    alpha = Fraction(707106781, 10**9)
    assert rational_reconstruct(alpha, 10) is None
    assert brute_force_best(alpha, 10) is None


def test_reconstruct_negative_sign_split():
    assert rational_reconstruct(Fraction(-1, 3) + Fraction(1, 10**9), 100) == Fraction(-1, 3)


def test_reconstruct_matches_brute_force_oracle():
    rng = random.Random(20240811)
    bound = 40
    for _ in range(300):
        alpha = Fraction(rng.randint(-4000, 4000), rng.randint(1, 4000))
        expected = brute_force_best(abs(alpha), bound)
        if expected is not None and alpha < 0:
            expected = -expected
        assert rational_reconstruct(alpha, bound) == expected


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=-400, max_value=400),
    q=st.integers(min_value=1, max_value=150),
    dn=st.integers(min_value=-10**6 + 1, max_value=10**6 - 1),
)
def test_reconstruct_recovers_under_bounded_perturbation(p, q, dn):
    target = Fraction(p, q)
    bound = 150
    delta = Fraction(dn, 2 * bound * bound * 10**6)
    assert abs(delta) < Fraction(1, 2 * bound * bound)
    assert rational_reconstruct(target + delta, bound) == target


@settings(max_examples=60, deadline=None)
@given(p=st.integers(min_value=0, max_value=10**6), q=st.integers(min_value=1, max_value=10**6))
def test_convergent_denominators_increase_and_alternate(p, q):
    alpha = Fraction(p, q)
    pairs = list(_convergent_pairs(p, q))
    assert all(gcd(a, b) == 1 for a, b in pairs)
    cs = [Fraction(a, b) for a, b in pairs]
    assert cs[-1] == alpha
    dens = [b for _, b in pairs]
    assert all(a < b for a, b in zip(dens[1:], dens[2:]))
    signs = [c - alpha for c in cs[:-1]]
    for a, b in zip(signs, signs[1:]):
        assert a == 0 or b == 0 or (a < 0) != (b < 0)


def test_reconstruct_output_always_satisfies_constraints():
    rng = random.Random(7)
    for _ in range(200):
        alpha = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        bound = rng.randint(1, 1000)
        out = rational_reconstruct(alpha, bound)
        if out is not None:
            assert 1 <= out.denominator <= bound
            assert abs(alpha - out) < Fraction(1, 2 * bound * bound)


def error_pair(E, k, n, d, M):
    """err = E*k*n*d*M^(d-1) as the pair (num, den) that
    hermite.reconstruct_hermite passes, unreduced."""
    E, M = Fraction(E), Fraction(M)
    return E.numerator * k * n * d * M.numerator ** (d - 1), E.denominator * M.denominator ** (d - 1)


def reference_bound(E, k, n, d, M):
    """ceil((2*E*k*n*d*M^(d-1))^(-1/2)) from Fractions, or None when the
    product is >= 1: the least b with b*b*x >= 1, found from isqrt(1/x)."""
    x = 2 * Fraction(E) * k * n * d * Fraction(M) ** (d - 1)
    if x >= 1:
        return None
    b = isqrt(int(1 / x))
    while b * b * x < 1:
        b += 1
    while b > 1 and (b - 1) * (b - 1) * x >= 1:
        b -= 1
    return b


def test_denominator_bound_simple():
    assert denominator_bound(*error_pair(Fraction(1, 200), 1, 1, 1, 1)) == 10


def test_denominator_bound_exact_integer_sqrt():
    # 2*E*k*n*d*M^(d-1) = 128e-10; ceil(sqrt(10^10/128)) computed exactly
    b = denominator_bound(*error_pair(Fraction(1, 10**10), 2, 1, 4, 2))
    product = 2 * Fraction(1, 10**10) * 2 * 1 * 4 * 2**3
    assert b == 8839
    assert b * b * product >= 1 > (b - 1) * (b - 1) * product


def test_denominator_bound_not_usable():
    assert denominator_bound(*error_pair(1, 1, 1, 1, 1)) is None
    assert denominator_bound(1, 2) is None  # 2 * err = 1 exactly


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    e=st.fractions(min_value=Fraction(1, 10**30), max_value=Fraction(1, 2)),
    m=st.fractions(min_value=Fraction(1, 10**3), max_value=10**3),
    k=st.integers(1, 100),
    n=st.integers(1, 6),
    d=st.integers(1, 12),
    common=st.integers(1, 10**6),
)
def test_denominator_bound_matches_the_fraction_reference(e, m, k, n, d, common):
    # the pair need not be in lowest terms: reconstruct_hermite passes it unreduced
    num, den = error_pair(e, k, n, d, m)
    assert denominator_bound(num * common, den * common) == reference_bound(e, k, n, d, m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    err=st.fractions(min_value=Fraction(1, 10**20), max_value=Fraction(1, 3)),
    p=st.integers(-(10**6), 10**6),
    q=st.integers(1, 10**4),
    shift=st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
)
def test_reconstruction_at_the_denominator_bound_stays_within_err(err, p, q, shift):
    # reconstruct_hermite accepts p/q without comparing it with err: b is the
    # least with 2*err*b^2 >= 1, and a result lies within 1/(2*b^2) <= err
    b = denominator_bound(err.numerator, err.denominator)
    value = Fraction(p, q) + shift * err
    found = reconstruct_ints(value.numerator, value.denominator, b)
    assert found is None or abs(value - Fraction(*found)) < err


def test_exact_fraction_of_float_is_dyadic():
    # a float accuracy is stored as the dyadic rational the double holds
    f = ApproxRootSet(points=((0j,),), accuracy=0.1, coord_bound=1).accuracy
    assert f == Fraction(0.1)
    assert f != Fraction(1, 10)
    assert gcd(f.denominator, 2) == 2
