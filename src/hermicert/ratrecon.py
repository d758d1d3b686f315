"""Continued-fraction rational number reconstruction with exact bounds.

The continued fraction runs on integers: ``reconstruct_ints`` takes a value
as a numerator and a positive denominator, and every comparison is an
integer cross-multiplication.  Hermite construction calls it directly on
exact power sums over powers of two.  ``rational_reconstruct`` is its
``fractions.Fraction`` entry point; floats are converted to the exact
dyadic rational they denote (never through a decimal detour), so every
comparison there is exact too.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator

RationalLike = Fraction | int | float | str


def _convergent_pairs(num: int, den: int) -> Iterator[tuple[int, int]]:
    """Convergents p/q of num/den >= 0 (den > 0) as pairs, in order.

    Each pair is in lowest terms.  Denominators are strictly increasing from
    the second convergent on, and the last convergent is num/den.
    """
    p_prev, q_prev = 1, 0
    p_prev2, q_prev2 = 0, 1
    while True:
        a, rem = divmod(num, den)
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        yield p, q
        if rem == 0:
            return
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = p, q
        num, den = den, rem


def reconstruct_ints(num: int, den: int, bound: int) -> tuple[int, int] | None:
    """The unique p/q with 1 <= q <= bound and |num/den - p/q| < 1/(2*bound^2).

    den must be positive.  Returns (p, q) in lowest terms, or None when no
    such fraction exists.  Uniqueness makes the first qualifying convergent
    the answer.  The distance test is the integer inequality
    |num*q - p*den| * 2*bound^2 < den*q, so a non-None result always
    satisfies both constraints.  Negative values are reconstructed by
    sign-splitting.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    sign = -1 if num < 0 else 1
    num = abs(num)
    inv_radius = 2 * bound * bound
    for p, q in _convergent_pairs(num, den):
        if q > bound:
            return None
        if abs(num * q - p * den) * inv_radius < den * q:
            return sign * p, q
    return None


def rational_reconstruct(alpha: RationalLike, bound: int) -> Fraction | None:
    """reconstruct_ints on an exact rational: the unique p/q with q <= bound
    and |alpha - p/q| < 1/(2*bound^2), or None when no such fraction exists.
    """
    a = Fraction(alpha)
    found = reconstruct_ints(a.numerator, a.denominator, bound)
    return None if found is None else Fraction(*found)


def denominator_bound(
    accuracy: RationalLike, k: int, n: int, d: int, coord_bound: RationalLike
) -> int | None:
    """Reconstruction denominator bound ceil((2*E*k*n*d*M^(d-1))^(-1/2)).

    E is the root accuracy, k the number of points, n the number of
    variables, d the monomial degree and M the coordinate bound.  Everything
    is evaluated exactly (integer square root with true ceiling, never
    rounded optimistically).  Returns None when 2*E*k*n*d*M^(d-1) >= 1,
    i.e. the accuracy is too poor for any reconstruction.
    """
    E = Fraction(accuracy)
    M = Fraction(coord_bound)
    if E <= 0 or M <= 0:
        raise ValueError("accuracy and coordinate bound must be positive")
    if min(k, n, d) < 1:
        raise ValueError("k, n, d must be >= 1")
    x = 2 * E * k * n * d * M ** (d - 1)
    if x >= 1:
        return None
    # smallest b with b*b >= 1/x, i.e. b*b*p >= q for x = p/q
    p, q = x.numerator, x.denominator
    b = isqrt(q // p)
    while b * b * p < q:
        b += 1
    while b > 1 and (b - 1) * (b - 1) * p >= q:
        b -= 1
    return b
