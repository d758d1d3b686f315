"""Continued-fraction rational number reconstruction with exact bounds.

The continued fraction runs on integers: ``reconstruct_ints`` takes a value
as a numerator and a positive denominator, and every comparison is an
integer cross-multiplication.  Hermite construction calls it directly on
exact power sums over powers of two, with the bound that
``denominator_bound`` gives for the error bound of each entry.
``rational_reconstruct`` is its ``fractions.Fraction`` entry point; floats
are converted to the exact dyadic rational they denote (never through a
decimal detour), so every comparison there is exact too.
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


def denominator_bound(err_num: int, err_den: int) -> int | None:
    """The reconstruction denominator bound of an error bound
    err = err_num / err_den > 0: the least b with 2*err*b^2 >= 1, that is
    ceil((2*err)^(-1/2)), by one exact integer square root.  Returns None
    when 2*err >= 1, i.e. the accuracy is too poor for any reconstruction.

    hermite.reconstruct_hermite passes err = E*k*n*d*M^(d-1) for the
    entries of degree d.
    """
    if 2 * err_num >= err_den:
        return None
    # b*b >= c = ceil(err_den / (2*err_num)) <=> b > isqrt(c - 1)
    return isqrt((err_den - 1) // (2 * err_num)) + 1
