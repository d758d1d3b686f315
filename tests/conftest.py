"""Shared oracle helpers: exact complex-rational arithmetic and direct
construction of Hermite matrices from known root sets.

These deliberately avoid the library's construction path so they can serve
as independent cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from hermicert.hermite import HermitePlus, HermiteProvenance
from hermicert.linalg import RatMatrix
from hermicert.polynomials import ExtendedBasis, MonomialBasis, MultiPoly, monomial_mul


class QC:
    """Complex number with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __pow__(self, e: int):
        out = QC(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def matrix_trace(m: RatMatrix) -> Fraction:
    return sum((m.entry(i, i) for i in range(m.rows)), Fraction(0))


def newton_girard_power_sums(char_coeffs, upto: int) -> list[Fraction]:
    """Power sums p_0..p_upto of the roots of a monic polynomial.

    Newton's identities applied to descending coefficients
    [1, a_1, ..., a_k]: for m <= k,  p_m = -m*a_m - sum a_i p_(m-i), and for
    m > k the recurrence drops the m*a_m term.
    """
    cs = [Fraction(c) for c in char_coeffs]
    if not cs or cs[0] != 1:
        raise ValueError("expected a monic polynomial")
    k = len(cs) - 1
    a = cs[1:]
    sums = [Fraction(k)]
    for m in range(1, upto + 1):
        acc = Fraction(0)
        for i in range(1, min(m - 1, k) + 1):
            acc += a[i - 1] * sums[m - i]
        if m <= k:
            acc += m * a[m - 1]
        sums.append(-acc)
    return sums


def exact_power_sum(points: list[tuple[QC, ...]], alpha, weights=None) -> Fraction:
    """sum_t w_t * z_t^alpha; must come out real."""
    total = QC(0)
    for t, p in enumerate(points):
        v = QC(weights[t]) if weights else QC(1)
        for z, e in zip(p, alpha):
            if e:
                v = v * z**e
        total = total + v
    assert total.im == 0, f"power sum {alpha} is not real: {total.im}"
    return total.re


def exact_hermite_plus(
    points: list[tuple[QC, ...]], basis: MonomialBasis, coord_bound=4
) -> HermitePlus:
    """Extended Hermite matrix straight from exact points (the definition),
    bypassing floats and reconstruction entirely."""
    ext = ExtendedBasis(basis)
    sums: dict = {}
    rows = []
    for bi in ext.extension:
        row = []
        for bj in ext.extension:
            key = monomial_mul(bi, bj)
            if key not in sums:
                sums[key] = exact_power_sum(points, key)
            row.append(sums[key])
        rows.append(row)
    return HermitePlus(
        matrix=RatMatrix.from_rows(rows),
        labels=ext,
        provenance=HermiteProvenance(
            Fraction(1, 10**9), Fraction(coord_bound), len(points), {}
        ),
    )


def univariate_from_roots(
    real_roots: list[Fraction], complex_pairs: list[tuple[Fraction, Fraction]]
) -> MultiPoly:
    """Monic polynomial with the given real roots and conjugate pairs c +/- d*i."""
    poly = MultiPoly.constant(["x"], 1)
    x = MultiPoly.variable(["x"], 0)
    for r in real_roots:
        poly = poly * (x - MultiPoly.constant(["x"], r))
    for c, d in complex_pairs:
        quad = x * x - x.scale(2 * c) + MultiPoly.constant(["x"], c * c + d * d)
        poly = poly * quad
    return poly


def roots_as_qc(
    real_roots: list[Fraction], complex_pairs: list[tuple[Fraction, Fraction]]
) -> list[tuple[QC, ...]]:
    pts = [(QC(r),) for r in real_roots]
    for c, d in complex_pairs:
        pts.append((QC(c, d),))
        pts.append((QC(c, -d),))
    return pts


def wrong_signature_kernel(kernels, name: str):
    """A faulty stand-in for kernels.inertia or kernels.charpoly whose
    signature is minus the true one, so it is wrong whenever the true
    signature is non-zero: the inertia with its counts swapped, or the
    characteristic polynomial of -A."""
    right = getattr(kernels, name)
    if name == "inertia":

        def wrong(k, nums, dens):
            pos, neg, zero = right(k, nums, dens)
            return neg, pos, zero

    else:

        def wrong(k, nums, dens):
            cn, cd = right(k, nums, dens)
            return [-c if i % 2 else c for i, c in enumerate(cn)], cd

    return wrong
