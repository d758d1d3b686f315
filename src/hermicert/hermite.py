"""Construction of exact rational extended Hermite matrices from points.

The approximate matrix is assembled in complex doubles from the point power
sums; each distinct power-sum monomial is then reconstructed once with a
degree-dependent denominator bound and written into every matching entry,
so symmetry and Hankel coherence hold by construction.  Success here is
heuristic; soundness comes entirely from the certify module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import RatMatrix, rank, max_nonsingular_connected_submatrix
from .numroots import ApproxRootSet
from .polynomials import (
    ExtendedBasis,
    Monomial,
    MonomialBasis,
    MultiPoly,
    monomial_mul,
)
from .ratrecon import RationalLike, denominator_bound, exact_fraction, rational_reconstruct


class ReconstructionFailedError(RuntimeError):
    """A matrix entry could not be reconstructed as a rational number.

    reason is one of "not_found", "not_usable", "imaginary_too_large".
    """

    def __init__(self, entry: tuple[int, int], reason: str, detail: str = ""):
        self.entry = entry
        self.reason = reason
        msg = f"entry {entry}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonRadicalRankError(RuntimeError):
    """rank(H+) exceeds the size of the connected nonsingular block."""


@dataclass(frozen=True)
class HermiteProvenance:
    accuracy: Fraction
    coord_bound: Fraction
    point_count: int
    bounds: dict = field(default_factory=dict)  # power-sum monomial -> denominator bound


@dataclass(frozen=True)
class HermitePlus:
    """Extended Hermite matrix with its labelling basis and provenance.

    A correctly built instance is symmetric and Hankel-coherent (equal
    monomial products give equal entries); adversarial instances are
    representable on purpose, certification decides their fate.
    """

    matrix: RatMatrix
    labels: ExtendedBasis
    provenance: HermiteProvenance

    def __post_init__(self):
        l = len(self.labels)
        if self.matrix.rows != l or self.matrix.cols != l:
            raise ValueError("matrix size does not match the extended basis")

    def base_size(self) -> int:
        return len(self.labels.base)

    def is_coherent(self) -> bool:
        """Symmetry plus equal entries on equal monomial products."""
        if not self.matrix.is_symmetric():
            return False
        seen: dict[Monomial, Fraction] = {}
        ext = self.labels.extension
        for i, bi in enumerate(ext):
            for j, bj in enumerate(ext):
                key = monomial_mul(bi, bj)
                value = self.matrix.entry(i, j)
                if seen.setdefault(key, value) != value:
                    return False
        return True


def approx_extended_hermite(
    points: ApproxRootSet | Sequence[Sequence[complex]],
    basis: ExtendedBasis,
    weight: MultiPoly | None = None,
) -> list[list[complex]]:
    """Approximate extended Hermite matrix; entry (i,j) is the weighted
    power sum sum_t g(z_t) * z_t^(alpha_i + alpha_j) in complex doubles.

    The weight defaults to 1.  Weighted variants are diagnostic only; the
    certified weighted matrices are always derived by the certify module.
    """
    pts = points.points if isinstance(points, ApproxRootSet) else [tuple(p) for p in points]
    arity = basis.base.arity
    for p in pts:
        if len(p) != arity:
            raise ValueError("point arity does not match the basis")
    gvals = [1 + 0j] * len(pts)
    if weight is not None:
        if len(weight.variables) != arity:
            raise ValueError("weight polynomial arity mismatch")
        gvals = [weight.eval_complex(p) for p in pts]
    ext = basis.extension
    max_exp = [0] * arity
    for mono in ext:
        for i, e in enumerate(mono):
            max_exp[i] = max(max_exp[i], 2 * e)
    coord_powers = []
    for p in pts:
        powers = []
        for i, z in enumerate(p):
            col = [1 + 0j]
            for _ in range(max_exp[i]):
                col.append(col[-1] * z)
            powers.append(col)
        coord_powers.append(powers)

    def power_sum(alpha: Monomial) -> complex:
        total = 0j
        for t in range(len(pts)):
            v = gvals[t]
            pw = coord_powers[t]
            for i, e in enumerate(alpha):
                if e:
                    v *= pw[i][e]
            total += v
        return total

    sums: dict[Monomial, complex] = {}
    l = len(ext)
    out = [[0j] * l for _ in range(l)]
    for i in range(l):
        for j in range(l):
            key = monomial_mul(ext[i], ext[j])
            if key not in sums:
                sums[key] = power_sum(key)
            out[i][j] = sums[key]
    return out


def reconstruct_hermite(
    approx: Sequence[Sequence[complex]],
    basis: ExtendedBasis,
    accuracy: RationalLike,
    point_count: int,
    arity: int,
    coord_bound: RationalLike,
) -> HermitePlus:
    """Rationalize an approximate extended Hermite matrix.

    Each distinct power-sum monomial alpha (degree d = |alpha|) is
    reconstructed once with denominator bound ceil((2*E*k*n*d*M^(d-1))^(-1/2));
    its imaginary part must stay within the same perturbation bound
    E*k*n*d*M^(d-1) because the exact entry is real.  For d = 0 the bound
    degenerates to zero error, and the entry is taken as the exact dyadic
    value of the float.  The reconstructed value is re-checked against the
    perturbation bound in exact arithmetic before acceptance.
    """
    E = exact_fraction(accuracy)
    M = exact_fraction(coord_bound)
    if arity != basis.base.arity:
        raise ValueError("arity does not match the basis")
    ext = basis.extension
    l = len(ext)
    if len(approx) != l or any(len(row) != l for row in approx):
        raise ValueError("approximate matrix size does not match the basis")

    first_pos: dict[Monomial, tuple[int, int]] = {}
    for i in range(l):
        for j in range(l):
            first_pos.setdefault(monomial_mul(ext[i], ext[j]), (i, j))

    values: dict[Monomial, Fraction] = {}
    bounds: dict[Monomial, int] = {}
    for alpha, (i, j) in sorted(first_pos.items()):
        z = complex(approx[i][j])
        re = exact_fraction(z.real)
        im = exact_fraction(z.imag)
        d = sum(alpha)
        if d == 0:
            if im != 0:
                raise ReconstructionFailedError((i, j), "imaginary_too_large", "degree-0 entry")
            values[alpha] = re
            bounds[alpha] = 0
            continue
        err = E * point_count * arity * d * M ** (d - 1)
        if abs(im) > err:
            raise ReconstructionFailedError(
                (i, j), "imaginary_too_large", f"|Im| = {float(abs(im)):.3e} > bound {float(err):.3e}"
            )
        b = denominator_bound(E, point_count, arity, d, M)
        if b is None:
            raise ReconstructionFailedError(
                (i, j), "not_usable", "2*E*k*n*d*M^(d-1) >= 1: accuracy too poor"
            )
        found = rational_reconstruct(re, b)
        if found is None:
            raise ReconstructionFailedError(
                (i, j), "not_found", f"no rational with denominator <= {b} near {float(re):.12g}"
            )
        if abs(re - found) > err:
            raise ReconstructionFailedError(
                (i, j), "not_found", "reconstructed value violates the perturbation bound"
            )
        values[alpha] = found
        bounds[alpha] = b

    rows = [[values[monomial_mul(ext[i], ext[j])] for j in range(l)] for i in range(l)]
    return HermitePlus(
        matrix=RatMatrix.from_rows(rows),
        labels=basis,
        provenance=HermiteProvenance(E, M, point_count, bounds),
    )


def build_extended_hermite(
    points: ApproxRootSet, basis: MonomialBasis
) -> HermitePlus:
    """Approximate then reconstruct the extended Hermite matrix for g = 1."""
    ext = ExtendedBasis(basis)
    approx = approx_extended_hermite(points, ext)
    return reconstruct_hermite(
        approx, ext, points.accuracy, len(points), basis.arity, points.coord_bound
    )


def build_nonradical(full: HermitePlus) -> HermitePlus:
    """Hermite construction when the point multiset carries multiplicities.

    Takes the full extended matrix built from the points, restricts it to the
    largest connected nonsingular block of the base submatrix, and fails
    unless rank(H+) matches that block size.  The returned matrix is indexed
    by the reduced extended basis, whose base size is the number of distinct
    roots (kbar); its provenance keeps the original point count (the total
    multiplicity).
    """
    basis = full.labels.base
    k = len(basis)
    if full.provenance.point_count != k:
        raise ValueError("basis size must equal the number of points (with multiplicity)")
    h1 = full.matrix.submatrix(range(k), range(k))
    selection = max_nonsingular_connected_submatrix(h1, basis.monomials)
    kbar = len(selection.monomials)
    if rank(full.matrix) > kbar:
        raise NonRadicalRankError(
            f"rank of the extended matrix exceeds the connected block size {kbar}"
        )
    reduced_ext = ExtendedBasis(MonomialBasis(selection.monomials))
    idx = [full.labels.index_of(m) for m in reduced_ext.extension]
    sub = full.matrix.submatrix(idx, idx)
    products = {monomial_mul(a, c) for a in reduced_ext.extension for c in reduced_ext.extension}
    bounds = {alpha: b for alpha, b in full.provenance.bounds.items() if alpha in products}
    prov = HermiteProvenance(
        full.provenance.accuracy, full.provenance.coord_bound, full.provenance.point_count, bounds
    )
    return HermitePlus(sub, reduced_ext, prov)
