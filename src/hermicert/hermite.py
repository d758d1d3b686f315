"""Construction of exact rational extended Hermite matrices from points.

One power sum is computed in complex doubles for each distinct label
product of the extended basis; each is then reconstructed once with a
degree-dependent denominator bound and written into every entry that holds
it, through the basis's product_index, so symmetry and Hankel coherence
hold by construction.  Success here is heuristic; soundness comes entirely
from the certify module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import ConnectedSelection, RatMatrix, _connected_scan, _reaching_rank, rank
from .numroots import ApproxRootSet
from .polynomials import ExtendedBasis, Monomial, MonomialBasis
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


def approx_extended_hermite(points: ApproxRootSet, basis: ExtendedBasis) -> list[complex]:
    """One power sum sum_t z_t^alpha in complex doubles per distinct label
    product alpha, in the order of basis.products.

    Entry (i, j) of the extended Hermite matrix is the power sum of
    b_i * b_j.  Weighted matrices H_g are never approximated: the certify
    module derives them exactly from the certified multiplication matrices.
    """
    arity = basis.base.arity
    for p in points.points:
        if len(p) != arity:
            raise ValueError("point arity does not match the basis")
    max_exp = [max(e) for e in zip(*basis.products)]
    coord_powers = []
    for p in points.points:
        powers = []
        for i, z in enumerate(p):
            col = [1 + 0j]
            for _ in range(max_exp[i]):
                col.append(col[-1] * z)
            powers.append(col)
        coord_powers.append(powers)

    def power_sum(alpha: Monomial) -> complex:
        total = 0j
        for pw in coord_powers:
            v = 1 + 0j
            for i, e in enumerate(alpha):
                if e:
                    v *= pw[i][e]
            total += v
        return total

    return [power_sum(alpha) for alpha in basis.products]


def reconstruct_hermite(
    sums: Sequence[complex],
    basis: ExtendedBasis,
    accuracy: RationalLike,
    point_count: int,
    coord_bound: RationalLike,
) -> HermitePlus:
    """Rationalize the approximate power sums of an extended Hermite matrix.

    sums holds one power sum per distinct label product alpha, in the order
    of basis.products.  Each alpha (degree d = |alpha|) is reconstructed
    once with denominator bound ceil((2*E*k*n*d*M^(d-1))^(-1/2)); its
    imaginary part must stay within the same perturbation bound
    E*k*n*d*M^(d-1) because the exact entry is real.  Both depend on d
    alone and are computed once per degree.  For d = 0 the bound
    degenerates to zero error, and the entry is taken as the exact dyadic
    value of the float.  The reconstructed value is re-checked against the
    perturbation bound in exact arithmetic before acceptance.  A failure
    names the first entry (i, j), in row-major order, that holds the
    failing product.
    """
    E = exact_fraction(accuracy)
    M = exact_fraction(coord_bound)
    arity = basis.base.arity
    products = basis.products
    if len(sums) != len(products):
        raise ValueError("power-sum count does not match the basis")
    l = len(basis)
    degrees = {sum(alpha) for alpha in products} - {0}
    errs = {d: E * point_count * arity * d * M ** (d - 1) for d in degrees}
    dbounds = {d: denominator_bound(E, point_count, arity, d, M) for d in degrees}

    def fail(pos: int, reason: str, detail: str):
        entry = divmod(basis.product_index.index(pos), l)
        return ReconstructionFailedError(entry, reason, detail)

    nums, dens = [], []
    bounds: dict[Monomial, int] = {}
    for pos, (alpha, z) in enumerate(zip(products, sums)):
        z = complex(z)
        re = exact_fraction(z.real)
        im = exact_fraction(z.imag)
        d = sum(alpha)
        if d == 0:
            if im != 0:
                raise fail(pos, "imaginary_too_large", "degree-0 entry")
            found = re
            bounds[alpha] = 0
        else:
            err = errs[d]
            if abs(im) > err:
                raise fail(
                    pos, "imaginary_too_large", f"|Im| = {float(abs(im)):.3e} > bound {float(err):.3e}"
                )
            b = dbounds[d]
            if b is None:
                raise fail(pos, "not_usable", "2*E*k*n*d*M^(d-1) >= 1: accuracy too poor")
            found = rational_reconstruct(re, b)
            if found is None:
                raise fail(pos, "not_found", f"no rational with denominator <= {b} near {float(re):.12g}")
            if abs(re - found) > err:
                raise fail(pos, "not_found", "reconstructed value violates the perturbation bound")
            bounds[alpha] = b
        nums.append(found.numerator)
        dens.append(found.denominator)

    return HermitePlus(
        matrix=RatMatrix(
            l, l, [nums[p] for p in basis.product_index], [dens[p] for p in basis.product_index]
        ),
        labels=basis,
        provenance=HermiteProvenance(E, M, point_count, bounds),
    )


def build_extended_hermite(
    points: ApproxRootSet, basis: MonomialBasis
) -> HermitePlus:
    """Approximate then reconstruct the extended Hermite matrix for g = 1."""
    ext = ExtendedBasis(basis)
    sums = approx_extended_hermite(points, ext)
    return reconstruct_hermite(sums, ext, points.accuracy, len(points), points.coord_bound)


def build_nonradical(full: HermitePlus, selection: ConnectedSelection | None = None) -> HermitePlus:
    """Hermite construction when the point multiset carries multiplicities.

    Takes the full extended matrix built from the points, restricts it to the
    largest connected nonsingular block of the base submatrix, and fails
    unless rank(H+) matches that block size.  The block is the connected
    scan of H1 (given when the caller made it), which must reach rank H1.
    The returned matrix is indexed by the reduced extended basis, whose base
    size is the number of distinct roots (kbar); its provenance keeps the
    original point count (the total multiplicity).
    """
    basis = full.labels.base
    k = len(basis)
    if full.provenance.point_count != k:
        raise ValueError("basis size must equal the number of points (with multiplicity)")
    if selection is None:
        selection = _connected_scan(full.matrix.submatrix(range(k), range(k)), basis.monomials)
    kbar = len(_reaching_rank(selection).monomials)
    if rank(full.matrix) > kbar:
        raise NonRadicalRankError(
            f"rank of the extended matrix exceeds the connected block size {kbar}"
        )
    reduced_ext = ExtendedBasis(MonomialBasis(selection.monomials))
    idx = [full.labels.index_of(m) for m in reduced_ext.extension]
    sub = full.matrix.submatrix(idx, idx)
    products = set(reduced_ext.products)
    bounds = {alpha: b for alpha, b in full.provenance.bounds.items() if alpha in products}
    prov = HermiteProvenance(
        full.provenance.accuracy, full.provenance.coord_bound, full.provenance.point_count, bounds
    )
    return HermitePlus(sub, reduced_ext, prov)
