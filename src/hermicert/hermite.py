"""Construction of exact rational extended Hermite matrices from points.

One power sum is computed for each distinct label product of the extended
basis, exactly, from the doubles as given: the coordinates are scaled to
Gaussian integers over one power of two per variable, and each sum is an
integer dot product over the points.  Each sum is then reconstructed once,
on integers, with a degree-dependent denominator bound, and written into
every entry that holds it, through the basis's product_index, so symmetry
and Hankel coherence hold by construction.  Because the sums are exact, the
accepted perturbation bound E*k*n*d*M^(d-1) is rigorous for the given
points.  Success here is still heuristic; soundness comes entirely from the
certify module.

build_hermite is the one constructor of build, pipeline and nonneg (whose
points are the roots of the Lagrange system), and the one place the route
is decided.  It selects a basis when none is given (on repeated points
select_basis accepts fewer monomials than points), builds H+ from every
point, and makes the one connected scan of H1: a nonsingular H1 keeps H+,
and a singular one is reduced to the scan's connected nonsingular block
(build_nonradical).  H+ built from more points than its base size is the
non-radical route, from which certification rebuilds the Hermite matrices
of the radical; HermitePlus.reduced tells the two routes apart afterwards.
Nothing here rejects a matrix that was built: certification step 2 checks
the ranks.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .linalg import RatMatrix, _elimination
from .numroots import ApproxRootSet, select_basis
from .polynomials import ExtendedBasis, Frozen, Monomial, MonomialBasis, linked
from .ratrecon import RationalLike, denominator_bound, reconstruct_ints


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


class HermiteProvenance(Frozen):
    """What an extended Hermite matrix was built from: the accuracy E, the
    coordinate bound M, the point count k and, per power-sum monomial, the
    denominator bound its reconstruction used."""

    __slots__ = ("accuracy", "coord_bound", "point_count", "bounds")

    def __init__(
        self, accuracy: Fraction, coord_bound: Fraction, point_count: int, bounds: dict | None = None
    ):
        bounds = {} if bounds is None else bounds
        self._set(accuracy=accuracy, coord_bound=coord_bound, point_count=point_count, bounds=bounds)


class PowerSums(Frozen):
    """Exact power sums, one per distinct label product of an extended basis.

    The sum for products[pos] is (re[pos] + i*im[pos]) / 2^exponents[pos].
    """

    __slots__ = ("re", "im", "exponents")

    def __init__(self, re: list[int], im: list[int], exponents: list[int]):
        self._set(re=re, im=im, exponents=exponents)


class HermitePlus(Frozen):
    """Extended Hermite matrix with its labelling basis and provenance.

    A correctly built instance is symmetric and Hankel-coherent (equal
    monomial products give equal entries); adversarial instances are
    representable on purpose, certification decides their fate.
    """

    __slots__ = ("matrix", "labels", "provenance")

    def __init__(self, matrix: RatMatrix, labels: ExtendedBasis, provenance: HermiteProvenance):
        l = len(labels)
        if matrix.rows != l or matrix.cols != l:
            raise ValueError("matrix size does not match the extended basis")
        self._set(matrix=matrix, labels=labels, provenance=provenance)

    def base_size(self) -> int:
        return len(self.labels.base)

    @property
    def reduced(self) -> bool:
        """Built from more points than its basis size: a reduced non-radical
        build, whose base size is the number of distinct roots (kbar)."""
        return self.provenance.point_count > self.base_size()


def approx_extended_hermite(points: ApproxRootSet, basis: ExtendedBasis) -> PowerSums:
    """The exact power sum sum_t z_t^alpha of the points as given, one per
    distinct label product alpha, in the order of basis.products.

    Every double is a dyadic rational m / 2^q.  One power of two per
    variable, 2^s with s the largest q among that variable's real and
    imaginary parts, scales every coordinate to a Gaussian integer.  Each
    point's value at every extension label is computed once, degree by
    degree, as its value at one single-variable quotient of the label times
    one coordinate.  The sum of a label product is one integer dot product
    of the value vectors of the two labels of its first cell
    (basis.first_cells) over the points (four when some coordinate is not
    real), over the denominator 2^(sum_s alpha_s * s_s).  Entry (i, j) of
    the extended Hermite matrix is the power sum of b_i * b_j.  Weighted
    matrices H_g are never approximated: the certify module derives them
    exactly from the certified multiplication matrices.
    """
    arity = basis.base.arity
    if points.points and points.arity() != arity:
        raise ValueError("point arity does not match the basis")
    k = len(points)
    scales, re_cols, im_cols = [], [], []
    for s in range(arity):
        col = [p[s] for p in points.points]
        re_parts = [z.real.as_integer_ratio() for z in col]
        im_parts = [z.imag.as_integer_ratio() for z in col]
        scale = max((q for _, q in re_parts + im_parts), default=1)
        scales.append(scale.bit_length() - 1)
        re_cols.append([m * (scale // q) for m, q in re_parts])
        im_cols.append([m * (scale // q) for m, q in im_parts])
    real = not any(map(any, im_cols))

    # each label's values from those of one single-variable quotient, which
    # every label of B+ but 1 has in B+, in order of degree
    ones = ([1] * k, [0] * k)
    values: dict[Monomial, tuple[list[int], list[int]]] = {}
    for beta in sorted(basis.extension, key=sum):
        v = ones
        for s, e in enumerate(beta):
            quotient = beta[:s] + (e - 1,) + beta[s + 1 :]
            if e and quotient in values:
                v = _times(values[quotient], (re_cols[s], im_cols[s]), real)
                break
        values[beta] = v

    # the values of the two labels of each product's first cell; the sums
    # are exact, so every cell that holds the product gives the same
    ext = basis.extension
    pairs = [(values[ext[i]], values[ext[j]]) for i, j in basis.first_cells]
    if real:
        re = [sum(map(mul, a, c)) for (a, _), (c, _) in pairs]
        im = [0] * len(pairs)
    else:
        re, im = [], []
        for (a, b), (c, d) in pairs:
            re.append(sum(map(mul, a, c)) - sum(map(mul, b, d)))
            im.append(sum(map(mul, a, d)) + sum(map(mul, b, c)))
    exponents = [sum(map(mul, alpha, scales)) for alpha in basis.products]
    return PowerSums(re, im, exponents)


def _times(x: tuple[list[int], list[int]], y: tuple[list[int], list[int]], real: bool):
    """Pointwise product of two Gaussian-integer vectors (re, im); when real,
    the imaginary parts are all zero and are passed through."""
    (a, b), (c, d) = x, y
    if real:
        return list(map(mul, a, c)), b
    return (
        [p * r - q * t for p, q, r, t in zip(a, b, c, d)],
        [p * t + q * r for p, q, r, t in zip(a, b, c, d)],
    )


def reconstruct_hermite(
    sums: PowerSums,
    basis: ExtendedBasis,
    accuracy: RationalLike,
    point_count: int,
    coord_bound: RationalLike,
) -> HermitePlus:
    """Rationalize the exact power sums of an extended Hermite matrix.

    sums holds one power sum per distinct label product alpha, in the order
    of basis.products, as integers over a power of two.  Each alpha (degree
    d = |alpha|) is reconstructed once with denominator bound
    ceil((2*E*k*n*d*M^(d-1))^(-1/2)); its imaginary part must stay within
    the same perturbation bound E*k*n*d*M^(d-1) because the exact entry is
    real.  Both depend on d alone and are computed once per degree.  For
    d = 0 the bound degenerates to zero error, and the entry is taken as the
    sum itself, whose imaginary part must vanish.  The reconstructed value
    lies within the perturbation bound without a second check:
    ratrecon.denominator_bound gives the least b with 2*err*b^2 >= 1, and
    reconstruct_ints returns p/q only when |x - p/q| < 1/(2*b^2) <= err.
    Since the sums are exact, the bound is rigorous: every accepted entry
    lies within E*k*n*d*M^(d-1) of the power sum of the points as given.
    Every comparison is an integer cross-multiplication, and the continued
    fraction runs on integers (ratrecon.reconstruct_ints).  A failure names
    the first cell of the failing product (basis.first_cells), the first
    entry (i, j) in row-major order that holds it.
    """
    E = Fraction(accuracy)
    M = Fraction(coord_bound)
    arity = basis.base.arity
    products = basis.products
    if not len(sums.re) == len(sums.im) == len(sums.exponents) == len(products):
        raise ValueError("power-sum count does not match the basis")
    l = len(basis)
    degrees = {sum(alpha) for alpha in products} - {0}
    # per degree: err = E*k*n*d*M^(d-1) as err_num / err_den, and the
    # denominator bound of err
    scale = E.numerator * point_count * arity
    checks = {}
    for d in degrees:
        err_num, err_den = scale * d * M.numerator ** (d - 1), E.denominator * M.denominator ** (d - 1)
        checks[d] = err_num, err_den, denominator_bound(err_num, err_den)

    def fail(pos: int, reason: str, detail: str):
        return ReconstructionFailedError(basis.first_cells[pos], reason, detail)

    nums, dens = [], []
    bounds: dict[Monomial, int] = {}
    for pos, (alpha, re, im, e) in enumerate(zip(products, sums.re, sums.im, sums.exponents)):
        den = 1 << e
        d = sum(alpha)
        if d == 0:
            if im:
                raise fail(pos, "imaginary_too_large", "degree-0 entry")
            found = Fraction(re, den)
            p, q = found.numerator, found.denominator
            bounds[alpha] = 0
        else:
            err_num, err_den, b = checks[d]
            # |y| / 2^e <= err_num / err_den  <=>  |y| * err_den <= err_num * 2^e
            limit = err_num << e
            if abs(im) * err_den > limit:
                raise fail(
                    pos, "imaginary_too_large", f"|Im| = {abs(im) / den:.3e} > bound {err_num / err_den:.3e}"
                )
            if b is None:
                raise fail(pos, "not_usable", "2*E*k*n*d*M^(d-1) >= 1: accuracy too poor")
            found = reconstruct_ints(re, den, b)
            if found is None:
                raise fail(pos, "not_found", f"no rational with denominator <= {b} near {re / den:.12g}")
            p, q = found
            bounds[alpha] = b
        nums.append(p)
        dens.append(q)

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


class ConnectedSelection(NamedTuple):
    monomials: tuple[Monomial, ...]
    indices: tuple[int, ...]
    rank: int  # the rank of the scanned matrix


def _connected_scan(h: RatMatrix, monomials: Sequence[Monomial]) -> ConnectedSelection:
    """The greedy connected selection of a symmetric h and the rank of h,
    from one elimination, the selection possibly falling short of the rank.

    The labels are scanned in their given (graded-lex) order, and a
    monomial is kept when it is linked to the selection by a
    single-variable quotient (polynomials.linked) and the principal minor
    stays nonsingular: the linked pivot rule of _kernels.eliminate, where a
    label's diagonal entry is its Schur complement against the kept block
    (times that block's determinant).  The elimination then finishes the
    rank.  The one caller (build_hermite) passes H1 at the basis size with
    basis.monomials, which are tuples, so the labels are neither counted
    nor copied.
    """

    def pivot_allowed(t, picked):
        return linked(monomials[t], {monomials[i] for i in picked})

    pos, neg, _, picked, _ = _elimination(h, "submatrix selection", linked=pivot_allowed)
    return ConnectedSelection(tuple(monomials[i] for i in picked), tuple(picked), pos + neg)


def build_hermite(points: ApproxRootSet, basis: MonomialBasis | None = None) -> HermitePlus:
    """The extended Hermite matrix of the points, on the route that fits them.

    A given basis must have one element per point; without one, the basis
    is selected from the points (select_basis) and may be smaller.  One
    connected scan of H1 gives both the route and the reduction: a
    nonsingular H1 keeps the full matrix (with complex roots it can have a
    singular connected minor), and a singular one reduces it to the scan's
    selection (build_nonradical).
    """
    if basis is None:
        basis = select_basis(points)
    elif len(basis) != len(points):
        raise ValueError(f"basis size {len(basis)} must equal the number of points {len(points)}")
    k = len(basis)
    full = build_extended_hermite(points, basis)
    selection = _connected_scan(full.matrix.submatrix(range(k), range(k)), basis.monomials)
    return full if selection.rank == k else build_nonradical(full, selection)


def build_nonradical(full: HermitePlus, selection: ConnectedSelection) -> HermitePlus:
    """Hermite construction when the point multiset carries multiplicities.

    Restricts the full extended matrix built from the points to selection,
    the connected scan of its base block H1 (_connected_scan).  The
    returned matrix is indexed by the reduced extended basis, whose base
    size kbar is the number of distinct roots when it certifies; its
    provenance keeps the original point count (the total multiplicity).
    No rank is checked here: certification step 2 checks rank H+ = kbar on
    the returned matrix.  When H+ holds the moments of real points, a
    reduced H+ of that rank makes the span of the selection on the points
    closed under every x_s, so kbar is the number of distinct points; the
    selection then reaches rank H1, and the full H+ has rank kbar too.
    """
    reduced_ext = ExtendedBasis(MonomialBasis(selection.monomials))
    idx = [full.labels.index_of(m) for m in reduced_ext.extension]
    sub = full.matrix.submatrix(idx, idx)
    products = set(reduced_ext.products)
    bounds = {alpha: b for alpha, b in full.provenance.bounds.items() if alpha in products}
    prov = HermiteProvenance(
        full.provenance.accuracy, full.provenance.coord_bound, full.provenance.point_count, bounds
    )
    return HermitePlus(sub, reduced_ext, prov)
