"""Exact dense linear algebra over the rationals.

RatMatrix stores reduced (numerator, denominator) pairs in flat row-major
lists and delegates the heavy loops to hermicert._kernels.  All results are
exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import _kernels as kernels


class SingularMatrixError(ValueError):
    """Solve or inverse requested for a singular matrix."""


class NotSymmetricError(ValueError):
    """A symmetric-only operation was applied to an asymmetric matrix."""


class NoConnectedSelectionError(ValueError):
    """No connected-to-1 monomial subset reaches the required rank."""


class InverseCheckError(AssertionError):
    """A computed solution failed the residual A * X = B; this indicates a bug."""


class Inertia(NamedTuple):
    positive: int
    negative: int
    zero: int

    @property
    def signature(self) -> int:
        return self.positive - self.negative


class RatMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_n", "_d")

    def __init__(self, rows: int, cols: int, nums: list[int], dens: list[int]):
        if len(nums) != rows * cols or len(dens) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self._n = nums
        self._d = dens

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable]) -> "RatMatrix":
        data = [[Fraction(x) for x in row] for row in rows]
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        nums = [f.numerator for row in data for f in row]
        dens = [f.denominator for row in data for f in row]
        return cls(r, c, nums, dens)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [0] * (rows * cols), [1] * (rows * cols))

    @classmethod
    def identity(cls, k: int) -> "RatMatrix":
        m = cls.zeros(k, k)
        for i in range(k):
            m._n[i * k + i] = 1
        return m

    def entry(self, i: int, j: int) -> Fraction:
        p = i * self.cols + j
        return Fraction(self._n[p], self._d[p])

    def to_rows(self) -> list[list[Fraction]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._n == other._n
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._n), tuple(self._d)))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        n, d = [], []
        for i in range(len(self._n)):
            rn, rd = kernels.q_add(self._n[i], self._d[i], other._n[i], other._d[i])
            n.append(rn)
            d.append(rd)
        return RatMatrix(self.rows, self.cols, n, d)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        n, d = [], []
        for i in range(len(self._n)):
            rn, rd = kernels.q_sub(self._n[i], self._d[i], other._n[i], other._d[i])
            n.append(rn)
            d.append(rd)
        return RatMatrix(self.rows, self.cols, n, d)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [-x for x in self._n], list(self._d))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        n, d = kernels.mat_mul(
            self.rows, self.cols, other.cols, self._n, self._d, other._n, other._d
        )
        return RatMatrix(self.rows, other.cols, n, d)

    def scale(self, factor) -> "RatMatrix":
        f = Fraction(factor)
        n, d = [], []
        for i in range(len(self._n)):
            rn, rd = kernels.q_mul(self._n[i], self._d[i], f.numerator, f.denominator)
            n.append(rn)
            d.append(rd)
        return RatMatrix(self.rows, self.cols, n, d)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        k = self.rows
        for i in range(k):
            for j in range(i + 1, k):
                if (
                    self._n[i * k + j] != self._n[j * k + i]
                    or self._d[i * k + j] != self._d[j * k + i]
                ):
                    return False
        return True

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._n)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        n, d = [], []
        for i in row_idx:
            base = i * self.cols
            for j in col_idx:
                n.append(self._n[base + j])
                d.append(self._d[base + j])
        return RatMatrix(len(row_idx), len(col_idx), n, d)

    def row_pairs(self) -> tuple[list[int], list[int]]:
        return list(self._n), list(self._d)

    def _check_same_shape(self, other: "RatMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def rank(a: RatMatrix) -> int:
    """Exact rank (fraction-free Bareiss elimination)."""
    return kernels.mat_rank(a.rows, a.cols, a._n, a._d)


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact X with A * X = B; raises SingularMatrixError when det A = 0.

    One Gauss-Jordan elimination of A carries every column of B; the exact
    residual A * X = B is then checked, as an exception that survives -O.
    """
    if a.rows != a.cols:
        raise ValueError("solve with a non-square matrix")
    if b.rows != a.rows:
        raise ValueError(f"dimension mismatch: {a.rows} vs {b.rows}")
    res = kernels.mat_solve(a.rows, b.cols, a._n, a._d, b._n, b._d)
    if res is None:
        raise SingularMatrixError("matrix is singular")
    x = RatMatrix(a.rows, b.cols, res[0], res[1])
    if a @ x != b:
        raise InverseCheckError("A * X != B: the solve kernel is wrong")
    return x


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse, solve(a, I); raises SingularMatrixError when det = 0.

    No command calls it: certification solves only the border columns
    (certify.mult_matrices).  perfbench/tracer.py still probes this name."""
    return solve(a, RatMatrix.identity(a.rows))


def char_poly(a: RatMatrix) -> list[Fraction]:
    """Monic characteristic polynomial, descending coefficients.

    Berkowitz's algorithm on the integer matrix L * A, L the lcm of the
    denominators: division-free, O(k^4) integer operations and no gcd in
    the loop; the i-th coefficient is divided by L^i once at the end.  A
    symmetric matrix needs half the matrix-vector products of a general one.
    """
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    cn, cd = kernels.charpoly(a.rows, a._n, a._d)
    return [Fraction(n, d) for n, d in zip(cn, cd)]


def inertia_ldl(a: RatMatrix) -> Inertia:
    """Inertia by exact symmetric elimination with diagonal pivoting.

    Fraction-free (Bareiss) on the integer matrix L * A, L the lcm of the
    denominators, which has the same inertia: plain ints, exact divisions
    and no gcd in the loop.  A vanishing remaining diagonal with a
    surviving off-diagonal entry is handled by an antidiagonal 2x2
    congruence block contributing (+1, -1).  Independent of char_poly, so
    certify.signature can cross-check the two.
    """
    if not a.is_symmetric():
        raise NotSymmetricError("inertia requires a symmetric matrix")
    pos, neg, zero = kernels.inertia(a.rows, a._n, a._d)
    return Inertia(pos, neg, zero)


def sign_variations(coeffs: Sequence[Fraction]) -> int:
    """Sign changes across the nonzero coefficients, in order."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def signature_descartes(a: RatMatrix) -> int:
    """Signature from Descartes' rule applied to the characteristic polynomial.

    All eigenvalues of a symmetric matrix are real, so the rule is exact:
    the signature is var(p(x)) - var(p(-x)).
    """
    if not a.is_symmetric():
        raise NotSymmetricError("signature requires a symmetric matrix")
    p = char_poly(a)
    k = len(p) - 1
    flipped = [c if (k - i) % 2 == 0 else -c for i, c in enumerate(p)]
    return sign_variations(p) - sign_variations(flipped)


class ConnectedSelection(NamedTuple):
    monomials: tuple[tuple[int, ...], ...]
    matrix: RatMatrix
    indices: tuple[int, ...]


def _has_divisor_link(mono: tuple[int, ...], chosen: set) -> bool:
    # connected-to-1 link: some single-variable quotient already selected
    if sum(mono) == 0:
        return True
    for i, e in enumerate(mono):
        if e and (mono[:i] + (e - 1,) + mono[i + 1 :]) in chosen:
            return True
    return False


def max_nonsingular_connected_submatrix(
    h: RatMatrix, monomials: Sequence[tuple[int, ...]]
) -> ConnectedSelection:
    """Largest nonsingular principal submatrix on a connected-to-1 label set.

    Scans the labels in their given (graded-lex) order and greedily keeps a
    monomial when it is linked to the current selection by a single-variable
    quotient and the principal minor stays nonsingular.  The scan is one
    fraction-free (Bareiss) elimination of h, scaled to integers, with the
    kept labels as diagonal pivots: the current diagonal entry of a label is
    then its Schur complement against the kept block (times that block's
    determinant), so it is non-zero exactly when keeping the label leaves
    the minor nonsingular.  The block left over on the other labels is that
    Schur complement too; it is zero exactly when the selection reaches
    rank(h), and NoConnectedSelectionError is raised otherwise.
    """
    if not h.is_symmetric():
        raise NotSymmetricError("submatrix selection requires a symmetric matrix")
    k = h.rows
    if len(monomials) != k:
        raise ValueError("label count does not match matrix size")
    _, a = kernels.integer_rows(k, h._n, h._d)
    open_idx = list(range(k))
    chosen_idx: list[int] = []
    chosen_set: set = set()
    prev = 1
    for pos, mono in enumerate(monomials):
        pv = a[pos][pos]
        if not pv or not _has_divisor_link(tuple(mono), chosen_set):
            continue
        chosen_idx.append(pos)
        chosen_set.add(tuple(mono))
        open_idx.remove(pos)
        row_p = a[pos]
        for i in open_idx:
            row = a[i]
            f = row[pos]
            for j in open_idx:
                row[j] = (pv * row[j] - f * row_p[j]) // prev
        prev = pv
    if any(a[i][j] for i in open_idx for j in open_idx):
        raise NoConnectedSelectionError(
            f"no connected selection of size {rank(h)} found (got {len(chosen_idx)})"
        )
    sub = h.submatrix(chosen_idx, chosen_idx)
    return ConnectedSelection(
        tuple(tuple(monomials[i]) for i in chosen_idx), sub, tuple(chosen_idx)
    )
