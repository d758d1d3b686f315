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

    def entry(self, i: int, j: int) -> Fraction:
        p = i * self.cols + j
        return Fraction(self._n[p], self._d[p])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._n == other._n
            and self._d == other._d
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        n, d = kernels.mat_mul(
            self.rows, self.cols, other.cols, self._n, self._d, other._n, other._d
        )
        return RatMatrix(self.rows, other.cols, n, d)

    def is_symmetric(self) -> bool:
        k, n, d = self.rows, self._n, self._d
        return k == self.cols and all(
            n[i * k : i * k + k] == n[i::k] and d[i * k : i * k + k] == d[i::k] for i in range(k)
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        c, n, d = self.cols, self._n, self._d
        at = [i * c + j for i in row_idx for j in col_idx]
        return RatMatrix(len(row_idx), len(col_idx), [n[p] for p in at], [d[p] for p in at])

    def row_pairs(self) -> tuple[list[int], list[int]]:
        return list(self._n), list(self._d)


def _elimination(a: RatMatrix, name: str, rhs=None, linked=None):
    """The one symmetric elimination of a (_kernels.eliminate); raises
    NotSymmetricError, naming the operation, for any other matrix."""
    if not a.is_symmetric():
        raise NotSymmetricError(f"{name} requires a symmetric matrix")
    return kernels.eliminate(a.rows, a._n, a._d, rhs, linked)


def rank(a: RatMatrix) -> int:
    """Exact rank of a symmetric matrix (every Hermite matrix is), pos + neg
    of its inertia; raises NotSymmetricError for any other matrix."""
    pos, neg, *_ = _elimination(a, "rank")
    return pos + neg


def solve(a: RatMatrix, b: RatMatrix) -> tuple[RatMatrix, Inertia]:
    """(X, inertia of A): exact X with A * X = B for a symmetric A; raises
    NotSymmetricError for any other A and SingularMatrixError when det A = 0.

    The columns of B are carried along the one symmetric elimination of A
    (_kernels.eliminate), which gives the inertia too; the exact residual
    A * X = B is then checked, as an exception that survives -O.
    """
    if b.rows != a.rows:
        raise ValueError(f"dimension mismatch: {a.rows} vs {b.rows}")
    pos, neg, zero, _, x = _elimination(a, "solve", (b.cols, b._n, b._d))
    if x is None:
        raise SingularMatrixError("matrix is singular")
    res = RatMatrix(a.rows, b.cols, *x)
    if a @ res != b:
        raise InverseCheckError("A * X != B: the solve kernel is wrong")
    return res, Inertia(pos, neg, zero)


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse of a symmetric matrix, solve(a, I); raises
    SingularMatrixError when det = 0.

    No command calls it: certification solves only the border columns
    (certify.mult_matrices).  perfbench/tracer.py still probes this name."""
    k = a.rows
    eye = [int(i == j) for i in range(k) for j in range(k)]
    return solve(a, RatMatrix(k, k, eye, [1] * (k * k)))[0]


def char_poly(a: RatMatrix) -> list[Fraction]:
    """Monic characteristic polynomial of a symmetric matrix, descending
    coefficients; raises NotSymmetricError for any other matrix.

    Berkowitz's algorithm on the integer matrix L * A, L the lcm of the
    denominators, run on each connected block of its non-zero pattern and
    the block polynomials multiplied: division-free, O(sum k_i^4) integer
    operations for blocks of sizes k_i (O(k^4) when the pattern is
    connected) and no gcd in the loop; the i-th coefficient is divided by
    L^i once at the end.  The symmetry halves the matrix-vector products.
    The package needs it only for inertias (inertia_descartes), and only
    where no cheaper polynomial has the same sign pattern: for H1, H1bar,
    and H_g when sigma(H1) < k.  When H1 is positive definite (every root
    real), the signature of H_g = H1 g(M) reads the polynomial of g(M) from
    its power sums in O(k^3) instead (certify.signature).
    """
    if not a.is_symmetric():
        raise NotSymmetricError("characteristic polynomial requires a symmetric matrix")
    cn, cd = kernels.charpoly(a.rows, a._n, a._d)
    return [Fraction(n, d) for n, d in zip(cn, cd)]


def inertia_ldl(a: RatMatrix) -> Inertia:
    """Inertia of a symmetric matrix by the one fraction-free symmetric
    elimination (_kernels.eliminate); raises NotSymmetricError for any
    other matrix.  Independent of char_poly, so certify.signature can
    cross-check it against inertia_descartes."""
    pos, neg, zero, *_ = _elimination(a, "inertia")
    return Inertia(pos, neg, zero)


def sign_variations(coeffs: Sequence[Fraction]) -> int:
    """Sign changes across the nonzero coefficients, in order."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def root_signs(p: Sequence) -> Inertia:
    """(positive, negative, zero) root counts of a real polynomial, given by
    its descending coefficients [1, c1, ..., ck], all of whose roots are
    real: Descartes' rule, which is exact then.

    var(p(x)) roots are positive and var(p(-x)) negative, and the root 0
    has the multiplicity of the trailing zero coefficients.
    """
    k = len(p) - 1
    flipped = [c if (k - i) % 2 == 0 else -c for i, c in enumerate(p)]
    zero = next(i for i, c in enumerate(reversed(p)) if c)  # p is monic
    return Inertia(sign_variations(p), sign_variations(flipped), zero)


def inertia_descartes(a: RatMatrix) -> Inertia:
    """Inertia from Descartes' rule applied to the characteristic polynomial
    (root_signs): every eigenvalue of a symmetric matrix is real, so the
    rule is exact.  char_poly raises NotSymmetricError for any other matrix.
    """
    return root_signs(char_poly(a))
