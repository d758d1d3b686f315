"""Floating-point frontend: Newton refinement, root-list filtering,
Vandermonde conditioning and well-conditioned basis selection.

All of it runs in pure Python on one QR factorization, classical
Gram-Schmidt run twice: basis selection grows it one Vandermonde column at
a time, and each Newton step factors the Jacobian with it.

Nothing here is certified by itself; every float that matters is later
re-derived or verified in exact arithmetic by the construction and
certification stages.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import mul, neg, sub
from typing import Iterable, NamedTuple, Sequence

from .polynomials import Frozen, Monomial, MonomialBasis, PolySystem, iter_monomials

Point = tuple[complex, ...]


class SingularJacobianError(RuntimeError):
    """Newton step rejected: the Jacobian's condition estimate ||J||_F / sigma_min(J),
    between kappa_2 and sqrt(n)*kappa_2 for n unknowns, is above 1e12."""


class DivergedError(RuntimeError):
    """Newton iteration grew the residual three times in a row."""


class CoordinateBoundError(RuntimeError):
    """Refinement moved a point out of the box |z|_inf <= M - E of its root
    set, so the refined points form no root set with that E and M."""


COND_LIMIT = 1e12
_MAX_HALVINGS = 8
_MAX_GROWTH = 3
_EPS = sys.float_info.epsilon
_INVERSE_ITERATIONS = 100


class ApproxRootSet(Frozen):
    """Approximate roots with a shared accuracy bound E and coordinate bound M.

    Every point must have finite coordinates with max_i |z_i| <= M - E.
    Optional per-point radii r >= 0 (NaN is not, inf is) bound the distance
    to the exact root each point approximates (used by match_and_filter).
    """

    __slots__ = ("points", "accuracy", "coord_bound", "radii")

    def __init__(
        self,
        points: Iterable[Sequence[complex]],
        accuracy: Fraction,
        coord_bound: Fraction,
        radii: Iterable[float] | None = None,
    ):
        pts = tuple(tuple(complex(z) for z in p) for p in points)
        accuracy, coord_bound = Fraction(accuracy), Fraction(coord_bound)
        if accuracy <= 0:
            raise ValueError("accuracy must be positive")
        if radii is not None:
            radii = tuple(float(r) for r in radii)
            if len(radii) != len(pts) or not all(r >= 0 for r in radii):
                raise ValueError("one radius r >= 0 per point required")
        limit = float(coord_bound - accuracy)
        for p in pts:
            if not all(cmath.isfinite(z) for z in p):
                raise ValueError(f"point {p} has a non-finite coordinate")
            if p and max(abs(z) for z in p) > limit:
                raise ValueError(
                    f"point {p} violates the coordinate bound |z|_inf <= M - E = {limit}"
                )
        self._set(points=pts, accuracy=accuracy, coord_bound=coord_bound, radii=radii)

    def __len__(self) -> int:
        return len(self.points)

    def arity(self) -> int:
        return len(self.points[0]) if self.points else 0


class RefineResult(NamedTuple):
    point: Point
    residual: float


def _residual(system: PolySystem, z: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(p.eval_complex(z)) ** 2 for p in system.polys))


def newton_refine(system: PolySystem, z: Sequence[complex], iters: int) -> RefineResult:
    """Damped Newton iteration for a square system.

    Steps are halved (up to 8 times) while they increase the residual; a
    step that cannot decrease it counts as growth, and three consecutive
    growth events raise DivergedError.  Accepted steps therefore never
    increase the residual.
    """
    n = system.arity()
    if len(system.polys) != n:
        raise ValueError("newton_refine requires a square system")
    partials = [[p.partial_derivative(j) for p in system.polys] for j in range(n)]  # J's columns
    current = tuple(complex(c) for c in z)
    res = _residual(system, current)
    growth = 0
    for _ in range(iters):
        columns = [[d.eval_complex(current) for d in col] for col in partials]
        cond, step = _newton_step(columns, [-p.eval_complex(current) for p in system.polys])
        if not cond <= COND_LIMIT:
            raise SingularJacobianError(f"Jacobian condition estimate {cond:.3e} exceeds 1e12")
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = tuple(c + scale * s for c, s in zip(current, step))
            trial_res = _residual(system, trial)
            if trial_res <= res:
                current, res, growth = trial, trial_res, 0
                break
            scale *= 0.5
        else:
            growth += 1
            if growth >= _MAX_GROWTH:
                raise DivergedError("residual grew on three consecutive iterations")
    return RefineResult(current, res)


def _dist(a: Point, b: Point) -> float:
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


class FilterResult(NamedTuple):
    kept: tuple[tuple[Point, float], ...]
    inconclusive: bool


def match_and_filter(
    list_a: ApproxRootSet,
    list_b: ApproxRootSet,
    system_a: PolySystem,
    system_b: PolySystem,
    max_rounds: int = 6,
) -> FilterResult:
    """Filter list_a against list_b: keep only points that can approximate a
    common root of both square systems.

    For (z, eps) in list_a the match set is every (z', eps') in list_b with
    ||z - z'|| <= eps + eps'.  An empty match set discards z.  Otherwise both
    sides take one Newton step w.r.t. their own system per round (_refined);
    after round r the radii contract to eps / 2^(2^r - 1), and a point whose
    match set empties out (separation achieved) is discarded.  Points are
    kept once max_rounds rounds have run, so the kept list is a superset of
    the true-root approximations; a match set still holding more than one
    candidate marks the result inconclusive.  A point whose step fails
    keeps its current value and radius (conservative).
    """
    if list_a.radii is None or list_b.radii is None:
        raise ValueError("match_and_filter requires per-point radii on both lists")
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    kept: list[tuple[Point, float]] = []
    inconclusive = False
    for z0, eps0 in zip(list_a.points, list_a.radii):
        z, eps = z0, eps0
        b_pts, b_rad = list(list_b.points), list(list_b.radii)
        # round r matches the points of r - 1 steps; the last one only matches
        for rounds in range(1, max_rounds + 2):
            matches = [j for j in range(len(b_pts)) if _dist(z, b_pts[j]) <= eps + b_rad[j]]
            if not matches or rounds > max_rounds:
                break
            contraction = 2.0 ** (2**rounds - 1)
            z, eps = _refined(system_a, z, eps, eps0 / contraction)
            for j in matches:
                b_pts[j], b_rad[j] = _refined(system_b, b_pts[j], b_rad[j], list_b.radii[j] / contraction)
        if matches:
            kept.append((z, eps))
            inconclusive = inconclusive or len(matches) > 1
    return FilterResult(tuple(kept), inconclusive)


def _refined(system: PolySystem, z: Point, radius: float, contracted: float) -> tuple[Point, float]:
    """z after one Newton step and the contracted radius; z and radius
    unchanged when the step fails."""
    try:
        return newton_refine(system, z, 1).point, contracted
    except (SingularJacobianError, DivergedError):
        return z, radius


class _GramSchmidt:
    """Orthonormal columns q_1..q_m in C^size, grown one at a time.

    They are kept twice: conjugated, for the projections Q^H c, and as rows,
    for the products Q r, so that every inner loop is one C-level
    sum(map(mul, ...)).  A real column stays a list of floats.
    """

    __slots__ = ("conj_columns", "rows")

    def __init__(self, size: int):
        self.conj_columns: list[list] = []
        self.rows: list[list] = [[] for _ in range(size)]

    def project_out(self, c: list) -> tuple[list, list]:
        """(r, w) with c = Q r + w and w orthogonal to Q, by classical
        Gram-Schmidt run twice; twice keeps w orthogonal to Q to working
        precision (Giraud, Langou & Rozloznik 2005)."""
        # Each pass subtracts in the sum that forms Q s, starting it at -c: it
        # returns the residual with its sign flipped, which the next pass
        # flips back.
        r = _dots(self.conj_columns, c)
        u = _dots(self.rows, r, map(neg, c))  # Q r - c
        s = _dots(self.conj_columns, u)  # minus the correction to r
        return list(map(sub, r, s)), _dots(self.rows, s, map(neg, u))

    def append(self, w: list, rho: float) -> None:
        """Add the column w / rho, where rho = ||w||."""
        q = [wi / rho for wi in w]
        self.conj_columns.append([z.conjugate() for z in q] if isinstance(q[0], complex) else q)
        for row, qi in zip(self.rows, q):
            row.append(qi)


def _dots(vectors: Iterable, x: list, starts: Iterable | None = None) -> list:
    """[sum(map(mul, v, x), start) for v, start in zip(vectors, starts)],
    the starts 0.0 by default, with the loop over vectors at C level too."""
    products = map(map, repeat(mul), vectors, repeat(x))
    return list(map(sum, products, repeat(0.0) if starts is None else starts))


def _norm(v: Sequence[complex]) -> float:
    return math.hypot(*map(abs, v))


def _back(rows: list[list], y: Sequence) -> list:
    """z with R z = y for the upper triangular R with rows[i] = R[i, i:]."""
    z = [0.0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        z[i] = (y[i] - sum(map(mul, row[1:], z[i + 1 :]))) / row[0]
    return z


def _triangular_sigma_min(columns: list[list]) -> float:
    """sigma_min of the upper triangular R with the given columns (column j
    holds rows 0..j), as 1/||R^-1||_2 by inverse iteration on R^H R.

    The start solves R^H y = x with x_j = +-1 chosen to make each y_j large
    (the LINPACK condition estimator); each step then solves R z = y and
    R^H y = z/||z||.  ||y|| is a Rayleigh-quotient lower bound on ||R^-1||
    that does not decrease, and the iteration stops when it stops growing.
    """
    m = len(columns)
    conj = [[z.conjugate() for z in col] for col in columns]
    rows = [[columns[j][i] for j in range(i, m)] for i in range(m)]

    def forward(x):  # R^H y = x, with x chosen on the fly when x is None
        y: list = []
        for j, col in enumerate(conj):
            s = sum(map(mul, col, y))
            xj = (-s / abs(s) if s else 1.0) if x is None else x[j]
            y.append((xj - s) / col[j])
        return y

    y = forward(None)
    estimate = _norm(y) / math.sqrt(m)
    for _ in range(_INVERSE_ITERATIONS):
        z = _back(rows, y)
        z_norm = _norm(z)
        y = forward([zi / z_norm for zi in z])
        grown = _norm(y)
        if grown <= estimate * (1 + 4 * _EPS):
            break
        estimate = grown
    return 1 / estimate


def _qr(columns: list[list]) -> tuple[list[list], list[list]] | None:
    """(Q^H, R) with columns = QR by classical Gram-Schmidt run twice, Q^H by rows
    and R by columns (column j holding rows 0..j); None when a residual norm is 0."""
    gs = _GramSchmidt(len(columns[0]))
    r_columns = []
    for c in columns:
        r, w = gs.project_out(c)
        rho = _norm(w)
        if rho == 0:
            return None
        gs.append(w, rho)
        r_columns.append(r + [rho])
    return gs.conj_columns, r_columns


def _newton_step(columns: list[list], minus_f: list) -> tuple[float, list | None]:
    """(||J||_F / sigma_min(J), J^-1 (-F)) for the square J with the given columns: R s =
    Q^H (-F) for J = QR, with sigma_min(R) for sigma_min(J); (inf, None) if J is singular.

    A -F of subnormal norm is solved scaled by an exact power of two to a norm
    in [1/2, 1), and the step scaled back: solved as given, every product of
    the solve would round onto the subnormal grid."""
    qr = _qr(columns)
    if qr is None:
        return math.inf, None
    q_conj, r = qr
    frob = math.hypot(*map(_norm, columns))
    # inverse iteration on R / ||J||_F overflows only far above COND_LIMIT
    sigma = _triangular_sigma_min([[x / frob for x in c] for c in r])
    f_norm = _norm(minus_f)
    shift = -math.frexp(f_norm)[1] if 0 < f_norm < sys.float_info.min else 0
    step = _back([[c[i] for c in r[i:]] for i in range(len(r))], _dots(q_conj, _ldexp(minus_f, shift)))
    return (1 / sigma if sigma else math.inf), _ldexp(step, -shift)


def _ldexp(v: list, shift: int) -> list:
    """v * 2^shift, each part scaled by math.ldexp; v itself when shift is 0."""
    if not shift:
        return v
    return [complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in v]


def smallest_singular_value(v: Sequence[Sequence[complex]]) -> float:
    """The min(rows, cols)-th singular value of the matrix with rows v; 0.0
    without rows or columns.

    The columns of v (of its conjugate transpose when v is wide) are
    factored V = QR by classical Gram-Schmidt run twice, whose Q is
    orthonormal to working precision, so sigma_min(R) equals sigma_min(V)
    up to about eps * ||V|| (eps the machine epsilon), the accuracy of a
    backward-stable SVD: absolute, not relative to sigma_min itself.
    select_basis never trusts a value below that level.
    """
    columns = [list(c) for c in zip(*v)]
    if len(columns) > len(v):
        columns = [[z.conjugate() for z in row] for row in v]
    qr = _qr(columns) if columns and columns[0] else None
    return 0.0 if qr is None else _triangular_sigma_min(qr[1])


def select_basis(points: ApproxRootSet) -> MonomialBasis:
    """Greedy well-conditioned monomial basis of size at most k = #points.

    Monomials are scanned in graded-lex order; a candidate needs all of its
    single-variable divisors already selected (so the result is an order
    ideal, in particular connected to 1) and must keep sigma_min of the
    trial Vandermonde V above t = max(k*n*d*M^(d-1)*E, k*eps*||V||_F),
    where d is the candidate's degree, the trial's largest as the scan is
    graded.  The second term is the
    rounding floor max(rows, cols)*eps*||V||_F (numpy's matrix_rank
    tolerance, with the Frobenius norm standing in for sigma_max): below it
    a computed sigma_min is indistinguishable from rounding error, however
    small E is.  Any order ideal of size k has degree <= k-1, which bounds
    the scan, and so does the degree after that of the last accepted
    monomial: past it every candidate has an unselected divisor.  The
    order ideal accepted by then is returned, whatever its size: repeated
    or nearly coincident points (or an E too large) leave fewer than k
    monomials, and certification decides whether they are a basis of the
    radical.

    V = QR is factored incrementally: a candidate's column is its divisor's
    column times one coordinate, and classical Gram-Schmidt run twice splits
    it into R's new column r and a residual of norm rho.  Q stays
    orthonormal to working precision, so sigma_min(V) = sigma_min(R) up to
    the rounding floor.  The candidate is rejected when rho <= t (sigma_min
    <= rho, R's last diagonal entry) and accepted when 1/||R^-1||_F > t
    (sigma_min >= 1/||R^-1||_F; R^-1 gains one bordered column per accepted
    monomial).  Only between the two bounds is sigma_min(R) computed
    (smallest_singular_value).  A coordinate whose imaginary parts all
    vanish enters as floats: the same arithmetic on a cheaper number type.
    """
    k = len(points)
    if k < 1:
        raise ValueError("need at least one point")
    n = points.arity()
    e_val = float(points.accuracy)
    m_val = float(points.coord_bound)
    coords = []
    for s in range(n):
        zs = [p[s] for p in points.points]
        coords.append(zs if any(z.imag for z in zs) else [z.real for z in zs])
    gs = _GramSchmidt(k)
    columns: dict[Monomial, list] = {}  # the Vandermonde column of each chosen monomial
    r_columns: list[list] = []  # R, column j holding rows 0..j
    r_inv_rows: list[list] = []  # R^-1, row i holding columns i..m-1
    r_inv_frob2 = 0.0  # ||R^-1||_F^2
    frob2 = 0.0  # ||V||_F^2 over the chosen columns
    chosen: list[Monomial] = []
    top = 0  # the degree of the last chosen monomial
    for mono in iter_monomials(n, k - 1):
        d = sum(mono)
        # past degree top + 1, every candidate has an unchosen divisor
        if len(chosen) == k or d > top + 1:
            break
        if d > 0:
            divisors = [(i, mono[:i] + (e - 1,) + mono[i + 1 :]) for i, e in enumerate(mono) if e]
            if not all(dv in columns for _, dv in divisors):
                continue
            var, divisor = divisors[0]
            c = list(map(mul, columns[divisor], coords[var]))
        else:
            c = [1.0] * k
        c_norm = _norm(c)
        frob = math.sqrt(frob2 + c_norm * c_norm)
        threshold = max(k * n * d * m_val ** (d - 1) * e_val, k * _EPS * frob)
        r, w = gs.project_out(c)
        rho = _norm(w)
        if rho <= threshold:
            continue
        # R^-1 r; the reversed row i and the reversed r pair up columns m-1..i
        y = _dots(map(reversed, r_inv_rows), r[::-1])
        y_norm = _norm(y)
        trial_inv_frob2 = r_inv_frob2 + (y_norm * y_norm + 1) / (rho * rho)
        if 1 / math.sqrt(trial_inv_frob2) <= threshold:
            trial = r_columns + [r + [rho]]
            rows = [[col[i] if i < len(col) else 0.0 for col in trial] for i in range(len(trial))]
            if smallest_singular_value(rows) <= threshold:
                continue
        chosen.append(mono)
        top = d
        columns[mono] = c
        frob2 += c_norm * c_norm
        gs.append(w, rho)
        r_columns.append(r + [rho])
        for row, yi in zip(r_inv_rows, y):
            row.append(-yi / rho)
        r_inv_rows.append([1 / rho])
        r_inv_frob2 = trial_inv_frob2
    return MonomialBasis(chosen)
