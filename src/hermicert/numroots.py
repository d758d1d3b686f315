"""Floating-point frontend: Newton refinement, root-list filtering,
Vandermonde conditioning and well-conditioned basis selection.

Nothing here is certified by itself; every float that matters is later
re-derived or verified in exact arithmetic by the construction and
certification stages.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .polynomials import Monomial, MonomialBasis, PolySystem, iter_monomials
from .ratrecon import exact_fraction

# numpy is imported inside the functions that use it, so that commands which
# never refine or select a basis do not pay for importing it.
if TYPE_CHECKING:
    import numpy as np

Point = tuple[complex, ...]


class SingularJacobianError(RuntimeError):
    """Newton step rejected: Jacobian condition estimate above 1e12."""


class DivergedError(RuntimeError):
    """Newton iteration grew the residual three times in a row."""


class NoWellConditionedBasisError(RuntimeError):
    """No connected-to-1 basis keeps the Vandermonde well conditioned."""


COND_LIMIT = 1e12
_MAX_HALVINGS = 8
_MAX_GROWTH = 3


@dataclass(frozen=True)
class ApproxRootSet:
    """Approximate roots with a shared accuracy bound E and coordinate bound M.

    Every point must have finite coordinates with max_i |z_i| <= M - E.
    Optional per-point radii are upper bounds on the distance to the exact
    root each point approximates (used by match_and_filter).
    """

    points: tuple[Point, ...]
    accuracy: Fraction
    coord_bound: Fraction
    radii: tuple[float, ...] | None = None

    def __post_init__(self):
        pts = tuple(tuple(complex(z) for z in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "accuracy", exact_fraction(self.accuracy))
        object.__setattr__(self, "coord_bound", exact_fraction(self.coord_bound))
        if self.accuracy <= 0:
            raise ValueError("accuracy must be positive")
        if self.radii is not None:
            object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
            if len(self.radii) != len(pts):
                raise ValueError("one radius per point required")
        limit = float(self.coord_bound - self.accuracy)
        for p in pts:
            if not all(cmath.isfinite(z) for z in p):
                raise ValueError(f"point {p} has a non-finite coordinate")
            if p and max(abs(z) for z in p) > limit:
                raise ValueError(
                    f"point {p} violates the coordinate bound |z|_inf <= M - E = {limit}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def arity(self) -> int:
        return len(self.points[0]) if self.points else 0


class RefineResult(NamedTuple):
    point: Point
    residual: float


def _residual(system: PolySystem, z: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(p.eval_complex(z)) ** 2 for p in system.polys))


def _jacobian(system: PolySystem, z: Sequence[complex]) -> np.ndarray:
    import numpy as np

    n = system.arity()
    rows = []
    for p in system.polys:
        rows.append([p.partial_derivative(j).eval_complex(z) for j in range(n)])
    return np.array(rows, dtype=complex)


def newton_refine(system: PolySystem, z: Sequence[complex], iters: int) -> RefineResult:
    """Damped Newton iteration for a square system.

    Steps are halved (up to 8 times) while they increase the residual; a
    step that cannot decrease it counts as growth, and three consecutive
    growth events raise DivergedError.  Accepted steps therefore never
    increase the residual.
    """
    if len(system.polys) != system.arity():
        raise ValueError("newton_refine requires a square system")
    import numpy as np

    current = tuple(complex(c) for c in z)
    res = _residual(system, current)
    growth = 0
    for _ in range(iters):
        jac = _jacobian(system, current)
        try:
            cond = np.linalg.cond(jac)
        except np.linalg.LinAlgError:  # pragma: no cover
            raise SingularJacobianError("condition estimate failed")
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularJacobianError(f"Jacobian condition estimate {cond:.3e} exceeds 1e12")
        values = np.array([p.eval_complex(current) for p in system.polys], dtype=complex)
        step = np.linalg.solve(jac, -values)
        scale = 1.0
        accepted = None
        for _ in range(_MAX_HALVINGS + 1):
            trial = tuple(c + scale * s for c, s in zip(current, step))
            trial_res = _residual(system, trial)
            if trial_res <= res:
                accepted = (trial, trial_res)
                break
            scale *= 0.5
        if accepted is None:
            growth += 1
            if growth >= _MAX_GROWTH:
                raise DivergedError("residual grew on three consecutive iterations")
            continue
        growth = 0
        current, res = accepted
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
    sides are refined by Newton w.r.t. their own system; after k rounds the
    radii contract to eps / 2^(2^k - 1), and a point whose match set empties
    out (separation achieved) is discarded.  Points are kept once max_rounds
    is exhausted, so the kept list is a superset of the true-root
    approximations; a match set still holding more than one candidate marks
    the result inconclusive.  Points whose refinement fails keep their
    current value and radius (conservative).
    """
    if list_a.radii is None or list_b.radii is None:
        raise ValueError("match_and_filter requires per-point radii on both lists")
    kept: list[tuple[Point, float]] = []
    inconclusive = False
    for z0, eps0 in zip(list_a.points, list_a.radii):
        z_cur, eps_cur = z0, eps0
        b_pts = list(list_b.points)
        b_rad = list(list_b.radii)
        rounds = 0
        decision = None
        while True:
            matches = [
                j
                for j in range(len(b_pts))
                if _dist(z_cur, b_pts[j]) <= eps_cur + b_rad[j]
            ]
            if not matches:
                decision = None
                break
            if rounds >= max_rounds:
                decision = (z_cur, eps_cur)
                if len(matches) > 1:
                    inconclusive = True
                break
            rounds += 1
            contraction = 2.0 ** (2**rounds - 1)
            try:
                z_cur = newton_refine(system_a, z_cur, 1).point
                eps_cur = eps0 / contraction
            except (SingularJacobianError, DivergedError):
                pass
            for j in matches:
                try:
                    b_pts[j] = newton_refine(system_b, b_pts[j], 1).point
                    b_rad[j] = list_b.radii[j] / contraction
                except (SingularJacobianError, DivergedError):
                    pass
        if decision is not None:
            kept.append(decision)
    return FilterResult(tuple(kept), inconclusive)


def vandermonde(points: Sequence[Point], monomials: Sequence[Monomial]) -> np.ndarray:
    """Complex matrix with rows indexing points, columns indexing monomials,
    entries z_i^alpha_j."""
    import numpy as np

    arity = len(points[0]) if points else 0
    z = np.array(points, dtype=complex).reshape(len(points), arity)
    exps = np.array(monomials, dtype=int).reshape(len(monomials), arity)
    return (z[:, None, :] ** exps[None, :, :]).prod(axis=2)


def smallest_singular_value(v: np.ndarray) -> float:
    """The min(rows, cols)-th singular value by LAPACK; 0.0 without columns.

    LAPACK's SVD is backward stable, so the value is accurate to about
    eps * ||V|| in absolute terms (eps the machine epsilon), not relative
    to sigma_min itself.  select_basis never trusts a value below that level.
    """
    import numpy as np

    if v.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(v, compute_uv=False)[-1])


def select_basis(points: ApproxRootSet, variables: Sequence[str]) -> MonomialBasis:
    """Greedy well-conditioned monomial basis of size k = #points.

    Monomials are scanned in graded-lex order; a candidate needs all of its
    single-variable divisors already selected (so the result is an order
    ideal, in particular connected to 1) and must keep sigma_min of the
    trial Vandermonde V above both k*n*d*M^(d-1)*E, where d is the maximal
    degree selected so far, and the rounding floor max(rows, cols)*eps*||V||_F
    (numpy's matrix_rank tolerance, with the Frobenius norm standing in for
    sigma_max).  Below the floor a computed sigma_min is indistinguishable
    from rounding error, however small E is.  Any order ideal of size k has
    degree <= k-1, which bounds the scan.
    """
    import numpy as np

    k = len(points)
    if k < 1:
        raise ValueError("need at least one point")
    n = len(variables)
    if points.arity() != n:
        raise ValueError("point arity does not match the variable list")
    e_val = float(points.accuracy)
    m_val = float(points.coord_bound)
    chosen: list[Monomial] = []
    chosen_set: set[Monomial] = set()
    for mono in iter_monomials(n, k - 1):
        if len(chosen) == k:
            break
        if sum(mono) > 0:
            divisors_ok = all(
                mono[:i] + (e - 1,) + mono[i + 1 :] in chosen_set
                for i, e in enumerate(mono)
                if e
            )
            if not divisors_ok:
                continue
        trial = chosen + [mono]
        d = max(sum(m) for m in trial)
        v = vandermonde(points.points, trial)
        floor = max(v.shape) * np.finfo(float).eps * np.linalg.norm(v)
        threshold = max(k * n * d * m_val ** (d - 1) * e_val, floor)
        if smallest_singular_value(v) > threshold:
            chosen.append(mono)
            chosen_set.add(mono)
    if len(chosen) != k:
        raise NoWellConditionedBasisError(
            f"no well-conditioned connected basis of size {k} (accuracy too large "
            "or points nearly coincident)"
        )
    return MonomialBasis(chosen)
