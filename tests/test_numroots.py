import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermicert import numroots
from hermicert.numroots import (
    ApproxRootSet,
    DivergedError,
    SingularJacobianError,
    match_and_filter,
    newton_refine,
    select_basis,
    smallest_singular_value,
)
from hermicert.polynomials import PolySystem, iter_monomials, parse_poly


def system(*texts, variables=("x",)):
    vs = list(variables)
    return PolySystem(vs, [parse_poly(t, vs) for t in texts])


SQRT2 = math.sqrt(2)


# -- newton ------------------------------------------------------------------


def test_newton_converges_on_sqrt2():
    res = newton_refine(system("x^2-2"), [1.5 + 0j], 3)
    assert abs(res.point[0] ** 2 - 2) < 1e-10
    assert res.residual < 1e-10


def test_newton_keeps_exact_root():
    res = newton_refine(system("x^2-2"), [SQRT2 + 0j], 2)
    assert abs(res.point[0] - SQRT2) < 1e-15
    assert res.residual < 1e-14


def test_newton_singular_jacobian_at_critical_start():
    with pytest.raises((SingularJacobianError, DivergedError)):
        newton_refine(system("x^2+1"), [0.0 + 0j], 3)


def test_newton_residual_non_increasing_in_iteration_count():
    sys1 = system("x^2-2")
    residuals = [newton_refine(sys1, [1.5 + 0j], i).residual for i in range(5)]
    assert all(a >= b for a, b in zip(residuals, residuals[1:]))


def test_newton_requires_square_system():
    with pytest.raises(ValueError):
        newton_refine(system("x^2-2", "x^3-2"), [1.0 + 0j], 1)


def square_matrices():
    part = st.floats(-4, 4, allow_nan=False)
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.builds(complex, part, part), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@settings(max_examples=300, deadline=None)
@given(rows=square_matrices(), rhs=st.lists(st.complex_numbers(max_magnitude=4), min_size=4, max_size=4))
def test_newton_step_matches_numpy(rows, rhs):
    # the estimate ||J||_F / sigma_min(R) against numpy's 2-norm kappa_2: at
    # least kappa_2 up to the inverse iteration's stopping rule, at most
    # sqrt(n) * kappa_2; the step against numpy's LU solve, to the forward
    # error of a backward-stable solve
    n = len(rows)
    a = np.array(rows)
    cond = np.linalg.cond(a)
    assume(cond <= 1e10)
    estimate, step = numroots._newton_step([list(c) for c in zip(*rows)], rhs[:n])
    assert 1 - 1e-5 <= estimate / cond <= math.sqrt(n) * (1 + 1e-9)
    ref = np.linalg.solve(a, rhs[:n])
    assume(np.isfinite(ref).all())  # a matrix of subnormal entries can overflow the solution

    def norm(v):  # without numpy's overflow in squaring
        return math.hypot(*map(abs, v))

    # below the normal range one unit of the subnormal grid exceeds this
    # bound, and numpy's own solve can miss by one unit (the exact test
    # below covers that range)
    assume(norm(ref) >= sys.float_info.min)
    assert norm(np.array(step) - ref) <= 16 * sys.float_info.epsilon * cond * norm(ref)


UNIT = 2.0**-1074  # one unit of the subnormal grid


def subnormal_parts():
    # integer multiples of UNIT, their sizes spread over the subnormal range
    return st.integers(0, 51).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)).map(lambda m: m * UNIT)


@settings(max_examples=300, deadline=None)
@given(
    j=st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)).filter(lambda z: abs(z) >= 1e-3),
    minus_f=st.builds(complex, subnormal_parts(), subnormal_parts()),
)
# solved as given, this step is 1.8 units off the exact quotient
@example(j=0.5 + 0.25j, minus_f=complex(393 * UNIT, 393 * UNIT))
# numpy's solve is one unit off here
@example(j=1 + 1.5j, minus_f=complex(2.2e-311, 2.2e-311))
def test_newton_step_of_a_subnormal_residual(j, minus_f):
    # -F of subnormal norm: each part of the step lies within
    # 16 * eps * cond * ||x|| + one unit of the exact quotient x = -F / J,
    # cond = 1 for 1x1 J
    _, (step,) = numroots._newton_step([[j]], [minus_f])
    a, b = Fraction(j.real), Fraction(j.imag)
    c, d = Fraction(minus_f.real), Fraction(minus_f.imag)
    x_re, x_im = (c * a + d * b) / (a * a + b * b), (d * a - c * b) / (a * a + b * b)
    bound = Fraction(16 * sys.float_info.epsilon * math.hypot(x_re, x_im)) + Fraction(UNIT)
    assert abs(Fraction(step.real) - x_re) <= bound
    assert abs(Fraction(step.imag) - x_im) <= bound


@pytest.mark.parametrize("start", [1.5, 1 + 1j, -2.0])
def test_newton_point_coordinates_are_complex(start):
    res = newton_refine(system("x^2-2*y", "x*y-1", variables=("x", "y")), [start, start], 3)
    assert [type(c) for c in res.point] == [complex, complex]


def test_newton_step_on_a_badly_scaled_system():
    # J = [[1e-200]]: the condition estimate is scale invariant, so the one
    # step lands on the root as numpy's would
    tiny = "1/1" + "0" * 200
    assert newton_refine(system(f"{tiny}*x-{tiny}"), [0.5 + 0j], 1).point == (1 + 0j,)


# -- vandermonde / svd -------------------------------------------------------


def test_vandermonde_ones_column():
    v = vandermonde([(1 + 2j,), (3 + 0j,), (0j,)], [(0,)])
    assert [len(row) for row in v] == [1, 1, 1] and all(type(row[0]) is complex for row in v)
    assert all(row[0] == 1 for row in v)


def test_vandermonde_sqrt2_points():
    v = vandermonde([(SQRT2 + 0j,), (-SQRT2 + 0j,)], [(0,), (1,)])
    assert v[0] == [1 + 0j, SQRT2 + 0j]
    assert v[1] == [1 + 0j, -SQRT2 + 0j]


def test_vandermonde_matches_loop_reference():
    rng = random.Random(5)
    tol = 16 * sys.float_info.epsilon
    for n in (1, 2, 3):
        pts = [tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n))
               for _ in range(5)]
        monos = list(iter_monomials(n, 6))
        v = vandermonde(pts, monos)
        assert [len(row) for row in v] == [len(monos)] * len(pts)
        for i, p in enumerate(pts):
            for j, mono in enumerate(monos):
                ref = 1 + 0j
                for z, e in zip(p, mono):
                    ref *= z**e
                assert abs(v[i][j] - ref) <= tol * abs(ref)


def test_vandermonde_empty_basis():
    v = vandermonde([(1 + 0j,), (2 + 0j,)], [])
    assert v == [[], []]
    assert smallest_singular_value(v) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_approx_root_set_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ApproxRootSet(points=((0.5 + 0j,), (bad,)), accuracy="1e-8", coord_bound=2)


def test_smallest_singular_value_examples():
    ident = [[1 + 0j, 0j], [0j, 1 + 0j]]
    assert abs(smallest_singular_value(ident) - 1) < 1e-13
    padded = [[3 + 0j, 0j], [0j, 1 + 0j], [0j, 0j]]
    assert abs(smallest_singular_value(padded) - 1) < 1e-13
    near = [[1 + 0j, 1 + 0j], [1 + 0j, 1 + 1e-6 + 0j]]
    assert abs(smallest_singular_value(near) - 5e-7) < 1e-8


@pytest.mark.parametrize("rows, cols", [(6, 4), (4, 6), (5, 5), (7, 1)])
def test_smallest_singular_value_matches_numpy_svd(rows, cols):
    # the min(rows, cols)-th singular value, wide matrices included, to the
    # absolute accuracy of a backward-stable SVD
    rng = random.Random(rows * 10 + cols)
    for _ in range(10):
        v = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)] for _ in range(rows)]
        ref = float(np.linalg.svd(np.array(v), compute_uv=False)[-1])
        assert abs(smallest_singular_value(v) - ref) <= 1e-12 * np.linalg.norm(v)


def test_frobenius_perturbation_bound_on_samples():
    # ||V(xi) - V(z)||_F <= k*n*d*M^(d-1)*E for sampled perturbation pairs,
    # and sigma_min moves by at most that Frobenius distance
    rng = random.Random(21)
    monos = [(0,), (1,), (2,)]
    d = 2
    for _ in range(20):
        k = 3
        m_bound = 2.0
        e_bound = 1e-6
        zs = [(complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5)),) for _ in range(k)]
        xis = []
        for (z,) in zs:
            angle = rng.uniform(0, 2 * math.pi)
            delta = e_bound * rng.uniform(0, 1)
            xis.append((z + delta * complex(math.cos(angle), math.sin(angle)),))
        v_z = vandermonde(zs, monos)
        v_xi = vandermonde(xis, monos)
        frob = math.hypot(*(abs(a - b) for ra, rb in zip(v_xi, v_z) for a, b in zip(ra, rb)))
        bound = k * 1 * d * m_bound ** (d - 1) * e_bound
        assert frob <= bound
        assert smallest_singular_value(v_xi) >= smallest_singular_value(v_z) - frob - 1e-12


# -- basis selection ----------------------------------------------------------


def test_select_basis_single_point():
    pts = ApproxRootSet(points=((0.25 + 0j,),), accuracy="1e-8", coord_bound=1)
    assert select_basis(pts).monomials == ((0,),)


def test_select_basis_sqrt2():
    pts = ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=Fraction(1, 10**10), coord_bound=2
    )
    basis = select_basis(pts)
    assert basis.monomials == ((0,), (1,))
    v = vandermonde(pts.points, basis.monomials)
    assert smallest_singular_value(v) > 2 * 1 * 1 * 1 * 1e-10


def test_select_basis_rejects_near_duplicates():
    pts = ApproxRootSet(
        points=((0.5 + 0j,), (0.5 + 1e-14 + 0j,)), accuracy="1e-6", coord_bound=1
    )
    # x's column lies about 1e-14 from the span of 1's, below the threshold
    assert select_basis(pts).monomials == ((0,),)


def test_select_basis_stops_one_degree_past_the_last_accepted_monomial(monkeypatch):
    # one point given six times in four variables: only 1 is accepted, and
    # the scan stops at the first monomial of degree 2 instead of drawing
    # all 126 monomials of degree <= 5
    drawn = []

    def counting(n, degree):
        for mono in iter_monomials(n, degree):
            drawn.append(mono)
            yield mono

    monkeypatch.setattr(numroots, "iter_monomials", counting)
    point = (0.5 + 0j, 0.25 + 0j, -0.5 + 0j, 1 + 0j)
    pts = ApproxRootSet(points=(point,) * 6, accuracy="1e-10", coord_bound=2)
    assert select_basis(pts).monomials == ((0, 0, 0, 0),)
    assert len(drawn) == 6


def test_select_basis_rejects_rounding_level_sigma_min():
    # Exact points of a 5x5 grid with a truthful, tiny E: the E-threshold
    # alone accepts x^5 and x^6, whose sigma_min is rounding error, and the
    # build then fails on the non-radical route.
    grid = tuple((complex(a), complex(b)) for a in range(-2, 3) for b in range(-2, 3))
    pts = ApproxRootSet(points=grid, accuracy="1e-40", coord_bound=3)
    basis = select_basis(pts)
    grlex = sorted(((i, j) for i in range(5) for j in range(5)), key=lambda m: (sum(m), -m[0]))
    assert basis.monomials == tuple(grlex)


def test_select_basis_output_is_connected():
    from hermicert.polynomials import is_connected_to_1

    pts = ApproxRootSet(
        points=((1 + 0j, 0j, -0.5 + 0j), (-1 + 0j, 0j, 0.5 + 0j)),
        accuracy="1e-8",
        coord_bound=2,
    )
    basis = select_basis(pts)
    assert is_connected_to_1(basis.monomials)
    assert len(basis) == 2


def vandermonde(points, monomials):
    """Rows indexing points, columns indexing monomials, entries z_i^alpha_j:
    the matrix whose columns select_basis grows one at a time."""
    return [[math.prod(z**e for z, e in zip(p, mono)) for mono in monomials] for p in points]


def numpy_select_basis(points):
    """The selection as it was on numpy's SVD, kept as the reference: one
    Vandermonde and one SVD per trial.  Returns the accepted monomials, k of
    them or fewer, and the smallest relative distance |sigma_min - t| / t
    over the trials."""
    k = len(points)
    n = points.arity()
    e_val = float(points.accuracy)
    m_val = float(points.coord_bound)
    z = np.array(points.points, dtype=complex).reshape(k, n)
    chosen = []
    margin = math.inf
    for mono in iter_monomials(n, k - 1):
        if len(chosen) == k:
            break
        if sum(mono) > 0 and not all(
            mono[:i] + (e - 1,) + mono[i + 1 :] in chosen for i, e in enumerate(mono) if e
        ):
            continue
        trial = chosen + [mono]
        d = max(sum(m) for m in trial)
        exps = np.array(trial, dtype=int).reshape(len(trial), n)
        v = (z[:, None, :] ** exps[None, :, :]).prod(axis=2)
        floor = max(v.shape) * np.finfo(float).eps * np.linalg.norm(v)
        threshold = max(k * n * d * m_val ** (d - 1) * e_val, floor)
        sigma = float(np.linalg.svd(v, compute_uv=False)[-1])
        margin = min(margin, abs(sigma - threshold) / threshold)
        if sigma > threshold:
            chosen.append(mono)
    return tuple(chosen), margin


def coordinate(complex_points):
    part = st.floats(-2, 2, allow_nan=False)
    if complex_points:
        return st.builds(complex, part, part)
    return part.map(complex)


@pytest.mark.parametrize("complex_points", [False, True], ids=["real", "complex"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_select_basis_matches_the_numpy_reference(complex_points, data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 9))
    pts = data.draw(st.lists(st.tuples(*[coordinate(complex_points)] * n), min_size=k, max_size=k))
    accuracy = data.draw(st.sampled_from(["1e-40", "1e-13", "1e-8", "1e-4", "1e-2"]))
    points = ApproxRootSet(points=tuple(pts), accuracy=accuracy, coord_bound=3)
    reference, margin = numpy_select_basis(points)
    assume(margin > 1e-6)
    assert select_basis(points).monomials == reference


def grid(side, lo, shift=0.0, seed=0):
    rng = random.Random(seed)
    return tuple(
        (complex(a + rng.uniform(-shift, shift)), complex(b + rng.uniform(-shift, shift)))
        for a in range(lo, lo + side)
        for b in range(lo, lo + side)
    )


@pytest.mark.parametrize(
    "points",
    [
        ApproxRootSet(points=grid(5, -2), accuracy="1e-40", coord_bound=3),
        ApproxRootSet(points=grid(7, -3), accuracy="1e-40", coord_bound=4),
        ApproxRootSet(points=grid(8, -4), accuracy="1e-40", coord_bound=5),
        ApproxRootSet(points=grid(5, -2, shift=1e-14, seed=1), accuracy="1e-13", coord_bound=3),
    ],
    ids=["5x5", "7x7", "8x8", "5x5-moved"],
)
def test_select_basis_matches_the_numpy_reference_on_grids(points):
    assert select_basis(points).monomials == numpy_select_basis(points)[0]


@pytest.mark.parametrize(
    "values, accuracy, coord_bound, expected",
    [
        ((-1, 0, 1), "5e-2", 2, ((0,), (1,), (2,))),
        ((0, 1, 2), "2e-2", 3, ((0,), (1,))),
    ],
    ids=["accepted", "rejected"],
)
def test_select_basis_between_the_bounds_decides_on_sigma_min(
    values, accuracy, coord_bound, expected, monkeypatch
):
    # At x^2 the residual norm rho lies above t = 3*2*M*E (0.6 and 0.36),
    # and 1/||R^-1||_F below it, so neither bound decides: sigma_min(R) is
    # computed, 0.662 > 0.6 accepts x^2 and 0.348 <= 0.36 rejects it.
    sigmas = []

    def spy(v):
        sigmas.append(smallest_singular_value(v))
        return sigmas[-1]

    monkeypatch.setattr(numroots, "smallest_singular_value", spy)
    points = ApproxRootSet(
        points=tuple((complex(x),) for x in values), accuracy=accuracy, coord_bound=coord_bound
    )
    assert select_basis(points).monomials == expected == numpy_select_basis(points)[0]
    v = np.array(vandermonde(points.points, [(0,), (1,), (2,)]))
    assert len(sigmas) == 1
    assert abs(sigmas[0] - np.linalg.svd(v, compute_uv=False)[-1]) < 1e-14


def test_approx_root_set_radii_are_non_negative():
    # an infinite radius is vacuous but sound; a NaN one would discard every match
    def roots(radius):
        return ApproxRootSet(points=((1 + 0j,),), accuracy="1e-8", coord_bound=2, radii=(radius,))

    for radius in (0.0, math.inf):
        assert roots(radius).radii == (radius,)
    for radius in (float("nan"), -1e-300):
        with pytest.raises(ValueError, match="radius"):
            roots(radius)


def test_approx_root_set_validates_bound():
    with pytest.raises(ValueError):
        ApproxRootSet(points=((3 + 0j,),), accuracy="1e-2", coord_bound=2)
    with pytest.raises(ValueError):
        ApproxRootSet(points=((1 + 0j,),), accuracy="0", coord_bound=2)
    with pytest.raises(ValueError):
        ApproxRootSet(points=((1 + 0j,),), accuracy="1e-2", coord_bound=2, radii=(1e-3, 1e-3))


# -- match and filter ----------------------------------------------------------


def _planted_lists():
    sys_a = system("x^2-1", "y^2-1", variables=("x", "y"))
    sys_b = system("x^2-1", "x+y", variables=("x", "y"))
    list_a = ApproxRootSet(
        points=(
            (1 + 0j, 1 + 0j),
            (1 + 0j, -1 + 0j),
            (-1 + 0j, 1 + 0j),
            (-1 + 0j, -1 + 0j),
        ),
        accuracy="1e-9",
        coord_bound=2,
        radii=(1e-6,) * 4,
    )
    list_b = ApproxRootSet(
        points=((1 + 0j, -1 + 0j), (-1 + 0j, 1 + 0j)),
        accuracy="1e-9",
        coord_bound=2,
        radii=(1e-6,) * 2,
    )
    return sys_a, sys_b, list_a, list_b


def test_filter_discards_unmatched_point():
    sys_a, sys_b, list_a, list_b = _planted_lists()
    result = match_and_filter(list_a, list_b, sys_a, sys_b)
    kept = [p for p, _ in result.kept]
    assert kept == [(1 + 0j, -1 + 0j), (-1 + 0j, 1 + 0j)]
    assert not result.inconclusive


def test_filter_keeps_identical_lists():
    _, sys_b, _, list_b = _planted_lists()
    result = match_and_filter(list_b, list_b, sys_b, sys_b)
    assert len(result.kept) == 2


def test_filter_discards_far_fake_in_either_orientation():
    sys_a, sys_b, list_a, list_b = _planted_lists()
    # swap roles: the spurious square-subsystem roots live in list B now
    result = match_and_filter(list_b, list_a, sys_b, sys_a)
    assert len(result.kept) == 2
    result_rev = match_and_filter(list_a, list_b, sys_a, sys_b)
    assert all(p in [q for q, _ in result_rev.kept] for p in list_b.points)


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(
            lambda: select_basis(ApproxRootSet(points=(), accuracy="1e-9", coord_bound=2)),
            "need at least one point",
            id="select_basis without points",
        ),
        pytest.param(
            lambda: match_and_filter(*_planted_lists()[2:], *_planted_lists()[:2], max_rounds=-1),
            "max_rounds must be non-negative",
            id="negative rounds",
        ),
    ],
)
def test_numroots_guards(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_filter_requires_radii():
    sys_a, sys_b, list_a, list_b = _planted_lists()
    no_radii = ApproxRootSet(points=list_a.points, accuracy="1e-9", coord_bound=2)
    with pytest.raises(ValueError):
        match_and_filter(no_radii, list_b, sys_a, sys_b)
