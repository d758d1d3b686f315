import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hermicert.numroots import (
    ApproxRootSet,
    DivergedError,
    NoWellConditionedBasisError,
    SingularJacobianError,
    match_and_filter,
    newton_refine,
    select_basis,
    smallest_singular_value,
    vandermonde,
)
from hermicert.polynomials import PolySystem, parse_poly


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


# -- vandermonde / svd -------------------------------------------------------


def test_vandermonde_ones_column():
    v = vandermonde([(1 + 2j,), (3 + 0j,), (0j,)], [(0,)])
    assert v.shape == (3, 1) and v.dtype == complex
    assert (v[:, 0] == 1).all()


def test_vandermonde_sqrt2_points():
    v = vandermonde([(SQRT2 + 0j,), (-SQRT2 + 0j,)], [(0,), (1,)])
    assert v[0].tolist() == [1 + 0j, SQRT2 + 0j]
    assert v[1].tolist() == [1 + 0j, -SQRT2 + 0j]


def test_vandermonde_matches_loop_reference():
    from hermicert.polynomials import iter_monomials

    rng = random.Random(5)
    tol = 16 * np.finfo(float).eps
    for n in (1, 2, 3):
        pts = [tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n))
               for _ in range(5)]
        monos = list(iter_monomials(n, 6))
        v = vandermonde(pts, monos)
        assert v.shape == (len(pts), len(monos))
        for i, p in enumerate(pts):
            for j, mono in enumerate(monos):
                ref = 1 + 0j
                for z, e in zip(p, mono):
                    ref *= z**e
                assert abs(v[i, j] - ref) <= tol * abs(ref)


def test_vandermonde_empty_basis():
    v = vandermonde([(1 + 0j,), (2 + 0j,)], [])
    assert v.shape == (2, 0)
    assert smallest_singular_value(v) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_approx_root_set_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ApproxRootSet(points=((0.5 + 0j,), (bad,)), accuracy="1e-8", coord_bound=2)


def test_smallest_singular_value_examples():
    ident = np.array([[1, 0], [0, 1]], dtype=complex)
    assert abs(smallest_singular_value(ident) - 1) < 1e-13
    padded = np.array([[3, 0], [0, 1], [0, 0]], dtype=complex)
    assert abs(smallest_singular_value(padded) - 1) < 1e-13
    near = np.array([[1, 1], [1, 1 + 1e-6]], dtype=complex)
    assert abs(smallest_singular_value(near) - 5e-7) < 1e-8


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
        frob = float(np.linalg.norm(v_xi - v_z))
        bound = k * 1 * d * m_bound ** (d - 1) * e_bound
        assert frob <= bound
        assert smallest_singular_value(v_xi) >= smallest_singular_value(v_z) - frob - 1e-12


# -- basis selection ----------------------------------------------------------


def test_select_basis_single_point():
    pts = ApproxRootSet(points=((0.25 + 0j,),), accuracy="1e-8", coord_bound=1)
    assert select_basis(pts, ["x"]).monomials == ((0,),)


def test_select_basis_sqrt2():
    pts = ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=Fraction(1, 10**10), coord_bound=2
    )
    basis = select_basis(pts, ["x"])
    assert basis.monomials == ((0,), (1,))
    v = vandermonde(pts.points, basis.monomials)
    assert smallest_singular_value(v) > 2 * 1 * 1 * 1 * 1e-10


def test_select_basis_rejects_near_duplicates():
    pts = ApproxRootSet(
        points=((0.5 + 0j,), (0.5 + 1e-14 + 0j,)), accuracy="1e-6", coord_bound=1
    )
    with pytest.raises(NoWellConditionedBasisError):
        select_basis(pts, ["x"])


def test_select_basis_rejects_rounding_level_sigma_min():
    # Exact points of a 5x5 grid with a truthful, tiny E: the E-threshold
    # alone accepts x^5 and x^6, whose sigma_min is rounding error, and the
    # build then fails on the non-radical route.
    grid = tuple((complex(a), complex(b)) for a in range(-2, 3) for b in range(-2, 3))
    pts = ApproxRootSet(points=grid, accuracy="1e-40", coord_bound=3)
    basis = select_basis(pts, ["x", "y"])
    grlex = sorted(((i, j) for i in range(5) for j in range(5)), key=lambda m: (sum(m), -m[0]))
    assert basis.monomials == tuple(grlex)


def test_select_basis_output_is_connected():
    from hermicert.polynomials import is_connected_to_1

    pts = ApproxRootSet(
        points=((1 + 0j, 0j, -0.5 + 0j), (-1 + 0j, 0j, 0.5 + 0j)),
        accuracy="1e-8",
        coord_bound=2,
    )
    basis = select_basis(pts, ["x", "y", "l1"])
    assert is_connected_to_1(basis.monomials)
    assert len(basis) == 2


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


def test_filter_requires_radii():
    sys_a, sys_b, list_a, list_b = _planted_lists()
    no_radii = ApproxRootSet(points=list_a.points, accuracy="1e-9", coord_bound=2)
    with pytest.raises(ValueError):
        match_and_filter(no_radii, list_b, sys_a, sys_b)
