import math
import random
from fractions import Fraction

import pytest

from hermicert.hermite import (
    HermitePlus,
    NonRadicalRankError,
    ReconstructionFailedError,
    approx_extended_hermite,
    build_extended_hermite,
    build_nonradical,
    reconstruct_hermite,
)
from hermicert.linalg import RatMatrix
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import (
    ExtendedBasis,
    MonomialBasis,
    monomial_mul,
)

from conftest import QC, exact_hermite_plus, newton_girard_power_sums

SQRT2 = math.sqrt(2)
B1X = MonomialBasis([(0,), (1,)])


def sqrt2_roots(accuracy=Fraction(1, 10**10)):
    return ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=accuracy, coord_bound=2
    )


def test_approx_matrix_power_sums_of_sqrt2():
    approx = approx_extended_hermite(sqrt2_roots(), ExtendedBasis(B1X))
    expected = [[2, 0, 4], [0, 4, 0], [4, 0, 8]]
    for i in range(3):
        for j in range(3):
            assert abs(approx[i][j] - expected[i][j]) < 1e-9


def test_approx_matrix_single_point_at_origin():
    pts = ApproxRootSet(points=((0j,),), accuracy="1e-9", coord_bound=1)
    approx = approx_extended_hermite(pts, ExtendedBasis(MonomialBasis([(0,)])))
    assert approx[0][0] == 1
    assert approx[0][1] == approx[1][0] == approx[1][1] == 0


def is_coherent(hp: HermitePlus) -> bool:
    """Symmetry plus equal entries on equal monomial products."""
    if not hp.matrix.is_symmetric():
        return False
    seen = {}
    ext = hp.labels.extension
    for i, bi in enumerate(ext):
        for j, bj in enumerate(ext):
            value = hp.matrix.entry(i, j)
            if seen.setdefault(monomial_mul(bi, bj), value) != value:
                return False
    return True


def test_reconstruct_recovers_newton_girard_oracle():
    hp = build_extended_hermite(sqrt2_roots(), B1X)
    sums = newton_girard_power_sums([1, 0, -2], 4)
    ext = hp.labels.extension
    for i in range(3):
        for j in range(3):
            assert hp.matrix.entry(i, j) == sums[sum(ext[i]) + sum(ext[j])]
    assert is_coherent(hp)
    assert hp.provenance.bounds[(4,)] == 8839


def test_reconstruct_rejects_poor_accuracy():
    approx = approx_extended_hermite(sqrt2_roots(), ExtendedBasis(B1X))
    with pytest.raises(ReconstructionFailedError) as err:
        reconstruct_hermite(approx, ExtendedBasis(B1X), 1, 2, 1, 2)
    assert err.value.reason == "not_usable"


def test_reconstruct_rejects_large_imaginary_part():
    approx = [list(r) for r in approx_extended_hermite(sqrt2_roots(), ExtendedBasis(B1X))]
    approx[0][1] += 0.1j
    with pytest.raises(ReconstructionFailedError) as err:
        reconstruct_hermite(approx, ExtendedBasis(B1X), Fraction(1, 10**10), 2, 1, 2)
    assert err.value.reason == "imaginary_too_large"


def test_reconstruct_not_found_when_denominator_exceeds_bound():
    # single point 1/11: the degree-2 power sum 1/121 needs denominator 121,
    # but with E = 1e-4 the degree-2 bound is ceil((4e-4)^(-1/2)) = 50
    pts = ApproxRootSet(points=((1 / 11 + 0j,),), accuracy="1e-4", coord_bound=1)
    with pytest.raises(ReconstructionFailedError) as err:
        build_extended_hermite(pts, MonomialBasis([(0,)]))
    assert err.value.reason == "not_found"


def test_round_trip_on_dyadic_points_matches_exact_gram():
    # dyadic coordinates make every float power sum exact, so with a claimed
    # accuracy small enough for the denominators (8^6 here) reconstruction
    # must reproduce the exact V^T V gram computed independently
    rng = random.Random(6)
    for _ in range(10):
        k = rng.randint(1, 3)
        vals = rng.sample([Fraction(n, 8) for n in range(-12, 13)], k)
        pts = ApproxRootSet(
            points=tuple((complex(float(v), 0.0),) for v in vals),
            accuracy="1e-20",
            coord_bound=4,
        )
        basis = MonomialBasis([(d,) for d in range(k)])
        hp = build_extended_hermite(pts, basis)
        oracle = exact_hermite_plus([(QC(v),) for v in vals], basis, coord_bound=4)
        assert hp.matrix == oracle.matrix


def test_hankel_coherence_holds_by_construction():
    pts = ApproxRootSet(
        points=((0.5 + 0j, -1 + 0j), (-0.25 + 0j, 0.5 + 0j)), accuracy="1e-9", coord_bound=2
    )
    basis = MonomialBasis([(0, 0), (1, 0)])
    hp = build_extended_hermite(pts, basis)
    assert is_coherent(hp)
    ext = hp.labels.extension
    for i, bi in enumerate(ext):
        for j, bj in enumerate(ext):
            for s, bs in enumerate(ext):
                for t, bt in enumerate(ext):
                    if monomial_mul(bi, bj) == monomial_mul(bs, bt):
                        assert hp.matrix.entry(i, j) == hp.matrix.entry(s, t)


def test_prop_bound_holds_on_reconstructed_entries():
    hp = build_extended_hermite(sqrt2_roots(), B1X)
    approx = approx_extended_hermite(sqrt2_roots(), ExtendedBasis(B1X))
    e, k, n, m = Fraction(1, 10**10), 2, 1, Fraction(2)
    ext = hp.labels.extension
    for i in range(len(ext)):
        for j in range(len(ext)):
            d = sum(ext[i]) + sum(ext[j])
            if d == 0:
                continue
            err = e * k * n * d * m ** (d - 1)
            assert abs(Fraction(approx[i][j].real) - hp.matrix.entry(i, j)) <= err


# -- non-radical construction ------------------------------------------------


def test_nonradical_double_root_plus_simple():
    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
    assert hp.base_size() == 2
    assert hp.labels.base.monomials == ((0,), (1,))
    assert hp.matrix == RatMatrix.from_rows([[3, 0, 6], [0, 6, -6], [6, -6, 18]])
    assert hp.provenance.point_count == 3
    h1 = hp.matrix.submatrix([0, 1], [0, 1])
    hx = hp.matrix.submatrix([0, 1], [1, 2])
    assert h1 == RatMatrix.from_rows([[3, 0], [0, 6]])
    assert hx == RatMatrix.from_rows([[0, 6], [6, -6]])


def test_nonradical_distinct_points_keep_everything():
    pts = ApproxRootSet(points=((1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_nonradical(build_extended_hermite(pts, B1X))
    assert hp.base_size() == 2
    assert hp.labels.base == B1X


def test_nonradical_double_root_only():
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,)), accuracy="1e-8", coord_bound=2)
    hp = build_nonradical(build_extended_hermite(pts, B1X))
    assert hp.base_size() == 1
    assert hp.matrix.entry(0, 0) == 2
    assert hp.labels.extension == ((0,), (1,))


def test_nonradical_rejects_basis_size_mismatch():
    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    with pytest.raises(ValueError):
        build_nonradical(build_extended_hermite(pts, B1X))


def test_nonradical_output_rank_contract():
    from hermicert.linalg import rank

    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
    kbar = hp.base_size()
    h1 = hp.matrix.submatrix(range(kbar), range(kbar))
    assert rank(h1) == rank(hp.matrix) == kbar
