import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermicert.certify import certify_pipeline
from hermicert.hermite import (
    HermitePlus,
    PowerSums,
    ReconstructionFailedError,
    approx_extended_hermite,
    build_extended_hermite,
    build_hermite,
    reconstruct_hermite,
)
from hermicert.linalg import RatMatrix
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import (
    ExtendedBasis,
    MonomialBasis,
    PolySystem,
    monomial_mul,
    parse_poly,
)

from conftest import QC, exact_hermite_plus, newton_girard_power_sums

SQRT2 = math.sqrt(2)
B1X = MonomialBasis([(0,), (1,)])


def sqrt2_roots(accuracy=Fraction(1, 10**10)):
    return ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=accuracy, coord_bound=2
    )


def exact_sums(sums: PowerSums) -> list[QC]:
    """Each power sum as an exact complex rational."""
    parts = zip(sums.re, sums.im, sums.exponents)
    return [QC(Fraction(re, 1 << e), Fraction(im, 1 << e)) for re, im, e in parts]


def approx_grid(sums: PowerSums, ext):
    """The l x l matrix of exact power sums: entry (i, j) is the power sum
    of b_i * b_j."""
    values = exact_sums(sums)
    l = len(ext)
    return [[values[ext.product_index[i * l + j]] for j in range(l)] for i in range(l)]


def test_approx_matrix_power_sums_of_sqrt2():
    ext = ExtendedBasis(B1X)
    sums = approx_extended_hermite(sqrt2_roots(), ext)
    assert len(sums.re) == len(sums.im) == len(sums.exponents) == len(ext.products) == 5  # 1, ..., x^4
    approx = approx_grid(sums, ext)
    expected = [[2, 0, 4], [0, 4, 0], [4, 0, 8]]
    for i in range(3):
        for j in range(3):
            assert approx[i][j].im == 0
            assert abs(approx[i][j].re - expected[i][j]) < 1e-9
    # the sums are those of the double SQRT2 itself, not of sqrt(2)
    assert approx[0][1].re == 0 and approx[1][1].re == 2 * Fraction(SQRT2) ** 2 != 4


def test_approx_matrix_single_point_at_origin():
    pts = ApproxRootSet(points=((0j,),), accuracy="1e-9", coord_bound=1)
    ext = ExtendedBasis(MonomialBasis([(0,)]))
    approx = approx_grid(approx_extended_hermite(pts, ext), ext)
    assert approx[0][0].re == 1 and approx[0][0].im == 0
    for i, j in [(0, 1), (1, 0), (1, 1)]:
        assert approx[i][j].re == approx[i][j].im == 0


def _oracle_power_sums(points, ext) -> list[QC]:
    """sum_t z_t^alpha over the exact dyadic values of the doubles."""
    out = []
    for alpha in ext.products:
        total = QC(0)
        for p in points:
            v = QC(1)
            for z, e in zip(p, alpha):
                v = v * QC(Fraction(z.real), Fraction(z.imag)) ** e
            total = total + v
        out.append(total)
    return out


COORDS = st.floats(min_value=-3, max_value=3, allow_nan=False)
BASES = [
    MonomialBasis([(0,), (1,)]),
    MonomialBasis([(0,), (1,), (2,)]),
    MonomialBasis([(0, 0), (1, 0), (0, 1)]),
    # out of graded order: each label's values are built after a quotient's
    MonomialBasis([(0,), (2,), (1,)]),
    MonomialBasis([(0, 0), (1, 1), (0, 1), (1, 0)]),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), basis=st.sampled_from(BASES), complex_points=st.booleans())
def test_prop_exact_sums_equal_fraction_power_sums(data, basis, complex_points):
    k = data.draw(st.integers(min_value=1, max_value=4))
    imag = COORDS if complex_points else st.just(0.0)
    points = [
        tuple(complex(data.draw(COORDS), data.draw(imag)) for _ in range(basis.arity))
        for _ in range(k)
    ]
    ext = ExtendedBasis(basis)
    sums = approx_extended_hermite(ApproxRootSet(points, accuracy="1e-9", coord_bound=5), ext)
    got = exact_sums(sums)
    want = _oracle_power_sums(points, ext)
    assert [(z.re, z.im) for z in got] == [(z.re, z.im) for z in want]
    if not any(z.imag for p in points for z in p):
        assert sums.im == [0] * len(ext.products)


def test_tiny_coordinate_builds_and_matches_the_exact_matrix():
    # 1e-300 approximates the root 0: its scale is a power of two above
    # 2^996, and the exact sums stay exact where complex doubles underflow
    pts = ApproxRootSet(points=((1e-300 + 0j,), (0.5 + 0j,)), accuracy="1e-20", coord_bound=2)
    hp = build_extended_hermite(pts, B1X)
    oracle = exact_hermite_plus([(QC(0),), (QC(Fraction(1, 2)),)], B1X, coord_bound=2)
    assert hp.matrix == oracle.matrix


def test_power_sum_above_2_to_the_53_reconstructs_to_the_exact_integer():
    # x^4 at x = 2^20 + 1 needs 81 bits: a double rounds it to an integer
    # that the bound cannot tell from the true one
    z = 2**20 + 1
    pts = ApproxRootSet(points=((float(z) + 0j,),), accuracy="1e-40", coord_bound=2**21)
    hp = build_extended_hermite(pts, MonomialBasis([(0,), (1,)]))
    assert hp.labels.extension == ((0,), (1,), (2,))
    assert [hp.matrix.entry(2, j) for j in range(3)] == [z**2, z**3, z**4]
    assert z**4 > 2**53


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
        reconstruct_hermite(approx, ExtendedBasis(B1X), 1, 2, 2)
    assert err.value.reason == "not_usable"


def test_reconstruct_rejects_large_imaginary_part():
    ext = ExtendedBasis(B1X)
    sums = approx_extended_hermite(sqrt2_roots(), ext)
    pos = ext.product_index[1]  # the power sum of x, at (0, 1) and (1, 0)
    im = list(sums.im)
    im[pos] += (1 << sums.exponents[pos]) // 10 + 1  # just above 0.1j
    sums = PowerSums(sums.re, im, sums.exponents)
    with pytest.raises(ReconstructionFailedError) as err:
        reconstruct_hermite(sums, ext, Fraction(1, 10**10), 2, 2)
    assert err.value.reason == "imaginary_too_large"
    assert err.value.entry == (0, 1)  # the first entry, row-major, holding the product


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
    approx = approx_grid(approx_extended_hermite(sqrt2_roots(), hp.labels), hp.labels)
    e, k, n, m = Fraction(1, 10**10), 2, 1, Fraction(2)
    ext = hp.labels.extension
    for i in range(len(ext)):
        for j in range(len(ext)):
            d = sum(ext[i]) + sum(ext[j])
            if d == 0:
                continue
            err = e * k * n * d * m ** (d - 1)
            assert approx[i][j].im == 0
            assert abs(approx[i][j].re - hp.matrix.entry(i, j)) <= err


# -- non-radical construction ------------------------------------------------


def test_nonradical_double_root_plus_simple():
    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    assert hp.base_size() == 2 and hp.reduced
    assert hp.labels.base.monomials == ((0,), (1,))
    assert hp.matrix == RatMatrix.from_rows([[3, 0, 6], [0, 6, -6], [6, -6, 18]])
    assert hp.provenance.point_count == 3
    h1 = hp.matrix.submatrix([0, 1], [0, 1])
    hx = hp.matrix.submatrix([0, 1], [1, 2])
    assert h1 == RatMatrix.from_rows([[3, 0], [0, 6]])
    assert hx == RatMatrix.from_rows([[0, 6], [6, -6]])


def test_nonradical_distinct_points_keep_everything():
    pts = ApproxRootSet(points=((1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, B1X)
    assert hp.base_size() == 2 and not hp.reduced
    assert hp.labels.base == B1X


def test_nonradical_double_root_only():
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,)), accuracy="1e-8", coord_bound=2)
    hp = build_hermite(pts, B1X)
    assert hp.base_size() == 1
    assert hp.matrix.entry(0, 0) == 2
    assert hp.labels.extension == ((0,), (1,))


def test_nonradical_rejects_basis_size_mismatch():
    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    with pytest.raises(ValueError):
        build_hermite(pts, B1X)


def test_nonradical_output_rank_contract():
    from hermicert.linalg import rank

    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    kbar = hp.base_size()
    h1 = hp.matrix.submatrix(range(kbar), range(kbar))
    assert rank(h1) == rank(hp.matrix) == kbar


def fails_step_2_on_one_selected_label(polys, points, basis):
    """The reduced H+ that build_hermite returns, on the selection {1}, and
    certification rejecting it at step 2 with the ranks of the two roots."""
    variables = ["x", "y"]
    system = PolySystem(variables, [parse_poly(p, variables) for p in polys])
    pts = ApproxRootSet(points=points, accuracy="1e-8", coord_bound=2)
    hp = build_hermite(pts, MonomialBasis(basis))
    assert hp.reduced and hp.labels.base.monomials == ((0, 0),)
    outcome = certify_pipeline(system, parse_poly("1", variables), hp)
    assert (outcome.status, outcome.failed_step, outcome.reason) == ("fail", 2, "rank_deficient")
    assert outcome.detail == "rank H1 = 1, rank H+ = 2, expected 1"


def test_nonradical_rank_of_h_plus_above_the_connected_block_is_rejected():
    # V(x, y^2 - y) with (0, 0) doubled, on {1, x, x^2}: x vanishes at every
    # point, so rank H1 = 1 and the scan keeps {1}, but the extension label y
    # separates the two roots, so rank H+ = 2
    fails_step_2_on_one_selected_label(
        ["x", "y^2-y"], ((0j, 0j), (0j, 0j), (0j, 1 + 0j)), [(0, 0), (1, 0), (2, 0)]
    )


def test_nonradical_scan_falling_short_of_rank_h1_is_rejected():
    # V(x^2 - x, y - 1) with (0, 1) doubled: y = 1 at every point, so y joins
    # no selection and xy, which separates the two roots, has no selected
    # single-variable quotient; the scan of {1, y, xy} keeps {1} while
    # rank H1 = 2, and the extension label x separates the roots
    fails_step_2_on_one_selected_label(
        ["x^2-x", "y-1"], ((0j, 1 + 0j), (0j, 1 + 0j), (1 + 0j, 1 + 0j)), [(0, 0), (0, 1), (1, 1)]
    )


B1X_EXT = ExtendedBasis(MonomialBasis([(0,), (1,)]))  # labels 1, x, x^2


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: HermitePlus(RatMatrix.from_rows([[1, 0], [0, 1]]), B1X_EXT, None),
            ValueError,
            "matrix size does not match the extended basis",
            id="matrix size",
        ),
        pytest.param(
            lambda: approx_extended_hermite(
                ApproxRootSet(points=((1 + 0j, 2 + 0j),), accuracy="1e-10", coord_bound=3), B1X_EXT
            ),
            ValueError,
            "point arity does not match the basis",
            id="point arity",
        ),
        pytest.param(
            lambda: reconstruct_hermite(PowerSums([2], [0], [0]), B1X_EXT, "1e-10", 2, 2),
            ValueError,
            "power-sum count does not match the basis",
            id="power-sum count",
        ),
        # the degree-0 sum counts the points, so it is real; a failure names
        # the first cell of its product, (0, 0)
        pytest.param(
            lambda: reconstruct_hermite(PowerSums([2] * 5, [1, 0, 0, 0, 0], [0] * 5), B1X_EXT, "1e-10", 2, 2),
            ReconstructionFailedError,
            r"entry \(0, 0\): imaginary_too_large \(degree-0 entry\)",
            id="imaginary degree-0 sum",
        ),
    ],
)
def test_hermite_guards(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
