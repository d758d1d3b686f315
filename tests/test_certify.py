import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermicert._kernels as kernels
import hermicert.certify as certify_module
from hermicert import jsonio
from hermicert.certify import (
    NormalForms,
    SignatureMethodMismatchError,
    StepFailure,
    certify_nonradical,
    certify_pipeline,
    check_commute_and_membership,
    check_squarefree,
    check_traces,
    derive_hg,
    extract_blocks,
    hermite_for_g,
    mult_matrices,
    signature,
)
from hermicert.certificates import BallQuery, ball_polynomial, lagrange_system
from hermicert.hermite import HermitePlus, HermiteProvenance, build_extended_hermite, build_hermite
from hermicert.linalg import (
    Inertia,
    NotSymmetricError,
    RatMatrix,
    inertia_descartes,
    inertia_ldl,
    inverse,
    rank,
    root_signs,
)
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import (
    ExtendedBasis,
    MonomialBasis,
    MultiPoly,
    PolySystem,
    monomial_mul,
    parse_poly,
)

from conftest import (
    QC,
    exact_hermite_plus,
    identity,
    matrix_rows,
    matrix_trace,
    roots_as_qc,
    split_components,
    univariate_from_roots,
    wrong_signature_kernel,
)

SQRT2 = math.sqrt(2)
B1X = MonomialBasis([(0,), (1,)])
F_SQRT2 = PolySystem(["x"], [parse_poly("x^2-2", ["x"])])
G_X = parse_poly("x", ["x"])


def sqrt2_hermite():
    pts = ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=Fraction(1, 10**10), coord_bound=2
    )
    return build_extended_hermite(pts, B1X)


def shifted_blocks(hp):
    """The dense k x k blocks H1^(x_s): the columns of H+ labelled x_s * B."""
    k = hp.base_size()
    return [hp.matrix.submatrix(range(k), row) for row in hp.labels.shifts]


def test_extract_blocks_univariate():
    hp = sqrt2_hermite()
    h1, border = extract_blocks(hp)
    assert h1 == RatMatrix.from_rows([[2, 0], [0, 4]])
    assert shifted_blocks(hp) == [RatMatrix.from_rows([[0, 4], [4, 0]])]
    # x * 1 = x is in the basis; only x * x = x^2 is a border column
    assert border == RatMatrix.from_rows([[4], [0]])


def test_extract_blocks_single_point():
    hp = exact_hermite_plus([(QC(3),)], MonomialBasis([(0,)]))
    h1, border = extract_blocks(hp)
    assert h1 == RatMatrix.from_rows([[1]])
    assert shifted_blocks(hp) == [RatMatrix.from_rows([[3]])]
    assert border == RatMatrix.from_rows([[3]])


def test_extract_blocks_rejects_an_asymmetric_candidate():
    # every true H+ is symmetric, and every later step eliminates symmetric
    # matrices only: one entry off its mirror fails step 1
    hp = sqrt2_hermite()
    rows = matrix_rows(hp.matrix)
    rows[0][1] += 1
    with pytest.raises(StepFailure) as failure:
        extract_blocks(HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance))
    assert (failure.value.step, failure.value.reason) == (1, "not_symmetric")
    assert failure.value.detail == "H+ is not symmetric"


def test_mult_matrices_from_blocks():
    hp = sqrt2_hermite()
    h1, border = extract_blocks(hp)
    ms, inertia = mult_matrices(h1, border, hp)
    assert ms[0] == RatMatrix.from_rows([[0, 2], [1, 0]])
    assert inertia == Inertia(2, 0, 0)  # H1 = diag(2, 4)


def test_mult_matrices_of_two_distinct_roots():
    # roots {1, -2}: H1 = [[2,-1],[-1,5]], H1^x = [[-1,5],[5,-7]]
    hp = exact_hermite_plus(roots_as_qc([Fraction(1), Fraction(-2)], []), B1X)
    h1, border = extract_blocks(hp)
    ms, _ = mult_matrices(h1, border, hp)
    assert ms[0] == RatMatrix.from_rows([[0, 2], [1, -1]])


def test_shared_border_label_is_one_column():
    # on {1, x, y}, x * y = y * x lies outside the basis: the border block
    # holds each of x^2, xy, y^2 once, and both M_x and M_y read the xy column
    xy_basis = MonomialBasis([(0, 0), (1, 0), (0, 1)])
    hp = exact_hermite_plus([(QC(0), QC(0)), (QC(1), QC(0)), (QC(0), QC(1))], xy_basis)
    assert hp.labels.shifts[0][2] == hp.labels.shifts[1][1] >= hp.base_size()
    h1, border = extract_blocks(hp)
    assert border.cols == len(hp.labels) - hp.base_size() == 3
    assert border == hp.matrix.submatrix(range(3), range(3, 6))
    ms, _ = mult_matrices(h1, border, hp)
    assert ms == dense_mult_matrices(hp)


def test_mult_matrices_rank_deficient_fails():
    hp = exact_hermite_plus(roots_as_qc([Fraction(1), Fraction(1)], []), B1X)
    h1, border = extract_blocks(hp)
    with pytest.raises(StepFailure) as failure:
        mult_matrices(h1, border, hp)
    assert (failure.value.step, failure.value.reason) == (2, "rank_deficient")


@pytest.mark.parametrize(
    "roots, detail",
    [
        ([1, 1], "rank H1 = 1, rank H+ = 1, expected 2"),  # H1 itself is singular
        ([1, -2, 3], "rank H1 = 2, rank H+ = 3, expected 2"),  # only H+ is too large
    ],
)
def test_mult_matrices_computes_each_rank_once(roots, detail, monkeypatch):
    hp = exact_hermite_plus(roots_as_qc([Fraction(r) for r in roots], []), B1X)
    h1, border = extract_blocks(hp)
    calls = []

    def counting(a):
        calls.append(a.rows)
        return rank(a)

    monkeypatch.setattr(certify_module, "rank", counting)
    with pytest.raises(StepFailure) as failure:
        mult_matrices(h1, border, hp)
    assert failure.value.detail == detail
    assert sorted(calls) == [2, 3]


def test_mult_matrices_makes_no_rank_call_when_it_succeeds(monkeypatch):
    hp = sqrt2_hermite()
    h1, border = extract_blocks(hp)
    ranks, eliminations = [], []

    def counting(a):
        ranks.append(a.rows)
        return rank(a)

    def counting_kernel(k, nums, dens, rhs=None, linked=None):
        eliminations.append((k, rhs is not None))
        return kernel(k, nums, dens, rhs, linked)

    kernel = kernels.eliminate
    monkeypatch.setattr(certify_module, "rank", counting)
    monkeypatch.setattr(kernels, "eliminate", counting_kernel)
    ms, inertia = mult_matrices(h1, border, hp)
    assert ms == [RatMatrix.from_rows([[0, 2], [1, 0]])]
    # the solve proves H1 nonsingular and gives its inertia, and the Schur
    # complement check proves rank H+ = k: H1 is eliminated once, with the
    # border columns carried along, and no rank is computed
    assert ranks == []
    assert eliminations == [(2, True)]
    assert inertia == Inertia(2, 0, 0)


def test_squarefree_pass_and_fail():
    # the trace forms of Q[x]/(x^2 - 2) and of the non-reduced Q[x]/(x^3)
    assert check_squarefree(RatMatrix.from_rows([[2, 0], [0, 4]])) == Inertia(2, 0, 0)
    with pytest.raises(StepFailure) as failure:
        check_squarefree(RatMatrix.from_rows([[3, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert (failure.value.step, failure.value.reason) == (4, "not_squarefree")
    assert failure.value.detail == "rank of the trace form = 1, expected 3"


def table(ms, basis=B1X):
    return NormalForms(ms, basis.monomials)


def test_commute_and_membership():
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    assert check_commute_and_membership(table([m]), F_SQRT2) is None
    wrong = RatMatrix.from_rows([[0, 3], [1, 0]])
    with pytest.raises(StepFailure, match="nonmember"):
        check_commute_and_membership(table([wrong]), F_SQRT2)
    a = RatMatrix.from_rows([[1, 1], [0, 1]])
    b = RatMatrix.from_rows([[1, 0], [1, 1]])
    two_var = PolySystem(["x", "y"], [])
    with pytest.raises(StepFailure, match="noncommuting"):
        check_commute_and_membership(table([a, b], MonomialBasis([(0, 0), (1, 0)])), two_var)


def test_noncommuting_only_in_a_border_column():
    # basis {1, x, y}: the columns x*1 = x and y*1 = y are unit vectors, the
    # other four are border columns.  The normal forms of the points (0,0),
    # (1,0), (0,1) (x^2 = x, x*y = 0, y^2 = y) commute; x^2 = x + y does not,
    # yet both products agree on columns 0 and 2 and differ only on
    # column 1, which is a border column of M_x and of M_y.
    basis = MonomialBasis([(0, 0), (1, 0), (0, 1)])
    two_var = PolySystem(["x", "y"], [])
    m_y = RatMatrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 1]])
    m_x = RatMatrix.from_rows([[0, 0, 0], [1, 1, 0], [0, 0, 0]])
    assert check_commute_and_membership(table([m_x, m_y], basis), two_var) is None
    bent = RatMatrix.from_rows([[0, 0, 0], [1, 1, 0], [0, 1, 0]])
    left, right = bent @ m_y, m_y @ bent
    differing = [t for t in range(3) if any(left.entry(r, t) != right.entry(r, t) for r in range(3))]
    assert differing == [1]
    with pytest.raises(StepFailure, match="noncommuting"):
        check_commute_and_membership(table([bent, m_y], basis), two_var)


def trace_form(hp, ms):
    """The trace form on hp's basis of the algebra on which x_s acts by M_s."""
    return certify_module._base_trace_matrix(hp.labels, table(ms, hp.labels.base))


def test_traces_match_and_detect_perturbation():
    hp = sqrt2_hermite()
    h1, _ = extract_blocks(hp)
    trace = trace_form(hp, [RatMatrix.from_rows([[0, 2], [1, 0]])])
    assert check_traces(h1, trace) is None
    # the (x^2, x^2) entry lies outside H1: the Schur complement of step 2
    # sees it, and step 6 is never reached
    rows = matrix_rows(hp.matrix)
    rows[2][2] += 1
    out = certify_pipeline(F_SQRT2, G_X, HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance))
    assert (out.failed_step, out.reason) == (2, "rank_deficient")
    # inside H1, step 6 names the first entry in row-major order
    with pytest.raises(StepFailure) as failure:
        check_traces(RatMatrix.from_rows([[2, 1], [1, 4]]), trace)
    assert (failure.value.step, failure.value.reason) == (6, "trace_mismatch")
    assert failure.value.detail == "entry (0, 1): H+ = 1, trace = 0"


def test_traces_single_point():
    hp = exact_hermite_plus([(QC(3),)], MonomialBasis([(0,)]))
    assert check_traces(extract_blocks(hp)[0], trace_form(hp, [RatMatrix.from_rows([[3]])])) is None


def per_product_trace_grid(ms, monomials):
    """Reference: one product of cached matrix powers per distinct monomial."""
    k = ms[0].rows
    max_exp = [0] * len(ms)
    for m in monomials:
        for i, e in enumerate(m):
            max_exp[i] = max(max_exp[i], 2 * e)
    powers = []
    for i, m in enumerate(ms):
        cache = [identity(k)]
        for _ in range(max_exp[i]):
            cache.append(cache[-1] @ m)
        powers.append(cache)
    traces = {}

    def trace_of(alpha):
        if alpha not in traces:
            acc = identity(k)
            for i, e in enumerate(alpha):
                if e:
                    acc = acc @ powers[i][e]
            traces[alpha] = matrix_trace(acc)
        return traces[alpha]

    return [[trace_of(monomial_mul(a, b)) for b in monomials] for a in monomials]


def grid_points():
    return [(QC(a), QC(b)) for a in range(-2, 3) for b in range(-2, 3)]


def grid_case():
    points = grid_points()
    basis = MonomialBasis(
        sorted(((i, j) for i in range(5) for j in range(5)), key=lambda m: (sum(m), -m[0]))
    )
    system = PolySystem(["x", "y"], [parse_poly("x^5-5*x^3+4*x", ["x", "y"]),
                                     parse_poly("y^5-5*y^3+4*y", ["x", "y"])])
    return system, exact_hermite_plus(points, basis)


def lagrange_points():
    # the critical points of 6x+6y-5 on the 4x4 grid, l = -6 / f'(coordinate)
    # with f = x(x-1)(x-2)(x-3)
    roots = [Fraction(r) for r in range(4)]
    return [
        (QC(a), QC(b), QC(-6 / math.prod(a - r for r in roots if r != a)),
         QC(-6 / math.prod(b - r for r in roots if r != b)))
        for a in roots
        for b in roots
    ]


def lagrange_case():
    # the nonneg-lagrange ring
    variables = ["x", "y"]
    system = PolySystem(variables, [parse_poly("x^4-6*x^3+11*x^2-6*x", variables),
                                    parse_poly("y^4-6*y^3+11*y^2-6*y", variables)])
    lag = lagrange_system(system, parse_poly("6*x+6*y-5", variables))
    basis = MonomialBasis(
        sorted(((i, j, 0, 0) for i in range(4) for j in range(4)), key=lambda m: (sum(m), -m[0]))
    )
    return lag, exact_hermite_plus(lagrange_points(), basis)


def univariate_case():
    real = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    pairs = [(Fraction(1, 3), Fraction(2))]
    system = PolySystem(["x"], [univariate_from_roots(real, pairs)])
    basis = MonomialBasis([(d,) for d in range(5)])
    return system, exact_hermite_plus(roots_as_qc(real, pairs), basis)


@pytest.mark.parametrize("case", [grid_case, lagrange_case, univariate_case])
def test_trace_grid_matches_per_product_reference(case):
    system, hp = case()
    out = certify_pipeline(system, parse_poly("1", list(system.variables)), hp)
    assert out.certified, (out.reason, out.detail)
    ms, labels = out.mult_matrices, hp.labels
    ext, l = labels.extension, len(labels)
    assert l > hp.base_size()
    traces = certify_module._trace_grid(table(ms, labels.base), labels.products)
    got = [[traces[labels.product_index[i * l + j]] for j in range(l)] for i in range(l)]
    assert got == per_product_trace_grid(ms, ext) == matrix_rows(hp.matrix)


def test_trace_grid_matches_per_product_reference_on_reduced_basis():
    # the DOUBLE_ROOT fixture: x^3-3x+2 with roots 1, 1, -2, reduced basis {1, x}
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    out = certify_nonradical(f, G_X, hp)
    assert out.certified
    basis = hp.labels.base.monomials
    nf = NormalForms(out.mult_matrices, basis)
    got = [certify_module._trace_grid(nf, [monomial_mul(a, b) for b in basis]) for a in basis]
    assert got == per_product_trace_grid(out.mult_matrices, basis) == matrix_rows(out.h1)


def per_basis_trace_grid_oracle(nf, monomials):
    """Reference: Tr(M^alpha) = sum_i (v_(alpha + beta_i))_i, one table vector
    per basis index i."""
    traces = []
    for alpha in monomials:
        total = Fraction(0)
        for i, beta in enumerate(nf.basis):
            w, d = nf.vector(monomial_mul(alpha, beta))
            total += Fraction(w[i], d)
        traces.append(total)
    return traces


def assert_trace_grid_matches_oracle(ms, labels):
    got = certify_module._trace_grid(table(ms, labels.base), labels.products)
    want = per_basis_trace_grid_oracle(table(ms, labels.base), labels.products)
    assert len(got) == len(want) == len(labels.products)
    for alpha, g, w in zip(labels.products, got, want):
        assert g == w, alpha


@pytest.mark.parametrize("case", [grid_case, lagrange_case])
def test_trace_grid_matches_per_basis_oracle(case):
    system, hp = case()
    out = certify_pipeline(system, parse_poly("1", list(system.variables)), hp)
    assert out.certified, (out.reason, out.detail)
    assert_trace_grid_matches_oracle(out.mult_matrices, hp.labels)


@pytest.mark.parametrize("name", ["nonradical_univariate_outcome", "nonradical_corner_outcome"])
def test_base_trace_matrix_matches_per_basis_oracle(name):
    out = OUTCOMES[name]()
    assert out.certified
    basis = out.basis
    labels = ExtendedBasis(basis)
    k = len(basis)
    got = certify_module._base_trace_matrix(labels, table(out.mult_matrices, basis))
    cells = [monomial_mul(a, b) for a in basis.monomials for b in basis.monomials]
    want = per_basis_trace_grid_oracle(table(out.mult_matrices, basis), cells)
    assert [got.entry(i, j) for i in range(k) for j in range(k)] == want
    assert got == out.h1


@settings(max_examples=20, deadline=None)
@given(
    st.dictionaries(st.integers(-3, 3), st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda mult: 2 <= sum(mult.values()) <= 6 and max(mult.values()) > 1
    )
)
def test_trace_grid_matches_per_basis_oracle_on_reduced_basis(mult):
    # roots with multiplicities on {1, x, ..., x^(N-1)}: build_hermite
    # reduces the basis to one element per distinct root
    roots = [r for r, m in sorted(mult.items()) for _ in range(m)]
    system = PolySystem(["x"], [univariate_from_roots([Fraction(r) for r in roots], [])])
    full = MonomialBasis([(d,) for d in range(len(roots))])
    pts = ApproxRootSet(points=tuple((complex(r),) for r in roots), accuracy="1e-20", coord_bound=4)
    hp = build_hermite(pts, full)
    assert len(hp.labels.base) == len(mult)
    out = certify_nonradical(system, ONE_X, hp)
    assert out.certified, (out.reason, out.detail)
    assert_trace_grid_matches_oracle(out.mult_matrices, hp.labels)


def test_trace_grid_reads_one_vector_per_label_product():
    # tau . v_alpha reads v_alpha and the base products only, all of them
    # label products; the per-basis loop read v_(alpha + beta_i) for every i
    system, hp = lagrange_case()
    nf = table(certify_pipeline(system, parse_poly("1", list(system.variables)), hp).mult_matrices, hp.labels.base)
    certify_module._trace_grid(nf, hp.labels.products)
    assert len(nf._vectors) == len(hp.labels.products)


def test_certification_reads_the_base_products_not_every_label_product():
    # step 6 compares H1 alone with the trace form, whose traces and tau
    # read only the base products b_i * b_j; step 5 adds the vectors of the
    # input polynomials' monomials.  Comparing all of H+ with its traces
    # would read every label product (351 here).
    system, hp = lagrange_case()
    out = certify_pipeline(system, parse_poly("1", list(system.variables)), hp)
    assert out.certified
    base = {monomial_mul(a, b) for a in hp.labels.base.monomials for b in hp.labels.base.monomials}
    memoised = set(out.normal_forms._vectors)
    assert base <= memoised
    assert len(memoised) < len(hp.labels.products)


# -- step 6 against the full trace grid ---------------------------------------
#
# Step 6 compares H1 alone with the trace form; the step it replaced compared
# every entry of H+ with the trace of its label product.  Steps 1 and 2 make
# H+ a flat extension of H1, so both accept the same candidates and name the
# same first mismatch (certify's module docstring).  The old step is kept
# here as the reference, swapped in for step 6, and every report must come
# out byte for byte the same.


def full_grid_step_6(hplus):
    """The replaced step 6: every entry of H+, in row-major order, against
    the trace of its label product (_trace_grid over labels.products), on
    the table of the M_s that steps 1 and 2 give."""
    h1, border = extract_blocks(hplus)
    nf = NormalForms(mult_matrices(h1, border, hplus)[0], hplus.labels.base.monomials)
    labels = hplus.labels
    traces = certify_module._trace_grid(nf, labels.products)
    for pos, p in enumerate(labels.product_index):
        i, j = divmod(pos, len(labels))
        entry = hplus.matrix.entry(i, j)
        if entry != traces[p]:
            raise StepFailure(6, "trace_mismatch", f"entry ({i}, {j}): H+ = {entry}, trace = {traces[p]}")


def moment_candidate(hp, moment):
    """H+[a, b] = moment(b_a * b_b) on hp's labels, with hp's provenance."""
    labels = hp.labels
    values = [moment(p) for p in labels.products]
    l = len(labels)
    rows = [[values[labels.product_index[i * l + j]] for j in range(l)] for i in range(l)]
    return HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance)


def cube_roots_weighted(weights):
    # sum_t w_t omega_t^m over the cube roots of unity, the conjugate pair
    # sharing its weight: w_0 + w_1 (omega^m + omega^-m)
    w0, w1 = weights
    return lambda alpha: w0 + w1 * (2 if alpha[0] % 3 == 0 else -1)


@functools.cache
def oracle_input(name):
    """(system, g, the true H+, the number of weights, weighted: weights ->
    the moments alpha -> sum_t w_t xi_t^alpha)."""
    if name == "grid":
        system, hp = grid_case()
        points = grid_points()
        g = "x*y-1/2"
    elif name == "nonneg":
        system, hp = lagrange_case()
        points = lagrange_points()
        g = "6*x+6*y-5"
    else:  # x^3 - 1 on {1, x, x^2}
        system = PolySystem(["x"], [parse_poly("x^3-1", ["x"])])
        moments = {(m,): cube_roots_weighted((1, 1))((m,)) for m in range(7)}
        hp = functional_candidate([(0,), (1,), (2,)], 3, moments)
        return system, parse_poly("x", ["x"]), hp, 2, cube_roots_weighted

    # the points are real: each one's value at every label product, once
    values = {alpha: [math.prod(z.re**e for z, e in zip(point, alpha)) for point in points]
              for alpha in hp.labels.products}

    def weighted(weights):
        return lambda alpha: sum(w * v for w, v in zip(weights, values[alpha]))

    return system, parse_poly(g, list(system.variables)), hp, len(points), weighted


NONZERO = st.fractions(-3, 3, max_denominator=3).filter(bool)


def corrupt(data, kind, hp, weight_count, weighted):
    """A corrupted copy of hp, and for the "weighted" kind whether its
    weights differ from the points' own (None for the other kinds)."""
    if kind == "weighted":
        weights = data.draw(st.lists(st.integers(1, 4), min_size=weight_count, max_size=weight_count))
        return moment_candidate(hp, weighted(weights)), any(w != 1 for w in weights)
    labels, k, l = hp.labels, hp.base_size(), len(hp.labels)
    rows = matrix_rows(hp.matrix)
    if kind == "hankel":  # one product's value, shifted wherever it appears
        p, delta = data.draw(st.integers(0, len(labels.products) - 1)), data.draw(NONZERO)
        for pos, q in enumerate(labels.product_index):
            if q == p:
                rows[pos // l][pos % l] += delta
    elif kind == "border_scaled":
        e, c = data.draw(st.integers(k, l - 1)), data.draw(NONZERO.filter(lambda c: c != 1))
        for r in range(l):
            rows[e][r] *= c
            rows[r][e] *= c
    elif kind == "flat":  # one mirrored entry of H1, and H+ its flat extension
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        h1, border = extract_blocks(hp)
        y = matrix_rows(inverse(h1) @ border)
        c = RatMatrix.from_rows([[int(r == t) for t in range(k)] + y[r] for r in range(k)])
        rows = matrix_rows(h1)
        rows[i][j] += data.draw(NONZERO)
        rows[j][i] = rows[i][j]
        rows = matrix_rows(RatMatrix.from_rows(list(zip(*matrix_rows(c)))) @ RatMatrix.from_rows(rows) @ c)
    else:  # one mirrored entry anywhere, or two outside H1
        cell = st.tuples(st.integers(0, l - 1), st.integers(0, l - 1))
        if kind == "mirrored":
            cells = [data.draw(cell)]
        else:
            cells = [data.draw(cell.filter(lambda c: max(c) >= k)) for _ in range(2)]
        for i, j in cells:
            rows[i][j] += data.draw(NONZERO)
            rows[j][i] = rows[i][j]
    return HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance), None


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["grid", "nonneg", "cube_roots"]),
    kind=st.sampled_from(["mirrored", "hankel", "outside_h1", "border_scaled", "weighted", "flat"]),
    data=st.data(),
)
def test_step_6_on_h1_reports_as_the_full_trace_grid(name, kind, data):
    system, g, hp, weight_count, weighted = oracle_input(name)
    candidate, reweighted = corrupt(data, kind, hp, weight_count, weighted)
    variables = list(system.variables)
    outcome = certify_pipeline(system, g, candidate)
    new = jsonio.canonical_dumps(jsonio.report_to_json(outcome, variables))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify_module, "check_traces", lambda h1, trace: full_grid_step_6(candidate))
        old = jsonio.canonical_dumps(jsonio.report_to_json(certify_pipeline(system, g, candidate), variables))
    assert new == old
    if reweighted:
        # the true M_s and a nonsingular flat H+, but no trace form
        assert outcome.failed_step == 6


def dense_mult_matrices(hp):
    """Reference: M_s = H1^-1 H1^(x_s) by the dense inverse and products."""
    h1, _ = extract_blocks(hp)
    return [inverse(h1) @ hs for hs in shifted_blocks(hp)]


def dense_hermite_for_g(h1, ms, g):
    """Reference: H_g = H1 g(M) by dense products of matrix powers."""
    return h1 @ g.eval_at_matrices(list(ms))


def grid_gs(variables):
    ball = BallQuery((Fraction(1, 4), Fraction(-3, 4)), Fraction(5, 16))
    return [parse_poly("x*y-1/2", variables), ball_polynomial(variables, ball)]


def lagrange_gs(variables):
    g = parse_poly("6*x+6*y-5", variables)
    return [g, g * g]


def univariate_gs(variables):
    return [parse_poly("x^3-3*x+1/2", variables)]


@pytest.mark.parametrize(
    "case, make_gs", [(grid_case, grid_gs), (lagrange_case, lagrange_gs), (univariate_case, univariate_gs)]
)
def test_normal_forms_match_dense_reference(case, make_gs):
    system, hp = case()
    gs = make_gs(list(system.variables))
    out = certify_pipeline(system, gs[0], hp)
    assert out.certified, (out.reason, out.detail)
    ms = out.mult_matrices
    assert ms == dense_mult_matrices(hp)
    assert out.hg == dense_hermite_for_g(out.h1, ms, gs[0])
    for g in gs:
        assert table(ms, hp.labels.base).poly_matrix(g) == g.eval_at_matrices(ms)
        hg, sigma = derive_hg(out, g)
        assert hg == dense_hermite_for_g(out.h1, ms, g)
        assert sigma == signature(hg)


def test_normal_forms_match_dense_reference_on_reduced_basis():
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    g = parse_poly("x^2-x+1/3", ["x"])
    out = certify_nonradical(f, g, hp)
    assert out.certified
    ms = out.mult_matrices
    assert ms == dense_mult_matrices(hp)
    assert out.hg == dense_hermite_for_g(out.h1, ms, g)
    assert out.weighted_hg == dense_hermite_for_g(out.weighted_h1, ms, g)


def test_hermite_for_g_examples():
    h1 = RatMatrix.from_rows([[2, 0], [0, 4]])
    m = [RatMatrix.from_rows([[0, 2], [1, 0]])]
    nf = table(m)
    # each H_g comes with the g(M) it was formed from
    assert hermite_for_g(h1, nf, G_X) == (RatMatrix.from_rows([[0, 4], [4, 0]]), m[0])
    assert hermite_for_g(h1, nf, parse_poly("1", ["x"])) == (h1, identity(2))
    assert hermite_for_g(h1, nf, parse_poly("x^2", ["x"])) == (
        RatMatrix.from_rows([[4, 0], [0, 8]]),
        RatMatrix.from_rows([[2, 0], [0, 2]]),
    )


@pytest.mark.parametrize("g", ["x*y", "y"])
def test_hermite_for_g_refuses_a_g_of_another_ring(g):
    # the table has one variable: read without the arity check, the exponent
    # of y would be dropped, giving H_x for x*y and H1 for y
    nf = table([RatMatrix.from_rows([[0, 2], [1, 0]])])
    with pytest.raises(ValueError, match="ring arity"):
        hermite_for_g(RatMatrix.from_rows([[2, 0], [0, 4]]), nf, parse_poly(g, ["x", "y"]))


def test_pipeline_certifies_sqrt2_end_to_end():
    out = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    assert out.certified
    assert out.h1 == RatMatrix.from_rows([[2, 0], [0, 4]])
    assert out.hg == RatMatrix.from_rows([[0, 4], [4, 0]])
    assert out.mult_matrices[0] == RatMatrix.from_rows([[0, 2], [1, 0]])
    assert signature(out.h1) == 2
    steps = [entry["step"] for entry in out.diagnostics]
    assert steps == [1, 2, 3, 4, 5, 6, 7]


def test_pipeline_rejects_wrong_roots():
    wrong = exact_hermite_plus(roots_as_qc([], [(Fraction(0), Fraction(2))]), B1X)
    # points +/- sqrt(-4) = +/- 2i are roots of x^2 + 4, not of x^2 - 2
    out = certify_pipeline(F_SQRT2, G_X, wrong)
    assert out.status == "fail" and out.failed_step == 5


def test_pipeline_rejects_spurious_extra_point():
    f = PolySystem(["x"], [parse_poly("x^2-1", ["x"])])
    hp = exact_hermite_plus(
        roots_as_qc([Fraction(1), Fraction(-1), Fraction(2)], []),
        MonomialBasis([(0,), (1,), (2,)]),
    )
    out = certify_pipeline(f, G_X, hp)
    assert out.status == "fail" and out.failed_step == 5 and out.reason == "nonmember"


def test_pipeline_short_circuits_in_step_order():
    hp = exact_hermite_plus(roots_as_qc([Fraction(1), Fraction(1)], []), B1X)
    out = certify_pipeline(
        PolySystem(["x"], [parse_poly("x^2-2*x+1", ["x"])]), G_X, hp
    )
    assert out.status == "fail" and out.failed_step == 2
    assert [entry["step"] for entry in out.diagnostics] == [1, 2]


def test_derive_hg_reuses_own_g_and_derives_others():
    out = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    assert out.certified and out.g == G_X
    assert (out.sigma_h1, out.sigma_hg) == (signature(out.h1), signature(out.hg)) == (2, 0)
    assert derive_hg(out, G_X) == (out.hg, out.sigma_hg)
    steps = list(out.diagnostics)
    x2 = parse_poly("x^2", ["x"])
    hg2, sigma = derive_hg(out, x2)
    assert hg2 == hermite_for_g(out.h1, table(out.mult_matrices), x2)[0]
    assert hg2 == dense_hermite_for_g(out.h1, out.mult_matrices, x2)
    assert sigma == signature(hg2) == 2
    assert out.diagnostics == steps


def test_derive_hg_on_a_tampered_h1_raises_not_symmetric():
    out = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    # a wrong (still symmetric) H1 is no trace form: H1 * g(M) = [[3, 6], [4, 4]]
    # for g = x + 1, and the signature refuses it instead of reporting a value;
    # the outcome is frozen, so the tampering goes around its guard
    object.__setattr__(out, "h1", RatMatrix.from_rows([[3, 0], [0, 4]]))
    with pytest.raises(NotSymmetricError):
        derive_hg(out, parse_poly("x+1", ["x"]))
    assert [entry["step"] for entry in out.diagnostics] == [1, 2, 3, 4, 5, 6, 7]


def radical_univariate_outcome():
    system, hp = univariate_case()
    return certify_pipeline(system, parse_poly("1", ["x"]), hp)


def radical_square_outcome():
    # the unit square's corners on {1, x, y, xy}
    xy = ["x", "y"]
    points = [(QC(a), QC(b)) for a in (0, 1) for b in (0, 1)]
    hp = exact_hermite_plus(points, MonomialBasis([(0, 0), (1, 0), (0, 1), (1, 1)]))
    system = PolySystem(xy, [parse_poly("x^2-x", xy), parse_poly("y^2-y", xy)])
    return certify_pipeline(system, parse_poly("1", xy), hp)


def nonradical_univariate_outcome():
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    return certify_nonradical(f, G_X, hp)


def nonradical_corner_outcome():
    # (0, 0) twice, (1, 0) and (0, 1): the reduced basis is {1, x, y}
    xy = ["x", "y"]
    pts = ApproxRootSet(points=((0j, 0j), (0j, 0j), (1 + 0j, 0j), (0j, 1 + 0j)), accuracy="1e-8", coord_bound=2)
    hp = build_hermite(pts, MonomialBasis([(0, 0), (1, 0), (0, 1), (2, 0)]))
    system = PolySystem(xy, [parse_poly(p, xy) for p in ("x^2-x", "y^2-y", "x*y")])
    return certify_nonradical(system, parse_poly("1", xy), hp)


OUTCOMES = {
    make.__name__: functools.cache(make)
    for make in (
        radical_univariate_outcome,
        radical_square_outcome,
        nonradical_univariate_outcome,
        nonradical_corner_outcome,
    )
}


def small_polys(arity):
    """Polynomials of total degree <= 3 with integer coefficients in [-3, 3]."""
    monomials = [m for m in product(range(4), repeat=arity) if sum(m) <= 3]
    return st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3), max_size=6)


@pytest.mark.parametrize("name", sorted(OUTCOMES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_derived_hg_is_symmetric_and_matches_dense_reference(name, data):
    # hermite_for_g checks nothing because H1 is a trace form:
    # (H1 g(M))[i, j] = Tr(b_i * g * b_j) is symmetric for every g
    out = OUTCOMES[name]()
    assert out.certified, (out.reason, out.detail)
    variables = out.g.variables
    g = MultiPoly(variables, data.draw(small_polys(len(variables))))
    hg, sigma = derive_hg(out, g)
    assert hg.is_symmetric()
    assert hg == dense_hermite_for_g(out.h1, out.mult_matrices, g)
    assert sigma == signature(hg)


def _value(g: MultiPoly, point) -> Fraction:
    return sum((c * math.prod(z**e for z, e in zip(point, m)) for m, c in g.terms.items()), Fraction(0))


def _interpolant(variables, xs, ys) -> MultiPoly:
    """The polynomial in the first variable of degree < len(xs) through
    (xs[i], ys[i]) (Lagrange)."""
    x = MultiPoly.variable(variables, 0)
    total = MultiPoly.constant(variables, 0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = MultiPoly.constant(variables, yi)
        for j, xj in enumerate(xs):
            if j != i:
                term = term * (x - MultiPoly.constant(variables, xj)) * MultiPoly.constant(variables, 1 / (xi - xj))
        total = total + term
    return total


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_power_sum_inertia_matches_both_methods_on_real_points(data):
    # k <= 8 real points in one or two variables (with distinct x, so
    # {1, x, ..., x^(k-1)} is a basis and y is an interpolant in x): sigma(H1)
    # = k, so the signature of H_g reads the power sums of g(M), whose sign
    # count must be both inertias of H_g, for a g that may vanish at a point
    arity = data.draw(st.sampled_from([1, 2]), label="arity")
    k = data.draw(st.integers(1, 8), label="k")
    variables = ["x", "y"][:arity]
    xs = data.draw(st.lists(SMALL_RATIONALS, min_size=k, max_size=k, unique=True), label="xs")
    x = MultiPoly.variable(variables, 0)
    f = MultiPoly.constant(variables, 1)
    for a in xs:
        f = f * (x - MultiPoly.constant(variables, a))
    polys, points = [f], [(a,) for a in xs]
    if arity == 2:
        ys = data.draw(st.lists(SMALL_RATIONALS, min_size=k, max_size=k), label="ys")
        polys.append(MultiPoly.variable(variables, 1) - _interpolant(variables, xs, ys))
        points = list(zip(xs, ys))
    monomials = [m for m in product(range(3), repeat=arity) if sum(m) <= 2]
    terms = st.dictionaries(st.sampled_from(monomials), SMALL_RATIONALS.filter(bool), min_size=1, max_size=4)
    g = MultiPoly(variables, data.draw(terms, label="g"))
    if data.draw(st.booleans(), label="vanishes"):
        root = data.draw(st.sampled_from(points), label="root")
        g = g - MultiPoly.constant(variables, _value(g, root))
    basis = MonomialBasis([(i,) + (0,) * (arity - 1) for i in range(k)])
    hp = exact_hermite_plus([tuple(QC(z) for z in p) for p in points], basis)
    out = certify_pipeline(PolySystem(variables, polys), g, hp)
    assert out.certified and out.sigma_h1 == k, (out.reason, out.detail)
    nf = out.normal_forms
    hg, gm = hermite_for_g(out.h1, nf, g)
    poly = kernels.power_sum_charpoly(k, *gm.row_pairs(), *nf.trace_functional())
    signs = [_value(g, p) for p in points]
    expected = Inertia(sum(v > 0 for v in signs), sum(v < 0 for v in signs), sum(v == 0 for v in signs))
    assert root_signs(poly) == inertia_ldl(hg) == inertia_descartes(hg) == expected
    assert out.hg_inertia == expected


def test_derive_hg_refuses_an_uncertified_outcome():
    hp = exact_hermite_plus(roots_as_qc([Fraction(1), Fraction(1)], []), B1X)
    out = certify_pipeline(PolySystem(["x"], [parse_poly("x^2-2*x+1", ["x"])]), G_X, hp)
    assert not out.certified and out.mult_matrices is None
    with pytest.raises(ValueError, match="outcome is not certified"):
        derive_hg(out, parse_poly("x^2", ["x"]))


def test_outcome_keeps_the_table_its_matrices_come_from():
    out = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    assert out.mult_matrices is out.normal_forms.matrices
    # the table is not part of the outcome's value
    other = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    assert other.normal_forms is not out.normal_forms and other == out
    assert "normal_forms" not in repr(out)


# -- non-radical certification -------------------------------------------------


def test_nonradical_certifies_double_root_plus_simple():
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    out = certify_nonradical(f, G_X, hp)
    assert out.certified
    assert out.mult_matrices[0] == RatMatrix.from_rows([[0, 2], [1, -1]])
    assert out.h1 == RatMatrix.from_rows([[2, -1], [-1, 5]])
    assert signature(out.h1) == out.sigma_h1 == 2
    assert signature(out.hg) == out.sigma_hg
    assert out.weighted_h1 == RatMatrix.from_rows([[3, 0], [0, 6]])
    assert out.weighted_h1.entry(0, 0) == 3  # total multiplicity


def test_nonradical_literal_trace_comparison_would_fail():
    # the documented deviation: for (x-1)^2 the trace of the identity is 1
    # while the multiplicity-weighted entry is 2, so the radical-case trace
    # check cannot be applied verbatim to weighted matrices
    f = PolySystem(["x"], [parse_poly("x^2-2*x+1", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,)), accuracy="1e-8", coord_bound=2)
    hp = build_hermite(pts, B1X)
    out = certify_nonradical(f, parse_poly("1", ["x"]), hp)
    assert out.certified
    assert out.h1.entry(0, 0) == 1
    assert out.weighted_h1.entry(0, 0) == 2
    assert out.h1.entry(0, 0) != out.weighted_h1.entry(0, 0)
    with pytest.raises(StepFailure, match="trace_mismatch"):
        check_traces(out.weighted_h1, out.h1)
    assert signature(out.h1) == 1


def test_nonradical_weighted_consistency_checks_guard_the_input():
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    assert certify_nonradical(f, G_X, hp).certified
    # the same matrix claiming 4 points: H1[1,1] = 3 contradicts the count
    prov = hp.provenance
    four = HermitePlus(
        hp.matrix, hp.labels, HermiteProvenance(prov.accuracy, prov.coord_bound, 4, prov.bounds)
    )
    out = certify_nonradical(f, G_X, four)
    assert out.status == "fail" and out.reason == "weighted_inconsistent"


def test_nonradical_signature_agreement_between_weighted_and_trace():
    rng = random.Random(13)
    for _ in range(8):
        distinct = rng.sample([Fraction(n) for n in range(-4, 5)], rng.randint(1, 3))
        mults = [rng.randint(1, 2) for _ in distinct]
        points = []
        for value, m in zip(distinct, mults):
            points.extend([(complex(float(value), 0.0),)] * m)
        k = len(points)
        f_poly = univariate_from_roots(
            [r for r, m in zip(distinct, mults) for _ in range(m)], []
        )
        f = PolySystem(["x"], [f_poly])
        pts = ApproxRootSet(points=tuple(points), accuracy="1e-12", coord_bound=5)
        basis = MonomialBasis([(d,) for d in range(k)])
        hp = build_hermite(pts, basis)
        out = certify_nonradical(f, G_X, hp)
        assert out.certified, (out.reason, out.detail)
        assert signature(out.h1) == len(distinct)
        assert signature(out.weighted_h1) == signature(out.h1)


def double_root_case():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2) from the points 1, 1, -2: a reduced build
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    return f, build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))


STEPS_1_TO_5 = [
    (1, "extract_blocks"), (2, "mult_matrices"), (3, "identity_columns"), (4, "squarefree"),
    (5, "commute_and_membership"),
]
ROUTES = {
    "radical": (lambda: (F_SQRT2, sqrt2_hermite()), [(6, "trace_grid"), (7, "hermite_for_g")]),
    "nonradical": (double_root_case, [(6, "weighted_consistency"), (7, "hermite_for_g")]),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_derivation_equals_certification_on_both_routes(route):
    # step 7 and derive_hg share one derivation: H_g derived from an outcome
    # certified for g = 1 is the H_g certified for g itself, g(M) = I and a
    # g vanishing at a root (x - 1 on the non-radical route) included
    make, last_steps = ROUTES[route]
    system, hp = make()
    assert hp.reduced == (route == "nonradical")
    one = certify_pipeline(system, parse_poly("1", ["x"]), hp)
    for text in ("1", "x", "x^2", "x-1"):
        g = parse_poly(text, ["x"])
        out = certify_pipeline(system, g, hp)
        assert out.certified, (out.reason, out.detail)
        assert derive_hg(one, g) == (out.hg, out.sigma_hg)
        assert out.h1_inertia == one.h1_inertia and out.sigma_h1 == out.h1_inertia.signature
        assert [(entry["step"], entry["check"]) for entry in out.diagnostics] == STEPS_1_TO_5 + last_steps


@pytest.mark.parametrize("make", [lambda: (F_SQRT2, sqrt2_hermite()), univariate_case])
def test_nonradical_route_on_a_radical_build_certifies_as_the_radical_route(make):
    # every weight is 1, so H1bar is the trace form and the weighted pair is
    # (h1, hg); sqrt(2) has sigma(H1) = k (power sums), the univariate case
    # a complex pair (Berkowitz)
    system, hp = make()
    assert not hp.reduced
    for g in (parse_poly("1", ["x"]), G_X, parse_poly("x^2-1", ["x"])):
        weighted, radical = certify_nonradical(system, g, hp), certify_pipeline(system, g, hp)
        assert weighted.certified, (weighted.reason, weighted.detail)
        assert weighted.weighted_h1 == weighted.h1 == radical.h1
        assert weighted.weighted_hg == weighted.hg == radical.hg
        assert (weighted.sigma_h1, weighted.sigma_hg) == (radical.sigma_h1, radical.sigma_hg)
        assert weighted.diagnostics[5]["check"] == "weighted_consistency"


def test_a_g_from_another_ring_is_refused():
    # y + 3 in ["y"] on x^2 - 2 in ["x"]: the one variable of each ring would
    # be read as the other's, and sigma(H_(y+3)) reported as sigma(H_(x+3))
    y3 = parse_poly("y+3", ["y"])
    for certify in (certify_pipeline, certify_nonradical):
        with pytest.raises(ValueError, match="g must live in the system's ring"):
            certify(F_SQRT2, y3, sqrt2_hermite())
    out = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    with pytest.raises(ValueError, match="g must live in the system's ring"):
        derive_hg(out, parse_poly("z^2", ["z"]))
    assert derive_hg(out, parse_poly("x^2", ["x"]))[1] == 2


def test_planted_corruptions_always_fail():
    rng = random.Random(2024)
    hp = sqrt2_hermite()
    for _ in range(20):
        rows = matrix_rows(hp.matrix)
        i = rng.randint(0, 2)
        j = rng.randint(0, 2)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        rows[i][j] += delta
        rows[j][i] = rows[i][j]
        bad = HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance)
        out = certify_pipeline(F_SQRT2, G_X, bad)
        assert out.status == "fail"


# -- adversarial corpus ------------------------------------------------------
#
# Candidates built to pass every check but one.  Each test names the check
# that must reject it; none relies on an assert statement of the library, so
# the corpus means the same under python -O.


def functional_candidate(basis, point_count, moments):
    """H+[a, b] = lambda(a * b) over the extended labels, for the functional
    lambda given by its moments (monomial -> value, 0 when absent)."""
    labels = ExtendedBasis(MonomialBasis(basis))
    rows = [[moments.get(monomial_mul(a, b), 0) for b in labels.extension] for a in labels.extension]
    return HermitePlus(RatMatrix.from_rows(rows), labels, corpus_provenance(point_count))


def congruent_candidate(basis, point_count, h1_rows, ms_rows):
    """H+ = C^T H1 C, column a of C holding the coordinates of label a when
    x_s acts by M_s: e_j for the basis element b_j, M_s e_i for x_s * b_i.
    Step 2 then recovers exactly these M_s, whatever H1 is."""
    labels = ExtendedBasis(MonomialBasis(basis))
    ms = [RatMatrix.from_rows(m) for m in ms_rows]
    k = len(basis)
    coords = {j: [int(r == j) for r in range(k)] for j in range(k)}
    for s, row in enumerate(labels.shifts):
        for i, j in enumerate(row):
            coords.setdefault(j, [ms[s].entry(r, i) for r in range(k)])
    c = RatMatrix.from_rows([[coords[a][r] for a in range(len(labels))] for r in range(k)])
    ct = RatMatrix.from_rows(list(zip(*matrix_rows(c))))
    return HermitePlus(ct @ RatMatrix.from_rows(h1_rows) @ c, labels, corpus_provenance(point_count))


def corpus_provenance(point_count):
    return HermiteProvenance(Fraction(1, 10**9), Fraction(4), point_count, {})


ONE_X = parse_poly("1", ["x"])


def test_corpus_non_reduced_algebra_fails_step_4_on_the_nonradical_route():
    # A = Q[x]/(x^3) with lambda(1) = 4, lambda(x^2) = 1: H1bar is
    # nonsingular, M_x is nilpotent and x^4 vanishes at it, the (1,1) entry
    # is the point count, and the weighted and trace signatures agree.  The
    # trace form diag(3, 0, 0) is singular, and only step 4 sees that.
    x4 = PolySystem(["x"], [parse_poly("x^4", ["x"])])
    hp = functional_candidate([(0,), (1,), (2,)], 4, {(0,): 4, (2,): 1})
    for out in (certify_pipeline(x4, ONE_X, hp), certify_nonradical(x4, ONE_X, hp)):
        assert (out.status, out.failed_step, out.reason) == ("fail", 4, "not_squarefree")


def test_corpus_nilpotent_functional_fails_on_the_radical_route():
    # A = Q[x]/(x^2) with lambda(x) = 1: H1 = [[0, 1], [1, 0]] is
    # nonsingular but is no trace form, since Tr(1) = 2.  Step 6 rejects it
    # on its own; the pipeline may stop at step 4 first.
    x2 = PolySystem(["x"], [parse_poly("x^2", ["x"])])
    hp = functional_candidate([(0,), (1,)], 2, {(1,): 1})
    out = certify_pipeline(x2, ONE_X, hp)
    assert out.status == "fail" and out.failed_step in (4, 6)
    with pytest.raises(StepFailure, match="trace_mismatch"):
        check_traces(extract_blocks(hp)[0], trace_form(hp, [RatMatrix.from_rows([[0, 0], [1, 0]])]))


def test_corpus_singular_h1_with_full_rank_extension_fails_step_2():
    # the Hermite matrix of (0, 0) and (1, 0) on the basis {1, y}: rank H+ = 2
    # passes the guard, but y vanishes at both points, so H1 = diag(2, 0) and
    # no multiplication matrices exist
    xy = ["x", "y"]
    hp = exact_hermite_plus([(QC(0), QC(0)), (QC(1), QC(0))], MonomialBasis([(0, 0), (0, 1)]))
    system = PolySystem(xy, [parse_poly("x^2-x", xy), parse_poly("y", xy)])
    out = certify_pipeline(system, parse_poly("1", xy), hp)
    assert (out.failed_step, out.reason) == (2, "rank_deficient")
    assert out.detail == "rank H1 = 1, rank H+ = 2, expected 2"


def test_corpus_corner_entry_is_seen_only_by_the_rank_guard_on_the_nonradical_route():
    # no step of the non-radical route reads the (x^2, x^2) entry of H+
    # except rank H+ = k, which step 2 checks as a zero Schur complement
    # H+[ext, ext] = H+[ext, B] H1^-1 H+[B, ext]
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_hermite(pts, MonomialBasis([(0,), (1,), (2,)]))
    rows = matrix_rows(hp.matrix)
    rows[2][2] += 1
    out = certify_nonradical(f, G_X, HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance))
    assert (out.failed_step, out.reason) == (2, "rank_deficient")
    assert out.detail == "rank H1 = 2, rank H+ = 3, expected 2"


def test_corpus_noncommuting_matrices_fail_step_5_on_the_nonradical_route():
    # x^2 = x + y, xy = 0, y^2 = y on the basis {1, x, y}: M_x and M_y differ
    # in one border column (see test_noncommuting_only_in_a_border_column).
    # H+ = C^T diag(4, 1, 1) C has rank 3, its (1,1) entry is the point
    # count, each input polynomial vanishes along the table's path, and the
    # trace matrix is nonsingular with the weighted signature 3.  The ideal
    # (x^2 - x - y, xy, y^2 - y) has only the 2 roots (0, 0) and (1, 0).
    xy = ["x", "y"]
    bent = [[0, 0, 0], [1, 1, 0], [0, 1, 0]]
    m_y = [[0, 0, 0], [0, 0, 0], [1, 0, 1]]
    hp = congruent_candidate([(0, 0), (1, 0), (0, 1)], 4, [[4, 0, 0], [0, 1, 0], [0, 0, 1]], [bent, m_y])
    system = PolySystem(xy, [parse_poly(p, xy) for p in ("x^2-x-y", "x*y", "y^2-y")])
    out = certify_nonradical(system, parse_poly("1", xy), hp)
    assert (out.failed_step, out.reason) == (5, "noncommuting")


def test_corpus_wrong_form_with_true_matrices_fails_step_6():
    # H1 = diag(1, -1) with the true M_x of x^2 - 2: steps 2-5 pass, H_g = H1
    # for g = 1 passes step 7, and the signature would claim no real root
    hp = congruent_candidate([(0,), (1,)], 2, [[1, 0], [0, -1]], [[[0, 2], [1, 0]]])
    out = certify_pipeline(F_SQRT2, ONE_X, hp)
    assert (out.failed_step, out.reason) == (6, "trace_mismatch")


def test_corpus_signed_weights_fail_the_h1_signature_agreement():
    # lambda(p) = 4 p(1) - p(-2) on the roots of x^3 - 3x + 2: a moment matrix
    # of total weight 3 = the point count, with the true M_x, but a negative
    # weight: sigma(H1bar) = 0 against sigma(trace H1) = 2.  With g = 1 the
    # H_g comparison repeats the H1 one.
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    moments = {(j,): 4 - (-2) ** j for j in range(5)}
    out = certify_nonradical(f, ONE_X, functional_candidate([(0,), (1,)], 3, moments))
    assert (out.failed_step, out.reason) == (7, "weighted_signature_mismatch")
    assert out.detail.endswith("for g = 1")


def test_corpus_weighted_form_off_the_moments_fails_the_hg_signature_agreement():
    # the true M_x of (x - 1)(x^2 + 1) and an H1bar with the trace form's
    # signature 1 that is no moment matrix: H1bar * M_x is not symmetric,
    # H1bar * M_x^2 is, and sigma(H1bar * M_x^2) differs from sigma(H_g) for
    # g = x^2
    f = PolySystem(["x"], [parse_poly("x^3-x^2+x-1", ["x"])])
    h1bar = [[3, -2, -4], [-2, 4, 1], [-4, 1, 3]]
    hp = congruent_candidate([(0,), (1,), (2,)], 3, h1bar, [[[0, 0, 1], [1, 0, -1], [0, 1, 1]]])
    out = certify_nonradical(f, parse_poly("x^2", ["x"]), hp)
    assert (out.failed_step, out.reason) == (7, "weighted_signature_mismatch")
    assert out.detail.endswith("for g = g")


@pytest.mark.parametrize("kernel", ["inertia", "charpoly", "power_sums"])
def test_wrong_signature_kernel_is_caught_by_the_cross_check(kernel, monkeypatch):
    # sigma(H1) = 2 for x^2 - 2, so a faulty elimination or Berkowitz kernel
    # reports -2; both roots are real and x + 2 > 0 at both, so H_(x+2) reads
    # the power sums of its g(M), and a faulty power-sum kernel reports -2
    monkeypatch.setattr(kernels, *wrong_signature_kernel(kernels, kernel))
    with pytest.raises(SignatureMethodMismatchError):
        certify_pipeline(F_SQRT2, parse_poly("x+2", ["x"]), sqrt2_hermite())


def test_signature_cross_check_compares_the_zero_count(monkeypatch):
    # inertia (1, 0, 2); an elimination reporting (2, 1, 0) keeps pos - neg
    # but claims a nonsingular matrix, which the zero count of Descartes
    # (the root 0 of lambda^2 (lambda - 2), twice) refutes
    m = RatMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    right = certify_module.inertia_ldl

    def wrong(a):
        pos, neg, zero = right(a)
        return Inertia(pos + 1, neg + 1, zero - 2)

    assert signature(m) == 1
    monkeypatch.setattr(certify_module, "inertia_ldl", wrong)
    with pytest.raises(SignatureMethodMismatchError):
        signature(m)


@pytest.mark.parametrize("kernel", ["inertia", "charpoly", "power_sums"])
def test_wrong_signature_kernel_is_caught_under_optimize_flag(kernel):
    script = f"""
import math
from fractions import Fraction
import hermicert._kernels as kernels
from conftest import wrong_signature_kernel
from hermicert.certify import SignatureMethodMismatchError, certify_pipeline
from hermicert.hermite import build_extended_hermite
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import MonomialBasis, PolySystem, parse_poly
if __debug__:
    raise SystemExit(2)
f = PolySystem(["x"], [parse_poly("x^2-2", ["x"])])
pts = ApproxRootSet(
    points=((math.sqrt(2) + 0j,), (-math.sqrt(2) + 0j,)), accuracy=Fraction(1, 10**10), coord_bound=2
)
hplus = build_extended_hermite(pts, MonomialBasis([(0,), (1,)]))
setattr(kernels, *wrong_signature_kernel(kernels, "{kernel}"))
try:
    certify_pipeline(f, parse_poly("x+2", ["x"]), hplus)
except SignatureMethodMismatchError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


SPLIT_SCRIPT = """
import hermicert._kernels as kernels
from conftest import split_components
from hermicert.certify import SignatureMethodMismatchError, signature
from hermicert.linalg import RatMatrix
# [[1, 3], [3, 7]] is connected and indefinite (det -2): split, its
# polynomial is (lambda - 1)(lambda - 7), whose Descartes inertia (2, 0, 0)
# the elimination's (1, 1, 0) refutes.  Given no polynomial, signature
# runs Berkowitz on the matrix itself, as for H1 and for H_g with complex
# roots (H_x of x^2 - x - 2, this matrix, reads the power sums of M_x)
setattr(kernels, *split_components(kernels))
try:
    signature(RatMatrix.from_rows([[1, 3], [3, 7]]))
except SignatureMethodMismatchError:
    raise SystemExit(0)
raise SystemExit(1)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_component_split_that_drops_a_coupling_is_caught_by_the_cross_check(flags):
    # the Descartes half stays checked against the elimination when the
    # characteristic polynomial is taken block by block
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SPLIT_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("certify", [certify_pipeline, certify_nonradical], ids=["pipeline", "nonradical"])
def test_certify_guards(certify):
    # both routes run one step sequence, which first checks the ring: here a
    # build in [x] against a system in [x, y]
    xy = ("x", "y")
    system = PolySystem(xy, [parse_poly("x^2-2", xy), parse_poly("y", xy)])
    with pytest.raises(ValueError, match="system arity does not match the basis"):
        certify(system, parse_poly("x", xy), sqrt2_hermite())
