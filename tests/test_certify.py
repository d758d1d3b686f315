import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import hermicert._kernels as kernels
import hermicert.certify as certify_module
from hermicert.certify import (
    NormalForms,
    SignatureMethodMismatchError,
    StepFailure,
    certify_nonradical,
    certify_pipeline,
    check_commute_and_membership,
    check_identity_rows,
    check_squarefree,
    check_traces,
    derive_hg,
    extract_blocks,
    hermite_for_g,
    mult_matrices,
    signature,
)
from hermicert.certificates import BallQuery, ball_polynomial, lagrange_system
from hermicert.hermite import HermitePlus, build_extended_hermite, build_nonradical
from hermicert.linalg import RatMatrix, inverse, rank
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import ExtendedBasis, MonomialBasis, PolySystem, monomial_mul, parse_poly

from conftest import (
    QC,
    exact_hermite_plus,
    matrix_trace,
    roots_as_qc,
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


def test_mult_matrices_from_blocks():
    hp = sqrt2_hermite()
    h1, border = extract_blocks(hp)
    ms = mult_matrices(h1, border, hp)
    assert ms[0] == RatMatrix.from_rows([[0, 2], [1, 0]])


def test_mult_matrices_of_two_distinct_roots():
    # roots {1, -2}: H1 = [[2,-1],[-1,5]], H1^x = [[-1,5],[5,-7]]
    hp = exact_hermite_plus(roots_as_qc([Fraction(1), Fraction(-2)], []), B1X)
    h1, border = extract_blocks(hp)
    ms = mult_matrices(h1, border, hp)
    assert ms[0] == RatMatrix.from_rows([[0, 2], [1, -1]])


def test_mult_matrices_rank_deficient_fails():
    hp = exact_hermite_plus(roots_as_qc([Fraction(1), Fraction(1)], []), B1X)
    h1, border = extract_blocks(hp)
    out = mult_matrices(h1, border, hp)
    assert isinstance(out, StepFailure) and out.step == 2 and out.reason == "rank_deficient"


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
    out = mult_matrices(h1, border, hp)
    assert isinstance(out, StepFailure) and out.detail == detail
    assert sorted(calls) == [2, 3]


def test_mult_matrices_makes_one_rank_call_when_it_succeeds(monkeypatch):
    hp = sqrt2_hermite()
    h1, border = extract_blocks(hp)
    calls = []

    def counting(a):
        calls.append(a.rows)
        return rank(a)

    monkeypatch.setattr(certify_module, "rank", counting)
    ms = mult_matrices(h1, border, hp)
    assert ms == [RatMatrix.from_rows([[0, 2], [1, 0]])]
    assert calls == [3]  # rank H+ only; the solve proves H1 nonsingular


def test_identity_columns_companion_passes():
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    assert check_identity_rows([m], ExtendedBasis(B1X)) is None


def test_identity_columns_identity_matrix_fails():
    failure = check_identity_rows([RatMatrix.identity(2)], ExtendedBasis(B1X))
    assert failure is not None and failure.step == 3


def test_identity_columns_vacuous_for_singleton_basis():
    singleton = ExtendedBasis(MonomialBasis([(0,)]))
    assert check_identity_rows([RatMatrix.from_rows([[5]])], singleton) is None


def test_squarefree_pass_and_fail():
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    assert check_squarefree([m]) is None
    repeated = RatMatrix.from_rows([[1, 1], [0, 1]])  # (x-1)^2
    failure = check_squarefree([repeated])
    assert failure is not None and failure.reason == "not_squarefree"


def _seed_with_degenerate_first_draw(n_mats: int, span: int) -> int:
    for seed in range(10000):
        rng = random.Random(seed)
        first = [rng.randint(-span, span) for _ in range(n_mats)]
        second = [rng.randint(-span, span) for _ in range(n_mats)]
        if all(c == 0 for c in first) and any(c != 0 for c in second):
            return seed
    raise AssertionError("no degenerate seed found")


def test_squarefree_retry_recovers_from_degenerate_combination():
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    seed = _seed_with_degenerate_first_draw(1, 4)
    assert check_squarefree([m], seed=seed, retries=3) is None
    failure = check_squarefree([m], seed=seed, retries=1)
    assert failure is not None and failure.step == 4


def table(ms, basis=B1X):
    return NormalForms(ms, basis.monomials)


def test_commute_and_membership():
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    assert check_commute_and_membership(table([m]), F_SQRT2) is None
    wrong = RatMatrix.from_rows([[0, 3], [1, 0]])
    failure = check_commute_and_membership(table([wrong]), F_SQRT2)
    assert failure is not None and failure.reason == "nonmember"
    a = RatMatrix.from_rows([[1, 1], [0, 1]])
    b = RatMatrix.from_rows([[1, 0], [1, 1]])
    two_var = PolySystem(["x", "y"], [])
    failure = check_commute_and_membership(table([a, b], MonomialBasis([(0, 0), (1, 0)])), two_var)
    assert failure is not None and failure.reason == "noncommuting"


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
    assert check_identity_rows([m_x, m_y], ExtendedBasis(basis)) is None
    assert check_commute_and_membership(table([m_x, m_y], basis), two_var) is None
    bent = RatMatrix.from_rows([[0, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert check_identity_rows([bent, m_y], ExtendedBasis(basis)) is None
    left, right = bent @ m_y, m_y @ bent
    differing = [t for t in range(3) if any(left.entry(r, t) != right.entry(r, t) for r in range(3))]
    assert differing == [1]
    failure = check_commute_and_membership(table([bent, m_y], basis), two_var)
    assert failure is not None and failure.reason == "noncommuting"


def test_traces_match_and_detect_perturbation():
    hp = sqrt2_hermite()
    nf = table([RatMatrix.from_rows([[0, 2], [1, 0]])])
    assert check_traces(hp, nf) is None
    rows = hp.matrix.to_rows()
    rows[2][2] += 1
    bad = HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance)
    failure = check_traces(bad, nf)
    assert failure is not None and failure.step == 6


def test_traces_single_point():
    hp = exact_hermite_plus([(QC(3),)], MonomialBasis([(0,)]))
    assert check_traces(hp, table([RatMatrix.from_rows([[3]])], MonomialBasis([(0,)]))) is None


def per_product_trace_grid(ms, monomials):
    """Reference: one product of cached matrix powers per distinct monomial."""
    k = ms[0].rows
    max_exp = [0] * len(ms)
    for m in monomials:
        for i, e in enumerate(m):
            max_exp[i] = max(max_exp[i], 2 * e)
    powers = []
    for i, m in enumerate(ms):
        cache = [RatMatrix.identity(k)]
        for _ in range(max_exp[i]):
            cache.append(cache[-1] @ m)
        powers.append(cache)
    traces = {}

    def trace_of(alpha):
        if alpha not in traces:
            acc = RatMatrix.identity(k)
            for i, e in enumerate(alpha):
                if e:
                    acc = acc @ powers[i][e]
            traces[alpha] = matrix_trace(acc)
        return traces[alpha]

    return [[trace_of(monomial_mul(a, b)) for b in monomials] for a in monomials]


def grid_case():
    grid = range(-2, 3)
    points = [(QC(a), QC(b)) for a in grid for b in grid]
    basis = MonomialBasis(
        sorted(((i, j) for i in range(5) for j in range(5)), key=lambda m: (sum(m), -m[0]))
    )
    system = PolySystem(["x", "y"], [parse_poly("x^5-5*x^3+4*x", ["x", "y"]),
                                     parse_poly("y^5-5*y^3+4*y", ["x", "y"])])
    return system, exact_hermite_plus(points, basis)


def lagrange_case():
    # the nonneg-lagrange ring: the critical points of 6x+6y-5 on the 4x4
    # grid, l = -6 / f'(coordinate) with f = x(x-1)(x-2)(x-3)
    roots = [Fraction(r) for r in range(4)]
    variables = ["x", "y"]
    system = PolySystem(variables, [parse_poly("x^4-6*x^3+11*x^2-6*x", variables),
                                    parse_poly("y^4-6*y^3+11*y^2-6*y", variables)])
    lag = lagrange_system(system, parse_poly("6*x+6*y-5", variables))
    points = [
        (QC(a), QC(b), QC(-6 / math.prod(a - r for r in roots if r != a)),
         QC(-6 / math.prod(b - r for r in roots if r != b)))
        for a in roots
        for b in roots
    ]
    basis = MonomialBasis(
        sorted(((i, j, 0, 0) for i in range(4) for j in range(4)), key=lambda m: (sum(m), -m[0]))
    )
    return lag, exact_hermite_plus(points, basis)


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
    assert got == per_product_trace_grid(ms, ext) == hp.matrix.to_rows()


def test_trace_grid_matches_per_product_reference_on_reduced_basis():
    # the DOUBLE_ROOT fixture: x^3-3x+2 with roots 1, 1, -2, reduced basis {1, x}
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
    out = certify_nonradical(f, G_X, hp)
    assert out.certified
    basis = hp.labels.base.monomials
    nf = NormalForms(out.mult_matrices, basis)
    got = [certify_module._trace_grid(nf, [monomial_mul(a, b) for b in basis]) for a in basis]
    assert got == per_product_trace_grid(out.mult_matrices, basis) == out.h1.to_rows()


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
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
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
    assert hermite_for_g(h1, nf, G_X) == RatMatrix.from_rows([[0, 4], [4, 0]])
    assert hermite_for_g(h1, nf, parse_poly("1", ["x"])) == h1
    assert hermite_for_g(h1, nf, parse_poly("x^2", ["x"])) == h1.scale(2)


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
    assert hg2 == hermite_for_g(out.h1, table(out.mult_matrices), x2)
    assert hg2 == dense_hermite_for_g(out.h1, out.mult_matrices, x2)
    assert sigma == signature(hg2) == 2
    assert out.diagnostics == steps


def test_derive_hg_reports_step_7_failure():
    out = certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())
    # a wrong (still symmetric) H1: H1 * g(M) = [[3, 6], [4, 4]] for g = x + 1
    out.h1 = RatMatrix.from_rows([[3, 0], [0, 4]])
    failure = derive_hg(out, parse_poly("x+1", ["x"]))
    assert isinstance(failure, StepFailure) and failure.step == 7
    assert [entry["step"] for entry in out.diagnostics] == [1, 2, 3, 4, 5, 6, 7]


# -- non-radical certification -------------------------------------------------


def test_nonradical_certifies_double_root_plus_simple():
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
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
    hp = build_nonradical(build_extended_hermite(pts, B1X))
    out = certify_nonradical(f, parse_poly("1", ["x"]), hp)
    assert out.certified
    assert out.h1.entry(0, 0) == 1
    assert out.weighted_h1.entry(0, 0) == 2
    assert out.h1.entry(0, 0) != out.weighted_h1.entry(0, 0)
    assert check_traces(hp, table(out.mult_matrices, hp.labels.base)) is not None
    assert signature(out.h1) == 1


def test_nonradical_weighted_consistency_checks_guard_the_input():
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])
    pts = ApproxRootSet(points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3)
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
    assert certify_nonradical(f, G_X, hp).certified
    # the same matrix claiming 4 points: H1[1,1] = 3 contradicts the count
    four = replace(hp, provenance=replace(hp.provenance, point_count=4))
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
        hp = build_nonradical(build_extended_hermite(pts, basis))
        out = certify_nonradical(f, G_X, hp)
        assert out.certified, (out.reason, out.detail)
        assert signature(out.h1) == len(distinct)
        assert signature(out.weighted_h1) == signature(out.h1)


def test_planted_corruptions_always_fail():
    rng = random.Random(2024)
    hp = sqrt2_hermite()
    for _ in range(20):
        rows = hp.matrix.to_rows()
        i = rng.randint(0, 2)
        j = rng.randint(0, 2)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        rows[i][j] += delta
        rows[j][i] = rows[i][j]
        bad = HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance)
        out = certify_pipeline(F_SQRT2, G_X, bad)
        assert out.status == "fail"


@pytest.mark.parametrize("kernel", ["inertia", "charpoly"])
def test_wrong_signature_kernel_is_caught_by_the_cross_check(kernel, monkeypatch):
    # sigma(H1) = 2 for x^2 - 2, so either faulty kernel reports -2
    monkeypatch.setattr(kernels, kernel, wrong_signature_kernel(kernels, kernel))
    with pytest.raises(SignatureMethodMismatchError):
        certify_pipeline(F_SQRT2, G_X, sqrt2_hermite())


@pytest.mark.parametrize("kernel", ["inertia", "charpoly"])
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
kernels.{kernel} = wrong_signature_kernel(kernels, "{kernel}")
try:
    certify_pipeline(f, parse_poly("x", ["x"]), hplus)
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
