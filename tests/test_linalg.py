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

from hermicert.linalg import (
    Inertia,
    NoConnectedSelectionError,
    NotSymmetricError,
    RatMatrix,
    SingularMatrixError,
    char_poly,
    inertia_ldl,
    inverse,
    max_nonsingular_connected_submatrix,
    rank,
    signature_descartes,
    solve,
)
from hermicert.polynomials import MultiPoly

from conftest import matrix_trace


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix.from_rows(list(zip(*m.to_rows())))


def rand_matrix(rng, k, span=4):
    return RatMatrix.from_rows(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(k)]
            for _ in range(k)
        ]
    )


def rand_symmetric(rng, k, span=5):
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            f = Fraction(rng.randint(-span, span), rng.randint(1, span))
            rows[i][j] = rows[j][i] = f
    return RatMatrix.from_rows(rows)


def test_rank_examples():
    assert rank(RatMatrix.zeros(3, 3)) == 0
    assert rank(RatMatrix.from_rows([[3, 0, 6], [0, 6, -6], [6, -6, 18]])) == 2
    assert rank(RatMatrix.identity(5)) == 5


def test_rank_equals_rank_of_transpose():
    rng = random.Random(31)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = RatMatrix.from_rows(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
                for _ in range(r)
            ]
        )
        assert rank(m) == rank(transpose(m))


def test_inverse_examples():
    assert inverse(RatMatrix.from_rows([[2, 0], [0, 4]])) == RatMatrix.from_rows(
        [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    )
    left = inverse(RatMatrix.from_rows([[2, 0], [0, 4]])) @ RatMatrix.from_rows([[0, 4], [4, 0]])
    assert left == RatMatrix.from_rows([[0, 2], [1, 0]])
    with pytest.raises(SingularMatrixError):
        inverse(RatMatrix.from_rows([[1, 1], [1, 1]]))


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run script under python -O with this checkout's sources first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)


def test_inverse_check_survives_optimize_flag():
    # a wrong kernel inverse must be caught even when asserts are stripped
    script = """
import hermicert._kernels as kernels
from hermicert.linalg import InverseCheckError, RatMatrix, inverse
if __debug__:
    raise SystemExit(2)
kernels.mat_solve = lambda k, m, an, ad, bn, bd: ([2, 0, 0, 1], [1, 1, 1, 1])
try:
    inverse(RatMatrix.identity(2))
except InverseCheckError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr


def test_solve_check_survives_optimize_flag_through_step_2():
    # a wrong solve kernel must stop linalg.solve and, through it, step 2 of
    # the certification, even when asserts are stripped
    script = """
import hermicert._kernels as kernels
from hermicert.certify import certify_pipeline
from hermicert.hermite import build_extended_hermite
from hermicert.linalg import InverseCheckError, RatMatrix, solve
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import MonomialBasis, PolySystem, parse_poly
if __debug__:
    raise SystemExit(2)
f = PolySystem(["x"], [parse_poly("x^2-2", ["x"])])
pts = ApproxRootSet(points=((2 ** 0.5 + 0j,), (-(2 ** 0.5) + 0j,)), accuracy="1e-10", coord_bound=2)
hplus = build_extended_hermite(pts, MonomialBasis([(0,), (1,)]))
right = kernels.mat_solve

def wrong(k, m, an, ad, bn, bd):
    xn, xd = right(k, m, an, ad, bn, bd)
    return [xn[0] + xd[0]] + xn[1:], xd  # adds 1 to the first entry

kernels.mat_solve = wrong
try:
    solve(RatMatrix.from_rows([[2, 0], [0, 4]]), RatMatrix.from_rows([[0], [4]]))
except InverseCheckError:
    pass
else:
    raise SystemExit(1)
try:
    certify_pipeline(f, parse_poly("x", ["x"]), hplus)
except InverseCheckError:
    raise SystemExit(0)
raise SystemExit(3)
"""
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr


def test_solve_examples():
    a = RatMatrix.from_rows([[2, 1], [1, 3]])
    b = RatMatrix.from_rows([[1, 0, 5], [0, 1, Fraction(1, 2)]])
    x = solve(a, b)
    assert x.rows == 2 and x.cols == 3
    assert a @ x == b
    assert solve(a, RatMatrix.identity(2)) == inverse(a)
    with pytest.raises(SingularMatrixError):
        solve(RatMatrix.from_rows([[1, 2], [2, 4]]), RatMatrix.from_rows([[1], [0]]))
    with pytest.raises(ValueError):
        solve(a, RatMatrix.identity(3))


def test_inertia_examples():
    assert inertia_ldl(RatMatrix.from_rows([[2, 0], [0, -3]])) == Inertia(1, 1, 0)
    assert inertia_ldl(RatMatrix.from_rows([[2, 0], [0, -3]])).signature == 0
    assert inertia_ldl(RatMatrix.from_rows([[4, 2], [2, 4]])) == Inertia(2, 0, 0)
    assert inertia_ldl(RatMatrix.from_rows([[2, 2], [2, 2]])) == Inertia(1, 0, 1)


def test_inertia_zero_diagonal_block():
    assert inertia_ldl(RatMatrix.from_rows([[0, 4], [4, 0]])) == Inertia(1, 1, 0)
    m = RatMatrix.from_rows([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert inertia_ldl(m) == Inertia(1, 1, 1)


def test_inertia_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        inertia_ldl(RatMatrix.from_rows([[1, 2], [3, 4]]))
    with pytest.raises(NotSymmetricError):
        signature_descartes(RatMatrix.from_rows([[1, 2], [3, 4]]))


def test_signature_descartes_examples():
    assert signature_descartes(RatMatrix.from_rows([[2, 0], [0, 4]])) == 2
    assert signature_descartes(RatMatrix.zeros(3, 3)) == 0
    assert signature_descartes(RatMatrix.from_rows([[0, 4], [4, 0]])) == 0


def test_char_poly_examples():
    assert char_poly(RatMatrix.from_rows([[0, 2], [1, 0]])) == [1, 0, -2]
    assert char_poly(RatMatrix.identity(3)) == [1, -3, 3, -1]
    assert char_poly(RatMatrix.from_rows([[2, 0], [0, 4]])) == [1, -6, 8]


def faddeev_leverrier(rows):
    """Reference characteristic polynomial over Fraction, descending."""
    k = len(rows)
    coeffs = [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for step in range(1, k + 1):
        m = [[sum(rows[i][t] * m[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        c = -sum(m[i][i] for i in range(k)) / step
        coeffs.append(c)
        for i in range(k):
            m[i][i] += c
    return coeffs


def oracle_matrix(rng, k, kind):
    den_bits = rng.randint(0, 20)

    def entry():
        return Fraction(rng.randint(-(2**10), 2**10), rng.randint(1, 2**den_bits))

    rows = [[entry() for _ in range(k)] for _ in range(k)]
    if kind == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    elif kind == "singular" and k >= 2:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    elif kind == "nilpotent":
        # strictly upper triangular, conjugated by a unit lower triangular mix
        upper = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
        mix = RatMatrix.from_rows(
            [[int(i == j) or (rng.randint(-3, 3) if j < i else 0) for j in range(k)]
             for i in range(k)]
        )
        rows = (mix @ RatMatrix.from_rows(upper) @ inverse(mix)).to_rows()
    elif kind == "diagonal":
        rows = [[x if i == j else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "zero-leading" and k:
        rows[0][0] = Fraction(0)
    elif kind == "zero-first-row" and k:
        rows[0] = [Fraction(0)] * k
    return rows


KINDS = (
    "dense", "symmetric", "singular", "nilpotent", "diagonal", "zero-leading", "zero-first-row"
)


def test_char_poly_matches_faddeev_leverrier_oracle():
    rng = random.Random(31)
    for trial in range(210):
        k = trial % 10
        kind = KINDS[trial % len(KINDS)]
        rows = oracle_matrix(rng, k, kind)
        got = char_poly(RatMatrix.from_rows(rows))
        assert got == faddeev_leverrier(rows), (k, kind)
        if kind == "nilpotent":
            assert got == [1] + [0] * k


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_signature_methods_agree(seed, k):
    rng = random.Random(seed)
    m = rand_symmetric(rng, k)
    assert inertia_ldl(m).signature == signature_descartes(m)


def test_inertia_counts_sum_to_dimension():
    rng = random.Random(123)
    for _ in range(40):
        k = rng.randint(1, 7)
        inert = inertia_ldl(rand_symmetric(rng, k))
        assert inert.positive + inert.negative + inert.zero == k


def test_sylvester_congruence_invariance():
    rng = random.Random(77)
    for _ in range(15):
        k = rng.randint(1, 5)
        a = rand_symmetric(rng, k)
        while True:
            s = rand_matrix(rng, k, span=3)
            if rank(s) == k:
                break
        assert inertia_ldl(transpose(s) @ a @ s) == inertia_ldl(a)


def test_cayley_hamilton():
    rng = random.Random(55)
    for _ in range(12):
        k = rng.randint(1, 5)
        m = rand_matrix(rng, k, span=3)
        coeffs = char_poly(m)
        poly = MultiPoly(["t"], {(len(coeffs) - 1 - i,): c for i, c in enumerate(coeffs)})
        assert poly.eval_at_matrices([m]).is_zero()


def test_connected_submatrix_examples():
    h = RatMatrix.from_rows([[3, 0, 6], [0, 6, -6], [6, -6, 18]])
    sel = max_nonsingular_connected_submatrix(h, [(0,), (1,), (2,)])
    assert sel.monomials == ((0,), (1,))
    assert sel.matrix == RatMatrix.from_rows([[3, 0], [0, 6]])
    full = max_nonsingular_connected_submatrix(RatMatrix.identity(3), [(0,), (1,), (2,)])
    assert full.monomials == ((0,), (1,), (2,))
    rank1 = max_nonsingular_connected_submatrix(
        RatMatrix.from_rows([[5, 5], [5, 5]]), [(0,), (1,)]
    )
    assert rank1.monomials == ((0,),)


def test_connected_submatrix_rank_matches_on_weighted_power_sum_grams():
    # H = V^T K V over distinct points with positive integer weights, labelled
    # by the power ladder: exactly the matrices the selection is made for
    rng = random.Random(8)
    for _ in range(20):
        m = rng.randint(1, 4)
        pool = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
        points = rng.sample(pool, m)
        weights = [rng.randint(1, 3) for _ in range(m)]
        total = sum(weights)
        h_rows = [
            [
                sum(w * p ** (i + j) for w, p in zip(weights, points))
                for j in range(total)
            ]
            for i in range(total)
        ]
        h = RatMatrix.from_rows(h_rows)
        sel = max_nonsingular_connected_submatrix(h, [(d,) for d in range(total)])
        assert len(sel.monomials) == rank(h) == m
        assert rank(sel.matrix) == m
        assert sel.monomials == tuple((d,) for d in range(m))


def test_connected_submatrix_failure_when_only_disconnected_subsets_work():
    # rank 1 but the only nonzero diagonal entry is on x^2, unreachable
    # without x: the greedy connected scan must fail
    h = RatMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(NoConnectedSelectionError):
        max_nonsingular_connected_submatrix(h, [(0,), (1,), (2,)])


def greedy_selection_reference(h, monomials):
    """The selection by definition: a fresh exact rank of every trial
    principal submatrix, stopping at rank(h); None when it falls short."""
    target = rank(h)
    chosen = []
    for pos, mono in enumerate(monomials):
        if len(chosen) == target:
            break
        linked = sum(mono) == 0 or any(
            e and monomials[c] == mono[:i] + (e - 1,) + mono[i + 1 :]
            for c in chosen
            for i, e in enumerate(mono)
        )
        trial = chosen + [pos]
        if linked and rank(h.submatrix(trial, trial)) == len(trial):
            chosen.append(pos)
    return tuple(chosen) if len(chosen) == target else None


def test_connected_submatrix_matches_per_trial_reference_on_weighted_grams():
    # H = V^T diag(w) V over rational points, labelled by a random graded
    # subset of monomials in one or two variables; negative weights make H
    # indefinite, and dropped labels (1 or a linking quotient) force failures
    rng = random.Random(2718)
    pool = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]
    seen = set()
    for _ in range(300):
        arity = rng.randint(1, 2)
        degree = rng.randint(1, 5 if arity == 1 else 3)
        graded = sorted(
            (m for m in product(range(degree + 1), repeat=arity) if sum(m) <= degree),
            key=lambda m: (sum(m), tuple(-e for e in m)),
        )
        labels = [m for m in graded if rng.random() < 0.85]
        if not labels:
            continue
        points = [tuple(rng.choice(pool) for _ in range(arity)) for _ in range(rng.randint(1, 5))]
        weights = [rng.choice([-2, -1, 1, 1, 2, 3]) for _ in points]
        values = [
            [math.prod(c**e for c, e in zip(p, m)) for p in points] for m in labels
        ]
        h = RatMatrix.from_rows(
            [
                [sum(w * a * b for w, a, b in zip(weights, row_i, row_j)) for row_j in values]
                for row_i in values
            ]
        )
        expected = greedy_selection_reference(h, labels)
        if expected is None:
            with pytest.raises(NoConnectedSelectionError):
                max_nonsingular_connected_submatrix(h, labels)
        else:
            sel = max_nonsingular_connected_submatrix(h, labels)
            assert sel.indices == expected
            assert sel.monomials == tuple(labels[i] for i in expected)
            assert sel.matrix == h.submatrix(expected, expected)
        seen.add((arity, min(weights) < 0, expected is None))
    assert {(1, False, False), (2, False, False), (1, True, False), (2, True, False)} <= seen
    assert any(raised for _, _, raised in seen)


def test_matrix_equality_and_trace():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert matrix_trace(m) == 5
    assert m == RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m != RatMatrix.from_rows([[1, 2], [3, 5]])
