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
    NotSymmetricError,
    RatMatrix,
    SingularMatrixError,
    char_poly,
    inertia_descartes,
    inertia_ldl,
    inverse,
    rank,
    solve,
)
from hermicert.hermite import _connected_scan
from hermicert.polynomials import MultiPoly

from conftest import identity, is_zero_matrix, matrix_rows, matrix_trace


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix.from_rows(list(zip(*matrix_rows(m))))


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
    assert rank(RatMatrix.from_rows([[0] * 3] * 3)) == 0
    assert rank(RatMatrix.from_rows([[3, 0, 6], [0, 6, -6], [6, -6, 18]])) == 2
    assert rank(identity(5)) == 5


def test_rank_equals_rank_of_transpose():
    # every matrix the package eliminates is a Hermite matrix: rank, solve,
    # inverse, inertia and the connected scan take symmetric matrices only,
    # so a non-square or non-symmetric one (whose rank is its transpose's)
    # is refused, not ranked
    for m in (RatMatrix.from_rows([[1, 2, 3], [2, 4, 5]]), RatMatrix.from_rows([[1, 2], [3, 4]])):
        for op in (
            rank,
            inverse,
            inertia_ldl,
            lambda a: solve(a, identity(a.rows)),
            lambda a: _connected_scan(a, [(d,) for d in range(a.rows)]),
        ):
            with pytest.raises(NotSymmetricError):
                op(m)


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
kernels.eliminate = lambda k, nums, dens, rhs=None, linked=None: (2, 0, 0, [], ([2, 0, 0, 1], [1] * 4))
try:
    inverse(RatMatrix.from_rows([[1, 0], [0, 1]]))
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
right = kernels.eliminate

def wrong(k, nums, dens, rhs=None, linked=None):
    *head, x = right(k, nums, dens, rhs, linked)
    if x is None:
        return (*head, x)
    xn, xd = x
    return (*head, ([xn[0] + xd[0]] + xn[1:], xd))  # adds 1 to the first entry

kernels.eliminate = wrong
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
    x, inert = solve(a, b)
    assert x.rows == 2 and x.cols == 3
    assert a @ x == b
    assert inert == Inertia(2, 0, 0)
    assert solve(a, identity(2)) == (inverse(a), inert)
    # a zero diagonal: the solve pivots on a 2x2 block, and its inertia is
    # that block's (+1, -1)
    block = RatMatrix.from_rows([[0, 3], [3, 0]])
    assert solve(block, RatMatrix.from_rows([[6], [9]])) == (
        RatMatrix.from_rows([[3], [2]]),
        Inertia(1, 1, 0),
    )
    with pytest.raises(SingularMatrixError):
        solve(RatMatrix.from_rows([[1, 2], [2, 4]]), RatMatrix.from_rows([[1], [0]]))
    with pytest.raises(ValueError):
        solve(a, identity(3))


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
        inertia_descartes(RatMatrix.from_rows([[1, 2], [3, 4]]))


def test_signature_descartes_examples():
    assert inertia_descartes(RatMatrix.from_rows([[2, 0], [0, 4]])) == Inertia(2, 0, 0)
    assert inertia_descartes(RatMatrix.from_rows([[0] * 3] * 3)) == Inertia(0, 0, 3)
    assert inertia_descartes(RatMatrix.from_rows([[0, 4], [4, 0]])) == Inertia(1, 1, 0)
    # (lambda - 4) lambda: the zero count is the multiplicity of the root 0
    assert inertia_descartes(RatMatrix.from_rows([[2, 2], [2, 2]])) == Inertia(1, 0, 1)
    assert inertia_descartes(RatMatrix.from_rows([[-1, 1, 0], [1, -1, 0], [0, 0, 0]])) == Inertia(0, 1, 2)


def test_char_poly_examples():
    assert char_poly(RatMatrix.from_rows([[2, 1], [1, 2]])) == [1, -4, 3]
    assert char_poly(identity(3)) == [1, -3, 3, -1]
    assert char_poly(RatMatrix.from_rows([[2, 0], [0, 4]])) == [1, -6, 8]


def test_char_poly_rejects_non_symmetric_matrices():
    companion = RatMatrix.from_rows([[0, 2], [1, 0]])  # x^2 - 2
    one_entry_off = RatMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 6, 6]])
    for m in (companion, one_entry_off):
        with pytest.raises(NotSymmetricError):
            char_poly(m)


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


def householder(rng, k):
    """The rational reflection I - 2 v v^T / (v^T v): symmetric and
    orthogonal, so conjugating by it keeps the eigenvalues."""
    v = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
    v[0] += 1 if not any(v) else 0
    n = sum(x * x for x in v)
    return [[int(i == j) - 2 * v[i] * v[j] / n for j in range(k)] for i in range(k)]


def oracle_matrix(rng, k, kind):
    """A symmetric k x k matrix of the given kind, and its eigenvalues when
    the kind fixes them (else None)."""
    den_bits = rng.randint(0, 20)

    def entry():
        return Fraction(rng.randint(-(2**10), 2**10), rng.randint(1, 2**den_bits))

    upper = [[entry() for _ in range(k)] for _ in range(k)]
    rows = [[upper[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    if kind == "low-rank":
        vs = [[entry() for _ in range(k)] for _ in range(rng.randint(0, k - 1) if k else 0)]
        rows = [[sum(v[i] * v[j] for v in vs) for j in range(k)] for i in range(k)]
    elif kind == "reflected-diagonal" and k:
        # repeated eigenvalues, hidden by a reflection
        eigen = [rng.choice((Fraction(0), Fraction(-3, 2), Fraction(5))) for _ in range(k)]
        h = RatMatrix.from_rows(householder(rng, k))
        d = RatMatrix.from_rows([[eigen[i] if i == j else 0 for j in range(k)] for i in range(k)])
        return matrix_rows(h @ d @ h), eigen
    elif kind == "diagonal":
        rows = [[x if i == j else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "zero-leading" and k:
        rows[0][0] = Fraction(0)
    elif kind == "zero-first-row" and k:
        for i in range(k):
            rows[0][i] = rows[i][0] = Fraction(0)
    return rows, None


KINDS = ("dense", "low-rank", "reflected-diagonal", "diagonal", "zero-leading", "zero-first-row")


def test_char_poly_matches_faddeev_leverrier_oracle():
    rng = random.Random(31)
    for trial in range(210):
        k = trial % 10
        kind = KINDS[trial % len(KINDS)]
        rows, eigen = oracle_matrix(rng, k, kind)
        got = char_poly(RatMatrix.from_rows(rows))
        assert got == faddeev_leverrier(rows), (k, kind)
        if eigen is not None:
            t = MultiPoly.variable(["t"], 0)
            expected = MultiPoly.constant(["t"], 1)
            for e in eigen:
                expected = expected * (t - MultiPoly.constant(["t"], e))
            assert got == [expected.terms.get((k - i,), 0) for i in range(k + 1)], (k, eigen)


def test_char_poly_is_invariant_under_a_symmetric_permutation_of_blocks():
    # A is block diagonal (blocks of sizes 1 to 4, some zero, or one block
    # linked as a path); P^T A P scatters the blocks, so the kernel meets
    # the same connected components in other positions
    rng = random.Random(47)
    for trial in range(60):
        k = trial % 10
        rows = [[Fraction(0)] * k for _ in range(k)]
        s = 0
        while s < k:
            size = k if trial % 3 == 0 else rng.randint(1, 4)
            zero = rng.random() < 0.2
            for i in range(s, min(s + size, k)):
                for j in range(i, min(s + size, k)):
                    chain = trial % 3 == 0 and j > i + 1  # a path: only neighbours linked
                    f = Fraction(rng.randint(-9, 9), rng.randint(1, 2**6))
                    rows[i][j] = rows[j][i] = 0 if zero or chain else f
            s += size
        perm = rng.sample(range(k), k)
        permuted = [[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)]
        expected = faddeev_leverrier(rows)
        assert char_poly(RatMatrix.from_rows(rows)) == expected, (k, rows)
        assert char_poly(RatMatrix.from_rows(permuted)) == expected, (k, perm)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_signature_methods_agree(seed, k):
    rng = random.Random(seed)
    m = rand_symmetric(rng, k)
    assert inertia_ldl(m) == inertia_descartes(m)


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
            if rank(transpose(s) @ s) == k:  # rank S^T S = rank S
                break
        assert inertia_ldl(transpose(s) @ a @ s) == inertia_ldl(a)


def test_cayley_hamilton():
    rng = random.Random(55)
    for _ in range(12):
        k = rng.randint(1, 5)
        m = rand_symmetric(rng, k, span=3)
        coeffs = char_poly(m)
        poly = MultiPoly(["t"], {(len(coeffs) - 1 - i,): c for i, c in enumerate(coeffs)})
        assert is_zero_matrix(poly.eval_at_matrices([m]))


def test_connected_submatrix_examples():
    h = RatMatrix.from_rows([[3, 0, 6], [0, 6, -6], [6, -6, 18]])
    sel = _connected_scan(h, [(0,), (1,), (2,)])
    assert sel.monomials == ((0,), (1,)) and sel.rank == 2
    assert h.submatrix(sel.indices, sel.indices) == RatMatrix.from_rows([[3, 0], [0, 6]])
    full = _connected_scan(identity(3), [(0,), (1,), (2,)])
    assert full.monomials == ((0,), (1,), (2,)) and full.rank == 3
    rank1 = _connected_scan(RatMatrix.from_rows([[5, 5], [5, 5]]), [(0,), (1,)])
    assert rank1.monomials == ((0,),) and rank1.rank == 1


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
        sel = _connected_scan(h, [(d,) for d in range(total)])
        assert len(sel.monomials) == sel.rank == rank(h) == m
        assert rank(h.submatrix(sel.indices, sel.indices)) == m
        assert sel.monomials == tuple((d,) for d in range(m))


def test_connected_submatrix_failure_when_only_disconnected_subsets_work():
    # rank 1 but the only nonzero diagonal entry is on x^2, unreachable
    # without x: the greedy connected scan must fall short of the rank
    h = RatMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    sel = _connected_scan(h, [(0,), (1,), (2,)])
    assert (sel.indices, sel.rank) == ((), 1)


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
        sel = _connected_scan(h, labels)
        assert sel.rank == rank(h)
        if expected is None:
            assert len(sel.indices) < sel.rank
        else:
            assert sel.indices == expected
            assert sel.monomials == tuple(labels[i] for i in expected)
        seen.add((arity, min(weights) < 0, expected is None))
    assert {(1, False, False), (2, False, False), (1, True, False), (2, True, False)} <= seen
    assert any(raised for _, _, raised in seen)


def test_matrix_equality_and_trace():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert matrix_trace(m) == 5
    assert m == RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m != RatMatrix.from_rows([[1, 2], [3, 5]])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_symmetry_and_submatrix_match_their_entrywise_definitions(data):
    # square, non-square and empty shapes; a symmetric matrix is drawn half
    # the time, and then its mirror entry (j, i) may differ from (i, j) in its
    # numerator alone or in its denominator alone (both in lowest terms)
    rows = data.draw(st.integers(0, 5), label="rows")
    cols = data.draw(st.one_of(st.just(rows), st.integers(0, 5)), label="cols")
    value = st.fractions(-4, 4, max_denominator=6)
    grid = [[data.draw(value) for _ in range(cols)] for _ in range(rows)]
    if rows == cols and data.draw(st.booleans(), label="symmetric"):
        grid = [[grid[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
        if rows > 1 and data.draw(st.booleans(), label="mirror differs"):
            i, j = data.draw(st.permutations(range(rows)), label="entry")[:2]
            f = data.draw(value.filter(bool), label="value")
            n, d = f.numerator, f.denominator
            grid[i][j] = f
            # gcd(n + d, d) = gcd(n, d + |n|) = gcd(n, d) = 1
            mirror = st.sampled_from([Fraction(n + d, d), Fraction(n, d + abs(n))])
            grid[j][i] = data.draw(mirror, label="mirror")
    entries = [f for row in grid for f in row]
    m = RatMatrix(rows, cols, [f.numerator for f in entries], [f.denominator for f in entries])
    symmetric = rows == cols and all(grid[i][j] == grid[j][i] for i in range(rows) for j in range(cols))
    assert m.is_symmetric() == symmetric
    # repeated and unordered indices, and empty index lists
    def indices(n):
        return st.lists(st.integers(0, n - 1), max_size=6) if n else st.just([])

    row_idx = data.draw(indices(rows), label="row_idx")
    col_idx = data.draw(indices(cols), label="col_idx")
    sub = m.submatrix(row_idx, col_idx)
    assert (sub.rows, sub.cols) == (len(row_idx), len(col_idx))
    assert all(sub.entry(a, b) == grid[i][j] for a, i in enumerate(row_idx) for b, j in enumerate(col_idx))


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: RatMatrix(2, 2, [1], [1]), "entry count does not match dimensions", id="entry count"),
        pytest.param(
            lambda: RatMatrix.from_rows([[1, 2]]) @ RatMatrix.from_rows([[1, 2]]),
            "dimension mismatch: 2 vs 1",
            id="product shapes",
        ),
    ],
)
def test_linalg_guards(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
