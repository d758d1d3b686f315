"""Independent oracles for the exact matrix kernels."""

import ast
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

from hermicert import _kernels as kernels
from hermicert.linalg import RatMatrix, inertia_descartes


def rand_fraction(rng, span=9, dens=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, dens))


def rand_pairs(rng, count, span=9, dens_max=9):
    nums, dens = [], []
    for _ in range(count):
        f = rand_fraction(rng, span, dens_max)
        nums.append(f.numerator)
        dens.append(f.denominator)
    return nums, dens


def rand_symmetric_pairs(rng, k, span=5, dens_max=5):
    nums = [0] * (k * k)
    dens = [1] * (k * k)
    for i in range(k):
        for j in range(i, k):
            f = rand_fraction(rng, span, dens_max)
            nums[i * k + j] = nums[j * k + i] = f.numerator
            dens[i * k + j] = dens[j * k + i] = f.denominator
    return nums, dens


def gauss_rank_oracle(rows, cols, nums, dens):
    """Plain Fraction Gaussian elimination, independent of Bareiss."""
    m = [
        [Fraction(nums[i * cols + j], dens[i * cols + j]) for j in range(cols)]
        for i in range(rows)
    ]
    rank = 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, rows):
            f = m[r][col] / m[row][col]
            for c in range(col, cols):
                m[r][c] -= f * m[row][c]
        row += 1
        rank += 1
    return rank


def mat_mul_oracle(ar, ac, bc, an, ad, bn, bd):
    """Fraction triple loop, independent of the kernel's pair arithmetic."""
    a = [Fraction(n, d) for n, d in zip(an, ad)]
    b = [Fraction(n, d) for n, d in zip(bn, bd)]
    c = [
        sum((a[i * ac + t] * b[t * bc + j] for t in range(ac)), Fraction(0))
        for i in range(ar)
        for j in range(bc)
    ]
    return [f.numerator for f in c], [f.denominator for f in c]


def assert_reduced(nums, dens):
    assert all(d > 0 and gcd(n, d) == 1 for n, d in zip(nums, dens)), (nums, dens)


def test_scaled_puts_every_entry_over_the_lcm():
    assert kernels.scaled([], []) == (1, [])
    assert kernels.scaled([0, 0], [1, 1]) == (1, [0, 0])
    # zeros keep their denominators in the lcm; -3/4 and 5/6 over 12
    assert kernels.scaled([0, -3, 5, 0], [7, 4, 6, 1]) == (84, [0, -63, 70, 0])
    rng = random.Random(5)
    for count in range(12):
        nums, dens = rand_pairs(rng, count, 2**40, 2**30)
        l, ints = kernels.scaled(nums, dens)
        assert l > 0 and all(l % d == 0 for d in dens)
        assert [Fraction(x, l) for x in ints] == [Fraction(n, d) for n, d in zip(nums, dens)]


def test_reduced_gives_lowest_terms():
    assert kernels.reduced([], []) == ([], [])
    assert kernels.reduced([0, 0], [5, 1]) == ([0, 0], [1, 1])
    assert kernels.reduced([-6, 4, -7, 0], [4, 2, 1, 12]) == ([-3, 2, -7, 0], [2, 1, 1, 1])
    rng = random.Random(6)
    for count in range(12):
        nums = [rng.randint(-(2**50), 2**50) * rng.choice([0, 1, 2**20]) for _ in range(count)]
        dens = [rng.randint(1, 2**40) for _ in range(count)]
        got = kernels.reduced(nums, dens)
        assert_reduced(*got)
        assert [Fraction(n, d) for n, d in zip(*got)] == [Fraction(n, d) for n, d in zip(nums, dens)]


def test_only_the_kernels_import_gcd_or_lcm():
    # _kernels holds the package's one scaling and one reduction (scaled,
    # reduced); a module that imports gcd or lcm is writing its own copy
    src = Path(kernels.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                offenders += [(path.name, a.name) for a in node.names if a.name in ("gcd", "lcm")]
            elif isinstance(node, ast.Attribute) and node.attr in ("gcd", "lcm"):
                offenders.append((path.name, node.attr))
    assert offenders == []


def test_mat_mul_matches_fraction_triple_loop():
    rng = random.Random(99)
    shapes = [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    shapes += [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]
    for ar, ac, bc in shapes:
        an, ad = rand_pairs(rng, ar * ac)
        bn, bd = rand_pairs(rng, ac * bc)
        got = kernels.mat_mul(ar, ac, bc, an, ad, bn, bd)
        assert got == mat_mul_oracle(ar, ac, bc, an, ad, bn, bd)
        assert_reduced(*got)
    for k in list(range(1, 9)) * 2:
        an, ad = rand_pairs(rng, k * k, 2**12, 2**20)
        bn, bd = rand_pairs(rng, k * k, 2**12, 2**20)
        got = kernels.mat_mul(k, k, k, an, ad, bn, bd)
        assert got == mat_mul_oracle(k, k, k, an, ad, bn, bd)
        assert_reduced(*got)


def low_rank_symmetric_pairs(rng, k, r, span=4, dens_max=3):
    """C^T D C with C r x k and D diagonal: symmetric of rank at most r."""
    c = [[rand_fraction(rng, span, dens_max) for _ in range(k)] for _ in range(r)]
    d = [Fraction(rng.choice([-2, -1, 1, 3])) for _ in range(r)]
    entries = [sum(d[t] * c[t][i] * c[t][j] for t in range(r)) for i in range(k) for j in range(k)]
    return [f.numerator for f in entries], [f.denominator for f in entries]


def zero_diagonal_pairs(rng, k, span=5, dens_max=5):
    """A random symmetric matrix with a zero diagonal: its first pivot is a
    2x2 block."""
    nums, dens = rand_symmetric_pairs(rng, k, span, dens_max)
    for i in range(k):
        nums[i * k + i], dens[i * k + i] = 0, 1
    return nums, dens


def inertia(k, nums, dens):
    return kernels.eliminate(k, nums, dens)[:3]


def test_inertia_matches_rank_and_descartes_signature():
    # two independent routes: zero = k - rank (Fraction Gauss), and the
    # whole inertia from the characteristic polynomial (Berkowitz)
    rng = random.Random(99)
    cases = []
    for _ in range(40):
        k = rng.randint(1, 6)
        cases.append((k, *rand_symmetric_pairs(rng, k)))
        cases.append((k, *low_rank_symmetric_pairs(rng, k, rng.randint(1, k))))
    # a zero diagonal forces the antidiagonal 2x2 step; a wrong Schur
    # complement after it changes the inertia of only a few percent of them
    for _ in range(300):
        k = rng.randint(2, 7)
        cases.append((k, *zero_diagonal_pairs(rng, k)))
    seen_zero = seen_block = False
    for k, nums, dens in cases:
        pos, neg, zero = inertia(k, nums, dens)
        assert pos + neg + zero == k
        assert zero == k - gauss_rank_oracle(k, k, nums, dens)
        assert (pos, neg, zero) == inertia_descartes(RatMatrix(k, k, list(nums), list(dens)))
        seen_zero |= zero > 0
        seen_block |= k > 1 and not any(nums[i * k + i] for i in range(k)) and pos > 0
    assert seen_zero and seen_block


def test_rank_matches_gauss_oracle():
    rng = random.Random(4)
    for _ in range(60):
        k = rng.randint(1, 6)
        kind = rng.choice(("random", "low-rank", "zero-diagonal"))
        if kind == "random":
            nums, dens = rand_symmetric_pairs(rng, k)
        elif kind == "low-rank":
            nums, dens = low_rank_symmetric_pairs(rng, k, rng.randint(0, k))
        else:
            nums, dens = zero_diagonal_pairs(rng, k)
        pos, neg, _ = inertia(k, nums, dens)
        assert pos + neg == gauss_rank_oracle(k, k, nums, dens), (k, kind)


def solve_oracle(k, m, an, ad, bn, bd):
    """Plain Fraction Gauss-Jordan elimination of [A | B], independent of the
    kernel's fraction-free one; None when A is singular."""
    rows = [
        [Fraction(an[i * k + j], ad[i * k + j]) for j in range(k)]
        + [Fraction(bn[i * m + j], bd[i * m + j]) for j in range(m)]
        for i in range(k)
    ]
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    x = [v for row in rows for v in row[k:]]
    return [f.numerator for f in x], [f.denominator for f in x]


def solve(k, m, an, ad, bn, bd):
    """The kernel's solution of A X = B, None when A is singular."""
    return kernels.eliminate(k, an, ad, (m, bn, bd))[4]


def flat_pairs(rows):
    entries = [Fraction(x) for row in rows for x in row]
    return [f.numerator for f in entries], [f.denominator for f in entries]


def test_inverse_times_matrix_is_identity():
    rng = random.Random(17)
    done = 0
    while done < 25:
        k = rng.randint(1, 6)
        nums, dens = rand_symmetric_pairs(rng, k)
        identity = [1 if i == j else 0 for i in range(k) for j in range(k)]
        inv = solve(k, k, nums, dens, identity, [1] * (k * k))
        if inv is None:
            continue
        assert mat_mul_oracle(k, k, k, nums, dens, *inv) == (identity, [1] * (k * k))
        done += 1


def test_solve_satisfies_residual_on_random_shapes():
    rng = random.Random(23)
    done = 0
    while done < 40:
        k, m = rng.randint(1, 6), rng.randint(0, 5)
        an, ad = rand_symmetric_pairs(rng, k) if done % 2 else zero_diagonal_pairs(rng, k)
        bn, bd = rand_pairs(rng, k * m)
        x = solve(k, m, an, ad, bn, bd)
        if x is None:
            continue
        assert mat_mul_oracle(k, k, m, an, ad, *x) == (bn, bd)
        done += 1


SOLVE_CASES = [
    # (A rows, k, m), each A symmetric: negative determinants, with and
    # without a 1x1 pivot
    ([[1, 2], [2, 3]], 2, 3),
    ([[0, 1], [1, 0]], 2, 2),
    ([[Fraction(-3, 7)]], 1, 2),
    # a zero first pivot, and a zero pivot that appears mid-elimination
    ([[0, 2, 1], [2, 1, 0], [1, 0, 3]], 3, 2),
    ([[1, 2, 3], [2, 4, 5], [3, 5, 1]], 3, 4),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1 + Fraction(1, 9)]], 2, 1),
    # a row left unscaled at one pivot (its entry there is 0) is updated at
    # the next
    ([[3, 0, -1, 0], [0, 0, -1, 3], [-1, -1, 0, 2], [0, 3, 2, 2]], 4, 2),
    # 2x2 blocks inside a solve: after a 1x1 pivot on a later label, first
    # on a zero diagonal, on the zero-diagonal remainder a 1x1 pivot leaves,
    # and two blocks in a row
    ([[0, 3, 0], [3, 0, 0], [0, 0, 5]], 3, 2),
    ([[0, 2, 1], [2, 0, 4], [1, 4, 0]], 3, 3),
    ([[-2, 4, 6], [4, -8, 1], [6, 1, -18]], 3, 2),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 7], [0, 0, 7, 0]], 4, 2),
    # singular
    ([[1, 2], [2, 4]], 2, 2),
    ([[0, 0], [0, 0]], 2, 1),
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 3, 2),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 3, 1),
    # m = 0, nonsingular and singular
    ([[2, 1], [1, 1]], 2, 0),
    ([[1, 1], [1, 1]], 2, 0),
    # k = 0
    ([], 0, 3),
    ([], 0, 0),
]


def test_solve_matches_fraction_oracle():
    rng = random.Random(31)
    cases = []
    for rows, k, m in SOLVE_CASES:
        assert all(rows[i][j] == rows[j][i] for i in range(k) for j in range(k))
        cases.append((k, m, *flat_pairs(rows), *rand_pairs(rng, k * m)))
    for trial in range(120):
        k, m = rng.randint(1, 7), rng.randint(0, 6)
        big = trial % 2 == 1
        span, dens_max = (2**40, 2**30) if big else (9, 9)
        kind = trial // 2 % 3
        if kind == 0:
            an, ad = rand_symmetric_pairs(rng, k, span, dens_max)
        elif kind == 1:  # low rank, so usually singular
            an, ad = low_rank_symmetric_pairs(rng, k, rng.randint(0, k), span, dens_max)
        else:  # a zero diagonal: 2x2 pivots inside the solve
            an, ad = zero_diagonal_pairs(rng, k, span, dens_max)
        cases.append((k, m, an, ad, *rand_pairs(rng, k * m, span, dens_max)))
    singular = blocks = 0
    for k, m, an, ad, bn, bd in cases:
        got = solve(k, m, an, ad, bn, bd)
        assert got == solve_oracle(k, m, an, ad, bn, bd), (k, m, an, ad)
        if got is None:
            singular += 1
        else:
            assert_reduced(*got)
            blocks += k > 1 and not any(an[i * k + i] for i in range(k))
    assert singular >= 10 and blocks >= 10


def test_solve_carries_the_inertia_and_ignores_the_right_hand_side():
    # one elimination gives both: the inertia with right-hand sides carried
    # along is the inertia without them
    rng = random.Random(37)
    for trial in range(60):
        k, m = rng.randint(1, 7), rng.randint(1, 4)
        an, ad = rand_symmetric_pairs(rng, k) if trial % 2 else zero_diagonal_pairs(rng, k)
        pos, neg, zero, picked, x = kernels.eliminate(k, an, ad, (m, *rand_pairs(rng, k * m)))
        assert (pos, neg, zero) == ldl_inertia_oracle(k, an, ad)
        assert picked == [] and (x is None) == (zero > 0)


def ldl_inertia_oracle(k, nums, dens, steps=None):
    """Rational symmetric LDL over Fraction, with diagonal pivoting and
    antidiagonal 2x2 blocks: the inertia kernel before it went fraction-free.
    When given, `steps` collects the pivots taken: -1 or +1 for a 1x1 pivot
    of that sign, 2 for a 2x2 block."""
    s = [[Fraction(nums[i * k + j], dens[i * k + j]) for j in range(k)] for i in range(k)]
    steps = [] if steps is None else steps

    def swap(p, q):
        s[p], s[q] = s[q], s[p]
        for row in s:
            row[p], row[q] = row[q], row[p]

    i = 0
    while i < k:
        piv = next((j for j in range(i, k) if s[j][j]), None)
        if piv is not None:
            swap(i, piv)
            d = s[i][i]
            steps.append(1 if d > 0 else -1)
            for r in range(i + 1, k):
                f = s[r][i] / d
                for c in range(i + 1, k):
                    s[r][c] -= f * s[i][c]
            i += 1
            continue
        off = next(((r, c) for r in range(i, k) for c in range(r + 1, k) if s[r][c]), None)
        if off is None:
            break
        swap(i, off[0])
        swap(i + 1, off[1])
        b = s[i][i + 1]
        steps.append(2)
        u = [row[i] for row in s]
        v = [row[i + 1] for row in s]
        for r in range(i + 2, k):
            for c in range(i + 2, k):
                s[r][c] -= (u[r] * v[c] + v[r] * u[c]) / b
        i += 2
    pos = steps.count(1) + steps.count(2)
    neg = steps.count(-1) + steps.count(2)
    return pos, neg, k - pos - neg


def berkowitz_oracle(k, nums, dens):
    """Berkowitz's algorithm with every R A^j S formed as R (A^j S), for any
    square matrix, on the whole matrix: an oracle independent of the
    kernel's symmetric split and of its split into connected blocks."""
    if k == 0:
        return [1], [1]
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    a = [[nums[i * k + j] * (l // dens[i * k + j]) for j in range(k)] for i in range(k)]
    p = [1, -a[k - 1][k - 1]]
    for r in range(k - 2, -1, -1):
        rows = [row[r + 1 :] for row in a[r + 1 :]]
        top = a[r][r + 1 :]
        v = [row[r] for row in a[r + 1 :]]
        t = [1, -a[r][r], -sum(map(mul, top, v))]
        for _ in range(k - 2 - r):
            v = [sum(map(mul, row, v)) for row in rows]
            t.append(-sum(map(mul, top, v)))
        p = [sum(map(mul, t[i::-1], p)) for i in range(len(t))]
    coeffs = [Fraction(c, l**i) for i, c in enumerate(p)]
    return [c.numerator for c in coeffs], [c.denominator for c in coeffs]


def rand_int(rng, bits=10):
    return rng.choice([-1, 1]) * rng.randint(1, 2**bits)


def symmetric_case(rng, k, kind):
    """A seeded k x k symmetric integer matrix of the given kind, as rows.

    - "dense", "low-rank", "diagonal": as named;
    - "zero-diagonal": the first pivot is a 2x2 block, usually followed by
      1x1 pivots taken with d < 0;
    - "chained-blocks": the remainder after each of the first k // 2 - 1
      blocks has a zero diagonal again, so 2x2 blocks follow each other;
    - "negative-then-block": a negative 1x1 pivot leaves a zero diagonal,
      so a 2x2 block is taken with d < 0 and |d| > 1;
    - "permuted-blocks": dense blocks of sizes 1 to 4, some of them zero,
      under a random symmetric permutation, so the non-zero pattern has
      several connected components, among them 1x1 blocks and zero rows;
    - "sparse-chain": a path or an arrow through the indices in a random
      order, diagonal entries zero or not, so the pattern is connected but
      most pairs are linked only through others."""
    a = [[0] * k for _ in range(k)]
    if kind == "permuted-blocks":
        order = rng.sample(range(k), k)
        s = 0
        while s < k:
            block = order[s : s + rng.randint(1, 4)]
            zero = rng.random() < 0.2
            for i in block:
                for j in block:
                    if i <= j:
                        a[i][j] = a[j][i] = 0 if zero else rand_int(rng)
            s += len(block)
        return a
    if kind == "sparse-chain":
        order = rng.sample(range(k), k)
        hub = rng.random() < 0.5  # an arrow: every index linked to the first
        for t in range(1, k):
            i, j = order[0 if hub else t - 1], order[t]
            a[i][j] = a[j][i] = rand_int(rng)
        for i in range(k):
            a[i][i] = rand_int(rng) if rng.random() < 0.5 else 0
        return a
    if kind == "low-rank":
        r = rng.randint(0, k)
        c = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        w = [rand_int(rng, 3) for _ in range(r)]
        return [
            [sum(w[t] * c[t][i] * c[t][j] for t in range(r)) for j in range(k)] for i in range(k)
        ]
    for i in range(k):
        for j in range(i, k):
            if kind != "diagonal" or i == j:
                a[i][j] = a[j][i] = rand_int(rng)
    if kind in ("zero-diagonal", "chained-blocks"):
        for i in range(k):
            a[i][i] = 0
    if kind == "chained-blocks":
        # after the block on (2m, 2m + 1) the remainder is -b^2 / d^2 times
        # the rows and columns beyond it when column 2m + 1 is zero there
        for m in range(k // 2 - 1):
            for i in range(2 * m + 2, k):
                a[i][2 * m + 1] = a[2 * m + 1][i] = 0
    if kind == "negative-then-block" and k:
        m = rng.randint(2, 2**6)
        a[0][0] = -m
        for i in range(1, k):
            u = rand_int(rng, 4)
            a[i][0] = a[0][i] = m * u
            a[i][i] = -m * u * u
    return a


def as_pairs(k, rows, scale):
    """Entries a_ij / (scale_i * scale_j): a diagonal congruence, so the
    inertia and every zero pattern met by the elimination are unchanged."""
    entries = [Fraction(rows[i][j], scale[i] * scale[j]) for i in range(k) for j in range(k)]
    return [f.numerator for f in entries], [f.denominator for f in entries]


SYMMETRIC_KINDS = (
    "dense", "low-rank", "diagonal", "zero-diagonal", "chained-blocks", "negative-then-block",
    "permuted-blocks", "sparse-chain",
)


def test_inertia_matches_rational_ldl_oracle():
    rng = random.Random(2026)
    seen = set()
    for trial in range(13 * len(SYMMETRIC_KINDS) * 3):
        k = trial % 13
        kind = SYMMETRIC_KINDS[trial // 13 % len(SYMMETRIC_KINDS)]
        scale = [rng.randint(1, 2**10) for _ in range(k)]  # denominators up to 2^20
        nums, dens = as_pairs(k, symmetric_case(rng, k, kind), scale)
        steps = []
        expected = ldl_inertia_oracle(k, nums, dens, steps)
        assert inertia(k, nums, dens) == expected, (k, kind)
        if kind == "chained-blocks" and k >= 6:
            assert steps[: k // 2] == [2] * (k // 2), steps
            seen.add(kind)
        if kind == "negative-then-block" and k >= 4:
            assert steps[:2] == [-1, 2] and len(steps) > 2, steps
            seen.add(kind)
        if kind == "zero-diagonal" and len(steps) > 1 and steps[1] != 2:
            assert steps[0] == 2, steps  # so the 1x1 pivot after it has d = -b^2 < 0
            seen.add(kind)
    assert seen == {"chained-blocks", "negative-then-block", "zero-diagonal"}


def test_charpoly_matches_unsplit_berkowitz_oracle():
    rng = random.Random(2027)
    split = False
    for trial in range(13 * len(SYMMETRIC_KINDS) * 2):
        k = trial % 13
        kind = SYMMETRIC_KINDS[trial // 13 % len(SYMMETRIC_KINDS)]
        scale = [rng.randint(1, 2**10) for _ in range(k)]
        rows = symmetric_case(rng, k, kind)
        nums, dens = as_pairs(k, rows, scale)
        got = kernels.charpoly(k, nums, dens)
        assert got == berkowitz_oracle(k, nums, dens), (k, kind)
        parts = len(kernels._components(k, rows))
        if kind == "sparse-chain" and k:
            assert parts == 1, rows
        split |= kind == "permuted-blocks" and parts > 2 and any(not any(r) for r in rows)
    assert split


def grid_moment_matrix(weight):
    """sum_p weight(p) b_i(p) b_j(p) over the 5x5 integer grid, b the
    monomials x^a y^b with a, b <= 4, as k = 25 rows of Fractions."""
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    basis = [(a, b) for a in range(5) for b in range(5)]
    w = {p: Fraction(weight(*p)) for p in grid}
    return [
        [sum(w[x, y] * x ** (a + c) * y ** (b + d) for x, y in grid) for c, d in basis]
        for a, b in basis
    ]


def test_grid_h1_splits_by_parity_and_a_ball_h_g_does_not():
    # the odd moments of the symmetric grid vanish, so H1 falls into the four
    # parity classes of (a, b); the linear terms of a ball weight with a
    # non-dyadic center couple them again
    h1 = grid_moment_matrix(lambda x, y: 1)
    c = (Fraction(1, 3), Fraction(-2, 5))
    hg = grid_moment_matrix(lambda x, y: (x - c[0]) ** 2 + (y - c[1]) ** 2 - Fraction(3, 7))
    for rows, sizes in ((h1, [4, 6, 6, 9]), (hg, [25])):
        _, b = kernels.integer_rows(25, *flat_pairs(rows))
        assert sorted(map(len, kernels._components(25, b))) == sizes


def dense_power_sums(rows):
    """Tr(X), ..., Tr(X^k) of an integer matrix given as k rows, by dense
    powers: no trace functional and no Newton recurrence."""
    k = len(rows)
    sums, power = [], rows
    for _ in range(k):
        sums.append(sum(power[i][i] for i in range(k)))
        power = [[sum(power[i][m] * rows[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
    return sums


def monic_from_roots(roots):
    """[1, c1, ..., ck] of prod (lambda - r)."""
    c = [1]
    for r in roots:
        c = [a - r * b for a, b in zip(c + [0], [0] + c)]
    return c


def companion(roots):
    """The matrix of multiplication by x on Q[x]/(p), p = prod (x - r), in the
    basis 1, x, ..., x^(k-1), column j holding the coordinates of x * x^j."""
    c = monic_from_roots(roots)
    k = len(roots)
    rows = [[0] * k for _ in range(k)]
    for j in range(k - 1):
        rows[j + 1][j] = 1
    for i in range(k):
        rows[i][k - 1] = -c[k - i]
    return rows


def test_newton_charpoly_matches_known_polynomials():
    rng = random.Random(2031)
    cases = {
        "k = 1": ([[5]], [5]),
        "k = 1, zero": ([[0]], [0]),
        "diagonal, zero and repeated": (
            [[v if i == j else 0 for j in range(6)] for i, v in enumerate([3, -1, 0, 0, 2, 2])],
            [3, -1, 0, 0, 2, 2],
        ),
        "companion, zero and repeated": (companion([1, 1, -2, 0]), [1, 1, -2, 0]),
        "companion, all zero": (companion([0, 0, 0]), [0, 0, 0]),
    }
    for name, (rows, roots) in cases.items():
        assert kernels.newton_charpoly(dense_power_sums(rows)) == monic_from_roots(roots), name
    # integer matrices of every symmetric kind, against Berkowitz
    for trial in range(2 * len(SYMMETRIC_KINDS)):
        k = 1 + trial % 7
        rows = symmetric_case(rng, k, SYMMETRIC_KINDS[trial % len(SYMMETRIC_KINDS)])
        nums, dens = as_pairs(k, rows, [1] * k)
        assert kernels.newton_charpoly(dense_power_sums(rows)) == kernels.charpoly(k, nums, dens)[0]


def test_newton_charpoly_refuses_a_non_integral_power_sum():
    # p = (1, 0) would give c2 = 1/2: no integer matrix has these power sums
    with pytest.raises(kernels.InexactDivisionError, match="Newton"):
        kernels.newton_charpoly([1, 0])
    assert issubclass(kernels.InexactDivisionError, AssertionError)


def test_power_sum_charpoly_of_multiplication_matrices():
    # Q[x]/(p) for p with integer roots r: tau_j = Tr(x^j) = sum r^j, and
    # g(C), C the companion matrix, has the eigenvalues g(r)
    for roots in ([2], [1, -1], [3, 0, 0, -2], [1, 1, 2, -3, 0]):
        k = len(roots)
        tau = [sum(r**j for r in roots) for j in range(k)]
        c = companion(roots)
        c2 = [[sum(c[i][m] * c[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
        for name, g, values in (
            ("x", c, roots),
            ("x^2 - x", [[a - b for a, b in zip(p, q)] for p, q in zip(c2, c)], [r * r - r for r in roots]),
        ):
            nums = [x for row in g for x in row]
            assert kernels.power_sum_charpoly(k, nums, [1] * (k * k), tau, 1) == monic_from_roots(values), (roots, name)
            # G = g(C) / 6 and tau over t = 3: X = D G has the eigenvalues D g(r) / 6
            fs = [Fraction(x, 6) for x in nums]
            d = lcm(*(f.denominator for f in fs))
            got = kernels.power_sum_charpoly(
                k, [f.numerator for f in fs], [f.denominator for f in fs], [3 * x for x in tau], 3
            )
            assert got == monic_from_roots([d * v / 6 for v in values]), (roots, name)


def test_power_sum_charpoly_refuses_a_non_integral_trace():
    # tau = (1, 1) over t = 2 for C = [[0, 1], [1, 0]] (x^2 = 1): Tr(C) = 1/2
    with pytest.raises(kernels.InexactDivisionError, match="power sum"):
        kernels.power_sum_charpoly(2, [0, 1, 1, 0], [1] * 4, [1, 1], 2)
