"""Independent oracles for the exact matrix kernels."""

import random
from fractions import Fraction
from math import gcd
from operator import mul

from hermicert import _kernels as kernels
from hermicert.linalg import RatMatrix, signature_descartes


def rand_fraction(rng, span=9, dens=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, dens))


def rand_pairs(rng, count, span=9, dens_max=9):
    nums, dens = [], []
    for _ in range(count):
        f = rand_fraction(rng, span, dens_max)
        nums.append(f.numerator)
        dens.append(f.denominator)
    return nums, dens


def rand_symmetric_pairs(rng, k):
    nums = [0] * (k * k)
    dens = [1] * (k * k)
    for i in range(k):
        for j in range(i, k):
            f = rand_fraction(rng, 5, 5)
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


def test_mat_mul_matches_fraction_triple_loop():
    rng = random.Random(99)
    for _ in range(40):
        ar, ac, bc = (rng.randint(1, 6) for _ in range(3))
        an, ad = rand_pairs(rng, ar * ac)
        bn, bd = rand_pairs(rng, ac * bc)
        expected = mat_mul_oracle(ar, ac, bc, an, ad, bn, bd)
        assert kernels.mat_mul(ar, ac, bc, an, ad, bn, bd) == expected
    for k in list(range(1, 9)) * 2:
        an, ad = rand_pairs(rng, k * k, 2**12, 2**20)
        bn, bd = rand_pairs(rng, k * k, 2**12, 2**20)
        expected = mat_mul_oracle(k, k, k, an, ad, bn, bd)
        assert kernels.mat_mul(k, k, k, an, ad, bn, bd) == expected


def low_rank_symmetric_pairs(rng, k, r):
    """C^T D C with C r x k and D diagonal: symmetric of rank at most r."""
    c = [[rand_fraction(rng, 4, 3) for _ in range(k)] for _ in range(r)]
    d = [Fraction(rng.choice([-2, -1, 1, 3])) for _ in range(r)]
    entries = [sum(d[t] * c[t][i] * c[t][j] for t in range(r)) for i in range(k) for j in range(k)]
    return [f.numerator for f in entries], [f.denominator for f in entries]


def test_inertia_matches_rank_and_descartes_signature():
    # two independent routes: zero = k - rank (Bareiss) and
    # pos - neg = signature from the characteristic polynomial (Berkowitz)
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
        nums, dens = rand_symmetric_pairs(rng, k)
        for i in range(k):
            nums[i * k + i], dens[i * k + i] = 0, 1
        cases.append((k, nums, dens))
    seen_zero = seen_block = False
    for k, nums, dens in cases:
        pos, neg, zero = kernels.inertia(k, nums, dens)
        assert pos + neg + zero == k
        assert zero == k - kernels.mat_rank(k, k, nums, dens)
        assert pos - neg == signature_descartes(RatMatrix(k, k, list(nums), list(dens)))
        seen_zero |= zero > 0
        seen_block |= k > 1 and not any(nums[i * k + i] for i in range(k)) and pos > 0
    assert seen_zero and seen_block


def test_rank_matches_gauss_oracle():
    rng = random.Random(4)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        nums, dens = rand_pairs(rng, r * c)
        if rng.random() < 0.4:  # force rank deficiency via a duplicated row
            if r >= 2:
                for j in range(c):
                    nums[(r - 1) * c + j] = nums[j]
                    dens[(r - 1) * c + j] = dens[j]
        assert kernels.mat_rank(r, c, nums, dens) == gauss_rank_oracle(r, c, nums, dens)


def test_q_arithmetic_matches_fraction():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_fraction(rng, 50, 50)
        b = rand_fraction(rng, 50, 50)
        assert kernels.q_add(a.numerator, a.denominator, b.numerator, b.denominator) == (
            (a + b).numerator,
            (a + b).denominator,
        )
        assert kernels.q_mul(a.numerator, a.denominator, b.numerator, b.denominator) == (
            (a * b).numerator,
            (a * b).denominator,
        )
        if b != 0:
            assert kernels.q_div(a.numerator, a.denominator, b.numerator, b.denominator) == (
                (a / b).numerator,
                (a / b).denominator,
            )


def test_inverse_times_matrix_is_identity():
    rng = random.Random(17)
    done = 0
    while done < 25:
        k = rng.randint(1, 6)
        nums, dens = rand_pairs(rng, k * k)
        identity = [1 if i == j else 0 for i in range(k) for j in range(k)]
        inv = kernels.mat_solve(k, k, nums, dens, identity, [1] * (k * k))
        if inv is None:
            continue
        prod_n, prod_d = kernels.mat_mul(k, k, k, nums, dens, inv[0], inv[1])
        for i in range(k):
            for j in range(k):
                expect = 1 if i == j else 0
                assert prod_n[i * k + j] == expect and prod_d[i * k + j] == 1
        done += 1


def test_solve_satisfies_residual_on_random_shapes():
    rng = random.Random(23)
    done = 0
    while done < 40:
        k, m = rng.randint(1, 6), rng.randint(0, 5)
        an, ad = rand_pairs(rng, k * k)
        bn, bd = rand_pairs(rng, k * m)
        x = kernels.mat_solve(k, m, an, ad, bn, bd)
        if x is None:
            continue
        assert kernels.mat_mul(k, k, m, an, ad, x[0], x[1]) == (bn, bd)
        done += 1


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
    """Berkowitz's algorithm with every R A^j S formed as R (A^j S): the
    characteristic-polynomial kernel before it split the symmetric case."""
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
      so a 2x2 block is taken with d < 0 and |d| > 1."""
    a = [[0] * k for _ in range(k)]
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
    "dense", "low-rank", "diagonal", "zero-diagonal", "chained-blocks", "negative-then-block"
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
        assert kernels.inertia(k, nums, dens) == expected, (k, kind)
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


def nonsymmetric_case(rng, k, kind):
    a = [[rand_int(rng) for _ in range(k)] for _ in range(k)]
    if kind == "low-rank":
        r = rng.randint(0, k)
        u = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(k)]
        v = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        a = [[sum(u[i][t] * v[t][j] for t in range(r)) for j in range(k)] for i in range(k)]
    elif kind == "upper-triangular":
        a = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
    elif kind == "symmetric-but-one" and k >= 2:
        # symmetric except for a single entry: the symmetric split must not
        # be taken for it
        a = [[a[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
        i = rng.randrange(1, k)
        a[i][rng.randrange(i)] += rand_int(rng, 3)
    return a


CHARPOLY_CASES = [(symmetric_case, kind) for kind in SYMMETRIC_KINDS] + [
    (nonsymmetric_case, kind)
    for kind in ("dense", "low-rank", "upper-triangular", "symmetric-but-one")
]


def test_charpoly_matches_unsplit_berkowitz_oracle():
    rng = random.Random(2027)
    for trial in range(13 * len(CHARPOLY_CASES) * 2):
        k = trial % 13
        make, kind = CHARPOLY_CASES[trial // 13 % len(CHARPOLY_CASES)]
        scale = [rng.randint(1, 2**10) for _ in range(k)]
        nums, dens = as_pairs(k, make(rng, k, kind), scale)
        got = kernels.charpoly(k, nums, dens)
        assert got == berkowitz_oracle(k, nums, dens), (k, make.__name__, kind)
