"""Independent oracles for the exact matrix kernels."""

import random
from fractions import Fraction

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
