"""Backend agreement and independent oracles for the matrix kernels."""

import random
from fractions import Fraction

import pytest

from hermicert import _kernels as active
from hermicert._kernels import pure

try:
    from hermicert._kernels import _speedups as compiled
except ImportError:
    compiled = None


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


@pytest.mark.skipif(compiled is None, reason="compiled kernels unavailable")
def test_backends_agree_on_random_inputs():
    rng = random.Random(99)
    for _ in range(40):
        k = rng.randint(1, 6)
        an, ad = rand_pairs(rng, k * k)
        bn, bd = rand_pairs(rng, k * k)
        assert compiled.mat_mul(k, k, k, an, ad, bn, bd) == pure.mat_mul(k, k, k, an, ad, bn, bd)
        assert compiled.mat_rank(k, k, an, ad) == pure.mat_rank(k, k, an, ad)
        assert compiled.charpoly(k, an, ad) == pure.charpoly(k, an, ad)
        assert compiled.mat_inverse(k, an, ad) == pure.mat_inverse(k, an, ad)
        sn, sd = rand_symmetric_pairs(rng, k)
        assert compiled.inertia(k, sn, sd) == pure.inertia(k, sn, sd)
    for k in list(range(11)) * 3:
        an, ad = rand_pairs(rng, k * k, 2**12, 2**20)
        assert compiled.charpoly(k, an, ad) == pure.charpoly(k, an, ad)


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
        assert active.mat_rank(r, c, nums, dens) == gauss_rank_oracle(r, c, nums, dens)


def test_q_arithmetic_matches_fraction():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_fraction(rng, 50, 50)
        b = rand_fraction(rng, 50, 50)
        assert active.q_add(a.numerator, a.denominator, b.numerator, b.denominator) == (
            (a + b).numerator,
            (a + b).denominator,
        )
        assert active.q_mul(a.numerator, a.denominator, b.numerator, b.denominator) == (
            (a * b).numerator,
            (a * b).denominator,
        )
        if b != 0:
            assert active.q_div(a.numerator, a.denominator, b.numerator, b.denominator) == (
                (a / b).numerator,
                (a / b).denominator,
            )


def test_inverse_times_matrix_is_identity():
    rng = random.Random(17)
    done = 0
    while done < 25:
        k = rng.randint(1, 6)
        nums, dens = rand_pairs(rng, k * k)
        inv = active.mat_inverse(k, nums, dens)
        if inv is None:
            continue
        prod_n, prod_d = active.mat_mul(k, k, k, nums, dens, inv[0], inv[1])
        for i in range(k):
            for j in range(k):
                expect = 1 if i == j else 0
                assert prod_n[i * k + j] == expect and prod_d[i * k + j] == 1
        done += 1
