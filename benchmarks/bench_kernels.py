#!/usr/bin/env python3
"""Benchmark the exact-arithmetic kernels of hermicert._kernels.

Times the hot exact-arithmetic loops (matrix product, characteristic
polynomial, inertia, rank, solve) on these entry regimes: small rationals,
where interpreter overhead dominates; the larger power-sum entries typical
of extended Hermite matrices, where arbitrary-precision integer arithmetic
dominates; the weighted matrices of a ball query on the 5x5 (k=25) and 7x7
(k=49) grids, whose rational entries are where the signatures' cost lies;
the H1 of the 5x5 grid with its border columns, the one solve of
certification step 2; and a combination c1 M_x + c2 M_y of that grid's
multiplication matrices, the non-symmetric characteristic polynomial of
certification step 4.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time
from fractions import Fraction

from hermicert import _kernels as kernels


def small_entries(rng, count):
    nums, dens = [], []
    for _ in range(count):
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        nums.append(f.numerator)
        dens.append(f.denominator)
    return nums, dens


def power_sum_entries(rng, k):
    """Symmetric Hankel-like matrix of weighted power sums (big integers)."""
    points = rng.sample(range(-30, 31), k)
    weights = [rng.randint(1, 3) for _ in range(k)]
    sums = [sum(w * p**d for w, p in zip(weights, points)) for d in range(2 * k)]
    nums = [sums[i + j] for i in range(k) for j in range(k)]
    return nums, [1] * (k * k)


def ball_hg_entries(rng, n=5):
    """The k=n^2 ball matrix H_g of the n x n integer grid (n odd): entry
    (i, j) is sum_p g(p) p^(b_i + b_j) over the grid, b the monomials x^a y^b
    with a, b < n, and g = |p - c|^2 - r^2 with c in odd quarters and r^2 in
    odd sixteenths, as a ball query makes them (denominators up to 16)."""
    grid = range(-(n // 2), n // 2 + 1)
    basis = [(a, b) for a in range(n) for b in range(n)]
    c = [Fraction(2 * rng.randint(-6, 5) + 1, 4) for _ in range(2)]
    r2 = Fraction(2 * rng.randint(0, 15) + 1, 16)
    weights = {(x, y): (x - c[0]) ** 2 + (y - c[1]) ** 2 - r2 for x in grid for y in grid}
    sums = {}
    nums, dens = [], []
    for bi in basis:
        for bj in basis:
            e = (bi[0] + bj[0], bi[1] + bj[1])
            if e not in sums:
                sums[e] = sum(w * x ** e[0] * y ** e[1] for (x, y), w in weights.items())
            nums.append(sums[e].numerator)
            dens.append(sums[e].denominator)
    return nums, dens


def grid_border_entries():
    """H1 of the 5x5 integer grid and its 10 border columns: entry (i, j) of
    H1 is sum_p p^(b_i + b_j) over the grid, b the monomials x^a y^b with
    a, b <= 4, and the right-hand side holds the columns labelled x * b_i
    and y * b_i that leave the basis (a = 4 or b = 4)."""
    grid = range(-2, 3)
    basis = [(a, b) for a in range(5) for b in range(5)]
    border = [(5, b) for b in range(5)] + [(a, 5) for a in range(5)]

    def power_sum(e):
        return sum(x ** e[0] * y ** e[1] for x in grid for y in grid)

    h1 = [power_sum((bi[0] + bj[0], bi[1] + bj[1])) for bi in basis for bj in basis]
    rhs = [power_sum((bi[0] + c[0], bi[1] + c[1])) for bi in basis for c in border]
    return (h1, [1] * len(h1)), (rhs, [1] * len(rhs))


def step4_combination_entries(rng):
    """c1 M_x + c2 M_y on the 5x5 grid, c drawn from [-k^2, k^2] as
    certification step 4 draws it.  The grid is the zero set of
    x^5 - 5x^3 + 4x and y^5 - 5y^3 + 4y, so on the basis x^a y^b (a, b <= 4)
    M_x = C (x) I and M_y = I (x) C, C the companion matrix of
    x^5 - 5x^3 + 4x: an integer matrix that is not symmetric."""
    n = 5
    comp = [[0] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = 1  # x * x^(i-1) = x^i
    for i, c in enumerate([0, -4, 0, 5, 0]):
        comp[i][n - 1] = c  # x * x^4 = 5x^3 - 4x
    c1, c2 = (rng.randint(-(n**4), n**4) for _ in range(2))
    nums = [
        c1 * comp[a][a2] * (b == b2) + c2 * (a == a2) * comp[b][b2]
        for a in range(n)
        for b in range(n)
        for a2 in range(n)
        for b2 in range(n)
    ]
    return nums, [1] * len(nums)


def symmetrize(k, nums, dens):
    for i in range(k):
        for j in range(i + 1, k):
            nums[j * k + i] = nums[i * k + j]
            dens[j * k + i] = dens[i * k + j]
    return nums, dens


def bench(func, *args, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(rng):
    k = 8
    a = small_entries(rng, k * k)
    b = small_entries(rng, k * k)
    sym = symmetrize(k, *small_entries(rng, k * k))
    big = power_sum_entries(rng, 10)
    ball = ball_hg_entries(rng)
    h1, border = grid_border_entries()
    combo = step4_combination_entries(rng)
    ball49 = ball_hg_entries(rng, 7)
    return [
        ("mat_mul 8x8 small", "mat_mul", (k, k, k, *a, *b)),
        ("charpoly 8x8 small", "charpoly", (k, *a)),
        ("inertia 8x8 small", "inertia", (k, *sym)),
        ("mat_rank 8x8 small", "mat_rank", (k, k, *a)),
        ("charpoly 10x10 power-sums", "charpoly", (10, *big)),
        ("inertia 10x10 power-sums", "inertia", (10, *big)),
        ("charpoly 25x25 ball H_g", "charpoly", (25, *ball)),
        ("inertia 25x25 ball H_g", "inertia", (25, *ball)),
        ("charpoly 25x25 step-4 combination", "charpoly", (25, *combo)),
        ("mat_solve 25x10 grid H1 border", "mat_solve", (25, 10, *h1, *border)),
        ("charpoly 49x49 ball H_g", "charpoly", (49, *ball49)),
        ("inertia 49x49 ball H_g", "inertia", (49, *ball49)),
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args()

    rng = random.Random(2024)
    header = f"{'workload':<36} {'best':>10}"
    print(header)
    print("-" * len(header))
    for label, name, call_args in workloads(rng):
        best = bench(getattr(kernels, name), *call_args, repeat=args.repeat)
        print(f"{label:<36} {best * 1e3:>8.3f}ms")


if __name__ == "__main__":
    main()
