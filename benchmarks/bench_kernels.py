#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the hot exact-arithmetic loops (matrix product, characteristic
polynomial, inertia, rank) on three entry regimes: small rationals, where
interpreter overhead dominates and the compiled backend helps most; the
larger power-sum entries typical of extended Hermite matrices, where
arbitrary-precision integer arithmetic dominates and the gap narrows; and
the k=25 weighted matrix of a ball query on the 5x5 grid, whose rational
entries are where the characteristic polynomial's cost lies.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time
from fractions import Fraction

from hermicert._kernels import pure

try:
    from hermicert._kernels import _speedups as compiled
except ImportError:
    compiled = None


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


def ball_hg_entries(rng):
    """The k=25 ball matrix H_g of the 5x5 integer grid: entry (i, j) is
    sum_p g(p) p^(b_i + b_j) over the grid, b the monomials x^a y^b with
    a, b <= 4, and g = |p - c|^2 - r^2 with c in odd quarters and r^2 in
    odd sixteenths, as a ball query makes them (denominators up to 16)."""
    grid = range(-2, 3)
    basis = [(a, b) for a in range(5) for b in range(5)]
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
    return [
        ("mat_mul 8x8 small", "mat_mul", (k, k, k, *a, *b)),
        ("charpoly 8x8 small", "charpoly", (k, *a)),
        ("inertia 8x8 small", "inertia", (k, *sym)),
        ("mat_rank 8x8 small", "mat_rank", (k, k, *a)),
        ("charpoly 10x10 power-sums", "charpoly", (10, *big)),
        ("inertia 10x10 power-sums", "inertia", (10, *big)),
        ("charpoly 25x25 ball H_g", "charpoly", (25, *ball)),
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args()

    rng = random.Random(2024)
    rows = []
    for label, name, call_args in workloads(rng):
        t_pure = bench(getattr(pure, name), *call_args, repeat=args.repeat)
        if compiled is not None:
            t_comp = bench(getattr(compiled, name), *call_args, repeat=args.repeat)
            assert getattr(compiled, name)(*call_args) == getattr(pure, name)(*call_args)
            rows.append((label, t_pure, t_comp, t_pure / t_comp))
        else:
            rows.append((label, t_pure, None, None))

    header = f"{'workload':<28} {'pure':>10} {'compiled':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, t_pure, t_comp, speedup in rows:
        if t_comp is None:
            print(f"{label:<28} {t_pure * 1e3:>8.3f}ms {'n/a':>10} {'n/a':>8}")
        else:
            print(
                f"{label:<28} {t_pure * 1e3:>8.3f}ms {t_comp * 1e3:>8.3f}ms {speedup:>7.2f}x"
            )
    if compiled is None:
        print("\ncompiled backend unavailable; build it with: pip install -e . --no-build-isolation")


if __name__ == "__main__":
    main()
