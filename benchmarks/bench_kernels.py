#!/usr/bin/env python3
"""Benchmark the exact-arithmetic kernels of hermicert._kernels, and construction.

Times the hot exact-arithmetic loops (matrix product, characteristic
polynomial, and the one symmetric elimination, which gives inertia and
rank and solves) on these entry regimes: small rationals, where
interpreter overhead dominates; the larger power-sum entries typical of
extended Hermite matrices, where arbitrary-precision integer arithmetic
dominates; the weighted matrices of a ball query on the 5x5 (k=25) and 7x7
(k=49) grids, whose rational entries are where the signatures' cost lies;
the power-sum characteristic polynomial of the ball's g(M) on both grids,
which gives the Descartes half of H_g's signature when every root is real;
the H1 of the 5x5 grid alone (its inertia and its characteristic
polynomial: its odd moments vanish, so its non-zero pattern falls into
four connected blocks, where the ball matrices are one) and with its border
columns, the one solve of certification step 2, which yields that inertia
too; the product of that step's Schur-complement check, the border rows
times the solution; and a zero-diagonal matrix, every pivot of which is a
2x2 block.
Every matrix these kernels eliminate, and every characteristic polynomial,
is symmetric.  Two construction rows time the exact power sums and their
reconstruction (approx_extended_hermite + reconstruct_hermite) for the 5x5
grid on the basis x^a y^b, a, b <= 4: from its exact integer points at
E = 1e-40, and from points moved by up to 1e-14 per coordinate at E = 1e-13.

Usage: python benchmarks/bench_kernels.py [--repeat N] [--paired PATH]

The script puts its checkout's src/ first on sys.path, so it times the
sources next to it, with or without PYTHONPATH and whether or not hermicert
is installed.

Each row prints the best of N calls.  With --paired, PATH is a second
kernels module (for example an older _kernels.py saved to a file): each of
N rounds times one call of every kernel row through both modules, in
alternating order within one process, and the row prints the median and
the quartiles of the per-round ratio hermicert._kernels / PATH, so a ratio
below 1 means hermicert._kernels is faster.  The construction rows do not
call the kernels directly, and a row whose kernel PATH lacks has nothing to
compare with: both are left out of the paired table.
"""

import argparse
import importlib.util
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hermicert import _kernels as kernels  # noqa: E402
from hermicert.hermite import approx_extended_hermite, reconstruct_hermite  # noqa: E402
from hermicert.numroots import ApproxRootSet  # noqa: E402
from hermicert.polynomials import ExtendedBasis, MonomialBasis  # noqa: E402


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


def grid_moments(n, weight):
    """sum_p weight(p) p^(b_i + b_j) over the n x n integer grid (n odd), b
    the monomials x^a y^b with a, b < n, as flat pairs."""
    grid = range(-(n // 2), n // 2 + 1)
    basis = [(a, b) for a in range(n) for b in range(n)]
    weights = {(x, y): Fraction(weight(x, y)) for x in grid for y in grid}
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


def ball_weight(rng):
    """g = |p - c|^2 - r^2 with c in odd quarters and r^2 in odd sixteenths,
    as a ball query makes them (denominators up to 16)."""
    c = [Fraction(2 * rng.randint(-6, 5) + 1, 4) for _ in range(2)]
    r2 = Fraction(2 * rng.randint(0, 15) + 1, 16)
    return lambda x, y: (x - c[0]) ** 2 + (y - c[1]) ** 2 - r2


def ball_hg_entries(rng, n=5):
    """The k=n^2 ball matrix H_g of the n x n integer grid (n odd): entry
    (i, j) is sum_p g(p) p^(b_i + b_j) over the grid for a ball polynomial g
    (ball_weight)."""
    return grid_moments(n, ball_weight(rng))


def ball_gm_args(rng, n):
    """(k, g(M) as flat pairs, tau, 1) for a ball polynomial g on the n x n
    grid, k = n^2: the arguments of power_sum_charpoly.  g(M) = H1^-1 H_g
    (H_g = H1 g(M)) by one elimination, and tau_j = Tr(M^(b_j)) =
    sum_p b_j(p) is row 0 of H1, whose b_0 is 1."""
    k = n * n
    h1 = grid_moments(n, lambda x, y: 1)
    gm = kernels.eliminate(k, *h1, (k, *ball_hg_entries(rng, n)))[4]
    return (k, *gm, h1[0][:k], 1)


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


def zero_diagonal_entries(rng, k):
    """A symmetric k x k matrix with a zero diagonal whose remainder keeps a
    zero diagonal: antidiagonal blocks [[0, b], [b, 0]] on (2i, 2i + 1),
    coupled only through the odd columns, so each pivot is a 2x2 block."""
    nums = [0] * (k * k)
    for i in range(0, k - 1, 2):
        nums[i * k + i + 1] = nums[(i + 1) * k + i] = rng.randint(1, 9)
        for j in range(i + 3, k, 2):
            nums[i * k + j] = nums[j * k + i] = rng.randint(-9, 9)
    return nums, [1] * (k * k)


def grid_points(rng, noise, accuracy):
    """The 5x5 integer grid, each coordinate moved by up to noise."""
    grid = range(-2, 3)
    points = [(complex(x + rng.uniform(-noise, noise)), complex(y + rng.uniform(-noise, noise)))
              for x in grid for y in grid]
    return ApproxRootSet(points, accuracy=accuracy, coord_bound=3)


def construct(points, ext):
    sums = approx_extended_hermite(points, ext)
    return reconstruct_hermite(sums, ext, points.accuracy, len(points), points.coord_bound)


def symmetrize(k, nums, dens):
    for i in range(k):
        for j in range(i + 1, k):
            nums[j * k + i] = nums[i * k + j]
            dens[j * k + i] = dens[i * k + j]
    return nums, dens


def b_identity(k):
    return [int(i == j) for i in range(k) for j in range(k)], [1] * (k * k)


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
    # H+[ext, B] is the transpose of the border block, and Y = H1^-1 H+[B, ext]
    border_rows = [[x[i * 10 + j] for j in range(10) for i in range(25)] for x in border]
    y = kernels.eliminate(25, *h1, (10, *border))[4]
    ball49 = ball_hg_entries(rng, 7)
    blocks = zero_diagonal_entries(rng, 12)
    ext = ExtendedBasis(MonomialBasis([(a, b) for a in range(5) for b in range(5)]))
    exact = grid_points(rng, 0.0, "1e-40")
    noisy = grid_points(rng, 1e-14, "1e-13")
    gm25, gm49 = ball_gm_args(rng, 5), ball_gm_args(rng, 7)
    return [
        ("mat_mul 8x8 small", kernels.mat_mul, (k, k, k, *a, *b)),
        ("charpoly 8x8 small", kernels.charpoly, (k, *sym)),
        ("eliminate 8x8 small (inertia, rank)", kernels.eliminate, (k, *sym)),
        ("charpoly 10x10 power-sums", kernels.charpoly, (10, *big)),
        ("eliminate 10x10 power-sums", kernels.eliminate, (10, *big)),
        ("charpoly 25x25 ball H_g", kernels.charpoly, (25, *ball)),
        ("power-sum charpoly 25x25 ball g(M)", kernels.power_sum_charpoly, gm25),
        ("eliminate 25x25 ball H_g", kernels.eliminate, (25, *ball)),
        ("eliminate 25x25 grid H1 (inertia)", kernels.eliminate, (25, *h1)),
        ("charpoly 25x25 grid H1", kernels.charpoly, (25, *h1)),
        ("eliminate 25x25 grid H1 + 10 border", kernels.eliminate, (25, *h1, (10, *border))),
        ("mat_mul 10x25x10 grid Schur complement", kernels.mat_mul, (10, 25, 10, *border_rows, *y)),
        ("eliminate 12x12 2x2 pivots + 12 rhs", kernels.eliminate, (12, *blocks, (12, *b_identity(12)))),
        ("charpoly 49x49 ball H_g", kernels.charpoly, (49, *ball49)),
        ("power-sum charpoly 49x49 ball g(M)", kernels.power_sum_charpoly, gm49),
        ("eliminate 49x49 ball H_g", kernels.eliminate, (49, *ball49)),
        ("construct 5x5 grid, exact points", construct, (exact, ext)),
        ("construct 5x5 grid, noise 1e-14", construct, (noisy, ext)),
    ]


def load_kernels(path):
    spec = importlib.util.spec_from_file_location("paired_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paired_ratios(func, other, args, rounds):
    """Per-round time of func over other on the same arguments, one call of
    each per round, the first of the two alternating between rounds."""
    ratios = []
    for r in range(rounds):
        times = {}
        for f in (func, other) if r % 2 else (other, func):
            t0 = time.perf_counter()
            f(*args)
            times[f] = time.perf_counter() - t0
        ratios.append(times[func] / times[other])
    return ratios


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=20)
    parser.add_argument("--paired", metavar="PATH", help="a second kernels module to compare with")
    args = parser.parse_args()
    if args.paired and args.repeat < 2:
        parser.error("--paired needs --repeat 2 or more for quartiles")

    rng = random.Random(2024)
    if args.paired:
        other = load_kernels(args.paired)
        header = f"{'workload':<42} {'median':>8} {'q1':>7} {'q3':>7}"
    else:
        header = f"{'workload':<42} {'best':>10}"
    print(header)
    print("-" * len(header))
    for label, func, call_args in workloads(rng):
        if not args.paired:
            best = bench(func, *call_args, repeat=args.repeat)
            print(f"{label:<42} {best * 1e3:>8.3f}ms")
        elif func.__module__ == kernels.__name__ and hasattr(other, func.__name__):
            ratios = paired_ratios(func, getattr(other, func.__name__), call_args, args.repeat)
            q1, med, q3 = statistics.quantiles(ratios, n=4)
            print(f"{label:<42} {med:>8.3f} {q1:>7.3f} {q3:>7.3f}")


if __name__ == "__main__":
    main()
