"""Workload generators for the end-to-end benchmark.

Every input is built here from a seed with exact rational arithmetic, and
so is every expected verdict field: they follow from the construction (the
known roots), never from a hermicert run.  This module deliberately does not
import hermicert.

The sizes are fixed; the seed only permutes the point order and picks the
query parameters (ball center and radius, the doubled grid column, the
constant of the non-negativity target) and the entry the soundness probe
corrupts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

WORKLOADS = ("grid-ball", "nonradical", "nonneg-lagrange")

GRID = tuple(range(-2, 3))  # roots of each coordinate of the 5x5 grid
NONNEG_ROOTS = (0, 1, 2, 3)  # roots of x(x-1)(x-2)(x-3)
ACCURACY = "1e-14"

EXIT_OK = 0
EXIT_CERTIFY_FAIL = 3
EXIT_VERDICT_FALSE = 4

# Key of an expected field that must be absent from the output.
ABSENT = object()

Poly = dict  # monomial exponent tuple -> Fraction


@dataclass(frozen=True)
class Case:
    """One workload instance: input files, the timed command, the expected
    verdict fields, and the untimed soundness probe.

    ``argv``, ``probe_build`` and ``probe_certify`` name files relative to a
    work directory; :func:`resolve` turns them into paths.
    """

    files: dict  # file name -> JSON document
    argv: tuple
    exit_code: int
    expect: dict  # dotted path into the output JSON -> expected value
    probe_build: tuple  # writes the reconstructed matrix to probe_hermite.json
    probe_certify: tuple  # certifies probe_bad.json, must exit 3
    probe_pick: int  # which upper-triangle entry the probe corrupts (mod size)
    probe_delta: Fraction  # what it adds to that entry
    points: tuple  # exact points (with multiplicity) in written order
    polys: tuple  # the system as exact polynomials


FILE_OPTIONS = ("--system", "--roots", "--basis", "--hermite", "--out")


def resolve(argv: tuple, workdir: Path) -> list[str]:
    """Replace file-name option values by paths inside ``workdir``."""
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg in FILE_OPTIONS:
            out[i + 1] = str(workdir / out[i + 1])
    return out


# -- exact polynomials ------------------------------------------------------


def univariate(roots, var: int, arity: int) -> Poly:
    """prod (x_var - r) over ``roots`` (with repetition), expanded."""
    coeffs = [Fraction(1)]  # ascending powers
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    poly = {}
    for e, c in enumerate(coeffs):
        if c:
            mono = tuple(e if i == var else 0 for i in range(arity))
            poly[mono] = c
    return poly


def univariate_derivative_at(roots, x) -> Fraction:
    """d/dx prod (x - r), evaluated exactly at ``x``."""
    total = Fraction(0)
    for skip in range(len(roots)):
        term = Fraction(1)
        for i, r in enumerate(roots):
            if i != skip:
                term *= x - r
        total += term
    return total


def evaluate(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        term = Fraction(c)
        for z, e in zip(point, mono):
            term *= Fraction(z) ** e
        total += term
    return total


def monomial_text(mono, variables) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mono) if e]
    return "*".join(parts) if parts else "1"


def poly_text(poly: Poly, variables) -> str:
    """hermicert's polynomial grammar: signed terms, coefficient first."""
    pieces = []
    for mono in sorted(poly, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = poly[mono]
        if c == 0:
            continue
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if sum(mono) == 0:
            body = num
        elif mag == 1:
            body = monomial_text(mono, variables)
        else:
            body = f"{num}*{monomial_text(mono, variables)}"
        sign = "-" if c < 0 else ("+" if pieces else "")
        pieces.append(f"{sign}{body}")
    return "".join(pieces) or "0"


def sign(x) -> int:
    return (x > 0) - (x < 0)


# -- file documents -----------------------------------------------------------


def system_doc(variables, polys) -> dict:
    return {"variables": list(variables), "polynomials": [poly_text(p, variables) for p in polys]}


def roots_doc(points, bound) -> dict:
    """Exact points written as doubles; each coordinate here is a small
    integer, so the double is exact and E is truthful."""
    rows = []
    for p in points:
        row = []
        for z in p:
            z = Fraction(z)
            if float(z) != z:
                raise ValueError(f"coordinate {z} is not a double")
            row.append([repr(float(z)), "0.0"])
        rows.append(row)
    return {"accuracy_E": ACCURACY, "bound_M": str(bound), "points": rows}


def grid_points(rng: random.Random, doubled=None) -> list:
    points = [(Fraction(a), Fraction(b)) for a, b in product(GRID, GRID)]
    if doubled is not None:
        points += [(Fraction(doubled), Fraction(b)) for b in GRID]
    rng.shuffle(points)
    return points


def probe_params(rng: random.Random) -> tuple[int, Fraction]:
    return rng.randrange(1 << 30), Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


# -- the three workloads ------------------------------------------------------


def grid_ball(seed: int) -> Case:
    """pipeline --g x --center c --eps2 r on the 5x5 integer grid."""
    rng = random.Random(seed)
    variables = ("x", "y")
    polys = (univariate(GRID, 0, 2), univariate(GRID, 1, 2))
    points = grid_points(rng)
    # Odd numerators fix the denominators of the ball polynomial (2 for the
    # linear, 16 for the constant coefficient), so every seed costs about
    # the same: an integer center is about a fifth cheaper.  Both verdicts
    # occur.
    center = tuple(Fraction(2 * rng.randint(-6, 5) + 1, 4) for _ in range(2))
    eps2 = Fraction(2 * rng.randint(0, 15) + 1, 16)
    ball = [sum((z - c) ** 2 for z, c in zip(p, center)) - eps2 for p in points]
    sigma_h1 = len(points)
    sigma_hg = sum(sign(v) for v in ball)
    verdict = "false" if sigma_hg == sigma_h1 else "true"
    pick, delta = probe_params(rng)
    files = {"system.json": system_doc(variables, polys), "roots.json": roots_doc(points, 3)}
    argv = (
        "pipeline", "--system", "system.json", "--roots", "roots.json", "--g", "x",
        # "=" keeps argparse from reading a negative center as an option.
        "--center=" + ",".join(f"{c.numerator}/{c.denominator}" for c in center),
        f"--eps2={eps2.numerator}/{eps2.denominator}", "--out", "out.json",
    )
    expect = {
        "certificate.status": "certified",
        "certificate.signatures.H1": sigma_h1,
        "certificate.signatures.Hg": sum(sign(p[0]) for p in points),
        "real_root_count": sigma_h1,
        "hermite.kbar": ABSENT,
        "ball.verdict": verdict,
        "ball.sigma_H1": sigma_h1,
        "ball.sigma_Hg": sigma_hg,
    }
    return Case(
        files=files,
        argv=argv,
        exit_code=EXIT_OK if verdict == "true" else EXIT_VERDICT_FALSE,
        expect=expect,
        probe_build=("build", "--system", "system.json", "--roots", "roots.json",
                     "--out", "probe_hermite.json"),
        probe_certify=("certify", "--system", "system.json", "--hermite", "probe_bad.json",
                       "--g", "x", "--out", "probe_out.json"),
        probe_pick=pick,
        probe_delta=delta,
        points=tuple(points),
        polys=polys,
    )


def nonradical(seed: int) -> Case:
    """pipeline --basis B --g x on the grid with one x-column doubled."""
    rng = random.Random(seed)
    variables = ("x", "y")
    # Column 0 holds zeros and costs about a fifth less; the four others
    # cost alike, so the seed picks among them.
    doubled = rng.choice(tuple(a for a in GRID if a))
    polys = (univariate(GRID + (doubled,), 0, 2), univariate(GRID, 1, 2))
    points = grid_points(rng, doubled)
    distinct = set(points)
    basis = sorted(
        ((i, j) for i in range(len(GRID) + 1) for j in range(len(GRID))),
        key=lambda m: (sum(m), -m[0]),
    )
    pick, delta = probe_params(rng)
    files = {
        "system.json": system_doc(variables, polys),
        "roots.json": roots_doc(points, 3),
        "basis.json": {"monomials": [monomial_text(m, variables) for m in basis]},
    }
    common = ("--system", "system.json", "--roots", "roots.json", "--basis", "basis.json")
    expect = {
        "certificate.status": "certified",
        "certificate.signatures.H1": len(distinct),
        "certificate.signatures.Hg": sum(sign(p[0]) for p in distinct),
        "real_root_count": len(distinct),
        "hermite.kbar": len(distinct),
    }
    return Case(
        files=files,
        argv=("pipeline", *common, "--g", "x", "--out", "out.json"),
        exit_code=EXIT_OK,
        expect=expect,
        probe_build=("build", *common, "--out", "probe_hermite.json"),
        probe_certify=("certify", "--system", "system.json", "--hermite", "probe_bad.json",
                       "--g", "x", "--out", "probe_out.json"),
        probe_pick=pick,
        probe_delta=delta,
        points=tuple(points),
        polys=polys,
    )


def nonneg_lagrange(seed: int) -> Case:
    """nonneg --g "6*x+6*y+c" on the 4x4 grid of x(x-1)(x-2)(x-3), y(...)."""
    rng = random.Random(seed)
    variables = ("x", "y")
    lag_vars = ("x", "y", "l1", "l2")
    c = rng.randint(-12, 12)
    f1 = univariate(NONNEG_ROOTS, 0, 2)
    f2 = univariate(NONNEG_ROOTS, 1, 2)
    # Lagrange system of g = 6x + 6y + c on V(f1, f2):
    # f1, f2, 6 + l1 * f1'(x), 6 + l2 * f2'(y).
    def embed(p: Poly) -> Poly:
        return {m + (0, 0): v for m, v in p.items()}

    d1 = {(e - 1, 0, 1, 0): e * v for (e, _), v in f1.items() if e}
    d2 = {(0, e - 1, 0, 1): e * v for (_, e), v in f2.items() if e}
    lag = (embed(f1), embed(f2), {(0, 0, 0, 0): Fraction(6), **d1}, {(0, 0, 0, 0): Fraction(6), **d2})
    points = [
        (Fraction(a), Fraction(b),
         Fraction(-6) / univariate_derivative_at(NONNEG_ROOTS, a),
         Fraction(-6) / univariate_derivative_at(NONNEG_ROOTS, b))
        for a, b in product(NONNEG_ROOTS, NONNEG_ROOTS)
    ]
    rng.shuffle(points)
    values = [6 * p[0] + 6 * p[1] + c for p in points]
    sigma_g = sum(sign(v) for v in values)
    sigma_g2 = sum(1 for v in values if v != 0)
    verdict = "true" if sigma_g == sigma_g2 else "false"
    pick, delta = probe_params(rng)
    g_text = f"6*x+6*y{'+' if c >= 0 else '-'}{abs(c)}"
    files = {
        "system.json": system_doc(variables, (f1, f2)),
        "lagrange.json": system_doc(lag_vars, lag),
        "roots.json": roots_doc(points, 4),
    }
    expect = {
        "verdict": verdict,
        "sigma_Hg": sigma_g,
        "sigma_Hg2": sigma_g2,
        "certificate.status": "certified",
        "certificate.signatures.H1": len(points),
    }
    return Case(
        files=files,
        argv=("nonneg", "--system", "system.json", "--roots", "roots.json", "--g", g_text,
              "--out", "out.json"),
        exit_code=EXIT_OK if verdict == "true" else EXIT_VERDICT_FALSE,
        expect=expect,
        probe_build=("build", "--system", "lagrange.json", "--roots", "roots.json",
                     "--out", "probe_hermite.json"),
        probe_certify=("certify", "--system", "lagrange.json", "--hermite", "probe_bad.json",
                       "--g", g_text, "--out", "probe_out.json"),
        probe_pick=pick,
        probe_delta=delta,
        points=tuple(points),
        polys=lag,
    )


GENERATORS = {"grid-ball": grid_ball, "nonradical": nonradical, "nonneg-lagrange": nonneg_lagrange}


def make(name: str, seed: int) -> Case:
    case = GENERATORS[name](seed)
    for point in case.points:
        for poly in case.polys:
            if evaluate(poly, point) != 0:
                raise AssertionError(f"{name}: point {point} is not a root")
    return case
