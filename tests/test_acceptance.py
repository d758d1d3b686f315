"""Acceptance criteria, one test per criterion.

Each test enforces its stated runtime budget and prints one PASS line; a
failed assertion is the FAIL signal.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from hermicert.certify import (
    NormalForms,
    StepFailure,
    certify_nonradical,
    certify_pipeline,
    check_traces,
    signature,
)
from hermicert.certificates import BallQuery, NonnegQuery, certify_ball, certify_nonneg
from hermicert.cli import main
from hermicert.hermite import HermitePlus, build_extended_hermite, build_nonradical
from hermicert.linalg import RatMatrix, inertia_ldl, signature_descartes
from hermicert.numroots import ApproxRootSet, match_and_filter
from hermicert.polynomials import MonomialBasis, MultiPoly, PolySystem, parse_poly
from hermicert.ratrecon import rational_reconstruct

from conftest import exact_hermite_plus, roots_as_qc, univariate_from_roots

SQRT2 = math.sqrt(2)


def _report(number: int, name: str, elapsed: float, limit: float):
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def _farey_neighbor(p: int, q: int) -> Fraction:
    """p'/q' with p'q - pq' = 1 and 1 <= q' < q (extended Euclid)."""
    inv = pow(-p, -1, q)  # q' = -p^{-1} mod q gives p'q - pq' = 1 with integer p'
    q_prime = inv % q
    if q_prime == 0:
        q_prime = q
    p_prime = (1 + p * q_prime) // q
    assert p_prime * q - p * q_prime == 1
    return Fraction(p_prime, q_prime)


def test_criterion_1_rational_reconstruction_suite():
    start = time.perf_counter()
    rng = random.Random(101)
    bound = 10**4
    radius_den = 2 * bound * bound  # 2e8
    for _ in range(1000):
        q = rng.randint(1, bound)
        p = rng.randint(-5 * bound, 5 * bound)
        g = gcd(abs(p), q)
        p, q = p // max(g, 1), q // max(g, 1)
        target = Fraction(p, q)
        scale = 10**6
        delta = Fraction(rng.randint(-(scale - 1), scale - 1), radius_den * scale)
        assert abs(delta) < Fraction(1, radius_den)
        assert rational_reconstruct(target + delta, bound) == target
    # perturbations just above the bound with a planted nearer fraction:
    # the original value must never come back
    for _ in range(50):
        q = rng.randint(2, bound)
        p = rng.randint(1, 5 * bound)
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 2:
            continue
        original = Fraction(p, q)
        planted = _farey_neighbor(p, q)
        assert planted.denominator <= bound
        alpha = planted + Fraction(1, 3 * radius_den)
        found = rational_reconstruct(alpha, bound)
        assert found == planted
        assert found != original
        assert abs(alpha - found) < Fraction(1, radius_den)
    _report(1, "rational reconstruction", time.perf_counter() - start, 5.0)


def test_criterion_2_end_to_end_univariate(tmp_path, capsys):
    start = time.perf_counter()
    sys_path = tmp_path / "sys.json"
    roots_path = tmp_path / "roots.json"
    herm_path = tmp_path / "herm.json"
    sys_path.write_text(json.dumps({"variables": ["x"], "polynomials": ["x^2-2"]}))
    roots_path.write_text(
        json.dumps(
            {
                "accuracy_E": "1e-10",
                "bound_M": "2",
                "points": [[[repr(SQRT2), "0"]], [[repr(-SQRT2), "0"]]],
            }
        )
    )
    assert main(
        ["build", "--system", str(sys_path), "--roots", str(roots_path), "--out", str(herm_path)]
    ) == 0
    built = json.loads(herm_path.read_text())
    assert built["entries"] == [["2", "0", "4"], ["0", "4", "0"], ["4", "0", "8"]]
    report_path = tmp_path / "report.json"
    assert main(
        [
            "certify",
            "--system",
            str(sys_path),
            "--hermite",
            str(herm_path),
            "--out",
            str(report_path),
        ]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "certified"
    assert report["mult_matrices"] == [
        {"rows": 2, "cols": 2, "entries": [["0", "2"], ["1", "0"]]}
    ]
    assert report["signatures"]["H1"] == 2
    capsys.readouterr()
    _report(2, "end-to-end univariate", time.perf_counter() - start, 1.0)


def _fuzz_base_instances(rng):
    """True (system, H+) pairs with exact rational data."""
    instances = []
    pools = [Fraction(n) for n in range(-5, 6)]
    for _ in range(6):
        k = rng.randint(2, 4)
        roots = rng.sample(pools, k)
        poly = univariate_from_roots(roots, [])
        system = PolySystem(["x"], [poly])
        hp = exact_hermite_plus(roots_as_qc(roots, []), MonomialBasis([(d,) for d in range(k)]))
        instances.append((system, hp, roots))
    # one instance with a complex pair
    roots_c = [(Fraction(1, 2), Fraction(1))]
    reals = [Fraction(2)]
    poly = univariate_from_roots(reals, roots_c)
    system = PolySystem(["x"], [poly])
    hp = exact_hermite_plus(roots_as_qc(reals, roots_c), MonomialBasis([(d,) for d in range(3)]))
    instances.append((system, hp, None))
    return instances


def test_criterion_3_certification_soundness_fuzzing():
    start = time.perf_counter()
    rng = random.Random(30303)
    g = parse_poly("x", ["x"])
    instances = _fuzz_base_instances(rng)
    failures = 0
    total = 0

    # sanity: the uncorrupted instances certify
    for system, hp, _ in instances:
        assert certify_pipeline(system, g, hp).certified

    # (a) single-entry perturbations (symmetric, sometimes asymmetric)
    for _ in range(100):
        system, hp, _ = instances[rng.randrange(len(instances))]
        size = hp.matrix.rows
        rows = hp.matrix.to_rows()
        i, j = rng.randrange(size), rng.randrange(size)
        delta = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice([1, -1])
        rows[i][j] += delta
        if rng.random() < 0.8:
            rows[j][i] = rows[i][j]
        bad = HermitePlus(RatMatrix.from_rows(rows), hp.labels, hp.provenance)
        out = certify_pipeline(system, g, bad)
        total += 1
        failures += out.status == "fail"

    # (b) wrong-root constructions: H+ of a disjoint root set
    for _ in range(50):
        k = rng.randint(2, 4)
        true_roots = rng.sample([Fraction(n) for n in range(-5, 6)], k)
        shift = Fraction(rng.randint(6, 9))
        wrong_roots = [r + shift for r in true_roots]
        system = PolySystem(["x"], [univariate_from_roots(true_roots, [])])
        hp = exact_hermite_plus(
            roots_as_qc(wrong_roots, []), MonomialBasis([(d,) for d in range(k)])
        )
        out = certify_pipeline(system, g, hp)
        total += 1
        failures += out.status == "fail"

    # (c) spurious extra points beyond the variety
    for _ in range(50):
        k = rng.randint(2, 3)
        roots = rng.sample([Fraction(n) for n in range(-4, 5)], k)
        extra = Fraction(rng.randint(5, 8)) * rng.choice([1, -1])
        assert extra not in roots
        system = PolySystem(["x"], [univariate_from_roots(roots, [])])
        hp = exact_hermite_plus(
            roots_as_qc(roots + [extra], []), MonomialBasis([(d,) for d in range(k + 1)])
        )
        out = certify_pipeline(system, g, hp)
        total += 1
        failures += out.status == "fail"

    assert total == 200
    assert failures == total, f"only {failures}/{total} corrupted inputs failed"
    _report(3, "certification soundness fuzzing", time.perf_counter() - start, 30.0)


def test_criterion_4_signature_cross_validation():
    start = time.perf_counter()
    rng = random.Random(404)
    for _ in range(500):
        k = rng.randint(1, 8)
        rows = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                rows[i][j] = rows[j][i] = value
        m = RatMatrix.from_rows(rows)
        inert = inertia_ldl(m)
        assert inert.signature == signature_descartes(m)
        assert inert.positive + inert.negative + inert.zero == k
    _report(4, "signature cross-validation", time.perf_counter() - start, 30.0)


def test_criterion_5_hermite_counting():
    start = time.perf_counter()
    rng = random.Random(505)
    done = 0
    while done < 50:
        pairs = rng.randint(0, 2)
        reals = rng.randint(0 if pairs else 1, 6 - 2 * pairs)
        real_roots = rng.sample([Fraction(n, 2) for n in range(-8, 9)], reals)
        complex_pairs = []
        while len(complex_pairs) < pairs:
            cand = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3)))
            if cand not in complex_pairs:
                complex_pairs.append(cand)
        k = reals + 2 * pairs
        poly = univariate_from_roots(real_roots, complex_pairs)
        system = PolySystem(["x"], [poly])
        u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        if u == 0:
            continue
        g = MultiPoly(["x"], {(1,): Fraction(u), (0,): Fraction(v)})
        hp = exact_hermite_plus(
            roots_as_qc(real_roots, complex_pairs), MonomialBasis([(d,) for d in range(k)])
        )
        out = certify_pipeline(system, g, hp)
        assert out.certified, (out.reason, out.detail)
        assert signature(out.h1) == reals
        expected = sum(1 for r in real_roots if u * r + v > 0) - sum(
            1 for r in real_roots if u * r + v < 0
        )
        assert signature(out.hg) == expected
        done += 1
    _report(5, "Hermite root counting", time.perf_counter() - start, 60.0)


def test_criterion_6_nonradical_pipeline():
    start = time.perf_counter()
    f = PolySystem(["x"], [parse_poly("x^3-3*x+2", ["x"])])  # (x-1)^2 (x+2)
    pts = ApproxRootSet(
        points=((1 + 0j,), (1 + 0j,), (-2 + 0j,)), accuracy="1e-8", coord_bound=3
    )
    hp = build_nonradical(build_extended_hermite(pts, MonomialBasis([(0,), (1,), (2,)])))
    assert hp.base_size() == 2
    out = certify_nonradical(f, parse_poly("x", ["x"]), hp)
    assert out.certified
    assert out.mult_matrices[0] == RatMatrix.from_rows([[0, 2], [1, -1]])
    assert out.h1 == RatMatrix.from_rows([[2, -1], [-1, 5]])
    assert signature(out.h1) == 2

    # regression for the documented deviation: on (x-1)^2 the literal trace
    # comparison contradicts the weighted entry (1 vs 2)
    f2 = PolySystem(["x"], [parse_poly("x^2-2*x+1", ["x"])])
    pts2 = ApproxRootSet(points=((1 + 0j,), (1 + 0j,)), accuracy="1e-8", coord_bound=2)
    hp2 = build_nonradical(build_extended_hermite(pts2, MonomialBasis([(0,), (1,)])))
    out2 = certify_nonradical(f2, parse_poly("1", ["x"]), hp2)
    assert out2.certified
    assert out2.h1.entry(0, 0) == 1
    assert out2.weighted_h1.entry(0, 0) == 2
    nf2 = NormalForms(out2.mult_matrices, hp2.labels.base.monomials)
    with pytest.raises(StepFailure, match="trace_mismatch"):
        check_traces(hp2, nf2)
    _report(6, "non-radical pipeline", time.perf_counter() - start, 1.0)


def test_criterion_7_ball_certificates():
    start = time.perf_counter()
    f = PolySystem(["x"], [parse_poly("x^2-2", ["x"])])
    pts = ApproxRootSet(
        points=((SQRT2 + 0j,), (-SQRT2 + 0j,)), accuracy=Fraction(1, 10**10), coord_bound=2
    )
    hp = build_extended_hermite(pts, MonomialBasis([(0,), (1,)]))
    center = (Fraction(7, 5),)
    inside = certify_ball(f, BallQuery(center, Fraction(1, 100)), hp)
    assert inside.verdict == "true"
    assert (inside.sigma_h1, inside.sigma_hg) == (2, 0)
    outside = certify_ball(f, BallQuery(center, Fraction(1, 10000)), hp)
    assert outside.verdict == "false"
    assert (outside.sigma_h1, outside.sigma_hg) == (2, 2)
    _report(7, "ball certificates", time.perf_counter() - start, 1.0)


def test_criterion_8_nonnegativity_certificates():
    start = time.perf_counter()
    circle = PolySystem(["x", "y"], [parse_poly("x^2+y^2-1", ["x", "y"])])
    crit = ApproxRootSet(
        points=((1 + 0j, 0j, -0.5 + 0j), (-1 + 0j, 0j, 0.5 + 0j)),
        accuracy="1e-8",
        coord_bound=2,
    )
    res = certify_nonneg(
        NonnegQuery(circle, parse_poly("x+2", ["x", "y"]), assume_smooth_bounded=True), crit
    )
    assert res.verdict == "true"
    assert res.sigma_hg == 2 and res.sigma_hg2 == 2
    res2 = certify_nonneg(NonnegQuery(circle, parse_poly("x", ["x", "y"])), crit)
    assert res2.verdict == "false"
    assert res2.sigma_hg == 0 and res2.sigma_hg2 == 2
    _report(8, "non-negativity certificates", time.perf_counter() - start, 2.0)


def test_criterion_9_root_filtering():
    start = time.perf_counter()
    variables = ("x", "y")
    sys_a = PolySystem(variables, [parse_poly("x^2-1", variables), parse_poly("y^2-1", variables)])
    sys_b = PolySystem(variables, [parse_poly("x^2-1", variables), parse_poly("x+y", variables)])
    # full system {x^2-1, y^2-1, x+y} has V = {(1,-1), (-1,1)}; the square
    # subsystem A contributes the spurious (1,1) and (-1,-1)
    list_a = ApproxRootSet(
        points=(
            (1 + 0j, 1 + 0j),
            (1 + 0j, -1 + 0j),
            (-1 + 0j, 1 + 0j),
            (-1 + 0j, -1 + 0j),
        ),
        accuracy="1e-9",
        coord_bound=2,
        radii=(1e-6,) * 4,
    )
    list_b = ApproxRootSet(
        points=((1 + 0j, -1 + 0j), (-1 + 0j, 1 + 0j)),
        accuracy="1e-9",
        coord_bound=2,
        radii=(1e-6,) * 2,
    )
    result = match_and_filter(list_a, list_b, sys_a, sys_b)
    kept = [p for p, _ in result.kept]
    assert (1 + 0j, 1 + 0j) not in kept and (-1 + 0j, -1 + 0j) not in kept
    assert (1 + 0j, -1 + 0j) in kept and (-1 + 0j, 1 + 0j) in kept
    assert len(kept) == 2
    _report(9, "root filtering", time.perf_counter() - start, 5.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    d = tmp_path

    def write(name, payload):
        path = d / name
        path.write_text(json.dumps(payload))
        return str(path)

    sys1 = write("sys.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
    roots1 = write(
        "roots.json",
        {
            "accuracy_E": "1e-10",
            "bound_M": "2",
            "points": [[[repr(SQRT2), "0"]], [[repr(-SQRT2), "0"]]],
        },
    )
    circle = write("circle.json", {"variables": ["x", "y"], "polynomials": ["x^2+y^2-1"]})
    lroots = write(
        "lroots.json",
        {
            "accuracy_E": "1e-8",
            "bound_M": "2",
            "points": [
                [["1", "0"], ["0", "0"], ["-0.5", "0"]],
                [["-1", "0"], ["0", "0"], ["0.5", "0"]],
            ],
        },
    )
    rough = write(
        "rough.json",
        {"accuracy_E": "1e-1", "bound_M": "2", "points": [[["1.5", "0"]], [["-1.4", "0"]]]},
    )
    sys_a = write("sysA.json", {"variables": ["x", "y"], "polynomials": ["x^2-1", "y^2-1"]})
    sys_b = write("sysB.json", {"variables": ["x", "y"], "polynomials": ["x^2-1", "x+y"]})
    roots_a = write(
        "rootsA.json",
        {
            "accuracy_E": "1e-9",
            "bound_M": "2",
            "points": [
                [["1", "0"], ["1", "0"]],
                [["1", "0"], ["-1", "0"]],
                [["-1", "0"], ["1", "0"]],
                [["-1", "0"], ["-1", "0"]],
            ],
            "radii": ["1e-6"] * 4,
        },
    )
    roots_b = write(
        "rootsB.json",
        {
            "accuracy_E": "1e-9",
            "bound_M": "2",
            "points": [[["1", "0"], ["-1", "0"]], [["-1", "0"], ["1", "0"]]],
            "radii": ["1e-6"] * 2,
        },
    )
    herm = str(d / "herm.json")
    assert main(["build", "--system", sys1, "--roots", roots1, "--out", herm]) == 0

    commands = {
        "build": ["build", "--system", sys1, "--roots", roots1],
        "certify": ["certify", "--system", sys1, "--hermite", herm, "--g", "x"],
        "ball": ["ball", "--system", sys1, "--hermite", herm, "--center", "7/5", "--eps2", "1/100"],
        "nonneg": ["nonneg", "--system", circle, "--g", "x+2", "--roots", lroots],
        "count-real": ["count-real", "--system", sys1, "--hermite", herm],
        "refine": ["refine", "--system", sys1, "--roots", rough],
        "filter-roots": [
            "filter-roots", "--system", sys_a, "--system", sys_b,
            "--roots", roots_a, "--roots", roots_b,
        ],
        "reconstruct-rational": ["reconstruct-rational", "0.3333333", "100"],
        "pipeline": [
            "pipeline", "--system", sys1, "--roots", roots1,
            "--g", "x", "--center", "7/5", "--eps2", "1/100",
        ],
    }
    for name, argv in commands.items():
        out1 = d / f"{name}-1.json"
        out2 = d / f"{name}-2.json"
        code1 = main(argv + ["--out", str(out1)])
        code2 = main(argv + ["--out", str(out2)])
        assert code1 == code2
        assert out1.read_bytes() == out2.read_bytes(), f"{name} output not reproducible"
    _report(10, "CLI determinism", time.perf_counter() - start, 30.0)
