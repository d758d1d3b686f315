"""Self-checks of the benchmark: inputs, expected verdicts, and smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench/check_perfbench.py

The file name keeps these checks out of the library's own test suite; the
smoke runs take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = range(1, 9)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_points_satisfy_their_system_exactly(name):
    for seed in SEEDS:
        case = workloads.make(name, seed)
        assert case.points
        for point in case.points:
            assert all(isinstance(z, Fraction) for z in point)
            for poly in case.polys:
                assert workloads.evaluate(poly, point) == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_written_system_parses_to_the_exact_polynomials(name):
    sys.path.insert(0, str(ROOT / "src"))
    from hermicert.polynomials import parse_poly

    case = workloads.make(name, 1)
    doc = case.files["lagrange.json" if name == "nonneg-lagrange" else "system.json"]
    parsed = [parse_poly(text, doc["variables"]).terms for text in doc["polynomials"]]
    assert parsed == [{m: c for m, c in p.items() if c} for p in case.polys]


def test_written_doubles_are_the_exact_points():
    for name in workloads.WORKLOADS:
        case = workloads.make(name, 3)
        rows = case.files["roots.json"]["points"]
        assert [[Fraction(re) for re, _ in row] for row in rows] == [list(p) for p in case.points]
        assert all(im == "0.0" for row in rows for _, im in row)


def test_expected_fields_come_from_the_construction_alone():
    """The generator never runs or even imports hermicert."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads\n"
        "for n in workloads.WORKLOADS:\n"
        "    [workloads.make(n, s) for s in range(1, 5)]\n"
        "assert not any(m.startswith('hermicert') for m in sys.modules), 'hermicert imported'\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], check=True, cwd=HERE)


def test_expected_verdicts_cover_both_answers():
    ball = {workloads.make("grid-ball", s).expect["ball.verdict"] for s in SEEDS}
    nonneg = {workloads.make("nonneg-lagrange", s).expect["verdict"] for s in range(1, 20)}
    assert ball == {"true", "false"}
    assert nonneg == {"true", "false"}


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 5) == workloads.make(name, 5)
        assert workloads.make(name, 5).files != workloads.make(name, 6).files


def run_bench(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_end_to_end(name):
    proc = run_bench(name, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_traced(name):
    proc = run_bench(name, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["certify.calls"] == (2 if name == "grid-ball" else 1)
    if name == "nonradical":
        assert metrics["numroots.select_basis_s"] == 0
        assert metrics["numroots.sigma_min_calls"] == 0
    else:
        assert metrics["numroots.select_basis_s"] > 0
    assert metrics["kernels.mat_mul_calls"] > 0 and metrics["trace.overhead_ratio"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("grid-ball", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
