"""The benchmark's soundness probe, replayed for seeds 1-12 on every workload.

The probe reconstructs a workload's Hermite matrix, adds a rational to one
entry and its mirror, and requires certify to reject the result.  The inputs
come from the benchmark's own generator, perfbench/workloads.py, loaded
read-only; the corruption is the one perfbench/run.py applies.  Each
rejection is pinned to the step and check that catches it, so a check that
stops firing shows up here and not only as a benchmark failure.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hermicert.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()

# every other probe is caught by step 2's residual or Schur-complement check
CAUGHT_LATER = {("nonradical", 9): (7, "weighted_hermite_for_g")}


@pytest.mark.parametrize("seed", range(1, 13))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_entry_is_rejected(name, seed, tmp_path, capsys):
    case = workloads.make(name, seed)
    for file_name, doc in case.files.items():
        (tmp_path / file_name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    assert main(workloads.resolve(case.probe_build, tmp_path)) == 0
    doc = json.loads((tmp_path / "probe_hermite.json").read_text(encoding="utf-8"))
    size = doc["rows"]
    pairs = [(i, j) for i in range(size) for j in range(i, size)]
    i, j = pairs[case.probe_pick % len(pairs)]
    doc["entries"][i][j] = doc["entries"][j][i] = str(Fraction(doc["entries"][i][j]) + case.probe_delta)
    (tmp_path / "probe_bad.json").write_text(json.dumps(doc), encoding="utf-8")

    assert main(workloads.resolve(case.probe_certify, tmp_path)) == workloads.EXIT_CERTIFY_FAIL
    report = json.loads((tmp_path / "probe_out.json").read_text(encoding="utf-8"))
    last = report["diagnostics"][-1]
    assert last["status"] == "fail" and last["step"] == report["failed_step"]
    expected = CAUGHT_LATER.get((name, seed), (2, "mult_matrices"))
    assert (report["failed_step"], last["check"]) == expected
    capsys.readouterr()
