"""Every function the per-layer benchmark probes must exist under the name
it probes, so renaming or deleting one fails here and not only when the
benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hermicert

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _probes() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PROBES


PROBE_TARGETS = sorted({target for targets in _probes().values() for target in targets})


@pytest.mark.parametrize("module_name, path", PROBE_TARGETS)
def test_probe_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_kernel_backend_is_named():
    # perfbench/run.py records it with every run
    assert isinstance(hermicert.KERNEL_BACKEND, str) and hermicert.KERNEL_BACKEND
