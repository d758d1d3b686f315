import copy
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermicert._kernels as kernels
import hermicert.certify
import hermicert.cli
import hermicert.hermite
from hermicert.certify import SignatureMethodMismatchError
from hermicert.cli import main

from conftest import wrong_signature_kernel

SQRT2 = math.sqrt(2)


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["sys"] = write(
        tmp_path / "sys.json", {"variables": ["x"], "polynomials": ["x^2-2"]}
    )
    paths["roots"] = write(
        tmp_path / "roots.json",
        {
            "accuracy_E": "1e-10",
            "bound_M": "2",
            "points": [[[repr(SQRT2), "0"]], [[repr(-SQRT2), "0"]]],
        },
    )
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_build_writes_expected_matrix(files, capsys):
    code, payload = run(capsys, "build", "--system", files["sys"], "--roots", files["roots"])
    assert code == 0
    assert payload["entries"] == [["2", "0", "4"], ["0", "4", "0"], ["4", "0", "8"]]
    assert payload["basis"] == ["1", "x"]
    assert payload["labels"] == ["1", "x", "x^2"]
    assert payload["provenance"]["k"] == 2


def test_certify_reports_certified(files, capsys, tmp_path):
    herm = str(tmp_path / "herm.json")
    assert main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm]) == 0
    capsys.readouterr()
    code, report = run(capsys, "certify", "--system", files["sys"], "--hermite", herm, "--g", "x")
    assert code == 0
    assert report["status"] == "certified"
    assert report["mult_matrices"][0]["entries"] == [["0", "2"], ["1", "0"]]
    assert report["signatures"] == {"H1": 2, "Hg": 0}


def test_certify_fail_exit_code(files, capsys, tmp_path):
    herm = str(tmp_path / "herm.json")
    main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm])
    data = json.loads((tmp_path / "herm.json").read_text())
    data["entries"][0][0] = "3"
    (tmp_path / "herm.json").write_text(json.dumps(data))
    capsys.readouterr()
    code, report = run(capsys, "certify", "--system", files["sys"], "--hermite", herm)
    assert code == 3
    assert report["status"] == "fail"
    assert isinstance(report["failed_step"], int)
    code, v = run(capsys, "count-real", "--system", files["sys"], "--hermite", herm)
    assert code == 3 and v["real_root_count"] is None
    assert v["certificate"] == report


def test_ball_verdicts_and_exit_codes(files, capsys, tmp_path):
    herm = str(tmp_path / "herm.json")
    main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm])
    capsys.readouterr()
    code, v = run(
        capsys, "ball", "--system", files["sys"], "--hermite", herm,
        "--center", "7/5", "--eps2", "1/100",
    )
    assert code == 0 and v["verdict"] == "true" and (v["sigma_H1"], v["sigma_Hg"]) == (2, 0)
    code, v = run(
        capsys, "ball", "--system", files["sys"], "--hermite", herm,
        "--center", "7/5", "--eps2", "1/10000",
    )
    assert code == 4 and v["verdict"] == "false" and (v["sigma_H1"], v["sigma_Hg"]) == (2, 2)


def test_count_real(files, capsys, tmp_path):
    herm = str(tmp_path / "herm.json")
    main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm])
    capsys.readouterr()
    code, v = run(capsys, "count-real", "--system", files["sys"], "--hermite", herm)
    assert code == 0 and v["real_root_count"] == 2


def test_nonneg_verdicts(tmp_path, capsys):
    circle = write(
        tmp_path / "circle.json", {"variables": ["x", "y"], "polynomials": ["x^2+y^2-1"]}
    )
    lroots = write(
        tmp_path / "lroots.json",
        {
            "accuracy_E": "1e-8",
            "bound_M": "2",
            "points": [
                [["1", "0"], ["0", "0"], ["-0.5", "0"]],
                [["-1", "0"], ["0", "0"], ["0.5", "0"]],
            ],
        },
    )
    code, v = run(
        capsys, "nonneg", "--system", circle, "--g", "x+2", "--roots", lroots,
        "--assume-smooth-bounded",
    )
    assert code == 0 and v["verdict"] == "true"
    assert v["sigma_Hg"] == 2 and v["sigma_Hg2"] == 2
    assert v["bezout_bound"] == 8
    assert v["lagrange_system"]["variables"] == ["x", "y", "l1"]
    assert v["assume_smooth_bounded"] is True
    code, v = run(capsys, "nonneg", "--system", circle, "--g", "x", "--roots", lroots)
    assert code == 4 and v["verdict"] == "false"
    assert (v["sigma_Hg"], v["sigma_Hg2"]) == (0, 2)


ROUGH_SQRT2_ROOTS = {"accuracy_E": "1e-1", "bound_M": "2", "points": [[["1.5", "0"]], [["-1.4", "0"]]]}
PLANTED_A = {"variables": ["x", "y"], "polynomials": ["x^2-1", "y^2-1"]}
PLANTED_B = {"variables": ["x", "y"], "polynomials": ["x^2-1", "x+y"]}
PLANTED_ROOTS_A = {
    "accuracy_E": "1e-9",
    "bound_M": "2",
    "points": [
        [["1", "0"], ["1", "0"]],
        [["1", "0"], ["-1", "0"]],
        [["-1", "0"], ["1", "0"]],
        [["-1", "0"], ["-1", "0"]],
    ],
    "radii": ["1e-6", "1e-6", "1e-6", "1e-6"],
}
PLANTED_ROOTS_B = {
    "accuracy_E": "1e-9",
    "bound_M": "2",
    "points": [[["1", "0"], ["-1", "0"]], [["-1", "0"], ["1", "0"]]],
    "radii": ["1e-6", "1e-6"],
}


def _pinned_refine(tmp_path):
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
    rough = write(tmp_path / "rough.json", ROUGH_SQRT2_ROOTS)
    return ["refine", "--system", sys_path, "--roots", rough, "--iters", "4"]


def _pinned_filter_roots(tmp_path):
    # list A holds the four roots of the square subsystem (x^2 - 1, y^2 - 1),
    # list B the two roots of the full system; two of A's points match none
    return [
        "filter-roots",
        "--system", write(tmp_path / "sa.json", PLANTED_A),
        "--system", write(tmp_path / "sb.json", PLANTED_B),
        "--roots", write(tmp_path / "ra.json", PLANTED_ROOTS_A),
        "--roots", write(tmp_path / "rb.json", PLANTED_ROOTS_B),
    ]


def test_refine_moves_points_to_roots(tmp_path, capsys):
    code, v = run(capsys, *_pinned_refine(tmp_path))
    assert code == 0
    assert abs(float(v["points"][0][0][0]) - SQRT2) < 1e-12
    assert abs(float(v["points"][1][0][0]) + SQRT2) < 1e-12
    assert len(v["residuals"]) == 2


@pytest.mark.parametrize(
    "command, reached",
    [("refine", "3.0009"), ("filter-roots", "3+0j")],
)
def test_refinement_leaving_the_box_is_a_refinement_failure(command, reached, tmp_path, capsys):
    # Newton from 1.5 on x^2 - 9 heads for the root 3, outside |x| <= M - E =
    # 1.9: the refined points form no root set with this E and M.  refine
    # stops after three steps; filter-roots keeps the point its refinements
    # of both lists still match
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-9"]})
    roots = write(
        tmp_path / "r.json", {"accuracy_E": "0.1", "bound_M": "2", "points": [[["1.5", "0"]]], "radii": ["10"]}
    )
    argv = [command, "--system", sys_path, "--roots", roots]
    if command == "filter-roots":
        argv += argv[1:]
    code, payload = run(capsys, *argv)
    assert code == 2, payload
    assert payload["error"]["type"] == "CoordinateBoundError"
    assert reached in payload["error"]["message"] and "M - E = 1.9" in payload["error"]["message"]


def test_filter_roots_cli(tmp_path, capsys):
    code, v = run(capsys, *_pinned_filter_roots(tmp_path))
    assert code == 0
    assert len(v["points"]) == 2
    assert v["inconclusive"] is False


@pytest.mark.parametrize(
    "poly, start, error",
    [
        # the Jacobian 2x vanishes at the start
        ("x^2", "0", "SingularJacobianError"),
        # no real step reaches a root of x^2 + 1, and each one overshoots
        ("x^2+1", "0.001", "DivergedError"),
    ],
)
def test_refine_names_the_point_whose_newton_iteration_fails(poly, start, error, tmp_path, capsys):
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": [poly]})
    roots = write(tmp_path / "r.json", {"accuracy_E": "1e-8", "bound_M": "2", "points": [[[start, "0"]]]})
    code, v = run(capsys, "refine", "--system", sys_path, "--roots", roots)
    assert code == 2 and v["error"]["type"] == error
    assert v["error"]["message"].startswith("point 0: ")


def _filter_roots_x(tmp_path, poly, roots_a, roots_b, rounds):
    """filter-roots with the one system poly in x for both lists, each list
    given as (point, radius) pairs."""
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": [poly]})
    argv = ["filter-roots", "--system", sys_path, "--system", sys_path]
    for name, pairs in (("a.json", roots_a), ("b.json", roots_b)):
        doc = {
            "accuracy_E": "1e-8",
            "bound_M": "2",
            "points": [[[x, "0"]] for x, _ in pairs],
            "radii": [r for _, r in pairs],
        }
        argv += ["--roots", write(tmp_path / name, doc)]
    return argv + ["--max-rounds", str(rounds)]


def test_filter_roots_is_inconclusive_when_a_point_still_matches_two(tmp_path, capsys):
    # 0 with radius 1 matches both roots of x^2 - 1, and no round separates them
    argv = _filter_roots_x(tmp_path, "x^2-1", [("0", "1")], [("1", "0.5"), ("-1", "0.5")], 0)
    code, v = run(capsys, *argv)
    assert code == 0 and v["inconclusive"] is True
    assert v["points"] == [[["0.0", "0.0"]]]


def test_filter_roots_keeps_a_point_whose_refinement_fails(tmp_path, capsys):
    # Newton fails at the double root 0 of x^2 on both lists, so each round
    # keeps the point and its radius, and the point is kept
    argv = _filter_roots_x(tmp_path, "x^2", [("0", "1")], [("0", "1")], 2)
    code, v = run(capsys, *argv)
    assert code == 0 and v["inconclusive"] is False
    assert (v["points"], v["radii"]) == ([[["0.0", "0.0"]]], ["1.0"])


def test_reconstruct_rational_cli(capsys):
    code, v = run(capsys, "reconstruct-rational", "0.3333333", "100")
    assert code == 0 and v["result"] == "1/3"
    code, v = run(capsys, "reconstruct-rational", "0.707106781", "10")
    assert code == 2 and v["result"] is None


def test_nonradical_build_and_certify(tmp_path, capsys):
    sys3 = write(tmp_path / "s3.json", {"variables": ["x"], "polynomials": ["x^3-3*x+2"]})
    roots3 = write(
        tmp_path / "r3.json",
        {
            "accuracy_E": "1e-8",
            "bound_M": "3",
            "points": [[["1", "0"]], [["1", "0"]], [["-2", "0"]]],
        },
    )
    basis3 = write(tmp_path / "b3.json", {"monomials": ["1", "x", "x^2"]})
    herm3 = str(tmp_path / "h3.json")
    code = main(
        ["build", "--system", sys3, "--roots", roots3, "--basis", basis3, "--out", herm3]
    )
    assert code == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "h3.json").read_text())
    assert data["kbar"] == 2 and data["basis"] == ["1", "x"] and data["provenance"]["k"] == 3
    code, report = run(capsys, "certify", "--system", sys3, "--hermite", herm3)
    assert code == 0 and report["status"] == "certified"
    assert report["H1"]["entries"] == [["2", "-1"], ["-1", "5"]]
    assert report["weighted_H1"]["entries"] == [["3", "0"], ["0", "6"]]
    assert report["mult_matrices"][0]["entries"] == [["0", "2"], ["1", "-1"]]


@pytest.mark.parametrize("g", ["1", "x"])
def test_asymmetric_weighted_block_fails_step_1(g, tmp_path, capsys):
    # x^2 - x on {1, x} claiming 3 points, with H1bar = [[3, 1], [0, 1]]:
    # steps 2-6 would pass with M_x = [[0, 0], [1, 1]], and
    # H1bar * M_x = [[1, 1], [1, 1]] is symmetric, but no true H+ is
    # asymmetric, so step 1 rejects it whatever g is
    system = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-x"]})
    hermite = write(
        tmp_path / "h.json",
        {
            "rows": 3,
            "cols": 3,
            "labels": ["1", "x", "x^2"],
            "basis": ["1", "x"],
            "variables": ["x"],
            "provenance": {"k": 3},
            "entries": [["3", "1", "1"], ["0", "1", "1"], ["1", "1", "1"]],
        },
    )
    code, report = run(capsys, "certify", "--system", system, "--hermite", hermite, "--g", g)
    assert code == 3
    assert (report["failed_step"], report["reason"], report["detail"]) == (
        1,
        "not_symmetric",
        "H+ is not symmetric",
    )
    assert report["diagnostics"] == [
        {
            "step": 1,
            "check": "extract_blocks",
            "status": "fail",
            "reason": "not_symmetric",
            "detail": "H+ is not symmetric",
        }
    ]


def test_pipeline_with_ball(files, capsys):
    code, v = run(
        capsys, "pipeline", "--system", files["sys"], "--roots", files["roots"],
        "--g", "x", "--center", "7/5", "--eps2", "1/100",
    )
    assert code == 0
    assert v["real_root_count"] == 2
    assert v["ball"]["verdict"] == "true"
    assert v["certificate"]["status"] == "certified"


def test_bad_json_is_usage_error(tmp_path, files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, v = run(capsys, "build", "--system", str(bad), "--roots", files["roots"])
    assert code == 1 and "error" in v


def test_missing_file_is_usage_error(files, capsys):
    code, v = run(capsys, "build", "--system", "/nonexistent.json", "--roots", files["roots"])
    assert code == 1 and "error" in v


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--bogus"],
        ["pipeline", "--system", "sys.json"],  # --roots is required
        ["no-such-command"],
        [],
    ],
)
def test_argument_errors_exit_with_usage_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["pipeline", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--seed", "--retries"])
def test_no_command_takes_a_seed_or_retries(option, files, capsys):
    # certification draws nothing at random, so there is nothing to seed
    herm = str(files["tmp"] / "herm.json")
    assert main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm]) == 0
    hermite = ["--system", files["sys"], "--hermite", herm]
    roots = ["--system", files["sys"], "--roots", files["roots"]]
    for argv in (
        ["build", *roots],
        ["certify", *hermite],
        ["ball", *hermite, "--center", "1", "--eps2", "1"],
        ["count-real", *hermite],
        ["nonneg", *roots, "--g", "x"],
        ["pipeline", *roots],
        ["refine", *roots],
        ["filter-roots", *roots, *roots],
        ["reconstruct-rational", "1/3", "10"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, "3"])
        assert exc.value.code == 1, argv
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


@pytest.mark.parametrize("lone", [["--center", "7/5"], ["--eps2", "1/100"]])
def test_pipeline_rejects_a_lone_ball_option_before_any_work(lone, files, capsys, monkeypatch):
    called = []

    def refuse(name):
        def stub(*args):
            called.append(name)
            raise AssertionError(f"{name} ran before the options were checked")

        return stub

    monkeypatch.setattr(hermicert.cli, "build_hermite", refuse("build"))
    monkeypatch.setattr(hermicert.cli, "certify_pipeline", refuse("certify"))
    code, payload = run(capsys, "pipeline", "--system", files["sys"], "--roots", files["roots"], *lone)
    assert code == 1 and called == []
    assert payload["error"]["message"] == "--center and --eps2 must be given together"


def test_construction_failure_exit_code(tmp_path, capsys):
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
    # a duplicated point selects the basis {1} and builds the reduced matrix;
    # 0.5 is no root of x^2 - 2, which certification, not construction, finds
    dup = write(
        tmp_path / "dup.json",
        {"accuracy_E": "1e-6", "bound_M": "2", "points": [[["0.5", "0"]], [["0.5", "0"]]]},
    )
    herm = str(tmp_path / "herm.json")
    assert main(["build", "--system", sys_path, "--roots", dup, "--out", herm]) == 0
    assert json.loads((tmp_path / "herm.json").read_text())["kbar"] == 1
    code, report = run(capsys, "certify", "--system", sys_path, "--hermite", herm)
    assert code == 3
    assert (report["failed_step"], report["reason"]) == (5, "nonmember")


def test_reconstruction_failure_exit_code(tmp_path, capsys):
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
    basis = write(tmp_path / "b.json", {"monomials": ["1", "x"]})
    # accuracy far too poor: degree-4 bound 2*E*k*n*d*M^(d-1) >= 1
    coarse = write(
        tmp_path / "coarse.json",
        {
            "accuracy_E": "0.01",
            "bound_M": "2",
            "points": [[[repr(SQRT2), "0"]], [[repr(-SQRT2), "0"]]],
        },
    )
    code, v = run(capsys, "build", "--system", sys_path, "--roots", coarse, "--basis", basis)
    assert code == 2
    assert v["error"]["type"] == "ReconstructionFailedError"


def test_outputs_are_byte_identical_across_runs(files, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["build", "--system", files["sys"], "--roots", files["roots"]]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# Modules that importing the CLI, or running any command, must not load:
# hermicert's floating-point code is pure Python, so numpy would be a dead
# weight, and dataclasses (which imports inspect) would cost more than all of
# hermicert's own import.
UNLOADED = ("numpy", "dataclasses", "inspect")

# Exits naming the modules among argv[1:] that are loaded, 0 when none is.
LOADED_SCRIPT = "import sys; sys.exit(' '.join(m for m in sys.argv[1:] if m in sys.modules) or None)"

# Runs build, pipeline (the README example on x^2 - 2), nonneg (g = x on
# x^2 + y^2 - 1), refine and filter-roots (on x^2 - 2) through cli.main in the
# directory given as argv[1], then exits as LOADED_SCRIPT does for the modules
# named in argv[2:].
COMMANDS_SCRIPT = """
import json, os, sys
from hermicert.cli import main
os.chdir(sys.argv[1])
def write(name, doc):
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
write("sys.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
write("roots.json", {"accuracy_E": "1e-10", "bound_M": "2",
                     "points": [[["1.4142135623730951", "0"]], [["-1.4142135623730951", "0"]]]})
write("circle.json", {"variables": ["x", "y"], "polynomials": ["x^2+y^2-1"]})
write("lroots.json", {"accuracy_E": "1e-8", "bound_M": "2",
                      "points": [[["1", "0"], ["0", "0"], ["-0.5", "0"]],
                                 [["-1", "0"], ["0", "0"], ["0.5", "0"]]]})
write("radii.json", {"accuracy_E": "1e-10", "bound_M": "2", "radii": ["1e-8", "1e-8"],
                     "points": [[["1.4", "0"]], [["-1.4", "0"]]]})
codes = [
    main(["build", "--system", "sys.json", "--roots", "roots.json", "--out", "herm.json"]),
    main(["pipeline", "--system", "sys.json", "--roots", "roots.json",
          "--center", "7/5", "--eps2", "1/100", "--out", "pipe.json"]),
    main(["nonneg", "--system", "circle.json", "--g", "x", "--roots", "lroots.json",
          "--out", "nonneg.json"]),
    main(["refine", "--system", "sys.json", "--roots", "radii.json", "--out", "refine.json"]),
    main(["filter-roots", "--system", "sys.json", "--roots", "radii.json",
          "--system", "sys.json", "--roots", "radii.json", "--out", "filter.json"]),
]
if codes != [0, 0, 4, 0, 0]:
    sys.exit(f"exit codes {codes}")
sys.exit(" ".join(m for m in sys.argv[2:] if m in sys.modules) or None)
"""


def test_cli_import_does_not_load_numpy(tmp_path):
    # nor any other module in UNLOADED; one that a bare interpreter already
    # has, such as one a site hook imports, is not hermicert's doing and is
    # not watched
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*args):
        return subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True)

    watched = [m for m in UNLOADED if m not in run(LOADED_SCRIPT, *UNLOADED).stderr.split()]
    proc = run("import hermicert.cli\n" + LOADED_SCRIPT, *watched)
    assert proc.returncode == 0, proc.stderr
    proc = run(COMMANDS_SCRIPT, str(tmp_path), *watched)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "pipe.json").read_text(encoding="utf-8"))["ball"]["verdict"] == "true"


GRID2 = {"variables": ["x", "y"], "polynomials": ["x^2-1", "y^2-4"]}
GRID2_ROOTS = {
    "accuracy_E": "1e-12",
    "bound_M": "3",
    "points": [
        [[a, "0"], [b, "0"]] for a in ("1", "-1") for b in ("2", "-2")
    ],
}
CIRCLE = {"variables": ["x", "y"], "polynomials": ["x^2+y^2-1"]}
CIRCLE_LAGRANGE_ROOTS = {
    "accuracy_E": "1e-8",
    "bound_M": "2",
    "points": [
        [["1", "0"], ["0", "0"], ["-0.5", "0"]],
        [["-1", "0"], ["0", "0"], ["0.5", "0"]],
    ],
}
DOUBLE_ROOT = {"variables": ["x"], "polynomials": ["x^3-3*x+2"]}
DOUBLE_ROOT_ROOTS = {
    "accuracy_E": "1e-8",
    "bound_M": "3",
    "points": [[["1", "0"]], [["1", "0"]], [["-2", "0"]]],
}


GRID5 = {"variables": ["x", "y"], "polynomials": ["x^5-5*x^3+4*x", "y^5-5*y^3+4*y"]}
GRID5_EXACT_ROOTS = {
    "accuracy_E": "1e-40",
    "bound_M": "3",
    "points": [[[str(a), "0"], [str(b), "0"]] for a in range(-2, 3) for b in range(-2, 3)],
}


def test_pipeline_certifies_exact_grid_with_tiny_accuracy(tmp_path, capsys):
    # Exact, distinct points with a tiny E: a basis monomial accepted on a
    # rounding-level sigma_min would send the build down the non-radical
    # route, where certification step 2 fails it (exit 3).
    sys_path = write(tmp_path / "grid5.json", GRID5)
    roots = write(tmp_path / "grid5_roots.json", GRID5_EXACT_ROOTS)
    code, v = run(capsys, "pipeline", "--system", sys_path, "--roots", roots)
    assert code == 0
    assert v["real_root_count"] == 25 and "kbar" not in v["hermite"]


@pytest.mark.parametrize("doubled", [-2, -1, 1, 2])
def test_pipeline_certifies_a_doubled_grid_column_without_a_basis(doubled, tmp_path, capsys):
    # V((x - doubled) x (x^2 - 1) (x^2 - 4), y (y^2 - 1) (y^2 - 4)): the 5x5
    # grid with the column x = doubled given twice, 30 points on 25 roots.
    # select_basis accepts 25 monomials, and the H+ built from all 30
    # points on them certifies through the radical
    x_poly = f"x^6{-doubled:+}*x^5-5*x^4{5 * doubled:+}*x^3+4*x^2{-4 * doubled:+}*x"
    polys = [x_poly, "y^5-5*y^3+4*y"]
    sys_path = write(tmp_path / "s.json", {"variables": ["x", "y"], "polynomials": polys})
    grid = range(-2, 3)
    points = [(a, b) for a in grid for b in grid] + [(doubled, b) for b in grid]
    random.Random(doubled).shuffle(points)
    rows = [[[str(a), "0"], [str(b), "0"]] for a, b in points]
    roots = write(tmp_path / "r.json", {"accuracy_E": "1e-14", "bound_M": "3", "points": rows})
    code, v = run(capsys, "pipeline", "--system", sys_path, "--roots", roots, "--g", "x")
    assert code == 0
    assert v["real_root_count"] == v["hermite"]["kbar"] == 25
    assert v["hermite"]["provenance"]["k"] == 30


@pytest.mark.parametrize(
    "center, eps2, code, verdict", [("1", "1/4", 0, "true"), ("5", "1", 4, "false")]
)
def test_ball_queries_take_the_nonradical_route(center, eps2, code, verdict, tmp_path, capsys):
    sys_path = write(tmp_path / "s3.json", DOUBLE_ROOT)
    roots = write(tmp_path / "r3.json", DOUBLE_ROOT_ROOTS)
    basis = write(tmp_path / "b3.json", {"monomials": ["1", "x", "x^2"]})
    herm = str(tmp_path / "h3.json")
    assert main(["build", "--system", sys_path, "--roots", roots, "--basis", basis,
                 "--out", herm]) == 0
    query = ["--center", center, "--eps2", eps2]
    got, v = run(capsys, "ball", "--system", sys_path, "--hermite", herm, *query)
    assert (got, v["verdict"], v["sigma_H1"]) == (code, verdict, 2)
    got, v = run(capsys, "pipeline", "--system", sys_path, "--roots", roots,
                 "--basis", basis, *query)
    assert (got, v["ball"]["verdict"], v["real_root_count"]) == (code, verdict, 2)
    assert v["hermite"]["kbar"] == 2


def test_nonradical_rank_excess_builds_and_fails_certification_at_step_2(tmp_path, capsys):
    # V(x, y^2 - y) with (0, 0) doubled, on {1, x, x^2}: x vanishes at every
    # point, so rank H1 = 1, but the extension label y separates the roots
    sys_path = write(tmp_path / "s.json", {"variables": ["x", "y"], "polynomials": ["x", "y^2-y"]})
    points = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]
    roots = write(tmp_path / "r.json", {"accuracy_E": "1e-8", "bound_M": "2", "points": points})
    basis = write(tmp_path / "b.json", {"monomials": ["1", "x", "x^2"]})
    argv = ["--system", sys_path, "--roots", roots, "--basis", basis]
    code, v = run(capsys, "build", *argv)
    assert code == 0 and v["kbar"] == 1
    code, v = run(capsys, "pipeline", *argv)
    assert code == 3 and v["verdict"] == "fail"
    certificate = v["certificate"]
    assert (certificate["failed_step"], certificate["reason"]) == (2, "rank_deficient")
    assert certificate["detail"] == "rank H1 = 1, rank H+ = 2, expected 1"


@pytest.mark.parametrize(
    "k, code",
    [(3, 0), ("3", 0), (2.9, 1), (True, 1), (0, 1), (-3, 1), ("2.9", 1)],
    ids=["int", "integer string", "float", "bool", "zero", "negative", "decimal string"],
)
def test_provenance_k_must_be_a_positive_integer(k, code, tmp_path, capsys):
    # k picks the route: on the reduced x^3 - 3x + 2 matrix (kbar 2, k 3) a k
    # read as 2 or 1 would send it down the radical route, to fail at step 6
    sys_path = write(tmp_path / "s3.json", DOUBLE_ROOT)
    roots = write(tmp_path / "r3.json", DOUBLE_ROOT_ROOTS)
    basis = write(tmp_path / "b3.json", {"monomials": ["1", "x", "x^2"]})
    herm = tmp_path / "h3.json"
    assert main(["build", "--system", sys_path, "--roots", roots, "--basis", basis, "--out", str(herm)]) == 0
    data = json.loads(herm.read_text(encoding="utf-8"))
    data["provenance"]["k"] = k
    write(herm, data)
    got, v = run(capsys, "certify", "--system", sys_path, "--hermite", str(herm))
    assert got == code, v
    if code:
        assert v["error"]["type"] == "ValueError"
    else:
        assert v["status"] == "certified"


def _grid2_hermite(tmp_path):
    sys_path = write(tmp_path / "grid2.json", GRID2)
    roots = write(tmp_path / "grid2_roots.json", GRID2_ROOTS)
    herm = str(tmp_path / "grid2_herm.json")
    assert main(["build", "--system", sys_path, "--roots", roots, "--out", herm]) == 0
    return sys_path, roots, herm


def _pinned_pipeline_ball(tmp_path):
    sys_path, roots, _ = _grid2_hermite(tmp_path)
    return ["pipeline", "--system", sys_path, "--roots", roots,
            "--g", "x", "--center", "3/4,2", "--eps2", "1/4"]


def _pinned_ball(tmp_path):
    sys_path, _, herm = _grid2_hermite(tmp_path)
    return ["ball", "--system", sys_path, "--hermite", herm, "--center", "0,0", "--eps2", "4"]


def _pinned_count_real(tmp_path):
    sys_path, _, herm = _grid2_hermite(tmp_path)
    return ["count-real", "--system", sys_path, "--hermite", herm]


GRID7 = {
    "variables": ["x", "y"],
    "polynomials": ["x^7-14*x^5+49*x^3-36*x", "y^7-14*y^5+49*y^3-36*y"],
}
GRID7_EXACT_ROOTS = {
    "accuracy_E": "1e-40",
    "bound_M": "4",
    "points": [[[str(a), "0"], [str(b), "0"]] for a in range(-3, 4) for b in range(-3, 4)],
}


def _pinned_grid7_ball(tmp_path):
    # k = 49; no grid point lies in the ball, so the verdict is false (exit 4)
    sys_path = write(tmp_path / "grid7.json", GRID7)
    roots = write(tmp_path / "grid7_roots.json", GRID7_EXACT_ROOTS)
    return ["pipeline", "--system", sys_path, "--roots", roots,
            "--g", "x", "--center=1/4,1/4", "--eps2=1/16"]


GRID8 = {
    "variables": ["x", "y"],
    "polynomials": [
        "x^8+4*x^7-14*x^6-56*x^5+49*x^4+196*x^3-36*x^2-144*x",
        "y^8+4*y^7-14*y^6-56*y^5+49*y^4+196*y^3-36*y^2-144*y",
    ],
}
GRID8_EXACT_ROOTS = {
    "accuracy_E": "1e-40",
    "bound_M": "5",
    "points": [[[str(a), "0"], [str(b), "0"]] for a in range(-4, 4) for b in range(-4, 4)],
}


def test_exact_8x8_grid_certifies_64_real_roots(tmp_path, capsys):
    # k = 64: power sums near 1e18 formed in complex doubles reconstructed
    # to wrong rationals inside the bound, and step 2 failed (exit 3,
    # rank_deficient); exact sums certify, and no grid point lies in the ball
    sys_path = write(tmp_path / "grid8.json", GRID8)
    roots = write(tmp_path / "grid8_roots.json", GRID8_EXACT_ROOTS)
    code, v = run(capsys, "pipeline", "--system", sys_path, "--roots", roots,
                  "--g", "x", "--center=1/4,1/4", "--eps2=1/16")
    assert (code, v["real_root_count"], v["ball"]["verdict"]) == (4, 64, "false")


def _pinned_nonradical(tmp_path):
    sys_path = write(tmp_path / "s3.json", DOUBLE_ROOT)
    roots = write(tmp_path / "r3.json", DOUBLE_ROOT_ROOTS)
    basis = write(tmp_path / "b3.json", {"monomials": ["1", "x", "x^2"]})
    return ["pipeline", "--system", sys_path, "--roots", roots, "--basis", basis, "--g", "x"]


def _pinned_nonneg(tmp_path):
    circle = write(tmp_path / "circle.json", CIRCLE)
    lroots = write(tmp_path / "lroots.json", CIRCLE_LAGRANGE_ROOTS)
    return ["nonneg", "--system", circle, "--g", "x+2", "--roots", lroots]


HALF_SQRT3 = repr(math.sqrt(3) / 2)
CUBE_ROOTS_OF_UNITY = {
    "accuracy_E": "1e-10",
    "bound_M": "2",
    "points": [[["1", "0"]], [["-0.5", HALF_SQRT3]], [["-0.5", "-" + HALF_SQRT3]]],
}


def _pinned_cube_roots(tmp_path):
    # x^3 - 1 on {1, x, x^2}: H1 = [[3, 0, 0], [0, 0, 3], [0, 3, 0]] is
    # nonsingular, but its connected minor on {1, x} is singular, so the
    # route scan finds rank 3 past a selection of {1}, and step 2's solve
    # pivots on a 2x2 block; sigma(H1) = 1
    sys_path = write(tmp_path / "cube.json", {"variables": ["x"], "polynomials": ["x^3-1"]})
    roots = write(tmp_path / "cube_roots.json", CUBE_ROOTS_OF_UNITY)
    basis = write(tmp_path / "cube_basis.json", {"monomials": ["1", "x", "x^2"]})
    return ["pipeline", "--system", sys_path, "--roots", roots, "--basis", basis, "--g", "x"]


# sha256 of the --out bytes, recorded from the implementation that computed
# every signature afresh; a refactor must reproduce them exactly.
PINNED_OUTPUTS = {
    "pipeline-ball": (
        _pinned_pipeline_ball,
        0,
        "417b11c75df1bee15969c928aa94aabb1bb6f2a3838eee872a289a7938a1298d",
    ),
    "ball": (
        _pinned_ball,
        4,
        "5c80dd05847fce0ac73f9abd29d8b193ba74b740f91b753a171b8b23e6b86777",
    ),
    "count-real": (
        _pinned_count_real,
        0,
        "da1150fde4f469befe98c2d244f74d9f8f5d922616ae22fb513234825223e72e",
    ),
    "pipeline-nonradical": (
        _pinned_nonradical,
        0,
        "2c560cf6bf652114e4677d8c1ff8412c04b29c415cc779215e726660ae31219d",
    ),
    "pipeline-grid7-ball": (
        _pinned_grid7_ball,
        4,
        "3f80b09dab463f88c3de180247b7d3a15e2a98063e710765484355a16fc5f4cd",
    ),
    "nonneg": (
        _pinned_nonneg,
        0,
        "49aec61a586ab540e3b13097efdaca2eeab4aff4053734493cf82416e6820575",
    ),
    "pipeline-cube-roots": (
        _pinned_cube_roots,
        0,
        "065cc2d60e16beaaf37307505c939524cf82afb084b59dd537cae0db99a8aaaa",
    ),
}


# the same for Newton refinement, recorded from the implementation that ran
# it on numpy's linear algebra
PINNED_REFINE_OUTPUTS = {
    "refine": (
        _pinned_refine,
        0,
        "b69319fd241b81886e48d1fa0d2355cf76a88b19c125f12d87039d83ab249465",
    ),
    "filter-roots": (
        _pinned_filter_roots,
        0,
        "aa1d9c22e232d876db0aeba527e9d95a380438536934f761eed9c14c9fde3053",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS | PINNED_REFINE_OUTPUTS))
def test_out_bytes_match_pinned_digest(name, tmp_path):
    make_argv, exit_code, digest = (PINNED_OUTPUTS | PINNED_REFINE_OUTPUTS)[name]
    out = tmp_path / "out.json"
    assert main(make_argv(tmp_path) + ["--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


CIRCLE_X2_LAGRANGE_ROOTS = {
    "accuracy_E": "1e-8",
    "bound_M": "2",
    "points": [
        [["0", "0"], ["1", "0"], ["0", "0"]],
        [["0", "0"], ["-1", "0"], ["0", "0"]],
        [["1", "0"], ["0", "0"], ["-1", "0"]],
        [["-1", "0"], ["0", "0"], ["-1", "0"]],
    ],
}


def _nonneg_circle_x2(tmp_path):
    # the critical points of x^2 on the circle: (0, +-1, 0), where x^2
    # vanishes, and (+-1, 0, -1); sigma(H1) = 4, sigma(H_g) = 2
    circle = write(tmp_path / "circle.json", CIRCLE)
    lroots = write(tmp_path / "lroots.json", CIRCLE_X2_LAGRANGE_ROOTS)
    return ["nonneg", "--system", circle, "--g", "x^2", "--roots", lroots]


def test_nonneg_with_a_singular_hg_derives_hg2(tmp_path, capsys):
    # H_g is singular, so sigma(H_(g^2)) = 2 is derived, not read off
    # sigma(H1) = 4, which would give "false"
    code, v = run(capsys, *_nonneg_circle_x2(tmp_path))
    assert (code, v["verdict"]) == (0, "true")
    assert (v["sigma_Hg"], v["sigma_Hg2"]) == (2, 2)
    assert v["certificate"]["signatures"] == {"H1": 4, "Hg": 2}


# H_(g^2) is derived only when H_g is singular: not for the pinned nonneg
# (x + 2 vanishes at no critical point), but for x^2 on the circle
COUNTED_RUNS = PINNED_OUTPUTS | {"nonneg-singular-hg": (_nonneg_circle_x2, 0, None)}


@pytest.mark.parametrize(
    "name, calls",
    [
        ("pipeline-ball", 3),
        ("pipeline-nonradical", 4),
        ("nonneg", 2),
        ("nonneg-singular-hg", 3),
        ("count-real", 1),
    ],
)
def test_each_signature_is_computed_once(name, calls, tmp_path, monkeypatch):
    original = hermicert.certify.signature
    seen = []

    def counting(a, *inertia):
        seen.append(a)
        return original(a, *inertia)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hermicert") and getattr(mod, "signature", None) is original:
            monkeypatch.setattr(mod, "signature", counting)
    make_argv, exit_code, _ = COUNTED_RUNS[name]
    assert main(make_argv(tmp_path) + ["--out", str(tmp_path / "out.json")]) == exit_code
    assert len(seen) == calls


def test_cube_roots_of_unity_certify_through_a_2x2_pivot(tmp_path, capsys, monkeypatch):
    h1 = [3, 0, 0, 0, 0, 3, 0, 3, 0]
    calls = []
    original = kernels.eliminate

    def recording(k, nums, dens, rhs=None, linked=None):
        result = original(k, nums, dens, rhs, linked)
        if nums == h1:
            calls.append(("scan" if linked else "solve" if rhs else "inertia", result[:3]))
        return result

    monkeypatch.setattr(kernels, "eliminate", recording)
    code, v = run(capsys, *_pinned_cube_roots(tmp_path))
    assert code == 0 and v["real_root_count"] == 1
    assert "kbar" not in v["hermite"]  # rank H1 = 3: the radical route
    assert v["hermite"]["entries"][:3] == [
        ["3", "0", "0", "3"],
        ["0", "0", "3", "0"],
        ["0", "3", "0", "0"],
    ]
    # after the pivot on 1, the remainder on {x, x^2} is [[0, 3], [3, 0]],
    # which only a 2x2 block can eliminate: the route scan and step 2's
    # solve both take it, and H1 is eliminated by nothing else
    assert calls == [("scan", (2, 1, 0)), ("solve", (2, 1, 0))]


# eliminations per run of the grid-ball, nonradical and nonneg-lagrange
# shapes (5, 9 and 4 before the route scan and step 2 gave their ranks and
# inertias): the route scan of H1 in build_hermite (pipeline and nonneg),
# step 2's solve of H1, step 4's trace matrix on the non-radical route, and
# one inertia per signature of a matrix not eliminated before
@pytest.mark.parametrize(
    "name, most", [("pipeline-ball", 4), ("pipeline-nonradical", 5), ("nonneg", 4)]
)
def test_eliminations_per_run(name, most, tmp_path, monkeypatch):
    make_argv, exit_code, _ = PINNED_OUTPUTS[name]
    argv = make_argv(tmp_path) + ["--out", str(tmp_path / "out.json")]
    calls = []
    original = kernels.eliminate

    def counting(k, *args):
        calls.append(k)
        return original(k, *args)

    monkeypatch.setattr(kernels, "eliminate", counting)
    assert main(argv) == exit_code
    assert len(calls) <= most, calls


# Berkowitz polynomials per run (3, 3, 4 and 2 when every signature took
# one): only H1 and H1bar need one when sigma(H1) = k, since every H_g then
# reads its Descartes half off the power sums of g(M); the complex roots of
# the cube roots of unity keep Berkowitz on H_x too
@pytest.mark.parametrize(
    "name, calls",
    [
        ("pipeline-ball", 1),
        ("pipeline-grid7-ball", 1),
        ("pipeline-nonradical", 2),
        ("nonneg", 1),
        ("pipeline-cube-roots", 2),
    ],
)
def test_characteristic_polynomials_per_run(name, calls, tmp_path, monkeypatch):
    make_argv, exit_code, _ = PINNED_OUTPUTS[name]
    argv = make_argv(tmp_path) + ["--out", str(tmp_path / "out.json")]
    seen = []
    original = kernels.charpoly

    def counting(k, *args):
        seen.append(k)
        return original(k, *args)

    monkeypatch.setattr(kernels, "charpoly", counting)
    assert main(argv) == exit_code
    assert len(seen) == calls, seen


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_each_run_builds_one_normal_form_table(name, tmp_path, monkeypatch):
    # certify once, derive every H_g from the same table
    original = hermicert.certify.NormalForms.__init__
    built = []

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    make_argv, exit_code, _ = PINNED_OUTPUTS[name]
    argv = make_argv(tmp_path) + ["--out", str(tmp_path / "out.json")]
    monkeypatch.setattr(hermicert.certify.NormalForms, "__init__", counting)
    assert main(argv) == exit_code
    assert len(built) == 1


def _nonneg_circle(tmp_path, capsys, accuracy, points):
    """nonneg of x + 2 on the circle from Lagrange points (x, 0, l1), without
    a basis."""
    circle = write(tmp_path / "circle.json", CIRCLE)
    lroots = write(
        tmp_path / "lroots.json",
        {
            "accuracy_E": accuracy,
            "bound_M": "2",
            "points": [[[x, "0"], ["0", "0"], [l1, "0"]] for x, l1 in points],
        },
    )
    return run(capsys, "nonneg", "--system", circle, "--g", "x+2", "--roots", lroots)


@pytest.mark.parametrize(
    "accuracy, points, error",
    [
        # accuracy too poor for the denominator bounds
        ("0.01", [["1", "-0.5"], ["-1", "0.5"]], "ReconstructionFailedError"),
    ],
)
def test_nonneg_construction_failure_exits_2(accuracy, points, error, tmp_path, capsys):
    code, v = _nonneg_circle(tmp_path, capsys, accuracy, points)
    assert code == 2 and v["error"]["type"] == error


@pytest.mark.parametrize(
    "accuracy, points, code, reason, basis",
    [
        # two approximations of (1, 0, -1/2) 1e-12 apart select {1}, and
        # H+ from both is that of the one root counted twice: it certifies
        # with sigma(H_g) = sign g(1) = 1
        ("1e-8", [["1", "-0.5"], ["1.000000000001", "-0.5"]], 0, None, ["1"]),
        # repeated points select {1, x}; (+-1, 0, 0) are not critical points
        # of x + 2 (l1 = -+1/2 there), which certification finds
        ("1e-10", [["1", "0"]] * 3 + [["-1", "0"]] * 3, 3, "nonmember", ["1", "x"]),
    ],
    ids=["near-duplicates", "repeated"],
)
def test_nonneg_without_a_basis_certification_decides(
    accuracy, points, code, reason, basis, tmp_path, capsys
):
    got, v = _nonneg_circle(tmp_path, capsys, accuracy, points)
    assert got == code and v.get("reason") == reason
    assert v["certificate"]["basis"] == basis


@pytest.mark.parametrize(
    "g, code, verdict, sigmas",
    [
        # g(1) = -2 and g(-1) = 2
        ("x^3-3*x", 4, "false", (0, 2)),
        # (x - 1)^2 (x + 2): g(1) = 0 and g(-1) = 4
        ("x^3-3*x+2", 0, "true", (1, 1)),
    ],
)
def test_nonneg_repeated_critical_points_certify_through_the_radical(
    g, code, verdict, sigmas, tmp_path, capsys
):
    # the critical points (+-1, 0, 0) of both g on the circle, each of
    # multiplicity 3 in the Lagrange system: dim Q[x, y, l1]/I = 6.  The
    # given basis is reduced to {1, x}, which select_basis picks without one
    circle = write(tmp_path / "circle.json", CIRCLE)
    points = [[["1", "0"], ["0", "0"], ["0", "0"]]] * 3 + [[["-1", "0"], ["0", "0"], ["0", "0"]]] * 3
    lroots = write(tmp_path / "lroots.json", {"accuracy_E": "1e-10", "bound_M": "2", "points": points})
    basis = write(tmp_path / "lbasis.json", {"monomials": ["1", "x", "y", "l1", "x*y", "x*l1"]})
    argv = ["nonneg", "--system", circle, "--g", g, "--roots", lroots]
    for given in ([], ["--basis", basis]):
        got, v = run(capsys, *argv, *given)
        assert (got, v["verdict"]) == (code, verdict)
        assert (v["sigma_Hg"], v["sigma_Hg2"]) == sigmas
        assert v["certificate"]["basis"] == ["1", "x"]
        assert v["certificate"]["weighted_H1"]["entries"] == [["6", "0"], ["0", "6"]]


@pytest.mark.parametrize("kernel", ["inertia", "charpoly", "power_sums"])
@pytest.mark.parametrize("command", ["certify", "pipeline"])
def test_signature_mismatch_propagates_out_of_main(
    files, capsys, tmp_path, monkeypatch, kernel, command
):
    # an internal fault is not bad input: main must not report it as EXIT_USAGE.
    # sigma(H1) = sigma(H_(x+2)) = 2, so each faulty kernel reports -2
    herm = str(tmp_path / "herm.json")
    assert main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kernels, *wrong_signature_kernel(kernels, kernel))
    source = ["--hermite", herm] if command == "certify" else ["--roots", files["roots"]]
    with pytest.raises(SignatureMethodMismatchError):
        main([command, "--system", files["sys"], *source, "--g", "x+2"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["certify", "count-real", "ball", "pipeline"])
def test_value_error_inside_certification_propagates_out_of_main(
    files, capsys, tmp_path, monkeypatch, command
):
    # a ValueError past the input boundary is a fault, not bad input
    herm = str(tmp_path / "herm.json")
    assert main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm]) == 0
    capsys.readouterr()

    def broken(self, g):
        raise ValueError("fault inside certification")

    monkeypatch.setattr(hermicert.certify.NormalForms, "poly_matrix", broken)
    source = ["--roots", files["roots"]] if command == "pipeline" else ["--hermite", herm]
    ball = ["--center", "7/5", "--eps2", "1/100"] if command == "ball" else []
    with pytest.raises(ValueError, match="fault inside certification"):
        main([command, "--system", files["sys"], *source, *ball])
    assert capsys.readouterr().out == ""


def test_value_error_inside_construction_propagates_out_of_main(files, capsys, monkeypatch):
    def broken(*args):
        raise ValueError("fault inside construction")

    monkeypatch.setattr(hermicert.hermite, "build_extended_hermite", broken)
    with pytest.raises(ValueError, match="fault inside construction"):
        main(["build", "--system", files["sys"], "--roots", files["roots"]])


def bad_input_files(files):
    tmp = files["tmp"]
    herm = str(tmp / "herm.json")
    assert main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm]) == 0
    herm_data = json.loads(Path(herm).read_text(encoding="utf-8"))
    roots_data = json.loads(Path(files["roots"]).read_text(encoding="utf-8"))

    def herm_with(name, provenance):
        return write(tmp / f"{name}.json", {**herm_data, "provenance": provenance})

    entries_bool = [list(row) for row in herm_data["entries"]]
    entries_bool[0][1] = False  # in place of "0": Fraction(False) == 0

    # a Hermite file of x^2 - 1, y - 2x built in [x, y], without its labels:
    # read in [y, x] its basis {1, x} would name {1, y} without a word
    sys_xy2 = write(tmp / "sys_xy2.json", {"variables": ["x", "y"], "polynomials": ["x^2-1", "y-2*x"]})
    roots_xy2 = write(
        tmp / "roots_xy2.json",
        {"accuracy_E": "1e-10", "bound_M": "3", "points": [[["1", "0"], ["2", "0"]], [["-1", "0"], ["-2", "0"]]]},
    )
    herm_xy = str(tmp / "herm_xy.json")
    assert main(["build", "--system", sys_xy2, "--roots", roots_xy2, "--out", herm_xy]) == 0
    herm_xy_data = json.loads(Path(herm_xy).read_text(encoding="utf-8"))
    del herm_xy_data["labels"]

    return {
        **files,
        "herm": herm,
        "sys_xy": write(tmp / "sys_xy.json", {"variables": ["x", "y"], "polynomials": ["x^2-2", "y"]}),
        "under": write(tmp / "under.json", {"variables": ["x", "y"], "polynomials": ["x^2-2"]}),
        "sys_l1": write(tmp / "sys_l1.json", {"variables": ["l1"], "polynomials": ["l1^2-2"]}),
        "basis3": write(tmp / "basis3.json", {"monomials": ["1", "x", "x^2"]}),
        "empty": write(tmp / "empty.json", {"accuracy_E": "1e-10", "bound_M": "2", "points": []}),
        "sys_zero": write(tmp / "sys_zero.json", {"variables": ["x"], "polynomials": ["1/0*x^2-2"]}),
        "sys_int": write(tmp / "sys_int.json", {"variables": ["x"], "polynomials": [5]}),
        "points_int": write(tmp / "points_int.json", {"accuracy_E": "1e-10", "bound_M": "2", "points": 5}),
        "sys_novars": write(tmp / "sys_novars.json", {"variables": [], "polynomials": ["2"]}),
        "nullary": write(tmp / "nullary.json", {"accuracy_E": "1e-10", "bound_M": "2", "points": [[], []]}),
        "sys_varstr": write(tmp / "sys_varstr.json", {"variables": "xy", "polynomials": ["x^2-2", "y"]}),
        "sys_polystr": write(tmp / "sys_polystr.json", {"variables": ["x", "y"], "polynomials": "xy"}),
        "sys_twice": write(tmp / "sys_twice.json", {"variables": ["x", "x"], "polynomials": ["x"]}),
        "origin": write(
            tmp / "origin.json", {"accuracy_E": "1e-10", "bound_M": "2", "points": [[["0", "0"], ["0", "0"]]]}
        ),
        "roots_xy": write(
            tmp / "roots_xy.json",
            {**roots_data, "points": [[p[0], ["0", "0"]] for p in roots_data["points"]]},
        ),
        "roots_radii": write(tmp / "roots_radii.json", {**roots_data, "radii": ["1e-8", "1e-8"]}),
        "roots_huge_E": write(tmp / "roots_huge_E.json", {**roots_data, "accuracy_E": "2e308"}),
        "roots_huge_M": write(tmp / "roots_huge_M.json", {**roots_data, "bound_M": "1e400"}),
        "radii_nan": write(tmp / "radii_nan.json", {**roots_data, "radii": ["nan", "1e-8"]}),
        "radii_negative": write(tmp / "radii_negative.json", {**roots_data, "radii": ["1e-8", "-1e-300"]}),
        "sys_over": write(tmp / "sys_over.json", {"variables": ["x"], "polynomials": ["x^2-2", "x^3-2*x"]}),
        "roots_xy_radii": write(
            tmp / "roots_xy_radii.json",
            {**roots_data, "points": [[p[0], ["0", "0"]] for p in roots_data["points"]], "radii": ["1e-8", "1e-8"]},
        ),
        "herm_prov_int": herm_with("herm_prov_int", 5),
        "herm_prov_list": herm_with("herm_prov_list", []),
        "herm_bounds_int": herm_with("herm_bounds_int", {**herm_data["provenance"], "bounds": 5}),
        # a string where a list belongs, which iteration would read one
        # character per entry: the coordinate "10" as re "1", im "0" (the
        # roots 1 and 2 of x^2 - 3x + 2), the radii "11" as (1, 1), the
        # basis "1x" as {1, x}, and each row of entries as its digits
        "sys_12": write(tmp / "sys_12.json", {"variables": ["x"], "polynomials": ["x^2-3*x+2"]}),
        "roots_str": write(
            tmp / "roots_str.json", {"accuracy_E": "1e-10", "bound_M": "3", "points": [["10"], ["20"]]}
        ),
        "radii_str": write(tmp / "radii_str.json", {**roots_data, "radii": "11"}),
        "basis_str": write(tmp / "basis_str.json", {"monomials": "1x"}),
        "herm_basis_str": write(tmp / "herm_basis_str.json", {**herm_data, "basis": "1x"}),
        "herm_rows_str": write(
            tmp / "herm_rows_str.json", {**herm_data, "entries": ["".join(row) for row in herm_data["entries"]]}
        ),
        # a bool or a JSON number where a numeral or a count belongs, which
        # float and Fraction would read as 1 or 0 and int would truncate: the
        # roots 1 and 0 of x^2 - x as true and false, E = true (E = 1 fails
        # reconstruction, exit 2), a radius true and a bound 1.7 (read as 1)
        "sys_x2x": write(tmp / "sys_x2x.json", {"variables": ["x"], "polynomials": ["x^2-x"]}),
        "roots_bool": write(
            tmp / "roots_bool.json",
            {"accuracy_E": "1e-10", "bound_M": "2", "points": [[[True, False]], [[False, False]]]},
        ),
        "roots_E_bool": write(
            tmp / "roots_E_bool.json", {"accuracy_E": True, "bound_M": "2", "points": [[["1", "0"]], [["0", "0"]]]}
        ),
        "radii_bool": write(tmp / "radii_bool.json", {**roots_data, "radii": [True, "1e-8"]}),
        "herm_entry_bool": write(tmp / "herm_entry_bool.json", {**herm_data, "entries": entries_bool}),
        "herm_bound_float": herm_with(
            "herm_bound_float",
            {**herm_data["provenance"], "bounds": {**herm_data["provenance"]["bounds"], "x^2": 1.7}},
        ),
        # three keys that name the monomial x: merged, two bounds would be
        # dropped without a word
        "herm_bounds_twice": herm_with(
            "herm_bounds_twice",
            {**herm_data["provenance"], "bounds": {"x": 5, "x^1": 7, "1*x": 9}},
        ),
        "herm_xy_unlabelled": write(tmp / "herm_xy_unlabelled.json", herm_xy_data),
        "sys_yx": write(tmp / "sys_yx.json", {"variables": ["y", "x"], "polynomials": ["x^2-1", "y-2*x"]}),
        "basis_sum": write(tmp / "basis_sum.json", {"monomials": ["1", "x+y"]}),
        "basis_coeff": write(tmp / "basis_coeff.json", {"monomials": ["1", "2*x"]}),
        "basis_empty": write(tmp / "basis_empty.json", {"monomials": []}),
    }


# bad inputs caught at the input boundary, each exiting 1 as before the boundary
BAD_INPUTS = {
    "roots of the wrong arity": "build --system {sys_xy} --roots {roots}",
    "nonneg roots of the wrong arity": "nonneg --system {sys} --g x --roots {roots}",
    "no points": "build --system {sys} --roots {empty}",
    "nonneg without points": "nonneg --system {sys} --g x --roots {empty}",
    "basis of the wrong size": "pipeline --system {sys} --roots {roots} --basis {basis3}",
    "center of the wrong arity": "ball --system {sys} --hermite {herm} --center 1,2 --eps2 1",
    "pipeline center of the wrong arity": "pipeline --system {sys} --roots {roots} --center 1,2 --eps2 1",
    "non-positive radius": "ball --system {sys} --hermite {herm} --center 1 --eps2 0",
    "unknown variable in g": "certify --system {sys} --hermite {herm} --g z",
    "non-square system": "refine --system {under} --roots {roots}",
    "no radii": "filter-roots --system {sys} --roots {roots} --system {sys} --roots {roots}",
    "zero bound": "reconstruct-rational 1/3 0",
    "multiplier name clash": "nonneg --system {sys_l1} --g l1 --roots {roots}",
    "no variables": "build --system {sys_novars} --roots {nullary}",
    "pipeline with no variables": "pipeline --system {sys_novars} --roots {nullary}",
    "variables that are no list": "build --system {sys_varstr} --roots {roots_xy}",
    "repeated variables": "pipeline --system {sys_twice} --roots {origin}",
    "negative iterations": "refine --system {sys} --roots {roots} --iters -3",
    "negative rounds": "filter-roots --system {sys} --roots {roots_radii} --system {sys} --roots {roots_radii} --max-rounds -1",
    # the kept list must stay a superset of the common roots: radii must be
    # >= 0, and both systems square in the same variables
    "filter-roots non-square system A": "filter-roots --system {sys_over} --roots {roots_radii} --system {sys} --roots {roots_radii}",
    "filter-roots non-square system B": "filter-roots --system {sys} --roots {roots_radii} --system {sys_over} --roots {roots_radii}",
    "filter-roots in other variables": "filter-roots --system {sys} --roots {roots_radii} --system {sys_xy} --roots {roots_xy_radii}",
    "NaN radius": "filter-roots --system {sys} --roots {radii_nan} --system {sys} --roots {roots_radii}",
    "negative radius": "filter-roots --system {sys} --roots {roots_radii} --system {sys} --roots {radii_negative}",
    # a case given as (command, text) must also name its fault in the message
    "filter-roots with one list": (
        "filter-roots --system {sys} --roots {roots_radii}", "needs --system and --roots twice"
    ),
    "basis entry that is a sum": (
        "pipeline --system {sys_xy} --roots {roots_xy} --basis {basis_sum}", "expected a single monomial"
    ),
    "basis entry with a coefficient": (
        "pipeline --system {sys_xy} --roots {roots_xy} --basis {basis_coeff}", "coefficient must be 1"
    ),
    "empty basis": ("pipeline --system {sys_xy} --roots {roots_xy} --basis {basis_empty}", "empty basis"),
    # read in the system's order, the file's basis and matrix would name
    # other labels, and certification would reject it as noncommuting
    "Hermite file in other variables": (
        "count-real --system {sys_yx} --hermite {herm_xy_unlabelled}", "differ from the system's"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_usage_code(case, files, capsys):
    paths = bad_input_files(files)
    command, text = BAD_INPUTS[case] if isinstance(BAD_INPUTS[case], tuple) else (BAD_INPUTS[case], "")
    argv = [word.format(**paths) for word in command.split()]
    capsys.readouterr()
    code, payload = run(capsys, *argv)
    assert code == 1 and payload["error"]["type"] in ("ValueError", "ParseError"), payload
    assert text in payload["error"]["message"], payload


# bad inputs whose exact error type the payload in --out must name: a zero
# denominator, a JSON value of the wrong type, and bound keys that name one
# monomial twice; each exits 1
BAD_VALUES = {
    "zero denominator": ("reconstruct-rational 1/0 5", "ZeroDivisionError"),
    "center with a zero denominator": (
        "ball --system {sys} --hermite {herm} --center=1/0 --eps2 1", "ZeroDivisionError"
    ),
    "pipeline center with a zero denominator": (
        "pipeline --system {sys} --roots {roots} --center=1/0 --eps2 1", "ZeroDivisionError"
    ),
    "polynomial with a zero denominator": ("build --system {sys_zero} --roots {roots}", "ZeroDivisionError"),
    "points that are no list": ("build --system {sys} --roots {points_int}", "TypeError"),
    "polynomial that is no string": ("build --system {sys_int} --roots {roots}", "TypeError"),
    "polynomials that are no list": ("pipeline --system {sys_polystr} --roots {origin}", "TypeError"),
    "provenance that is no object": ("certify --system {sys} --hermite {herm_prov_int}", "TypeError"),
    "provenance that is a list": ("ball --system {sys} --hermite {herm_prov_list} --center 1 --eps2 1", "TypeError"),
    "bounds that are no object": ("count-real --system {sys} --hermite {herm_bounds_int}", "TypeError"),
    # exact as Fractions, but M - E is beyond the range of a double
    "accuracy beyond a double": ("build --system {sys} --roots {roots_huge_E}", "OverflowError"),
    "bound beyond a double": ("refine --system {sys} --roots {roots_huge_M}", "OverflowError"),
    "coordinate that is no list": ("pipeline --system {sys_12} --roots {roots_str} --g x", "TypeError"),
    "radii that are no list": (
        "filter-roots --system {sys} --roots {radii_str} --system {sys} --roots {radii_str}", "TypeError"
    ),
    "basis monomials that are no list": ("pipeline --system {sys} --roots {roots} --basis {basis_str}", "TypeError"),
    "Hermite basis that is no list": ("certify --system {sys} --hermite {herm_basis_str} --g x", "TypeError"),
    "Hermite rows that are no lists": ("certify --system {sys} --hermite {herm_rows_str} --g x", "TypeError"),
    "coordinates that are bools": ("pipeline --system {sys_x2x} --roots {roots_bool} --g x", "TypeError"),
    "Hermite entry that is a bool": ("certify --system {sys} --hermite {herm_entry_bool} --g x", "TypeError"),
    "radius that is a bool": (
        "filter-roots --system {sys} --roots {radii_bool} --system {sys} --roots {roots_radii}", "TypeError"
    ),
    "accuracy that is a bool": ("build --system {sys_x2x} --roots {roots_E_bool}", "TypeError"),
    "bound that is no integer": ("count-real --system {sys} --hermite {herm_bound_float}", "TypeError"),
    "bounds that name one monomial twice": ("count-real --system {sys} --hermite {herm_bounds_twice}", "ValueError"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_with_usage_code_and_writes_the_payload(case, files, capsys):
    paths = bad_input_files(files)
    command, error = BAD_VALUES[case]
    out = files["tmp"] / "out.json"
    argv = [word.format(**paths) for word in command.split()] + ["--out", str(out)]
    assert main(argv) == 1
    assert json.loads(out.read_text(encoding="utf-8"))["error"]["type"] == error


def test_nonneg_basis_of_the_wrong_size_is_bad_input(tmp_path, capsys):
    # the two critical points (+-1, -+1/2) of g = x on x^2 - 1 and a basis of
    # three elements: a usage error, as for build and pipeline, not a
    # certification failure
    system = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-1"]})
    roots = write(
        tmp_path / "r.json",
        {"accuracy_E": "1e-10", "bound_M": "2", "points": [[["1", "0"], ["-0.5", "0"]], [["-1", "0"], ["0.5", "0"]]]},
    )
    basis = write(tmp_path / "b.json", {"monomials": ["1", "x", "x^2"]})
    code, payload = run(capsys, "nonneg", "--system", system, "--g", "x", "--roots", roots, "--basis", basis)
    assert code == 1, payload
    assert payload["error"] == {
        "type": "ValueError",
        "message": "basis size 3 must equal the number of points 2",
    }
    # the right size certifies: x takes both signs on V(x^2 - 1)
    basis2 = write(tmp_path / "b2.json", {"monomials": ["1", "x"]})
    code, payload = run(capsys, "nonneg", "--system", system, "--g", "x", "--roots", roots, "--basis", basis2)
    assert (code, payload["verdict"], payload["certificate"]["status"]) == (4, "false", "certified")


# The input boundary under mutation: valid inputs of eight commands with one
# to three values replaced, keys dropped or list entries repeated.  Whatever
# the input, main returns an exit code 0-4 and writes a JSON payload; exit 1
# names the input error and exit 2 a construction error.
FUZZ_DOCS = {
    "system": {"variables": ["x"], "polynomials": ["x^2-2"]},
    "roots": {
        "accuracy_E": "1e-10",
        "bound_M": "2",
        "points": [[[repr(SQRT2), "0"]], [[repr(-SQRT2), "0"]]],
        "radii": ["1e-8", "1e-8"],
    },
    # nonneg on g = x over V(x^2 - 1): the critical points (+-1, -+1/2) in (x, l1)
    "lagrange_system": {"variables": ["x"], "polynomials": ["x^2-1"]},
    "lagrange_roots": {
        "accuracy_E": "1e-10",
        "bound_M": "2",
        "points": [[["1", "0"], ["-0.5", "0"]], [["-1", "0"], ["0.5", "0"]]],
    },
}
FUZZ_COMMANDS = {
    "build": "build --system {system} --roots {roots}",
    "pipeline": "pipeline --system {system} --roots {roots} --center 7/5 --eps2 1/100",
    "nonneg": "nonneg --system {lagrange_system} --g x --roots {lagrange_roots}",
    "refine": "refine --system {system} --roots {roots}",
    "filter-roots": "filter-roots --system {system} --roots {roots} --system {system} --roots {roots_b}",
    "certify": "certify --system {system} --hermite {hermite} --g x",
    "ball": "ball --system {system} --hermite {hermite} --center 7/5 --eps2 1/100",
    "count-real": "count-real --system {system} --hermite {hermite}",
}
FUZZ_PATHS = {
    "system": [("variables",), ("variables", 0), ("polynomials",), ("polynomials", 0)],
    "roots": [
        ("accuracy_E",), ("bound_M",), ("points",), ("points", 0), ("points", 1, 0), ("points", 0, 0, 0),
        ("points", 1, 0, 1), ("radii",), ("radii", 0),
    ],
    "hermite": [
        ("basis",), ("basis", 1), ("labels", 2), ("entries",), ("entries", 0), ("entries", 1, 1), ("rows",),
        ("variables",), ("provenance",), ("provenance", "E"), ("provenance", "M"), ("provenance", "k"),
        ("provenance", "bounds"), ("provenance", "bounds", "x^2"),
    ],
}
FUZZ_PATHS["roots_b"] = FUZZ_PATHS["lagrange_roots"] = FUZZ_PATHS["roots"]
FUZZ_PATHS["lagrange_system"] = FUZZ_PATHS["system"]
FUZZ_VALUES = ["nan", "inf", "2e308", "1e400", "1e-400", "1/0", "", 5, 2.5, None, True, [], {}, ["x"]]


@st.composite
def mutated_commands(draw):
    """(command, [(file, path, op, value)]): op "set" puts value at path,
    "drop" deletes it and "repeat" inserts a second copy of a list entry."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    names = sorted(set(re.findall(r"\{(\w+)\}", FUZZ_COMMANDS[command])))
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(names))
        path = draw(st.sampled_from(FUZZ_PATHS[name]))
        op = draw(st.sampled_from(["set", "set", "drop", "repeat"]))
        mutations.append((name, path, op, draw(st.sampled_from(FUZZ_VALUES)) if op == "set" else None))
    return command, mutations


def _has(doc, key) -> bool:
    if isinstance(doc, dict):
        return key in doc
    return isinstance(doc, list) and isinstance(key, int) and key < len(doc)


def _mutate(doc, path, op, value):
    """op at path, when an earlier mutation has left the path in place."""
    *head, last = path
    for key in head:
        if not _has(doc, key):
            return
        doc = doc[key]
    if not _has(doc, last):
        return
    if op == "set":
        doc[last] = copy.deepcopy(value)
    elif op == "drop":
        del doc[last]
    elif isinstance(doc, list):
        doc.insert(last, copy.deepcopy(doc[last]))


@pytest.fixture(scope="module")
def hermite_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {name: write(tmp / f"{name}.json", doc) for name, doc in FUZZ_DOCS.items()}
    out = tmp / "hermite.json"
    assert main(["build", "--system", paths["system"], "--roots", paths["roots"], "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=mutated_commands())
@example(case=("build", [("roots", ("bound_M",), "set", "1e400")]))
@example(case=("refine", [("roots", ("accuracy_E",), "set", "2e308")]))
def test_mutated_inputs_exit_with_a_code_and_a_json_payload(case, hermite_doc):
    command, mutations = case
    docs = {**FUZZ_DOCS, "roots_b": FUZZ_DOCS["roots"], "hermite": hermite_doc}
    docs = {name: copy.deepcopy(doc) for name, doc in docs.items()}  # roots_b apart from roots
    for name, path, op, value in mutations:
        _mutate(docs[name], path, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: write(Path(tmp) / f"{name}.json", doc) for name, doc in docs.items()}
        out = Path(tmp) / "out.json"
        argv = [word.format(**paths) for word in FUZZ_COMMANDS[command].split()] + ["--out", str(out)]
        code = main(argv)
        payload = json.loads(out.read_text(encoding="utf-8"))
    assert code in range(5) and isinstance(payload, dict)
    if code == 1:
        assert payload["error"]["type"]
    if code == 2:
        assert payload["error"]["type"] in {e.__name__ for e in hermicert.cli._CONSTRUCTION_ERRORS}
