import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermicert._kernels as kernels
import hermicert.certify
import hermicert.cli
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


def test_refine_moves_points_to_roots(tmp_path, capsys):
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
    rough = write(
        tmp_path / "rough.json",
        {"accuracy_E": "1e-1", "bound_M": "2", "points": [[["1.5", "0"]], [["-1.4", "0"]]]},
    )
    code, v = run(capsys, "refine", "--system", sys_path, "--roots", rough, "--iters", "4")
    assert code == 0
    assert abs(float(v["points"][0][0][0]) - SQRT2) < 1e-12
    assert abs(float(v["points"][1][0][0]) + SQRT2) < 1e-12
    assert len(v["residuals"]) == 2


def test_filter_roots_cli(tmp_path, capsys):
    sys_a = write(
        tmp_path / "sa.json", {"variables": ["x", "y"], "polynomials": ["x^2-1", "y^2-1"]}
    )
    sys_b = write(
        tmp_path / "sb.json", {"variables": ["x", "y"], "polynomials": ["x^2-1", "x+y"]}
    )
    roots_a = write(
        tmp_path / "ra.json",
        {
            "accuracy_E": "1e-9",
            "bound_M": "2",
            "points": [
                [["1", "0"], ["1", "0"]],
                [["1", "0"], ["-1", "0"]],
                [["-1", "0"], ["1", "0"]],
                [["-1", "0"], ["-1", "0"]],
            ],
            "radii": ["1e-6", "1e-6", "1e-6", "1e-6"],
        },
    )
    roots_b = write(
        tmp_path / "rb.json",
        {
            "accuracy_E": "1e-9",
            "bound_M": "2",
            "points": [[["1", "0"], ["-1", "0"]], [["-1", "0"], ["1", "0"]]],
            "radii": ["1e-6", "1e-6"],
        },
    )
    code, v = run(
        capsys, "filter-roots", "--system", sys_a, "--system", sys_b,
        "--roots", roots_a, "--roots", roots_b,
    )
    assert code == 0
    assert len(v["points"]) == 2
    assert v["inconclusive"] is False


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


@pytest.mark.parametrize(
    "g, detail", [("1", "H1 * g(M) is not symmetric"), ("x", "H1 is not symmetric")]
)
def test_asymmetric_weighted_block_fails_step_7(g, detail, tmp_path, capsys):
    # x^2 - x on {1, x} claiming 3 points: steps 1-6 pass with M_x = [[0, 0],
    # [1, 1]], and H1bar * M_x = [[1, 1], [1, 1]] is symmetric although
    # H1bar = [[3, 1], [0, 1]] is not
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
    assert (report["failed_step"], report["reason"], report["detail"]) == (7, "not_symmetric", detail)
    assert report["diagnostics"][-1]["check"] == "weighted_hermite_for_g"


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

    monkeypatch.setattr(hermicert.cli, "build_extended_hermite", refuse("build"))
    monkeypatch.setattr(hermicert.cli, "certify_pipeline", refuse("certify"))
    code, payload = run(capsys, "pipeline", "--system", files["sys"], "--roots", files["roots"], *lone)
    assert code == 1 and called == []
    assert payload["error"]["message"] == "--center and --eps2 must be given together"


def test_construction_failure_exit_code(tmp_path, capsys):
    sys_path = write(tmp_path / "s.json", {"variables": ["x"], "polynomials": ["x^2-2"]})
    # duplicated points cannot yield a well-conditioned basis
    dup = write(
        tmp_path / "dup.json",
        {"accuracy_E": "1e-6", "bound_M": "2", "points": [[["0.5", "0"]], [["0.5", "0"]]]},
    )
    code, v = run(capsys, "build", "--system", sys_path, "--roots", dup)
    assert code == 2 and "error" in v


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


def test_cli_import_does_not_load_numpy():
    # numpy is needed only by Newton refinement and basis selection, so it is
    # imported there; commands such as nonradical never pay for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys, hermicert.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "numpy was imported"


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
    # route, where it fails with NonRadicalRankError (exit 2).
    sys_path = write(tmp_path / "grid5.json", GRID5)
    roots = write(tmp_path / "grid5_roots.json", GRID5_EXACT_ROOTS)
    code, v = run(capsys, "pipeline", "--system", sys_path, "--roots", roots)
    assert code == 0
    assert v["real_root_count"] == 25 and "kbar" not in v["hermite"]


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


def _pinned_nonradical(tmp_path):
    sys_path = write(tmp_path / "s3.json", DOUBLE_ROOT)
    roots = write(tmp_path / "r3.json", DOUBLE_ROOT_ROOTS)
    basis = write(tmp_path / "b3.json", {"monomials": ["1", "x", "x^2"]})
    return ["pipeline", "--system", sys_path, "--roots", roots, "--basis", basis, "--g", "x"]


def _pinned_nonneg(tmp_path):
    circle = write(tmp_path / "circle.json", CIRCLE)
    lroots = write(tmp_path / "lroots.json", CIRCLE_LAGRANGE_ROOTS)
    return ["nonneg", "--system", circle, "--g", "x+2", "--roots", lroots]


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
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_out_bytes_match_pinned_digest(name, tmp_path):
    make_argv, exit_code, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out.json"
    assert main(make_argv(tmp_path) + ["--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, calls",
    [("pipeline-ball", 3), ("pipeline-nonradical", 4), ("nonneg", 3), ("count-real", 1)],
)
def test_each_signature_is_computed_once(name, calls, tmp_path, monkeypatch):
    original = hermicert.certify.signature
    seen = []

    def counting(a):
        seen.append(a)
        return original(a)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hermicert") and getattr(mod, "signature", None) is original:
            monkeypatch.setattr(mod, "signature", counting)
    make_argv, exit_code, _ = PINNED_OUTPUTS[name]
    assert main(make_argv(tmp_path) + ["--out", str(tmp_path / "out.json")]) == exit_code
    assert len(seen) == calls


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


@pytest.mark.parametrize(
    "accuracy, points, error",
    [
        # accuracy too poor for the denominator bounds
        ("0.01", [["1", "-0.5"], ["-1", "0.5"]], "ReconstructionFailedError"),
        # two nearly coincident critical points leave no well-conditioned basis
        ("1e-8", [["1", "-0.5"], ["1.000000000001", "-0.5"]], "NoWellConditionedBasisError"),
    ],
)
def test_nonneg_construction_failure_exits_2(accuracy, points, error, tmp_path, capsys):
    circle = write(tmp_path / "circle.json", CIRCLE)
    lroots = write(
        tmp_path / "lroots.json",
        {
            "accuracy_E": accuracy,
            "bound_M": "2",
            "points": [[[x, "0"], ["0", "0"], [l1, "0"]] for x, l1 in points],
        },
    )
    code, v = run(capsys, "nonneg", "--system", circle, "--g", "x+2", "--roots", lroots)
    assert code == 2 and v["error"]["type"] == error


@pytest.mark.parametrize("kernel", ["inertia", "charpoly"])
@pytest.mark.parametrize("command", ["certify", "pipeline"])
def test_signature_mismatch_propagates_out_of_main(
    files, capsys, tmp_path, monkeypatch, kernel, command
):
    # an internal fault is not bad input: main must not report it as EXIT_USAGE
    herm = str(tmp_path / "herm.json")
    assert main(["build", "--system", files["sys"], "--roots", files["roots"], "--out", herm]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kernels, kernel, wrong_signature_kernel(kernels, kernel))
    source = ["--hermite", herm] if command == "certify" else ["--roots", files["roots"]]
    with pytest.raises(SignatureMethodMismatchError):
        main([command, "--system", files["sys"], *source])
    assert capsys.readouterr().out == ""
