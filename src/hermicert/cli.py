"""Command-line surface tying the pipeline together.

Every command reads and writes the JSON formats from hermicert.jsonio and
is deterministic: repeated runs produce byte-identical output.  Exit codes:
0 success or verdict True, 1 usage or parse error, 2 construction failure,
3 certification Fail, 4 verdict False.

Exit 1 is kept for errors raised at the input boundary: each command first
loads, parses and checks its inputs inside an _input_boundary block, and
only the input errors listed there exit 1.  Construction, certification
and derivation run after it; a ValueError raised there is a fault, not
bad input, and propagates out of main.

Three library calls run inside the boundary, because each one is where
the rules on its arguments are checked: NonnegQuery (no more constraints
than variables, g in the system's ring, no multiplier name among the
variables), match_and_filter (radii on both lists,
max_rounds >= 0, square systems in one variable list) and
rational_reconstruct (a bound >= 1, a rational value).  None of them
constructs a Hermite matrix or certifies one: NonnegQuery derives the
Lagrange system, match_and_filter takes only floating-point Newton steps,
and rational_reconstruct is the whole of its command, so every ValueError
they raise is an argument error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import jsonio
from .certificates import (
    BallQuery,
    NonnegQuery,
    ball_from_outcome,
    bezout_bound,
    certify_ball,
    certify_nonneg,
)
from .certify import certify_pipeline
from .hermite import ReconstructionFailedError, build_hermite
from .numroots import (
    CoordinateBoundError,
    DivergedError,
    SingularJacobianError,
    match_and_filter,
    newton_refine,
)
from .polynomials import parse_poly
from .ratrecon import rational_reconstruct

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRUCTION = 2
EXIT_CERTIFY_FAIL = 3
EXIT_VERDICT_FALSE = 4

_CONSTRUCTION_ERRORS = (
    ReconstructionFailedError,
    SingularJacobianError,
    DivergedError,
    CoordinateBoundError,
)


class _BadInput(Exception):
    """A parse or validation error raised at the input boundary; main
    reports the error it was raised from and exits EXIT_USAGE."""


class _input_boundary:
    """with _input_boundary(): loads, parses and checks a command's inputs.
    A ValueError, KeyError, OSError, TypeError or ArithmeticError (a zero
    denominator, or a value beyond the range of a double) raised in it,
    parse errors included, becomes _BadInput."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, KeyError, OSError, TypeError, ArithmeticError)):
            raise _BadInput from exc
        return False


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_system(path: str):
    return jsonio.system_from_json(_load_json(path))


def _load_roots(path: str, variables):
    """The roots file, checked to hold points of the ring of variables."""
    roots = jsonio.roots_from_json(_load_json(path))
    if roots.points and roots.arity() != len(variables):
        raise ValueError("point arity does not match the variable list")
    return roots


def _load_points(args, variables):
    """(roots, basis) from --roots and --basis, the points of a Hermite
    matrix for build, pipeline and nonneg: one point at least, and a given
    basis has one element per point.  basis is None when none is given
    (it is then selected from the points)."""
    roots = _load_roots(args.roots, variables)
    basis = None
    if args.basis:
        basis = jsonio.basis_from_json(_load_json(args.basis)["monomials"], variables)
    if not len(roots):
        raise ValueError("need at least one point")
    if basis is not None and len(basis) != len(roots):
        raise ValueError(f"basis size {len(basis)} must equal the number of points {len(roots)}")
    return roots, basis


def _refined_roots(roots, points, radii):
    """The refined points as a root set with the E and M of roots; a point
    that refinement moved out of |z|_inf <= M - E raises CoordinateBoundError.
    Newton accepts only finite points and the radii stay >= 0, so the bound
    is the one check of a root set that they can fail."""
    try:
        return type(roots)(points=points, accuracy=roots.accuracy, coord_bound=roots.coord_bound, radii=radii)
    except ValueError as exc:
        raise CoordinateBoundError(f"refinement left the box: {exc}") from exc


def _verdict_exit(verdict: str) -> int:
    return {"true": EXIT_OK, "false": EXIT_VERDICT_FALSE}.get(verdict, EXIT_CERTIFY_FAIL)


def _certified_exit(outcome) -> int:
    return EXIT_OK if outcome.certified else EXIT_CERTIFY_FAIL


def _ball_payload(cert) -> dict:
    """The verdict of a ball certificate and the signatures that decide it."""
    return {"verdict": cert.verdict, "sigma_H1": cert.sigma_h1, "sigma_Hg": cert.sigma_hg}


def _ball_query(center: str, eps2: str, variables) -> BallQuery:
    query = BallQuery(center=center.split(","), radius_squared=eps2)
    if len(query.center) != len(variables):
        raise ValueError("center arity does not match the ring")
    return query


def _load_hermite(args):
    """(system, H+) from --system and --hermite."""
    system = _load_system(args.system)
    return system, jsonio.hermite_from_json(_load_json(args.hermite), system.variables)


def cmd_build(args) -> tuple[int, dict]:
    with _input_boundary():
        system = _load_system(args.system)
        roots, basis = _load_points(args, system.variables)
    hplus = build_hermite(roots, basis)
    return EXIT_OK, jsonio.hermite_to_json(hplus, system.variables)


def cmd_certify(args) -> tuple[int, dict]:
    with _input_boundary():
        system, hplus = _load_hermite(args)
        g = parse_poly(args.g, system.variables)
    outcome = certify_pipeline(system, g, hplus)
    return _certified_exit(outcome), jsonio.report_to_json(outcome, system.variables)


def cmd_ball(args) -> tuple[int, dict]:
    with _input_boundary():
        system, hplus = _load_hermite(args)
        query = _ball_query(args.center, args.eps2, system.variables)
    cert = certify_ball(system, query, hplus)
    payload = {
        **_ball_payload(cert),
        "center": [jsonio.frac_str(c) for c in query.center],
        "eps2": jsonio.frac_str(query.radius_squared),
        "certificate": jsonio.report_to_json(cert.outcome, system.variables),
    }
    return _verdict_exit(cert.verdict), payload


def cmd_nonneg(args) -> tuple[int, dict]:
    with _input_boundary():
        system = _load_system(args.system)
        g = parse_poly(args.g, system.variables)
        query = NonnegQuery(system, g, assume_smooth_bounded=args.assume_smooth_bounded)
        roots, basis = _load_points(args, query.lagrange.variables)
    cert = certify_nonneg(query, build_hermite(roots, basis))
    payload = {
        "verdict": cert.verdict,
        "sigma_Hg": cert.sigma_hg,
        "sigma_Hg2": cert.sigma_hg2,
        "lagrange_system": jsonio.system_to_json(cert.lagrange),
        "bezout_bound": bezout_bound(system, g),
        "assume_smooth_bounded": cert.assume_smooth_bounded,
        "certificate": jsonio.report_to_json(cert.outcome, cert.lagrange.variables),
    }
    if cert.verdict == "fail":
        payload["reason"] = cert.outcome.reason
    return _verdict_exit(cert.verdict), payload


def cmd_count_real(args) -> tuple[int, dict]:
    with _input_boundary():
        system, hplus = _load_hermite(args)
    outcome = certify_pipeline(system, parse_poly("1", system.variables), hplus)
    report = jsonio.report_to_json(outcome, system.variables)
    return _certified_exit(outcome), {"real_root_count": outcome.sigma_h1, "certificate": report}


def cmd_refine(args) -> tuple[int, dict]:
    with _input_boundary():
        system = _load_system(args.system)
        if len(system.polys) != system.arity():
            raise ValueError("refine requires a square system")
        if args.iters < 0:
            raise ValueError("iters must be non-negative")
        roots = _load_roots(args.roots, system.variables)
    refined = []
    residuals = []
    for idx, point in enumerate(roots.points):
        try:
            result = newton_refine(system, point, args.iters)
        except (SingularJacobianError, DivergedError) as exc:
            raise type(exc)(f"point {idx}: {exc}") from exc
        refined.append(result.point)
        residuals.append(result.residual)
    payload = jsonio.roots_to_json(_refined_roots(roots, tuple(refined), roots.radii))
    payload["residuals"] = [repr(r) for r in residuals]
    return EXIT_OK, payload


def cmd_filter_roots(args) -> tuple[int, dict]:
    with _input_boundary():
        if len(args.system) != 2 or len(args.roots) != 2:
            raise ValueError("filter-roots needs --system and --roots twice (list A, list B)")
        system_a, system_b = map(_load_system, args.system)
        roots_a = _load_roots(args.roots[0], system_a.variables)
        roots_b = _load_roots(args.roots[1], system_b.variables)
        result = match_and_filter(roots_a, roots_b, system_a, system_b, max_rounds=args.max_rounds)
    kept_points = tuple(p for p, _ in result.kept)
    kept_radii = tuple(r for _, r in result.kept)
    payload = jsonio.roots_to_json(_refined_roots(roots_a, kept_points, kept_radii))
    payload["inconclusive"] = result.inconclusive
    return EXIT_OK, payload


def cmd_reconstruct_rational(args) -> tuple[int, dict]:
    with _input_boundary():
        result = rational_reconstruct(args.value, args.bound)
    text = None if result is None else jsonio.frac_str(result)
    payload = {"value": args.value, "bound": args.bound, "result": text}
    return (EXIT_OK if result is not None else EXIT_CONSTRUCTION), payload


def cmd_pipeline(args) -> tuple[int, dict]:
    with _input_boundary():
        if (args.center is None) != (args.eps2 is None):
            raise ValueError("--center and --eps2 must be given together")
        system = _load_system(args.system)
        query = None if args.center is None else _ball_query(args.center, args.eps2, system.variables)
        roots, basis = _load_points(args, system.variables)
        g = parse_poly(args.g, system.variables)
    hplus = build_hermite(roots, basis)
    payload: dict = {"hermite": jsonio.hermite_to_json(hplus, system.variables)}
    outcome = certify_pipeline(system, g, hplus)
    payload["certificate"] = jsonio.report_to_json(outcome, system.variables)
    if not outcome.certified:
        payload["verdict"] = "fail"
        return EXIT_CERTIFY_FAIL, payload
    payload["real_root_count"] = outcome.sigma_h1
    if query is not None:
        cert = ball_from_outcome(outcome, system.variables, query)
        payload["ball"] = _ball_payload(cert)
        return _verdict_exit(cert.verdict), payload
    return EXIT_OK, payload


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code of a construction
    failure here; this parser exits EXIT_USAGE.  Sub-command parsers take
    the class of their parent."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hermicert",
        description="Exact Hermite matrices from approximate roots, certified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *required_files):
        """The sub-command name, run by handler, with one required
        --<file> option per entry of required_files.  --out is added to
        every sub-command at the end, so it stays last in --help."""
        p = sub.add_parser(name, help=help)
        for option in required_files:
            p.add_argument(f"--{option}", required=True)
        p.set_defaults(func=handler)
        return p

    p = command("build", cmd_build, "reconstruct the extended Hermite matrix from roots", "system", "roots")
    p.add_argument("--basis", help="basis JSON; selected automatically when omitted")

    p = command("certify", cmd_certify, "symbolically certify a Hermite matrix", "system", "hermite")
    p.add_argument("--g", default="1", help="polynomial for the weighted matrix (default 1)")

    p = command("ball", cmd_ball, "certify whether a real root lies in a closed ball", "system", "hermite")
    p.add_argument("--center", required=True, help="comma-separated rational coordinates")
    p.add_argument("--eps2", required=True, help="squared radius, rational")

    p = command("nonneg", cmd_nonneg, "certify non-negativity of g over the real variety", "system")
    p.add_argument("--g", required=True)
    p.add_argument("--roots", required=True, help="approximate roots of the Lagrange system")
    p.add_argument(
        "--basis",
        help="basis JSON over the extended ring, one monomial per point; selected "
        "automatically when omitted",
    )
    p.add_argument("--assume-smooth-bounded", action="store_true")

    command("count-real", cmd_count_real, "certified number of distinct real roots", "system", "hermite")

    p = command("refine", cmd_refine, "Newton-refine a roots file", "system", "roots")
    p.add_argument("--iters", type=int, default=3)

    p = command(
        "filter-roots", cmd_filter_roots, "discard points of list A that cannot be roots of both systems"
    )
    p.add_argument("--system", action="append", required=True, help="give twice: A then B")
    p.add_argument("--roots", action="append", required=True, help="give twice: A then B")
    p.add_argument("--max-rounds", type=int, default=6)

    p = command("reconstruct-rational", cmd_reconstruct_rational, "rational number reconstruction")
    p.add_argument("value", help="decimal or rational string")
    p.add_argument("bound", type=int, help="denominator bound")

    p = command("pipeline", cmd_pipeline, "build, certify, and report in one run", "system", "roots")
    p.add_argument("--basis")
    p.add_argument("--g", default="1")
    p.add_argument("--center")
    p.add_argument("--eps2")

    for p in sub.choices.values():
        p.add_argument("--out", help="write the JSON result to this path instead of stdout")
    return parser


def _emit(payload: dict, out_path: str | None):
    text = jsonio.canonical_dumps(payload)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.func(args)
    except _CONSTRUCTION_ERRORS as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_CONSTRUCTION
    except _BadInput as bad:
        exc = bad.__cause__
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_USAGE
    _emit(payload, args.out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
