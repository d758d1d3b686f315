#!/usr/bin/env python3
"""End-to-end benchmark of hermicert verdicts.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid-ball --seed 1 --seconds 30 --trace 0

Each operation is one hermicert command run in-process through
``hermicert.cli.main(argv)``, from argv to the written ``--out`` file.  The
loop is closed: one client, no threads, the next operation starts when the
previous one has finished.  The workload's inputs are generated from the
seed (see workloads.py) and every output is checked against the verdict
fields derived from the construction and against the bytes of the first
operation.  An untimed soundness probe corrupts one entry of the
reconstructed Hermite matrix and requires ``certify`` to reject it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` operations alternate between untraced and run under the
per-layer tracer (tracer.py), and the line carries the per-layer metrics
plus the tracing overhead.  The line before it records the
environment.  Exits non-zero without a result when the checkout holds no
hermicert sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"  # work files, removed after each run
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def time_setup() -> float:
    """Wall seconds for a fresh interpreter to import hermicert.cli."""
    cmd = [sys.executable, "-c", "import hermicert.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def summary(values: list[float]) -> dict:
    """Sample count and order statistics, for the environment record."""
    deciles = statistics.quantiles(values, n=10, method="inclusive") if len(values) > 1 else values * 9
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "p10": deciles[0], "p25": quartiles[0],
            "p50": statistics.median(values), "max": max(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hermicert").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, or "none" outside a git checkout."""
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def lookup(doc, dotted: str):
    cur = doc
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return workloads.ABSENT
        cur = cur[part]
    return cur


def mismatches(case, code: int, raw: bytes) -> list[str]:
    """Differences between one output and the construction's verdict."""
    problems = []
    if code != case.exit_code:
        problems.append(f"exit code {code}, expected {case.exit_code}")
    try:
        doc = json.loads(raw)
    except ValueError:
        return problems + ["output is not JSON"]
    for key, want in case.expect.items():
        got = lookup(doc, key)
        if got is not want and got != want:
            shown = "absent" if got is workloads.ABSENT else repr(got)
            problems.append(f"{key} = {shown}, expected {'absent' if want is workloads.ABSENT else want!r}")
    return problems


class Runner:
    """Runs one workload's operations and keeps their timings and checks."""

    def __init__(self, case, workdir: Path, cli):
        self.case = case
        self.workdir = workdir
        self.cli = cli
        self.argv = workloads.resolve(case.argv, workdir)
        self.out = workdir / "out.json"
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        for name, doc in case.files.items():
            (workdir / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    def fail(self, what: str):
        self.failed += 1
        print(f"operation {self.attempted} failed: {what}", file=sys.stderr)

    def operation(self) -> tuple[float, float]:
        """One closed-loop operation; returns (wall, cpu) seconds."""
        self.attempted += 1
        if self.out.exists():
            self.out.unlink()
        gc.collect()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            code = self.cli.main(self.argv)
        except Exception as exc:  # an uncaught library error fails the operation
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            self.fail(f"{type(exc).__name__}: {exc}")
            return wall, cpu
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        raw = self.out.read_bytes() if self.out.exists() else b""
        if self.reference is None:
            self.reference = raw
        problems = mismatches(self.case, code, raw)
        if raw != self.reference:
            problems.append("output bytes differ from the first operation")
        if problems:
            self.fail("; ".join(problems))
        return wall, cpu

    def loop(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Operations for ``seconds``; each is followed by one timed fresh
        import, so set-up samples spread over the same stretch of time."""
        walls, cpus, setups = [], [], []
        end = time.perf_counter() + seconds
        while not walls or time.perf_counter() < end:
            wall, cpu = self.operation()
            walls.append(wall)
            cpus.append(cpu)
            setups.append(time_setup())
        return walls, cpus, setups

    def soundness_probe(self):
        """Corrupt one entry (and its mirror) of the reconstructed matrix;
        certify must answer exit 3.  Untimed; counts as one operation."""
        self.attempted += 1
        case, wd = self.case, self.workdir
        try:
            code = self.cli.main(workloads.resolve(case.probe_build, wd))
            if code != 0:
                self.fail(f"probe build exited {code}")
                return
            doc = json.loads((wd / "probe_hermite.json").read_text(encoding="utf-8"))
            size = doc["rows"]
            pairs = [(i, j) for i in range(size) for j in range(i, size)]
            i, j = pairs[case.probe_pick % len(pairs)]
            value = Fraction(doc["entries"][i][j]) + case.probe_delta
            doc["entries"][i][j] = doc["entries"][j][i] = str(value)
            (wd / "probe_bad.json").write_text(json.dumps(doc), encoding="utf-8")
            code = self.cli.main(workloads.resolve(case.probe_certify, wd))
        except Exception as exc:  # the probe's verdict is the only result wanted
            self.fail(f"probe raised {type(exc).__name__}: {exc}")
            return
        if code != workloads.EXIT_CERTIFY_FAIL:
            self.fail(f"soundness probe: corrupted entry ({i}, {j}) gave exit {code}, expected 3")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """Import hermicert from this checkout's sources, never from elsewhere."""
    if not (SRC / "hermicert" / "cli.py").is_file():
        sys.exit(f"error: no hermicert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from hermicert import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: hermicert imported from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    load_avg = os.getloadavg()
    cli = load_cli()
    import hermicert

    case = workloads.make(args.workload, args.seed)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel_backend": hermicert.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "loadavg_start": load_avg,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=SCRATCH))
    try:
        runner = Runner(case, workdir, cli)
        runner.soundness_probe()
        runner.operation()  # warm-up: fills lazy caches, sets the reference bytes
        if args.trace:
            from tracer import Tracer

            # Untraced and traced operations alternate, so that both see the
            # same machine and the overhead ratio compares like with like.
            tracer = Tracer()
            plain, traced = [], []
            end = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < end:
                plain.append(runner.operation()[0])
                with tracer:
                    traced.append(runner.operation()[0])
            metrics = tracer.metrics(len(traced))
            metrics["jsonio.output_bytes"] = len(runner.reference or b"")
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
            env["samples"] = {"untraced": len(plain), "traced": len(traced)}
        else:
            time_setup()  # unmeasured: writes the byte-code cache
            walls, cpus, setups = runner.loop(args.seconds)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # The fastest operation, not the median: on a shared machine,
            # interference only adds time, and it comes in spells that can
            # cover most of a run.
            metrics = {
                "verdict_s.min": min(walls),
                "verdict_cpu_s.min": min(cpus),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_kib / 1024,
            }
            env["verdict_s"] = summary(walls)
            env["verdict_cpu_s"] = summary(cpus)
            env["setup_s"] = summary(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
