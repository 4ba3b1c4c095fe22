"""One workload run: import cavework.cli, run passes, check every output.

Usage: python child.py PLAN RESULT SECONDS TRACE

Runs in the directory the outputs go to.  Untraced, it runs whole passes
over the plan, at least one, and none that would end past SECONDS, and
times the host-speed kernel of ``calibrate.py`` between commands.  Traced
(TRACE = 1), it runs one untraced and one traced pass, writes the spans
next to RESULT and requires the two passes to write identical bytes.
Every invocation is timed around ``cavework.cli.main`` alone; the root
cache of ``cavework.bessel`` is cleared and the garbage collector run
before it, so each command starts as cold as a fresh CLI process apart
from import.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time
import traceback

from calibrate import Calibration
from cavework import bessel, cli

# the documented gates of `cavework verify`, kept here so that a change
# to the program's own tolerances cannot pass the benchmark's check
VERIFY_GATES = {
    "jarzynski_abs_error": 1e-10,
    "crooks_max_error": 1e-9,
    "periodicity_max_error": 1e-8,
    "normalization_error": 1e-10,
}
ORACLE_MASS_TOL = 1e-10
CRASH = "crash: "  # prefix of a failure that escaped cavework.cli.main
FREEZE_TOL = 5e-3  # the documented default; no reference config sets its own
CALIBRATE_EVERY_S = 2.0


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_golden(out: str, golden: str) -> str | None:
    if _read(out) != _read(golden):
        return f"{out} differs from {os.path.basename(golden)}"
    return None


def check_verify_report(path: str) -> str | None:
    with open(path) as fh:
        report = json.load(fh)
    bad = [
        f"{key}={report[key]:.3e}" for key, tol in VERIFY_GATES.items()
        if not report[key] <= tol
    ]
    return f"{path}: gate failed {', '.join(bad)}" if bad else None


def check_freeze_report(path: str) -> str | None:
    with open(path) as fh:
        report = json.load(fh)
    dev = report["max_marginal_deviation"]
    if not (0.0 <= dev <= FREEZE_TOL and report["freeze_tol"] == FREEZE_TOL):
        return f"{path}: deviation {dev!r} vs freeze_tol {FREEZE_TOL!r}"
    return None


def check_oracle_mass(path: str) -> str | None:
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    if not lines[-1].startswith("# residual_mass="):
        return f"{path}: no residual_mass line"
    residual = float(lines[-1].split("=", 1)[1])
    mass = math.fsum(float(line.split(",")[1]) for line in lines[1:-1])
    if not abs(mass - (1.0 - residual)) <= ORACLE_MASS_TOL:
        return f"{path}: mass {mass!r} vs 1 - residual {1.0 - residual!r}"
    return None


CHECKS = {
    "golden": check_golden,
    "verify_report": check_verify_report,
    "freeze_report": check_freeze_report,
    "oracle_mass": check_oracle_mass,
}


def _outputs(cmd: dict) -> list[str]:
    directory = os.path.dirname(cmd["out"]) or "."
    base = os.path.basename(cmd["out"]) + "_"
    if not os.path.isdir(directory):
        return []
    return [
        os.path.join(directory, name) for name in sorted(os.listdir(directory))
        if name.startswith(base)
    ]


def invoke(cmd: dict, tracer=None) -> tuple[float, float, str | None]:
    """Run one command; (start, wall seconds, failure or None)."""
    for path in _outputs(cmd):
        os.remove(path)
    bessel.clear_root_cache()
    gc.collect()
    sink = io.StringIO()
    scope = tracer.command(cmd["kind"]) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with scope:
            t0 = time.perf_counter()
            try:
                rc = cli.main(cmd["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is one failed invocation, not the run
                elapsed = time.perf_counter() - t0
                return t0, elapsed, CRASH + traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
    if rc != 0:
        return t0, elapsed, f"{' '.join(cmd['argv'])}: exit {rc}"
    for kind, *args in cmd["checks"]:
        try:
            failure = CHECKS[kind](*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failure = f"{kind} {args[0]}: {exc!r}"
        if failure:
            return t0, elapsed, failure
    return t0, elapsed, None


def run_pass(plan: list[dict], tracer=None, calibration=None) -> list[list]:
    """[command index, wall seconds, failure or None, start] per invocation.

    A command's repeats are spread evenly over the pass, so that its
    times sample the whole pass rather than one stretch of it.  With a
    ``calibrate.Calibration``, the host-speed kernel is timed before any
    invocation that starts CALIBRATE_EVERY_S or more after the last
    kernel sample, and once when the pass ends, so that every invocation
    has a sample on either side.
    """
    invocations = []
    rounds = max(cmd["repeat"] for cmd in plan)
    for r in range(rounds):
        for index, cmd in enumerate(plan):
            if (r + 1) * cmd["repeat"] // rounds > r * cmd["repeat"] // rounds:
                if calibration is not None and calibration.due(CALIBRATE_EVERY_S):
                    calibration.sample()
                start, elapsed, failure = invoke(cmd, tracer)
                invocations.append([index, elapsed, failure, start])
    if calibration is not None:
        calibration.sample()
    return invocations


def snapshot(plan: list[dict]) -> dict[str, bytes]:
    return {path: _read(path) for cmd in plan for path in _outputs(cmd)}


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main(argv: list[str]) -> int:
    plan_path, result_path, seconds, trace = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    seconds = float(seconds)
    result = {"env": environment(), "passes": []}
    calibration = None if trace == "1" else Calibration()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        result["passes"].append(run_pass(plan, calibration=calibration))
        now = time.perf_counter()
        # whole passes only: stop before one that would end past SECONDS
        if trace == "1" or (now - start) + (now - pass_start) > seconds:
            break
    result["calibration"] = calibration.samples if calibration else []
    if trace == "1":
        from tracer import Tracer

        untraced = snapshot(plan)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(plan, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.start)
        result["outputs_identical"] = snapshot(plan) == untraced
        tracer.save(os.path.splitext(result_path)[0] + "_spans.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
