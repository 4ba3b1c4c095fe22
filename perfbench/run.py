"""The cavework benchmark: CLI workloads through ``cavework.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {verify,distribute} \
        --seed N --seconds S --trace {0,1}

Closed loop with one client: one child process per run imports
``cavework.cli`` and runs the workload's commands one after another
(``child.py``).  BLAS runs single-threaded (OPENBLAS/OMP/MKL_NUM_THREADS
= 1) in every process the benchmark starts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics
(``tracer.py``) and the import breakdown.  Human-readable lines come
first: every metric with its median, the highest percentile that has at
least ten samples beyond it, and its sample count, plus the per-kind
command times (``spectrum_s`` ... ``freeze_s``), ``fail_frac`` with its
base and the environment record.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are
the ones BENCHMARK.json declares, which apply to every workload:

- ``setup_s``: median import time of ``cavework.cli`` in fresh
  interpreters, measured before and after the child;
- ``pass_s``: wall time of one pass over the workload's commands,
  summed over invocations and divided by the passes run;
- ``peak_rss_mb``: the child's peak resident memory.

Both times are scaled to the reference host speed of ``calibrate.py``:
each import and each invocation is divided by the mean of the
calibration-kernel times taken just before and just after it, and
multiplied by the kernel's reference time.  The shared host's speed
drifts by 20-30 % between runs a few minutes apart, which the scaling
cancels; the unscaled wall times are printed too, as ``wall`` lines.

An invocation fails when its exit code is not 0 or its output check
fails; failures are counted in ``failed`` (``fail_frac`` =
failed / attempted).  ``correct`` is false when the program's results
cannot be trusted beyond that count: an invocation that was never run
and checked, an exception that escaped ``cavework.cli.main`` (a crash,
not an exit code), or a traced pass whose outputs differ from the
untraced pass.

Exits 2 without a result when the checkout lacks the program or its
reference configs, and 1 when the child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5  # before the child, and as many again after it
IMPORTTIME_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PACKAGES = ("numpy", "scipy", "cavework")


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAVEWORK_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    n = len(samples)
    if n >= 11:
        pct = 100 * (n - 10) // n
        ordered = sorted(samples)
        out[f"p{pct}"] = ordered[max(0, -(-pct * n // 100) - 1)]
    return out


def measure_setup(root: str, env: dict, samples: int, warm_up: bool,
                  calibration) -> list[list[float]]:
    """[start, seconds] per import of cavework.cli in a fresh interpreter,
    with a calibration-kernel sample before and after each."""
    code = (
        "import time; t = time.perf_counter(); import cavework.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples + warm_up):
        calibration.sample()
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root,
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append([start, float(out.stdout)])
    calibration.sample()
    return times[warm_up:]


def measure_importtime(root: str, env: dict, samples: int) -> dict[str, float]:
    """Median self time per top-level package from ``python -X importtime``."""
    per_package: dict[str, list[float]] = {p: [] for p in IMPORT_PACKAGES}
    for i in range(samples + 1):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavework.cli"],
            env=env, cwd=root, capture_output=True, text=True, check=True, timeout=60,
        )
        if not i:
            continue
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in out.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals:
                totals[top] += float(self_us) * 1e-6
        for pkg, value in totals.items():
            per_package[pkg].append(value)
    return {f"import.{p}_s": statistics.median(v) for p, v in per_package.items()}


def source_digest(root: str) -> str:
    """SHA-256 over the program's source tree, standing in for the commit."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(root: str, workdir: str, plan: list[dict], seconds: int, trace: int,
              env: dict) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path,
         str(seconds), str(trace)],
        cwd=workdir, env=env, check=True, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    with open(result_path) as fh:
        return json.load(fh)


def pass_time(plan: list[dict], invocations: list[list], times: list[float],
              passes: int, kind: str | None = None) -> float:
    """One pass's command time: times of the invocations (of one kind)
    summed and divided by the number of passes."""
    return sum(
        t for inv, t in zip(invocations, times) if kind in (None, plan[inv[0]]["kind"])
    ) / passes


def report_line(name: str, unit: str, samples: list[float]) -> str:
    s = summary(samples)
    pct = "".join(f" {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
    return f"{name:40s} median={s['median']:.6g} {unit}{pct} n={s['n']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    missing = [
        p for p in ("BENCHMARK.json", "src/cavework/cli.py", "configs/golden")
        if not os.path.exists(os.path.join(root, p))
    ]
    if missing:
        print(f"perfbench: not a cavework checkout, missing {missing}", file=sys.stderr)
        return 2

    # metric names and units are declared once, in BENCHMARK.json
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = workloads.build(args.workload, args.seed, root, workdir)
    env = child_env(root)

    if args.trace:
        imports = measure_importtime(root, env, IMPORTTIME_SAMPLES)
    else:
        # numpy is loaded here, after BLAS is pinned to the child's threads
        os.environ.update({var: env[var] for var in THREAD_VARS})
        import calibrate

        calibration = calibrate.Calibration()
        # the first import after a checkout compiles the bytecode: not timed
        setup = measure_setup(root, env, SETUP_SAMPLES, True, calibration)
    t0 = time.perf_counter()
    try:
        result = run_child(root, workdir, plan, args.seconds, args.trace, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: child failed: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    if not args.trace:
        setup += measure_setup(root, env, SETUP_SAMPLES, False, calibration)

    passes = result["passes"]
    measured = passes + ([result["traced"]] if args.trace else [])
    invocations = [inv for p in measured for inv in p]
    failures = sorted({inv[2] for inv in invocations if inv[2]})
    attempted, failed = len(invocations), sum(1 for inv in invocations if inv[2])
    expected = sum(cmd["repeat"] for cmd in plan) * len(measured)
    crashed = any(inv[2] and inv[2].startswith("crash: ") for inv in invocations)
    correct = (
        attempted == expected and not crashed and result.get("outputs_identical", True)
    )

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced pass(es), "
          f"child wall {wall:.2f} s")
    untraced = [inv for p in passes for inv in p]
    if args.trace:
        metrics = dict(result["layers"])
        metrics.update(imports)
        metrics["trace.overhead_s"] = (
            sum(inv[1] for inv in result["traced"]) - sum(inv[1] for inv in passes[0])
        )
        for name, value in metrics.items():
            print(f"{name:40s} {value:.6g}")
        print(f"trace: {result['spans']} spans, outputs identical to untraced pass: "
              f"{result['outputs_identical']}")
    else:
        setup_wall = [elapsed for _, elapsed in setup]
        setup_scaled = [
            calibrate.scaled(start, elapsed, calibration.samples) for start, elapsed in setup
        ]
        wall_times = [inv[1] for inv in untraced]
        scaled_times = [
            calibrate.scaled(inv[3], inv[1], result["calibration"]) for inv in untraced
        ]
        n = len(passes)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "pass_s": pass_time(plan, untraced, scaled_times, n),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        kernel = [seconds for _, seconds in calibration.samples + result["calibration"]]
        print(report_line("calibration kernel (wall)", "s", kernel))
        print(report_line("setup_s", "s", setup_scaled))
        print(report_line("  wall", "s", setup_wall))
        print(f"{'pass_s':40s} {metrics['pass_s']:.6g} s")
        print(f"{'  wall':40s} {pass_time(plan, untraced, wall_times, n):.6g} s")
        for kind in dict.fromkeys(cmd["kind"] for cmd in plan):
            per_call = [t for inv, t in zip(untraced, scaled_times)
                        if plan[inv[0]]["kind"] == kind]
            print(f"{kind + '_s':40s} {pass_time(plan, untraced, scaled_times, n, kind):.6g} s"
                  f"  (wall {pass_time(plan, untraced, wall_times, n, kind):.6g} s)")
            print(report_line(f"  per {kind} command", "s", per_call))
        print(report_line("peak_rss_mb", "MB", [result["peak_rss_mb"]]))
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    for failure in failures:
        print(f"  failed: {failure}")
    env_record = dict(result["env"])
    env_record.update({
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
    })
    print("env " + json.dumps(env_record, sort_keys=True))
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump({"env": env_record, "result": result, "metrics": metrics,
                   "failures": failures}, fh, indent=1)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
