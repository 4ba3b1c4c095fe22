"""Self-test of the tracer; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the wrappers hand back return values and exceptions
unchanged, that install/uninstall put every original back, that a
traced pass writes the same bytes as an untraced one on a small plan
that touches every traced layer, and that host-speed scaling divides by
the calibration samples on either side of a measurement.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


class Marker(Exception):
    pass


def check_passthrough() -> None:
    tracer = Tracer()
    payload = object()

    def give(x, *, key=None):
        return (x, key)

    def fail():
        raise Marker("boom")

    def outer():
        return wrapped_give(payload, key=payload)

    wrapped_give = tracer.wrap("t.give", give)
    wrapped_fail = tracer.wrap("t.fail", fail)
    wrapped_outer = tracer.wrap("t.outer", outer)
    got = wrapped_outer()
    assert got[0] is payload and got[1] is payload, "return value changed"
    raised = None
    try:
        wrapped_fail()
    except Marker as exc:
        raised = exc
    assert raised is not None and raised.args == ("boom",), "exception changed"
    assert list(tracer.parent) == [-1, 0, -1], "span parents wrong"
    assert all(e >= s for s, e in zip(tracer.start, tracer.end)), "span times wrong"
    assert wrapped_give.__name__ == "give", "wrapper hides the function name"


def check_install() -> None:
    from cavework import charfun, cli, distributions
    from cavework.charfun import CharfunParams
    from cavework.driving import ResonanceKind

    originals = {
        (mod, name): getattr(mod, name)
        for mod in (charfun, cli, distributions)
        for name in ("closed_form",)
    }
    params = CharfunParams(
        variant=ResonanceKind.DOUBLE, beta=0.3, omega_k=(2.0, 2.0), omega_p=None,
        g_tau=0.3,
    )
    plain = charfun.closed_form(params, 0.7, 0.2)
    tracer = Tracer()
    tracer.install()
    try:
        for mod, name in originals:
            assert getattr(mod, name) is not originals[mod, name], f"{mod.__name__}.{name} not wrapped"
        assert cli.closed_form(params, 0.7, 0.2) == plain, "traced value differs"
        assert tracer.names.count("charfun.closed_form") == 1
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn, f"{mod.__name__}.{name} not restored"
    for mod_name, fn_name in TRACED:
        fn = getattr(sys.modules[f"cavework.{mod_name}"], fn_name)
        assert not hasattr(fn, "__wrapped__"), f"{mod_name}.{fn_name} left wrapped"


# slow commands that exercise no layer the remaining ones miss
SLOW = {
    ("verify", "double_res"), ("verify", "sum_res"),
    ("freeze", "sum_res"), ("oracle", "diff_res"),
}


def small_plan(workdir: str) -> list[dict]:
    """Every workload's commands, once each, without the slow ones."""
    plan = []
    for workload in workloads.WORKLOADS:
        for cmd in workloads.build(workload, 0, ROOT, workdir):
            stem = os.path.basename(cmd["argv"][-1]).split(".")[0].removesuffix("_beta")
            if (cmd["kind"], stem) not in SLOW:
                cmd["repeat"] = 1
                plan.append(cmd)
    return plan


def check_identical_outputs() -> None:
    workdir = os.path.join(ROOT, ".perfbench_work", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        plan = small_plan(workdir)
        child.run_pass(plan)
        untraced = child.snapshot(plan)
        tracer = Tracer()
        tracer.install()
        try:
            child.run_pass(plan, tracer)
        finally:
            tracer.uninstall()
        traced = child.snapshot(plan)
    finally:
        os.chdir(cwd)
    assert untraced and traced == untraced, "traced outputs differ from untraced"
    layers = tracer.layer_metrics()
    called = {tracer.names[i] for i in set(tracer.name)}
    idle = [f"{mod}.{fn}" for mod, fn in TRACED
            if f"{mod}.{fn}" not in called]
    assert not idle, f"layers never traced: {idle}"
    assert layers["charfun.closed_form_calls"] > 0


def check_scaling() -> None:
    ref = calibrate.REFERENCE_S
    samples = [[0.0, ref], [5.0, 2 * ref], [9.0, 4 * ref]]
    # an invocation from 1 s to 3 s sits between the samples at 0 s and 5 s
    assert math.isclose(calibrate.scaled(1.0, 2.0, samples), 2.0 / 1.5), "wrong neighbours"
    assert math.isclose(calibrate.scaled(5.0, 4.0, samples), 4.0 / 3.0), "edge samples not used"
    raised = False
    try:
        calibrate.scaled(9.5, 1.0, samples)
    except ValueError:
        raised = True
    assert raised, "a measurement without a later sample was scaled"


def main() -> int:
    failed = 0
    for check in (check_passthrough, check_install, check_scaling,
                  check_identical_outputs):
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
