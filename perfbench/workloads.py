"""Seeded inputs and command lists for the two benchmark workloads.

``verify`` runs the fluctuation-theorem verifier; ``distribute`` runs
everything else a user runs: closed-form, symplectic, truncated-Fock
(``--oracle``) and ``--freeze`` distributions, moments and spectra.
The oracle commands ride in the distribute pass rather than in a
workload of their own because, on a shared 2-CPU host, either set alone
makes a run too short to read steadily.

The program only ever receives config files: the unchanged reference
configs under ``configs/`` plus copies drawn here from the seed.  Every
draw stays on a plateau where the adaptive inversions of the seed commit
use the same sample counts as the reference, so a run's work does not
depend on the seed while every output value does:

- inverse-temperature copies scale the reference beta by 1.06-1.09
  (beta*omega 0.21-0.22 for the resonance configs, 0.106-0.109 for the
  hot cumulative one; the hot and cold references sit at 0.05 and 10);
- spectrum geometries draw an overall size in [0.8, 1.25] and keep
  size * cutoff within 2 % of 40, so the set of Bessel roots a spectrum
  needs varies at its edge while its size stays within a few percent.

Every command is expected to exit 0.  The checks attached to each
command are evaluated after every invocation by ``child.py``.
"""

from __future__ import annotations

import configparser
import os
import random

WORKLOADS = ("verify", "distribute")

# reference config -> golden prefix (configs/golden/<prefix>_*.csv)
GOLDEN = {
    "double_res": "double",
    "sum_res": "sum",
    "diff_res": "diff",
    "cumulative_sum": "cumulative",
}
CSV_KINDS = ("work", "photons", "cumulative")

BETA_FACTOR = (1.06, 1.09)
SIZE_RANGE = (0.8, 1.25)
ROOT_REACH = 40.0  # size * cutoff: reach of the radial Bessel roots
ROOT_JITTER = 0.02

# Short commands are repeated inside a pass so that their kind carries a
# measurable share of the pass next to the Bessel and symplectic work;
# the second-long ones run twice so that their medians see two moments.
DISTRIBUTION_REPEAT = 10
MOMENTS_REPEAT = 50
LONG_REPEAT = 2

# The coupled-group config of tests/test_cli.py with its own output
# directory: the drive at 2*w(0:1:1) meets resonance channels that share
# a mode, so only the symplectic route can evaluate the plan.
COUPLED = """\
[geometry]
kind = rectangular
lx = 0.9
ly = 0.70710678118654752
polarization = TE
cutoff = 17.0

[protocol]
lambda0 = 1.0
epsilon = 0.01
omega_drive = 2*w(0:1:1)
tau = 2.8867513459481288

[thermal]
beta = 0.4

[output]
directory = out/coupled
prefix = c
"""

CYLINDER = """\
[geometry]
kind = cylindrical
moving_wall = longitudinal
radius = {size!r}
polarization = TM
cutoff = {cutoff!r}

[protocol]
lambda0 = {size!r}

[thermal]
beta = 1.0

[output]
directory = out/cylinder
prefix = cyl
"""

SPHERE = """\
[geometry]
kind = spherical
polarization = TM
cutoff = {cutoff!r}

[protocol]
lambda0 = {size!r}

[thermal]
beta = 1.0

[output]
directory = out/sphere
prefix = sph
"""


def _read(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    with open(path) as fh:
        cp.read_file(fh)
    return cp


def _outputs(cfg_path: str) -> tuple[str, str]:
    """(directory, prefix) a config writes to, relative to the run directory."""
    cp = _read(cfg_path)
    out = cp["output"] if cp.has_section("output") else {}
    return out.get("directory", "out"), out.get("prefix", "run")


def _beta_copy(rng: random.Random, ref: str, dest: str, name: str) -> str:
    cp = _read(ref)
    beta = float(cp["thermal"]["beta"])
    cp["thermal"]["beta"] = repr(beta * rng.uniform(*BETA_FACTOR))
    cp["output"]["directory"] = f"out/{name}"
    path = os.path.join(dest, f"{name}.cfg")
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _spectrum_config(rng: random.Random, template: str, dest: str, name: str) -> str:
    size = rng.uniform(*SIZE_RANGE)
    reach = ROOT_REACH * rng.uniform(1.0 - ROOT_JITTER, 1.0 + ROOT_JITTER)
    path = os.path.join(dest, f"{name}.cfg")
    with open(path, "w") as fh:
        fh.write(template.format(size=size, cutoff=reach / size))
    return path


def _command(kind: str, argv: list[str], cfg: str, repeat: int = 1) -> dict:
    directory, prefix = _outputs(cfg)
    return {
        "kind": kind,
        "argv": argv,
        "repeat": repeat,
        "out": os.path.join(directory, prefix),
        "checks": [],
    }


def _golden_checks(cmd: dict, golden_dir: str, prefix: str) -> None:
    for part in CSV_KINDS:
        cmd["checks"].append(
            ["golden", f"{cmd['out']}_{part}.csv",
             os.path.join(golden_dir, f"{prefix}_{part}.csv")]
        )


def build(workload: str, seed: int, root: str, workdir: str) -> list[dict]:
    """Write the seed's configs under workdir and return the command list.

    Paths in the returned commands are absolute for configs and relative
    to workdir (the child's working directory) for outputs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    configs = os.path.join(root, "configs")
    golden = os.path.join(configs, "golden")
    dest = os.path.join(workdir, "configs")
    os.makedirs(dest, exist_ok=True)

    def ref(name: str) -> str:
        return os.path.join(configs, f"{name}.cfg")

    cmds: list[dict] = []
    if workload == "verify":
        for name in ("double_res", "sum_res", "diff_res", "open_endpoints"):
            for cfg in (ref(name), _beta_copy(rng, ref(name), dest, f"{name}_beta")):
                cmd = _command("verify", ["verify", cfg], cfg)
                cmd["checks"].append(["verify_report", f"{cmd['out']}_report.json"])
                cmds.append(cmd)
    elif workload == "distribute":
        for name, prefix in GOLDEN.items():
            cmd = _command("distribution", ["distribution", ref(name)], ref(name),
                           DISTRIBUTION_REPEAT)
            _golden_checks(cmd, golden, prefix)
            cmds.append(cmd)
            cfg = _beta_copy(rng, ref(name), dest, f"{name}_beta")
            cmds.append(_command("distribution", ["distribution", cfg], cfg,
                                 DISTRIBUTION_REPEAT))
        for name in ("moments_hot", "moments_cold"):
            cmds.append(_command("moments", ["moments", ref(name)], ref(name),
                                 MOMENTS_REPEAT))
        for name, template in (("cylinder", CYLINDER), ("sphere", SPHERE)):
            cfg = _spectrum_config(rng, template, dest, name)
            cmds.append(_command("spectrum", ["spectrum", cfg], cfg, LONG_REPEAT))
        cfg = os.path.join(dest, "coupled.cfg")
        with open(cfg, "w") as fh:
            fh.write(COUPLED)
        cmds.append(_command("symplectic", ["distribution", "--symplectic", cfg], cfg,
                             LONG_REPEAT))
        # truncated-Fock oracle and freeze: two 1681-state bases, two small
        for name in ("diff_res", "open_endpoints"):
            cmd = _command("oracle", ["distribution", "--oracle", ref(name)], ref(name))
            for part in ("work", "photons"):
                cmd["checks"].append(["oracle_mass", f"{cmd['out']}_{part}.csv"])
            cmds.append(cmd)
        for name in ("sum_res", "double_res"):
            cmd = _command("freeze", ["distribution", "--freeze", ref(name)], ref(name))
            _golden_checks(cmd, golden, GOLDEN[name])
            cmd["checks"].append(["freeze_report", f"{cmd['out']}_freeze_report.json"])
            cmds.append(cmd)
    return cmds

