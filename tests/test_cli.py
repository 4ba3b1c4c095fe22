"""End-to-end CLI behavior: configs, exit codes, files, determinism."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavework import cli, distributions, fock
from cavework.cli import load_config, main, resolve_omega_drive
from cavework.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = """
[geometry]
kind = rectangular
lx = {lx}
ly = 1.0
polarization = TE
cutoff = {cutoff}

[protocol]
lambda0 = 1.0
epsilon = {epsilon}
omega_drive = {drive}
tau = {tau}

[thermal]
beta = {beta}

[output]
directory = out
prefix = t
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_cfg(workdir, name="run.cfg", lx=0.9, cutoff=4.6, epsilon=0.01,
              drive="2*w(0:1:1)", tau=0.0, beta=0.8, extra=""):
    path = workdir / name
    path.write_text(
        BASE.format(lx=lx, cutoff=cutoff, epsilon=epsilon, drive=drive,
                    tau=tau, beta=beta) + extra
    )
    return str(path)


def test_spectrum_unit_cube(workdir):
    cfg = write_cfg(workdir, lx=1.0, cutoff=6.3)
    assert main(["spectrum", cfg]) == 0
    lines = (workdir / "out" / "t_spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "mode_index,polarization,frequency"
    rows = [line.split(",") for line in lines[1:]]
    freqs = [float(r[2]) for r in rows]
    assert freqs == sorted(freqs)
    assert all(f <= 6.3 for f in freqs)
    # TE on the unit cube: kz = 0 modes carry no field, so (1,1,0) is absent
    assert [r[0] for r in rows] == ["0:1:1", "1:0:1", "1:1:1"]
    assert all(r[1] == "TE" for r in rows)
    assert freqs[0] == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-11)
    assert freqs[2] == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-11)


def test_spectrum_spherical(workdir):
    cfg = workdir / "sph.cfg"
    cfg.write_text(
        "[geometry]\nkind = spherical\nradius = 1.0\npolarization = TE\n"
        "cutoff = 7.0\n"
        "[protocol]\nlambda0 = 1.0\n"
        "[thermal]\nbeta = 1.0\n"
        "[output]\ndirectory = out\nprefix = s\n"
    )
    assert main(["spectrum", str(cfg)]) == 0
    lines = (workdir / "out" / "s_spectrum.csv").read_text().strip().split("\n")
    # lowest root of the interior transverse-electric radial condition
    assert float(lines[1].split(",")[2]) == pytest.approx(
        4.493409457909064, rel=1e-11
    )


def test_config_rejects_unknowns(workdir):
    cfg = write_cfg(workdir, extra="\n[numerics]\nn_max = 40\nfoo = 1\n")
    assert main(["spectrum", cfg]) == 2
    cfg = write_cfg(workdir, extra="\n[mystery]\nx = 1\n")
    assert main(["spectrum", cfg]) == 2
    cfg = write_cfg(workdir, extra="\n[numerics]\ngrid_u = 32\n")
    assert main(["spectrum", cfg]) == 2
    missing = workdir / "nogeom.cfg"
    missing.write_text("[thermal]\nbeta = 1.0\n")
    assert main(["spectrum", str(missing)]) == 2
    assert main(["spectrum", str(workdir / "absent.cfg")]) == 2


def test_config_value_validation(workdir):
    assert main(["spectrum", write_cfg(workdir, beta="-2.0")]) == 2
    assert main(["spectrum", write_cfg(workdir, beta="warm")]) == 2
    # modulation depths at or beyond half the rest length are rejected
    assert main(["distribution", write_cfg(workdir, epsilon=0.7)]) == 2


def test_omega_drive_expressions(workdir):
    cfg = load_config(write_cfg(workdir, lx=1.0, cutoff=6.3))
    w2, w3 = math.pi * math.sqrt(2.0), math.pi * math.sqrt(3.0)
    spectrum = [((0, 1, 1), w2), ((1, 0, 1), w2), ((1, 1, 1), w3)]
    for expr, want in [
        ("3.75", 3.75),
        ("2 * w(0:1:1)", 2.0 * w2),
        ("w(0:1:1) + w(1:1:1)", w2 + w3),
        ("w(1:1:1) - w(0:1:1)", w3 - w2),
        ("w(0:1:1) - w(1:1:1)", w3 - w2),
        ("w(lowest)", w2),
    ]:
        got = resolve_omega_drive(
            dataclasses.replace(cfg, omega_drive_expr=expr), spectrum
        )
        assert got == pytest.approx(want, rel=1e-15)


def test_bad_omega_drive_exits_2(workdir):
    assert main(["distribution", write_cfg(workdir, drive="2*q(0:1:1)")]) == 2
    # mode above the cutoff cannot anchor the drive
    assert main(["distribution", write_cfg(workdir, drive="2*w(5:5:5)")]) == 2
    assert main(
        ["distribution", write_cfg(workdir, drive="w(0:1:1)-w(0:1:1)")]
    ) == 2


def test_tau_zero_gives_point_distribution(workdir):
    cfg = write_cfg(workdir, tau=0.0)
    assert main(["distribution", cfg]) == 0
    assert (workdir / "out" / "t_work.csv").read_text() == "w,prob\n0,1\n"
    assert (workdir / "out" / "t_photons.csv").read_text() == "delta_n,prob\n0,1\n"


def test_off_resonant_drive_needs_explicit_flag(workdir):
    cfg = write_cfg(workdir, drive="0.5")
    assert main(["distribution", cfg]) == 2
    assert main(["distribution", cfg, "--adiabatic-ok"]) == 0
    assert (workdir / "out" / "t_work.csv").read_text() == "w,prob\n0,1\n"


def test_open_protocol_demands_oracle(workdir):
    cfg = str(CONFIGS / "open_endpoints.cfg")
    with pytest.warns(UserWarning):
        assert main(["distribution", cfg]) == 2
    with pytest.warns(UserWarning):
        assert main(["distribution", cfg, "--oracle"]) == 0
    out = workdir / "out" / "open_endpoints"
    work = out / "open_work.csv"
    lines = work.read_text().strip().split("\n")
    assert lines[0] == "w,prob"
    assert lines[-1].startswith("# residual_mass=")
    residual = float(lines[-1].split("=")[1])
    mass = sum(float(line.split(",")[1]) for line in lines[1:-1])
    assert mass + residual == pytest.approx(1.0, abs=1e-9)
    assert (out / "open_photons.csv").exists()
    assert (out / "open_cumulative.csv").exists()


def test_env_overrides(workdir, monkeypatch):
    cfg = str(CONFIGS / "double_res.cfg")
    with monkeypatch.context() as m:
        m.setattr(cli, "_FREEZE_TOL", 1e-12)
        assert main(["distribution", cfg, "--freeze"]) == 1
    monkeypatch.setenv("CAVEWORK_N_MAX", "many")
    assert main(["distribution", write_cfg(workdir)]) == 2


def test_freeze_writes_report(workdir):
    cfg = str(CONFIGS / "double_res.cfg")
    assert main(["distribution", cfg, "--freeze"]) == 0
    report = json.loads(
        (workdir / "out" / "double_res" / "double_freeze_report.json").read_text()
    )
    assert set(report) == {
        "max_marginal_deviation", "oracle_residual_mass", "n_max", "freeze_tol",
    }
    assert report["freeze_tol"] == 0.005
    assert 0.0 <= report["max_marginal_deviation"] < report["freeze_tol"]
    assert 0.0 <= report["oracle_residual_mass"] < 0.05
    assert report["n_max"] == 40


COUPLED = """
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
directory = out
prefix = c
"""


def test_coupled_group_needs_symplectic_flag(workdir, monkeypatch):
    cfg = workdir / "coupled.cfg"
    cfg.write_text(COUPLED)
    assert main(["distribution", str(cfg)]) == 2
    assert main(["distribution", str(cfg), "--symplectic"]) == 0
    lines = (workdir / "out" / "c_work.csv").read_text().strip().split("\n")
    assert lines[0] == "w,prob"
    probs = {}
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        w, p = line.split(",")
        probs[float(w)] = float(p)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-8)
    # every coupled channel exchanges the same drive quantum
    spacing = 2.0 * math.pi * math.sqrt(3.0)
    for w in probs:
        assert abs(w / spacing - round(w / spacing)) < 1e-9
    # the single-channel verifier refuses a coupled plan
    assert main(["verify", str(cfg)]) == 2
    # the truncated-Fock oracle needs no closed form, so --oracle alone runs
    monkeypatch.setenv("CAVEWORK_N_MAX", "6")
    assert main(["distribution", str(cfg), "--oracle"]) == 0
    lines = (workdir / "out" / "c_work.csv").read_text().strip().split("\n")
    assert lines[-1].startswith("# residual_mass=")
    residual = float(lines[-1].split("=")[1])
    mass = sum(float(line.split(",")[1]) for line in lines[1:-1])
    assert mass + residual == pytest.approx(1.0, abs=1e-8)


def test_freeze_refusals_build_no_oracle(workdir, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("a refused --freeze run built the Fock oracle")

    monkeypatch.setattr(fock, "build_evolution", no_oracle)
    monkeypatch.setenv("CAVEWORK_N_MAX", "6")
    cfg = workdir / "coupled.cfg"
    cfg.write_text(COUPLED)
    assert main(["distribution", str(cfg), "--freeze"]) == 2
    with pytest.warns(UserWarning):
        assert main(
            ["distribution", str(CONFIGS / "open_endpoints.cfg"), "--freeze"]
        ) == 2


def test_verify_exit_codes(workdir):
    cfg = write_cfg(workdir, tau=1.0 / math.sqrt(2.0), beta=0.225)
    assert main(["verify", cfg]) == 0
    report = json.loads((workdir / "out" / "t_report.json").read_text())
    assert report["crooks_max_error"] < 1e-9
    assert main(["verify", cfg, "--perturb", "1e-3"]) == 1


def test_one_parser_per_process_keeps_no_state_between_calls(workdir, capsys):
    # main parses with one parser per process: a flag given to one call,
    # or a usage error, must not reach the next call
    assert cli.build_parser() is cli.build_parser()
    cfg = str(CONFIGS / "double_res.cfg")
    report = workdir / "out" / "double_res" / "double_report.json"
    fresh_dir = workdir / "fresh"
    fresh_dir.mkdir()
    fresh = subprocess.run(
        [sys.executable, "-m", "cavework", "verify", cfg],
        capture_output=True, text=True, cwd=fresh_dir,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert fresh.returncode == 0
    want = (fresh_dir / "out" / "double_res" / "double_report.json").read_bytes()
    assert main(["verify", cfg, "--perturb", "1e-3"]) == 1
    assert report.read_bytes() != want
    capsys.readouterr()
    assert main(["verify", cfg]) == 0
    assert report.read_bytes() == want
    assert capsys.readouterr().out == fresh.stdout
    with pytest.raises(SystemExit) as exc:
        main(["verify", cfg, "--perturb"])
    assert exc.value.code == 2
    report.unlink()
    capsys.readouterr()
    assert main(["verify", cfg]) == 0
    assert report.read_bytes() == want
    assert capsys.readouterr().out == fresh.stdout


@pytest.mark.parametrize(
    "flag", [["--perturb", "nan"], ["--perturb", "inf"], ["--perturb=-inf"]]
)
def test_verify_refuses_a_non_finite_perturbation(workdir, flag, capsys):
    # NaN would pass every comparison in the checks and run the comb out
    # to its sample budget; the flag is refused as it is parsed
    cfg = write_cfg(workdir, tau=1.0 / math.sqrt(2.0), beta=0.225)
    with pytest.raises(SystemExit) as exc:
        main(["verify", cfg, *flag])
    assert exc.value.code == 2
    assert "not finite" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_verify_cumulative_sum_meets_every_gate(workdir, capsys):
    # the hot two-mode squeezer's joint law once needed a 1024 x 2048 comb
    # past the sample budget; verify now inverts only its work law
    assert main(["verify", str(CONFIGS / "cumulative_sum.cfg")]) == 0
    path = workdir / "out" / "cumulative_sum" / "cumulative_report.json"
    report = json.loads(path.read_text())
    assert report["jarzynski_abs_error"] <= cli._VERIFY_JARZYNSKI_TOL
    assert report["crooks_max_error"] <= cli._VERIFY_CROOKS_TOL
    assert report["periodicity_max_error"] <= cli._VERIFY_PERIODICITY_TOL
    assert report["normalization_error"] <= cli._VERIFY_NORMALIZATION_TOL
    assert report["crooks_peakwise_error"] <= 1e-8
    assert "FAIL" not in capsys.readouterr().out


def test_verify_fails_a_g_that_leaves_the_line(workdir, monkeypatch):
    # a G that spreads delta_n off per * m but keeps both periods fails
    # the periodicity gate through its line-support part
    g = distributions._g
    monkeypatch.setattr(
        distributions, "_g",
        lambda p, u, v: g(p, u, v) * (1.0 + 0.01 * (np.cos(v) - 1.0)),
    )
    assert main(["verify", str(CONFIGS / "double_res.cfg")]) == 1
    report = json.loads((workdir / "out/double_res/double_report.json").read_text())
    assert report["periodicity_max_error"] > cli._VERIFY_PERIODICITY_TOL


def test_verify_open_endpoints_config(workdir):
    with pytest.warns(UserWarning):
        assert main(["verify", str(CONFIGS / "open_endpoints.cfg")]) == 0


def test_moments_sweep_shows_classical_flattening(workdir):
    def rel_slope(path):
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "hbar,mean_w,std_w"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == 5
        dh = rows[-1][0] - rows[0][0]
        mid = rows[len(rows) // 2][1]
        return abs(rows[-1][1] - rows[0][1]) / (dh * mid)

    assert main(["moments", str(CONFIGS / "moments_hot.cfg")]) == 0
    assert main(["moments", str(CONFIGS / "moments_cold.cfg")]) == 0
    hot = rel_slope(workdir / "out" / "moments_hot" / "moments_moments.csv")
    cold = rel_slope(workdir / "out" / "moments_cold" / "moments_moments.csv")
    # hot cavity: work statistics lose their quantum-scale dependence
    assert hot < 0.1 * cold
    assert hot < 0.05


def test_moments_sweep_to_a_hot_limit_stays_finite(workdir):
    cfg = write_cfg(workdir, extra="\n[sweep]\nvariable = beta\nvalues = 1 1e-100\n")
    assert main(["moments", cfg]) == 0
    lines = (workdir / "out" / "t_moments.csv").read_text().strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "1e-100"]
    assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))


@pytest.mark.filterwarnings("ignore:epsilon=0.12 strains")
@pytest.mark.parametrize("name", ["double_res", "open_endpoints"])
def test_verify_near_infinite_temperature_fails_without_a_traceback(
    workdir, capsys, name
):
    # beta * hbar * omega below 1.1e-16 once broke the grand potential
    # with a math domain error; the run now ends at a numerical gate
    text = (CONFIGS / f"{name}.cfg").read_text()
    path = workdir / f"{name}.cfg"
    path.write_text(re.sub(r"(?m)^beta = .*$", "beta = 1e-100", text))
    assert main(["verify", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_moments_requires_sweep_section(workdir):
    assert main(["moments", write_cfg(workdir)]) == 2
    cfg = write_cfg(workdir, extra="\n[sweep]\nvariable = epsilon\nvalues = 1\n")
    assert main(["moments", cfg]) == 2


def test_distribution_runs_are_byte_identical(workdir):
    cfg = str(CONFIGS / "diff_res.cfg")
    assert main(["distribution", cfg]) == 0
    first = {
        name: (workdir / "out" / "diff_res" / f"diff_{name}.csv").read_bytes()
        for name in ("work", "photons", "cumulative")
    }
    assert main(["distribution", cfg]) == 0
    for name, blob in first.items():
        again = (workdir / "out" / "diff_res" / f"diff_{name}.csv").read_bytes()
        assert again == blob, name


# invalid config values, each with a command that would use it: a config
# section to append, an (old, new) edit of the config text, or
# environment overrides.  Every one is a config error.  The rows named
# "unknown ..." set a key or variable that is no longer read; their
# error must name it.
INVALID_VALUES = {
    "n_max=0": ("\n[numerics]\nn_max = 0\n", ["distribution", "--oracle"]),
    "unknown lattice_count": ("\n[numerics]\nlattice_count = 4\n", ["distribution"]),
    "unknown freeze_tol": ("\n[numerics]\nfreeze_tol = abc\n", ["spectrum"]),
    "lambda0=0": (("lambda0 = 1.0", "lambda0 = 0"), ["spectrum"]),
    "cutoff=nan": (("cutoff = 4.6", "cutoff = nan"), ["spectrum"]),
    "beta=nan": (("beta = 0.225", "beta = nan"), ["distribution"]),
    "beta=inf": (("beta = 0.225", "beta = inf"), ["distribution"]),
    "omega_drive=inf": (("= 2*w(0:1:1)", "= inf"), ["distribution"]),
    "omega_drive=1e400": (("= 2*w(0:1:1)", "= 1e400"), ["distribution"]),
    "sweep beta": ("\n[sweep]\nvariable = beta\nvalues = 0.5 -1\n", ["moments"]),
    "sweep hbar": ("\n[sweep]\nvariable = hbar\nvalues = 0 1\n", ["moments"]),
    # hbar * Omega past float range, then beta * hbar * omega past 700:
    # each crashed, or wrote inf and nan, before the energy check
    "hbar=1e308": (("tau = ", "hbar = 1e308\ntau = "), ["distribution"]),
    "hbar=1e308 oracle": (
        ("tau = ", "hbar = 1e308\ntau = "), ["distribution", "--oracle"]
    ),
    "hbar=1e308 verify": (("tau = ", "hbar = 1e308\ntau = "), ["verify"]),
    "hbar=1e300": (("tau = ", "hbar = 1e300\ntau = "), ["distribution"]),
    "hbar=1e300 verify": (("tau = ", "hbar = 1e300\ntau = "), ["verify"]),
    "sweep beta=160": ("\n[sweep]\nvariable = beta\nvalues = 1 160\n", ["moments"]),
    "sweep beta=400": ("\n[sweep]\nvariable = beta\nvalues = 1 400\n", ["moments"]),
    # exact moments past float range: inf for both, or a finite mean
    # beside an infinite variance while beta * hbar * omega stays below 700
    "sweep beta=1e-320": (
        "\n[sweep]\nvariable = beta\nvalues = 1 1e-320\n", ["moments"]
    ),
    "sweep hbar=1e200": (
        ("beta = 0.225", "beta = 1e-198\n\n[sweep]\nvariable = hbar\nvalues = 1e200"),
        ["moments"],
    ),
    # beta * hbar * omega / 2 underflows to zero: coth is infinite
    "sweep hbar=1e-200": (
        ("beta = 0.225", "beta = 1e-200\n\n[sweep]\nvariable = hbar\nvalues = 1e-200"),
        ["moments"],
    ),
    "env freeze_tol": ({"CAVEWORK_FREEZE_TOL": "nan"}, ["distribution", "--freeze"]),
    "unknown CAVEWORK_LATTICE_COUNT": (
        {"CAVEWORK_LATTICE_COUNT": "256"}, ["distribution"]
    ),
}


@pytest.mark.parametrize(
    "change,command", INVALID_VALUES.values(), ids=list(INVALID_VALUES)
)
def test_invalid_config_values_exit_2(
    request, workdir, monkeypatch, capsys, change, command
):
    extra = change if isinstance(change, str) else ""
    path = Path(write_cfg(workdir, tau=1.0 / math.sqrt(2.0), beta=0.225, extra=extra))
    if isinstance(change, tuple):
        path.write_text(path.read_text().replace(*change))
    if isinstance(change, dict):
        for key, value in change.items():
            monkeypatch.setenv(key, value)
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert not (workdir / "out").exists()  # refused before any output
    row = request.node.callspec.id
    if row.startswith("unknown "):
        assert row.removeprefix("unknown ") in err


def test_fock_basis_above_the_cap_exits_2(workdir, monkeypatch, capsys):
    # one mode at n_max = 20000 is one state above the cap; the space is
    # refused from its cutoffs alone, before any array is allocated
    monkeypatch.setenv("CAVEWORK_N_MAX", "20000")
    assert main(["distribution", str(CONFIGS / "double_res.cfg"), "--oracle"]) == 2
    assert "20001" in capsys.readouterr().err


def test_import_loads_no_scipy(workdir):
    # every command, in one interpreter: none of them may load any scipy
    (workdir / "coupled.cfg").write_text(COUPLED)
    runs = [
        ["spectrum", write_cfg(workdir)],
        ["distribution", str(CONFIGS / "double_res.cfg")],
        ["distribution", "coupled.cfg", "--symplectic"],
        ["distribution", str(CONFIGS / "diff_res.cfg"), "--oracle"],
        ["distribution", str(CONFIGS / "open_endpoints.cfg"), "--oracle"],
        ["distribution", str(CONFIGS / "sum_res.cfg"), "--freeze"],
        ["verify", str(CONFIGS / "double_res.cfg")],
        ["moments", str(CONFIGS / "moments_cold.cfg")],
    ]
    code = (
        "import sys, warnings; from cavework.cli import main; "
        "warnings.simplefilter('ignore'); "
        f"codes = [main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=workdir, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip().split("\n")[-1] == f"{[0] * len(runs)} []"


def _ini_keys(block: str) -> dict[str, set[str]]:
    """{section: keys} of an INI example, commented-out keys included."""
    keys: dict[str, set[str]] = {}
    for line in block.splitlines():
        head = re.match(r"\s*\[(\w+)\]", line)
        if head:
            section = keys.setdefault(head.group(1), set())
        elif key := re.match(r"\s*#?\s*(\w+)\s*=", line):
            section.add(key.group(1))
    return keys


def _env_names(text: str) -> set[str]:
    return set(re.findall(r"CAVEWORK_[A-Z][A-Z0-9_]*", text))


def test_documented_keys_and_variables_are_the_ones_read(monkeypatch):
    # the INI example of the module help (its indented :: block) and of
    # the README's CLI section list every known key and no other, and
    # name no CAVEWORK_* variable but the one load_config reads
    doc = cli.__doc__
    lines = doc.split("::\n", 1)[1].splitlines()
    end = next(i for i, line in enumerate(lines) if line and not line.startswith(" "))
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    ini = section.split("```ini\n", 1)[1].split("```", 1)[0]
    known = {name: set(keys) for name, keys in cli._KNOWN_KEYS.items()}
    assert _ini_keys("\n".join(lines[:end])) == known
    assert _ini_keys(ini) == known
    read = {cli._ENV_N_MAX}
    assert _env_names(doc) == read
    assert _env_names(section) == read
    # and load_config reads that one, refusing every other
    source = Path(cli.__file__).read_text()
    assert set(re.findall(r'"(CAVEWORK_[A-Z][A-Z0-9_]*)"', source)) == read
    cfg = str(CONFIGS / "double_res.cfg")
    monkeypatch.setenv("CAVEWORK_N_MAX", "7")
    assert load_config(cfg).n_max == 7
    for name in ("CAVEWORK_LATTICE_COUNT", "CAVEWORK_FREEZE_TOL", "CAVEWORK_X"):
        with monkeypatch.context() as m:
            m.setenv(name, "1")
            with pytest.raises(ConfigError, match=name):
                load_config(cfg)
