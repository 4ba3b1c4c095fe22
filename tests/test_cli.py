"""End-to-end CLI behavior: configs, exit codes, files, determinism."""

import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavework import cavity, charfun, cli, distributions, fock, symplectic
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


@pytest.mark.parametrize("token", ["1:1", "1:1:1:1"])
def test_a_mode_index_needs_three_integers(workdir, capsys, token):
    # 1:1 was looked up as a two-part mode and reported as missing from
    # the spectrum, with advice to raise a cutoff that could never help
    assert main(["distribution", write_cfg(workdir, drive=f"2*w({token})")]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"config error: bad mode index '{token}' (want i:j:k or lowest)"


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


def test_env_overrides(workdir, monkeypatch, capsys):
    cfg = str(CONFIGS / "double_res.cfg")
    with monkeypatch.context() as m:
        m.setattr(cli, "_FREEZE_TOL", 1e-12)
        assert main(["distribution", cfg, "--freeze"]) == 1
    # the gate's refusal is an error line like every other exit 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: freeze refused: closed-form vs oracle deviation")
    assert not (workdir / "out").exists()
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


def _csv_bytes(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


def test_the_plan_picks_the_coupled_route_with_or_without_the_flag(
    workdir, monkeypatch
):
    # --symplectic still parses and selects nothing: the plan's coupled
    # group takes the trace formula either way, and the files match
    cfg = workdir / "coupled.cfg"
    cfg.write_text(COUPLED)
    assert main(["distribution", str(cfg), "--symplectic"]) == 0
    flagged = _csv_bytes(workdir / "out")
    assert sorted(flagged) == ["c_cumulative.csv", "c_photons.csv", "c_work.csv"]
    assert main(["distribution", str(cfg)]) == 0
    assert _csv_bytes(workdir / "out") == flagged
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
    # verify runs on the same plan-level G and passes every gate; its
    # double and difference channels move different photon counts per
    # quantum, so no line delta_n = per * m is checked
    pers, verifier = [], cli.verify_fluctuation_theorems

    def recorded(*args, **kwargs):
        pers.append(kwargs["per"])
        return verifier(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_fluctuation_theorems", recorded)
    assert main(["verify", str(cfg)]) == 0
    report = json.loads((workdir / "out" / "c_report.json").read_text())
    assert report["crooks_peakwise_error"] <= 1e-8
    assert pers == [None]
    # the negative control trips the gates
    assert main(["verify", "--perturb", "1e-3", str(cfg)]) == 1
    # the truncated-Fock oracle needs no closed form, so --oracle alone runs
    monkeypatch.setenv("CAVEWORK_N_MAX", "6")
    assert main(["distribution", str(cfg), "--oracle"]) == 0
    lines = (workdir / "out" / "c_work.csv").read_text().strip().split("\n")
    assert lines[-1].startswith("# residual_mass=")
    residual = float(lines[-1].split("=")[1])
    mass = sum(float(line.split(",")[1]) for line in lines[1:-1])
    assert mass + residual == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("beta", ["2", "5"])
def test_the_coupled_group_verifies_in_the_cold_regime(workdir, beta):
    # beta hbar omega = 11 and 33 at beta = 2, 27 and 82 at beta = 5: at
    # u + i beta the weight scales the evolution's rows and columns by up
    # to e^{beta hbar omega}, and the radicand must keep its digits there
    cfg = workdir / "coupled.cfg"
    cfg.write_text(COUPLED.replace("beta = 0.4", f"beta = {beta}"))
    assert main(["verify", str(cfg)]) == 0
    report = json.loads((workdir / "out" / "c_report.json").read_text())
    assert report["jarzynski_abs_error"] <= cli._VERIFY_JARZYNSKI_TOL
    assert report["crooks_max_error"] <= cli._VERIFY_CROOKS_TOL
    assert report["periodicity_max_error"] <= cli._VERIFY_PERIODICITY_TOL
    assert report["normalization_error"] <= cli._VERIFY_NORMALIZATION_TOL


@pytest.mark.parametrize("argv", [
    ["verify"], ["distribution"], ["distribution", "--oracle"],
])
@pytest.mark.parametrize("beta,cause", [
    ("40", "thermal normalization"), ("1e-70", "thermal diagonal"),
])
def test_a_coupled_group_past_float_range_exits_2(workdir, capsys, argv, beta, cause):
    # beta = 40: each mode's beta hbar omega stays within 700, but the
    # group's thermal normalization is e^870, past float range; det
    # overflowed with RuntimeWarnings and the anchor read nan.  beta =
    # 1e-70: the normalization e^-636 is in range, but e^(beta hbar
    # omega) rounds to 1, so the anchor det(U T - U) is exactly 0; verify
    # blamed the branch tracker and --oracle asked for a larger n_max
    cfg = workdir / "coupled.cfg"
    cfg.write_text(COUPLED.replace("beta = 0.4", f"beta = {beta}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], str(cfg), *argv[1:]]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("config error:") and cause in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name,argv", [
    ("open_endpoints", ["verify"]),
    ("open_endpoints", ["distribution", "--oracle"]),
    ("sum_res", ["distribution", "--oracle"]),
    ("sum_res", ["distribution", "--freeze"]),
])
def test_one_lambda_tau_evaluation_per_resonant_mode(workdir, monkeypatch, name, argv):
    # mode_frequency is wrapped under every name it is looked up by; the
    # calls at lambda0 (coupling_strength's) are not counted
    path = str(CONFIGS / f"{name}.cfg")
    cfg = load_config(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # open_endpoints' strained epsilon
        protocol, plan = cli._protocol_and_plan(cfg, cli._spectrum(cfg))
    assert protocol.lambda_tau != protocol.lambda0
    original, lams = cavity.mode_frequency, []

    def counted(geom, pol, mode, lam):
        lams.append(lam)
        return original(geom, pol, mode, lam)

    for module in list(sys.modules.values()):
        if module.__name__.partition(".")[0] == "cavework" and (
            getattr(module, "mode_frequency", None) is original
        ):
            monkeypatch.setattr(module, "mode_frequency", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, path]) == 0
    assert lams.count(protocol.lambda_tau) == len(plan.resonant_modes) > 0


def test_freeze_refusals_build_no_oracle(workdir, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("a refused --freeze run built the Fock oracle")

    # a coupled group is no refusal: its trace formula meets the oracle
    cfg = workdir / "coupled.cfg"
    cfg.write_text(COUPLED)
    assert main(["distribution", str(cfg), "--freeze"]) == 0
    report = json.loads((workdir / "out" / "c_freeze_report.json").read_text())
    assert report["max_marginal_deviation"] < 1e-12
    monkeypatch.setattr(fock, "build_evolution", no_oracle)
    monkeypatch.setenv("CAVEWORK_N_MAX", "6")
    with pytest.warns(UserWarning):
        assert main(
            ["distribution", str(CONFIGS / "open_endpoints.cfg"), "--freeze"]
        ) == 2


def _work_column(path: Path) -> list[str]:
    return [line.split(",")[0] for line in path.read_text().splitlines()]


@pytest.mark.parametrize(
    "name,flags,detuning",
    [
        ("double_res", [], 2e-10),
        ("sum_res", [], 2e-10),
        ("diff_res", [], 2e-10),
        ("double_res", ["--freeze"], 2e-10),
        ("coupled", [], 1e-10),
    ],
    ids=["double", "sum", "difference", "double freeze", "coupled"],
)
def test_a_detuned_numeric_drive_keeps_the_symbolic_lattice(
    workdir, name, flags, detuning
):
    # a numeric omega_drive inside the classifier's 1e-9 tolerance: the
    # comb spaced by hbar Omega, not by the channels' quantum, leaked its
    # tails past the sample budget (exit 1) or wrote shifted w values
    text = COUPLED if name == "coupled" else (CONFIGS / f"{name}.cfg").read_text()
    cfg = workdir / "exact.cfg"
    cfg.write_text(text)
    loaded = load_config(str(cfg))
    omega = resolve_omega_drive(loaded, cli._spectrum(loaded))
    work = Path(loaded.directory) / f"{loaded.prefix}_work.csv"
    assert main(["distribution", str(cfg), *flags]) == 0
    exact = _work_column(work)
    detuned = re.sub(
        r"^omega_drive = .*$", f"omega_drive = {omega * (1.0 + detuning)!r}",
        text, flags=re.M,
    )
    cfg.write_text(detuned)
    assert main(["distribution", str(cfg), *flags]) == 0
    assert _work_column(work) == exact


# two double channels on the modes (0,1,1) and (1,0,1) of a box whose
# transverse sides differ by 1e-11: both lie inside the classifier's
# tolerance, and their quanta differ by 5e-12 relative
OFF_LATTICE = BASE.replace("ly = 1.0", "ly = 1.00000000001").format(
    lx=1.0, cutoff=6.0, epsilon=0.01, drive="2*w(0:1:1)",
    tau=2.0 * math.pi / 8.885765876272304, beta=0.5,
)


# two double channels on the modes (1,0,1) and (0,1,1) of a square box:
# one frequency on separate modes, so every channel moves two photons per
# quantum and the joint law lies on the line delta_n = 2m
DEGENERATE = OFF_LATTICE.replace("ly = 1.00000000001", "ly = 1.0").replace(
    "2*w(0:1:1)", "2*w(1:0:1)"
)


def test_channels_that_share_a_photon_change_relabel_their_photon_law(
    workdir, monkeypatch
):
    cfg = workdir / "degenerate.cfg"
    cfg.write_text(DEGENERATE)
    loaded = load_config(str(cfg))
    protocol, plan = cli._protocol_and_plan(loaded, cli._spectrum(loaded))
    assert [len(g) for g in plan.groups] == [1, 1]
    assert distributions.photons_per_quantum(plan) == 2
    evaluate, spacing, _, _ = charfun.plan_charfun(plan, protocol, loaded.beta)
    work, photons = distributions.extract_channel_marginals(
        lambda u: evaluate(u, 0.0), spacing, 2
    )
    direct = distributions.extract_marginal_photons(lambda v: evaluate(0.0, v))
    assert [dn for dn, _ in photons] == [dn for dn, _ in direct]
    for (dn, p), (_, q) in zip(photons, direct):
        assert abs(p - q) <= 1e-12, dn

    # the CLI writes the relabelled law and inverts no G(0, v)
    def no_inversion(*args, **kwargs):
        raise AssertionError("the photon law was inverted, not relabelled")

    monkeypatch.setattr(cli, "extract_marginal_photons", no_inversion)
    assert main(["distribution", str(cfg)]) == 0
    written = (workdir / "out" / "t_photons.csv").read_text()
    assert written == distributions.marginal_to_csv(photons, "photons")
    # verify checks the line delta_n = 2m and passes every gate
    pers, verifier = [], cli.verify_fluctuation_theorems

    def recorded(*args, **kwargs):
        pers.append(kwargs["per"])
        return verifier(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_fluctuation_theorems", recorded)
    assert main(["verify", str(cfg)]) == 0
    assert pers == [2]


@pytest.mark.parametrize("name", ["open_endpoints", "off_lattice"])
def test_a_plan_without_a_work_lattice_points_to_the_oracle(
    workdir, monkeypatch, capsys, name
):
    # an open protocol, or channels whose quanta differ beyond rounding:
    # the off-lattice plan wrote tails leaked by the wrong spacing
    cfg = workdir / "run.cfg"
    cfg.write_text(
        OFF_LATTICE if name == "off_lattice" else (CONFIGS / f"{name}.cfg").read_text()
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # open_endpoints' strained epsilon
        assert main(["distribution", str(cfg)]) == 2
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("config error:") and err.endswith("Re-run with --oracle")
        assert not (workdir / "out").exists()
        monkeypatch.setenv("CAVEWORK_N_MAX", "6")
        assert main(["distribution", str(cfg), "--oracle"]) == 0


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
    g = charfun._g
    monkeypatch.setattr(
        charfun, "_g",
        lambda p, u, v: g(p, u, v) * (1.0 + 0.01 * (np.cos(v) - 1.0)),
    )
    assert main(["verify", str(CONFIGS / "double_res.cfg")]) == 1
    report = json.loads((workdir / "out/double_res/double_report.json").read_text())
    assert report["periodicity_max_error"] > cli._VERIFY_PERIODICITY_TOL


def test_verify_open_endpoints_config(workdir):
    with pytest.warns(UserWarning):
        assert main(["verify", str(CONFIGS / "open_endpoints.cfg")]) == 0


def test_the_epsilon_warning_names_no_source_line(workdir):
    # stderr as a shell shows it, every warning printed: one line that
    # does not move with the code and carries no install path
    cfg = str(CONFIGS / "open_endpoints.cfg")
    code = (
        "import warnings; from cavework.cli import main; "
        f"warnings.simplefilter('always'); raise SystemExit(main(['verify', {cfg!r}]))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=workdir,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == 0
    assert run.stderr == (
        "cavework:0: UserWarning: epsilon=0.12 strains the first-order expansion\n"
    )


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


@pytest.mark.parametrize(
    "command, config, reason",
    [
        ("verify", "no_channel", "needs a resonance channel, found none"),
        ("moments", "double_res", "needs a [sweep] section with values"),
    ],
    ids=["verify", "moments"],
)
def test_a_refusal_names_the_command(workdir, capsys, command, config, reason):
    cfg = workdir / f"{config}.cfg"
    if config == "no_channel":  # a drive resonant with no mode
        text = (CONFIGS / "double_res.cfg").read_text()
        text = re.sub(r"(?m)^omega_drive = .*$", "omega_drive = 1.0", text)
    else:
        text = (CONFIGS / f"{config}.cfg").read_text()
    cfg.write_text(text)
    assert main([command, str(cfg)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {command} {reason}")
    assert "cmd_" not in line
    assert [p for p in workdir.rglob("*") if p != cfg] == []


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
# hbar = 1e-200 in [protocol] and beta = 1e-200
UNDERFLOW = (
    "\n\n[thermal]\nbeta = 0.225", "\nhbar = 1e-200\n\n[thermal]\nbeta = 1e-200"
)
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
    # beta * hbar * omega underflows to zero: verify died in the grand
    # potential with a traceback, distribution sampled NaN
    "beta=hbar=1e-200": (UNDERFLOW, ["distribution"]),
    "beta=hbar=1e-200 verify": (UNDERFLOW, ["verify"]),
    # a byte that is not UTF-8, in a comment: a UnicodeDecodeError escaped
    "non-UTF-8 byte": (b"# \xff\n", ["spectrum"]),
    "env freeze_tol": ({"CAVEWORK_FREEZE_TOL": "nan"}, ["distribution", "--freeze"]),
    # sinh^2(|g| tau) past float range: verify raised OverflowError
    "tau=1e12 verify": (("tau = 0.7071067811865475", "tau = 1e12"), ["verify"]),
    # 1e-9 * Omega, the resonance tolerance, underflows to 0: ValueError
    "omega_drive=5e-324": (("= 2*w(0:1:1)", "= 5e-324"), ["distribution"]),
    # the u-period 2 pi / (hbar Omega) overflows: the comb sampled NaN up
    # to its budget and exited 1
    "hbar=1e-320": (
        ("\n\n[thermal]\nbeta = 0.225", "\nhbar = 1e-320\n\n[thermal]\nbeta = 1"),
        ["distribution"],
    ),
    "unknown CAVEWORK_LATTICE_COUNT": (
        {"CAVEWORK_LATTICE_COUNT": "256"}, ["distribution"]
    ),
    # the thermal factor sinh^2(beta hbar omega / 2) underflows to 0:
    # the oracle's basis missed the thermal state and exited 1
    "beta=1e-300 oracle": (
        ("beta = 0.225", "beta = 1e-300"), ["distribution", "--oracle"]
    ),
    # sum_res at |g| tau = 300, beta h = 116: sinh^2(g tau) cosh(beta h)
    # overflowed in the closed form, which exited 1 with RuntimeWarnings
    "sum channel 2|g|tau + beta h > 710": (
        [
            ("cutoff = 4.6", "cutoff = 14.3"),
            ("epsilon = 0.01", "epsilon = 0.0033761861855891476"),
            ("= 2*w(0:1:1)", "= w(0:2:1)+w(0:2:4)"),
            ("tau = 0.7071067811865475", "tau = 44721.35954999579"),
            ("beta = 0.225", "beta = 11"),
        ],
        ["verify"],
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
    if isinstance(change, (tuple, list)):
        text = path.read_text()
        for old, new in [change] if isinstance(change, tuple) else change:
            assert old in text  # else the row would test the base config
            text = text.replace(old, new)
        path.write_text(text)
    if isinstance(change, bytes):
        path.write_bytes(path.read_bytes() + change)
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


@pytest.mark.parametrize("name", ["sum_res", "diff_res"])
@pytest.mark.parametrize(
    "key,value", [("tau", None), ("tau", "5e-324"), ("epsilon", "5e-324")],
    ids=["tau deleted", "subnormal tau", "subnormal epsilon"],
)
def test_an_undriven_two_mode_channel_writes_the_point_law(workdir, name, key, value):
    # g tau = 0: the classical rates divided by zero with a traceback;
    # F_classical now stays empty, as F_gauss does for the point law
    text = (CONFIGS / f"{name}.cfg").read_text()
    line = re.search(rf"^{key} = .*\n", text, re.M).group(0)
    cfg = workdir / "run.cfg"
    cfg.write_text(text.replace(line, "" if value is None else f"{key} = {value}\n"))
    assert main(["distribution", str(cfg)]) == 0
    written = {p.name.split("_")[-1]: p.read_text() for p in workdir.rglob("*.csv")}
    assert written == {
        "work.csv": "w,prob\n0,1\n",
        "photons.csv": "delta_n,prob\n0,1\n",
        "cumulative.csv": "w,F_exact,F_gauss,F_classical\n0,1,,\n",
    }


@pytest.mark.parametrize("beta", ["1e-12"])
def test_an_oracle_basis_that_misses_the_thermal_state_exits_1(
    workdir, monkeypatch, capsys, beta
):
    # no peak cleared the 1e-12 floor and CumulativeFit raised "empty
    # marginal"; a thermal underflow (beta = 1e-300) exits 2 instead
    # (INVALID_VALUES)
    monkeypatch.setenv("CAVEWORK_N_MAX", "8")
    cfg = workdir / "run.cfg"
    text = (CONFIGS / "diff_res.cfg").read_text()
    cfg.write_text(re.sub(r"^beta = .*$", f"beta = {beta}", text, flags=re.M))
    assert main(["distribution", "--oracle", str(cfg)]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error:") and "n_max = 8" in err
    assert not (workdir / "out").exists()


def test_output_directory_that_is_a_file_exits_2(workdir, capsys):
    # os.makedirs raised FileExistsError with a traceback
    cfg = write_cfg(workdir, tau=1.0 / math.sqrt(2.0), beta=0.225)
    (workdir / "out").write_text("")
    for command in ("spectrum", "distribution", "verify"):
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "directory out" in err
    assert (workdir / "out").read_text() == ""


@pytest.mark.parametrize("argv", [["spectrum"], ["distribution", "--freeze"]])
@pytest.mark.parametrize("key,value", [("directory", ""), ("prefix", "nosuch/run")])
def test_an_output_path_is_refused_before_any_work(workdir, capsys, argv, key, value):
    # an empty directory ended in a FileNotFoundError traceback from
    # os.makedirs; a prefix through a missing directory did so after the
    # whole computation, and after freeze_report.json under --freeze
    cfg = Path(write_cfg(workdir, tau=1.0 / math.sqrt(2.0), beta=0.225))
    cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", cfg.read_text()))
    assert main([argv[0], str(cfg), *argv[1:]]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: output key '{key}'")
    assert [p for p in workdir.rglob("*") if p != cfg] == []


def test_an_output_directory_that_cannot_be_made_exits_2(workdir, capsys):
    # every OSError of os.makedirs is a config error, not only a file in
    # the way: here a directory name longer than any file system takes
    cfg = Path(write_cfg(workdir))
    long_name = "directory = " + "d" * 300
    cfg.write_text(cfg.read_text().replace("directory = out", long_name))
    assert main(["spectrum", str(cfg)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: [output] directory ddd")
    assert [p for p in workdir.rglob("*") if p != cfg] == []


def test_fock_basis_above_the_cap_exits_2(workdir, monkeypatch, capsys):
    # one mode at n_max = 20000 is one state above the cap; the space is
    # refused from its cutoffs alone, before any array is allocated
    monkeypatch.setenv("CAVEWORK_N_MAX", "20000")
    assert main(["distribution", str(CONFIGS / "double_res.cfg"), "--oracle"]) == 2
    assert "20001" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry",
    [
        "kind = cylindrical\nmoving_wall = longitudinal\nradius = 1.0",
        "kind = cylindrical\nmoving_wall = radial\naxis_length = 1.0",
        "kind = spherical",
        "kind = rectangular\nlx = 1.0\nly = 1.0",
    ],
    ids=["cylinder", "radial-cylinder", "sphere", "box"],
)
def test_a_spectrum_above_the_cap_exits_2_before_any_array(workdir, capsys, geometry):
    # a cutoff of 1e12 would ask for ~1e35 entries: the size estimate
    # refuses it at once, from Python floats, before a root or a grid
    cfg = workdir / "huge.cfg"
    cfg.write_text(
        f"[geometry]\n{geometry}\npolarization = TM\ncutoff = 1e12\n\n"
        "[thermal]\nbeta = 1.0\n"
    )
    for command in ("spectrum", "distribution", "verify"):
        tracemalloc.start()
        try:
            assert main([command, str(cfg)]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (command, peak)
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: the spectrum below cutoff 1e+12")
        assert f"above {cavity._SPECTRUM_CAP}" in line
    assert [p for p in workdir.rglob("*") if p != cfg] == []


def test_the_spectrum_cap_leaves_headroom_over_every_reference_spectrum():
    # the benchmark's curved spectra reach cutoff * size = 40.8 at most
    for name in ("double_res", "sum_res", "diff_res", "cumulative_sum",
                 "open_endpoints", "moments_hot", "moments_cold"):
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        size = cavity._spectrum_size(cfg.geometry, cfg.lambda0, cfg.cutoff)
        assert 100.0 * size <= cavity._SPECTRUM_CAP, name
    reach = 40.8
    for size in (0.8, 1.25):
        for geom in (
            cavity.CylindricalGeometry(cavity.MovingWall.LONGITUDINAL, radius=size),
            cavity.SphericalGeometry(),
        ):
            estimate = cavity._spectrum_size(geom, size, reach / size)
            assert 100.0 * estimate <= cavity._SPECTRUM_CAP, geom


def test_import_loads_no_scipy(workdir):
    # every command, in one interpreter: none of them may load any scipy
    (workdir / "coupled.cfg").write_text(COUPLED)
    runs = [
        ["spectrum", write_cfg(workdir)],
        ["distribution", str(CONFIGS / "double_res.cfg")],
        ["distribution", "coupled.cfg"],
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


def test_symplectic_loads_no_other_cavework_module():
    # the trace formula is a leaf: the coupled group's G is built in
    # charfun, so symplectic reaches no resonance or plan type, and it
    # defers no import to a call
    tree = ast.parse(Path(symplectic.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(n in tree.body for n in imports)
    code = (
        "import sys, cavework.symplectic; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cavework'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["cavework", "cavework.errors", "cavework.symplectic"]


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
