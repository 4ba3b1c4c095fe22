"""Command-line front end: spectra, distributions, verification, moments.

Runs are driven by a plain-text INI config.  All keys are listed here
(and in ``cavework <command> --help``); only the geometry block and the
inverse temperature are required, everything else has defaults.

::

    [geometry]
    kind = rectangular        # rectangular | cylindrical | spherical
    lx = 1.0                  # rectangular: fixed transverse sides; the
    ly = 1.0                  # driven length along z is protocol lambda0
    moving_wall = longitudinal  # cylindrical: longitudinal | radial
    radius = 1.0              # cylindrical, longitudinal drive
    axis_length = 1.0         # cylindrical, radial drive
    polarization = TE         # TE | TM
    cutoff = 8.0              # spectrum cutoff; default 8 / lambda0

    [protocol]
    lambda0 = 1.0
    epsilon = 0.01
    omega_drive = 2*w(1:1:1)  # number, or a symbolic selector resolved
                              # exactly against the spectrum:
                              # 2*w(i:j:k), w(a)+w(b), w(a)-w(b), w(lowest)
    tau = 0.0
    phi = 0.0
    hbar = 1.0

    [thermal]
    beta = 1.0

    [numerics]
    n_max = 40                # Fock cutoff per mode (--oracle / --freeze)

    [sweep]                   # cmd_moments only
    variable = beta           # beta | hbar
    values = 0.1 0.2 0.5 1.0

    [output]
    directory = out
    prefix = run

The environment variable CAVEWORK_N_MAX overrides n_max; any other
CAVEWORK_* variable is refused like an unknown key.  Values are checked
where they are parsed, the override included: numbers must be finite;
lambda0, beta, hbar and every sweep value positive; n_max >= 1.  The
drive quantum hbar * Omega must be finite, and beta * hbar * omega of
every resonant mode, at both endpoints and at every sweep value, at most
700 (sinh^2 of half of it leaves float range at 709.78), and the work
mean and variance at every sweep value finite.  An --oracle /
--freeze basis, (n_max + 1) ** (resonant modes), may hold at most 20000
states (fock._DIM_CAP).  --freeze refuses a closed-form vs oracle
deviation above 5e-3.

Exit codes: 0 success, 1 verification / numerical-gate failure, 2
usage or config error, including every check above.  CSV output is
deterministic: 12 significant digits, '.' decimal separator, '\\n' line
endings, fixed ordering.
Inverted probabilities (the prob and F_exact columns) are printed to
12 significant digits or to 1e-14 absolute, whichever is coarser
(distributions.format_prob), and so is the residual_mass tail of
--oracle CSVs.  For a single resonance channel P(delta_n) is
relabelled from the inverted P(w).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial

from . import fock
from .cavity import (
    CylindricalGeometry,
    Geometry,
    MovingWall,
    Polarization,
    RectangularGeometry,
    SphericalGeometry,
    mode_frequency,
    mode_spectrum,
    spectrum_to_csv,
)
from .charfun import (
    CharfunParams,
    classical_work_cdf,
    closed_form,  # noqa: F401  (perfbench/selftest.py traces it under this name)
    moments,
    multi_resonance_product,
)
from .distributions import (
    _drive_quantum,
    _marginal_deviation,
    cumulative_and_fit,
    cumulative_to_csv,
    extract_channel_marginals,
    extract_marginal_photons,
    extract_marginal_work,
    format_prob,
    marginal_to_csv,
    verify_fluctuation_theorems,
)
from .driving import (
    DrivingProtocol,
    ResonanceKind,
    classify_resonances,
    group_frequencies,
    interaction_generator,
)
from .errors import CaveworkError, ConfigError
from .symplectic import charfun_general

_KNOWN_KEYS = {
    "geometry": {
        "kind", "lx", "ly", "radius", "axis_length", "moving_wall",
        "polarization", "cutoff",
    },
    "protocol": {"lambda0", "epsilon", "omega_drive", "tau", "phi", "hbar"},
    "thermal": {"beta"},
    "numerics": {"n_max"},
    "sweep": {"variable", "values"},
    "output": {"directory", "prefix"},
}

# the one environment override; any other CAVEWORK_* variable is refused
_ENV_N_MAX = "CAVEWORK_N_MAX"

# --freeze gate: largest closed-form vs oracle marginal deviation
_FREEZE_TOL = 5e-3

# largest beta * hbar * omega of a resonant mode: sinh^2(x / 2) of the
# thermal factors leaves float range at x = 709.78
_MAX_THERMAL_EXPONENT = 700.0

# cmd_verify gates; identities hold to roundoff, so these are generous
_VERIFY_JARZYNSKI_TOL = 1e-10
_VERIFY_CROOKS_TOL = 1e-9
_VERIFY_PERIODICITY_TOL = 1e-8
_VERIFY_NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, parsed and validated."""

    geometry: Geometry
    polarization: Polarization
    cutoff: float
    lambda0: float
    epsilon: float
    omega_drive_expr: str
    tau: float
    phi: float
    hbar: float
    beta: float
    n_max: int
    sweep_variable: str | None
    sweep_values: tuple[float, ...]
    directory: str
    prefix: str


def _number(key: str, raw: str, positive: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': not finite: {raw!r}")
    if positive and value <= 0.0:
        raise ConfigError(f"key '{key}' must be positive, got {raw!r}")
    return value


def _finite_float(raw: str) -> float:
    """A finite float option value; anything else is a usage error (exit 2)."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {raw!r}")
    return value


def _get_float(
    section, key: str, default: float | None = None, positive: bool = False
) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    return _number(key, raw, positive)


def _build_geometry(sec) -> tuple[Geometry, Polarization]:
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("missing required key 'kind' in [geometry]")
    pol_name = sec.get("polarization", "TE").upper()
    try:
        pol = Polarization[pol_name]
    except KeyError:
        raise ConfigError(f"unknown polarization {pol_name!r}") from None
    kind = kind.strip().lower()
    try:
        if kind == "rectangular":
            geom: Geometry = RectangularGeometry(
                lx=_get_float(sec, "lx"), ly=_get_float(sec, "ly")
            )
        elif kind == "cylindrical":
            wall = MovingWall(sec.get("moving_wall", "longitudinal"))
            key = "radius" if wall is MovingWall.LONGITUDINAL else "axis_length"
            geom = CylindricalGeometry(moving_wall=wall, **{key: _get_float(sec, key)})
        elif kind == "spherical":
            geom = SphericalGeometry()
        else:
            raise ConfigError(f"unknown geometry kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return geom, pol


def load_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    unknown = [v for v in os.environ if v.startswith("CAVEWORK_") and v != _ENV_N_MAX]
    if unknown:
        raise ConfigError(
            f"unknown environment variable {min(unknown)} (only {_ENV_N_MAX} is read)"
        )

    if "geometry" not in cp:
        raise ConfigError("missing required section [geometry]")
    if "thermal" not in cp or "beta" not in cp["thermal"]:
        raise ConfigError("missing required key 'beta' in [thermal]")

    geom, pol = _build_geometry(cp["geometry"])
    proto = cp["protocol"] if "protocol" in cp else {}
    lambda0 = _get_float(proto, "lambda0", 1.0, positive=True)
    cutoff = _get_float(cp["geometry"], "cutoff", 8.0 / lambda0)

    sweep_var = None
    sweep_vals: tuple[float, ...] = ()
    if "sweep" in cp:
        sweep_var = cp["sweep"].get("variable", "beta").strip().lower()
        if sweep_var not in ("beta", "hbar"):
            raise ConfigError(f"sweep variable must be beta or hbar, got {sweep_var!r}")
        # beta and hbar alike must be positive
        raw = cp["sweep"].get("values", "")
        sweep_vals = tuple(_number("values", tok, positive=True) for tok in raw.split())

    out = cp["output"] if "output" in cp else {}

    numerics = cp["numerics"] if "numerics" in cp else {}
    raw_n_max = os.environ.get(_ENV_N_MAX, numerics.get("n_max", "40"))
    try:
        n_max = int(raw_n_max)
    except ValueError:
        raise ConfigError(
            f"numerics key 'n_max': not an integer: {raw_n_max!r}"
        ) from None
    if n_max < 1:
        raise ConfigError("numerics key 'n_max' must be at least 1")

    return RunConfig(
        geometry=geom,
        polarization=pol,
        cutoff=cutoff,
        lambda0=lambda0,
        epsilon=_get_float(proto, "epsilon", 0.01),
        omega_drive_expr=proto.get("omega_drive", "2*w(lowest)"),
        tau=_get_float(proto, "tau", 0.0),
        phi=_get_float(proto, "phi", 0.0),
        hbar=_get_float(proto, "hbar", 1.0, positive=True),
        beta=_get_float(cp["thermal"], "beta", positive=True),
        n_max=n_max,
        sweep_variable=sweep_var,
        sweep_values=sweep_vals,
        directory=out.get("directory", "out"),
        prefix=out.get("prefix", "run"),
    )


def _resolve_mode_frequency(token: str, cfg: RunConfig, spectrum: list) -> float:
    token = token.strip()
    if token == "lowest":
        return spectrum[0][1]
    try:
        mode = tuple(int(part) for part in token.split(":"))
    except ValueError:
        raise ConfigError(f"bad mode index {token!r} (want i:j:k or lowest)") from None
    for m, w in spectrum:
        if m == mode:
            return w
    raise ConfigError(
        f"mode {token} is not in the spectrum below cutoff {cfg.cutoff:g}; "
        "raise [geometry] cutoff"
    )


def resolve_omega_drive(cfg: RunConfig, spectrum: list) -> float:
    """Resolve a numeric or symbolic drive frequency exactly.

    Symbolic selectors pick exact spectrum values so the resonance
    classifier sees zero detuning by construction.
    """
    import re

    expr = "".join(cfg.omega_drive_expr.split())
    try:
        return float(expr)
    except ValueError:
        pass
    w = r"w\(([^)]*)\)"
    m = re.fullmatch(rf"2\*{w}", expr)
    if m:
        return 2.0 * _resolve_mode_frequency(m.group(1), cfg, spectrum)
    m = re.fullmatch(rf"{w}\+{w}", expr)
    if m:
        return _resolve_mode_frequency(m.group(1), cfg, spectrum) + (
            _resolve_mode_frequency(m.group(2), cfg, spectrum)
        )
    m = re.fullmatch(rf"{w}-{w}", expr)
    if m:
        diff = _resolve_mode_frequency(m.group(1), cfg, spectrum) - (
            _resolve_mode_frequency(m.group(2), cfg, spectrum)
        )
        if diff == 0.0:
            raise ConfigError("difference selector resolves to zero frequency")
        return abs(diff)
    m = re.fullmatch(w, expr)
    if m:
        return _resolve_mode_frequency(m.group(1), cfg, spectrum)
    raise ConfigError(
        f"cannot parse omega_drive {cfg.omega_drive_expr!r}; "
        "use a number, 2*w(i:j:k), w(a)+w(b), w(a)-w(b) or w(lowest)"
    )


def _spectrum(cfg: RunConfig) -> list:
    spec = mode_spectrum(cfg.geometry, cfg.polarization, cfg.lambda0, cfg.cutoff)
    if not spec:
        raise ConfigError(
            f"no modes below cutoff {cfg.cutoff:g}; raise [geometry] cutoff"
        )
    return spec


def _protocol_and_plan(cfg: RunConfig, spectrum: list):
    omega = resolve_omega_drive(cfg, spectrum)
    try:
        protocol = DrivingProtocol(
            lambda0=cfg.lambda0,
            epsilon=cfg.epsilon,
            omega_drive=omega,
            tau=cfg.tau,
            phi=cfg.phi,
            hbar=cfg.hbar,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    plan = classify_resonances(spectrum, protocol, cfg.geometry, cfg.polarization)
    freqs = [w for case in plan.cases for w in (case.omega_k, case.omega_p) if w]
    if not protocol.is_closed:
        freqs += [w1 for _, _, w1 in _mode_table(cfg, protocol, plan)]
    _check_energies(cfg.beta, cfg.hbar * omega, [cfg.hbar * w for w in freqs])
    return protocol, plan


def _check_energies(beta: float, quantum: float, energies) -> None:
    """Refuse a drive quantum hbar * Omega that is not finite, and beta
    times a resonant mode's energy hbar * omega above
    _MAX_THERMAL_EXPONENT."""
    if not math.isfinite(quantum):
        raise ConfigError(f"drive quantum hbar * Omega = {quantum!r} is not finite")
    exponent = beta * max(energies, default=0.0)
    if not exponent <= _MAX_THERMAL_EXPONENT:  # NaN fails too
        raise ConfigError(
            f"beta * hbar * omega = {exponent:.6g} of a resonant mode exceeds "
            f"{_MAX_THERMAL_EXPONENT:g}; the thermal factors leave float range"
        )


def _mode_table(cfg: RunConfig, protocol: DrivingProtocol, plan) -> list:
    """(mode, omega at lambda0, omega at lambda(tau)) of every resonant
    mode, ordered by starting frequency; the plan holds the first."""
    lam = protocol.lambda_tau
    table = [
        (m, w0, mode_frequency(cfg.geometry, cfg.polarization, m, lam))
        for m, w0 in group_frequencies(list(plan.cases)).items()
    ]
    return sorted(table, key=lambda entry: (entry[1], entry[0]))


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _out_path(cfg: RunConfig, suffix: str) -> str:
    os.makedirs(cfg.directory, exist_ok=True)
    return os.path.join(cfg.directory, f"{cfg.prefix}_{suffix}")


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    spec = _spectrum(cfg)
    path = _out_path(cfg, "spectrum.csv")
    _write(path, spectrum_to_csv(spec, cfg.polarization))
    print(f"wrote {path} ({len(spec)} modes)")
    return 0


def _closed_evaluator(cfg: RunConfig, protocol, plan):
    """(G(u, v) over broadcast arrays, work spacing) for a closed boundary
    protocol: the closed forms of the mode-disjoint cases times the trace
    formula of each coupled group."""
    groups = plan.case_groups()
    singletons = [group[0] for group in groups if len(group) == 1]
    coupled_groups = [group for group in groups if len(group) > 1]
    params = [
        CharfunParams.from_case(case, cfg.beta, protocol.tau, hbar=cfg.hbar)
        for case in singletons
    ]

    def evaluate(u, v):
        g = multi_resonance_product(singletons, params, u, v)
        for group in coupled_groups:
            g = g * charfun_general(group, protocol, cfg.beta, u, v)
        return g

    # every resonance channel under one drive exchanges the quantum hbar Omega
    return evaluate, cfg.hbar * protocol.omega_drive


def _oracle_joint(cfg: RunConfig, protocol, plan) -> fock.JointDistribution:
    """Truncated-Fock simulation of all resonant modes.  The result
    carries residual_mass and top_shell_leak; the CSVs and
    freeze_report.json write the residual only, since no run record
    holds the leak yet."""
    try:
        space = fock.TruncatedFockSpace(_mode_table(cfg, protocol, plan), cfg.n_max)
    except ValueError as exc:  # the basis size cap
        raise ConfigError(str(exc)) from None
    generator = interaction_generator(list(plan.cases), phi=protocol.phi)
    u_matrix = fock.build_evolution(space, generator, protocol)
    return fock.two_point_measurement(space, u_matrix, cfg.beta, hbar=cfg.hbar)


def _write_distribution(
    cfg: RunConfig, work, photons, classical_cdf=None, residual_mass=None
) -> None:
    """The work, photon and cumulative CSVs.  An oracle run passes its
    residual_mass: each file then ends in a `# residual_mass=` line, and
    the cumulative renormalizes the work peaks to unit mass."""
    tail = ""
    if residual_mass is not None:
        tail = f"# residual_mass={format_prob(residual_mass)}\n"
        total = sum(q for _, q in work)
        fit = cumulative_and_fit([(w, p / total) for w, p in work])
    else:
        fit = cumulative_and_fit(work)
    _write(_out_path(cfg, "work.csv"), marginal_to_csv(work, "work") + tail)
    _write(_out_path(cfg, "photons.csv"), marginal_to_csv(photons, "photons") + tail)
    _write(
        _out_path(cfg, "cumulative.csv"), cumulative_to_csv(fit, classical_cdf) + tail
    )


def cmd_distribution(args) -> int:
    cfg = load_config(args.config)
    protocol, plan = _protocol_and_plan(cfg, _spectrum(cfg))

    if not plan.cases:
        if not args.adiabatic_ok:
            raise ConfigError(
                "the drive is resonant with no mode below the cutoff; all "
                "dynamics is adiabatic (pass --adiabatic-ok for the trivial "
                "point distribution, or adjust omega_drive)"
            )
        if not protocol.is_closed:
            raise ConfigError(
                "open-endpoint adiabatic statistics need the Fock route; "
                "no resonant modes were found to simulate"
            )
        _write_distribution(cfg, [(0.0, 1.0)], [(0, 1.0)])
        print("adiabatic protocol: point distribution written")
        return 0

    if args.oracle and not args.freeze:
        oracle_dist = _oracle_joint(cfg, protocol, plan)
        _write_distribution(
            cfg, *oracle_dist.marginals(), residual_mass=oracle_dist.residual_mass
        )
        print(
            f"oracle distributions written "
            f"(residual mass {oracle_dist.residual_mass:.3e})"
        )
        return 0

    if not args.symplectic and any(len(g) > 1 for g in plan.case_groups()):
        raise ConfigError(
            "resonance channels share modes (coupled group); the factorized "
            "closed forms do not apply.  Re-run with --symplectic to use the "
            "homotopy engine, or --oracle for the truncated-Fock simulation"
        )

    if not protocol.is_closed:
        raise ConfigError(
            "the boundary does not return to its start (lambda(tau) != "
            "lambda0): the work support is incommensurate and the closed-"
            "form inversion does not apply.  Re-run with --oracle"
        )

    evaluate, spacing = _closed_evaluator(cfg, protocol, plan)
    if len(plan.cases) == 1:
        work, photons = extract_channel_marginals(
            lambda u: evaluate(u, 0.0), spacing, plan.cases[0].kind
        )
    else:
        work = extract_marginal_work(lambda u: evaluate(u, 0.0), spacing)
        photons = extract_marginal_photons(lambda v: evaluate(0.0, v))

    if args.freeze:
        oracle_dist = _oracle_joint(cfg, protocol, plan)
        worst = _marginal_deviation(work, photons, *oracle_dist.marginals(), spacing)
        if worst > _FREEZE_TOL:
            print(
                f"freeze refused: closed-form vs oracle deviation {worst:.3e} "
                f"exceeds freeze_tol {_FREEZE_TOL:g} "
                f"(residual mass {oracle_dist.residual_mass:.3e}); "
                "raise n_max",
                file=sys.stderr,
            )
            return 1
        freeze_note = {
            "max_marginal_deviation": worst,
            "oracle_residual_mass": oracle_dist.residual_mass,
            "n_max": cfg.n_max,
            "freeze_tol": _FREEZE_TOL,
        }
        _write(
            _out_path(cfg, "freeze_report.json"),
            json.dumps(freeze_note, indent=2, sort_keys=True) + "\n",
        )
        print(f"oracle agreement {worst:.3e} within freeze_tol; goldens written")

    classical_cdf = None
    if len(plan.cases) == 1 and plan.cases[0].kind is not ResonanceKind.DOUBLE:
        case = plan.cases[0]
        r = case.omega_p / case.omega_k
        g_tau = abs(case.strength) * protocol.tau
        classical_cdf = partial(classical_work_cdf, case.kind, r, g_tau, cfg.beta)

    _write_distribution(cfg, work, photons, classical_cdf)
    print(
        f"wrote {len(work)} work peaks / {len(photons)} photon peaks "
        f"under {cfg.directory}/{cfg.prefix}_*.csv"
    )
    return 0


def _single_channel(cfg: RunConfig, command: str) -> CharfunParams:
    """Parameters of the one resonance channel a command handles, with
    the final frequencies of an open protocol."""
    protocol, plan = _protocol_and_plan(cfg, _spectrum(cfg))
    if len(plan.cases) != 1:
        raise ConfigError(
            f"{command} handles exactly one resonance channel, found "
            f"{len(plan.cases)}; the multi-resonance identities are covered "
            "by the library test suite"
        )
    fin = None
    if not protocol.is_closed:
        fin = {m: w1 for m, _, w1 in _mode_table(cfg, protocol, plan)}
    return CharfunParams.from_case(
        plan.cases[0], cfg.beta, protocol.tau, hbar=cfg.hbar, final_frequencies=fin
    )


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    params = _single_channel(cfg, "cmd_verify")
    report = verify_fluctuation_theorems(params, perturbation=args.perturb)
    path = _out_path(cfg, "report.json")
    _write(path, report.to_json())
    checks = [
        ("jarzynski", report.jarzynski_abs_error, _VERIFY_JARZYNSKI_TOL),
        ("crooks", report.crooks_max_error, _VERIFY_CROOKS_TOL),
        ("periodicity", report.periodicity_max_error, _VERIFY_PERIODICITY_TOL),
        ("normalization", report.normalization_error, _VERIFY_NORMALIZATION_TOL),
    ]
    ok = True
    for name, err, tol in checks:
        state = "pass" if err <= tol else "FAIL"
        ok = ok and err <= tol
        print(f"{name:14s} {err:.3e} (tol {tol:g}) {state}")
    print(f"report: {path}")
    return 0 if ok else 1


def cmd_moments(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep_variable is None or not cfg.sweep_values:
        raise ConfigError("cmd_moments needs a [sweep] section with values")
    base = _single_channel(cfg, "cmd_moments")
    if not base.is_closed:
        raise ConfigError("moment sweeps assume a closed protocol")
    freqs = [w for pair in base.frequency_pairs() for w in pair]
    lines = [f"{cfg.sweep_variable},mean_w,std_w"]
    for val in cfg.sweep_values:
        params = dataclasses.replace(base, **{cfg.sweep_variable: val})
        energies = [params.hbar * w for w in freqs]
        _check_energies(params.beta, _drive_quantum(params), energies)
        mean, var = moments(params)
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise ConfigError(
                f"{cfg.sweep_variable} = {val!r}: the work moments leave float range"
            )
        lines.append(f"{val:.12g},{mean:.12g},{math.sqrt(var):.12g}")
    path = _out_path(cfg, "moments.csv")
    _write(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(cfg.sweep_values)} sweep points)")
    return 0


@cache  # built on first use, once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavework",
        description=(
            "Exact work and photon statistics for a cavity field driven by "
            "an oscillating boundary."
        ),
        epilog="Config format and all keys: see the cavework.cli module help.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="write the mode spectrum CSV")
    p.add_argument("config")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "distribution", help="extract P(w), P(delta_n) and the cumulative triple"
    )
    p.add_argument("config")
    p.add_argument(
        "--oracle", action="store_true",
        help="use the truncated-Fock simulation instead of closed forms",
    )
    p.add_argument(
        "--symplectic", action="store_true",
        help="allow coupled resonance groups via the homotopy engine",
    )
    p.add_argument(
        "--adiabatic-ok", action="store_true",
        help="accept a drive resonant with no mode (trivial distribution)",
    )
    p.add_argument(
        "--freeze", action="store_true",
        help="golden-file mode: verify closed forms against the oracle "
             f"within {_FREEZE_TOL:g} before writing",
    )
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("verify", help="run the fluctuation-theorem checks")
    p.add_argument("config")
    p.add_argument(
        "--perturb", type=_finite_float, default=0.0,
        help="negative-control hook: add this constant to every G evaluation",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moments", help="sweep <w>, sigma_w over beta or hbar")
    p.add_argument("config")
    p.set_defaults(func=cmd_moments)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CaveworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
