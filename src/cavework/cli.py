"""Command-line front end: spectra, distributions, verification, moments.

Runs are driven by a plain-text INI config, read in one pass: '[name]'
opens a section, any other line splits at its first '=' or ':' into a
lower-cased key and a value, '#' or ';' at the start of a line or after
whitespace starts a comment, and a line indented deeper than its key
line continues the value.  A repeated section or key, an empty key, a
line with no '=' or ':', and text before the first section or after a
header's ']' exit 2.  All keys are listed here (and in ``cavework
<command> --help``); only the geometry block and the inverse
temperature are required, everything else has defaults.

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

    [sweep]                   # moments only
    variable = beta           # beta | hbar
    values = 0.1 0.2 0.5 1.0

    [output]
    directory = out
    prefix = run

The environment variable CAVEWORK_N_MAX overrides n_max; any other
CAVEWORK_* variable is refused like an unknown key.  Values are checked
where they are parsed, the override included: numbers must be finite;
lambda0, beta, hbar and every sweep value positive; n_max >= 1; the
resonance tolerance 1e-9 * Omega above 0.  The record
charfun.CharfunParams holds the closed forms' float range (beta * hbar
* omega <= 700, no thermal underflow, a finite channel quantum and
u-period, 2 |g| tau + beta |h| <= 710) on every route, --oracle, the
coupled one and each sweep value ('<variable> = <value>: ...')
included, and charfun.moments refuses non-finite work moments.  A
spectrum may take at most 4000000 entries (cavity._SPECTRUM_CAP) by its
size estimate, made before any array: the (nx + 1)(ny + 1)(nz + 1)
frequency grid of a box, (x + 1)^2 (y / pi + 1) for a curved shape, x
the cutoff times its radius and y the cutoff times its axis length (the
radius again for the sphere).  An --oracle / --freeze basis,
(n_max + 1) ** (resonant modes), may hold at most 20000 states
(fock._DIM_CAP).  distribution and verify share one G of the plan
(charfun.plan_charfun) on the channel quantum hbar (omega_k +- omega_p),
hbar * Omega at exact resonance.  Both refuse channels whose quanta
differ by more than 8e-16 times the largest hbar * omega (no common
lattice).  distribution itself refuses an open protocol (lambda(tau) !=
lambda0: no work lattice) before it builds G, both refusals ending in
"Re-run with --oracle".  The plan picks the route: both take a coupled
group, under a closed protocol only, and --symplectic selects nothing.
moments sums the exact means and variances (charfun.moments) of
mode-disjoint channels under a closed protocol; a coupled group exits 2.
Each resonant mode's frequency at lambda(tau), which the records, the
oracle and an open protocol's G and dPhi use, is evaluated once, by
the resonance classifier, into the plan.

Exit codes: 0 success, 1 verification / numerical-gate failure, 2
usage or config error, including every check above.  The numerical
gates include --freeze refusing a closed-form vs oracle deviation above
5e-3 and --oracle refusing a basis too small for any work peak to clear
1e-12: both exit 1.  CSV output is deterministic: 12 significant digits,
'.' decimal separator, '\\n' line endings, fixed ordering.
Inverted probabilities (the prob and F_exact columns) are printed to
12 significant digits or to 1e-14 absolute, whichever is coarser
(distributions.format_prob), and so is the residual_mass tail of
--oracle CSVs.  P(delta_n) is relabelled from the inverted P(w) where
every channel shares one photon change per quantum, else inverted from
G(0, v) (distributions.extract_channel_marginals).
"""

from __future__ import annotations

import argparse
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
    mode_index_str,
    mode_spectrum,
    spectrum_to_csv,
)
from .charfun import (
    classical_alphas,
    classical_work_cdf,
    closed_form,  # noqa: F401  (perfbench/selftest.py traces it under this name)
    moments,
    plan_charfun,
    plan_params,
)
from .distributions import (
    _marginal_deviation,
    cumulative_and_fit,
    cumulative_to_csv,
    extract_channel_marginals,
    format_prob,
    marginal_to_csv,
    photons_per_quantum,
    verify_fluctuation_theorems,
)
from .driving import (
    DrivingProtocol,
    ResonanceKind,
    classify_resonances,
    interaction_generator,
)
from .errors import CaveworkError, ConfigError

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


def _comment_start(line: str) -> int | None:
    """Where an inline comment starts in line, or None.

    A '#' or ';' at the start of the line or after whitespace starts a
    comment.  The search runs in rounds over the n-th occurrence of
    each prefix and stops at the first round in which one qualifies, as
    the standard library's INI parser does: in 'a#b #c ;d' the comment
    starts at ';'.
    """
    starts = {"#": -1, ";": -1}
    while starts:
        found, cut = {}, None
        for prefix, start in starts.items():
            i = line.find(prefix, start + 1)
            if i >= 0:
                found[prefix] = i
                if (i == 0 or line[i - 1].isspace()) and (cut is None or i < cut):
                    cut = i
        if cut is not None:
            return cut
        starts = found
    return None


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    """section -> key -> value of an INI file, in file order."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    def refuse(why: str) -> ConfigError:
        return ConfigError(f"cannot parse {path}: line {n}: {why}")

    sections: dict[str, dict[str, list[str]]] = {}
    name = section = key = None
    indent = 0
    for n, line in enumerate(lines, 1):
        cut = _comment_start(line) if "#" in line or ";" in line else None
        text = line[:cut].strip()
        if not text:  # a blank line, not a comment, is kept inside a value
            if cut is None and key is not None:
                section[key].append("")
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            section[key].append(text)
            continue
        indent = depth
        if text[0] == "[":
            if len(text) < 3 or text[-1] != "]":
                raise refuse(f"not a section header: {text!r}")
            name, key = text[1:-1], None
            if name in sections:
                raise refuse(f"repeated section [{name}]")
            section = sections[name] = {}
            continue
        if section is None:
            raise refuse("text before the first section")
        at = min((i for i in (text.find("="), text.find(":")) if i >= 0), default=-1)
        if at < 0:
            raise refuse(f"no '=' or ':' in {text!r}")
        key = text[:at].rstrip().lower()
        if not key:
            raise refuse("empty key")
        if key in section:
            raise refuse(f"repeated key '{key}' in [{name}]")
        section[key] = [text[at + 1 :].strip()]
    return {
        name: {key: "\n".join(parts).rstrip() for key, parts in section.items()}
        for name, section in sections.items()
    }


def load_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    ini = _read_ini(path)

    for section in ini:
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in ini[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    unknown = [v for v in os.environ if v.startswith("CAVEWORK_") and v != _ENV_N_MAX]
    if unknown:
        raise ConfigError(
            f"unknown environment variable {min(unknown)} (only {_ENV_N_MAX} is read)"
        )

    if "geometry" not in ini:
        raise ConfigError("missing required section [geometry]")
    if "thermal" not in ini or "beta" not in ini["thermal"]:
        raise ConfigError("missing required key 'beta' in [thermal]")

    geom, pol = _build_geometry(ini["geometry"])
    proto = ini.get("protocol", {})
    lambda0 = _get_float(proto, "lambda0", 1.0, positive=True)
    cutoff = _get_float(ini["geometry"], "cutoff", 8.0 / lambda0)

    sweep_var = None
    sweep_vals: tuple[float, ...] = ()
    if "sweep" in ini:
        sweep_var = ini["sweep"].get("variable", "beta").strip().lower()
        if sweep_var not in ("beta", "hbar"):
            raise ConfigError(f"sweep variable must be beta or hbar, got {sweep_var!r}")
        # beta and hbar alike must be positive
        raw = ini["sweep"].get("values", "")
        sweep_vals = tuple(_number("values", tok, positive=True) for tok in raw.split())

    out = ini.get("output", {})
    directory, prefix = out.get("directory", "out"), out.get("prefix", "run")
    if not directory:
        raise ConfigError("output key 'directory' must not be empty")
    if {os.sep, os.altsep} & set(prefix):
        raise ConfigError(f"output key 'prefix' holds a path separator: {prefix!r}")

    numerics = ini.get("numerics", {})
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
        beta=_get_float(ini["thermal"], "beta", positive=True),
        n_max=n_max,
        sweep_variable=sweep_var,
        sweep_values=sweep_vals,
        directory=directory,
        prefix=prefix,
    )


def _resolve_mode_frequency(token: str, cfg: RunConfig, spectrum: list) -> float:
    token = token.strip()
    if token == "lowest":
        return spectrum[0][1]
    try:
        i, j, k = (int(part) for part in token.split(":"))
    except ValueError:  # not three integers
        raise ConfigError(f"bad mode index {token!r} (want i:j:k or lowest)") from None
    for m, w in spectrum:
        if m == (i, j, k):
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
    freq = partial(_resolve_mode_frequency, cfg=cfg, spectrum=spectrum)
    m = re.fullmatch(rf"2\*{w}", expr)
    if m:
        return 2.0 * freq(m.group(1))
    m = re.fullmatch(rf"{w}\+{w}", expr)
    if m:
        return freq(m.group(1)) + freq(m.group(2))
    m = re.fullmatch(rf"{w}-{w}", expr)
    if m:
        diff = freq(m.group(1)) - freq(m.group(2))
        if diff == 0.0:
            raise ConfigError("difference selector resolves to zero frequency")
        return abs(diff)
    m = re.fullmatch(w, expr)
    if m:
        return freq(m.group(1))
    raise ConfigError(
        f"cannot parse omega_drive {cfg.omega_drive_expr!r}; "
        "use a number, 2*w(i:j:k), w(a)+w(b), w(a)-w(b) or w(lowest)"
    )


def _spectrum(cfg: RunConfig) -> list:
    try:
        spec = mode_spectrum(cfg.geometry, cfg.polarization, cfg.lambda0, cfg.cutoff)
    except ValueError as exc:  # the size cap
        raise ConfigError(str(exc)) from None
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
        plan = classify_resonances(spectrum, protocol, cfg.geometry, cfg.polarization)
        plan_params(plan, protocol, cfg.beta)  # the float range, on every route
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return protocol, plan


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _out_prefix(cfg: RunConfig) -> str:
    """<directory>/<prefix>_, the start of every output file's path, with
    the directory made: one call per command, whatever it writes."""
    try:
        os.makedirs(cfg.directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"[output] directory {cfg.directory}: {exc.strerror}"
        ) from None
    return os.path.join(cfg.directory, f"{cfg.prefix}_")


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    spec = _spectrum(cfg)
    path = _out_prefix(cfg) + "spectrum.csv"
    _write(path, spectrum_to_csv(spec, cfg.polarization))
    print(f"wrote {path} ({len(spec)} modes)")
    return 0


def _oracle_joint(cfg: RunConfig, protocol, plan) -> fock.JointDistribution:
    """Truncated-Fock simulation of all resonant modes.  The result
    carries residual_mass and top_shell_leak; the CSVs and
    freeze_report.json write the residual only, since no run record
    holds the leak yet."""
    try:
        space = fock.TruncatedFockSpace(plan.resonant_modes, cfg.n_max)
    except ValueError as exc:  # the basis size cap
        raise ConfigError(str(exc)) from None
    generator = interaction_generator(list(plan.cases), phi=protocol.phi)
    u_matrix = fock.build_evolution(space, generator, protocol)
    return fock.two_point_measurement(space, u_matrix, cfg.beta, hbar=cfg.hbar)


def _write_distribution(
    cfg: RunConfig, work, photons, classical_cdf=None, residual_mass=None,
    freeze_note=None,
) -> None:
    """The work, photon and cumulative CSVs, after freeze_report.json
    where a --freeze run passes its freeze_note.  An oracle run passes
    its residual_mass: each file then ends in a `# residual_mass=` line,
    and the cumulative renormalizes the work peaks to unit mass."""
    out = _out_prefix(cfg)
    if freeze_note is not None:
        _write(
            out + "freeze_report.json",
            json.dumps(freeze_note, indent=2, sort_keys=True) + "\n",
        )
    tail = ""
    if residual_mass is not None:
        tail = f"# residual_mass={format_prob(residual_mass)}\n"
        total = sum(q for _, q in work)
        fit = cumulative_and_fit([(w, p / total) for w, p in work])
    else:
        fit = cumulative_and_fit(work)
    _write(out + "work.csv", marginal_to_csv(work, "work") + tail)
    _write(out + "photons.csv", marginal_to_csv(photons, "photons") + tail)
    _write(out + "cumulative.csv", cumulative_to_csv(fit, classical_cdf) + tail)


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
        work, photons = oracle_dist.marginals()
        if not work:
            raise CaveworkError(
                "no oracle work peak clears 1e-12: the basis at n_max = "
                f"{cfg.n_max} misses the thermal state (residual mass "
                f"{oracle_dist.residual_mass:.3e}); raise n_max"
            )
        _write_distribution(
            cfg, work, photons, residual_mass=oracle_dist.residual_mass
        )
        print(
            f"oracle distributions written "
            f"(residual mass {oracle_dist.residual_mass:.3e})"
        )
        return 0

    if not protocol.is_closed:
        raise ConfigError(
            "the boundary does not return to its start (lambda(tau) != lambda0): "
            "the work support is incommensurate and the closed-form inversion "
            "does not apply.  Re-run with --oracle"
        )
    try:
        evaluate, spacing, _, _ = plan_charfun(plan, protocol, cfg.beta)
    except ValueError as exc:  # channels off one lattice
        raise ConfigError(f"{exc}.  Re-run with --oracle") from None
    work, photons = extract_channel_marginals(
        evaluate, spacing, photons_per_quantum(plan)
    )

    freeze_note = None
    if args.freeze:
        oracle_dist = _oracle_joint(cfg, protocol, plan)
        worst = _marginal_deviation(work, photons, *oracle_dist.marginals(), spacing)
        if worst > _FREEZE_TOL:
            raise CaveworkError(
                f"freeze refused: closed-form vs oracle deviation {worst:.3e} "
                f"exceeds freeze_tol {_FREEZE_TOL:g} "
                f"(residual mass {oracle_dist.residual_mass:.3e}); "
                "raise n_max"
            )
        freeze_note = {
            "max_marginal_deviation": worst,
            "oracle_residual_mass": oracle_dist.residual_mass,
            "n_max": cfg.n_max,
            "freeze_tol": _FREEZE_TOL,
        }
        print(f"oracle agreement {worst:.3e} within freeze_tol; goldens written")

    classical_cdf = None
    if len(plan.cases) == 1 and plan.cases[0].kind is not ResonanceKind.DOUBLE:
        case = plan.cases[0]
        r = case.omega_p / case.omega_k
        g_tau = abs(case.strength) * protocol.tau
        # no finite rates without coupling: F_classical stays empty, as
        # F_gauss does for the point law
        if all(map(math.isfinite, classical_alphas(case.kind, r, g_tau, cfg.beta))):
            classical_cdf = partial(classical_work_cdf, case.kind, r, g_tau, cfg.beta)

    _write_distribution(cfg, work, photons, classical_cdf, freeze_note=freeze_note)
    print(
        f"wrote {len(work)} work peaks / {len(photons)} photon peaks "
        f"under {cfg.directory}/{cfg.prefix}_*.csv"
    )
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    protocol, plan = _protocol_and_plan(cfg, _spectrum(cfg))
    if not plan.cases:  # plan_charfun takes its spacing from a channel
        raise ConfigError("verify needs a resonance channel, found none")
    try:
        evaluate, spacing, reverse, dphi = plan_charfun(plan, protocol, cfg.beta)
    except ValueError as exc:  # an open coupled group, or channels off one lattice
        raise ConfigError(str(exc)) from None
    shift = args.perturb  # the negative control moves the forward and reverse G
    report = verify_fluctuation_theorems(
        lambda u, v: evaluate(u, v) + shift, spacing, cfg.beta,
        per=photons_per_quantum(plan), dphi=dphi,
        reverse=reverse and (lambda u, v: reverse(u, v) + shift),
    )
    path = _out_prefix(cfg) + "report.json"
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
        raise ConfigError("moments needs a [sweep] section with values")
    protocol, plan = _protocol_and_plan(cfg, _spectrum(cfg))
    if not plan.cases:
        raise ConfigError("moments needs a resonance channel, found none")
    for group in plan.groups:
        if len(group) > 1:
            modes = sorted({m for i in group for m in plan.cases[i].modes})
            raise ConfigError(
                "moments takes mode-disjoint channels; the channels on modes "
                f"{', '.join(map(mode_index_str, modes))} form one coupled group"
            )
    if not protocol.is_closed:
        raise ConfigError("moment sweeps assume a closed protocol")
    lines = [f"{cfg.sweep_variable},mean_w,std_w"]
    for val in cfg.sweep_values:
        beta, hbar = (val, cfg.hbar) if cfg.sweep_variable == "beta" else (cfg.beta, val)
        try:
            params = plan_params(plan, dataclasses.replace(protocol, hbar=hbar), beta)
            # independent channels: the cumulants add
            mean, var = map(sum, zip(*map(moments, params)))
        except ValueError as exc:
            raise ConfigError(f"{cfg.sweep_variable} = {val!r}: {exc}") from None
        lines.append(f"{val:.12g},{mean:.12g},{math.sqrt(var):.12g}")
    path = _out_prefix(cfg) + "moments.csv"
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
        help="no effect: the plan picks the route, coupled groups included",
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
