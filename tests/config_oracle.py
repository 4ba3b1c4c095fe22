"""Reference config loader: the INI read on the standard library's parser.

cavework.cli.load_config reads its INI file in one pass of its own
(cli._read_ini).  This is the loader it replaced, verbatim, on
configparser with interpolation off, '#' and ';' inline comments and
strict duplicate checks; the validation after the read is the same.
The two must return equal configs on every file the reference accepts,
and the library reader refuses only what the reference refuses, plus
two inputs: a [DEFAULT] section and text after a header's ']'.
"""

from __future__ import annotations

import configparser
import os

from cavework.cli import (
    _ENV_N_MAX,
    _KNOWN_KEYS,
    RunConfig,
    _build_geometry,
    _get_float,
    _number,
)
from cavework.errors import ConfigError


def load_config_reference(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
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
