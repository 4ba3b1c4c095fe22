"""Shared oracles and the acceptance-criterion reporter.

The helpers here are deliberately independent of the implementation
routes they check: roots come from scipy bracketing, protocols from
hand-picked closure points (tau a multiple of pi/Omega so the boundary
lands exactly on its starting position in floating point).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

from cavework.bessel import BesselKind
from cavework.driving import DrivingProtocol, ResonanceCase, ResonanceKind

# ---------------------------------------------------------------- criteria

_CRITERION_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    """Store one acceptance-criterion verdict for the terminal summary."""
    _CRITERION_LINES.append(
        (num, f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


# ---------------------------------------------------------------- oracles


def scipy_root_oracle(kind: BesselKind, order: int, index: int) -> float:
    """index-th positive root by sign-change scan plus brentq refinement.

    Shares nothing with cavework.bessel: evaluation is scipy's, the
    bracketing is a plain grid walk.
    """
    if kind is BesselKind.CYL_J:
        f = lambda x: special.jv(order, x)  # noqa: E731
    elif kind is BesselKind.CYL_J_PRIME:
        f = lambda x: special.jvp(order, x)  # noqa: E731
    elif kind is BesselKind.SPH_J:
        f = lambda x: special.spherical_jn(order, x)  # noqa: E731
    else:  # d/dx [x j_l(x)]
        f = lambda x: special.spherical_jn(order, x) + x * special.spherical_jn(  # noqa: E731
            order, x, derivative=True
        )
    step = 0.02
    x = max(step, 1e-6)
    prev = f(x)
    found = 0
    while x < 400.0:
        nxt = f(x + step)
        if prev == 0.0:
            found += 1
            if found == index:
                return x
        elif prev * nxt < 0.0:
            found += 1
            if found == index:
                return float(optimize.brentq(f, x, x + step, xtol=1e-14, rtol=8.9e-16))
        x += step
        prev = nxt
    raise AssertionError(f"oracle never bracketed root {kind} {order} {index}")


def closed_protocol(omega_drive: float, half_periods: int = 2, epsilon: float = 0.01,
                    hbar: float = 1.0) -> DrivingProtocol:
    """Protocol whose boundary returns exactly: tau = n pi / Omega, phi = 0."""
    return DrivingProtocol(
        lambda0=1.0,
        epsilon=epsilon,
        omega_drive=omega_drive,
        tau=half_periods * math.pi / omega_drive,
        phi=0.0,
        hbar=hbar,
    )


def synthetic_case(kind: ResonanceKind, omega_k: float, omega_p: float | None,
                   g_tau: float, tau: float) -> ResonanceCase:
    """ResonanceCase carrying a prescribed g*tau, detached from any cavity."""
    k = (0, 0, 1)
    p = None if omega_p is None else (0, 0, 2)
    return ResonanceCase(kind, k, p, omega_k, omega_p, g_tau / tau, 0.0)


def to_dense(op) -> np.ndarray:
    """The dim x dim array of a Fock-oracle operator given as its
    (basis indices, block) pairs: V from quadratic_operator or U from
    build_evolution."""
    dim = sum(idx.size for idx, _ in op)
    out = np.zeros((dim, dim), dtype=complex)
    for idx, block in op:
        out[np.ix_(idx, idx)] = block
    return out
