"""Shared oracles and the acceptance-criterion reporter.

The helpers here are deliberately independent of the implementation
routes they check: roots come from scipy bracketing, protocols from
hand-picked closure points (tau a multiple of pi/Omega so the boundary
lands exactly on its starting position in floating point).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import optimize, special

from cavework import charfun, distributions, symplectic
from cavework.bessel import BesselKind
from cavework.distributions import CumulativeFit
from cavework.driving import DrivingProtocol, ResonanceCase, ResonanceKind
from cavework.fock import JointDistribution

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


def same_bits(a, b) -> bool:
    """Whether two float or complex arrays (or scalars) agree in shape,
    dtype and every bit, the signs of zeros included, which
    np.array_equal cannot tell apart."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64),
        )
    )


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
    build_evolution.  It is the dense reference that the oracle's own
    numbers are checked against: its peaks, and the top_shell_leak that
    two_point_measurement reports next to residual_mass."""
    dim = sum(idx.size for idx, _ in op)
    out = np.zeros((dim, dim), dtype=complex)
    for idx, block in op:
        out[np.ix_(idx, idx)] = block
    return out


def charfun_numeric(dist: JointDistribution, u, v):
    """The oracle's G: the sum of prob * exp(i u w + i v dn) over the
    measured peaks, over broadcast u and v; scalar input returns a Python
    complex."""
    w, dn, p = np.array(dist.peaks, dtype=float).reshape(-1, 3).T
    u, v = np.asarray(u)[..., None], np.asarray(v)[..., None]
    g = (p * np.exp(1j * u * w + 1j * v * dn)).sum(axis=-1)
    return complex(g) if g.ndim == 0 else g


def classical_charfun(variant: ResonanceKind, r: float | None, g_tau: float, u_tilde):
    """hbar -> 0 limit of the characteristic function, u_tilde = u/beta.

    u_tilde may be an array; scalar input returns a Python complex.  The
    single-mode root is tracked by symplectic.tracked_sqrt, looked up at
    each call so that a test may wrap it.
    """
    c = charfun._classical_ratio_coeff(variant, r)
    ut = np.asarray(u_tilde, dtype=complex)
    amp = charfun._coupling_amp(variant, g_tau)
    if variant is ResonanceKind.DOUBLE:
        g = 1.0 / symplectic.tracked_sqrt(
            lambda s, ut: 1.0 + c * ((s * ut) ** 2 - 1j * s * ut) * amp,
            (ut,),
            steps=16,
            anchor_tol=1e-12,
        )
    else:
        g = 1.0 / (1.0 + c * (ut * ut - 1j * ut) * amp)
    return complex(g) if g.ndim == 0 else g


def adiabatic_mode_factor(
    omega0: float, omega_tau: float, beta: float, u: complex, hbar: float = 1.0
) -> complex:
    """Thermal average of e^{i u dx n} for an occupation-preserving mode:
    the driving-free limit of charfun.closed_form_general, per mode."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if omega_tau == omega0:
        return 1.0 + 0.0j
    x0 = hbar * omega0
    dx = hbar * (omega_tau - omega0)
    return (1.0 - math.exp(-beta * x0)) / (
        1.0 - cmath.exp(-beta * x0 + 1j * complex(u) * dx)
    )


def drift_removed(params: charfun.CharfunParams, u, v):
    """g_bar = G e^{-i u dPhi}: the open-endpoint G with the free-energy
    drift dPhi taken out, so that Jarzynski reads g_bar(i beta, 0) = 1.
    A Python complex for a single point, else the array."""
    dphi = charfun.grand_potential_diff(
        params.frequency_pairs(), params.beta, hbar=params.hbar
    )
    g = charfun.closed_form_general(params, u, v)
    g_bar = g * np.exp(-1j * np.asarray(u, dtype=complex) * dphi)
    return complex(g_bar) if np.ndim(g_bar) == 0 else g_bar


def classical_work_pdf(
    variant: ResonanceKind, r: float, g_tau: float, beta: float, w
):
    """Two-sided exponential density of classical work (two-mode cases),
    whose cumulative is charfun.classical_work_cdf."""
    ap, am = charfun.classical_alphas(variant, r, g_tau, beta)
    pref = ap * am / (ap - am)
    w = np.asarray(w, dtype=float)
    out = pref * np.where(w >= 0.0, np.exp(ap * w), np.exp(am * w))
    return float(out) if out.ndim == 0 else out


def compare_classical(marginal, classical_cdf) -> float:
    """Kolmogorov-Smirnov distance: step cumulative vs classical cumulative.

    The classical comparison curve is the cumulative of
    classical_work_pdf.  Any CDF is accepted that maps the sorted
    work peaks to its values there, or to one scalar; it is called once.
    A CumulativeFit is taken as it is, anything else as its marginal.
    """
    fit = marginal if isinstance(marginal, CumulativeFit) else CumulativeFit(marginal)
    return fit._sup_distance(classical_cdf)


def reference_comb(evaluate, periods, counts) -> np.ndarray:
    """Complex Fourier weights of a comb with the given sample counts:
    every sample of the grid evaluated from scratch in one call on its
    full ij meshgrid, then one np.fft.fftn.  Sample k of m sits at
    period * k / m, as in the inverter."""
    axes = [p * np.arange(m) / m for p, m in zip(periods, counts)]
    samples = evaluate(*np.meshgrid(*axes, indexing="ij"))
    return np.fft.fftn(samples) / math.prod(counts)


def outer_tail(coeff: np.ndarray) -> float:
    """Summed |weight| at |index| >= count / 4 on any axis of an
    FFT-ordered comb."""
    tails = [np.abs(np.fft.fftfreq(m, 1.0 / m)) >= m // 4 for m in coeff.shape]
    outer = np.logical_or.reduce(np.meshgrid(*tails, indexing="ij"))
    return float(np.abs(coeff[outer]).sum())


def joint_doubling_counts(evaluate, periods, starts, tol: float) -> list[int]:
    """Final sample counts of a comb that doubles every axis together
    until its outer tail is below tol."""
    counts = list(starts)
    while outer_tail(reference_comb(evaluate, periods, counts)) >= tol:
        counts = [2 * m for m in counts]
    return counts


def joint_peaks(evaluate, spacing: float):
    """((m, delta_n) signed indices, weights) of a joint law by one 2-D
    comb, with work w = m * spacing; evaluate is G(u, v) over arrays.

    The reference for a single channel's joint law, which verify reads
    off the 1-D work inversion on the line delta_n = per * m.
    """
    return distributions._adaptive_comb(
        evaluate, (2.0 * math.pi / spacing, 2.0 * math.pi), (64, 64)
    )


def format_prob_reference(p: float) -> str:
    """The per-row print rule of an inverted probability: one math.log10
    per value, 12 significant digits or 1e-14 absolute, whichever is
    coarser.  The reference for distributions.format_probs."""
    if p == 0.0:
        return "0"
    digits = min(12, math.floor(math.log10(abs(p))) + 1 + 14)
    if digits < 1:
        return f"{round(p, 14):.12g}"
    return f"{p:.{digits}g}"


def channel_marginals_reference(signed, probs, spacing: float, kind):
    """(P(w), P(delta_n)) of one channel from its work weights, one
    sample at a time: each weight goes to delta_n = per * m, every group
    is summed by math.fsum, and peaks at or below 1e-12 are dropped.
    The reference for distributions.extract_channel_marginals."""

    def floored(labels, ps):
        return sorted((x, float(p)) for x, p in zip(labels, ps) if p > 1e-12)

    per = distributions._PHOTONS_PER_QUANTUM[kind]
    by_dn: dict[int, list[float]] = {}
    for m, p in zip(signed.tolist(), probs.tolist()):
        by_dn.setdefault(per * m, []).append(p)
    return (
        floored(signed * spacing, probs),
        floored(by_dn, [math.fsum(ps) for ps in by_dn.values()]),
    )
