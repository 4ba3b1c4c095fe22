"""Shared oracles and the acceptance-criterion reporter.

The helpers here are deliberately independent of the implementation
routes they check: roots come from scipy bracketing, protocols from
hand-picked closure points (tau a multiple of pi/Omega so the boundary
lands exactly on its starting position in floating point).
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
from scipy import optimize, special

from cavework import charfun, cli, distributions, symplectic
from cavework.bessel import BesselKind
from cavework.distributions import CumulativeFit
from cavework.driving import (
    DrivingProtocol,
    ResonanceCase,
    ResonanceKind,
    ResonancePlan,
)
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


def plan_of(cases, end=None, groups=None) -> ResonancePlan:
    """A hand-built plan: one group per case unless groups says otherwise,
    and every mode of the cases starting at its case frequency and ending
    at end[mode] where given, else where it started, in the order of
    classify_resonances (by starting frequency, then index)."""
    start = {m: w for c in cases for m, w in zip(c.modes, (c.omega_k, c.omega_p))}
    end = end or {}
    table = sorted(((m, w, end.get(m, w)) for m, w in start.items()),
                   key=lambda entry: (entry[1], entry[0]))
    if groups is None:
        groups = tuple((i,) for i in range(len(cases)))
    return ResonancePlan(tuple(cases), groups, (), tuple(table))


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


def channel_params(cfg) -> charfun.CharfunParams:
    """The one resonance channel of a run config as a parameter record,
    ending at the plan's lambda(tau) frequencies on an open protocol."""
    protocol, plan = cli._protocol_and_plan(cfg, cli._spectrum(cfg))
    (case,) = plan.cases
    params = charfun.CharfunParams.from_case(case, cfg.beta, protocol.tau, hbar=cfg.hbar)
    if protocol.is_closed:
        return params
    end = {m: w1 for m, _, w1 in plan.resonant_modes}
    return dataclasses.replace(
        params,
        omega_k=(case.omega_k, end[case.k]),
        omega_p=None if case.p is None else (case.omega_p, end[case.p]),
    )


def verify_channel(params: charfun.CharfunParams, perturbation: float = 0.0):
    """The fluctuation-theorem verifier on one channel's record: G from
    charfun._g, looked up at each call so that a test may patch it, the
    endpoint-swapped record as the reverse of an open protocol, its
    grand-potential difference, the channel quantum and its photons per
    quantum."""

    def g_of(record):
        return lambda u, v: charfun._g(record, u, v)

    reverse, dphi = None, 0.0
    if not params.is_closed:
        swapped = [pair[::-1] for pair in params.frequency_pairs()]
        reverse = g_of(dataclasses.replace(
            params, omega_k=swapped[0], omega_p=swapped[1] if params.omega_p else None
        ))
        dphi = charfun.grand_potential_diff(
            params.frequency_pairs(), params.beta, hbar=params.hbar
        )
    return distributions.verify_fluctuation_theorems(
        g_of(params),
        charfun._drive_quantum(params),
        params.beta,
        per=distributions._PHOTONS_PER_QUANTUM[params.variant],
        reverse=reverse,
        dphi=dphi,
        perturbation=perturbation,
    )


def channel_product(records, u, v):
    """G of mode-disjoint channels as the product of their closed forms,
    from 1 + 0j in record order: plan_charfun's arithmetic, also for
    channels that share no work lattice, which plan_charfun refuses."""
    g = 1.0 + 0.0j
    for record in records:
        g = g * charfun._g(record, u, v)
    return g


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
    every sample of the grid evaluated from scratch on its ij meshgrid,
    in blocks of whole rows along the first axis that bound the memory of
    G's temporaries (a grid of up to 2**16 points in one call), then an
    in-place FFT along each axis.  Sample k of m sits at period * k / m,
    as in the inverter."""
    axes = [p * np.arange(m) / m for p, m in zip(periods, counts)]
    coeff = np.empty(counts, dtype=complex)
    rows = max(1, (1 << 16) // math.prod(counts[1:]))
    for lo in range(0, counts[0], rows):
        block = np.meshgrid(axes[0][lo : lo + rows], *axes[1:], indexing="ij")
        coeff[lo : lo + rows] = evaluate(*block)
    for axis in range(coeff.ndim):
        np.fft.fft(coeff, axis=axis, out=coeff)
    coeff /= coeff.size
    return coeff


def outer_tail(coeff: np.ndarray) -> float:
    """Summed |weight| at |index| >= count / 4 on any axis of an
    FFT-ordered comb."""
    tails = [np.abs(np.fft.fftfreq(m, 1.0 / m)) >= m // 4 for m in coeff.shape]
    outer = np.logical_or.reduce(np.meshgrid(*tails, indexing="ij"))
    return float(np.abs(coeff[outer]).sum())


def joint_peaks(evaluate, spacing: float, counts):
    """((m, delta_n) signed indices, complex weights) of a joint law on a
    fixed grid of counts (u, v) samples, with work w = m * spacing;
    evaluate is G(u, v) over arrays.

    The reference for a single channel's joint law, which verify reads
    off the 1-D work inversion on the line delta_n = per * m.
    """
    signed = [np.fft.fftfreq(m, 1.0 / m).astype(int) for m in counts]
    periods = (2.0 * math.pi / spacing, 2.0 * math.pi)
    return signed, reference_comb(evaluate, periods, counts)


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


def channel_marginals_reference(signed, probs, spacing: float, per: int):
    """(P(w), P(delta_n)) of one channel from its work weights, one
    sample at a time: each weight goes to delta_n = per * m, every group
    is summed by math.fsum, and peaks at or below 1e-12 are dropped.
    The reference for distributions.extract_channel_marginals."""

    def floored(labels, ps):
        return sorted((x, float(p)) for x, p in zip(labels, ps) if p > 1e-12)

    by_dn: dict[int, list[float]] = {}
    for m, p in zip(signed.tolist(), probs.tolist()):
        by_dn.setdefault(per * m, []).append(p)
    return (
        floored(signed * spacing, probs),
        floored(by_dn, [math.fsum(ps) for ps in by_dn.values()]),
    )


def merge_close_reference(
    pairs: list[tuple[float, float]], tol: float
) -> list[tuple[float, float]]:
    """(probability-weighted mean w, total prob) of each run of the sorted
    (w, prob) pairs whose neighbours lie within tol of each other, one
    Python loop per run: the oracle's former merge rule, the reference
    for distributions._merge_runs."""
    pairs = sorted(pairs)
    merged: list[tuple[float, float]] = []
    start = 0
    for end in range(1, len(pairs) + 1):
        if end == len(pairs) or pairs[end][0] - pairs[end - 1][0] > tol:
            run = pairs[start:end]
            tot = sum(p for _, p in run)
            merged.append((sum(w * p for w, p in run) / tot, tot))
            start = end
    return merged


def merge_peaks_reference(
    acc: dict[complex, float], tol: float
) -> tuple[tuple[float, int, float], ...]:
    """The oracle's former readout from its unified entries, keyed
    w + 1j * delta_n: merge_close_reference per delta_n, then sort by
    (w, delta_n)."""
    by_dn: dict[int, list[tuple[float, float]]] = {}
    for key, prob in acc.items():
        by_dn.setdefault(int(round(key.imag)), []).append((key.real, prob))
    peaks = [
        (w, dn, p)
        for dn, pairs in by_dn.items()
        for w, p in merge_close_reference(pairs, tol)
    ]
    peaks.sort(key=lambda t: (t[0], t[1]))
    return tuple(peaks)


def marginal_deviation_reference(work, photons, other_work, other_photons, spacing):
    """Largest |delta p| between two routes' marginals by nearest partners:
    each work peak pairs with the other route's nearest work peak within
    1e-6 spacing (a search fenced by +-inf), each photon peak with the
    other's at the same delta_n; a peak with no partner counts against 0.
    The former rule of distributions._marginal_deviation."""
    worst = 0.0
    for mine, other in ((work, other_work), (other_work, work)):
        w, p = np.array(mine, dtype=float).reshape(-1, 2).T
        wo, po = np.array([(-math.inf, 0.0), *other, (math.inf, 0.0)]).T
        right = np.searchsorted(wo, w)
        near = np.where(w - wo[right - 1] <= wo[right] - w, right - 1, right)
        q = np.where(np.abs(wo[near] - w) < 1e-6 * spacing, po[near], 0.0)
        worst = max(worst, float(np.abs(p - q).max(initial=0.0)))
    mine, other = dict(photons), dict(other_photons)
    for dn in mine.keys() | other.keys():
        worst = max(worst, abs(mine.get(dn, 0.0) - other.get(dn, 0.0)))
    return worst
