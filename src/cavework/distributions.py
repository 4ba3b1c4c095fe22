"""Inversion of characteristic functions into discrete distributions.

The work support under a periodic drive is a delta comb on integer
multiples of the drive quantum, so inversion is an exact discrete
Fourier sum, not a quadrature: sampling G on one u-period and applying
an FFT returns the peak weights directly.  The number of samples is
doubled until the outer half of the lattice carries negligible mass.
One N-dimensional inverter does this for P(w), P(delta_n) and their
joint law.  Every characteristic function handed to it evaluates
elementwise over coordinate arrays; the inverter samples it in blocks
of at most _BLOCK points.

Also here: cumulative step functions with Gaussian fits, the
Kolmogorov-Smirnov comparison against the classical work law, and the
fluctuation-theorem verifier that exercises the Jarzynski and Crooks
identities through two independent routes each.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .charfun import (
    CharfunParams,
    _g,
    closed_form,  # noqa: F401  (perfbench/selftest.py traces it under this name)
    grand_potential_diff,
)
from .driving import ResonanceKind
from .errors import InversionError

__all__ = [
    "CumulativeFit",
    "VerificationReport",
    "WorkLattice",
    "compare_classical",
    "cumulative_and_fit",
    "cumulative_to_csv",
    "extract_channel_marginals",
    "extract_marginal_photons",
    "extract_marginal_work",
    "format_prob",
    "marginal_to_csv",
    "verify_fluctuation_theorems",
]

_TAIL_TOL = 1e-10
_IMAG_TOL = 1e-10
_NEG_TOL = -1e-10
_PEAK_FLOOR = 1e-12
_MAX_SAMPLES = 1 << 16  # per axis
_MAX_TOTAL = 1 << 20
# G is sampled in blocks of at most this many points (whole rows along
# the first axis), which bounds the memory of an array evaluation
_BLOCK = 1 << 14
# Inverted weights are printed to 12 significant digits or to
# 10**-_PROB_DECIMALS absolute, whichever is coarser.  The Fourier
# weights carry a few 1e-17 of absolute roundoff (FFT summation order
# and per-sample libm), so finer digits of a tail peak are noise that
# differs between hosts.
_PROB_DECIMALS = 14


@dataclass(frozen=True)
class WorkLattice:
    """Discrete support of P(w): w = m * spacing.

    spacing is the drive quantum (times hbar) for a boundary returning
    to its start.  count seeds the number of Fourier samples and grows
    adaptively.
    """

    spacing: float
    count: int = 256

    def __post_init__(self) -> None:
        if self.spacing <= 0.0:
            raise ValueError("lattice spacing must be positive")
        if self.count < 8:
            raise ValueError("sample count too small to resolve a comb")


def _next_pow2(n: int) -> int:
    m = 8
    while m < n:
        m *= 2
    return m


def _adaptive_comb(
    evaluate: Callable[..., np.ndarray],
    periods: Sequence[float],
    starts: Sequence[int],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Signed lattice indices per axis and validated weights of an N-D comb.

    evaluate takes one coordinate array per axis (an ij-meshgrid block of
    whole rows along the first axis) and returns G elementwise; it is
    sampled on one period of each axis.  Every axis doubles its sample
    count until the weights at |index| >= count / 4 on any axis sum
    below _TAIL_TOL, within a budget of _MAX_SAMPLES per axis and
    _MAX_TOTAL in all.
    """
    counts = [_next_pow2(s) for s in starts]
    while max(counts) <= _MAX_SAMPLES and math.prod(counts) <= _MAX_TOTAL:
        axes = [p * np.arange(m) / m for p, m in zip(periods, counts)]
        samples = np.empty(counts, dtype=complex)
        rows = max(1, _BLOCK // math.prod(counts[1:]))
        for lo in range(0, counts[0], rows):
            block = np.meshgrid(axes[0][lo : lo + rows], *axes[1:], indexing="ij")
            samples[lo : lo + rows] = evaluate(*block)
        coeff = np.fft.fftn(samples) / math.prod(counts)
        # lattice index of each FFT slot: 0..m/2-1, then -m/2..-1
        signed = [np.fft.fftfreq(m, 1.0 / m).astype(int) for m in counts]
        tails = [np.abs(s) >= len(s) // 4 for s in signed]
        outer = np.logical_or.reduce(np.meshgrid(*tails, indexing="ij"))
        if float(np.abs(coeff[outer]).sum()) < _TAIL_TOL:
            return signed, _validated_probs(coeff)
        counts = [2 * m for m in counts]
    raise InversionError(
        "comb weights did not decay within the sample budget; "
        "the distribution tail is too heavy for this lattice"
    )


def _validated_probs(coeff: np.ndarray) -> np.ndarray:
    worst_imag = float(np.abs(coeff.imag).max())
    if worst_imag > _IMAG_TOL:
        raise InversionError(
            f"inversion weights have imaginary part {worst_imag:.3e}"
        )
    probs = coeff.real
    if float(probs.min()) < _NEG_TOL:
        raise InversionError(
            f"negative probability {probs.min():.3e} after inversion; "
            "this signals a branch error in the characteristic function"
        )
    return np.clip(probs, 0.0, None)


def _floored_peaks(labels, probs) -> list[tuple]:
    peaks = [(x, float(p)) for x, p in zip(labels, probs) if p > _PEAK_FLOOR]
    peaks.sort()
    return peaks


def _work_weights(
    charfun_eval: Callable[[np.ndarray], np.ndarray], lattice: WorkLattice
) -> tuple[np.ndarray, np.ndarray]:
    """Signed lattice indices and validated weights of P(w)."""
    period = 2.0 * math.pi / lattice.spacing
    u = np.array([0.13, 0.41, 0.77]) * period
    a, b = charfun_eval(u + period), charfun_eval(u)
    if (np.abs(a - b) > 1e-8 * np.maximum(1.0, np.abs(b))).any():
        raise InversionError(
            "characteristic function is not periodic on this lattice "
            "(incommensurate work support); use the Fock simulation"
        )
    (signed,), probs = _adaptive_comb(charfun_eval, (period,), (lattice.count,))
    return signed, probs


def extract_marginal_work(
    charfun_eval: Callable[[np.ndarray], np.ndarray], lattice: WorkLattice
) -> list[tuple[float, float]]:
    """Peak weights of P(w) on the lattice by exact Fourier inversion.

    Asserts u-periodicity first: an aperiodic G means the support is not
    this comb (unequal endpoint positions), where the truncated-Fock
    simulation is the appropriate tool.
    """
    signed, probs = _work_weights(charfun_eval, lattice)
    return _floored_peaks(signed * lattice.spacing, probs)


def extract_marginal_photons(
    charfun_eval: Callable[[np.ndarray], np.ndarray],
) -> list[tuple[int, float]]:
    """Weights of P(delta_n) from G(0, v); the v-period is exactly 2 pi."""
    (signed,), probs = _adaptive_comb(charfun_eval, (2.0 * math.pi,), (64,))
    return _floored_peaks(signed.tolist(), probs)


# photon-number change per drive quantum of work, for one channel
_PHOTONS_PER_QUANTUM = {
    ResonanceKind.DOUBLE: 2,
    ResonanceKind.SUM: 2,
    ResonanceKind.DIFFERENCE: 0,
}


def extract_channel_marginals(
    charfun_eval: Callable[[np.ndarray], np.ndarray],
    lattice: WorkLattice,
    kind: ResonanceKind,
) -> tuple[list[tuple[float, float]], list[tuple[int, float]]]:
    """P(w) and P(delta_n) of a single resonance channel from one inversion.

    Each drive quantum w = lattice.spacing of work creates a photon pair
    (squeezing, two-mode squeezing) or moves one photon between the two
    modes (beam splitter), so delta_n = 2m or 0 exactly at w = m *
    spacing.  P(delta_n) is that relabelling of the P(w) weights, summed
    before the peak floor, so the two marginals cannot disagree about
    the same event.
    """
    signed, probs = _work_weights(charfun_eval, lattice)
    work = _floored_peaks(signed * lattice.spacing, probs)
    per = _PHOTONS_PER_QUANTUM[kind]
    by_dn: dict[int, list[float]] = {}
    for m, p in zip(signed.tolist(), probs.tolist()):
        by_dn.setdefault(per * m, []).append(p)
    photons = _floored_peaks(by_dn, [math.fsum(ps) for ps in by_dn.values()])
    return work, photons


class CumulativeFit:
    """Step cumulative of a work marginal plus a matched Gaussian.

    The cumulative is the running sum of peak weights from the left
    (per-curve constant apart from the from-zero plotting convention).
    A zero-variance marginal skips the fit; the reported sup-distance is
    then the degenerate-limit value 1/2.
    """

    def __init__(self, marginal: Sequence[tuple[float, float]]):
        if not marginal:
            raise ValueError("empty marginal")
        total = sum(p for _, p in marginal)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"marginal is not normalized (sum {total!r})")
        self.peaks = sorted((float(w), float(p)) for w, p in marginal)
        ws = np.array([w for w, _ in self.peaks])
        ps = np.array([p for _, p in self.peaks])
        self._ws = ws
        self._cum = np.cumsum(ps)
        self.mean = float(ws @ ps)
        var = float(((ws - self.mean) ** 2) @ ps)
        self.stddev = math.sqrt(max(var, 0.0))
        self.fit_skipped = self.stddev == 0.0
        self.sup_distance = self._sup_distance(self.gaussian_cdf)

    def exact_cdf(self, w) -> np.ndarray | float:
        w = np.asarray(w, dtype=float)
        idx = np.searchsorted(self._ws, w, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def gaussian_cdf(self, w) -> np.ndarray | float:
        w = np.asarray(w, dtype=float)
        if self.fit_skipped:
            out = np.where(
                w < self.mean, 0.0, np.where(w > self.mean, 1.0, 0.5)
            )
        else:
            z = (w - self.mean) / (self.stddev * math.sqrt(2.0))
            out = 0.5 * (1.0 + np.vectorize(math.erf)(z))
        return float(out) if out.ndim == 0 else out

    def _sup_distance(self, cdf: Callable[[float], float]) -> float:
        """Largest gap between the step cumulative and cdf, taken on both
        sides of every step."""
        worst = 0.0
        below = 0.0
        for (w, _), after in zip(self.peaks, self._cum):
            c = float(cdf(w))
            worst = max(worst, abs(after - c), abs(below - c))
            below = float(after)
        return worst


def cumulative_and_fit(marginal: Sequence[tuple[float, float]]) -> CumulativeFit:
    return CumulativeFit(marginal)


def compare_classical(
    marginal: Sequence[tuple[float, float]],
    classical_cdf: Callable[[float], float],
) -> float:
    """Kolmogorov-Smirnov distance: step cumulative vs classical cumulative.

    The classical comparison curve is the cumulative of
    charfun.classical_work_pdf (any callable CDF is accepted).
    """
    fit = marginal if isinstance(marginal, CumulativeFit) else CumulativeFit(marginal)
    return fit._sup_distance(classical_cdf)


def _marginal_deviation(work, photons, other_work, other_photons, spacing) -> float:
    """Largest |delta p| between two routes' (P(w), P(delta_n)), each
    sorted (value, prob) peaks, over the union of their peaks.

    A work peak pairs with the other route's nearest work peak within
    1e-6 spacing, a photon peak with the other's at the same delta_n; a
    peak with no partner counts against 0.
    """
    worst = 0.0
    for mine, other in ((work, other_work), (other_work, work)):
        w, p = np.array(mine, dtype=float).reshape(-1, 2).T
        # fenced by +-inf, every w has a neighbour on each side
        wo, po = np.array([(-math.inf, 0.0), *other, (math.inf, 0.0)]).T
        right = np.searchsorted(wo, w)
        near = np.where(w - wo[right - 1] <= wo[right] - w, right - 1, right)
        q = np.where(np.abs(wo[near] - w) < 1e-6 * spacing, po[near], 0.0)
        worst = max(worst, float(np.abs(p - q).max(initial=0.0)))
    mine, other = dict(photons), dict(other_photons)
    for dn in mine.keys() | other.keys():
        worst = max(worst, abs(mine.get(dn, 0.0) - other.get(dn, 0.0)))
    return worst


@dataclass(frozen=True)
class VerificationReport:
    """Measured errors of the fluctuation-theorem identities.

    crooks_max_error is the pointwise grid identity; the peakwise ratio
    check on inverted distributions and the direct exponential-average
    route are reported separately because their floating-point
    conditioning differs (the e^{beta |w|} tilt amplifies inversion
    roundoff; see jarzynski_direct_error).  None marks a route that does
    not apply (open endpoints have no single work lattice).
    """

    jarzynski_lhs: float
    jarzynski_rhs: float
    jarzynski_abs_error: float
    jarzynski_direct_error: float | None
    crooks_max_error: float
    crooks_peakwise_error: float | None
    periodicity_max_error: float
    normalization_error: float

    def worst(self) -> float:
        vals = [
            self.jarzynski_abs_error,
            self.crooks_max_error,
            self.periodicity_max_error,
            self.normalization_error,
        ]
        return max(vals)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _drive_quantum(params: CharfunParams) -> float:
    """Energy spacing of the work lattice, hbar * Omega."""
    wk = params.omega_k[0]
    if params.variant is ResonanceKind.DOUBLE:
        return params.hbar * 2.0 * wk
    wp = params.omega_p[0]
    if params.variant is ResonanceKind.SUM:
        return params.hbar * (wk + wp)
    return params.hbar * abs(wk - wp)


def _reversed_params(params: CharfunParams) -> CharfunParams:
    """The reverse protocol: each endpoint-frequency pair interchanged."""
    return replace(
        params,
        omega_k=params.omega_k[::-1],
        omega_p=None if params.omega_p is None else params.omega_p[::-1],
    )


def _direct_exponential_average(
    signed: np.ndarray, probs: np.ndarray, spacing: float, beta: float
) -> float:
    """Sum p(w) e^{-beta w} over the inverted work weights, noise-aware.

    The tilt amplifies the absolute roundoff of the Fourier weights by
    e^{beta |w|} on the negative-work side, so terms are accumulated
    only while the weights sit above the inversion noise floor and still
    decay; the result is exact to ~1e-12 for weak driving and degrades
    gracefully (never diverges) when the tilted tail outruns f64.
    """
    weights = dict(zip(signed.tolist(), probs.tolist()))
    half = max(abs(m) for m in weights)
    total = weights[0]
    for m in range(1, half + 1):
        p = weights.get(m, 0.0)
        if p > _NOISE_FLOOR:
            total += p * math.exp(-beta * m * spacing)
    prev = math.inf
    for m in range(1, half + 1):
        p = weights.get(-m, 0.0)
        if p < _NOISE_FLOOR or p > prev:
            break
        total += p * math.exp(beta * m * spacing)
        prev = p
    return total


_NOISE_FLOOR = 3e-15


def _joint_peaks(
    charfun2: Callable[[np.ndarray, np.ndarray], np.ndarray], spacing: float
) -> dict[tuple[int, int], float]:
    """{(m, delta_n): weight} of the joint law above the peak floor,
    with work w = m * spacing."""
    (su, sv), probs = _adaptive_comb(
        charfun2, (2.0 * math.pi / spacing, 2.0 * math.pi), (64, 64)
    )
    iu, iv = np.nonzero(probs > _PEAK_FLOOR)
    return dict(zip(zip(su[iu].tolist(), sv[iv].tolist()), probs[iu, iv].tolist()))


def verify_fluctuation_theorems(
    params: CharfunParams,
    grid: int = 64,
    peakwise: bool = True,
    perturbation: float = 0.0,
) -> VerificationReport:
    """Check Jarzynski and Crooks identities; errors are data, not raises.

    The reverse protocol is the endpoint-frequency interchange.
    Jarzynski runs through the characteristic function at u = i beta and
    (for a closed protocol) the direct sum over inverted peaks; Crooks
    runs pointwise on a (u, v) grid and (closed, peakwise=True) on the
    joint peak weights, each side required to be resolvable.  A closed
    protocol is its own reverse, so the peakwise check inverts the joint
    law once and pairs each peak (m, delta_n) with (-m, -delta_n).

    perturbation adds a constant to every G evaluation: a negative
    control that must break normalization and Jarzynski.
    """
    reverse = _reversed_params(params)

    def ev(p: CharfunParams, u, v):
        return _g(p, u, v) + perturbation

    beta, mu = params.beta, params.mu
    dphi = grand_potential_diff(params.frequency_pairs(), beta, hbar=params.hbar)
    rhs = math.exp(-beta * dphi)
    lhs = ev(params, 1j * beta, -1j * beta * mu)
    jz_err = abs(lhs - rhs)

    spacing = _drive_quantum(params)
    norm_err = abs(ev(params, 0.0, 0.0) - 1.0)
    closed = params.is_closed

    direct_err = None
    if closed:
        signed, probs = _work_weights(
            lambda u: ev(params, u, 0.0), WorkLattice(spacing)
        )
        total = sum(p for _, p in _floored_peaks(signed.tolist(), probs))
        norm_err = max(norm_err, abs(total - 1.0))
        direct = _direct_exponential_average(signed, probs, spacing, beta)
        direct_err = abs(direct - rhs)

    # Crooks on the grid: G_R(-u, -v) = G_F(u + i beta, v - i beta mu) e^{beta dPhi}
    period = 2.0 * math.pi / spacing
    u, v = np.meshgrid(
        period * (np.arange(grid) + 0.31) / grid,
        2.0 * math.pi * (np.arange(grid) + 0.17) / grid,
        indexing="ij",
    )
    left = ev(reverse, -u, -v)
    right = ev(params, u + 1j * beta, v - 1j * beta * mu) * math.exp(beta * dphi)
    crooks = float(np.abs(left - right).max())

    peak_err = None
    if closed and peakwise:
        # the endpoint swap is the identity on a closed protocol: P_R = P_F
        joint = _joint_peaks(lambda u, v: ev(params, u, v), spacing)
        peak_err = 0.0
        for (m, n), p in joint.items():
            q = joint.get((-m, -n), 0.0)
            if p < 1e-8 or q < 1e-8:
                continue
            expected = math.exp(beta * (m * spacing - mu * n - dphi))
            peak_err = max(peak_err, abs(p - q * expected) / max(p, q * expected))

    # periodicity: the u-period is only meaningful for a closed protocol
    frac = np.array([0.21, 0.55])
    u0, v0 = frac * period, frac * 2.0 * math.pi
    base = ev(params, u0, v0)
    per_err = float(np.abs(ev(params, u0, v0 + 2.0 * math.pi) - base).max())
    if closed:
        per_err = max(per_err, float(np.abs(ev(params, u0 + period, v0) - base).max()))

    return VerificationReport(
        jarzynski_lhs=abs(lhs),
        jarzynski_rhs=rhs,
        jarzynski_abs_error=jz_err,
        jarzynski_direct_error=direct_err,
        crooks_max_error=crooks,
        crooks_peakwise_error=peak_err,
        periodicity_max_error=per_err,
        normalization_error=norm_err,
    )


def format_prob(p: float) -> str:
    """An inverted probability printed only to the digits it resolves.

    One rounding from the float, to 12 significant digits or to
    10**-_PROB_DECIMALS absolute, whichever is coarser: values >= 1e-3
    print exactly as `.12g`, a 1.3287e-12 tail peak as `1.33e-12`.
    """
    if p == 0.0:
        return "0"
    # a log10 off by one within an ulp of a power of ten prints the same
    digits = min(12, math.floor(math.log10(abs(p))) + 1 + _PROB_DECIMALS)
    if digits < 1:
        return f"{round(p, _PROB_DECIMALS):.12g}"
    return f"{p:.{digits}g}"


def marginal_to_csv(peaks: Sequence[tuple], kind: str = "work") -> str:
    """CSV text: `w,prob` for work, `delta_n,prob` for photon number.

    prob is printed by format_prob.
    """
    if kind == "work":
        lines = ["w,prob"] + [f"{w:.12g},{format_prob(p)}" for w, p in peaks]
    elif kind == "photons":
        lines = ["delta_n,prob"] + [f"{n},{format_prob(p)}" for n, p in peaks]
    else:
        raise ValueError("kind must be 'work' or 'photons'")
    return "\n".join(lines) + "\n"


def cumulative_to_csv(
    fit: CumulativeFit, classical_cdf: Callable[[float], float] | None = None
) -> str:
    """CSV text `w,F_exact,F_gauss,F_classical`; missing columns stay empty.

    F_exact, a sum of inverted weights, is printed by format_prob.
    """
    lines = ["w,F_exact,F_gauss,F_classical"]
    for (w, _), after in zip(fit.peaks, fit._cum):
        gauss = "" if fit.fit_skipped else f"{float(fit.gaussian_cdf(w)):.12g}"
        cls = "" if classical_cdf is None else f"{float(classical_cdf(w)):.12g}"
        lines.append(f"{w:.12g},{format_prob(after)},{gauss},{cls}")
    return "\n".join(lines) + "\n"
