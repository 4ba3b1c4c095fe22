"""Inversion of characteristic functions into discrete distributions.

The work support under a periodic drive is a delta comb on integer
multiples of the drive quantum, so inversion is an exact discrete
Fourier sum, not a quadrature: sampling G on one u-period and applying
an FFT returns the peak weights directly.  The comb doubles its number
of samples, keeping the samples it has, until the outer half of the
lattice carries negligible mass.  The inverters and the verifier take
G(u, v) of charfun.plan_charfun, elementwise over broadcast arrays, and
read their own axis: one 1-D comb inverts P(w) from G(u, 0) and
P(delta_n) from G(0, v), in blocks of at most _BLOCK points.  Where
every channel moves per photons per quantum, the joint law is P(w) on
the line delta_n = per * m, and P(delta_n) is relabelled from it.

Also here: cumulative step functions with Gaussian fits and their
Kolmogorov-Smirnov distance, and the fluctuation-theorem verifier that
exercises the Jarzynski and Crooks identities through two independent
routes each, from one 1-D inversion of the work law.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .charfun import closed_form  # noqa: F401  (the benchmark tracer wraps it here)
from .driving import ResonanceKind, ResonancePlan
from .errors import InversionError

__all__ = [
    "CumulativeFit",
    "VerificationReport",
    "cumulative_and_fit",
    "cumulative_to_csv",
    "extract_channel_marginals",
    "extract_marginal_photons",
    "extract_marginal_work",
    "format_prob",
    "format_probs",
    "marginal_to_csv",
    "photons_per_quantum",
    "verify_fluctuation_theorems",
]

_TAIL_TOL = 1e-10
_IMAG_TOL = 1e-10
_NEG_TOL = -1e-10
_PEAK_FLOOR = 1e-12
_MAX_SAMPLES = 1 << 16
# G is sampled in blocks of at most this many points, which bounds the
# memory of an array evaluation
_BLOCK = 1 << 14
# Inverted weights are printed to 12 significant digits or to
# 10**-_PROB_DECIMALS absolute, whichever is coarser.  The Fourier
# weights carry a few 1e-17 of absolute roundoff (FFT summation order
# and per-sample libm), so finer digits of a tail peak are noise that
# differs between hosts.
_PROB_DECIMALS = 14
# A CDF takes the sorted work peaks and returns its values there, or one
# scalar for all of them
_Cdf = Callable[[np.ndarray], "np.ndarray | float"]


def _adaptive_comb(
    evaluate: Callable[[np.ndarray], np.ndarray], period: float, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Signed lattice indices and validated weights of a comb.

    evaluate returns G elementwise over a coordinate array.  It is
    sampled on one period, from a power-of-two count that doubles until
    the weights at |index| >= count / 4 sum below _TAIL_TOL, within
    _MAX_SAMPLES; a sum that is not finite stops it at once.  A doubling
    keeps the samples it has in the even slots and evaluates only the
    odd ones: sample k of m sits at p * k / m, and p * 2k / 2m is the
    same float, so every sample is bit for bit the one a from-scratch
    evaluation of the final grid would give.
    """
    count, samples, step = start, None, 1
    while count <= _MAX_SAMPLES:
        kept, samples = samples, np.empty(count, dtype=complex)
        if kept is not None:
            samples[::2] = kept
        del kept  # freed before the transform
        for lo in range(step - 1, count, step * _BLOCK):
            k = np.arange(lo, min(count, lo + step * _BLOCK), step)
            samples[k] = evaluate(period * k / count)
        coeff = np.fft.fft(samples)
        coeff /= count
        # slots count/4 .. 3 count/4 hold the indices with |index| >= count/4
        tail = float(np.abs(coeff[count // 4 : 3 * count // 4 + 1]).sum())
        if not math.isfinite(tail):  # more samples cannot mend a NaN or inf
            raise InversionError(
                f"characteristic function is not finite on the {count}-sample comb"
            )
        if tail < _TAIL_TOL:
            del samples  # before validation takes its own copies
            # lattice index of each FFT slot: 0..m/2-1, then -m/2..-1
            signed = np.fft.fftfreq(count, 1.0 / count).astype(int)
            return signed, _validated_probs(coeff)
        count, step = 2 * count, 2
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
    """(label, prob) pairs with prob above _PEAK_FLOOR, sorted, as Python
    numbers."""
    probs = np.asarray(probs, dtype=float)
    keep = probs > _PEAK_FLOOR
    return sorted(zip(np.asarray(labels)[keep].tolist(), probs[keep].tolist()))


def _merge_runs(w, dn, p, tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sum of w p, delta_n, sum of p) of each run of peaks that share a
    delta_n and lie within tol of their neighbour in w: the rule by which
    float-noisy work values are one peak.

    Runs come sorted by (delta_n, w) and each sums in (w, p) order, from
    0.0, so a sum or a mean sum(w p) / sum(p) has the bits of a Python
    loop over the sorted (w, p) pairs of each delta_n.
    """
    order = np.lexsort((p, w, dn))
    w, dn, p = w[order], dn[order], p[order]
    new = np.ones(w.size, dtype=bool)
    new[1:] = (dn[1:] != dn[:-1]) | (w[1:] - w[:-1] > tol)
    run = np.cumsum(new) - 1
    # astype: for no peaks, bincount returns ints
    wp, tot = (np.bincount(run, weights=x).astype(float) for x in (w * p, p))
    return wp, dn[new], tot


def _work_weights(evaluate: Callable, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Signed lattice indices and validated weights of P(w) on the comb
    w = m * spacing, spacing the channel quantum hbar (omega_k +- omega_p),
    from G(u, 0)."""
    if not 0.0 < spacing < math.inf:
        raise ValueError("lattice spacing must be positive and finite")
    period = 2.0 * math.pi / spacing
    u = np.array([0.13, 0.41, 0.77]) * period
    a, b = evaluate(u + period, 0.0), evaluate(u, 0.0)
    if (np.abs(a - b) > 1e-8 * np.maximum(1.0, np.abs(b))).any():
        raise InversionError(
            "characteristic function is not periodic on this lattice "
            "(incommensurate work support); use the Fock simulation"
        )
    return _adaptive_comb(lambda u: evaluate(u, 0.0), period, 256)


def extract_marginal_work(
    evaluate: Callable, spacing: float
) -> list[tuple[float, float]]:
    """Peak weights of P(w) on the comb w = m * spacing by exact Fourier
    inversion of G(u, 0).  An aperiodic G(u, 0) is refused first: its
    support is not this comb (unequal endpoint positions), which is the
    truncated-Fock simulation's case.
    """
    signed, probs = _work_weights(evaluate, spacing)
    return _floored_peaks(signed * spacing, probs)


def extract_marginal_photons(evaluate: Callable) -> list[tuple[int, float]]:
    """Weights of P(delta_n) from G(0, v); the v-period is exactly 2 pi."""
    signed, probs = _adaptive_comb(lambda v: evaluate(0.0, v), 2.0 * math.pi, 64)
    return _floored_peaks(signed.tolist(), probs)


# photon-number change per drive quantum of work, for one channel
_PHOTONS_PER_QUANTUM = {
    ResonanceKind.DOUBLE: 2,
    ResonanceKind.SUM: 2,
    ResonanceKind.DIFFERENCE: 0,
}


def photons_per_quantum(plan: ResonancePlan) -> int | None:
    """The photon-number change per drive quantum that every channel of
    the plan shares (2 for double and sum, 0 for difference), or None."""
    pers = {_PHOTONS_PER_QUANTUM[case.kind] for case in plan.cases}
    return pers.pop() if len(pers) == 1 else None


def extract_channel_marginals(
    evaluate: Callable, spacing: float, per: int | None
) -> tuple[list[tuple[float, float]], list[tuple[int, float]]]:
    """P(w) and P(delta_n) of G(u, v), per from photons_per_quantum.

    Each drive quantum w = spacing of work creates a photon pair
    (squeezing, two-mode squeezing) or moves one photon between two
    modes (beam splitter), so delta_n = per * m exactly at w = m *
    spacing.  P(delta_n) is that relabelling of the P(w) weights,
    summed before the peak floor, so the two marginals cannot disagree
    about the same event; with per None it is inverted from G(0, v).
    """
    if per is None:
        work = extract_marginal_work(evaluate, spacing)
        return work, extract_marginal_photons(evaluate)
    signed, probs = _work_weights(evaluate, spacing)
    work = _floored_peaks(signed * spacing, probs)
    if per:  # one work peak per photon peak
        return work, _floored_peaks(per * signed, probs)
    return work, _floored_peaks([0], [math.fsum(probs.tolist())])


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
        ws, ps = map(np.array, zip(*self.peaks))
        self._ws = ws
        self._cum = np.cumsum(ps)
        self.mean = float(ws @ ps)
        var = float(((ws - self.mean) ** 2) @ ps)
        self.stddev = math.sqrt(max(var, 0.0))
        self.fit_skipped = self.stddev == 0.0
        self._gauss = self.gaussian_cdf(ws)  # shared by the KS distance and the CSV
        self.sup_distance = self._sup_distance(lambda _: self._gauss)

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
            erf = [math.erf(x) for x in z.ravel().tolist()]  # numpy has no erf
            out = 0.5 * (1.0 + np.reshape(erf, z.shape))
        return float(out) if out.ndim == 0 else out

    def _sup_distance(self, cdf: _Cdf) -> float:
        """Largest gap between the step cumulative and cdf, taken on both
        sides of every step; cdf is called once, on the sorted peaks."""
        c = np.broadcast_to(cdf(self._ws), self._ws.shape)
        below = np.concatenate(([0.0], self._cum[:-1]))
        return float(max(np.abs(self._cum - c).max(), np.abs(below - c).max()))


def cumulative_and_fit(marginal: Sequence[tuple[float, float]]) -> CumulativeFit:
    return CumulativeFit(marginal)


def _marginal_deviation(work, photons, other_work, other_photons, spacing) -> float:
    """Largest |delta p| between two routes' (P(w), P(delta_n)), each
    sorted (value, prob) peaks, over the union of their peaks.

    The other route's weights enter negated, and peaks pair by the
    oracle's own rule (_merge_runs): work peaks within 1e-6 spacing of
    their neighbour, photon peaks at one delta_n (work peaks carry
    delta_n = inf, which no photon peak has).  Both routes' work peaks
    lie on one lattice, one spacing apart, so each run is one peak or
    one pair and sums to p - q, or to p for a peak with no partner.
    """
    signs = ((1.0, work, photons), (-1.0, other_work, other_photons))
    rows = [(w, math.inf, s * p) for s, peaks, _ in signs for w, p in peaks]
    rows += [(0.0, dn, s * p) for s, _, peaks in signs for dn, p in peaks]
    w, dn, p = np.array(rows, dtype=float).reshape(-1, 3).T
    return float(np.abs(_merge_runs(w, dn, p, 1e-6 * spacing)[2]).max(initial=0.0))


@dataclass(frozen=True)
class VerificationReport:
    """Measured errors of the fluctuation-theorem identities.

    crooks_max_error is the pointwise grid identity; the peakwise ratio
    check on inverted distributions and the direct exponential-average
    route are reported separately because their floating-point
    conditioning differs (the e^{beta |w|} tilt amplifies inversion
    roundoff; see jarzynski_direct_error).  None marks a route that does
    not apply (open endpoints have no single work lattice).
    periodicity_max_error includes, for a closed protocol, the line
    support that the peakwise check rests on.
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
        return max(self.jarzynski_abs_error, self.crooks_max_error,
                   self.periodicity_max_error, self.normalization_error)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _direct_exponential_average(
    probs_of: np.ndarray, spacing: float, beta: float
) -> float:
    """Sum p(w) e^{-beta w} over the inverted work weights, noise-aware;
    probs_of[half + m] is the weight of peak m, for |m| <= half.

    The tilt amplifies the absolute roundoff of the Fourier weights by
    e^{beta |w|} on the negative-work side, so terms are accumulated
    only while the weights sit above the inversion noise floor and still
    decay; the result is exact to ~1e-12 for weak driving and degrades
    gracefully (never diverges) when the tilted tail outruns f64.  Array
    masks find the terms; they are summed in order of |m|, positive side
    first, as a loop over m = 1..half would.
    """
    half = probs_of.size // 2
    pos, neg = probs_of[half + 1 :], probs_of[half - 1 :: -1]  # m = 1.., -1..
    total = float(probs_of[half])
    keep = np.flatnonzero(pos > _NOISE_FLOOR)
    for m, p in zip((keep + 1).tolist(), pos[keep].tolist()):
        total += p * math.exp(-beta * m * spacing)
    # the negative side ends at the first weight below the floor or
    # above the one before it
    stop = (neg < _NOISE_FLOOR) | (neg > np.append(math.inf, neg[:-1]))
    for m, p in enumerate(neg[: np.argmax(np.append(stop, True))].tolist(), 1):
        total += p * math.exp(beta * m * spacing)
    return total


_NOISE_FLOOR = 3e-15


def verify_fluctuation_theorems(
    evaluate: Callable,
    spacing: float,
    beta: float,
    per: int | None = None,
    reverse: Callable | None = None,
    dphi: float = 0.0,
) -> VerificationReport:
    """Check Jarzynski and Crooks identities; errors are data, not raises.

    evaluate is G(u, v) of the forward protocol over broadcast arrays,
    spacing its work quantum and reverse G of the reverse protocol, None
    for a closed protocol, which is its own reverse (plan_charfun gives
    all three); dphi is the grand-potential difference.  Jarzynski runs
    through G at u = i beta and (for a closed protocol) the direct sum
    over inverted peaks; Crooks runs pointwise on a 64 x 64 (u, v) grid
    and (closed) peak by peak, each side required to be resolvable.
    With no chemical potential the Crooks factor e^{beta (w - dPhi)}
    does not depend on delta_n, so the peakwise check pairs peak m of
    the direct sum's work weights with -m for any plan: one 1-D
    inversion in all.  per is the plan's photons_per_quantum; given it,
    a closed check also takes the line support, that G is constant
    along spacing u + per v, with the periodicity points.

    Besides the inversion, G is evaluated once per edge of the strip
    0 <= Im u <= beta: on the top edge at i beta and the grid's
    u + i beta, on the real axis at the origin, the periodicity points
    and (closed) the grid's (-u, -v); an open protocol evaluates its
    reverse once more, on (-u, -v).  A negative control (the CLI's
    --perturb) shifts the forward and the reverse G before the call.
    """
    closed = reverse is None

    # the Crooks grid, and the periodicity points with their shifts
    period = 2.0 * math.pi / spacing
    grid = 64
    u, v = np.meshgrid(
        period * (np.arange(grid) + 0.31) / grid,
        2.0 * math.pi * (np.arange(grid) + 0.17) / grid,
        indexing="ij",
    )
    frac = np.array([0.21, 0.55])
    u0, v0 = frac * period, frac * 2.0 * math.pi
    shifts = [(u0, v0 + 2.0 * math.pi)]
    if closed:
        shifts.append((u0 + period, v0))
    if closed and per is not None:
        dv = 1.3  # along spacing * u + per * v = const
        shifts.append((u0 - per * dv / spacing, v0 + dv))

    # the top edge: Jarzynski at u = i beta, the grid's Crooks side
    top = evaluate(np.append(1j * beta, (u + 1j * beta).ravel()),
                   np.append(0.0, v.ravel()))
    # the real axis: the origin, the periodicity points, (closed) -u, -v
    pairs = [(np.zeros(1), np.zeros(1)), (u0, v0), *shifts]
    if closed:
        pairs.append((-u.ravel(), -v.ravel()))
    real = evaluate(*map(np.concatenate, zip(*pairs)))

    rhs = math.exp(-beta * dphi)
    lhs = complex(top[0])
    norm_err = abs(complex(real[0]) - 1.0)

    direct_err = peak_err = None
    if closed:
        signed, probs = _work_weights(evaluate, spacing)
        total = sum(p for _, p in _floored_peaks(signed.tolist(), probs))
        norm_err = max(norm_err, abs(total - 1.0))
        # probs_of[half + m]: the weight of peak m, 0 for a missing one
        half = int(np.abs(signed).max())
        probs_of = np.zeros(2 * half + 1)
        probs_of[half + signed] = probs
        direct_err = abs(_direct_exponential_average(probs_of, spacing, beta) - rhs)
        # P_R = P_F on a closed protocol: pair work peak m with -m
        mirror = probs_of[half - signed]
        both = (probs >= 1e-8) & (mirror >= 1e-8)
        peak_err = 0.0
        for m, p, q in zip(*(x[both].tolist() for x in (signed, probs, mirror))):
            tilted = q * math.exp(beta * (m * spacing - dphi))
            peak_err = max(peak_err, abs(p - tilted) / max(p, tilted))

    # Crooks on the grid: G_R(-u, -v) = G_F(u + i beta, v) e^{beta dPhi}
    left = real[-u.size :] if closed else reverse(-u, -v).ravel()
    right = top[1:] * math.exp(beta * dphi)
    crooks = float(np.abs(left - right).max())

    # periodicity, and for a closed protocol the u-period and the line
    base, *shifted = np.split(real[1 : 3 + 2 * len(shifts)], 1 + len(shifts))
    per_err = max(float(np.abs(g - base).max()) for g in shifted)

    return VerificationReport(
        jarzynski_lhs=abs(lhs),
        jarzynski_rhs=rhs,
        jarzynski_abs_error=abs(lhs - rhs),
        jarzynski_direct_error=direct_err,
        crooks_max_error=crooks,
        crooks_peakwise_error=peak_err,
        periodicity_max_error=per_err,
        normalization_error=norm_err,
    )


def format_probs(probs) -> list[str]:
    """Inverted probabilities printed only to the digits they resolve.

    One rounding from the float, to 12 significant digits or to
    10**-_PROB_DECIMALS absolute, whichever is coarser: values >= 1e-3
    print exactly as `.12g`, a 1.3287e-12 tail peak as `1.33e-12`.  One
    np.log10 serves the whole column.
    """
    probs = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore"):
        digits = np.floor(np.log10(np.abs(probs))) + (1 + _PROB_DECIMALS)
    # a log10 off by one within an ulp of a power of ten prints the same;
    # 0 digits (zero included) leave the absolute rounding.  %.*g takes
    # the digit count as an argument, with no format spec built per row.
    digits = np.clip(digits, 0, 12).astype(int).tolist()
    return [
        "%.*g" % (d, p) if d
        else "0" if p == 0.0
        else f"{round(p, _PROB_DECIMALS):.12g}"
        for p, d in zip(probs.tolist(), digits)
    ]


def format_prob(p: float) -> str:
    """One probability as format_probs prints it."""
    return format_probs([p])[0]


def marginal_to_csv(peaks: Sequence[tuple], kind: str = "work") -> str:
    """CSV text: `w,prob` for work, `delta_n,prob` for photon number.

    prob is printed by format_probs.
    """
    probs = format_probs([p for _, p in peaks])
    if kind == "work":
        lines = ["w,prob"] + [f"{w:.12g},{p}" for (w, _), p in zip(peaks, probs)]
    elif kind == "photons":
        lines = ["delta_n,prob"] + [f"{n},{p}" for (n, _), p in zip(peaks, probs)]
    else:
        raise ValueError("kind must be 'work' or 'photons'")
    return "\n".join(lines) + "\n"


def cumulative_to_csv(fit: CumulativeFit, classical_cdf: _Cdf | None = None) -> str:
    """CSV text `w,F_exact,F_gauss,F_classical`; missing columns stay empty.

    F_exact, a sum of inverted weights, is printed by format_probs;
    classical_cdf is called once, on the sorted peaks.
    """
    gauss = cls = [""] * len(fit.peaks)
    if not fit.fit_skipped:
        gauss = [f"{c:.12g}" for c in fit._gauss.tolist()]
    if classical_cdf is not None:
        col = np.broadcast_to(classical_cdf(fit._ws), fit._ws.shape)
        cls = [f"{c:.12g}" for c in col.tolist()]
    lines = ["w,F_exact,F_gauss,F_classical"] + [
        f"{w:.12g},{after},{g},{c}"
        for (w, _), after, g, c in zip(fit.peaks, format_probs(fit._cum), gauss, cls)
    ]
    return "\n".join(lines) + "\n"
