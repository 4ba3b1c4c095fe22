"""Closed-form characteristic functions of work and photon-number change.

Single-resonance results for a boundary returning to its starting
position, their generalization to unequal endpoint positions, products
over mode-disjoint resonances, adiabatic spectator factors, grand
potentials, classical (hbar -> 0) limits, and work moments.

Energy bookkeeping: every frequency enters as x = hbar * omega, the
grand potential omits zero-point terms, and work counts only quantum
exchanges hbar * omega * delta_n.  The generalized forms here fix two
defects of the naive transcription: the numerator must stay the plain
thermal sinh(beta x0 / 2) (the u-dependent sinh belongs only under the
root) and a phase prefactor exp(-i u dx / 2) per participating mode is
required.  Both are forced by the driving-free limit, where the exact
result is the geometric sum implemented in adiabatic_mode_factor, and
are confirmed against the truncated-Fock simulation to its truncation
floor; the naive transcription misses by O(0.1) on the same grids while
still (deceptively) satisfying the Jarzynski identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .driving import ResonanceCase, ResonanceKind
from .errors import (
    CoupledResonanceError,
    DegenerateResonanceError,
    MomentConvergenceError,
)
from .symplectic import tracked_sqrt

__all__ = [
    "CharfunParams",
    "GeneralCharfun",
    "adiabatic_mode_factor",
    "classical_alphas",
    "classical_charfun",
    "classical_work_cdf",
    "classical_work_pdf",
    "closed_form",
    "closed_form_general",
    "grand_potential_diff",
    "moments",
    "multi_resonance_product",
]

_DEGENERATE_RATIO_TOL = 1e-6


@dataclass(frozen=True)
class CharfunParams:
    """Inputs of a single-resonance characteristic function.

    Frequencies are (start, end) pairs so the same record describes both
    the periodic case (equal entries) and a boundary that stops
    elsewhere.  mu is carried for the grand-canonical identities but is
    zero for photons; nonzero values are untested territory.
    """

    variant: ResonanceKind
    beta: float
    omega_k: tuple[float, float]
    g_tau: float
    omega_p: tuple[float, float] | None = None
    mu: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        if not math.isfinite(self.g_tau):
            raise ValueError("g_tau must be finite")
        pairs = [self.omega_k] + ([self.omega_p] if self.omega_p else [])
        for w0, w1 in pairs:
            if w0 <= 0.0 or w1 <= 0.0:
                raise ValueError("frequencies must be positive")
        if self.variant is ResonanceKind.DOUBLE:
            if self.omega_p is not None:
                raise ValueError("single-mode resonance takes no second mode")
        else:
            if self.omega_p is None:
                raise ValueError(f"{self.variant.value} resonance needs omega_p")
            if self.variant is ResonanceKind.DIFFERENCE:
                r = self.omega_p[0] / self.omega_k[0]
                if abs(r - 1.0) < _DEGENERATE_RATIO_TOL:
                    raise DegenerateResonanceError(
                        "difference resonance is degenerate for equal frequencies"
                    )

    @classmethod
    def from_case(
        cls,
        case: ResonanceCase,
        beta: float,
        tau: float,
        hbar: float = 1.0,
        final_frequencies: dict | None = None,
    ) -> "CharfunParams":
        """Build parameters from a classified resonance; closed endpoints
        unless a mode -> final-frequency map says otherwise."""
        fin = final_frequencies or {}
        wk = (case.omega_k, fin.get(case.k, case.omega_k))
        wp = None
        if case.p is not None:
            wp = (case.omega_p, fin.get(case.p, case.omega_p))
        return cls(
            variant=case.kind,
            beta=beta,
            omega_k=wk,
            omega_p=wp,
            g_tau=case.strength * tau,
            hbar=hbar,
        )

    @property
    def is_closed(self) -> bool:
        if self.omega_k[0] != self.omega_k[1]:
            return False
        return self.omega_p is None or self.omega_p[0] == self.omega_p[1]

    def frequency_pairs(self) -> tuple[tuple[float, float], ...]:
        if self.omega_p is None:
            return (self.omega_k,)
        return (self.omega_k, self.omega_p)


class GeneralCharfun(NamedTuple):
    """Open-endpoint result: the drift-removed g_bar and the full g,
    related by g = g_bar * exp(i u dPhi); arrays for array input."""

    g_bar: "complex | np.ndarray"
    g: "complex | np.ndarray"


def _sinh_half(beta: float, x: float) -> float:
    return math.sinh(beta * x / 2.0)


def _points(u, v) -> list[np.ndarray]:
    """u and v as complex arrays of their common broadcast shape, so that
    G has that shape even where a form does not depend on v."""
    return np.broadcast_arrays(
        np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    )


def _result(g: np.ndarray):
    """A Python complex for a single point, else the array."""
    return complex(g) if g.ndim == 0 else g


def closed_form(params: CharfunParams, u, v):
    """G(u, v) for a boundary that returns to its starting position.

    u and v broadcast against each other; scalar input returns a Python
    complex.
    """
    if not params.is_closed:
        raise ValueError(
            "endpoint frequencies differ; use closed_form_general"
        )
    beta, hb = params.beta, params.hbar
    xk = hb * params.omega_k[0]
    u, v = _points(u, v)
    if params.variant is ResonanceKind.DOUBLE:
        sk = _sinh_half(beta, xk)
        amp = math.sinh(params.g_tau) ** 2

        def rad(s: float, z: np.ndarray) -> np.ndarray:
            return sk * sk + np.sin(s * z) * np.sin(s * z - 1j * beta * xk * s) * amp

        # the scaled path multiplies u and v jointly so the (u - i beta)
        # argument scales as s*z - i*s*beta*xk with z = u*xk + v
        z = u * xk + v
        return _result(sk / tracked_sqrt(rad, (z,), steps=16, anchor_tol=1e-12))
    xp = hb * params.omega_p[0]
    sksp = _sinh_half(beta, xk) * _sinh_half(beta, xp)
    if params.variant is ResonanceKind.SUM:
        half = (xk + xp) / 2.0
        amp = math.sinh(params.g_tau) ** 2
        den = sksp + np.sin(u * half + v) * np.sin(
            (u - 1j * beta) * half + v
        ) * amp
    else:
        half = (xk - xp) / 2.0
        amp = math.sin(params.g_tau) ** 2
        den = sksp + np.sin(u * half) * np.sin((u - 1j * beta) * half) * amp
    return _result(sksp / den)


def grand_potential_diff(pairs: Sequence, beta: float, hbar: float = 1.0) -> float:
    """dPhi = (1/beta) sum_k ln[(1 - e^{-beta x_tau}) / (1 - e^{-beta x_0})].

    pairs holds one (omega_at_start, omega_at_end) pair per active mode.
    The zero-point halves are excluded, consistent with work counting
    only occupation quanta.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    total = 0.0
    for w0, w1 in pairs:
        w0, w1 = float(w0), float(w1)
        if w0 <= 0.0 or w1 <= 0.0:
            raise ValueError("frequencies must be positive")
        total += math.log1p(-math.exp(-beta * hbar * w1)) - math.log1p(
            -math.exp(-beta * hbar * w0)
        )
    return total / beta


def closed_form_general(params: CharfunParams, u, v) -> GeneralCharfun:
    """Open-endpoint G(u, v); returns (g_bar, g) with g = g_bar e^{i u dPhi}.

    Structure per participating mode s: a factor exp(-i u dx_s / 2) and
    a denominator entry A_s = sinh((beta x0_s - i u dx_s)/2), with the
    interaction term sin(u x_tau + v) sin((u - i beta) x0 + v) sinh^2 or
    sin^2 of the coupling, evaluated at endpoint frequencies as written.
    Reduces to closed_form when the endpoints coincide and to the
    product of adiabatic_mode_factor values when the coupling vanishes.
    u and v broadcast as in closed_form.
    """
    beta, hb = params.beta, params.hbar
    u, v = _points(u, v)
    xk0, xk1 = (hb * w for w in params.omega_k)
    dxk = xk1 - xk0

    def a_factor(x0: float, dx: float, s: float, u: np.ndarray) -> np.ndarray:
        return np.sinh((beta * x0 - 1j * s * u * dx) / 2.0)

    if params.variant is ResonanceKind.DOUBLE:
        amp = math.sinh(params.g_tau) ** 2
        sk = _sinh_half(beta, xk0)

        def rad(s: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
            ak = a_factor(xk0, dxk, s, u)
            return ak * ak + np.sin(s * (u * xk1 + v)) * np.sin(
                s * (u * xk0 + v) - 1j * s * beta * xk0
            ) * amp

        root = tracked_sqrt(rad, (u, v), steps=16, anchor_tol=1e-12)
        g = np.exp(-1j * u * dxk / 2.0) * sk / root
        dphi = grand_potential_diff([params.omega_k], beta, hb)
        return GeneralCharfun(_result(g * np.exp(-1j * u * dphi)), _result(g))

    xp0, xp1 = (hb * w for w in params.omega_p)
    dxp = xp1 - xp0
    ak = a_factor(xk0, dxk, 1.0, u)
    ap = a_factor(xp0, dxp, 1.0, u)
    sksp = _sinh_half(beta, xk0) * _sinh_half(beta, xp0)
    if params.variant is ResonanceKind.SUM:
        amp = math.sinh(params.g_tau) ** 2
        den = ak * ap + np.sin(u * (xk1 + xp1) / 2.0 + v) * np.sin(
            (u - 1j * beta) * (xk0 + xp0) / 2.0 + v
        ) * amp
    else:
        amp = math.sin(params.g_tau) ** 2
        den = ak * ap + np.sin(u * (xk1 - xp1) / 2.0) * np.sin(
            (u - 1j * beta) * (xk0 - xp0) / 2.0
        ) * amp
    g = np.exp(-1j * u * (dxk + dxp) / 2.0) * sksp / den
    dphi = grand_potential_diff(params.frequency_pairs(), beta, hb)
    return GeneralCharfun(_result(g * np.exp(-1j * u * dphi)), _result(g))


def _g(params: CharfunParams, u, v):
    """G(u, v) of one parameter record: closed_form for equal endpoints,
    else the g of closed_form_general."""
    if params.is_closed:
        return closed_form(params, u, v)
    return closed_form_general(params, u, v).g


def multi_resonance_product(
    cases: Sequence[ResonanceCase],
    params_list: Sequence[CharfunParams],
    u,
    v,
):
    """Product of per-case closed forms for mode-disjoint resonances, over
    broadcast u and v as in closed_form."""
    if len(cases) != len(params_list):
        raise ValueError("one parameter record per case is required")
    seen: set = set()
    for case in cases:
        overlap = seen.intersection(case.modes)
        if overlap:
            raise CoupledResonanceError(
                f"cases share mode(s) {sorted(overlap)}; the factorized "
                "product does not apply, use symplectic.charfun_general"
            )
        seen.update(case.modes)
    out = 1.0 + 0.0j
    for params in params_list:
        out *= _g(params, u, v)
    return out


def adiabatic_mode_factor(
    omega0: float, omega_tau: float, beta: float, u: complex, hbar: float = 1.0
) -> complex:
    """Thermal average of e^{i u dx n} for an occupation-preserving mode."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if omega_tau == omega0:
        return 1.0 + 0.0j
    x0 = hbar * omega0
    dx = hbar * (omega_tau - omega0)
    return (1.0 - math.exp(-beta * x0)) / (
        1.0 - cmath.exp(-beta * x0 + 1j * complex(u) * dx)
    )


def _classical_ratio_coeff(variant: ResonanceKind, r: float | None) -> float:
    if variant is ResonanceKind.DOUBLE:
        return 4.0
    if r is None or r <= 0.0:
        raise ValueError("two-mode classical forms need a positive ratio r")
    if variant is ResonanceKind.SUM:
        return (r + 1.0) ** 2 / r
    if abs(r - 1.0) < _DEGENERATE_RATIO_TOL:
        raise DegenerateResonanceError(
            "classical difference form is degenerate at r=1"
        )
    return (r - 1.0) ** 2 / r


def _classical_amp(variant: ResonanceKind, g_tau: float) -> float:
    if variant is ResonanceKind.DIFFERENCE:
        return math.sin(g_tau) ** 2
    return math.sinh(g_tau) ** 2


def classical_charfun(
    variant: ResonanceKind, r: float | None, g_tau: float, u_tilde
):
    """hbar -> 0 limit of the characteristic function, u_tilde = u/beta.

    u_tilde may be an array; scalar input returns a Python complex.
    """
    c = _classical_ratio_coeff(variant, r)
    ut = np.asarray(u_tilde, dtype=complex)
    amp = _classical_amp(variant, g_tau)
    if variant is ResonanceKind.DOUBLE:
        return _result(1.0 / tracked_sqrt(
            lambda s, ut: 1.0 + c * ((s * ut) ** 2 - 1j * s * ut) * amp,
            (ut,),
            steps=16,
            anchor_tol=1e-12,
        ))
    return _result(1.0 / (1.0 + c * (ut * ut - 1j * ut) * amp))


def classical_alphas(
    variant: ResonanceKind, r: float, g_tau: float, beta: float
) -> tuple[float, float]:
    """Decay rates (alpha_plus, alpha_minus) of the two-sided exponential."""
    if variant is ResonanceKind.DOUBLE:
        raise ValueError("the two-sided exponential covers only two-mode cases")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    c = _classical_ratio_coeff(variant, r)
    amp = _classical_amp(variant, g_tau)
    root = math.sqrt(1.0 + 4.0 / (c * amp))
    return (beta / 2.0) * (1.0 - root), (beta / 2.0) * (1.0 + root)


def classical_work_pdf(
    variant: ResonanceKind, r: float, g_tau: float, beta: float, w
):
    """Two-sided exponential density of classical work (two-mode cases)."""
    ap, am = classical_alphas(variant, r, g_tau, beta)
    pref = ap * am / (ap - am)
    w = np.asarray(w, dtype=float)
    out = pref * np.where(w >= 0.0, np.exp(ap * w), np.exp(am * w))
    return float(out) if out.ndim == 0 else out


def classical_work_cdf(
    variant: ResonanceKind, r: float, g_tau: float, beta: float, w
):
    """Cumulative of classical_work_pdf, exact piecewise exponentials."""
    ap, am = classical_alphas(variant, r, g_tau, beta)
    pref = ap * am / (ap - am)
    w = np.asarray(w, dtype=float)
    neg = (pref / am) * np.exp(am * np.minimum(w, 0.0))
    pos = pref / am + (pref / ap) * (np.exp(ap * np.maximum(w, 0.0)) - 1.0)
    out = np.where(w <= 0.0, neg, pos)
    return float(out) if out.ndim == 0 else out


def moments(params: CharfunParams, order: int = 2) -> tuple:
    """(mean,) or (mean, central variance) of work by differentiation.

    Central differences of G(u, 0) at u=0 on three-step ladders with
    Richardson extrapolation; on each ladder the two extrapolants must
    agree or it is declared unconverged.  The second derivative takes a
    ladder 30x coarser than the first, since its difference quotient
    divides the roundoff of G by h^2.  The step scale adapts to
    whichever is smaller of the quantum 1/(hbar omega) and thermal beta
    scales so both Table-like limits differentiate accurately.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    w_max = params.hbar * max(w for pair in params.frequency_pairs() for w in pair)
    scale = min(1.0 / w_max, params.beta)
    steps = [1e-3 * scale, 1e-4 * scale, 1e-5 * scale]
    steps2 = [3e-2 * scale, 3e-3 * scale, 3e-4 * scale]
    # both ladders in one evaluation.  G(-u, 0) is the conjugate of
    # G(u, 0) for a real distribution; taking it so keeps the roundoff of
    # the two sides mirrored, which the second differences need
    us = np.array([0.0] + steps + steps2)
    g = _g(params, us, 0.0).tolist()
    g0, gp = g[0], g[1:]
    gm = [x.conjugate() for x in gp]

    def d1(i: int) -> complex:
        return (gp[i] - gm[i]) / (2.0 * steps[i])

    def d2(i: int) -> complex:
        h = steps2[i]
        return (gp[3 + i] - 2.0 * g0 + gm[3 + i]) / (h * h)

    # ladder steps differ by 10, so Richardson weights are 100/99
    r1 = [(100.0 * d1(i + 1) - d1(i)) / 99.0 for i in range(2)]
    atol_mean = 1e-9 * (w_max + 1.0 / params.beta)
    if abs(r1[0] - r1[1]) > max(1e-5 * abs(r1[1]), atol_mean):
        raise MomentConvergenceError("first-derivative ladder did not settle")
    mean = (-1j * r1[1]).real
    if order == 1:
        return (mean,)
    r2 = [(100.0 * d2(i + 1) - d2(i)) / 99.0 for i in range(2)]
    if abs(r2[0] - r2[1]) > max(1e-4 * abs(r2[1]), atol_mean**2):
        raise MomentConvergenceError("second-derivative ladder did not settle")
    second_moment = (-r2[1]).real
    return (mean, second_moment - mean * mean)
