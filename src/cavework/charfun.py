"""Closed-form characteristic functions of work and photon-number change.

Single-resonance results for a boundary returning to its starting
position, their generalization to unequal endpoint positions, products
over mode-disjoint resonances, grand potentials, classical (hbar -> 0)
limits, and work moments.

Energy bookkeeping: every frequency enters as x = hbar * omega, the
grand potential omits zero-point terms, and work counts only quantum
exchanges hbar * omega * delta_n.  The generalized forms here fix two
defects of the naive transcription: the numerator must stay the plain
thermal sinh(beta x0 / 2) (the u-dependent sinh belongs only under the
root) and a phase prefactor exp(-i u dx / 2) per participating mode is
required.  Both are forced by the driving-free limit, where the exact
result is, per mode, the geometric sum <e^{i u dx n}> at fixed n, and
are confirmed against the truncated-Fock simulation to its truncation
floor; the naive transcription misses by O(0.1) on the same grids while
still (deceptively) satisfying the Jarzynski identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    "classical_alphas",
    "classical_work_cdf",
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
    elsewhere.
    """

    variant: ResonanceKind
    beta: float
    omega_k: tuple[float, float]
    g_tau: float
    omega_p: tuple[float, float] | None = None
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 < self.hbar < math.inf:
            raise ValueError("hbar must be positive and finite")
        if not math.isfinite(self.g_tau):
            raise ValueError("g_tau must be finite")
        pairs = [self.omega_k] + ([self.omega_p] if self.omega_p else [])
        for w0, w1 in pairs:
            if not (0.0 < w0 < math.inf and 0.0 < w1 < math.inf):
                raise ValueError("frequencies must be positive and finite")
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


def _sinh_half(beta: float, x: float) -> float:
    return math.sinh(beta * x / 2.0)


def _points(u, v) -> list[np.ndarray]:
    """u and v as complex arrays of their common broadcast shape, so that
    G has that shape even where a form does not depend on v."""
    return np.broadcast_arrays(
        np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    )


def _real_points(u, v) -> list[np.ndarray] | None:
    """u and v as float arrays of their common broadcast shape, or None
    if either is complex."""
    u, v = np.asarray(u), np.asarray(v)
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return None
    return np.broadcast_arrays(u.astype(float), v.astype(float))


# csin forms sin(x + iy) as (sin x cosh y, cos x sinh y) while |y| <= 709;
# past that it scales its exponentials, and math.cosh soon overflows
_CSIN_PLAIN = 709.0


def _real_sines(x: np.ndarray, a: float, c0: float, amp: float):
    """c0 + sin(x) sin(x - ia) amp at real x as the complex evaluation
    forms it, or None for a non-finite phase or a shift past _CSIN_PLAIN.

    csin forms both sines from one sin and cos of x, and every cross term
    of the complex products is an exact zero, so each value keeps its
    bits; only a zero imaginary part may differ in sign, which neither
    the square root nor the division into G passes on.
    """
    if not (abs(a) <= _CSIN_PLAIN and np.isfinite(x).all()):
        return None
    s, c = np.sin(x), np.cos(x)
    out = np.empty(x.shape, dtype=complex)
    out.real = c0 + s * (s * math.cosh(-a)) * amp
    out.imag = s * (c * math.sinh(-a)) * amp
    return out


def _result(g: np.ndarray):
    """A Python complex for a single point, else the array."""
    return complex(g) if g.ndim == 0 else g


def closed_form(params: CharfunParams, u, v):
    """G(u, v) for a boundary that returns to its starting position.

    u and v broadcast against each other; scalar input returns a Python
    complex.  Every form is a constant plus sin(x) sin(x - ia) times the
    drive, with x real on the real axis: there the two sines come from
    one real sin and cos of x (_real_sines), bit for bit the complex
    evaluation, which stays for complex or non-finite input.

    The single-mode form takes the principal square root on the strip
    0 <= Im z <= beta hbar omega_k of its phase z = hbar omega_k u + v,
    which holds every point the package evaluates: real (u, v), u = i beta
    and u + i beta.  Only points off the strip track their root by
    tracked_sqrt.
    """
    if not params.is_closed:
        raise ValueError(
            "endpoint frequencies differ; use closed_form_general"
        )
    beta, hb = params.beta, params.hbar
    xk = hb * params.omega_k[0]
    real = _real_points(u, v)
    if params.variant is ResonanceKind.DOUBLE:
        sk = _sinh_half(beta, xk)
        amp = math.sinh(params.g_tau) ** 2
        bx = beta * xk
        if real is not None:
            u, v = real
            rad1 = _real_sines((u * xk + v).ravel(), bx, sk * sk, amp)
            if rad1 is not None:
                return _result((sk / np.sqrt(rad1)).reshape(u.shape))
        u, v = _points(u, v)

        def rad(s: float, z: np.ndarray) -> np.ndarray:
            return sk * sk + np.sin(s * z) * np.sin(s * z - 1j * bx * s) * amp

        # the scaled path multiplies u and v jointly so the (u - i beta)
        # argument scales as s*z - i*s*beta*xk with z = u*xk + v
        z = (u * xk + v).ravel()
        root = np.sqrt(rad(1.0, z))
        # on the strip Re rad(s, z) >= sk^2 for every s in [0, 1], since
        # Re[sin w sin(w - ia)] = [cosh a - cos 2x cosh(2y - a)] / 2 >= 0
        # for 0 <= y <= a, so the principal root is the tracked branch;
        # a non-finite phase has no branch to track and gives NaN
        off = np.isfinite(z) & ~((z.imag >= 0.0) & (z.imag <= bx))
        if off.any():
            root[off] = tracked_sqrt(rad, (z[off],), steps=16, anchor_tol=1e-12)
        return _result((sk / root).reshape(u.shape))
    xp = hb * params.omega_p[0]
    sksp = _sinh_half(beta, xk) * _sinh_half(beta, xp)
    if params.variant is ResonanceKind.SUM:
        half = (xk + xp) / 2.0
        amp = math.sinh(params.g_tau) ** 2
    else:
        half = (xk - xp) / 2.0
        amp = math.sin(params.g_tau) ** 2
    if real is not None:
        u, v = real
        x = u * half + v if params.variant is ResonanceKind.SUM else u * half
        den = _real_sines(x, beta * half, sksp, amp)
        if den is not None:
            return _result(sksp / den)
    u, v = _points(u, v)
    if params.variant is ResonanceKind.SUM:
        den = sksp + np.sin(u * half + v) * np.sin(
            (u - 1j * beta) * half + v
        ) * amp
    else:
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


def _principal_open_double(
    u: np.ndarray, v: np.ndarray, beta: float, x0: float, x1: float, amp: float
) -> np.ndarray:
    """Where the principal root of the open single-mode radicand is the
    branch tracked from s = 0.

    With dx = x1 - x0, the radicand along the path is
    rad(s) = sinh^2(W) + sin(P) sin(Q) A, where W = (beta x0 - i s u dx)/2,
    P = s(u x1 + v), Q = s(u x0 + v) - i s beta x0 and A = sinh^2(g tau).
    Take Im v = 0, 0 <= Im u <= beta and phi = s Re(u) dx with cos phi >= 0.
    Then Re sinh^2(W) = [cosh(beta x0 + s Im(u) dx) cos phi - 1] / 2, whose
    cosh is at least K = cosh(beta min(x0, x1)).  Im P >= 0 >= Im Q, so
    |Im(P + Q)| <= Im(P - Q) <= beta max(x0, x1), and with
    sin P sin Q = [cos(P - Q) - cos(P + Q)] / 2 and Re(P - Q) = phi,
    Re sin P sin Q >= cosh(Im(P - Q)) (cos phi - 1) / 2
    >= C (cos phi - 1) / 2, C = cosh(beta max(x0, x1)).  Together
    Re rad(s) >= [(K + A C) cos phi - (1 + A C)] / 2.  For
    |Re(u) dx| <= pi, cos phi is least at s = 1, so the radicand keeps a
    positive real part on the whole path when
    cos(Re(u) dx) > (1 + A C) / (K + A C); the margin covers rounding of
    the phases, which grows with |Re u| and |v|.  A NaN fails every test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ac = amp * np.cosh(beta * max(x0, x1))
        # NaN past cosh's overflow, which certifies no point
        ratio = (1.0 + ac) / (np.cosh(beta * min(x0, x1)) + ac)
    phi = u.real * (x1 - x0)
    ok = (v.imag == 0.0) & (u.imag >= 0.0) & (u.imag <= beta)
    ok &= np.abs(phi) <= math.pi
    margin = 1e-9 * (1.0 + np.abs(u.real[ok]) * max(x0, x1) + np.abs(v.real[ok]))
    ok[ok] = np.cos(phi[ok]) > ratio + margin
    return ok


def closed_form_general(params: CharfunParams, u, v):
    """Open-endpoint G(u, v).

    Structure per participating mode s: a factor exp(-i u dx_s / 2) and
    a denominator entry A_s = sinh((beta x0_s - i u dx_s)/2), with the
    interaction term sin(u x_tau + v) sin((u - i beta) x0 + v) sinh^2 or
    sin^2 of the coupling, evaluated at endpoint frequencies as written.
    Reduces to closed_form when the endpoints coincide and to the
    product of per-mode <e^{i u dx n}> when the coupling vanishes.
    u and v broadcast as in closed_form.  The single-mode form takes the
    principal square root wherever _principal_open_double certifies it,
    which covers every point verify evaluates, and tracks the rest by
    tracked_sqrt.
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

        # flat, as the tracker evaluates its points; a non-finite point
        # has no branch to track and gives NaN
        uf, vf = u.ravel(), v.ravel()
        root = np.sqrt(rad(1.0, uf, vf))
        off = np.isfinite(uf) & np.isfinite(vf)
        off &= ~_principal_open_double(uf, vf, beta, xk0, xk1, amp)
        if off.any():
            root[off] = tracked_sqrt(
                rad, (uf[off], vf[off]), steps=16, anchor_tol=1e-12
            )
        return _result(np.exp(-1j * u * dxk / 2.0) * sk / root.reshape(u.shape))

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
    return _result(np.exp(-1j * u * (dxk + dxp) / 2.0) * sksp / den)


def _g(params: CharfunParams, u, v):
    """G(u, v) of one parameter record: closed_form for equal endpoints,
    else closed_form_general."""
    if params.is_closed:
        return closed_form(params, u, v)
    return closed_form_general(params, u, v)


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


def classical_work_cdf(
    variant: ResonanceKind, r: float, g_tau: float, beta: float, w
):
    """Cumulative two-sided exponential of classical work (two-mode cases)."""
    ap, am = classical_alphas(variant, r, g_tau, beta)
    pref = ap * am / (ap - am)
    w = np.asarray(w, dtype=float)
    neg = (pref / am) * np.exp(am * np.minimum(w, 0.0))
    pos = pref / am + (pref / ap) * (np.exp(ap * np.maximum(w, 0.0)) - 1.0)
    out = np.where(w <= 0.0, neg, pos)
    return float(out) if out.ndim == 0 else out


def moments(params: CharfunParams) -> tuple[float, float]:
    """(mean, central variance) of work by differentiation.

    Central differences of G(u, 0) at u=0 on three-step ladders with
    Richardson extrapolation; on each ladder the two extrapolants must
    agree or it is declared unconverged.  The second derivative takes a
    ladder 30x coarser than the first, since its difference quotient
    divides the roundoff of G by h^2.  The step scale adapts to
    whichever is smaller of the quantum 1/(hbar omega) and thermal beta
    scales so both Table-like limits differentiate accurately.
    """
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
    r2 = [(100.0 * d2(i + 1) - d2(i)) / 99.0 for i in range(2)]
    if abs(r2[0] - r2[1]) > max(1e-4 * abs(r2[1]), atol_mean**2):
        raise MomentConvergenceError("second-derivative ladder did not settle")
    second_moment = (-r2[1]).real
    return (mean, second_moment - mean * mean)
