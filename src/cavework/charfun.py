"""Closed-form characteristic functions of work and photon-number change.

Single-resonance results for a boundary returning to its starting
position, their generalization to unequal endpoint positions, G of a
whole resonance plan with its work lattice, its reverse protocol and
its grand-potential difference (plan_charfun, the one builder of G for
the distribution and verify commands, with a coupled group's G from
the trace formula by charfun_general), grand potentials, classical
(hbar -> 0) limits, and the work mean and variance as exact cumulants
of G.

The three resonance channels are one form in x = hbar omega:
sinh(beta x_k / 2) sinh(beta x_p / 2) + sin(z) sin(z - i beta h) A, with
z = h u + v and A the coupling amplitude.  The sum channel (pair
creation at omega_k + omega_p) takes h = (x_k + x_p) / 2 and
A = sinh^2(g tau); the difference channel (beam splitting at
|omega_k - omega_p|) h = (x_k - x_p) / 2, A = sin^2(g tau) and no v in
z; the double channel (squeezing at 2 omega_k) is the sum form at
x_p = x_k under a square root.  A channel's work quantum is 2 |h| =
x_k +- x_p (_drive_quantum), hbar Omega at exact resonance: G's period
in u is 2 pi over it, and every channel of a plan must share it.

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
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .driving import (
    DrivingProtocol,
    ResonanceCase,
    ResonanceKind,
    ResonancePlan,
    group_frequencies,
    interaction_generator,
)
from .errors import DegenerateResonanceError
from .symplectic import (
    _MAX_THERMAL_EXPONENT,
    charfun_from_generator,
    check_thermal_norm,
    tracked_sqrt,
)

__all__ = [
    "CharfunParams",
    "charfun_general",
    "classical_alphas",
    "classical_work_cdf",
    "closed_form",
    "closed_form_general",
    "grand_potential_diff",
    "moments",
    "plan_charfun",
    "plan_params",
]

_DEGENERATE_RATIO_TOL = 1e-6
# channels share a work lattice when their quanta x_k +- x_p agree to
# the rounding of those sums: a few ulps of the plan's largest energy
_LATTICE_ROUNDING = 8e-16
_MAX_COUPLING_EXPONENT = 710.0
# (r + 1)^2 overflows past r = 1.3e154
_MAX_CLASSICAL_RATIO = 1e150


@dataclass(frozen=True)
class CharfunParams:
    """Inputs of a single-resonance characteristic function.

    Frequencies are (start, end) pairs so the same record describes both
    the periodic case (equal entries) and a boundary that stops
    elsewhere.

    The record holds the closed forms' float range, on every route that
    builds it, and refuses with ValueError outside it.  With x = hbar
    omega and h, c0 of closed_form, at both endpoints: beta x <= 700
    (sinh^2(beta x / 2) overflows at 709.78); c0 at least the smallest
    normal float, below which G(0, 0) drifts from 1; the quantum 2 |h|
    and its u-period finite; 2 |g tau| + beta |h| <= 710 on a double or
    sum channel, where sinh^2(g tau) cosh(beta h) stays below e^710 / 4.
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
        g_exp = 2.0 * abs(self.g_tau)  # sinh^2(g tau) grows as e^g_exp / 4
        if self.variant is ResonanceKind.DOUBLE:
            if self.omega_p is not None:
                raise ValueError("single-mode resonance takes no second mode")
        else:
            if self.omega_p is None:
                raise ValueError(f"{self.variant.value} resonance needs omega_p")
            if self.variant is ResonanceKind.DIFFERENCE:
                g_exp = 0.0  # sin^2(g tau) is at most 1
                r = self.omega_p[0] / self.omega_k[0]
                if abs(r - 1.0) < _DEGENERATE_RATIO_TOL:
                    raise DegenerateResonanceError(
                        "difference resonance is degenerate for equal frequencies"
                    )
        for end in (0, 1):  # the float range of the class docstring
            xk, xp, h = _energies(self, end)
            exponent = self.beta * max(xk, xp)
            if not exponent <= _MAX_THERMAL_EXPONENT:
                raise ValueError(
                    f"beta * hbar * omega = {exponent:.6g} of a resonant mode exceeds "
                    f"{_MAX_THERMAL_EXPONENT:g}; the thermal factors leave float range"
                )
            c0 = _sinh_half(self.beta, xk) * _sinh_half(self.beta, xp)
            if c0 < sys.float_info.min:
                raise ValueError(
                    f"the thermal factor sinh(beta hbar omega_k / 2) sinh(beta hbar "
                    f"omega_p / 2) = {c0!r} underflows below the smallest normal float"
                )
            quantum = 2.0 * abs(h)
            if not (0.0 < quantum < math.inf and 2.0 * math.pi / quantum < math.inf):
                raise ValueError(
                    f"channel quantum hbar (omega_k +- omega_p) = {quantum!r}: it and "
                    "its period 2 pi / quantum in u must be finite"
                )
            if not g_exp + self.beta * abs(h) <= _MAX_COUPLING_EXPONENT:
                raise ValueError(
                    f"2 |g| * tau + beta * |h| = {g_exp + self.beta * abs(h):.6g} of a "
                    f"{self.variant.value} channel exceeds {_MAX_COUPLING_EXPONENT:g}: "
                    "sinh^2(g tau) cosh(beta h) leaves float range"
                )

    @classmethod
    def from_case(
        cls, case: ResonanceCase, beta: float, tau: float, hbar: float = 1.0
    ) -> "CharfunParams":
        """Build parameters from a classified resonance, closed endpoints."""
        return cls(
            variant=case.kind,
            beta=beta,
            omega_k=(case.omega_k, case.omega_k),
            omega_p=None if case.p is None else (case.omega_p, case.omega_p),
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


def _edge_points(u, v, beta: float):
    """(Re u, v, top) as float arrays of their common broadcast shape for
    points on an edge of the strip 0 <= Im u <= beta at real v: top is
    False for real u, True where every u has imaginary part exactly beta.
    None for a complex v or any other u."""
    u, v = np.asarray(u), np.asarray(v)
    if np.iscomplexobj(v):
        return None
    top = np.iscomplexobj(u)
    if top:
        if not (u.imag == beta).all():
            return None
        u = u.real
    return *np.broadcast_arrays(u.astype(float), v.astype(float)), top


def _real_sines(x: np.ndarray, a: float, c0: float, amp: float):
    """c0 + sin(x) sin(x - ia) amp at real x as the complex evaluation
    forms it, or None for a non-finite phase.

    csin forms both sines from one sin and cos of x (as it does while
    |a| <= 709, which the record keeps), and every cross term
    of the complex products is an exact zero, so each value keeps its
    bits; only a zero imaginary part may differ in sign, which neither
    the square root nor the division into G passes on.
    """
    if not np.isfinite(x).all():
        return None
    s, c = np.sin(x), np.cos(x)
    out = np.empty(x.shape, dtype=complex)
    out.real = c0 + s * (s * math.cosh(-a)) * amp
    out.imag = s * (c * math.sinh(-a)) * amp
    return out


def _result(g: np.ndarray):
    """A Python complex for a single point, else the array."""
    return complex(g) if g.ndim == 0 else g


def _energies(params: CharfunParams, end: int) -> tuple[float, float, float]:
    """(x_k, x_p, h) of the sum form at one endpoint, x = hbar omega:
    x_p = x_k on the single-mode channel, h = (x_k + x_p) / 2, or
    (x_k - x_p) / 2 on the difference channel."""
    xk = params.hbar * params.omega_k[end]
    xp = xk if params.omega_p is None else params.hbar * params.omega_p[end]
    if params.variant is ResonanceKind.DIFFERENCE:
        return xk, xp, (xk - xp) / 2.0
    return xk, xp, (xk + xp) / 2.0


def _drive_quantum(params: CharfunParams) -> float:
    """The work quantum 2 |h| = x_k +- x_p: G's u-period is 2 pi over it."""
    return 2.0 * abs(_energies(params, 0)[2])


def _phase(params: CharfunParams, h: float, u, v):
    """h u + v, or h u on the difference channel, whose G has no v."""
    if params.variant is ResonanceKind.DIFFERENCE:
        return u * h
    return u * h + v


def _root(rad, points: tuple[np.ndarray, ...], certified: np.ndarray) -> np.ndarray:
    """sqrt(rad(1, *points)) over flat points: the principal root where
    certified, the root tracked from s = 0 at the other finite points.
    A non-finite point has no branch to track and gives NaN."""
    root = np.sqrt(rad(1.0, *points))
    off = ~certified & np.logical_and.reduce([np.isfinite(p) for p in points])
    if off.any():
        root[off] = tracked_sqrt(
            rad, tuple(p[off] for p in points), steps=16, anchor_tol=1e-12
        )
    return root


def closed_form(params: CharfunParams, u, v):
    """G(u, v) for a boundary that returns to its starting position.

    Every channel is one form: with x = hbar omega, A the coupling
    amplitude and c0 = sinh(beta x_k / 2) sinh(beta x_p / 2),
    G = c0 / [c0 + sin(z) sin(z - i beta h) A], where z = h u + v and
    h = (x_k + x_p) / 2, or z = h u and h = (x_k - x_p) / 2 on the
    difference channel.  The single-mode channel is sinh(beta x_k / 2)
    over the root of the sum form's denominator at x_p = x_k.

    u and v broadcast against each other; scalar input returns a Python
    complex.  At real (u, v) the two sines come from one real sin and
    cos of z (_real_sines), bit for bit the complex evaluation.  So do
    they on the strip's top edge, where every u has imaginary part
    exactly beta and v is real: there Im z = beta h, z - i beta h is
    real, and the product is the conjugate of the real-axis one at Re z.
    Any other complex u, a complex v or non-finite input takes the
    complex evaluation.  The single-mode form takes the principal square
    root on the strip 0 <= Im z <= beta x_k, which holds every point the
    package evaluates: real (u, v), u = i beta and u + i beta.  Only
    points off the strip track their root by tracked_sqrt.
    """
    if not params.is_closed:
        raise ValueError("endpoint frequencies differ; use closed_form_general")
    xk, xp, h = _energies(params, 0)
    double = params.variant is ResonanceKind.DOUBLE
    sk = _sinh_half(params.beta, xk)
    c0 = sk * _sinh_half(params.beta, xp)
    num = sk if double else c0
    a = params.beta * h
    amp = _coupling_amp(params.variant, params.g_tau)
    edge = _edge_points(u, v, params.beta)
    if edge is not None:
        *real, top = edge
        den = _real_sines(_phase(params, h, *real), a, c0, amp)
        if den is not None:
            if top:  # z - ia is real: the conjugate of the real-axis form
                np.negative(den.imag, out=den.imag)
            return _result(num / (np.sqrt(den) if double else den))

    # the denominator at phase s z: G's at s = 1, the tracker's path below
    def rad(s: float, z: np.ndarray) -> np.ndarray:
        z = z if s == 1.0 else s * z
        return c0 + np.sin(z) * np.sin(z - 1j * a * s) * amp

    z = _phase(params, h, *_points(u, v))
    if not double:
        return _result(num / rad(1.0, z))
    # on the strip Re rad(s, z) >= c0 for every s in [0, 1], since
    # Re[sin w sin(w - ia)] = [cosh a - cos 2x cosh(2y - a)] / 2 >= 0
    # for 0 <= y <= a, so the principal root is the tracked branch
    zf = z.ravel()
    root = _root(rad, (zf,), (zf.imag >= 0.0) & (zf.imag <= a))
    return _result((num / root).reshape(z.shape))


def grand_potential_diff(pairs: Sequence, beta: float, hbar: float = 1.0) -> float:
    """dPhi = (1/beta) sum_k ln[(1 - e^{-beta x_tau}) / (1 - e^{-beta x_0})].

    pairs holds one (omega_at_start, omega_at_end) pair per active mode.
    The zero-point halves are excluded, consistent with work counting
    only occupation quanta.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    total = 0.0
    for w0, w1 in pairs:
        w0, w1 = float(w0), float(w1)
        if not (w0 > 0.0 and w1 > 0.0):
            raise ValueError("frequencies must be positive")
        # -expm1(-x) keeps 1 - e^{-x} positive for every x > 0; 1 - exp(-x)
        # rounds to 0 below x = 1.1e-16
        total += math.log(-math.expm1(-beta * hbar * w1)) - math.log(
            -math.expm1(-beta * hbar * w0)
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
    # finite: the record bounds 2 |g tau| + beta max(x0, x1) by 710
    ac = amp * np.cosh(beta * max(x0, x1))
    ratio = (1.0 + ac) / (np.cosh(beta * min(x0, x1)) + ac)
    phi = u.real * (x1 - x0)
    ok = (v.imag == 0.0) & (u.imag >= 0.0) & (u.imag <= beta)
    ok &= np.abs(phi) <= math.pi
    margin = 1e-9 * (1.0 + np.abs(u.real[ok]) * max(x0, x1) + np.abs(v.real[ok]))
    ok[ok] = np.cos(phi[ok]) > ratio + margin
    return ok


def closed_form_general(params: CharfunParams, u, v):
    """Open-endpoint G(u, v): the form of closed_form with start and end
    energies x0, x1 and dx = x1 - x0 per mode,

        G = exp(-i u (dx_k + dx_p) / 2) c0 / [A_k A_p + sin(P) sin(Q) A],

    A_j = sinh((beta x0_j - i u dx_j) / 2), P = h1 u + v and
    Q = h0 u + v - i beta h0, with h0, h1 the h of closed_form at each
    end and c0 at the start; again no v on the difference channel, and
    the single-mode channel the root of this form at x_p = x_k.  It
    reduces to closed_form when the endpoints coincide and to the product
    of per-mode <e^{i u dx n}> when the coupling vanishes.  u and v
    broadcast as in closed_form.  The single-mode form takes the
    principal square root wherever _principal_open_double certifies it,
    which covers every point verify evaluates, and tracks the rest by
    tracked_sqrt.
    """
    beta = params.beta
    xk0, xp0, h0 = _energies(params, 0)
    xk1, xp1, h1 = _energies(params, 1)
    dxk, dxp = xk1 - xk0, xp1 - xp0
    double = params.variant is ResonanceKind.DOUBLE
    sk = _sinh_half(beta, xk0)
    c0 = sk * _sinh_half(beta, xp0)
    amp = _coupling_amp(params.variant, params.g_tau)

    # the denominator at (s u, s v): G's at s = 1, the tracker's path below
    def rad(s: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        ak = np.sinh((beta * xk0 - 1j * s * u * dxk) / 2.0)
        # A_p is A_k on the single-mode channel: no second sinh
        ap = ak if double else np.sinh((beta * xp0 - 1j * s * u * dxp) / 2.0)
        p, q = (_phase(params, h, u, v) for h in (h1, h0))
        p, q = (p, q) if s == 1.0 else (s * p, s * q)
        return ak * ap + np.sin(p) * np.sin(q - 1j * s * beta * h0) * amp

    u, v = _points(u, v)
    if double:
        uf, vf = u.ravel(), v.ravel()
        certified = _principal_open_double(uf, vf, beta, xk0, xk1, amp)
        den = _root(rad, (uf, vf), certified).reshape(u.shape)
    else:
        den = rad(1.0, u, v)
    # exp(-i u dx / 2) per mode: the single-mode channel's is the root of
    # the sum form's exp(-i u dx_k)
    shift = np.exp(-1j * u * (dxk + dxp) / (4.0 if double else 2.0))
    return _result(shift * (sk if double else c0) / den)


def _g(params: CharfunParams, u, v):
    """G(u, v) of one parameter record: closed_form for equal endpoints,
    else closed_form_general."""
    if params.is_closed:
        return closed_form(params, u, v)
    return closed_form_general(params, u, v)


def plan_params(
    plan: ResonancePlan, protocol: DrivingProtocol, beta: float
) -> list[CharfunParams]:
    """A CharfunParams per channel of the plan: each mode at its lambda0
    frequency at both ends for a closed protocol, else ending at its
    lambda(tau) frequency.  ValueError outside the records' float range,
    or for a coupled group whose thermal normalization leaves it
    (symplectic.check_thermal_norm)."""
    tau, hbar = protocol.tau, protocol.hbar
    params = [CharfunParams.from_case(c, beta, tau, hbar=hbar) for c in plan.cases]
    for group in plan.groups:
        if len(group) > 1:
            freq = group_frequencies([plan.cases[i] for i in group])
            check_thermal_norm(beta * hbar * np.array(list(freq.values())))
    if protocol.is_closed:
        return params
    end = {m: w1 for m, _, w1 in plan.resonant_modes}
    return [
        replace(p, omega_k=(c.omega_k, end[c.k]),
                omega_p=None if c.p is None else (c.omega_p, end[c.p]))
        for p, c in zip(params, plan.cases)
    ]


def charfun_general(group, protocol: DrivingProtocol, beta: float, u, v):
    """G(u, v) over broadcast u and v for one coupled resonance group of
    a protocol that returns the boundary to its start, by the trace
    formula symplectic.charfun_from_generator.  An open protocol takes
    the general-endpoint closed forms or the truncated-Fock oracle."""
    if not protocol.is_closed:
        raise ValueError(
            "protocol does not return the boundary to its start; "
            "use the general-endpoint closed forms or the Fock oracle"
        )
    gen = interaction_generator(group, phi=protocol.phi)
    freq = group_frequencies(group)
    return charfun_from_generator(
        gen, [freq[m] for m in gen.modes], protocol.tau, beta, u, v,
        hbar=protocol.hbar,
    )


def plan_charfun(plan: ResonancePlan, protocol: DrivingProtocol, beta: float):
    """(G(u, v) over broadcast arrays, work spacing, reverse G, dPhi) of a
    resonance plan: the closed forms of its mode-disjoint channels times
    charfun_general of each coupled group, on the first channel's
    quantum.  A closed protocol is its own reverse, given as
    None, with dPhi = 0; its closed forms take every mode at its lambda0
    frequency at both ends.  An open one ends each mode at the plan's
    lambda(tau) frequency and needs no coupled group; its reverse swaps
    every channel's endpoints, and dPhi is grand_potential_diff over the
    plan's resonant modes.  Raises ValueError for a plan with no channel,
    for an open protocol with a coupled group, and for channels whose
    quanta differ beyond their rounding."""
    if not plan.cases:
        raise ValueError("the plan has no resonance channel, so no work lattice")
    coupled = [[plan.cases[i] for i in g] for g in plan.groups if len(g) > 1]
    if not protocol.is_closed and coupled:
        raise ValueError(
            "the boundary does not return to its start (lambda(tau) != lambda0): "
            "the trace formula of a coupled group needs a closed protocol"
        )
    params = plan_params(plan, protocol, beta)
    quanta = [_drive_quantum(p) for p in params]
    largest = max(x for p in params for x in _energies(p, 0)[:2])
    if max(quanta) - min(quanta) > _LATTICE_ROUNDING * largest:
        raise ValueError(
            f"the channels' work quanta span {min(quanta)!r} to "
            f"{max(quanta)!r}, beyond the rounding of their energies: they "
            "share no work lattice"
        )
    single = [params[g[0]] for g in plan.groups if len(g) == 1]

    def evaluate(u, v, records=single):
        g = 1.0 + 0.0j
        for record in records:
            g = g * _g(record, u, v)
        for group in coupled:
            g = g * charfun_general(group, protocol, beta, u, v)
        return g

    if protocol.is_closed:
        return evaluate, quanta[0], None, 0.0
    swap = [replace(p, omega_k=p.omega_k[::-1], omega_p=p.omega_p and p.omega_p[::-1])
            for p in single]
    dphi = grand_potential_diff(
        [t[1:] for t in plan.resonant_modes], beta, protocol.hbar
    )
    return evaluate, quanta[0], partial(evaluate, records=swap), dphi


def _classical_ratio_coeff(variant: ResonanceKind, r: float | None) -> float:
    if variant is ResonanceKind.DOUBLE:
        r = 1.0  # the sum form at omega_p = omega_k: (1 + 1)^2 / 1 = 4
    if r is None or not 1.0 / _MAX_CLASSICAL_RATIO <= r <= _MAX_CLASSICAL_RATIO:
        raise ValueError(
            f"two-mode classical forms need a positive ratio r within "
            f"{_MAX_CLASSICAL_RATIO:g} of 1 either way, where (r +- 1)^2 / r "
            f"stays in float range; got {r!r}"
        )
    if variant is not ResonanceKind.DIFFERENCE:
        return (r + 1.0) ** 2 / r
    if abs(r - 1.0) < _DEGENERATE_RATIO_TOL:
        raise DegenerateResonanceError(
            "classical difference form is degenerate at r=1"
        )
    return (r - 1.0) ** 2 / r


def _coupling_amp(variant: ResonanceKind, g_tau: float) -> float:
    if variant is ResonanceKind.DIFFERENCE:
        return math.sin(g_tau) ** 2
    return math.sinh(g_tau) ** 2


def classical_alphas(
    variant: ResonanceKind, r: float, g_tau: float, beta: float
) -> tuple[float, float]:
    """Decay rates (alpha_plus, alpha_minus) of the two-sided exponential;
    -inf and inf, the point law at w = 0, where the coupling amplitude
    vanishes."""
    if variant is ResonanceKind.DOUBLE:
        raise ValueError("the two-sided exponential covers only two-mode cases")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    c = _classical_ratio_coeff(variant, r) * _coupling_amp(variant, g_tau)
    root = math.sqrt(1.0 + 4.0 / c) if c else math.inf
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
    """(mean, central variance) of work for a closed protocol: the first
    two cumulants of G, -i d/du ln G(u, 0) and -d^2/du^2 ln G(u, 0) at
    u = 0, exact and without evaluating G.

    With c_j = coth(beta x_j / 2), h = (x_k +- x_p) / 2 and A the
    coupling amplitude, the two-mode forms give mean = A h (c_p +- c_k)
    and variance = A h^2 [2 (c_k c_p +- 1) + A (c_p +- c_k)^2], + for
    the sum and - for the difference.  The single-mode form is the sum
    form at x_p = x_k under a square root, so it takes half of each.
    Written with coth, neither overflows for large beta x; ValueError
    where either leaves float range, as at a tiny beta x or a huge h.
    """
    if not params.is_closed:
        raise ValueError("endpoint frequencies differ; moments need a closed protocol")
    xk, xp, h = _energies(params, 0)
    ck, cp = (1.0 / math.tanh(params.beta * x / 2.0) for x in (xk, xp))
    sign = -1.0 if params.variant is ResonanceKind.DIFFERENCE else 1.0
    amp = _coupling_amp(params.variant, params.g_tau)
    c = cp + sign * ck
    mean = amp * h * c
    var = amp * h * h * (2.0 * (ck * cp + sign) + amp * c * c)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError(
            f"the work moments leave float range: mean {mean!r}, variance {var!r}"
        )
    if params.variant is ResonanceKind.DOUBLE:
        return mean / 2.0, var / 2.0
    return mean, var
