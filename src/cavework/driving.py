"""Boundary protocol and resonance bookkeeping.

A sinusoidal boundary drive lambda(t) = lambda0 [1 + eps sin(Omega t + phi)]
couples to the field, under the rotating-wave approximation, only through
three resonance channels:

* double:     Omega = 2 w_k        (single-mode squeezing),
* sum:        Omega = w_k + w_p    (pair creation),
* difference: Omega = |w_k - w_p|  (beam-splitter exchange).

Pair strengths carry the antisymmetrized mixing coefficient
(g_kp - g_pk)/2.  For the antisymmetric tables (all TE, and the forms
that are already odd under index swap) this equals g_kp itself; for the
TM-style tables it is what the pair terms of the effective Hamiltonian
actually sum to over both orderings, and it is the only choice
compatible with a Hermitian generator.

Cases sharing a mode cannot be treated separately; they are grouped into
coupled components and each component gets a single quadratic generator.
Pair partners are found by bisection in the sorted spectrum, and the
groups come from _components, the connected-components routine that also
splits the Fock oracle's interaction into its sectors.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .cavity import (
    Geometry,
    ModeIndex,
    Polarization,
    coupling_coefficient,
    mode_frequency,
    mode_index_str,
    moving_frequency_squared,
)
from .errors import AmbiguousResonanceError, DegenerateResonanceError
from .symplectic import QuadraticForm

__all__ = [
    "DrivingProtocol",
    "ResonanceCase",
    "ResonanceKind",
    "ResonancePlan",
    "classify_resonances",
    "coupling_strength",
    "group_frequencies",
    "interaction_generator",
]

# classify_resonances' default tolerance, relative to Omega
_RESONANCE_TOL = 1e-9

# the epsilon warning's registry: the default filter shows it once
_WARNED: dict = {}


@dataclass(frozen=True)
class DrivingProtocol:
    """lambda(t) = lambda0 [1 + epsilon sin(omega_drive t + phi)].

    hbar scales energies only (work values, beta*omega weights); the
    dynamical phases omega*tau and g*tau are hbar-free, which keeps
    classical-limit sweeps clean.
    """

    lambda0: float
    epsilon: float
    omega_drive: float
    tau: float
    phi: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if not self.lambda0 > 0.0:
            raise ValueError("lambda0 must be positive")
        if not self.omega_drive > 0.0:
            raise ValueError("omega_drive must be positive")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(
                f"epsilon={self.epsilon!r} is outside the perturbative regime (0, 0.5)"
            )
        if self.epsilon >= 0.1:
            # a fixed location, so that stderr names no source line
            warnings.warn_explicit(
                f"epsilon={self.epsilon:g} strains the first-order expansion",
                UserWarning, "cavework", 0, registry=_WARNED,
            )
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if not self.hbar > 0.0:
            raise ValueError("hbar must be positive")

    def lambda_at(self, t: float) -> float:
        return self.lambda0 * (
            1.0 + self.epsilon * math.sin(self.omega_drive * t + self.phi)
        )

    @property
    def lambda_tau(self) -> float:
        return self.lambda_at(self.tau)

    @property
    def is_closed(self) -> bool:
        """True when the boundary ends where it started."""
        return abs(self.lambda_tau - self.lambda0) <= 1e-9 * self.lambda0


class ResonanceKind(Enum):
    DOUBLE = "double"
    SUM = "sum"
    DIFFERENCE = "difference"


@dataclass(frozen=True)
class ResonanceCase:
    """One matched resonance channel.

    For pair kinds, k is the higher-frequency mode; p is None for the
    single-mode double resonance.  strength keeps the sign the coupling
    tables give it.
    """

    kind: ResonanceKind
    k: ModeIndex
    p: ModeIndex | None
    omega_k: float
    omega_p: float | None
    strength: float
    detuning: float

    @property
    def modes(self) -> tuple[ModeIndex, ...]:
        return (self.k,) if self.p is None else (self.k, self.p)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "modes": [list(m) for m in self.modes],
            "omegas": [self.omega_k] + ([] if self.omega_p is None else [self.omega_p]),
            "strength": self.strength,
            "detuning": self.detuning,
        }


@dataclass(frozen=True)
class ResonancePlan:
    """Partition of matched cases into coupled groups, plus the rest.

    resonant_modes holds (mode, omega at lambda0, omega at lambda(tau))
    for every mode of a case, ordered by starting frequency, then index:
    the table of fock.TruncatedFockSpace and of the endpoint bookkeeping.
    """

    cases: tuple[ResonanceCase, ...]
    groups: tuple[tuple[int, ...], ...]
    adiabatic_modes: tuple[tuple[ModeIndex, float], ...]
    resonant_modes: tuple[tuple[ModeIndex, float, float], ...]

    def to_json(self) -> str:
        payload = {
            "cases": [
                dict(case.to_dict(), id=i) for i, case in enumerate(self.cases)
            ],
            "groups": [list(g) for g in self.groups],
            "adiabatic_modes": [
                {"mode": list(m), "frequency": w} for m, w in self.adiabatic_modes
            ],
            "resonant_modes": [
                {"mode": list(m), "frequency": w0, "frequency_tau": w1}
                for m, w0, w1 in self.resonant_modes
            ],
        }
        return json.dumps(payload, indent=2)


def _antisymmetrized_coupling(
    geom: Geometry, pol: Polarization, k: ModeIndex, p: ModeIndex
) -> float:
    return 0.5 * (
        coupling_coefficient(geom, pol, k, p) - coupling_coefficient(geom, pol, p, k)
    )


def coupling_strength(
    kind: ResonanceKind,
    protocol: DrivingProtocol,
    geom: Geometry,
    pol: Polarization,
    k: ModeIndex,
    wk: float,
    p: ModeIndex | None = None,
    wp: float | None = None,
) -> float:
    """RWA strength g of one resonance channel, in frequency units.

    double:     g = eps Omega w_mov^2 / (4 w_k^2), the driven share of the
                squared frequency (reduces to eps Omega (kz pi)^2 /
                (4 w^2 lambda0^2) for an axial drive);
    sum:        g = (eps Omega / 4)(sqrt(wk/wp) - sqrt(wp/wk)) g_kp;
    difference: g = (eps Omega / 4)(sqrt(wk/wp) + sqrt(wp/wk)) g_kp,

    with g_kp the antisymmetrized coupling, k the higher-frequency mode
    of a pair, and wk, wp the frequencies the resonance was matched at.
    """
    eps_omega = protocol.epsilon * protocol.omega_drive
    if kind is ResonanceKind.DOUBLE:
        if p is not None:
            raise ValueError("double resonance takes a single mode")
        w_mov2 = moving_frequency_squared(geom, pol, k, protocol.lambda0)
        return eps_omega * w_mov2 / (4.0 * wk**2)
    if p is None or wp is None:
        raise ValueError(f"{kind.value} resonance takes a mode pair")
    if wk < wp or (wk == wp and kind is ResonanceKind.DIFFERENCE):
        if kind is ResonanceKind.DIFFERENCE and wk == wp:
            raise DegenerateResonanceError(
                f"difference resonance of equal-frequency modes {k} and {p}"
            )
        k, p, wk, wp = p, k, wp, wk
    g_kp = _antisymmetrized_coupling(geom, pol, k, p)
    ratio = math.sqrt(wk / wp)
    if kind is ResonanceKind.SUM:
        return 0.25 * eps_omega * (ratio - 1.0 / ratio) * g_kp
    if kind is ResonanceKind.DIFFERENCE:
        return 0.25 * eps_omega * (ratio + 1.0 / ratio) * g_kp
    raise ValueError(f"unknown resonance kind {kind!r}")


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> list[np.ndarray]:
    """Vertex indices of each connected component of the graph on dim
    vertices with edges (rows[k], cols[k]), ordered by smallest index,
    ascending within each component."""
    # each vertex takes the smallest label among its neighbours, then its
    # label's label, until nothing moves; every label is then the
    # smallest index of its component
    labels = np.arange(dim)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if dim else []


def classify_resonances(
    spectrum: "list[tuple[ModeIndex, float]]",
    protocol: DrivingProtocol,
    geom: Geometry,
    pol: Polarization,
    tol: float | None = None,
) -> ResonancePlan:
    """Match the drive against every mode and unordered mode pair.

    tol defaults to 1e-9 * Omega; exact resonance is a modeling choice,
    and spectra are good to ~1e-12.  Channels whose strength vanishes
    identically are discarded.  A pair matching both the sum and the
    difference condition within tol means tol is too coarse.  Every
    resonant mode's frequency at lambda(tau) is evaluated here, once,
    into the plan's resonant_modes.
    """
    if not spectrum:
        raise ValueError("spectrum must be nonempty")
    omega = protocol.omega_drive
    if tol is None:
        tol = _RESONANCE_TOL * omega
        if not tol > 0.0:
            raise ValueError(
                f"omega_drive = {omega!r}: the resonance tolerance "
                f"{_RESONANCE_TOL:g} * Omega underflows to 0"
            )
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    entries = sorted(spectrum, key=lambda e: (e[1], e[0]))
    freqs = np.array([w for _, w in entries])
    cases: list[ResonanceCase] = []

    for mode, w in entries:
        det = abs(omega - 2.0 * w)
        if det <= tol:
            g = coupling_strength(ResonanceKind.DOUBLE, protocol, geom, pol, mode, w)
            if g != 0.0:
                cases.append(
                    ResonanceCase(ResonanceKind.DOUBLE, mode, None, w, None, g, det)
                )

    # a higher partner wp of wk lies near omega - wk (sum) or omega + wk
    # (difference); bisection finds every entry's candidates in a window
    # wider than tol plus roundoff, the loop visits the entries that have
    # one, in order, and the detuning tests below decide each pair
    win = 2.0 * tol + 1e-12 * (omega + freqs)
    targets = omega + freqs * [[-1.0], [1.0]]  # omega - wk, omega + wk
    above = np.arange(1, len(freqs) + 1)
    lo = np.maximum(np.searchsorted(freqs, targets - win), above)
    hi = np.searchsorted(freqs, targets + win, "right")
    rows = np.flatnonzero((hi > lo).any(axis=0))
    for i, (lo_s, lo_d), (hi_s, hi_d) in zip(
        rows.tolist(), lo.T[rows].tolist(), hi.T[rows].tolist()
    ):
        mk, wk = entries[i]
        near = {*range(lo_s, hi_s), *range(lo_d, hi_d)}
        for mp, wp in (entries[j] for j in sorted(near)):
            det_sum = abs(omega - (wk + wp))
            det_diff = abs(omega - abs(wk - wp))
            if det_sum <= tol and det_diff <= tol:
                raise AmbiguousResonanceError(
                    [
                        f"pair {mode_index_str(mk)},{mode_index_str(mp)} matches both "
                        f"sum (detuning {det_sum:.3e}) and difference "
                        f"(detuning {det_diff:.3e}) at tol {tol:.3e}"
                    ]
                )
            hi, lo, whi, wlo = (mk, mp, wk, wp) if wk >= wp else (mp, mk, wp, wk)
            for kind, det, hit in (
                (ResonanceKind.SUM, det_sum, det_sum <= tol),
                (ResonanceKind.DIFFERENCE, det_diff, det_diff <= tol and wk != wp),
            ):
                g = 0.0
                if hit:
                    g = coupling_strength(kind, protocol, geom, pol, hi, whi, lo, wlo)
                if g != 0.0:
                    cases.append(ResonanceCase(kind, hi, lo, whi, wlo, g, det))

    rank = list(ResonanceKind).index
    cases.sort(key=lambda c: (rank(c.kind), c.k, c.p or c.k))

    # cases sharing a mode are linked through the first case holding it
    first: dict[ModeIndex, int] = {}
    links = [(i, first.setdefault(m, i)) for i, c in enumerate(cases) for m in c.modes]
    rows, cols = np.array(links, dtype=int).reshape(-1, 2).T
    groups = tuple(tuple(g.tolist()) for g in _components(rows, cols, len(cases)))

    resonant = {m for case in cases for m in case.modes}
    adiabatic = tuple(
        (m, w) for m, w in entries if m not in resonant
    )
    lam = protocol.lambda_tau
    table = tuple(
        (m, w, mode_frequency(geom, pol, m, lam)) for m, w in entries if m in resonant
    )
    return ResonancePlan(tuple(cases), groups, adiabatic, table)


def group_frequencies(group: "list[ResonanceCase]") -> dict[ModeIndex, float]:
    """mode -> initial frequency over a coupled group, checked consistent."""
    freq: dict[ModeIndex, float] = {}
    for case in group:
        pairs = [(case.k, case.omega_k)]
        if case.p is not None:
            pairs.append((case.p, case.omega_p))
        for mode, w in pairs:
            if mode in freq and abs(freq[mode] - w) > 1e-12 * max(1.0, abs(w)):
                raise ValueError(
                    f"conflicting frequencies for mode {mode_index_str(mode)}"
                )
            freq.setdefault(mode, w)
    return freq


def interaction_generator(
    group: "list[ResonanceCase]", phi: float = 0.0
) -> QuadraticForm:
    """Quadratic generator V of one coupled group: V = 1/2 alpha S alpha.

    Cases from several mode-disjoint groups (a whole plan) give a
    block-diagonal S over the union of their modes, sorted by index.
    Exact equality, no scalar remainder: the squeeze and pair-creation
    blocks are traceless and the exchange block enters symmetrically.
    A drive phase phi rotates the creation combinations by e^{-i phi};
    thermal expectation values cannot depend on it, which the tests pin
    down, but the generator keeps it for faithfulness.
    """
    if not group:
        return QuadraticForm(np.zeros((0, 0), dtype=complex))
    modes = sorted({m for case in group for m in case.modes})
    pos = {m: i for i, m in enumerate(modes)}
    n = len(modes)
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    up = -1j * np.exp(-1j * phi)  # multiplies creation-like combinations
    dn = 1j * np.exp(1j * phi)
    for case in group:
        if case.kind is ResonanceKind.DOUBLE:
            j = pos[case.k]
            s[n + j, n + j] += case.strength * up
            s[j, j] += case.strength * dn
        elif case.kind is ResonanceKind.SUM:
            j, l = pos[case.k], pos[case.p]
            s[n + j, n + l] += case.strength * up
            s[n + l, n + j] += case.strength * up
            s[j, l] += case.strength * dn
            s[l, j] += case.strength * dn
        else:
            j, l = pos[case.k], pos[case.p]
            s[n + j, l] += case.strength * up
            s[l, n + j] += case.strength * up
            s[j, n + l] += case.strength * dn
            s[n + l, j] += case.strength * dn
    return QuadraticForm(s, tuple(modes))
