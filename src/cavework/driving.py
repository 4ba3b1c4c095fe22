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
            warnings.warn(
                f"epsilon={self.epsilon:g} strains the first-order expansion",
                stacklevel=3,  # past the dataclass-generated __init__
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
    """Partition of matched cases into coupled groups, plus the rest."""

    cases: tuple[ResonanceCase, ...]
    groups: tuple[tuple[int, ...], ...]
    adiabatic_modes: tuple[tuple[ModeIndex, float], ...]

    def case_groups(self) -> list[list[ResonanceCase]]:
        return [[self.cases[i] for i in g] for g in self.groups]

    def to_json(self) -> str:
        payload = {
            "cases": [
                dict(case.to_dict(), id=i) for i, case in enumerate(self.cases)
            ],
            "groups": [list(g) for g in self.groups],
            "adiabatic_modes": [
                {"mode": list(m), "frequency": w} for m, w in self.adiabatic_modes
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
    p: ModeIndex | None = None,
) -> float:
    """RWA strength g of one resonance channel, in frequency units.

    double:     g = eps Omega w_mov^2 / (4 w_k^2), the driven share of the
                squared frequency (reduces to eps Omega (kz pi)^2 /
                (4 w^2 lambda0^2) for an axial drive);
    sum:        g = (eps Omega / 4)(sqrt(wk/wp) - sqrt(wp/wk)) g_kp;
    difference: g = (eps Omega / 4)(sqrt(wk/wp) + sqrt(wp/wk)) g_kp,

    with g_kp the antisymmetrized coupling and k the higher-frequency
    mode of a pair.
    """
    lam0 = protocol.lambda0
    eps_omega = protocol.epsilon * protocol.omega_drive
    wk = mode_frequency(geom, pol, k, lam0)
    if kind is ResonanceKind.DOUBLE:
        if p is not None:
            raise ValueError("double resonance takes a single mode")
        return eps_omega * moving_frequency_squared(geom, pol, k, lam0) / (4.0 * wk**2)
    if p is None:
        raise ValueError(f"{kind.value} resonance takes a mode pair")
    wp = mode_frequency(geom, pol, p, lam0)
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
    difference condition within tol means tol is too coarse.
    """
    if not spectrum:
        raise ValueError("spectrum must be nonempty")
    omega = protocol.omega_drive
    if tol is None:
        tol = 1e-9 * omega
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    entries = sorted(spectrum, key=lambda e: (e[1], e[0]))
    cases: list[ResonanceCase] = []

    for mode, w in entries:
        det = abs(omega - 2.0 * w)
        if det <= tol:
            g = coupling_strength(ResonanceKind.DOUBLE, protocol, geom, pol, mode)
            if g != 0.0:
                cases.append(
                    ResonanceCase(ResonanceKind.DOUBLE, mode, None, w, None, g, det)
                )

    for i, (mk, wk) in enumerate(entries):
        for mp, wp in entries[i + 1 :]:
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
            if det_sum <= tol:
                g = coupling_strength(
                    ResonanceKind.SUM, protocol, geom, pol, hi, lo
                )
                if g != 0.0:
                    cases.append(
                        ResonanceCase(
                            ResonanceKind.SUM, hi, lo, whi, wlo, g, det_sum
                        )
                    )
            if det_diff <= tol and wk != wp:
                g = coupling_strength(
                    ResonanceKind.DIFFERENCE, protocol, geom, pol, hi, lo
                )
                if g != 0.0:
                    cases.append(
                        ResonanceCase(
                            ResonanceKind.DIFFERENCE, hi, lo, whi, wlo, g, det_diff
                        )
                    )

    kind_rank = {
        ResonanceKind.DOUBLE: 0,
        ResonanceKind.SUM: 1,
        ResonanceKind.DIFFERENCE: 2,
    }
    cases.sort(key=lambda c: (kind_rank[c.kind], c.k, c.p or c.k))

    # union-find over shared modes
    parent = list(range(len(cases)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[ModeIndex, int] = {}
    for i, case in enumerate(cases):
        for m in case.modes:
            if m in owner:
                ri, rj = find(i), find(owner[m])
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[m] = i

    comp: dict[int, list[int]] = {}
    for i in range(len(cases)):
        comp.setdefault(find(i), []).append(i)
    groups = tuple(
        tuple(sorted(g)) for g in sorted(comp.values(), key=lambda g: min(g))
    )

    resonant = {m for case in cases for m in case.modes}
    adiabatic = tuple(
        (m, w) for m, w in entries if m not in resonant
    )
    return ResonancePlan(tuple(cases), groups, adiabatic)


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
