"""Brute-force two-point-measurement simulation in a truncated Fock space.

This is the ground truth the closed forms are tested against: thermal
sampling, exact RWA unitary, projective energy and photon-number
readouts at both ends, over a product occupation basis.

The interaction V is built by index arithmetic on the occupation table
(a_j|n> = sqrt(n_j)|n - e_j>) straight into its sector blocks: the
connected components of the terms' (row, column) pattern, found by
label propagation, are blocks no entry of V couples, and V is returned
as one (basis indices, dense Hermitian block) pair per sector.  Each
block is exponentiated on its own, so U comes in the same format,
exact by construction.  For the RWA resonances the sectors are the
charge sectors (parity for the double resonance, n_k - n_p for the sum
and n_k + n_p for the difference channel); a V that conserves nothing
is one sector, the dense case.  No dim x dim array is formed otherwise.
The oracle needs numpy alone.

Thermal weights are taken against the analytic, untruncated partition
function, so the reported peak probabilities undershoot unity by
exactly the thermal mass living outside the truncation.  That deficit
is returned as residual_mass; Sum(prob) + residual_mass = 1 to float
precision, and the characteristic function at (0, 0) equals
1 - residual_mass.  Energies count hbar * omega per photon with no
zero-point contribution, matching the thermal weight convention and the
grand-potential bookkeeping of the closed forms.

A space holds at most _DIM_CAP = 20000 basis states; larger cutoffs are
refused when the space is built, before any array is allocated.  Peaks
that differ by float roundoff are merged within 1e-9 hbar times the
smallest mode frequency, and JointDistribution.marginals applies the
same rule to the work marginal across delta_n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import ModeIndex
from .errors import TruncationLeakError
from .symplectic import QuadraticForm

__all__ = [
    "JointDistribution",
    "TruncatedFockSpace",
    "build_evolution",
    "charfun_numeric",
    "quadratic_operator",
    "two_point_measurement",
]

# largest basis a space may have: a V that conserves nothing is one
# sector, whose eigendecomposition holds dense dim x dim complex arrays
_DIM_CAP = 20000
# marginal peaks at or below this weight are dropped
_PEAK_FLOOR = 1e-12


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Product occupation basis for a handful of interacting modes.

    modes: ordered (index, omega at start, omega at end) triples; the
    two frequencies differ only for protocols that do not return the
    boundary to its starting position.  Basis states enumerate
    occupations lexicographically with the last mode varying fastest.
    """

    modes: tuple[tuple[ModeIndex, float, float], ...]
    n_max: tuple[int, ...]

    def __init__(self, modes, n_max) -> None:
        modes = tuple((m, float(w0), float(w1)) for m, w0, w1 in modes)
        if not modes:
            raise ValueError("at least one mode is required")
        if any(w0 <= 0 or w1 <= 0 for _, w0, w1 in modes):
            raise ValueError("mode frequencies must be positive")
        if isinstance(n_max, int):
            n_max = (n_max,) * len(modes)
        n_max = tuple(int(v) for v in n_max)
        if len(n_max) != len(modes):
            raise ValueError("need one occupation cutoff per mode")
        if any(v < 1 for v in n_max):
            raise ValueError("occupation cutoffs must be >= 1")
        dim = 1
        for v in n_max:
            dim *= v + 1
        if dim > _DIM_CAP:
            raise ValueError(
                f"truncated basis would have dimension {dim} over {len(modes)} "
                f"modes, above {_DIM_CAP}; reduce n_max or narrow the resonance"
            )
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "n_max", n_max)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @property
    def dimension(self) -> int:
        return int(np.prod([v + 1 for v in self.n_max]))

    def occupations(self) -> np.ndarray:
        """(dimension, mode_count) int array, one basis state per row."""
        return np.array(
            list(itertools.product(*(range(v + 1) for v in self.n_max))), dtype=int
        )

    def omega0(self) -> np.ndarray:
        return np.array([w0 for _, w0, _ in self.modes])

    def omega_tau(self) -> np.ndarray:
        return np.array([w1 for _, _, w1 in self.modes])

    def top_shell_mask(self) -> np.ndarray:
        occ = self.occupations()
        return (occ == np.array(self.n_max)).any(axis=1)

    def thermal_weights(self, beta: float, hbar: float = 1.0) -> np.ndarray:
        """e^{-beta E0(n)} / Z with Z the analytic untruncated sum."""
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        e0 = self.occupations() @ self.omega0()
        z_full = 1.0
        for w in self.omega0():
            z_full /= 1.0 - math.exp(-beta * hbar * w)
        return np.exp(-beta * hbar * e0) / z_full


def _ladder(
    space: TruncatedFockSpace, occ: np.ndarray, j: int, raising: bool
) -> tuple[np.ndarray, np.ndarray]:
    """a_j (or its adjoint) as one target state and amplitude per state.

    occ is space.occupations().  The operator sends basis state i to
    amp[i] |target[i]>; target is -1 where the truncated operator
    annihilates the state (a|0>, a^dagger|n_max>).
    """
    n = occ[:, j]
    stride = int(np.prod([v + 1 for v in space.n_max[j + 1 :]]))
    index = np.arange(space.dimension)
    if raising:
        return np.where(n < space.n_max[j], index + stride, -1), np.sqrt(n + 1)
    return np.where(n > 0, index - stride, -1), np.sqrt(n)


def quadratic_operator(
    space: TruncatedFockSpace, form: QuadraticForm
) -> list[tuple[np.ndarray, np.ndarray]]:
    """1/2 alpha S alpha over the truncated basis, as its sector blocks:
    one (basis indices, dense Hermitian block) pair per sector.

    The form's mode labels are matched against the space; modes of the
    space that the form does not touch are acted on trivially.  The
    sectors are the connected components of the terms' (row, column)
    pattern (see _sectors), so no entry of V couples two of them; terms
    that cancel exactly would leave two sectors joined in one block,
    which is still exact.  The
    result must be Hermitian (the truncated squeeze / pair / exchange
    blocks close under dagger), which is verified block by block, not
    assumed.
    """
    space_pos = {m: i for i, (m, _, _) in enumerate(space.modes)}
    if form.modes:
        try:
            slots = [space_pos[m] for m in form.modes]
        except KeyError as err:
            raise ValueError(f"generator mode {err.args[0]} is not in the space")
    else:
        if form.n != space.mode_count:
            raise ValueError("anonymous form must cover every space mode")
        slots = list(range(space.mode_count))

    # alpha = (a_1..a_n, a_1^dagger..a_n^dagger) as ladder tables
    occ = space.occupations()
    alpha = [_ladder(space, occ, j, False) for j in slots]
    alpha += [_ladder(space, occ, j, True) for j in slots]
    dim = space.dimension
    empty = np.empty(0, dtype=int)
    terms = [(empty, empty, empty.astype(complex))]
    n = form.n
    for i in range(2 * n):
        for j in range(2 * n):
            s = form.S[i, j]
            if s != 0.0:
                # alpha_i alpha_j |c> = amp_i[m] amp_j[c] |target[m]>, m = mid[c]
                mid, amp_j = alpha[j]
                target, amp_i = alpha[i]
                cols = np.flatnonzero(mid >= 0)
                cols = cols[target[mid[cols]] >= 0]
                m = mid[cols]
                terms.append((target[m], cols, 0.5 * s * (amp_i[m] * amp_j[cols])))
    rows, cols, vals = (np.concatenate(t) for t in zip(*terms))

    # every block lies row-major in one flat buffer: state s is entry
    # pos[s] of its sector, and its row of the block starts at row_at[s]
    sectors = _sectors(rows, cols, dim)
    ends = np.cumsum([idx.size**2 for idx in sectors])
    pos, row_at = np.empty(dim, dtype=int), np.empty(dim, dtype=int)
    for idx, end in zip(sectors, ends):
        pos[idx] = np.arange(idx.size)
        row_at[idx] = end - idx.size**2 + pos[idx] * idx.size
    flat = np.zeros(ends[-1], dtype=complex)
    # terms add up in their (i, j) order, each position from 0
    np.add.at(flat, row_at[rows] + pos[cols], vals)
    blocks, herm_defect, scale = [], 0.0, 1.0
    for idx, a in zip(sectors, np.split(flat, ends[:-1])):
        a = a.reshape(idx.size, idx.size)
        herm_defect = max(herm_defect, float(np.abs(a - a.conj().T).max()))
        scale = max(scale, float(np.abs(a).max()))
        a += a.conj().T
        a *= 0.5
        blocks.append((idx, a))
    if herm_defect > 1e-10 * scale:
        raise ValueError(
            f"quadratic form is not Hermitian on the truncated basis "
            f"(defect {herm_defect:.3e})"
        )
    return blocks


def _sectors(rows: np.ndarray, cols: np.ndarray, dim: int) -> list[np.ndarray]:
    """Basis indices of each connected component of the (rows[k],
    cols[k]) pattern over dim states, ordered by smallest index,
    ascending within each component."""
    # each state takes the smallest label among its neighbours, then its
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
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def build_evolution(
    space: TruncatedFockSpace,
    generator: QuadraticForm,
    protocol,
    beta: float | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """U = e^{-i H0 tau} e^{-i V tau} on the truncated basis, as its
    sector blocks: one (basis indices, dense block) pair per block of V.

    Both factors are exactly unitary: the free phases are diagonal and
    the interaction exponential comes from the eigendecomposition of
    each Hermitian block of V; U vanishes between sectors.  When beta is
    given, the evolved thermal state's population in the top occupation
    shell is checked; truncation is only trustworthy when that leakage
    is tiny.
    """
    tau = protocol.tau
    phase = np.exp(-1j * (space.occupations() @ space.omega0()) * tau)
    blocks = quadratic_operator(space, generator)
    for idx, block in blocks:
        evals, vecs = np.linalg.eigh(block)
        exp_v = (vecs * np.exp(-1j * evals * tau)) @ vecs.conj().T
        np.multiply(phase[idx, None], exp_v, out=block)  # U takes V's place
    if beta is not None:
        p = space.thermal_weights(beta, protocol.hbar)
        pops = np.empty(space.dimension)
        for idx, block in blocks:
            pops[idx] = (np.abs(block) ** 2) @ p[idx]
        leak = float(pops[space.top_shell_mask()].sum())
        if leak > 1e-8:
            raise TruncationLeakError(
                f"evolved thermal state has {leak:.3e} population in the top "
                "occupation shell; increase n_max"
            )
    return blocks


@dataclass(frozen=True)
class JointDistribution:
    """Discrete joint statistics of work and photon-number change.

    peaks: (w, delta_n, prob) with w on the exact transition lattice
    after merging float duplicates within merge_tol; residual_mass is the
    thermal weight outside the truncated basis.
    """

    peaks: tuple[tuple[float, int, float], ...]
    residual_mass: float
    merge_tol: float

    def total_probability(self) -> float:
        return float(sum(p for _, _, p in self.peaks))

    def marginals(
        self,
    ) -> tuple[list[tuple[float, float]], list[tuple[int, float]]]:
        """(P(w), P(delta_n)) as sorted (value, prob) peaks above 1e-12.

        Work peaks of different delta_n that lie within merge_tol are one
        work value and merge as in two_point_measurement; photon weights
        sum exactly per delta_n.
        """
        by_dn: dict[int, float] = {}
        for _, dn, p in self.peaks:
            by_dn[dn] = by_dn.get(dn, 0.0) + p
        photons = sorted((dn, p) for dn, p in by_dn.items() if p > _PEAK_FLOOR)
        work = _merge_close([(w, p) for w, _, p in self.peaks], self.merge_tol)
        return [(w, p) for w, p in work if p > _PEAK_FLOOR], photons


def _merge_close(
    pairs: list[tuple[float, float]], tol: float
) -> list[tuple[float, float]]:
    """(probability-weighted mean w, total prob) of each run of the sorted
    (w, prob) pairs whose neighbours lie within tol of each other."""
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


def _merge_peaks(
    acc: dict[complex, float], tol: float
) -> tuple[tuple[float, int, float], ...]:
    by_dn: dict[int, list[tuple[float, float]]] = {}
    for key, prob in acc.items():
        by_dn.setdefault(int(round(key.imag)), []).append((key.real, prob))
    peaks = [
        (w, dn, p) for dn, pairs in by_dn.items() for w, p in _merge_close(pairs, tol)
    ]
    peaks.sort(key=lambda t: (t[0], t[1]))
    return tuple(peaks)


def two_point_measurement(
    space: TruncatedFockSpace,
    u_blocks: list[tuple[np.ndarray, np.ndarray]],
    beta: float,
    hbar: float = 1.0,
) -> JointDistribution:
    """Exact joint distribution of (work, photon-number change).

    First measurement projects the thermal state onto occupations at the
    starting frequencies, the second reads the evolved state at the
    final frequencies; w = hbar * (E_end(n') - E_start(n)).  Peaks are
    merged within 1e-9 of the smallest active frequency.  U comes as
    the (basis indices, block) pairs of build_evolution; every entry of
    every block is visited, row-major with ascending columns.
    """
    rows = np.concatenate([np.repeat(idx, idx.size) for idx, _ in u_blocks])
    cols = np.concatenate([np.tile(idx, idx.size) for idx, _ in u_blocks])
    amp = np.concatenate([block.ravel() for _, block in u_blocks])
    # each row lies in one block, whose columns ascend already
    order = np.argsort(rows, kind="stable")
    rows, cols, amp = rows[order], cols[order], amp[order]  # [n', n]
    occ = space.occupations()
    e0 = occ @ space.omega0()
    e1 = occ @ space.omega_tau()
    ntot = occ.sum(axis=1)
    p_init = space.thermal_weights(beta, hbar)
    prob = np.abs(amp) ** 2 * p_init[cols]

    tol = 1e-9 * hbar * float(min(space.omega0().min(), space.omega_tau().min()))
    z = hbar * (e1[rows] - e0[cols]) + 1j * (ntot[rows] - ntot[cols])
    uz, inv = np.unique(z, return_inverse=True)
    sums = np.bincount(inv, weights=prob)
    acc = {complex(key): float(s) for key, s in zip(uz, sums) if s > 0.0}
    peaks = _merge_peaks(acc, tol)
    residual = 1.0 - sum(p for _, _, p in peaks)
    return JointDistribution(peaks, residual, tol)


def charfun_numeric(dist: JointDistribution, u, v):
    """Sum of prob * exp(i u w + i v dn) over the measured peaks, over
    broadcast u and v; scalar input returns a Python complex."""
    w, dn, p = np.array(dist.peaks, dtype=float).reshape(-1, 3).T
    u, v = np.asarray(u)[..., None], np.asarray(v)[..., None]
    g = (p * np.exp(1j * u * w + 1j * v * dn)).sum(axis=-1)
    return complex(g) if g.ndim == 0 else g
