"""Brute-force two-point-measurement simulation in a truncated Fock space.

This is the ground truth the closed forms are tested against: thermal
sampling, exact RWA unitary, projective energy and photon-number
readouts at both ends, over a product occupation basis.

The interaction V is built by index arithmetic on the occupation table
(a_j|n> = sqrt(n_j)|n - e_j>) straight into its sector blocks: the
connected components of the terms' (row, column) pattern, found by
driving._components (the routine that groups coupled resonances), are
blocks no entry of V couples, and V is returned
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
1 - residual_mass.  The measurement also returns top_shell_leak, the
evolved thermal state's population in the top occupation shell, where
the truncated unitary stops following the true one; both are reported
and nothing is raised.  Energies count hbar * omega per photon with no
zero-point contribution, matching the thermal weight convention and the
grand-potential bookkeeping of the closed forms.

A space holds at most _DIM_CAP = 20000 basis states; larger cutoffs are
refused when the space is built, before any array is allocated.  Peaks
at one delta_n whose work values differ by float roundoff are one peak:
sorted runs within 1e-9 hbar times the smallest mode frequency of their
neighbour merge in one array pass (distributions._merge_runs, the rule
by which --freeze also pairs peaks), and JointDistribution.marginals
applies the same rule to the work marginal across delta_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import ModeIndex
from .distributions import _floored_peaks, _merge_runs
from .driving import _components
from .symplectic import QuadraticForm

__all__ = [
    "JointDistribution",
    "TruncatedFockSpace",
    "build_evolution",
    "quadratic_operator",
    "two_point_measurement",
]

# largest basis a space may have: a V that conserves nothing is one
# sector, whose eigendecomposition holds dense dim x dim complex arrays
_DIM_CAP = 20000


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Product occupation basis for a handful of interacting modes.

    modes: ordered (index, omega at start, omega at end) triples, as
    ResonancePlan.resonant_modes holds them.  The two frequencies differ
    for protocols that do not return the boundary to its starting
    position, and by rounding even for some that do: the closed sum_res,
    diff_res and cumulative_sum configs end mode (0,2,4) 1 ulp above its
    starting frequency.  Basis states enumerate
    occupations lexicographically with the last mode varying fastest.
    """

    modes: tuple[tuple[ModeIndex, float, float], ...]
    n_max: tuple[int, ...]

    def __init__(self, modes, n_max) -> None:
        modes = tuple((m, float(w0), float(w1)) for m, w0, w1 in modes)
        if not modes:
            raise ValueError("at least one mode is required")
        if not all(0 < w0 < math.inf and 0 < w1 < math.inf for _, w0, w1 in modes):
            raise ValueError("mode frequencies must be positive and finite")
        if isinstance(n_max, int):
            n_max = (n_max,) * len(modes)
        n_max = tuple(int(v) for v in n_max)
        if len(n_max) != len(modes):
            raise ValueError("need one occupation cutoff per mode")
        if any(v < 1 for v in n_max):
            raise ValueError("occupation cutoffs must be >= 1")
        dim = math.prod(v + 1 for v in n_max)
        if dim > _DIM_CAP:
            raise ValueError(
                f"truncated basis would have dimension {dim} over {len(modes)} "
                f"modes, above {_DIM_CAP}; reduce n_max or narrow the resonance"
            )
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "n_max", n_max)
        occ = np.indices([v + 1 for v in n_max]).reshape(len(n_max), -1).T.copy()
        occ.flags.writeable = False
        object.__setattr__(self, "_occupations", occ)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @property
    def dimension(self) -> int:
        return int(np.prod([v + 1 for v in self.n_max]))

    def occupations(self) -> np.ndarray:
        """(dimension, mode_count) int array, one basis state per row.

        Built once per space and read-only, so every caller shares it.
        """
        return self._occupations

    def omega0(self) -> np.ndarray:
        return np.array([w0 for _, w0, _ in self.modes])

    def omega_tau(self) -> np.ndarray:
        return np.array([w1 for _, _, w1 in self.modes])

    def top_shell_mask(self) -> np.ndarray:
        occ = self.occupations()
        return (occ == np.array(self.n_max)).any(axis=1)

    def thermal_weights(self, beta: float, hbar: float = 1.0) -> np.ndarray:
        """e^{-beta E0(n)} / Z with Z the analytic untruncated sum."""
        if not beta > 0.0:
            raise ValueError("beta must be positive")
        e0 = self.occupations() @ self.omega0()
        z_full = 1.0
        for w in self.omega0():
            z_full /= -math.expm1(-beta * hbar * w)  # > 0 for every beta hbar w > 0
        return np.exp(-beta * hbar * e0) / z_full


def _ladder(
    space: TruncatedFockSpace, j: int, raising: bool
) -> tuple[np.ndarray, np.ndarray]:
    """a_j (or its adjoint) as one target state and amplitude per state.

    The operator sends basis state i to amp[i] |target[i]>; target is -1
    where the truncated operator annihilates the state (a|0>,
    a^dagger|n_max>).
    """
    n = space.occupations()[:, j]
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
    pattern (see driving._components), so no entry of V couples two of
    them; terms that cancel exactly would leave two sectors joined in
    one block, which is still exact.  The result must be Hermitian (the
    truncated squeeze / pair / exchange blocks close under dagger),
    which is verified block by block, not assumed.
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
    alpha = [_ladder(space, j, False) for j in slots]
    alpha += [_ladder(space, j, True) for j in slots]
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
    sectors = _components(rows, cols, dim)
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


def build_evolution(
    space: TruncatedFockSpace, generator: QuadraticForm, protocol
) -> list[tuple[np.ndarray, np.ndarray]]:
    """U = e^{-i H0 tau} e^{-i V tau} on the truncated basis, as its
    sector blocks: one (basis indices, dense block) pair per block of V.

    Both factors are exactly unitary: the free phases are diagonal and
    the interaction exponential comes from the eigendecomposition of
    each Hermitian block of V; U vanishes between sectors.
    """
    tau = protocol.tau
    phase = np.exp(-1j * (space.occupations() @ space.omega0()) * tau)
    blocks = quadratic_operator(space, generator)
    for idx, block in blocks:
        evals, vecs = np.linalg.eigh(block)
        exp_v = (vecs * np.exp(-1j * evals * tau)) @ vecs.conj().T
        np.multiply(phase[idx, None], exp_v, out=block)  # U takes V's place
    return blocks


@dataclass(frozen=True)
class JointDistribution:
    """Discrete joint statistics of work and photon-number change.

    peaks: (w, delta_n, prob) with w on the exact transition lattice
    after merging float duplicates within merge_tol; residual_mass is the
    thermal weight outside the truncated basis, and top_shell_leak the
    evolved thermal state's population in the top occupation shell (a
    state with some n_j = n_max), which the truncation cannot follow
    further up.  The peaks are only as trustworthy as both are small.
    """

    peaks: tuple[tuple[float, int, float], ...]
    residual_mass: float
    top_shell_leak: float
    merge_tol: float

    def total_probability(self) -> float:
        return float(sum(p for _, _, p in self.peaks))

    def marginals(
        self,
    ) -> tuple[list[tuple[float, float]], list[tuple[int, float]]]:
        """(P(w), P(delta_n)) as sorted (value, prob) peaks above 1e-12.

        P(w) merges the peaks by two_point_measurement's rule with one
        delta_n for all: work peaks of different delta_n that lie within
        merge_tol are one work value.  Photon weights sum exactly per
        delta_n, in peak order.
        """
        w, dn, p = np.array(self.peaks, dtype=float).reshape(-1, 3).T
        wp, _, tot = _merge_runs(w, np.zeros_like(dn), p, self.merge_tol)
        labels, inv = np.unique(dn.astype(int), return_inverse=True)
        return (
            _floored_peaks(wp / tot, tot),
            _floored_peaks(labels, np.bincount(inv, weights=p)),
        )


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
    merged within 1e-9 of the smallest active frequency
    (distributions._merge_runs).  U comes as the (basis indices, block)
    pairs of build_evolution; every entry of every block is visited,
    row-major with ascending columns.  The
    entries whose final state lies in the top occupation shell add up
    to top_shell_leak.
    """
    rows = np.concatenate([np.repeat(idx, idx.size) for idx, _ in u_blocks])
    cols = np.concatenate([np.tile(idx, idx.size) for idx, _ in u_blocks])
    amp = np.concatenate([block.ravel() for _, block in u_blocks])
    order = np.argsort(rows, kind="stable")
    rows, cols, amp = rows[order], cols[order], amp[order]  # [n', n]
    occ = space.occupations()
    e0 = occ @ space.omega0()
    e1 = occ @ space.omega_tau()
    ntot = occ.sum(axis=1)
    p_init = space.thermal_weights(beta, hbar)
    prob = np.abs(amp) ** 2 * p_init[cols]
    leak = float(prob[space.top_shell_mask()[rows]].sum())

    tol = 1e-9 * hbar * float(min(space.omega0().min(), space.omega_tau().min()))
    z = hbar * (e1[rows] - e0[cols]) + 1j * (ntot[rows] - ntot[cols])
    uz, inv = np.unique(z, return_inverse=True)
    sums = np.bincount(inv, weights=prob)
    uz, sums = uz[sums > 0.0], sums[sums > 0.0]
    wp, dn, p = _merge_runs(uz.real, np.rint(uz.imag).astype(int), sums, tol)
    w = wp / p
    order = np.lexsort((dn, w))  # peaks sorted by (w, delta_n)
    peaks = tuple(zip(w[order].tolist(), dn[order].tolist(), p[order].tolist()))
    residual = 1.0 - sum(p for _, _, p in peaks)
    return JointDistribution(peaks, residual, leak, tol)
