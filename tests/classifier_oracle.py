"""Reference resonance classifier: every mode pair, one union-find.

The library's classify_resonances finds pair partners by bisection in
the sorted spectrum and groups cases with its connected-components
routine.  This is the direct formulation it replaced: it tests every
unordered pair with the same detuning predicates, in the same order,
and merges cases that share a mode with a union-find, so the two must
return equal plans and raise equal errors on every spectrum.  Each
resonant mode's frequency at lambda(tau) comes from mode_frequency.
"""

from __future__ import annotations

from cavework.cavity import (
    Geometry,
    ModeIndex,
    Polarization,
    mode_frequency,
    mode_index_str,
)
from cavework.driving import (
    DrivingProtocol,
    ResonanceCase,
    ResonanceKind,
    ResonancePlan,
    coupling_strength,
)
from cavework.errors import AmbiguousResonanceError


def classify_reference(
    spectrum: list[tuple[ModeIndex, float]],
    protocol: DrivingProtocol,
    geom: Geometry,
    pol: Polarization,
    tol: float | None = None,
) -> ResonancePlan:
    if not spectrum:
        raise ValueError("spectrum must be nonempty")
    omega = protocol.omega_drive
    if tol is None:
        tol = 1e-9 * omega
        if not tol > 0.0:
            raise ValueError(
                f"omega_drive = {omega!r}: the resonance tolerance "
                "1e-09 * Omega underflows to 0"
            )
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    entries = sorted(spectrum, key=lambda e: (e[1], e[0]))
    cases: list[ResonanceCase] = []

    for mode, w in entries:
        det = abs(omega - 2.0 * w)
        if det <= tol:
            g = coupling_strength(ResonanceKind.DOUBLE, protocol, geom, pol, mode, w)
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
                    ResonanceKind.SUM, protocol, geom, pol, hi, whi, lo, wlo
                )
                if g != 0.0:
                    cases.append(
                        ResonanceCase(ResonanceKind.SUM, hi, lo, whi, wlo, g, det_sum)
                    )
            if det_diff <= tol and wk != wp:
                g = coupling_strength(
                    ResonanceKind.DIFFERENCE, protocol, geom, pol, hi, whi, lo, wlo
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
    adiabatic = tuple((m, w) for m, w in entries if m not in resonant)
    table = tuple(
        (m, w, mode_frequency(geom, pol, m, protocol.lambda_tau))
        for m, w in entries
        if m in resonant
    )
    return ResonancePlan(tuple(cases), groups, adiabatic, table)
