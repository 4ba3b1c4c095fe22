"""Reference spectra: the scalar Bessel path and the per-mode enumeration.

The library evaluates its Bessel families with one masked downward
recurrence over arrays of (order, x) pairs, finds a whole root table in
one batch and builds each spectrum as arrays.  This is the formulation
it replaced: one recurrence per (order, x) in plain Python floats, one
scan and one Newton iteration per root, and one mode_frequency call per
mode.  The two must agree bit for bit: on every family value, on every
root the scalar path caches, and on every spectrum.

The pointwise evaluators cyl_j, cyl_j_prime, sph_j and sph_xj_prime are
the recurrences' accuracy checks against scipy; nothing in the package
calls them.
"""

from __future__ import annotations

import math

from cavework.bessel import _RESCALE, _STEP, _XTOL, BesselKind, bessel_zero
from cavework.cavity import (
    CylindricalGeometry,
    Geometry,
    ModeIndex,
    MovingWall,
    Polarization,
    RectangularGeometry,
    _cyl_root_kind,
    _sph_root_kind,
    mode_frequency,
)
from cavework.errors import RootBracketingError


def _cyl_miller(n_top: int, x: float, start: int) -> list[float]:
    # Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, seeded near zero
    # far above both the order and the turning point k ~ x.
    jp = 0.0
    j = 1e-305
    norm = 0.0
    vals = [0.0] * (n_top + 1)
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp, j = j, jm
        idx = k - 1
        if idx <= n_top:
            vals[idx] = j
        if idx > 0 and idx % 2 == 0:
            norm += 2.0 * j
        if abs(j) > _RESCALE:
            inv = 1.0 / _RESCALE
            jp *= inv
            j *= inv
            norm *= inv
            vals = [v * inv for v in vals]
    norm += vals[0] if n_top >= 0 else j
    return [v / norm for v in vals]


def cyl_family(n_top: int, x: float) -> list[float]:
    """J_0(x) .. J_{n_top}(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("argument must be positive")
    base = max(n_top, int(x), 1)
    start = base + 24 + int(math.sqrt(40.0 * base))
    prev = _cyl_miller(n_top, x, start)
    for _ in range(4):
        cur = _cyl_miller(n_top, x, start + 16)
        if max(abs(a - b) for a, b in zip(prev, cur)) <= 1e-14:
            return cur
        prev = cur
        start += 32
    raise RootBracketingError(
        BesselKind.CYL_J, n_top, -1, f"Miller recurrence stalled at x={x!r}"
    )


def sph_family(l_top: int, x: float) -> list[float]:
    """j_0(x) .. j_{l_top}(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("argument must be positive")
    base = max(l_top, int(x), 1)
    start = base + 24 + int(math.sqrt(40.0 * base))
    jp = 0.0
    j = 1e-305
    vals = [0.0] * (l_top + 2)
    for k in range(start, 0, -1):
        jm = ((2.0 * k + 1.0) / x) * j - jp
        jp, j = j, jm
        idx = k - 1
        if idx <= l_top + 1:
            vals[idx] = j
        if abs(j) > _RESCALE:
            inv = 1.0 / _RESCALE
            jp *= inv
            j *= inv
            vals = [v * inv for v in vals]
    j0 = math.sin(x) / x
    j1 = math.sin(x) / x**2 - math.cos(x) / x
    # Anchor on whichever reference value is better conditioned.
    if abs(j0) >= abs(j1):
        scale = j0 / vals[0]
    else:
        scale = j1 / vals[1]
    return [v * scale for v in vals[: l_top + 1]]


def value_and_slope(kind: BesselKind, order: int, x: float) -> tuple[float, float]:
    """(f, f') at x > 0 for the function whose zeros `kind` tabulates."""
    if kind is BesselKind.CYL_J or kind is BesselKind.CYL_J_PRIME:
        fam = cyl_family(order + 1, x)
        j = fam[order]
        dj = -fam[1] if order == 0 else 0.5 * (fam[order - 1] - fam[order + 1])
        if kind is BesselKind.CYL_J:
            return j, dj
        # J_n'' from Bessel's equation
        return dj, -dj / x - (1.0 - (order / x) ** 2) * j
    fam = sph_family(order, x)
    j = fam[order]
    if kind is BesselKind.SPH_J:
        return j, fam[order - 1] - (order + 1) / x * j
    # (x j_l)' and (x j_l)'' = (l(l+1)/x^2 - 1) x j_l
    return x * fam[order - 1] - order * j, (order * (order + 1) / x**2 - 1.0) * x * j


def cyl_j(order: int, x: float) -> float:
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    return cyl_family(order, x)[order]


def cyl_j_prime(order: int, x: float) -> float:
    return value_and_slope(BesselKind.CYL_J, order, x)[1]


def sph_j(order: int, x: float) -> float:
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if order == 0:
        return math.sin(x) / x
    return sph_family(order, x)[order]


def sph_xj_prime(order: int, x: float) -> float:
    """d/dx [x j_l(x)] = x j_{l-1}(x) - l j_l(x), for l >= 1."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return value_and_slope(BesselKind.SPH_XJ_PRIME, order, x)[0]


def _start(kind: BesselKind, order: int) -> float:
    if kind is BesselKind.SPH_J or kind is BesselKind.SPH_XJ_PRIME:
        return math.sqrt(order * (order + 1.0))
    return max(float(order), 1.0)


def _newton(kind: BesselKind, order: int, index: int, a: float, b: float,
            x: float, f: float, d: float) -> float:
    left_neg = index % 2 == 0
    for _ in range(60):
        step = f / d if d != 0.0 else math.inf
        if abs(step) <= _XTOL:
            return x - step
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
        f, d = value_and_slope(kind, order, x)
        a, b = (x, b) if (f < 0.0) == left_neg else (a, x)
    raise RootBracketingError(kind, order, index, f"no convergence on [{a!r}, {b!r}]")


class ScalarRoots:
    """The per-root path with a cache of its own: scan one order's grid,
    one Newton iteration per root, roots filled one at a time."""

    def __init__(self) -> None:
        self.cache: dict[tuple[BesselKind, int, int], float] = {}

    def _scan(self, kind: BesselKind, order: int, index: int) -> None:
        cache = self.cache
        x0 = _start(kind, order)
        found = max((k for k in range(index) if (kind, order, k) in cache), default=0)
        j = int((cache[(kind, order, found)] - x0) / _STEP) + 1 if found else 0
        while found < index:
            a, b = x0 + j * _STEP, x0 + (j + 1) * _STEP
            j += 1
            f, d = value_and_slope(kind, order, b)
            if (f <= 0.0) if found % 2 == 0 else (f >= 0.0):
                found += 1
                cache[(kind, order, found)] = _newton(kind, order, found, a, b, b, f, d)

    def _root(self, kind: BesselKind, order: int, index: int) -> float:
        key = (kind, order, index)
        if key not in self.cache:
            if kind is BesselKind.CYL_J or kind is BesselKind.SPH_J:
                self._scan(kind, order, index)
            else:  # one extremum between consecutive zeros of the same order
                zeros = BesselKind.SPH_J
                if kind is BesselKind.CYL_J_PRIME:
                    zeros = BesselKind.CYL_J
                a = self._root(zeros, order, index - 1) if index > 1 else _start(kind, order)
                b = self._root(zeros, order, index)
                x = 0.5 * (a + b)
                self.cache[key] = _newton(kind, order, index, a, b, x,
                                          *value_and_slope(kind, order, x))
        return self.cache[key]

    def zero(self, kind: BesselKind, order: int, index: int) -> float:
        """bessel_zero on this path (arguments assumed valid)."""
        if kind is BesselKind.CYL_J_PRIME and order == 0:
            kind, order = BesselKind.CYL_J, 1
        return self._root(kind, order, index)

    def fill(self, kind: BesselKind, x_max: float) -> list[list[float]]:
        """The roots a spectrum's enumeration asks for, one at a time: for
        each order from the lowest, the roots through the first above
        x_max; the orders through the first whose first root is above."""
        order = 1 if kind in (BesselKind.SPH_J, BesselKind.SPH_XJ_PRIME) else 0
        table = []
        while True:
            roots = [self.zero(kind, order, 1)]
            while roots[-1] <= x_max:
                roots.append(self.zero(kind, order, len(roots) + 1))
            table.append(roots)
            if len(roots) == 1:
                return table
            order += 1


def per_mode_spectrum(
    geom: Geometry, pol: Polarization, lam: float, max_frequency: float
) -> list[tuple[ModeIndex, float]]:
    """mode_spectrum as one mode_frequency call per enumerated mode."""
    if not lam > 0.0:
        raise ValueError("driven length must be positive")
    out: list[tuple[ModeIndex, float]] = []

    def keep(mode: ModeIndex) -> None:
        w = mode_frequency(geom, pol, mode, lam)
        if w <= max_frequency:
            out.append((mode, w))

    if isinstance(geom, RectangularGeometry):
        nx = int(max_frequency * geom.lx / math.pi)
        ny = int(max_frequency * geom.ly / math.pi)
        nz = int(max_frequency * lam / math.pi)
        x0 = 0 if pol is Polarization.TE else 1
        z0 = 1 if pol is Polarization.TE else 0
        for kx in range(x0, nx + 1):
            for ky in range(x0, ny + 1):
                if pol is Polarization.TE and kx == 0 and ky == 0:
                    continue
                for kz in range(z0, nz + 1):
                    keep((kx, ky, kz))
    elif isinstance(geom, CylindricalGeometry):
        kind = _cyl_root_kind(pol)
        if geom.moving_wall is MovingWall.LONGITUDINAL:
            r_trans, l_axial = geom.radius, lam
        else:
            r_trans, l_axial = lam, geom.axis_length
        k0 = 1 if pol is Polarization.TE else 0
        n = 0
        while bessel_zero(kind, n, 1) / r_trans <= max_frequency:
            m = 1
            while bessel_zero(kind, n, m) / r_trans <= max_frequency:
                for k in range(k0, int(max_frequency * l_axial / math.pi) + 1):
                    keep((n, m, k))
                m += 1
            n += 1
    else:
        kind = _sph_root_kind(pol)
        l = 1
        while bessel_zero(kind, l, 1) / lam <= max_frequency:
            n = 1
            while bessel_zero(kind, l, n) / lam <= max_frequency:
                for m in range(-l, l + 1):
                    keep((n, l, m))
                n += 1
            l += 1

    out.sort(key=lambda entry: (entry[1], entry[0]))
    return out
