"""Cavity geometries: eigenfrequencies, mode validity, coupling tables.

Three shapes are supported, each with TE and TM polarization:

* rectangular box with fixed transverse walls (Lx, Ly) and the z-wall at
  the driven length,
* cylinder with either the flat end (longitudinal) or the side wall
  (radial) driven,
* sphere whose radius is driven.

The driven dimension's length is never stored in the geometry; it is
passed per call so the same geometry object serves the whole protocol.

The mode-mixing coefficients g_kp are the dimensionless part of the
instantaneous-basis overlap, i.e. the full time-dependent coupling is
(lambda_dot/lambda) * g_kp.  The tables implemented here keep the
published sign and index conventions: the first argument is the mode
whose profile is differentiated with respect to the boundary position,
so for TM pairs g_kp != g_pk (numerator carries the first index only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import takewhile

import numpy as np

from .bessel import BesselKind, _squares, bessel_zero, root_table
from .errors import ModeValidationError

__all__ = [
    "CylindricalGeometry",
    "Geometry",
    "ModeIndex",
    "MovingWall",
    "Polarization",
    "RectangularGeometry",
    "SphericalGeometry",
    "coupling_coefficient",
    "mode_frequency",
    "mode_index_str",
    "mode_spectrum",
    "moving_frequency_squared",
    "spectrum_to_csv",
    "validate_mode",
]

ModeIndex = tuple[int, int, int]

# the most entries mode_spectrum may build, as _spectrum_size estimates
# them: about 500 MB for a box, over 100 times the largest spectrum of
# the reference configs and of the benchmark
_SPECTRUM_CAP = 4_000_000


class Polarization(Enum):
    TE = "TE"
    TM = "TM"


class MovingWall(Enum):
    LONGITUDINAL = "longitudinal"
    RADIAL = "radial"


@dataclass(frozen=True)
class RectangularGeometry:
    """Box with fixed transverse sides lx, ly; the z-wall is driven."""

    lx: float
    ly: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lx < math.inf and 0.0 < self.ly < math.inf):
            raise ValueError("transverse side lengths must be positive and finite")


@dataclass(frozen=True)
class CylindricalGeometry:
    """Cylinder driven either at a flat end or at the side wall.

    For a longitudinal moving wall the fixed radius must be given; for a
    radial moving wall the fixed axis length must be given.  The driven
    dimension is supplied per call.
    """

    moving_wall: MovingWall
    radius: float | None = None
    axis_length: float | None = None

    def __post_init__(self) -> None:
        if self.moving_wall is MovingWall.LONGITUDINAL:
            if self.radius is None or not 0.0 < self.radius < math.inf:
                raise ValueError("longitudinal drive requires a finite positive radius")
            if self.axis_length is not None:
                raise ValueError("axis length is the driven dimension; do not fix it")
        elif self.moving_wall is MovingWall.RADIAL:
            if self.axis_length is None or not 0.0 < self.axis_length < math.inf:
                raise ValueError("radial drive requires a finite positive axis length")
            if self.radius is not None:
                raise ValueError("radius is the driven dimension; do not fix it")
        else:
            raise ValueError(f"unknown moving wall {self.moving_wall!r}")


@dataclass(frozen=True)
class SphericalGeometry:
    """Sphere whose radius is driven."""


Geometry = RectangularGeometry | CylindricalGeometry | SphericalGeometry


def _as_triple(mode: ModeIndex) -> tuple[int, int, int]:
    if (
        not isinstance(mode, tuple)
        or len(mode) != 3
        or not all(isinstance(i, int) and not isinstance(i, bool) for i in mode)
    ):
        raise ModeValidationError(f"mode index must be a triple of ints, got {mode!r}")
    return mode


def validate_mode(geom: Geometry, pol: Polarization, mode: ModeIndex) -> None:
    """Raise ModeValidationError unless mode is admissible for (geom, pol)."""
    a, b, c = _as_triple(mode)
    if isinstance(geom, RectangularGeometry):
        kx, ky, kz = a, b, c
        if pol is Polarization.TE:
            # B_z profile cos*cos*sin: needs kz >= 1 and a transverse variation.
            if kx < 0 or ky < 0 or kz < 1 or (kx == 0 and ky == 0):
                raise ModeValidationError(
                    f"rectangular TE requires kx,ky >= 0, (kx,ky) != (0,0), kz >= 1; got {mode}"
                )
        else:
            if kx < 1 or ky < 1 or kz < 0:
                raise ModeValidationError(
                    f"rectangular TM requires kx,ky >= 1, kz >= 0; got {mode}"
                )
    elif isinstance(geom, CylindricalGeometry):
        n, m, k = a, b, c
        if n < 0 or m < 1:
            raise ModeValidationError(
                f"cylindrical modes require azimuthal n >= 0 and radial m >= 1; got {mode}"
            )
        if pol is Polarization.TE and k < 1:
            raise ModeValidationError(f"cylindrical TE requires kz >= 1; got {mode}")
        if pol is Polarization.TM and k < 0:
            raise ModeValidationError(f"cylindrical TM requires kz >= 0; got {mode}")
    elif isinstance(geom, SphericalGeometry):
        n, l, m = a, b, c
        if n < 1 or l < 1 or abs(m) > l:
            raise ModeValidationError(
                f"spherical modes require n >= 1, l >= 1, |m| <= l; got {mode}"
            )
    else:
        raise ModeValidationError(f"unknown geometry {geom!r}")


def _cyl_root_kind(pol: Polarization) -> BesselKind:
    return BesselKind.CYL_J_PRIME if pol is Polarization.TE else BesselKind.CYL_J


def _sph_root_kind(pol: Polarization) -> BesselKind:
    return BesselKind.SPH_J if pol is Polarization.TE else BesselKind.SPH_XJ_PRIME


def mode_frequency(
    geom: Geometry, pol: Polarization, mode: ModeIndex, lam: float
) -> float:
    """Instantaneous eigenfrequency at driven length lam (units c = 1)."""
    if not lam > 0.0:
        raise ValueError("driven length must be positive")
    validate_mode(geom, pol, mode)
    if isinstance(geom, RectangularGeometry):
        kx, ky, kz = mode
        return math.pi * math.sqrt(
            (kx / geom.lx) ** 2 + (ky / geom.ly) ** 2 + (kz / lam) ** 2
        )
    if isinstance(geom, CylindricalGeometry):
        n, m, k = mode
        root = bessel_zero(_cyl_root_kind(pol), n, m)
        if geom.moving_wall is MovingWall.LONGITUDINAL:
            return math.sqrt((root / geom.radius) ** 2 + (math.pi * k / lam) ** 2)
        return math.sqrt((root / lam) ** 2 + (math.pi * k / geom.axis_length) ** 2)
    n, l, _m = mode
    return bessel_zero(_sph_root_kind(pol), l, n) / lam


def moving_frequency_squared(
    geom: Geometry, pol: Polarization, mode: ModeIndex, lam: float
) -> float:
    """The driven dimension's contribution to omega**2 at length lam.

    omega(lam)**2 = const + moving_frequency_squared(lam); the squeeze
    rate of a parametrically resonant mode is proportional to this share
    of the total frequency.
    """
    if not lam > 0.0:
        raise ValueError("driven length must be positive")
    validate_mode(geom, pol, mode)
    if isinstance(geom, RectangularGeometry):
        return (math.pi * mode[2] / lam) ** 2
    if isinstance(geom, CylindricalGeometry):
        if geom.moving_wall is MovingWall.LONGITUDINAL:
            return (math.pi * mode[2] / lam) ** 2
        root = bessel_zero(_cyl_root_kind(pol), mode[0], mode[1])
        return (root / lam) ** 2
    return mode_frequency(geom, pol, mode, lam) ** 2


def coupling_coefficient(
    geom: Geometry, pol: Polarization, k: ModeIndex, p: ModeIndex
) -> float:
    """Dimensionless mode-mixing coefficient g_kp.

    First index is differentiated against the boundary position; the
    published tables are reproduced verbatim, including zero diagonals
    where stated and the unit TM diagonal.
    """
    validate_mode(geom, pol, k)
    validate_mode(geom, pol, p)

    if isinstance(geom, RectangularGeometry):
        if k[0] != p[0] or k[1] != p[1]:
            return 0.0
        kz, pz = k[2], p[2]
        return _axial_table(pol, kz, pz)

    if isinstance(geom, CylindricalGeometry):
        if geom.moving_wall is MovingWall.LONGITUDINAL:
            if k[0] != p[0] or k[1] != p[1]:
                return 0.0
            return _axial_table(pol, k[2], p[2])
        if k[0] != p[0] or k[2] != p[2]:
            return 0.0
        n = k[0]
        kind = _cyl_root_kind(pol)
        rk = bessel_zero(kind, n, k[1])
        rp = bessel_zero(kind, n, p[1])
        c = n**2 if pol is Polarization.TE else None
        return _radial_table(rk, rp, k[1] == p[1], c)

    # spherical: mixing acts on the radial quantum number only
    if k[1] != p[1] or k[2] != p[2]:
        return 0.0
    l = k[1]
    kind = _sph_root_kind(pol)
    rk = bessel_zero(kind, l, k[0])
    rp = bessel_zero(kind, l, p[0])
    c = l * (l + 1) if pol is Polarization.TM else None
    return _radial_table(rk, rp, k[0] == p[0], c)


def _radial_table(rk: float, rp: float, same: bool, c: int | None) -> float:
    # overlap of two radial profiles of one order, roots rk and rp (same:
    # one root); c = n^2 (cylinder, TE) or l(l+1) (sphere, TM) normalises
    # each profile by sqrt(r^2 - c), None leaves the plain form
    if same:
        return 0.0 if c is None else rk**2 / (rk**2 - c)
    ratio = 2.0 * rk * rp / (rk**2 - rp**2)
    return ratio if c is None else ratio * math.sqrt((rk**2 - c) / (rp**2 - c))


def _axial_table(pol: Polarization, kz: int, pz: int) -> float:
    # sin (TE) vs cos (TM) axial profiles give different overlap tables.
    if kz == pz:
        return 0.0 if pol is Polarization.TE else 1.0
    sign = -1.0 if (kz + pz) % 2 else 1.0
    num = 2.0 * kz * pz if pol is Polarization.TE else 2.0 * kz * kz
    return sign * num / (kz**2 - pz**2)


def mode_spectrum(
    geom: Geometry, pol: Polarization, lam: float, max_frequency: float
) -> list[tuple[ModeIndex, float]]:
    """All valid modes with omega <= max_frequency at driven length lam.

    Sorted by frequency, ties broken lexicographically on the index
    triple.  Cylindrical spectra enumerate azimuthal n >= 0 only; the
    opposite-helicity partners carry identical frequencies and couplings
    and are omitted.

    The modes are built as arrays: the curved shapes take their roots
    from one `root_table` per spectrum, and every frequency is evaluated
    with mode_frequency's float operations in its order, so it equals
    mode_frequency's value bit for bit.  The enumeration yields
    admissible indices only.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    if not math.isfinite(max_frequency):
        raise ValueError(f"max_frequency must be finite, got {max_frequency!r}")
    entries = _spectrum_size(geom, lam, max_frequency)
    if not entries <= _SPECTRUM_CAP:
        raise ValueError(
            f"the spectrum below cutoff {max_frequency:g} may take {entries:.3g} "
            f"entries, above {_SPECTRUM_CAP} (cavity._SPECTRUM_CAP); lower the "
            "cutoff or the cavity size"
        )

    if isinstance(geom, RectangularGeometry):
        nx = int(max_frequency * geom.lx / math.pi)
        ny = int(max_frequency * geom.ly / math.pi)
        nz = int(max_frequency * lam / math.pi)
        x0 = 0 if pol is Polarization.TE else 1
        z0 = 1 if pol is Polarization.TE else 0
        kx, ky, kz = (
            np.arange(lo, hi + 1) for lo, hi in ((x0, nx), (x0, ny), (z0, nz))
        )
        w = math.pi * np.sqrt(
            _squares(kx / geom.lx)[:, None, None]
            + _squares(ky / geom.ly)[None, :, None]
            + _squares(kz / lam)[None, None, :]
        )
        keep = w <= max_frequency
        if pol is Polarization.TE and keep.size:
            keep[0, 0] = False  # kx = ky = 0
        i, j, l = np.nonzero(keep)
        return _sorted_modes(kx[i], ky[j], kz[l], w[keep])

    # A root whose quotient root / length is at most max_frequency may
    # exceed max_frequency * length by a few ulps: the table reaches past.
    reach = 1.0 + 1e-12
    if isinstance(geom, CylindricalGeometry):
        r_trans, l_axial = _cylinder_lengths(geom, lam)
        table = root_table(_cyl_root_kind(pol), max_frequency * r_trans * reach)
        n, m, root = _roots_below(table, r_trans, max_frequency)
        k0 = 1 if pol is Polarization.TE else 0
        k = np.arange(k0, int(max_frequency * l_axial / math.pi) + 1)
        w = np.sqrt(
            _squares(root / r_trans)[:, None] + _squares(math.pi * k / l_axial)[None, :]
        )
        keep = w <= max_frequency
        i, j = np.nonzero(keep)
        return _sorted_modes(n[i], m[i], k[j], w[keep])

    if not isinstance(geom, SphericalGeometry):
        raise ModeValidationError(f"unknown geometry {geom!r}")
    table = root_table(_sph_root_kind(pol), max_frequency * lam * reach)
    l, n, root = _roots_below(table, lam, max_frequency)
    l += 1
    w = root / lam  # the quotient the roots were cut on: all <= max_frequency
    # (n, l, m) for each root of order l, m = -l .. l
    size = 2 * l + 1
    first = np.cumsum(size) - size
    m = np.arange(size.sum()) - np.repeat(first + l, size)
    return _sorted_modes(np.repeat(n, size), np.repeat(l, size), m, np.repeat(w, size))


def _cylinder_lengths(geom: CylindricalGeometry, lam: float) -> tuple[float, float]:
    """(radius, axis length) of a cylinder at driven length lam."""
    if geom.moving_wall is MovingWall.LONGITUDINAL:
        return geom.radius, lam
    return lam, geom.axis_length


def _spectrum_size(geom: Geometry, lam: float, max_frequency: float) -> float:
    """An upper estimate of the entries mode_spectrum builds, in Python
    floats, so that a huge cutoff or size gives inf and never an error.

    A box builds its grid of (nx + 1)(ny + 1)(nz + 1) frequencies.  A
    curved shape takes (x + 1)^2 (y / pi + 1), x the cutoff times the
    length that scales its Bessel roots and y the cutoff times the axial
    length, or y = x on the sphere: the root table holds fewer than
    (x + 1)^2 roots (orders below x, roots about pi apart), and the
    modes number fewer than the roots times y / pi + 1, the cylinder's
    axial indices or the sphere's 2l + 1 copies of an order-l root.
    """
    k = max(max_frequency, 0.0)
    if isinstance(geom, RectangularGeometry):
        return math.prod(k * s / math.pi + 1.0 for s in (geom.lx, geom.ly, lam))
    x = y = k * lam
    if isinstance(geom, CylindricalGeometry):
        x, y = (k * s for s in _cylinder_lengths(geom, lam))
    return (x + 1.0) * (x + 1.0) * (y / math.pi + 1.0)


def _roots_below(
    table: list[list[float]], length: float, max_frequency: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, index, root) for the roots with root / length <= max_frequency:
    each row's leading roots, the rows through the first that has none."""
    rows = []
    for row in table:
        row = list(takewhile(lambda r: r / length <= max_frequency, row))
        if not row:
            break
        rows.append(row)
    return (
        np.array([i for i, row in enumerate(rows) for _ in row], dtype=np.int64),
        np.array([m for row in rows for m in range(1, len(row) + 1)], dtype=np.int64),
        np.array([r for row in rows for r in row], dtype=float),
    )


def _sorted_modes(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, w: np.ndarray
) -> list[tuple[ModeIndex, float]]:
    """(mode, omega) pairs sorted by omega, then by the index triple."""
    order = np.lexsort((c, b, a, w))
    modes = zip(a[order].tolist(), b[order].tolist(), c[order].tolist())
    return list(zip(modes, w[order].tolist()))


def mode_index_str(mode: ModeIndex) -> str:
    return ":".join(str(i) for i in mode)


def spectrum_to_csv(
    spectrum: list[tuple[ModeIndex, float]], pol: Polarization
) -> str:
    label = pol.value  # an Enum property: read once, not per row
    lines = ["mode_index,polarization,frequency"] + [
        f"{i}:{j}:{k},{label},{w:.12g}" for (i, j, k), w in spectrum
    ]
    return "\n".join(lines) + "\n"
