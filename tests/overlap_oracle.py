"""Quadrature oracle for the mode-mixing coefficients.

Integrates the instantaneous-basis overlap

    g(t) = -lambda_dot * integral( psi_p * d(psi_k)/d(lambda) )

directly from the mode profiles, with the boundary-position derivative
taken numerically.  It is the tests' independent route against the
closed-form tables in :mod:`cavework.cavity`; the two must agree to the
quadrature tolerance for every admissible mode pair.

Conventions: factors along non-moving directions are unit-normalised
(index-0 cosines get the 1/sqrt(L) weight), while the factor along the
moving direction keeps the generic sqrt(2/lambda) weight for every
index, zero included.  The published tables assume exactly this mix; a
unit-normalised index-0 moving factor would scale those couplings by
1/sqrt(2).

Special functions here come from scipy so the evaluation path shares
nothing with the recurrence code in :mod:`cavework.bessel` beyond the
root locations themselves, which are part of the mode definition.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import special
from scipy.integrate import quad

from cavework.bessel import BesselKind, bessel_zero
from cavework.cavity import (
    CylindricalGeometry,
    Geometry,
    ModeIndex,
    MovingWall,
    Polarization,
    RectangularGeometry,
    SphericalGeometry,
    validate_mode,
)

__all__ = ["overlap_integral_oracle"]

_QUAD_KW = {"limit": 400, "epsabs": 1e-12, "epsrel": 1e-12}


def _cos_factor(idx: int, length: float) -> Callable[[float], float]:
    # Orthonormal cosine: index 0 carries the 1/sqrt(L) weight.
    if idx == 0:
        c = math.sqrt(1.0 / length)
        return lambda _x: c
    c = math.sqrt(2.0 / length)
    w = math.pi * idx / length
    return lambda x: c * math.cos(w * x)


def _sin_factor(idx: int, length: float) -> Callable[[float], float]:
    c = math.sqrt(2.0 / length)
    w = math.pi * idx / length
    return lambda x: c * math.sin(w * x)


def _azimuthal_factor(n: int) -> Callable[[float], float]:
    # Real basis on the circle; n >= 0 by enumeration convention.
    if n == 0:
        c = 1.0 / math.sqrt(2.0 * math.pi)
        return lambda _phi: c
    c = 1.0 / math.sqrt(math.pi)
    return lambda phi: c * math.cos(n * phi)


def _polar_factor(l: int, m: int) -> Callable[[float], float]:
    am = abs(m)
    norm = math.sqrt(
        (2 * l + 1) / 2.0 * math.factorial(l - am) / math.factorial(l + am)
    )
    return lambda th: norm * special.lpmv(am, l, math.cos(th))


def _sphere_azimuthal_factor(m: int) -> Callable[[float], float]:
    if m == 0:
        c = 1.0 / math.sqrt(2.0 * math.pi)
        return lambda _phi: c
    c = 1.0 / math.sqrt(math.pi)
    if m > 0:
        return lambda phi: c * math.cos(m * phi)
    return lambda phi: c * math.sin(-m * phi)


def _axial_moving_factor(
    pol: Polarization, idx: int
) -> Callable[[float, float], float]:
    # Generic sqrt(2/lam) weight for every index, per the table convention.
    if pol is Polarization.TE:
        return lambda z, lam: math.sqrt(2.0 / lam) * math.sin(math.pi * idx * z / lam)
    return lambda z, lam: math.sqrt(2.0 / lam) * math.cos(math.pi * idx * z / lam)


def _cyl_radial_profile(
    pol: Polarization, n: int, m: int
) -> tuple[float, Callable[[float, float], float]]:
    # den keeps the sign of J at the root; it fixes the profile's overall
    # sign, which off-diagonal overlaps are sensitive to.
    if pol is Polarization.TE:
        root = bessel_zero(BesselKind.CYL_J_PRIME, n, m)
        den = special.jv(n, root) * math.sqrt(1.0 - n**2 / root**2)
    else:
        root = bessel_zero(BesselKind.CYL_J, n, m)
        den = special.jv(n + 1, root)

    def f(rho: float, scale: float) -> float:
        return math.sqrt(2.0) * special.jv(n, root * rho / scale) / (scale * den)

    return root, f


def _sph_radial_profile(
    pol: Polarization, n: int, l: int
) -> Callable[[float, float], float]:
    if pol is Polarization.TE:
        root = bessel_zero(BesselKind.SPH_J, l, n)
        den = special.spherical_jn(l, root, derivative=True)
    else:
        root = bessel_zero(BesselKind.SPH_XJ_PRIME, l, n)
        den = special.spherical_jn(l, root, derivative=True) * math.sqrt(
            root**2 - l * (l + 1)
        )

    def f(r: float, lam: float) -> float:
        return math.sqrt(2.0 / lam**3) * special.spherical_jn(l, root * r / lam) / den

    return f


def _moving_integral(
    fk: Callable[[float, float], float],
    fp: Callable[[float, float], float],
    lam: float,
    weight_power: int,
) -> float:
    """integral over the moving direction of fp * d(fk)/d(lambda).

    The derivative uses centred differences with one Richardson step;
    with h ~ 1e-5*lam the differencing error is far below the 1e-8
    contract of the oracle.
    """
    h = 1e-5 * lam

    def integrand(x: float) -> float:
        d1 = (fk(x, lam + h) - fk(x, lam - h)) / (2.0 * h)
        d2 = (fk(x, lam + 0.5 * h) - fk(x, lam - 0.5 * h)) / h
        dk = (4.0 * d2 - d1) / 3.0
        return fp(x, lam) * dk * x**weight_power

    val, _err = quad(integrand, 0.0, lam, **_QUAD_KW)
    return val


def _fixed_integral(
    fk: Callable[[float], float],
    fp: Callable[[float], float],
    a: float,
    b: float,
    weight: Callable[[float], float] | None = None,
) -> float:
    if weight is None:
        integrand = lambda x: fk(x) * fp(x)  # noqa: E731
    else:
        integrand = lambda x: fk(x) * fp(x) * weight(x)  # noqa: E731
    val, _err = quad(integrand, a, b, **_QUAD_KW)
    return val


def overlap_integral_oracle(
    geom: Geometry,
    pol: Polarization,
    k: ModeIndex,
    p: ModeIndex,
    lam: float,
    lam_dot: float,
) -> float:
    """Numerically integrated mixing coefficient g_kp(t).

    Equals (lam_dot / lam) * coupling_coefficient(geom, pol, k, p)
    within quadrature tolerance; the first mode's profile is the one
    differentiated against the boundary position.
    """
    validate_mode(geom, pol, k)
    validate_mode(geom, pol, p)
    if not lam > 0.0:
        raise ValueError("driven length must be positive")
    if not (math.isfinite(lam) and math.isfinite(lam_dot)):
        raise ValueError("boundary position and velocity must be finite")
    if lam_dot == 0.0:
        return 0.0

    if isinstance(geom, RectangularGeometry):
        trans = _cos_factor if pol is Polarization.TE else _sin_factor
        ix = _fixed_integral(trans(k[0], geom.lx), trans(p[0], geom.lx), 0.0, geom.lx)
        iy = _fixed_integral(trans(k[1], geom.ly), trans(p[1], geom.ly), 0.0, geom.ly)
        imov = _moving_integral(
            _axial_moving_factor(pol, k[2]), _axial_moving_factor(pol, p[2]), lam, 0
        )
        return -lam_dot * ix * iy * imov

    if isinstance(geom, CylindricalGeometry):
        iphi = _fixed_integral(
            _azimuthal_factor(k[0]), _azimuthal_factor(p[0]), 0.0, 2.0 * math.pi
        )
        if geom.moving_wall is MovingWall.LONGITUDINAL:
            _, fk = _cyl_radial_profile(pol, k[0], k[1])
            _, fp = _cyl_radial_profile(pol, p[0], p[1])
            r = geom.radius
            irho = _fixed_integral(
                lambda x: fk(x, r), lambda x: fp(x, r), 0.0, r, weight=lambda x: x
            )
            imov = _moving_integral(
                _axial_moving_factor(pol, k[2]), _axial_moving_factor(pol, p[2]), lam, 0
            )
            return -lam_dot * iphi * irho * imov
        # radial drive: the z cosine is a fixed direction, so index 0 is
        # unit-normalised here, unlike the moving-direction convention.
        if pol is Polarization.TE:
            zk = _sin_factor(k[2], geom.axis_length)
            zp = _sin_factor(p[2], geom.axis_length)
        else:
            zk = _cos_factor(k[2], geom.axis_length)
            zp = _cos_factor(p[2], geom.axis_length)
        iz = _fixed_integral(zk, zp, 0.0, geom.axis_length)
        _, fk = _cyl_radial_profile(pol, k[0], k[1])
        _, fp = _cyl_radial_profile(pol, p[0], p[1])
        imov = _moving_integral(fk, fp, lam, 1)
        return -lam_dot * iphi * iz * imov

    if isinstance(geom, SphericalGeometry):
        ith = _fixed_integral(
            _polar_factor(k[1], k[2]),
            _polar_factor(p[1], p[2]),
            0.0,
            math.pi,
            weight=math.sin,
        )
        iphi = _fixed_integral(
            _sphere_azimuthal_factor(k[2]),
            _sphere_azimuthal_factor(p[2]),
            0.0,
            2.0 * math.pi,
        )
        fk = _sph_radial_profile(pol, k[0], k[1])
        fp = _sph_radial_profile(pol, p[0], p[1])
        imov = _moving_integral(fk, fp, lam, 2)
        return -lam_dot * ith * iphi * imov

    raise ValueError(f"unknown geometry {geom!r}")
