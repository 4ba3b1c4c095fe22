"""Bessel evaluation and root tables for cavity spectra.

Cylindrical J_n and spherical j_l are evaluated by downward (Miller)
recurrence.  The cylindrical family is normalised with
J_0(x) + 2*sum_k J_{2k}(x) = 1, the spherical one against j_0 or j_1,
whichever is larger in magnitude at the given argument.  That keeps the
values accurate to near machine precision for every order/argument pair
the root finder visits, without special-casing small or large x.

Roots come from their own order alone: a scan in steps shorter than any
zero spacing certifies each zero's index by counting sign changes, the
extrema lie between consecutive zeros, and Newton steps inside the bracket
refine each root to 1e-12 absolute.  Roots are cached per (kind, order,
index); the cache is safe for concurrent readers with a single locked
writer, which fills one order at a time.
"""

from __future__ import annotations

import math
import numbers
import threading
from enum import Enum

from .errors import RootBracketingError

__all__ = [
    "BesselKind",
    "bessel_zero",
    "clear_root_cache",
    "cyl_j",
    "cyl_j_prime",
    "sph_j",
    "sph_xj_prime",
]


class BesselKind(Enum):
    CYL_J = "CylJ"            # zeros x_{n,m} of J_n
    CYL_J_PRIME = "CylJPrime"  # zeros y_{n,m} of J_n'
    SPH_J = "SphJ"            # zeros of spherical j_l
    SPH_XJ_PRIME = "SphXJPrime"  # zeros of d/dx [x j_l(x)]


_XTOL = 1e-13
_RESCALE = 1e250


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


def _cyl_family(n_top: int, x: float) -> list[float]:
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


def cyl_j(order: int, x: float) -> float:
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    return _cyl_family(order, x)[order]


def cyl_j_prime(order: int, x: float) -> float:
    return _value_and_slope(BesselKind.CYL_J, order, x)[1]


def _sph_family(l_top: int, x: float) -> list[float]:
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


def sph_j(order: int, x: float) -> float:
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if order == 0:
        return math.sin(x) / x
    return _sph_family(order, x)[order]


def sph_xj_prime(order: int, x: float) -> float:
    """d/dx [x j_l(x)] = x j_{l-1}(x) - l j_l(x), for l >= 1."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _value_and_slope(BesselKind.SPH_XJ_PRIME, order, x)[0]


_cache: dict[tuple[BesselKind, int, int], float] = {}
_lock = threading.RLock()

# Scan step along x, below every spacing of consecutive zeros of J_n and
# j_l: 3.115 at the first pair of J_0, more than pi for order > 1/2 (j_l
# is J_{l+1/2} up to a factor).  So no step passes over two zeros.
_STEP = 3.0


def clear_root_cache() -> None:
    with _lock:
        _cache.clear()


def _value_and_slope(kind: BesselKind, order: int, x: float) -> tuple[float, float]:
    """(f, f') at x > 0 for the function whose zeros `kind` tabulates."""
    if kind is BesselKind.CYL_J or kind is BesselKind.CYL_J_PRIME:
        fam = _cyl_family(order + 1, x)
        j = fam[order]
        dj = -fam[1] if order == 0 else 0.5 * (fam[order - 1] - fam[order + 1])
        if kind is BesselKind.CYL_J:
            return j, dj
        # J_n'' from Bessel's equation
        return dj, -dj / x - (1.0 - (order / x) ** 2) * j
    fam = _sph_family(order, x)
    j = fam[order]
    if kind is BesselKind.SPH_J:
        return j, fam[order - 1] - (order + 1) / x * j
    # (x j_l)' and (x j_l)'' = (l(l+1)/x^2 - 1) x j_l
    return x * fam[order - 1] - order * j, (order * (order + 1) / x**2 - 1.0) * x * j


def _start(kind: BesselKind, order: int) -> float:
    """A point below the first zero, where each tabulated function is > 0."""
    if kind is BesselKind.SPH_J or kind is BesselKind.SPH_XJ_PRIME:
        return math.sqrt(order * (order + 1.0))
    return max(float(order), 1.0)


def _newton(kind: BesselKind, order: int, index: int, a: float, b: float,
            x: float, f: float, d: float) -> float:
    """Zero number `index` in [a, b] by Newton steps from x, where f' = d.

    The index gives f's sign on each side; a step out of [a, b] bisects."""
    left_neg = index % 2 == 0
    for _ in range(60):
        step = f / d if d != 0.0 else math.inf
        if abs(step) <= _XTOL:
            return x - step
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
        f, d = _value_and_slope(kind, order, x)
        a, b = (x, b) if (f < 0.0) == left_neg else (a, x)
    raise RootBracketingError(kind, order, index, f"no convergence on [{a!r}, {b!r}]")


def _scan(kind: BesselKind, order: int, index: int) -> None:
    """Cache the zeros of J_n or j_l in turn, up to `index`.

    Resuming on the grid x0 + j * _STEP past the last cached zero gives
    each zero the same bracket whatever the order of requests."""
    x0 = _start(kind, order)
    found = max((k for k in range(index) if (kind, order, k) in _cache), default=0)
    j = int((_cache[(kind, order, found)] - x0) / _STEP) + 1 if found else 0
    while found < index:
        a, b = x0 + j * _STEP, x0 + (j + 1) * _STEP
        j += 1
        f, d = _value_and_slope(kind, order, b)
        if (f <= 0.0) if found % 2 == 0 else (f >= 0.0):
            found += 1
            _cache[(kind, order, found)] = _newton(kind, order, found, a, b, b, f, d)


def _root(kind: BesselKind, order: int, index: int) -> float:
    key = (kind, order, index)
    val = _cache.get(key)
    if val is not None:
        return val
    with _lock:
        if key not in _cache:
            if kind is BesselKind.CYL_J or kind is BesselKind.SPH_J:
                _scan(kind, order, index)
            else:  # one extremum between consecutive zeros of the same order
                zeros = BesselKind.SPH_J
                if kind is BesselKind.CYL_J_PRIME:
                    zeros = BesselKind.CYL_J
                a = _root(zeros, order, index - 1) if index > 1 else _start(kind, order)
                b = _root(zeros, order, index)
                x = 0.5 * (a + b)
                _cache[key] = _newton(kind, order, index, a, b, x,
                                      *_value_and_slope(kind, order, x))
        return _cache[key]


def bessel_zero(kind: BesselKind, order: int, index: int) -> float:
    """index-th positive root (1-based) of the requested function family.

    Orders are >= 0 for the cylindrical kinds and >= 1 for the spherical
    ones (an l = 0 spherical mode carries no field).  Roots are strictly
    increasing in index and accurate to 1e-12 absolute.
    """
    if not isinstance(kind, BesselKind):
        raise ValueError(f"kind must be a BesselKind, got {kind!r}")
    if not all(isinstance(v, numbers.Integral) for v in (order, index)):
        raise ValueError(f"order and index must be integers: {order!r}, {index!r}")
    order, index = int(order), int(index)
    if index < 1:
        raise ValueError(f"root index must be >= 1, got {index}")
    min_order = 1 if kind in (BesselKind.SPH_J, BesselKind.SPH_XJ_PRIME) else 0
    if order < min_order:
        raise ValueError(f"{kind.value} order must be >= {min_order}, got {order}")
    if kind is BesselKind.CYL_J_PRIME and order == 0:
        kind, order = BesselKind.CYL_J, 1  # J_0' = -J_1: its zeros are those of J_1
    return _root(kind, order, index)
