"""Bessel root tables for cavity spectra.

The modes of the cylinder and the sphere sit at zeros of J_n, J_n',
j_l and d/dx [x j_l(x)].  Their values come from one downward (Miller)
recurrence that runs over arrays of (order, x) pairs, across orders:
each element keeps its own start, rescale and norm.  The cylindrical
family is normalised with J_0(x) + 2*sum_k J_{2k}(x) = 1 and rerun from
a higher start until two starts agree to 1e-14; the spherical one is
anchored on j_0 or j_1, whichever is larger in magnitude at x.  That
keeps the values accurate to near machine precision for every
order/argument pair the root finder visits, without special-casing
small or large x.

Zeros are bracketed on each order's grid x0 + j * _STEP, whose step is
shorter than any zero spacing, so counting sign changes certifies each
zero's index; the extrema lie between consecutive zeros.  Newton steps
inside the brackets, all brackets at once, refine each root to 1e-12
absolute.  The roots of each (kind, order) are cached as one row, in
turn from the first, and one routine grows every row past a reach:
`root_table` grows each order's row of one kind past x_max, all in one
batch, and `bessel_zero` grows one row past its last cached root plus
pi per missing root, and again until the row holds the root it asks
for, computing no other order.  A scan resumes on the grid past the
row's last cached zero, so each root keeps its bracket, and its bits,
whatever the order of requests.  A row only grows, under a lock, so readers index it
without one.
"""

from __future__ import annotations

import math
import numbers
import threading
from enum import Enum

import numpy as np

from .errors import RootBracketingError

__all__ = ["BesselKind", "bessel_zero", "clear_root_cache", "root_table"]


class BesselKind(Enum):
    CYL_J = "CylJ"            # zeros x_{n,m} of J_n
    CYL_J_PRIME = "CylJPrime"  # zeros y_{n,m} of J_n'
    SPH_J = "SphJ"            # zeros of spherical j_l
    SPH_XJ_PRIME = "SphXJPrime"  # zeros of d/dx [x j_l(x)]


_ZEROS = {
    BesselKind.CYL_J: BesselKind.CYL_J,
    BesselKind.CYL_J_PRIME: BesselKind.CYL_J,
    BesselKind.SPH_J: BesselKind.SPH_J,
    BesselKind.SPH_XJ_PRIME: BesselKind.SPH_J,
}
_SPHERICAL = (BesselKind.SPH_J, BesselKind.SPH_XJ_PRIME)

_XTOL = 1e-13
_RESCALE = 1e250


def _miller(x: np.ndarray, start: np.ndarray, width: int,
            cyl: bool) -> tuple[np.ndarray, np.ndarray]:
    """Downward recurrence from index start[i] at x[i], one row per element.

    J_{k-1} = (2k/x) J_k - J_{k+1} (cyl) or j_{k-1} = ((2k+1)/x) j_k -
    j_{k+1}, seeded near zero far above both the order and the turning
    point k ~ x.  Returns the unnormalised values at indices 0 .. width-1
    and, for cyl, J_0 + 2*sum_k J_{2k} on the same scale.  A row idles
    until k reaches its start, and rescales on its own."""
    order = np.argsort(-start, kind="stable")
    xs, starts = x[order], start[order]
    n = len(xs)
    jp = np.zeros(n)
    j = np.full(n, 1e-305)
    norm = np.zeros(n)
    vals = np.zeros((n, width))
    top = int(starts[0])
    live = np.searchsorted(-starts, -np.arange(top + 1), side="right")
    inv = 1.0 / _RESCALE
    for k in range(top, 0, -1):
        c = live[k]
        coef = 2.0 * k / xs[:c] if cyl else (2.0 * k + 1.0) / xs[:c]
        jm = coef * j[:c] - jp[:c]
        jp[:c] = j[:c]
        j[:c] = jm
        idx = k - 1
        if idx < width:
            vals[:c, idx] = jm
        if cyl and idx > 0 and idx % 2 == 0:
            norm[:c] += 2.0 * jm
        big = np.abs(jm) > _RESCALE
        if big.any():
            rows = np.flatnonzero(big)
            jp[rows] *= inv
            j[rows] *= inv
            norm[rows] *= inv
            vals[rows] *= inv
    back = np.empty_like(order)
    back[order] = np.arange(n)
    return vals[back], (norm + vals[:, 0])[back]


def _miller_start(top: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each element's first index, far above both its top order and x."""
    base = np.maximum(np.maximum(top, x.astype(np.int64)), 1)
    return base + 24 + np.sqrt(40.0 * base).astype(np.int64)


def _cyl_family(n_top: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_0(x) .. J_{n_top}(x) for x > 0, one row per element; columns past
    a row's n_top hold no value.  A row is accepted once two starts 16
    apart agree to 1e-14 on every order up to its n_top."""
    start = _miller_start(n_top, x)
    width = int(n_top.max()) + 1
    outside = np.arange(width) > n_top[:, None]
    out = np.empty((len(x), width))
    rows = np.arange(len(x))

    def normed(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
        vals, norm = _miller(x[rows], start, width, cyl=True)
        return vals / norm[:, None]

    both = normed(np.concatenate([rows, rows]), np.concatenate([start, start + 16]))
    prev, cur = both[: len(x)], both[len(x):]
    for attempt in range(4):
        if attempt:
            start[rows] += 32
            cur = normed(rows, start[rows] + 16)
        diff = np.abs(prev - cur)
        diff[outside[rows]] = 0.0
        ok = diff.max(axis=1) <= 1e-14
        out[rows[ok]] = cur[ok]
        rows, prev = rows[~ok], cur[~ok]
        if not rows.size:
            return out
    raise RootBracketingError(
        BesselKind.CYL_J, int(n_top[rows[0]]), -1,
        f"Miller recurrence stalled at x={float(x[rows[0]])!r}",
    )


def _sph_family(l_top: np.ndarray, x: np.ndarray) -> np.ndarray:
    """j_0(x) .. j_{l_top}(x) for x > 0, one row per element."""
    vals, _ = _miller(x, _miller_start(l_top, x), int(l_top.max()) + 1, cyl=False)
    xs = x.tolist()
    j0 = np.array([math.sin(v) / v for v in xs])
    j1 = np.array([math.sin(v) / v**2 - math.cos(v) / v for v in xs])
    # Anchor on whichever reference value is better conditioned.
    scale = np.where(np.abs(j0) >= np.abs(j1), j0 / vals[:, 0], j1 / vals[:, 1])
    return vals * scale[:, None]


def _squares(v: np.ndarray) -> np.ndarray:
    # Python's float ** 2, which rounds through libm's pow, so that each
    # square equals the scalar expression's
    return np.array([t**2 for t in v.tolist()], dtype=float)


def _value_and_slope(kind: BesselKind, order: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, f') at x > 0 for the function whose zeros `kind` tabulates."""
    rows = np.arange(len(x))
    # columns past a row's own order hold no value and may overflow
    with np.errstate(all="ignore"):
        if kind is BesselKind.CYL_J or kind is BesselKind.CYL_J_PRIME:
            fam = _cyl_family(order + 1, x)
            j = fam[rows, order]
            dj = np.where(order == 0, -fam[:, 1],
                          0.5 * (fam[rows, order - 1] - fam[rows, order + 1]))
            if kind is BesselKind.CYL_J:
                return j, dj
            # J_n'' from Bessel's equation
            return dj, -dj / x - (1.0 - _squares(order / x)) * j
        fam = _sph_family(order, x)
        j = fam[rows, order]
        if kind is BesselKind.SPH_J:
            return j, fam[rows, order - 1] - (order + 1) / x * j
        # (x j_l)' and (x j_l)'' = (l(l+1)/x^2 - 1) x j_l
        return (x * fam[rows, order - 1] - order * j,
                (order * (order + 1) / _squares(x) - 1.0) * x * j)


_cache: dict[tuple[BesselKind, int], list[float]] = {}
_lock = threading.RLock()

# Scan step along x, below every spacing of consecutive zeros of J_n and
# j_l: 3.115 at the first pair of J_0, more than pi for order > 1/2 (j_l
# is J_{l+1/2} up to a factor).  So no step passes over two zeros.
_STEP = 3.0


def clear_root_cache() -> None:
    with _lock:
        _cache.clear()


def _start(kind: BesselKind, order: int) -> float:
    """A point below the first zero, where each tabulated function is > 0."""
    if kind in _SPHERICAL:
        return math.sqrt(order * (order + 1.0))
    return max(float(order), 1.0)


def _key(kind: BesselKind, order: int) -> tuple[BesselKind, int]:
    if kind is BesselKind.CYL_J_PRIME and order == 0:
        return BesselKind.CYL_J, 1  # J_0' = -J_1: its zeros are those of J_1
    return kind, order


def _newton(kind: BesselKind, order: np.ndarray, index: np.ndarray, a: np.ndarray,
            b: np.ndarray, x: np.ndarray, f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Zero number index[i] in [a[i], b[i]] by Newton steps from x[i], where
    f' = d, for every element at once.

    The index gives f's sign on each side; a step out of [a, b] bisects.
    Each element takes its own steps and stops on its own."""
    roots = np.empty(len(x))
    live = np.arange(len(x))
    left_neg = index % 2 == 0
    for _ in range(60):
        step = np.full(len(x), math.inf)
        np.divide(f, d, out=step, where=d != 0.0)
        done = np.abs(step) <= _XTOL
        roots[live[done]] = x[done] - step[done]
        if done.all():
            return roots
        go = ~done
        live, order, left_neg, a, b = live[go], order[go], left_neg[go], a[go], b[go]
        x = x[go] - step[go]
        out = ~((a < x) & (x < b))
        x[out] = 0.5 * (a[out] + b[out])
        f, d = _value_and_slope(kind, order, x)
        left = (f < 0.0) == left_neg
        a, b = np.where(left, x, a), np.where(left, b, x)
    raise RootBracketingError(kind, int(order[0]), int(index[live[0]]),
                              f"no convergence on [{float(a[0])!r}, {float(b[0])!r}]")


def _through(roots: list[float], x_max: float) -> list[float]:
    """The leading roots through the first one above x_max."""
    for i, root in enumerate(roots):
        if not root <= x_max:
            return roots[: i + 1]
    raise AssertionError("no root above x_max")


def _extend(kind: BesselKind, orders: list[int], x_max: float) -> None:
    """Grow the cached row of `kind` for each order through its first
    root above x_max.  Call under _lock.

    The zeros of J_n or j_l come first, in turn from the first, on until
    two of them lie above x_max.  A scan resumes on the grid x0 + j *
    _STEP past the row's last cached zero, which gives each zero the
    same bracket whatever the order of requests; all orders scan in one
    batch, and all brackets refine in one Newton batch.  For the primed
    kinds, every missing extremum then refines in a second batch, from
    the midpoint of its two zeros."""
    keys = [_key(kind, n) for n in orders]
    zero_kind = _ZEROS[kind]
    zeros = {n: _cache.setdefault((zero_kind, n), []) for _, n in keys}
    # [order, grid position, zeros found, zeros certainly above x_max]
    scans = []
    for n, row in zeros.items():
        above = sum(not z <= x_max for z in row)
        if above < 2:
            j = int((row[-1] - _start(zero_kind, n)) / _STEP) + 1 if row else 0
            scans.append([n, j, len(row), above])
    brackets = []
    while scans:
        grids = []
        for n, j, found, _ in scans:
            x0 = _start(zero_kind, n)
            reach = (x_max - x0) / _STEP - j
            size = int(reach) + 6 if reach > 0.0 else 6
            grids.append([x0 + (i + 1) * _STEP for i in range(j, j + size)])
        f, d = _value_and_slope(zero_kind,
                                np.repeat([s[0] for s in scans], list(map(len, grids))),
                                np.array([b for grid in grids for b in grid]))
        f, d = f.tolist(), d.tolist()
        pos = 0
        for scan, grid in zip(scans, grids):
            n, j, found, above = scan
            x0 = _start(zero_kind, n)
            for i, b in enumerate(grid):
                fb = f[pos + i]
                if (fb <= 0.0) if found % 2 == 0 else (fb >= 0.0):
                    found += 1
                    a = x0 + (j + i) * _STEP
                    brackets.append((n, found, a, b, fb, d[pos + i]))
                    above += not a < x_max
                    if above >= 2:
                        break
            pos += len(grid)
            scan[1:] = j + i + 1, found, above
        scans = [s for s in scans if s[3] < 2]
    if brackets:
        n, i, a, b, f, d = (np.array(col) for col in zip(*brackets))
        for order, root in zip(n.tolist(), _newton(zero_kind, n, i, a, b, b, f, d).tolist()):
            zeros[order].append(root)
    # one extremum between consecutive zeros: with two zeros above x_max,
    # one extremum lies above it
    wanted = []
    for key in keys:
        if key[0] is not zero_kind:
            n, row = key[1], _cache.setdefault(key, [])
            lows = [_start(kind, n)] + zeros[n]
            stop = len(_through(zeros[n], x_max)) + 1
            wanted += [(n, i, lows[i - 1], lows[i]) for i in range(len(row) + 1, stop + 1)]
    if wanted:
        n, i, a, b = (np.array(col) for col in zip(*wanted))
        x = 0.5 * (a + b)
        roots = _newton(kind, n, i, a, b, x, *_value_and_slope(kind, n, x))
        for order, root in zip(n.tolist(), roots.tolist()):
            _cache[(kind, order)].append(root)


def root_table(kind: BesselKind, x_max: float) -> list[list[float]]:
    """Every root of `kind` below x_max, for every order, filled in one batch.

    Row i holds the roots of order i (i + 1 for the spherical kinds) in
    turn through the first one above x_max; the rows run through the
    first order whose first root lies above x_max.  Each root equals
    bessel_zero's bit for bit; they are cached, with every root the
    batch found on the way.
    """
    if not isinstance(kind, BesselKind):
        raise ValueError(f"kind must be a BesselKind, got {kind!r}")
    x_max = float(x_max)
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max!r}")
    # no root of an order lies below its _start
    orders = [1 if kind in _SPHERICAL else 0]
    while _start(kind, orders[-1]) <= x_max:
        orders.append(orders[-1] + 1)
    table = []
    with _lock:
        _extend(kind, orders, x_max=x_max)
        for n in orders:
            table.append(_through(_cache[_key(kind, n)], x_max))
            if not table[-1][0] <= x_max:
                break
    return table


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
    min_order = 1 if kind in _SPHERICAL else 0
    if order < min_order:
        raise ValueError(f"{kind.value} order must be >= {min_order}, got {order}")
    kind, order = _key(kind, order)
    # a row only grows, so a cached root is read without the lock
    row = _cache.get((kind, order), ())
    if len(row) >= index:
        return row[index - 1]
    with _lock:
        while len(row) < index:  # roots lie about pi apart
            last = row[-1] if row else _start(kind, order)
            _extend(kind, [order], last + (index - len(row)) * math.pi)
            row = _cache[(kind, order)]
        return row[index - 1]
