"""Exponentials of quadratic boson forms via their characteristic matrices.

An operator exp(1/2 alpha S alpha), with alpha = (a_1..a_n, a_1^+..a_n^+)
and S complex symmetric, maps to the 2n x 2n matrix exp(sigma S); operator
products map to matrix products and

    Tr J = [(-1)^n det([J] - I)]^(-1/2).

A characteristic-function weight [J] = U^-1 E1 U E2 T (E1, E2, T
diagonal) needs no inverse: det U = 1, as tr(sigma S) = 0 for symmetric
S and the free phases have unit determinant, so det([J] - I) =
det(E1 U E2 T - U), U with its rows and columns scaled, less U.

The square root's branch is the delicate part.  Thermal-weighted traces
are fixed by a reference eigenvalue pairing; characteristic-function
evaluations are fixed by homotopy from (u, v) = (0, 0), where the
normalized value is exactly 1.  One rule, _continue, carries a root
along a path's stops; tracked_sqrt lays out the stops point by point,
and the trace formula's _ray_sqrt along a comb's ray at one determinant
per point, falling back to tracked_sqrt off a ray or on a failed step.
The single-mode closed forms in charfun need the tracker only at points
where no bound proves their principal root to be the branch: off a
strip of the phase for closed endpoints, and outside a certificate on
Re u for open ones.

Scalar prefactors (the 1/2-shifts of normal ordering) are never folded
into the matrices.  In the characteristic-function ratio they cancel
identically: the two measurement exponentials carry opposite shifts, the
evolution appears conjugated, and the thermal shift is (u, v)-independent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BranchTrackingError, SymplecticityError, TraceDivergenceError

# the largest beta hbar omega of the records' thermal factors, and of the
# log of a coupled group's thermal normalization (sinh^2 overflows at 709.78)
_MAX_THERMAL_EXPONENT = 700.0

__all__ = [
    "QuadraticForm",
    "char_matrix",
    "charfun_from_generator",
    "check_thermal_norm",
    "sigma_matrix",
    "trace_from_char",
    "tracked_sqrt",
]


def sigma_matrix(n: int) -> np.ndarray:
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = -np.eye(n)
    return s


@dataclass(frozen=True)
class QuadraticForm:
    """The operator exp(1/2 alpha S alpha) for complex symmetric S.

    modes is optional bookkeeping: which cavity mode sits at which slot.
    """

    S: np.ndarray
    modes: tuple = ()

    def __post_init__(self) -> None:
        s = np.asarray(self.S, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError(f"S must be square with even dimension, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("S must have finite entries")
        object.__setattr__(self, "S", 0.5 * (s + s.T))
        if self.modes and 2 * len(self.modes) != s.shape[0]:
            raise ValueError("mode list does not match matrix dimension")

    @property
    def n(self) -> int:
        return self.S.shape[0] // 2


def _check_symplectic(m: np.ndarray) -> None:
    n = m.shape[0] // 2
    sig = sigma_matrix(n)
    # float error grows with the squared matrix scale, so the 1e-10
    # contract is applied relative to it
    scale = max(1.0, float(np.linalg.norm(m, 1)) ** 2)
    defect = float(np.abs(m.T @ sig @ m - sig).max())
    if defect > 1e-10 * scale:
        raise SymplecticityError(
            f"matrix is not symplectic: defect {defect:.3e} at scale {scale:.3e}"
        )


# Pade [13/13] numerator coefficients b_0..b_13 and the largest 1-norm at
# which the unscaled approximant meets double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by Pade [13/13] scaling and squaring (Higham 2005)."""
    norm = float(np.linalg.norm(a, 1))
    # an infinite norm is left unscaled; its exponential is non-finite
    s = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    ident = np.eye(a.shape[0])
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def char_matrix(q: QuadraticForm) -> np.ndarray:
    """[J] = exp(sigma S) by _expm, checked finite and symplectic."""
    m = _expm(sigma_matrix(q.n) @ q.S)
    if not np.all(np.isfinite(m)):
        raise SymplecticityError(
            "matrix exponential overflowed; generator norm "
            f"{float(np.linalg.norm(q.S, 1)):.3e} is too large"
        )
    _check_symplectic(m)
    return m


def _branch_determinant(x: np.ndarray):
    """(-1)^n det(X), over the last two axes of a 2n x 2n matrix stack."""
    n = x.shape[-1] // 2
    sign = -1.0 if n % 2 else 1.0
    return sign * np.linalg.det(x)


def _anchor(d0, size: int, anchor_tol: float) -> np.ndarray:
    """Anchors radicand(0) at size points, each real positive to anchor_tol."""
    d0 = np.broadcast_to(np.asarray(d0, dtype=complex), (size,))
    bad = ~((np.abs(d0.imag) <= anchor_tol * np.abs(d0)) & (d0.real > 0.0))
    if bad.any():
        raise BranchTrackingError(
            f"branch anchor {complex(d0[bad][0]):.3e} is not positive real"
        )
    return d0


def _continue(start: np.ndarray, cur: np.ndarray):
    """The branch rule: sqrt(start[i]) continued along row i of cur, the
    radicands at one path's stops.  Per stop: whether the radicand
    vanished (below 1e-14 of start), whether the step to it passed (the
    ratio cur / prev has a positive real part) and the root, which holds
    while every step up to it passed."""
    prev = np.concatenate([start[:, None], cur[:, :-1]], axis=1)
    # prev enters as its phase, so that the product stays in float range
    # with the radicand; a vanished prev has none
    with np.errstate(invalid="ignore"):
        ok = (cur * (prev / np.abs(prev)).conj()).real > 0.0
    # the relative argument lies within (-pi/2, pi/2), so of the two roots
    # of cur the one within pi/4 of the last continues the branch: a sign
    # chain over the principal roots
    near = np.sqrt(cur)
    last = np.concatenate([np.sqrt(start)[:, None], near[:, :-1]], axis=1)
    turn = np.where((near * last.conj()).real > 0.0, 1.0, -1.0)
    root = np.where(np.cumprod(turn, axis=1) > 0.0, near, -near)
    return np.abs(cur) < 1e-14 * np.abs(start)[:, None], ok, root


def tracked_sqrt(
    radicand: Callable[..., np.ndarray],
    points: Sequence,
    steps: int,
    anchor_tol: float,
) -> np.ndarray:
    """sqrt(radicand(1, *points)) on the branch reached continuously from
    s = 0, elementwise over the broadcast point arrays.

    radicand(s, *pts) evaluates at one path parameter s, elementwise over
    flat arrays pts holding some of the points.  Every anchor
    radicand(0) must be real positive to a relative anchor_tol (a thermal
    normalization or determinant in every use here).  A pass carries
    each root by _continue over `steps` equal steps in s; a point with a
    failed step is re-run at twice the steps, up to 64 times the
    starting count, so a batch costs what its points cost one by one.  A
    radicand that vanishes at or before a point's first failed step is
    refused.  The single-mode closed forms call it only for points where
    the principal root is not certified to be the branch.
    """
    pts = np.broadcast_arrays(*map(np.asarray, points))
    shape = pts[0].shape
    pts = [p.ravel() for p in pts]
    d0 = _anchor(radicand(0.0, *pts), pts[0].size, anchor_tol)
    out = np.empty(d0.size, dtype=complex)
    live = np.arange(d0.size)
    limit = 64 * steps
    while True:
        sub = [p[live] for p in pts]
        cur = [radicand(j / steps, *sub) for j in range(1, steps + 1)]
        vanished, ok, root = _continue(d0[live], np.stack(cur, 1, dtype=complex))
        # a stop is reached while every step before it passed
        passed = np.logical_and.accumulate(ok, axis=1)
        if (vanished & np.insert(passed[:, :-1], 0, True, axis=1)).any():
            raise BranchTrackingError(
                "radicand vanished along the branch path; perturb u or v"
            )
        failed = ~passed[:, -1]
        out[live[~failed]] = root[~failed, -1]
        if not failed.any():
            return out.reshape(shape)
        if steps >= limit:
            raise BranchTrackingError(
                f"radicand winds too fast even at {steps} steps; "
                "perturb the evaluation point"
            )
        live = live[failed]
        steps *= 2


def _ray_sqrt(radicand, points, steps, anchor_tol):
    """tracked_sqrt at one radicand per point, for points (u, v) on one
    ray from the origin: u >= 0 with v = 0, or u = 0 with v >= 0, all
    finite, at least one, and not scalar.

    Each point's homotopy segment then lies on the farthest point's, so
    _continue along one path, the sorted points merged with the tracker's
    `steps` stops to the farthest, reaches every root with no step longer
    than the tracker's: N + steps radicands in one batch.  Off such a
    ray, or where a stop vanishes or a step fails, tracked_sqrt runs.
    """
    u, v = np.broadcast_arrays(*map(np.asarray, points))
    on_u = not v.any()
    t = (u if on_u else v).ravel()
    if (
        not u.ndim or np.iscomplexobj(u) or np.iscomplexobj(v)
        or (not on_u and u.any())
        or not (t.size and np.isfinite(t).all() and (t >= 0.0).all())
    ):
        return tracked_sqrt(radicand, points, steps, anchor_tol)
    d0 = _anchor(radicand(0.0, u.ravel(), v.ravel()), t.size, anchor_tol)
    grid, zero = t.max() * np.arange(1, steps + 1) / steps, np.zeros(steps)
    order = np.argsort(np.concatenate([t, grid]), kind="stable")
    su = np.concatenate([u.ravel(), grid if on_u else zero])[order]
    sv = np.concatenate([v.ravel(), zero if on_u else grid])[order]
    cur = np.asarray(radicand(1.0, su, sv), dtype=complex)
    vanished, ok, root = _continue(d0[:1], cur[None])
    if vanished.any() or not ok.all():
        return tracked_sqrt(radicand, points, steps, anchor_tol)
    out = np.empty_like(cur)
    out[order] = root[0]
    return out[: t.size].reshape(u.shape)


def trace_from_char(m: np.ndarray) -> complex:
    """Tr J from [J], square-root branch picked against an eigenvalue
    reference.

    Eigenvalues of a symplectic matrix pair up as (z, 1/z); the half with
    |z| > 1 gives the reference product of 1/(sqrt(z) - 1/sqrt(z))
    factors, which is exact for thermal-like weights where principal
    roots are correct.  The returned value is the root of the
    determinant formula closer to that reference; if neither is clearly
    closer the branch is genuinely ambiguous and an error is raised.
    """
    m = np.asarray(m, dtype=complex)
    d = _branch_determinant(m - np.eye(m.shape[0]))
    if abs(d) < 1e-12:
        raise TraceDivergenceError(
            f"det([J]-I) = {d:.3e}; the trace diverges (unitary-like weight)"
        )
    t_plus = 1.0 / np.sqrt(d)
    lams = np.linalg.eigvals(m)
    order = np.argsort(-np.abs(lams))
    ref = 1.0 + 0.0j
    for lam in lams[order][: m.shape[0] // 2]:
        rt = np.sqrt(lam)
        ref /= rt - 1.0 / rt
    r = ref / t_plus
    if r.real > 0.2:
        return complex(t_plus)
    if r.real < -0.2:
        return complex(-t_plus)
    raise BranchTrackingError(
        "square-root branch is ambiguous for this weight; "
        "evaluate along a homotopy instead"
    )


def check_thermal_norm(x: np.ndarray) -> None:
    """Refuse, with ValueError, mode energies x = beta hbar omega > 0 of
    one group with an x above 700, as the records do, or whose thermal
    normalization, the trace formula's anchor (-1)^n det(T - I) =
    prod 4 sinh^2(x / 2), lies below the smallest normal float or above
    e^700 (a group can leave that range while each x stays within 700),
    or whose anchor computes as 0: an e^x rounds to 1."""
    if not np.all(x <= _MAX_THERMAL_EXPONENT):
        raise ValueError(
            "the thermal diagonal e^(beta hbar omega) at beta hbar omega = "
            f"{float(np.max(x)):.6g} > {_MAX_THERMAL_EXPONENT:g} leaves float range"
        )
    with np.errstate(divide="ignore"):  # an x of 0
        log_norm = float(np.sum(x + 2.0 * np.log(-np.expm1(-x))))
        unit = np.exp(x) == 1.0
    lowest = math.log(sys.float_info.min)
    if not lowest <= log_norm <= _MAX_THERMAL_EXPONENT:
        raise ValueError(
            "the thermal normalization prod 4 sinh^2(beta hbar omega / 2) = "
            f"e^{log_norm:.6g} over the group's modes leaves float range: its "
            f"log must lie within [{lowest:.6g}, {_MAX_THERMAL_EXPONENT:g}]"
        )
    if unit.any():
        raise ValueError(
            "the thermal diagonal e^(beta hbar omega) at beta hbar omega = "
            f"{float(x.min()):.6g} rounds to 1: the anchor det(U T - U) is 0"
        )


def charfun_from_generator(
    generator: QuadraticForm,
    omegas: "np.ndarray | list",
    tau: float,
    beta: float,
    u,
    v,
    hbar: float = 1.0,
):
    """Two-point characteristic function of work and photon number.

    The weight is U^+ e^{iuH+ivN} U e^{-iuH-ivN} e^{-beta H} with
    U = e^{-i H0 tau} e^{-i V tau}, V = 1/2 alpha S alpha the interaction
    generator, and H counted without zero-point shift (the shifts cancel
    in this equal-endpoint ratio).  Its characteristic matrix is
    [U]^-1 E1 [U] E2 T with E1, E2, T diagonal; det [U] = 1, since
    sigma S has trace 0 for symmetric S and the free phases have unit
    determinant, so the radicand is (-1)^n det(E1 [U] E2 T - [U]): per
    point, [U] with its rows and columns scaled, less [U].  Branch of
    the trace square root is carried by homotopy s*(u, v), s in [0, 1],
    anchored at the real positive thermal determinant: continued once
    along the sorted points where they lie on one ray from the origin
    (_ray_sqrt), by tracked_sqrt otherwise.  u and v broadcast, and
    scalar input returns a Python complex.  ValueError for a frequency
    or tau that is not finite, a frequency, beta or hbar that is not
    positive, or a thermal normalization out of float range
    (check_thermal_norm).
    """
    w = np.asarray(omegas, dtype=float)
    if w.size != generator.n:
        raise ValueError("one frequency per generator mode is required")
    if not np.all((w > 0.0) & (w < math.inf)):
        raise ValueError("frequencies must be positive and finite")
    if not (beta > 0.0 and hbar > 0.0):
        raise ValueError("beta and hbar must be positive")
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")
    x = beta * hbar * w
    check_thermal_norm(x)

    m_int = char_matrix(QuadraticForm(-1j * tau * generator.S, generator.modes))
    # the free phases and the thermal factor are diagonal: a vector each
    phases = np.exp(np.concatenate([-1j * w * tau, 1j * w * tau]))
    m_u = phases[:, None] * m_int
    thermal = np.exp(np.concatenate([-x, x]))

    def total(su: np.ndarray, sv: np.ndarray) -> np.ndarray:
        # E1 U E2 T - U, one matrix per point: E1 scales the rows of U,
        # E2 T its columns
        c1 = 1j * su[..., None] * hbar * w + 1j * sv[..., None]
        e1 = np.exp(np.concatenate([c1, -c1], axis=-1))
        e2 = np.exp(np.concatenate([-c1, c1], axis=-1))
        return e1[..., :, None] * m_u * (e2 * thermal)[..., None, :] - m_u

    # every point starts from the same thermal weight
    d0 = _branch_determinant(total(np.zeros(1), np.zeros(1)))[0]

    def radicand(s: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if s == 0.0:
            return d0
        return _branch_determinant(total(s * u, s * v))

    g = np.sqrt(d0) / _ray_sqrt(radicand, (u, v), steps=64, anchor_tol=1e-9)
    return complex(g) if g.ndim == 0 else g

