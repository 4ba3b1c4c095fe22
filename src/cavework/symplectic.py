"""Exponentials of quadratic boson forms via their characteristic matrices.

An operator exp(1/2 alpha S alpha), with alpha = (a_1..a_n, a_1^+..a_n^+)
and S complex symmetric, maps to the 2n x 2n matrix exp(sigma S); operator
products map to matrix products and

    Tr J = [(-1)^n det([J] - I)]^(-1/2).

The square root's branch is the delicate part.  Thermal-weighted traces
are fixed by a reference eigenvalue pairing; characteristic-function
evaluations are fixed by homotopy from (u, v) = (0, 0), where the
normalized value is exactly 1.  That homotopy is tracked_sqrt, which
the closed forms in charfun use for their square roots too; it tracks a
whole array of evaluation points at once.

Scalar prefactors (the 1/2-shifts of normal ordering) are never folded
into the matrices.  In the characteristic-function ratio they cancel
identically: the two measurement exponentials carry opposite shifts, the
evolution appears conjugated, and the thermal shift is (u, v)-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BranchTrackingError, SymplecticityError, TraceDivergenceError

__all__ = [
    "QuadraticForm",
    "char_matrix",
    "charfun_from_generator",
    "charfun_general",
    "compose",
    "number_operator_form",
    "sigma_matrix",
    "symplectic_inverse",
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


def char_matrix(q: QuadraticForm) -> np.ndarray:
    """[J] = exp(sigma S), scaling-and-squaring matrix exponential."""
    from scipy.linalg import expm  # deferred: scipy.linalg dominates import time

    m = expm(sigma_matrix(q.n) @ q.S)
    if not np.all(np.isfinite(m)):
        raise SymplecticityError(
            "matrix exponential overflowed; generator norm "
            f"{float(np.linalg.norm(q.S, 1)):.3e} is too large"
        )
    _check_symplectic(m)
    return m


def number_operator_form(coeffs: "np.ndarray | list") -> tuple[QuadraticForm, complex]:
    """exp(sum_j c_j a_j^+ a_j) as (form, log_scalar).

    The operator equals exp(log_scalar) * exp(1/2 alpha S alpha) with
    log_scalar = -sum(c)/2, the normal-ordering shift.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = c.size
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        s[j, n + j] = c[j]
        s[n + j, j] = c[j]
    return QuadraticForm(s), complex(-0.5 * c.sum())


def _diag_char(coeffs: np.ndarray) -> np.ndarray:
    """Characteristic matrix of exp(sum c_j a_j^+ a_j): diag(e^c, e^-c)."""
    c = np.asarray(coeffs, dtype=complex)
    return np.diag(np.concatenate([np.exp(c), np.exp(-c)]))


def compose(ms: "list[np.ndarray]") -> np.ndarray:
    """Left-to-right product, matching the operator product order."""
    if not ms:
        raise ValueError("need at least one matrix")
    out = np.eye(ms[0].shape[0], dtype=complex)
    for m in ms:
        if m.shape != out.shape:
            raise ValueError("mode-count mismatch in composition")
        out = out @ m
    return out


def symplectic_inverse(m: np.ndarray) -> np.ndarray:
    """M^-1 = -sigma M^T sigma for symplectic M; exact group inverse."""
    n = m.shape[0] // 2
    sig = sigma_matrix(n)
    return -sig @ m.T @ sig


def _branch_determinant(m: np.ndarray):
    """(-1)^n det(M - I), over the last two axes of a matrix stack."""
    n = m.shape[-1] // 2
    sign = -1.0 if n % 2 else 1.0
    return sign * np.linalg.det(m - np.eye(2 * n))


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
    normalization or determinant in every use here).  Each root is
    carried over `steps` equal steps in s.  A point whose step ratio
    radicand(s) / radicand(s - 1/steps) has a non-positive real part
    drops out of the pass and is re-run from s = 0 at twice the steps,
    up to 64 times the starting count.  A pass ends as soon as all of its
    points have dropped out, so a batch costs what its points cost one
    by one.
    """
    pts = np.broadcast_arrays(*map(np.asarray, points))
    shape = pts[0].shape
    pts = [p.ravel() for p in pts]
    size = pts[0].size
    d0 = np.broadcast_to(np.asarray(radicand(0.0, *pts), dtype=complex), (size,))
    bad = ~((np.abs(d0.imag) <= anchor_tol * np.abs(d0)) & (d0.real > 0.0))
    if bad.any():
        raise BranchTrackingError(
            f"branch anchor {complex(d0[bad][0]):.3e} is not positive real"
        )
    out = np.empty(size, dtype=complex)
    live = np.arange(size)
    limit = 64 * steps
    while True:
        prev = d0[live]
        root = np.sqrt(prev)
        floor = 1e-14 * np.abs(prev)
        sub = [p[live] for p in pts]
        failed = []
        for j in range(1, steps + 1):
            cur = np.asarray(radicand(j / steps, *sub), dtype=complex)
            if (np.abs(cur) < floor).any():
                raise BranchTrackingError(
                    "radicand vanished along the branch path; perturb u or v"
                )
            # the step continues the branch while the ratio cur / prev
            # keeps a positive real part
            ok = (cur * prev.conj()).real > 0.0
            if not ok.all():
                failed.append(live[~ok])
                live, root, floor, cur = live[ok], root[ok], floor[ok], cur[ok]
                sub = [p[ok] for p in sub]
                if not live.size:
                    break
            # the relative argument lies within (-pi/2, pi/2), so of the
            # two roots of cur the one within pi/4 of the last continues
            # the branch
            near = np.sqrt(cur)
            root = np.where((near * root.conj()).real > 0.0, near, -near)
            prev = cur
        out[live] = root
        if not failed:
            return out.reshape(shape)
        if steps >= limit:
            raise BranchTrackingError(
                f"radicand winds too fast even at {steps} steps; "
                "perturb the evaluation point"
            )
        live = np.concatenate(failed)
        steps *= 2


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
    d = _branch_determinant(m)
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


def charfun_from_generator(
    generator: QuadraticForm,
    omegas: "np.ndarray | list",
    tau: float,
    beta: float,
    u,
    v,
    hbar: float = 1.0,
    steps: int = 64,
):
    """Two-point characteristic function of work and photon number.

    The weight is U^+ e^{iuH+ivN} U e^{-iuH-ivN} e^{-beta H} with
    U = e^{-i H0 tau} e^{-i V tau}, V = 1/2 alpha S alpha the interaction
    generator, and H counted without zero-point shift (the shifts cancel
    in this equal-endpoint ratio).  Branch of the trace square root is
    carried by homotopy s*(u, v), s in [0, 1], anchored at the real
    positive thermal determinant.  u and v broadcast; the weights of all
    points are stacked 2n x 2n matrices, and scalar input returns a
    Python complex.
    """
    w = np.asarray(omegas, dtype=float)
    n = generator.n
    if w.size != n:
        raise ValueError("one frequency per generator mode is required")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")

    m_free = _diag_char(-1j * w * tau)
    m_int = char_matrix(QuadraticForm(-1j * tau * generator.S, generator.modes))
    m_u = m_free @ m_int
    m_u_inv = symplectic_inverse(m_u)
    thermal = np.diag(_diag_char(-beta * hbar * w))

    def total(su: np.ndarray, sv: np.ndarray) -> np.ndarray:
        # m_u_inv e1 m_u e2 m_thermal with the diagonal factors applied
        # as column scalings, one matrix per point
        c1 = 1j * su[..., None] * hbar * w + 1j * sv[..., None]
        e1 = np.concatenate([np.exp(c1), np.exp(-c1)], axis=-1)
        e2 = np.concatenate([np.exp(-c1), np.exp(c1)], axis=-1)
        left = np.matmul(m_u_inv * e1[..., None, :], m_u)
        return left * e2[..., None, :] * thermal

    # every point starts from the same thermal weight
    d0 = _branch_determinant(total(np.zeros(1), np.zeros(1)))[0]

    def radicand(s: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if s == 0.0:
            return d0
        return _branch_determinant(total(s * u, s * v))

    g = np.sqrt(d0) / tracked_sqrt(radicand, (u, v), steps=steps, anchor_tol=1e-9)
    return complex(g) if g.ndim == 0 else g


def charfun_general(group, protocol, beta: float, u, v):
    """G(u, v) for one coupled resonance group of a closed protocol, over
    broadcast u and v as in charfun_from_generator.

    Closed means the boundary returns to its starting position; the
    general-endpoint case is handled by the closed-form route or the
    truncated-Fock oracle instead.
    """
    from . import driving  # deferred: driving builds on this module's types

    lam_tau = protocol.lambda_at(protocol.tau)
    if abs(lam_tau - protocol.lambda0) > 1e-9 * protocol.lambda0:
        raise ValueError(
            "protocol does not return the boundary to its start; "
            "use the general-endpoint closed forms or the Fock oracle"
        )
    gen = driving.interaction_generator(group, phi=protocol.phi)
    freq = driving.group_frequencies(group)
    omegas = [freq[mode] for mode in gen.modes]
    return charfun_from_generator(
        gen, omegas, protocol.tau, beta, u, v, hbar=protocol.hbar
    )
