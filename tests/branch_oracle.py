"""Reference branch continuation: the square-root paths the one rule replaced.

cavework.symplectic writes the branch rule once, in _continue: each
step's ratio test and the root pick of the sign chain, over rows of
radicands at a path's stops.  tracked_sqrt and _ray_sqrt keep only their
stop layouts.  These are the two functions as they stood before that,
verbatim, each with the test and pick inline.  The library's pair must
return the same bits as these, or raise the same exception type with
the same message.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cavework.errors import BranchTrackingError


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
    by one.  The single-mode closed forms call it only for points where
    the principal root is not certified to be the branch.
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
            # keeps a positive real part; prev enters as its phase, so
            # that the product stays in float range with the radicand
            ok = (cur * (prev / np.abs(prev)).conj()).real > 0.0
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


def _ray_sqrt(radicand, points, steps, anchor_tol):
    """tracked_sqrt at one radicand per point, for points (u, v) on one
    ray from the origin: u >= 0 with v = 0, or u = 0 with v >= 0, all
    finite, at least one, and not scalar.

    Each point's homotopy segment then lies on the farthest point's, so
    one continuation across the sorted points, merged with the
    tracker's `steps` steps to the farthest, reaches every root with no
    step longer than the tracker's: N + steps radicands in one batch.
    Off such a ray, or when the anchor or any step fails the tracker's
    tests, tracked_sqrt runs unchanged.
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
    grid, zero = t.max() * np.arange(1, steps + 1) / steps, np.zeros(steps)
    order = np.argsort(np.concatenate([t, grid]), kind="stable")
    su = np.concatenate([u.ravel(), grid if on_u else zero])[order]
    sv = np.concatenate([v.ravel(), zero if on_u else grid])[order]
    d0 = complex(np.ravel(radicand(0.0, su[:1], sv[:1]))[0])
    cur = np.asarray(radicand(1.0, su, sv), dtype=complex)
    prev = np.append(d0, cur[:-1])
    # the tracker's tests; prev enters the step test as its phase, so that
    # the product stays in float range with the radicand
    if not (
        d0.real > 0.0 and abs(d0.imag) <= anchor_tol * abs(d0)
        and (np.abs(cur) >= 1e-14 * abs(d0)).all()
        and ((cur * (prev / np.abs(prev)).conj()).real > 0.0).all()
    ):
        return tracked_sqrt(radicand, points, steps, anchor_tol)
    # the tracker's pick of near or -near at each step, as a sign chain
    near = np.sqrt(cur)
    turn = (near * np.append(np.sqrt(d0), near[:-1]).conj()).real > 0.0
    root = np.empty_like(near)
    root[order] = np.where(np.cumprod(np.where(turn, 1.0, -1.0)) > 0.0, near, -near)
    return root[: t.size].reshape(u.shape)
