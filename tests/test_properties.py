"""Property tests over random closed single-channel parameters, over
random coupled and mode-disjoint resonance plans, over random work
marginals for the Kolmogorov-Smirnov distance, over random peak sets
for the rule that merges float-noisy work values into one peak, over
random spectra for the resonance classifier, over random reaches of the Bessel root
tables, and over reference configs with one key set to an extreme value.

Weak drive and moderate temperature keep every work inversion and every
joint (work, photon) reference grid small, so each example costs well
under a second.  Hypothesis is derandomized and keeps no example
database, so a run is repeatable; it still caches the constants it
scans from the source under the git-ignored .hypothesis/constants/ at
the repo root.
"""

import configparser
import contextlib
import dataclasses
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cavework import bessel, charfun, cli, distributions, fock, symplectic  # noqa: E402
from cavework.bessel import BesselKind, bessel_zero, clear_root_cache, root_table  # noqa: E402
from cavework.cavity import (  # noqa: E402
    CylindricalGeometry,
    MovingWall,
    Polarization,
    RectangularGeometry,
    SphericalGeometry,
    coupling_coefficient,
    mode_spectrum,
)
from cavework.charfun import (  # noqa: E402
    CharfunParams,
    charfun_general,
    classical_alphas,
    classical_work_cdf,
    closed_form,
    closed_form_general,
    moments,
)
from cavework.distributions import CumulativeFit  # noqa: E402
from cavework.driving import (  # noqa: E402
    DrivingProtocol,
    ResonanceCase,
    ResonanceKind,
    classify_resonances,
    interaction_generator,
)
from cavework.errors import (  # noqa: E402
    AmbiguousResonanceError,
    BranchTrackingError,
    CaveworkError,
    DegenerateResonanceError,
)
from cavework.fock import (  # noqa: E402
    JointDistribution,
    TruncatedFockSpace,
    build_evolution,
    two_point_measurement,
)
from cavework.symplectic import charfun_from_generator, tracked_sqrt  # noqa: E402
import branch_oracle  # noqa: E402
from classifier_oracle import classify_reference  # noqa: E402
from conftest import (  # noqa: E402
    channel_marginals_reference,
    channel_product,
    charfun_numeric,
    closed_protocol,
    compare_classical,
    format_prob_reference,
    joint_peaks,
    marginal_deviation_reference,
    merge_close_reference,
    merge_peaks_reference,
    plan_of,
    same_bits,
    synthetic_case,
    verify_channel,
)
from spectrum_oracle import ScalarRoots, per_mode_spectrum  # noqa: E402
from test_distributions import _reference_ks  # noqa: E402

PROPERTY = settings(
    max_examples=8, derandomize=True, database=None, deadline=None
)
# the closed form and the Fock oracle agree within this multiple of the
# oracle's own truncation error (residual mass + top-shell leak), or
# within float roundoff where that error is smaller still
ORACLE_TRUNCATION_MULTIPLE = 3.0
ORACLE_ROUNDOFF = 1e-12


@st.composite
def closed_params(draw) -> CharfunParams:
    """A closed single-channel record with weak drive.

    beta times the lowest frequency lies in [0.8, 3], so thermal tails
    stay short; the second mode sits at 0.25-0.75 of the first, well
    clear of the degenerate difference resonance.
    """
    kind = draw(st.sampled_from(list(ResonanceKind)))
    wk = draw(st.floats(0.5, 3.0))
    wp = None if kind is ResonanceKind.DOUBLE else wk * draw(st.floats(0.25, 0.75))
    beta = draw(st.floats(0.8, 3.0)) / (wp or wk)
    return CharfunParams(
        variant=kind,
        beta=beta,
        omega_k=(wk, wk),
        omega_p=None if wp is None else (wp, wp),
        g_tau=draw(st.floats(0.05, 0.35)),
    )


@PROPERTY
@given(closed_params())
def test_fluctuation_theorems_hold(params):
    report = verify_channel(params)
    assert report.normalization_error <= 1e-10
    assert report.jarzynski_abs_error <= 1e-10
    assert report.crooks_peakwise_error <= 1e-8


@PROPERTY
@given(closed_params())
def test_moments_are_the_lattice_sum_of_the_work_weights(params):
    peaks = distributions.extract_marginal_work(
        functools.partial(closed_form, params), charfun._drive_quantum(params)
    )
    mean_sum = math.fsum(w * p for w, p in peaks)
    var_sum = math.fsum((w - mean_sum) ** 2 * p for w, p in peaks)
    mean, var = charfun.moments(params)
    assert mean == pytest.approx(mean_sum, rel=1e-8)
    assert var == pytest.approx(var_sum, rel=1e-7)


@PROPERTY
@given(closed_params())
def test_moments_evaluate_no_charfun(params):
    def refuse(*args):
        raise AssertionError("moments evaluated G")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_g", "closed_form", "closed_form_general"):
            patch.setattr(charfun, name, refuse)
        mean, var = charfun.moments(params)
    assert math.isfinite(mean) and var > 0.0


@PROPERTY
@given(closed_params())
def test_joint_weights_sum_to_the_work_weights(params):
    # a joint grid on the work comb's M u-samples: summed over delta_n,
    # its weights are the work weights
    spacing = charfun._drive_quantum(params)
    evaluate = functools.partial(closed_form, params)
    signed, work = distributions._work_weights(evaluate, spacing)
    per = distributions._PHOTONS_PER_QUANTUM[params.variant]
    counts = (len(work), max(64, per * len(work)))
    (su, _), coeff = joint_peaks(evaluate, spacing, counts)
    summed = dict(zip(su.tolist(), coeff.real.sum(axis=1).tolist()))
    direct = dict(zip(signed.tolist(), work.tolist()))
    for m in summed.keys() | direct.keys():
        assert abs(summed.get(m, 0.0) - direct.get(m, 0.0)) <= 1e-14, m


@settings(PROPERTY, max_examples=40)  # a few ms per example
@given(
    closed_params(),
    st.floats(-3.0, 3.0),
    st.floats(-math.pi, math.pi),
    st.floats(0.5, 4.0),
    st.floats(0.8, 20.0),
    st.booleans(),
)
@example(
    params=CharfunParams(
        ResonanceKind.DOUBLE, beta=1.0, omega_k=(1.3, 1.3), g_tau=0.35
    ),
    u=1.0, v=0.5, tau=math.pi, cold=20.0, top_edge=True,
)
def test_symplectic_route_matches_closed_form(params, u, v, tau, cold, top_edge):
    # beta hbar omega_k reaches 20; on the strip's top edge u + i beta the
    # weight scales the evolution's rows and columns by up to e^cold
    wk = params.omega_k[0]
    params = dataclasses.replace(params, beta=cold / wk)
    u = complex(u, params.beta) if top_edge else u
    wp = None if params.omega_p is None else params.omega_p[0]
    case = synthetic_case(params.variant, wk, wp, params.g_tau, tau)
    omegas = [wk] if wp is None else [wk, wp]
    a = charfun_from_generator(
        interaction_generator([case]), omegas, tau, params.beta, u, v
    )
    b = closed_form(params, u, v)
    assert abs(a - b) <= 1e-12 * abs(b)


@settings(PROPERTY, max_examples=20)
@given(
    closed_params(),
    st.floats(0.05, 1.2),
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi)),
        min_size=1,
        max_size=12,
    ),
)
def test_array_evaluation_matches_per_point(params, g_tau, points):
    # up to sinh^2(1.2) ~ 2.28, where some points need a refined branch path
    params = dataclasses.replace(params, g_tau=g_tau)
    u = np.array([p[0] for p in points])
    v = np.array([p[1] for p in points])
    batch = closed_form(params, u, v)
    assert batch.shape == u.shape
    for a, b, g in zip(u.tolist(), v.tolist(), batch.tolist()):
        single = closed_form(params, a, b)
        assert abs(g - single) <= 1e-14 * abs(single)


@PROPERTY
@given(closed_params())
def test_oracle_error_tracks_its_truncation(params):
    wk = params.omega_k[0]
    wp = None if params.omega_p is None else params.omega_p[0]
    case = synthetic_case(params.variant, wk, wp, params.g_tau, math.pi)
    modes = [(case.k, wk, wk)] + ([] if wp is None else [(case.p, wp, wp)])
    space = TruncatedFockSpace(modes, 40 if wp is None else 24)
    u_mat = build_evolution(space, interaction_generator([case]), closed_protocol(2.0))
    dist = two_point_measurement(space, u_mat, params.beta)
    u, v = np.meshgrid(
        np.linspace(-2.0, 2.0, 9), np.linspace(-math.pi, math.pi, 7), indexing="ij"
    )
    err = np.abs(charfun_numeric(dist, u, v) - closed_form(params, u, v)).max()
    truncation = dist.residual_mass + dist.top_shell_leak
    assert err <= max(ORACLE_TRUNCATION_MULTIPLE * truncation, ORACLE_ROUNDOFF)


def tracked_closed_form(params: CharfunParams, u, v):
    """The single-mode closed form with its root carried by tracked_sqrt
    from s = 0 at every point: the continuation that the principal root
    replaces on the strip 0 <= Im z <= beta hbar omega_k."""
    beta, xk = params.beta, params.hbar * params.omega_k[0]
    sk = math.sinh(beta * xk / 2.0)
    amp = math.sinh(params.g_tau) ** 2

    def rad(s, z):
        return sk * sk + np.sin(s * z) * np.sin(s * z - 1j * beta * xk * s) * amp

    z = np.asarray(u, dtype=complex) * xk + np.asarray(v, dtype=complex)
    return sk / tracked_sqrt(rad, (z,), steps=16, anchor_tol=1e-12)


@st.composite
def double_records(draw) -> CharfunParams:
    """A single-mode record over wide ranges, drives strong enough that
    continuation can fail, and hbar = 1 or not."""
    w = draw(st.floats(0.1, 5.0))
    return CharfunParams(
        variant=ResonanceKind.DOUBLE,
        beta=draw(st.floats(0.02, 5.0)),
        omega_k=(w, w),
        g_tau=draw(st.floats(0.0, 3.0)),
        hbar=draw(st.sampled_from([1.0, None])) or draw(st.floats(0.2, 3.0)),
    )


# (Re u, where Im u lies, a fraction of beta for the interior, v)
STRIP_POINTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0),
        st.sampled_from(["zero", "negative zero", "interior", "upper edge"]),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0]) | st.floats(-math.pi, math.pi),
    ),
    min_size=1,
    max_size=8,
)


@settings(PROPERTY, max_examples=40)  # milliseconds per example
@given(double_records(), STRIP_POINTS)
# at g tau = 2.6 continuation winds too fast at u = 2 and at u = 2 + i beta
@example(
    CharfunParams(ResonanceKind.DOUBLE, 0.1, (2.0, 2.0), 2.6),
    [(2.0, "zero", 0.0, 0.0), (2.0, "upper edge", 0.0, 0.0)],
)
def test_principal_root_is_the_tracked_root_on_the_strip(params, points):
    beta = params.beta
    u = np.array([
        {
            "zero": complex(re, 0.0),
            "negative zero": complex(re, -0.0),
            "interior": complex(re, beta * t),
            "upper edge": re + 1j * beta,
        }[where]
        for re, where, t, _ in points
    ])
    v = np.array([p[3] for p in points])
    batch = closed_form(params, u, v)
    sk = math.sinh(beta * params.hbar * params.omega_k[0] / 2.0)
    for a, b, g in zip(u, v, batch):
        try:
            want = tracked_closed_form(params, a, b)
        except BranchTrackingError:
            # the principal root is right where continuation gives up
            assert np.isfinite(g) and (sk / g).real > 0.0
            continue
        assert same_bits(g, want)


@st.composite
def closed_records(draw) -> CharfunParams:
    """A closed record of any kind over wide ranges, the second mode
    clear of the degenerate difference resonance, hbar = 1 or not."""
    kind = draw(st.sampled_from(list(ResonanceKind)))
    wk = draw(st.floats(0.1, 5.0))
    wp = None
    if kind is not ResonanceKind.DOUBLE:
        wp = wk * draw(st.floats(0.1, 0.9) | st.floats(1.1, 3.0))
    return CharfunParams(
        variant=kind,
        beta=draw(st.floats(0.02, 5.0)),
        omega_k=(wk, wk),
        omega_p=None if wp is None else (wp, wp),
        g_tau=draw(st.floats(0.0, 3.0)),
        hbar=draw(st.sampled_from([1.0, None])) or draw(st.floats(0.2, 3.0)),
    )


REAL = (
    st.sampled_from([0.0, -0.0])
    | st.floats(-20.0, 20.0)
    | st.floats(-1e12, 1e12)
    | st.floats(-1e-300, 1e-300)
)


@settings(PROPERTY, max_examples=60)  # milliseconds per example
@given(closed_records(), st.lists(st.tuples(REAL, REAL), min_size=1, max_size=8))
def test_real_axis_sines_are_the_complex_evaluation(params, points):
    u, v = np.array(points).T
    batch = closed_form(params, u, v)
    assert same_bits(batch, closed_form(params, u.astype(complex), v.astype(complex)))
    for (a, b), g in zip(points, batch):
        single = closed_form(params, a, b)
        assert type(single) is complex
        assert same_bits(single, closed_form(params, complex(a), complex(b)))
        assert same_bits(single, g)


@settings(PROPERTY, max_examples=60)  # milliseconds per example
@given(closed_records(), st.lists(st.tuples(REAL, REAL), min_size=1, max_size=8))
def test_top_edge_sines_are_the_complex_evaluation(params, points):
    # on Im u = beta, z - i beta h is real: the real-axis sines of Re z,
    # conjugated, keep every bit of the complex evaluation (complex v)
    beta = params.beta
    u, v = np.array(points).T
    batch = closed_form(params, u + 1j * beta, v)
    assert same_bits(batch, closed_form(params, u + 1j * beta, v.astype(complex)))
    for (a, b), g in zip(points, batch):
        single = closed_form(params, complex(a, beta), b)
        assert type(single) is complex
        assert same_bits(single, closed_form(params, complex(a, beta), complex(b)))
        assert same_bits(single, g)


def open_double_radicand(params: CharfunParams):
    """The radicand of closed_form_general's single-mode form, op for op,
    with the bound that certifies its principal root."""
    beta = params.beta
    x0, x1 = (params.hbar * w for w in params.omega_k)
    dx = x1 - x0
    amp = math.sinh(params.g_tau) ** 2

    def rad(s, u, v):
        ak = np.sinh((beta * x0 - 1j * s * u * dx) / 2.0)
        return ak * ak + np.sin(s * (u * x1 + v)) * np.sin(
            s * (u * x0 + v) - 1j * s * beta * x0
        ) * amp

    k_min = math.cosh(beta * min(x0, x1))
    ac = amp * math.cosh(beta * max(x0, x1))

    def bound(phi):
        return ((k_min + ac) * np.cos(phi) - (1.0 + ac)) / 2.0

    return rad, bound, k_min + ac


@st.composite
def open_double_records(draw) -> CharfunParams:
    """A single-mode record whose end frequency differs from its start."""
    w = draw(st.floats(0.1, 5.0))
    return CharfunParams(
        variant=ResonanceKind.DOUBLE,
        beta=draw(st.floats(0.02, 5.0)),
        omega_k=(w, w * draw(st.floats(0.5, 0.95) | st.floats(1.05, 2.0))),
        g_tau=draw(st.floats(0.0, 3.0)),
        hbar=draw(st.sampled_from([1.0, None])) or draw(st.floats(0.2, 3.0)),
    )


# (Re u, where Im u lies, a fraction of beta, v, the path parameter s)
OPEN_POINTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0) | st.floats(-50.0, 50.0),
        st.sampled_from(["zero", "negative zero", "interior", "upper edge", "below"]),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0]) | st.floats(-math.pi, math.pi),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=8,
)


@settings(PROPERTY, max_examples=60)  # milliseconds per example
@given(open_double_records(), OPEN_POINTS)
@example(
    CharfunParams(ResonanceKind.DOUBLE, 0.8, (1.0, 1.1), 0.2),
    [(0.3, "zero", 0.0, 0.2, 0.7), (-2.0, "upper edge", 0.0, -1.0, 1.0)],
)
def test_open_double_principal_root_is_the_tracked_root(params, points):
    beta = params.beta
    x0, x1 = (params.hbar * w for w in params.omega_k)
    u = np.array([
        {
            "zero": complex(re, 0.0),
            "negative zero": complex(re, -0.0),
            "interior": complex(re, beta * t),
            "upper edge": re + 1j * beta,
            "below": complex(re, -beta * t - 1e-3),
        }[where]
        for re, where, t, _, _ in points
    ])
    v = np.array([complex(p[3]) for p in points])
    rad, bound, scale = open_double_radicand(params)
    certified = charfun._principal_open_double(
        u, v, beta, x0, x1, math.sinh(params.g_tau) ** 2
    )
    for a, b, (_, where, _, _, s) in zip(u, v, points):
        phi = s * a.real * (x1 - x0)
        if where == "below" or math.cos(phi) < 0.0:
            continue  # outside the bound's hypotheses
        got = rad(s, np.array([a]), np.array([b]))[0].real
        slack = 1e-12 * scale * (1.0 + abs(a.real) * max(x0, x1) + abs(b))
        assert got >= bound(phi) - slack
    # the certified points alone, which the package does not track
    g = closed_form_general(params, u[certified], v[certified])
    sk = math.sinh(beta * x0 / 2.0)
    for a, b, got in zip(u[certified], v[certified], g):
        a, b = np.array([a]), np.array([b])
        try:
            root = tracked_sqrt(rad, (a, b), steps=16, anchor_tol=1e-12)
        except BranchTrackingError:
            # the principal root is right where continuation gives up
            assert np.isfinite(got) and (sk / got).real > 0.0
            continue
        want = np.exp(-1j * a * (x1 - x0) / 2.0) * sk / root
        assert same_bits(got, want[0])


@settings(PROPERTY, max_examples=300)  # milliseconds per example
@given(
    beta=st.floats(0.05, 3.0),
    wk=st.floats(0.2, 3.0),
    ratio=st.floats(0.5, 0.95) | st.floats(1.05, 2.0),
    g_tau=st.floats(0.0, 1.0),
    u=st.floats(-3.0, 3.0),
    v=st.floats(-math.pi, math.pi),
)
def test_every_channel_is_the_sum_form(beta, wk, ratio, g_tau, u, v):
    # the identity closed_form and closed_form_general are written in:
    # the single-mode G is the root of the sum form at omega_p = omega_k,
    # at real (u, v), at u = i beta and at u + i beta, with closed and
    # open endpoints; the difference channel's G has no v
    us = np.array([u, 1j * beta, u + 1j * beta])
    ends = ((wk, wk), closed_form), ((wk, wk * ratio), closed_form_general)
    for pair, form in ends:
        double = CharfunParams(ResonanceKind.DOUBLE, beta, pair, g_tau)
        same = dataclasses.replace(double, variant=ResonanceKind.SUM, omega_p=pair)
        np.testing.assert_allclose(
            form(double, us, v) ** 2, form(same, us, v), rtol=1e-13, atol=0.0
        )
        other = tuple(w * ratio for w in pair)
        diff = dataclasses.replace(
            same, variant=ResonanceKind.DIFFERENCE, omega_p=other
        )
        assert same_bits(form(diff, us, v), form(diff, us, 0.0))


TAU = math.pi  # closed_protocol(2.0): two half periods of the drive
MODES = ((0, 0, 1), (0, 0, 2), (0, 0, 3))


@st.composite
def resonance_plans(draw, g_tau_max=0.3) -> tuple[list[ResonanceCase], bool, float]:
    """(cases, coupled, beta) for two channels on two or three modes of
    ascending frequency, each driven at g tau in [0.05, g_tau_max].

    Coupled plans share a mode: a double and a difference, or a sum and
    a difference in a chain.  Disjoint plans put a double on the lowest
    mode and any channel on the others.  beta times the lowest
    frequency lies in [1, 3], so the oracle's truncation stays small.
    """
    w = [draw(st.floats(0.5, 2.0))]
    for _ in range(2):
        w.append(w[-1] * draw(st.floats(1.2, 2.0)))
    g_taus = st.floats(0.05, g_tau_max)
    DOUBLE, SUM, DIFF = ResonanceKind

    def case(kind, k, p=None):
        wp = None if p is None else w[p]
        p = None if p is None else MODES[p]
        return ResonanceCase(kind, MODES[k], p, w[k], wp, draw(g_taus) / TAU, 0.0)

    shape = draw(st.sampled_from(["double", "chain", "disjoint"]))
    if shape == "double":
        cases = [case(DOUBLE, draw(st.sampled_from([0, 1]))), case(DIFF, 1, 0)]
    elif shape == "chain":
        first, second = draw(st.permutations([SUM, DIFF]))
        cases = [case(first, 1, 0), case(second, 2, 1)]
    else:
        kind = draw(st.sampled_from(list(ResonanceKind)))
        cases = [case(DOUBLE, 0), case(kind, *((1,) if kind is DOUBLE else (2, 1)))]
    return cases, shape != "disjoint", draw(st.floats(1.0, 3.0)) / w[0]


@PROPERTY
@given(resonance_plans())
def test_fluctuation_theorems_hold_for_resonance_plans(plan):
    cases, coupled, beta = plan
    protocol = closed_protocol(2.0)
    routes = [lambda u, v: charfun_general(cases, protocol, beta, u, v)]
    if not coupled:
        params = [CharfunParams.from_case(c, beta, TAU) for c in cases]
        routes.append(lambda u, v: channel_product(params, u, v))
    u, v = np.meshgrid(
        np.linspace(-2.0, 2.0, 9), np.linspace(-math.pi, math.pi, 7), indexing="ij"
    )
    for g in routes:
        assert abs(g(0.0, 0.0) - 1.0) <= 1e-10
        assert abs(g(1j * beta, 0.0) - 1.0) <= 1e-10
        # a closed protocol is its own reverse
        assert np.abs(g(-u, -v) - g(u + 1j * beta, v)).max() <= 1e-9

    freq = {m: w for c in cases for m, w in zip(c.modes, (c.omega_k, c.omega_p))}
    space = TruncatedFockSpace(
        [(m, w, w) for m, w in sorted(freq.items())], 24 if len(freq) == 2 else 12
    )
    u_mat = build_evolution(space, interaction_generator(cases), protocol)
    dist = two_point_measurement(space, u_mat, beta)
    err = np.abs(charfun_numeric(dist, u, v) - routes[0](u, v)).max()
    truncation = dist.residual_mass + dist.top_shell_leak
    assert err <= max(ORACLE_TRUNCATION_MULTIPLE * truncation, ORACLE_ROUNDOFF)


def _comb_outcome(cases, beta, u, v):
    """G of a coupled group on comb points, or None where the tracker
    refuses them."""
    try:
        return charfun_general(cases, closed_protocol(2.0), beta, u, v)
    except BranchTrackingError:
        return None


@PROPERTY
@given(resonance_plans(g_tau_max=2.0).filter(lambda plan: plan[1]))
def test_the_ray_path_keeps_the_trackers_bits_on_comb_points(plan):
    # up to g tau = 2 some radicands wind fast enough that a ray step
    # fails and the whole call falls back to the tracker
    cases, _, beta = plan
    quantum = charfun._drive_quantum(CharfunParams.from_case(cases[0], beta, TAU))
    period = 2.0 * math.pi / quantum
    combs = [
        (period * np.arange(256) / 256, 0.0),  # the work comb
        (period * np.arange(1, 512, 2) / 512, 0.0),  # its first doubling
        (period * np.array([1.13, 1.41, 1.77]), 0.0),  # the periodicity probe
        (0.0, 2.0 * math.pi * np.arange(64) / 64),  # the photon comb
    ]
    for u, v in combs:
        ray = _comb_outcome(cases, beta, u, v)
        with mock.patch.object(symplectic, "_ray_sqrt", tracked_sqrt):
            tracked = _comb_outcome(cases, beta, u, v)
        assert (ray is None and tracked is None) or same_bits(ray, tracked)


def _branch_outcome(root, radicand, points, steps, anchor_tol):
    """A square-root path's roots, or the type and message it raised."""
    try:
        return root(radicand, points, steps, anchor_tol)
    except (BranchTrackingError, RuntimeWarning) as exc:
        return type(exc), str(exc)


def assert_one_branch_rule(radicand, points, steps, anchor_tol):
    """tracked_sqrt and, on (u, v) points, _ray_sqrt return the bits of
    their references in branch_oracle, or raise what those raise."""
    pairs = [(tracked_sqrt, branch_oracle.tracked_sqrt)]
    if len(points) == 2:
        pairs.append((symplectic._ray_sqrt, branch_oracle._ray_sqrt))
    for new, old in pairs:
        got = _branch_outcome(new, radicand, points, steps, anchor_tol)
        want = _branch_outcome(old, radicand, points, steps, anchor_tol)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
        else:
            assert same_bits(got, want)


def _winding(tilt, c, k, power):
    """tilt (1 - s p / c) e^(i k (s p)^power) at p = u + v: it winds k
    radians over s p in [0, 1] at power 1, ever faster at power 2, and
    vanishes where s p = c."""
    def radicand(s, u, v):
        p = s * (u + v)
        return tilt * (1.0 - p / c) * np.exp(1j * k * p**power)

    return radicand


# nonnegative values, stops s = j / 16 of p = 1 among them
RAY_VALUES = st.lists(
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5]) | st.floats(0.0, 1.5),
    min_size=1,
    max_size=6,
)


def _layout(kind, values):
    """(u, v) points: on the u or the v ray, off every ray, or scalar."""
    t = np.array(values)
    return {
        "u ray": (t, 0.0),
        "v ray": (0.0, t),
        "mixed": (t, t[::-1]),
        "negative": (-t, 0.0),
        "scalar": (float(t[0]), 0.0),
    }[kind]


@settings(PROPERTY, max_examples=100)  # milliseconds per example
@given(
    tilt=st.sampled_from([1.0, 1.0 + 1e-13j, 1.0 + 1e-10j, 1.0 + 1e-8j, -1.0]),
    c=st.sampled_from([math.inf, 0.5, 1.0]) | st.integers(1, 16).map(lambda j: j / 16),
    k=st.sampled_from([0.0, 42.0, 2048.0 * math.pi / 3.0]) | st.floats(0.0, 120.0),
    power=st.sampled_from([1, 2]),
    kind=st.sampled_from(["u ray", "v ray", "mixed", "negative", "scalar"]),
    values=RAY_VALUES,
    steps=st.sampled_from([16, 64]),
    anchor_tol=st.sampled_from([1e-12, 1e-9]),
)
# a step that fails at 16 and passes at 32, alone and in a batch
@example(1.0, math.inf, 42.0, 1, "scalar", [1.0], 16, 1e-12)
@example(1.0, math.inf, 42.0, 1, "u ray", [1.0, 0.1, 0.2], 16, 1e-12)
@example(1.0, math.inf, 42.0, 1, "mixed", [1.0, 0.1, 0.2], 16, 1e-12)
# winding too fast at every step count, before a stop that vanishes too
@example(1.0, math.inf, 2048.0 * math.pi / 3.0, 1, "u ray", [0.5, 1.0], 16, 1e-12)
@example(1.0, 0.5, 2048.0 * math.pi / 3.0, 1, "u ray", [1.0], 16, 1e-12)
# p = 1 vanishes at s = 1/16, before its first failed step at s = 3/16,
# and at s = 1/2, after it: the re-run at 64 steps reaches it
@example(1.0, 1.0 / 16.0, 100.0, 2, "mixed", [0.5, 0.2], 16, 1e-12)
@example(1.0, 0.5, 100.0, 2, "mixed", [0.5, 0.2], 16, 1e-12)
@example(1.0, 0.5, 100.0, 2, "u ray", [1.0, 0.3], 16, 1e-12)
# anchors tilted within and past each tolerance
@example(1.0 + 1e-10j, math.inf, 3.0, 1, "u ray", [1.0], 64, 1e-9)
@example(1.0 + 1e-10j, math.inf, 3.0, 1, "u ray", [1.0], 16, 1e-12)
@example(1.0 + 1e-8j, math.inf, 3.0, 1, "v ray", [1.0], 64, 1e-9)
def test_the_branch_rule_keeps_the_reference_paths_bits_on_winding_radicands(
    tilt, c, k, power, kind, values, steps, anchor_tol
):
    radicand = _winding(tilt, c, k, power)
    assert_one_branch_rule(radicand, _layout(kind, values), steps, anchor_tol)


@settings(PROPERTY, max_examples=40)  # milliseconds per example
@given(
    double_records(),
    st.lists(
        st.tuples(st.floats(-20.0, 20.0), st.booleans(), st.floats(0.01, 2.0)),
        min_size=1,
        max_size=6,
    ),
)
# at g tau = 2.6 continuation winds too fast at u = 2 - i beta / 2
@example(CharfunParams(ResonanceKind.DOUBLE, 0.1, (2.0, 2.0), 2.6), [(2.0, False, 0.5)])
def test_the_branch_rule_keeps_the_reference_paths_bits_off_the_strip(params, points):
    # u below the strip's lower edge or above its upper one, v = 0: every
    # point reaches the tracker
    u = np.array([
        re + 1j * params.beta * (-f if below else 1.0 + f) for re, below, f in points
    ])
    calls = []

    def recorded(*args, **kwargs):
        calls.append((*args, *kwargs.values()))
        return tracked_sqrt(*args, **kwargs)

    with mock.patch.object(charfun, "tracked_sqrt", recorded):
        with contextlib.suppress(BranchTrackingError):
            closed_form(params, u, 0.0)
    assert len(calls) == 1
    assert_one_branch_rule(*calls[0])


@PROPERTY
@given(resonance_plans(g_tau_max=2.0).filter(lambda plan: plan[1]))
def test_the_branch_rule_keeps_the_reference_paths_bits_on_a_coupled_group(plan):
    # the work comb, the photon comb, the periodicity probe, the
    # Jarzynski point and a small Crooks grid's two sides
    cases, _, beta = plan
    quantum = charfun._drive_quantum(CharfunParams.from_case(cases[0], beta, TAU))
    period = 2.0 * math.pi / quantum
    u, v = np.meshgrid(
        period * np.arange(6) / 6, 2.0 * math.pi * np.arange(5) / 5, indexing="ij"
    )
    points = [
        (period * np.arange(256) / 256, 0.0),
        (0.0, 2.0 * math.pi * np.arange(64) / 64),
        (period * np.array([1.13, 1.41, 1.77]), 0.0),
        (1j * beta, 0.0),
        (u + 1j * beta, v),
        (-u, -v),
    ]
    calls, ray = [], symplectic._ray_sqrt

    def recorded(*args, **kwargs):
        calls.append((*args, *kwargs.values()))
        return ray(*args, **kwargs)

    with mock.patch.object(symplectic, "_ray_sqrt", recorded):
        for u, v in points:
            _comb_outcome(cases, beta, u, v)
    assert len(calls) == len(points)
    for call in calls:
        assert_one_branch_rule(*call)


@settings(PROPERTY, max_examples=20)  # milliseconds per example
@given(resonance_plans(g_tau_max=2.0), st.sampled_from([-3, -1, 1, 2, 4]))
def test_a_closed_protocol_takes_every_mode_at_lambda0_at_both_ends(plan, ulps):
    # a closed protocol's plan may end a mode a few ulps off its start,
    # as sum_res ends (0,2,4) 1 ulp (+2.2e-16 relative) above it; the
    # closed forms still take the lambda0 frequency at both ends, so a
    # channel's G keeps the bits of closed_form at omega0, with no
    # reverse and no grand-potential difference
    cases, _, beta = plan
    protocol = closed_protocol(2.0)
    assert protocol.tau == TAU and protocol.is_closed
    for case in cases:
        start = zip(case.modes, (case.omega_k, case.omega_p))
        end = {m: w + ulps * math.ulp(w) for m, w in start}
        evaluate, spacing, reverse, dphi = charfun.plan_charfun(
            plan_of([case], end), protocol, beta
        )
        assert reverse is None and dphi == 0.0
        params = CharfunParams.from_case(case, beta, TAU)
        assert spacing == charfun._drive_quantum(params)
        u = 2.0 * math.pi / spacing * np.arange(-8, 9)[:, None] / 16.0
        v = np.linspace(-math.pi, math.pi, 5)
        for shift in (0.0, 1j * beta):  # the real comb and the Crooks line
            want = (1.0 + 0.0j) * closed_form(params, u + shift, v)
            assert same_bits(evaluate(u + shift, v), want)


def _on_one_quantum(cases, t: float) -> list[ResonanceCase]:
    """The channels of a resonance_plans draw retuned so that each moves
    the drive quantum 2 of closed_protocol(2.0): a double's mode sits at
    1, a pair with neither mode placed puts k at 2 t, and the other mode
    of a sum then sits at 2 minus the placed one, of a difference at it
    plus 2.  Each pair keeps its higher mode as k."""
    w = {c.k: 1.0 for c in cases if c.p is None}
    for c in cases:
        if c.p is None:
            continue
        if c.k not in w and c.p not in w:
            w[c.k] = 2.0 * t
        known, other = (c.k, c.p) if c.k in w else (c.p, c.k)
        if other not in w:
            w[other] = 2.0 - w[known] if c.kind is ResonanceKind.SUM else w[known] + 2.0
    out = []
    for c in cases:
        k, p = (c.k, c.p) if c.p is None or w[c.k] >= w[c.p] else (c.p, c.k)
        out.append(dataclasses.replace(
            c, k=k, p=p, omega_k=w[k], omega_p=None if p is None else w[p]
        ))
    return out


def _lowest_frequency(cases) -> float:
    return min(w for c in cases for w in (c.omega_k, c.omega_p) if w is not None)


def _sliced_route(evaluate, spacing: float, per: int | None):
    """(P(w), P(delta_n)) as the CLI once took them from 1-D slices of
    G: the work comb on G(u, 0) relabelled one sample at a time where
    the channels share per, else the photon comb on G(0, v) as well."""
    comb = distributions._adaptive_comb
    signed, probs = comb(lambda u: evaluate(u, 0.0), 2.0 * math.pi / spacing, 256)
    work, photons = channel_marginals_reference(signed, probs, spacing, per or 0)
    if per is None:
        signed, probs = comb(lambda v: evaluate(0.0, v), 2.0 * math.pi, 64)
        photons = channel_marginals_reference(signed, probs, 1.0, 1)[1]
    return work, photons


@settings(PROPERTY, max_examples=30)  # milliseconds per example
@given(resonance_plans(), st.floats(0.3, 0.7))
def test_channel_marginals_take_the_plans_g_as_the_slices_did(plan, t):
    # the inverters read their own axis of the plan's G(u, v): the same
    # bits as the 1-D slices, with P(delta_n) relabelled for a shared
    # photon change per quantum and inverted from G(0, v) otherwise
    drawn, coupled, beta = plan
    cases = _on_one_quantum(drawn, t)
    # beta times the lowest frequency stays where resonance_plans put it
    beta *= _lowest_frequency(drawn) / _lowest_frequency(cases)
    resonance_plan = plan_of(cases, groups=((0, 1),) if coupled else None)
    evaluate, spacing, _, _ = charfun.plan_charfun(
        resonance_plan, closed_protocol(2.0), beta
    )
    assert spacing == pytest.approx(2.0, rel=1e-15)
    per = distributions.photons_per_quantum(resonance_plan)
    got = distributions.extract_channel_marginals(evaluate, spacing, per)
    want = _sliced_route(evaluate, spacing, per)
    for mine, ref in zip(got, want, strict=True):
        assert same_bits(np.array(mine, dtype=float), np.array(ref, dtype=float))
    assert all(type(dn) is int for dn, _ in got[1])


@st.composite
def work_marginals(draw) -> list[tuple[float, float]]:
    """Normalized (w, p) peaks, one to twelve of them.  Work values come
    from a half-integer grid of both signs, so ties are common, or are
    any float in [-5, 5]."""
    grid = st.integers(-6, 6).map(lambda k: 0.5 * k)
    ws = draw(st.lists(grid | st.floats(-5.0, 5.0), min_size=1, max_size=12))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(ws), max_size=len(ws)))
    total = math.fsum(raw)
    return [(w, p / total) for w, p in zip(ws, raw)]


@settings(PROPERTY, max_examples=60)  # microseconds per example
@given(work_marginals(), st.floats(0.05, 5.0), st.floats(0.05, 1.0))
@example([(0.7, 1.0)], 1.0, 0.3)  # one peak: the fit is skipped
@example([(-1.0, 0.25), (-1.0, 0.25), (2.0, 0.5)], 0.4, 0.2)  # a tied w
def test_ks_distance_is_bit_identical_to_the_per_peak_loop(marginal, beta, g_tau):
    fit = CumulativeFit(marginal)
    assert fit.sup_distance == _reference_ks(fit, fit.gaussian_cdf)
    assert compare_classical(marginal, fit.gaussian_cdf) == fit.sup_distance
    classical = functools.partial(
        classical_work_cdf, ResonanceKind.SUM, 0.5, g_tau, beta
    )
    want = _reference_ks(fit, classical)
    assert compare_classical(marginal, classical) == want
    assert compare_classical(fit, classical) == want


def _probabilities_near_powers_of_ten() -> list[float]:
    """Every power of ten from 1e-20 to 1e2 and its neighbours 1 and 2
    ulp away on each side, where a log10 may round across the power;
    then zero, the smallest subnormal and tail values around 1e-14."""
    column = []
    for e in range(-20, 3):
        x = float(f"1e{e}")
        lo, hi = math.nextafter(x, 0.0), math.nextafter(x, math.inf)
        column += [
            math.nextafter(lo, 0.0), lo, x, hi, math.nextafter(hi, math.inf)
        ]
    return column + [0.0, 5e-324, 3e-15, 7e-15, 1.3287178032e-12]


@settings(PROPERTY, max_examples=300)  # microseconds per example
@given(
    st.lists(
        st.floats(0.0, 1e2) | st.floats(-20.0, 2.0).map(lambda e: 10.0**e),
        max_size=40,
    )
)
@example(_probabilities_near_powers_of_ten())
def test_column_formatter_is_the_per_row_rule(column):
    # one np.log10 over the column prints what one math.log10 per row did
    want = [format_prob_reference(p) for p in column]
    assert distributions.format_probs(column) == want
    assert distributions.format_probs(np.array(column)) == want
    assert [distributions.format_prob(p) for p in column] == want


MERGE_TOL = 1e-9


@st.composite
def noisy_peaks(draw) -> list[tuple[float, int, float]]:
    """(w, delta_n, p) triples in clusters, or none: float-noise copies
    of a base w within MERGE_TOL of their neighbours (0.1 + 0.2 next to
    0.3 among the bases), exact repeats of one w at one delta_n or at
    several, and probabilities from a few values, so that a run of three
    sums in an order that shows in its bits."""
    peaks = []
    for _ in range(draw(st.integers(0, 6))):
        base = draw(st.sampled_from([-1.5, 0.0, 0.1 + 0.2, 0.3, 2.0]))
        for _ in range(draw(st.integers(1, 5))):
            shift = draw(st.sampled_from([0.0, 0.0, 0.4, -0.4, 0.9])) * MERGE_TOL
            dn = draw(st.sampled_from([-2, 0, 2]))
            p = draw(st.sampled_from([0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-13]))
            peaks.append((base + shift, dn, p))
    return peaks


@settings(PROPERTY, max_examples=100)  # well under a millisecond per example
@given(noisy_peaks())
@example([(0.3, 0, 0.1), (0.3, 0, 0.7), (0.3, 0, 0.3)])  # 1.1 in p order, not 1.0999...
@example([(0.3, 0, 0.5), (0.1 + 0.2, 2, 0.5)])  # one w value, two delta_n
@example([])
def test_the_run_rule_keeps_the_loop_merges_bits(peaks):
    by_dn: dict[int, list[tuple[float, float]]] = {}
    for w, dn, p in peaks:
        by_dn.setdefault(dn, []).append((w, p))
    want = [
        (w, dn, p)
        for dn in sorted(by_dn)
        for w, p in merge_close_reference(by_dn[dn], MERGE_TOL)
    ]
    w, dn, p = np.array(peaks, dtype=float).reshape(-1, 3).T
    wp, runs_dn, tot = distributions._merge_runs(w, dn.astype(int), p, MERGE_TOL)
    want_w, want_dn, want_p = np.array(want, dtype=float).reshape(-1, 3).T
    assert same_bits(wp / tot, want_w) and same_bits(tot, want_p)
    assert runs_dn.tolist() == want_dn.astype(int).tolist()
    # P(w) merges across delta_n by the same rule; P(delta_n) sums in peak order
    by_value: dict[int, float] = {}
    for _, dn, p in peaks:
        by_value[dn] = by_value.get(dn, 0.0) + p
    work, photons = JointDistribution(tuple(peaks), 0.0, 0.0, MERGE_TOL).marginals()
    pairs = merge_close_reference([(w, p) for w, _, p in peaks], MERGE_TOL)
    assert repr(work) == repr(sorted((w, p) for w, p in pairs if p > 1e-12))
    want_photons = sorted((n, p) for n, p in by_value.items() if p > 1e-12)
    assert repr(photons) == repr(want_photons)


@settings(PROPERTY, max_examples=40)  # a 64-state basis at most
@given(
    freqs=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7]), min_size=2, max_size=3),
    n_max=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_oracle_readout_keeps_the_loop_merges_bits(freqs, n_max, seed):
    # sums of 0.1, 0.2 and 0.3 carry float noise, so entries of one
    # delta_n land within the merge tolerance of each other; any block
    # is a valid input, unitary or not
    space = TruncatedFockSpace([((i, 1, 1), w, w) for i, w in enumerate(freqs)], n_max)
    rng = np.random.default_rng(seed)
    dim = space.dimension
    block = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    merge_runs, seen = distributions._merge_runs, []

    def spy(w, dn, p, tol):
        seen.append((w, dn, p, tol))
        return merge_runs(w, dn, p, tol)

    with mock.patch.object(fock, "_merge_runs", spy):
        dist = two_point_measurement(space, [(np.arange(dim), block / dim)], 1.0)
    [(w, dn, p, tol)] = seen  # the unified entries, keyed as before
    acc = {complex(x, n): q for x, n, q in zip(w.tolist(), dn.tolist(), p.tolist())}
    want = merge_peaks_reference(acc, tol)
    assert repr(dist.peaks) == repr(want)
    assert repr(dist.residual_mass) == repr(1.0 - sum(q for _, _, q in want))


@st.composite
def two_routes(draw):
    """Two routes' (P(w), P(delta_n)) and their lattice spacing.  Each
    lattice site or delta_n carries a peak in one route, in the other or
    in both; the other route's copy of a work peak may sit up to 1e-7
    spacing off the site, and its weight may differ."""
    spacing = draw(st.sampled_from([0.5, 1.0, 3.0]))
    prob = st.sampled_from([0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-13])
    change = st.sampled_from([0.0, 1e-4, 0.05])

    def pair(labels, noise):
        mine, other = [], []
        for label in labels:
            p, which = draw(prob), draw(st.sampled_from(["both", "mine", "other"]))
            if which != "other":
                mine.append((label, p))
            if which != "mine":
                other.append((label + draw(noise), p + draw(change)))
        return sorted(mine), sorted(other)

    sites = draw(st.sets(st.integers(-4, 4), max_size=6))
    noise = st.sampled_from([0.0, 1e-9, -1e-9, 1e-7]).map(lambda x: x * spacing)
    work, other_work = pair([m * spacing for m in sites], noise)
    dns = draw(st.sets(st.integers(-4, 4), max_size=6))
    photons, other_photons = pair([2 * n for n in dns], st.just(0))
    return work, photons, other_work, other_photons, spacing


@settings(PROPERTY, max_examples=100)  # well under a millisecond per example
@given(two_routes())
def test_the_freeze_deviation_keeps_the_nearest_partner_bits(args):
    got = distributions._marginal_deviation(*args)
    assert same_bits(got, marginal_deviation_reference(*args))


GEOMETRIES = [
    RectangularGeometry(0.9, 1.0),
    CylindricalGeometry(MovingWall.LONGITUDINAL, radius=1.0),
    CylindricalGeometry(MovingWall.RADIAL, axis_length=1.3),
    SphericalGeometry(),
]


@functools.lru_cache(maxsize=None)
def _spectrum(geom, pol, cutoff):
    return tuple(mode_spectrum(geom, pol, 1.0, cutoff))


@st.composite
def classifier_inputs(draw):
    """(spectrum, protocol, geometry, polarization, tol) over every
    geometry and polarization.

    A mode spectrum in which a few modes take a frequency from a coarse
    grid instead, so duplicates, exact sums and differences and
    near-zero modes (ambiguous under a coarse tol) all occur.  The drive
    sits on a double, sum or difference condition of a mode a and a
    mode b, coupled to a when there is one, or anywhere; it is then
    optionally shifted by +-tol onto the boundary of the predicates.
    """
    geom = draw(st.sampled_from(GEOMETRIES))
    pol = draw(st.sampled_from(list(Polarization)))
    spectrum = list(_spectrum(geom, pol, float(draw(st.integers(5, 12)))))
    grid = st.sampled_from([0.01, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    for i in draw(st.sets(st.integers(0, len(spectrum) - 1), max_size=4)):
        spectrum[i] = (spectrum[i][0], draw(grid))
    a = draw(st.sampled_from(spectrum))
    coupled = [e for e in spectrum if coupling_coefficient(geom, pol, a[0], e[0])]
    wa, wb = a[1], draw(st.sampled_from(coupled or spectrum))[1]
    free = draw(st.floats(0.1, 10.0))
    omega = draw(st.sampled_from([2.0 * wa, wa + wb, abs(wa - wb) or free, free]))
    tol = draw(
        st.sampled_from([None, 1e-300, 1e-3 * omega, 0.05 * omega, 0.3 * omega, 1.5])
    )
    omega += draw(st.sampled_from([0.0, 1.0, -1.0])) * (tol or 1e-9 * omega)
    hypothesis.assume(omega > 0.0)
    protocol = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=omega, tau=1.0)
    return spectrum, protocol, geom, pol, tol


def _outcome(classify, *args):
    try:
        return classify(*args)
    except (AmbiguousResonanceError, DegenerateResonanceError) as exc:
        return type(exc), str(exc)


@settings(PROPERTY, max_examples=300)  # a few ms per example
@given(classifier_inputs())
def test_classifier_matches_the_all_pairs_reference(args):
    assert _outcome(classify_resonances, *args) == _outcome(classify_reference, *args)


ROOT_REQUESTS = st.lists(
    st.tuples(st.sampled_from(list(BesselKind)), st.integers(0, 12), st.integers(1, 8)),
    max_size=4,
)


@pytest.mark.parametrize("kind", list(BesselKind))
@settings(PROPERTY, max_examples=12)  # tens of ms per example
@given(x_max=st.floats(0.0, 45.0), requests=ROOT_REQUESTS)
@example(x_max=40.0, requests=[])  # the benchmark spectra's reach
@example(x_max=40.0, requests=[(BesselKind.CYL_J, 1, 14), (BesselKind.CYL_J_PRIME, 3, 5),
                               (BesselKind.SPH_XJ_PRIME, 5, 4), (BesselKind.SPH_J, 39, 1)])
def test_root_table_caches_the_scalar_roots(kind, x_max, requests):
    # bessel_zero requests first fill part of the cache, so the table
    # resumes on orders with roots, and extrema, already cached
    clear_root_cache()
    scalar = ScalarRoots()
    for request_kind, order, index in requests:
        if request_kind in (BesselKind.SPH_J, BesselKind.SPH_XJ_PRIME):
            order = max(order, 1)
        want = scalar.zero(request_kind, order, index)
        assert bessel_zero(request_kind, order, index) == want
    assert root_table(kind, x_max) == scalar.fill(kind, x_max)
    # the cached rows as (kind, order, index) keys
    cache = {(k, n, i): root for (k, n), row in bessel._cache.items()
             for i, root in enumerate(row, 1)}
    # every root that asking for each in turn caches, bit for bit ...
    assert {key: cache.get(key) for key in scalar.cache} == scalar.cache
    # ... and every other root the batch found on the way
    for key, root in cache.items():
        assert scalar.zero(*key) == root


@settings(PROPERTY, max_examples=6)  # a spectrum per example
@given(
    st.sampled_from(GEOMETRIES[1:]),
    st.sampled_from(list(Polarization)),
    st.floats(2.0, 30.0),
)
@example(GEOMETRIES[3], Polarization.TM, 40.0)
def test_concurrent_spectra_are_identical(geom, pol, cutoff):
    clear_root_cache()
    results = [None] * 4

    def worker(slot: int) -> None:
        results[slot] = mode_spectrum(geom, pol, 1.0, cutoff)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[1:] == results[:1] * 3
    assert results[0] == per_mode_spectrum(geom, pol, 1.0, cutoff)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# each reference config with the commands it is run through; "oracle"
# and "freeze" are distribution --oracle and --freeze at
# CAVEWORK_N_MAX = 8, where --freeze on sum_res refuses with exit 1
CLI_RUNS = {
    "double_res": ("distribution", "verify", "oracle"),
    "open_endpoints": ("distribution", "verify", "oracle"),
    "sum_res": ("distribution", "verify", "oracle", "freeze"),
    "diff_res": ("distribution", "verify", "oracle"),
    "moments_hot": ("moments",),
}
CONFIG_KEYS = sorted(
    (section, key)
    for section, keys in cli._KNOWN_KEYS.items()
    if section != "output"
    for key in keys
)
EXTREME_VALUES = (
    "0", "-1", "1e-320", "5e-324", "1e-300", "1e300", "inf", "nan", "1e-12",
    "1e12", "abc", "",
)


@st.composite
def extreme_runs(draw):
    """(config name, command, section, key, value): one key outside
    [output] of a reference config set to an extreme value."""
    name = draw(st.sampled_from(sorted(CLI_RUNS)))
    command = draw(st.sampled_from(CLI_RUNS[name]))
    section, key = draw(st.sampled_from(CONFIG_KEYS))
    return name, command, section, key, draw(st.sampled_from(EXTREME_VALUES))


@settings(PROPERTY, max_examples=150)  # milliseconds per run, a few far more
@given(run=extreme_runs())
# the classes that raised out of main before they were mended
@example(run=("sum_res", "distribution", "protocol", "tau", "0"))
@example(run=("double_res", "verify", "protocol", "tau", "1e12"))
@example(run=("double_res", "distribution", "protocol", "omega_drive", "5e-324"))
@example(run=("double_res", "distribution", "protocol", "hbar", "1e-320"))
@example(run=("diff_res", "oracle", "thermal", "beta", "1e-300"))
@example(run=("diff_res", "oracle", "thermal", "beta", "1e-12"))
# the --freeze gate's exit 1 printed a line without the error prefix
@example(run=("sum_res", "freeze", "protocol", "phi", "0"))
def test_every_extreme_config_value_ends_in_a_documented_exit_code(run):
    # exit 0, 1 or 2 and nothing raised; an exit 2 writes no file, and
    # an exit 1 or 2 prints one error line
    name, command, section, key, value = run
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    cp.read(CONFIGS / f"{name}.cfg", encoding="utf-8")
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    argv = {"oracle": ["distribution", "--oracle"],
            "freeze": ["distribution", "--freeze"]}.get(command, [command])
    env = {cli._ENV_N_MAX: "8"} if command in ("oracle", "freeze") else {}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        cp["output"]["directory"] = out
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        with (
            mock.patch.dict(os.environ, env),
            warnings.catch_warnings(record=True),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("always")  # recorded, as a shell prints them
            code = cli.main([*argv, path])
        written = [f for _, _, files in os.walk(out) for f in files]
    assert code in (0, 1, 2)
    if code == 2:
        assert written == []
    if code:
        [line] = err.getvalue().splitlines()
        assert line.startswith(("error:", "config error:"))


RECORD_VALUES = (0.0, -1.0, 1e-320, 5e-324, 1e-300, 1e300, math.inf, math.nan,
                 1e-12, 1e12)


@st.composite
def extreme_records(draw) -> dict:
    """CharfunParams fields at closed or open endpoints: ordinary values,
    up to three of them replaced by extreme ones."""
    slots = ("beta", "g_tau", "hbar", "k0", "k1", "p0", "p1")
    extreme = draw(st.sets(st.sampled_from(slots), max_size=3))
    closed = draw(st.booleans())

    def value(slot):
        if slot in extreme:
            return draw(st.sampled_from(RECORD_VALUES))
        return draw(st.floats(0.1, 10.0))

    def pair(mode):
        start = value(f"{mode}0")
        return start, start if closed and f"{mode}1" not in extreme else value(f"{mode}1")

    kind = draw(st.sampled_from(ResonanceKind))
    return dict(
        variant=kind, beta=value("beta"), omega_k=pair("k"),
        omega_p=None if kind is ResonanceKind.DOUBLE else pair("p"),
        g_tau=value("g_tau"), hbar=value("hbar"),
    )


@settings(PROPERTY, max_examples=400)  # microseconds per refused record
@given(
    fields=extreme_records(),
    points=st.lists(
        st.tuples(st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi)),
        min_size=1, max_size=4,
    ),
)
# the probes that reached G with no complaint from the record: an
# OverflowError, overflow warnings, a BranchTrackingError
@example(dict(variant=ResonanceKind.DOUBLE, beta=1.0, omega_k=(1.0, 1.0),
              omega_p=None, g_tau=400.0, hbar=1.0), [(0.3, 0.1)])
@example(dict(variant=ResonanceKind.DOUBLE, beta=800.0, omega_k=(1.0, 1.0),
              omega_p=None, g_tau=0.3, hbar=1.0), [(0.3, 0.1)])
@example(dict(variant=ResonanceKind.DOUBLE, beta=1.0, omega_k=(1.0, 1e-320),
              omega_p=None, g_tau=0.3, hbar=1.0), [(0.3, 0.1)])
# past the coupling bound at |g tau| = 300, a u-period past float range,
# and a variance past it (h^2 = 1e400)
@example(dict(variant=ResonanceKind.SUM, beta=11.0, omega_k=(14.0, 14.0),
              omega_p=(7.0, 7.0), g_tau=-300.0, hbar=1.0), [(0.3, 0.1)])
@example(dict(variant=ResonanceKind.DIFFERENCE, beta=1e300, omega_k=(2.0, 2.0),
              omega_p=(1.0, 1.0), g_tau=0.3, hbar=1e-320), [(0.3, 0.1)])
@example(dict(variant=ResonanceKind.DOUBLE, beta=1e-198, omega_k=(1e200, 1e200),
              omega_p=None, g_tau=0.3, hbar=1.0), [(0.3, 0.1)])
# a tracked open root whose radicand, near 1e164, overflowed the
# tracker's step test cur * conj(prev)
@example(dict(variant=ResonanceKind.DOUBLE, beta=6.0, omega_k=(9.0, 1.0),
              omega_p=None, g_tau=1.0, hbar=7.0), [(0.0, 0.0)])
# classical rates at a mode ratio of 2e299, whose (r + 1)^2 overflowed,
# and of 1e312, which is inf
@example(dict(variant=ResonanceKind.SUM, beta=1.0, omega_k=(5.0, 5.0),
              omega_p=(1e300, 1e300), g_tau=0.3, hbar=1e-300), [(0.3, 0.1)])
@example(dict(variant=ResonanceKind.DIFFERENCE, beta=1.0, omega_k=(1e-300, 1e-300),
              omega_p=(1e12, 1e12), g_tau=0.3, hbar=7e-10), [(0.3, 0.1)])
def test_a_record_keeps_its_closed_forms_in_float_range(fields, points):
    # construction refuses with ValueError, or every closed form at real
    # points of one u-period is finite, at most 1 in modulus and 1 at the
    # origin, or raises a CaveworkError; moments are finite or refused
    try:
        params = CharfunParams(**fields)
    except ValueError:
        return
    frac, v = np.array([(0.0, 0.0), *points]).T
    u = frac * 2.0 * math.pi / charfun._drive_quantum(params)
    forms = [closed_form_general] + [closed_form] * params.is_closed
    for form in forms:
        try:
            g = form(params, u, v)
        except CaveworkError:
            continue
        assert np.isfinite(g).all(), (form.__name__, g)
        assert np.abs(g).max() <= 1.0 + 1e-12, (form.__name__, g)
        assert abs(g[0] - 1.0) <= 1e-12, (form.__name__, g)
    if params.is_closed:
        try:
            mean, var = moments(params)
        except ValueError as exc:
            assert "leave float range" in str(exc)
        else:
            assert math.isfinite(mean) and math.isfinite(var)
    if params.variant is not ResonanceKind.DOUBLE:
        # the classical rates at the record's start: finite, or the point
        # law's (-inf, inf) without coupling
        r = params.omega_p[0] / params.omega_k[0]
        try:
            alphas = classical_alphas(params.variant, r, params.g_tau, params.beta)
        except (ValueError, CaveworkError):
            return
        assert all(type(a) is float for a in alphas), alphas
        assert all(map(math.isfinite, alphas)) or alphas == (-math.inf, math.inf), alphas


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 100))
def test_fails(n):
    assert n < 10
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # under this repository's pytest configuration, warnings filters
    # included, a falsified property ends in its example, not in an
    # INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    config = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", config,
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "n=10," in run.stdout
