"""Property tests over random closed single-channel parameters, over
random coupled and mode-disjoint resonance plans, over random work
marginals for the Kolmogorov-Smirnov distance, over random spectra for
the resonance classifier, and over random reaches of the Bessel root
tables.

Weak drive and moderate temperature keep every joint (work, photon)
inversion at 64-128 samples per axis, so each example costs well under
a second.  Hypothesis is derandomized and keeps no example database, so
a run is repeatable; it still caches the constants it scans from the
source under the git-ignored .hypothesis/constants/ at the repo root.
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cavework import bessel, charfun, distributions  # noqa: E402
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
    classical_work_cdf,
    closed_form,
    closed_form_general,
    multi_resonance_product,
)
from cavework.distributions import (  # noqa: E402
    CumulativeFit,
    verify_fluctuation_theorems,
)
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
    DegenerateResonanceError,
)
from cavework.fock import (  # noqa: E402
    TruncatedFockSpace,
    build_evolution,
    two_point_measurement,
)
from cavework.symplectic import (  # noqa: E402
    charfun_from_generator,
    charfun_general,
    tracked_sqrt,
)
from classifier_oracle import classify_reference  # noqa: E402
from conftest import (  # noqa: E402
    charfun_numeric,
    closed_protocol,
    compare_classical,
    format_prob_reference,
    joint_doubling_counts,
    outer_tail,
    reference_comb,
    same_bits,
    synthetic_case,
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
    assert distributions._reversed_params(params) == params
    report = verify_fluctuation_theorems(params)
    assert report.normalization_error <= 1e-10
    assert report.jarzynski_abs_error <= 1e-10
    assert report.crooks_peakwise_error <= 1e-8


@PROPERTY
@given(closed_params())
def test_moments_are_the_lattice_sum_of_the_work_weights(params):
    peaks = distributions.extract_marginal_work(
        lambda u: closed_form(params, u, 0.0), distributions._drive_quantum(params)
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
    spacing = distributions._drive_quantum(params)
    (su, sv), joint = distributions._adaptive_comb(
        lambda u, v: closed_form(params, u, v),
        (2.0 * math.pi / spacing, 2.0 * math.pi),
        (64, 64),
    )
    assert 64 <= len(su) <= 128 and 64 <= len(sv) <= 128
    signed, work = distributions._work_weights(
        lambda u: closed_form(params, u, 0.0), spacing
    )
    summed = dict(zip(su.tolist(), joint.sum(axis=1).tolist()))
    direct = dict(zip(signed.tolist(), work.tolist()))
    for m in summed.keys() | direct.keys():
        assert abs(summed.get(m, 0.0) - direct.get(m, 0.0)) <= 1e-14, m


@PROPERTY
@given(closed_params())
# the double_res reference: joint doubling ends at 512 x 512, the photon
# axis alone needs 512 since delta_n = 2m
@example(
    CharfunParams(
        variant=ResonanceKind.DOUBLE, beta=0.2 / 4.44, omega_k=(4.44, 4.44), g_tau=0.3
    )
)
def test_joint_comb_grows_only_the_axes_that_need_it(params):
    spacing = distributions._drive_quantum(params)
    evaluate = functools.partial(closed_form, params)
    periods, starts = (2.0 * math.pi / spacing, 2.0 * math.pi), (64, 64)
    _, joint = distributions._adaptive_comb(evaluate, periods, starts)
    tol = distributions._TAIL_TOL
    jointly = joint_doubling_counts(evaluate, periods, starts, tol)
    assert all(m <= j for m, j in zip(joint.shape, jointly)), (joint.shape, jointly)
    if params.variant is ResonanceKind.DIFFERENCE:
        # the beam splitter keeps the photon number: all weight at delta_n = 0
        assert joint.shape[1] == 64
    assert outer_tail(reference_comb(evaluate, periods, joint.shape)) < tol


@settings(PROPERTY, max_examples=40)  # a few ms per example
@given(
    closed_params(),
    st.floats(-3.0, 3.0),
    st.floats(-math.pi, math.pi),
    st.floats(0.5, 4.0),
)
def test_symplectic_route_matches_closed_form(params, u, v, tau):
    wk = params.omega_k[0]
    wp = None if params.omega_p is None else params.omega_p[0]
    case = synthetic_case(params.variant, wk, wp, params.g_tau, tau)
    omegas = [wk] if wp is None else [wk, wp]
    a = charfun_from_generator(
        interaction_generator([case]), omegas, tau, params.beta, u, v
    )
    b = closed_form(params, u, v)
    assert abs(a - b) <= 1e-9


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
# a shift beta hbar omega_k past 709, where csin rescales
@example(CharfunParams(ResonanceKind.DOUBLE, 709.5, (1.0, 1.0), 0.3), [(0.3, 0.1)])
def test_real_axis_sines_are_the_complex_evaluation(params, points):
    u, v = np.array(points).T
    batch = closed_form(params, u, v)
    assert same_bits(batch, closed_form(params, u.astype(complex), v.astype(complex)))
    for (a, b), g in zip(points, batch):
        single = closed_form(params, a, b)
        assert type(single) is complex
        assert same_bits(single, closed_form(params, complex(a), complex(b)))
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


TAU = math.pi  # closed_protocol(2.0): two half periods of the drive
MODES = ((0, 0, 1), (0, 0, 2), (0, 0, 3))


@st.composite
def resonance_plans(draw) -> tuple[list[ResonanceCase], bool, float]:
    """(cases, coupled, beta) for two weakly driven channels on two or
    three modes of ascending frequency.

    Coupled plans share a mode: a double and a difference, or a sum and
    a difference in a chain.  Disjoint plans put a double on the lowest
    mode and any channel on the others.  beta times the lowest
    frequency lies in [1, 3], so the oracle's truncation stays small.
    """
    w = [draw(st.floats(0.5, 2.0))]
    for _ in range(2):
        w.append(w[-1] * draw(st.floats(1.2, 2.0)))
    g_taus = st.floats(0.05, 0.3)
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
        routes.append(lambda u, v: multi_resonance_product(cases, params, u, v))
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
