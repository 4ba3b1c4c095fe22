"""Property tests over random closed single-channel parameters.

Weak drive and moderate temperature keep every joint (work, photon)
inversion at 64-128 samples per axis, so each example costs well under
a second.  Hypothesis is derandomized and keeps no example database, so
a run is repeatable and writes nothing into the tree.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cavework import distributions  # noqa: E402
from cavework.charfun import CharfunParams, closed_form  # noqa: E402
from cavework.distributions import WorkLattice, verify_fluctuation_theorems  # noqa: E402
from cavework.driving import ResonanceKind, interaction_generator  # noqa: E402
from cavework.fock import (  # noqa: E402
    TruncatedFockSpace,
    build_evolution,
    charfun_numeric,
    two_point_measurement,
)
from cavework.symplectic import charfun_from_generator  # noqa: E402
from conftest import closed_protocol, synthetic_case, to_dense  # noqa: E402

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
    report = verify_fluctuation_theorems(params, grid=8)
    assert report.normalization_error <= 1e-10
    assert report.jarzynski_abs_error <= 1e-10
    assert report.crooks_peakwise_error <= 1e-8


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
        lambda u: closed_form(params, u, 0.0), WorkLattice(spacing)
    )
    summed = dict(zip(su.tolist(), joint.sum(axis=1).tolist()))
    direct = dict(zip(signed.tolist(), work.tolist()))
    for m in summed.keys() | direct.keys():
        assert abs(summed.get(m, 0.0) - direct.get(m, 0.0)) <= 1e-14, m


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
    p_init = space.thermal_weights(params.beta)
    pops = np.abs(to_dense(u_mat)) ** 2 @ p_init
    leak = float(pops[space.top_shell_mask()].sum())
    u, v = np.meshgrid(
        np.linspace(-2.0, 2.0, 9), np.linspace(-math.pi, math.pi, 7), indexing="ij"
    )
    err = np.abs(charfun_numeric(dist, u, v) - closed_form(params, u, v)).max()
    truncation = dist.residual_mass + leak
    assert err <= max(ORACLE_TRUNCATION_MULTIPLE * truncation, ORACLE_ROUNDOFF)
