"""Symplectic calculus: representatives, traces, characteristic functions.

The trace identities are cross-checked against literal matrix algebra in
a truncated Fock space built from raw ladder matrices, not through
cavework.fock, so the two routes stay independent.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import same_bits, synthetic_case
from test_cli import COUPLED
from cavework import charfun, cli, symplectic
from cavework.charfun import CharfunParams, charfun_general, closed_form, plan_charfun
from cavework.driving import DrivingProtocol, ResonanceKind, interaction_generator
from cavework.errors import (
    BranchTrackingError,
    SymplecticityError,
    TraceDivergenceError,
)
from cavework.symplectic import (
    QuadraticForm,
    char_matrix,
    charfun_from_generator,
    sigma_matrix,
    trace_from_char,
    tracked_sqrt,
)


def fock_trace(s: np.ndarray, n_max: int = 100) -> complex:
    """Tr exp(1/2 alpha S alpha) by literal truncated matrix exponential."""
    d = n_max + 1
    a = np.zeros((d, d))
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    ad = a.T
    ops = [a, ad]
    m = np.zeros((d, d), dtype=complex)
    for i in range(2):
        for j in range(2):
            if s[i, j] != 0.0:
                m += 0.5 * s[i, j] * (ops[i] @ ops[j])
    return complex(np.trace(sla.expm(m)))


def thermal_form(c: float) -> QuadraticForm:
    s = np.zeros((2, 2), dtype=complex)
    s[0, 1] = s[1, 0] = -c
    return QuadraticForm(s)


def test_sigma_matrix_structure():
    s = sigma_matrix(2)
    assert np.array_equal(s[:2, 2:], np.eye(2))
    assert np.array_equal(s[2:, :2], -np.eye(2))
    assert np.array_equal(s.T, -s)


def test_quadratic_form_symmetrized():
    s = np.array([[0.0, 0.3], [0.1, 0.0]], dtype=complex)
    q = QuadraticForm(s)
    assert q.S[0, 1] == q.S[1, 0] == pytest.approx(0.2)
    with pytest.raises(ValueError):
        QuadraticForm(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        QuadraticForm(np.array([[np.inf, 0], [0, 0]]))


def test_char_matrix_is_symplectic_and_diag_for_thermal():
    c = 0.8
    m = char_matrix(thermal_form(c))
    # exp(sigma S) for the pure number weight is diag(e^-c, e^c)
    want = np.diag([math.exp(-c), math.exp(c)])
    assert np.allclose(m, want, atol=1e-14)
    with pytest.raises(SymplecticityError), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        char_matrix(thermal_form(2000.0))


def test_char_matrix_matches_scipy_expm():
    # random symmetric S, n = 1..4, scaled so that the squaring count
    # ceil(log2(|sigma S|_1 / theta_13)) takes every value from 0 to 5
    tol = 1e-12  # of the largest entry of exp(sigma S)
    rng = np.random.default_rng(2005)
    counts = set()
    for n in range(1, 5):
        for count in range(6):
            for _ in range(3):
                s = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal(
                    (2 * n, 2 * n)
                )
                s = s + s.T
                norm = np.linalg.norm(sigma_matrix(n) @ s, 1)
                scale = symplectic._THETA13 * 2.0 ** (count - rng.uniform(0.1, 0.9))
                q = QuadraticForm(s * (scale / norm))
                a = sigma_matrix(n) @ q.S
                ratio = np.linalg.norm(a, 1) / symplectic._THETA13
                counts.add(max(0, math.ceil(math.log2(ratio))))
                want = sla.expm(a)
                got = char_matrix(q)
                assert np.abs(got - want).max() <= tol * np.abs(want).max()
    assert counts == set(range(6))


def test_trace_thermal_weight_exact():
    c = 0.9
    tr = trace_from_char(char_matrix(thermal_form(c)))
    want = math.exp(-c / 2.0) / (1.0 - math.exp(-c))
    assert tr == pytest.approx(want, rel=1e-12)


def test_trace_matches_fock_exponential():
    rng = np.random.default_rng(3)
    for _ in range(8):
        c = rng.uniform(0.6, 1.5)
        z = 0.15 * c * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        s = np.array([[z[0], -c], [-c, z[1]]], dtype=complex)
        q = QuadraticForm(s)
        tr = trace_from_char(char_matrix(q))
        ref = fock_trace(q.S)
        assert abs(tr - ref) < 1e-10 * abs(ref)


def test_number_operator_form_scalar():
    # exp(c a^+ a) = exp(-c/2) exp(1/2 alpha S alpha), S = [[0, c], [c, 0]]
    c = -0.7 + 0.2j
    form = QuadraticForm(np.array([[0.0, c], [c, 0.0]]))
    tr = trace_from_char(char_matrix(form)) * cmath.exp(-0.5 * c)
    want = 1.0 / (1.0 - cmath.exp(c))
    assert tr == pytest.approx(want, rel=1e-12)


def test_trace_divergence_detected():
    with pytest.raises(TraceDivergenceError):
        trace_from_char(np.eye(2, dtype=complex))


def test_charfun_from_generator_normalization_and_closed_form():
    tau = math.pi
    case = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.3, tau)
    gen = interaction_generator([case])
    beta = 0.2
    assert charfun_from_generator(gen, [1.0], tau, beta, 0.0, 0.0) == pytest.approx(
        1.0, abs=1e-12
    )
    params = CharfunParams(
        variant=ResonanceKind.DOUBLE, beta=beta, omega_k=(1.0, 1.0), g_tau=0.3
    )
    for u, v in [(0.4, 0.0), (-1.3, 0.8), (2.2, -2.9), (math.pi / 2, 0.0)]:
        a = charfun_from_generator(gen, [1.0], tau, beta, u, v)
        b = closed_form(params, u, v)
        assert abs(a - b) < 1e-10


def test_charfun_general_all_variants_match_closed():
    tau = math.pi
    beta = 0.4
    table = [
        (ResonanceKind.DOUBLE, 1.0, None, 2.0),
        (ResonanceKind.SUM, 2.0, 1.0, 3.0),
        (ResonanceKind.DIFFERENCE, 2.0, 1.0, 1.0),
    ]
    for kind, wk, wp, drive in table:
        case = synthetic_case(kind, wk, wp, 0.3, tau)
        # tau = pi is a whole number of half periods for integer drive
        proto = DrivingProtocol(
            lambda0=1.0, epsilon=0.01, omega_drive=drive, tau=tau, phi=0.0
        )
        assert proto.is_closed
        params = CharfunParams(
            variant=kind,
            beta=beta,
            omega_k=(wk, wk),
            omega_p=None if wp is None else (wp, wp),
            g_tau=0.3,
        )
        for u, v in [(0.3, 0.0), (-0.9, 1.4)]:
            a = charfun_general([case], proto, beta, u, v)
            b = closed_form(params, u, v)
            assert abs(a - b) < 1e-10, (kind, u, v)


def test_charfun_general_rejects_open_protocols():
    case = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.3, 1.0)
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.05, omega_drive=2.0, tau=1.0)
    assert not proto.is_closed
    with pytest.raises(ValueError):
        charfun_general([case], proto, 0.5, 0.1, 0.0)


@pytest.mark.parametrize("omega,tau,match", [
    (-1.0, math.pi, "frequencies"),
    (0.0, math.pi, "frequencies"),
    (math.inf, math.pi, "frequencies"),
    (math.nan, math.pi, "frequencies"),
    (1e-320, math.pi, "thermal normalization"),  # it underflows
    (1e-17, math.pi, "thermal diagonal"),  # e^(beta hbar omega) rounds to 1
    (1.0, math.nan, "tau"),
    (1.0, math.inf, "tau"),
])
def test_charfun_from_generator_refuses_frequencies_and_times_out_of_range(
    omega, tau, match
):
    # each returned a value, blamed the branch tracker, warned or blamed S
    case = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            charfun_from_generator(
                interaction_generator([case]), [omega], tau, 1.0, 0.3, 0.1
            )


def test_a_mode_past_the_records_thermal_bound_is_refused_in_a_group():
    # x = [750, 1e-12]: the group's log normalization, about 695, is in
    # range, but e^750 overflowed in the thermal diagonal
    gen = QuadraticForm(np.zeros((4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="beta hbar omega = 750 "):
            charfun_from_generator(gen, [750.0, 1e-12], math.pi, 1.0, 0.3, 0.0)


def test_a_group_whose_thermal_normalization_overflows_is_refused(tmp_path):
    # at beta = 40 each mode's beta hbar omega (218 and 653) stays within
    # the records' 700, while prod 4 sinh^2(beta hbar omega / 2) is e^870
    group, protocol, _, _ = coupled_group(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="thermal normalization"):
            charfun_general(group, protocol, 40.0, 0.3, 0.0)


def test_strong_drive_branch_follows_closed_form():
    # sinh^2(1.2) ~ 2.28 pushes the radicand around the branch cut; the
    # homotopy and the tracked scalar square root must stay in lockstep
    tau = math.pi
    case = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 1.2, tau)
    gen = interaction_generator([case])
    params = CharfunParams(
        variant=ResonanceKind.DOUBLE, beta=0.15, omega_k=(1.0, 1.0), g_tau=1.2
    )
    for u in np.linspace(-3.0, 3.0, 11):
        a = charfun_from_generator(gen, [1.0], tau, 0.15, float(u), 0.0)
        b = closed_form(params, float(u), 0.0)
        assert abs(a - b) < 1e-9


def test_tracked_sqrt_refines_past_a_fast_step():
    calls = 0

    def radicand(s: float, x: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += np.size(x)
        return np.exp(42j * s * x)

    root = tracked_sqrt(radicand, (1.0,), steps=16, anchor_tol=1e-12)
    # 16 steps of 2.625 rad leave the right half plane at the first step,
    # and a pass takes all of its steps; one refinement to 32 steps of
    # 1.3125 rad continues the branch
    assert calls == 1 + 16 + 32
    assert abs(root - cmath.exp(21j)) < 1e-12
    # the continued root is the negative of the principal one
    assert abs(root + cmath.sqrt(cmath.exp(42j))) < 1e-12


def test_tracked_sqrt_failure_modes():
    one = (1.0,)
    # at every step count from 16 to 1024 each step turns the radicand
    # by +-2 pi / 3 modulo 2 pi, outside the right half plane
    fast = 2048.0 * math.pi / 3.0
    with pytest.raises(BranchTrackingError, match="winds too fast"):
        tracked_sqrt(
            lambda s, x: np.exp(1j * fast * s * x), one, steps=16, anchor_tol=1e-12
        )
    with pytest.raises(BranchTrackingError, match="vanished"):
        tracked_sqrt(lambda s, x: 1.0 - s * x, one, steps=16, anchor_tol=1e-12)
    with pytest.raises(BranchTrackingError, match="anchor"):
        tracked_sqrt(lambda s, x: -1.0 + 0.0j * x, one, steps=16, anchor_tol=1e-12)
    # a determinant anchor is real to 1e-9 relative, a scalar one to 1e-12
    tilted = lambda s, x: (1.0 + 1e-10j) * (1.0 + s * x)  # noqa: E731
    assert tracked_sqrt(tilted, one, steps=64, anchor_tol=1e-9) == pytest.approx(
        cmath.sqrt(2.0 + 2e-10j), abs=1e-13
    )
    with pytest.raises(BranchTrackingError, match="anchor"):
        tracked_sqrt(tilted, one, steps=16, anchor_tol=1e-12)
    with pytest.raises(BranchTrackingError, match="anchor"):
        tracked_sqrt(
            lambda s, x: 1.0 + 1e-8j + s * x, one, steps=64, anchor_tol=1e-9
        )


def test_tracked_sqrt_refines_only_the_failing_points():
    def counted(x: np.ndarray) -> tuple[np.ndarray, int]:
        calls = 0

        def radicand(s: float, x: np.ndarray) -> np.ndarray:
            nonlocal calls
            calls += np.size(x)
            return np.exp(42j * s * x)

        return tracked_sqrt(radicand, (x,), steps=16, anchor_tol=1e-12), calls

    # x = 1 turns 2.625 rad per step and needs a second pass at 32 steps;
    # the others pass at 16, so the batch costs exactly what its points
    # cost one by one
    xs = np.array([[1.0, 0.1], [0.2, 1.0], [-0.05, 0.3]])
    root, calls = counted(xs)
    alone = [counted(x) for x in xs.ravel()]
    assert [c for _, c in alone] == [49, 17, 17, 49, 17, 17]
    assert calls == sum(c for _, c in alone) == 166
    assert root.shape == xs.shape
    assert np.allclose(root.ravel(), [r for r, _ in alone], rtol=1e-14, atol=0.0)
    assert np.allclose(root, np.exp(21j * xs), rtol=0.0, atol=1e-12)


def coupled_group(tmp_path):
    """(group, protocol, beta, work spacing) of the coupled config."""
    path = tmp_path / "coupled.cfg"
    path.write_text(COUPLED)
    cfg = cli.load_config(str(path))
    protocol, plan = cli._protocol_and_plan(cfg, cli._spectrum(cfg))
    [group] = [[plan.cases[i] for i in g] for g in plan.groups]
    return group, protocol, cfg.beta, plan_charfun(plan, protocol, cfg.beta)[1]


def test_the_ray_path_keeps_the_trackers_bits_on_the_coupled_config(
    tmp_path, monkeypatch
):
    # the four trace-formula calls of one distribution --symplectic: the
    # periodicity probe (3 + 3 points), the work comb and the photon comb
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coupled.cfg").write_text(COUPLED)
    calls = []
    generator = symplectic.charfun_from_generator

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, generator(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(charfun, "charfun_from_generator", recorded)
    assert cli.main(["distribution", "coupled.cfg", "--symplectic"]) == 0
    assert [g.size for _, _, g in calls] == [3, 3, 256, 64]
    monkeypatch.setattr(symplectic, "_ray_sqrt", tracked_sqrt)
    for args, kwargs, g in calls:
        assert same_bits(g, generator(*args, **kwargs))


def test_a_comb_on_one_ray_costs_one_determinant_per_sample(tmp_path, monkeypatch):
    group, protocol, beta, spacing = coupled_group(tmp_path)
    points = []
    determinant = symplectic._branch_determinant

    def counted(m):
        points.append(m[..., 0, 0].size)
        return determinant(m)

    monkeypatch.setattr(symplectic, "_branch_determinant", counted)
    u = 2.0 * math.pi / spacing * np.arange(256) / 256
    charfun_general(group, protocol, beta, u, 0.0)
    # the anchor, then the samples merged with the tracker's 64 steps to
    # the farthest one, in one batch; the tracker alone evaluates 65 N
    assert points == [1, 256 + 64]


def test_a_cold_comb_keeps_the_ray_step_test_in_float_range(tmp_path, monkeypatch):
    # at beta = 20 (beta hbar omega = 109 and 326) the radicand along the
    # work comb's ray passes 1e154, where the step test's product
    # cur * conj(prev) overflowed; this suite turns the warning into an
    # error.  The ray path still takes every step, with the tracker's bits.
    group, protocol, _, spacing = coupled_group(tmp_path)
    u = 2.0 * math.pi / spacing * np.arange(256) / 256
    with monkeypatch.context() as m:
        m.setattr(symplectic, "tracked_sqrt", None)  # no fallback
        ray = charfun_general(group, protocol, 20.0, u, 0.0)
    assert np.isfinite(ray).all()
    monkeypatch.setattr(symplectic, "_ray_sqrt", tracked_sqrt)
    assert same_bits(ray, charfun_general(group, protocol, 20.0, u, 0.0))


class Tracked(Exception):
    pass


def test_only_points_on_one_ray_skip_the_tracker(tmp_path, monkeypatch):
    group, protocol, beta, spacing = coupled_group(tmp_path)

    def tracker(radicand, points, steps, anchor_tol):
        raise Tracked

    monkeypatch.setattr(symplectic, "tracked_sqrt", tracker)
    comb = 2.0 * math.pi * np.arange(64) / 64
    for u, v in [(comb / spacing, 0.0), (0.0, comb), (np.zeros(3), np.zeros(3))]:
        charfun_general(group, protocol, beta, u, v)
    u, v = np.meshgrid(comb[:4], comb[:3], indexing="ij")
    off_ray = [
        (0.5, 0.0),  # a scalar point
        (comb + 1j * beta, 0.0),  # Jarzynski: complex u
        (u, v),  # a mixed (u, v) grid
        (comb - 1.0, 0.0),  # negative u
        (np.append(comb, np.nan), 0.0),  # a point that is not finite
        (0.0, np.append(comb, np.inf)),
        (np.zeros(0), 0.0),  # no point
    ]
    for u, v in off_ray:
        with pytest.raises(Tracked):
            charfun_general(group, protocol, beta, u, v)


def test_a_ray_step_the_tracker_would_refuse_falls_back_to_it():
    ray = (np.array([0.5, 1.0]), 0.0)
    # every step count from 64 to 4096 to u = 1 turns each step by
    # +-2 pi / 3 modulo 2 pi: the ray's step test fails, and the tracker
    # winds too fast at every count
    fast = 8192.0 * math.pi / 3.0
    with pytest.raises(BranchTrackingError, match="winds too fast"):
        symplectic._ray_sqrt(
            lambda s, u, v: np.exp(1j * fast * s * u), ray, steps=64, anchor_tol=1e-9
        )
    with pytest.raises(BranchTrackingError, match="anchor"):
        symplectic._ray_sqrt(
            lambda s, u, v: -1.0 - s * u, ray, steps=64, anchor_tol=1e-9
        )
    # 1 - u at the last point is one ulp: below the tracker's floor
    with pytest.raises(BranchTrackingError, match="vanished"):
        symplectic._ray_sqrt(
            lambda s, u, v: 1.0 - s * u, (np.array([0.5, 1.0 - 2.0**-53]), 0.0),
            steps=64, anchor_tol=1e-9,
        )
    # a turn of 26 pi / 64 per tracker step to u = 1: the continued root
    # leaves the principal branch, and only the sign chain follows it
    radicand = lambda s, u, v: np.exp(26j * math.pi * s * u)  # noqa: E731
    ray = (np.array([1.0, 0.1]), 0.0)
    root = symplectic._ray_sqrt(radicand, ray, steps=64, anchor_tol=1e-9)
    assert same_bits(root, tracked_sqrt(radicand, ray, steps=64, anchor_tol=1e-9))
    assert np.allclose(root, np.exp(13j * math.pi * ray[0]), rtol=0.0, atol=1e-12)
    assert np.allclose(root, -np.sqrt(radicand(1.0, ray[0], 0.0)), rtol=0.0, atol=1e-12)
