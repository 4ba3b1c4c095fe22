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

from conftest import synthetic_case
from cavework.charfun import CharfunParams, closed_form
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
    charfun_general,
    compose,
    number_operator_form,
    sigma_matrix,
    symplectic_inverse,
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


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(7)
    forms = []
    for _ in range(3):
        z = 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        s = np.array([[z[0], -0.9 + 0.1 * z[2]], [-0.9 + 0.1 * z[2], z[1]]])
        forms.append(QuadraticForm(s))
    cms = [char_matrix(f) for f in forms]
    prod = compose(cms)
    want = cms[0] @ cms[1] @ cms[2]
    assert np.allclose(prod, want, atol=1e-12)


def test_symplectic_inverse_is_group_inverse():
    m = char_matrix(thermal_form(0.6))
    assert np.allclose(symplectic_inverse(m) @ m, np.eye(2), atol=1e-12)


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
    c = -0.7 + 0.2j
    form, log_scalar = number_operator_form([c])
    tr = trace_from_char(char_matrix(form)) * cmath.exp(log_scalar)
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
    # 16 steps of 2.625 rad leave the right half plane at the first
    # step; one refinement to 32 steps of 1.3125 rad continues the branch
    assert calls == 1 + 1 + 32
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

    # x = 1 turns 2.625 rad per step and needs 32 steps; the others pass
    # at 16, so the batch costs exactly what its points cost one by one
    xs = np.array([[1.0, 0.1], [0.2, 1.0], [-0.05, 0.3]])
    root, calls = counted(xs)
    alone = [counted(x) for x in xs.ravel()]
    assert [c for _, c in alone] == [34, 17, 17, 34, 17, 17]
    assert calls == sum(c for _, c in alone) == 136
    assert root.shape == xs.shape
    assert np.allclose(root.ravel(), [r for r, _ in alone], rtol=1e-14, atol=0.0)
    assert np.allclose(root, np.exp(21j * xs), rtol=0.0, atol=1e-12)
