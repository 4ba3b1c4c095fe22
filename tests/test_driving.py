"""Protocol bookkeeping, resonance classification, generator structure."""

import math

import numpy as np
import pytest

from conftest import closed_protocol, synthetic_case
from cavework.cavity import (
    Polarization,
    RectangularGeometry,
    mode_frequency,
    mode_spectrum,
)
from cavework.driving import (
    DrivingProtocol,
    ResonanceKind,
    classify_resonances,
    coupling_strength,
    interaction_generator,
)
from cavework.errors import AmbiguousResonanceError, DegenerateResonanceError
from cavework.symplectic import charfun_general

GEOM = RectangularGeometry(lx=0.9, ly=1.0)
POL = Polarization.TE


def test_protocol_validation():
    with pytest.raises(ValueError):
        DrivingProtocol(lambda0=0.0, epsilon=0.01, omega_drive=1.0, tau=1.0)
    with pytest.raises(ValueError):
        DrivingProtocol(lambda0=1.0, epsilon=0.0, omega_drive=1.0, tau=1.0)
    with pytest.raises(ValueError):
        DrivingProtocol(lambda0=1.0, epsilon=0.6, omega_drive=1.0, tau=1.0)
    with pytest.raises(ValueError):
        DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=1.0, tau=-1.0)
    with pytest.raises(ValueError, match="tau must be finite"):
        DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=1.0, tau=math.inf)
    with pytest.warns(UserWarning):
        DrivingProtocol(lambda0=1.0, epsilon=0.2, omega_drive=1.0, tau=1.0)


def test_large_epsilon_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="strains") as record:
        DrivingProtocol(lambda0=1.0, epsilon=0.2, omega_drive=1.0, tau=1.0)
    assert [w.filename for w in record] == [__file__]


def test_protocol_closure():
    p = closed_protocol(omega_drive=2.0, half_periods=3)
    assert p.is_closed
    assert p.lambda_at(0.0) == 1.0
    # quarter period: boundary at its widest
    quarter = math.pi / (2.0 * p.omega_drive)
    assert p.lambda_at(quarter) == pytest.approx(1.0 + p.epsilon, rel=1e-12)
    open_p = DrivingProtocol(lambda0=1.0, epsilon=0.05, omega_drive=2.0, tau=0.7)
    assert not open_p.is_closed


def test_classify_single_double_resonance():
    lam0 = 1.0
    spec = mode_spectrum(GEOM, POL, lam0, 8.0)
    wk = mode_frequency(GEOM, POL, (0, 1, 1), lam0)
    proto = DrivingProtocol(lambda0=lam0, epsilon=0.01, omega_drive=2.0 * wk, tau=1.0)
    plan = classify_resonances(spec, proto, GEOM, POL)
    assert len(plan.cases) == 1
    case = plan.cases[0]
    assert case.kind is ResonanceKind.DOUBLE
    assert case.k == (0, 1, 1)
    assert case.detuning == 0.0
    assert case.p is None
    assert plan.groups == ((0,),)
    active = {case.k}
    assert all(m not in active for m, _ in plan.adiabatic_modes)
    assert len(plan.adiabatic_modes) == len(spec) - 1


def test_classify_pair_resonances_orientation():
    lam0 = 1.0
    spec = mode_spectrum(GEOM, POL, lam0, 15.0)
    w_lo = mode_frequency(GEOM, POL, (0, 2, 1), lam0)
    w_hi = mode_frequency(GEOM, POL, (0, 2, 4), lam0)
    assert w_hi == pytest.approx(2.0 * w_lo, rel=1e-15)
    proto = DrivingProtocol(
        lambda0=lam0, epsilon=0.01, omega_drive=w_lo + w_hi, tau=1.0
    )
    plan = classify_resonances(spec, proto, GEOM, POL)
    pair = [c for c in plan.cases if c.kind is ResonanceKind.SUM]
    assert len(pair) == 1
    case = pair[0]
    assert case.k == (0, 2, 4) and case.p == (0, 2, 1)  # k is the higher mode
    assert case.omega_k > case.omega_p
    assert case.strength != 0.0

    proto = DrivingProtocol(
        lambda0=lam0, epsilon=0.01, omega_drive=w_hi - w_lo, tau=1.0
    )
    plan = classify_resonances(spec, proto, GEOM, POL)
    # w_hi - w_lo = w_lo also doubles the lowest-lying modes at w_lo/2? no:
    # spectrum has nothing at w_lo/2, but the difference drive may still
    # double-resonate a mode at exactly w_lo/2 if present; assert the pair
    diff = [c for c in plan.cases if c.kind is ResonanceKind.DIFFERENCE]
    assert any(c.k == (0, 2, 4) and c.p == (0, 2, 1) for c in diff)


def test_classify_detuning_tolerance():
    lam0 = 1.0
    spec = mode_spectrum(GEOM, POL, lam0, 8.0)
    wk = mode_frequency(GEOM, POL, (0, 1, 1), lam0)
    off = 2.0 * wk * (1.0 + 3e-4)
    proto = DrivingProtocol(lambda0=lam0, epsilon=0.01, omega_drive=off, tau=1.0)
    assert not classify_resonances(spec, proto, GEOM, POL).cases
    plan = classify_resonances(spec, proto, GEOM, POL, tol=1e-2 * off)
    assert len(plan.cases) == 1
    assert plan.cases[0].detuning == pytest.approx(2.0 * wk * 3e-4, rel=1e-9)


def test_classify_ambiguity_guard():
    spec = [((0, 1, 1), 1.0), ((0, 1, 2), 3.0)]
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=3.0, tau=1.0)
    with pytest.raises(AmbiguousResonanceError):
        classify_resonances(spec, proto, GEOM, POL, tol=1.5)


def test_double_strength_hand_formula():
    lam0 = 1.0
    wk = mode_frequency(GEOM, POL, (0, 1, 1), lam0)
    proto = DrivingProtocol(lambda0=lam0, epsilon=0.02, omega_drive=2.0 * wk, tau=1.0)
    g = coupling_strength(ResonanceKind.DOUBLE, proto, GEOM, POL, (0, 1, 1))
    want = 0.02 * 2.0 * wk * (math.pi * 1 / lam0) ** 2 / (4.0 * wk**2)
    assert g == pytest.approx(want, rel=1e-14)


def test_pair_strength_orientation_invariance():
    lam0 = 1.0
    proto = DrivingProtocol(lambda0=lam0, epsilon=0.01, omega_drive=1.0, tau=1.0)
    a = coupling_strength(
        ResonanceKind.SUM, proto, GEOM, POL, (0, 2, 1), (0, 2, 4)
    )
    b = coupling_strength(
        ResonanceKind.SUM, proto, GEOM, POL, (0, 2, 4), (0, 2, 1)
    )
    assert a == b  # argument order must not matter
    with pytest.raises(DegenerateResonanceError):
        coupling_strength(
            ResonanceKind.DIFFERENCE, proto, GEOM, POL, (0, 2, 1), (0, 2, 1)
        )


def test_generator_block_structure():
    tau = math.pi
    case = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.3, tau)
    q = interaction_generator([case], phi=0.0)
    s = q.S
    assert np.allclose(s, s.T)
    g = case.strength
    # squeeze channel populates only aa and a+a+ entries
    assert s[0, 0] == pytest.approx(1j * g)
    assert s[1, 1] == pytest.approx(-1j * g)
    assert s[0, 1] == 0.0

    pair = synthetic_case(ResonanceKind.SUM, 2.0, 1.0, 0.2, tau)
    q = interaction_generator([pair], phi=0.0)
    n = q.n
    assert n == 2
    assert q.S[0, 1] == pytest.approx(1j * pair.strength)
    assert q.S[n + 0, n + 1] == pytest.approx(-1j * pair.strength)
    assert q.S[0, 0] == 0.0


def test_drive_phase_does_not_move_thermal_charfun():
    # phase rotates the squeeze quadrature; thermal G(u, v) cannot see it.
    # closure needs sin(Omega tau + phi) = 0, so compare phi = 0 and pi.
    tau = math.pi
    case = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.25, tau)
    vals = []
    for phi in (0.0, math.pi):
        proto = DrivingProtocol(
            lambda0=1.0, epsilon=0.01, omega_drive=2.0, tau=tau, phi=phi
        )
        assert proto.is_closed
        vals.append(charfun_general([case], proto, 0.7, 0.4, 0.9))
    assert vals[0] == pytest.approx(vals[1], abs=1e-10)


def test_simultaneous_channels_share_a_group():
    # modes at w and 3w driven at 2w: squeeze on the low mode and exchange
    # with the high one fire together and must land in one coupled group
    geom = RectangularGeometry(lx=0.9, ly=1.0 / math.sqrt(2.0))
    w1 = mode_frequency(geom, POL, (0, 1, 1), 1.0)
    w2 = mode_frequency(geom, POL, (0, 1, 5), 1.0)
    assert w2 == pytest.approx(3.0 * w1, rel=1e-15)
    spec = [((0, 1, 1), w1), ((0, 1, 5), w2)]
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=2.0 * w1, tau=1.0)
    plan = classify_resonances(spec, proto, geom, POL)
    kinds = sorted(c.kind.value for c in plan.cases)
    assert kinds == ["difference", "double"]
    assert len(plan.groups) == 1 and set(plan.groups[0]) == {0, 1}
    assert not plan.adiabatic_modes
