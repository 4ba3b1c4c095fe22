"""Protocol bookkeeping, resonance classification, generator structure."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from classifier_oracle import classify_reference
from conftest import closed_protocol, synthetic_case
from cavework import cli
from cavework.cavity import (
    CylindricalGeometry,
    MovingWall,
    Polarization,
    RectangularGeometry,
    coupling_coefficient,
    mode_frequency,
    mode_spectrum,
)
from cavework.charfun import CharfunParams, charfun_general
from cavework.distributions import extract_marginal_work
from cavework.driving import (
    DrivingProtocol,
    ResonanceKind,
    classify_resonances,
    coupling_strength,
    interaction_generator,
)
from cavework.errors import AmbiguousResonanceError, DegenerateResonanceError
from cavework.fock import TruncatedFockSpace

GEOM = RectangularGeometry(lx=0.9, ly=1.0)
POL = Polarization.TE
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


NAN, INF = math.nan, math.inf


def _charfun(beta=1.0, hbar=1.0, omega_k=(1.0, 1.0)):
    return CharfunParams(ResonanceKind.DOUBLE, beta, omega_k, 0.1, hbar=hbar)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _charfun(beta=NAN),
        lambda: _charfun(beta=INF),
        lambda: _charfun(hbar=NAN),
        lambda: _charfun(omega_k=(NAN, NAN)),
        lambda: _charfun(omega_k=(INF, INF)),
        lambda: extract_marginal_work(lambda u, v: np.ones_like(u, dtype=complex), NAN),
        lambda: extract_marginal_work(lambda u, v: np.ones_like(u, dtype=complex), INF),
        lambda: TruncatedFockSpace([((0, 1, 1), NAN, 1.0)], 2),
        lambda: TruncatedFockSpace([((0, 1, 1), 1.0, INF)], 2),
        lambda: RectangularGeometry(INF, 1.0),
        lambda: CylindricalGeometry(MovingWall.LONGITUDINAL, radius=INF),
        lambda: CylindricalGeometry(MovingWall.RADIAL, axis_length=INF),
    ],
    ids=[
        "charfun_beta_nan", "charfun_beta_inf", "charfun_hbar_nan",
        "charfun_omega_nan", "charfun_omega_inf", "lattice_nan", "lattice_inf",
        "fock_omega0_nan", "fock_omega_tau_inf", "rectangle_inf",
        "cylinder_radius_inf", "cylinder_axis_inf",
    ],
)
def test_records_reject_non_finite_numbers(build):
    # the same rule DrivingProtocol applies to every field
    _charfun()  # the defaults are valid
    with pytest.raises(ValueError):
        build()


def test_large_epsilon_warning_has_a_fixed_location():
    # no caller's source line, so stderr does not move with edits
    with pytest.warns(UserWarning, match="strains") as record:
        DrivingProtocol(lambda0=1.0, epsilon=0.2, omega_drive=1.0, tau=1.0)
    assert [(w.filename, w.lineno) for w in record] == [("cavework", 0)]


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


def test_a_subnormal_drive_names_the_resonance_tolerance():
    # 1e-9 * Omega underflows to 0 at a subnormal drive: the default
    # tolerance's refusal names the drive, an explicit one names tol
    spec = mode_spectrum(GEOM, POL, 1.0, 8.0)
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=5e-324, tau=1.0)
    with pytest.raises(ValueError) as info:
        classify_resonances(spec, proto, GEOM, POL)
    assert str(info.value) == (
        "omega_drive = 5e-324: the resonance tolerance 1e-09 * Omega underflows to 0"
    )
    with pytest.raises(ValueError, match="^tol must be positive$"):
        classify_resonances(spec, proto, GEOM, POL, tol=0.0)


def test_the_plan_holds_every_resonant_mode_at_both_ends(recwarn):
    # open_endpoints ends at lambda(tau) = 1.1 lambda0: the plan's JSON
    # prints (0,1,1) at lambda0 and at lambda(tau), the latter bit for
    # bit mode_frequency's
    cfg = cli.load_config(str(CONFIGS / "open_endpoints.cfg"))
    spec = mode_spectrum(cfg.geometry, cfg.polarization, cfg.lambda0, cfg.cutoff)
    protocol, plan = cli._protocol_and_plan(cfg, spec)
    assert not protocol.is_closed
    mode = (0, 1, 1)
    w1 = mode_frequency(cfg.geometry, cfg.polarization, mode, protocol.lambda_tau)
    [entry] = json.loads(plan.to_json())["resonant_modes"]
    assert entry == {"mode": list(mode), "frequency": dict(spec)[mode],
                     "frequency_tau": w1}
    assert plan.resonant_modes == ((mode, dict(spec)[mode], w1),)


def test_classify_ambiguity_guard():
    spec = [((0, 1, 1), 1.0), ((0, 1, 2), 3.0)]
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=3.0, tau=1.0)
    with pytest.raises(AmbiguousResonanceError):
        classify_resonances(spec, proto, GEOM, POL, tol=1.5)


def test_double_strength_hand_formula():
    lam0 = 1.0
    wk = mode_frequency(GEOM, POL, (0, 1, 1), lam0)
    proto = DrivingProtocol(lambda0=lam0, epsilon=0.02, omega_drive=2.0 * wk, tau=1.0)
    g = coupling_strength(ResonanceKind.DOUBLE, proto, GEOM, POL, (0, 1, 1), wk)
    want = 0.02 * 2.0 * wk * (math.pi * 1 / lam0) ** 2 / (4.0 * wk**2)
    assert g == pytest.approx(want, rel=1e-14)


def test_pair_strength_orientation_invariance():
    lam0 = 1.0
    proto = DrivingProtocol(lambda0=lam0, epsilon=0.01, omega_drive=1.0, tau=1.0)
    lo, hi = (0, 2, 1), (0, 2, 4)
    w_lo, w_hi = (mode_frequency(GEOM, POL, m, lam0) for m in (lo, hi))
    a = coupling_strength(ResonanceKind.SUM, proto, GEOM, POL, lo, w_lo, hi, w_hi)
    b = coupling_strength(ResonanceKind.SUM, proto, GEOM, POL, hi, w_hi, lo, w_lo)
    assert a == b  # argument order must not matter
    with pytest.raises(DegenerateResonanceError):
        coupling_strength(
            ResonanceKind.DIFFERENCE, proto, GEOM, POL, lo, w_lo, lo, w_lo
        )


def test_strengths_use_the_frequencies_of_the_given_spectrum():
    # on a square cross-section (1,2,1) and (2,1,1) share one geometric
    # frequency; a spectrum that gives them different frequencies drives
    # their (uncoupled) difference channel without a degeneracy error, and
    # every strength is weighted by the given frequencies, not the
    # geometry's at lambda0
    geom = RectangularGeometry(lx=1.0, ly=1.0)
    lo, hi = (0, 2, 1), (0, 2, 4)
    spec = [
        (lo, 1.0), ((0, 1, 1), 1.75), (hi, 2.5), ((1, 2, 1), 4.0), ((2, 1, 1), 7.5)
    ]
    assert mode_frequency(geom, POL, (1, 2, 1), 1.0) == mode_frequency(
        geom, POL, (2, 1, 1), 1.0
    )
    eps, omega = 0.01, 3.5
    proto = DrivingProtocol(lambda0=1.0, epsilon=eps, omega_drive=omega, tau=1.0)
    plan = classify_resonances(spec, proto, geom, POL)
    assert plan == classify_reference(spec, proto, geom, POL)
    double, pair = plan.cases
    assert (double.kind, double.k) == (ResonanceKind.DOUBLE, (0, 1, 1))
    assert double.omega_k == 1.75
    assert double.strength == pytest.approx(
        eps * omega * math.pi**2 / (4.0 * 1.75**2), rel=1e-14
    )
    assert (pair.kind, pair.k, pair.p) == (ResonanceKind.SUM, hi, lo)
    assert (pair.omega_k, pair.omega_p) == (2.5, 1.0)
    g_kp = coupling_coefficient(geom, POL, hi, lo)
    g_kp = 0.5 * (g_kp - coupling_coefficient(geom, POL, lo, hi))
    ratio = math.sqrt(2.5)
    assert pair.strength == pytest.approx(
        0.25 * eps * omega * (ratio - 1.0 / ratio) * g_kp, rel=1e-14
    )
    assert [m for m, _ in plan.adiabatic_modes] == [(1, 2, 1), (2, 1, 1)]


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


def test_a_spectrum_that_lists_a_mode_twice_is_refused():
    # the doubled mode would meet the drive twice, as two double cases in
    # one coupled group, squeezed at twice its strength
    geom = RectangularGeometry(lx=1.0, ly=0.7071)
    spec = mode_spectrum(geom, POL, 1.0, 8.0)
    w = mode_frequency(geom, POL, (1, 0, 1), 1.0)
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=2.0 * w, tau=1.0)
    assert len(classify_resonances(spec, proto, geom, POL).cases) == 1
    with pytest.raises(ValueError, match="spectrum lists mode 1:0:1 twice"):
        classify_resonances(spec + [((1, 0, 1), w)], proto, geom, POL)


def test_classify_a_thousand_mode_spectrum_like_the_reference():
    # bisection windows against the all-pairs loop on a large spectrum,
    # driven on a sum condition of two coupled modes
    spec = mode_spectrum(GEOM, POL, 1.0, 40.0)
    assert len(spec) > 1000
    w = dict(spec)
    omega = w[(1, 1, 3)] + w[(1, 1, 7)]
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=omega, tau=1.0)
    plan = classify_resonances(spec, proto, GEOM, POL)
    assert plan == classify_reference(spec, proto, GEOM, POL)
    assert any(c.k == (1, 1, 7) and c.p == (1, 1, 3) for c in plan.cases)
