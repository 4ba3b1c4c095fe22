"""Lattice inversion, cumulative fits, and fluctuation-theorem checks."""

import dataclasses
import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cavework import charfun, cli, distributions
from cavework.charfun import (
    CharfunParams,
    classical_work_cdf,
    closed_form,
    grand_potential_diff,
)
from cavework.distributions import (
    CumulativeFit,
    _adaptive_comb,
    _marginal_deviation,
    cumulative_and_fit,
    cumulative_to_csv,
    extract_channel_marginals,
    extract_marginal_photons,
    extract_marginal_work,
    format_prob,
    marginal_to_csv,
    verify_fluctuation_theorems,
)
from cavework.driving import (
    DrivingProtocol,
    ResonanceCase,
    ResonanceKind,
)
from cavework.errors import InversionError
from conftest import (
    channel_marginals_reference,
    channel_params,
    compare_classical,
    joint_peaks,
    outer_tail,
    plan_of,
    reference_comb,
    same_bits,
    verify_channel,
)

DOF = ResonanceKind.DOUBLE
SUF = ResonanceKind.SUM
DIF = ResonanceKind.DIFFERENCE


def comb_eval(weights: dict, spacing: float):
    def g(u: np.ndarray) -> np.ndarray:
        return sum(p * np.exp(1j * u * m * spacing) for m, p in weights.items())

    return g


def test_work_lattice_validation():
    for spacing in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="spacing"):
            extract_marginal_work(lambda u: np.ones_like(u, dtype=complex), spacing)


def test_synthetic_comb_round_trip():
    spacing = 0.7
    weights = {-2: 0.1, 0: 0.5, 1: 0.25, 3: 0.15}
    peaks = extract_marginal_work(comb_eval(weights, spacing), spacing)
    assert len(peaks) == 4
    for (w, p), (m, q) in zip(peaks, sorted(weights.items())):
        assert w == pytest.approx(m * spacing, abs=1e-15)
        assert p == pytest.approx(q, abs=1e-12)


def test_unit_charfun_is_a_delta_at_zero():
    peaks = extract_marginal_work(lambda u: 1.0 + 0.0j, 2.0)
    assert peaks == [(0.0, 1.0)]


def test_photon_support_parity():
    dof = CharfunParams(variant=DOF, beta=0.6, omega_k=(1.0, 1.0), g_tau=0.4)
    peaks = extract_marginal_photons(lambda v: closed_form(dof, 0.0, v))
    assert sum(p for _, p in peaks) == pytest.approx(1.0, abs=1e-10)
    assert all(dn % 2 == 0 for dn, _ in peaks)
    assert any(dn >= 4 for dn, _ in peaks)

    dif = CharfunParams(
        variant=DIF, beta=0.6, omega_k=(2.0, 2.0), omega_p=(1.0, 1.0), g_tau=0.4
    )
    peaks = extract_marginal_photons(lambda v: closed_form(dif, 0.0, v))
    assert len(peaks) == 1
    assert peaks[0][0] == 0
    assert peaks[0][1] == pytest.approx(1.0, abs=1e-12)


def test_channel_photons_relabel_the_work_inversion():
    cases = [
        (CharfunParams(variant=DOF, beta=0.6, omega_k=(1.0, 1.0), g_tau=0.4), 2.0),
        (params_for(SUF, 0.3, 0.4), 3.0),
        (params_for(DIF, 0.3, 0.4), 1.0),
    ]
    for params, spacing in cases:
        work, photons = extract_channel_marginals(
            lambda u: closed_form(params, u, 0.0),
            spacing,
            distributions._PHOTONS_PER_QUANTUM[params.variant],
        )
        assert work == extract_marginal_work(
            lambda u: closed_form(params, u, 0.0), spacing
        )
        direct = extract_marginal_photons(lambda v: closed_form(params, 0.0, v))
        assert [dn for dn, _ in photons] == [dn for dn, _ in direct]
        for (_, p), (_, q) in zip(photons, direct):
            assert p == pytest.approx(q, abs=1e-15)
        if params.variant is DIF:
            assert photons == [(0, pytest.approx(1.0, abs=1e-15))]
        else:
            # one event, one number: delta_n = 2m at w = m * spacing
            relabelled = [(2 * round(w / spacing), p) for w, p in work]
            assert photons == relabelled


def test_incommensurate_support_is_rejected():
    # two frequencies with irrational ratio cannot share a lattice
    def g(u: np.ndarray) -> np.ndarray:
        return 0.5 * np.exp(1j * u) + 0.5 * np.exp(1j * u * math.sqrt(2.0))

    with pytest.raises(InversionError, match="Fock"):
        extract_marginal_work(g, 1.0)


def test_negative_weights_are_rejected():
    with pytest.raises(InversionError, match="negative"):
        extract_marginal_work(
            comb_eval({0: 1.5, 1: -0.5}, 1.0), 1.0
        )


def test_imaginary_weights_are_rejected():
    def g(u: np.ndarray) -> np.ndarray:
        return 1.0 + 1e-6j * (np.exp(1j * u) - 1.0)

    with pytest.raises(InversionError, match="imaginary"):
        extract_marginal_work(g, 1.0)


def test_non_decaying_comb_stops_at_the_sample_budget():
    # a spike at the origin has equal weight on every lattice point, so
    # no sample count passes the tail test
    calls = 0

    def spike(x: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += np.size(x)
        return np.where(x == 0.0, 1.0, 0.0)

    # every level keeps its samples, so the comb evaluates each point of
    # its last grid within the budget once
    with pytest.raises(InversionError, match="sample budget"):
        _adaptive_comb(spike, 1.0, 8)
    assert calls == 2**16


def test_comb_stops_at_the_first_non_finite_block():
    # a NaN G used to be sampled on ever finer combs up to the budget
    sizes = []

    def nan(x: np.ndarray) -> np.ndarray:
        sizes.append(np.size(x))
        return np.full(np.shape(x), np.nan + 0j)

    with pytest.raises(InversionError, match="not finite on the 64-sample comb"):
        _adaptive_comb(nan, 2.0 * math.pi, 64)
    assert sizes == [64]


def test_comb_rejects_negative_weights():
    with pytest.raises(InversionError, match="negative"):
        _adaptive_comb(lambda u: 1.5 - 0.5 * np.exp(1j * u), 2.0 * math.pi, 8)


def test_comb_weights_do_not_depend_on_the_block_size(monkeypatch):
    params = params_for(DOF, beta=0.4, g_tau=0.4)
    period = 2.0 * math.pi / charfun._drive_quantum(params)

    def work():
        return _adaptive_comb(lambda u: closed_form(params, u, 0.0), period, 8)

    signed, want = work()
    # the 128-point comb spans many blocks of 5 points, and its last
    # doubling evaluates its 64 new points in one block of 1 << 20
    assert len(want) == 128
    for block in (1, 5, 1 << 20):
        monkeypatch.setattr(distributions, "_BLOCK", block)
        signed_b, got = work()
        assert np.array_equal(signed_b, signed)
        assert np.array_equal(got, want)


def _closed_combs(kind):
    """(evaluate, period, start) of the work and photon combs of one
    closed channel strong enough that each grows from 8 samples."""
    params = params_for(kind, beta=0.4, g_tau=0.4)
    period = 2.0 * math.pi / charfun._drive_quantum(params)
    return [
        (lambda u: closed_form(params, u, 0.0), period, 8),
        (lambda v: closed_form(params, 0.0, v), 2.0 * math.pi, 8),
    ]


@pytest.mark.parametrize("kind", [DOF, SUF, DIF])
def test_comb_weights_equal_a_from_scratch_fft_of_the_final_grid(kind):
    # the kept samples are bit for bit the ones a fresh evaluation of the
    # final grid gives, so the weights are too
    counts = []
    for evaluate, period, start in _closed_combs(kind):
        signed, probs = _adaptive_comb(evaluate, period, start)
        assert len(signed) == len(probs)
        coeff = reference_comb(evaluate, (period,), probs.shape)
        assert np.array_equal(probs, np.clip(coeff.real, 0.0, None))
        assert outer_tail(coeff) < distributions._TAIL_TOL
        counts.append(len(probs))
    # the work comb grows, the photon comb of the beam splitter does not
    assert counts[0] > 64
    assert (counts[1] == 8) == (kind is DIF)


def test_comb_holds_under_three_grids_at_its_last_doubling():
    # a geometric law, q = 0.998, ends on 2**16 samples, four blocks.  At
    # the last doubling the comb holds the samples, the new points, the
    # weights (the FFT divided in place), the previous level's weights
    # and the outer half's magnitudes, plus G's sample blocks
    q = 0.998

    def geometric(x):
        return (1.0 - q) / (1.0 - q * np.exp(1j * x))

    tracemalloc.start()
    try:
        _, probs = _adaptive_comb(geometric, 2.0 * math.pi, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(probs) == 2**16 == 4 * distributions._BLOCK
    assert probs[3] == pytest.approx((1.0 - q) * q**3, rel=1e-12)
    grid = probs.size * 16
    assert peak < 3.25 * grid, f"peak {peak / grid:.2f} x grid"


@pytest.mark.parametrize("kind", [DOF, SUF, DIF])
def test_comb_evaluates_each_point_once(kind):
    for evaluate, period, start in _closed_combs(kind):
        points = []

        def recorded(x):
            points.append(np.array(x))
            return evaluate(x)

        _, probs = _adaptive_comb(recorded, period, start)
        points = np.concatenate(points)
        assert len(points) == probs.size, start
        assert len(np.unique(points)) == len(points), start


def params_for(variant, beta, g_tau, wk=2.0, wp=1.0):
    if variant is DOF:
        return CharfunParams(variant=DOF, beta=beta, omega_k=(wk, wk), g_tau=g_tau)
    return CharfunParams(
        variant=variant, beta=beta, omega_k=(wk, wk), omega_p=(wp, wp), g_tau=g_tau
    )


def test_marginal_deviation_counts_peaks_of_either_route():
    work, photons = [(0.0, 0.6), (2.0, 0.4)], [(0, 0.6), (2, 0.4)]
    # the same peaks, one float-shifted and one 1e-4 off, plus a 1e-2 peak
    # only the second route has
    other_work = [(1e-9, 0.6), (2.0, 0.4 - 1e-4), (4.0, 1e-2)]
    assert _marginal_deviation(work, photons, other_work, photons, 2.0) == 1e-2
    assert _marginal_deviation(other_work, photons, work, photons, 2.0) == 1e-2
    assert _marginal_deviation(work, photons, work[:1], photons, 2.0) == 0.4
    other_photons = [(0, 0.6), (2, 0.4), (4, 1e-2)]
    assert _marginal_deviation(work, photons, work, other_photons, 2.0) == 1e-2
    # work peaks pair within 1e-6 of the spacing only
    shifted = [(0.0, 0.6), (2.0 + 1e-5, 0.4)]
    assert _marginal_deviation(work, photons, shifted, photons, 2.0) == 0.4


def test_marginal_deviation_of_no_peaks_is_zero():
    assert _marginal_deviation([], [], [], [], 1.0) == 0.0


def test_direct_jarzynski_sum_weak_driving():
    # the tilted sum over inverted peaks holds to 1e-10 for weak drives;
    # the e^{beta w} tilt amplifies inversion roundoff, so the contract
    # domain keeps beta times the work quantum at or below 1.2
    rng = np.random.default_rng(11)
    spacing = {DOF: 2.0, SUF: 3.0, DIF: 1.0}
    for variant in (DOF, SUF, DIF):
        for _ in range(3):
            beta = rng.uniform(0.15, 1.2 / spacing[variant])
            g_tau = rng.uniform(0.02, 0.12)
            rep = verify_channel(
                params_for(variant, beta, g_tau, wk=spacing[variant] / 2.0)
                if variant is DOF
                else params_for(variant, beta, g_tau)
            )
            assert rep.jarzynski_direct_error is not None
            assert rep.jarzynski_direct_error < 1e-10


def test_direct_jarzynski_degrades_gracefully():
    # far outside the weak-tilt domain the route loses digits but must
    # not blow up: the noise-floor cutoff keeps the tilted tail finite
    rep = verify_channel(params_for(DOF, beta=1.5, g_tau=0.12))
    assert rep.jarzynski_direct_error < 1e-6


def test_cumulative_fit_validation_and_degenerate_case():
    with pytest.raises(ValueError):
        CumulativeFit([])
    with pytest.raises(ValueError):
        CumulativeFit([(0.0, 0.4)])
    fit = cumulative_and_fit([(1.5, 1.0)])
    assert fit.fit_skipped
    assert fit.sup_distance == 0.5
    assert fit.gaussian_cdf(1.0) == 0.0
    assert fit.gaussian_cdf(1.5) == 0.5
    assert fit.gaussian_cdf(2.0) == 1.0
    assert fit.exact_cdf(1.49) == 0.0
    assert fit.exact_cdf(1.5) == 1.0


def test_cumulative_fit_moments_and_cdf():
    fit = CumulativeFit([(-1.0, 0.5), (1.0, 0.5)])
    assert fit.mean == 0.0
    assert fit.stddev == pytest.approx(1.0)
    assert not fit.fit_skipped
    assert fit.exact_cdf(0.0) == 0.5
    assert fit.gaussian_cdf(0.0) == pytest.approx(0.5)
    # step vs smooth curve: the sup distance is attained approaching the
    # first step from below, 0.5 - Phi(-1) here
    want = 0.5 - 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))
    assert fit.sup_distance == pytest.approx(want, abs=1e-12)


def test_strong_drive_is_visibly_non_gaussian():
    params = params_for(DOF, beta=1.0, g_tau=1.2, wk=1.0)
    peaks = extract_marginal_work(
        lambda u: closed_form(params, u, 0.0), 2.0
    )
    fit = cumulative_and_fit(peaks)
    assert fit.sup_distance > 0.01


def test_classical_comparison_tracks_temperature():
    g_tau, r = 0.3, 0.5
    for beta, bound, hot in [(0.05, 0.1, True), (2.5, 0.3, False)]:
        params = params_for(SUF, beta=beta, g_tau=g_tau)
        peaks = extract_marginal_work(
            lambda u: closed_form(params, u, 0.0), 3.0
        )
        ks = compare_classical(
            peaks, lambda w: classical_work_cdf(SUF, r, g_tau, beta, w)
        )
        if hot:
            assert ks < bound
        else:
            assert ks > bound


def test_verify_closed_double_resonance():
    rep = verify_channel(params_for(DOF, 0.5, 0.1, wk=1.0))
    assert rep.jarzynski_rhs == 1.0  # closed endpoints: dPhi = 0
    assert rep.jarzynski_abs_error < 1e-12
    assert rep.jarzynski_direct_error < 1e-10
    assert rep.crooks_max_error < 1e-10
    assert rep.crooks_peakwise_error < 1e-8
    assert rep.periodicity_max_error < 1e-10
    assert rep.normalization_error < 1e-10
    assert rep.worst() < 1e-10
    blob = json.loads(rep.to_json())
    assert set(blob) == {
        "jarzynski_lhs",
        "jarzynski_rhs",
        "jarzynski_abs_error",
        "jarzynski_direct_error",
        "crooks_max_error",
        "crooks_peakwise_error",
        "periodicity_max_error",
        "normalization_error",
    }
    assert blob["jarzynski_direct_error"] == rep.jarzynski_direct_error


def test_verify_open_endpoints():
    params = CharfunParams(
        variant=DOF, beta=0.8, omega_k=(1.0, 1.1), g_tau=0.2
    )
    rep = verify_channel(params)
    assert rep.jarzynski_direct_error is None
    assert rep.crooks_peakwise_error is None
    assert rep.jarzynski_rhs != 1.0
    assert rep.jarzynski_abs_error < 1e-12
    assert rep.crooks_max_error < 1e-9
    assert rep.worst() < 1e-9


def _quantum_five_plan(*kinds, end=None):
    """A plan of mode-disjoint channels that share the work quantum 5:
    a squeezed mode at 2.5, a pair at 3 + 2, an exchange at 7 - 2, each
    mode ending at end[mode] where given."""
    freqs = {DOF: (2.5, None), SUF: (3.0, 2.0), DIF: (7.0, 2.0)}
    cases = []
    for i, kind in enumerate(kinds):
        wk, wp = freqs[kind]
        cases.append(ResonanceCase(
            kind, (0, i, 1), None if wp is None else (0, i, 2), wk, wp, 0.2, 0.0
        ))
    return plan_of(cases, end)


def _meets_every_gate(rep) -> bool:
    return (
        rep.jarzynski_abs_error <= cli._VERIFY_JARZYNSKI_TOL
        and rep.crooks_max_error <= cli._VERIFY_CROOKS_TOL
        and rep.periodicity_max_error <= cli._VERIFY_PERIODICITY_TOL
        and rep.normalization_error <= cli._VERIFY_NORMALIZATION_TOL
    )


@pytest.mark.parametrize(
    "kinds", [(DOF, SUF), (DOF, DIF), (DOF, SUF, DIF)], ids=["ds", "dd", "dsd"]
)
def test_verify_closed_disjoint_plans(kinds):
    # closed plans of two and three channels on the plan-level G: every
    # gate, and the peakwise Crooks check, which with no chemical
    # potential needs only P(w)
    protocol = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=5.0,
                               tau=2.0 * math.pi / 5.0)
    evaluate, spacing, reverse, dphi = charfun.plan_charfun(
        _quantum_five_plan(*kinds), protocol, 0.4
    )
    assert reverse is None and dphi == 0.0
    rep = verify_fluctuation_theorems(evaluate, spacing, 0.4)
    assert _meets_every_gate(rep), rep
    assert rep.crooks_peakwise_error <= 1e-8


def test_verify_checks_the_line_only_for_a_shared_photon_count():
    # per = 2 shared by two squeezing channels holds the line; the
    # exchange channel moves no photons, so a double + difference plan
    # has no line spacing u + per v and passes only with per = None
    protocol = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=5.0,
                               tau=2.0 * math.pi / 5.0)
    shared = charfun.plan_charfun(_quantum_five_plan(DOF, SUF), protocol, 0.4)
    rep = verify_fluctuation_theorems(*shared[:2], 0.4, per=2)
    assert _meets_every_gate(rep), rep
    evaluate, spacing, _, _ = charfun.plan_charfun(
        _quantum_five_plan(DOF, DIF), protocol, 0.4
    )
    for per in (2, 0):
        rep = verify_fluctuation_theorems(evaluate, spacing, 0.4, per=per)
        assert rep.periodicity_max_error > cli._VERIFY_PERIODICITY_TOL, per


def test_verify_open_two_channel_plan():
    # an open plan: the reverse swaps every channel's endpoints and dPhi
    # sums over all three modes; nothing is inverted
    protocol = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=5.0, tau=0.4)
    final = {(0, 0, 1): 2.6, (0, 1, 1): 3.1, (0, 1, 2): 1.9}
    plan = _quantum_five_plan(DOF, SUF, end=final)
    evaluate, spacing, reverse, dphi = charfun.plan_charfun(plan, protocol, 0.4)
    start = {(0, 0, 1): 2.5, (0, 1, 1): 3.0, (0, 1, 2): 2.0}
    assert dphi == pytest.approx(
        grand_potential_diff([(start[m], final[m]) for m in start], 0.4), rel=1e-14
    )
    rep = verify_fluctuation_theorems(
        evaluate, spacing, 0.4, reverse=reverse, dphi=dphi
    )
    assert _meets_every_gate(rep), rep
    assert rep.jarzynski_rhs != 1.0
    assert rep.jarzynski_direct_error is None and rep.crooks_peakwise_error is None


def test_verify_inverts_once(monkeypatch):
    # a closed protocol is its own reverse and a single channel's joint
    # peaks sit at (m, per * m), so the peakwise Crooks check reads them
    # off the one 1-D work inversion; open endpoints invert nothing
    calls = []
    comb = distributions._adaptive_comb

    def counted(evaluate, period, start):
        calls.append(start)
        return comb(evaluate, period, start)

    monkeypatch.setattr(distributions, "_adaptive_comb", counted)
    for variant in (DOF, SUF, DIF):
        rep = verify_channel(params_for(variant, 0.8, 0.2))
        assert rep.crooks_peakwise_error < 1e-8
        assert calls == [256]
        calls.clear()
    open_params = CharfunParams(variant=DOF, beta=0.8, omega_k=(1.0, 1.1), g_tau=0.2)
    verify_channel(open_params)
    assert calls == []


def test_verify_evaluates_g_once_per_edge_of_the_strip(monkeypatch):
    # outside the work inversion, a closed plan costs one call on the
    # real axis and one on the top edge Im u = beta; an open one adds one
    # call of its reverse
    calls, inside = [], []
    weights = distributions._work_weights

    def inverting(evaluate, spacing):
        calls.append("inversion")
        inside.append(True)
        try:
            return weights(evaluate, spacing)
        finally:
            inside.pop()

    def counted(name, g):
        def call(u, v):
            if not inside:
                calls.append(name)
            return g(u, v)

        return call

    monkeypatch.setattr(distributions, "_work_weights", inverting)
    for variant in (DOF, SUF, DIF):
        params = params_for(variant, 0.8, 0.2)
        verify_fluctuation_theorems(
            counted("forward", lambda u, v: charfun._g(params, u, v)),
            charfun._drive_quantum(params), params.beta,
            per=distributions._PHOTONS_PER_QUANTUM[variant],
        )
        assert calls == ["forward", "forward", "inversion"]
        calls.clear()
    protocol = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=5.0, tau=0.4)
    final = {(0, 0, 1): 2.6, (0, 1, 1): 3.1, (0, 1, 2): 1.9}
    evaluate, spacing, reverse, dphi = charfun.plan_charfun(
        _quantum_five_plan(DOF, SUF, end=final), protocol, 0.4
    )
    verify_fluctuation_theorems(
        counted("forward", evaluate), spacing, 0.4,
        reverse=counted("reverse", reverse), dphi=dphi,
    )
    assert calls == ["forward", "forward", "reverse"]


def _peak_loops_reference(signed, probs, spacing, beta):
    """(jarzynski_direct_error, crooks_peakwise_error) of a closed
    protocol by loops over the weights as a dict {m: p}: m = 1..half on
    each side for the tilted sum, every weight for the peak pairs."""
    weights = dict(zip(signed.tolist(), probs.tolist()))
    half = max(abs(m) for m in weights)
    total = weights[0]
    for m in range(1, half + 1):
        p = weights.get(m, 0.0)
        if p > distributions._NOISE_FLOOR:
            total += p * math.exp(-beta * m * spacing)
    prev = math.inf
    for m in range(1, half + 1):
        p = weights.get(-m, 0.0)
        if p < distributions._NOISE_FLOOR or p > prev:
            break
        total += p * math.exp(beta * m * spacing)
        prev = p
    peak_err = 0.0
    for m, p in weights.items():
        q = weights.get(-m, 0.0)
        if p >= 1e-8 and q >= 1e-8:
            tilted = q * math.exp(beta * (m * spacing))
            peak_err = max(peak_err, abs(p - tilted) / max(p, tilted))
    return abs(total - 1.0), peak_err


@pytest.mark.parametrize("factor", [0.37, 1.0, 3.1])
@pytest.mark.parametrize("name", ["double_res", "sum_res", "diff_res", "cumulative_sum"])
def test_the_peak_masks_keep_the_loops_bits(name, factor, monkeypatch):
    # the direct Jarzynski sum and the peakwise Crooks ratio visit only
    # the peaks that count, by array masks, with the loops' terms in the
    # loops' order
    params = _reference_params(name, factor)
    inverted = []
    weights = distributions._work_weights

    def kept(evaluate, spacing):
        inverted.append(weights(evaluate, spacing))
        return inverted[-1]

    monkeypatch.setattr(distributions, "_work_weights", kept)
    rep = verify_channel(params)
    [(signed, probs)] = inverted
    want = _peak_loops_reference(
        signed, probs, charfun._drive_quantum(params), params.beta
    )
    assert (rep.jarzynski_direct_error, rep.crooks_peakwise_error) == want
    assert rep.crooks_peakwise_error > 0.0  # some peaks pair up


def _reference_params(name: str, factor: float) -> CharfunParams:
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    cfg = dataclasses.replace(cfg, beta=cfg.beta * factor)
    return channel_params(cfg)


@pytest.mark.parametrize("factor", [0.37, 1.0, 3.1])
@pytest.mark.parametrize("name", ["double_res", "sum_res", "diff_res", "cumulative_sum"])
def test_joint_law_of_a_single_channel_is_its_work_law_on_a_line(name, factor):
    # a 2-D joint comb on the work comb's M u-samples puts no mass off
    # delta_n = per * m and gives each peak on it the work weight that
    # verify pairs; the hot cumulative_sum grid is 2048 x 4096 samples
    params = _reference_params(name, factor)
    spacing = charfun._drive_quantum(params)
    per = distributions._PHOTONS_PER_QUANTUM[params.variant]
    signed, work = distributions._work_weights(
        lambda u: charfun._g(params, u, 0.0), spacing
    )
    counts = (len(work), max(64, per * len(work)))
    evaluate = functools.partial(charfun._g, params)
    (su, sv), coeff = joint_peaks(evaluate, spacing, counts)
    assert outer_tail(coeff) < distributions._TAIL_TOL
    joint = np.clip(coeff.real, 0.0, None)
    del coeff
    on_line = sv[None, :] == per * su[:, None]
    assert joint[~on_line].sum() < 1e-12
    line = dict(zip(su[on_line.any(axis=1)].tolist(), joint[on_line].tolist()))
    direct = dict(zip(signed.tolist(), work.tolist()))
    for m in line.keys() | direct.keys():
        assert abs(line.get(m, 0.0) - direct.get(m, 0.0)) <= 1e-12, m


@pytest.mark.parametrize("factor", [0.37, 1.0, 3.1])
@pytest.mark.parametrize("name", ["double_res", "sum_res", "diff_res", "cumulative_sum"])
def test_channel_marginals_keep_the_bits_of_the_per_sample_relabelling(name, factor):
    # a squeezing channel takes its photon peaks as the work weights at
    # delta_n = per * m, the exchange channel one fsum of them at 0
    params = _reference_params(name, factor)
    spacing = charfun._drive_quantum(params)

    def evaluate(u):
        return charfun._g(params, u, 0.0)

    per = distributions._PHOTONS_PER_QUANTUM[params.variant]
    got = extract_channel_marginals(evaluate, spacing, per)
    signed, probs = distributions._work_weights(evaluate, spacing)
    want = channel_marginals_reference(signed, probs, spacing, per)
    for mine, ref in zip(got, want):
        assert same_bits(np.array(mine, dtype=float), np.array(ref, dtype=float))
    assert all(type(dn) is int for dn, _ in got[1])
    assert (len(got[1]) == 1) == (params.variant is DIF)


def test_verify_catches_a_g_that_leaves_the_line(monkeypatch):
    # 1 + 0.01 (cos v - 1) keeps normalization, both periods, the work law
    # G(u, 0) and the Crooks grid, but spreads delta_n off per * m; only
    # the line-support part of periodicity_max_error can see it
    g = charfun._g

    def off_line(p, u, v):
        return g(p, u, v) * (1.0 + 0.01 * (np.cos(v) - 1.0))

    for variant in (DOF, SUF, DIF):
        params = params_for(variant, 0.8, 0.2)
        clean = verify_channel(params)
        with monkeypatch.context() as m:
            m.setattr(charfun, "_g", off_line)
            rep = verify_channel(params)
        assert clean.periodicity_max_error < 1e-12
        assert rep.periodicity_max_error > 1e-8
        assert max(rep.normalization_error, rep.jarzynski_abs_error) < 1e-12
        assert rep.crooks_max_error < 1e-12
        assert rep.crooks_peakwise_error == clean.crooks_peakwise_error


def test_verify_tracks_no_single_mode_root(monkeypatch):
    # every point verify evaluates on a closed single mode has its phase
    # z = hbar omega_k u + v on the strip 0 <= Im z <= beta hbar omega_k,
    # where the principal root is the branch; a point below it is tracked
    received = []
    tracker = charfun.tracked_sqrt

    def recorded(radicand, points, steps, anchor_tol):
        received.append(np.ravel(points[0]).copy())
        return tracker(radicand, points, steps, anchor_tol)

    monkeypatch.setattr(charfun, "tracked_sqrt", recorded)
    params = params_for(DOF, 0.5, 0.1, wk=1.0)
    rep = verify_channel(params)
    assert rep.worst() < 1e-10 and rep.crooks_peakwise_error < 1e-8
    assert received == []
    closed_form(params, np.array([0.3, 0.3 - 0.05j]), 0.2)
    [z] = received
    assert z.tolist() == [0.5 - 0.05j]


def test_perturbation_control_breaks_the_identities():
    rep = verify_channel(
        params_for(DOF, 0.7, 0.25, wk=1.2), perturbation=1e-3,
    )
    assert rep.normalization_error > 5e-4
    assert rep.jarzynski_abs_error > 5e-4
    assert rep.worst() > 5e-4


def test_marginal_to_csv_text():
    assert (
        marginal_to_csv([(0.0, 0.75), (2.0, 0.25)])
        == "w,prob\n0,0.75\n2,0.25\n"
    )
    assert (
        marginal_to_csv([(-2, 0.1), (0, 0.9)], kind="photons")
        == "delta_n,prob\n-2,0.1\n0,0.9\n"
    )
    with pytest.raises(ValueError):
        marginal_to_csv([], kind="energy")


def test_cumulative_to_csv_text():
    fit = cumulative_and_fit([(1.0, 1.0)])
    assert cumulative_to_csv(fit) == "w,F_exact,F_gauss,F_classical\n1,1,,\n"
    got = cumulative_to_csv(fit, classical_cdf=lambda w: 0.25)
    assert got == "w,F_exact,F_gauss,F_classical\n1,1,,0.25\n"
    fit2 = cumulative_and_fit([(-1.0, 0.5), (1.0, 0.5)])
    lines = cumulative_to_csv(fit2).strip().split("\n")
    assert lines[0] == "w,F_exact,F_gauss,F_classical"
    assert len(lines) == 3
    w, f_exact, f_gauss, f_cls = lines[1].split(",")
    assert (w, f_exact, f_cls) == ("-1", "0.5", "")
    assert float(f_gauss) == pytest.approx(fit2.gaussian_cdf(-1.0))


def test_csv_prints_inverted_probabilities_to_resolved_digits():
    # rows >= 1e-3 keep all 12 significant digits
    big = 0.00123456789012345
    assert marginal_to_csv([(0.0, big)]) == f"w,prob\n0,{big:.12g}\n"
    assert marginal_to_csv([(0.0, 0.123456789012345)]) == (
        "w,prob\n0,0.123456789012\n"
    )
    # a tail peak prints to 1e-14 absolute, rounded once from the float
    assert marginal_to_csv([(-2, 1.3287178032e-12)], kind="photons") == (
        "delta_n,prob\n-2,1.33e-12\n"
    )
    # below 1e-3 the 1e-14 resolution is coarser than 12 digits
    assert marginal_to_csv([(1.0, 9.8765432109876e-4)]) == (
        "w,prob\n1,0.0009876543211\n"
    )
    assert marginal_to_csv([(0.0, 3e-15), (1.0, 7e-15)]) == "w,prob\n0,0\n1,1e-14\n"


def test_cumulative_f_exact_follows_the_print_rule():
    tail = 1.3287178032e-12
    fit = cumulative_and_fit([(-1.0, tail), (1.0, 1.0 - tail)])
    lines = cumulative_to_csv(fit).strip().split("\n")
    assert lines[1].split(",")[:2] == ["-1", "1.33e-12"]
    assert lines[2].split(",")[:2] == ["1", "1"]
    big = 0.00123456789012345
    fit = cumulative_and_fit([(-1.0, big), (1.0, 1.0 - big)])
    lines = cumulative_to_csv(fit).strip().split("\n")
    assert lines[1].split(",")[1] == f"{big:.12g}"


def _reference_ks(fit, cdf):
    """The two Kolmogorov-Smirnov loops the package once kept apart."""
    worst = 0.0
    below = 0.0
    for (w, _), after in zip(fit.peaks, fit._cum):
        c = float(cdf(w))
        worst = max(worst, abs(after - c), abs(below - c))
        below = float(after)
    return worst


def test_one_ks_method_is_bit_identical_to_both_loops():
    g_tau, r = 0.3, 0.5
    for beta in (0.05, 2.5):
        params = params_for(SUF, beta=beta, g_tau=g_tau)
        peaks = extract_marginal_work(
            lambda u: closed_form(params, u, 0.0), 3.0
        )
        fit = cumulative_and_fit(peaks)
        assert fit.sup_distance == _reference_ks(fit, fit.gaussian_cdf)
        classical = lambda w: classical_work_cdf(SUF, r, g_tau, beta, w)  # noqa: E731
        want = _reference_ks(fit, classical)
        assert compare_classical(peaks, classical) == want
        assert compare_classical(fit, classical) == want


def _reference_gaussian(fit, w):
    """The fitted Gaussian CDF at one float w, as math.erf gives it."""
    return 0.5 * (1.0 + math.erf((w - fit.mean) / (fit.stddev * math.sqrt(2.0))))


def _reference_cumulative_csv(fit, classical_cdf=None):
    """The per-row cumulative writer: one CDF call per peak."""
    lines = ["w,F_exact,F_gauss,F_classical"]
    for (w, _), after in zip(fit.peaks, fit._cum):
        gauss = "" if fit.fit_skipped else f"{_reference_gaussian(fit, w):.12g}"
        cls = "" if classical_cdf is None else f"{float(classical_cdf(w)):.12g}"
        lines.append(f"{w:.12g},{format_prob(after)},{gauss},{cls}")
    return "\n".join(lines) + "\n"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def golden_marginals():
    """(name, work peaks, classical CDF or None) of the four golden
    configs and of copies at 0.37 and 3.1 times their beta, computed as
    `cavework distribution` computes them."""
    for name in ("double_res", "sum_res", "diff_res", "cumulative_sum"):
        base = cli.load_config(str(CONFIGS / f"{name}.cfg"))
        for factor in (1.0, 0.37, 3.1):
            cfg = dataclasses.replace(base, beta=base.beta * factor)
            protocol, plan = cli._protocol_and_plan(cfg, cli._spectrum(cfg))
            evaluate, spacing, _, _ = charfun.plan_charfun(plan, protocol, cfg.beta)
            work = extract_marginal_work(lambda u: evaluate(u, 0.0), spacing)
            (case,) = plan.cases
            classical = None
            if case.kind is not DOF:
                r = case.omega_p / case.omega_k
                g_tau = abs(case.strength) * protocol.tau
                classical = functools.partial(
                    classical_work_cdf, case.kind, r, g_tau, cfg.beta
                )
            yield f"{name} x{factor}", work, classical


def test_cumulative_csv_columns_are_bit_identical_to_the_per_row_writer():
    for name, work, classical in golden_marginals():
        fit = cumulative_and_fit(work)
        assert not fit.fit_skipped, name
        assert cumulative_to_csv(fit) == _reference_cumulative_csv(fit), name
        got = cumulative_to_csv(fit, classical)
        assert got == _reference_cumulative_csv(fit, classical), name
        gauss = functools.partial(_reference_gaussian, fit)
        assert fit.sup_distance == _reference_ks(fit, gauss), name
        if classical is not None:
            assert compare_classical(fit, classical) == _reference_ks(fit, classical)
    # a fit-skipped marginal, and constant CDFs that return one scalar
    for peaks in ([(1.5, 1.0)], [(-2.0, 0.25), (0.0, 0.5), (3.0, 0.25)]):
        fit = cumulative_and_fit(peaks)
        for cdf in (None, lambda w: 0.25, lambda w: 1):
            assert cumulative_to_csv(fit, cdf) == _reference_cumulative_csv(fit, cdf)
        quarter = lambda w: 0.25  # noqa: E731
        assert compare_classical(fit, quarter) == _reference_ks(fit, quarter)


def test_gaussian_column_is_math_erf_per_element():
    fit = CumulativeFit([(-1.0, 0.2), (0.5, 0.5), (4.0, 0.3)])
    w = np.linspace(-8.0, 12.0, 201)
    want = [_reference_gaussian(fit, x) for x in w.tolist()]
    assert np.array_equal(fit.gaussian_cdf(w), want)
    grid = fit.gaussian_cdf(w.reshape(3, 67))
    assert np.array_equal(grid, np.reshape(want, (3, 67)))
    assert fit.gaussian_cdf(0.5) == _reference_gaussian(fit, 0.5)
    assert fit.gaussian_cdf(np.empty(0)).shape == (0,)
