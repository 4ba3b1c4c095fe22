"""Lattice inversion, cumulative fits, and fluctuation-theorem checks."""

import json
import math

import numpy as np
import pytest

from cavework import charfun, distributions
from cavework.charfun import CharfunParams, classical_work_cdf, closed_form
from cavework.distributions import (
    CumulativeFit,
    WorkLattice,
    _adaptive_comb,
    _marginal_deviation,
    compare_classical,
    cumulative_and_fit,
    cumulative_to_csv,
    extract_channel_marginals,
    extract_marginal_photons,
    extract_marginal_work,
    marginal_to_csv,
    verify_fluctuation_theorems,
)
from cavework.driving import ResonanceKind
from cavework.errors import InversionError

DOF = ResonanceKind.DOUBLE
SUF = ResonanceKind.SUM
DIF = ResonanceKind.DIFFERENCE


def comb_eval(weights: dict, spacing: float):
    def g(u: np.ndarray) -> np.ndarray:
        return sum(p * np.exp(1j * u * m * spacing) for m, p in weights.items())

    return g


def test_work_lattice_validation():
    with pytest.raises(ValueError):
        WorkLattice(spacing=0.0)
    with pytest.raises(ValueError):
        WorkLattice(spacing=1.0, count=4)


def test_synthetic_comb_round_trip():
    spacing = 0.7
    weights = {-2: 0.1, 0: 0.5, 1: 0.25, 3: 0.15}
    peaks = extract_marginal_work(comb_eval(weights, spacing), WorkLattice(spacing))
    assert len(peaks) == 4
    for (w, p), (m, q) in zip(peaks, sorted(weights.items())):
        assert w == pytest.approx(m * spacing, abs=1e-15)
        assert p == pytest.approx(q, abs=1e-12)


def test_unit_charfun_is_a_delta_at_zero():
    peaks = extract_marginal_work(lambda u: 1.0 + 0.0j, WorkLattice(2.0))
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
            WorkLattice(spacing),
            params.variant,
        )
        assert work == extract_marginal_work(
            lambda u: closed_form(params, u, 0.0), WorkLattice(spacing)
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
        extract_marginal_work(g, WorkLattice(1.0))


def test_negative_weights_are_rejected():
    with pytest.raises(InversionError, match="negative"):
        extract_marginal_work(
            comb_eval({0: 1.5, 1: -0.5}, 1.0), WorkLattice(1.0)
        )


def test_imaginary_weights_are_rejected():
    def g(u: np.ndarray) -> np.ndarray:
        return 1.0 + 1e-6j * (np.exp(1j * u) - 1.0)

    with pytest.raises(InversionError, match="imaginary"):
        extract_marginal_work(g, WorkLattice(1.0))


def test_non_decaying_comb_stops_at_the_sample_budget():
    # a spike at the origin has equal weight on every lattice point, so
    # no sample count passes the tail test
    calls = 0

    def spike(*x: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += np.size(x[0])
        return np.where(np.logical_and.reduce([xi == 0.0 for xi in x]), 1.0, 0.0)

    with pytest.raises(InversionError, match="sample budget"):
        _adaptive_comb(spike, (1.0,), (8,))
    assert calls == sum(2**k for k in range(3, 17))  # 8 .. 2^16 samples
    calls = 0
    with pytest.raises(InversionError, match="sample budget"):
        _adaptive_comb(spike, (1.0, 2.0 * math.pi), (64, 64))
    assert calls == sum(4**k for k in range(6, 11))  # 64^2 .. 1024^2 samples


def test_joint_inversion_resolves_every_axis():
    # one peak at index 40 on one axis: 64 and 128 samples put it in the
    # outer quarter of that axis, 256 resolve it
    for g, peak in [
        (lambda u, v: np.exp(40j * u), (40, 0)),
        (lambda u, v: np.exp(40j * v), (0, 40)),
    ]:
        (su, sv), probs = _adaptive_comb(
            g, (2.0 * math.pi, 2.0 * math.pi), (64, 64)
        )
        assert probs.shape == (256, 256)
        iu, iv = np.nonzero(probs > 0.5)
        assert list(zip(su[iu].tolist(), sv[iv].tolist())) == [peak]


def test_joint_inversion_rejects_negative_weights():
    with pytest.raises(InversionError, match="negative"):
        _adaptive_comb(
            lambda u, v: 1.5 - 0.5 * np.exp(1j * (u + v)),
            (2.0 * math.pi, 2.0 * math.pi),
            (8, 8),
        )


def test_comb_weights_do_not_depend_on_the_block_size(monkeypatch):
    params = params_for(DOF, beta=1.0, g_tau=0.5, wk=1.0)

    def joint():
        return _adaptive_comb(
            lambda u, v: closed_form(params, u, v), (math.pi, 2.0 * math.pi), (64, 64)
        )

    (su, sv), want = joint()
    # the 256 x 256 grid spans four blocks of the default size
    assert want.shape == (256, 256) and want.size > distributions._BLOCK
    # one row per block, and the whole grid at once
    for block in (1, 1 << 20):
        monkeypatch.setattr(distributions, "_BLOCK", block)
        (su_b, sv_b), got = joint()
        assert np.array_equal(su_b, su) and np.array_equal(sv_b, sv)
        assert np.array_equal(got, want)


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
            rep = verify_fluctuation_theorems(
                params_for(variant, beta, g_tau, wk=spacing[variant] / 2.0)
                if variant is DOF
                else params_for(variant, beta, g_tau),
                grid=8,
                peakwise=False,
            )
            assert rep.jarzynski_direct_error is not None
            assert rep.jarzynski_direct_error < 1e-10


def test_direct_jarzynski_degrades_gracefully():
    # far outside the weak-tilt domain the route loses digits but must
    # not blow up: the noise-floor cutoff keeps the tilted tail finite
    rep = verify_fluctuation_theorems(
        params_for(DOF, beta=1.5, g_tau=0.12), grid=4, peakwise=False
    )
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
        lambda u: closed_form(params, u, 0.0), WorkLattice(2.0)
    )
    fit = cumulative_and_fit(peaks)
    assert fit.sup_distance > 0.01


def test_classical_comparison_tracks_temperature():
    g_tau, r = 0.3, 0.5
    for beta, bound, hot in [(0.05, 0.1, True), (2.5, 0.3, False)]:
        params = params_for(SUF, beta=beta, g_tau=g_tau)
        peaks = extract_marginal_work(
            lambda u: closed_form(params, u, 0.0), WorkLattice(3.0)
        )
        ks = compare_classical(
            peaks, lambda w: classical_work_cdf(SUF, r, g_tau, beta, w)
        )
        if hot:
            assert ks < bound
        else:
            assert ks > bound


def test_verify_closed_double_resonance():
    rep = verify_fluctuation_theorems(params_for(DOF, 0.5, 0.1, wk=1.0))
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
    rep = verify_fluctuation_theorems(params)
    assert rep.jarzynski_direct_error is None
    assert rep.crooks_peakwise_error is None
    assert rep.jarzynski_rhs != 1.0
    assert rep.jarzynski_abs_error < 1e-12
    assert rep.crooks_max_error < 1e-9
    assert rep.worst() < 1e-9


def test_verify_inverts_the_joint_law_once(monkeypatch):
    # a closed protocol is its own reverse, so the peakwise Crooks check
    # pairs peaks of one joint inversion; open endpoints have none
    joint_calls = []
    comb = distributions._adaptive_comb

    def counted(evaluate, periods, starts):
        if len(periods) == 2:
            joint_calls.append(periods)
        return comb(evaluate, periods, starts)

    monkeypatch.setattr(distributions, "_adaptive_comb", counted)
    verify_fluctuation_theorems(params_for(SUF, 0.8, 0.2), grid=8)
    assert len(joint_calls) == 1
    joint_calls.clear()
    open_params = CharfunParams(variant=DOF, beta=0.8, omega_k=(1.0, 1.1), g_tau=0.2)
    verify_fluctuation_theorems(open_params, grid=8)
    assert joint_calls == []


def test_verify_tracks_each_single_mode_phase_once(monkeypatch):
    # the joint comb and the Crooks grid repeat z = hbar omega_k u + v
    # across rows, and the single-mode root is tracked once per distinct z
    received = []
    sampled = []
    tracker = charfun.tracked_sqrt
    comb = distributions._adaptive_comb

    def recorded(radicand, points, steps, anchor_tol):
        z = np.ravel(points[0])
        assert np.unique(z).size == z.size
        received.append(z.size)
        return tracker(radicand, points, steps, anchor_tol)

    def counted(evaluate, periods, starts):
        def ev(*axes):
            sampled.append(np.broadcast(*axes).size)
            return evaluate(*axes)

        return comb(ev, periods, starts)

    monkeypatch.setattr(charfun, "tracked_sqrt", recorded)
    monkeypatch.setattr(distributions, "_adaptive_comb", counted)
    grid = 64
    rep = verify_fluctuation_theorems(params_for(DOF, 0.5, 0.1, wk=1.0), grid=grid)
    assert rep.worst() < 1e-10
    assert 5 * sum(received) < sum(sampled) + 2 * grid * grid


def test_perturbation_control_breaks_the_identities():
    rep = verify_fluctuation_theorems(
        params_for(DOF, 0.7, 0.25, wk=1.2), grid=8, peakwise=False,
        perturbation=1e-3,
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
            lambda u: closed_form(params, u, 0.0), WorkLattice(3.0)
        )
        fit = cumulative_and_fit(peaks)
        assert fit.sup_distance == _reference_ks(fit, fit.gaussian_cdf)
        classical = lambda w: classical_work_cdf(SUF, r, g_tau, beta, w)  # noqa: E731
        want = _reference_ks(fit, classical)
        assert compare_classical(peaks, classical) == want
        assert compare_classical(fit, classical) == want
