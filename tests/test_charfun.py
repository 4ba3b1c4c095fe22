"""Closed-form characteristic functions and their exact identities."""

import cmath
import dataclasses
import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from cavework import charfun, cli, symplectic
from cavework.charfun import (
    CharfunParams,
    classical_alphas,
    classical_work_cdf,
    closed_form,
    closed_form_general,
    grand_potential_diff,
    moments,
)
from cavework.distributions import extract_marginal_work
from cavework.driving import (
    DrivingProtocol,
    ResonanceKind,
    interaction_generator,
)
from cavework.errors import DegenerateResonanceError
from cavework.fock import TruncatedFockSpace
from cavework.symplectic import charfun_from_generator
from conftest import (
    adiabatic_mode_factor,
    channel_params,
    classical_charfun,
    closed_protocol,
    classical_work_pdf,
    drift_removed,
    plan_of,
    same_bits,
    synthetic_case,
    verify_channel,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DOF = ResonanceKind.DOUBLE
SUF = ResonanceKind.SUM
DIF = ResonanceKind.DIFFERENCE


def make_params(variant, beta=0.5, wk=2.0, wp=1.0, g_tau=0.3, hbar=1.0):
    if variant is DOF:
        return CharfunParams(
            variant=variant, beta=beta, omega_k=(wk, wk), g_tau=g_tau, hbar=hbar
        )
    return CharfunParams(
        variant=variant,
        beta=beta,
        omega_k=(wk, wk),
        omega_p=(wp, wp),
        g_tau=g_tau,
        hbar=hbar,
    )


ALL = [make_params(v) for v in (DOF, SUF, DIF)]


def test_frozen_reference_value():
    # pinned regression point: beta*omega = 0.2, g tau = 0.3, u = pi/(2 omega)
    params = CharfunParams(variant=DOF, beta=0.2, omega_k=(1.0, 1.0), g_tau=0.3)
    val = closed_form(params, math.pi / 2.0, 0.0)
    assert val.real == pytest.approx(0.3096720794294158, abs=1e-14)
    assert abs(val.imag) < 1e-15


def test_normalization():
    for params in ALL:
        assert closed_form(params, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_jarzynski_identity_closed_endpoints():
    # equal endpoints: <e^{-beta w}> = 1 exactly, all variants
    for params in ALL:
        assert abs(closed_form(params, 1j * params.beta, 0.0) - 1.0) < 1e-12


def test_mode_exchange_symmetry():
    for variant in (SUF, DIF):
        a = make_params(variant, wk=2.0, wp=0.7)
        b = make_params(variant, wk=0.7, wp=2.0)
        for u, v in [(0.35, 0.0), (-1.1, 0.6), (0.2 + 0.1j, -0.4)]:
            assert closed_form(a, u, v) == pytest.approx(closed_form(b, u, v))


def test_general_reduces_to_closed_at_equal_endpoints():
    for params in ALL:
        for u, v in [(0.4, 0.0), (-0.8, 1.2)]:
            want = closed_form(params, u, v)
            assert abs(closed_form_general(params, u, v) - want) < 1e-13
            assert abs(drift_removed(params, u, v) - want) < 1e-13


def open_params(variant, beta=0.6, hbar=1.0):
    if variant is DOF:
        return CharfunParams(
            variant=variant, beta=beta, omega_k=(1.0, 1.3), g_tau=0.25, hbar=hbar
        )
    return CharfunParams(
        variant=variant,
        beta=beta,
        omega_k=(2.0, 2.4),
        omega_p=(1.0, 0.8),
        g_tau=0.25,
        hbar=hbar,
    )


def test_jarzynski_open_endpoints():
    # <e^{-beta w}> = e^{-beta dPhi}; equivalently g_bar(i beta) = 1
    for variant in (DOF, SUF, DIF):
        params = open_params(variant)
        dphi = grand_potential_diff(params.frequency_pairs(), params.beta)
        got = closed_form_general(params, 1j * params.beta, 0.0)
        assert abs(got - math.exp(-params.beta * dphi)) < 1e-12
        assert abs(drift_removed(params, 1j * params.beta, 0.0) - 1.0) < 1e-12


def test_zero_coupling_is_adiabatic_product():
    for variant in (DOF, SUF, DIF):
        base = open_params(variant)
        params = CharfunParams(
            variant=variant,
            beta=base.beta,
            omega_k=base.omega_k,
            omega_p=base.omega_p,
            g_tau=0.0,
        )
        for u in (0.45, -2.3):
            want = 1.0 + 0.0j
            for w0, w1 in params.frequency_pairs():
                want *= adiabatic_mode_factor(w0, w1, params.beta, u)
            assert abs(closed_form_general(params, u, 0.0) - want) < 1e-12


def test_adiabatic_factor_values():
    beta, w0, w1 = 0.7, 1.0, 1.4
    assert adiabatic_mode_factor(w0, w0, beta, 0.33) == 1.0
    got = adiabatic_mode_factor(w0, w1, beta, 1j * beta)
    want = (1.0 - math.exp(-beta * w0)) / (1.0 - math.exp(-beta * w1))
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        adiabatic_mode_factor(w0, w1, -1.0, 0.0)


def test_grand_potential_hand_sum():
    beta = 0.8
    pairs = [(1.0, 1.3), (2.0, 1.7)]
    want = sum(
        math.log(1.0 - math.exp(-beta * w1)) - math.log(1.0 - math.exp(-beta * w0))
        for w0, w1 in pairs
    ) / beta
    got = grand_potential_diff(pairs, beta)
    assert got == pytest.approx(want, rel=1e-13)
    # closed endpoints carry no free-energy change
    assert grand_potential_diff([(1.0, 1.0)], beta) == 0.0


def test_classical_charfun_is_fourier_transform_of_pdf():
    for variant, r in [(SUF, 0.5), (DIF, 0.4)]:
        g_tau, beta = 0.3, 1.3
        for u in (0.4, 1.9, -0.8):

            def ft(part, u=u):
                f = lambda w: part(
                    classical_work_pdf(variant, r, g_tau, beta, w)
                    * cmath.exp(1j * u * w)
                )
                lo = quad(f, -60.0 / beta, 0.0, limit=200)[0]
                hi = quad(f, 0.0, 60.0 / beta, limit=200)[0]
                return lo + hi

            got = ft(lambda z: z.real) + 1j * ft(lambda z: z.imag)
            want = classical_charfun(variant, r, g_tau, u / beta)
            assert abs(got - want) < 1e-9


def test_classical_cdf_matches_pdf_integral():
    variant, r, g_tau, beta = SUF, 0.5, 0.3, 1.0
    pts = np.array([-3.0, -0.7, 0.0, 0.4, 2.5])
    cdf = classical_work_cdf(variant, r, g_tau, beta, pts)
    assert np.all(np.diff(cdf) > 0.0)
    for w, c in zip(pts, cdf):
        num = quad(
            lambda x: classical_work_pdf(variant, r, g_tau, beta, x),
            -80.0,
            float(w),
            limit=400,
        )[0]
        assert c == pytest.approx(num, abs=1e-9)
    assert classical_work_cdf(variant, r, g_tau, beta, 60.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_classical_double_mean():
    # d/du_tilde of the single-mode classical form at 0 gives 2 sinh^2 g
    g_tau = 0.37
    h = 1e-6
    vals = [classical_charfun(DOF, None, g_tau, s * h) for s in (-1, 1)]
    mean = (-1j * (vals[1] - vals[0]) / (2.0 * h)).real
    assert mean == pytest.approx(2.0 * math.sinh(g_tau) ** 2, rel=1e-8)


def test_classical_degenerate_ratio_rejected():
    with pytest.raises(DegenerateResonanceError):
        classical_charfun(DIF, 1.0, 0.3, 0.2)


def test_quantum_charfun_approaches_classical_limit():
    # shrink hbar*omega/ (1/beta): the quantum G tends to the hbar->0 form
    beta, g_tau = 1.0, 0.3
    for variant, r in [(SUF, 0.5), (DIF, 0.5), (DOF, None)]:
        for u in (0.3, 1.1):
            want = classical_charfun(variant, r, g_tau, u / beta)
            errs = []
            for eta in (1e-2, 1e-3):
                wk = 2.0 * eta
                wp = None if variant is DOF else eta
                params = make_params(variant, beta=beta, wk=wk, wp=wp, g_tau=g_tau)
                errs.append(abs(closed_form(params, u, 0.0) - want))
            assert errs[1] < 1e-2 * abs(want)
            assert errs[1] < 0.2 * errs[0]


def test_moments_match_lattice_average():
    # exact cumulants vs. explicit sum over inverted peak weights
    params = make_params(SUF, beta=0.4, wk=2.0, wp=1.0, g_tau=0.3)
    peaks = extract_marginal_work(partial(closed_form, params), 3.0)
    mean_sum = sum(w * p for w, p in peaks)
    var_sum = sum((w - mean_sum) ** 2 * p for w, p in peaks)
    mean, var = moments(params)
    assert mean == pytest.approx(mean_sum, rel=1e-8)
    # the lattice sum drops sub-1e-12 tail peaks, which w^2 amplifies
    assert var == pytest.approx(var_sum, rel=1e-6)


def test_moments_refuse_open_endpoints():
    with pytest.raises(ValueError, match="closed protocol"):
        moments(CharfunParams(SUF, 0.4, (2.0, 2.2), 0.3, (1.0, 1.0)))


@pytest.mark.parametrize("name", ["moments_cold", "moments_hot"])
def test_moments_variance_matches_lattice_sum_on_sweeps(name):
    # the moments CLI prints std_w to 12 digits, so the exact variance
    # must match the lattice sum of every sweep point closely
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    protocol, plan = cli._protocol_and_plan(cfg, cli._spectrum(cfg))
    base = CharfunParams.from_case(plan.cases[0], cfg.beta, protocol.tau)
    for hbar in cfg.sweep_values:
        params = dataclasses.replace(base, hbar=hbar)
        peaks = extract_marginal_work(
            partial(closed_form, params), hbar * protocol.omega_drive
        )
        mean_sum = sum(w * p for w, p in peaks)
        var_sum = sum((w - mean_sum) ** 2 * p for w, p in peaks)
        _, var = moments(params)
        assert var == pytest.approx(var_sum, rel=1e-7), hbar


def test_plan_charfun_factorizes_over_disjoint_channels():
    # a squeezed mode and a pair on two modes of their own, one quantum 5
    protocol = closed_protocol(5.0)
    tau, beta = protocol.tau, 0.5
    case1 = synthetic_case(DOF, 2.5, None, 0.3, tau)
    case2 = dataclasses.replace(
        synthetic_case(SUF, 3.0, 2.0, 0.2, tau), k=(0, 1, 1), p=(0, 1, 2)
    )
    p1 = CharfunParams.from_case(case1, beta, tau)
    p2 = CharfunParams.from_case(case2, beta, tau)
    evaluate, _, _, _ = charfun.plan_charfun(plan_of([case1, case2]), protocol, beta)
    u, v = 0.7, -0.4
    want = closed_form(p1, u, v) * closed_form(p2, u, v)
    assert evaluate(u, v) == pytest.approx(want, rel=1e-14)


def test_plan_charfun_is_the_product_on_the_first_channels_lattice():
    protocol = closed_protocol(5.0)
    tau, beta = protocol.tau, 0.5
    double = synthetic_case(DOF, 2.5, None, 0.3, tau)

    def pair(omega_p):  # a sum channel on modes of its own, quantum 3 + omega_p
        case = synthetic_case(SUF, 3.0, omega_p, 0.2, tau)
        return dataclasses.replace(case, k=(0, 1, 1), p=(0, 1, 2))

    # quanta 5.0 and one ulp above it: the rounding of x_k + x_p
    plan = plan_of([double, pair(2.0 + math.ulp(5.0))])
    evaluate, spacing, reverse, dphi = charfun.plan_charfun(plan, protocol, beta)
    assert reverse is None and dphi == 0.0  # a closed protocol is its own reverse
    params = [CharfunParams.from_case(c, beta, tau) for c in plan.cases]
    assert spacing == charfun._drive_quantum(params[0]) == 5.0
    assert charfun._drive_quantum(params[1]) == math.nextafter(5.0, 6.0)
    u, v = np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 1.0, 3)[:, None]
    want = (1.0 + 0.0j) * closed_form(params[0], u, v) * closed_form(params[1], u, v)
    assert same_bits(evaluate(u, v), want)

    # a quantum 1e-12 off shares no lattice with the first
    with pytest.raises(ValueError, match="share no work lattice"):
        charfun.plan_charfun(plan_of([double, pair(2.0 + 1e-12)]), protocol, beta)


def test_plan_charfun_of_an_open_protocol_reverses_every_channel():
    # an open plan's G is the product of the general forms, each mode
    # ending at the plan's final frequency; its reverse swaps every
    # endpoint pair, and dPhi sums over every resonant mode
    opened = DrivingProtocol(lambda0=1.0, epsilon=0.01, omega_drive=5.0, tau=0.4)
    tau, beta = opened.tau, 0.4
    double = synthetic_case(DOF, 2.5, None, 0.3, tau)
    pair = dataclasses.replace(
        synthetic_case(SUF, 3.0, 2.0, 0.2, tau), k=(0, 1, 1), p=(0, 1, 2)
    )
    final = {(0, 0, 1): 2.6, (0, 1, 1): 3.1, (0, 1, 2): 1.9}
    plan = plan_of([double, pair], final)
    evaluate, spacing, reverse, dphi = charfun.plan_charfun(plan, opened, beta)
    assert spacing == 5.0
    assert dphi == grand_potential_diff([(2.0, 1.9), (2.5, 2.6), (3.0, 3.1)], beta)
    records = [
        CharfunParams(DOF, beta, (2.5, 2.6), double.strength * tau),
        CharfunParams(SUF, beta, (3.0, 3.1), pair.strength * tau, (2.0, 1.9)),
    ]
    swapped = [
        dataclasses.replace(
            r, omega_k=r.omega_k[::-1], omega_p=r.omega_p and r.omega_p[::-1]
        )
        for r in records
    ]
    u, v = np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 1.0, 3)[:, None]
    for got, rs in ((evaluate, records), (reverse, swapped)):
        want = (1.0 + 0.0j) * closed_form_general(rs[0], u, v)
        assert same_bits(got(u, v), want * closed_form_general(rs[1], u, v))
    # the trace formula of a coupled group needs a closed protocol
    shared = dataclasses.replace(
        synthetic_case(DIF, 7.5, 2.5, 0.2, tau), k=(0, 2, 1), p=(0, 0, 1)
    )
    coupled = plan_of([double, shared], final, groups=((0, 1),))
    with pytest.raises(ValueError, match="needs a closed protocol"):
        charfun.plan_charfun(coupled, opened, beta)


def test_plan_charfun_refuses_a_plan_with_no_channel():
    # the work lattice is a channel's quantum: with none there is no
    # lattice, and the refusal says so rather than max() of nothing
    protocol = closed_protocol(2.0)
    with pytest.raises(ValueError, match="no resonance channel, so no work lattice"):
        charfun.plan_charfun(plan_of([]), protocol, 1.0)


def test_array_charfuns_match_pointwise_at_strong_drive(monkeypatch):
    # sinh^2(1.2) ~ 2.28 at beta*omega = 0.15 winds the square-root
    # radicands fast enough that some points of each tracked batch need
    # finer steps than others
    evals = []
    tracker = symplectic.tracked_sqrt

    def counted(radicand, points, steps, anchor_tol):
        n = 0

        def rad(s, *pts):
            nonlocal n
            n += np.size(pts[0])
            return radicand(s, *pts)

        root = tracker(rad, points, steps, anchor_tol)
        evals.append((n, root.size * (1 + steps)))
        return root

    monkeypatch.setattr(charfun, "tracked_sqrt", counted)
    monkeypatch.setattr(symplectic, "tracked_sqrt", counted)

    beta, g_tau, tau = 0.15, 1.2, math.pi
    rng = np.random.default_rng(3)
    u = rng.uniform(-3.0, 3.0, (4, 6))
    v = rng.uniform(-3.0, 3.0, (4, 6))
    gen = interaction_generator([synthetic_case(DOF, 1.0, None, g_tau, tau)])
    dof = make_params(DOF, beta, wk=1.0, g_tau=g_tau)
    suf = make_params(SUF, beta, g_tau=g_tau)
    dif = make_params(DIF, beta, g_tau=g_tau)
    open_dof = CharfunParams(variant=DOF, beta=beta, omega_k=(1.0, 1.2), g_tau=g_tau)
    open_suf = CharfunParams(
        variant=SUF, beta=beta, omega_k=(2.0, 2.1), omega_p=(1.0, 0.9), g_tau=g_tau
    )
    # name: (G over arrays a, b; whether it tracks a square root)
    routes = {
        # real points lie on the strip where the root is the principal one
        "double": (lambda a, b: closed_form(dof, a, b), False),
        "sum": (lambda a, b: closed_form(suf, a, b), False),
        "difference": (lambda a, b: closed_form(dif, a, b), False),
        "open double": (lambda a, b: closed_form_general(open_dof, a, b), True),
        "open sum": (lambda a, b: drift_removed(open_suf, a, b), False),
        # off the real axis, where the classical single-mode root winds
        "classical": (
            lambda a, b: classical_charfun(DOF, None, g_tau, a + 1j * b),
            True,
        ),
        "generator": (
            lambda a, b: charfun_from_generator(gen, [1.0], tau, beta, a, b),
            True,
        ),
    }
    for name, (g, tracked) in routes.items():
        evals.clear()
        batch = g(u, v)
        assert isinstance(batch, np.ndarray) and batch.shape == u.shape, name
        batch_evals = evals[:1]
        evals.clear()
        for i in np.ndindex(u.shape):
            single = g(float(u[i]), float(v[i]))
            assert type(single) is complex, name
            assert abs(batch[i] - single) <= 1e-14 * abs(single), (name, i)
        if tracked:
            # the batch refined some points, and only as far as each one
            # alone needed
            [(n, unrefined)] = batch_evals
            assert n > unrefined, name
            assert n == sum(e for e, _ in evals), name
        else:
            assert not batch_evals and not evals, name


def test_single_mode_root_is_tracked_only_off_the_strip(monkeypatch):
    # one squeezed mode's G depends on (u, v) only through the phase
    # z = hbar omega_k u + v; on the strip 0 <= Im z <= beta hbar omega_k
    # its root is the principal one, and only the points off the strip
    # are tracked, each once
    seen = []
    tracker = symplectic.tracked_sqrt

    def recorded(radicand, points, steps, anchor_tol):
        seen.append(np.ravel(points[0]).copy())
        return tracker(radicand, points, steps, anchor_tol)

    beta, hbar = 0.5, 1.3
    params = make_params(DOF, beta, wk=1.0, g_tau=0.3, hbar=hbar)
    axis = 0.4 * np.arange(-4, 5)
    u, v = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    interior = np.random.default_rng(5).uniform(0.0, beta, u.size)
    strip_u = np.concatenate(
        [u, u + 1j * beta, u + 1j * interior, [0.0, -0.0, complex(0.0, -0.0)]]
    )
    strip_v = np.concatenate([v, v, v, [0.0, -0.0, 0.0]])
    off_u = np.concatenate([u - 0.05j, u + 1j * beta + 0.05j])
    off_v = np.concatenate([v, v])

    monkeypatch.setattr(charfun, "tracked_sqrt", recorded)
    closed_form(params, strip_u, strip_v)
    # the package's own points: inversion, Jarzynski and the Crooks grid
    verify_channel(params)
    assert not seen
    u = np.concatenate([strip_u, off_u])
    v = np.concatenate([strip_v, off_v])
    batch = closed_form(params, u, v)
    [received] = seen
    assert np.array_equal(received, off_u * hbar + off_v)
    pointwise = np.array(
        [closed_form(params, a, b) for a, b in zip(u.tolist(), v.tolist())]
    )
    # every bit, the signs of zeros included
    assert same_bits(batch, pointwise)


@pytest.mark.parametrize("name", ["double_res", "sum_res", "diff_res"])
def test_real_points_keep_the_bits_of_the_complex_evaluation(name, monkeypatch):
    # every real (u, v) that verify evaluates on a reference config, the
    # final comb grids included, takes the real-axis sines; the same
    # values passed as complex take the complex ones
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    params = channel_params(cfg)
    g = charfun._g
    checked = []

    def both(p, u, v):
        got = g(p, u, v)
        if not (np.iscomplexobj(u) or np.iscomplexobj(v)):
            want = g(p, np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
            assert same_bits(got, want)
            checked.append(np.size(got))
        return got

    monkeypatch.setattr(charfun, "_g", both)
    verify_channel(params)
    # the Crooks grid alone supplies 64 x 64 real points (its reverse side)
    assert sum(checked) > 64 * 64


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["u", "v"])
def test_non_finite_points_give_nan_without_tracking(bad, axis, monkeypatch):
    # one contract for every form: a non-finite u or v gives NaN (numpy
    # may warn), the finite points keep their values to roundoff (they
    # may leave the real-axis sines), and the single-mode forms hand no
    # such point to the branch tracker.  The exchange channel's G does
    # not depend on v, so a non-finite v leaves it finite.
    seen = []
    tracker = symplectic.tracked_sqrt

    def recorded(radicand, points, steps, anchor_tol):
        seen.append(points)
        return tracker(radicand, points, steps, anchor_tol)

    monkeypatch.setattr(charfun, "tracked_sqrt", recorded)
    for variant in (DOF, SUF, DIF):
        closed, opened = make_params(variant), open_params(variant)
        for form in (
            lambda u, v: closed_form(closed, u, v),
            lambda u, v: closed_form_general(opened, u, v),
        ):
            good = form(0.3, 0.1)
            pair = np.array([0.3 if axis == "u" else 0.1, bad])
            u, v = (pair, 0.1) if axis == "u" else (0.3, pair)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = form(u, v)
            assert got[0] == pytest.approx(good, rel=1e-14)
            if axis == "v" and variant is DIF:
                assert got[1] == got[0]
            else:
                assert np.isnan(got[1])
    assert seen == []


def test_only_the_top_edge_at_real_v_takes_the_real_sines(monkeypatch):
    # u = x + i beta at a real v takes the real-axis sines of x,
    # conjugated; a complex v, a u off the edge or a non-finite x takes
    # the complex evaluation, on which the edge's values agree
    seen = []
    sines = charfun._real_sines

    def recorded(x, a, c0, amp):
        seen.append(x.size)
        return sines(x, a, c0, amp)

    monkeypatch.setattr(charfun, "_real_sines", recorded)
    x, v = np.array([0.3, -1.7, 0.0]), np.array([0.1, -0.0, 2.5])
    for variant in (DOF, SUF, DIF):
        params = make_params(variant)
        beta = params.beta
        edge = closed_form(params, x + 1j * beta, v)
        assert seen == [3]
        assert same_bits(edge, closed_form(params, x + 1j * beta, v.astype(complex)))
        off = [
            (x + 1j * np.nextafter(beta, 0.0), v),
            (np.append(x + 1j * beta, 0.3), np.append(v, 0.1)),  # one real u
            (x + 1j * beta, v + 0j),
        ]
        for u, w in off:
            closed_form(params, u, w)
        assert seen == [3]
        with warnings.catch_warnings():  # numpy may warn at the NaN
            warnings.simplefilter("ignore", RuntimeWarning)
            got = closed_form(
                params, np.append(x, math.nan) + 1j * beta, np.append(v, 0.1)
            )
        assert seen == [3, 4]  # the sines refuse the batch: complex evaluation
        assert same_bits(got[:3], closed_form(params, x + 1j * beta, v + 0j))
        assert np.isnan(got[3])
        seen.clear()


def test_verify_tracks_no_open_endpoint_root(monkeypatch):
    seen = []
    tracker = symplectic.tracked_sqrt

    def recorded(radicand, points, steps, anchor_tol):
        seen.append([np.ravel(p).copy() for p in points])
        return tracker(radicand, points, steps, anchor_tol)

    monkeypatch.setattr(charfun, "tracked_sqrt", recorded)
    cfg = cli.load_config(str(CONFIGS / "open_endpoints.cfg"))
    with pytest.warns(UserWarning):  # its epsilon of 0.12 strains the expansion
        reference = channel_params(cfg)
    assert reference.variant is DOF and not reference.is_closed
    records = [
        reference,
        # the benchmark's inverse-temperature copies scale beta by 1.06-1.09
        dataclasses.replace(reference, beta=1.06 * reference.beta),
        dataclasses.replace(reference, beta=1.09 * reference.beta),
        CharfunParams(variant=DOF, beta=0.8, omega_k=(1.0, 1.1), g_tau=0.2),
    ]
    for params in records:
        verify_channel(params)
    assert not seen

    # off the certificate: Im u below 0 or above beta, |Re u dx| past pi,
    # a complex v; each is tracked, with exactly its coordinates
    params = records[-1]
    beta, dx = params.beta, params.omega_k[1] - params.omega_k[0]
    u = np.array(
        [0.3, 0.3 + 1j * beta, 0.3 - 0.1j, 0.3 + 1.1j * beta, 1.1 * math.pi / dx, 0.3]
    )
    v = np.array([0.2, 0.2, 0.2, 0.2, 0.2, 0.2 + 0.1j])
    batch = closed_form_general(params, u, v)
    [(got_u, got_v)] = seen
    assert same_bits(got_u, u[2:]) and same_bits(got_v, v[2:])
    pointwise = [closed_form_general(params, a, b) for a, b in zip(u, v)]
    assert same_bits(batch, np.array(pointwise))


def test_params_validation():
    with pytest.raises(ValueError):
        CharfunParams(variant=DOF, beta=-1.0, omega_k=(1.0, 1.0), g_tau=0.3)
    with pytest.raises(ValueError):
        CharfunParams(
            variant=DOF, beta=1.0, omega_k=(1.0, 1.0), omega_p=(2.0, 2.0), g_tau=0.3
        )
    with pytest.raises(ValueError):
        CharfunParams(variant=SUF, beta=1.0, omega_k=(1.0, 1.0), g_tau=0.3)
    with pytest.raises(DegenerateResonanceError):
        CharfunParams(
            variant=DIF,
            beta=1.0,
            omega_k=(1.0, 1.0),
            omega_p=(1.0 + 1e-12, 1.0),
            g_tau=0.3,
        )
    with pytest.raises(ValueError):
        CharfunParams(variant=DOF, beta=1.0, omega_k=(-1.0, 1.0), g_tau=0.3)


@pytest.mark.parametrize(
    "fields",
    [
        # each once reached G: OverflowError, overflow warnings, and a
        # BranchTrackingError that blamed the tracker
        dict(variant=DOF, beta=1.0, omega_k=(1.0, 1.0), g_tau=400.0),
        dict(variant=DOF, beta=800.0, omega_k=(1.0, 1.0), g_tau=0.3),
        dict(variant=DOF, beta=1.0, omega_k=(1.0, 1e-320), g_tau=0.3),
        # beta x_k = 700.5 at the end only
        dict(variant=SUF, beta=1.0, omega_k=(2.0, 700.5), omega_p=(1.0, 1.0), g_tau=0.3),
        # a subnormal thermal factor: G(0, 0) = 0.99999992
        dict(variant=DOF, beta=1.0, omega_k=(1e-154, 1e-154), g_tau=0.3),
        # 2 |g tau| + beta h = 600 + 116 with |g tau| below the old 355
        dict(variant=SUF, beta=11.0, omega_k=(14.0, 14.0), omega_p=(7.0, 7.0),
             g_tau=-300.0),
        # the channel quantum, then its u-period, past float range
        dict(variant=SUF, beta=1e-300, omega_k=(1.0, 1.0), omega_p=(1.0, 1.0),
             g_tau=0.3, hbar=1.7e308),
        dict(variant=DIF, beta=1e300, omega_k=(2.0, 2.0), omega_p=(1.0, 1.0),
             g_tau=0.3, hbar=1e-320),
    ],
    ids=["g_tau=400", "beta*omega=800", "beta*omega=1e-320", "open end 700.5",
         "thermal underflow", "coupling overflow", "infinite quantum",
         "infinite period"],
)
def test_records_refuse_values_outside_the_closed_forms_float_range(fields):
    with pytest.raises(ValueError):
        CharfunParams(**fields)


def test_records_accept_the_edges_of_the_float_range():
    # beta x = 700, 2 |g tau| + beta h = 710, and a thermal factor just
    # above the smallest normal float
    for params in (
        CharfunParams(variant=DOF, beta=700.0, omega_k=(1.0, 1.0), g_tau=0.3),
        CharfunParams(variant=DOF, beta=0.5, omega_k=(1.0, 1.0), g_tau=354.75),
        CharfunParams(variant=DOF, beta=1.0, omega_k=(3e-154, 3e-154), g_tau=0.3),
    ):
        g = closed_form(params, np.array([0.0, 0.3]), np.array([0.0, 0.1]))
        assert np.isfinite(g).all() and g[0] == 1.0 and abs(g[1]) <= 1.0


def test_moments_refuse_values_past_float_range():
    # h^2 = 1e400 with every thermal factor in range
    params = CharfunParams(variant=DOF, beta=1e-198, omega_k=(1e200, 1e200), g_tau=0.3)
    with pytest.raises(ValueError, match="leave float range"):
        moments(params)


@pytest.mark.parametrize(
    "call",
    [
        lambda beta: grand_potential_diff([(1.0, 1.1)], beta),
        lambda beta: grand_potential_diff([(math.nan, 1.1)], 1.0),
        lambda beta: classical_alphas(SUF, 0.5, 0.3, beta),
        lambda beta: TruncatedFockSpace([((0, 0, 1), 1.0, 1.0)], 4).thermal_weights(
            beta
        ),
        lambda beta: charfun_from_generator(
            interaction_generator([synthetic_case(DOF, 1.0, None, 0.3, 1.0)]),
            [1.0], 1.0, beta, 0.0, 0.0,
        ),
    ],
    ids=["grand potential", "grand potential omega", "classical alphas",
         "thermal weights", "generator charfun"],
)
def test_a_nan_temperature_is_refused(call):
    # beta <= 0 let NaN through: nan, or all-NaN weights
    with pytest.raises(ValueError):
        call(math.nan)


def test_from_case_maps_endpoints():
    # closed endpoints: an open protocol's end frequencies come from the
    # plan, in plan_charfun
    tau = 2.0
    case = synthetic_case(SUF, 2.0, 1.0, 0.3, tau)
    params = CharfunParams.from_case(case, beta=0.5, tau=tau)
    assert params.omega_k == (2.0, 2.0)
    assert params.omega_p == (1.0, 1.0)
    assert params.g_tau == pytest.approx(0.3)
    assert params.is_closed
