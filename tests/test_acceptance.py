"""Numbered acceptance checks, one verdict line each in the summary.

Every check pits an implementation route against an independent one
(closed forms vs truncated-Fock simulation, symplectic traces vs dense
matrix exponentials, table limits vs the exact cumulants of the closed
forms, couplings vs quadrature) or against frozen golden values.
Verdicts are recorded via record_criterion before the assert fires, so
the terminal summary always carries all nine lines.
"""

import math
import shutil
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    channel_product,
    charfun_numeric,
    closed_protocol,
    compare_classical,
    drift_removed,
    record_criterion,
    scipy_root_oracle,
    synthetic_case,
)
from scipy.linalg import expm

from cavework.bessel import BesselKind, bessel_zero
from cavework.cavity import (
    CylindricalGeometry,
    MovingWall,
    Polarization,
    RectangularGeometry,
    SphericalGeometry,
    coupling_coefficient,
)
from cavework.charfun import (
    CharfunParams,
    charfun_general,
    closed_form,
    closed_form_general,
    grand_potential_diff,
    moments,
)
from cavework.cli import main as cli_main
from cavework.distributions import extract_marginal_work
from cavework.driving import ResonanceKind, interaction_generator
from cavework.charfun import classical_work_cdf
from cavework.fock import (
    TruncatedFockSpace,
    build_evolution,
    two_point_measurement,
)
from overlap_oracle import overlap_integral_oracle
from cavework.symplectic import (
    QuadraticForm,
    char_matrix,
    trace_from_char,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TAU = math.pi


def fig1_setup(variant, beta, n_single, n_pair):
    """One resonance channel at the reference operating point.

    The low mode sits at omega = 1 with beta * omega = 0.2 at the stated
    temperature; pair channels add the partner at 2 * omega.
    """
    if variant is ResonanceKind.DOUBLE:
        case = synthetic_case(variant, 1.0, None, 0.3, TAU)
        space = TruncatedFockSpace([((0, 0, 1), 1.0, 1.0)], n_single)
        proto = closed_protocol(2.0, 2)
        params = CharfunParams(variant, beta, (1.0, 1.0), 0.3)
    else:
        case = synthetic_case(variant, 2.0, 1.0, 0.3, TAU)
        space = TruncatedFockSpace(
            [((0, 0, 1), 2.0, 2.0), ((0, 0, 2), 1.0, 1.0)], n_pair
        )
        omega = 3.0 if variant is ResonanceKind.SUM else 1.0
        proto = closed_protocol(omega, int(omega))
        params = CharfunParams(variant, beta, (2.0, 2.0), 0.3, (1.0, 1.0))
    gen = interaction_generator([case])
    u_mat = build_evolution(space, gen, proto)
    return space, u_mat, params


def oracle_vs_closed(variant, beta, n_single, n_pair):
    """(max grid error, oracle residual mass, evolved top-shell leak)."""
    space, u_mat, params = fig1_setup(variant, beta, n_single, n_pair)
    dist = two_point_measurement(space, u_mat, beta)
    g_num = partial(charfun_numeric, dist)
    spacing = 2.0 if variant is ResonanceKind.DOUBLE else (
        3.0 if variant is ResonanceKind.SUM else 1.0
    )
    period = 2.0 * math.pi / spacing
    err = 0.0
    for j in range(32):
        u = period * (j + 0.5) / 32.0
        for k in range(8):
            v = 2.0 * math.pi * (k + 0.5) / 8.0
            err = max(err, abs(closed_form(params, u, v) - g_num(u, v)))
    return err, dist.residual_mass, dist.top_shell_leak


def test_criterion_1_oracle_equivalence_single_resonance():
    t0 = time.perf_counter()
    strict = {}
    aware_ok = True
    for variant in ResonanceKind:
        err, residual, leak = oracle_vs_closed(variant, 0.2, 40, 20)
        strict[variant.value] = err
        # companion: same data judged against what truncation can support
        aware_ok = aware_ok and err <= max(1e-6, 3.0 * (residual + leak))
    elapsed = time.perf_counter() - t0
    # companion: a colder cavity fits the stated single-mode cutoff and
    # meets 1e-6 once the pair modes get the same headroom
    cold = max(
        oracle_vs_closed(variant, 0.6, 40, 40)[0] for variant in ResonanceKind
    )
    worst = max(strict.values())
    ok = worst <= 1e-6 and elapsed <= 30.0
    detail = (
        f"closed vs oracle at beta*omega=0.2, stated cutoffs: max err "
        f"{worst:.2e} (tol 1e-6; per-variant "
        + ", ".join(f"{k} {v:.1e}" for k, v in strict.items())
        + f"); truncation-aware tol {'passes' if aware_ok else 'FAILS'}, "
        f"beta=0.6 n_max 40/mode {cold:.1e}; {elapsed:.1f}s"
    )
    record_criterion(1, ok, detail)
    assert aware_ok, "closed forms disagree beyond truncation allowance"
    assert cold <= 1e-6, "colder operating point must meet the strict bound"
    assert ok, detail


def random_closed_params(rng):
    variant = [ResonanceKind.DOUBLE, ResonanceKind.SUM, ResonanceKind.DIFFERENCE][
        rng.integers(3)
    ]
    beta = rng.uniform(0.05, 2.0)
    wk = rng.uniform(0.5, 3.0)
    g = rng.uniform(0.05, 0.5)
    if variant is ResonanceKind.DOUBLE:
        return CharfunParams(variant, beta, (wk, wk), g)
    wp = wk / rng.uniform(1.3, 3.5)
    return CharfunParams(variant, beta, (wk, wk), g, (wp, wp))


def stretch(pair, delta):
    return (pair[0], pair[0] * (1.0 + delta))


def swap_endpoints(params):
    rev = lambda pair: (pair[1], pair[0])  # noqa: E731
    return CharfunParams(
        params.variant,
        params.beta,
        rev(params.omega_k),
        params.g_tau,
        None if params.omega_p is None else rev(params.omega_p),
    )


def crooks_grid_error(params, evaluate, dphi, grid_u=8, grid_v=4):
    """max | G_R(-u,-v) - G_F(u + i beta, v) e^{beta dPhi} | on a grid."""
    reverse = swap_endpoints(params)
    beta = params.beta
    u, v = np.meshgrid(
        0.1 + 3.0 * np.arange(grid_u) / grid_u,
        0.1 + 5.8 * np.arange(grid_v) / grid_v,
        indexing="ij",
    )
    left = evaluate(reverse, -u, -v)
    right = evaluate(params, u + 1j * beta, v) * math.exp(beta * dphi)
    return float(np.abs(left - right).max())


def test_criterion_2_fluctuation_theorems():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    norm_err = jz_err = crooks_err = 0.0
    for _ in range(100):
        p = random_closed_params(rng)
        norm_err = max(norm_err, abs(closed_form(p, 0.0, 0.0) - 1.0))
        jz_err = max(jz_err, abs(closed_form(p, 1j * p.beta, 0.0) - 1.0))
        crooks_err = max(
            crooks_err, crooks_grid_error(p, closed_form, 0.0)
        )
    gen_jz = gen_crooks = 0.0
    for _ in range(20):
        p0 = random_closed_params(rng)
        wk = stretch(p0.omega_k, rng.uniform(-0.3, 0.4))
        wp = (
            None
            if p0.omega_p is None
            else stretch(p0.omega_p, rng.uniform(-0.3, 0.4))
        )
        p = CharfunParams(p0.variant, p0.beta, wk, p0.g_tau, wp)
        dphi = grand_potential_diff(p.frequency_pairs(), p.beta)
        gen_jz = max(
            gen_jz,
            abs(closed_form_general(p, 1j * p.beta, 0.0) - math.exp(-p.beta * dphi)),
            abs(drift_removed(p, 1j * p.beta, 0.0) - 1.0),
        )
        gen_crooks = max(gen_crooks, crooks_grid_error(p, closed_form_general, dphi))
    elapsed = time.perf_counter() - t0
    ok = (
        max(norm_err, jz_err, gen_jz) <= 1e-10
        and max(crooks_err, gen_crooks) <= 1e-9
        and elapsed <= 10.0
    )
    record_criterion(
        2,
        ok,
        f"normalization {norm_err:.1e}, Jarzynski closed {jz_err:.1e} / open "
        f"{gen_jz:.1e} (tol 1e-10); Crooks grid {crooks_err:.1e} / open "
        f"{gen_crooks:.1e} (tol 1e-9); {elapsed:.1f}s",
    )
    assert ok


def fock_trace_dense(s, n_max=100):
    """Tr exp(1/2 alpha S alpha) by literal ladder algebra, scipy expm."""
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    ops = (a, a.conj().T)
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(2):
        for j in range(2):
            h += 0.5 * s[i, j] * ops[i] @ ops[j]
    return complex(np.trace(expm(h)))


def test_criterion_3_symplectic_engine():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    trace_err = 0.0
    for _ in range(50):
        c = rng.uniform(0.6, 1.5)
        z = 0.15 * c * math.e ** (1j * rng.uniform(0.0, 2.0 * math.pi))
        s = np.array([[z, -c], [-c, np.conj(z)]])
        form = QuadraticForm(s)
        want = fock_trace_dense(form.S)
        got = trace_from_char(char_matrix(form))
        trace_err = max(trace_err, abs(got - want) / abs(want))

    single_err = 0.0
    for variant, wk, wp, omega in [
        (ResonanceKind.DOUBLE, 1.0, None, 2.0),
        (ResonanceKind.SUM, 2.0, 1.0, 3.0),
        (ResonanceKind.DIFFERENCE, 2.0, 1.0, 1.0),
    ]:
        case = synthetic_case(variant, wk, wp, 0.3, TAU)
        proto = closed_protocol(omega, int(omega))
        params = CharfunParams(
            variant, 0.4, (wk, wk), 0.3, None if wp is None else (wp, wp)
        )
        for u, v in [(0.0, 0.0), (0.7, 0.4), (-1.3, 2.1), (0.9, -0.8)]:
            single_err = max(
                single_err,
                abs(
                    charfun_general([case], proto, 0.4, u, v)
                    - closed_form(params, u, v)
                ),
            )

    # coupled squeeze + exchange group sharing the omega = 1 mode
    beta = 0.5
    dbl = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.3, TAU)
    import dataclasses

    dif = dataclasses.replace(
        synthetic_case(ResonanceKind.DIFFERENCE, 3.0, 1.0, 0.2, TAU),
        k=(0, 0, 2),
        p=(0, 0, 1),
    )
    group = [dbl, dif]
    proto = closed_protocol(2.0, 2)
    space = TruncatedFockSpace(
        [((0, 0, 1), 1.0, 1.0), ((0, 0, 2), 3.0, 3.0)], (60, 20)
    )
    u_mat = build_evolution(space, interaction_generator(group), proto)
    dist = two_point_measurement(space, u_mat, beta)
    assert dist.top_shell_leak <= 1e-8
    g_num = partial(charfun_numeric, dist)
    coupled_err = 0.0
    for u in (0.0, 0.9, -1.7, 2.6):
        for v in (0.0, 1.1, -2.3):
            coupled_err = max(
                coupled_err,
                abs(charfun_general(group, proto, beta, u, v) - g_num(u, v)),
            )
    elapsed = time.perf_counter() - t0
    ok = (
        trace_err <= 1e-8
        and single_err <= 1e-10
        and coupled_err <= 1e-6
        and elapsed <= 60.0
    )
    record_criterion(
        3,
        ok,
        f"50 Fock traces rel {trace_err:.1e} (tol 1e-8); single-channel vs "
        f"closed {single_err:.1e} (tol 1e-10); coupled group vs oracle "
        f"{coupled_err:.1e} (tol 1e-6); {elapsed:.1f}s",
    )
    assert ok


def table_entries(variant, wk, r, g):
    """(mean, variance) in the cold and hot limits of one channel."""
    if variant is ResonanceKind.DOUBLE:
        cold = (wk * math.sinh(g) ** 2, 0.5 * wk**2 * math.sinh(2 * g) ** 2)
        hot = lambda b: (  # noqa: E731
            2.0 / b * math.sinh(g) ** 2,
            4.0 / b**2 * math.cosh(2 * g) * math.sinh(g) ** 2,
        )
        return cold, hot
    if variant is ResonanceKind.SUM:
        cold = (
            (1 + r) * wk * math.sinh(g) ** 2,
            (1 + r) ** 2 / 4.0 * wk**2 * math.sinh(2 * g) ** 2,
        )
        hot = lambda b: (  # noqa: E731
            (1 + r) ** 2 / r * math.sinh(g) ** 2 / b,
            (1 + r) ** 4
            / r**2
            * (math.sinh(g) ** 2 + 2 * r / (1 + r) ** 2)
            * math.sinh(g) ** 2
            / b**2,
        )
        return cold, hot
    cold = (0.0, 0.0)
    hot = lambda b: (  # noqa: E731
        (1 - r) ** 2 / r * math.sin(g) ** 2 / b,
        (1 - r) ** 4
        / r**2
        * (math.sin(g) ** 2 + 2 * r / (1 - r) ** 2)
        * math.sin(g) ** 2
        / b**2,
    )
    return cold, hot


def test_criterion_4_table_limits():
    t0 = time.perf_counter()
    worst_cold = worst_hot = 0.0
    zeros_ok = True
    for variant, wk, wp, g in [
        (ResonanceKind.DOUBLE, 1.0, None, 0.3),
        (ResonanceKind.SUM, 2.0, 1.0, 0.25),
        (ResonanceKind.DIFFERENCE, 2.0, 1.0, 0.35),
    ]:
        r = 1.0 if wp is None else wp / wk
        cold_want, hot_want = table_entries(variant, wk, r, g)
        pair = None if wp is None else (wp, wp)

        beta_cold = 50.0 / (wk if wp is None else min(wk, wp))
        got = moments(CharfunParams(variant, beta_cold, (wk, wk), g, pair))
        if variant is ResonanceKind.DIFFERENCE:
            zeros_ok = abs(got[0]) < 1e-8 * wk and abs(got[1]) < 1e-8 * wk**2
        else:
            worst_cold = max(
                worst_cold,
                abs(got[0] - cold_want[0]) / cold_want[0],
                abs(got[1] - cold_want[1]) / cold_want[1],
            )

        beta_hot = 1e-3 / (wk if wp is None else max(wk, wp))
        want = hot_want(beta_hot)
        got = moments(CharfunParams(variant, beta_hot, (wk, wk), g, pair))
        worst_hot = max(
            worst_hot,
            abs(got[0] - want[0]) / want[0],
            abs(got[1] - want[1]) / want[1],
        )
    elapsed = time.perf_counter() - t0
    ok = worst_cold <= 1e-4 and worst_hot <= 1e-3 and zeros_ok and elapsed <= 5.0
    record_criterion(
        4,
        ok,
        f"table limits: cold rel {worst_cold:.1e} (tol 1e-4), hot rel "
        f"{worst_hot:.1e} (tol 1e-3), exchange-channel zeros "
        f"{'exact' if zeros_ok else 'VIOLATED'}; {elapsed:.1f}s",
    )
    assert ok


def fourier_masses(samples):
    """Lattice weights of a sampled characteristic function, |c_m| by index."""
    return np.abs(np.fft.fft(samples) / len(samples))


def test_criterion_5_support_structure():
    m_samp = 4096
    offenders = {}
    for variant, wk, wp, quantum in [
        (ResonanceKind.DOUBLE, 1.0, None, 2.0),
        (ResonanceKind.SUM, 2.0, 1.0, 3.0),
        (ResonanceKind.DIFFERENCE, 2.0, 1.0, 1.0),
    ]:
        params = CharfunParams(
            variant, 0.4, (wk, wk), 0.3, None if wp is None else (wp, wp)
        )
        # work: sample on the half-quantum lattice; genuine peaks may only
        # occupy even indices
        period = 2.0 * math.pi / (quantum / 2.0)
        us = period * np.arange(m_samp) / m_samp
        gs = closed_form(params, us, 0.0)
        cw = fourier_masses(gs)
        off_work = float(cw[1::2].sum())

        vs = 2.0 * math.pi * np.arange(m_samp) / m_samp
        gn = closed_form(params, 0.0, vs)
        cn = fourier_masses(gn)
        if variant is ResonanceKind.DIFFERENCE:
            off_photon = float(cn[1:].sum())
        else:
            off_photon = float(cn[1::2].sum())
        offenders[variant.value] = max(off_work, off_photon)
    worst = max(offenders.values())
    ok = worst <= 1e-10
    record_criterion(
        5,
        ok,
        "off-support mass "
        + ", ".join(f"{k} {v:.1e}" for k, v in offenders.items())
        + " (tol 1e-10)",
    )
    assert ok


# KS distances frozen at the first oracle-validated run of
# compare_classical (omega_k = 2, omega_p = 1, g tau = 0.3) over
# beta omega_k in {0.2, 0.1, 0.05, 0.02}.
KS_GOLDEN = {
    ResonanceKind.SUM: (0.111422, 0.055877, 0.027830, 0.011087),
    ResonanceKind.DIFFERENCE: (0.117280, 0.059464, 0.029791, 0.011911),
}


def test_criterion_6_classical_limit():
    betas = (0.1, 0.05, 0.025, 0.01)
    report = []
    ok = True
    for variant, quantum in [
        (ResonanceKind.SUM, 3.0),
        (ResonanceKind.DIFFERENCE, 1.0),
    ]:
        ks = []
        for beta in betas:
            params = CharfunParams(variant, beta, (2.0, 2.0), 0.3, (1.0, 1.0))
            marginal = extract_marginal_work(partial(closed_form, params), quantum)
            ks.append(
                compare_classical(
                    marginal,
                    lambda w: classical_work_cdf(variant, 0.5, 0.3, beta, w),
                )
            )
        golden = KS_GOLDEN[variant]
        ok = ok and all(abs(a - b) <= 1e-3 for a, b in zip(ks, golden))
        # the Fig. 2 operating point must sit at or below its golden
        ok = ok and ks[1] <= golden[1] + 1e-4
        ok = ok and all(a > b for a, b in zip(ks, ks[1:]))
        report.append(f"{variant.value} " + "/".join(f"{x:.4f}" for x in ks))
    record_criterion(
        6,
        ok,
        "KS exact-vs-classical "
        + "; ".join(report)
        + " matches goldens and decreases monotonically",
    )
    assert ok


def test_criterion_7_multi_resonance_factorization():
    t0 = time.perf_counter()
    beta = 0.8
    case_a = synthetic_case(ResonanceKind.DOUBLE, 1.0, None, 0.28, TAU)
    import dataclasses

    case_b = dataclasses.replace(
        synthetic_case(ResonanceKind.DOUBLE, 2.3, None, 0.2, TAU), k=(0, 0, 2)
    )
    proto = closed_protocol(2.0, 2)
    space = TruncatedFockSpace(
        [((0, 0, 1), 1.0, 1.0), ((0, 0, 2), 2.3, 2.3)], (40, 25)
    )
    gen = interaction_generator([case_a, case_b])
    u_mat = build_evolution(space, gen, proto)
    dist = two_point_measurement(space, u_mat, beta)
    assert dist.top_shell_leak <= 1e-8
    g_num = partial(charfun_numeric, dist)
    params = [
        CharfunParams.from_case(c, beta, TAU) for c in (case_a, case_b)
    ]
    err = 0.0
    for u in (0.0, 0.8, -1.9, 2.4, 3.3):
        for v in (0.0, 1.3, -2.2):
            err = max(
                err,
                abs(channel_product(params, u, v) - g_num(u, v)),
            )
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6
    record_criterion(
        7,
        ok,
        f"disjoint-channel product vs two-mode oracle {err:.1e} "
        f"(tol 1e-6); {elapsed:.1f}s",
    )
    assert ok


ROOT_CASES = [
    (BesselKind.CYL_J, 0, 1),
    (BesselKind.CYL_J, 0, 3),
    (BesselKind.CYL_J, 1, 2),
    (BesselKind.CYL_J, 2, 4),
    (BesselKind.CYL_J, 3, 1),
    (BesselKind.CYL_J_PRIME, 0, 1),
    (BesselKind.CYL_J_PRIME, 1, 1),
    (BesselKind.CYL_J_PRIME, 2, 3),
    (BesselKind.CYL_J_PRIME, 4, 2),
    (BesselKind.CYL_J_PRIME, 5, 1),
    (BesselKind.SPH_J, 1, 1),
    (BesselKind.SPH_J, 1, 4),
    (BesselKind.SPH_J, 2, 2),
    (BesselKind.SPH_J, 3, 3),
    (BesselKind.SPH_J, 5, 1),
    (BesselKind.SPH_XJ_PRIME, 1, 1),
    (BesselKind.SPH_XJ_PRIME, 1, 3),
    (BesselKind.SPH_XJ_PRIME, 2, 2),
    (BesselKind.SPH_XJ_PRIME, 3, 1),
    (BesselKind.SPH_XJ_PRIME, 4, 2),
]


def random_mode(rng, geom, pol):
    if isinstance(geom, RectangularGeometry):
        if pol is Polarization.TE:
            while True:
                kx, ky = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                if (kx, ky) != (0, 0):
                    return (kx, ky, int(rng.integers(1, 5)))
        return (
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            int(rng.integers(0, 4)),
        )
    if isinstance(geom, CylindricalGeometry):
        kz_lo = 1 if pol is Polarization.TE else 0
        return (
            int(rng.integers(0, 3)),
            int(rng.integers(1, 4)),
            int(rng.integers(kz_lo, 4)),
        )
    n = int(rng.integers(1, 4))
    l = int(rng.integers(1, 4))
    return (n, l, int(rng.integers(-l, l + 1)))


def partner_mode(rng, geom, pol, k):
    """Mode differing from k only along the driven direction."""
    if isinstance(geom, (RectangularGeometry, CylindricalGeometry)):
        lo = 1 if (isinstance(geom, RectangularGeometry) and pol is Polarization.TE) else None
        if isinstance(geom, CylindricalGeometry):
            lo = 1 if pol is Polarization.TE else 0
        elif pol is Polarization.TM:
            lo = 0
        return (k[0], k[1], int(rng.integers(lo, lo + 5)))
    return (int(rng.integers(1, 5)), k[1], k[2])


def test_criterion_8_special_functions():
    root_err = 0.0
    for kind, order, index in ROOT_CASES:
        want = scipy_root_oracle(kind, order, index)
        got = bessel_zero(kind, order, index)
        root_err = max(root_err, abs(got - want) / max(1.0, want))

    rng = np.random.default_rng(31)
    geoms = [
        RectangularGeometry(lx=0.9, ly=1.1),
        CylindricalGeometry(moving_wall=MovingWall.LONGITUDINAL, radius=1.05),
        SphericalGeometry(),
    ]
    coupling_err = 0.0
    lam_dot = 0.3
    for geom in geoms:
        for pol in Polarization:
            for trial in range(50):
                k = random_mode(rng, geom, pol)
                # mostly pairs along the driven direction (nonzero table
                # entries), some fully random ones to pin the zeros too
                if trial % 5:
                    p = partner_mode(rng, geom, pol, k)
                else:
                    p = random_mode(rng, geom, pol)
                lam = rng.uniform(0.7, 1.4)
                want = (
                    overlap_integral_oracle(geom, pol, k, p, lam, lam_dot)
                    * lam
                    / lam_dot
                )
                got = coupling_coefficient(geom, pol, k, p)
                coupling_err = max(coupling_err, abs(got - want))
    ok = root_err <= 1e-12 and coupling_err <= 1e-8
    record_criterion(
        8,
        ok,
        f"20 roots vs bracketing oracle rel {root_err:.1e} (tol 1e-12); "
        f"300 couplings vs quadrature {coupling_err:.1e} (tol 1e-8)",
    )
    assert ok


def test_criterion_9_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = str(CONFIGS / "double_res.cfg")
    names = ("work", "photons", "cumulative")

    def run_once():
        assert cli_main(["distribution", cfg]) == 0
        out = {}
        for name in names:
            path = tmp_path / "out" / "double_res" / f"double_{name}.csv"
            out[name] = path.read_bytes()
        shutil.rmtree(tmp_path / "out")
        return out

    first, second = run_once(), run_once()
    identical = all(first[n] == second[n] for n in names)
    golden = all(
        first[n] == (CONFIGS / "golden" / f"double_{n}.csv").read_bytes()
        for n in names
    )
    record_criterion(
        9,
        identical and golden,
        f"repeat runs byte-identical: {identical}; match committed goldens: "
        f"{golden}",
    )
    assert identical and golden
