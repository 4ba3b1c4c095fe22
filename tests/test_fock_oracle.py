"""Truncated-Fock simulation: the brute-force reference route.

Everything here is checked against closed-form algebra, analytic
thermal sums or the dense Kronecker-product construction below, never
against another part of the simulation itself.
"""

import ast
import dataclasses
import importlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from cavework import cli
from cavework.charfun import CharfunParams, closed_form, closed_form_general
from cavework.driving import (
    DrivingProtocol,
    ResonanceKind,
    _components,
    interaction_generator,
)
from cavework import fock
from cavework.fock import (
    JointDistribution,
    TruncatedFockSpace,
    build_evolution,
    quadratic_operator,
    two_point_measurement,
)
from cavework.symplectic import QuadraticForm
from conftest import charfun_numeric, closed_protocol, synthetic_case, to_dense

DOF = ResonanceKind.DOUBLE
SUF = ResonanceKind.SUM
DIF = ResonanceKind.DIFFERENCE

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

MODE = (0, 0, 1)
MODE2 = (0, 0, 2)


def single_mode_space(n_max=30, w0=1.0, w1=None):
    return TruncatedFockSpace([(MODE, w0, w1 if w1 else w0)], n_max)


# ------------------------------------------------- dense reference route


def kron_lowering(space, j):
    """Dense truncated a_j on the product basis, by Kronecker products."""
    out = np.eye(1)
    for i, v in enumerate(space.n_max):
        m = np.diag(np.sqrt(np.arange(1.0, v + 1)), 1) if i == j else np.eye(v + 1)
        out = np.kron(out, m)
    return out


def kron_operator(space, form):
    """Dense 1/2 alpha S alpha, summed term by term as matrix products."""
    slots = [[m for m, _, _ in space.modes].index(m) for m in form.modes]
    lowers = [kron_lowering(space, j) for j in slots]
    alpha = lowers + [m.T for m in lowers]
    v = np.zeros((space.dimension, space.dimension), dtype=complex)
    for i in range(2 * form.n):
        for j in range(2 * form.n):
            s = form.S[i, j]
            if s != 0.0:
                v += 0.5 * s * (alpha[i] @ alpha[j])
    return 0.5 * (v + v.conj().T)


def dense_evolution(space, v, tau):
    """e^{-i H0 tau} e^{-i V tau} from one eigendecomposition of all of V."""
    evals, vecs = np.linalg.eigh(v)
    e0 = space.occupations() @ space.omega0()
    exp_v = (vecs * np.exp(-1j * evals * tau)) @ vecs.conj().T
    return np.exp(-1j * e0 * tau)[:, None] * exp_v


def dense_charfun(space, u_mat, beta, u, v):
    """Sum of |U|^2 p exp(i u w + i v dn) over every pair of basis states."""
    occ = space.occupations()
    w = (occ @ space.omega_tau())[:, None] - (occ @ space.omega0())[None, :]
    dn = occ.sum(axis=1)[:, None] - occ.sum(axis=1)[None, :]
    weight = np.abs(u_mat) ** 2 * space.thermal_weights(beta)[None, :]
    return complex((weight * np.exp(1j * u * w + 1j * v * dn)).sum())


def _pair(kind, wk, wp, g_tau, tau, w_end=None):
    case = synthetic_case(kind, wk, wp, g_tau, tau)
    return case, [
        (case.k, wk, w_end[0] if w_end else wk),
        (case.p, wp, w_end[1] if w_end else wp),
    ]


def reference_spaces():
    """(space, cases, protocol, beta) for each shape of coupling."""
    tau = math.pi
    dbl = synthetic_case(DOF, 1.0, None, 0.6, tau)
    space = single_mode_space(n_max=24)
    out = [pytest.param(space, [dbl], closed_protocol(2.0), 0.8, id="double")]
    for label, kind, drive in (("sum", SUF, 3.0), ("diff", DIF, 1.0)):
        case, modes = _pair(kind, 2.0, 1.0, 0.5, tau)
        space = TruncatedFockSpace(modes, 9)
        proto = closed_protocol(drive, half_periods=1)
        out.append(pytest.param(space, [case], proto, 0.7, id=label))
    # squeeze + exchange sharing the omega = 1 mode: one coupled group
    dif = dataclasses.replace(
        synthetic_case(DIF, 3.0, 1.0, 0.2, tau), k=MODE2, p=MODE
    )
    space = TruncatedFockSpace([(MODE, 1.0, 1.0), (MODE2, 3.0, 3.0)], (14, 6))
    out.append(pytest.param(space, [dbl, dif], closed_protocol(2.0), 0.9, id="coupled"))
    case, modes = _pair(SUF, 2.0, 1.0, 0.4, 1.3, w_end=(2.1, 1.05))
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.05, omega_drive=3.0, tau=1.3)
    space = TruncatedFockSpace(modes, (8, 10))
    out.append(pytest.param(space, [case], proto, 0.6, id="open_endpoints"))
    return out


@pytest.mark.parametrize("space,cases,proto,beta", reference_spaces())
def test_sector_evolution_matches_dense_reference(space, cases, proto, beta):
    gen = interaction_generator(cases)
    v = quadratic_operator(space, gen)
    v_ref = kron_operator(space, gen)
    assert np.array_equal(to_dense(v), v_ref)
    want = csgraph_sectors(*np.nonzero(v_ref), space.dimension)
    assert len(v) == len(want)
    assert all(np.array_equal(idx, w) for (idx, _), w in zip(v, want))
    u_mat = build_evolution(space, gen, proto)
    u_ref = dense_evolution(space, v_ref, proto.tau)
    assert np.abs(to_dense(u_mat) - u_ref).max() <= 1e-12
    # the dense reference leaves ~1e-17 amplitudes between sectors, so
    # compare peak by peak with a missing peak counting as 0
    dist = two_point_measurement(space, u_mat, beta)
    dist_ref = two_point_measurement(space, [(np.arange(space.dimension), u_ref)], beta)
    got = {(round(w, 9), dn): p for w, dn, p in dist.peaks}
    want = {(round(w, 9), dn): p for w, dn, p in dist_ref.peaks}
    for key in got.keys() | want.keys():
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-14, key
    for u, vv in [(0.0, 0.0), (0.7, 0.0), (-1.3, 0.9)]:
        want_g = dense_charfun(space, u_ref, beta, u, vv)
        assert abs(charfun_numeric(dist, u, vv) - want_g) <= 1e-14


@pytest.mark.parametrize("space,cases,proto,beta", reference_spaces())
def test_top_shell_leak_matches_dense_populations(space, cases, proto, beta):
    u_mat = build_evolution(space, interaction_generator(cases), proto)
    dist = two_point_measurement(space, u_mat, beta)
    pops = np.abs(to_dense(u_mat)) ** 2 @ space.thermal_weights(beta)
    want = float(pops[space.top_shell_mask()].sum())
    assert dist.top_shell_leak == pytest.approx(want, rel=1e-15, abs=0.0)


def test_sector_counts_follow_the_conserved_charge():
    tau, n_max = math.pi, 9
    dbl = synthetic_case(DOF, 1.0, None, 0.6, tau)
    v = quadratic_operator(single_mode_space(n_max=24), interaction_generator([dbl]))
    assert len(v) == 2
    for kind in (SUF, DIF):
        case, modes = _pair(kind, 2.0, 1.0, 0.5, tau)
        space = TruncatedFockSpace(modes, n_max)
        v = quadratic_operator(space, interaction_generator([case]))
        sectors = [idx for idx, _ in v]
        assert len(sectors) == 2 * n_max + 1
        occ = space.occupations()
        charge = occ[:, 0] - occ[:, 1] if kind is SUF else occ.sum(axis=1)
        assert all(len(set(charge[idx])) == 1 for idx in sectors)
        assert sorted(np.concatenate(sectors)) == list(range(space.dimension))


def charge_free_interaction():
    """(space, dense V): a Hermitian V coupling each basis state to its
    neighbour, which no quadratic form can give (they conserve parity)."""
    space = TruncatedFockSpace([(MODE, 1.0, 1.0), (MODE2, 2.0, 2.0)], (5, 4))
    rng = np.random.default_rng(7)
    dim = space.dimension
    off = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    v = np.diag(rng.normal(size=dim)) + np.diag(off, 1) + np.diag(off.conj(), -1)
    return space, v


def test_charge_free_interaction_is_one_dense_sector(monkeypatch):
    # every quadratic form conserves parity, so feed build_evolution a
    # Hermitian V that couples each basis state to its neighbour
    space, v = charge_free_interaction()
    dim = space.dimension
    assert len(_components(*np.nonzero(v), dim)) == 1
    monkeypatch.setattr(
        fock, "quadratic_operator", lambda space, form: [(np.arange(dim), v.copy())]
    )
    proto = closed_protocol(2.0)
    u_mat = build_evolution(space, None, proto)
    assert np.abs(to_dense(u_mat) - dense_evolution(space, v, proto.tau)).max() <= 1e-12


def csgraph_sectors(rows, cols, dim):
    """_components by scipy's connected_components on a (row, col) pattern."""
    pattern = csr_array((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


@pytest.mark.parametrize(
    "v",
    [
        pytest.param(to_dense(quadratic_operator(space, interaction_generator(cases))),
                     id=p.id)
        for p in reference_spaces()
        for space, cases, _, _ in [p.values]
    ]
    + [pytest.param(charge_free_interaction()[1], id="charge_free")],
)
def test_sectors_match_csgraph_components(v):
    # the stored pattern of a dense V
    pattern = (*np.nonzero(v), v.shape[0])
    got, want = _components(*pattern), csgraph_sectors(*pattern)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_sum_channel_oracle_holds_no_dim_squared_array():
    # n_k - n_p sectors of at most 46 states: V and U are block-sparse,
    # so a dense dim x dim complex array would dwarf everything stored
    case, modes = _pair(SUF, 2.0, 1.0, 0.3, math.pi)
    space = TruncatedFockSpace(modes, 45)
    dim = space.dimension
    assert dim == 2116
    gen = interaction_generator([case])
    proto = closed_protocol(3.0, half_periods=1)
    tracemalloc.start()
    try:
        u_mat = build_evolution(space, gen, proto)
        dist = two_point_measurement(space, u_mat, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.top_shell_leak <= 1e-8
    dense_bytes = dim * dim * 16
    assert peak < dense_bytes / 4, f"peak {peak / dense_bytes:.2f} x dim^2 x 16 B"


def test_space_validation():
    with pytest.raises(ValueError):
        TruncatedFockSpace([], 10)
    with pytest.raises(ValueError):
        TruncatedFockSpace([(MODE, 0.0, 1.0)], 10)
    with pytest.raises(ValueError):
        TruncatedFockSpace([(MODE, 1.0, 1.0)], 0)
    with pytest.raises(ValueError):
        TruncatedFockSpace([(MODE, 1.0, 1.0), (MODE2, 2.0, 2.0)], (3,))
    with pytest.raises(ValueError):
        single_mode_space(n_max=fock._DIM_CAP)  # one state above the cap
    big = single_mode_space(n_max=fock._DIM_CAP - 1)
    assert big.dimension == fock._DIM_CAP


@pytest.mark.parametrize("n_max", [(7,), (3, 5), (2, 1, 4)])
def test_the_occupation_table_is_built_once_and_read_only(n_max):
    modes = [((0, 0, k), float(k), float(k)) for k in range(1, len(n_max) + 1)]
    space = TruncatedFockSpace(modes, n_max)
    occ = space.occupations()
    assert space.occupations() is occ
    assert not occ.flags.writeable
    with pytest.raises(ValueError):
        occ[0, 0] = 1
    product = np.array(list(itertools.product(*(range(v + 1) for v in space.n_max))))
    assert occ.dtype == product.dtype and occ.flags.c_contiguous
    np.testing.assert_array_equal(occ, product)


def test_thermal_weights_are_geometric():
    beta, w = 1.0, 1.3
    space = single_mode_space(n_max=12, w0=w)
    p = space.thermal_weights(beta)
    ratio = math.exp(-beta * w)
    assert p[0] == pytest.approx(1.0 - ratio, rel=1e-14)
    assert np.allclose(p[1:] / p[:-1], ratio, rtol=1e-12)
    # truncated sum misses exactly the analytic geometric tail
    assert p.sum() == pytest.approx(1.0 - ratio**13, rel=1e-13)


def test_thermal_weights_near_infinite_temperature():
    # 1 - exp(-beta w) rounded to 0 at beta = 1e-300 and divided by zero
    w = 1.3
    p = single_mode_space(n_max=12, w0=w).thermal_weights(1e-300)
    assert np.array_equal(p, np.full(13, 1e-300 * w))


def test_thermal_weights_product_basis():
    space = TruncatedFockSpace([(MODE, 1.0, 1.0), (MODE2, 2.0, 2.0)], (4, 3))
    beta = 0.7
    p = space.thermal_weights(beta)
    occ = space.occupations()
    assert occ.shape == (20, 2)
    z = 1.0 / ((1.0 - math.exp(-beta)) * (1.0 - math.exp(-2.0 * beta)))
    for row, prob in zip(occ, p):
        e = row[0] * 1.0 + row[1] * 2.0
        assert prob == pytest.approx(math.exp(-beta * e) / z, rel=1e-13)


def test_trivial_evolution_is_a_single_zero_peak():
    space = single_mode_space(n_max=25)
    proto = closed_protocol(2.0)
    gen = QuadraticForm(np.zeros((2, 2)), (MODE,))
    u = build_evolution(space, gen, proto)
    dist = two_point_measurement(space, u, beta=1.0)
    # nothing moves: the leak is the thermal population of the top shell
    want = float(space.thermal_weights(1.0)[space.top_shell_mask()].sum())
    assert dist.top_shell_leak == pytest.approx(want, rel=1e-15, abs=0.0)
    assert dist.top_shell_leak <= 1e-8
    assert len(dist.peaks) == 1
    w, dn, p = dist.peaks[0]
    assert w == 0.0 and dn == 0
    assert p == pytest.approx(space.thermal_weights(1.0).sum(), rel=1e-14)
    assert dist.total_probability() + dist.residual_mass == pytest.approx(
        1.0, abs=1e-14
    )
    assert charfun_numeric(dist, 0.0, 0.0) == pytest.approx(
        dist.total_probability(), abs=1e-15
    )


def test_oracle_matches_closed_form_single_mode():
    beta, g_tau = 1.0, 0.3
    tau = math.pi
    case = synthetic_case(DOF, 1.0, None, g_tau, tau)
    space = single_mode_space(n_max=36)
    proto = closed_protocol(2.0, half_periods=2)
    assert proto.tau == tau
    u_mat = build_evolution(space, interaction_generator([case]), proto)
    dist = two_point_measurement(space, u_mat, beta)
    assert dist.top_shell_leak <= 1e-8
    params = CharfunParams(variant=DOF, beta=beta, omega_k=(1.0, 1.0), g_tau=g_tau)
    for u in np.linspace(-2.0, 2.0, 5):
        for v in (0.0, 1.1, -2.4):
            got = charfun_numeric(dist, float(u), v)
            want = closed_form(params, float(u), v)
            assert abs(got - want) < 1e-8
    u, v = np.meshgrid(np.linspace(-2.0, 2.0, 5), (0.0, 1.1, -2.4), indexing="ij")
    grid = charfun_numeric(dist, u, v)
    assert grid.shape == u.shape
    assert np.abs(grid - closed_form(params, u, v)).max() < 1e-8


def test_oracle_matches_general_endpoint_form():
    # boundary parks at a different position: endpoint frequency shifts
    beta, g_tau, w0, w1 = 0.8, 0.25, 1.0, 1.15
    tau = 1.3
    case = synthetic_case(DOF, w0, None, g_tau, tau)
    space = single_mode_space(n_max=40, w0=w0, w1=w1)
    proto = DrivingProtocol(lambda0=1.0, epsilon=0.05, omega_drive=2.0, tau=tau)
    assert not proto.is_closed
    u_mat = build_evolution(space, interaction_generator([case]), proto)
    dist = two_point_measurement(space, u_mat, beta)
    assert dist.top_shell_leak <= 1e-8
    params = CharfunParams(variant=DOF, beta=beta, omega_k=(w0, w1), g_tau=g_tau)
    for u in (0.0, 0.6, -1.4, 2.2):
        got = charfun_numeric(dist, u, 0.3)
        want = closed_form_general(params, u, 0.3)
        assert abs(got - want) < 1e-7, u


def test_pair_resonance_work_lattice():
    # sum-resonance transitions live on the integer lattice of 2a + b
    beta, g_tau = 0.9, 0.2
    tau = math.pi
    case = synthetic_case(SUF, 2.0, 1.0, g_tau, tau)
    space = TruncatedFockSpace(
        [(case.k, 2.0, 2.0), (case.p, 1.0, 1.0)], (18, 24)
    )
    proto = closed_protocol(3.0, half_periods=3)
    u_mat = build_evolution(space, interaction_generator([case]), proto)
    dist = two_point_measurement(space, u_mat, beta)
    assert dist.top_shell_leak <= 1e-8
    # pair creation changes N in steps of 2; U vanishes between the
    # n_k - n_p sectors, so forbidden transitions carry no mass at all
    off_lattice = sum(p for w, _, p in dist.peaks if abs(w - round(w)) > 1e-9)
    odd = sum(p for _, dn, p in dist.peaks if dn % 2)
    assert off_lattice == 0.0
    assert odd == 0.0
    params = CharfunParams(
        variant=SUF, beta=beta, omega_k=(2.0, 2.0), omega_p=(1.0, 1.0), g_tau=g_tau
    )
    for u, v in [(0.5, 0.0), (-1.2, 0.7)]:
        assert abs(charfun_numeric(dist, u, v) - closed_form(params, u, v)) < 1e-7


def test_truncation_leak_guard():
    case = synthetic_case(DOF, 1.0, None, 1.0, math.pi)
    space = single_mode_space(n_max=3)
    proto = closed_protocol(2.0)
    u = build_evolution(space, interaction_generator([case]), proto)
    assert to_dense(u).shape == (4, 4)
    assert two_point_measurement(space, u, 0.5).top_shell_leak > 1e-8


def test_quadratic_operator_guards():
    space = single_mode_space(n_max=6)
    aa_only = np.zeros((2, 2), dtype=complex)
    aa_only[0, 0] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        quadratic_operator(space, QuadraticForm(aa_only, (MODE,)))
    with pytest.raises(ValueError, match="not in the space"):
        quadratic_operator(space, QuadraticForm(np.zeros((2, 2)), ((9, 9, 9),)))
    with pytest.raises(ValueError, match="every space mode"):
        two = TruncatedFockSpace([(MODE, 1.0, 1.0), (MODE2, 2.0, 2.0)], (3, 3))
        quadratic_operator(two, QuadraticForm(np.zeros((2, 2))))
    pair_only = np.zeros((4, 4), dtype=complex)
    pair_only[0, 1] = pair_only[1, 0] = 1.0  # a_1 a_2 without its adjoint
    with pytest.raises(ValueError, match="Hermitian"):
        quadratic_operator(two, QuadraticForm(pair_only, (MODE, MODE2)))


def test_number_conserving_exchange_block():
    # the exchange generator commutes with total N: delta_n is always 0
    beta, g_tau = 0.7, 0.4
    tau = math.pi
    case = synthetic_case(DIF, 2.0, 1.0, g_tau, tau)
    space = TruncatedFockSpace(
        [(case.k, 2.0, 2.0), (case.p, 1.0, 1.0)], (16, 32)
    )
    proto = closed_protocol(1.0, half_periods=1)
    u_mat = build_evolution(space, interaction_generator([case]), proto)
    dist = two_point_measurement(space, u_mat, beta)
    assert dist.top_shell_leak <= 1e-8
    moved = sum(p for _, dn, p in dist.peaks if dn != 0)
    assert moved < 1e-12



def reference_marginals(dist, w_floor):
    """The CLI's own peak merger before JointDistribution.marginals: work
    peaks merge against the running mean, within 1e-9 hbar times the
    lowest frequency of the whole spectrum."""
    by_dn: dict[int, float] = {}
    for _, dn, p in dist.peaks:
        by_dn[dn] = by_dn.get(dn, 0.0) + p
    photons = sorted((dn, p) for dn, p in by_dn.items() if p > 1e-12)
    ordered = sorted((w, p) for w, _, p in dist.peaks)
    work: list[tuple[float, float]] = []
    for w, p in ordered:
        if work and abs(w - work[-1][0]) <= w_floor:
            w_prev, p_prev = work[-1]
            tot = p_prev + p
            work[-1] = ((w_prev * p_prev + w * p) / tot, tot)
        else:
            work.append((w, p))
    work = [(w, p) for w, p in work if p > 1e-12]
    return work, photons


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["diff_res", "open_endpoints"])
def test_marginals_match_the_former_cli_merger(name):
    cfg = cli.load_config(str(CONFIGS / f"{name}.cfg"))
    spectrum = cli._spectrum(cfg)
    protocol, plan = cli._protocol_and_plan(cfg, spectrum)
    dist = cli._oracle_joint(cfg, protocol, plan)
    work, photons = dist.marginals()
    want_work, want_photons = reference_marginals(
        dist, 1e-9 * cfg.hbar * min(w for _, w in spectrum)
    )
    assert photons == want_photons
    assert len(work) == len(want_work)
    for (w, p), (w_ref, p_ref) in zip(work, want_work):
        assert w == pytest.approx(w_ref, rel=1e-13, abs=1e-13)
        assert p == pytest.approx(p_ref, rel=1e-13, abs=1e-17)
    if name == "open_endpoints":
        # open endpoints put float-duplicate work values on different delta_n
        assert len(work) < len(dist.peaks)


def test_work_marginal_merges_across_delta_n_only():
    dist = JointDistribution(
        ((1.0, 0, 0.25), (1.0 + 1e-12, 2, 0.25), (3.0, 2, 0.5)), 0.0, 0.0, 1e-9
    )
    work, photons = dist.marginals()
    assert [p for _, p in work] == [0.5, 0.5]
    assert work[0][0] == pytest.approx(1.0, abs=1e-12)
    assert work[1] == (3.0, 0.5)
    assert photons == [(0, 0.25), (2, 0.75)]


def test_every_error_class_is_raised_somewhere():
    # an exception class that nothing raises is a dead export
    src = ROOT / "src" / "cavework"
    tree = ast.parse((src / "errors.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "attr", getattr(exc, "id", None)))
    assert defined - {"CaveworkError"} <= raised, sorted(defined - raised)


def test_no_module_imports_a_name_it_does_not_use():
    # an import that nothing reads, exports or marks "# noqa: F401" is
    # dead code; the standard library suffices, no linter is needed
    unused = []
    for path in sorted((ROOT / "src" / "cavework").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused, unused


def _module_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Names bound at module level: functions, classes, assignment
    targets and imports."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                defined[(alias.asname or alias.name).split(".")[0]] = node
    return defined


def test_no_private_name_is_dead_and_every_export_is_defined():
    # a module-level _private function, class or constant that no line of
    # the package reads is dead code, and an __all__ entry must name
    # something its module binds
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "cavework").glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead, missing = [], []
    for name, tree in trees.items():
        defined = _module_definitions(tree)
        for key in defined:
            if key.startswith("_") and not key.startswith("__") and key not in read:
                dead.append(f"{name}: {key}")
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                missing += [
                    f"{name}: {key}"
                    for key in ast.literal_eval(node.value)
                    if key not in defined
                ]
    assert not dead, dead
    assert not missing, missing


def test_every_exception_type_is_raised_and_exported():
    # an exception type that no line of the package raises is a dead
    # public name; the package exports exactly the live ones and its base
    errors = importlib.import_module("cavework.errors")
    types = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.CaveworkError)
        and obj is not errors.CaveworkError
    }
    raised = set()
    for path in (ROOT / "src" / "cavework").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert not types - raised, sorted(types - raised)
    exported = set(importlib.import_module("cavework").__all__)
    assert exported == types | {"CaveworkError", "__version__"}


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracer.py wraps these functions by name, at every module
    # that looks them up, and perfbench/child.py clears the root cache
    # before each invocation: deleting or rebinding one of them breaks
    # the traced benchmark pass, not the tests, unless this guard fails
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = [
        pair
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        for pair in ast.literal_eval(node.value)
    ]
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"cavework.{module}"), name, None))
    ]
    assert not missing, missing
    for module in ("cli", "distributions"):
        assert importlib.import_module(f"cavework.{module}").closed_form is closed_form
    assert callable(importlib.import_module("cavework.bessel").clear_root_cache)
