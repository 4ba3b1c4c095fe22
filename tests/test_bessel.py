"""Root finder and recurrence evaluators against scipy, and the array
recurrence against the scalar one."""

import math
import random
import sys
import threading

import numpy as np
import pytest
from scipy import special

from conftest import scipy_root_oracle
from cavework import bessel
from cavework.bessel import BesselKind, bessel_zero, clear_root_cache
from spectrum_oracle import (
    ScalarRoots,
    cyl_family,
    cyl_j,
    cyl_j_prime,
    sph_family,
    sph_j,
    sph_xj_prime,
)


def test_cylinder_values_match_scipy():
    xs = [0.3, 1.7, 4.2, 9.9, 17.5]
    for order in range(0, 7):
        for x in xs:
            assert cyl_j(order, x) == pytest.approx(special.jv(order, x), abs=1e-13)
            assert cyl_j_prime(order, x) == pytest.approx(
                special.jvp(order, x), abs=1e-13
            )


def test_spherical_values_match_scipy():
    xs = [0.4, 2.1, 6.3, 11.0]
    for order in range(0, 6):
        for x in xs:
            assert sph_j(order, x) == pytest.approx(
                special.spherical_jn(order, x), abs=1e-13
            )
    # the Riccati-Bessel derivative only enters for l >= 1 modes
    for order in range(1, 6):
        for x in xs:
            want = special.spherical_jn(order, x) + x * special.spherical_jn(
                order, x, derivative=True
            )
            assert sph_xj_prime(order, x) == pytest.approx(want, abs=1e-13)
    with pytest.raises(ValueError, match="order"):
        sph_xj_prime(0, 1.0)


def test_array_recurrence_is_the_scalar_one_bit_for_bit():
    # one batch of (order, x) pairs that spans orders, as the root finder
    # runs it: small and large x, below and above each order
    rng = np.random.default_rng(7)
    order = rng.integers(0, 45, 600)
    x = np.concatenate([rng.uniform(0.05, 2.0, 100), rng.uniform(0.5, 90.0, 500)])
    fam = bessel._cyl_family(order, x)
    for row, n, xv in zip(fam, order.tolist(), x.tolist()):
        assert row[: n + 1].tolist() == cyl_family(n, xv)
    order = np.maximum(order, 1)
    fam = bessel._sph_family(order, x)
    for row, n, xv in zip(fam, order.tolist(), x.tolist()):
        assert row[: n + 1].tolist() == sph_family(n, xv)


@pytest.mark.parametrize(
    "kind,order,index",
    [
        (BesselKind.CYL_J, 0, 1),
        (BesselKind.CYL_J, 2, 3),
        (BesselKind.CYL_J_PRIME, 0, 1),
        (BesselKind.CYL_J_PRIME, 4, 2),
        (BesselKind.SPH_J, 1, 1),
        (BesselKind.SPH_J, 3, 4),
        (BesselKind.SPH_XJ_PRIME, 1, 1),
        (BesselKind.SPH_XJ_PRIME, 2, 3),
    ],
)
def test_roots_match_bracketing_oracle(kind, order, index):
    mine = bessel_zero(kind, order, index)
    ref = scipy_root_oracle(kind, order, index)
    assert abs(mine - ref) <= 1e-12 * max(1.0, ref)


def test_roots_are_actual_zeros():
    # the defining property, independent of any reference implementation
    x = bessel_zero(BesselKind.CYL_J, 1, 2)
    assert abs(special.jv(1, x)) < 1e-12
    x = bessel_zero(BesselKind.SPH_XJ_PRIME, 2, 1)
    h = 1e-7
    dfx = ((x + h) * special.spherical_jn(2, x + h) - (x - h) * special.spherical_jn(2, x - h)) / (2 * h)
    assert abs(dfx) < 1e-6


def test_root_ordering_and_cache():
    clear_root_cache()
    roots = [bessel_zero(BesselKind.CYL_J, 0, i) for i in range(1, 6)]
    assert roots == sorted(roots)
    assert all(b - a > 1.0 for a, b in zip(roots, roots[1:]))
    # cached lookup returns the identical float
    again = bessel_zero(BesselKind.CYL_J, 0, 3)
    assert again == roots[2]


def test_invalid_arguments_rejected():
    with pytest.raises(Exception):
        bessel_zero(BesselKind.CYL_J, -1, 1)
    with pytest.raises(Exception):
        bessel_zero(BesselKind.CYL_J, 0, 0)
    # a non-integral order or index is refused before any root is sought
    for order, index in [(1.5, 1), (0, 1.5), (2.0, 1), ("2", 1), (None, 1)]:
        with pytest.raises(ValueError, match="integer"):
            bessel_zero(BesselKind.CYL_J, order, index)
    with pytest.raises(ValueError, match="integer"):
        bessel_zero(BesselKind.SPH_XJ_PRIME, 2, np.float64(3.0))
    # a table without end, or without a reach, is refused, not searched
    for x_max in (math.inf, -math.inf, math.nan, "inf"):
        with pytest.raises(ValueError, match="finite"):
            bessel.root_table(BesselKind.CYL_J, x_max)
    # numpy integers are integers
    assert bessel_zero(BesselKind.CYL_J, np.int64(2), np.int32(3)) == bessel_zero(
        BesselKind.CYL_J, 2, 3
    )


def test_first_root_values_hand_checked():
    # classic table values, 7 digits
    assert bessel_zero(BesselKind.CYL_J, 0, 1) == pytest.approx(2.4048256, abs=1e-6)
    assert bessel_zero(BesselKind.CYL_J_PRIME, 1, 1) == pytest.approx(1.8411838, abs=1e-6)
    assert bessel_zero(BesselKind.SPH_J, 1, 1) == pytest.approx(4.4934095, abs=1e-6)


def test_high_order_roots_match_mpmath():
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    for n, m in [(0, 13), (20, 5), (38, 1), (30, 4)]:
        want = mp.besseljzero(n, m)
        assert abs(bessel_zero(BesselKind.CYL_J, n, m) - float(want)) <= 1e-12
        # mpmath counts x = 0 as the first zero of J_0'
        want = mp.besseljzero(n, m + (n == 0), derivative=1)
        assert abs(bessel_zero(BesselKind.CYL_J_PRIME, n, m) - float(want)) <= 1e-12
    for l, n in [(1, 12), (37, 1), (25, 3)]:
        # j_l(x) = sqrt(pi / 2x) J_{l+1/2}(x)
        zeros = [mp.besseljzero(l + mp.mpf(0.5), k) for k in (n - 1, n) if k]
        assert abs(bessel_zero(BesselKind.SPH_J, l, n) - float(zeros[-1])) <= 1e-12
        # (x j_l)' = sqrt(pi / 2x) (x J_{l-1/2} - l J_{l+1/2}), one zero
        # between consecutive zeros of j_l, none below sqrt(l (l + 1))
        lo = zeros[0] if n > 1 else mp.sqrt(l * (l + 1))
        want = mp.findroot(
            lambda x: x * mp.besselj(l - mp.mpf(0.5), x) - l * mp.besselj(l + mp.mpf(0.5), x),
            (lo, zeros[-1]),
            solver="anderson",
        )
        assert lo < want < zeros[-1]
        assert abs(bessel_zero(BesselKind.SPH_XJ_PRIME, l, n) - float(want)) <= 1e-12


def _cached_orders() -> set[int]:
    # the orders of the cached roots: each (kind, order) row holds its own
    return {order for (_, order), row in bessel._cache.items() for _ in row}


def test_one_root_computes_no_other_order():
    clear_root_cache()
    bessel_zero(BesselKind.CYL_J, 38, 13)
    assert _cached_orders() == {38}
    clear_root_cache()
    bessel_zero(BesselKind.SPH_XJ_PRIME, 30, 4)
    assert _cached_orders() == {30}
    clear_root_cache()


def test_concurrent_requests_get_identical_roots():
    roots = [(kind, order, index) for kind in BesselKind for order in (1, 4, 11)
             for index in (1, 2, 5, 7)]
    roots += [(BesselKind.CYL_J, 0, 3), (BesselKind.CYL_J_PRIME, 0, 2)]
    assert len(roots) == 50
    # a root does not depend on which roots were asked for before it
    clear_root_cache()
    want = {key: bessel_zero(*key) for key in reversed(roots)}
    clear_root_cache()
    results = [dict() for _ in range(4)]

    def worker(slot: int) -> None:
        order = roots[:]
        random.Random(slot).shuffle(order)
        for key in order:
            results[slot][key] = bessel_zero(*key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got == want


def test_mixed_requests_from_threads_get_the_scalar_roots():
    # bessel_zero reads a row without the lock while root_table and other
    # bessel_zero calls grow it, for every kind
    requests = [(bessel_zero, (kind, order, index)) for kind in BesselKind
                for order in (1, 3, 9) for index in (1, 4, 8)]
    requests += [(bessel_zero, (BesselKind.CYL_J_PRIME, 0, 3))]
    requests += [(bessel.root_table, (kind, x_max)) for kind in BesselKind
                 for x_max in (6.0, 17.5, 30.0)]
    scalar = ScalarRoots()
    want = {
        (call, args): scalar.zero(*args) if call is bessel_zero else scalar.fill(*args)
        for call, args in requests
    }
    clear_root_cache()
    results = [dict() for _ in range(4)]

    def worker(slot: int) -> None:
        order = requests[:]
        random.Random(slot).shuffle(order)
        for call, args in order:
            results[slot][(call, args)] = call(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got == want
