"""Spectra and mode-mixing tables against hand formulas and quadrature."""

import math

import pytest

from cavework.bessel import BesselKind, bessel_zero
from cavework.cavity import (
    CylindricalGeometry,
    MovingWall,
    Polarization,
    RectangularGeometry,
    SphericalGeometry,
    coupling_coefficient,
    mode_frequency,
    mode_index_str,
    mode_spectrum,
    moving_frequency_squared,
    spectrum_to_csv,
    validate_mode,
)
from cavework.errors import ModeValidationError
from overlap_oracle import overlap_integral_oracle

RECT = RectangularGeometry(lx=0.9, ly=1.1)
CYL_L = CylindricalGeometry(moving_wall=MovingWall.LONGITUDINAL, radius=1.0)
CYL_R = CylindricalGeometry(moving_wall=MovingWall.RADIAL, axis_length=1.2)
SPH = SphericalGeometry()


def test_rectangular_frequency_hand_formula():
    lam = 1.3
    w = mode_frequency(RECT, Polarization.TE, (1, 2, 3), lam)
    want = math.pi * math.sqrt((1 / 0.9) ** 2 + (2 / 1.1) ** 2 + (3 / lam) ** 2)
    assert w == pytest.approx(want, rel=1e-15)


def test_cylindrical_frequency_uses_matching_root():
    lam = 2.0
    w = mode_frequency(CYL_L, Polarization.TM, (0, 1, 1), lam)
    root = bessel_zero(BesselKind.CYL_J, 0, 1)
    want = math.sqrt(root**2 + (math.pi / lam) ** 2)
    assert w == pytest.approx(want, rel=1e-14)
    w = mode_frequency(CYL_R, Polarization.TE, (1, 1, 1), lam)
    root = bessel_zero(BesselKind.CYL_J_PRIME, 1, 1)
    want = math.sqrt((root / lam) ** 2 + (math.pi / 1.2) ** 2)
    assert w == pytest.approx(want, rel=1e-14)


def test_spherical_lowest_te_frequency():
    w = mode_frequency(SPH, Polarization.TE, (1, 1, 0), 1.0)
    assert w == pytest.approx(4.493409457909064, rel=1e-12)


def test_mode_validation_rules():
    with pytest.raises(ModeValidationError):
        validate_mode(RECT, Polarization.TE, (0, 0, 1))
    with pytest.raises(ModeValidationError):
        validate_mode(CYL_L, Polarization.TE, (0, 1, 0))  # TE needs kz >= 1
    validate_mode(CYL_L, Polarization.TM, (0, 1, 0))  # TM allows kz = 0
    with pytest.raises(ModeValidationError):
        validate_mode(SPH, Polarization.TE, (1, 0, 0))  # l >= 1
    with pytest.raises(ModeValidationError):
        validate_mode(SPH, Polarization.TM, (1, 1, 2))  # |m| <= l


def test_spectrum_sorted_and_complete():
    cutoff = 12.0
    spec = mode_spectrum(RECT, Polarization.TE, 1.0, cutoff)
    freqs = [w for _, w in spec]
    assert freqs == sorted(freqs)
    assert all(w <= cutoff for w in freqs)
    # brute-force regeneration over a safe index box
    seen = set()
    for kx in range(0, 8):
        for ky in range(0, 8):
            for kz in range(1, 8):
                if kx == 0 and ky == 0:
                    continue
                w = mode_frequency(RECT, Polarization.TE, (kx, ky, kz), 1.0)
                if w <= cutoff:
                    seen.add((kx, ky, kz))
    assert {m for m, _ in spec} == seen


def test_spectrum_csv_format():
    spec = mode_spectrum(RECT, Polarization.TE, 1.0, 6.0)
    text = spectrum_to_csv(spec, Polarization.TE)
    lines = text.splitlines()
    assert lines[0] == "mode_index,polarization,frequency"
    assert len(lines) == len(spec) + 1
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == mode_index_str(spec[0][0])
    assert first[1] == "TE"
    assert float(first[2]) == pytest.approx(spec[0][1], rel=1e-11)


def test_moving_frequency_share():
    assert moving_frequency_squared(RECT, Polarization.TE, (1, 2, 3), 1.5) == (
        pytest.approx((3 * math.pi / 1.5) ** 2, rel=1e-15)
    )
    w = mode_frequency(SPH, Polarization.TM, (1, 1, 0), 1.1)
    # sphere: the whole frequency rides on the moving radius
    assert moving_frequency_squared(SPH, Polarization.TM, (1, 1, 0), 1.1) == (
        pytest.approx(w**2, rel=1e-14)
    )


def test_rectangular_mixing_table_hand_values():
    # axial sine overlap: sign (-1)^{k+p} 2kp/(k^2-p^2) once transverse matches
    g = coupling_coefficient(RECT, Polarization.TE, (1, 2, 3), (1, 2, 5))
    assert g == pytest.approx(2 * 3 * 5 / (9 - 25), rel=1e-15)
    assert coupling_coefficient(RECT, Polarization.TE, (1, 2, 3), (2, 2, 5)) == 0.0
    assert coupling_coefficient(RECT, Polarization.TE, (1, 2, 3), (1, 2, 3)) == 0.0
    assert coupling_coefficient(RECT, Polarization.TM, (1, 2, 3), (1, 2, 3)) == 1.0
    # the two orders sum to sign * 2 for the cosine table
    a = coupling_coefficient(RECT, Polarization.TM, (1, 1, 2), (1, 1, 3))
    b = coupling_coefficient(RECT, Polarization.TM, (1, 1, 3), (1, 1, 2))
    assert a + b == pytest.approx(2.0 * ((-1) ** (2 + 3)), rel=1e-12)


@pytest.mark.parametrize(
    "geom,pol,k,p",
    [
        (RECT, Polarization.TE, (1, 2, 3), (1, 2, 5)),
        (RECT, Polarization.TM, (2, 1, 2), (2, 1, 2)),
        (CYL_L, Polarization.TE, (1, 1, 2), (1, 1, 4)),
        (CYL_L, Polarization.TM, (0, 2, 1), (0, 2, 1)),
        (CYL_R, Polarization.TE, (1, 1, 1), (1, 3, 1)),
        (CYL_R, Polarization.TM, (0, 1, 1), (0, 3, 1)),
        (SPH, Polarization.TE, (1, 2, 1), (3, 2, 1)),
        (SPH, Polarization.TM, (2, 1, 0), (2, 1, 0)),
        (SPH, Polarization.TM, (1, 1, -1), (2, 1, -1)),
    ],
)
def test_mixing_matches_overlap_quadrature(geom, pol, k, p):
    lam, lam_dot = 1.3, 0.27
    table = coupling_coefficient(geom, pol, k, p)
    oracle = overlap_integral_oracle(geom, pol, k, p, lam, lam_dot) * lam / lam_dot
    assert abs(table - oracle) < 1e-8


def test_overlap_oracle_zero_velocity():
    assert overlap_integral_oracle(RECT, Polarization.TE, (1, 1, 1), (1, 1, 2), 1.0, 0.0) == 0.0


def test_mode_index_str_roundtrip():
    assert mode_index_str((0, 2, 11)) == "0:2:11"
