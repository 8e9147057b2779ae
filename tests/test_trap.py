import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ioncrystal as ic
from ioncrystal.trap import pseudopotential_terms

OMEGA_RF = 2.0 * math.pi * 10.66e6


def test_calibration_round_trip(trap, ca, ref_freqs):
    back = ic.frequencies_for_species(trap, ca)
    for got, want in zip(back.as_tuple(), ref_freqs.as_tuple()):
        assert got == pytest.approx(want, rel=1e-12)


def test_doubly_charged_frequencies(trap, ca2):
    # static terms scale with q, the rf term with q^2, so for q=2 at equal
    # mass: wz' = sqrt(2) wz, wx'^2 = 3 wx^2 + wy^2 + wz^2 and x<->y swapped
    fx, fy, fz = ic.frequencies_for_species(trap, ca2).to_khz()
    assert fz == pytest.approx(119.0 * math.sqrt(2.0), rel=1e-12)
    assert fx == pytest.approx(math.sqrt(3 * 480**2 + 630**2 + 119**2), rel=1e-12)
    assert fy == pytest.approx(math.sqrt(480**2 + 3 * 630**2 + 119**2), rel=1e-12)


def test_degenerate_radial_calibration(ca):
    freqs = ic.SpeciesFrequencies.from_khz(500.0, 500.0, 100.0)
    trap = ic.calibrate_from_frequencies(ca, freqs, OMEGA_RF)
    assert trap.radial_curvature == 0.0


def test_non_positive_rf_frequency_rejected(ca, ref_freqs):
    # the check lives in TrapModel; calibration builds one and so raises it
    for rf in (0.0, -1.0):
        with pytest.raises(ValueError, match="^rf_frequency must be positive$"):
            ic.calibrate_from_frequencies(ca, ref_freqs, rf)


def test_swapped_transverse_frequencies_rejected():
    with pytest.raises(ic.CalibrationError):
        ic.SpeciesFrequencies.from_khz(630.0, 480.0, 119.0)


def test_anisotropy_reference_values(ref_freqs):
    ax, ay = ic.anisotropy(ref_freqs)
    assert ax == pytest.approx((119.0 / 480.0) ** 2, rel=1e-12)
    assert ay == pytest.approx((119.0 / 630.0) ** 2, rel=1e-12)


def test_anisotropy_limits():
    isotropic = ic.SpeciesFrequencies.from_khz(119.0, 119.0, 119.0)
    assert ic.anisotropy(isotropic)[0] == pytest.approx(1.0, rel=1e-12)
    stiff = ic.SpeciesFrequencies.from_khz(1e6, 1e6, 119.0)
    assert ic.anisotropy(stiff)[0] < 1e-7


def test_unconfined_species(trap):
    # a very heavy singly charged ion loses the rf confinement first
    heavy = ic.IonSpecies(1, 4000.0)
    with pytest.raises(ic.TrapInstabilityError) as err:
        ic.frequencies_for_species(trap, heavy)
    assert err.value.axis == "x"


def test_rf_gradient_stiffens_radial_only(trap, ca):
    stiffer = ic.TrapModel(
        trap.axial_curvature,
        1.3 * trap.rf_gradient,
        trap.radial_curvature,
        trap.rf_frequency,
    )
    f0 = ic.frequencies_for_species(trap, ca)
    f1 = ic.frequencies_for_species(stiffer, ca)
    assert f1.omega_x > f0.omega_x
    assert f1.omega_y > f0.omega_y
    assert f1.omega_z == f0.omega_z


def test_characteristic_length_scale(ca):
    ell = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    assert ell == pytest.approx(18.384e-6, rel=1e-3)


def test_species_validation():
    with pytest.raises(ValueError):
        ic.IonSpecies(0, 40.0)
    with pytest.raises(ValueError):
        ic.IonSpecies(1, -1.0)
    with pytest.raises(ValueError):
        ic.TrapModel(-1.0, 1.0, 0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(
    fx=st.floats(50.0, 2000.0),
    split=st.floats(0.0, 1000.0),
    fz=st.floats(10.0, 500.0),
)
def test_round_trip_any_frequencies(fx, split, fz):
    ca = ic.IonSpecies(1, 40.0)
    freqs = ic.SpeciesFrequencies.from_khz(fx, fx + split, fz)
    trap = ic.calibrate_from_frequencies(ca, freqs, OMEGA_RF)
    back = ic.frequencies_for_species(trap, ca)
    for got, want in zip(back.as_tuple(), freqs.as_tuple()):
        assert got == pytest.approx(want, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(q=st.integers(1, 6), m=st.floats(5.0, 500.0))
def test_term_scaling_in_charge_and_mass(trap, q, m):
    a1, b1, c1 = pseudopotential_terms(trap, ic.IonSpecies(1, 40.0))
    aq, bq, cq = pseudopotential_terms(trap, ic.IonSpecies(q, 40.0))
    assert aq == pytest.approx(q * a1, rel=1e-12)
    assert bq == pytest.approx(q * b1, rel=1e-12)
    assert cq == pytest.approx(q**2 * c1, rel=1e-12)
    am, bm, cm = pseudopotential_terms(trap, ic.IonSpecies(1, m))
    assert am == pytest.approx(a1 * 40.0 / m, rel=1e-12)
    assert bm == pytest.approx(b1 * 40.0 / m, rel=1e-12)
    assert cm == pytest.approx(c1 * (40.0 / m) ** 2, rel=1e-12)
