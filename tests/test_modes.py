import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ioncrystal as ic

# benchmark transverse x spectrum of [ca ca ca2 ca ca ca] at the
# (480, 630, 119) kHz calibration, kHz
SIX_ION_X_KHZ = (352.0, 403.0, 423.0, 463.0, 468.0, 1006.0)


def _khz(omega):
    return np.asarray(omega) / (2.0 * math.pi * 1e3)


def test_single_ion_modes(trap, ca):
    config = ic.CrystalConfiguration((ca,), np.zeros((1, 3)))
    modes = ic.normal_modes(trap, config)
    np.testing.assert_allclose(_khz(modes.frequencies), [119.0, 480.0, 630.0], rtol=1e-12)
    axes = [ic.mode_descriptor(modes, m).dominant_axis for m in range(3)]
    assert axes == ["z", "x", "y"]
    assert not modes.soft.any()


def test_two_ion_spectrum_is_analytic(trap, ca, linear_chain):
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca]))
    wx, wy, wz = (2.0 * math.pi * f for f in (480e3, 630e3, 119e3))
    expected = np.sort(
        [
            wz,
            math.sqrt(3.0) * wz,
            wx,
            math.sqrt(wx**2 - wz**2),
            wy,
            math.sqrt(wy**2 - wz**2),
        ]
    )
    np.testing.assert_allclose(modes.frequencies, expected, rtol=1e-9)


def test_three_ion_spectrum_is_analytic(trap, ca, linear_chain):
    # axial: (1, 3, 29/5) wz^2; each transverse axis: wr^2 - (0, 1, 12/5) wz^2
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca, ca]))
    wx, wy, wz = (2.0 * math.pi * f for f in (480e3, 630e3, 119e3))
    expected = np.sort(
        [math.sqrt(s) * wz for s in (1.0, 3.0, 29.0 / 5.0)]
        + [math.sqrt(wr**2 - s * wz**2) for wr in (wx, wy) for s in (0.0, 1.0, 2.4)]
    )
    np.testing.assert_allclose(modes.frequencies, expected, rtol=1e-9)


def test_six_ion_impurity_spectrum(trap, ca, ca2, linear_chain):
    config = linear_chain(trap, [ca, ca, ca2, ca, ca, ca])
    modes = ic.normal_modes(trap, config)
    got = np.sort([_khz(modes.frequencies[m]) for m in ic.modes_by_axis(modes, "x")])
    np.testing.assert_allclose(got, SIX_ION_X_KHZ, rtol=0.02)


def test_hessian_matches_finite_differenced_gradient(trap, mixed_config_factory):
    rng = np.random.default_rng(54321)
    h = 1e-9
    for _ in range(100):
        config = mixed_config_factory(rng)
        H = ic.hessian(trap, config)
        scale = np.abs(H).max()
        for col in range(3 * config.n):
            plus = config.positions.copy().ravel()
            minus = plus.copy()
            plus[col] += h
            minus[col] -= h
            fd = (
                ic.gradient(trap, config.with_positions(plus.reshape(-1, 3)))
                - ic.gradient(trap, config.with_positions(minus.reshape(-1, 3)))
            ) / (2.0 * h)
            assert np.abs(fd - H[:, col]).max() <= 1e-6 * scale


def test_eigenvector_identities(trap, ca, ca2, linear_chain):
    config = linear_chain(trap, [ca, ca, ca2, ca, ca, ca])
    modes = ic.normal_modes(trap, config)
    V = modes.vectors
    n = 3 * config.n
    np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-10)
    # Rayleigh quotients reproduce the eigenvalues
    inv_sqrt_m = 1.0 / np.sqrt(np.repeat(config.masses, 3))
    Hmw = ic.hessian(trap, config) * np.outer(inv_sqrt_m, inv_sqrt_m)
    rayleigh = np.einsum("im,ij,jm->m", V, Hmw, V)
    np.testing.assert_allclose(rayleigh, modes.frequencies**2, rtol=1e-10)
    # eigenvalue sum equals the trace
    assert np.sum(modes.frequencies**2) == pytest.approx(np.trace(Hmw), rel=1e-10)


def test_com_modes_for_single_species(trap, ca, linear_chain):
    config = linear_chain(trap, [ca, ca, ca, ca])
    modes = ic.normal_modes(trap, config)
    for axis, f_khz in (("x", 480.0), ("y", 630.0), ("z", 119.0)):
        m = int(np.abs(_khz(modes.frequencies) - f_khz).argmin())
        assert _khz(modes.frequencies[m]) == pytest.approx(f_khz, rel=1e-9)
        pattern = modes.physical_pattern(m)
        col = "xyz".index(axis)
        comps = pattern[:, col]
        assert np.abs(comps - comps.mean()).max() <= 1e-9 * np.abs(comps).max()
        others = np.delete(pattern, col, axis=1)
        assert np.abs(others).max() <= 1e-9 * np.abs(comps).max()


def test_no_com_modes_with_impurity(trap, ca, ca2, linear_chain):
    # different charge-to-mass ratios detune the ions: no uniform pattern left
    config = linear_chain(trap, [ca, ca, ca2, ca, ca, ca])
    modes = ic.normal_modes(trap, config)
    for m in range(3 * config.n):
        pattern = modes.physical_pattern(m)
        col = int((pattern**2).sum(axis=0).argmax())
        comps = pattern[:, col]
        assert np.abs(comps - comps.mean()).max() > 1e-2 * np.abs(comps).max()


def test_linear_chain_axes_decouple(trap, ca, ca2, linear_chain):
    config = linear_chain(trap, [ca, ca, ca2, ca, ca, ca])
    H = ic.hessian(trap, config)
    for i in range(config.n):
        for j in range(config.n):
            block = H[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            assert np.all(block == np.diag(np.diag(block)))
    modes = ic.normal_modes(trap, config)
    for m in range(3 * config.n):
        shares = (modes.vectors[:, m].reshape(config.n, 3) ** 2).sum(axis=0)
        assert np.sort(shares)[:2].sum() < 1e-20


def test_impurity_localizes_neighbour_modes(trap, ca, ca2, linear_chain):
    config = linear_chain(trap, [ca, ca, ca2, ca, ca, ca])
    modes = ic.normal_modes(trap, config)
    xmodes = ic.modes_by_axis(modes, "x")
    ratios = {}
    for m in xmodes:
        desc = ic.mode_descriptor(modes, m)
        ratios[round(float(_khz(desc.frequency)))] = ic.localization_ratio(desc, 2)
    assert 40.0 < ratios[403] < 55.0
    assert 20.0 < ratios[423] < 30.0
    # a pure chain has no comparable localization anywhere
    pure = ic.normal_modes(trap, linear_chain(trap, [ca] * 6))
    pure_ratios = [
        ic.localization_ratio(ic.mode_descriptor(pure, m), 2)
        for m in ic.modes_by_axis(pure, "x")
    ]
    assert max(pure_ratios) < 3.0


def test_highest_mode_is_impurity_dominated(family, ca, ca2, linear_chain):
    # robust across radial confinement: the top x mode is essentially the
    # doubly charged ion oscillating alone
    def top_ratio(alpha, ions, index):
        trap = family.trap_at(alpha)
        modes = ic.normal_modes(trap, linear_chain(trap, ions))
        top = ic.modes_by_axis(modes, "x")[-1]
        amps = ic.mode_descriptor(modes, top).ion_amplitudes
        return amps[index] / np.delete(amps, index).max()

    for fx in (400.0, 480.0):
        assert top_ratio((119.0 / fx) ** 2, [ca, ca, ca2, ca, ca, ca], 2) > 10.0
    for fx in (300.0, 400.0, 480.0):
        assert top_ratio((119.0 / fx) ** 2, [ca, ca2, ca], 1) > 20.0


def test_same_side_gaps(trap, ca, ca2, linear_chain):
    imp = ic.normal_modes(trap, linear_chain(trap, [ca, ca, ca2, ca, ca, ca]))
    gap = _khz(ic.min_same_side_gap(imp, axis="x", boundary_index=2))
    assert 40.0 < gap < 50.0
    pure = ic.normal_modes(trap, linear_chain(trap, [ca] * 6))
    gap_pure = _khz(ic.min_same_side_gap(pure, axis="x"))
    assert 10.0 < gap_pure < 20.0
    # two ions: gap between the rocking and COM transverse modes
    two = ic.normal_modes(trap, linear_chain(trap, [ca, ca]))
    wx, wz = 2.0 * math.pi * 480e3, 2.0 * math.pi * 119e3
    expected = wx - math.sqrt(wx**2 - wz**2)
    assert ic.min_same_side_gap(two, axis="x") == pytest.approx(expected, rel=1e-9)


def test_boundary_validation(trap, ca, linear_chain):
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca]))
    desc = ic.mode_descriptor(modes, 0)
    with pytest.raises(ic.BoundaryError):
        ic.localization_ratio(desc, 0)
    with pytest.raises(ic.BoundaryError):
        ic.min_same_side_gap(modes, axis="x", boundary_index=1)


def test_unstable_chain_is_rejected(family, ca, linear_chain):
    trap = family.trap_at(0.6)
    config = linear_chain(trap, [ca, ca, ca])
    with pytest.raises(ic.UnstableConfigurationError) as err:
        ic.normal_modes(trap, config)
    assert err.value.negative_count == 1


def test_soft_mode_at_the_critical_point(family, ca, linear_chain):
    trap = family.trap_at(5.0 / 12.0)
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca, ca]))
    assert int(modes.soft.sum()) == 1
    assert modes.frequencies[0] == 0.0
    assert ic.mode_descriptor(modes, 0).soft


def test_degenerate_radial_trap_pairs_modes(ca, linear_chain):
    trap = ic.calibrate_from_frequencies(
        ca, ic.SpeciesFrequencies.from_khz(500.0, 500.0, 100.0), 2.0 * math.pi * 10.66e6
    )
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca, ca]))
    transverse = np.sort(
        [f for m, f in enumerate(modes.frequencies) if ic.mode_descriptor(modes, m).dominant_axis != "z"]
    )
    np.testing.assert_allclose(transverse[0::2], transverse[1::2], rtol=1e-12)


@settings(deadline=None, max_examples=15)
@given(st.floats(0.10, 0.55), st.integers(0, 100))
def test_solved_minima_have_real_spectra(family, ca, alpha, seed):
    trap = family.trap_at(alpha)
    config = ic.find_equilibrium(trap, [ca, ca, ca], seed=seed)
    modes = ic.normal_modes(trap, config)
    assert np.all(modes.frequencies >= 0.0)
    V = modes.vectors
    np.testing.assert_allclose(V.T @ V, np.eye(9), atol=1e-10)
