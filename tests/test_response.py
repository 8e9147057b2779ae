import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ioncrystal as ic
from ioncrystal import response

KHZ = 2e3 * math.pi

# measure-pipeline-like chains: (N, Ca2+ indices, alpha) at about half alpha*
PIPELINE_CHAINS = (
    (3, (), 0.208), (3, (1,), 0.50), (3, (0,), 0.186),
    (6, (), 0.058), (6, (3,), 0.067), (6, (0,), 0.048), (6, (2, 4), 0.078),
)


def _grid(lo_khz, hi_khz, step_khz):
    n = int(round((hi_khz - lo_khz) / step_khz)) + 1
    return np.linspace(lo_khz * KHZ, hi_khz * KHZ, n)


def _amplitudes_at(modes, drive, omega_d):
    """Per-ion amplitudes at one drive frequency: a one-point response_curve."""
    one = ic.DriveSpec(drive.axis, drive.field_amplitude, drive.damping_rate, [omega_d])
    return ic.response_curve(modes, one).amplitudes[0]


@pytest.fixture(scope="module")
def single(trap, ca):
    return ic.normal_modes(trap, ic.CrystalConfiguration((ca,), np.zeros((1, 3))))


@pytest.fixture(scope="module")
def central(trap, ca, ca2, linear_chain):
    return ic.normal_modes(trap, linear_chain(trap, [ca, ca2, ca]))


@pytest.fixture(scope="module")
def outer(trap, ca, ca2, linear_chain):
    return ic.normal_modes(trap, linear_chain(trap, [ca, ca, ca2]))


def test_pure_chain_couples_only_through_com(trap, ca, linear_chain):
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca, ca]))
    for axis, f_khz in (("x", 480.0), ("y", 630.0), ("z", 119.0)):
        b = np.abs(ic.drive_overlap(modes, axis))
        bright = np.flatnonzero(b > 1e-12 * b.max())
        assert len(bright) == 1
        assert modes.frequencies[bright[0]] / KHZ == pytest.approx(f_khz, rel=1e-9)


def test_central_rocking_mode_is_dark(central):
    # outer ions move oppositely, the centre ion not at all: the uniform
    # charge-weighted force cannot excite it, on either radial axis
    for axis in ("x", "y"):
        b = np.abs(ic.drive_overlap(central, axis))
        radial = ic.modes_by_axis(central, axis)
        rel = {m: b[m] / b.max() for m in radial}
        dark = [m for m, r in rel.items() if r <= 1e-12]
        assert len(dark) == 1
        assert all(r > 1e-3 for m, r in rel.items() if m != dark[0])
        desc = ic.mode_descriptor(central, dark[0])
        col = "xyz".index(axis)
        assert desc.ion_amplitudes[1] < 1e-9
        assert desc.pattern[0, col] * desc.pattern[2, col] < 0.0


def test_outer_arrangement_lights_every_mode(outer):
    b = np.abs(ic.drive_overlap(outer, "x"))
    for m in ic.modes_by_axis(outer, "x"):
        assert b[m] > 1e-3 * b.max()


def test_single_ion_resonant_amplitude(single, ca):
    E, gamma = 1e-7, 1.0 * KHZ
    wx = 2.0 * math.pi * 480e3
    drive = ic.DriveSpec("x", E, gamma, _grid(465, 495, 0.2))
    amp = _amplitudes_at(single, drive, wx)
    assert amp[0] == pytest.approx(ca.charge * E / (ca.mass * gamma * wx), rel=1e-12)
    # far above resonance the ion follows the field like a free charge
    far = _amplitudes_at(single, drive, 20.0 * wx)
    assert far[0] == pytest.approx(
        ca.charge * E / (ca.mass * (20.0 * wx) ** 2), rel=5e-3
    )


def test_response_is_linear_in_the_field(central):
    gamma = 1.0 * KHZ
    weak = ic.response_curve(central, ic.DriveSpec("x", 1e-8, gamma, _grid(400, 500, 0.5)))
    strong = ic.response_curve(central, ic.DriveSpec("x", 2e-8, gamma, _grid(400, 500, 0.5)))
    assert np.array_equal(strong.amplitudes, 2.0 * weak.amplitudes)


def test_curve_matches_pointwise_evaluation(central):
    drive = ic.DriveSpec("x", 1e-7, 1.0 * KHZ, _grid(450, 470, 1.0))
    curve = ic.response_curve(central, drive)
    for k in (0, 7, 20):
        point = _amplitudes_at(central, drive, drive.frequencies[k])
        assert point.tobytes() == curve.amplitudes[k].tobytes()


def test_peak_is_nearly_symmetric(single):
    gamma = 1.0 * KHZ
    drive = ic.DriveSpec("x", 1e-7, gamma, _grid(465, 495, 0.2))
    wx = 2.0 * math.pi * 480e3
    up = _amplitudes_at(single, drive, wx + 0.5 * gamma)[0]
    down = _amplitudes_at(single, drive, wx - 0.5 * gamma)[0]
    assert abs(up - down) / up < 0.01


def test_single_ion_fit_recovers_the_frequency(single):
    fits = ic.sweep_and_fit(single, ic.DriveSpec("x", 1e-7, 1.0 * KHZ, _grid(465, 495, 0.2)))
    assert len(fits) == 1
    fit = fits[0]
    assert abs(fit.center - 2.0 * math.pi * 480e3) < 2.0 * math.pi * 10.0
    assert fit.center_stderr > 0.0
    assert fit.n_points >= 5


def test_fit_error_shrinks_with_the_linewidth(single):
    gamma = 0.2 * KHZ
    fits = ic.sweep_and_fit(single, ic.DriveSpec("x", 1e-7, gamma, _grid(465, 495, 0.05)))
    assert abs(fits[0].center - 2.0 * math.pi * 480e3) < gamma / 10.0


def test_mixed_crystal_sweeps(central, outer):
    drive = ic.DriveSpec("x", 1e-7, 1.0 * KHZ, _grid(400, 1100, 0.2))
    for modes, expected in ((central, 2), (outer, 3)):
        fits = ic.sweep_and_fit(modes, drive)
        assert len(fits) == expected
        assert all(a.center < b.center for a, b in zip(fits, fits[1:]))
        b = np.abs(ic.drive_overlap(modes, "x"))
        bright = [
            m
            for m in ic.modes_by_axis(modes, "x")
            if b[m] > 1e-3 * b.max()
        ]
        assert len(bright) == expected
        for fit in fits:
            err = min(abs(fit.center - modes.frequencies[m]) for m in bright)
            assert err < 2.0 * math.pi * 5.0


def test_undriven_sweep_has_no_peak(single):
    with pytest.raises(ic.NoPeakError):
        ic.sweep_and_fit(single, ic.DriveSpec("x", 0.0, 1.0 * KHZ, _grid(465, 495, 0.2)))


def test_coarse_grid_is_rejected(single):
    with pytest.raises(ic.PeakFitError):
        ic.sweep_and_fit(single, ic.DriveSpec("x", 1e-7, 1.0 * KHZ, _grid(400, 600, 5.0)))


def test_drive_validation():
    good = _grid(400, 500, 1.0)
    with pytest.raises(ValueError):
        ic.DriveSpec("q", 1e-7, 1.0 * KHZ, good)
    with pytest.raises(ValueError):
        ic.DriveSpec("x", -1e-7, 1.0 * KHZ, good)
    with pytest.raises(ValueError):
        ic.DriveSpec("x", 1e-7, 0.0, good)
    with pytest.raises(ValueError):
        ic.DriveSpec("x", 1e-7, 1.0 * KHZ, good[::-1])
    with pytest.raises(ValueError):
        ic.DriveSpec("x", 1e-7, 1.0 * KHZ, np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_drive_rejects_non_finite_values(bad):
    good = _grid(400, 500, 1.0)
    with pytest.raises(ValueError, match="frequencies"):
        ic.DriveSpec("x", 1e-7, 1.0 * KHZ, np.array([400.0, bad, 500.0]) * KHZ)
    with pytest.raises(ValueError, match="frequencies"):
        ic.DriveSpec("x", 1e-7, 1.0 * KHZ, np.append(good, bad))
    with pytest.raises(ValueError, match="field_amplitude"):
        ic.DriveSpec("x", bad, 1.0 * KHZ, good)
    with pytest.raises(ValueError, match="damping_rate"):
        ic.DriveSpec("x", 1e-7, bad, good)


def _loop_maxima(s, level):
    return [
        k
        for k in range(1, len(s) - 1)
        if s[k] > s[k - 1] and s[k] >= s[k + 1] and s[k] > level and s[k] > 0.0
    ]


@pytest.mark.parametrize(
    "s, level",
    [
        ([0.0, 1.0, 3.0, 3.0, 1.0, 0.0], 0.5),  # flat top
        ([0.0, 2.0, 2.0, 2.0], 0.5),  # flat top running into the edge
        ([5.0, 1.0, 2.0, 1.0, 5.0], 0.5),  # edge maxima do not count
        ([0.0, 1.0, 0.5, 4.0, 0.2, 0.3, 0.1], 0.9),  # bumps below the level
        ([-3.0, -1.0, -2.0], -5.0),  # a maximum at or below zero
        ([0.0, math.nan, 1.0, 0.0, 2.0, 1.0], 0.5),
        ([1.0, 2.0], 0.0),
        ([1.0], 0.0),
        ([], 0.0),
    ],
)
def test_local_maxima_match_the_loop(s, level):
    assert response._local_maxima(np.array(s), level) == _loop_maxima(s, level)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-2, 4), max_size=30), st.integers(-1, 3))
def test_local_maxima_match_the_loop_on_plateaus(values, level):
    s = np.array(values, dtype=float)
    assert response._local_maxima(s, float(level)) == _loop_maxima(s, float(level))


def _central_difference(f, x, params, h=1e-6):
    cols = []
    for j in range(len(params)):
        up, down = list(params), list(params)
        up[j] += h
        down[j] -= h
        cols.append((f(x, *up) - f(x, *down)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize(
    "f, jac",
    [
        (response._gaussian, response._gaussian_jacobian),
    ],
)
def test_line_model_jacobians_match_central_differences(f, jac):
    x = np.linspace(470.0, 490.0, 41)
    params = (0.09, 480.3, 0.7, 0.02)
    analytic = jac(x, *params)
    assert analytic.shape == (len(x), 4)
    numeric = _central_difference(f, x, params)
    assert np.all(np.abs(analytic - numeric) <= 1e-6 * np.abs(analytic).max(axis=0))


@pytest.mark.parametrize("model", ["gaussian"])
def test_analytic_jacobian_fits_match_finite_differences(
    family, ca, ca2, linear_chain, monkeypatch, model
):
    # centres agree to 1e-8 and stderrs to 1e-5, relative: both fits stop
    # at the fitter's 1.5e-8 relative step tolerance
    for n, impurities, alpha in PIPELINE_CHAINS:
        trap = family.trap_at(alpha)
        ions = [ca2 if i in impurities else ca for i in range(n)]
        modes = ic.normal_modes(trap, linear_chain(trap, ions))
        band = modes.frequencies[ic.modes_by_axis(modes, "x")] / KHZ
        lo = math.floor(band.min() - 10.0)
        hi = lo + 0.2 * math.ceil((band.max() + 10.0 - lo) / 0.2)
        drive = ic.DriveSpec("x", 1e-3, 1.0 * KHZ, _grid(lo, hi, 0.2))
        analytic = ic.sweep_and_fit(modes, drive)
        with monkeypatch.context() as m:
            m.setattr(response, f"_{model}_jacobian", None)
            numeric = ic.sweep_and_fit(modes, drive)
        assert [a.n_points for a in analytic] == [b.n_points for b in numeric]
        for a, b in zip(analytic, numeric):
            assert a.center == pytest.approx(b.center, rel=1e-8)
            assert a.center_stderr == pytest.approx(b.center_stderr, rel=1e-5)


@settings(deadline=None, max_examples=50)
@given(st.floats(50.0, 1500.0))
def test_steady_state_is_finite_and_positive(central, f_khz):
    drive = ic.DriveSpec("x", 1e-7, 1.0 * KHZ, _grid(400, 500, 1.0))
    amp = _amplitudes_at(central, drive, f_khz * KHZ)
    assert np.all(np.isfinite(amp))
    assert np.all(amp >= 0.0)


def test_drive_axis_is_one_label():
    # "xy" used to pass as a substring of "xyz" and drive along x
    with pytest.raises(ValueError, match="axis"):
        ic.DriveSpec("xy", 1e-7, 1.0 * KHZ, _grid(465, 495, 0.2))
