import itertools
import math

import numpy as np
import pytest

import ioncrystal as ic
from ioncrystal import imaging


@pytest.fixture(scope="module")
def model():
    return ic.ProjectionModel()


def _moments(image):
    u, v = image.coords()
    w = image.intensity
    total = w.sum()
    uu, vv = np.meshgrid(u, v)
    cu = (w * uu).sum() / total
    cv = (w * vv).sum() / total
    var_u = (w * (uu - cu) ** 2).sum() / total
    var_v = (w * (vv - cv) ** 2).sum() / total
    cov = (w * (uu - cu) * (vv - cv)).sum() / total
    return cu, cv, var_u, var_v, cov


def test_axis_stretch_factors(model):
    # the mount rotation preserves lengths: z appears stretched by sqrt(2),
    # x too (it lies at 45 degrees to the line of sight), y is foreshortened
    for axis, length in ((2, 10.0 * math.sqrt(2.0)), (0, 10.0 * math.sqrt(2.0)),
                         (1, 10.0 / math.sqrt(2.0))):
        offset = np.zeros((1, 3))
        offset[0, axis] = 10e-6
        assert np.linalg.norm(ic.project(offset, model)[0]) == pytest.approx(length, rel=1e-12)


def test_camera_rotation_angle(model):
    u, v = ic.project(np.array([[0.0, 0.0, 10e-6]]), model)[0]
    assert math.degrees(math.atan2(v, u)) == pytest.approx(3.0, abs=1e-12)


def test_projection_is_linear(model):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3)) * 1e-5
    b = rng.normal(size=(4, 3)) * 1e-5
    np.testing.assert_allclose(
        ic.project(a + b, model),
        ic.project(a, model) + ic.project(b, model),
        rtol=1e-12,
        atol=1e-12,
    )
    assert np.array_equal(ic.project(2.0 * a, model), 2.0 * ic.project(a, model))


def test_fluorescence_mask(ca, ca2):
    pos = np.zeros((3, 3))
    pos[:, 2] = (-12e-6, 0.0, 12e-6)
    config = ic.CrystalConfiguration((ca, ca2, ca), pos)
    assert ic.fluorescing(config).tolist() == [True, False, True]


def test_point_spread_moments(model):
    image = ic.render(np.array([[0.0, 0.0]]), model, flux=1e6)
    cu, cv, var_u, var_v, cov = _moments(image)
    assert abs(cu) < 1e-9 and abs(cv) < 1e-9
    assert math.sqrt(var_u) == pytest.approx(model.psf_um, rel=0.01)
    assert math.sqrt(var_v) == pytest.approx(model.psf_um, rel=0.01)
    assert abs(cov) < 0.01 * model.psf_um**2


def test_oscillation_elongates_the_spot(model):
    image = ic.render(
        np.array([[0.0, 0.0]]),
        model,
        amplitudes_um=np.array([5.0]),
        directions=np.array([[1.0, 0.0]]),
        flux=1e6,
    )
    _, _, var_u, var_v, _ = _moments(image)
    assert math.sqrt(var_u) == pytest.approx(math.hypot(model.psf_um, 5.0), rel=0.01)
    assert math.sqrt(var_v) == pytest.approx(model.psf_um, rel=0.01)


def test_dark_ion_leaves_a_gap(model):
    uv = np.array([[-8.0, 0.0], [0.0, 0.0], [8.0, 0.0]])
    image = ic.render(uv, model, bright=np.array([True, False, True]), flux=1e5)
    u, v = image.coords()
    iu = int(np.abs(u - 0.0).argmin())
    iv = int(np.abs(v - 0.0).argmin())
    assert image.intensity[iv, iu] < 0.01 * image.intensity.max()


def test_round_trip_noiseless(trap, ca, ca2, model):
    config = ic.find_equilibrium(trap, [ca, ca2, ca])
    uv = ic.project(config.positions, model)
    bright = ic.fluorescing(config)
    image = ic.render(uv, model, bright=bright, flux=1e4)
    fitted, residuals = ic.fit_positions(image, int(bright.sum()))
    expected = uv[bright][np.argsort(uv[bright][:, 0])]
    assert np.abs(fitted - expected).max() < 0.05
    assert np.all(residuals < 0.05)


def test_round_trip_noisy(trap, ca, ca2, model):
    config = ic.find_equilibrium(trap, [ca, ca2, ca])
    uv = ic.project(config.positions, model)
    bright = ic.fluorescing(config)
    rng = np.random.default_rng(42)
    image = ic.render(uv, model, bright=bright, flux=1e4, background=2.0, rng=rng)
    assert image.intensity.dtype.kind in "iu" or np.all(
        image.intensity == np.rint(image.intensity)
    )
    fitted, _ = ic.fit_positions(image, int(bright.sum()))
    expected = uv[bright][np.argsort(uv[bright][:, 0])]
    assert np.abs(fitted - expected).max() < 1.0


def _full_grid_render(image, pos, model, bright, amps, dirs, flux, background, seed):
    """Every bright spot summed over every pixel of image's grid."""
    u, v = image.coords()
    uu, vv = np.meshgrid(u, v)
    p = image.um_per_px
    psf = model.psf_um
    img = np.zeros(uu.shape)
    for i in range(len(pos)):
        if not bright[i]:
            continue
        sig_par = math.sqrt(psf**2 + amps[i] ** 2)
        e = dirs[i] / np.linalg.norm(dirs[i])
        du = uu - pos[i, 0]
        dv = vv - pos[i, 1]
        t_par = du * e[0] + dv * e[1]
        t_perp = -du * e[1] + dv * e[0]
        img += (
            flux
            * p**2
            / (2.0 * math.pi * sig_par * psf)
            * np.exp(-0.5 * ((t_par / sig_par) ** 2 + (t_perp / psf) ** 2))
        )
    if seed is not None:
        return np.random.default_rng(seed).poisson(img + background).astype(float)
    return img + background if background else img


@pytest.mark.parametrize(
    "pad_um, smear_um, seed, background",
    list(itertools.product([0.0, None], [0.0, 1.0, 3.0], [None, 11], [0.0, 2.5])),
)
def test_windowed_render_matches_the_full_grid(model, monkeypatch, pad_um, smear_um,
                                              seed, background):
    # pad_um None is render's margin, 0.0 none at all
    if pad_um is not None:
        monkeypatch.setattr(imaging, "_PAD_SIGMAS", 0.0)
        monkeypatch.setattr(imaging, "_PAD_UM", pad_um)
    pos = np.array([[-10.0, -3.0], [0.0, 4.0], [8.0, -6.0], [15.0, 2.0], [3.0, 0.5]])
    bright = np.array([True, True, False, True, True])
    amps = smear_um * np.array([0.0, 0.3, 1.0, 0.7, 0.5])
    angles = np.array([0.0, 0.4, 1.1, 2.3, -0.8])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)]) * [[1.0], [2.0], [0.5], [1.0], [3.0]]
    rng = None if seed is None else np.random.default_rng(seed)
    image = ic.render(pos, model, bright=bright, amplitudes_um=amps, directions=dirs,
                      flux=3e4, background=background, rng=rng)
    expected = _full_grid_render(image, pos, model, bright, amps, dirs, 3e4, background, seed)
    assert image.intensity.tobytes() == expected.tobytes()
    # either way some spot's window is clipped at each of the four image edges
    u, v = image.coords()
    reach = imaging._WINDOW_SIGMAS * np.sqrt(model.psf_um**2 + amps[bright] ** 2)
    spots = pos[bright]
    for lo, hi, axis in ((u[0], u[-1], 0), (v[0], v[-1], 1)):
        assert (spots[:, axis] - reach < lo).any() and (spots[:, axis] + reach > hi).any()


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"directions": [[1.0, 0.0], [0.0, 0.0]]}, "directions"),
        ({"directions": [[1.0, 0.0], [np.nan, 1.0]]}, "directions"),
        ({"directions": [[1.0, 0.0]]}, "directions"),
        ({"amplitudes_um": [0.1, 0.2, 0.3]}, "amplitudes_um"),
        ({"amplitudes_um": [0.1, np.inf]}, "amplitudes_um"),
        ({"bright": [True]}, "bright"),
        ({"positions_um": [[0.0, 0.0], [np.nan, 1.0]]}, "positions_um"),
        ({"positions_um": [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]}, "positions_um"),
        ({"flux": np.nan}, "flux"),
        ({"flux": -1.0}, "flux"),
        ({"background": -0.5}, "background"),
        ({"background": np.inf}, "background"),
        # images past the pixel cap: these used to end in a MemoryError
        # (TiB and PiB sized grids) or an OverflowError
        ({"positions_um": [[0.0, 0.0], [1e12, 0.0]]}, "positions_um"),
        ({"amplitudes_um": [1e6, 0.0]}, "amplitudes_um"),
        ({"amplitudes_um": [1e300, 0.0]}, "amplitudes_um"),
    ],
)
@pytest.mark.parametrize("noisy", [False, True])
def test_render_names_a_bad_argument(model, kwargs, name, noisy):
    args = {"positions_um": [[0.0, 0.0], [8.0, 1.0]], **kwargs}
    rng = np.random.default_rng(0) if noisy else None
    with pytest.raises(ValueError, match=name):
        ic.render(args.pop("positions_um"), model, rng=rng, **args)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"flux": 1e300}, "flux"), ({"background": 1e19}, "background"),
     ({"background": 1e300}, "background")],
)
def test_noisy_render_names_a_mean_past_the_poisson_limit(model, kwargs, name):
    # numpy refuses Poisson means above ~9.2e18 with a bare "lam value too large"
    with pytest.raises(ValueError, match=name):
        ic.render([[0.0, 0.0], [8.0, 1.0]], model, rng=np.random.default_rng(0), **kwargs)
    # the noiseless expectation has no such limit
    assert np.isfinite(ic.render([[0.0, 0.0], [8.0, 1.0]], model, **kwargs).intensity).all()


def test_spot_jacobian_matches_central_differences():
    uu, vv = np.meshgrid(np.linspace(-3.0, 3.5, 14), np.linspace(-2.5, 2.0, 11))
    xy = (uu.ravel(), vv.ravel())
    params = (120.0, 0.3, -0.2, 0.95, 1.1, 2.0)
    analytic = imaging._spot_jacobian(xy, *params)
    assert analytic.shape == (uu.size, 6)
    h = 1e-6
    numeric = np.empty_like(analytic)
    for j in range(len(params)):
        up, down = list(params), list(params)
        up[j] += h
        down[j] -= h
        numeric[:, j] = (imaging._spot_model(xy, *up) - imaging._spot_model(xy, *down)) / (2 * h)
    assert np.all(np.abs(analytic - numeric) <= 1e-6 * np.abs(analytic).max(axis=0))


def test_spot_fits_match_finite_differences(family, ca, ca2, linear_chain, model, monkeypatch):
    # measure-pipeline-like images: 3- and 6-ion chains at about half their
    # alpha*, spots smeared 0.3 um along the highest mode, Poisson noise.
    # Centres agree to 1e-6 um (seen: 2.5e-8 um on these and larger chains).
    chains = ((3, (1,), 0.50), (3, (0,), 0.186), (6, (), 0.058), (6, (2, 4), 0.078))
    for seed, (n, impurities, alpha) in enumerate(chains):
        trap = family.trap_at(alpha)
        config = linear_chain(trap, [ca2 if i in impurities else ca for i in range(n)])
        modes = ic.normal_modes(trap, config)
        desc = ic.mode_descriptor(modes, len(modes.frequencies) - 1)
        dirs = np.array([model.matrix @ row for row in desc.pattern])
        dirs[np.linalg.norm(dirs, axis=1) == 0.0] = [1.0, 0.0]
        uv = ic.project(config.positions, model)
        bright = ic.fluorescing(config)
        image = ic.render(uv, model, bright=bright, amplitudes_um=0.3 * desc.ion_amplitudes,
                          directions=dirs, flux=1e4, background=2.0,
                          rng=np.random.default_rng(seed))
        sep = int(np.diff(np.sort(uv[bright, 0])).min() / (2.0 * model.um_per_px))
        analytic, _ = ic.fit_positions(image, int(bright.sum()), min_separation_px=sep)
        with monkeypatch.context() as m:
            m.setattr(imaging, "_spot_jacobian", None)
            numeric, _ = ic.fit_positions(image, int(bright.sum()), min_separation_px=sep)
        assert np.abs(analytic - numeric).max() < 1e-6


def test_noise_is_reproducible(model):
    uv = np.array([[0.0, 0.0], [10.0, 2.0]])
    a = ic.render(uv, model, flux=1e4, background=1.0, rng=np.random.default_rng(9))
    b = ic.render(uv, model, flux=1e4, background=1.0, rng=np.random.default_rng(9))
    assert np.array_equal(a.intensity, b.intensity)


def test_spot_count_errors(model):
    blank = ic.CameraImage(np.zeros((32, 32)), 0.25, (0.0, 0.0))
    with pytest.raises(ic.SpotCountError):
        ic.fit_positions(blank, 1)
    one = ic.render(np.array([[0.0, 0.0]]), model, flux=1e5)
    with pytest.raises(ic.SpotCountError):
        ic.fit_positions(one, 3)
    with pytest.raises(ValueError):
        ic.fit_positions(one, 0)


def test_pgm_round_trip(tmp_path, model, read_pgm16):
    image = ic.render(np.array([[0.0, 0.0], [6.0, -3.0]]), model, flux=1e4)
    path = tmp_path / "spots.pgm"
    ic.write_pgm(image, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    data, maxval = read_pgm16(path)
    assert maxval == 65535
    assert data.shape == image.intensity.shape
    # scaling preserves the pattern up to quantisation
    np.testing.assert_allclose(
        data / maxval, image.intensity / image.intensity.max(), atol=1.0 / maxval
    )
    ic.write_pgm(image, tmp_path / "again.pgm")
    assert (tmp_path / "again.pgm").read_bytes() == raw
    # the file is in row order whatever the array's memory layout
    fortran = ic.CameraImage(np.asfortranarray(image.intensity), image.um_per_px,
                             image.origin_um)
    ic.write_pgm(fortran, tmp_path / "fortran.pgm")
    assert (tmp_path / "fortran.pgm").read_bytes() == raw


def test_model_validation():
    # one fixed camera: the model takes no argument at all
    for name in ("viewing_angle_deg", "rotation_deg", "magnification", "psf_um",
                 "pixel_pitch_um"):
        with pytest.raises(TypeError):
            ic.ProjectionModel(**{name: 1.0})
    with pytest.raises(TypeError):
        ic.ProjectionModel(45.0)
