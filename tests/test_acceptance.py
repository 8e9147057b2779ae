"""End-to-end acceptance gate.

Each test checks one headline result at the tolerance pinned next to it
and prints a single PASS/FAIL line (run with -s to see them all).
"""

import math
from pathlib import Path

import numpy as np

import ioncrystal as ic

OMEGA_RF = 2.0 * math.pi * 10.66e6
KHZ = 2.0 * math.pi * 1e3

CA = ic.IonSpecies(1, 40.0)
CA2 = ic.IonSpecies(2, 40.0)
REF = ic.SpeciesFrequencies.from_khz(480.0, 630.0, 119.0)
TRAP = ic.calibrate_from_frequencies(CA, REF, OMEGA_RF)
FAMILY = ic.AnisotropyFamily.from_calibration(CA, REF, OMEGA_RF)


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _chain(trap, ions):
    z = ic.axial_equilibrium(trap, ions)
    pos = np.zeros((len(ions), 3))
    pos[:, 2] = z
    return ic.CrystalConfiguration(tuple(ions), pos)


def test_01_length_change():
    pure = ic.find_equilibrium(TRAP, [CA, CA, CA])
    mixed = ic.find_equilibrium(TRAP, [CA, CA2, CA])
    ratio = ic.crystal_length(mixed) / ic.crystal_length(pure)
    increase = ratio - 1.0
    stretch_um = (ic.crystal_length(mixed) - ic.crystal_length(pure)) * 1e6
    ok = (
        abs(ratio - (9.0 / 5.0) ** (1.0 / 3.0)) < 1e-3 * ratio
        and 0.20 <= increase <= 0.23
        and 8.0 <= stretch_um <= 9.0
    )
    _report(
        1,
        "length-change-on-double-ionization",
        ok,
        f"ratio {ratio:.6f}, +{100 * increase:.2f}%, +{stretch_um:.3f} um",
    )


def test_02_pure_critical_anisotropy():
    cp = ic.critical_anisotropy(FAMILY, [CA, CA, CA], method="both")
    ok = abs(cp.alpha_x - 5.0 / 12.0) < 1e-3 and abs(cp.cross_check - 5.0 / 12.0) < 1e-3
    _report(
        2,
        "pure-chain-critical-anisotropy",
        ok,
        f"soft-mode {cp.alpha_x:.5f}, order-parameter {cp.cross_check:.5f}, target {5 / 12:.5f}",
    )


def test_03_impurity_critical_ordering():
    outer = ic.critical_anisotropy(FAMILY, [CA, CA, CA2], method="both")
    pure = ic.critical_anisotropy(FAMILY, [CA, CA, CA], method="both")
    central = ic.critical_anisotropy(FAMILY, [CA, CA2, CA], method="both")
    ok = (
        0.36 <= outer.alpha_x <= 0.38
        and outer.alpha_x < pure.alpha_x < central.alpha_x
    )
    _report(
        3,
        "impurity-critical-ordering",
        ok,
        f"outer {outer.alpha_x:.4f} < pure {pure.alpha_x:.4f} < central {central.alpha_x:.4f}",
    )


def test_04_six_ion_spectrum():
    modes = ic.normal_modes(TRAP, _chain(TRAP, [CA, CA, CA2, CA, CA, CA]))
    got = np.sort([modes.frequencies[m] / KHZ for m in ic.modes_by_axis(modes, "x")])
    expected = np.array([352.0, 403.0, 423.0, 463.0, 468.0, 1006.0])
    errors = np.abs(got - expected) / expected
    ok = len(got) == 6 and np.all(errors < 0.02)
    _report(
        4,
        "six-ion-transverse-spectrum",
        ok,
        f"{np.round(got, 1).tolist()} kHz, worst {100 * errors.max():.2f}%",
    )


def test_05_mode_localization():
    imp = ic.normal_modes(TRAP, _chain(TRAP, [CA, CA, CA2, CA, CA, CA]))
    ratios = {}
    for m in ic.modes_by_axis(imp, "x"):
        desc = ic.mode_descriptor(imp, m)
        khz = desc.frequency / KHZ
        for target in (403.0, 423.0):
            if abs(khz - target) < 10.0:
                ratios[target] = ic.localization_ratio(desc, 2)
    gap = ic.min_same_side_gap(imp, axis="x", boundary_index=2) / KHZ
    pure = ic.normal_modes(TRAP, _chain(TRAP, [CA] * 6))
    gap_pure = ic.min_same_side_gap(pure, axis="x") / KHZ
    ok = (
        set(ratios) == {403.0, 423.0}
        and all(r >= 20.0 for r in ratios.values())
        and 40.0 <= gap <= 50.0
        and 10.0 <= gap_pure <= 20.0
    )
    _report(
        5,
        "impurity-mode-localization",
        ok,
        f"ratios 403->{ratios.get(403.0, 0):.1f} 423->{ratios.get(423.0, 0):.1f}, "
        f"gaps {gap:.1f} vs {gap_pure:.1f} kHz",
    )


def test_06_rocking_mode_is_dark():
    checks = []
    for ions, dark_count in (([CA, CA2, CA], 1), ([CA, CA, CA2], 0)):
        modes = ic.normal_modes(TRAP, _chain(TRAP, ions))
        for axis in ("x", "y"):
            b = np.abs(ic.drive_overlap(modes, axis))
            rel = np.sort([b[m] / b.max() for m in ic.modes_by_axis(modes, axis)])
            dark = rel[rel <= 1e-12]
            lit = rel[rel > 1e-12]
            checks.append(len(dark) == dark_count and np.all(lit > 1e-3))
    central_x = ic.normal_modes(TRAP, _chain(TRAP, [CA, CA2, CA]))
    bx = np.abs(ic.drive_overlap(central_x, "x"))
    darkest = min(bx[m] / bx.max() for m in ic.modes_by_axis(central_x, "x"))
    ok = all(checks)
    _report(
        6,
        "rocking-mode-orthogonality",
        ok,
        f"central rocking overlap {darkest:.1e} relative, all others > 1e-3",
    )


def test_07_sweep_consistency():
    drive = ic.DriveSpec(
        "x", 1e-7, 1.0 * KHZ, np.linspace(400 * KHZ, 1100 * KHZ, 3501)
    )
    worst = 0.0
    counts = []
    for ions in ([CA, CA2, CA], [CA, CA, CA2]):
        modes = ic.normal_modes(TRAP, _chain(TRAP, ions))
        fits = ic.sweep_and_fit(modes, drive)
        counts.append(len(fits))
        b = np.abs(ic.drive_overlap(modes, "x"))
        bright = [m for m in ic.modes_by_axis(modes, "x") if b[m] > 1e-3 * b.max()]
        for fit in fits:
            err = min(abs(fit.center - modes.frequencies[m]) for m in bright)
            worst = max(worst, err)
    ok = counts == [2, 3] and worst < 1.0 * KHZ
    _report(
        7,
        "measurement-emulation-consistency",
        ok,
        f"peaks {counts}, worst center error {worst / (2 * math.pi):.2f} Hz < 1 kHz",
    )


def test_08_property_suites():
    rng = np.random.default_rng(2024)
    species = (CA, CA2, ic.IonSpecies(1, 24.0))

    def random_config(n=5):
        ions = tuple(species[i % 3] for i in range(n))
        while True:
            pos = rng.uniform(-25e-6, 25e-6, size=(n, 3))
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() >= 2e-6:
                return ic.CrystalConfiguration(ions, pos)

    h = 1e-9
    grad_ok = True
    for _ in range(100):
        config = random_config()
        g = ic.gradient(TRAP, config)
        scale = np.abs(g).max()
        for col in range(3 * config.n):
            plus = config.positions.ravel().copy()
            minus = plus.copy()
            plus[col] += h
            minus[col] -= h
            fd = (
                ic.potential_energy(TRAP, config.with_positions(plus.reshape(-1, 3)))
                - ic.potential_energy(TRAP, config.with_positions(minus.reshape(-1, 3)))
            ) / (2 * h)
            grad_ok &= abs(fd - g[col]) <= 1e-6 * scale

    hess_ok = True
    for _ in range(25):
        config = random_config()
        H = ic.hessian(TRAP, config)
        scale = np.abs(H).max()
        for col in range(3 * config.n):
            plus = config.positions.ravel().copy()
            minus = plus.copy()
            plus[col] += h
            minus[col] -= h
            fd = (
                ic.gradient(TRAP, config.with_positions(plus.reshape(-1, 3)))
                - ic.gradient(TRAP, config.with_positions(minus.reshape(-1, 3)))
            ) / (2 * h)
            hess_ok &= np.abs(fd - H[:, col]).max() <= 1e-6 * scale

    config = _chain(TRAP, [CA, CA, CA2, CA, CA, CA])
    modes = ic.normal_modes(TRAP, config)
    V = modes.vectors
    ortho_ok = np.abs(V.T @ V - np.eye(18)).max() < 1e-10
    inv_sqrt_m = 1.0 / np.sqrt(np.repeat(config.masses, 3))
    Hmw = ic.hessian(TRAP, config) * np.outer(inv_sqrt_m, inv_sqrt_m)
    trace_ok = abs(np.sum(modes.frequencies**2) - np.trace(Hmw)) < 1e-10 * np.trace(Hmw)

    com_ok = True
    pure = ic.normal_modes(TRAP, _chain(TRAP, [CA] * 4))
    for f_khz in (480.0, 630.0, 119.0):
        m = int(np.abs(pure.frequencies / KHZ - f_khz).argmin())
        com_ok &= abs(pure.frequencies[m] / KHZ - f_khz) < 1e-9 * f_khz

    weak_freqs = ic.SpeciesFrequencies.from_khz(240.0, 315.0, 59.5)
    weak = ic.calibrate_from_frequencies(CA, weak_freqs, OMEGA_RF)
    ell_ref = ic.characteristic_length(CA, REF.omega_z)
    ell_weak = ic.characteristic_length(CA, weak_freqs.omega_z)
    pos_ref = ic.find_equilibrium(TRAP, [CA, CA2, CA]).positions / ell_ref
    pos_weak = ic.find_equilibrium(weak, [CA, CA2, CA]).positions / ell_weak
    m_ref = ic.normal_modes(TRAP, _chain(TRAP, [CA, CA2, CA]))
    m_weak = ic.normal_modes(weak, _chain(weak, [CA, CA2, CA]))
    scale_ok = np.abs(pos_weak - pos_ref).max() < 1e-9 and np.all(
        np.abs(
            m_weak.frequencies / weak_freqs.omega_z
            - m_ref.frequencies / REF.omega_z
        )
        < 1e-9 * m_ref.frequencies.max() / REF.omega_z
    )

    ok = grad_ok and hess_ok and ortho_ok and trace_ok and com_ok and scale_ok
    _report(
        8,
        "property-suites",
        ok,
        f"gradient {grad_ok}, hessian {hess_ok}, orthonormal {ortho_ok}, "
        f"trace {trace_ok}, com {com_ok}, scale-invariance {scale_ok}",
    )


def test_09_imaging_round_trip():
    # the mount rotation preserves lengths, so the stretch shows in the norms
    model = ic.ProjectionModel()
    norms = np.linalg.norm(ic.project(np.eye(3) * 10e-6, model), axis=1)
    exact_stretch = np.allclose(norms, [10.0 * math.sqrt(2.0), 10.0 / math.sqrt(2.0),
                                        10.0 * math.sqrt(2.0)], rtol=1e-12, atol=0.0)
    u, v = ic.project(np.array([[0.0, 0.0, 10e-6]]), model)[0]
    exact_rotation = abs(math.degrees(math.atan2(v, u)) - 3.0) < 1e-12

    config = ic.find_equilibrium(TRAP, [CA, CA2, CA])
    uv = ic.project(config.positions, model)
    bright = ic.fluorescing(config)
    expected = uv[bright][np.argsort(uv[bright][:, 0])]
    clean = ic.render(uv, model, bright=bright, flux=1e4)
    fit_clean, _ = ic.fit_positions(clean, 2)
    noisy = ic.render(
        uv, model, bright=bright, flux=1e4, background=2.0,
        rng=np.random.default_rng(7),
    )
    fit_noisy, _ = ic.fit_positions(noisy, 2)
    err_clean = np.abs(fit_clean - expected).max()
    err_noisy = np.abs(fit_noisy - expected).max()

    u_dark, v_dark = uv[~bright][0]
    ucoord, vcoord = clean.coords()
    dark_level = clean.intensity[
        int(np.abs(vcoord - v_dark).argmin()), int(np.abs(ucoord - u_dark).argmin())
    ]
    dark_ok = dark_level < 0.01 * clean.intensity.max()

    ok = exact_stretch and exact_rotation and err_clean < 0.05 and err_noisy < 1.0 and dark_ok
    _report(
        9,
        "imaging-round-trip",
        ok,
        f"fit error {err_clean * 1e3:.2g} nm clean / {err_noisy * 1e3:.0f} nm noisy, "
        f"impurity pixel {dark_level / clean.intensity.max():.1e} of peak",
    )


def test_10_documented_exclusions():
    path = Path(__file__).resolve().parent.parent / "README.md"
    readme = path.read_text() if path.exists() else ""
    needles = (
        "absolute photoionization and fluorescence yields",
        "slow drift of the trapping potential",
        "camera exposure dynamics near the critical point",
    )
    missing = [n for n in needles if n not in readme]
    _report(
        10,
        "documented-exclusions",
        not missing,
        "all three out-of-scope effects named" if not missing else f"missing: {missing}",
    )
