"""Solves that used to fail, and the minima the solver must keep finding.

The committed grid holds the minima of the previous equilibrium solver
(BFGS with a Newton polish) on every critical-search arrangement of the
transition-scan benchmark, at fixed multiples of each arrangement's
alpha*. The descent loop may find a lower minimum, never a higher one.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import ioncrystal as ic
from ioncrystal import transitions

ROOT = Path(__file__).resolve().parent.parent
GRID = json.loads((ROOT / "tests" / "data" / "minima_grid.json").read_text())


def _oracle():
    """The benchmark's numpy-only reference model, bench/oracle.py."""
    name = "bench_oracle"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "oracle.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _assert_stable_minimum(trap, config):
    assert ic.is_stationary(trap, config)
    ic.normal_modes(trap, config)


@pytest.mark.parametrize(
    "alpha, layout, seed, kind",
    [
        # an arrangement's own alpha*, where the soft direction is quartic
        (0.3542114257812501, "212", 0, None),
        (0.19886696829352504, "2111", 0, "linear"),
        # alpha* + 2.5e-5 of the pair, in the flat tilt valley
        (1.4356907011535185, "21", 0, None),
        # long chains, whose residual force sat at the old solver tolerance
        (0.0015, "1" * 48, 0, "linear"),
        (0.002, "1" * 48, 0, "linear"),
        (0.0005, "1" * 72, 0, "linear"),
        (0.008, "1" * 96, 1, None),
    ],
    ids=["212-at-alpha*", "2111-at-alpha*", "21-above-alpha*", "48-at-0.0015",
         "48-at-0.002", "72-at-0.0005", "96-at-0.008-seed-1"],
)
def test_former_solver_failures_converge(family, ca, ca2, alpha, layout, seed, kind):
    ions = [ca if c == "1" else ca2 for c in layout]
    trap = family.trap_at(alpha)
    config = ic.find_equilibrium(trap, ions, seed=seed)
    _assert_stable_minimum(trap, config)
    if kind is not None:
        assert ic.classify(config).kind == kind


@pytest.mark.parametrize("n, impurity", [(64, None), (55, 27)])
def test_long_axial_chains_match_the_oracle(family, ca, ca2, n, impurity):
    ions = [ca] * n
    if impurity is not None:
        ions[impurity] = ca2
    cp = ic.critical_anisotropy(family, ions, method="soft-mode")
    oracle = _oracle()
    ref = oracle.Trap.from_khz(480.0, 630.0, 119.0)
    exact = oracle.critical_alpha(
        ref, oracle.Ions(tuple(s.charge_number for s in ions), tuple(s.mass_amu for s in ions))
    )
    assert cp.alpha_x == pytest.approx(exact, rel=1e-9)
    z = ic.axial_equilibrium(family.trap_at(1.0), ions)
    assert np.all(np.diff(z) > 0.0)


def test_axial_chains_of_random_mixtures_match_the_oracle(family):
    # charges 1-3 and masses 6-200 amu, chains of 2-100 ions: the axial
    # chain, and alpha* wherever it lies inside the critical search's range
    oracle = _oracle()
    ref = oracle.Trap.from_khz(480.0, 630.0, 119.0)
    trap = family.trap_at(1.0)
    rng = np.random.default_rng(20130)
    for _ in range(30):
        n = int(rng.integers(2, 101))
        charges = [int(q) for q in rng.integers(1, 4, n)]
        masses = [float(m) for m in rng.uniform(6.0, 200.0, n)]
        ions = [ic.IonSpecies(q, m) for q, m in zip(charges, masses)]
        z = ic.axial_equilibrium(trap, ions)
        mixture = oracle.Ions(tuple(charges), tuple(masses))
        exact = oracle.axial_chain(ref, mixture)
        assert np.all(np.diff(z) > 0.0)
        assert np.abs(z - exact).max() <= 1e-9 * np.abs(exact).max(), (charges, masses)
        alpha = oracle.critical_alpha(ref, mixture)
        if alpha >= transitions._ALPHA_MIN:
            cp = ic.critical_anisotropy(family, ions, method="soft-mode")
            assert cp.alpha_x == pytest.approx(alpha, rel=1e-12, abs=0.0), (charges, masses)
        else:
            with pytest.raises(ic.BracketError):
                ic.critical_anisotropy(family, ions, method="soft-mode")


def test_order_parameter_search_for_a_former_stalling_seed(family, ca, ca2):
    ions = [ca] * 4 + [ca2] + [ca] * 3
    cp = ic.critical_anisotropy(family, ions, method="both", seed=303069535)
    assert abs(cp.cross_check - cp.alpha_x) <= 1e-3


def test_minima_are_never_higher_than_the_committed_grid(family):
    species = {1: ic.IonSpecies(1, 40.0), 2: ic.IonSpecies(2, 40.0)}
    worse = []
    for case in GRID["cases"]:
        trap = family.trap_at(case["alpha"])
        config = ic.find_equilibrium(trap, [species[q] for q in case["charges"]], seed=0)
        if case["energy"] is None:
            # the previous solver failed here; a stable minimum is progress
            _assert_stable_minimum(trap, config)
            continue
        rel = (ic.potential_energy(trap, config) - case["energy"]) / abs(case["energy"])
        kind = ic.classify(config).kind
        if case["ratio"] <= 1.5:
            # near the transition: the same minimum, or a strictly lower one
            if rel > 1e-12 or (kind != case["kind"] and rel >= -1e-12):
                worse.append((case["charges"], case["ratio"], kind, rel))
        elif rel > 1e-4:
            # deep in the buckled phase many minima compete; allow a hair above
            worse.append((case["charges"], case["ratio"], kind, rel))
    assert not worse, worse



def test_spot_fit_default_separation_skips_noise_bumps(family, ca, ca2):
    # the measure-pipeline render of 6 ions with the Ca2+ outermost: top
    # mode smeared by 0.3 um, Poisson noise; a fixed 4 px separation took a
    # noise bump on one spot's flank for a second spot (18 um off)
    trap = family.trap_at(0.048)
    config = ic.find_equilibrium(trap, [ca2] + [ca] * 5, seed=0)
    modes = ic.normal_modes(trap, config)
    desc = ic.mode_descriptor(modes, len(modes.frequencies) - 1)
    model = ic.ProjectionModel()
    uv = ic.project(config.positions, model)
    bright = ic.fluorescing(config)
    image = ic.render(
        uv,
        model,
        bright=bright,
        amplitudes_um=0.3 * desc.ion_amplitudes,
        directions=ic.project(desc.pattern, model),
        flux=1e4,
        background=2.0,
        rng=np.random.default_rng(1924363861),
    )
    expected = uv[bright][np.argsort(uv[bright][:, 0])]
    fitted, _ = ic.fit_positions(image, int(bright.sum()))
    assert np.abs(fitted - expected).max() < 0.1
    # an explicit separation is used as given
    fitted, _ = ic.fit_positions(image, int(bright.sum()), min_separation_px=4)
    assert np.abs(fitted - expected).max() > 10.0


def test_camera_reads_as_the_bench_expects():
    # bench/workloads.py reads these attributes and checks spots against
    # the oracle's matrix for the same two angles
    model = ic.ProjectionModel()
    assert (model.viewing_angle_deg, model.rotation_deg) == (45.0, 3.0)
    assert model.um_per_px == 0.25
    want = _oracle().projection_matrix(45.0, 3.0)
    assert np.abs(model.matrix - want).max() <= 1e-12 * np.abs(want).max()
