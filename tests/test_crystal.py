import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ioncrystal as ic
from ioncrystal import crystal

OMEGA_RF = 2.0 * math.pi * 10.66e6


def test_single_ion_sits_at_origin(trap, ca):
    config = ic.find_equilibrium(trap, [ca])
    assert np.abs(config.positions).max() < 1e-15
    origin = ic.CrystalConfiguration((ca,), np.zeros((1, 3)))
    assert ic.potential_energy(trap, origin) == 0.0
    assert np.all(ic.gradient(trap, origin) == 0.0)


def test_two_ion_spacing(trap, ca):
    ell = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    config = ic.find_equilibrium(trap, [ca, ca])
    z = np.sort(config.positions[:, 2])
    assert z[1] - z[0] == pytest.approx(2.0 ** (1 / 3) * ell, rel=1e-9)
    # the analytic positions are an equilibrium to within rounding noise
    exact = np.zeros((2, 3))
    exact[:, 2] = [-0.5 * 2.0 ** (1 / 3) * ell, 0.5 * 2.0 ** (1 / 3) * ell]
    g = ic.gradient(trap, ic.CrystalConfiguration((ca, ca), exact))
    assert np.abs(g).max() < 1e-18


def test_three_ion_pure_spacing(trap, ca):
    ell = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    config = ic.find_equilibrium(trap, [ca, ca, ca])
    z = np.sort(config.positions[:, 2])
    a = (5.0 / 4.0) ** (1 / 3) * ell
    assert z[0] == pytest.approx(-a, rel=1e-9)
    assert z[1] == pytest.approx(0.0, abs=1e-9 * ell)
    assert z[2] == pytest.approx(a, rel=1e-9)


def test_central_impurity_stretches_chain(trap, ca, ca2):
    # swapping the centre ion for the doubly charged species pushes the
    # outer ions from (5/4)^(1/3) ell to (9/4)^(1/3) ell
    ell = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    pure = ic.find_equilibrium(trap, [ca, ca, ca])
    mixed = ic.find_equilibrium(trap, [ca, ca2, ca])
    b = 0.5 * ic.crystal_length(mixed)
    assert b == pytest.approx((9.0 / 4.0) ** (1 / 3) * ell, rel=1e-9)
    ratio = ic.crystal_length(mixed) / ic.crystal_length(pure)
    assert ratio == pytest.approx((9.0 / 5.0) ** (1 / 3), rel=1e-9)
    stretch = ic.crystal_length(mixed) - ic.crystal_length(pure)
    assert stretch == pytest.approx(8.572e-6, rel=1e-3)


def test_symmetric_arrangements_are_centred(trap, ca, ca2):
    for ions in ([ca, ca, ca], [ca, ca2, ca], [ca, ca2, ca, ca, ca2, ca]):
        config = ic.find_equilibrium(trap, ions)
        z = config.positions[:, 2]
        assert np.abs(z + z[::-1]).max() < 1e-9 * ic.crystal_length(config)


def test_gradient_matches_finite_differences(trap, mixed_config_factory):
    rng = np.random.default_rng(12345)
    h = 1e-9
    for _ in range(100):
        config = mixed_config_factory(rng)
        g = ic.gradient(trap, config)
        scale = np.abs(g).max()
        for i in range(config.n):
            for axis in range(3):
                plus = config.positions.copy()
                minus = config.positions.copy()
                plus[i, axis] += h
                minus[i, axis] -= h
                fd = (
                    ic.potential_energy(trap, config.with_positions(plus))
                    - ic.potential_energy(trap, config.with_positions(minus))
                ) / (2.0 * h)
                assert abs(fd - g[3 * i + axis]) <= 1e-6 * scale


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from([0, 1, 2]))
def test_energy_is_mirror_symmetric(trap, mixed_config_factory, seed, axis):
    rng = np.random.default_rng(seed)
    config = mixed_config_factory(rng)
    flipped = config.positions.copy()
    flipped[:, axis] *= -1.0
    e0 = ic.potential_energy(trap, config)
    e1 = ic.potential_energy(trap, config.with_positions(flipped))
    assert e1 == pytest.approx(e0, rel=1e-12)


def test_positions_scale_with_characteristic_length(ca, ca2):
    # halving every trap frequency leaves positions/ell invariant
    strong = ic.calibrate_from_frequencies(
        ca, ic.SpeciesFrequencies.from_khz(480.0, 630.0, 119.0), OMEGA_RF
    )
    weak = ic.calibrate_from_frequencies(
        ca, ic.SpeciesFrequencies.from_khz(240.0, 315.0, 59.5), OMEGA_RF
    )
    ions = [ca, ca2, ca]
    ell_s = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    ell_w = ic.characteristic_length(ca, 2.0 * math.pi * 59.5e3)
    pos_s = ic.find_equilibrium(strong, ions).positions / ell_s
    pos_w = ic.find_equilibrium(weak, ions).positions / ell_w
    np.testing.assert_allclose(pos_w, pos_s, rtol=1e-9, atol=1e-9)


def _x_reflection(config):
    pos = np.array(config.positions)
    pos[:, 0] = -pos[:, 0]
    return config.with_positions(pos)


def test_zigzag_branch_pair(family, ca):
    # soft radial confinement past the buckling point: three equal ions zigzag
    trap = family.trap_at(0.45)
    primary = ic.find_equilibrium(trap, [ca, ca, ca])
    mirror = _x_reflection(primary)
    for config in (primary, mirror):
        label = ic.classify(config)
        assert label.kind == "zigzag"
        assert label.plane == "xz"
        assert label.order_parameter > 0.0
    # the potential is even in x: the reflection is a degenerate minimum,
    # and a solve from the reflected seed lands on it
    e0 = ic.potential_energy(trap, primary)
    assert ic.potential_energy(trap, mirror) == pytest.approx(e0, rel=1e-12)
    assert ic.is_stationary(trap, mirror)
    ic.normal_modes(trap, mirror)
    z = ic.axial_equilibrium(trap, [ca, ca, ca])
    seed = crystal._cold_start(trap, (ca, ca, ca), z, np.random.default_rng(0))
    seed[:, 0] *= -1.0
    solved = ic.find_equilibrium(trap, [ca, ca, ca], initial=seed)
    np.testing.assert_allclose(solved.positions, mirror.positions, rtol=1e-6)


def test_linear_branch_pair_coincides(family, ca):
    trap = family.trap_at(0.30)
    primary = ic.find_equilibrium(trap, [ca, ca, ca])
    np.testing.assert_allclose(
        _x_reflection(primary).positions, primary.positions, rtol=0.0, atol=1e-15
    )


def test_full_solve_matches_axial_solve(family, ca, ca2):
    trap = family.trap_at(0.25)
    ions = [ca, ca, ca2, ca]
    z = ic.axial_equilibrium(trap, ions)
    config = ic.find_equilibrium(trap, ions)
    ell = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    np.testing.assert_allclose(config.positions[:, 2], z, rtol=1e-9, atol=1e-14)
    assert np.abs(config.positions[:, :2]).max() < 1e-9 * ell
    assert ic.classify(config).kind == "linear"


def test_equilibrium_forces_below_tolerance(trap, family, ca, ca2):
    cases = [
        (trap, [ca, ca, ca2, ca, ca, ca]),
        (family.trap_at(0.45), [ca, ca, ca]),
    ]
    for model, ions in cases:
        config = ic.find_equilibrium(model, ions)
        assert ic.is_stationary(model, config)


def test_stationarity_is_relative_to_the_force_scale(trap, ca):
    # the paper's trap has a Coulomb force unit of ~7e-19 N, so an absolute
    # bound of 1e-16 N would pass a chain with an end ion moved by 30 %
    chain = ic.find_equilibrium(trap, [ca, ca, ca])
    assert ic.is_stationary(trap, chain)
    pos = chain.positions.copy()
    pos[0, 2] *= 1.3
    moved = chain.with_positions(pos)
    assert np.abs(ic.gradient(trap, moved)).max() < 1e-16
    assert not ic.is_stationary(trap, moved)


def test_solves_are_deterministic(family, ca):
    trap = family.trap_at(0.45)
    a = ic.find_equilibrium(trap, [ca, ca, ca], seed=7)
    b = ic.find_equilibrium(trap, [ca, ca, ca], seed=7)
    assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize("script, winner", [
    # a branch within 1e-12 of the first minimum loses the tie to it; one
    # that fails is dropped, and a higher one loses
    ((-1.0, -1.0 - 0.5e-12, ic.SaddlePointError("scripted", 1), 0.0), 0),
    # a strictly lower branch wins, even after a tie
    ((-1.0, -1.0 - 0.5e-12, -1.5, ic.ConvergenceError("scripted")), 2),
], ids=["first-wins", "lower-wins"])
def test_lowest_branch_wins_and_ties_go_to_the_earliest(family, ca, monkeypatch, script,
                                                        winner):
    # each branch's descent is scripted by first_mode: a minimum u whose
    # x offsets name the branch, its energy, and 4 unstable modes to follow
    returned = {}

    def scripted_relax(u, *args, first_mode=0):
        outcome = script[first_mode]
        if isinstance(outcome, Exception):
            raise outcome
        returned[first_mode] = u.copy()
        returned[first_mode][:, 0] = first_mode
        return returned[first_mode], outcome, 4

    monkeypatch.setattr(crystal, "_relax", scripted_relax)
    ions = [ca, ca, ca]
    trap = family.trap_at(0.45)
    config = ic.find_equilibrium(trap, ions)
    scale = crystal._arrays(trap, ions)[3]
    assert sorted(returned) == [k for k, outcome in enumerate(script)
                                if not isinstance(outcome, Exception)]
    assert np.array_equal(config.positions, returned[winner] * scale)


def test_classify_planes_and_threshold(ca):
    ions = (ca, ca, ca)
    z = np.array([-10e-6, 0.0, 10e-6])

    def config(x=(0, 0, 0), y=(0, 0, 0)):
        return ic.CrystalConfiguration(ions, np.column_stack([x, y, z]))

    yz = ic.classify(config(y=(1e-6, -1e-6, 1e-6)))
    assert (yz.kind, yz.plane) == ("zigzag", "yz")
    both = ic.classify(config(x=(1e-6, -1e-6, 1e-6), y=(1e-6, -1e-6, 1e-6)))
    assert both.kind == "other"
    same_side = ic.classify(config(x=(1e-6, 1e-6, 1e-6)))
    assert same_side.kind == "other"
    # displacements below 1e-4 * length_scale count as zero
    tiny = config(x=(1e-12, -1e-12, 1e-12))
    assert ic.classify(tiny, length_scale=10e-6).kind == "linear"
    assert ic.classify(tiny, length_scale=10e-10).kind == "zigzag"


def test_coincident_ions_rejected(ca):
    pos = np.zeros((2, 3))
    with pytest.raises(ic.CoincidentIonsError):
        ic.CrystalConfiguration((ca, ca), pos)


def test_configuration_validation(ca):
    with pytest.raises(ValueError):
        ic.CrystalConfiguration((), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ic.CrystalConfiguration((ca,), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ic.CrystalConfiguration((ca,), np.array([[np.nan, 0.0, 0.0]]))


def test_initial_at_a_minimum_returns_it(family, ca, ca2):
    ell = ic.characteristic_length(ca, 2.0 * math.pi * 119e3)
    for alpha, ions in ((0.45, [ca, ca, ca]), (0.25, [ca, ca, ca2, ca])):
        trap = family.trap_at(alpha)
        cold = ic.find_equilibrium(trap, ions)
        warm = ic.find_equilibrium(trap, ions, initial=cold.positions)
        e0 = ic.potential_energy(trap, cold)
        assert abs(ic.potential_energy(trap, warm) - e0) <= 1e-12 * abs(e0)
        assert np.abs(warm.positions - cold.positions).max() <= 1e-12 * ell


def test_initial_linear_chain_past_the_transition_buckles(family, ca, linear_chain):
    # 0.45 > 5/12: the linear chain is a saddle, so the warm start escapes it
    trap = family.trap_at(0.45)
    chain = linear_chain(trap, [ca, ca, ca])
    config = ic.find_equilibrium(trap, [ca, ca, ca], initial=chain.positions)
    assert ic.classify(config).kind == "zigzag"
    assert ic.is_stationary(trap, config)
    ic.normal_modes(trap, config)


def test_initial_is_validated(family, ca):
    trap = family.trap_at(0.3)
    good = ic.find_equilibrium(trap, [ca, ca, ca]).positions
    with pytest.raises(ValueError):
        ic.find_equilibrium(trap, [ca, ca, ca], initial=good[:2])
    with pytest.raises(ValueError):
        ic.find_equilibrium(trap, [ca, ca, ca], initial=np.full((3, 3), np.nan))
    with pytest.raises(ic.CoincidentIonsError):
        ic.find_equilibrium(trap, [ca, ca, ca], initial=np.zeros((3, 3)))
    # the cold-start offset and the escape bound are constants, not options,
    # the mirror is the primary's reflection, not a second solve, and a
    # solve relaxes from one start
    for option in ({"perturbation": 1e-8}, {"max_escapes": 8}, {"both_branches": True},
                   {"restarts": 2}):
        with pytest.raises(TypeError):
            ic.find_equilibrium(trap, [ca, ca, ca], **option)


def test_warm_start_flushes_sub_floor_offsets(family, ca):
    # 5 ions past alpha* buckle in x; y offsets of 1e-200 m are ~1e-195 of
    # the length unit, below crystal._FLOOR, and are set to exactly zero
    trap = family.trap_at(0.3)
    ions = [ca] * 5
    zigzag = ic.find_equilibrium(trap, ions).positions.copy()
    zigzag[:, 1] = 0.0
    tiny_y = zigzag.copy()
    tiny_y[:, 1] = 1e-200 * (-1.0) ** np.arange(5)
    flat = ic.find_equilibrium(trap, ions, initial=zigzag)
    flushed = ic.find_equilibrium(trap, ions, initial=tiny_y)
    assert np.all(flushed.positions[:, 1] == 0.0)
    assert ic.potential_energy(trap, flushed) == ic.potential_energy(trap, flat)
    assert ic.classify(flushed) == ic.classify(flat)
    assert ic.classify(flat).kind == "zigzag"


def test_continuation_holds_no_sub_floor_coordinate(family, ca):
    # transition-scan's 16-ion grid: each warm start shrinks the
    # out-of-plane offsets of the zigzag by ~1e-14 until they are zero
    ions = [ca] * 16
    tiny = np.finfo(float).tiny
    scale = crystal._arrays(family.trap_at(0.009), ions)[3]
    previous = None
    for alpha in np.linspace(0.009, 0.04, 41):
        trap = family.trap_at(alpha)
        config = ic.find_equilibrium(trap, ions, initial=previous)
        u = config.positions / scale
        assert not np.any((u != 0.0) & (np.abs(u) < crystal._FLOOR)), alpha
        H = ic.hessian(trap, config)
        assert not np.any((H != 0.0) & (np.abs(H) < tiny)), alpha
        previous = config.positions
    assert ic.classify(config).kind == "zigzag"


@pytest.mark.parametrize("n", [2, 3, 7, 20, 48])
def test_solve_units_reproduce_the_si_kernel(family, n):
    # the kernel in a solve's units (lengths in the length unit L, energies
    # in K q_0^2 / L) is the SI kernel rescaled, on random mixtures
    rng = np.random.default_rng(n)
    species = (ic.IonSpecies(1, 40.0), ic.IonSpecies(2, 40.0), ic.IonSpecies(1, 9.0),
               ic.IonSpecies(3, 138.0))
    ions = tuple(species[i] for i in rng.integers(len(species), size=n))
    trap = family.trap_at(0.05)
    k2, kq, masses, scale = crystal._arrays(trap, ions)
    k2_u, kq_u, masses_u, scale_u = crystal._solve_units(trap, ions)
    assert scale_u == scale
    assert np.array_equal(masses_u, masses / masses[0])
    e0 = kq[0, 0] / scale
    u = np.column_stack([rng.normal(0.0, 0.3, n), rng.normal(0.0, 0.3, n),
                         np.arange(n) - 0.5 * (n - 1) + rng.uniform(-0.2, 0.2, n)])
    e, g, force, geometry = crystal._evaluate(u * scale, k2, kq)
    e_u, g_u, force_u, geometry_u = crystal._evaluate(u, k2_u, kq_u)
    H = crystal._hessian(geometry, k2)
    H_u = crystal._hessian(geometry_u, k2_u)
    assert abs(e_u * e0 - e) <= 1e-13 * abs(e)
    assert abs(force_u * e0 / scale - force) <= 1e-13 * force
    assert np.abs(g_u * (e0 / scale) - g).max() <= 1e-13 * force
    assert np.abs(H_u * (e0 / scale**2) - H).max() <= 1e-13 * np.abs(H).max()


def test_relax_makes_one_geometry_pass_per_point(family, ca, ca2, monkeypatch):
    # each trial point's pair geometry serves its energy, gradient, Hessian
    # and the trust radius's spacing: one pass per evaluated point
    ions = (ca, ca2, ca, ca, ca2, ca)
    trap = family.trap_at(0.3)
    k2, kq, masses, scale = crystal._solve_units(trap, ions)
    start = crystal._cold_start(trap, ions, ic.axial_equilibrium(trap, ions),
                                np.random.default_rng(0)) / scale
    passes, points = [], []
    geometry, evaluate = crystal._pair_geometry, crystal._evaluate

    def counted_geometry(pos):
        passes.append(pos)
        return geometry(pos)

    def counted_evaluate(pos, *args):
        points.append(pos)
        return evaluate(pos, *args)

    def refused(pos):
        raise AssertionError("_min_separation called in _relax")

    monkeypatch.setattr(crystal, "_pair_geometry", counted_geometry)
    monkeypatch.setattr(crystal, "_evaluate", counted_evaluate)
    monkeypatch.setattr(crystal, "_min_separation", refused)
    u, _, forks = crystal._relax(start, k2, kq, masses)
    assert forks > 0 and len(points) > 5
    assert len(passes) == len(points)
    assert all(p is q for p, q in zip(passes, points))
