import math

import numpy as np
import pytest

import ioncrystal as ic
from ioncrystal import transitions

OMEGA_RF = 2.0 * math.pi * 10.66e6


def test_family_hits_requested_anisotropy(family):
    reference_wz = family.frequencies_at(0.5).omega_z
    for alpha in (0.1, 5.0 / 12.0, 0.9, 1.3):
        freqs = family.frequencies_at(alpha)
        assert (freqs.omega_z / freqs.omega_x) ** 2 == pytest.approx(alpha, rel=1e-12)
        assert freqs.omega_z == pytest.approx(reference_wz, rel=1e-12)
        assert family.alpha_y_at(alpha) == pytest.approx(
            (freqs.omega_z / freqs.omega_y) ** 2, rel=1e-12
        )


def test_family_matches_direct_calibration(family, ca):
    # at the reference anisotropy the family reproduces the calibration inputs
    alpha0 = (119.0 / 480.0) ** 2
    freqs = family.frequencies_at(alpha0)
    for got, want_khz in zip(freqs.to_khz(), (480.0, 630.0, 119.0)):
        assert got == pytest.approx(want_khz, rel=1e-12)
    direct = ic.frequencies_for_species(family.trap_at(alpha0), ca)
    for got, want in zip(direct.as_tuple(), freqs.as_tuple()):
        assert got == pytest.approx(want, rel=1e-12)


def test_pure_three_ion_critical_point(family, ca):
    cp = ic.critical_anisotropy(family, [ca, ca, ca], method="both")
    assert cp.alpha_x == pytest.approx(5.0 / 12.0, abs=1e-3)
    assert cp.cross_check == pytest.approx(5.0 / 12.0, abs=1e-3)
    assert cp.method == "both"


def test_outer_impurity_softens_the_chain(family, ca, ca2):
    cp = ic.critical_anisotropy(family, [ca, ca, ca2], method="both")
    assert 0.36 <= cp.alpha_x <= 0.38


def test_central_impurity_stiffens_the_chain(family, ca, ca2, linear_chain):
    # the soft mode of the central arrangement is the rocking mode whose
    # squared frequency is exactly wx^2 - wz^2, so it crosses zero at
    # alpha = 1 like the two-ion pair
    cp = ic.critical_anisotropy(family, [ca, ca2, ca], method="both")
    assert cp.alpha_x == pytest.approx(1.0, abs=2e-4)
    trap = family.trap_at(1.0)
    modes = ic.normal_modes(trap, linear_chain(trap, [ca, ca2, ca]))
    assert int(modes.soft.sum()) == 1
    assert modes.frequencies[0] == 0.0


def test_two_ion_critical_point(family, ca):
    cp = ic.critical_anisotropy(family, [ca, ca], method="both")
    assert cp.alpha_x == pytest.approx(1.0, abs=2e-4)


def test_critical_ordering(family, ca, ca2):
    outer = ic.critical_anisotropy(family, [ca, ca, ca2], method="soft-mode")
    pure = ic.critical_anisotropy(family, [ca, ca, ca], method="soft-mode")
    central = ic.critical_anisotropy(family, [ca, ca2, ca], method="soft-mode")
    assert outer.alpha_x < pure.alpha_x < central.alpha_x


def test_critical_point_is_scale_invariant(ca):
    weak = ic.AnisotropyFamily.from_calibration(
        ca, ic.SpeciesFrequencies.from_khz(240.0, 315.0, 59.5), OMEGA_RF
    )
    cp = ic.critical_anisotropy(weak, [ca, ca, ca], method="soft-mode")
    assert cp.alpha_x == pytest.approx(5.0 / 12.0, abs=1e-3)


def test_unknown_method_rejected(family, ca):
    for method in ("guess", "order-parameter"):
        with pytest.raises(ValueError, match="unknown method"):
            ic.critical_anisotropy(family, [ca, ca], method=method)


def test_overflowing_trap_is_rejected(family):
    # the rf gradient of alpha = 1e-300 overflows; the trap used to be
    # built anyway, and a solve in it returned its unrelaxed start
    with pytest.raises(ValueError, match="rf_gradient"):
        family.trap_at(1e-300)


def test_three_regimes(family, ca, ca2):
    arrangements = {
        "pure": [ca, ca, ca],
        "outer": [ca, ca, ca2],
        "central": [ca, ca2, ca],
    }
    pm = ic.scan_configurations(family, arrangements, [0.30, 0.39, 0.45])
    kinds = {
        (p.label, p.alpha_x): p.structure.kind for p in pm.points if p.structure
    }
    assert kinds[("pure", 0.30)] == "linear"
    assert kinds[("outer", 0.30)] == "linear"
    assert kinds[("central", 0.30)] == "linear"
    assert kinds[("pure", 0.39)] == "linear"
    assert kinds[("outer", 0.39)] == "zigzag"
    assert kinds[("central", 0.39)] == "linear"
    assert kinds[("pure", 0.45)] == "zigzag"
    assert kinds[("outer", 0.45)] == "zigzag"
    assert kinds[("central", 0.45)] == "linear"
    assert {p.label for p in pm.points} == set(arrangements)


def test_monotone_phase_boundary_guard(family, ca, monkeypatch):
    # a chain classified zigzag and then linear as alpha grows re-enters
    # the linear phase: the scan refuses the map it would build. The first
    # label is the linear chain's, which serves 0.30 < 5/12 without a solve.
    kinds = iter([ic.StructureClass("linear", None, 0.0),
                  ic.StructureClass("zigzag", "xz", 1e-6),
                  ic.StructureClass("linear", None, 0.0)])
    monkeypatch.setattr(transitions, "classify", lambda cfg, length_scale: next(kinds))
    with pytest.raises(ValueError, match="non-monotone phase boundary for 'chain' at "
                                         "alpha_x = 0.5"):
        ic.scan_configurations(family, {"chain": [ca, ca, ca]}, [0.3, 0.45, 0.5])


def test_scan_records_solver_failures(family, ca):
    heavy = ic.IonSpecies(1, 4000.0)
    pm = ic.scan_configurations(
        family, {"ok": [ca, ca], "heavy": [heavy, heavy]}, [0.3, 0.4]
    )
    assert [p.label for p in pm.points] == ["ok", "ok", "heavy", "heavy"]
    for p in pm.points:
        assert (p.structure is None) == (p.label == "heavy")
        assert bool(p.error) == (p.label == "heavy")


def test_configuration_stability(family, ca, ca2, linear_chain):
    below = family.trap_at(0.30)
    above = family.trap_at(0.45)
    stable = linear_chain(below, [ca, ca, ca])
    assert ic.is_stationary(below, stable)
    assert np.all(ic.normal_modes(below, stable).frequencies > 0.0)
    pos = np.array(stable.positions)
    pos[0, 2] *= 1.0 + 1e-11
    assert not ic.is_stationary(below, stable.with_positions(pos))
    saddle = linear_chain(above, [ca, ca, ca])
    assert ic.is_stationary(above, saddle)
    with pytest.raises(ic.UnstableConfigurationError) as err:
        ic.normal_modes(above, saddle)
    assert err.value.negative_count == 1
    # the central arrangement is still linear-stable at the same stiffness
    ic.normal_modes(above, linear_chain(above, [ca, ca2, ca]))


def test_soft_mode_alpha_is_exact(family, ca, ca2):
    cases = (([ca, ca, ca], 5.0 / 12.0), ([ca, ca], 1.0), ([ca, ca2, ca], 1.0))
    for ions, exact in cases:
        cp = ic.critical_anisotropy(family, ions, method="soft-mode")
        assert cp.alpha_x == pytest.approx(exact, abs=1e-12)


def test_bracket_error_without_a_transition(family):
    # a light pair is held so tightly by the rf term that its soft
    # eigenvalue never changes sign: alpha* is infinite
    light = ic.IonSpecies(1, 4.0)
    for method in ("soft-mode", "both"):
        with pytest.raises(ic.BracketError):
            ic.critical_anisotropy(family, [light, light], method=method)


def _counting_solver(monkeypatch, fail_first=False):
    calls = []
    solve = transitions.find_equilibrium

    def counted(*args, **kwargs):
        calls.append(args[0])
        if fail_first and len(calls) == 1:
            raise ic.ConvergenceError("probe failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(transitions, "find_equilibrium", counted)
    return calls


def test_two_probes_confirm_the_soft_mode(family, ca, monkeypatch):
    calls = _counting_solver(monkeypatch)
    cp = ic.critical_anisotropy(family, [ca, ca, ca], method="both")
    assert len(calls) == 2
    assert cp.cross_check == pytest.approx(5.0 / 12.0, abs=1e-12)


def test_failed_probe_propagates(family, ca, monkeypatch):
    # a solver failure in the first probe ends the search
    calls = _counting_solver(monkeypatch, fail_first=True)
    with pytest.raises(ic.ConvergenceError, match="probe failed"):
        ic.critical_anisotropy(family, [ca, ca, ca], method="both")
    assert len(calls) == 1


def test_disagreeing_probes_raise(family, ca, monkeypatch):
    # an order-parameter detector blind below 0.1 ell (1e-4 of a 1000-fold
    # length scale) sees both probes as linear
    classify = transitions.classify

    def blunt(config, length_scale=None):
        return classify(config, length_scale=1e3 * length_scale)

    monkeypatch.setattr(transitions, "classify", blunt)
    calls = _counting_solver(monkeypatch)
    with pytest.raises(ic.MethodDisagreementError, match="linear below and linear above"):
        ic.critical_anisotropy(family, [ca, ca, ca], method="both")
    assert len(calls) == 2


def test_continuation_scan_matches_cold_solves(family, ca, ca2):
    scans = (
        ({"pure": [ca] * 3, "outer": [ca2, ca, ca], "central": [ca, ca2, ca]},
         np.linspace(0.30, 0.50, 21)),
        ({"impurity": [ca, ca, ca2, ca, ca, ca], "pure": [ca] * 6},
         np.linspace(0.06, 0.25, 20)),
    )
    ell = ic.characteristic_length(ca, family.frequencies_at(1.0).omega_z)
    for arrangements, alphas in scans:
        pm = ic.scan_configurations(family, arrangements, alphas)
        for label, ions in arrangements.items():
            # the scan's own steps, in ascending alpha: the chain below
            # alpha*, and above it a solve from the secant extrapolation of
            # the last two non-linear minima, else from the previous minimum
            chain = transitions._linear_chain(family, ions)
            alpha_star = transitions._soft_mode_alpha(family, chain)
            previous, history = None, []
            for p in (p for p in pm.points if p.label == label):
                trap = family.trap_at(p.alpha_x)
                if p.alpha_x < alpha_star:
                    warm = chain
                else:
                    start = previous
                    if len(history) == 2:
                        (a1, x1), (a2, x2) = history
                        start = x2 + (p.alpha_x - a2) / (a2 - a1) * (x2 - x1)
                    warm = ic.find_equilibrium(trap, ions, initial=start)
                    if ic.classify(warm, length_scale=ell).kind != "linear":
                        history = history[-1:] + [(p.alpha_x, warm.positions)]
                previous = warm.positions
                assert ic.classify(warm, length_scale=ell) == p.structure
                cold = ic.find_equilibrium(trap, ions)
                assert ic.classify(cold, length_scale=ell).kind == p.structure.kind
                e_cold = ic.potential_energy(trap, cold)
                e_warm = ic.potential_energy(trap, warm)
                assert e_warm <= e_cold + 1e-12 * abs(e_cold)


def test_scan_solves_only_above_the_soft_mode_alpha(family, ca, ca2, monkeypatch):
    ions = [ca, ca2, ca, ca]
    ell = transitions._reference_length(family)
    alpha_star = transitions._soft_mode_alpha(family, transitions._linear_chain(family, ions))
    alphas = alpha_star * np.linspace(0.5, 1.5, 12)
    classified, solved = [], []
    classify, solve = transitions.classify, transitions.find_equilibrium

    def recorded_classify(config, length_scale):
        classified.append((config, classify(config, length_scale=length_scale)))
        return classified[-1][1]

    def recorded_solve(trap, ions, **kwargs):
        solved.append(trap)
        return solve(trap, ions, **kwargs)

    monkeypatch.setattr(transitions, "classify", recorded_classify)
    monkeypatch.setattr(transitions, "find_equilibrium", recorded_solve)
    pm = ic.scan_configurations(family, {"chain": ions}, alphas)
    monkeypatch.undo()
    below = [p for p in pm.points if p.alpha_x < alpha_star]
    assert 0 < len(below) < len(alphas)
    assert solved == [family.trap_at(a) for a in alphas if a >= alpha_star]
    # the first label is the chain's, and every point below alpha* carries it
    chain, label = classified[0]
    assert np.all(chain.positions[:, :2] == 0.0)
    for p in below:
        assert p.structure is label
        assert (p.structure.kind, p.structure.order_parameter) == ("linear", 0.0)
        trap = family.trap_at(p.alpha_x)
        assert np.array_equal(chain.positions[:, 2], ic.axial_equilibrium(trap, ions))
        assert ic.classify(ic.find_equilibrium(trap, ions), length_scale=ell).kind == "linear"
    assert all(p.structure.kind != "linear" for p in pm.points if p.alpha_x >= alpha_star)


def _recorded_solves(monkeypatch, refuse=()):
    """Record (initial, minimum or None) of every scan solve; the solves
    numbered in refuse raise ConvergenceError instead."""
    calls = []
    solve = transitions.find_equilibrium

    def recorded(trap, ions, **kwargs):
        calls.append([kwargs.get("initial"), None])
        if len(calls) - 1 in refuse:
            raise ic.ConvergenceError("scripted")
        calls[-1][1] = solve(trap, ions, **kwargs).positions
        return ic.CrystalConfiguration(tuple(ions), calls[-1][1])

    monkeypatch.setattr(transitions, "find_equilibrium", recorded)
    return calls


def test_scan_falls_back_from_a_rejected_secant_start(family, ca, monkeypatch):
    # 5/12 < 0.45: every point is solved. The solve from the secant start
    # at 0.47 fails, so 0.47 is solved again from the minimum at 0.46, no
    # failure is recorded, and 0.48 starts from the secant of 0.46 and 0.47.
    calls = _recorded_solves(monkeypatch, refuse={2})
    pm = ic.scan_configurations(family, {"chain": [ca] * 3}, [0.45, 0.46, 0.47, 0.48])
    assert [p.error for p in pm.points] == [None] * 4
    assert all(p.structure.kind == "zigzag" for p in pm.points)
    assert len(calls) == 5
    (start, x45), (s46, x46), (_, refused), (s47, x47), (s48, _) = calls
    assert start is None and refused is None
    assert np.array_equal(s46, x45) and np.array_equal(s47, x46)
    assert np.array_equal(s48, x47 + np.float64(0.48 - 0.47) / (0.47 - 0.46) * (x47 - x46))
    # a repeated grid point makes the next secant start non-finite, which
    # find_equilibrium rejects: that point is solved from the previous minimum
    monkeypatch.undo()
    calls = _recorded_solves(monkeypatch)
    pm = ic.scan_configurations(family, {"chain": [ca] * 3}, [0.45, 0.46, 0.46, 0.47])
    assert [p.error for p in pm.points] == [None] * 4
    assert len(calls) == 5
    assert not np.all(np.isfinite(calls[3][0])) and calls[3][1] is None
    assert np.array_equal(calls[4][0], calls[2][1])


def _count_axial_solves(monkeypatch):
    """Count axial_equilibrium calls, whichever module makes them."""
    calls = []
    solve = ic.crystal.axial_equilibrium

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ic.crystal, "axial_equilibrium", counted)
    monkeypatch.setattr(transitions, "axial_equilibrium", counted)
    return calls


@pytest.mark.parametrize("method", ["both", "soft-mode"], ids=["probes", "soft-mode"])
def test_critical_search_solves_the_chain_once(family, ca, ca2, monkeypatch, method):
    ions = [ca, ca2, ca, ca]
    calls = _count_axial_solves(monkeypatch)
    starts = []
    solve = transitions.find_equilibrium

    def relax(trap, ions, **kwargs):
        starts.append(kwargs.get("initial"))
        return solve(trap, ions, **kwargs)

    monkeypatch.setattr(transitions, "find_equilibrium", relax)
    ic.critical_anisotropy(family, ions, method=method, seed=3)
    # one axial solve, and no relaxation solves the chain again on its own
    assert len(calls) == 1
    assert len(starts) == (2 if method == "both" else 0)
    assert all(start is not None for start in starts)


def test_probes_relax_exactly_as_cold_solves(family, ca, ca2, monkeypatch):
    ions = [ca2, ca, ca, ca, ca]
    seed, tol = 11, transitions._PROBE_SPACING
    probes = []
    solve = transitions.find_equilibrium

    def recorded(trap, ions, **kwargs):
        config = solve(trap, ions, **kwargs)
        probes.append((trap, config))
        return config

    monkeypatch.setattr(transitions, "find_equilibrium", recorded)
    cp = ic.critical_anisotropy(family, ions, method="both", seed=seed)
    monkeypatch.undo()
    assert [trap for trap, _ in probes] == [
        family.trap_at(cp.alpha_x - 0.5 * tol), family.trap_at(cp.alpha_x + 0.5 * tol)
    ]
    kinds = []
    for trap, config in probes:
        cold = ic.find_equilibrium(trap, ions, seed=seed)
        assert np.array_equal(config.positions, cold.positions)
        kinds.append(ic.classify(config, length_scale=transitions._reference_length(family)).kind)
    assert kinds[0] == "linear" and kinds[1] != "linear"
