import inspect
from pathlib import Path

import ioncrystal
from ioncrystal.cli import build_parser, main

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "three_ion_central.yaml"

# Every public name of the package; adding or removing an export is a
# reviewed edit here.
PUBLIC = [
    "ATOMIC_MASS", "AnisotropyFamily", "BoundaryError", "BracketError", "CalibrationError",
    "CameraImage", "CoincidentIonsError", "ConvergenceError", "CriticalPoint",
    "CrystalConfiguration", "DriveSpec", "ELEMENTARY_CHARGE", "FitError", "IonCrystalError",
    "IonSpecies", "K_COULOMB", "MethodDisagreementError", "ModeDescriptor", "NoPeakError",
    "NormalModeSet", "PeakFit", "PeakFitError", "PhaseMap", "PhasePoint", "ProjectionModel",
    "ResponseCurve", "SaddlePointError", "Scenario", "ScenarioError", "SolverError",
    "SpeciesFrequencies", "SpotCountError", "StructureClass", "TrapInstabilityError",
    "TrapModel", "UnstableConfigurationError", "anisotropy", "axial_equilibrium",
    "calibrate_from_frequencies", "characteristic_length", "classify", "critical_anisotropy",
    "crystal_length", "drive_overlap", "find_equilibrium", "fit_positions", "fluorescing",
    "frequencies_for_species", "gradient", "hessian", "impurity_amplitude_ratio",
    "is_stationary", "localization_ratio", "min_same_side_gap", "mode_descriptor",
    "modes_by_axis", "normal_modes", "parse_scenario", "potential_energy", "project",
    "pseudopotential_terms", "read_pgm", "render", "response_curve",
    "scan_configurations", "steady_state", "sweep_and_fit", "write_pgm",
]

# Every exported callable with a defaulted parameter, and those parameters.
# A new option on the public API shows up here as a reviewed edit; a value
# that no caller sets belongs in a module constant instead.
DEFAULTED = {
    "CriticalPoint": ["cross_check"],
    "PhasePoint": ["error"],
    "classify": ["length_scale"],
    "critical_anisotropy": ["method", "seed"],
    "find_equilibrium": ["seed", "initial"],
    "fit_positions": ["min_separation_px"],
    "min_same_side_gap": ["axis", "boundary_index"],
    "render": ["bright", "amplitudes_um", "directions", "flux", "background", "rng"],
    "scan_configurations": ["seed"],
}


def _defaulted() -> dict[str, list[str]]:
    found = {}
    for name in dir(ioncrystal):
        obj = getattr(ioncrystal, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an error class that keeps Exception's constructor
            continue
        names = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if names:
            found[name] = names
    return found


def test_defaulted_parameters_are_pinned():
    assert _defaulted() == DEFAULTED
    assert sum(map(len, DEFAULTED.values())) == 17


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on
    # what has been imported so far
    names = [
        name for name, obj in vars(ioncrystal).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    assert sorted(names) == PUBLIC


def test_cli_flags_are_pinned(capsys):
    # every command takes --scenario, --seed and --out and nothing else;
    # adding a flag is a reviewed edit here
    for command in ("calibrate", "equilibrium", "modes", "scan", "response", "render"):
        args = build_parser().parse_args([command, "--scenario", "s.yaml"])
        assert set(vars(args)) == {"command", "scenario", "seed", "out"}
        assert main([command, "--scenario", str(SCENARIO), "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err
