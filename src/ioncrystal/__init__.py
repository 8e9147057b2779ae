"""Mixed-charge ion Coulomb crystals in a linear Paul trap.

Equilibrium structures, normal-mode spectra, structural transitions
under a radial stiffness scan, driven-response frequency measurement,
and synthetic camera imaging.
"""

from .constants import ATOMIC_MASS, ELEMENTARY_CHARGE, K_COULOMB
from .crystal import (
    CrystalConfiguration,
    StructureClass,
    axial_equilibrium,
    classify,
    crystal_length,
    find_equilibrium,
    gradient,
    hessian,
    is_stationary,
    potential_energy,
)
from .errors import (
    BoundaryError,
    BracketError,
    CalibrationError,
    CoincidentIonsError,
    ConvergenceError,
    FitError,
    IonCrystalError,
    MethodDisagreementError,
    NoPeakError,
    PeakFitError,
    SaddlePointError,
    ScenarioError,
    SolverError,
    SpotCountError,
    TrapInstabilityError,
    UnstableConfigurationError,
)
from .imaging import (
    CameraImage,
    ProjectionModel,
    fit_positions,
    fluorescing,
    project,
    render,
    write_pgm,
)
from .modes import (
    ModeDescriptor,
    NormalModeSet,
    localization_ratio,
    min_same_side_gap,
    mode_descriptor,
    modes_by_axis,
    normal_modes,
)
from .response import (
    DriveSpec,
    PeakFit,
    ResponseCurve,
    drive_overlap,
    response_curve,
    sweep_and_fit,
)
from .scenario import Scenario, parse_scenario
from .trap import (
    IonSpecies,
    SpeciesFrequencies,
    TrapModel,
    anisotropy,
    calibrate_from_frequencies,
    characteristic_length,
    frequencies_for_species,
)
from .transitions import (
    AnisotropyFamily,
    CriticalPoint,
    PhaseMap,
    PhasePoint,
    critical_anisotropy,
    scan_configurations,
)

__version__ = "0.1.0"
