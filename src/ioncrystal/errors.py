"""Exception hierarchy.

The command line layer maps these onto exit codes: scenario and
calibration problems are input errors (exit 2), anything derived from
SolverError is a numerical failure (exit 3), anything derived from
FitError is a fitting failure (exit 4).
"""


class IonCrystalError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioError(IonCrystalError):
    """A scenario file is missing, malformed, or inconsistent."""


class CalibrationError(IonCrystalError):
    """Secular frequencies violate the omega_x <= omega_y convention."""


class SolverError(IonCrystalError):
    """Base class for numerical solver failures."""


class TrapInstabilityError(SolverError):
    """A species has no real secular frequency along some axis."""

    def __init__(self, message: str, axis: str):
        super().__init__(message)
        self.axis = axis


class CoincidentIonsError(SolverError):
    """Two ions closer than the minimum resolvable separation."""


class ConvergenceError(SolverError):
    """An iterative solve stopped before reaching its tolerance."""


class SaddlePointError(SolverError):
    """Relaxation terminated on a stationary point with negative curvature."""

    def __init__(self, message: str, negative_count: int):
        super().__init__(message)
        self.negative_count = negative_count


class UnstableConfigurationError(SolverError):
    """Mode analysis found negative Hessian eigenvalues."""

    def __init__(self, message: str, negative_count: int):
        super().__init__(message)
        self.negative_count = negative_count


class BracketError(SolverError):
    """The critical anisotropy lies outside the range it is searched in."""


class MethodDisagreementError(SolverError):
    """Two independent estimates of the same quantity disagree."""


class BoundaryError(IonCrystalError):
    """A side-splitting index leaves one side empty or under-populated."""


class FitError(IonCrystalError):
    """Base class for curve- and image-fitting failures."""


class NoPeakError(FitError):
    """A response sweep contains no detectable resonance."""


class PeakFitError(FitError):
    """A resonance peak could not be fit."""


class SpotCountError(FitError):
    """An image does not contain the expected number of spots."""
