"""Linear Paul trap pseudopotential model.

A trap is described by three curvature parameters and the rf drive
frequency. For an ion of charge q and mass M the secular frequencies in
the pseudopotential approximation are

    omega_z^2 = 4 q beta / M
    omega_{x,y}^2 = 2 [ (q gamma / (M Omega))^2 - q beta / M -+ q beta_rad / M ]

where beta is the static axial curvature, beta_rad a static radial
asymmetry that splits the two transverse axes (minus sign on x, so x is
the soft axis), and gamma the rf field gradient. All quantities are SI;
frequencies are angular (rad/s).

Because beta and beta_rad enter linearly in q/M while the rf term enters
quadratically, species with different charge-to-mass ratios see
different, fully determined frequency sets once the trap has been
calibrated against one reference species.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import ATOMIC_MASS, ELEMENTARY_CHARGE, K_COULOMB
from .errors import CalibrationError, TrapInstabilityError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IonSpecies:
    """An ion species: integer charge state and mass in atomic mass units."""

    charge_number: int
    mass_amu: float

    def __post_init__(self):
        if self.charge_number < 1:
            raise ValueError(f"charge_number must be >= 1, got {self.charge_number}")
        if not self.mass_amu > 0.0:
            raise ValueError(f"mass_amu must be positive, got {self.mass_amu}")

    @property
    def charge(self) -> float:
        """Charge in coulombs."""
        return self.charge_number * ELEMENTARY_CHARGE

    @property
    def mass(self) -> float:
        """Mass in kilograms."""
        return self.mass_amu * ATOMIC_MASS


@dataclass(frozen=True)
class SpeciesFrequencies:
    """Secular frequency triple (omega_x, omega_y, omega_z) in rad/s.

    By convention x is the softer transverse axis, so omega_x <= omega_y.
    """

    omega_x: float
    omega_y: float
    omega_z: float

    def __post_init__(self):
        for name in ("omega_x", "omega_y", "omega_z"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.omega_x > self.omega_y:
            raise CalibrationError(
                f"omega_x ({self.omega_x:.6g}) exceeds omega_y ({self.omega_y:.6g}); "
                "the soft transverse axis is x by convention"
            )

    @classmethod
    def from_khz(cls, f_x: float, f_y: float, f_z: float) -> "SpeciesFrequencies":
        """Build from ordinary frequencies in kHz."""
        return cls(TWO_PI * 1e3 * f_x, TWO_PI * 1e3 * f_y, TWO_PI * 1e3 * f_z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.omega_x, self.omega_y, self.omega_z)

    def to_khz(self) -> tuple[float, float, float]:
        return tuple(w / (TWO_PI * 1e3) for w in self.as_tuple())


@dataclass(frozen=True)
class TrapModel:
    """Calibrated trap: curvatures in SI, rf drive frequency in rad/s.

    axial_curvature (beta) has units V/m^2, radial_curvature (beta_rad)
    V/m^2, rf_gradient (gamma) V/m^2, rf_frequency rad/s.
    """

    axial_curvature: float
    rf_gradient: float
    radial_curvature: float
    rf_frequency: float

    def __post_init__(self):
        for name in ("axial_curvature", "rf_gradient", "radial_curvature", "rf_frequency"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.axial_curvature > 0.0:
            raise ValueError("axial_curvature must be positive")
        if not self.rf_frequency > 0.0:
            raise ValueError("rf_frequency must be positive")
        if self.radial_curvature < 0.0:
            raise ValueError("radial_curvature must be non-negative")


def pseudopotential_terms(trap: TrapModel, species: IonSpecies) -> tuple[float, float, float]:
    """Per-species curvature rates (a, b, c), each in (rad/s)^2.

    a = q beta / M and b = q beta_rad / M are the static terms (linear in
    q/M); c = (q gamma / (M Omega))^2 is the rf pseudopotential term
    (quadratic in q/M). The secular frequencies are

        omega_z^2 = 4a,  omega_x^2 = 2(c - a - b),  omega_y^2 = 2(c - a + b).
    """
    q = species.charge
    m = species.mass
    a = q * trap.axial_curvature / m
    b = q * trap.radial_curvature / m
    c = (q * trap.rf_gradient / (m * trap.rf_frequency)) ** 2
    return a, b, c


def _squared_secular(trap: TrapModel, species: IonSpecies) -> tuple[float, float, float]:
    """(omega_x^2, omega_y^2, omega_z^2) of `species`; may be non-positive."""
    a, b, c = pseudopotential_terms(trap, species)
    return 2.0 * (c - a - b), 2.0 * (c - a + b), 4.0 * a


def frequencies_for_species(trap: TrapModel, species: IonSpecies) -> SpeciesFrequencies:
    """Secular frequencies of `species` in `trap`.

    Raises TrapInstabilityError if a squared frequency is non-positive.
    """
    wx2, wy2, wz2 = _squared_secular(trap, species)
    for axis, w2 in (("x", wx2), ("y", wy2), ("z", wz2)):
        if not w2 > 0.0:
            raise TrapInstabilityError(
                f"species q={species.charge_number} m={species.mass_amu} amu is "
                f"unconfined along {axis} (omega_{axis}^2 = {w2:.6g})",
                axis=axis,
            )
    return SpeciesFrequencies(math.sqrt(wx2), math.sqrt(wy2), math.sqrt(wz2))


def calibrate_from_frequencies(
    reference: IonSpecies,
    frequencies: SpeciesFrequencies,
    rf_frequency: float,
) -> TrapModel:
    """Invert the measured frequency triple of a reference species.

    The inversion is closed form:

        beta     = M omega_z^2 / (4 q)
        beta_rad = M (omega_y^2 - omega_x^2) / (4 q)
        gamma    = (M Omega / q) sqrt(omega_x^2 + omega_y^2 + omega_z^2) / 2

    so frequencies_for_species on the result reproduces the inputs to
    rounding error. A trap that TrapModel rejects, such as one with a
    non-positive rf_frequency, is a ValueError, and so are frequencies
    whose squares leave the float range.
    """
    wx, wy, wz = frequencies.as_tuple()
    q = reference.charge
    m = reference.mass
    try:
        wx2, wy2, wz2 = wx**2, wy**2, wz**2
    except OverflowError:
        raise ValueError(
            f"the squared frequencies ({wx:.6g}, {wy:.6g}, {wz:.6g}) rad/s overflow"
        ) from None
    beta = m * wz2 / (4.0 * q)
    beta_rad = m * (wy2 - wx2) / (4.0 * q)
    gamma = (m * rf_frequency / q) * math.sqrt(wx2 + wy2 + wz2) / 2.0
    return TrapModel(
        axial_curvature=beta,
        rf_gradient=gamma,
        radial_curvature=beta_rad,
        rf_frequency=rf_frequency,
    )


def anisotropy(frequencies: SpeciesFrequencies) -> tuple[float, float]:
    """Trap anisotropies (alpha_x, alpha_y) = (omega_z/omega_x)^2, (omega_z/omega_y)^2."""
    wx, wy, wz = frequencies.as_tuple()
    return (wz / wx) ** 2, (wz / wy) ** 2


def characteristic_length(species: IonSpecies, omega_z: float) -> float:
    """Coulomb length scale l = (k q^2 / (M omega_z^2))^(1/3) in metres.

    Sets the inter-ion spacing of a crystal of this species at axial
    frequency omega_z; analytic equilibria are simple multiples of it.
    """
    if not omega_z > 0.0:
        raise ValueError("omega_z must be positive")
    q = species.charge
    m = species.mass
    return (K_COULOMB * q**2 / (m * omega_z**2)) ** (1.0 / 3.0)
