"""Linear-to-zigzag transitions under a radial stiffness scan.

The scan knob is the trap anisotropy alpha = (omega_z / omega_x)^2 of a
singly charged reference species; it is varied by changing the rf field
gradient while the static curvatures stay fixed. This leaves the axial
problem untouched, so the linear chain is the same configuration at
every alpha, bit for bit, and only its transverse stability changes. A
critical search therefore solves the chain once: it gives the soft-mode
Hessian and the start of both order-parameter probes, which is the
array a cold find_equilibrium at that alpha would build from it.

The critical anisotropy is closed form: at the fixed linear chain the
transverse x-block of the Hessian is A + B/alpha with B the diagonal rf
term, so the chain buckles at alpha* = 1 / lambda_max(-A, B) (Fishman,
De Chiara, Calarco & Morigi, PRB 77, 064111, 2008). The order parameter,
a nonzero transverse displacement in the relaxed structure, checks it:
the structure is relaxed once on each side of alpha*, at alpha* -+
_PROBE_SPACING/2, and must be linear below and buckled above. Any other
pair of outcomes is a MethodDisagreementError; a solver failure in a
probe propagates.

Phase scans solve only the buckled branch. Below alpha* the linear chain
is the minimum by the definition of alpha*, so each arrangement's chain
and alpha* are computed once and every grid point below alpha* gets the
chain without a solve. Above it the scan is a predictor-corrector
continuation (Allgower & Georg, Numerical Continuation Methods, 1990) in
ascending alpha: each solve starts from the secant extrapolation of the
last two buckled minima, or from the previous minimum, and a grid point
whose solve fails is recorded and followed by a cold solve.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .crystal import (
    CrystalConfiguration,
    StructureClass,
    _cold_start,
    axial_equilibrium,
    classify,
    find_equilibrium,
    hessian,
)
from .errors import (
    BracketError,
    MethodDisagreementError,
    SolverError,
    TrapInstabilityError,
)
from .trap import (
    IonSpecies,
    SpeciesFrequencies,
    TrapModel,
    anisotropy,
    calibrate_from_frequencies,
    characteristic_length,
    frequencies_for_species,
)

# alpha* outside [_ALPHA_MIN, _ALPHA_MAX] is a BracketError
_ALPHA_MIN = 1e-3
_ALPHA_MAX = 64.0
# distance between the two order-parameter probes around alpha*; below
# _ALPHA_MIN, so the lower probe alpha* - _PROBE_SPACING/2 stays positive
_PROBE_SPACING = 1e-4
_METHODS = ("soft-mode", "both")  # critical_anisotropy's detectors


@dataclass(frozen=True)
class AnisotropyFamily:
    """Family of traps sharing static curvatures, parametrised by alpha_x.

    Built from one calibration; trap_at(alpha) rescales the rf gradient
    so the reference species sees omega_x^2 = omega_z^2 / alpha.
    """

    reference: IonSpecies
    axial_curvature: float
    radial_curvature: float
    rf_frequency: float

    @classmethod
    def from_calibration(
        cls,
        reference: IonSpecies,
        frequencies: SpeciesFrequencies,
        rf_frequency: float,
    ) -> "AnisotropyFamily":
        trap = calibrate_from_frequencies(reference, frequencies, rf_frequency)
        return cls(
            reference=reference,
            axial_curvature=trap.axial_curvature,
            radial_curvature=trap.radial_curvature,
            rf_frequency=rf_frequency,
        )

    def trap_at(self, alpha_x: float) -> TrapModel:
        if not alpha_x > 0.0:
            raise ValueError(f"alpha_x must be positive, got {alpha_x}")
        q = self.reference.charge
        m = self.reference.mass
        a = q * self.axial_curvature / m
        b = q * self.radial_curvature / m
        wx2 = 4.0 * a / alpha_x
        c = 0.5 * wx2 + a + b
        gamma = m * self.rf_frequency * math.sqrt(c) / q
        return TrapModel(
            axial_curvature=self.axial_curvature,
            rf_gradient=gamma,
            radial_curvature=self.radial_curvature,
            rf_frequency=self.rf_frequency,
        )

    def frequencies_at(self, alpha_x: float) -> SpeciesFrequencies:
        return frequencies_for_species(self.trap_at(alpha_x), self.reference)

    def alpha_y_at(self, alpha_x: float) -> float:
        return anisotropy(self.frequencies_at(alpha_x))[1]


@dataclass(frozen=True)
class CriticalPoint:
    """Critical anisotropy of one arrangement.

    alpha_x is the exact soft-mode alpha*; with method 'both',
    cross_check is the midpoint of the two order-parameter probes at
    alpha* -+ _PROBE_SPACING/2, the linear one below and the buckled one
    above.
    """

    alpha_x: float
    alpha_y: float
    method: str
    arrangement: tuple[IonSpecies, ...]
    cross_check: float | None = None


@dataclass(frozen=True)
class PhasePoint:
    alpha_x: float
    alpha_y: float
    label: str
    structure: StructureClass | None
    error: str | None = None


@dataclass(frozen=True)
class PhaseMap:
    """Grid of relaxed structures per arrangement over an alpha scan."""

    points: tuple[PhasePoint, ...]


def _reference_length(family: AnisotropyFamily) -> float:
    """Length scale for classify: the reference species' at alpha_x = 1."""
    return characteristic_length(family.reference, family.frequencies_at(1.0).omega_z)


def _linear_chain(
    family: AnisotropyFamily, ions: Sequence[IonSpecies]
) -> CrystalConfiguration:
    trap = family.trap_at(1.0)
    z = axial_equilibrium(trap, ions)
    pos = np.zeros((len(z), 3))
    pos[:, 2] = z
    return CrystalConfiguration(tuple(ions), pos)


def _soft_mode_alpha(family: AnisotropyFamily, chain: CrystalConfiguration) -> float:
    """Exact alpha_x at which the linear chain's transverse x-block turns soft.

    Along the family only the rf term of the x curvature changes, as
    m_i k_i^2 omega_z^2 / alpha with k_i the charge-to-mass ratio of ion i
    over the reference species'. So the x-block of the Hessian at the
    linear chain is A + B/alpha with B that diagonal term, and it stays
    positive definite while 1/alpha > lambda_max(-A, B). Returns inf when
    that eigenvalue is not positive: the chain never buckles.
    TrapInstabilityError when an ion's B underflows to zero: no alpha
    then confines it along x.
    """
    ref = family.reference
    ratio = (chain.charges / chain.masses) / (ref.charge / ref.mass)
    B = chain.masses * ratio**2 * (4.0 * ref.charge * family.axial_curvature / ref.mass)
    if not np.all(B > 0.0):
        ion = chain.ions[int(np.argmin(B))]
        raise TrapInstabilityError(
            f"species q={ion.charge_number} m={ion.mass_amu} amu has an rf confinement "
            "below the float range: no alpha confines it along x",
            axis="x",
        )
    xs = 3 * np.arange(chain.n)
    A = hessian(family.trap_at(1.0), chain)[np.ix_(xs, xs)] - np.diag(B)
    s = 1.0 / np.sqrt(B)
    lam = float(np.linalg.eigvalsh(-(A * s[:, None] * s[None, :]))[-1])
    return 1.0 / lam if lam > 0.0 else math.inf


def _check_range(alpha: float) -> None:
    """BracketError unless alpha lies in [_ALPHA_MIN, _ALPHA_MAX]."""
    if alpha < _ALPHA_MIN:
        raise BracketError(f"no stable point above alpha = {_ALPHA_MIN}")
    if alpha > _ALPHA_MAX:
        raise BracketError(f"no transition below alpha = {_ALPHA_MAX}")


def critical_anisotropy(
    family: AnisotropyFamily,
    ions: Sequence[IonSpecies],
    *,
    method: str = "both",
    seed: int = 0,
) -> CriticalPoint:
    """Locate the linear-to-zigzag critical anisotropy of an arrangement.

    Returns the exact alpha* = 1 / lambda_max(-A, B) at which the linear
    chain's transverse x-block A + B/alpha turns soft; BracketError if
    alpha* lies outside [_ALPHA_MIN, _ALPHA_MAX]. method 'both' also
    relaxes the crystal cold at alpha* - _PROBE_SPACING/2 and alpha* +
    _PROBE_SPACING/2: when the first is linear and the second is not,
    cross_check is their midpoint, otherwise MethodDisagreementError. A
    SolverError in a probe propagates.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method '{method}'")
    ions = tuple(ions)
    chain = _linear_chain(family, ions)
    alpha = _soft_mode_alpha(family, chain)
    _check_range(alpha)
    cross_check = None
    if method == "both":
        ell = _reference_length(family)
        start = _cold_start(
            family.trap_at(1.0), ions, chain.positions[:, 2], np.random.default_rng(seed)
        )
        # the probes never sit on alpha* itself, where the soft direction is
        # quartic and a relaxation can stall
        below, above = alpha - 0.5 * _PROBE_SPACING, alpha + 0.5 * _PROBE_SPACING
        kinds = [
            classify(
                find_equilibrium(family.trap_at(a), ions, initial=start), length_scale=ell
            ).kind
            for a in (below, above)
        ]
        if kinds[0] != "linear" or kinds[1] == "linear":
            raise MethodDisagreementError(
                f"order-parameter probes around the soft-mode alpha* = {alpha:.6f} "
                f"relaxed to {kinds[0]} below and {kinds[1]} above"
            )
        cross_check = 0.5 * (below + above)
    return CriticalPoint(
        alpha_x=float(alpha),
        alpha_y=family.alpha_y_at(float(alpha)),
        method=method,
        arrangement=ions,
        cross_check=cross_check,
    )


def scan_configurations(
    family: AnisotropyFamily,
    arrangements: Mapping[str, Sequence[IonSpecies]],
    alphas: Sequence[float],
    *,
    seed: int = 0,
) -> PhaseMap:
    """Relax every arrangement at every alpha and classify the results.

    Each arrangement is followed in ascending alpha. Its linear chain
    and alpha* (see critical_anisotropy) are computed once: below alpha*
    the chain is the minimum, so those grid points get it and its label
    without a solve. A point at or above alpha* is relaxed by
    find_equilibrium from a predicted start: the secant extrapolation of
    the last two non-linear minima, else the previous minimum (the chain,
    or a cold start from `seed` at the first point). If the solve from a
    secant start fails, the point is solved again from the previous
    minimum. A solver failure is recorded at its grid point instead of
    aborting the scan; the next point is then solved cold and the secant
    history starts again. When the chain or alpha* cannot be computed
    (SolverError), every point is solved. A chain that has left the
    linear phase must not re-enter it (ValueError).
    """
    alphas = sorted(float(a) for a in alphas)
    ell = _reference_length(family)
    points: list[PhasePoint] = []
    for label, ions in arrangements.items():
        ions = tuple(ions)
        try:
            chain = _linear_chain(family, ions)
            alpha_star = _soft_mode_alpha(family, chain)
        except SolverError:
            alpha_star = -math.inf
        else:
            chain_class = classify(chain, length_scale=ell)
        previous = None
        history: list[tuple[float, np.ndarray]] = []  # the last two minima off the chain
        left_linear = False
        for a in alphas:
            alpha_y = family.alpha_y_at(a)
            if a < alpha_star:
                cfg, sc = chain, chain_class
            else:
                trap = family.trap_at(a)
                cfg = None
                if len(history) == 2:
                    (a1, x1), (a2, x2) = history
                    # a repeated grid point makes a non-finite guess, which
                    # find_equilibrium rejects (ValueError)
                    with np.errstate(all="ignore"):
                        guess = x2 + np.float64(a - a2) / (a2 - a1) * (x2 - x1)
                    with suppress(SolverError, ValueError):
                        cfg = find_equilibrium(trap, ions, initial=guess)
                try:
                    if cfg is None:
                        cfg = find_equilibrium(trap, ions, seed=seed, initial=previous)
                    sc = classify(cfg, length_scale=ell)
                except SolverError as exc:
                    points.append(PhasePoint(a, alpha_y, label, None, str(exc)))
                    previous = None
                    history = []
                    continue
                if sc.kind != "linear":
                    history = history[-1:] + [(a, cfg.positions)]
            if sc.kind != "linear":
                left_linear = True
            elif left_linear:
                raise ValueError(
                    f"non-monotone phase boundary for '{label}' at alpha_x = {a}"
                )
            points.append(PhasePoint(a, alpha_y, label, sc))
            previous = cfg.positions
    return PhaseMap(tuple(points))
