"""Normal modes of a crystal and mode-resolved diagnostics.

Modes diagonalise the mass-weighted Hessian D = M^-1/2 H M^-1/2.
Eigenvalues are squared angular frequencies; the physical displacement
pattern of mode m is e_m / sqrt(M) per coordinate, so light or highly
charged ions move more for the same mode coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crystal import (
    CrystalConfiguration,
    _mass_weighted_eigh,
    _soft_floor,
    _unstable_count,
    hessian,
)
from .errors import BoundaryError, UnstableConfigurationError
from .trap import TrapModel

_AXIS_SHARE = 0.9
_SHARED_RATIO = 2.0          # side maxima closer than this put a mode on both sides
_AXES = ("x", "y", "z")      # the drive, mode and scenario axis labels


@dataclass(frozen=True, eq=False)
class NormalModeSet:
    """Eigenfrequencies (rad/s, ascending) and mass-weighted eigenvectors.

    vectors[:, m] is mode m over coordinates (x0, y0, z0, x1, ...);
    columns are orthonormal. soft flags numerically zero frequencies.
    """

    configuration: CrystalConfiguration
    frequencies: np.ndarray
    vectors: np.ndarray
    soft: np.ndarray

    @property
    def n(self) -> int:
        return self.configuration.n

    def physical_pattern(self, m: int) -> np.ndarray:
        """Displacement pattern of mode m, shape (N, 3), unnormalised."""
        v = self.vectors[:, m].reshape(self.n, 3)
        return v / np.sqrt(self.configuration.masses)[:, None]


@dataclass(frozen=True, eq=False)
class ModeDescriptor:
    """Scalar summary of one mode.

    dominant_axis is the axis holding more than 90% of the squared
    eigenvector norm, or 'mixed'. ion_amplitudes are per-ion physical
    displacement magnitudes normalised to a maximum of 1; pattern is the
    (N, 3) displacement pattern under the same normalisation.
    """

    index: int
    frequency: float
    dominant_axis: str
    soft: bool
    ion_amplitudes: np.ndarray
    pattern: np.ndarray


def normal_modes(trap: TrapModel, config: CrystalConfiguration) -> NormalModeSet:
    """Diagonalise the mass-weighted Hessian at a configuration.

    Raises UnstableConfigurationError if any eigenvalue is negative
    beyond the soft-mode floor (the input is then a saddle, not a
    minimum). Eigenvalues within the floor are clamped to zero and
    flagged soft.
    """
    H = hessian(trap, config)
    evals, evecs = _mass_weighted_eigh(H, config.masses)
    negative = _unstable_count(evals)
    if negative:
        raise UnstableConfigurationError(
            f"{negative} negative curvature directions: not a stable configuration",
            negative_count=negative,
        )
    soft = evals < _soft_floor(evals)
    freqs = np.sqrt(np.clip(evals, 0.0, None))
    # fix eigenvector signs so output does not depend on the LAPACK build
    top = evecs[np.abs(evecs).argmax(axis=0), np.arange(evecs.shape[1])]
    evecs = evecs * np.where(top < 0.0, -1.0, 1.0)
    freqs.setflags(write=False)
    evecs.setflags(write=False)
    soft.setflags(write=False)
    return NormalModeSet(config, freqs, evecs, soft)


def mode_descriptor(modes: NormalModeSet, m: int) -> ModeDescriptor:
    """Summarise mode m (see ModeDescriptor)."""
    v = modes.vectors[:, m].reshape(modes.n, 3)
    shares = (v**2).sum(axis=0)
    ax = int(shares.argmax())
    axis = _AXES[ax] if shares[ax] > _AXIS_SHARE * shares.sum() else "mixed"
    phys = modes.physical_pattern(m)
    amps = np.linalg.norm(phys, axis=1)
    peak = amps.max()
    return ModeDescriptor(
        index=m,
        frequency=float(modes.frequencies[m]),
        dominant_axis=axis,
        soft=bool(modes.soft[m]),
        ion_amplitudes=amps / peak,
        pattern=phys / peak,
    )


def modes_by_axis(modes: NormalModeSet, axis: str) -> list[int]:
    """Indices of modes dominated by the given axis, ascending frequency."""
    return [
        m
        for m in range(len(modes.frequencies))
        if mode_descriptor(modes, m).dominant_axis == axis
    ]


def _side_maxima(amplitudes: np.ndarray, boundary_index: int) -> tuple[float, float]:
    """Largest amplitude before and after the boundary ion, which is excluded.

    Raises BoundaryError unless 0 < boundary_index < N - 1.
    """
    n = len(amplitudes)
    if not 0 < boundary_index < n - 1:
        raise BoundaryError(
            f"boundary index {boundary_index} leaves an empty side for {n} ions"
        )
    return amplitudes[:boundary_index].max(), amplitudes[boundary_index + 1 :].max()


def localization_ratio(desc: ModeDescriptor, boundary_index: int) -> float:
    """How unevenly a mode's amplitude splits across a boundary ion.

    Ions are split by chain index into those before and after
    boundary_index; the boundary ion itself is excluded. Returns the
    ratio of the larger side maximum amplitude to the smaller, >= 1.
    """
    lo, hi = sorted(_side_maxima(desc.ion_amplitudes, boundary_index))
    if lo == 0.0:
        return np.inf
    return float(hi / lo)


def impurity_amplitude_ratio(desc: ModeDescriptor, index: int) -> float:
    """Amplitude of one ion relative to the largest amplitude of the rest."""
    n = len(desc.ion_amplitudes)
    if n < 2:
        raise BoundaryError("need at least two ions to compare amplitudes")
    others = np.delete(desc.ion_amplitudes, index)
    return float(desc.ion_amplitudes[index] / others.max())


def _side(desc: ModeDescriptor, boundary_index: int) -> str:
    # a mode with both side maxima 0 goes to the left only
    left, right = _side_maxima(desc.ion_amplitudes, boundary_index)
    if left >= _SHARED_RATIO * right:
        return "left"
    if right >= _SHARED_RATIO * left:
        return "right"
    return "both"


def min_same_side_gap(
    modes: NormalModeSet,
    *,
    axis: str = "x",
    boundary_index: int | None = None,
) -> float:
    """Smallest frequency gap between modes living on the same chain side.

    Considers modes dominated by `axis`. Without a boundary the gap is
    taken over all of them. With a boundary each mode is assigned to the
    side holding the larger amplitude (the boundary ion excluded); modes
    whose side maxima differ by less than _SHARED_RATIO count on both
    sides. Returns the minimum adjacent gap in rad/s.
    """
    selected = modes_by_axis(modes, axis)
    if boundary_index is None:
        groups = {"all": selected}
    else:
        groups = {"left": [], "right": []}
        for m in selected:
            side = _side(mode_descriptor(modes, m), boundary_index)
            if side in ("left", "both"):
                groups["left"].append(m)
            if side in ("right", "both"):
                groups["right"].append(m)
    gaps = []
    for members in groups.values():
        if len(members) < 2:
            continue
        freqs = np.sort(modes.frequencies[members])
        gaps.append(float(np.diff(freqs).min()))
    if not gaps:
        raise BoundaryError("no side holds two or more modes")
    return min(gaps)
