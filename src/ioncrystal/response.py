"""Driven steady-state response and resonance frequency extraction.

A spatially uniform oscillating field E cos(omega_d t) along one axis
couples to mode m with weight b_m = sum_i (q_i / sqrt(M_i)) e_{m,(i,axis)}.
Mass-weighting makes the coupling charge-to-mass sensitive: a uniform
field is not a uniform force, so modes invisible in a single-species
chain light up in a mixed one, and symmetric mixed modes (equal and
opposite weights) stay dark.

The damped mode coordinate responds with amplitude
b_m E / sqrt((omega_m^2 - omega_d^2)^2 + (Gamma omega_d)^2); per-ion
amplitudes sum the mode contributions incoherently, which is the
envelope a camera integrates over many drive phases. The sweep runs in
blocks of _BLOCK_ROWS drive points: each block's (rows, 3N) mode
amplitudes go through one matrix product with the mass-scaled
|eigenvectors| into the (G, N) result, so beside that result only
per-block arrays stay alive, whatever the grid's length.

Each resonance is fit with a Gaussian line and its analytic Jacobian in
(height, centre, width, offset), so the fitter builds no
finite-difference Jacobian. These fits and imaging's spot fits all go
through _least_squares, the package's one least-squares call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .errors import NoPeakError, PeakFitError
from .modes import _AXES, NormalModeSet

_DETECTION_FACTOR = 5.0      # a resonance exceeds this times the median level
_FLOOR_FRAC = 0.15           # a peak's fit window ends at this fraction of its height
# Drive points per block of response_curve. Every block has exactly this
# many rows (the last one overlaps its neighbour), so each row goes
# through the same BLAS path as in a one-shot product: a short block may
# take another path and change the last bits of its rows.
_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class DriveSpec:
    """Uniform-field drive: axis, amplitude (V/m), damping rate and grid (rad/s)."""

    axis: str
    field_amplitude: float
    damping_rate: float
    frequencies: np.ndarray

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES!r}, got {self.axis!r}")
        if not 0.0 <= self.field_amplitude < math.inf:
            raise ValueError("field_amplitude must be finite and non-negative")
        if not 0.0 < self.damping_rate < math.inf:
            raise ValueError("damping_rate must be finite and positive")
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.ndim != 1 or len(freqs) < 1:
            raise ValueError("frequencies must be a non-empty 1-d array")
        if not np.all(np.isfinite(freqs)):
            raise ValueError("frequencies must be finite")
        if np.any(freqs <= 0.0) or np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be positive and strictly increasing")
        object.__setattr__(self, "frequencies", freqs)


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    """Per-ion steady-state amplitude (metres) over the drive grid.

    amplitudes has shape (len(frequencies), N).
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class PeakFit:
    """One fitted resonance: center and 1-sigma center uncertainty in rad/s."""

    center: float
    center_stderr: float
    height: float
    width: float
    offset: float
    n_points: int


def drive_overlap(modes: NormalModeSet, axis: str) -> np.ndarray:
    """Coupling weight b_m of a uniform field along `axis` to every mode."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES!r}, got {axis!r}")
    ax = _AXES.index(axis)
    cfg = modes.configuration
    weights = cfg.charges / np.sqrt(cfg.masses)
    components = modes.vectors.reshape(cfg.n, 3, -1)[:, ax, :]
    return weights @ components


def response_curve(modes: NormalModeSet, drive: DriveSpec) -> ResponseCurve:
    """Sweep the drive grid and collect per-ion amplitudes."""
    omega_d = drive.frequencies
    cfg = modes.configuration
    scale = np.abs(drive_overlap(modes, drive.axis)) * drive.field_amplitude
    phys = np.abs(modes.vectors) / np.repeat(np.sqrt(cfg.masses), 3)[:, None]
    amps = np.empty((len(omega_d), cfg.n))
    rows = min(len(omega_d), _BLOCK_ROWS)
    for start in (*range(0, len(omega_d) - rows, rows), len(omega_d) - rows):
        wd = omega_d[start:start + rows, None]
        # a mode too stiff to square in float range is so far from every drive
        # that its inf denominator gives it a response of exactly 0
        with np.errstate(over="ignore"):
            denom = np.sqrt(
                (modes.frequencies**2 - wd**2) ** 2 + (drive.damping_rate * wd) ** 2
            )
        per_axis = ((scale / denom) @ phys.T).reshape(rows, cfg.n, 3)
        amps[start:start + rows] = np.linalg.norm(per_axis, axis=2)
    return ResponseCurve(drive.frequencies.copy(), amps)


def _gaussian(x, a, c, s, o):
    return a * np.exp(-((x - c) ** 2) / (2.0 * s**2)) + o


def _gaussian_jacobian(x, a, c, s, o):
    """Derivatives of _gaussian by (a, c, s, o), shape (len(x), 4)."""
    d = x - c
    e = np.exp(-(d**2) / (2.0 * s**2))
    return np.column_stack((e, a * e * d / s**2, a * e * d**2 / s**3, np.ones_like(e)))


def _local_maxima(s: np.ndarray, level: float) -> list[int]:
    """Indices k with s[k-1] < s[k] >= s[k+1] and s[k] > max(level, 0).

    A flat top counts once, at its first sample; the end samples never count.
    """
    mid = s[1:-1]
    is_peak = (mid > s[:-2]) & (mid >= s[2:]) & (mid > level) & (mid > 0.0)
    return (np.flatnonzero(is_peak) + 1).tolist()


def _peak_window(s: np.ndarray, k: int) -> slice:
    lo = k
    while lo > 0 and s[lo - 1] < s[lo]:
        lo -= 1
        if s[lo] <= _FLOOR_FRAC * s[k]:
            break
    hi = k
    last = len(s) - 1
    while hi < last and s[hi + 1] < s[hi]:
        hi += 1
        if s[hi] <= _FLOOR_FRAC * s[k]:
            break
    return slice(lo, hi + 1)


def _least_squares(model, jac, x, y, p0, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Fit model(x, *p) to y from p0 with its analytic Jacobian jac.

    Returns the parameters and their covariance. A fit that does not
    converge raises PeakFitError(f"{where}: {reason}").
    """
    try:
        return curve_fit(model, x, y, p0=p0, jac=jac, maxfev=20000)
    except RuntimeError as exc:
        raise PeakFitError(f"{where}: {exc}") from exc


def sweep_and_fit(modes: NormalModeSet, drive: DriveSpec) -> list[PeakFit]:
    """Detect and fit every resonance in a drive sweep.

    A resonance is a local maximum of the strongest-ion amplitude
    exceeding _DETECTION_FACTOR times the median level; each is fit over
    its own flanks (down to _FLOOR_FRAC of the peak, or the valley to the
    next peak) with a Gaussian line. Centers come back in rad/s with
    covariance-based uncertainties.
    """
    curve = response_curve(modes, drive)
    s = curve.amplitudes.max(axis=1)
    x = curve.frequencies
    level = _DETECTION_FACTOR * float(np.median(s))
    peaks = _local_maxima(s, level)
    if not peaks:
        raise NoPeakError("no resonance above the detection level")

    fits = []
    dx = float(np.diff(x).min())
    for k in peaks:
        win = _peak_window(s, k)
        xs, ys = x[win], s[win]
        if len(xs) < 5:
            raise PeakFitError(
                f"only {len(xs)} samples around the peak near "
                f"{x[k] / (2e3 * np.pi):.1f} kHz; refine the grid"
            )
        base = float(ys.min())
        p0 = [s[k] - base, x[k], max(0.5 * drive.damping_rate, dx), base]
        popt, pcov = _least_squares(
            _gaussian, _gaussian_jacobian, xs, ys, p0,
            f"fit failed near {x[k] / (2e3 * np.pi):.1f} kHz",
        )
        stderr = float(np.sqrt(pcov[1, 1])) if np.isfinite(pcov[1, 1]) else np.inf
        fits.append(
            PeakFit(
                center=float(popt[1]),
                center_stderr=stderr,
                height=float(popt[0]),
                width=float(abs(popt[2])),
                offset=float(popt[3]),
                n_points=len(xs),
            )
        )
    fits.sort(key=lambda f: f.center)
    return fits
