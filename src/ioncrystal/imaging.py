"""Synthetic camera images of a crystal seen along a diagonal line of sight.

One fixed camera makes every image (ProjectionModel). It looks along
the bisector of the x and z axes, 45 degrees from each, so distances in
the x-z plane appear stretched by 1/cos(45) = sqrt(2) while the
out-of-plane y axis is compressed by cos(45). Its mount is rotated by 3
degrees in the image plane. Image coordinates (u, v) are in micrometres
in object space; the 4.25 um chip pixels at 17x magnification make
0.25 um pixels.

Fluorescing ions render as Gaussian spots of the optical resolution
width. A driven ion's spot is smeared along its oscillation direction:
the time average over a harmonic oscillation is approximated by adding
the oscillation amplitude in quadrature to the point-spread width.
Doubly charged ions do not fluoresce and leave a gap. Each spot is
evaluated only within 38.7 smeared widths of its centre, where its
Gaussian is still above double-precision underflow; beyond that it
would add exactly 0.0, so the image is unchanged bit for bit. The image
spans the spots plus a fixed margin; with an rng its pixels are Poisson
draws, refused (ValueError) where a mean is beyond numpy's limit.

fit_positions fits each spot with an elliptical Gaussian and its
analytic Jacobian in (height, centre u, centre v, width u, width v,
offset), through the package's one least-squares call,
response._least_squares. write_pgm writes 16-bit graymaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crystal import CrystalConfiguration
from .errors import SpotCountError
from .response import _least_squares

_M_TO_UM = 1e6


class ProjectionModel:
    """The camera's fixed imaging geometry and optics."""

    __slots__ = ()
    viewing_angle_deg = 45.0     # stretches x and z by 1/cos, squeezes y by cos
    rotation_deg = 3.0           # mount rotation in the image plane
    magnification = 17.0
    psf_um = 0.9                 # point-spread width in object space
    pixel_pitch_um = 4.25        # chip pixel pitch

    @property
    def um_per_px(self) -> float:
        """Pixel size in object space."""
        return self.pixel_pitch_um / self.magnification

    @property
    def matrix(self) -> np.ndarray:
        """Linear map (2, 3) from lab metres to image micrometres."""
        theta = math.radians(self.viewing_angle_deg)
        stretch = 1.0 / math.cos(theta)
        squeeze = math.cos(theta)
        raw = np.array([[0.0, 0.0, stretch], [stretch, squeeze, 0.0]])
        phi = math.radians(self.rotation_deg)
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        return rot @ raw * _M_TO_UM


@dataclass(frozen=True, eq=False)
class CameraImage:
    """Pixel intensities (photon counts) with object-space geometry.

    intensity[iv, iu] maps to u = origin_um[0] + iu * um_per_px,
    v = origin_um[1] + iv * um_per_px.
    """

    intensity: np.ndarray
    um_per_px: float
    origin_um: tuple[float, float]

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel center coordinates (u along columns, v along rows), um."""
        h, w = self.intensity.shape
        u = self.origin_um[0] + np.arange(w) * self.um_per_px
        v = self.origin_um[1] + np.arange(h) * self.um_per_px
        return u, v


def project(positions: np.ndarray, model: ProjectionModel) -> np.ndarray:
    """Map lab positions (N, 3) in metres to image coordinates (N, 2) in um."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    return pos @ model.matrix.T


def fluorescing(config: CrystalConfiguration) -> np.ndarray:
    """Mask of ions that show up on camera (singly charged ones)."""
    return np.array([s.charge_number == 1 for s in config.ions])


def render(
    positions_um: np.ndarray,
    model: ProjectionModel,
    *,
    bright: np.ndarray | None = None,
    amplitudes_um: np.ndarray | None = None,
    directions: np.ndarray | None = None,
    flux: float = 1e4,
    background: float = 0.0,
    rng: np.random.Generator | None = None,
) -> CameraImage:
    """Render spots at image coordinates (N, 2) into a pixel grid.

    bright masks which ions fluoresce. amplitudes_um smears each spot
    along its unit `directions` row by the oscillation amplitude, added
    in quadrature to the point-spread width. flux is the expected photon
    count per bright ion. With an rng, pixel values are Poisson draws
    over signal plus background; otherwise the noiseless expectation
    (plus background) is returned. The image extends _PAD_SIGMAS largest
    smeared widths plus _PAD_UM beyond the outermost spots.

    Each spot is evaluated only inside a box of half-width
    _WINDOW_SIGMAS times its smeared width; the image is the same, bit
    for bit, as summing every spot over the whole grid.

    Raises ValueError, naming the argument, for non-finite positions,
    amplitudes or directions, a zero-length direction, a bright,
    amplitudes_um or directions of the wrong length, a flux or
    background that is not a finite number >= 0, and, with an rng, a
    flux or background whose largest pixel mean exceeds numpy's Poisson
    limit. positions_um or amplitudes_um, whichever sets the size, are
    named when the image would exceed _MAX_PIXELS pixels.
    """
    for name, value in (("flux", flux), ("background", background)):
        if _checked(name, value, ()) < 0.0:
            raise ValueError(f"{name} must be >= 0")
    pos = np.atleast_2d(np.asarray(positions_um, dtype=float))
    n = len(pos)
    pos = _checked("positions_um", pos, (n, 2))
    bright = np.ones(n, dtype=bool) if bright is None else np.asarray(bright, bool)
    if bright.shape != (n,):
        raise ValueError(f"bright must have shape ({n},), got {bright.shape}")
    amps = (
        np.zeros(n)
        if amplitudes_um is None
        else _checked("amplitudes_um", amplitudes_um, (n,))
    )
    if directions is None:
        directions = np.tile([1.0, 0.0], (n, 1))
    directions = _checked("directions", directions, (n, 2))
    if not np.all(np.linalg.norm(directions, axis=1) > 0.0):
        raise ValueError("directions rows must be non-zero")

    psf = model.psf_um
    # an overflow gives an inf width, which the _MAX_PIXELS check below
    # rejects by name
    with np.errstate(over="ignore"):
        sig_par = np.sqrt(psf**2 + amps**2)
    p = model.um_per_px
    pad = _PAD_SIGMAS * float(sig_par.max()) + _PAD_UM
    span = pos.max(axis=0) - pos.min(axis=0)
    pixels = float(np.prod((span + 2.0 * pad) / p + 1.0))
    if not pixels <= _MAX_PIXELS:
        # the amplitudes are to blame when the unsmeared spots would fit
        bare = np.prod((span + 2.0 * (_PAD_SIGMAS * psf + _PAD_UM)) / p + 1.0)
        name = "amplitudes_um" if bare <= _MAX_PIXELS else "positions_um"
        raise ValueError(
            f"{name} span an image of {pixels:.3g} pixels, more than {_MAX_PIXELS:.3g}"
        )
    lo = pos.min(axis=0) - pad
    hi = pos.max(axis=0) + pad
    width = int(math.ceil((hi[0] - lo[0]) / p)) + 1
    height = int(math.ceil((hi[1] - lo[1]) / p)) + 1
    u = lo[0] + np.arange(width) * p
    v = lo[1] + np.arange(height) * p

    img = np.zeros((height, width))
    for i in range(n):
        if not bright[i]:
            continue
        reach = _WINDOW_SIGMAS * sig_par[i]
        c0, c1 = _window(pos[i, 0] - lo[0], reach, p, width)
        r0, r1 = _window(pos[i, 1] - lo[1], reach, p, height)
        e = directions[i] / np.linalg.norm(directions[i])
        du = u[None, c0:c1] - pos[i, 0]
        dv = v[r0:r1, None] - pos[i, 1]
        t_par = du * e[0] + dv * e[1]
        t_perp = -du * e[1] + dv * e[0]
        img[r0:r1, c0:c1] += (
            flux
            * p**2
            / (2.0 * math.pi * sig_par[i] * psf)
            * np.exp(-0.5 * ((t_par / sig_par[i]) ** 2 + (t_perp / psf) ** 2))
        )
    if rng is not None:
        mean = float(img.max()) + background
        if not mean <= _POISSON_MAX:
            name = "background" if background > _POISSON_MAX else "flux"
            raise ValueError(
                f"{name} too large: a pixel's Poisson mean {mean:.3g} exceeds "
                f"{_POISSON_MAX:.3g}"
            )
        img = rng.poisson(img + background).astype(float)
    elif background:
        img = img + background
    return CameraImage(img, p, (float(lo[0]), float(lo[1])))


def _checked(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape and finite entries, else ValueError."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


# exp(x) is exactly 0.0 in double precision for x < -745.1332. A spot's
# exponent is at most -r^2 / (2 sigma_par^2), since psf <= sigma_par, so
# beyond r = sqrt(2 * 745.14) sigma_par = 38.61 sigma_par it adds exactly
# 0.0 to a pixel. 38.7 leaves a margin for the rounding of t_par, t_perp.
_WINDOW_SIGMAS = 38.7
# Image margin beyond the outermost spots: this many of the largest
# smeared widths, plus a fixed distance in micrometres.
_PAD_SIGMAS = 4.0
_PAD_UM = 2.0
# The largest image render makes, in pixels (80 MB of float64). The
# largest that any test, scenario or benchmark case renders is 87688.
_MAX_PIXELS = 1e7
# The largest Poisson mean numpy's generator draws from (int64 max - 10 sqrt).
_POISSON_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_SPOT_THRESHOLD = 0.25       # spots are maxima above this fraction of the brightest pixel
_PGM_MAXVAL = 65535          # write_pgm's full scale: 16-bit samples


def _window(offset: float, reach: float, step: float, size: int) -> tuple[int, int]:
    """Index range [i0, i1) of grid points k*step within reach of offset."""
    i0 = max(0, int(math.floor((offset - reach) / step)))
    i1 = min(size, int(math.ceil((offset + reach) / step)) + 1)
    return i0, i1


def _spot_model(xy, a, cu, cv, su, sv, o):
    u, v = xy
    return a * np.exp(
        -((u - cu) ** 2) / (2.0 * su**2) - ((v - cv) ** 2) / (2.0 * sv**2)
    ) + o


def _spot_jacobian(xy, a, cu, cv, su, sv, o):
    """Derivatives of _spot_model by (a, cu, cv, su, sv, o), shape (M, 6)."""
    u, v = xy
    du, dv = u - cu, v - cv
    e = np.exp(-(du**2) / (2.0 * su**2) - dv**2 / (2.0 * sv**2))
    ae = a * e
    return np.column_stack((
        e,
        ae * du / su**2,
        ae * dv / sv**2,
        ae * du**2 / su**3,
        ae * dv**2 / sv**3,
        np.ones_like(e),
    ))


def _spot_window(img: np.ndarray, r: int, c: int, um_per_px: float):
    """Window around the maximum at pixel (r, c), grown to its spot's size.

    Starts at 1.5 um (at least 4 px) either side and widens, at most to
    80 px, until it spans 3.5 rms widths of the background-subtracted
    intensity. Returns the window bounds r0, r1, c0, c1 and the second
    moments dr2, dc2 (px^2) about (r, c).
    """
    half = max(4, int(round(1.5 / um_per_px)))
    dr2 = dc2 = 1.0
    for _ in range(2):
        r0, r1 = max(0, r - half), min(img.shape[0], r + half + 1)
        c0, c1 = max(0, c - half), min(img.shape[1], c + half + 1)
        window = img[r0:r1, c0:c1]
        w = np.clip(window - window.min(), 0.0, None)
        total = w.sum()
        if total <= 0.0:
            break
        dr2 = ((np.arange(r0, r1) - r)[:, None] ** 2 * w).sum() / total
        dc2 = ((np.arange(c0, c1) - c)[None, :] ** 2 * w).sum() / total
        needed = int(math.ceil(3.5 * math.sqrt(max(dr2, dc2, 1.0))))
        if needed <= half:
            break
        half = min(needed, 80)
    return r0, r1, c0, c1, dr2, dc2


def fit_positions(
    image: CameraImage,
    expected_count: int,
    *,
    min_separation_px: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Locate bright spots and fit each with an elliptical Gaussian.

    Detects local maxima above _SPOT_THRESHOLD of the global maximum,
    keeps the brightest expected_count of them (at least
    min_separation_px apart), and fits a window around each. Returns
    positions (expected_count, 2) in um sorted along u, and per-spot rms
    residuals relative to the fitted peak height.

    By default the separation is twice the rms width of the brightest
    spot, and at least 4 px, so that a Poisson-noise bump on a spot's
    flank is not taken for a second spot.

    Raises SpotCountError when the image is empty or has too few maxima.
    """
    if expected_count < 1:
        raise ValueError("expected_count must be >= 1")
    img = image.intensity
    peak = float(img.max())
    if not peak > 0.0:
        raise SpotCountError("image contains no signal")
    padded = np.full((img.shape[0] + 2, img.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = img
    core = padded[1:-1, 1:-1]
    is_max = np.ones_like(img, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == dc == 0:
                continue
            is_max &= core >= padded[1 + dr : padded.shape[0] - 1 + dr,
                                     1 + dc : padded.shape[1] - 1 + dc]
    rows, cols = np.nonzero(is_max & (img > _SPOT_THRESHOLD * peak))
    order = np.argsort(img[rows, cols])[::-1]
    if min_separation_px is None and order.size:
        top = order[0]
        *_, dr2, dc2 = _spot_window(img, int(rows[top]), int(cols[top]), image.um_per_px)
        min_separation_px = max(4, math.ceil(2.0 * math.sqrt(max(dr2, dc2))))
    kept: list[tuple[int, int]] = []
    for k in order:
        r, c = int(rows[k]), int(cols[k])
        if all(
            (r - r0) ** 2 + (c - c0) ** 2 >= min_separation_px**2 for r0, c0 in kept
        ):
            kept.append((r, c))
    if len(kept) < expected_count:
        raise SpotCountError(
            f"found {len(kept)} spots, expected {expected_count}"
        )
    kept = kept[:expected_count]

    p = image.um_per_px
    u_ax, v_ax = image.coords()
    results = []
    residuals = []
    for r, c in kept:
        r0, r1, c0, c1, dr2, dc2 = _spot_window(img, r, c, p)
        uu, vv = np.meshgrid(u_ax[c0:c1], v_ax[r0:r1])
        data = img[r0:r1, c0:c1]
        p0 = [
            float(img[r, c] - data.min()),
            float(u_ax[c]),
            float(v_ax[r]),
            max(math.sqrt(dc2) * p, p),
            max(math.sqrt(dr2) * p, p),
            float(data.min()),
        ]
        popt, _ = _least_squares(
            _spot_model, _spot_jacobian, (uu.ravel(), vv.ravel()), data.ravel(), p0,
            f"spot fit failed near pixel ({r}, {c})",
        )
        model_img = _spot_model((uu.ravel(), vv.ravel()), *popt)
        rms = float(np.sqrt(np.mean((model_img - data.ravel()) ** 2)))
        results.append((float(popt[1]), float(popt[2])))
        residuals.append(rms / abs(popt[0]) if popt[0] else np.inf)

    by_u = np.argsort([r[0] for r in results])
    return np.array(results)[by_u], np.array(residuals)[by_u]


def write_pgm(image: CameraImage, path) -> None:
    """Write the image as a 16-bit binary portable graymap, scaled to _PGM_MAXVAL."""
    data = image.intensity
    top = float(data.max())
    scaled = data * (_PGM_MAXVAL / top) if top > 0.0 else data
    ints = np.clip(np.rint(scaled), 0, _PGM_MAXVAL).astype(">u2")
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n{_PGM_MAXVAL}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(ints.tobytes())

