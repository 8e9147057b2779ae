"""Crystal configurations: potential energy, equilibria, classification.

The potential of N ions in a calibrated trap is

    E = sum_i M_i/2 (wx_i^2 x_i^2 + wy_i^2 y_i^2 + wz_i^2 z_i^2)
      + sum_{i<j} k q_i q_j / |r_i - r_j|

with per-species secular frequencies from the trap model. One kernel
evaluates it in any consistent units: `_evaluate` takes spring
constants k2 = M w^2 and Coulomb prefactors kq = k q_i q_j and returns
the energy, gradient and force scale with the pair geometry it used,
from which `_hessian` builds the Hessian at the same point. The public
functions call it in SI units. Solves call it in their own units
(`_solve_units`): lengths in the Coulomb length of the first ion's
species, energies in k q_0^2 over that length, masses in the first
ion's mass. Two Newton loops (Nocedal & Wright, Numerical Optimization,
ch. 3 and 4) share one evaluation (`_state`) and one backtracking line
search (`_line_search`): a step is accepted on an Armijo energy decrease
or, with no unstable direction and a round-off energy change, on a
smaller largest force. Each loop stops at a stationary point
(`is_stationary`). `axial_equilibrium` takes plain Newton steps on z
alone: the energy of an ordered chain is strictly convex, and a trial
that reorders the ions is inadmissible. Every other equilibrium comes
from `_relax`. Where the Hessian is indefinite its mass-weighted
eigenvalues are replaced by their absolute values, the step pushes along
the lowest mode while it is unstable, and a trust radius tied to the
smallest ion spacing bounds every ion's step. No coordinate of an
iterate lies strictly between 0 and _FLOOR (in the length unit): the
line search sets such coordinates to zero. Past the transition a warm
start carries transverse offsets that each solve shrinks by ~1e-14;
left alone they reach the subnormal range (below 2.2e-308), where the
Hessian's factorisations run ~20 times slower.

`find_equilibrium` runs the loop on all three axes, from the linear
chain with small transverse offsets or from given positions. Deep in the
buckled phase several minima compete, so it selects among candidates:
the descent from the start and, for crystals of up to _BRANCH_MAX_IONS
ions, the descents from the same start whose first push follows the
next of the lowest _BRANCHES unstable modes. The lowest minimum wins,
the earliest candidate on a tie. The potential is even in x, so the
x reflection of a minimum is a minimum of the same energy: a zigzag's
degenerate mirror is its reflection and takes no second solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .constants import K_COULOMB
from .errors import (
    CoincidentIonsError,
    ConvergenceError,
    SaddlePointError,
    SolverError,
)
from .trap import (
    IonSpecies,
    TrapModel,
    _squared_secular,
    characteristic_length,
    frequencies_for_species,
)

MIN_SEPARATION = 1e-12       # m, below this two ions count as coincident
# Stationarity: the largest residual force is at most STATIONARY_REL times
# the force scale, the largest per-ion sum of trap and Coulomb force
# magnitudes. That is c * eps with c ~ 90 (eps = 2.2e-16), room for the
# round-off of a force component that sums N terms of up to the force
# scale. Solves of 12-96 ions end at 3e-16 to 2e-15 of it.
STATIONARY_REL = 2e-14
_SOFT_EIG_REL = 1e-9         # relative eigenvalue floor separating soft from unstable
_PERTURBATION = 1e-8         # m, transverse offsets of a cold start
_MAX_ESCAPES = 8             # stationary saddle points a descent may push off
_AXIAL_MAX_STEPS = 100       # Newton steps of axial_equilibrium
_LINEAR_THRESHOLD = 1e-4     # classify: transverse offsets below this times the scale are zero

# The descent loop; lengths are in units of the smallest ion spacing.
_MAX_STEPS = 500
_MAX_RADIUS = 1.0            # trust radius: the largest per-ion step
_PUSH = 0.1                  # smallest per-ion step along an unstable lowest mode
_FIRST_PUSH = 0.5            # the same for the first push, which picks the branch
_ARMIJO = 1e-4               # sufficient-decrease constant
_ROUNDOFF = 1e-14            # relative energy change that counts as round-off
# Coordinates below this magnitude are set to zero in every iterate. A
# Hessian entry is at most quadratic in the coordinates, and the product
# of two coordinates of at least tiny**0.25 is at least sqrt(tiny); times
# any prefactor above sqrt(tiny) (~1.5e-154) it is at least tiny, a
# normal number. Below the floor a coordinate is ~1e-77 of the crystal's
# size, far under any position a solve resolves.
_FLOOR = np.finfo(float).tiny ** 0.25
# Minimum selection: a solve of at most _BRANCH_MAX_IONS ions also descends
# from each start with its first push along each of the next lowest
# unstable modes, _BRANCHES in all, and keeps the lowest minimum. Larger
# crystals follow the lowest mode alone: each branch costs a full descent,
# and branching at every size made the benchmark's chain-solve median
# 0.51 s against 0.32 s for the previous BFGS solver (BENCH_7.json), while
# the lowest-mode minima of 48- and 72-ion buckled crystals are, on
# average, no higher than that solver's.
_BRANCHES = 4
_BRANCH_MAX_IONS = 24


@dataclass(frozen=True, eq=False)
class CrystalConfiguration:
    """An ordered tuple of species with their positions in metres, shape (N, 3)."""

    ions: tuple[IonSpecies, ...]
    positions: np.ndarray

    def __post_init__(self):
        ions = tuple(self.ions)
        if len(ions) == 0:
            raise ValueError("a configuration needs at least one ion")
        object.__setattr__(self, "ions", ions)
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (len(ions), 3):
            raise ValueError(
                f"positions must have shape ({len(ions)}, 3), got {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        if len(ions) > 1:
            dmin = _min_separation(pos)
            if dmin < MIN_SEPARATION:
                raise CoincidentIonsError(
                    f"ion separation {dmin:.3e} m is below {MIN_SEPARATION:.0e} m"
                )

    @property
    def n(self) -> int:
        return len(self.ions)

    @property
    def charges(self) -> np.ndarray:
        """Charges in coulombs, shape (N,)."""
        return np.array([s.charge for s in self.ions])

    @property
    def masses(self) -> np.ndarray:
        """Masses in kilograms, shape (N,)."""
        return np.array([s.mass for s in self.ions])

    def with_positions(self, positions: np.ndarray) -> "CrystalConfiguration":
        return CrystalConfiguration(self.ions, positions)


@dataclass(frozen=True)
class StructureClass:
    """Structural label of a configuration.

    kind is 'linear', 'zigzag', or 'other'; plane is the zigzag plane
    ('xz' or 'yz') when transverse displacements are confined to one
    transverse axis, else None. order_parameter is the largest
    transverse displacement in metres.
    """

    kind: str
    plane: str | None
    order_parameter: float


def _pair_geometry(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair differences r_i - r_j, shape (N, N, d), and distances with inf on the diagonal."""
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return diff, dist


def _min_separation(pos: np.ndarray) -> float:
    return float(_pair_geometry(pos)[1].min())


def _evaluate(
    pos: np.ndarray, k2: np.ndarray, kq: np.ndarray
) -> tuple[float, np.ndarray, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Energy, gradient (shape of pos), force scale and pair geometry.

    Works in any consistent units: pos has shape (N, d), all three axes
    or z alone; k2 (N, d) holds the trap spring constants m w^2 and kq
    (N, N) the Coulomb prefactors K q_i q_j, both in those units. The
    force scale is the largest per-ion sum of trap and Coulomb force
    magnitudes, the yardstick of the stationarity test. The geometry is
    (diff, dist, c3) of _pair_geometry with c3 = kq / dist^3, 0 on the
    diagonal: what _hessian needs at the same point.
    """
    grad = k2 * pos
    energy = 0.5 * (grad * pos).sum()
    per_ion = np.abs(grad).sum(axis=1)
    diff, dist = _pair_geometry(pos)
    qq_r = kq / dist
    energy += 0.5 * qq_r.sum()
    qq_r2 = qq_r / dist
    per_ion += qq_r2.sum(axis=1)
    c3 = qq_r2 / dist
    grad -= (c3[:, :, None] * diff).sum(axis=1)
    return float(energy), grad, float(per_ion.max()), (diff, dist, c3)


def _hessian(
    geometry: tuple[np.ndarray, np.ndarray, np.ndarray], k2: np.ndarray
) -> np.ndarray:
    """Second derivative matrix of the potential, shape (dN, dN), from
    _evaluate's geometry at a point and the spring constants k2 (N, d),
    in their units."""
    diff, dist, c3 = geometry
    n, d = k2.shape
    unit = diff / dist[:, :, None]
    blocks = c3[:, :, None, None] * (
        3.0 * unit[:, :, :, None] * unit[:, :, None, :] - np.eye(d)
    )
    H = np.zeros((n, d, n, d))
    H -= blocks.transpose(0, 2, 1, 3)
    idx = np.arange(n)
    H[idx, :, idx, :] += blocks.sum(axis=1) + k2[:, :, None] * np.eye(d)
    return H.reshape(d * n, d * n)


def _mass_weighted_eigh(
    H: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of M^-1/2 H M^-1/2, eigenvalues ascending; in
    (rad/s)^2 for SI H and masses."""
    inv = 1.0 / np.sqrt(np.repeat(masses, len(H) // len(masses)))
    D = H * inv[:, None] * inv[None, :]
    D = 0.5 * (D + D.T)
    return np.linalg.eigh(D)


def _soft_floor(evals: np.ndarray) -> float:
    """Eigenvalues (ascending) within plus or minus this count as soft."""
    return _SOFT_EIG_REL * max(float(evals[-1]), 0.0)


def _unstable_count(evals: np.ndarray) -> int:
    """Eigenvalues below minus the soft floor: the unstable directions."""
    return int((evals < -_soft_floor(evals)).sum())


def potential_energy(trap: TrapModel, config: CrystalConfiguration) -> float:
    """Total potential energy in joules."""
    k2, kq, _, _ = _arrays(trap, config.ions)
    return _evaluate(config.positions, k2, kq)[0]


def gradient(trap: TrapModel, config: CrystalConfiguration) -> np.ndarray:
    """Gradient dE/dr flattened to (3N,), in newtons."""
    k2, kq, _, _ = _arrays(trap, config.ions)
    return _evaluate(config.positions, k2, kq)[1].ravel()


def hessian(trap: TrapModel, config: CrystalConfiguration) -> np.ndarray:
    """Analytic Hessian of the potential, shape (3N, 3N), J/m^2.

    Coordinates are ordered (x0, y0, z0, x1, ...). For a linear chain
    the x, y, z sub-blocks decouple exactly.
    """
    k2, kq, _, _ = _arrays(trap, config.ions)
    return _hessian(_evaluate(config.positions, k2, kq)[3], k2)


def is_stationary(trap: TrapModel, config: CrystalConfiguration) -> bool:
    """Whether the configuration is an equilibrium to within round-off.

    True when the largest residual force is at most STATIONARY_REL times
    the force scale (the largest per-ion sum of trap and Coulomb force
    magnitudes). The same test ends every equilibrium solve.
    """
    k2, kq, _, _ = _arrays(trap, config.ions)
    return _state(config.positions, k2, kq)[2]


def _state(pos: np.ndarray, k2: np.ndarray, kq: np.ndarray) -> tuple:
    """_evaluate at pos with the gradient flattened and, in place of the
    force scale, is_stationary's verdict: energy, gradient, stationary,
    geometry."""
    e, g, scale, geometry = _evaluate(pos, k2, kq)
    return e, g.ravel(), bool(np.abs(g).max() <= STATIONARY_REL * scale), geometry


def _flush(u: np.ndarray) -> np.ndarray:
    """u with every coordinate below _FLOOR in magnitude set to +0.0; the
    others keep their bits."""
    return np.where(np.abs(u) < _FLOOR, 0.0, u)


def _line_search(evaluate, u, p, e, g, unstable):
    """Backtrack from u (energy e, flat gradient g) along the step p.

    Returns (t, trial, evaluate(trial)) for the first trial
    _flush(u + t p), t = 1, 1/2, ..., that the module docstring's rule
    accepts; its round-off branch applies only when unstable, the count of
    unstable directions at u, is 0. evaluate returns _state's tuple, with
    energy +inf for an inadmissible trial. Below t = 1e-10 it raises
    SaddlePointError carrying unstable, or ConvergenceError if it is 0.
    """
    slope = float(g @ p.ravel())
    gmax = np.abs(g).max()
    t = 1.0
    while t >= 1e-10:
        trial = _flush(u + t * p)
        point = evaluate(trial)
        e_t, g_t = point[:2]
        if unstable == 0 and abs(e_t - e) <= _ROUNDOFF * abs(e):
            if np.abs(g_t).max() < gmax:
                return t, trial, point
        elif e_t <= e + _ARMIJO * t * slope:
            return t, trial, point
        t *= 0.5
    if unstable:
        raise SaddlePointError("descent stalled on a saddle point", negative_count=unstable)
    raise ConvergenceError("equilibrium solve stalled above the force tolerance")


def _relax(
    u: np.ndarray,
    k2: np.ndarray,
    kq: np.ndarray,
    masses: np.ndarray,
    *,
    first_mode: int = 0,
) -> tuple[np.ndarray, float, int]:
    """Energy-descent Newton from u (shape (N, 3)) to a minimum.

    u, k2, kq and masses are in a solve's units (_solve_units). Each
    trial point gets one pair-geometry pass (_state); the Hessian and
    the smallest ion spacing at an accepted point come from that same
    geometry.

    Each step solves H p = -g. Where the Hessian is not positive definite,
    its mass-weighted eigenvalues are replaced by their absolute values
    (floored at the soft-mode floor). While the lowest one is unstable,
    the step moves at least _PUSH spacings along that mode, downhill: the
    loop follows the dominant instability. No ion moves further than the
    trust radius (in smallest spacings); a longer step is shortened by a
    shift mu of the eigenvalues (Levenberg-Marquardt), which cuts the soft
    directions first. The radius doubles after a full step and shrinks to
    what _line_search kept. The loop stops when the configuration is
    stationary (is_stationary's test) with no unstable mode. The ordered
    linear chain needs none of this machinery (axial_equilibrium).

    The start and every trial point have each coordinate below _FLOOR in
    magnitude set to zero, so no iterate, and no minimum returned or
    warm-started from, holds a coordinate in (0, _FLOOR): its energy,
    gradient and Hessian stay clear of subnormal numbers.

    The first push moves _FIRST_PUSH spacings along unstable mode
    first_mode (0 the lowest, 1 the next, ...; the highest unstable one if
    fewer are unstable). Returns the minimum, its energy, and the number
    of unstable modes at the first push (0 without a push): the branches a
    caller may follow by descending again with another first_mode.

    Raises SaddlePointError after more than _MAX_ESCAPES stationary
    saddle points, or when the descent stalls on one, and ConvergenceError
    when it stalls or runs out of steps elsewhere.
    """
    inv_sqrt_m = 1.0 / np.sqrt(np.repeat(masses, u.shape[1]))
    evaluate = partial(_state, k2=k2, kq=kq)

    def size(p: np.ndarray) -> float:
        """Largest per-ion length of a flat step."""
        return float(np.sqrt((p.reshape(u.shape) ** 2).sum(axis=1)).max())

    u = _flush(u)
    e, g, stationary, geometry = evaluate(u)
    radius = _MAX_RADIUS
    escapes = 0
    forks = 0
    for _ in range(_MAX_STEPS):
        H = _hessian(geometry, k2)
        try:
            np.linalg.cholesky(H)
            modes = None
            unstable = 0
        except np.linalg.LinAlgError:
            modes = _mass_weighted_eigh(H, masses)
            unstable = _unstable_count(modes[0])
        if stationary:
            if unstable == 0:
                break
            escapes += 1
            if escapes > _MAX_ESCAPES:
                raise SaddlePointError(
                    "could not escape a saddle point", negative_count=unstable
                )
        spacing = float(geometry[1].min())
        limit = radius * spacing
        p = None
        if modes is None:
            p = -np.linalg.solve(H, g)
            if size(p) > limit:
                modes, p = _mass_weighted_eigh(H, masses), None
        if p is None:
            evals, vecs = modes
            lam = np.maximum(np.abs(evals), _soft_floor(evals))
            gw = vecs.T @ (inv_sqrt_m * g)

            def shifted(mu: float) -> np.ndarray:
                return inv_sqrt_m * (vecs @ (-gw / (lam + mu)))

            p = shifted(0.0)
            if size(p) > limit:
                lo, hi = 0.0, float(lam[-1])
                while size(shifted(hi)) > limit:
                    lo, hi = hi, 2.0 * hi
                while hi - lo > 0.01 * hi:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if size(shifted(mid)) > limit else (lo, mid)
                p = shifted(hi)
        if unstable:
            k, push = 0, _PUSH
            if not forks:
                forks = unstable
                k, push = min(first_mode, unstable - 1), _FIRST_PUSH
            mode = inv_sqrt_m * vecs[:, k]
            reach = size(mode)
            along = float(vecs[:, k] @ (p / inv_sqrt_m))
            if abs(along) * reach < push * spacing:
                sign = -np.sign(gw[k]) or np.sign(mode[np.abs(mode).argmax()])
                p = p + (sign * push * spacing / reach - along) * mode
                p *= min(1.0, limit / size(p))
        p = p.reshape(u.shape)
        length = size(p)
        t, u, (e, g, stationary, geometry) = _line_search(evaluate, u, p, e, g, unstable)
        radius = min(2.0 * radius, _MAX_RADIUS) if t == 1.0 else t * length / spacing
    else:
        raise ConvergenceError(f"equilibrium solve did not converge in {_MAX_STEPS} steps")
    return u, e, forks


def _arrays(trap: TrapModel, ions: Sequence[IonSpecies]):
    """Spring constants m w^2 (N, 3), Coulomb prefactors K q_i q_j (N, N)
    and masses (N,) of a solve in SI units, and its length unit: the first
    ion's Coulomb length at its axial frequency, which depends on the
    static curvature alone. Squared frequencies may be non-positive."""
    w2 = np.array([_squared_secular(trap, s) for s in ions])
    masses = np.array([s.mass for s in ions])
    charges = np.array([s.charge for s in ions])
    scale = characteristic_length(ions[0], float(np.sqrt(w2[0, 2])))
    return masses[:, None] * w2, K_COULOMB * np.outer(charges, charges), masses, scale


def _solve_units(trap: TrapModel, ions: Sequence[IonSpecies]):
    """_arrays in the units every solve runs in: lengths in the length
    unit, energies in K q_0^2 / (length unit), masses in m_0 (q_0 and m_0
    are the first ion's)."""
    k2, kq, masses, scale = _arrays(trap, ions)
    return k2 * (scale**3 / kq[0, 0]), kq / kq[0, 0], masses / masses[0], scale


def axial_equilibrium(trap: TrapModel, ions: Sequence[IonSpecies]) -> np.ndarray:
    """Equilibrium z positions (metres) of the linear chain, ions kept in order.

    Newton steps on z alone (James, Appl. Phys. B 66, 181, 1998), in the
    solve units of _solve_units, from an equally spaced seed. The energy
    of an ordered chain is strictly convex, so each step is the full
    Newton step, shortened only by _line_search; a trial that reorders the
    ions is inadmissible there. It stops on is_stationary's test. The
    result depends on the static axial curvature alone, so it is the same
    array at every transverse confinement. ConvergenceError when the line
    search stalls or after _AXIAL_MAX_STEPS steps.
    """
    ions = tuple(ions)
    n = len(ions)
    k2, kq, _, scale = _solve_units(trap, ions)
    k2 = k2[:, 2:]

    def evaluate(v: np.ndarray):
        """_state of an ordered chain, energy +inf for a reordered one."""
        if np.all(np.diff(v, axis=0) > 0.0):
            return _state(v, k2, kq)
        return np.inf, None, False, None

    u = ((np.arange(n) - 0.5 * (n - 1)) * 2.018 * n**-0.559)[:, None]
    e, g, stationary, geometry = evaluate(u)
    for _ in range(_AXIAL_MAX_STEPS):
        if stationary:
            return u[:, 0] * scale
        p = -np.linalg.solve(_hessian(geometry, k2), g)
        _, u, (e, g, stationary, geometry) = _line_search(evaluate, u, p[:, None], e, g, 0)
    raise ConvergenceError(f"axial equilibrium did not converge in {_AXIAL_MAX_STEPS} steps")


def _cold_start(trap, ions, z, rng) -> np.ndarray:
    """Start of a cold solve, metres: the linear chain z with transverse
    offsets of size _PERTURBATION, drawn from rng in the solve's length unit."""
    scale = _arrays(trap, ions)[3]
    start = np.zeros((len(z), 3))
    start[:, 2] = z
    start[:, :2] = rng.standard_normal((len(z), 2)) * (_PERTURBATION / scale) * scale
    return start


def find_equilibrium(
    trap: TrapModel,
    ions: Sequence[IonSpecies],
    *,
    seed: int = 0,
    initial: np.ndarray | None = None,
) -> CrystalConfiguration:
    """Relax the ions to a stable minimum of the potential.

    The start is the linear chain of axial_equilibrium with
    deterministic pseudo-random transverse offsets of size _PERTURBATION
    (metres) drawn from `seed`. The descent loop (see the module
    docstring) runs from it and, for at most _BRANCH_MAX_IONS ions, again
    from the same start along each of the next unstable modes at its
    first push, up to _BRANCHES in all; a branch that fails is dropped.
    Of this one candidate list the lowest-energy minimum wins, and on a
    tie within 1e-12 (relative) the earliest: so a branch changes the
    result only when it reaches a strictly lower minimum.

    initial, positions in metres of shape (N, 3), replaces the seed
    chain: the same loop starts from it. This is the warm start of a
    continuation, e.g. the minimum at a neighbouring trap setting; seed
    is then unused, and the mode branches are followed from it as from a
    cold start. It is checked like the positions of a
    CrystalConfiguration (ValueError, CoincidentIonsError).

    Raises TrapInstabilityError for an unconfined species,
    SaddlePointError when the loop cannot leave a saddle point (it lands
    on a stationary one, an exactly linear chain past its transition,
    say, more than _MAX_ESCAPES times), and ConvergenceError when it
    stalls or runs out of steps before is_stationary's test holds.
    """
    ions = tuple(ions)
    n = len(ions)
    if initial is not None:
        initial = CrystalConfiguration(ions, initial).positions
    for s in set(ions):
        frequencies_for_species(trap, s)

    if n == 1:  # a lone ion sits at the trap centre
        return CrystalConfiguration(ions, np.zeros((1, 3)))
    k2, kq, masses, scale = _solve_units(trap, ions)
    if initial is None:
        z = axial_equilibrium(trap, ions)
        initial = _cold_start(trap, ions, z, np.random.default_rng(seed))
    start = initial / scale

    # the lowest minimum of the start's descent and its mode branches; the
    # earliest within 1e-12 relative
    u, e, forks = _relax(start, k2, kq, masses)
    for k in range(1, min(forks, _BRANCHES) if n <= _BRANCH_MAX_IONS else 1):
        try:
            v, f, _ = _relax(start, k2, kq, masses, first_mode=k)
        except SolverError:
            continue
        if f < e - 1e-12 * abs(e):
            u, e = v, f
    return CrystalConfiguration(ions, u * scale)


def classify(
    config: CrystalConfiguration, length_scale: float | None = None
) -> StructureClass:
    """Label a configuration as linear, zigzag, or other.

    Transverse displacements below _LINEAR_THRESHOLD times the reference
    scale (the minimum ion separation unless length_scale is given)
    count as zero. A zigzag is confined to one transverse plane with
    alternating signs along the chain.
    """
    pos = config.positions
    order = np.argsort(pos[:, 2], kind="stable")
    x = pos[order, 0]
    y = pos[order, 1]
    op = float(np.sqrt(x**2 + y**2).max())
    if config.n == 1:
        return StructureClass("linear", None, op)
    scale = length_scale if length_scale is not None else _min_separation(pos)
    thr = _LINEAR_THRESHOLD * scale
    if op < thr:
        return StructureClass("linear", None, op)
    in_x = np.abs(x).max() >= thr
    in_y = np.abs(y).max() >= thr
    if in_x and in_y:
        return StructureClass("other", None, op)
    t, plane = (x, "xz") if in_x else (y, "yz")
    signs = np.sign(t[np.abs(t) >= 0.1 * np.abs(t).max()])
    if len(signs) >= 2 and np.all(signs[1:] * signs[:-1] < 0):
        return StructureClass("zigzag", plane, op)
    return StructureClass("other", plane, op)


def crystal_length(config: CrystalConfiguration) -> float:
    """Extent of the crystal along the trap axis, metres."""
    z = config.positions[:, 2]
    return float(z.max() - z.min())
