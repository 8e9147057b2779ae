"""Crystal configurations: potential energy, equilibria, classification.

The potential of N ions in a calibrated trap is

    E = sum_i M_i/2 (wx_i^2 x_i^2 + wy_i^2 y_i^2 + wz_i^2 z_i^2)
      + sum_{i<j} k q_i q_j / |r_i - r_j|

with per-species secular frequencies from the trap model. Equilibria
are found by quasi-Newton descent in dimensionless coordinates (length
unit: Coulomb length of the first ion's species) followed by a Newton
polish on the analytic gradient, with saddle-point escapes along the
most negative curvature direction. A solve given initial positions (a
continuation step) starts with the polish and falls back to the
quasi-Newton escape loop only when the polish ends on a saddle or stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .constants import K_COULOMB
from .errors import (
    CoincidentIonsError,
    ConvergenceError,
    SaddlePointError,
)
from .trap import (
    IonSpecies,
    TrapModel,
    characteristic_length,
    frequencies_for_species,
    pseudopotential_terms,
)

MIN_SEPARATION = 1e-12       # m, below this two ions count as coincident
FORCE_TOL = 1e-16            # N, residual force bound at a converged equilibrium
_DIMLESS_GRAD_TOL = 1e-13    # convergence target in solver units
_SOFT_EIG_REL = 1e-9         # relative eigenvalue floor separating soft from unstable


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


def _min_separation(pos: np.ndarray) -> float:
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def _squared_frequencies(trap: TrapModel, ions: Sequence[IonSpecies]) -> np.ndarray:
    """Per-ion (wx^2, wy^2, wz^2), shape (N, 3). May contain non-positive entries."""
    cache: dict[IonSpecies, tuple[float, float, float]] = {}
    out = np.empty((len(ions), 3))
    for i, s in enumerate(ions):
        if s not in cache:
            a, b, c = pseudopotential_terms(trap, s)
            cache[s] = (2.0 * (c - a - b), 2.0 * (c - a + b), 4.0 * a)
        out[i] = cache[s]
    return out


def _energy_gradient(
    pos: np.ndarray, masses: np.ndarray, charges: np.ndarray, w2: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy (J) and gradient (N, as dE/dr, shape (N, 3)) for raw arrays."""
    energy = 0.5 * (masses[:, None] * w2 * pos**2).sum()
    grad = masses[:, None] * w2 * pos
    if len(masses) > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        qq = K_COULOMB * np.outer(charges, charges)
        energy += 0.5 * (qq / dist).sum()
        grad -= ((qq / dist**3)[:, :, None] * diff).sum(axis=1)
    return float(energy), grad


def _hessian(
    pos: np.ndarray, masses: np.ndarray, charges: np.ndarray, w2: np.ndarray
) -> np.ndarray:
    """Second derivative matrix of the potential, shape (3N, 3N), J/m^2."""
    n = len(masses)
    H = np.zeros((n, 3, n, 3))
    idx = np.arange(n)
    for ax in range(3):
        H[idx, ax, idx, ax] = masses * w2[:, ax]
    if n > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        unit = diff / dist[:, :, None]
        c3 = K_COULOMB * np.outer(charges, charges) / dist**3
        blocks = c3[:, :, None, None] * (
            3.0 * unit[:, :, :, None] * unit[:, :, None, :] - np.eye(3)
        )
        H -= blocks.transpose(0, 2, 1, 3)
        H[idx, :, idx, :] += blocks.sum(axis=1)
    return H.reshape(3 * n, 3 * n)


def _mass_weighted_eigh(
    H: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of M^-1/2 H M^-1/2; eigenvalues in (rad/s)^2, ascending."""
    inv = 1.0 / np.sqrt(np.repeat(masses, 3))
    D = H * inv[:, None] * inv[None, :]
    D = 0.5 * (D + D.T)
    return np.linalg.eigh(D)


def potential_energy(trap: TrapModel, config: CrystalConfiguration) -> float:
    """Total potential energy in joules."""
    w2 = _squared_frequencies(trap, config.ions)
    e, _ = _energy_gradient(config.positions, config.masses, config.charges, w2)
    return e


def gradient(trap: TrapModel, config: CrystalConfiguration) -> np.ndarray:
    """Gradient dE/dr flattened to (3N,), in newtons."""
    w2 = _squared_frequencies(trap, config.ions)
    _, g = _energy_gradient(config.positions, config.masses, config.charges, w2)
    return g.ravel()


def hessian(trap: TrapModel, config: CrystalConfiguration) -> np.ndarray:
    """Analytic Hessian of the potential, shape (3N, 3N), J/m^2.

    Coordinates are ordered (x0, y0, z0, x1, ...). For a linear chain
    the x, y, z sub-blocks decouple exactly.
    """
    w2 = _squared_frequencies(trap, config.ions)
    return _hessian(config.positions, config.masses, config.charges, w2)


def axial_equilibrium(
    trap: TrapModel,
    ions: Sequence[IonSpecies],
    max_iter: int = 100,
) -> np.ndarray:
    """Equilibrium z positions (metres) of the linear chain, ions kept in order.

    Solves the one-dimensional problem by Newton iteration from an
    equally spaced seed. The result does not depend on the transverse
    confinement, so it parametrises the whole linear branch of a radial
    stiffness scan.
    """
    ions = tuple(ions)
    n = len(ions)
    w2 = _squared_frequencies(trap, ions)
    wz2 = w2[:, 2]
    masses = np.array([s.mass for s in ions])
    charges = np.array([s.charge for s in ions])
    if n == 1:
        return np.zeros(1)

    scale = characteristic_length(ions[0], float(np.sqrt(wz2[0])))
    force_scale = masses[0] * wz2[0] * scale
    spacing = 2.018 * n**-0.559 * scale
    z = (np.arange(n) - 0.5 * (n - 1)) * spacing
    qq = K_COULOMB * np.outer(charges, charges)

    for _ in range(max_iter):
        dz = z[:, None] - z[None, :]
        adz = np.abs(dz)
        np.fill_diagonal(adz, np.inf)
        g = masses * wz2 * z - (qq * dz / adz**3).sum(axis=1)
        if np.abs(g).max() <= _DIMLESS_GRAD_TOL * force_scale:
            if np.any(np.diff(z) <= 0.0):
                raise ConvergenceError("axial solve left ions out of order")
            return z
        off = 2.0 * qq / adz**3
        Hz = np.diag(masses * wz2 + off.sum(axis=1)) - off
        z = z - np.linalg.solve(Hz, g)
    raise ConvergenceError(f"axial equilibrium did not converge in {max_iter} steps")


def _newton_polish(u, fg, hess_u, max_iter=200):
    """Drive the dimensionless gradient below _DIMLESS_GRAD_TOL from a near-minimum.

    Damped Newton: the Hessian is shifted until positive definite, the
    shift grows on rejected steps and decays on accepted ones. Near a
    structural transition the bare Hessian is almost singular along the
    soft direction, where undamped Newton would jump to the saddle.
    """
    e, g = fg(u)
    mu = 0.0
    eye = np.eye(len(u))
    for _ in range(max_iter):
        ginf = np.abs(g).max()
        if ginf <= _DIMLESS_GRAD_TOL:
            return u, True
        H = hess_u(u)
        while True:
            try:
                np.linalg.cholesky(H + mu * eye)
                break
            except np.linalg.LinAlgError:
                mu = max(2.0 * mu, 1e-10)
        step = np.linalg.solve(H + mu * eye, g)
        u_new = u - step
        e_new, g_new = fg(u_new)
        if np.isfinite(e_new) and (np.abs(g_new).max() < ginf or e_new < e):
            u, e, g = u_new, e_new, g_new
            mu = 0.0 if mu < 1e-12 else 0.25 * mu
        else:
            mu = max(8.0 * mu, 1e-8)
            if mu > 1e8:
                return u, False
    return u, np.abs(g).max() <= _DIMLESS_GRAD_TOL


def find_equilibrium(
    trap: TrapModel,
    ions: Sequence[IonSpecies],
    *,
    seed: int = 0,
    restarts: int = 1,
    both_branches: bool = False,
    perturbation: float = 1e-8,
    max_escapes: int = 8,
    initial: np.ndarray | None = None,
):
    """Relax the ions to a stable minimum of the potential.

    The seed configuration is an equally spaced chain along z with
    deterministic pseudo-random transverse offsets of size
    `perturbation` (metres) drawn from `seed`. With restarts > 1 the
    solve is repeated with fresh offsets and the lowest-energy stable
    minimum wins (ties broken by lexicographically smaller positions).

    With both_branches=True, returns a (primary, mirror) pair where the
    mirror is solved from the x-reflected seed; for a zigzag crystal the
    two are the degenerate mirror pair, for a linear crystal they
    coincide.

    initial, positions in metres of shape (N, 3), replaces the seed
    chain: the Newton polish starts from it, and only when that ends on
    a saddle (kicked along the most negative curvature) or does not
    converge does the quasi-Newton escape loop take over. This is the
    warm start of a continuation, e.g. the minimum at a neighbouring
    trap setting; seed and perturbation are then unused. It selects a
    single start, so it cannot be combined with restarts > 1 or
    both_branches=True (ValueError). It is checked like the positions
    of a CrystalConfiguration (ValueError, CoincidentIonsError).

    Raises TrapInstabilityError for an unconfined species,
    SaddlePointError when every escape attempt still ends on a saddle,
    and ConvergenceError when the force tolerance cannot be met.
    """
    ions = tuple(ions)
    n = len(ions)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if initial is not None:
        initial = CrystalConfiguration(ions, initial).positions
        if restarts > 1 or both_branches:
            raise ValueError(
                "initial selects a single start; it excludes restarts > 1 "
                "and both_branches"
            )
    for s in set(ions):
        frequencies_for_species(trap, s)

    w2 = _squared_frequencies(trap, ions)
    masses = np.array([s.mass for s in ions])
    charges = np.array([s.charge for s in ions])
    scale = characteristic_length(ions[0], float(np.sqrt(w2[0, 2])))
    e0 = K_COULOMB * ions[0].charge ** 2 / scale

    def fg(u: np.ndarray) -> tuple[float, np.ndarray]:
        e, g = _energy_gradient(u.reshape(n, 3) * scale, masses, charges, w2)
        return e / e0, g.ravel() * (scale / e0)

    def hess_u(u: np.ndarray) -> np.ndarray:
        return _hessian(u.reshape(n, 3) * scale, masses, charges, w2) * (
            scale**2 / e0
        )

    spacing = 2.018 * n**-0.559 if n > 1 else 1.0
    z_seed = (np.arange(n) - 0.5 * (n - 1)) * spacing

    def unstable_direction(u: np.ndarray):
        H = _hessian(u.reshape(n, 3) * scale, masses, charges, w2)
        evals, evecs = _mass_weighted_eigh(H, masses)
        if evals[0] >= -_SOFT_EIG_REL * max(evals[-1], 0.0):
            return None, evals
        direction = evecs[:, 0] / np.sqrt(np.repeat(masses, 3))
        return direction / np.abs(direction).max(), evals

    def solve_from(u0: np.ndarray) -> tuple[float, np.ndarray]:
        u = u0.ravel()
        for _ in range(max_escapes):
            res = minimize(
                fg,
                u,
                jac=True,
                method="BFGS",
                options={"gtol": 1e-11, "maxiter": 50000, "norm": np.inf},
            )
            # kick off a saddle before polishing: the polish assumes it is
            # refining a minimum and stalls in the flat valley otherwise
            direction, evals = unstable_direction(res.x)
            if direction is not None:
                u = res.x + 1e-3 * direction
                continue
            u, ok = _newton_polish(res.x, fg, hess_u)
            if not ok:
                raise ConvergenceError(
                    "equilibrium solve stalled above the force tolerance"
                )
            direction, evals = unstable_direction(u)
            if direction is None:
                e, g = fg(u)
                return e, u
            u = u + 1e-3 * direction
        raise SaddlePointError(
            "could not escape a saddle point",
            negative_count=int((evals < -_SOFT_EIG_REL * max(evals[-1], 0.0)).sum()),
        )

    if initial is not None:
        u, ok = _newton_polish(initial.ravel() / scale, fg, hess_u)
        direction = unstable_direction(u)[0] if ok else None
        if not ok or direction is not None:
            _, u = solve_from(u if direction is None else u + 1e-3 * direction)
        primary = CrystalConfiguration(ions, u.reshape(n, 3) * scale)
        _check_forces(trap, primary)
        return primary

    rng = np.random.default_rng(seed)
    best: tuple[float, np.ndarray] | None = None
    first_seed: np.ndarray | None = None
    for _ in range(restarts):
        u0 = np.zeros((n, 3))
        u0[:, 2] = z_seed
        u0[:, :2] = rng.standard_normal((n, 2)) * (perturbation / scale)
        if first_seed is None:
            first_seed = u0.copy()
        e, u = solve_from(u0)
        if (
            best is None
            or e < best[0] - 1e-12 * abs(best[0])
            or (abs(e - best[0]) <= 1e-12 * abs(best[0]) and tuple(u) < tuple(best[1]))
        ):
            best = (e, u)

    assert best is not None and first_seed is not None
    primary = CrystalConfiguration(ions, best[1].reshape(n, 3) * scale)
    _check_forces(trap, primary)
    if not both_branches:
        return primary

    u0 = first_seed.copy()
    u0[:, 0] *= -1.0
    _, u_mirror = solve_from(u0)
    mirror = CrystalConfiguration(ions, u_mirror.reshape(n, 3) * scale)
    _check_forces(trap, mirror)
    return primary, mirror


def _check_forces(trap: TrapModel, config: CrystalConfiguration) -> None:
    g = gradient(trap, config)
    gmax = float(np.abs(g).max())
    if gmax > FORCE_TOL:
        raise ConvergenceError(
            f"residual force {gmax:.3e} N exceeds {FORCE_TOL:.0e} N"
        )


def classify(
    config: CrystalConfiguration,
    length_scale: float | None = None,
    threshold_factor: float = 1e-4,
) -> StructureClass:
    """Label a configuration as linear, zigzag, or other.

    Transverse displacements below threshold_factor times the reference
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
    thr = threshold_factor * scale
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
