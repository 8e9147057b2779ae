"""Reference physics for checking the benchmark's outputs, independent of ioncrystal.

Everything here is plain numpy written from the textbook model: a linear
Paul trap in the pseudopotential approximation, point charges, and the
mass-weighted Hessian. Nothing is imported from the package under test,
so a fault in the package cannot hide itself by also being in the check.

A trap is described the way an experiment calibrates it: the secular
frequency triple (omega_x, omega_y, omega_z) of a reference species.
Every other species follows from its charge-to-mass ratio r relative to
the reference: the static curvature terms scale with r, the rf
pseudopotential term with r**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

E_CHARGE = 1.602176634e-19           # C, exact in the 2019 SI
AMU = 1.66053906660e-27              # kg, CODATA 2018
COULOMB_K = 8.9875517923e9           # N m^2 / C^2, CODATA 2018

# Tolerances of the checks, all relative to the natural scale of the quantity.
FORCE_REL = 1e-9         # residual force / (k q_ref^2 / l^2)
SOFT_REL = 1e-9          # eigenvalue floor / largest eigenvalue
FREQ_REL = 1e-7          # mode frequency / largest mode frequency
KOHN_REL = 1e-6          # centre-of-mass mode / trap frequency
POSITION_REL = 1e-7      # position / Coulomb length l
CRITICAL_ABS = 1e-4      # alpha: the bisection tolerance the program is asked for
CROSS_CHECK_ABS = 1.1e-3  # alpha: order-parameter detector vs exact soft mode
PHASE_GUARD_REL = 0.01   # grid points within 1 % of alpha* may carry either label
LINEAR_REL = 1e-6        # transverse extent / l below which a chain is linear
PEAK_ABS_KHZ = 0.5       # fitted resonance centre vs mode frequency (half the damping)
COUPLING_REL = 1e-6      # drive coupling / largest coupling counted as nonzero
SPOT_ABS_UM = 0.1        # fitted spot centre vs projected ion position


class OracleMismatch(AssertionError):
    """An output of the program disagrees with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


@dataclass(frozen=True)
class Trap:
    """Reference-species secular frequencies (rad/s) and the reference ion."""

    wx: float
    wy: float
    wz: float
    ref_charge: int
    ref_mass_amu: float

    @classmethod
    def from_khz(cls, fx, fy, fz, ref_charge=1, ref_mass_amu=40.0) -> "Trap":
        k = 2e3 * math.pi
        return cls(k * fx, k * fy, k * fz, ref_charge, ref_mass_amu)

    def at_alpha(self, alpha: float) -> "Trap":
        """The same static curvatures with the rf set so (wz/wx)^2 = alpha."""
        wx2 = self.wz**2 / alpha
        wy2 = wx2 + (self.wy**2 - self.wx**2)
        return Trap(math.sqrt(wx2), math.sqrt(wy2), self.wz,
                    self.ref_charge, self.ref_mass_amu)

    @property
    def alpha_x(self) -> float:
        return (self.wz / self.wx) ** 2

    @property
    def alpha_y(self) -> float:
        return (self.wz / self.wy) ** 2

    def ratio(self, charge: int, mass_amu: float) -> float:
        return (charge / mass_amu) / (self.ref_charge / self.ref_mass_amu)

    def species_w2(self, charge: int, mass_amu: float) -> np.ndarray:
        """(wx^2, wy^2, wz^2) of a species in this trap."""
        r = self.ratio(charge, mass_amu)
        a = self.wz**2 / 4.0
        b = (self.wy**2 - self.wx**2) / 4.0
        c = (self.wx**2 + self.wy**2 + self.wz**2) / 4.0
        return np.array([2.0 * (r * r * c - r * a - r * b),
                         2.0 * (r * r * c - r * a + r * b),
                         4.0 * r * a])

    def length(self) -> float:
        """Coulomb length l of the reference species, metres."""
        q = self.ref_charge * E_CHARGE
        m = self.ref_mass_amu * AMU
        return (COULOMB_K * q * q / (m * self.wz**2)) ** (1.0 / 3.0)

    def force_unit(self) -> float:
        q = self.ref_charge * E_CHARGE
        return COULOMB_K * q * q / self.length() ** 2

    def calibration(self, rf: float) -> dict[str, float]:
        """Closed-form trap curvatures (V/m^2) from the reference frequencies."""
        q = self.ref_charge * E_CHARGE
        m = self.ref_mass_amu * AMU
        return {
            "axial_curvature_v_m2": m * self.wz**2 / (4.0 * q),
            "radial_curvature_v_m2": m * (self.wy**2 - self.wx**2) / (4.0 * q),
            "rf_gradient_v_m2": (m * rf / q)
            * math.sqrt(self.wx**2 + self.wy**2 + self.wz**2) / 2.0,
            "rf_frequency_rad_s": rf,
        }


@dataclass(frozen=True)
class Ions:
    """Charges (units of e) and masses (amu) in chain order."""

    charges: tuple[int, ...]
    masses: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.charges)

    def arrays(self, trap: Trap):
        q = np.array(self.charges, dtype=float) * E_CHARGE
        m = np.array(self.masses, dtype=float) * AMU
        w2 = np.array([trap.species_w2(c, mm) for c, mm in zip(self.charges, self.masses)])
        return q, m, w2


def forces(trap: Trap, ions: Ions, pos: np.ndarray) -> np.ndarray:
    """Force on every ion (N, 3), newtons: trap restoring force plus Coulomb."""
    q, m, w2 = ions.arrays(trap)
    f = -(m[:, None] * w2) * pos
    for i in range(ions.n):
        for j in range(i + 1, ions.n):
            d = pos[i] - pos[j]
            r = math.sqrt(float(d @ d))
            fij = COULOMB_K * q[i] * q[j] * d / r**3
            f[i] += fij
            f[j] -= fij
    return f


def energy(trap: Trap, ions: Ions, pos: np.ndarray) -> float:
    q, m, w2 = ions.arrays(trap)
    e = 0.5 * float((m[:, None] * w2 * pos**2).sum())
    for i in range(ions.n):
        for j in range(i + 1, ions.n):
            e += COULOMB_K * q[i] * q[j] / float(np.linalg.norm(pos[i] - pos[j]))
    return e


def hessian(trap: Trap, ions: Ions, pos: np.ndarray) -> np.ndarray:
    """Second derivatives of the potential, (3N, 3N), ordered (x0, y0, z0, x1, ...)."""
    q, m, w2 = ions.arrays(trap)
    n = ions.n
    h = np.zeros((3 * n, 3 * n))
    for i in range(n):
        h[3 * i:3 * i + 3, 3 * i:3 * i + 3] += np.diag(m[i] * w2[i])
        for j in range(i + 1, n):
            d = pos[i] - pos[j]
            r = math.sqrt(float(d @ d))
            u = d / r
            # d^2/dr_i^2 of k q q / |r_i - r_j|
            blk = COULOMB_K * q[i] * q[j] / r**3 * (3.0 * np.outer(u, u) - np.eye(3))
            h[3 * i:3 * i + 3, 3 * i:3 * i + 3] += blk
            h[3 * j:3 * j + 3, 3 * j:3 * j + 3] += blk
            h[3 * i:3 * i + 3, 3 * j:3 * j + 3] -= blk
            h[3 * j:3 * j + 3, 3 * i:3 * i + 3] -= blk
    return h


def mode_eigenvalues(trap: Trap, ions: Ions, pos: np.ndarray) -> np.ndarray:
    """Eigenvalues of the mass-weighted Hessian, ascending, (rad/s)^2."""
    _, m, _ = ions.arrays(trap)
    s = 1.0 / np.sqrt(np.repeat(m, 3))
    d = hessian(trap, ions, pos) * s[:, None] * s[None, :]
    return np.linalg.eigvalsh(0.5 * (d + d.T))


def check_minimum(trap: Trap, ions: Ions, pos: np.ndarray, what: str) -> np.ndarray:
    """Require a force-free, stable configuration; return its mode frequencies."""
    f = np.abs(forces(trap, ions, pos)).max()
    require(f <= FORCE_REL * trap.force_unit(),
            f"{what}: residual force {f:.3e} N exceeds "
            f"{FORCE_REL:.0e} x {trap.force_unit():.3e} N")
    ev = mode_eigenvalues(trap, ions, pos)
    require(ev[0] >= -SOFT_REL * ev[-1],
            f"{what}: eigenvalue {ev[0]:.3e} is negative beyond the soft floor")
    return np.sqrt(np.clip(ev, 0.0, None))


def check_frequencies(got: np.ndarray, want: np.ndarray, what: str) -> None:
    got = np.sort(np.asarray(got, dtype=float))
    want = np.sort(np.asarray(want, dtype=float))
    require(got.shape == want.shape, f"{what}: {len(got)} modes, expected {len(want)}")
    err = np.abs(got - want).max()
    require(err <= FREQ_REL * want[-1],
            f"{what}: mode frequencies differ by {err:.3e} rad/s")


def check_kohn(trap: Trap, freqs: np.ndarray, what: str) -> None:
    """In a single-species crystal the centre-of-mass modes sit at the trap frequencies."""
    for name, w in (("x", trap.wx), ("y", trap.wy), ("z", trap.wz)):
        gap = np.abs(np.asarray(freqs) - w).min()
        require(gap <= KOHN_REL * w, f"{what}: no centre-of-mass mode at omega_{name}")


def axial_chain(trap: Trap, ions: Ions) -> np.ndarray:
    """z positions (metres) of the linear chain, by damped Newton in units of l.

    The one-dimensional energy with the ions kept in order is strictly
    convex, so Newton steps cut back until they keep the order and lower
    the energy (or, once energy differences drown in round-off, the
    gradient) converge from any ordered start.
    """
    q, m, w2 = ions.arrays(trap)
    n = ions.n
    if n == 1:
        return np.zeros(1)
    q_ref = trap.ref_charge * E_CHARGE
    m_ref = trap.ref_mass_amu * AMU
    kappa = m * w2[:, 2] / (m_ref * trap.wz**2)
    qq = np.outer(q, q) / q_ref**2
    np.fill_diagonal(qq, 0.0)

    def parts(u):
        d = u[:, None] - u[None, :]
        ad = np.abs(d) + np.eye(n)
        e = 0.5 * (kappa * u * u).sum() + 0.5 * (qq / ad).sum()
        g = kappa * u - (qq * np.sign(d) / ad**2).sum(axis=1)
        c = 2.0 * qq / ad**3
        h = np.diag(kappa + c.sum(axis=1)) - c
        return e, g, h

    u = np.linspace(-1.0, 1.0, n) * n ** (2.0 / 3.0)
    e, g, h = parts(u)
    for _ in range(200):
        gmax = np.abs(g).max()
        if gmax <= 1e-13 * max(1.0, float(np.abs(kappa * u).max())):
            return u * trap.length()
        step = np.linalg.solve(h, g)
        t = 1.0
        while True:
            trial = u - t * step
            if np.all(np.diff(trial) > 0.0):
                e_t, g_t, h_t = parts(trial)
                if e_t < e or np.abs(g_t).max() < gmax:
                    break
            t *= 0.5
            if t < 1e-12:
                raise OracleMismatch("reference axial solve stalled")
        u, e, g, h = trial, e_t, g_t, h_t
    raise OracleMismatch("reference axial solve did not converge")


def linear_positions(trap: Trap, ions: Ions) -> np.ndarray:
    pos = np.zeros((ions.n, 3))
    pos[:, 2] = axial_chain(trap, ions)
    return pos


def critical_alpha(trap: Trap, ions: Ions) -> float:
    """Exact linear-to-zigzag anisotropy alpha_x of an arrangement.

    At the linear chain the x-block of the Hessian is A + B / alpha with B
    diagonal and positive (the rf term, which alone depends on alpha), so
    the chain turns unstable at alpha* = 1 / lambda_max(-A, B).
    """
    base = trap.at_alpha(1.0)
    z = axial_chain(base, ions)
    q, m, _ = ions.arrays(base)
    r = np.array([base.ratio(c, mm) for c, mm in zip(ions.charges, ions.masses)])
    a = base.wz**2 / 4.0
    b = (base.wy**2 - base.wx**2) / 4.0
    # the x curvature of species i is r_i^2 wz^2 / alpha + 2 (r_i^2 - r_i)(a + b)
    A = np.diag(m * 2.0 * (r * r - r) * (a + b))
    for i in range(ions.n):
        for j in range(ions.n):
            if i != j:
                c = COULOMB_K * q[i] * q[j] / abs(z[i] - z[j]) ** 3
                A[i, i] -= c
                A[i, j] += c
    B = m * r * r * base.wz**2
    s = 1.0 / np.sqrt(B)
    lam = np.linalg.eigvalsh(-(A * s[:, None] * s[None, :]))[-1]
    require(lam > 0.0, "arrangement never leaves the linear phase")
    return float(1.0 / lam)


def drive_couplings(ions: Ions, vectors: np.ndarray, axis: int) -> np.ndarray:
    """Coupling sum_i q_i / sqrt(m_i) e_(i, axis) of a uniform field to every mode."""
    q = np.array(ions.charges, dtype=float) * E_CHARGE
    m = np.array(ions.masses, dtype=float) * AMU
    comp = vectors.reshape(ions.n, 3, -1)[:, axis, :]
    return (q / np.sqrt(m)) @ comp


def coupled_modes(trap: Trap, ions: Ions, pos: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Frequencies (rad/s) in [lo, hi] of modes an x drive couples to."""
    _, m, _ = ions.arrays(trap)
    s = 1.0 / np.sqrt(np.repeat(m, 3))
    d = hessian(trap, ions, pos) * s[:, None] * s[None, :]
    ev, vec = np.linalg.eigh(0.5 * (d + d.T))
    w = np.sqrt(np.clip(ev, 0.0, None))
    b = np.abs(drive_couplings(ions, vec, 0))
    keep = (b > COUPLING_REL * b.max()) & (w >= lo) & (w <= hi)
    return np.sort(w[keep])


def check_peaks(centres: np.ndarray, modes_w: np.ndarray, what: str) -> None:
    """Fitted centres must pair one to one with the coupled modes."""
    centres = np.sort(np.asarray(centres, dtype=float))
    require(len(centres) == len(modes_w),
            f"{what}: {len(centres)} resonances fitted, {len(modes_w)} modes couple")
    err_khz = np.abs(centres - modes_w).max() / (2e3 * math.pi) if len(centres) else 0.0
    require(err_khz <= PEAK_ABS_KHZ,
            f"{what}: resonance centre off by {err_khz:.4f} kHz")


def projection_matrix(viewing_angle_deg: float, rotation_deg: float) -> np.ndarray:
    """Lab metres to image micrometres for a camera looking along the x-z bisector."""
    th = math.radians(viewing_angle_deg)
    ph = math.radians(rotation_deg)
    # image u runs along z (stretched), v along x (stretched) and y (squeezed)
    u_axis = np.array([0.0, 0.0, 1.0 / math.cos(th)])
    v_axis = np.array([1.0 / math.cos(th), math.cos(th), 0.0])
    u_rot = math.cos(ph) * u_axis - math.sin(ph) * v_axis
    v_rot = math.sin(ph) * u_axis + math.cos(ph) * v_axis
    return np.vstack([u_rot, v_rot]) * 1e6


def check_spots(fitted_um: np.ndarray, pos: np.ndarray, bright: np.ndarray,
                matrix: np.ndarray, what: str) -> None:
    want = pos[bright] @ matrix.T
    want = want[np.argsort(want[:, 0])]
    got = np.asarray(fitted_um, dtype=float)
    require(got.shape == want.shape, f"{what}: {len(got)} spots, expected {len(want)}")
    err = np.abs(got - want).max()
    require(err <= SPOT_ABS_UM, f"{what}: spot centre off by {err:.4f} um")


def check_phase(alpha: float, kind: str, alpha_star: float, what: str) -> None:
    if abs(alpha / alpha_star - 1.0) <= PHASE_GUARD_REL:
        return
    want_linear = alpha < alpha_star
    require((kind == "linear") == want_linear,
            f"{what}: alpha {alpha:.6f} labelled {kind}, alpha* = {alpha_star:.6f}")


def analytic_self_check() -> None:
    """The reference model must reproduce the closed-form results it checks against."""
    trap = Trap.from_khz(480.0, 630.0, 119.0)
    pure = Ions((1, 1, 1), (40.0, 40.0, 40.0))
    central = Ions((1, 2, 1), (40.0, 40.0, 40.0))
    require(abs(critical_alpha(trap, pure) - 5.0 / 12.0) < 1e-9,
            "reference model: pure three-ion alpha* is not 5/12")
    require(abs(critical_alpha(trap, central) - 1.0) < 1e-9,
            "reference model: Ca+-Ca2+-Ca+ alpha* is not 1")
    stretch = np.ptp(axial_chain(trap, central)) / np.ptp(axial_chain(trap, pure))
    require(abs(stretch - (9.0 / 5.0) ** (1.0 / 3.0)) < 1e-12,
            "reference model: central-impurity stretch is not (9/5)^(1/3)")
    pos = linear_positions(trap, pure)
    check_kohn(trap, check_minimum(trap, pure, pos, "reference model"), "reference model")
