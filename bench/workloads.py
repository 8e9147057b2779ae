"""The four workloads: their inputs, their operation and the check of each output.

Every workload builds a fixed list of cases from the seed (the round),
runs one operation per case, and checks each output against ``oracle``
outside the timed interval. A run repeats whole rounds.

The case lists are laid out so that the median and the tail percentile
land inside a group of similar cases, not on the step between two
groups (see README.md, "Case lists").
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import oracle

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"

RF = 2.0 * math.pi * 10.66e6
REF_KHZ = (480.0, 630.0, 119.0)   # Ca+ secular frequencies of the paper's trap
CA, CA2 = (1, 40.0), (2, 40.0)


def _arrangement(n: int, impurities) -> tuple[tuple[int, float], ...]:
    ions = [CA] * n
    for i in impurities:
        ions[i] = CA2
    return tuple(ions)


def _oracle_ions(arr) -> oracle.Ions:
    return oracle.Ions(tuple(c for c, _ in arr), tuple(m for _, m in arr))


class Workload:
    """Base: subclasses define build(), run() and check()."""

    name = ""

    def __init__(self, seed: int, smoke: bool):
        import ioncrystal

        self.ic = ioncrystal
        self.smoke = smoke
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.species = {c: ioncrystal.IonSpecies(*c) for c in (CA, CA2)}
        self.family = ioncrystal.AnisotropyFamily.from_calibration(
            self.species[CA], ioncrystal.SpeciesFrequencies.from_khz(*REF_KHZ), RF
        )
        self.ref = oracle.Trap.from_khz(*REF_KHZ)
        self._alpha_star: dict = {}
        self.cases = self.build()

    def ions(self, arr):
        return tuple(self.species[s] for s in arr)

    def alpha_star(self, arr) -> float:
        if arr not in self._alpha_star:
            self._alpha_star[arr] = oracle.critical_alpha(self.ref, _oracle_ions(arr))
        return self._alpha_star[arr]

    def warm(self) -> None:
        """Pay one-off first-call costs (linear algebra start-up) before timing."""
        trap = self.family.trap_at(0.3)
        cfg = self.ic.find_equilibrium(trap, self.ions(_arrangement(3, [1])), seed=0)
        self.ic.normal_modes(trap, cfg)

    def run_traced(self, case):
        return self.run(case)


# --------------------------------------------------------------------------- chain-solve


@dataclass(frozen=True)
class SolveCase:
    n: int
    arr: tuple
    alpha: float
    side: str          # 'linear' or 'buckled': which side of alpha* the case sits
    solver_seed: int
    trap: object


class ChainSolve(Workload):
    """Cold find_equilibrium + normal_modes on 12-96 ion chains."""

    name = "chain-solve"

    # (N, cases, side, alpha range); the ranges sit clear of every
    # arrangement's alpha* (0.030-0.038 at N=12, 0.0092-0.0109 at N=24).
    GROUPS = (
        (12, 4, "linear", (0.012, 0.020)),
        (12, 4, "buckled", (0.06, 0.20)),
        (24, 4, "linear", (0.004, 0.006)),
        (24, 4, "buckled", (0.03, 0.10)),
        (48, 16, "buckled", (0.01, 0.05)),
        (72, 12, "buckled", (0.01, 0.05)),
        (96, 4, "buckled", (0.02, 0.05)),
    )
    SMOKE_GROUPS = (
        (3, 1, "linear", (0.20, 0.30)),
        (3, 1, "buckled", (0.60, 0.90)),
        (6, 1, "linear", (0.05, 0.08)),
        (6, 1, "buckled", (0.20, 0.40)),
    )
    PATTERNS = ("pure", "one", "several", "one")

    def _impurities(self, n: int, pattern: str):
        if pattern == "pure":
            return []
        k = 1 if pattern == "one" else int(self.rng.integers(2, 4))
        return sorted(self.rng.choice(n, size=min(k, n - 1), replace=False).tolist())

    def build(self):
        cases = []
        for n, count, side, (lo, hi) in self.SMOKE_GROUPS if self.smoke else self.GROUPS:
            for k in range(count):
                arr = _arrangement(n, self._impurities(n, self.PATTERNS[k % 4]))
                alpha = float(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))
                cases.append(SolveCase(n, arr, alpha, side,
                                       int(self.rng.integers(2**31)),
                                       self.family.trap_at(alpha)))
        # shuffled, so that each group's samples spread over the whole run
        # and not over one stretch of it, when the host may run fast or slow
        order = self.rng.permutation(len(cases))
        return [cases[i] for i in order]

    def run(self, case):
        cfg = self.ic.find_equilibrium(case.trap, self.ions(case.arr), seed=case.solver_seed)
        return cfg, self.ic.normal_modes(case.trap, cfg)

    def check(self, case, out):
        cfg, modes = out
        what = f"chain-solve N={case.n} alpha={case.alpha:.5f}"
        trap = self.ref.at_alpha(case.alpha)
        ions = _oracle_ions(case.arr)
        pos = np.asarray(cfg.positions)
        freqs = oracle.check_minimum(trap, ions, pos, what)
        oracle.check_frequencies(modes.frequencies, freqs, what)
        if all(s == CA for s in case.arr):
            oracle.check_kohn(trap, modes.frequencies, what)
        linear = np.abs(pos[:, :2]).max() <= oracle.LINEAR_REL * trap.length()
        star = self.alpha_star(case.arr)
        oracle.require((case.alpha < star) == (case.side == "linear"),
                       f"{what}: case is not on its side of alpha* = {star:.5f}")
        oracle.require(linear == (case.alpha < star),
                       f"{what}: structure is {'linear' if linear else 'buckled'} "
                       f"but alpha* = {star:.5f}")


# --------------------------------------------------------------------------- transition-scan


@dataclass(frozen=True)
class SearchCase:
    arr: tuple


@dataclass(frozen=True)
class ScanCase:
    arrangements: dict
    alphas: tuple


class TransitionScan(Workload):
    """critical_anisotropy(method='both') searches and dense scan_configurations grids."""

    name = "transition-scan"

    # 28 light searches on 2-12 ions hold the median; the 16-24 ion
    # searches and the scans form the heavy group that holds the tail.
    SEARCHES = (
        _arrangement(2, []), _arrangement(2, [0]),
        # the paper's three-ion set: pure, outer and central Ca2+
        _arrangement(3, []), _arrangement(3, [0]), _arrangement(3, [1]),
        _arrangement(4, []), _arrangement(4, [1]), _arrangement(4, [0]),
        _arrangement(5, []), _arrangement(5, [2]), _arrangement(5, [0]),
        # the paper's six-ion chain with one impurity
        _arrangement(6, [2]), _arrangement(6, []), _arrangement(6, [0]),
        _arrangement(6, [3]),
        _arrangement(8, [0]), _arrangement(8, [4]), _arrangement(8, [2, 5]),
        _arrangement(10, []), _arrangement(10, [5]), _arrangement(10, [0]),
        _arrangement(10, [3, 6]),
        _arrangement(12, []), _arrangement(12, [6]), _arrangement(12, [4, 8]),
        _arrangement(12, [0]), _arrangement(12, [3]), _arrangement(12, [2, 9]),
        _arrangement(16, []), _arrangement(16, [8]), _arrangement(16, [0]),
        _arrangement(20, [0]), _arrangement(20, [10]), _arrangement(20, [6, 13]),
        _arrangement(24, []), _arrangement(24, [12]),
    )
    # (arrangements, alpha_min, alpha_max)
    SCANS = (
        ({"pure": _arrangement(3, []), "outer": _arrangement(3, [0]),
          "central": _arrangement(3, [1])}, 0.30, 0.50),
        ({"impurity": _arrangement(6, [2]), "pure": _arrangement(6, [])}, 0.06, 0.25),
        ({"central": _arrangement(6, [3]), "outer": _arrangement(6, [0])}, 0.06, 0.25),
        ({"pure": _arrangement(8, []), "central": _arrangement(8, [4])}, 0.03, 0.12),
        ({"pure": _arrangement(12, [])}, 0.017, 0.07),
        ({"two": _arrangement(12, [4, 8])}, 0.017, 0.07),
        ({"pure": _arrangement(16, [])}, 0.009, 0.04),
        ({"outer": _arrangement(16, [0])}, 0.009, 0.04),
        ({"pure": _arrangement(20, [])}, 0.007, 0.028),
        ({"pure": _arrangement(24, [])}, 0.005, 0.02),
    )
    SCAN_POINTS = 41
    # The seed shifts each grid by k/8 of its spacing. Solves keep the
    # default solver seed: near alpha* some solver seeds stall (see
    # CHANGES.md), and every shift here was run without a failure.
    GRID_SHIFTS = 8
    SMOKE_SEARCHES = SEARCHES[2:5] + SEARCHES[11:12]
    SMOKE_SCANS = SCANS[:1]

    # closed-form critical points the program must reproduce
    ANALYTIC = {
        _arrangement(2, []): 1.0,          # rocking mode soft at omega_x = omega_z
        _arrangement(3, []): 5.0 / 12.0,
        _arrangement(3, [1]): 1.0,         # tilt mode, whatever the centre charge
    }

    def build(self):
        searches = self.SMOKE_SEARCHES if self.smoke else self.SEARCHES
        scans = self.SMOKE_SCANS if self.smoke else self.SCANS
        cases = [SearchCase(arr) for arr in searches]
        for arrs, lo, hi in scans:
            shift = int(self.rng.integers(self.GRID_SHIFTS))
            cases.append(self.scan_case(arrs, lo, hi, shift))
        order = self.rng.permutation(len(cases))
        return [cases[i] for i in order]

    def scan_case(self, arrs, lo, hi, shift):
        step = (hi - lo) / (self.SCAN_POINTS - 1)
        alphas = lo + step * (np.arange(self.SCAN_POINTS) + shift / self.GRID_SHIFTS)
        return ScanCase(arrs, tuple(float(a) for a in alphas))

    def run(self, case):
        if isinstance(case, SearchCase):
            return self.ic.critical_anisotropy(self.family, self.ions(case.arr), method="both")
        return self.ic.scan_configurations(
            self.family,
            {label: self.ions(arr) for label, arr in case.arrangements.items()},
            case.alphas,
        )

    def exact_alpha(self, arr) -> float:
        return self.ANALYTIC.get(arr) or self.alpha_star(arr)

    def check(self, case, out):
        if isinstance(case, SearchCase):
            what = f"critical_anisotropy {[c for c, _ in case.arr]}"
            star = self.exact_alpha(case.arr)
            oracle.require(abs(out.alpha_x - star) <= oracle.CRITICAL_ABS,
                           f"{what}: alpha_x {out.alpha_x:.6f}, exact {star:.6f}")
            oracle.require(out.cross_check is not None
                           and abs(out.cross_check - star) <= oracle.CROSS_CHECK_ABS,
                           f"{what}: order-parameter alpha {out.cross_check}, "
                           f"exact {star:.6f}")
            alpha_y = self.ref.at_alpha(out.alpha_x).alpha_y
            oracle.require(abs(out.alpha_y / alpha_y - 1.0) <= 1e-9,
                           f"{what}: alpha_y {out.alpha_y:.9f}, expected {alpha_y:.9f}")
            return
        points = out.points
        oracle.require(len(points) == len(case.arrangements) * len(case.alphas),
                       f"scan: {len(points)} points returned")
        for p in points:
            what = f"scan '{p.label}' N={len(case.arrangements[p.label])}"
            oracle.require(p.error is None and p.structure is not None,
                           f"{what}: alpha {p.alpha_x:.6f} failed: {p.error}")
            oracle.check_phase(p.alpha_x, p.structure.kind,
                               self.exact_alpha(case.arrangements[p.label]), what)


# --------------------------------------------------------------------------- measure-pipeline


@dataclass(frozen=True)
class MeasureCase:
    template: tuple          # (N, impurities, alpha)
    arr: tuple
    trap: object
    config: object
    drive: object
    min_separation_px: int   # half the smallest spacing of two bright spots
    noise_seed: int


class MeasurePipeline(Workload):
    """normal_modes -> sweep_and_fit -> noisy render -> fit_positions on 3-12 ions."""

    name = "measure-pipeline"

    # (N, impurity indices, alpha): linear chains at about half their alpha*,
    # where every mode a uniform x drive couples to stands out of the sweep.
    TEMPLATES = (
        (3, (), 0.208), (3, (1,), 0.50), (3, (0,), 0.186),
        (6, (), 0.058), (6, (3,), 0.067), (6, (0,), 0.048), (6, (2, 4), 0.078),
        (8, (), 0.035), (8, (4,), 0.039), (8, (2, 5), 0.034),
        (12, (), 0.0172), (12, (6,), 0.0188), (12, (4, 8), 0.0166),
    )
    NOISE_SEEDS = 4
    SMEAR_UM = 0.3
    STEP_KHZ = 0.2
    MARGIN_KHZ = 10.0

    def build(self):
        ic = self.ic
        self.projection = ic.ProjectionModel()
        self.matrix = oracle.projection_matrix(self.projection.viewing_angle_deg,
                                               self.projection.rotation_deg)
        templates = [t for t in self.TEMPLATES if t[0] <= 6] if self.smoke else self.TEMPLATES
        kept = {}
        cases = []
        for _ in range(1 if self.smoke else self.NOISE_SEEDS):
            for n, imp, alpha in templates:
                arr = _arrangement(n, imp)
                if (n, imp) not in kept:
                    trap = self.family.trap_at(alpha)
                    cfg = ic.find_equilibrium(trap, self.ions(arr),
                                              seed=int(self.rng.integers(2**31)))
                    u = np.sort(ic.project(cfg.positions, self.projection)[
                        ic.fluorescing(cfg), 0])
                    sep = int(np.diff(u).min() / (2.0 * self.projection.um_per_px))
                    kept[(n, imp)] = (trap, cfg, self._drive(arr, alpha, cfg), sep)
                cases.append(MeasureCase((n, imp, alpha), arr, *kept[(n, imp)],
                                         int(self.rng.integers(2**31))))
        order = self.rng.permutation(len(cases))
        return [cases[i] for i in order]

    def _drive(self, arr, alpha, cfg):
        """Sweep grid over the band of x modes, with a margin on both sides."""
        trap = self.ref.at_alpha(alpha)
        ions = _oracle_ions(arr)
        h = oracle.hessian(trap, ions, np.asarray(cfg.positions))
        _, m, _ = ions.arrays(trap)
        s = 1.0 / np.sqrt(np.repeat(m, 3))
        ev, vec = np.linalg.eigh(h * s[:, None] * s[None, :])
        x_share = (vec.reshape(ions.n, 3, -1)[:, 0, :] ** 2).sum(axis=0)
        w_x = np.sqrt(np.clip(ev[x_share > 0.9], 0.0, None)) / (2e3 * math.pi)
        k = 2e3 * math.pi
        lo = math.floor(w_x.min() - self.MARGIN_KHZ)
        count = int(round((w_x.max() + self.MARGIN_KHZ - lo) / self.STEP_KHZ)) + 1
        grid = (lo + self.STEP_KHZ * np.arange(count)) * k
        return self.ic.DriveSpec("x", 1e-3, 1.0 * k, grid)

    def _render(self, case, modes):
        ic = self.ic
        pm = self.projection
        desc = ic.mode_descriptor(modes, len(modes.frequencies) - 1)
        dirs = np.tile([1.0, 0.0], (case.config.n, 1))
        for i in range(case.config.n):
            v = pm.matrix @ desc.pattern[i]
            norm = np.linalg.norm(v)
            if norm > 0.0:
                dirs[i] = v / norm
        return ic.render(
            ic.project(case.config.positions, pm),
            pm,
            bright=ic.fluorescing(case.config),
            amplitudes_um=desc.ion_amplitudes * self.SMEAR_UM,
            directions=dirs,
            flux=1e4,
            background=2.0,
            rng=np.random.default_rng(case.noise_seed),
        )

    def run(self, case):
        ic = self.ic
        modes = ic.normal_modes(case.trap, case.config)
        fits = ic.sweep_and_fit(modes, case.drive)
        image = self._render(case, modes)
        bright = int(ic.fluorescing(case.config).sum())
        spots, _ = ic.fit_positions(image, bright, min_separation_px=case.min_separation_px)
        return modes, fits, image, spots

    def check(self, case, out):
        modes, fits, image, spots = out
        n, imp, alpha = case.template
        what = f"measure-pipeline N={n} impurities={list(imp)}"
        trap = self.ref.at_alpha(alpha)
        ions = _oracle_ions(case.arr)
        pos = np.asarray(case.config.positions)
        freqs = oracle.check_minimum(trap, ions, pos, what)
        oracle.check_frequencies(modes.frequencies, freqs, what)
        if not imp:
            oracle.check_kohn(trap, modes.frequencies, what)
        if case.arr == _arrangement(3, [1]):
            half = (9.0 / 4.0) ** (1.0 / 3.0) * trap.length()
            length = float(np.ptp(pos[:, 2]))
            oracle.require(abs(length / (2.0 * half) - 1.0) <= oracle.POSITION_REL,
                           f"{what}: length is not (9/5)^(1/3) times the pure chain's")
        grid = case.drive.frequencies
        oracle.check_peaks([f.center for f in fits],
                           oracle.coupled_modes(trap, ions, pos, grid[0], grid[-1]), what)
        bright = np.array([c == 1 for c, _ in case.arr])
        oracle.check_spots(spots, pos, bright, self.matrix, what)
        again = self._render(case, modes)
        oracle.require(again.intensity.tobytes() == image.intensity.tobytes(),
                       f"{what}: render is not byte-identical for a fixed seed")


# --------------------------------------------------------------------------- cli-cold


@dataclass(frozen=True)
class CliCase:
    command: str
    scenario: Path


class CliCold(Workload):
    """Every CLI command on every scenario it applies to, each in a fresh process."""

    name = "cli-cold"
    COMMANDS = ("calibrate", "equilibrium", "modes", "scan", "response", "render")
    # a command applies to a scenario that has the section it reads
    SECTION = {"modes": "modes", "scan": "scan", "response": "response",
               "render": "render"}

    def build(self):
        self.docs = {}
        cases = []
        for path in sorted((ROOT / "scenarios").glob("*.yaml")):
            self.docs[path] = yaml.safe_load(path.read_text())
        for cmd in self.COMMANDS:
            applicable = [p for p, doc in self.docs.items()
                          if self.SECTION.get(cmd, "trap") in doc]
            cases += [CliCase(cmd, p) for p in (applicable[:1] if self.smoke else applicable)]
        self.cli_seed = int(self.rng.integers(2**31))
        self._oracles = {}
        self._pgm = {}
        self.work = WORK / f"cli-{os.getpid()}"
        self.peak_rss_kb = 0
        self._n = 0
        order = self.rng.permutation(len(cases))
        return [cases[i] for i in order]

    def _argv(self, case):
        self._n += 1
        out = self.work / f"{self._n:05d}-{case.command}-{case.scenario.stem}"
        return out, [case.command, "--scenario", str(case.scenario),
                     "--seed", str(self.cli_seed), "--out", str(out)]

    def run(self, case):
        out, argv = self._argv(case)
        out.mkdir(parents=True)
        with open(out / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ioncrystal.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"{case.command} {case.scenario.name} exited "
                               f"{proc.returncode}: {(out / 'stderr.txt').read_text()}")
        return out

    def run_traced(self, case):
        import ioncrystal.cli

        out, argv = self._argv(case)
        with contextlib.redirect_stdout(io.StringIO()):
            code = ioncrystal.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{case.command} {case.scenario.name} returned {code}")
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    # ---- checks

    def _scenario(self, path):
        if path not in self._oracles:
            doc = self.docs[path]
            t = doc["trap"]
            ref = t["reference"]
            trap = oracle.Trap.from_khz(*t["frequencies_khz"], ref_charge=ref["charge"],
                                        ref_mass_amu=ref["mass_amu"])
            sp = {k: (v["charge"], float(v["mass_amu"])) for k, v in doc["species"].items()}
            arr = tuple(sp[label] for label in doc["ions"])
            self._oracles[path] = (doc, trap, 2e6 * math.pi * t["rf_mhz"], sp, arr,
                                   linear_positions_or_none(trap, arr))
        return self._oracles[path]

    def check(self, case, out):
        doc, trap, rf, species, arr, linear = self._scenario(case.scenario)
        what = f"cli {case.command} {case.scenario.stem}"
        getattr(self, f"_check_{case.command}")(out, doc, trap, rf, species, arr,
                                                linear, what)
        shutil.rmtree(out, ignore_errors=True)

    def _check_calibrate(self, out, doc, trap, rf, species, arr, linear, what):
        got = {k: float(v) for k, v in _csv(out / "trap.csv")}
        for key, want in trap.calibration(rf).items():
            oracle.require(abs(got[key] / want - 1.0) <= 1e-12, f"{what}: {key}")
        rows = _csv(out / "species.csv")
        oracle.require(len(rows) == len(species), f"{what}: species count")
        for label, charge, mass, fx, fy, fz, ax, ay in rows:
            w = np.sqrt(trap.species_w2(*species[label])) / (2e3 * math.pi)
            got_f = np.array([float(fx), float(fy), float(fz)])
            oracle.require(np.abs(got_f / w - 1.0).max() <= 1e-9,
                           f"{what}: frequencies of {label}")
            want_a = (w[2] / w[0]) ** 2, (w[2] / w[1]) ** 2
            oracle.require(abs(float(ax) / want_a[0] - 1.0) <= 1e-9
                           and abs(float(ay) / want_a[1] - 1.0) <= 1e-9,
                           f"{what}: anisotropies of {label}")

    def _check_equilibrium(self, out, doc, trap, rf, species, arr, linear, what):
        ions = _oracle_ions(arr)
        pos = np.array([[float(v) for v in row[4:7]]
                        for row in _csv(out / "positions.csv")]) * 1e-6
        oracle.check_minimum(trap, ions, pos, what)
        summary = dict(_csv(out / "equilibrium_summary.csv"))
        oracle.require(abs(float(summary["energy_j"]) / oracle.energy(trap, ions, pos) - 1.0)
                       <= 1e-9, f"{what}: energy")
        if linear is not None:
            err = np.abs(pos - linear).max()
            oracle.require(err <= oracle.POSITION_REL * trap.length(),
                           f"{what}: positions off the reference chain by {err:.3e} m")
            oracle.require(summary["kind"] == "linear", f"{what}: kind {summary['kind']}")
        if arr == _arrangement(3, [1]):
            want = 2.0 * (9.0 / 4.0) ** (1.0 / 3.0) * trap.length() * 1e6
            oracle.require(abs(float(summary["length_um"]) / want - 1.0) <= 1e-9,
                           f"{what}: length is not (9/5)^(1/3) times the pure chain's")

    def _check_modes(self, out, doc, trap, rf, species, arr, linear, what):
        oracle.require(linear is not None, f"{what}: scenario is not a linear chain")
        ions = _oracle_ions(arr)
        freqs = oracle.check_minimum(trap, ions, linear, what)
        got = np.array([float(r[1]) for r in _csv(out / "modes.csv")]) * 2e3 * math.pi
        oracle.check_frequencies(got, freqs, what)
        if len(set(arr)) == 1:
            oracle.check_kohn(trap, got, what)

    def _check_scan(self, out, doc, trap, rf, species, arr, linear, what):
        scan = doc.get("scan") or {}
        arrangements = {k: tuple(species[s] for s in v)
                        for k, v in (scan.get("arrangements") or {}).items()} or {"ions": arr}
        alphas = np.linspace(scan.get("alpha_min", 0.05), scan.get("alpha_max", 0.95),
                             scan.get("points", 16))
        stars = {k: oracle.critical_alpha(trap, _oracle_ions(v))
                 for k, v in arrangements.items()}
        rows = _csv(out / "phase_map.csv")
        oracle.require(len(rows) == len(alphas) * len(arrangements), f"{what}: point count")
        for ax, _, label, kind, _, _, error in rows:
            oracle.require(error == "", f"{what}: {label} at {ax} failed: {error}")
            oracle.check_phase(float(ax), kind, stars[label], f"{what} {label}")
        if scan.get("critical", True):
            rows = _csv(out / "critical.csv")
            oracle.require(len(rows) == len(arrangements), f"{what}: critical count")
            for label, ax, _, method, cross in rows:
                oracle.require(abs(float(ax) - stars[label]) <= oracle.CRITICAL_ABS,
                               f"{what}: {label} alpha_x {ax}, exact {stars[label]:.6f}")
                if method == "both":
                    oracle.require(abs(float(cross) - stars[label]) <= oracle.CROSS_CHECK_ABS,
                                   f"{what}: {label} cross-check {cross}")

    def _check_response(self, out, doc, trap, rf, species, arr, linear, what):
        oracle.require(linear is not None, f"{what}: scenario is not a linear chain")
        r = doc.get("response") or {}
        oracle.require(r.get("axis", "x") == "x", f"{what}: only x drives are checked")
        k = 2e3 * math.pi
        want = oracle.coupled_modes(trap, _oracle_ions(arr), linear,
                                    r.get("min_khz", 100.0) * k, r.get("max_khz", 1200.0) * k)
        got = np.array([float(row[0]) for row in _csv(out / "peaks.csv")]) * k
        oracle.check_peaks(got, want, what)

    def _check_render(self, out, doc, trap, rf, species, arr, linear, what):
        import json

        oracle.require(linear is not None, f"{what}: scenario is not a linear chain")
        side = json.loads((out / "crystal.json").read_text())
        matrix = oracle.projection_matrix(45.0, 3.0)
        want = linear @ matrix.T
        for i, ion in enumerate(side["ions"]):
            err = max(abs(ion["u_um"] - want[i, 0]), abs(ion["v_um"] - want[i, 1]))
            oracle.require(err <= 1e-6, f"{what}: ion {i} projected {err:.3e} um off")
            oracle.require(ion["bright"] == (arr[i][0] == 1), f"{what}: ion {i} brightness")
        blob = (out / "crystal.pgm").read_bytes()
        magic, w, h, maxval = blob.split(maxsplit=4)[:4]
        oracle.require(magic == b"P5" and [int(h), int(w)] == side["shape"],
                       f"{what}: image header does not match the sidecar shape")
        key = (out.name.split("-", 1)[1], self.cli_seed)
        digest = hashlib.sha256(blob).hexdigest()
        oracle.require(self._pgm.setdefault(key, digest) == digest,
                       f"{what}: image differs between runs with the same seed")


def linear_positions_or_none(trap, arr):
    """Reference linear chain, or None where the scenario's trap buckles it."""
    ions = _oracle_ions(arr)
    if ions.n > 1 and trap.alpha_x >= oracle.critical_alpha(trap, ions):
        return None
    return oracle.linear_positions(trap, ions)


def _csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


WORKLOADS = {w.name: w for w in (CliCold, ChainSolve, TransitionScan, MeasurePipeline)}
