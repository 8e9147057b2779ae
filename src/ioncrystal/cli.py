"""Command line interface.

    ioncrystal <command> --scenario file.yaml [--seed N] [--out DIR]

Commands: calibrate, equilibrium, modes, scan, response, render. Each
command reads the trap and anisotropy family parse_scenario built,
returns its tables, and main writes each as <table>.csv. render also
writes the image crystal.pgm and its sidecar crystal.json.

Every step that can fail (solves, fits, render checks, writing the
image) finishes before a command returns, so a command that fails in one
of them writes no table. The tables that grow with the input (response, phase_map,
eigenvectors) are generators over arrays already computed, and
_write_csv streams each row to its file as it is formatted: a command
holds its result, not a text copy of it.

Exit codes: 0 success, 2 scenario or argument problem (a trap that
cannot be built, an image too large to render, and an --out directory
or output file that cannot be created or written among them), 3 solver
failure, 4 fit failure. Outputs are deterministic for a given scenario
and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .crystal import classify, crystal_length, find_equilibrium, potential_energy
from .errors import (
    BoundaryError,
    CalibrationError,
    FitError,
    ScenarioError,
    SolverError,
)
from .imaging import (
    ProjectionModel,
    fluorescing,
    project,
    render,
    write_pgm,
)
from .modes import (
    min_same_side_gap,
    mode_descriptor,
    localization_ratio,
    normal_modes,
)
from .response import DriveSpec, response_curve, sweep_and_fit
from .scenario import Scenario, parse_scenario
from .trap import anisotropy, frequencies_for_species
from .transitions import _reference_length, critical_anisotropy, scan_configurations

_TWO_PI_KHZ = 2e3 * np.pi


def _khz(omega: float) -> float:
    return float(omega) / _TWO_PI_KHZ


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    """Write the header, then each row of the iterable as it is formatted."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _solve(sc: Scenario):
    return find_equilibrium(sc.trap, sc.ions, seed=sc.seed)


_POSITION_HEADER = ("ion", "label", "charge", "mass_amu", "x_um", "y_um", "z_um")


def _positions_rows(sc: Scenario, config) -> list[tuple]:
    pos = config.positions * 1e6
    rows = []
    for i, label in enumerate(sc.ion_labels):
        s = sc.species[label]
        rows.append((i, label, s.charge_number, s.mass_amu, *pos[i]))
    return rows


# Each command returns (tables, message): its CSV tables as
# {name: (header, rows)}, rows any iterable of tuples, and the text main
# prints between "<command>: " and " -> <out>".


def _cmd_calibrate(sc: Scenario, out: Path):
    trap = sc.trap
    species_rows = []
    for label, s in sc.species.items():
        freqs = frequencies_for_species(trap, s)
        ax, ay = anisotropy(freqs)
        fx, fy, fz = freqs.to_khz()
        species_rows.append((label, s.charge_number, s.mass_amu, fx, fy, fz, ax, ay))
    trap_rows = [
        ("axial_curvature_v_m2", trap.axial_curvature),
        ("rf_gradient_v_m2", trap.rf_gradient),
        ("radial_curvature_v_m2", trap.radial_curvature),
        ("rf_frequency_rad_s", trap.rf_frequency),
    ]
    tables = {
        "trap": (("parameter", "value"), trap_rows),
        "species": (
            ("label", "charge", "mass_amu", "f_x_khz", "f_y_khz", "f_z_khz",
             "alpha_x", "alpha_y"),
            species_rows,
        ),
    }
    return tables, f"{len(sc.species)} species"


def _cmd_equilibrium(sc: Scenario, out: Path):
    primary = _solve(sc)
    sclass = classify(primary, length_scale=_reference_length(sc.family))
    summary = [
        ("energy_j", potential_energy(sc.trap, primary)),
        ("kind", sclass.kind),
        ("plane", sclass.plane),
        ("order_parameter_um", sclass.order_parameter * 1e6),
        ("length_um", crystal_length(primary) * 1e6),
        ("seed", sc.seed),
    ]
    tables = {
        "positions": (_POSITION_HEADER, _positions_rows(sc, primary)),
        "equilibrium_summary": (("key", "value"), summary),
    }
    message = (
        f"{primary.n} ions, {sclass.kind}, "
        f"length {crystal_length(primary) * 1e6:.3f} um"
    )
    return tables, message


def _cmd_modes(sc: Scenario, out: Path):
    config = _solve(sc)
    modes = normal_modes(sc.trap, config)
    boundary = sc.modes.boundary
    n = config.n
    mode_rows = []
    for m in range(3 * n):
        desc = mode_descriptor(modes, m)
        ratio = None if boundary is None else localization_ratio(desc, boundary)
        mode_rows.append(
            (m, _khz(desc.frequency), desc.dominant_axis, bool(desc.soft), ratio)
            + tuple(desc.ion_amplitudes)
        )
    vec_rows = (
        (m, i, name, modes.vectors[3 * i + ax, m])
        for m in range(3 * n)
        for i in range(n)
        for ax, name in enumerate("xyz")
    )
    gap = None
    try:
        gap = _khz(
            min_same_side_gap(modes, axis=sc.modes.axis, boundary_index=boundary)
        )
    except BoundaryError:
        pass
    summary = [("axis", sc.modes.axis), ("boundary", boundary),
               ("min_same_side_gap_khz", gap)]
    columns = ("mode", "freq_khz", "axis", "soft", "localization_ratio")
    tables = {
        "modes": (columns + tuple(f"amp_{i}" for i in range(n)), mode_rows),
        "eigenvectors": (("mode", "ion", "axis", "component"), vec_rows),
        "modes_summary": (("key", "value"), summary),
    }
    return tables, f"{3 * n} modes, min same-side gap {gap} kHz"


def _cmd_scan(sc: Scenario, out: Path):
    family = sc.family
    arrangements = sc.scan.arrangements or {"ions": sc.ions}
    alphas = np.linspace(sc.scan.alpha_min, sc.scan.alpha_max, sc.scan.points)
    pm = scan_configurations(family, arrangements, alphas, seed=sc.seed)
    map_header = ("alpha_x", "alpha_y", "arrangement", "kind", "plane",
                  "order_parameter_um", "error")
    map_rows = (
        (
            p.alpha_x,
            p.alpha_y,
            p.label,
            p.structure.kind if p.structure else None,
            p.structure.plane if p.structure else None,
            p.structure.order_parameter * 1e6 if p.structure else None,
            p.error,
        )
        for p in pm.points
    )
    tables = {"phase_map": (map_header, map_rows)}
    if sc.scan.critical:
        critical_rows = []
        for label, ions in arrangements.items():
            cp = critical_anisotropy(family, ions, method=sc.scan.method, seed=sc.seed)
            critical_rows.append(
                (label, cp.alpha_x, cp.alpha_y, cp.method, cp.cross_check)
            )
        tables["critical"] = (
            ("arrangement", "alpha_x", "alpha_y", "method", "cross_check"),
            critical_rows,
        )
    return tables, f"{len(arrangements)} arrangements x {len(alphas)} points"


def _cmd_response(sc: Scenario, out: Path):
    config = _solve(sc)
    modes = normal_modes(sc.trap, config)
    r = sc.response
    count = int(round((r.max_khz - r.min_khz) / r.step_khz)) + 1
    grid = (r.min_khz + r.step_khz * np.arange(count)) * _TWO_PI_KHZ
    drive = DriveSpec(
        axis=r.axis,
        field_amplitude=r.field_v_per_m,
        damping_rate=r.damping_khz * _TWO_PI_KHZ,
        frequencies=grid,
    )
    # the fits' sweep is gone before the table's sweep is made
    fits = sweep_and_fit(modes, drive)
    curve = response_curve(modes, drive)
    mode_khz = [_khz(w) for w in modes.frequencies]
    curve_rows = (
        (_khz(w),) + tuple(amps * 1e6)
        for w, amps in zip(curve.frequencies, curve.amplitudes)
    )
    peak_header = ("center_khz", "stderr_khz", "height_um", "width_khz",
                   "offset_um", "n_points", "nearest_mode_khz")
    peak_rows = [
        (
            _khz(f.center),
            _khz(f.center_stderr),
            f.height * 1e6,
            _khz(f.width),
            f.offset * 1e6,
            f.n_points,
            min(mode_khz, key=lambda mk: abs(mk - _khz(f.center))),
        )
        for f in fits
    ]
    tables = {
        "response": (
            ("freq_khz",) + tuple(f"amp_um_{i}" for i in range(config.n)),
            curve_rows,
        ),
        "peaks": (peak_header, peak_rows),
    }
    return tables, f"{len(fits)} resonances fitted"


def _cmd_render(sc: Scenario, out: Path):
    config = _solve(sc)
    pm = ProjectionModel()
    positions = project(config.positions, pm)
    bright = fluorescing(config)
    amps = dirs = None
    if sc.render.mode is not None:
        modes = normal_modes(sc.trap, config)
        if sc.render.mode >= len(modes.frequencies):
            raise ScenarioError(
                f"render.mode: index {sc.render.mode} out of range for "
                f"{len(modes.frequencies)} modes"
            )
        desc = mode_descriptor(modes, sc.render.mode)
        # each spot is smeared by its ion's projected motion, along it
        motion = project(desc.pattern, pm) * (sc.render.amplitude_um * 1e-6)
        amps = np.linalg.norm(motion, axis=1)
        dirs = np.tile([1.0, 0.0], (config.n, 1))
        moving = amps > 0.0
        dirs[moving] = motion[moving] / amps[moving, None]
    rng = np.random.default_rng(sc.seed) if sc.render.noise else None
    try:
        image = render(
            positions,
            pm,
            bright=bright,
            amplitudes_um=amps,
            directions=dirs,
            flux=sc.render.flux,
            background=sc.render.background,
            rng=rng,
        )
    except ValueError as exc:  # e.g. a crystal too wide to image
        raise ScenarioError(f"render: {exc}") from exc
    header = ("ion", "label", "bright", "u_um", "v_um")
    projection = [
        (i, label, bool(bright[i]), float(positions[i, 0]), float(positions[i, 1]))
        for i, label in enumerate(sc.ion_labels)
    ]
    write_pgm(image, out / "crystal.pgm")
    sidecar = {
        "scenario": sc.name,
        "seed": sc.seed,
        "um_per_px": image.um_per_px,
        "origin_um": [image.origin_um[0], image.origin_um[1]],
        "shape": list(image.intensity.shape),
        "mode": sc.render.mode,
        "amplitude_um": sc.render.amplitude_um,
        "noise": sc.render.noise,
        "ions": [dict(zip(header[1:], row[1:])) for row in projection],
    }
    (out / "crystal.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    tables = {"projection": (header, projection)}
    dark = int((~bright).sum())
    message = (
        f"{image.intensity.shape[1]}x{image.intensity.shape[0]} px, "
        f"{dark} dark ions"
    )
    return tables, message


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "equilibrium": _cmd_equilibrium,
    "modes": _cmd_modes,
    "scan": _cmd_scan,
    "response": _cmd_response,
    "render": _cmd_render,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioncrystal",
        description="Mixed-charge ion crystal structure, modes, and imaging",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("calibrate", "invert reference frequencies into trap parameters"),
        ("equilibrium", "relax the ions to a stable structure"),
        ("modes", "normal-mode spectrum of the relaxed structure"),
        ("scan", "structure scan over the trap anisotropy"),
        ("response", "driven response sweep with resonance fits"),
        ("render", "synthetic camera image of the relaxed structure"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        sc = parse_scenario(args.scenario)
        if args.seed is not None:
            if args.seed < 0:
                raise ScenarioError("--seed must be non-negative")
            sc = dataclasses.replace(sc, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tables, message = _COMMANDS[args.command](sc, out)
        for name, (header, rows) in tables.items():
            _write_csv(out / f"{name}.csv", header, rows)
        print(f"{args.command}: {message} -> {out}")
        return 0
    except (ScenarioError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # creating --out or writing into it
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
