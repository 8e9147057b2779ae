#!/usr/bin/env python3
"""Run every CLI command on every checked-in scenario.

    PYTHONPATH=src python scripts/cli_golden.py --out DIR
    python scripts/cli_golden.py --compare PARENT_DIR CHANGE_DIR

There is one run per command and scenario, written into
DIR/<scenario>/<command>/. Its exit code and its stdout and stderr,
with the output directory replaced by "<out>", go to DIR/runs.txt, one
block per run. DIR/minima.csv
fingerprints the minimum selection on more arrangements than the
scenarios reach: every case of tests/data/minima_grid.json solved at
seed 0, with one row each for the primary and its mirror (the x
reflection of the primary), holding its energy, classify kind (or the
error's name) and the SHA-1 of the position bytes. DIR/spots.csv
fingerprints the spot fitter, which no CLI command calls: every
scenario's crystal, solved as the CLI solves it, is rendered unsmeared
at the scenario's flux over a background of SPOT_BACKGROUND with noise
seeds SPOT_SEEDS, and fit_positions fits its bright ions. There is one
row per spot with the repr of its fitted u, v and residual, or one row
per image naming the fit's error.
A change that does not touch the numerics must leave every file of two
such trees byte-identical.
--compare reports, for every CSV that differs, the largest relative and
absolute change of each numeric column, and for every other file
whether its bytes match. It exits 0 when the two trees are
byte-identical and 1 otherwise.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GRID = ROOT / "tests" / "data" / "minima_grid.json"
MINIMA_COLUMNS = ("charges", "alpha", "branch", "energy_j", "kind", "positions_sha1")
SPOTS_COLUMNS = ("scenario", "seed", "spot", "u_um", "v_um", "residual")
SPOT_SEEDS = range(4)
SPOT_BACKGROUND = 2.0


def run_all(out: Path) -> list[str]:
    """Run every command x scenario under out; return the run log."""
    from ioncrystal.cli import _COMMANDS, main

    log = []
    for scenario in sorted(SCENARIOS.glob("*.yaml")):
        for command in _COMMANDS:
            target = out / scenario.stem / command
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, "--scenario", str(scenario), "--out", str(target)])
            text = (stdout.getvalue() + stderr.getvalue()).replace(str(target), "<out>")
            log.append(f"{scenario.stem} {command}: exit {code}\n{text}")
    return log


def _mirror(config):
    """The x reflection of a configuration: the potential is even in x, so
    this is the degenerate mirror of a minimum. Written 0.0 - x so that an
    ion at x = 0.0 stays at +0.0."""
    pos = config.positions.copy()
    pos[:, 0] = 0.0 - pos[:, 0]
    return config.with_positions(pos)


def minima_rows() -> list[tuple]:
    """Two minima.csv rows per grid case, or one on an error (see the module doc)."""
    import ioncrystal as ic

    ca = ic.IonSpecies(1, 40.0)
    family = ic.AnisotropyFamily.from_calibration(
        ca, ic.SpeciesFrequencies.from_khz(480.0, 630.0, 119.0), 2.0 * math.pi * 10.66e6
    )
    species = {1: ca, 2: ic.IonSpecies(2, 40.0)}
    rows = []
    for case in json.loads(GRID.read_text())["cases"]:
        trap = family.trap_at(case["alpha"])
        ions = [species[q] for q in case["charges"]]
        key = (" ".join(map(str, case["charges"])), repr(case["alpha"]))
        try:
            found = ic.find_equilibrium(trap, ions, seed=0)
        except ic.IonCrystalError as exc:
            rows.append(key + ("", "", type(exc).__name__, ""))
            continue
        for branch, config in (("primary", found), ("mirror", _mirror(found))):
            rows.append(key + (
                branch, repr(ic.potential_energy(trap, config)),
                ic.classify(config).kind,
                hashlib.sha1(config.positions.tobytes()).hexdigest(),
            ))
    return rows


def spots_rows() -> list[tuple]:
    """The spots.csv rows (see the module doc)."""
    import numpy as np

    import ioncrystal as ic

    model = ic.ProjectionModel()
    rows = []
    for scenario in sorted(SCENARIOS.glob("*.yaml")):
        sc = ic.parse_scenario(scenario)
        config = ic.find_equilibrium(sc.trap, sc.ions, seed=sc.seed)
        bright = ic.fluorescing(config)
        positions = ic.project(config.positions, model)
        for seed in SPOT_SEEDS:
            image = ic.render(positions, model, bright=bright, flux=sc.render.flux,
                              background=SPOT_BACKGROUND,
                              rng=np.random.default_rng(seed))
            try:
                centres, residuals = ic.fit_positions(image, int(bright.sum()))
            except ic.IonCrystalError as exc:
                rows.append((scenario.stem, seed, type(exc).__name__, "", "", ""))
                continue
            for spot, ((u, v), res) in enumerate(zip(centres, residuals)):
                rows.append((scenario.stem, seed, spot,
                             repr(float(u)), repr(float(v)), repr(float(res))))
    return rows


def write_csv(path: Path, columns: tuple, rows: list[tuple]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(old: Path, new: Path) -> list[str]:
    """Per-column differences of two CSV files; [] when nothing differs."""
    with old.open(newline="") as fh:
        a = list(csv.reader(fh))
    with new.open(newline="") as fh:
        b = list(csv.reader(fh))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return ["header or row count differs"]
    lines = []
    for j, name in enumerate(a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(a[1:], b[1:]) if ra[j] != rb[j]]
        if not pairs:
            continue
        nums = [(_float(x), _float(y)) for x, y in pairs]
        if any(x is None or y is None for x, y in nums):
            lines.append(f"{name}: {len(pairs)} text values differ")
            continue
        rel = absolute = 0.0
        for x, y in nums:
            d = abs(x - y)
            if not math.isfinite(d):  # a non-finite value on one side
                rel = absolute = math.inf
            elif d:  # 0.0 against -0.0 is no change
                absolute = max(absolute, d)
                rel = max(rel, d / max(abs(x), abs(y)))
        lines.append(f"{name}: {len(pairs)} values, largest relative change "
                     f"{rel:.2g}, absolute {absolute:.2g}")
    return lines


def compare_trees(old: Path, new: Path) -> tuple[list[str], bool]:
    """Report every file of two golden trees; True when all bytes match."""
    names = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    report = []
    same = True
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            report.append(f"{name}: only in {old if a.is_file() else new}")
            same = False
        elif a.read_bytes() == b.read_bytes():
            report.append(f"{name}: identical")
        else:
            same = False
            report.append(f"{name}: differs")
            if name.suffix == ".csv":
                report.extend(f"  {line}" for line in compare_csv(a, b))
    return report, same


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="output directory")
    group.add_argument("--compare", type=Path, nargs=2,
                       metavar=("PARENT_DIR", "CHANGE_DIR"),
                       help="compare two output directories")
    args = parser.parse_args(argv)
    if args.compare:
        report, same = compare_trees(*args.compare)
        print("\n".join(report))
        return 0 if same else 1
    args.out.mkdir(parents=True, exist_ok=True)
    log = run_all(args.out)
    (args.out / "runs.txt").write_text("".join(log))
    write_csv(args.out / "minima.csv", MINIMA_COLUMNS, minima_rows())
    write_csv(args.out / "spots.csv", SPOTS_COLUMNS, spots_rows())
    print(f"{len(log)} runs -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_cli())
