#!/usr/bin/env python3
"""Recompute the headline numbers and images in one go.

Writes a small set of tables (CSV) and rendered camera images (PGM with
JSON sidecars) into the output directory:

  lengths.csv        crystal length with and without the central impurity
  critical.csv       critical anisotropy per arrangement, both detectors
  spectrum.csv       six-ion transverse x spectrum and localization
  response_fits.csv  drive-sweep resonance fits vs exact mode frequencies
  central_mode8.pgm  three-ion crystal blurred by its highest x mode
  outer_noisy.pgm    outer-impurity crystal with Poisson noise
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

import ioncrystal as ic
from ioncrystal.cli import _write_csv
from ioncrystal.transitions import _linear_chain

KHZ = 2.0 * math.pi * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    ca, ca2 = ic.IonSpecies(1, 40.0), ic.IonSpecies(2, 40.0)
    freqs = ic.SpeciesFrequencies.from_khz(480.0, 630.0, 119.0)
    rf = 2.0 * math.pi * 10.66e6
    trap = ic.calibrate_from_frequencies(ca, freqs, rf)
    family = ic.AnisotropyFamily.from_calibration(ca, freqs, rf)

    # crystal stretch when the centre ion is doubly ionized
    pure = ic.find_equilibrium(trap, [ca, ca, ca])
    mixed = ic.find_equilibrium(trap, [ca, ca2, ca])
    lp, lm = ic.crystal_length(pure), ic.crystal_length(mixed)
    _write_csv(
        out / "lengths.csv",
        ["arrangement", "length_um", "ratio_to_pure"],
        [
            ["ca-ca-ca", f"{lp * 1e6:.4f}", "1"],
            ["ca-ca2-ca", f"{lm * 1e6:.4f}", f"{lm / lp:.6f}"],
        ],
    )
    print(f"  stretch: +{(lm - lp) * 1e6:.3f} um = +{100 * (lm / lp - 1):.2f}%")

    # critical anisotropy of the three arrangements and the two-ion pair
    rows = []
    for label, ions in (
        ("pure", [ca, ca, ca]),
        ("outer", [ca, ca, ca2]),
        ("central", [ca, ca2, ca]),
        ("two-ion", [ca, ca]),
    ):
        cp = ic.critical_anisotropy(family, ions, method="both")
        rows.append([label, f"{cp.alpha_x:.5f}", f"{cp.cross_check:.5f}"])
        print(f"  critical alpha [{label}]: {cp.alpha_x:.5f}")
    _write_csv(out / "critical.csv", ["arrangement", "soft_mode", "order_parameter"], rows)

    # six-ion transverse spectrum with the impurity third in the chain
    six = _linear_chain(family, [ca, ca, ca2, ca, ca, ca])
    modes = ic.normal_modes(trap, six)
    rows = []
    for m in ic.modes_by_axis(modes, "x"):
        desc = ic.mode_descriptor(modes, m)
        rows.append(
            [m, f"{desc.frequency / KHZ:.2f}", f"{ic.localization_ratio(desc, 2):.2f}"]
        )
    _write_csv(out / "spectrum.csv", ["mode", "freq_khz", "localization_ratio"], rows)
    gap = ic.min_same_side_gap(modes, axis="x", boundary_index=2) / KHZ
    print(f"  six-ion same-side gap: {gap:.2f} kHz")

    # emulated frequency measurement on both three-ion arrangements
    drive = ic.DriveSpec("x", 1e-7, 1.0 * KHZ, np.linspace(400 * KHZ, 1100 * KHZ, 3501))
    rows = []
    for label, ions in (("central", [ca, ca2, ca]), ("outer", [ca, ca, ca2])):
        m3 = ic.normal_modes(trap, _linear_chain(family, ions))
        for fit in ic.sweep_and_fit(m3, drive):
            err = min(abs(fit.center - w) for w in m3.frequencies)
            rows.append(
                [
                    label,
                    f"{fit.center / KHZ:.4f}",
                    f"{fit.center_stderr / KHZ:.5f}",
                    f"{err / (2 * math.pi):.3f}",
                ]
            )
    _write_csv(
        out / "response_fits.csv",
        ["arrangement", "center_khz", "stderr_khz", "error_hz"],
        rows,
    )

    # camera images: mode-blurred central crystal, noisy outer crystal
    model = ic.ProjectionModel()
    central = ic.find_equilibrium(trap, [ca, ca2, ca])
    mc = ic.normal_modes(trap, central)
    top = ic.modes_by_axis(mc, "x")[-1]
    desc = ic.mode_descriptor(mc, top)
    directions = np.array(
        [ic.project_direction(row, model) for row in desc.pattern]
    )
    image = ic.render(
        ic.project(central.positions, model),
        model,
        bright=ic.fluorescing(central),
        amplitudes_um=5.0 * desc.ion_amplitudes,
        directions=directions,
        flux=1e4,
    )
    ic.write_pgm(image, out / "central_mode8.pgm")
    print(f"wrote {out / 'central_mode8.pgm'}")

    outer = ic.find_equilibrium(trap, [ca, ca, ca2])
    noisy = ic.render(
        ic.project(outer.positions, model),
        model,
        bright=ic.fluorescing(outer),
        flux=1e4,
        background=2.0,
        rng=np.random.default_rng(args.seed),
    )
    ic.write_pgm(noisy, out / "outer_noisy.pgm")
    fitted, _ = ic.fit_positions(noisy, 2)
    uv = ic.project(outer.positions, model)[ic.fluorescing(outer)]
    err = np.abs(fitted - uv[np.argsort(uv[:, 0])]).max()
    (out / "outer_noisy.json").write_text(
        json.dumps({"seed": args.seed, "fit_error_um": err}, indent=1)
    )
    print(f"wrote {out / 'outer_noisy.pgm'} (fit error {err:.3f} um)")


if __name__ == "__main__":
    main()
