import csv
import dataclasses
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import ioncrystal as ic
from ioncrystal import cli
from ioncrystal.cli import _COMMANDS, main
from ioncrystal.scenario import _SECTIONS, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _csv_rows(path):
    """The rows of a CSV file the CLI wrote, as dicts, with the file closed."""
    return list(csv.DictReader(path.read_text().splitlines()))


def _positions(path):
    rows = _csv_rows(path)
    return np.array([[float(r[k]) for k in ("x_um", "y_um", "z_um")] for r in rows])


MINIMAL = """\
trap:
  reference: {charge: 1, mass_amu: 40.0}
  frequencies_khz: [480.0, 630.0, 119.0]
  rf_mhz: 10.66
species:
  ca: {charge: 1, mass_amu: 40.0}
  ca2: {charge: 2, mass_amu: 40.0}
ions: [ca, ca2, ca]
seed: 1
modes:
  axis: x
response:
  axis: x
  field_v_per_m: 1.0e-3
  damping_khz: 1.0
  min_khz: 400.0
  max_khz: 1100.0
  step_khz: 0.2
render:
  noise: true
  flux: 10000.0
  background: 2.0
"""


@pytest.fixture()
def scenario_file(tmp_path):
    def write(text=MINIMAL, name="case.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return path

    return write


def test_parse_minimal_scenario(scenario_file):
    sc = parse_scenario(scenario_file())
    assert sc.name == "case"
    assert [s.charge_number for s in sc.ions] == [1, 2, 1]
    ca = ic.IonSpecies(1, 40.0)
    freqs = ic.frequencies_for_species(sc.trap, ca).to_khz()
    assert freqs == pytest.approx((480.0, 630.0, 119.0), rel=1e-12)
    assert sc.trap.rf_frequency == pytest.approx(2.0 * math.pi * 10.66e6)
    # the family passes through the calibrated trap at the scenario's alpha
    alpha = (119.0 / 480.0) ** 2
    assert sc.family.frequencies_at(alpha).to_khz() == pytest.approx(freqs, rel=1e-12)
    assert sc.seed == 1
    assert sc.render.noise and sc.render.background == 2.0
    # unspecified sections come back with defaults
    assert sc.modes.boundary is None
    assert sc.scan.method == "both"


def test_checked_in_scenarios_parse():
    files = sorted(SCENARIOS.glob("*.yaml"))
    assert len(files) >= 5
    for path in files:
        sc = parse_scenario(path)
        assert sc.ions


def test_error_messages_carry_field_paths(scenario_file):
    cases = [
        ("ions: [ca, ca2, ca]", "ions: [ca, cx, ca]", "ions[1]"),
        ("seed: 1", "seed: -3", "seed"),
        ("  axis: x\nresponse", "  axis: x\n  bogus: 2\nresponse", "modes: unknown key"),
        (
            "frequencies_khz: [480.0, 630.0, 119.0]",
            "frequencies_khz: [630.0, 480.0, 119.0]",
            "trap.frequencies_khz",
        ),
        # flags must be YAML booleans, not strings or lists
        ("seed: 1", 'seed: 1\nscan: {critical: "no"}', "scan.critical"),
        ("  noise: true", "  noise: [1]", "render.noise"),
        # species labels must be strings
        ("ions: [ca, ca2, ca]", "ions: [ca, [ca], ca]", "ions[1]"),
        ("seed: 1", "seed: 1\nscan: {arrangements: {a: [ca, {x: 1}]}}",
         "scan.arrangements.a[1]"),
        # one enum check, one inclusive lower bound
        ("  axis: x\nresponse", "  axis: q\nresponse", "modes.axis"),
        ("axis: x\n  field", "axis: [x]\n  field", "response.axis"),
        ("seed: 1", "seed: 1\nscan: {method: fast}", "scan.method"),
        ("seed: 1", "seed: 1\nscan: {method: order-parameter}", "scan.method"),
        ("field_v_per_m: 1.0e-3", "field_v_per_m: -1.0", "response.field_v_per_m"),
        ("background: 2.0", "background: .nan", "render.background"),
        # every number must be finite, even where only a lower bound applies
        ("damping_khz: 1.0", "damping_khz: .inf", "response.damping_khz"),
        ("rf_mhz: 10.66", "rf_mhz: -.inf", "trap.rf_mhz"),
        ("flux: 10000.0", "flux: 1" + "0" * 400, "render.flux"),
        # an integer past Python's 4300-digit string limit fails inside the
        # YAML loader, before any field is read
        ("seed: 1", "seed: 1" + "0" * 5000, "invalid YAML"),
        ("seed: 1", "seed: 1\nscan: {alpha_min: .nan}", "scan.alpha_min"),
        # a response sweep of at most a million points, refused before any
        # grid exists (7e8 points here)
        ("step_khz: 0.2", "step_khz: 1.0e-6", "response.step_khz"),
        ("  flux:", "  amplitude_um: true\n  flux:", "render.amplitude_um"),
    ]
    for old, new, needle in cases:
        path = scenario_file(MINIMAL.replace(old, new))
        with pytest.raises(ic.ScenarioError) as err:
            parse_scenario(path)
        assert needle in str(err.value)
        # every input fault exits 2 with the field path, never a traceback
        assert main(["calibrate", "--scenario", str(path), "--out", str(path.parent)]) == 2


@pytest.mark.parametrize(
    "command, old, new, needle",
    [
        ("scan", "seed: 1", "seed: 1\nscan: {alpha_max: .inf, points: 3}", "scan.alpha_max"),
        ("response", "step_khz: 0.2", "step_khz: 1.0e-300", "response.step_khz"),
        # the grid bound the response sweep has
        ("scan", "seed: 1", "seed: 1\nscan: {points: 1000000000000}", "scan.points"),
        # the rf gradient of alpha = 1e-300 overflows to inf
        ("scan", "seed: 1", "seed: 1\nscan: {alpha_min: 1.0e-300, points: 3}",
         "scan.alpha_min"),
        ("render", "render:\n", "render:\n  mode: 0\n  amplitude_um: 1.0e+6\n",
         "render.amplitude_um"),
        ("render", "render:\n", "render:\n  mode: 0\n  amplitude_um: 1.0e+300\n",
         "render.amplitude_um"),
        # the squares of the calibration frequencies overflow
        ("calibrate", "[480.0, 630.0, 119.0]", "[1.0e+300, 1.0e+300, 1.0e+300]",
         "squared frequencies (6.28319e+303, 6.28319e+303, 6.28319e+303) rad/s overflow"),
        # 1e-300 amu is 0 kg; the Ca+ curvatures in a trap calibrated on
        # a 1e300 amu reference overflow
        ("calibrate", "ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e-300}",
         "species.ca2"),
        ("calibrate", "reference: {charge: 1, mass_amu: 40.0}",
         "reference: {charge: 1, mass_amu: 1.0e+300}", "species.ca"),
    ],
    ids=["scan-alpha-max-inf", "response-step-1e-300", "scan-points-1e12",
         "scan-alpha-min-1e-300", "render-amplitude-1e6", "render-amplitude-1e300",
         "frequencies-1e300", "species-mass-1e-300", "reference-mass-1e300"],
)
def test_non_finite_and_oversized_inputs_exit_2(tmp_path, scenario_file, capsys,
                                                command, old, new, needle):
    # each used to end in a traceback (exit 1): a ValueError, a MemoryError
    # from a TiB-sized grid or image, or an OverflowError
    path = scenario_file(MINIMAL.replace(old, new))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert needle in capsys.readouterr().err


HOSTILE = [None, True, "x", [1], {}, -1, 0, 1e300, math.inf, math.nan, 10**12]


def _hostile_documents():
    """MINIMAL's trap and ions with one section key, or one whole section,
    set to a hostile value."""
    base = {k: v for k, v in yaml.safe_load(MINIMAL).items() if k not in _SECTIONS}
    for key, params in _SECTIONS.items():
        for value in HOSTILE:
            if value is not None and not isinstance(value, dict):
                yield key, {**base, key: value}
            for f in dataclasses.fields(params):
                yield key, {**base, key: {f.name: value}}


def test_hostile_values_fail_only_as_scenario_errors(tmp_path):
    path = tmp_path / "hostile.yaml"
    for key, doc in _hostile_documents():
        path.write_text(yaml.safe_dump(doc))
        try:
            parse_scenario(path)
        except ic.ScenarioError as err:
            assert key in str(err), doc[key]
            continue  # main turns this error into exit 2
        code = main(["calibrate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code in (0, 2), doc[key]


# Trap and species values that parse but used to end some command in a
# traceback (exit 1): a calibration that overflows or underflows, an rf
# gradient that overflows inside the scanned alpha range, crystals too
# wide to image, a species mass that underflows to 0 kg or whose
# curvatures overflow, and an rf confinement that underflows to zero.
HOSTILE_TRAPS = {
    "frequencies-1e300": [("[480.0, 630.0, 119.0]", "[1.0e+300, 1.0e+300, 1.0e+300]")],
    "axial-1e-300": [("[480.0, 630.0, 119.0]", "[480.0, 630.0, 1.0e-300]")],
    "frequencies-1e150": [("[480.0, 630.0, 119.0]", "[1.0e+150, 1.0e+150, 1.0e+150]")],
    "rf-1e307": [("rf_mhz: 10.66", "rf_mhz: 1.0e+307")],
    "axial-0.01-two-ions": [("[480.0, 630.0, 119.0]", "[480.0, 630.0, 0.01]"),
                            ("ions: [ca, ca2, ca]", "ions: [ca, ca]")],
    "charge-1e6": [("ca2: {charge: 2, mass_amu: 40.0}",
                    "ca2: {charge: 1000000, mass_amu: 40.0}")],
    "mass-1e-300": [("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e-300}")],
    "mass-1e-200": [("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e-200}")],
    "mass-1e-140": [("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e-140}")],
    "mass-1e-100": [("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e-100}")],
    "mass-1e-70": [("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e-70}")],
    "mass-1e300": [("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 1.0e+300}")],
    "reference-mass-1e300": [("reference: {charge: 1, mass_amu: 40.0}",
                              "reference: {charge: 1, mass_amu: 1.0e+300}")],
}


@pytest.mark.parametrize("edits", HOSTILE_TRAPS.values(), ids=HOSTILE_TRAPS)
def test_hostile_traps_and_species_fail_only_with_exit_codes(tmp_path, scenario_file, edits):
    text = MINIMAL
    for old, new in edits:
        text = text.replace(old, new)
    path = scenario_file(text)
    for command in _COMMANDS:
        code = main([command, "--scenario", str(path), "--out", str(tmp_path / command)])
        assert code in (0, 2, 3, 4), command


def test_sweep_size_bound(scenario_file):
    # 700 kHz in steps of 1 Hz is within the million points, half that step is not
    text = MINIMAL.replace("step_khz: 0.2", "step_khz: 0.001")
    assert parse_scenario(scenario_file(text)).response.step_khz == 0.001
    with pytest.raises(ic.ScenarioError, match="response.step_khz"):
        parse_scenario(scenario_file(MINIMAL.replace("step_khz: 0.2", "step_khz: 0.0005")))
    # at that step 14 ions fit within the 10**7 response cells, 15 do not
    def chain(n):
        return text.replace("ions: [ca, ca2, ca]", "ions: [ca2" + ", ca" * (n - 1) + "]")

    assert len(parse_scenario(scenario_file(chain(14))).ion_labels) == 14
    with pytest.raises(ic.ScenarioError, match="response.step_khz"):
        parse_scenario(scenario_file(chain(15)))


def test_unknown_top_level_key(scenario_file):
    for extra, key in (("bogus: 1", "bogus"), ("equilibrium: {restarts: 1}", "equilibrium")):
        with pytest.raises(ic.ScenarioError) as err:
            parse_scenario(scenario_file(MINIMAL + f"\n{extra}\n"))
        assert f"unknown key '{key}'" in str(err.value)


def test_boundary_out_of_range(scenario_file):
    # a boundary must leave an ion on each side: [1, N-2] for N = 3 ions
    # (0 and 2 used to parse and leave every localization cell empty)
    for boundary in (9, 2, 0):
        text = MINIMAL.replace("  axis: x\nresponse",
                               f"  axis: x\n  boundary: {boundary}\nresponse")
        with pytest.raises(ic.ScenarioError) as err:
            parse_scenario(scenario_file(text))
        assert "modes.boundary" in str(err.value)
    text = MINIMAL.replace("  axis: x\nresponse", "  axis: x\n  boundary: 1\nresponse")
    assert parse_scenario(scenario_file(text)).modes.boundary == 1


def test_invalid_yaml_reports_location(scenario_file):
    with pytest.raises(ic.ScenarioError) as err:
        parse_scenario(scenario_file("ions: ["))
    assert "line 1" in str(err.value)


def _written(out):
    """The tables, images and sidecars under out, which need not exist."""
    return sorted(f.name for f in out.glob("*") if f.suffix in (".csv", ".pgm", ".json"))


def test_cli_exit_codes(tmp_path, scenario_file):
    good = scenario_file()
    assert main(["modes", "--scenario", str(good), "--out", str(tmp_path / "ok")]) == 0
    assert _written(tmp_path / "ok")
    # parse failures
    bad = scenario_file(MINIMAL.replace("[480.0, 630.0, 119.0]", "[630.0, 480.0, 119.0]"), "bad.yaml")
    assert main(["modes", "--scenario", str(bad), "--out", str(tmp_path / "a")]) == 2
    assert main(["modes", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "b")]) == 2
    # a render that fails after its solve: no crystal.pgm, sidecar or table
    far = scenario_file(MINIMAL.replace("render:", "render:\n  mode: 9"), "far.yaml")
    assert main(["render", "--scenario", str(far), "--out", str(tmp_path / "e")]) == 2
    # solver failure: a species too heavy for the rf confinement
    heavy = scenario_file(
        MINIMAL.replace("ca2: {charge: 2, mass_amu: 40.0}", "ca2: {charge: 2, mass_amu: 40.0}\n  pb: {charge: 1, mass_amu: 4000.0}").replace(
            "ions: [ca, ca2, ca]", "ions: [ca, pb]"
        ),
        "heavy.yaml",
    )
    assert main(["equilibrium", "--scenario", str(heavy), "--out", str(tmp_path / "c")]) == 3
    # fit failure: nothing to detect without a drive field
    dark = scenario_file(
        MINIMAL.replace("field_v_per_m: 1.0e-3", "field_v_per_m: 0.0"), "dark.yaml"
    )
    assert main(["response", "--scenario", str(dark), "--out", str(tmp_path / "d")]) == 4
    # a failing command writes nothing, which lets main stream its tables
    for failed in "abcde":
        assert _written(tmp_path / failed) == [], failed


@pytest.mark.parametrize("where", ["below-a-file", "a-file", "a-table"])
def test_unusable_out_exits_2_naming_it(tmp_path, scenario_file, capsys, where):
    # each used to end in a traceback (exit 1): NotADirectoryError,
    # FileExistsError or IsADirectoryError
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = {"below-a-file": blocker / "x", "a-file": blocker, "a-table": tmp_path / "out"}[where]
    if where == "a-table":
        (out / "trap.csv").mkdir(parents=True)
    assert main(["calibrate", "--scenario", str(scenario_file()), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ")
    assert str(out) in err


def _peak_bytes(argv):
    """tracemalloc peak of one main(argv) call, after one untraced run."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_response_memory_follows_its_table(tmp_path, scenario_file):
    # 35 001 points x 3 ions; the whole table used to be held as text (19x)
    text = (SCENARIOS / "three_ion_central.yaml").read_text()
    path = scenario_file(text.replace("step_khz: 0.2", "step_khz: 0.02"))
    peak = _peak_bytes(["response", "--scenario", str(path), "--out", str(tmp_path)])
    table = 35_001 * 3 * 8
    assert len(_csv_rows(tmp_path / "response.csv")) == 35_001
    assert peak <= 4 * table


def test_render_memory_follows_its_image(tmp_path, scenario_file):
    # a noisy 743 x 485 px image; spot, background and noise used to take 4x
    text = (SCENARIOS / "three_ion_central.yaml").read_text()
    path = scenario_file(text.replace("amplitude_um: 5.0", "amplitude_um: 20").replace(
        "noise: false", "noise: true\n  background: 2.0"))
    peak = _peak_bytes(["render", "--scenario", str(path), "--out", str(tmp_path)])
    shape = json.loads((tmp_path / "crystal.json").read_text())["shape"]
    assert shape == [485, 743]
    assert peak <= 3 * 8 * shape[0] * shape[1]


def test_cli_outputs_are_deterministic(tmp_path, scenario_file):
    good = scenario_file()
    for sub in ("one", "two"):
        assert main(["modes", "--scenario", str(good), "--out", str(tmp_path / sub)]) == 0
        assert main(["render", "--scenario", str(good), "--out", str(tmp_path / sub)]) == 0
    for name in ("modes.csv", "eigenvectors.csv", "modes_summary.csv", "crystal.pgm", "crystal.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_cli_seed_override_changes_the_noise(tmp_path, scenario_file):
    good = scenario_file()
    assert main(["render", "--scenario", str(good), "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["render", "--scenario", str(good), "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    assert main(["render", "--scenario", str(good), "--out", str(tmp_path / "s1b"), "--seed", "1"]) == 0
    one = (tmp_path / "s1" / "crystal.pgm").read_bytes()
    assert one != (tmp_path / "s2" / "crystal.pgm").read_bytes()
    assert one == (tmp_path / "s1b" / "crystal.pgm").read_bytes()
    assert json.loads((tmp_path / "s1" / "crystal.json").read_text())["seed"] == 1


def test_cli_calibrate_reports_species(tmp_path, scenario_file):
    good = scenario_file()
    assert main(["calibrate", "--scenario", str(good), "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "species.csv")
    by_label = {r["label"]: r for r in rows}
    assert float(by_label["ca"]["f_x_khz"]) == pytest.approx(480.0, rel=1e-9)
    assert float(by_label["ca2"]["f_z_khz"]) == pytest.approx(
        119.0 * math.sqrt(2.0), rel=1e-9
    )


def test_cli_render_sidecar_marks_dark_ions(tmp_path, scenario_file):
    good = scenario_file()
    assert main(["render", "--scenario", str(good), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "crystal.pgm").read_bytes().startswith(b"P5\n")
    side = json.loads((tmp_path / "crystal.json").read_text())
    assert {"ions", "origin_um", "um_per_px", "shape", "seed", "noise"} <= set(side)
    bright = [ion["bright"] for ion in side["ions"]]
    assert bright == [True, False, True]
    rows = _csv_rows(tmp_path / "projection.csv")
    assert [r["bright"] for r in rows] == ["true", "false", "true"]


def test_cli_render_smears_each_spot_by_its_projected_motion(tmp_path, scenario_file,
                                                              monkeypatch):
    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return ic.render(*args, **kwargs)

    monkeypatch.setattr(cli, "render", spy)
    sc = parse_scenario(scenario_file())
    modes = ic.normal_modes(sc.trap, cli._solve(sc))
    pm = ic.ProjectionModel()
    for axis in "xyz":
        m = next(k for k in range(len(modes.frequencies))
                 if ic.mode_descriptor(modes, k).dominant_axis == axis)
        text = MINIMAL.replace("render:\n", f"render:\n  mode: {m}\n  amplitude_um: 2.0\n")
        path = scenario_file(text)
        assert main(["render", "--scenario", str(path), "--out", str(tmp_path / axis)]) == 0
        motion = ic.project(ic.mode_descriptor(modes, m).pattern, pm) * (2.0 * 1e-6)
        smear = seen["amplitudes_um"][:, None] * seen["directions"]
        np.testing.assert_allclose(smear, motion, rtol=1e-12, atol=1e-15)
        assert np.allclose(np.linalg.norm(seen["directions"], axis=1), 1.0, rtol=1e-12)


def test_cli_modes_match_benchmark_spectrum(tmp_path):
    scenario = SCENARIOS / "six_ion_impurity.yaml"
    assert main(["modes", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "modes.csv")
    got = sorted(float(r["freq_khz"]) for r in rows if r["axis"] == "x")
    expected = (352.0, 403.0, 423.0, 463.0, 468.0, 1006.0)
    assert len(got) == 6
    for g, e in zip(got, expected):
        assert abs(g - e) / e < 0.02
    summary = {r["key"]: r["value"] for r in _csv_rows(tmp_path / "modes_summary.csv")}
    assert 40.0 < float(summary["min_same_side_gap_khz"]) < 50.0
    # the relaxed crystal is the exact linear chain up to round-off
    sc = parse_scenario(scenario)
    trap = sc.trap
    chain = np.zeros((len(sc.ions), 3))
    chain[:, 2] = ic.axial_equilibrium(trap, sc.ions)
    modes = ic.normal_modes(trap, ic.CrystalConfiguration(sc.ions, chain))
    exact = sorted(modes.frequencies[m] / (2e3 * math.pi) for m in ic.modes_by_axis(modes, "x"))
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
    # the two modes next to the impurity live on one side of it
    ratio = {float(r["freq_khz"]): float(r["localization_ratio"]) for r in rows
             if r["axis"] == "x"}
    for target in (403.0, 423.0):
        assert ratio[min(ratio, key=lambda f: abs(f - target))] >= 20.0


def test_cli_scan_reports_critical_points(tmp_path):
    scenario = SCENARIOS / "three_ion_arrangements.yaml"
    assert main(["scan", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "critical.csv")
    crit = {r["arrangement"]: float(r["alpha_x"]) for r in rows}
    # the probes' midpoint agrees with the soft-mode alpha*
    for r in rows:
        assert float(r["cross_check"]) == pytest.approx(float(r["alpha_x"]), abs=1e-3)
    assert crit["pure"] == pytest.approx(5.0 / 12.0, abs=1e-3)
    assert 0.36 <= crit["outer"] <= 0.38
    assert crit["central"] == pytest.approx(1.0, abs=1e-3)
    assert crit["outer"] < crit["pure"] < crit["central"]
    phase = _csv_rows(tmp_path / "phase_map.csv")
    assert {r["arrangement"] for r in phase} == set(crit)


def test_cli_soft_mode_scan_skips_the_probes(tmp_path, scenario_file):
    # the same alpha* strings as the default 'both' run, without a cross-check
    text = (SCENARIOS / "three_ion_arrangements.yaml").read_text()
    soft = scenario_file(text.replace("method: both", "method: soft-mode"), "soft.yaml")
    rows = {}
    for method, scenario in (("both", SCENARIOS / "three_ion_arrangements.yaml"),
                             ("soft-mode", soft)):
        out = tmp_path / method
        assert main(["scan", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows[method] = _csv_rows(out / "critical.csv")
    assert [r["method"] for r in rows["soft-mode"]] == ["soft-mode"] * 3
    assert [r["cross_check"] for r in rows["soft-mode"]] == [""] * 3
    assert all(r["cross_check"] for r in rows["both"])
    assert ([r["alpha_x"] for r in rows["soft-mode"]]
            == [r["alpha_x"] for r in rows["both"]])


@pytest.mark.parametrize("name, count", [("three_ion_central", 2), ("three_ion_outer", 3)])
def test_cli_response_peaks_sit_on_the_modes(tmp_path, name, count):
    # the central impurity's rocking mode has no drive coupling
    scenario = SCENARIOS / f"{name}.yaml"
    assert main(["response", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    peaks = _csv_rows(tmp_path / "peaks.csv")
    assert len(peaks) == count
    for row in peaks:
        assert abs(float(row["center_khz"]) - float(row["nearest_mode_khz"])) < 1.0


def test_cli_response_fits_through_sweep_and_fit(tmp_path, monkeypatch):
    # the peaks come from the public fit, so a tracer wrapping it sees them
    scenario = SCENARIOS / "three_ion_outer.yaml"
    plain, spied = tmp_path / "plain", tmp_path / "spied"
    assert main(["response", "--scenario", str(scenario), "--out", str(plain)]) == 0
    calls = []

    def spy(modes, drive):
        calls.append(drive)
        return ic.sweep_and_fit(modes, drive)

    monkeypatch.setattr(cli, "sweep_and_fit", spy)
    assert main(["response", "--scenario", str(scenario), "--out", str(spied)]) == 0
    assert len(calls) == 1
    assert (spied / "peaks.csv").read_bytes() == (plain / "peaks.csv").read_bytes()


def test_cli_render_round_trip(tmp_path, read_pgm16):
    # the noisy image read back from disk gives the sidecar's bright positions
    scenario = SCENARIOS / "three_ion_outer.yaml"
    assert main(["render", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    side = json.loads((tmp_path / "crystal.json").read_text())
    pixels, _ = read_pgm16(tmp_path / "crystal.pgm")
    image = ic.CameraImage(pixels, side["um_per_px"], tuple(side["origin_um"]))
    bright = sorted((ion["u_um"], ion["v_um"]) for ion in side["ions"] if ion["bright"])
    fitted, _ = ic.fit_positions(image, len(bright))
    assert np.abs(fitted - np.array(bright)).max() < 1.0


EMITTED = {
    "calibrate": {"trap.csv", "species.csv"},
    "equilibrium": {"positions.csv", "equilibrium_summary.csv"},
    "modes": {"modes.csv", "eigenvectors.csv", "modes_summary.csv"},
    "scan": {"phase_map.csv", "critical.csv"},
    "response": {"response.csv", "peaks.csv"},
    "render": {"crystal.pgm", "crystal.json", "projection.csv"},
}


@pytest.mark.parametrize("critical", [True, False])
def test_cli_writes_exactly_its_files(tmp_path, scenario_file, critical):
    text = MINIMAL.replace("seed: 1", (
        "seed: 1\n"
        f"scan: {{alpha_min: 0.3, alpha_max: 0.5, points: 3, "
        f"critical: {str(critical).lower()}}}"
    ))
    path = scenario_file(text)
    for command, expected in EMITTED.items():
        if command == "scan" and not critical:
            expected = expected - {"critical.csv"}
        out = tmp_path / command
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == expected, command
    if critical:
        assert len(_csv_rows(tmp_path / "scan" / "critical.csv")) == 1
    assert len(_csv_rows(tmp_path / "scan" / "phase_map.csv")) == 3
    assert len(_positions(tmp_path / "equilibrium" / "positions.csv")) == 3
    modes = _csv_rows(tmp_path / "modes" / "modes.csv")
    assert len(modes) == 9
    assert {r["soft"] for r in modes} <= {"true", "false"}
    assert all(r["freq_khz"] and r["axis"] in ("x", "y", "z") for r in modes)
    summary = {r["key"]: r["value"] for r in _csv_rows(tmp_path / "modes" / "modes_summary.csv")}
    assert summary["axis"] == "x"


def _golden_script():
    path = SCENARIOS.parent / "scripts" / "cli_golden.py"
    spec = importlib.util.spec_from_file_location("cli_golden", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_golden_compare_reports_column_changes(tmp_path, capsys):
    script = _golden_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, center, label, zero in (
        (parent, "480.0", "a", "0.0"), (change, "480.0000001", "b", "-0.0")
    ):
        (root / "s" / "response").mkdir(parents=True)
        (root / "s" / "response" / "peaks.csv").write_text(
            f"center_khz,n_points,label,zero\n{center},36,{label},{zero}\n1.0,5,c,0.0\n"
        )
        (root / "runs.txt").write_text("s response: exit 0\n")
    assert script.main_cli(["--compare", str(parent), str(parent)]) == 0
    capsys.readouterr()
    assert script.main_cli(["--compare", str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "runs.txt: identical" in lines
    assert "s/response/peaks.csv: differs" in lines
    assert "  center_khz: 1 values, largest relative change 2.1e-10, absolute 1e-07" in lines
    assert "  label: 1 text values differ" in lines
    # each text flip is named with its row and the row's largest numeric change
    assert ("    row 1 (480.0,36,a,0.0): a -> b, largest numeric relative change "
            "in the row 2.1e-10") in lines
    # 0.0 against -0.0 is listed as a changed value with no numeric change
    assert "  zero: 1 values, largest relative change 0, absolute 0" in lines
    assert not any(line.lstrip().startswith("n_points") for line in lines)


def test_single_ion_mirror_stays_at_plus_zero(scenario_file):
    # the golden script's mirror branch reflects x as 0.0 - x, so an ion
    # on the axis keeps +0.0 and the position bytes stay comparable
    script = _golden_script()
    path = scenario_file(MINIMAL.replace("ions: [ca, ca2, ca]", "ions: [ca]"))
    sc = parse_scenario(path)
    config = ic.find_equilibrium(sc.trap, sc.ions, seed=sc.seed)
    for found in (config, script._mirror(config)):
        assert found.positions.tobytes() == np.zeros(3).tobytes()


@pytest.mark.parametrize("field", ["flux", "background"])
def test_render_photon_counts_are_bounded(tmp_path, scenario_file, capsys, field):
    # a noisy render of 1e300 photons used to end in numpy's bare
    # "lam value too large" (exit 1 with a traceback)
    old = {"flux": "flux: 10000.0", "background": "background: 2.0"}[field]
    path = scenario_file(MINIMAL.replace(old, f"{field}: 1.0e+300"))
    with pytest.raises(ic.ScenarioError, match=f"render.{field}"):
        parse_scenario(path)
    assert main(["render", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert f"render.{field}" in capsys.readouterr().err
