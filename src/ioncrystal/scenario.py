"""Scenario files: one YAML document describing a trap, ions, and task knobs.

Minimal example:

    trap:
      reference: {charge: 1, mass_amu: 40.0}
      frequencies_khz: [480.0, 630.0, 119.0]
      rf_mhz: 10.66
    species:
      ca:  {charge: 1, mass_amu: 40.0}
      ca2: {charge: 2, mass_amu: 40.0}
    ions: [ca, ca2, ca]
    seed: 1

Optional sections (equilibrium, modes, scan, response, render) carry the
per-task parameters; missing keys fall back to the dataclass defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import CalibrationError, ScenarioError
from .trap import IonSpecies, SpeciesFrequencies
from .transitions import AnisotropyFamily
from .trap import TrapModel, calibrate_from_frequencies


@dataclass(frozen=True)
class Calibration:
    reference: IonSpecies
    frequencies: SpeciesFrequencies
    rf_frequency: float

    def trap(self) -> TrapModel:
        return calibrate_from_frequencies(
            self.reference, self.frequencies, self.rf_frequency
        )

    def family(self) -> AnisotropyFamily:
        return AnisotropyFamily.from_calibration(
            self.reference, self.frequencies, self.rf_frequency
        )


@dataclass(frozen=True)
class EquilibriumParams:
    restarts: int = 1
    both_branches: bool = False


@dataclass(frozen=True)
class ModesParams:
    axis: str = "x"
    boundary: int | None = None


@dataclass(frozen=True)
class ScanParams:
    arrangements: dict[str, tuple[IonSpecies, ...]] = field(default_factory=dict)
    alpha_min: float = 0.05
    alpha_max: float = 0.95
    points: int = 16
    critical: bool = True
    method: str = "both"


@dataclass(frozen=True)
class ResponseParams:
    axis: str = "x"
    field_v_per_m: float = 1e-3
    damping_khz: float = 1.0
    min_khz: float = 100.0
    max_khz: float = 1200.0
    step_khz: float = 0.2


@dataclass(frozen=True)
class RenderParams:
    mode: int | None = None
    amplitude_um: float = 0.0
    noise: bool = False
    flux: float = 1e4
    background: float = 0.0


@dataclass(frozen=True)
class Scenario:
    name: str
    calibration: Calibration
    species: dict[str, IonSpecies]
    ion_labels: tuple[str, ...]
    seed: int
    equilibrium: EquilibriumParams
    modes: ModesParams
    scan: ScanParams
    response: ResponseParams
    render: RenderParams

    @property
    def ions(self) -> tuple[IonSpecies, ...]:
        return tuple(self.species[label] for label in self.ion_labels)


_AXES = ("x", "y", "z")
# Largest response sweep, (max_khz - min_khz) / step_khz + 1 points; the
# checked-in scenarios use 5501.
_MAX_SWEEP_POINTS = 1_000_000
# Largest render.flux and render.background (photons): a noisy image's
# pixel means then stay many orders below numpy's Poisson limit (~9.2e18).
_MAX_PHOTONS = 1e12


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _number(value, where, minimum=None, inclusive=False, maximum=None):
    """A finite float above minimum (or at least minimum when inclusive),
    and at most maximum."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    if minimum is not None and not (number >= minimum if inclusive else number > minimum):
        bound = ">=" if inclusive else ">"
        raise ScenarioError(f"{where}: must be {bound} {minimum}, got {value}")
    if maximum is not None and number > maximum:
        raise ScenarioError(f"{where}: must be <= {maximum:g}, got {value}")
    return number


def _integer(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _flag(value, where) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _choice(value, where, choices) -> str:
    if value not in choices:
        raise ScenarioError(f"{where}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _labels(node, species, where) -> tuple[str, ...]:
    """A non-empty list of species labels, each defined under species."""
    if not isinstance(node, list) or not node:
        raise ScenarioError(f"{where}: expected a non-empty list of species labels")
    for i, label in enumerate(node):
        if not isinstance(label, str) or label not in species:
            raise ScenarioError(f"{where}[{i}]: unknown species {label!r}")
    return tuple(node)


def _species(node, where) -> IonSpecies:
    charge = _integer(_require(node, "charge", where), f"{where}.charge", minimum=1)
    mass = _number(_require(node, "mass_amu", where), f"{where}.mass_amu", minimum=0.0)
    return IonSpecies(charge, mass)


def _section(doc, key, params) -> dict:
    """Section `key` of the document over the defaults of its params
    dataclass, whose fields are the section's only allowed keys."""
    node = doc.get(key, {})
    if node is None:
        node = {}
    if not isinstance(node, dict):
        raise ScenarioError(f"{key}: expected a mapping")
    defaults = dataclasses.asdict(params())
    _known_keys(node, defaults, key)
    return {**defaults, **node}


def _known_keys(node, allowed, where):
    for k in node:
        if k not in allowed:
            raise ScenarioError(f"{where}: unknown key '{k}'")


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file. Raises ScenarioError on any problem."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{path.name}: invalid YAML{at}: {exc}") from exc
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise ScenarioError(f"{path.name}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path.name}: top level must be a mapping")
    _known_keys(
        doc,
        {"trap", "species", "ions", "seed", "equilibrium", "modes", "scan",
         "response", "render"},
        path.name,
    )

    trap_node = _require(doc, "trap", path.name)
    ref = _species(_require(trap_node, "reference", "trap"), "trap.reference")
    freqs_node = _require(trap_node, "frequencies_khz", "trap")
    if not (isinstance(freqs_node, list) and len(freqs_node) == 3):
        raise ScenarioError("trap.frequencies_khz: expected a list of three numbers")
    fx, fy, fz = (
        _number(v, f"trap.frequencies_khz[{i}]", minimum=0.0)
        for i, v in enumerate(freqs_node)
    )
    try:
        freqs = SpeciesFrequencies.from_khz(fx, fy, fz)
    except CalibrationError as exc:
        raise ScenarioError(f"trap.frequencies_khz: {exc}") from exc
    rf = _number(_require(trap_node, "rf_mhz", "trap"), "trap.rf_mhz", minimum=0.0)
    calibration = Calibration(ref, freqs, 2.0 * math.pi * 1e6 * rf)

    species_node = _require(doc, "species", path.name)
    if not isinstance(species_node, dict) or not species_node:
        raise ScenarioError("species: expected a non-empty mapping")
    species = {
        str(label): _species(node, f"species.{label}")
        for label, node in species_node.items()
    }

    ion_labels = _labels(_require(doc, "ions", path.name), species, "ions")

    seed = _integer(doc.get("seed", 0), "seed", minimum=0)

    eq_node = _section(doc, "equilibrium", EquilibriumParams)
    equilibrium = EquilibriumParams(
        restarts=_integer(eq_node["restarts"], "equilibrium.restarts", 1),
        both_branches=_flag(eq_node["both_branches"], "equilibrium.both_branches"),
    )

    modes_node = _section(doc, "modes", ModesParams)
    axis = _choice(modes_node["axis"], "modes.axis", _AXES)
    boundary = modes_node["boundary"]
    if boundary is not None:
        boundary = _integer(boundary, "modes.boundary", minimum=0)
        if boundary >= len(ion_labels):
            raise ScenarioError(
                f"modes.boundary: index {boundary} out of range for "
                f"{len(ion_labels)} ions"
            )
    modes = ModesParams(axis=axis, boundary=boundary)

    scan_node = _section(doc, "scan", ScanParams)
    arrangements: dict[str, tuple[IonSpecies, ...]] = {}
    arr_node = scan_node["arrangements"]
    if arr_node is None:
        arr_node = {}
    if not isinstance(arr_node, dict):
        raise ScenarioError("scan.arrangements: expected a mapping")
    for label, labels in arr_node.items():
        labels = _labels(labels, species, f"scan.arrangements.{label}")
        arrangements[str(label)] = tuple(species[s] for s in labels)
    method = _choice(scan_node["method"], "scan.method",
                     ("soft-mode", "order-parameter", "both"))
    alpha_min = _number(scan_node["alpha_min"], "scan.alpha_min", 0.0)
    alpha_max = _number(scan_node["alpha_max"], "scan.alpha_max", 0.0)
    if alpha_max <= alpha_min:
        raise ScenarioError("scan.alpha_max: must exceed scan.alpha_min")
    scan = ScanParams(
        arrangements=arrangements,
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        points=_integer(scan_node["points"], "scan.points", minimum=2),
        critical=_flag(scan_node["critical"], "scan.critical"),
        method=method,
    )

    resp_node = _section(doc, "response", ResponseParams)
    raxis = _choice(resp_node["axis"], "response.axis", _AXES)
    rmin = _number(resp_node["min_khz"], "response.min_khz", 0.0)
    rmax = _number(resp_node["max_khz"], "response.max_khz", 0.0)
    if rmax <= rmin:
        raise ScenarioError("response.max_khz: must exceed response.min_khz")
    step = _number(resp_node["step_khz"], "response.step_khz", 0.0)
    points = (rmax - rmin) / step + 1.0
    if not points <= _MAX_SWEEP_POINTS:
        raise ScenarioError(
            f"response.step_khz: {step} kHz from {rmin} to {rmax} kHz gives "
            f"{points:.3g} sweep points, more than {_MAX_SWEEP_POINTS}"
        )
    response = ResponseParams(
        axis=raxis,
        field_v_per_m=_number(resp_node["field_v_per_m"], "response.field_v_per_m",
                              0.0, inclusive=True),
        damping_khz=_number(resp_node["damping_khz"], "response.damping_khz", 0.0),
        min_khz=rmin,
        max_khz=rmax,
        step_khz=step,
    )

    render_node = _section(doc, "render", RenderParams)
    mode = render_node["mode"]
    if mode is not None:
        mode = _integer(mode, "render.mode", minimum=0)
    render = RenderParams(
        mode=mode,
        amplitude_um=_number(render_node["amplitude_um"], "render.amplitude_um",
                             0.0, inclusive=True),
        noise=_flag(render_node["noise"], "render.noise"),
        flux=_number(render_node["flux"], "render.flux", 0.0, maximum=_MAX_PHOTONS),
        background=_number(render_node["background"], "render.background",
                           0.0, inclusive=True, maximum=_MAX_PHOTONS),
    )

    return Scenario(
        name=path.stem,
        calibration=calibration,
        species=species,
        ion_labels=ion_labels,
        seed=seed,
        equilibrium=equilibrium,
        modes=modes,
        scan=scan,
        response=response,
        render=render,
    )
