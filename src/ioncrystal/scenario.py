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

parse_scenario calibrates the trap once: a Scenario carries the
calibrated trap and the anisotropy family the scan varies, and a trap
that cannot be built is a ScenarioError naming `trap`. So is a species
whose secular frequencies leave the float range in that trap, naming
`species.<label>`.

Optional sections (modes, scan, response, render) carry the per-task
parameters. Each section is a params dataclass below and each of its
fields one key: the field's default is the key's default, and the check
and bounds given to _key are what a value of the key must pass. A
missing key takes its default; null is a value only where the default is
None. parse_scenario adds the checks that span keys: modes.boundary
within [1, N-2] for N ions, alpha_max above alpha_min, max_khz above
min_khz, the response sweep size (in points, and in points x ions),
and the species of each scan arrangement.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import CalibrationError, ScenarioError
from .modes import _AXES
from .transitions import (
    _ALPHA_MAX,
    _ALPHA_MIN,
    _METHODS,
    _PROBE_SPACING,
    AnisotropyFamily,
)
from .trap import (
    IonSpecies,
    SpeciesFrequencies,
    TrapModel,
    _squared_secular,
    calibrate_from_frequencies,
)

# Largest scan grid and response sweep, (max_khz - min_khz) / step_khz + 1
# points; the checked-in scenarios use at most 5501.
_MAX_GRID_POINTS = 1_000_000
# Largest response table, sweep points x ions: 80 MB of float64, the
# budget of imaging's largest image. The CLI holds one sweep at a time and
# streams the table, so a response run at this bound peaks at ~200 MB
# resident (196 MB measured on 999 001 points x 10 ions).
_MAX_RESPONSE_CELLS = 10_000_000
# Largest render.flux and render.background (photons): a noisy image's
# pixel means then stay many orders below numpy's Poisson limit (~9.2e18).
_MAX_PHOTONS = 1e12
# Largest render.amplitude_um: the smeared spots then add at most ~1600
# pixels along each image axis, far inside imaging's 1e7-pixel cap.
_MAX_AMPLITUDE_UM = 50.0


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


def _integer(value, where, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{where}: must be <= {maximum}, got {value}")
    return value


def _flag(value, where) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _choice(value, where, choices) -> str:
    if value not in choices:
        raise ScenarioError(f"{where}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _mapping(value, where) -> dict:
    """A mapping; null stands for an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    return value


def _key(default, check, **bounds):
    """A section key: its default, and the check (with bounds) a value passes."""
    meta = {"check": check, "bounds": bounds}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ModesParams:
    axis: str = _key("x", _choice, choices=_AXES)
    boundary: int | None = _key(None, _integer, minimum=1)


@dataclass(frozen=True)
class ScanParams:
    # parse_scenario turns each list of species labels into IonSpecies
    arrangements: dict[str, tuple[IonSpecies, ...]] = _key({}, _mapping)
    alpha_min: float = _key(0.05, _number, minimum=_ALPHA_MIN, inclusive=True,
                            maximum=_ALPHA_MAX)
    alpha_max: float = _key(0.95, _number, minimum=_ALPHA_MIN, inclusive=True,
                            maximum=_ALPHA_MAX)
    points: int = _key(16, _integer, minimum=2, maximum=_MAX_GRID_POINTS)
    critical: bool = _key(True, _flag)
    method: str = _key("both", _choice, choices=_METHODS)


@dataclass(frozen=True)
class ResponseParams:
    axis: str = _key("x", _choice, choices=_AXES)
    field_v_per_m: float = _key(1e-3, _number, minimum=0.0, inclusive=True)
    damping_khz: float = _key(1.0, _number, minimum=0.0)
    min_khz: float = _key(100.0, _number, minimum=0.0)
    max_khz: float = _key(1200.0, _number, minimum=0.0)
    step_khz: float = _key(0.2, _number, minimum=0.0)


@dataclass(frozen=True)
class RenderParams:
    mode: int | None = _key(None, _integer, minimum=0)
    amplitude_um: float = _key(0.0, _number, minimum=0.0, inclusive=True,
                               maximum=_MAX_AMPLITUDE_UM)
    noise: bool = _key(False, _flag)
    flux: float = _key(1e4, _number, minimum=0.0, maximum=_MAX_PHOTONS)
    background: float = _key(0.0, _number, minimum=0.0, inclusive=True,
                             maximum=_MAX_PHOTONS)


@dataclass(frozen=True)
class Scenario:
    name: str
    trap: TrapModel
    family: AnisotropyFamily
    species: dict[str, IonSpecies]
    ion_labels: tuple[str, ...]
    seed: int
    modes: ModesParams
    scan: ScanParams
    response: ResponseParams
    render: RenderParams

    @property
    def ions(self) -> tuple[IonSpecies, ...]:
        return tuple(self.species[label] for label in self.ion_labels)


# The optional sections: each document key and its params dataclass.
_SECTIONS = {
    "modes": ModesParams,
    "scan": ScanParams,
    "response": ResponseParams,
    "render": RenderParams,
}


def _section(doc, key, params):
    """Section `key` of the document as an instance of its params
    dataclass, each given value passed through its field's check."""
    node = _mapping(doc.get(key), key)
    fields = {f.name: f for f in dataclasses.fields(params)}
    _known_keys(node, fields, key)
    return params(**{
        name: f.metadata["check"](node[name], f"{key}.{name}", **f.metadata["bounds"])
        for name, f in fields.items()
        if name in node and not (node[name] is None and f.default is None)
    })


def _known_keys(node, allowed, where):
    for k in node:
        if k not in allowed:
            raise ScenarioError(f"{where}: unknown key '{k}'")


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
    _known_keys(doc, {"trap", "species", "ions", "seed", *_SECTIONS}, path.name)

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
    try:
        trap = calibrate_from_frequencies(ref, freqs, 2.0 * math.pi * 1e6 * rf)
        family = AnisotropyFamily(
            reference=ref,
            axial_curvature=trap.axial_curvature,
            radial_curvature=trap.radial_curvature,
            rf_frequency=trap.rf_frequency,
        )
        # the smallest alpha any scan or probe reaches: the rf gradient only
        # grows as alpha falls, so every trap a command builds is then finite
        steepest = family.trap_at(_ALPHA_MIN - _PROBE_SPACING / 2)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"trap: cannot build the trap: {exc}") from exc

    species_node = _require(doc, "species", path.name)
    if not isinstance(species_node, dict) or not species_node:
        raise ScenarioError("species: expected a non-empty mapping")
    species = {
        str(label): _species(node, f"species.{label}")
        for label, node in species_node.items()
    }
    for label, s in species.items():
        # each species' curvatures in the steepest trap: every trap a command
        # builds then gives it finite curvatures too
        try:
            finite = all(map(math.isfinite, _squared_secular(steepest, s)))
        except (ZeroDivisionError, OverflowError):  # a mass of 0 kg after underflow, say
            finite = False
        if not finite:
            raise ScenarioError(
                f"species.{label}: q={s.charge_number} m={s.mass_amu} amu has secular "
                "frequencies beyond the float range in this trap"
            )

    ion_labels = _labels(_require(doc, "ions", path.name), species, "ions")

    seed = _integer(doc.get("seed", 0), "seed", minimum=0)

    sections = {key: _section(doc, key, params) for key, params in _SECTIONS.items()}

    boundary = sections["modes"].boundary
    if boundary is not None and boundary > len(ion_labels) - 2:
        raise ScenarioError(
            f"modes.boundary: index {boundary} leaves an empty side for "
            f"{len(ion_labels)} ions; it must lie in [1, N-2]"
        )

    scan = sections["scan"]
    arrangements = {
        str(label): tuple(
            species[s] for s in _labels(labels, species, f"scan.arrangements.{label}")
        )
        for label, labels in scan.arrangements.items()
    }
    if scan.alpha_max <= scan.alpha_min:
        raise ScenarioError("scan.alpha_max: must exceed scan.alpha_min")
    sections["scan"] = dataclasses.replace(scan, arrangements=arrangements)

    r = sections["response"]
    if r.max_khz <= r.min_khz:
        raise ScenarioError("response.max_khz: must exceed response.min_khz")
    points = (r.max_khz - r.min_khz) / r.step_khz + 1.0
    if not points <= _MAX_GRID_POINTS:
        raise ScenarioError(
            f"response.step_khz: {r.step_khz} kHz from {r.min_khz} to {r.max_khz} kHz "
            f"gives {points:.3g} sweep points, more than {_MAX_GRID_POINTS}"
        )
    cells = points * len(ion_labels)
    if not cells <= _MAX_RESPONSE_CELLS:
        raise ScenarioError(
            f"response.step_khz: {points:.3g} sweep points of {len(ion_labels)} ions "
            f"give {cells:.3g} response cells, more than {_MAX_RESPONSE_CELLS:.3g}"
        )

    return Scenario(
        name=path.stem,
        trap=trap,
        family=family,
        species=species,
        ion_labels=ion_labels,
        seed=seed,
        **sections,
    )
