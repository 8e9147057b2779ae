"""Spans around the calls between ioncrystal's modules, installed from outside.

Every public function of the package is wrapped in every module namespace
that holds it, so a call is seen the way the calling module makes it
(``ioncrystal.transitions.find_equilibrium`` is the equilibrium solver as
the transition search calls it). A span records its name, start, end and
parent; spans stay in memory until the run ends. Nothing under ``src/``
changes, and uninstalling restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "crystal", "imaging", "modes", "response", "scenario",
           "transitions", "trap")

# Spans that also record a count taken from the function's result.
_RESULT_COUNTS = {
    "response.sweep_and_fit": len,
    "imaging.render": lambda image: image.intensity.size,
}


class Recorder:
    """Collects spans as [name, start, end, parent index, count]."""

    def __init__(self):
        self.active = True          # off while the benchmark checks outputs
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
            self.spans.append(span)
            self._open.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def install(self) -> None:
        import ioncrystal

        namespaces = [ioncrystal] + [
            importlib.import_module(f"ioncrystal.{m}") for m in MODULES
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__.startswith("ioncrystal.")
                ):
                    layer = value.__module__.rsplit(".", 1)[1]
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, self.wrap(f"{layer}.{value.__name__}", value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time, calls and result counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0, "count": 0}
        )
        for idx, (name, start, end, _, count) in enumerate(self.spans):
            s = out[name]
            s["total"] += end - start
            s["self"] += end - start - child_time[idx]
            s["calls"] += 1
            s["count"] += count
        return out

    def calls_within(self, child: str, ancestor: str) -> int:
        """Number of `child` spans opened while an `ancestor` span was open."""
        n = 0
        for name, _, _, parent, _ in self.spans:
            if name != child:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced round (times in s, summed)."""
    s = rec.summary()
    zero = {"total": 0.0, "self": 0.0, "calls": 0, "count": 0}

    def total(name):
        return s.get(name, zero)["total"]

    def own(name):
        return s.get(name, zero)["self"]

    def calls(name):
        return s.get(name, zero)["calls"]

    def counted(name):
        return s.get(name, zero)["count"]

    searches = calls("transitions.critical_anisotropy")

    def per_search(child):
        if not searches:
            return 0.0
        return rec.calls_within(child, "transitions.critical_anisotropy") / searches

    return {
        "scenario.parse_scenario_s": total("scenario.parse_scenario"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "trap.calibrate_from_frequencies_s": total("trap.calibrate_from_frequencies"),
        "crystal.find_equilibrium_s": total("crystal.find_equilibrium"),
        "crystal.find_equilibrium_calls": calls("crystal.find_equilibrium"),
        "crystal.axial_equilibrium_s": total("crystal.axial_equilibrium"),
        "crystal.axial_equilibrium_calls": calls("crystal.axial_equilibrium"),
        "crystal.hessian_s": total("crystal.hessian"),
        "crystal.hessian_calls": calls("crystal.hessian"),
        "crystal.classify_s": total("crystal.classify"),
        "modes.normal_modes_s": total("modes.normal_modes"),
        "modes.normal_modes_calls": calls("modes.normal_modes"),
        "modes.mode_descriptor_calls": calls("modes.mode_descriptor"),
        "transitions.critical_anisotropy_s": total("transitions.critical_anisotropy"),
        "transitions.critical_anisotropy_self_s": own("transitions.critical_anisotropy"),
        "transitions.scan_configurations_s": total("transitions.scan_configurations"),
        "transitions.scan_configurations_self_s": own("transitions.scan_configurations"),
        "transitions.order_parameter_solves": per_search("crystal.find_equilibrium"),
        "transitions.soft_mode_hessian_calls": per_search("crystal.hessian"),
        "response.sweep_and_fit_s": total("response.sweep_and_fit"),
        "response.response_curve_s": total("response.response_curve"),
        "response.peaks_fitted": counted("response.sweep_and_fit"),
        "imaging.render_s": total("imaging.render"),
        "imaging.render_pixels": counted("imaging.render"),
        "imaging.fit_positions_s": total("imaging.fit_positions"),
        "imaging.write_pgm_s": total("imaging.write_pgm"),
    }
