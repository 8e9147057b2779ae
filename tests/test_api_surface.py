import inspect

import ioncrystal

# Every exported callable with a defaulted parameter, and those parameters.
# A new option on the public API shows up here as a reviewed edit; a value
# that no caller sets belongs in a module constant instead.
DEFAULTED = {
    "CriticalPoint": ["cross_check"],
    "PhasePoint": ["error"],
    "ProjectionModel": ["viewing_angle_deg", "rotation_deg", "magnification", "psf_um",
                        "pixel_pitch_um"],
    "classify": ["length_scale"],
    "critical_anisotropy": ["method", "tolerance", "seed"],
    "find_equilibrium": ["seed", "restarts", "initial"],
    "fit_positions": ["min_separation_px"],
    "min_same_side_gap": ["axis", "boundary_index"],
    "render": ["bright", "amplitudes_um", "directions", "flux", "background", "rng"],
    "scan_configurations": ["seed"],
    "sweep_and_fit": ["model"],
}


def _defaulted() -> dict[str, list[str]]:
    found = {}
    for name in dir(ioncrystal):
        obj = getattr(ioncrystal, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an error class that keeps Exception's constructor
            continue
        names = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if names:
            found[name] = names
    return found


def test_defaulted_parameters_are_pinned():
    assert _defaulted() == DEFAULTED
    assert sum(map(len, DEFAULTED.values())) == 25
