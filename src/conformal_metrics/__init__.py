"""Hyperbolic and quasihyperbolic metrics on planar hyperbolic regions.

Exact order-3 jet arithmetic for analytic maps, hyperbolic densities and
distances pulled back from the half-plane, quasihyperbolic geodesics by
relaxing the hyperbolic geodesic, and sampling-based verification of the
sharp distortion bounds linking density, delta and the (pre-)Schwarzian.

The public names below are imported from their modules on first use
(PEP 562), so that a process loads only the modules it needs.
"""

from importlib import import_module

# module -> the public names it defines
_MODULES = {
    "domains": (
        "Domain", "boundary_distance", "contains", "hyperbolic_density",
        "koebe_slit_plane", "log_strip", "punctured_disk", "slit_disk",
        "unit_disk", "upper_half_plane",
    ),
    "errors": (
        "ConformalMetricsError", "IncompatibleCompositionError",
        "InvalidParameterError", "MapNotUnivalentError",
        "NoDensityRouteError", "NotLocallyUnivalentError",
        "OutsideDomainError", "QuadratureError", "SingularPointError",
    ),
    "jets": ("Jet3", "compose", "pre_schwarzian", "scale", "schwarzian"),
    "maps": (
        "AnalyticMap", "cayley_map", "compose_maps", "identity_map",
        "image_boundary_distance", "koebe_map", "log_slit_map",
        "make_catalog_map", "mobius_map", "parse_map_spec", "power_map",
        "punctured_disk_covering_map", "pushforward_density",
    ),
    "metrics": (
        "Polyline", "SolverConfig", "hyperbolic_distance", "path_quadrature",
        "quasihyperbolic_distance", "quasihyperbolic_distance_detailed",
    ),
    "verify": (
        "BOUND_KINDS", "BoundReport", "SampleSet", "check_composition_laws",
        "check_covering_identity", "check_distance_comparison",
        "check_log_construction", "check_pointwise_bounds",
        "distortion_ratio", "estimate_uniformity_constant",
        "punctured_disk_ratio",
    ),
}
# public name -> its module
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, or a submodule, imported on first use and kept."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
