"""Hyperbolic and quasihyperbolic metrics on planar hyperbolic regions.

Exact order-3 jet arithmetic for analytic maps, closed-form and pullback
hyperbolic densities, quasihyperbolic geodesics via graph search plus path
relaxation, and sampling-based verification of the sharp distortion bounds
linking density, boundary distance and the (pre-)Schwarzian.
"""

from .domains import (
    Domain,
    boundary_distance,
    contains,
    hyperbolic_density,
    image_boundary_distance,
    koebe_slit_plane,
    log_strip,
    punctured_disk,
    pushforward_density,
    slit_disk,
    unit_disk,
    upper_half_plane,
)
from .errors import (
    ConformalMetricsError,
    IncompatibleCompositionError,
    InvalidParameterError,
    MapNotUnivalentError,
    NoDensityRouteError,
    NoGridPathError,
    NotLocallyUnivalentError,
    OutsideDomainError,
    SingularPointError,
)
from .jets import Jet3, compose, pre_schwarzian, scale, schwarzian
from .maps import (
    AnalyticMap,
    cayley_map,
    compose_maps,
    identity_map,
    koebe_map,
    log_slit_map,
    make_catalog_map,
    mobius_map,
    parse_map_spec,
    power_map,
    punctured_disk_covering_map,
)
from .metrics import (
    Polyline,
    SolverConfig,
    hyperbolic_distance_disk,
    path_quadrature,
    quasihyperbolic_distance,
    quasihyperbolic_distance_detailed,
)
from .verify import (
    BOUND_KINDS,
    BoundReport,
    SampleSet,
    check_composition_laws,
    check_covering_identity,
    check_distance_comparison,
    check_log_construction,
    check_pointwise_bounds,
    distortion_ratio,
    estimate_uniformity_constant,
    punctured_disk_ratio,
)

__version__ = "0.1.0"
