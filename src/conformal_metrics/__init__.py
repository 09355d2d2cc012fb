"""Hyperbolic and quasihyperbolic metrics on planar hyperbolic regions.

Exact order-3 jet arithmetic for analytic maps, hyperbolic densities and
distances pulled back from the half-plane, quasihyperbolic geodesics by
relaxing the hyperbolic geodesic, and sampling-based verification of the
sharp distortion bounds linking density, delta and the (pre-)Schwarzian.
"""

from .domains import (
    Domain,
    boundary_distance,
    contains,
    hyperbolic_density,
    koebe_slit_plane,
    log_strip,
    punctured_disk,
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
    NotLocallyUnivalentError,
    OutsideDomainError,
    QuadratureError,
    SingularPointError,
)
from .jets import Jet3, compose, pre_schwarzian, scale, schwarzian
from .maps import (
    AnalyticMap,
    cayley_map,
    compose_maps,
    identity_map,
    image_boundary_distance,
    koebe_map,
    log_slit_map,
    make_catalog_map,
    mobius_map,
    parse_map_spec,
    power_map,
    punctured_disk_covering_map,
    pushforward_density,
)
from .metrics import (
    Polyline,
    SolverConfig,
    hyperbolic_distance,
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
