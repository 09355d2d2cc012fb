import math
import time

import numpy as np
import pytest

from conformal_metrics import (
    NoGridPathError,
    OutsideDomainError,
    Polyline,
    SolverConfig,
    hyperbolic_distance_disk,
    koebe_slit_plane,
    mobius_map,
    path_quadrature,
    punctured_disk,
    quasihyperbolic_distance,
    quasihyperbolic_distance_detailed,
    unit_disk,
    upper_half_plane,
)


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline([0])
    with pytest.raises(ValueError):
        Polyline([0, 0, 1])
    p = Polyline([0, 1, 1 + 1j])
    assert p.length() == pytest.approx(2.0)


def test_hyperbolic_distance_disk_closed_form():
    # atanh(0.5) with the curvature -4 normalization
    assert hyperbolic_distance_disk(0, 0.5) == pytest.approx(
        0.549306144, abs=1e-9
    )
    with pytest.raises(OutsideDomainError):
        hyperbolic_distance_disk(0, 1.5)


def test_hyperbolic_distance_mobius_invariance():
    m = mobius_map(0.3, 1.2)
    z1, z2 = 0.1 + 0.2j, -0.4j
    assert hyperbolic_distance_disk(m.value(z1), m.value(z2)) == pytest.approx(
        hyperbolic_distance_disk(z1, z2), rel=1e-12
    )


def test_quadrature_radial_quasihyperbolic():
    # int_0^{1/2} dt/(1-t) = log 2 along the radial segment in the disk
    path = Polyline(np.linspace(0, 0.5, 33))
    v = path_quadrature("quasihyperbolic", unit_disk(), path)
    assert v == pytest.approx(math.log(2), rel=1e-10)


def test_quadrature_radial_hyperbolic():
    # int_0^{1/2} dt/(1-t^2) = atanh(1/2)
    path = Polyline(np.linspace(0, 0.5, 33))
    v = path_quadrature("hyperbolic", unit_disk(), path)
    assert v == pytest.approx(math.atanh(0.5), rel=1e-9)


def test_quadrature_rejects_exiting_path():
    with pytest.raises(OutsideDomainError):
        path_quadrature("quasihyperbolic", unit_disk(), Polyline([0, 2.0]))


def test_solver_disk_radial():
    t0 = time.time()
    v, geo, hist = quasihyperbolic_distance_detailed(unit_disk(), 0, 0.5)
    assert time.time() - t0 < 5.0
    assert v == pytest.approx(math.log(2), abs=1e-4)
    assert geo is not None
    assert all(a >= b - 1e-15 for a, b in zip(hist, hist[1:]))


def test_solver_punctured_disk_radial():
    v, _ = quasihyperbolic_distance(punctured_disk(), 0.25, 0.5)
    # delta = |z| on [1/4, 1/2]: the straight segment integrates to log 2
    assert v == pytest.approx(math.log(2), abs=1e-3)


def test_solver_half_plane_vertical():
    v, _ = quasihyperbolic_distance(upper_half_plane(), 1j, 2j)
    assert v == pytest.approx(math.log(2), abs=1e-3)


def test_solver_koebe_slit_segment():
    # delta(t) = t + 1/4 on the positive axis: log(1.25/0.5)
    v, _ = quasihyperbolic_distance(koebe_slit_plane(), 0.25, 1.0)
    assert v == pytest.approx(math.log(2.5), abs=1e-3)


def test_solver_routes_around_puncture():
    v, geo = quasihyperbolic_distance(punctured_disk(), -0.3, 0.3)
    assert v > 3.0  # the straight chord passes through the puncture

    assert all(p != 0 for p in geo.points)


def test_solver_coincident_endpoints():
    v, geo = quasihyperbolic_distance(unit_disk(), 0.3, 0.3)
    assert v == 0.0 and geo is None


def test_solver_symmetry():
    a, _ = quasihyperbolic_distance(unit_disk(), 0.2, 0.5j)
    b, _ = quasihyperbolic_distance(unit_disk(), 0.5j, 0.2)
    assert a == pytest.approx(b, rel=1e-4)


def test_solver_triangle_inequality():
    z1, z2, z3 = -0.2, 0.4j, 0.5
    d12, _ = quasihyperbolic_distance(unit_disk(), z1, z2)
    d23, _ = quasihyperbolic_distance(unit_disk(), z2, z3)
    d13, _ = quasihyperbolic_distance(unit_disk(), z1, z3)
    assert d13 <= d12 + d23 + 1e-6


def test_solver_rejects_outside_endpoint():
    with pytest.raises(OutsideDomainError):
        quasihyperbolic_distance(unit_disk(), 0, 1.5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_resolution=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=2.0)


def test_geodesic_value_not_above_grid_value():
    cfg = SolverConfig(relax_iterations=1)
    v1, _, h1 = quasihyperbolic_distance_detailed(unit_disk(), 0.9, 0.9j, cfg)
    v2, _, h2 = quasihyperbolic_distance_detailed(unit_disk(), 0.9, 0.9j)
    assert v2 <= h2[0] + 1e-12    # relaxed below the initial grid path
    assert v2 <= v1 + 1e-9        # more iterations never hurt
