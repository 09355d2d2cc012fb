import cmath
import math
import random
import time

import numpy as np
import pytest

from conformal_metrics import (
    OutsideDomainError,
    Polyline,
    SingularPointError,
    SolverConfig,
    cayley_map,
    hyperbolic_distance,
    koebe_map,
    koebe_slit_plane,
    log_slit_map,
    log_strip,
    mobius_map,
    path_quadrature,
    punctured_disk,
    quasihyperbolic_distance,
    quasihyperbolic_distance_detailed,
    slit_disk,
    unit_disk,
    upper_half_plane,
)
from conformal_metrics import metrics


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline([0])
    with pytest.raises(ValueError):
        Polyline([0, 0, 1])
    assert Polyline([0, 1, 1 + 1j]).points == (0, 1, 1 + 1j)


def test_hyperbolic_distance_disk_closed_form():
    # atanh(0.5) with the curvature -4 normalization
    assert hyperbolic_distance(unit_disk(), 0, 0.5) == pytest.approx(
        0.549306144, abs=1e-9
    )
    with pytest.raises(OutsideDomainError):
        hyperbolic_distance(unit_disk(), 0, 1.5)


def test_hyperbolic_distance_needs_simply_connected_domain():
    with pytest.raises(ValueError, match="simply connected"):
        hyperbolic_distance(punctured_disk(), 0.25, 0.5)


def test_hyperbolic_distance_beyond_float_range_raises():
    # the log strip's psi = -i sinh(z/2) overflows for Re z < -1420
    with pytest.raises(SingularPointError, match="not a finite float"):
        hyperbolic_distance(log_strip(1), -1500, -1501)


def test_hyperbolic_distance_mobius_invariance():
    m = mobius_map(0.3, 1.2)
    z1, z2 = 0.1 + 0.2j, -0.4j
    D = unit_disk()
    assert hyperbolic_distance(D, m.value(z1), m.value(z2)) == pytest.approx(
        hyperbolic_distance(D, z1, z2), rel=1e-12
    )


def test_hyperbolic_distance_disk_diameters():
    # h(r, -r) = log((1+r)/(1-r)), down to 1e-15 from the circle
    for k in range(1, 16):
        r = 1 - 10.0 ** -k
        assert hyperbolic_distance(unit_disk(), r, -r) == pytest.approx(
            math.log((1 + r) / (1 - r)), rel=1e-12, abs=0), k


def test_hyperbolic_distance_conformal_invariance():
    # conformal maps carry h unchanged: the Cayley and Koebe maps from the
    # disk, and Log from the slit disk onto the log strip
    rng = random.Random(5)
    for _ in range(200):
        z1, z2 = (cmath.rect(0.95 * math.sqrt(rng.random()),
                             rng.uniform(-math.pi, math.pi)) for _ in range(2))
        for f, D in ((cayley_map(), upper_half_plane()),
                     (koebe_map(), koebe_slit_plane()),
                     (log_slit_map(0, 1), log_strip(1))):
            h = hyperbolic_distance(f.base_domain, z1, z2)
            assert hyperbolic_distance(D, f.value(z1), f.value(z2)) == (
                pytest.approx(h, rel=1e-12, abs=0))


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
    for field in ("grid_resolution", "path_nodes"):
        with pytest.raises(ValueError, match=f"{field} must be at least 2"):
            SolverConfig(**{field: 1})
        assert getattr(SolverConfig(**{field: 2}), field) == 2
    with pytest.raises(ValueError):
        SolverConfig(tolerance=2.0)


def test_geodesic_value_not_above_grid_value():
    cfg = SolverConfig(relax_iterations=1)
    v1, _, h1 = quasihyperbolic_distance_detailed(unit_disk(), 0.9, 0.9j, cfg)
    v2, _, h2 = quasihyperbolic_distance_detailed(unit_disk(), 0.9, 0.9j)
    assert v2 <= h2[0] + 1e-12    # relaxed below the initial grid path
    assert v2 <= v1 + 1e-9        # more iterations never hurt


def _resample_loop(p, m):
    """The solver's resampling as one Python step per target."""
    seg = np.abs(np.diff(p))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0:
        return p
    targets = np.linspace(0.0, s[-1], m)
    out = np.empty(m, dtype=complex)
    j = 0
    for i, tv in enumerate(targets):
        while j < len(seg) - 1 and s[j + 1] < tv:
            j += 1
        frac = 0.0 if seg[j] == 0 else (tv - s[j]) / seg[j]
        out[i] = p[j] + frac * (p[j + 1] - p[j])
    out[0], out[-1] = p[0], p[-1]
    keep = np.concatenate([[True], np.abs(np.diff(out)) > 1e-15])
    return out[keep]


@pytest.mark.parametrize("m", [2, 3, 128])
def test_resample_matches_the_loop(m):
    rng = np.random.default_rng(m)
    for n in (2, 3, 9, 40):
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        # repeated points give zero-length segments
        p = np.repeat(p, rng.integers(1, 4, size=n))
        got, want = metrics._resample(p, m), _resample_loop(p, m)
        assert got.tobytes() == want.tobytes()
    # targets on nodes: a tie goes to the segment that ends there
    p = np.repeat(0.1 + 0.1j + 0.1 * np.arange(m), 2)
    assert metrics._resample(p, m).tobytes() == _resample_loop(p, m).tobytes()
    same = np.full(5, 0.3 + 0.1j)
    assert metrics._resample(same, m).tobytes() == same.tobytes()


# ---------------------------------------------------------------------------
# solver exactness: the stacked quadrature, the graph cache and the
# relaxation reproduce the straightforward construction bit for bit

_GRID_CASES = [
    (unit_disk(), 0.5 + 0.5j, -0.3 + 0.6j),
    (punctured_disk(), 0.7, -0.7),
    (slit_disk(0.25 + 0.125j), -0.25 + 0.225j, -0.25 + 0.025j),
    (upper_half_plane(), 0.5 + 1j, 3 + 0.2j),
    (koebe_slit_plane(), -2 + 0.5j, -2 - 0.5j),
    (log_strip(1), -1 + 2j, -1 - 2j),
]


def test_stacked_segment_costs_equal_separate_calls():
    weight = metrics._weight_fn("quasihyperbolic", unit_disk())
    rng = np.random.default_rng(3)
    for m in (1, 2, 127):
        a, b = (0.6 * (rng.random((4, m)) - 0.5)
                + 0.6j * (rng.random((4, m)) - 0.5) for _ in range(2))
        got = metrics._segment_costs(weight, a, b, 16)
        for i in range(4):
            want = metrics._segment_costs(weight, a[i], b[i], 16)
            assert got[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("D, z1, z2", _GRID_CASES[:2],
                         ids=[D.kind for D, _, _ in _GRID_CASES[:2]])
def test_warm_graph_cache_gives_the_cold_solve(D, z1, z2):
    cache = metrics._bounded_grid_graph
    cache.cache_clear()
    cold = quasihyperbolic_distance_detailed(D, z1, z2)
    hits = cache.cache_info().hits
    quasihyperbolic_distance_detailed(D, -0.1 + 0.2j, 0.3 - 0.4j)
    warm = quasihyperbolic_distance_detailed(D, z1, z2)
    assert cache.cache_info().hits == hits + 2
    assert warm[0] == cold[0]
    assert warm[1].points == cold[1].points
    assert warm[2] == cold[2]
    # another resolution takes the one entry over
    quasihyperbolic_distance_detailed(D, z1, z2, SolverConfig(grid_resolution=50))
    assert cache.cache_info().currsize == 1


def _relax_reference(D, p, cfg):
    """The relaxation with one quadrature call per perturbed path and one
    banded solve per right-hand side."""
    from scipy.linalg import solve_banded

    weight = metrics._weight_fn("quasihyperbolic", D)
    panels = cfg.quad_panels_per_segment

    def costs(q):
        return metrics._segment_costs(weight, q[:-1], q[1:], panels)

    h = 1e-7 * max(1.0, float(np.max(np.abs(np.diff(p)))))
    lr, f_cur = 1.0, float(np.sum(costs(p)))
    history = [f_cur]
    for _ in range(cfg.relax_iterations):
        a, b = p[:-1], p[1:]
        c0 = costs(p)
        clx, crx, cly, cry = (
            metrics._segment_costs(weight, a + h, b, panels),
            metrics._segment_costs(weight, a, b + h, panels),
            metrics._segment_costs(weight, a + 1j * h, b, panels),
            metrics._segment_costs(weight, a, b + 1j * h, panels))
        g = ((crx[:-1] - c0[:-1] + clx[1:] - c0[1:]) / h
             + 1j * ((cry[:-1] - c0[:-1] + cly[1:] - c0[1:]) / h))
        if not np.any(np.abs(g) > 0):
            break
        k = c0 / np.abs(b - a) ** 2
        band = np.zeros((3, len(p) - 2))
        band[1] = k[:-1] + k[1:]
        band[0, 1:] = -k[1:-1]
        band[2, :-1] = -k[1:-1]
        g = (solve_banded((1, 1), band, g.real)
             + 1j * solve_banded((1, 1), band, g.imag))
        cap = cfg.relax_step * metrics.domains.delta_vec(D, p[1:-1])
        accepted = False
        while lr > 1e-14:
            disp = -g * lr
            mag = np.abs(disp)
            over = mag > cap
            disp[over] *= cap[over] / mag[over]
            trial = p.copy()
            trial[1:-1] = p[1:-1] + disp
            if np.all(metrics.domains.contains_vec(D, trial[1:-1])) and np.all(
                    metrics.domains.delta_vec(D, trial[1:-1]) > 1e-12):
                f_new = float(np.sum(costs(trial)))
                if f_new < f_cur:
                    p, f_cur, accepted = trial, f_new, True
                    lr = min(lr * 1.5, 1.0)
                    break
            lr *= 0.5
        history.append(f_cur)
        if not accepted or (history[-2] - history[-1]
                            < cfg.tolerance * max(f_cur, 1e-300)):
            break
    return p, history


@pytest.mark.parametrize("D, z1, z2", _GRID_CASES,
                         ids=[D.kind for D, _, _ in _GRID_CASES])
def test_relax_matches_the_reference(D, z1, z2):
    cfg = SolverConfig()
    p = metrics._resample(metrics._grid_dijkstra(D, z1, z2, cfg), 32)
    got, want = metrics._relax(D, p, cfg), _relax_reference(D, p, cfg)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]


def test_three_node_path_relaxes_through_the_one_node_solve():
    # one interior node: the banded system is 1 x 1
    D, cfg = unit_disk(), SolverConfig()
    p = np.array([-0.5, 0.3j, 0.5])
    got, hist = metrics._relax(D, p, cfg)
    assert len(hist) > 2 and hist[-1] < hist[0]
    assert abs(got[1]) < 0.3      # pulled towards the diameter
    want = _relax_reference(D, p, cfg)
    assert got.tobytes() == want[0].tobytes() and hist == want[1]


# k and the length of the objective history, as the solver gave them before
# its speed-up; any change to the solver's numerics shows here
_GOLDEN = [
    ("disk", unit_disk(), 0.5 + 0.5j, -0.3 + 0.6j, 1.8740684193388202, 5),
    ("pdisk", punctured_disk(), 0.7, -0.7, 3.86798033220328, 17),
    ("uhp", upper_half_plane(), 0.5 + 1j, 3 + 0.2j, 3.5952369910059314, 6),
    ("uhp rho=1e2", upper_half_plane(), 0.001j, 0.2 + 0.001j,
     10.59697652269446, 7),
    ("koebe", koebe_slit_plane(), -2 + 0.5j, -2 - 0.5j, 7.080322440853682, 70),
    ("slit-disk", slit_disk(0.25 + 0.125j), 0.25 + 0.125j + (-0.5 + 0.1j),
     0.25 + 0.125j + (-0.5 - 0.1j), 7.767839088643846, 12),
    ("log-strip", log_strip(1), -1 + 2j, -1 - 2j, 2.8875708919571683, 9),
]


@pytest.mark.parametrize("name, D, z1, z2, k, iterations", _GOLDEN,
                         ids=[g[0] for g in _GOLDEN])
def test_solver_golden_values(name, D, z1, z2, k, iterations):
    value, _, history = quasihyperbolic_distance_detailed(D, z1, z2)
    assert value == pytest.approx(k, rel=1e-12, abs=0)
    assert len(history) == iterations
