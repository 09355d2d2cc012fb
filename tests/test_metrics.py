import cmath
import dataclasses
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from conformal_metrics import QuadratureError, domains, metrics

import grid_reference as grid


def test_polyline_validation():
    # a list and an array raise the same errors
    for points in ([0], np.array([0j])):
        with pytest.raises(ValueError, match="at least 2 points"):
            Polyline(points)
    for points in ([0, 0, 1], np.array([0, 1, 1], dtype=complex),
                   np.array([1j, 0.5, -0.0 + 0.5])):
        with pytest.raises(ValueError, match="must be distinct"):
            Polyline(points)
    assert Polyline([0, 1, 1 + 1j]).points == (0, 1, 1 + 1j)
    points = Polyline(np.array([0, 1, 1 + 1j])).points
    assert points == (0, 1, 1 + 1j)
    assert all(type(z) is complex for z in points)


def test_hyperbolic_distance_disk_closed_form():
    # atanh(0.5) with the curvature -4 normalization
    assert hyperbolic_distance(unit_disk(), 0, 0.5) == pytest.approx(
        0.549306144, abs=1e-9
    )
    with pytest.raises(OutsideDomainError):
        hyperbolic_distance(unit_disk(), 0, 1.5)


def test_hyperbolic_distance_on_the_punctured_disk_has_its_density():
    # h is lambda |dz| over a short step, lambda at its midpoint, in every
    # direction and across psi's branch cut, the negative axis
    D, dz = punctured_disk(), 1e-7
    rng = random.Random(11)
    starts = [(-0.5, 1j), (complex(-0.3, 5e-8), -1j), (0.2j, 1), (0.01, 1j)]
    for _ in range(50):
        starts.append((cmath.rect(rng.uniform(0.01, 0.99),
                                  rng.uniform(-math.pi, math.pi)),
                       cmath.exp(1j * rng.uniform(-math.pi, math.pi))))
    for z, direction in starts:
        step = dz * direction
        h = hyperbolic_distance(D, z, z + step)
        lam = domains.hyperbolic_density(D, z + step / 2)
        assert h / dz == pytest.approx(lam, rel=1e-6), z


# the benchmark's punctured-disk pairs
_PDISK_PAIRS = [(0.25, 0.5), (0.3, -0.2), (0.1j, 0.4),
                (cmath.rect(0.05, 1.0), cmath.rect(0.45, 2.5)),
                (cmath.rect(0.02, 0.3), cmath.rect(0.5, 0.3)),
                (0.7, -0.7), (0.2 + 0.7j, -0.1 - 0.8j)]


@pytest.mark.parametrize("z1, z2", _PDISK_PAIRS)
def test_hyperbolic_distance_on_the_punctured_disk_is_below_k(z1, z2):
    # lambda <= 1/delta, integrated
    D = punctured_disk()
    k, _ = quasihyperbolic_distance(D, z1, z2)
    assert hyperbolic_distance(D, z1, z2) <= k


def test_hyperbolic_distance_on_the_punctured_disk_is_a_metric():
    D = punctured_disk()
    rng = random.Random(12)
    for _ in range(200):
        a, b, c = (cmath.rect(rng.uniform(0.001, 0.999),
                              rng.uniform(-math.pi, math.pi))
                   for _ in range(3))
        ab, bc, ac = (hyperbolic_distance(D, *p) for p in ((a, b), (b, c),
                                                            (a, c)))
        assert ab == hyperbolic_distance(D, b, a)
        assert ac <= (ab + bc) * (1 + 1e-12)


def test_hyperbolic_distance_beyond_float_range_raises():
    # |w1 - w2| / (2 sqrt(Im w1 Im w2)) = 1e300 / 2e-150 overflows
    with pytest.raises(SingularPointError, match="not a finite float"):
        hyperbolic_distance(upper_half_plane(), 1e-300j, 1e300 + 1j)


@pytest.mark.parametrize("x", [-1500.0, -1e5])
def test_log_strip_far_from_its_tip(x):
    # psi = -i sinh(z/2) overflows for Re z < -1420; the strip is a
    # half-plane there, lambda = 1/4 and h(x, x - 1) = 1/4
    assert domains.hyperbolic_density(log_strip(1), x) == pytest.approx(
        0.25, rel=1e-12)
    assert hyperbolic_distance(log_strip(1), x, x - 1) == pytest.approx(
        0.25, rel=1e-12)
    assert hyperbolic_distance(log_strip(1), x + 2j, x - 2j) == (
        pytest.approx(hyperbolic_distance(log_strip(1), -100 + 2j,
                                          -100 - 2j), rel=1e-12))


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
    # both ends inside, the segment across the slit
    with pytest.raises(OutsideDomainError, match="meets the boundary"):
        path_quadrature("quasihyperbolic", koebe_slit_plane(),
                        Polyline([-1 + 1j, -1 - 1j]))


@pytest.mark.parametrize("D, path", [
    (upper_half_plane(), [1e-6j, 1j]),
    (unit_disk(), [0, 1 - 1e-6]),
], ids=["uhp", "disk"])
def test_quadrature_of_one_segment_over_six_decades(D, path):
    # delta runs from 1e-6 to 1 along one segment: log 1e6
    v = path_quadrature("quasihyperbolic", D, Polyline(path))
    assert v == pytest.approx(math.log(1e6), rel=1e-9)


@pytest.mark.parametrize("D, path, want", [
    # delta = min(|z|, 1 - |z|) changes pieces at |z| = 1/2
    (punctured_disk(), [0.25, 0.75], 2 * math.log(2)),
    (punctured_disk(), [0.3, 0.9], math.log(5 / 3) + math.log(5)),
    # 1 - |z| is not analytic at the centre of the disk
    (unit_disk(), [-0.5, 0.5], 2 * math.log(2)),
    (unit_disk(), [-0.5, 0.3], math.log(2) + math.log(1 / 0.7)),
    # the nearest boundary point leaves the slit's tip at Re z = -1/4
    (koebe_slit_plane(), [-1 + 0.5j, 1 + 0.5j], 1.5 + math.asinh(2.5)),
    # the end of the strip is nearest while |Im z| < pi - 3/2
    (log_strip(1), [-1.5 - 2j, -1.5 + 2j],
     2 * (math.pi - 1.5) / 1.5 + 2 * math.log(1.5 / (math.pi - 2))),
], ids=["pdisk-mid", "pdisk", "disk-centre", "disk", "koebe", "log-strip"])
def test_quadrature_across_kinks_of_delta(D, path, want):
    v = path_quadrature("quasihyperbolic", D, Polyline(path))
    assert v == pytest.approx(want, rel=1e-10)


def test_quadrature_raises_rather_than_return_an_unconverged_value():
    path = Polyline([1e-6j, 1j])
    with pytest.raises(QuadratureError, match="not converged"):
        path_quadrature("quasihyperbolic", upper_half_plane(), path,
                        tol=1e-16)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_quadrature_rejects_a_tolerance_that_is_not_a_number_at_least_0(tol):
    with pytest.raises(ValueError, match="tol"):
        path_quadrature("quasihyperbolic", unit_disk(), Polyline([0, 0.5]),
                        tol=tol)


@pytest.mark.parametrize("tol", [0.0, 1e-16, 0.99 * metrics._TOL_FLOOR])
def test_quadrature_below_the_rounding_floor_raises_at_once(tol,
                                                              monkeypatch):
    # no bisection is tried: the estimate is never evaluated
    def kronrod(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(metrics, "_kronrod", kronrod)
    with pytest.raises(QuadratureError, match="rounding floor"):
        path_quadrature("quasihyperbolic", unit_disk(), Polyline([0, 0.5]),
                        tol=tol)


# a segment whose one piece at c has the least piece of delta "circle" at
# both ends and the midpoint, but the slit's side between t = 0.008 and
# t = 0.448
_KINKED = -0.125 - 0.625j
_HIDDEN_KINK = (slit_disk(_KINKED), Polyline(
    [_KINKED - 0.03259 + 0.49947j, _KINKED - 0.00816 + 0.50013j]))


@pytest.mark.parametrize("limit, value", [("_MIN_WIDTH", 1.0),
                                          ("_MAX_PIECES", 1)])
def test_quadrature_raises_where_halving_reaches_its_limits(limit, value,
                                                            monkeypatch):
    # the hidden-kink segment's estimate fails on its one piece, and no
    # piece may be halved
    monkeypatch.setattr(metrics, limit, value)
    with pytest.raises(QuadratureError, match="error estimate"):
        path_quadrature("quasihyperbolic", *_HIDDEN_KINK)


def test_kronrod_rule_extends_gl4_and_is_exact_through_degree_13():
    nodes, weights = metrics._K9_NODES, metrics._K9_WEIGHTS
    assert np.all(np.diff(nodes) > 0)
    assert nodes[1::2].tobytes() == metrics._GL_NODES.tobytes()
    np.testing.assert_array_equal(
        metrics._K9_LESS_GL4[1::2], weights[1::2] - metrics._GL_WEIGHTS)
    np.testing.assert_array_equal(metrics._K9_LESS_GL4[::2], weights[::2])
    for d in range(14):
        assert np.sum(weights * nodes ** d) == pytest.approx(
            1 / (d + 1), rel=0, abs=1e-14)
    assert abs(np.sum(weights * nodes ** 14) - 1 / 15) > 1e-12


_QUADRATURE_DOMAINS = [unit_disk(), punctured_disk(), upper_half_plane(),
                       koebe_slit_plane(), slit_disk(0.25 + 0.125j),
                       log_strip(1), log_strip(0.5 + 2j)]


@st.composite
def _segments(draw):
    """A domain and the ends of a segment in it: psi^-1 of half-plane points
    at heights over four decades; or, in the slit disk, a chord next to its
    circle, or one beside its slit."""
    route = draw(st.sampled_from(["psi", "circle", "slit"]))
    if route == "psi":
        D = draw(st.sampled_from(_QUADRATURE_DOMAINS))
        w = [complex(draw(st.floats(-3, 3)), 10 ** draw(st.floats(-3, 1)))
             for _ in range(2)]
        z = domains.entry(D).psi_inv(np.array(w), *D.params)
        return D, z
    D = _QUADRATURE_DOMAINS[4]
    (c,) = D.params
    if route == "circle":
        theta = draw(st.floats(-3, 3))
        u = [(1 - 10 ** draw(st.floats(-4, -1))) * cmath.exp(1j * t)
             for t in (theta, theta + draw(st.floats(-0.3, 0.3)))]
    else:
        side = draw(st.sampled_from([1, -1]))
        u = [complex(draw(st.floats(-0.95, 0.3)),
                     side * 10 ** draw(st.floats(-3, -1))) for _ in range(2)]
    return D, c + np.array(u)


@settings(max_examples=150, deadline=None)
@given(_segments())
def test_quadrature_of_random_segments_against_a_fine_grading(segment):
    # K9 on the pieces at c, certified to 1e-10, against GL4 graded from
    # scratch at c/64
    D, p = segment
    assume(p[0] != p[1] and np.all(domains.delta_vec(D, p) > 0))
    grading, resolved, _ = metrics._grade(D, p, metrics._PIECE_C / 64)
    assume(resolved)
    want = np.sum(metrics._segment_costs(D, p, grading)[0])
    v = path_quadrature("quasihyperbolic", D, Polyline(p))
    assert v == pytest.approx(want, rel=1e-10, abs=0)


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
    # the endpoints are read through the scalar API's checked kernel
    with pytest.raises(OutsideDomainError) as exc:
        quasihyperbolic_distance(unit_disk(), 2, 0)
    assert str(exc.value) == (
        "(2+0j) is not an interior point of Domain(unit_disk)")


def test_two_node_solve_across_the_puncture_raises():
    # the chord through 0 meets the boundary: the start's grading does not
    # resolve, and no gradient is taken on it
    with pytest.raises(OutsideDomainError,
                       match="path meets the boundary of the domain"):
        quasihyperbolic_distance(punctured_disk(), 0.5, -0.5,
                                 SolverConfig(path_nodes=2))


def test_two_node_solve_is_the_chord():
    # the vertical chord is the half-plane's geodesic: k = log 4, and a path
    # with no interior node has nothing to relax
    k, path, history = quasihyperbolic_distance_detailed(
        upper_half_plane(), 1j, 4j, SolverConfig(path_nodes=2))
    assert k == pytest.approx(math.log(4), rel=1e-9)
    assert path.points == (1j, 4j)
    assert len(history) == 1


def test_solver_config_validation():
    with pytest.raises(ValueError, match="path_nodes must be at least 2"):
        SolverConfig(path_nodes=1)
    assert SolverConfig(path_nodes=2).path_nodes == 2
    with pytest.raises(ValueError, match="solver parameters must be positive"):
        SolverConfig(relax_iterations=0)
    for tolerance in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="bad tolerance"):
            SolverConfig(tolerance=tolerance)


def test_geodesic_value_not_above_grid_value():
    cfg = SolverConfig(relax_iterations=1)
    v1, _, h1 = quasihyperbolic_distance_detailed(unit_disk(), 0.9, 0.9j, cfg)
    v2, _, h2 = quasihyperbolic_distance_detailed(unit_disk(), 0.9, 0.9j)
    assert v2 <= h2[0] + 1e-12    # relaxed below the initial path
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
    keep = [0] + [i for i in range(1, m) if abs(out[i] - out[i - 1]) > 1e-15]
    if keep[-1] != m - 1:
        keep = [i for i in keep
                if i == 0 or abs(out[i] - out[-1]) > 1e-15] + [m - 1]
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
    # nodes closer than 1e-15 go, but never the end
    for gap in (1e-13, 1e-16):
        short = 0.3 + np.array([0, 0.4 * gap, gap], dtype=complex)
        got = metrics._resample(short, m)
        assert got.tobytes() == _resample_loop(short, m).tobytes()
        assert got[0] == short[0] and got[-1] == short[-1]


def test_resample_targets_are_those_of_linspace():
    # random node counts and path lengths over the float range
    rng = np.random.default_rng(20000)
    for _ in range(20000):
        m = int(rng.integers(2, 601))
        length = 10.0 ** rng.uniform(-300, 300) * rng.uniform(1, 10)
        assert (metrics._spaced(length, m).tobytes()
                == np.linspace(0.0, length, m).tobytes())


@pytest.mark.parametrize("gap", [1e-13, 1e-15])
def test_solver_keeps_both_ends_of_a_very_short_pair(gap):
    # k tends to |z1 - z2| / delta(z1) as z2 nears z1
    z2 = 0.3 + gap
    k, path = quasihyperbolic_distance(unit_disk(), 0.3, z2)
    assert path.points[0] == 0.3 and path.points[-1] == z2
    assert k / abs(z2 - 0.3) == pytest.approx(1 / 0.7, abs=1e-4)


# ---------------------------------------------------------------------------
# solver exactness: the start path, the grading, the node gradient, the
# test reference's grid graph and its cache, and the banded solve reproduce
# the straightforward construction

_CASES = [
    (unit_disk(), 0.5 + 0.5j, -0.3 + 0.6j),
    (punctured_disk(), 0.7, -0.7),
    (slit_disk(0.25 + 0.125j), -0.25 + 0.225j, -0.25 + 0.025j),
    (upper_half_plane(), 0.5 + 1j, 3 + 0.2j),
    (koebe_slit_plane(), -2 + 0.5j, -2 - 0.5j),
    (log_strip(1), -1 + 2j, -1 - 2j),
]
_IDS = [D.kind for D, _, _ in _CASES]


def _initial_path(D, z1, z2, m=128):
    (w1, w2), *_ = metrics._lifts(D, z1, z2)
    return metrics._geodesic_start(D, z1, z2, w1, w2, m)


@pytest.mark.parametrize("D, z1, z2", _CASES + [
    (upper_half_plane(), 0.001j, 200 + 0.001j),
    (unit_disk(), cmath.rect(1 - 1e-6, 0.3), cmath.rect(1 - 1e-6, 3.4)),
    (koebe_slit_plane(), -1 + 0.01j, -1 - 0.01j),
    (log_strip(1), -1500 + 0j, -1501 + 0j)],
    ids=_IDS + ["uhp-rho", "disk-diameter", "koebe-tip", "log-strip-far"])
def test_start_path_is_the_hyperbolic_geodesic(D, z1, z2):
    # 128 points from z1 to z2 whose hyperbolic length is h; far from the
    # log strip's end psi is scaled, and the segment, there the geodesic,
    # starts
    p = _initial_path(D, z1, z2)
    assert (p[0], p[-1]) == (z1, z2) and len(p) == 128
    length = path_quadrature("hyperbolic", D, Polyline(p), tol=1e-8)
    assert length == pytest.approx(hyperbolic_distance(D, z1, z2), rel=1e-3)


def _moved(D, p, seed=5):
    """p with each interior node moved by up to delta/20 in each
    coordinate."""
    d = domains.delta_vec(D, p)
    rng = np.random.default_rng(seed)
    q = p.copy()
    q[1:-1] += 0.1 * d[1:-1] * (rng.random(len(p) - 2) - 0.5
                                + 1j * (rng.random(len(p) - 2) - 0.5))
    return q


@pytest.mark.parametrize("D, z1, z2", _CASES + [
    (upper_half_plane(), 0.001j, 10 + 0.001j)], ids=_IDS + ["uhp-rho"])
def test_grade_bounds_every_piece(D, z1, z2):
    # from scratch at c and at c/4; refined from the c grading through c/2
    # down to c/4; and the re-spaced path of a moved path, started from its
    # parent's pieces, as the relaxation grades it
    c = metrics._PIECE_C
    p = _initial_path(D, z1, z2)
    parent = _moved(D, p)
    q = metrics._resample(parent, len(parent))
    assert len(q) == len(parent)
    _, _, coarse = metrics._grade(D, p, c)
    _, _, half = metrics._grade(D, p, c / 2, coarse)
    gradings = [(p, c, None), (p, c / 4, None), (p, c / 4, half),
                (q, c, metrics._grade(D, parent, c)[2])]
    for path, cc, seed in gradings:
        rule, resolved, (seg, lo, width) = metrics._grade(D, path, cc, seed)
        assert resolved
        # the rule is GL4 on the pieces
        t, w, rule_seg, starts = rule
        k = metrics._GL_NODES.size
        assert np.array_equal(t, (lo[:, None] + width[:, None]
                                  * metrics._GL_NODES).ravel())
        assert np.array_equal(w, (width[:, None]
                                  * metrics._GL_WEIGHTS).ravel())
        assert np.array_equal(rule_seg, np.repeat(seg, k))
        assert np.array_equal(starts, k * np.searchsorted(
            seg, np.arange(len(path) - 1)))
        # the pieces tile each segment in order, and a refinement keeps
        # every piece end of its seed
        assert np.array_equal(np.unique(seg), np.arange(len(path) - 1))
        assert np.all(np.diff(seg) >= 0)
        np.testing.assert_allclose(np.bincount(seg, weights=width), 1.0,
                                   rtol=1e-14)
        same = seg[1:] == seg[:-1]
        np.testing.assert_allclose(lo[1:][same], (lo + width)[:-1][same],
                                   rtol=0, atol=1e-15)
        assert np.all(lo[~np.concatenate([[False], same])] == 0)
        if seed is not None:
            ends = set(zip(seg.tolist(), lo.tolist()))
            assert ends >= set(zip(seed[0].tolist(), seed[1].tolist()))
        z = [path[seg] + (path[seg + 1] - path[seg]) * s
             for s in (lo, lo + 0.5 * width, lo + width)]
        scale = [metrics._scale(D, x) for x in z]
        bound = cc * np.min([x[0] for x in scale], axis=0)
        kink = (scale[0][1] != scale[1][1]) | (scale[1][1] != scale[2][1])
        bound[kink] *= metrics._KINK_C
        assert np.all(np.abs(path[seg + 1] - path[seg]) * width
                      <= bound * (1 + 1e-9))


def test_quadrature_of_a_segment_across_a_hidden_kink():
    # GL4 on the grading's one piece is 2.7e-6 high, and K9 tells it so;
    # mpmath, split at the two kinks, gives 0.0489045680283757
    v = path_quadrature("quasihyperbolic", *_HIDDEN_KINK)
    assert v == pytest.approx(0.0489045680283757, rel=1e-10, abs=0)


def test_grade_of_a_grazing_chord_stops_at_its_piece_bound():
    # the chord crosses the slit at a slope of 2.5e-5: its kink bounds ask
    # for tens of millions of pieces before one reaches _MIN_WIDTH
    p = np.array([-0.9 + 1e-5j, -0.1 - 1e-5j])
    tracemalloc.start()
    try:
        grading, resolved, _ = metrics._grade(slit_disk(0), p, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not resolved
    assert len(grading[0]) <= metrics._GL_NODES.size * metrics._MAX_PIECES
    assert peak < 100e6


_S = math.sqrt(0.4)  # slit disk, Im u = 0.3: the side meets the circle
_P1 = math.pi - 1    # log strip, Re w = -1 or Im w = 1: the end meets an edge


def _labels(D, z):
    """_scale's index of the least piece of delta at the points z."""
    return metrics._scale(D, np.asarray(z, dtype=complex))[1]


# (domain, transversal's ends, the points t in [0, 1] where it crosses a
# kink line of delta, the labels between them)
_KINK_TRANSVERSALS = {
    "pdisk": (punctured_disk(), 0.05 * cmath.exp(0.7j),
              0.95 * cmath.exp(0.7j), [0.5], [1, 0]),
    "koebe": (koebe_slit_plane(), -1.3 + 0.3j, 0.7 + 0.3j, [0.525], [0, 1]),
    "koebe-low": (koebe_slit_plane(), -1.3 - 1e-3j, 0.7 - 1e-3j, [0.525],
                  [0, 1]),
    # the circle, the side, the tip and the circle again
    "slit-disk": (slit_disk(0), -0.9 + 0.3j, 0.9 + 0.3j,
                  [(0.9 - _S) / 1.8, 0.5, 1.3 / 1.8], [0, 2, 1, 0]),
    "slit-disk-c": (slit_disk(0.25 - 0.5j), -0.65 - 0.8j, 1.15 - 0.8j,
                    [(0.9 - _S) / 1.8, 0.5, 1.3 / 1.8], [0, 2, 1, 0]),
    # the side meets the circle at Im u = -3/8 on Re u = -1/2
    "slit-disk-below": (slit_disk(0), -0.5 - 0.05j, -0.5 - 0.8j,
                        [0.325 / 0.75], [2, 0]),
    "log-strip-end": (log_strip(1), -5 + 1j, -0.1 + 1j,
                      [(5 - _P1) / 4.9], [1, 0]),
    "log-strip-edges": (log_strip(1), -5 - 3j, -5 + 3j, [0.5], [2, 1]),
    "log-strip-c": (log_strip(3.7 + 1.1j), (3.7 + 1.1j) * (-1 - 3j),
                    (3.7 + 1.1j) * (-1 + 3j),
                    [(3 - _P1) / 6, (3 + _P1) / 6], [2, 0, 1]),
}


@pytest.mark.parametrize("name", list(_KINK_TRANSVERSALS))
def test_kink_labels_change_at_the_kink_lines_only(name):
    D, z1, z2, kinks, labels = _KINK_TRANSVERSALS[name]
    t = np.linspace(0.0, 1.0, 1000)
    # no sample is on a kink line: either side of it the label is known
    assert np.min(np.abs(t[:, None] - np.array(kinks))) > 1e-6
    got = _labels(D, z1 + (z2 - z1) * t)
    want = np.array(labels)[np.searchsorted(kinks, t)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("D, z, label", [
    # a tie keeps the earlier piece: the circle before the puncture
    (punctured_disk(), 0.5, 0),
    (punctured_disk(), -0.5j, 0),
    (punctured_disk(), math.nextafter(0.5, 0), 1),
    # the side of the Koebe slit, then its tip: left of Re z = -1/4 the
    # label is the side's though |z + 1/4| rounds to |Im z|
    (koebe_slit_plane(), complex(math.nextafter(-0.25, -1), 1), 0),
    (koebe_slit_plane(), complex(math.nextafter(-0.25, -1), 0.5), 0),
    (koebe_slit_plane(), complex(math.nextafter(-0.25, -1), 1e-3), 0),
    (koebe_slit_plane(), complex(-0.25, 1e-3), 1),
    # the slit disk's circle, tip and side: 1 - |u| = |u| at 1/2, and
    # 1 - |u| = |Im u| at -1/2 + 3i/8, where |u| = 5/8
    (slit_disk(0), 0.5, 0),
    (slit_disk(0), -0.5 + 0.375j, 0),
    (slit_disk(0), complex(-0.0, 0.1), 1),
    (slit_disk(0), complex(-5e-324, 0.1), 2),
    # the log strip's end, upper and lower edge
    (log_strip(1), complex(-1, _P1), 0),
    (log_strip(1), complex(-1, -_P1), 0),
    (log_strip(1), -5 + 0j, 1),
])
def test_kink_labels_at_ties(D, z, label):
    pieces = domains.entry(D).pieces(np.array([complex(z)]), *D.params)
    d = domains.delta_vec(D, np.array([complex(z)]))
    # the piece labelled is the least, and no earlier piece is as small
    assert pieces[label][0] == d[0]
    assert all(p[0] > d[0] for p in pieces[:label])
    assert _labels(D, [z])[0] == label


@pytest.mark.parametrize("D, z1, z2", _CASES, ids=_IDS)
def test_node_gradient_is_that_of_the_discrete_functional(D, z1, z2):
    # the start path moved off the geodesic by up to delta/20 a node, on a
    # fixed grading: central differences of the graded sum, each node moved
    # by 1e-6 delta, agree with the closed form to 1e-6 / delta, where the
    # gradient is of order 1 / delta
    p = _initial_path(D, z1, z2)
    d = domains.delta_vec(D, p)
    p = _moved(D, p)
    grading, resolved, _ = metrics._grade(D, p, metrics._PIECE_C)
    assert resolved
    costs, values = metrics._segment_costs(D, p, grading)
    grad = metrics._node_gradient(D, grading, values)
    # the costs are GL4 of 1/delta on the grading
    weight = metrics._weight_fn("quasihyperbolic", D)
    t, w, seg, starts = grading
    z = p[:-1][seg] + (p[1:] - p[:-1])[seg] * t
    assert costs.tobytes() == (np.abs(p[1:] - p[:-1]) * np.add.reduceat(
        weight(z) * w, starts)).tobytes()

    def functional(q):
        return np.sum(metrics._segment_costs(D, q, grading)[0])

    for i in range(1, len(p) - 1):
        h, want = 1e-6 * d[i], 0j
        for e in (1, 1j):
            up, down = p.copy(), p.copy()
            up[i] += h * e
            down[i] -= h * e
            want += e * (functional(up) - functional(down)) / (2 * h)
        assert abs(grad[i - 1] - want) * d[i] < 1e-6


def test_relaxation_takes_one_gradient_per_accepted_path(monkeypatch):
    # every path the relaxation costs gets its own grading and one cost
    # pass; the gradient is taken once on each accepted path, from the
    # values of that path's cost pass, and never on a rejected trial
    D = punctured_disk()
    p = _initial_path(D, 0.7, -0.7)
    calls = []
    grade, costs, gradient = (metrics._grade, metrics._segment_costs,
                              metrics._node_gradient)

    def recording_grade(D, q, c, pieces=None):
        result = grade(D, q, c, pieces)
        calls.append(("grade", q.copy(), result[0]))
        return result

    def recording_costs(D, q, grading):
        result = costs(D, q, grading)
        calls.append(("costs", q.copy(), grading, result[1]))
        return result

    def recording_gradient(D, grading, values):
        calls.append(("gradient", grading, values))
        return gradient(D, grading, values)

    monkeypatch.setattr(metrics, "_grade", recording_grade)
    monkeypatch.setattr(metrics, "_segment_costs", recording_costs)
    monkeypatch.setattr(metrics, "_node_gradient", recording_gradient)
    _, history, _ = metrics._relax(D, p, SolverConfig())
    gradients = [i for i, call in enumerate(calls) if call[0] == "gradient"]
    # the start path and each path that lowered the functional
    accepted = 1 + sum(a > b for a, b in zip(history, history[1:]))
    assert len(gradients) == accepted > 2
    assert np.array_equal(calls[gradients[0] - 1][1], p)
    # each path graded is costed at once, on its grading, and only then
    kinds = [call[0] for call in calls]
    assert kinds.count("grade") == kinds.count("costs")
    for i, call in enumerate(calls):
        if call[0] == "grade":
            assert calls[i + 1][0] == "costs"
            assert np.array_equal(calls[i + 1][1], call[1])
            assert calls[i + 1][2] is call[2]
    for i in gradients:
        # the path costed last is the accepted one; its grading and values
        # are used
        assert calls[i - 1][0] == "costs"
        assert calls[i][1] is calls[i - 1][2]
        assert calls[i][2] is calls[i - 1][3]
    paths = [calls[i - 1][1].tobytes() for i in gradients]
    assert len(set(paths)) == len(paths)


def test_relaxation_evaluates_delta_once_per_path(monkeypatch):
    # on the slit-disk pair: delta's pieces run once on the rule nodes of
    # each costed path, and the gradient evaluates none; delta_vec runs on
    # the start's interior nodes for the first cap, on each trial's for its
    # membership check, which is the next cap if it is accepted, and on the
    # re-spaced path's if that goes on: never twice on one path
    D, z1, z2 = _CASES[2]
    p = _initial_path(D, z1, z2)
    kind = domains.entry(D)
    on_pieces, on_delta, costed, gradients, respaced = [], [], [], [], []
    costs, gradient, delta, resample = (
        metrics._segment_costs, metrics._node_gradient, domains.delta_vec,
        metrics._resample)

    def recording_pieces(z, *params):
        on_pieces.append(z.copy())
        return kind.pieces(z, *params)

    def recording_costs(D, q, grading):
        before = len(on_pieces)
        result = costs(D, q, grading)
        costed.append((q.copy(), on_pieces[before:], result[1][3]))
        return result

    def recording_gradient(D, grading, values):
        before = len(on_pieces), len(on_delta)
        result = gradient(D, grading, values)
        gradients.append((len(on_pieces), len(on_delta)) == before)
        return result

    def recording_delta(D, z):
        on_delta.append(z.tobytes())
        return delta(D, z)

    def recording_resample(q, m):
        respaced.append(resample(q, m))
        return respaced[-1]

    monkeypatch.setitem(domains._KINDS, D.kind,
                        dataclasses.replace(kind, pieces=recording_pieces))
    monkeypatch.setattr(metrics, "_segment_costs", recording_costs)
    monkeypatch.setattr(metrics, "_node_gradient", recording_gradient)
    monkeypatch.setattr(domains, "delta_vec", recording_delta)
    monkeypatch.setattr(metrics, "_resample", recording_resample)
    metrics._relax(D, p, SolverConfig())
    assert len(gradients) > 2 and all(gradients)
    assert len(costed) > len(gradients)
    for _, pieces_on, nodes in costed:
        (z,) = pieces_on
        assert z.tobytes() == nodes.tobytes()
    assert on_delta[0] == p[1:-1].tobytes()
    assert len(set(on_delta)) == len(on_delta)
    for q, _, _ in costed:
        measured = on_delta.count(q[1:-1].tobytes())
        if respaced and np.array_equal(q, respaced[0]):
            assert measured <= 1
        else:
            assert measured == 1


def test_solve_grades_from_scratch_only_the_start_and_the_trials(
        monkeypatch):
    # the start path and each line-search trial are graded from scratch;
    # the re-spaced path refines its parent's pieces, and the final
    # quadrature takes the relaxation's last grading of the returned path
    # and grades nothing itself
    D, z1, z2 = _CASES[2]
    grades, costed, resampled, quadratures = [], [], [], []
    grade, costs, resample, quadrature = (
        metrics._grade, metrics._segment_costs, metrics._resample,
        metrics.path_quadrature)

    def recording_grade(D, q, c, pieces=None):
        result = grade(D, q, c, pieces)
        grades.append((q.copy(), c, pieces, result[2]))
        return result

    def recording_costs(D, q, grading):
        costed.append(q.copy())
        return costs(D, q, grading)

    def recording_resample(p, m):
        resampled.append((p.copy(), resample(p, m)))
        return resampled[-1][1]

    def recording_quadrature(density, D, path, tol=1e-10, *, pieces=None):
        quadratures.append((path.as_array(), pieces, len(grades)))
        return quadrature(density, D, path, tol, pieces=pieces)

    monkeypatch.setattr(metrics, "_grade", recording_grade)
    monkeypatch.setattr(metrics, "_segment_costs", recording_costs)
    monkeypatch.setattr(metrics, "_resample", recording_resample)
    monkeypatch.setattr(metrics, "path_quadrature", recording_quadrature)
    _, poly, _ = quasihyperbolic_distance_detailed(D, z1, z2)
    # the geodesic start's resampling, then the one re-spacing
    (_, start), (parent, respaced) = resampled
    scratch = [g for g in grades if g[2] is None]
    seeded = [g for g in grades if g[2] is not None]
    assert np.array_equal(grades[0][0], start) and grades[0][2] is None
    # every path graded is costed: the start, a trial graded from scratch
    # or the re-spaced one
    assert [q.tobytes() for q, _, _, _ in grades] == [
        q.tobytes() for q in costed]
    assert len(scratch) == len(costed) - len(seeded)
    assert all(c == metrics._PIECE_C for _, c, _, _ in grades)
    # one quadrature, of the returned path on its last grading's pieces,
    # after every grading
    p = poly.as_array()
    (path, pieces, graded), = quadratures
    assert np.array_equal(path, p) and graded == len(grades)
    assert pieces is [g for g in grades if np.array_equal(g[0], p)][-1][3]
    (q, _, pieces, _), = seeded
    assert np.array_equal(q, respaced)
    # the pieces of the path re-spaced, from its last grading
    before = grades[:next(i for i, g in enumerate(grades) if g is seeded[0])]
    assert pieces is [g for g in before if np.array_equal(g[0], parent)][-1][3]


@pytest.mark.parametrize("D, z1, z2", _CASES, ids=_IDS)
def test_solver_quadrature_passes_its_estimate_on_the_relaxation_pieces(
        D, z1, z2, monkeypatch):
    # on these pairs the final quadrature's estimate passes at once: it
    # grades nothing, and evaluates 1/delta on the path's nodes, to check
    # them, and on K9's nodes of each of the relaxation's pieces only
    calls = []
    grade, quadrature, delta = (metrics._grade, metrics.path_quadrature,
                                domains.delta_vec)

    def recording_grade(*args):
        calls.append("grade")
        return grade(*args)

    def recording_delta(D, z):
        calls.append(np.size(z))
        return delta(D, z)

    def recording_quadrature(density, D, path, tol=1e-10, *, pieces=None):
        calls.append((len(path.points), len(pieces[0])))
        monkeypatch.setattr(domains, "delta_vec", recording_delta)
        try:
            return quadrature(density, D, path, tol, pieces=pieces)
        finally:
            monkeypatch.setattr(domains, "delta_vec", delta)
            calls.append("done")

    monkeypatch.setattr(metrics, "_grade", recording_grade)
    monkeypatch.setattr(metrics, "path_quadrature", recording_quadrature)
    quasihyperbolic_distance_detailed(D, z1, z2)
    starts = [i for i, call in enumerate(calls) if isinstance(call, tuple)]
    assert starts
    for i in starts:
        nodes, pieces = calls[i]
        assert calls[i + 1:i + 4] == [nodes, metrics._K9_NODES.size * pieces,
                                      "done"]


@pytest.mark.parametrize("D, z1, z2", _CASES, ids=_IDS)
def test_solver_k_is_the_quadrature_of_its_path(D, z1, z2):
    # the solver's quadrature runs on its relaxation's grading; a public
    # call on the returned path, which grades it from scratch, and GL4 at
    # c/4 from scratch agree
    k, poly, _ = quasihyperbolic_distance_detailed(D, z1, z2)
    assert k == pytest.approx(path_quadrature("quasihyperbolic", D, poly),
                              rel=1e-13, abs=0)
    p = poly.as_array()
    grading, _, _ = metrics._grade(D, p, metrics._PIECE_C / 4)
    k_fine = np.sum(metrics._segment_costs(D, p, grading)[0])
    assert k == pytest.approx(k_fine, rel=1e-13, abs=0)


@pytest.mark.parametrize("D, z1, z2", _CASES, ids=_IDS)
def test_grid_graph_gives_the_undirected_dijkstra(D, z1, z2):
    # each row holds its upper-triangular entries, then its lower ones:
    # the scan of an undirected dijkstra on the upper-triangular graph
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    box = grid.grid_box(D, z1, z2)
    graph, _, valid = grid.grid_graph(D, box, 60)
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    upper = np.isfinite(graph.data) & (graph.indices > rows)
    half = coo_matrix((graph.data[upper], (rows[upper], graph.indices[upper])),
                      shape=graph.shape).tocsr()
    assert graph.nnz >= 2 * half.nnz
    for s in np.flatnonzero(valid)[::97]:
        want = dijkstra(half, directed=False, indices=s,
                        return_predecessors=True)
        got = dijkstra(graph, directed=True, indices=s,
                       return_predecessors=True)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_grid_graphs_share_their_column_arrays():
    D = upper_half_plane()
    one = grid.grid_graph(D, (-1.0, 1.0, 0.5, 2.0), 50)[0]
    two = grid.grid_graph(D, (0.0, 3.0, 1.0, 4.0), 50)[0]
    for name in ("indices", "indptr"):
        a, b = getattr(one, name), getattr(two, name)
        assert not a.flags.writeable and not b.flags.writeable
        assert np.shares_memory(a, b)
    assert not np.shares_memory(one.data, two.data)


# the slit-disk and koebe cases straddle their slit, which no grid edge
# crosses; the pdisk pair's grid line passes beside the puncture
_ACROSS_A_SLIT = ("slit_disk", "koebe_slit_plane")


@pytest.mark.parametrize("D, z1, z2", _CASES + [
    (punctured_disk(), 0.1j, 0.4)], ids=_IDS + ["pdisk-spiral"])
def test_bounded_dijkstra_is_the_full_search(D, z1, z2, monkeypatch):
    from scipy.sparse import csgraph

    bounded = grid.grid_dijkstra(D, z1, z2)
    limits = []
    full_search = csgraph.dijkstra

    def unlimited(*args, limit=np.inf, **kwargs):
        limits.append(limit)
        return full_search(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", unlimited)
    assert grid.grid_dijkstra(D, z1, z2).tobytes() == (
        bounded.tobytes())
    assert np.isfinite(limits) == [D.kind not in _ACROSS_A_SLIT]


@pytest.mark.parametrize("D, z1, z2", _CASES + [
    (punctured_disk(), 0.1j, 0.4)], ids=_IDS + ["pdisk-spiral"])
def test_grid_line_bounds_the_graph_distance(D, z1, z2):
    from scipy.sparse.csgraph import dijkstra

    n = 60
    box = grid.grid_box(D, z1, z2)
    graph, flat, valid = grid.grid_graph(D, box, n)
    s, t = (int(np.argmin(np.where(valid, np.abs(flat - z), np.inf)))
            for z in (z1, z2))
    line = grid.line_cost(graph, n, s, t)
    assert np.isfinite(line) == (D.kind not in _ACROSS_A_SLIT)
    dist = dijkstra(graph, directed=True, indices=s)
    assert dist[t] <= line
    assert grid.line_cost(graph, n, s, s) == 0.0


def _padded_box(D, z1, z2):
    pad = abs(z1 - z2) + 2 * max(domains.boundary_distance(D, z1),
                                 domains.boundary_distance(D, z2))
    return (min(z1.real, z2.real) - pad, max(z1.real, z2.real) + pad,
            min(z1.imag, z2.imag) - pad, max(z1.imag, z2.imag) + pad)


@pytest.mark.parametrize("D, z1, z2", [
    (upper_half_plane(), 0.5 + 1j, 3 + 0.2j),
    (upper_half_plane(), 0.001j, 200 + 0.001j),
    (log_strip(1), -1 + 2j, -1 - 2j),
    (koebe_slit_plane(), -0.2 + 1j, 2 - 1j),
    (koebe_slit_plane(), 1 + 0j, 3 + 2j),
], ids=["uhp", "uhp-rho", "log-strip", "koebe-above-tip", "koebe-right"])
def test_grid_box_of_a_segment_inside_is_the_padded_box(D, z1, z2):
    assert grid.grid_box(D, z1, z2) == _padded_box(D, z1, z2)


@pytest.mark.parametrize("D, box", [
    (unit_disk(), (-1.0, 1.0, -1.0, 1.0)),
    (punctured_disk(), (-1.0, 1.0, -1.0, 1.0)),
    (slit_disk(0.625 - 1j), (-0.375, 1.625, -2.0, 0.0)),
], ids=["disk", "pdisk", "slit-disk"])
def test_grid_box_of_a_bounded_domain_is_the_square_about_its_centre(D, box):
    # the same floats for every pair, so consecutive solves share the graph
    c = domains.entry(D).centre(*D.params)
    for z1, z2 in ((c + 0.5, c - 0.5j), (c + 0.1 + 0.2j, c - 0.3 + 0.4j)):
        got = grid.grid_box(D, z1, z2)
        assert [x.hex() for x in got] == [x.hex() for x in box]


@pytest.mark.parametrize("z1, z2", [(-2 + 0.5j, -2 - 0.5j),
                                    (-1 + 0.01j, -1 - 0.01j),
                                    (-1 + 0.3j, -1.5 - 0.3j)])
def test_grid_box_holds_the_slit_tip_detour(z1, z2):
    D = koebe_slit_plane()
    box = np.array(grid.grid_box(D, z1, z2))
    r = max(abs(z1 + 0.25), abs(z2 + 0.25))
    disc = np.array([-0.25 - r, -0.25 + r, -r, r])
    padded = np.array(_padded_box(D, z1, z2))
    # the least box holding both the padded box and the tip's disc
    assert np.array_equal(box[::2], np.minimum(disc, padded)[::2])
    assert np.array_equal(box[1::2], np.maximum(disc, padded)[1::2])


def _recording_solves(monkeypatch):
    solves, solve = [], metrics._solve

    def recording(*args):
        solves.append(solve(*args))
        return solves[-1]

    monkeypatch.setattr(metrics, "_solve", recording)
    return solves


def test_punctured_disk_keeps_the_lesser_lift(monkeypatch):
    # 0.7 -> -0.7 winds through pi either way round the puncture: the two
    # lifts tie, and which one the relaxation ends lower on is rounding
    solves = _recording_solves(monkeypatch)
    k, geodesic, history = quasihyperbolic_distance_detailed(
        punctured_disk(), 0.7, -0.7)
    assert len(solves) == 2
    assert k == min(s[0] for s in solves)
    assert (k, geodesic, history) in solves
    # the two lifts go round the puncture on opposite sides
    assert np.sign([s[1].as_array()[64].imag for s in solves]).tolist() in (
        [1, -1], [-1, 1])


def test_punctured_disk_mirror_lift_is_kept_where_it_is_lower(monkeypatch):
    # an antipodal pair next to the puncture: Re(psi(b) - psi(a)) reduces to
    # -pi exactly, and the two relaxed lifts do not tie.  The reduced lift
    # ends at 7.184828717, its mirror at 7.183853183: a solver that kept
    # only the first fails, one that relaxes further still passes
    a = -0.0008190246371365335 + 0.0009939113100878485j
    b = 0.43692584702671106 - 0.530222805687307j
    solves = _recording_solves(monkeypatch)
    k, _ = quasihyperbolic_distance(punctured_disk(), a, b)
    assert len(solves) == 2
    assert k < 7.18386


def test_punctured_disk_bound_skips_the_next_lift(monkeypatch):
    # the next lift winds through 3 pi / 2: it costs at least
    # hypot(log 4, 3 pi / 2) = 4.91, above k = 2.095
    solves = _recording_solves(monkeypatch)
    k, _ = quasihyperbolic_distance(punctured_disk(), 0.1j, 0.4)
    assert len(solves) == 1
    assert k < math.hypot(math.log(4), 1.5 * math.pi)


def test_punctured_disk_solves_one_lift_short_of_a_tie(monkeypatch):
    # the winding reduces to 2.99 < pi; the lift the other way round, at
    # 2 pi - 2.99 = 3.30, is no shorter, though its bound
    # hypot(log(r2 / r1), 3.30) = 3.30 is below k
    solves = _recording_solves(monkeypatch)
    k, _ = quasihyperbolic_distance(punctured_disk(), 0.7 + 0.2j, -0.8 - 0.1j)
    assert len(solves) == 1
    assert k > math.hypot(math.log(abs(-0.8 - 0.1j) / abs(0.7 + 0.2j)),
                          2 * math.pi - abs(cmath.phase((-0.8 - 0.1j)
                                                        / (0.7 + 0.2j))))


def test_solver_round_the_slit_tip_keeps_the_koebe_quarter_window():
    # lambda <= 1/delta <= 4 lambda on the Koebe slit plane (Koebe's 1/4),
    # so h <= k <= 4h; j <= k holds in every domain
    D, a, b = koebe_slit_plane(), -1 + 0.01j, -1 - 0.01j
    k, _, _ = quasihyperbolic_distance_detailed(D, a, b)
    h = hyperbolic_distance(D, a, b)
    j = math.log1p(abs(a - b) / min(domains.boundary_distance(D, a),
                                    domains.boundary_distance(D, b)))
    assert max(j, h) <= k <= 4 * h


def test_solver_round_the_slit_tip_is_scale_invariant():
    # the golden koebe pair dilated about the tip: psi of the slit plane,
    # and so the start path, dilates with it
    ks = []
    for e in range(-2, 3):
        a, b = (-0.25 + 2.0 ** e * (z + 0.25) for z in (-2 + 0.5j, -2 - 0.5j))
        k, _, history = quasihyperbolic_distance_detailed(
            koebe_slit_plane(), a, b)
        assert len(history) < 20
        ks.append(k)
    assert max(ks) == pytest.approx(min(ks), rel=1e-6, abs=0)


def test_solver_round_the_slit_disk_tip_does_not_stall():
    # ROADMAP direction 1: long relaxations reach 7.4480 on this pair, where
    # the descent along the spring chain's preconditioned gradient alone
    # stopped at 7.472485 after 120 history entries
    k, _, history = quasihyperbolic_distance_detailed(
        slit_disk(0.625 - 1j), -0.175 - 0.95j, 0.425 - 1.3j)
    assert abs(k - 7.4480) < 1e-4
    assert len(history) < 60


def test_solver_next_to_the_puncture_does_not_stop_short():
    # delta is 1e-4 at the first end: a gradient whose error does not scale
    # with delta ends the line search at 5.378470 after 8 history entries;
    # at tolerance 1e-10 the relaxation reaches 5.375692
    k, _, history = quasihyperbolic_distance_detailed(
        punctured_disk(), 4.11217517662096e-05 - 0.00011594387534847067j,
        0.02162657185580653 + 0.004011464304208517j)
    assert 5.3756 < k < 5.3770
    assert all(a >= b for a, b in zip(history, history[1:]))


@pytest.mark.parametrize("D, z1, z2", _CASES[:2],
                         ids=_IDS[:2])
def test_warm_graph_cache_gives_the_cold_solve(D, z1, z2):
    cache = grid.grid_graph
    cache.cache_clear()
    cold = grid.grid_solve(D, z1, z2)
    hits = cache.cache_info().hits
    grid.grid_solve(D, -0.1 + 0.2j, 0.3 - 0.4j)
    warm = grid.grid_solve(D, z1, z2)
    assert cache.cache_info().hits == hits + 2
    assert warm[0] == cold[0]
    assert warm[1].points == cold[1].points
    assert warm[2] == cold[2]
    # another resolution takes the one entry over
    grid.grid_solve(D, z1, z2, n=50)
    assert cache.cache_info().currsize == 1


def test_repeated_unbounded_solve_hits_the_graph_cache():
    # an unbounded domain's box follows the pair: the same pair again finds
    # its graph, another pair takes the one entry over
    D, z1, z2 = _CASES[3]
    cache = grid.grid_graph
    cache.cache_clear()
    cold = grid.grid_solve(D, z1, z2)
    warm = grid.grid_solve(D, z1, z2)
    assert cache.cache_info().hits == 1
    assert warm[0] == cold[0]
    assert warm[1].points == cold[1].points
    assert warm[2] == cold[2]
    grid.grid_solve(D, z1, 2 * z2)
    assert cache.cache_info()[:2] == (1, 2)
    assert cache.cache_info().currsize == 1


@pytest.mark.parametrize("n", [1, 2, 126])
def test_precondition_is_the_banded_solve(n):
    # the Green's function agrees with LAPACK's banded solve to the accuracy
    # the chain's condition number allows, with spring constants over one
    # decade and over nine
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(n)
    for decades in [1] * 20 + [9] * 20:
        k = 10.0 ** rng.uniform(-decades, 0, n + 1)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        band = np.zeros((3, n))
        band[1] = k[:-1] + k[1:]
        band[0, 1:] = band[2, :-1] = -k[1:-1]
        want = solve_banded((1, 1), band, np.column_stack([g.real, g.imag]))
        want = want[:, 0] + 1j * want[:, 1]
        dense = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(
            band[2, :-1], -1)
        cond = np.linalg.cond(dense)
        got = metrics._precondition(k, g)
        assert np.linalg.norm(got - want) <= (
            8 * n * cond * np.finfo(float).eps * np.linalg.norm(want))


@pytest.mark.parametrize("n", [1, 3])
def test_precondition_keeps_the_gradient_of_a_singular_system(n):
    g = np.arange(1, n + 1) * (1 + 1j)
    assert metrics._precondition(np.zeros(n + 1), g) is g


def test_precondition_rejects_a_non_finite_system():
    k, g = np.ones(4), np.ones(3, dtype=complex)
    with pytest.raises(ValueError, match="not finite"):
        metrics._precondition(k, np.array([1, np.nan, 1], dtype=complex))
    with pytest.raises(ValueError, match="not finite"):
        metrics._precondition(np.array([1, np.inf, 1, 1]), g)


def _chain(n, seed):
    rng = np.random.default_rng(seed)
    k = 10.0 ** rng.uniform(-2, 0, n + 1)
    return k, rng.normal(size=n) + 1j * rng.normal(size=n)


@pytest.mark.parametrize("n", [1, 126])
def test_lbfgs_step_with_an_empty_memory_is_the_preconditioned_gradient(n):
    k, g = _chain(n, n)
    got = metrics._lbfgs_direction(k, g, [])
    assert got.tobytes() == metrics._precondition(k, g).tobytes()


def test_lbfgs_memory_keeps_only_pairs_with_positive_curvature():
    s = np.array([1 + 1j, 2 - 1j])
    for y in (-s, 1j * s, np.zeros(2, dtype=complex)):   # s.y < 0, = 0
        assert metrics._remember([], s, y) == []
    memory = []
    for i in range(metrics._MEMORY + 2):
        memory = metrics._remember(memory, s, (i + 1) * s)
    # the last _MEMORY pairs, oldest first, each with 1 / s.y
    assert [pair[2] for pair in memory] == [
        1 / (i * 7.0) for i in range(3, metrics._MEMORY + 3)]


def test_lbfgs_direction_satisfies_the_newest_secant_equation():
    # the updated inverse Hessian sends the newest gradient change y to the
    # newest node change s
    n = 126
    k, _ = _chain(n, 0)
    rng = np.random.default_rng(1)
    memory = []
    while len(memory) < metrics._MEMORY:
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        memory = metrics._remember(memory, s, s + 0.1 * rng.normal(size=n))
    s, y, _ = memory[-1]
    got = metrics._lbfgs_direction(k, y, memory)
    assert np.linalg.norm(got - s) <= 1e-10 * np.linalg.norm(s)


def test_lbfgs_direction_that_does_not_descend_falls_back():
    # one node, springs 1 and 1: H0 g = g / 2.  A pair with s.y = -1, which
    # _remember would refuse, turns the recursion's direction for g = 1
    # to -1, uphill
    k, g = np.ones(2), np.ones(1, dtype=complex)
    s, y = np.ones(1, dtype=complex), -np.ones(1, dtype=complex)
    got = metrics._lbfgs_direction(k, g, [(s, y, -1.0)])
    assert got.tobytes() == metrics._precondition(k, g).tobytes()
    assert got[0] == 0.5


def test_three_node_path_relaxes_through_the_one_node_solve():
    # one interior node: the banded system is 1 x 1
    D, cfg = unit_disk(), SolverConfig()
    p = np.array([-0.5, 0.3j, 0.5])
    got, hist, _ = metrics._relax(D, p, cfg)
    assert len(hist) > 2 and hist[-1] < hist[0]
    assert abs(got[1]) < 0.3      # pulled towards the diameter


# closed forms far from the unit scale: delta ratio rho along a horizontal
# pair in the half-plane, and disk diameters near the circle
@pytest.mark.parametrize("rho, rel", [(5e3, 2.5e-5), (1e5, 2.1e-5),
                                      (1e6, 2.1e-5)])
def test_solver_half_plane_delta_ratios(rho, rel):
    a, b = 0.001j, 2 * rho * 0.001 + 0.001j
    want = math.acosh(1 + abs(a - b) ** 2 / (2 * a.imag * b.imag))
    k, _, history = quasihyperbolic_distance_detailed(upper_half_plane(), a, b)
    # never below the infimum; the path's own length
    assert want <= k <= want * (1 + rel)
    assert all(x >= y for x, y in zip(history, history[1:]))


def test_solver_repro_of_the_stretched_segment():
    k, _, _ = quasihyperbolic_distance_detailed(upper_half_plane(), 0.001j,
                                                10 + 0.001j)
    assert 18.42068 <= k <= 18.4225


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_solver_disk_diameters_near_the_circle(eps):
    a = cmath.rect(1 - eps, 0.3)
    k, _ = quasihyperbolic_distance(unit_disk(), a, -a)
    assert k == pytest.approx(2 * math.log(1 / eps), rel=1.2e-6)


# k and the length of the objective history, re-pinned for the closed-form
# gradient; any change to the solver's numerics shows here
_GOLDEN = [
    ("disk", unit_disk(), 0.5 + 0.5j, -0.3 + 0.6j, 1.8740685950803566, 6),
    ("pdisk", punctured_disk(), 0.7, -0.7, 3.867932704026333, 13),
    ("uhp", upper_half_plane(), 0.5 + 1j, 3 + 0.2j, 3.5952348408588706, 4),
    ("uhp rho=1e2", upper_half_plane(), 0.001j, 0.2 + 0.001j,
     10.59694976610763, 3),
    ("koebe", koebe_slit_plane(), -2 + 0.5j, -2 - 0.5j, 7.073633382295062, 4),
    ("slit-disk", slit_disk(0.25 + 0.125j), 0.25 + 0.125j + (-0.5 + 0.1j),
     0.25 + 0.125j + (-0.5 - 0.1j), 7.767584920035421, 16),
    ("log-strip", log_strip(1), -1 + 2j, -1 - 2j, 2.8875456402461355, 14),
]


@pytest.mark.parametrize("name, D, z1, z2, k, iterations", _GOLDEN,
                         ids=[g[0] for g in _GOLDEN])
def test_solver_golden_values(name, D, z1, z2, k, iterations):
    value, geodesic, history = quasihyperbolic_distance_detailed(D, z1, z2)
    assert value == pytest.approx(k, rel=1e-12, abs=0)
    assert len(history) == iterations
    # the returned path, quadratured on pieces half as long again
    p = geodesic.as_array()
    grading, _, _ = metrics._grade(D, p, metrics._PIECE_C / 8)
    again = np.sum(metrics._segment_costs(D, p, grading)[0])
    assert value == pytest.approx(again, rel=1e-9, abs=0)


@pytest.mark.parametrize("name, D, z1, z2, k, iterations", _GOLDEN,
                         ids=[g[0] for g in _GOLDEN])
def test_grid_start_relaxes_to_the_golden_values(name, D, z1, z2, k,
                                                 iterations):
    # the opt-in start, a grid Dijkstra path, ends on the same geodesic to
    # the relaxation's accuracy, with a non-increasing history
    value, _, history = grid.grid_solve(D, z1, z2)
    assert value == pytest.approx(k, rel=3e-5, abs=0)
    assert all(a >= b for a, b in zip(history, history[1:]))
