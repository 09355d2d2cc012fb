import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conformal_metrics import (
    NoDensityRouteError,
    OutsideDomainError,
    SampleSet,
    SingularPointError,
    boundary_distance,
    cayley_map,
    compose_maps,
    contains,
    hyperbolic_density,
    identity_map,
    image_boundary_distance,
    koebe_map,
    koebe_slit_plane,
    log_strip,
    power_map,
    punctured_disk,
    pushforward_density,
    slit_disk,
    unit_disk,
    upper_half_plane,
)
from conformal_metrics import domains

radii = st.floats(min_value=1e-3, max_value=0.999)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def disk_points(draw):
    r = draw(radii)
    th = draw(angles)
    return complex(r * math.cos(th), r * math.sin(th))


# ---------------------------------------------------------------------------
# closed-form densities

@given(disk_points())
def test_disk_density_closed_form(z):
    assert hyperbolic_density(unit_disk(), z) == pytest.approx(
        1.0 / (1.0 - abs(z) ** 2)
    )


@given(disk_points())
def test_punctured_disk_density_closed_form(z):
    lam = hyperbolic_density(punctured_disk(), z)
    assert lam == pytest.approx(1.0 / (2.0 * abs(z) * math.log(1.0 / abs(z))))


def test_half_plane_density():
    assert hyperbolic_density(upper_half_plane(), 2j) == pytest.approx(0.25)
    assert hyperbolic_density(upper_half_plane(), 5 + 0.5j) == pytest.approx(1.0)


@given(disk_points())
def test_density_conformal_invariance_cayley(z):
    """lambda_{f(D)}(f(z)) |f'(z)| = lambda_D(z) for the half-plane map."""
    f = cayley_map()
    j = f.jet(z)
    lhs = hyperbolic_density(upper_half_plane(), j.f0) * abs(j.f1)
    assert lhs == pytest.approx(hyperbolic_density(unit_disk(), z), rel=1e-10)


@given(disk_points())
def test_density_conformal_invariance_koebe(z):
    # at z, the point of the disk whose image is the rounded k(z): next to
    # the tip -1/4, where k' vanishes, rounding k(z) moves it by more than
    # 1e-9 of its distance to the tip (z = -0.999 + 5.7e-16i), and the
    # density there with it; the inverse, z = (s - 1)/(s + 1) with
    # s = sqrt(4w + 1), moves z by a few ulp
    f = koebe_map()
    w = f.jet(z).f0
    s = cmath.sqrt(4 * w + 1)
    z = (s - 1) / (s + 1)
    j = f.jet(z)
    lhs = hyperbolic_density(koebe_slit_plane(), w) * abs(j.f1)
    assert lhs == pytest.approx(hyperbolic_density(unit_disk(), z), rel=1e-9)


@given(disk_points())
def test_density_conformal_invariance_slit_disk(z):
    # base density on D pushed through w = z^2 restricted to the right half
    # is awkward; instead check the slit disk against its uniformizer via
    # pushforward_density on a Mobius automorphism of the disk, which keeps
    # the density route independent.
    D = slit_disk(0)
    if not contains(D, z) or (z.real < 0 and abs(z.imag) < 1e-12):
        return
    lam = hyperbolic_density(D, z)
    # slit disk is a subdomain of the disk: domain monotonicity of densities
    assert lam >= hyperbolic_density(unit_disk(), z) - 1e-12


def test_pushforward_density_matches_closed_form():
    f = cayley_map()
    z = 0.3 + 0.2j
    w = f.value(z)
    assert pushforward_density(f, unit_disk(), z) == pytest.approx(
        hyperbolic_density(upper_half_plane(), w), rel=1e-12
    )


@pytest.mark.parametrize("c", [1, 3.7 + 1.1j, -0.5j])
def test_log_strip_density_pulls_back_to_slit_disk(c):
    # c Log maps the slit disk onto log_strip(c): lambda is invariant
    for u in SampleSet(seed=4, count=500).points(slit_disk(0)).tolist():
        z = c * cmath.log(u)
        lhs = hyperbolic_density(log_strip(c), z) * abs(c / u)
        assert lhs == pytest.approx(hyperbolic_density(slit_disk(0), u),
                                    rel=1e-10, abs=0)


def test_koebe_slit_density_near_the_slit():
    # locally a half-plane: lambda = 1/(2 delta) = 1/(2 Im z) to first order
    for z in (-3 + 1e-15j, -1e4 + 1e-9j):
        assert hyperbolic_density(koebe_slit_plane(), z) == pytest.approx(
            1.0 / (2.0 * z.imag), rel=1e-9)


# ---------------------------------------------------------------------------
# membership and boundary distance

def test_contains_basic():
    assert contains(unit_disk(), 0)
    assert not contains(unit_disk(), 1)
    assert not contains(punctured_disk(), 0)
    assert contains(punctured_disk(), 0.5j)
    assert contains(upper_half_plane(), 1j)
    assert not contains(upper_half_plane(), -1j)
    assert contains(koebe_slit_plane(), 0)
    assert not contains(koebe_slit_plane(), -0.25)
    assert not contains(koebe_slit_plane(), -5)
    assert contains(slit_disk(0), 0.5j)
    assert not contains(slit_disk(0), -0.5)
    assert contains(log_strip(1), -1 + 0j)
    assert not contains(log_strip(1), 1 + 0j)


_TINY = 5e-324                 # the least denormal
_BELOW_ONE = 1 - 2 ** -53      # the float next below 1
_BELOW_PI = math.pi - 2 ** -51
_INF, _NAN = math.inf, math.nan

# kind -> (points inside, points outside): zeros of either sign, boundary
# and slit points, the tips, the floats next to the boundary, denormals and
# infinities
_EDGES = {
    "unit_disk": (
        [0j, complex(-0.0, -0.0), _BELOW_ONE, -_BELOW_ONE, _BELOW_ONE * 1j,
         _TINY, complex(0.6, -0.5)],
        [1, -1, 1j, -1j, 1 + 2 ** -52, complex(_INF, 0), complex(0, -_INF),
         complex(_INF, _INF)]),
    "punctured_disk": (
        [_TINY, complex(0, -_TINY), _BELOW_ONE, 0.5, -0.5j],
        [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 1, -1j,
         complex(_INF, 0), complex(-_INF, 1)]),
    "upper_half_plane": (
        [_TINY * 1j, complex(-1e300, 1), complex(-0.0, 1),
         complex(1e300, _TINY)],
        [0j, complex(1, -0.0), complex(5, -_TINY), -1j, complex(0, -_INF),
         complex(_INF, 0), complex(0, _INF), complex(_INF, 1),
         complex(-_INF, _INF)]),
    "koebe_slit_plane": (
        [0j, complex(-0.0, -0.0), complex(-0.25, _TINY),
         complex(-0.25, -_TINY), complex(-0.25 + 2 ** -54, 0),
         complex(-5, _TINY),
         complex(-1e300, 1e-300), 1e300],
        [-0.25, complex(-0.25, -0.0), -1, complex(-5, -0.0), -1e300,
         complex(-_INF, 0), complex(_INF, 0), complex(0, _INF),
         complex(_INF, -_INF), complex(-_INF, 1)]),
    "slit_disk": (
        [0.5, _TINY, complex(0, _TINY), complex(-0.5, _TINY),
         complex(-0.5, -_TINY), complex(-0.0, 0.5), _BELOW_ONE,
         complex(-0.5, 0.5)],
        [0j, complex(-0.0, 0), complex(0, -0.0), -0.5, complex(-0.5, -0.0),
         -_BELOW_ONE, 1, -1, 1j, complex(_INF, 0), complex(-_INF, 0)]),
    "log_strip": (
        [-_TINY, complex(-1, _BELOW_PI), complex(-1, -_BELOW_PI),
         complex(-1e300, 0), complex(-_TINY, 3)],
        [0j, complex(-0.0, 0), complex(-1, math.pi), complex(-1, -math.pi),
         1, complex(0, 1), complex(-_INF, 0), complex(-1, _INF),
         complex(-_INF, 1)]),
}
_EDGE_DOMAINS = [unit_disk(), punctured_disk(), upper_half_plane(),
                 koebe_slit_plane(), slit_disk(0), log_strip(1)]


@pytest.mark.parametrize("D", _EDGE_DOMAINS, ids=lambda D: D.kind)
def test_membership_at_edge_points(D):
    inside, outside = _EDGES[D.kind]
    for z, want in [(z, True) for z in inside] + [(z, False) for z in outside]:
        assert contains(D, z) is want, z
        one = np.array([complex(z)])
        with np.errstate(all="ignore"):  # the kernels leave inf / c to warn
            assert domains.contains_vec(D, one)[0] == want, z
            # one formula: membership is delta > 0
            if cmath.isfinite(z):
                assert (domains.delta_vec(D, one)[0] > 0) == want, z


@pytest.mark.parametrize("D", _EDGE_DOMAINS, ids=lambda D: D.kind)
def test_nan_is_outside(D):
    for z in (complex(_NAN, 0), complex(0, _NAN), complex(_NAN, _NAN),
              complex(-1, _NAN), complex(_NAN, 0.5), complex(-3, _NAN)):
        assert not contains(D, z), z
    with pytest.raises(OutsideDomainError):
        boundary_distance(D, complex(_NAN, 0.5))


@pytest.mark.parametrize("D", _EDGE_DOMAINS, ids=lambda D: D.kind)
def test_infinity_is_outside(D):
    for z in (complex(_INF, 0), complex(0, _INF), complex(-_INF, 0.5),
              complex(-1, -_INF), complex(_INF, _INF)):
        assert not contains(D, z), z
        for fn in (boundary_distance, hyperbolic_density):
            with pytest.raises(OutsideDomainError):
                fn(D, z)


_E = 1e-9
_RING = [cmath.exp(1j * t) for t in np.linspace(-3, 3, 7)]
# kind -> interior points, then points within 1e-9 of each boundary piece
_PSI_POINTS = {
    "unit_disk": [0.3 + 0.2j, -0.5j, 0j] + [(1 - _E) * u for u in _RING],
    "punctured_disk": [0.3 + 0.2j, -0.5, complex(-0.5, 1e-300)]
    + [(1 - _E) * u for u in _RING] + [_E * u for u in _RING],
    "upper_half_plane": [1j, -3 + 0.5j, 1e8 + 1j]
    + [complex(x, _E) for x in (-1e3, 0, 5)],
    "koebe_slit_plane": [1 + 1j, -3 + 2j, 10, complex(-1e6, 1e-3),
                         complex(-5, _E), complex(-5, -_E)]
    + [-0.25 + _E * u for u in _RING],
    "slit_disk": [0.5, 0.2j, -0.5 + 0.3j, complex(-0.5, _E),
                  complex(-0.5, -_E)]
    + [(1 - _E) * u for u in _RING] + [_E * u for u in _RING],
    "log_strip": [-1, -3 + 2j, -50, -_E + 1j, -_E - 2j,
                  complex(-1, math.pi - _E), complex(-1, _E - math.pi)],
}


@pytest.mark.parametrize("D", [unit_disk(), punctured_disk(),
                               upper_half_plane(), koebe_slit_plane(),
                               slit_disk(0.3 - 0.2j), log_strip(2 - 1j)],
                         ids=lambda D: D.kind)
def test_psi_inv_inverts_psi(D):
    # to rounding, at interior points and next to every piece of the
    # boundary; the slit disk's and the log strip's points are shifted and
    # scaled by their parameter
    kind = domains.entry(D)
    z = np.array(_PSI_POINTS[D.kind], dtype=complex)
    if D.kind == "slit_disk":
        z = z + D.params[0]
    if D.kind == "log_strip":
        z = z * D.params[0]
    assert domains.contains_vec(D, z).all()
    w = kind.psi(z, *D.params)[0]
    assert np.all(w.imag > 0)
    back = kind.psi_inv(w, *D.params)
    assert np.all(np.abs(back - z) <= 64 * 2.0 ** -52 * np.maximum(
        1.0, np.abs(z)))
    assert domains.contains_vec(D, back).all()


# points of each kind within 1e-3 of where a piece of delta has no
# gradient or is cut off: the disks' centre, the slits' lines and tips
_NEAR_A_SINGULAR_SET = {
    "unit_disk": lambda z: np.abs(z) < 1e-3,
    "punctured_disk": lambda z: np.abs(z) < 1e-3,
    "upper_half_plane": lambda z: np.zeros(z.shape, dtype=bool),
    "koebe_slit_plane": lambda z: (np.abs(z.imag) < 1e-3)
    | (np.abs(z.real + 0.25) < 1e-3),
    "slit_disk": lambda z: (np.abs(z.imag - 0.3) < 1e-3)
    | (np.abs(z.real + 0.2) < 1e-3),
    "log_strip": lambda z: np.zeros(z.shape, dtype=bool),
}


@pytest.mark.parametrize("D", [unit_disk(), punctured_disk(),
                               upper_half_plane(), koebe_slit_plane(),
                               slit_disk(-0.2 + 0.3j), log_strip(2 - 1j)],
                         ids=lambda D: D.kind)
def test_slopes_are_the_gradients_of_the_pieces(D):
    # central differences of each piece, step 1e-7, at seeded interior
    # points where the piece and its four neighbours are finite
    kind = domains.entry(D)
    rng = np.random.default_rng(11)
    centre = D.params[0] if D.kind == "slit_disk" else 0j
    z = centre + 4 * (rng.random(4000) - 0.5 + 1j * (rng.random(4000) - 0.5))
    z = z[domains.contains_vec(D, z) & ~_NEAR_A_SINGULAR_SET[D.kind](z)]
    assert len(z) > 500
    h = 1e-7
    moved = [kind.pieces(z + s, *D.params) for s in (h, -h, 1j * h, -1j * h)]
    slopes = kind.slopes(z, *D.params)
    assert len(slopes) == len(kind.pieces(z, *D.params))
    for k, slope in enumerate(slopes):
        finite = np.all([np.isfinite(x[k]) for x in moved], axis=0)
        assert finite.sum() > 100
        right, left, up, down = (x[k][finite] for x in moved)
        want = (right - left + 1j * (up - down)) / (2 * h)
        got = np.broadcast_to(slope, z.shape)[finite]
        assert np.all(np.abs(got - want) < 1e-6)


def test_disk_slope_at_the_centre_is_zero():
    # a diameter passes through the centre, where 1 - |z| has no gradient;
    # the slope there is 0, not NaN
    with np.errstate(all="raise"):
        (slope,) = domains.entry(unit_disk()).slopes(np.array([0j, 0.5j]))
    assert slope.tolist() == [0j, -1j]


def test_pushforward_density_error_types():
    with pytest.raises(OutsideDomainError):
        pushforward_density(cayley_map(), unit_disk(), 2.0)
    with pytest.raises(OutsideDomainError):
        pushforward_density(cayley_map(), unit_disk(), complex(_NAN, 0))
    with pytest.raises(SingularPointError, match="f'"):
        pushforward_density(power_map(2), unit_disk(), 0)


def test_boundary_distance_disk_and_pdisk():
    assert boundary_distance(unit_disk(), 0.3) == pytest.approx(0.7)
    assert boundary_distance(punctured_disk(), 0.3) == pytest.approx(0.3)
    assert boundary_distance(punctured_disk(), 0.8) == pytest.approx(0.2)


def test_boundary_distance_koebe_slit():
    D = koebe_slit_plane()
    # to the right of the slit tip: distance to the tip itself
    assert boundary_distance(D, 1.0) == pytest.approx(1.25)
    # above the slit: vertical drop
    assert boundary_distance(D, -3 + 0.5j) == pytest.approx(0.5)
    assert boundary_distance(D, 0) == pytest.approx(0.25)


def test_boundary_distance_slit_disk():
    D = slit_disk(0)
    assert boundary_distance(D, 0.5j) == pytest.approx(0.5)
    assert boundary_distance(D, 0.9j) == pytest.approx(1 - 0.9)
    # near the slit from above
    assert boundary_distance(D, -0.5 + 0.1j) == pytest.approx(0.1)


@pytest.mark.parametrize("make, message", [
    (lambda: log_strip(0), "log_strip scale must be nonzero"),
    (lambda: domains.entry(domains.Domain("annulus")),
     "unknown domain kind 'annulus'"),
], ids=["log-strip-scale", "unknown-kind"])
def test_bad_domains_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_boundary_distance_outside_raises():
    with pytest.raises(OutsideDomainError):
        boundary_distance(unit_disk(), 2.0)


@given(disk_points())
def test_lambda_delta_window_on_disk(z):
    lam = hyperbolic_density(unit_disk(), z)
    d = boundary_distance(unit_disk(), z)
    assert 0.25 - 1e-12 <= lam * d <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# image boundary distance

def test_image_boundary_distance_closed_form_route():
    f = koebe_map()
    z = 0.5
    exact = boundary_distance(koebe_slit_plane(), f.value(z))
    assert image_boundary_distance(f, unit_disk(), z) == pytest.approx(exact)


def test_image_boundary_distance_without_catalog_image():
    # univalent, but the Koebe image is not the identity's base domain
    f = compose_maps(identity_map(), koebe_map())
    assert f.univalent and f.image_domain is None
    with pytest.raises(NoDensityRouteError, match="no catalog image domain"):
        image_boundary_distance(f, unit_disk(), 0.3)


# ---------------------------------------------------------------------------
# array kernels give the same values on arrays as point by point

def test_vectorized_agree_with_scalar():
    rng = np.random.default_rng(3)
    z = (rng.uniform(-0.7, 0.7, 64) + 1j * rng.uniform(-0.7, 0.7, 64))
    for D in (unit_disk(), punctured_disk(), upper_half_plane(),
              slit_disk(0), koebe_slit_plane(), log_strip(1)):
        mask = domains.contains_vec(D, z)
        zi = z[mask]
        dv = domains.delta_vec(D, zi)
        lv = domains.density_vec(D, zi)
        for k, p in enumerate(zi):
            one = np.array([p])
            assert domains.contains_vec(D, one)[0] and contains(D, p)
            assert dv[k] == domains.delta_vec(D, one)[0]
            assert lv[k] == domains.density_vec(D, one)[0]
            assert dv[k] == boundary_distance(D, complex(p))
            assert lv[k] == hyperbolic_density(D, complex(p))
        assert not any(contains(D, p) for p in z[~mask])


# ---------------------------------------------------------------------------
# densities against 60-digit references

def _mp_density(D, z):
    """lambda_D at the float point z with mpmath at 60 digits: textbook
    closed forms, and for the slit disk and the log strip the disk density
    pulled back through a chain of maps onto the disk."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        z = mp.mpc(z)
        if D.kind == "unit_disk":
            return 1 / (1 - abs(z) ** 2)
        if D.kind == "punctured_disk":
            return 1 / (2 * abs(z) * mp.log(1 / abs(z)))
        if D.kind == "upper_half_plane":
            return 1 / (2 * z.imag)
        if D.kind == "koebe_slit_plane":
            s = mp.sqrt(4 * z + 1)
            return 1 / (abs(s) * s.real)
        if D.kind == "slit_disk":
            return _mp_slit_disk(mp, z - mp.mpc(D.params[0]))
        u = mp.exp(z / mp.mpc(D.params[0]))  # the log strip onto the slit disk
        return _mp_slit_disk(mp, u) * abs(u / mp.mpc(D.params[0]))


def _mp_slit_disk(mp, u):
    # s = sqrt(-u), arg in (0, 2 pi), onto the upper half disk;
    # t = -(s + 1/s)/2 onto the upper half-plane; (t - i)/(t + i) onto the disk
    th = mp.arg(-u)
    s = mp.sqrt(abs(u)) * mp.expj((th + 2 * mp.pi if th <= 0 else th) / 2)
    t = -(s + 1 / s) / 2
    zeta = (t - 1j) / (t + 1j)
    dzeta = 2j / (t + 1j) ** 2 * (-(1 - 1 / s ** 2) / 2) * (-1 / (2 * s))
    return abs(dzeta) / (1 - abs(zeta) ** 2)


def _near_slit(rng, c, n):
    """n points of slit_disk(c) within 1e-15 to 1e-1 of the slit."""
    out = []
    while len(out) < n:
        u = complex(-rng.uniform(0.0, 0.99),
                    rng.choice((-1, 1)) * 10 ** rng.uniform(-15, -1))
        z = c + u
        if contains(slit_disk(c), z):
            out.append(z)
    return out


def _uniform(rng, D, n):
    """The points of D among n uniform points of the disk about its centre."""
    c = D.params[0] if D.kind == "slit_disk" else 0j
    pts = [c + cmath.rect(math.sqrt(rng.random()),
                          rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    return [p for p in pts if contains(D, p)]


def _max_rel_err(D, z):
    lam = domains.density_vec(D, np.array(z, dtype=complex))
    return max(abs(float((x - _mp_density(D, p)) / _mp_density(D, p)))
               for x, p in zip(lam.tolist(), z))


@pytest.mark.parametrize("c", [0j, 0.3 - 0.2j])
def test_slit_disk_density_near_the_slit(c):
    rng = random.Random(17)
    D = slit_disk(c)
    z = _near_slit(rng, c, 1000) + _uniform(rng, D, 1000)
    assert _max_rel_err(D, z) <= 1e-12


def test_punctured_disk_density_near_both_boundaries():
    rng = random.Random(18)
    z = [cmath.rect(r, rng.uniform(-math.pi, math.pi))
         for r in [1 - 10 ** rng.uniform(-15, -1) for _ in range(300)]
         + [10 ** rng.uniform(-15, -1) for _ in range(300)]]
    z += _uniform(rng, punctured_disk(), 300)
    assert _max_rel_err(punctured_disk(), z) <= 1e-14


def test_other_densities_against_mpmath():
    rng = random.Random(19)
    disk = _uniform(rng, unit_disk(), 500)
    strip = [1.3 * cmath.log(p) for p in _uniform(rng, slit_disk(0), 500)]
    koebe = [w for w in (p / (1 - p) ** 2 for p in disk)
             if contains(koebe_slit_plane(), w)]
    assert _max_rel_err(log_strip(1.3), strip) <= 1e-12
    assert _max_rel_err(koebe_slit_plane(), koebe) <= 1e-15
    assert _max_rel_err(upper_half_plane(),
                        [1j * (1 + p) / (1 - p) for p in disk]) <= 1e-15
    # 1/(1 - |z|^2) itself loses more than 1e-14 near the circle, so the
    # uniformizer is held to it rather than to the 60-digit value
    z = np.array(disk)
    assert np.allclose(domains.density_vec(unit_disk(), z),
                       1.0 / (1.0 - np.abs(z) ** 2), rtol=1e-14, atol=0)
