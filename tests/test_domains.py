import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conformal_metrics import (
    NoDensityRouteError,
    OutsideDomainError,
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
    f = koebe_map()
    j = f.jet(z)
    lhs = hyperbolic_density(koebe_slit_plane(), j.f0) * abs(j.f1)
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


def test_density_route_missing():
    with pytest.raises(NoDensityRouteError):
        hyperbolic_density(log_strip(1), -1 + 0j)


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
              slit_disk(0), koebe_slit_plane()):
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
