"""Catalog of hyperbolic plane regions.

Each domain answers membership, Euclidean boundary distance and hyperbolic
density (curvature -4 normalization throughout: lambda_disk(z) = 1/(1-|z|^2)).
Densities of the two slit domains are obtained by pulling back the density of
a model domain through explicit conformal maps; everything else is closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Faults,
    MapNotUnivalentError,
    NoDensityRouteError,
    OutsideDomainError,
    SingularPointError,
    at_point,
)

__all__ = [
    "Domain",
    "unit_disk",
    "punctured_disk",
    "upper_half_plane",
    "koebe_slit_plane",
    "slit_disk",
    "log_strip",
    "contains",
    "boundary_distance",
    "hyperbolic_density",
    "pushforward_density",
    "image_boundary_distance",
    "simply_connected",
]


@dataclass(frozen=True)
class Domain:
    """A hyperbolic region identified by a catalog tag plus parameters."""

    kind: str
    params: tuple = ()

    def __repr__(self):
        if self.params:
            return f"Domain({self.kind}, {self.params})"
        return f"Domain({self.kind})"


def unit_disk() -> Domain:
    return Domain("unit_disk")


def punctured_disk() -> Domain:
    return Domain("punctured_disk")


def upper_half_plane() -> Domain:
    return Domain("upper_half_plane")


def koebe_slit_plane() -> Domain:
    """The plane minus the ray (-inf, -1/4]; the image of the disk under the
    Koebe function."""
    return Domain("koebe_slit_plane")


def slit_disk(center: complex = 0j) -> Domain:
    """center + (unit disk minus the radius (-1, 0]).

    The single-valuedness base for c*Log(z - center).
    """
    return Domain("slit_disk", (complex(center),))


def log_strip(c: complex = 1 + 0j) -> Domain:
    """c times the half-strip {Re w < 0, |Im w| < pi}; the image of the slit
    disk under c*Log."""
    if c == 0:
        raise ValueError("log_strip scale must be nonzero")
    return Domain("log_strip", (complex(c),))


# ---------------------------------------------------------------------------
# array kernels: membership, boundary distance and density
#
# These are the only implementations of the three quantities.  They take
# complex arrays and do no membership check: the geodesic solver calls them in
# its inner loop on points it knows to be interior.  The checked_* functions
# add the checks of the scalar API, recording per point what it would raise.

def contains_vec(D: Domain, z: np.ndarray) -> np.ndarray:
    kind = D.kind
    if kind == "unit_disk":
        return np.abs(z) < 1.0
    if kind == "punctured_disk":
        return (np.abs(z) < 1.0) & (z != 0)
    if kind == "upper_half_plane":
        return z.imag > 0.0
    if kind == "koebe_slit_plane":
        return ~((z.imag == 0.0) & (z.real <= -0.25))
    if kind == "slit_disk":
        u = z - D.params[0]
        return (np.abs(u) < 1.0) & ~((u.imag == 0.0) & (u.real <= 0.0))
    if kind == "log_strip":
        u = z / D.params[0]
        return (u.real < 0.0) & (np.abs(u.imag) < math.pi)
    raise ValueError(f"unknown domain kind {kind!r}")


def delta_vec(D: Domain, z: np.ndarray) -> np.ndarray:
    """Boundary distance of interior points (closed forms)."""
    kind = D.kind
    if kind == "unit_disk":
        return 1.0 - np.abs(z)
    if kind == "punctured_disk":
        r = np.abs(z)
        return np.minimum(r, 1.0 - r)
    if kind == "upper_half_plane":
        return z.imag.copy() if np.iscomplexobj(z) else np.imag(z)
    if kind == "koebe_slit_plane":
        return np.where(z.real >= -0.25, np.abs(z + 0.25), np.abs(z.imag))
    if kind == "slit_disk":
        u = z - D.params[0]
        t = np.clip(-u.real, 0.0, 1.0)
        seg = np.abs(u + t)
        return np.minimum(1.0 - np.abs(u), seg)
    if kind == "log_strip":
        c = D.params[0]
        u = z / c
        return np.abs(c) * np.minimum(
            -u.real, np.minimum(math.pi - u.imag, math.pi + u.imag)
        )
    raise ValueError(f"unknown domain kind {kind!r}")


def _slit_disk_preimage(u: np.ndarray):
    """Conformal map of the slit disk onto the disk, with derivative.

    Chain: u -> s = sqrt(-u) (branch arg in (0, 2pi)) onto the upper half
    disk, s -> t = -(s + 1/s)/2 onto the upper half plane, t -> (t-i)/(t+i)
    onto the disk.  Returns (value, derivative).
    """
    v = -u
    th = np.angle(v)
    th = np.where(th <= 0.0, th + 2 * math.pi, th)
    s = np.exp(0.5 * (np.log(np.abs(v)) + 1j * th))
    t = -(s + 1 / s) / 2
    zeta = (t - 1j) / (t + 1j)
    ds = -1 / (2 * s)
    dt = -(1 - 1 / (s * s)) / 2
    dzeta = 2j / (t + 1j) ** 2
    return zeta, dzeta * dt * ds


def density_vec(D: Domain, z: np.ndarray) -> np.ndarray:
    """Hyperbolic density of interior points, curvature -4 normalization.

    The Koebe slit plane pulls back the right half-plane density
    1/(2 Re s) through s = sqrt(4z + 1); the slit disk pulls back the disk
    density through its uniformizing map, and gives nan where the preimage
    of a point rounds onto the unit circle.
    """
    kind = D.kind
    if kind == "unit_disk":
        return 1.0 / (1.0 - np.abs(z) ** 2)
    if kind == "punctured_disk":
        r = np.abs(z)
        return 1.0 / (2.0 * r * np.log(1.0 / r))
    if kind == "upper_half_plane":
        return 1.0 / (2.0 * z.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "koebe_slit_plane":
            # lambda_H(s) |ds/dz| with lambda_H(s) = 1/(2 Re s), ds/dz = 2/s
            s = np.sqrt(4 * z + 1)
            return 1.0 / (np.abs(s) * s.real)
        if kind == "slit_disk":
            zeta, dphi = _slit_disk_preimage(z - D.params[0])
            den = 1.0 - np.abs(zeta) ** 2
            return np.where(den > 0.0, np.abs(dphi) / den, np.nan)
    raise NoDensityRouteError(f"no conformal route to the disk for {D}")


def outside_error(D: Domain, z: complex) -> OutsideDomainError:
    return OutsideDomainError(f"{z} is not an interior point of {D}")


def require_inside(D: Domain, z: np.ndarray, faults: Faults) -> None:
    faults.flag(~contains_vec(D, z),
                lambda i: outside_error(D, complex(z.flat[i])))


def checked_delta(D: Domain, z: np.ndarray, faults: Faults) -> np.ndarray:
    """delta_vec, flagging points outside D."""
    require_inside(D, z, faults)
    return delta_vec(D, z)


def checked_density(D: Domain, z: np.ndarray, faults: Faults) -> np.ndarray:
    """density_vec, flagging points outside D and slit-disk points too close
    to the slit for the density route."""
    if D.kind == "log_strip":
        # no conformal route back to the disk is stored for it
        raise NoDensityRouteError(f"no conformal route to the disk for {D}")
    require_inside(D, z, faults)
    lam = density_vec(D, z)
    if D.kind == "slit_disk":
        # interior per `contains`, but so close to the slit that the
        # uniformizing preimage rounds onto the unit circle
        faults.flag(np.isnan(lam), SingularPointError(
            "point too close to the slit for the density route"))
    return lam


# ---------------------------------------------------------------------------
# scalar API

def contains(D: Domain, z: complex) -> bool:
    """True iff z is an interior point of D."""
    return bool(contains_vec(D, np.array([complex(z)]))[0])


def _require_inside(D: Domain, z: complex):
    if not contains(D, z):
        raise outside_error(D, z)


def boundary_distance(D: Domain, z: complex) -> float:
    """Euclidean distance from z to the boundary of D (closed forms)."""
    return float(at_point(checked_delta, D, z)[0])


def hyperbolic_density(D: Domain, z: complex) -> float:
    """Poincare density of D at z, curvature -4 normalization."""
    return float(at_point(checked_density, D, z)[0])


def pushforward_density(f, base: Domain, z: complex) -> float:
    """lambda of f(base) at the point f(z), via conformal invariance:
    lambda_{f(D)}(f(z)) = lambda_D(z) / |f'(z)|."""
    _require_inside(base, z)
    j = f.jet(z)
    if j.f1 == 0:
        raise SingularPointError(f"f'({z}) = 0")
    return hyperbolic_density(base, z) / abs(j.f1)


# ---------------------------------------------------------------------------
# image boundary distance

def image_boundary_distance(f, base: Domain, z: complex) -> float:
    """delta of f(base) at f(z), in the catalog image domain of f."""
    if not f.univalent:
        raise MapNotUnivalentError(f"{f.kind} is not univalent")
    if f.image_domain is None:
        raise no_image_error(f)
    _require_inside(base, z)
    return boundary_distance(f.image_domain, f.value(z))


def no_image_error(f) -> NoDensityRouteError:
    return NoDensityRouteError(
        f"no catalog image domain for {f.describe()}")


# ---------------------------------------------------------------------------
# structural queries

def simply_connected(D: Domain) -> bool:
    return D.kind != "punctured_disk"


def bounding_box(D: Domain):
    """(xmin, xmax, ymin, ymax) for bounded catalog domains, else None."""
    if D.kind in ("unit_disk", "punctured_disk"):
        return (-1.0, 1.0, -1.0, 1.0)
    if D.kind == "slit_disk":
        c = D.params[0]
        return (c.real - 1.0, c.real + 1.0, c.imag - 1.0, c.imag + 1.0)
    return None
