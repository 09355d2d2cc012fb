"""Catalog of hyperbolic plane regions.

Each domain answers membership, Euclidean boundary distance and hyperbolic
density (curvature -4 normalization throughout: lambda_disk(z) = 1/(1-|z|^2)).
The boundary distance delta is the least of a few closed-form pieces,
and membership is delta > 0; every density is the upper half-plane density
pulled back through the domain's uniformizer psi, whose inverse carries
half-plane geodesics back to the domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Faults, OutsideDomainError, SingularPointError, at_point

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
# one table entry per domain kind
#
# Entry functions take a complex array z and then the domain's params.
# pieces lists the analytic pieces of delta, each a closed-form distance to
# part of the boundary and a fresh array, which the reductions overwrite:
# delta is their least, and is not analytic where the least one changes.
# slopes lists their gradients d/dx + i d/dy in the same order, each an
# array or a constant broadcast against z: a distance to a point or a line
# has a unit gradient, pointing away from it.
# psi maps D onto the upper half-plane and comes with its derivative.  The
# kernels do no membership check, for the solver's inner loop; the checked_*
# functions add those of the scalar API, recording what each point raises.

@dataclass(frozen=True)
class Kind:
    pieces: Callable                 # delta's analytic pieces; see delta_vec
    slopes: Callable                 # the pieces' gradients, in their order
    psi: Callable                    # (psi, psi')
    psi_inv: Callable                # the inverse of psi, on the half-plane
    # radius of a disc about z on which the least piece of delta is
    # analytic, where that is less than delta; None: delta, as only the
    # disk's 1 - |z| is singular inside D (at its centre)
    radius: Callable | None = None
    # the deck translation of Re psi, whose local branches lift the
    # universal covering of D by the half-plane; None on a simply connected
    # kind
    period: float | None = None
    sample_map: str | None = None    # catalog map carrying disk samples onto D
    # or the shift of disk samples into D, which lies in the unit disk about
    # it
    centre: Callable | None = None


def _unit(u):
    # u / |u|, the slope of |u|; 0 at u = 0, where |u| has none, as a
    # diameter of the disk passes through its centre
    r = np.abs(u)
    return u * np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)


def _cayley(z):
    # i(1+z)/(1-z) = (-2y + i(1-|z|^2)) / |1-z|^2: Im psi carries the
    # 1 - |z|^2 of the disk density
    d = 1 - z
    q = np.abs(d) ** 2
    return -2.0 * z.imag / q + 1j * ((1.0 - np.abs(z) ** 2) / q), 2j / d ** 2


def _koebe_psi(z):
    s = np.sqrt(4 * z + 1)
    return 1j * s, 2j / s


def _slit_disk_pieces(z, c):
    # the circle, the slit's tip and the slit's side
    u = z - c
    r = np.abs(u)
    side = u.real < 0.0
    return [1.0 - r, np.where(side, np.inf, r),
            np.where(side, np.abs(u.imag), np.inf)]


def _slit_disk_slopes(z, c):
    u = z - c
    e = _unit(u)
    return [-e, e, 1j * np.sign(u.imag)]


def _slit_disk_psi(z, c):
    # r = sqrt(u) maps the slit disk onto the right half disk, and
    # (1/r - r)/2 maps that onto the right half-plane
    u = z - c
    r = np.sqrt(u)
    return 0.5j * (1 / r - r), -0.25j * (1 + 1 / u) / r


def _slit_disk_psi_inv(w, c):
    # r is the root of r^2 - 2iwr - 1 = 0 with Re r > 0; the roots are
    # iw +- sqrt(1 - w^2), whose product is -1, so the one of larger modulus
    # comes without cancellation and the other is -1/r
    iw, s = 1j * w, np.sqrt(1 - w * w)
    big = np.where(np.abs(iw + s) >= np.abs(iw - s), iw + s, iw - s)
    r = np.where(big.real > 0, big, -1 / big)
    return c + r * r


def _log_strip_pieces(z, c):
    # the end, the upper and the lower edge, scaled by |c|: rounding is
    # monotone, so their least is |c| times the least unscaled one
    u, k = z / c, np.abs(c)
    return [-k * u.real, k * (math.pi - u.imag), k * (math.pi + u.imag)]


def _log_strip_slopes(z, c):
    # -|c| Re(z/c) and |c| Im(z/c) are linear in z, with slopes -c/|c| and
    # i c/|c|
    e = c / abs(c)
    return [-e, -1j * e, 1j * e]


def _log_strip_psi(z, c):
    # exp(w) maps the strip onto the slit disk, whose psi at r = exp(w/2)
    # is -i sinh(w/2).  sinh overflows for Re w < -1420; lambda and h do not
    # change when psi is scaled by a real factor, so such a call scales every
    # point by exp(m/2), m its least Re w, and cancels the large exponent.
    w = z / c
    m = float(np.min(w.real, initial=0.0))
    if m > -1400.0:
        return -1j * np.sinh(w / 2), -0.5j * np.cosh(w / 2) / c
    up, down = np.exp((w + m) / 2), np.exp((m - w) / 2)
    return -0.5j * (up - down), -0.25j * (up + down) / c


_KINDS = {
    "unit_disk": Kind(
        pieces=lambda z: [1.0 - np.abs(z)],
        slopes=lambda z: [-_unit(z)],
        psi=_cayley, psi_inv=lambda w: (w - 1j) / (w + 1j),
        centre=lambda: 0j,
        radius=lambda z: np.minimum(np.abs(z), 1.0 - np.abs(z)),
    ),
    "punctured_disk": Kind(
        pieces=lambda z: [1.0 - (r := np.abs(z)), r],
        slopes=lambda z: [-(e := _unit(z)), e],
        psi=lambda z: (-1j * np.log(z), -1j / z),  # local branches only
        psi_inv=lambda w: np.exp(1j * w), period=2.0 * math.pi,
        centre=lambda: 0j,
    ),
    "upper_half_plane": Kind(
        # a fresh array, NaN where a NaN real part makes no point
        pieces=lambda z: [np.where(np.isnan(z.real), np.nan, z.imag)],
        slopes=lambda z: [1j],
        psi=lambda z: (z, np.ones_like(z)), psi_inv=lambda w: w,
        sample_map="cayley",
    ),
    "koebe_slit_plane": Kind(
        # the slit's side, then its tip
        pieces=lambda z: [np.where(z.real < -0.25, np.abs(z.imag), np.inf),
                          np.abs(z + 0.25)],
        slopes=lambda z: [1j * np.sign(z.imag), _unit(z + 0.25)],
        # psi = i s with s = sqrt(4z + 1)
        psi=_koebe_psi, psi_inv=lambda w: ((-1j * w) ** 2 - 1) / 4,
        sample_map="koebe",
    ),
    "slit_disk": Kind(
        _slit_disk_pieces, _slit_disk_slopes, _slit_disk_psi,
        _slit_disk_psi_inv,
        centre=lambda c: c,
    ),
    # the branch of asinh with Re < 0 and |Im| < pi/2 is the principal one
    # on the half-plane's image i w, whose real part is negative
    "log_strip": Kind(_log_strip_pieces, _log_strip_slopes, _log_strip_psi,
                      lambda w, c: 2 * c * np.arcsinh(1j * w)),
}


def entry(D: Domain) -> Kind:
    """The table entry of D's kind."""
    if D.kind not in _KINDS:
        raise ValueError(f"unknown domain kind {D.kind!r}")
    return _KINDS[D.kind]


def _least(d, p):
    # in place: one array fewer to allocate
    return np.minimum(d, p, out=d)


def _inside(D: Domain, z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The points z of D, where delta d is positive and z finite; a kind
    with a centre lies in the unit disk about it, so there d > 0 holds at
    finite points only."""
    inside = d > 0.0
    if entry(D).centre is None:
        inside &= np.isfinite(z)
    return inside


def contains_vec(D: Domain, z: np.ndarray) -> np.ndarray:
    """Membership: delta is positive exactly at the points of D (a NaN or
    infinite coordinate is outside)."""
    return _inside(D, z, functools.reduce(_least,
                                          entry(D).pieces(z, *D.params)))


def delta_vec(D: Domain, z: np.ndarray) -> np.ndarray:
    """Boundary distance: the least of the pieces of its closed form, each
    analytic in D; not positive outside D."""
    return functools.reduce(_least, entry(D).pieces(z, *D.params))


def density_vec(D: Domain, z: np.ndarray) -> np.ndarray:
    """Hyperbolic density of interior points, curvature -4 normalization:
    the half-plane density 1/(2 Im w) pulled back, |psi'| / (2 Im psi)."""
    with np.errstate(all="ignore"):
        w, dw = entry(D).psi(z, *D.params)
        return np.abs(dw) / (2.0 * w.imag)


def simply_connected(D: Domain) -> bool:
    """True iff the deck group of D's universal covering is trivial."""
    return entry(D).period is None


def outside_error(D: Domain, z: complex) -> OutsideDomainError:
    return OutsideDomainError(f"{z} is not an interior point of {D}")


def checked_delta(D: Domain, z: np.ndarray, faults: Faults) -> np.ndarray:
    """delta_vec, flagging points outside D: those where it is not
    positive, and those with an infinite coordinate."""
    d = delta_vec(D, z)
    faults.flag(~_inside(D, z, d),
                lambda i: outside_error(D, complex(z.flat[i])))
    return d


def checked_psi(D: Domain, z: np.ndarray, faults: Faults):
    """(psi, psi'), flagging points outside D."""
    checked_delta(D, z, faults)
    return entry(D).psi(z, *D.params)


def checked_density(D: Domain, z: np.ndarray, faults: Faults) -> np.ndarray:
    """density_vec, flagging points outside D and points where the density
    is not finite and positive: within a denormal of the boundary the true
    density is beyond the float range."""
    checked_delta(D, z, faults)
    lam = density_vec(D, z)
    faults.flag(~(lam > 0.0) | np.isinf(lam),
                SingularPointError("hyperbolic density is not a finite "
                                   "positive float here"))
    return lam


# ---------------------------------------------------------------------------
# scalar API

def contains(D: Domain, z: complex) -> bool:
    """True iff z is an interior point of D."""
    with np.errstate(all="ignore"):  # z / c warns at an infinite z
        return bool(contains_vec(D, np.array([complex(z)]))[0])


def boundary_distance(D: Domain, z: complex) -> float:
    """Euclidean distance from z to the boundary of D (closed forms)."""
    return float(at_point(checked_delta, D, z)[0])


def hyperbolic_density(D: Domain, z: complex) -> float:
    """Poincare density of D at z, curvature -4 normalization."""
    return float(at_point(checked_density, D, z)[0])
