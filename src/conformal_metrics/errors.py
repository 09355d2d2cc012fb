"""Exception types shared across the package.

All recoverable failures raise a subclass of :class:`ConformalMetricsError`
so that sweeps can catch one type, record the sample as skipped, and move on.
Array evaluations record those errors per point in a :class:`Faults`.
A number read from text, a point's coordinate or a map's parameter, passes
through :func:`parse_finite`.
"""

import math

import numpy as np


class ConformalMetricsError(Exception):
    """Base class for all errors raised by this package."""


class NotLocallyUnivalentError(ConformalMetricsError):
    """Jet has vanishing first derivative; T and S are undefined."""


class OutsideDomainError(ConformalMetricsError):
    """A point was queried against a domain that does not contain it."""


class SingularPointError(ConformalMetricsError):
    """Map evaluation requested at a singular point of its formula."""


class IncompatibleCompositionError(ConformalMetricsError):
    """Sampled image of the inner map leaves the outer map's base domain."""


class MapNotUnivalentError(ConformalMetricsError):
    """Operation requires a univalent map but got a covering map."""


class NoDensityRouteError(ConformalMetricsError):
    """A map has no catalog image domain."""


class QuadratureError(ConformalMetricsError):
    """Graded quadrature did not converge to the requested tolerance."""


class InvalidParameterError(ConformalMetricsError, ValueError):
    """Catalog constructor called with parameters violating its invariants."""


def parse_finite(text: str) -> float:
    """The finite number `text` spells; InvalidParameterError for a NaN or
    an infinity, or for one beyond the float range."""
    x = float(text)
    if not math.isfinite(x):
        raise InvalidParameterError(f"{text!r} is not a finite number")
    return x


class Faults:
    """The error a scalar call would raise at each point of an array.

    Array kernels evaluate every point at once.  Callers flag each check in
    the order the scalar code makes it; a point keeps the first error flagged
    at it, so it reports what a per-point loop would have raised there.
    """

    def __init__(self, shape):
        self.errors = {}  # flat index -> error
        self.clean = np.ones(shape, dtype=bool)

    def flag(self, mask, error):
        """Record `error` at the clean points where `mask` holds: an
        exception, a reason string for a skip that raises nothing, or a
        function from a flat index to either."""
        hit = np.logical_and(mask, self.clean)
        if not hit.any():
            return
        for i in np.flatnonzero(hit).tolist():
            self.errors[i] = error(i) if callable(error) else error
        self.clean &= ~hit


def at_point(checked, *args, **kwargs):
    """Evaluate checked(*args, faults=..., **kwargs), whose last argument z is
    one point or a 1-d array of points, and raise the error of the first point
    that has one, as a loop over the points would; returns the values as
    arrays, of length 1 for a single point."""
    *lead, z = args
    z = (np.array([complex(z)]) if np.ndim(z) == 0
         else np.asarray(z, dtype=complex))
    faults = Faults(z.shape)
    with np.errstate(all="ignore"):
        value = checked(*lead, z, faults=faults, **kwargs)
    if faults.errors:
        raise faults.errors[min(faults.errors)]
    return value
