"""Exception types shared across the package.

All recoverable failures raise a subclass of :class:`ConformalMetricsError`
so that sweeps can catch one type, record the sample as skipped, and move on.
Array evaluations record those errors per point in a :class:`Faults`.
"""

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
    """No conformal or covering route to the disk is registered."""


class NoGridPathError(ConformalMetricsError):
    """Grid Dijkstra could not connect the endpoints; raise the resolution."""


class InvalidParameterError(ConformalMetricsError, ValueError):
    """Catalog constructor called with parameters violating its invariants."""


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


def at_point(checked, subject, z: complex):
    """Evaluate checked(subject, z, faults) at the single point z, raising the
    error it records there; returns the value as arrays of length 1."""
    z = np.array([complex(z)])
    faults = Faults(z.shape)
    with np.errstate(all="ignore"):
        value = checked(subject, z, faults)
    if faults.errors:
        raise faults.errors[0]
    return value
