"""Order-3 jet arithmetic for analytic maps.

A jet carries the value and the first three raw derivatives of an analytic
map at a fixed base point.  Order 3 is the smallest truncation closed under
composition that still determines both the pre-Schwarzian f''/f' and the
Schwarzian f'''/f' - (3/2)(f''/f')^2.  Derivatives are stored raw, not as
Taylor coefficients.  A Jet3 holds one point; a JetArray holds the jets at
many points as four complex arrays, and the same formulas act on both.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Faults, NotLocallyUnivalentError

__all__ = ["Jet3", "JetArray", "compose", "scale", "pre_schwarzian",
           "schwarzian"]

NOT_FINITE = "jet entries must be finite"
PRE_SCHWARZIAN_UNDEFINED = "pre-Schwarzian undefined: f' = 0"
SCHWARZIAN_UNDEFINED = "Schwarzian undefined: f' = 0"


@dataclass(frozen=True, slots=True)
class Jet3:
    """Value and first three derivatives of an analytic map at a point."""

    f0: complex
    f1: complex
    f2: complex
    f3: complex

    def __post_init__(self):
        for v in (self.f0, self.f1, self.f2, self.f3):
            if not (cmath.isfinite(complex(v))):
                raise ValueError(NOT_FINITE)

    @property
    def locally_univalent(self) -> bool:
        return self.f1 != 0


class JetArray(NamedTuple):
    """Jets at many points, entry by entry.  Entries are not checked: the
    map kernels record singular and non-finite points separately."""

    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray


def check_finite(j: JetArray, faults: Faults) -> JetArray:
    """Flag the points where an entry of j is not finite, which Jet3
    rejects."""
    finite = (np.isfinite(j.f0) & np.isfinite(j.f1) & np.isfinite(j.f2)
              & np.isfinite(j.f3))
    faults.flag(~finite, ValueError(NOT_FINITE))
    return j


def compose(outer, inner):
    """Jet of f o g from the jet of f at g(z) and the jet of g at z, as the
    type of `outer` (Jet3 or JetArray).

    Order-3 chain rule (Faa di Bruno with raw derivatives):
      h1 = f1 g1,  h2 = f2 g1^2 + f1 g2,  h3 = f3 g1^3 + 3 f2 g1 g2 + f1 g3.
    """
    g1, g2, g3 = inner.f1, inner.f2, inner.f3
    return type(outer)(
        outer.f0,
        outer.f1 * g1,
        outer.f2 * g1 * g1 + outer.f1 * g2,
        outer.f3 * g1 ** 3 + 3 * outer.f2 * g1 * g2 + outer.f1 * g3,
    )


def scale(c: complex, j: Jet3) -> Jet3:
    """Every entry multiplied by c (the jet of c*f)."""
    return Jet3(c * j.f0, c * j.f1, c * j.f2, c * j.f3)


def pre_schwarzian(j):
    """f''/f' at the base point.  Requires local univalence (f' != 0): a
    Jet3 with f' = 0 raises, on a JetArray the caller masks those points."""
    if isinstance(j, Jet3) and j.f1 == 0:
        raise NotLocallyUnivalentError(PRE_SCHWARZIAN_UNDEFINED)
    return j.f2 / j.f1


def schwarzian(j):
    """f'''/f' - (3/2)(f''/f')^2 at the base point.  Requires f' != 0, as
    pre_schwarzian does."""
    if isinstance(j, Jet3) and j.f1 == 0:
        raise NotLocallyUnivalentError(SCHWARZIAN_UNDEFINED)
    t = j.f2 / j.f1
    return j.f3 / j.f1 - 1.5 * t * t
