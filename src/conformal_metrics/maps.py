"""Catalog of analytic, conformal and covering maps.

Every map evaluates to an exact order-3 jet at any admissible point via
closed-form derivative formulas; composites evaluate by the jet chain rule.
No numerical differentiation anywhere.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import domains
from .domains import Domain
from .errors import (
    Faults,
    IncompatibleCompositionError,
    InvalidParameterError,
    OutsideDomainError,
    SingularPointError,
    at_point,
)
from .jets import Jet3, JetArray, check_finite, compose

__all__ = [
    "AnalyticMap",
    "identity_map",
    "koebe_map",
    "mobius_map",
    "cayley_map",
    "log_slit_map",
    "power_map",
    "punctured_disk_covering_map",
    "make_catalog_map",
    "eval_jet",
    "compose_maps",
    "parse_map_spec",
]


@dataclass(frozen=True)
class AnalyticMap:
    """A catalog map with its base domain and (when known) exact image."""

    kind: str
    params: tuple
    base_domain: Domain
    univalent: bool
    image_domain: Domain | None = None
    entire: bool = False  # analytic on all of C: composition needs no check
    factors: tuple = ()   # composite(f, g) stores (f, g), outer first

    def jet(self, z: complex) -> Jet3:
        return eval_jet(self, z)

    def value(self, z: complex) -> complex:
        return eval_jet(self, z).f0

    def value_unchecked(self, z: complex) -> complex:
        """Evaluate the formula without membership checks (boundary
        extension); raises on singular points."""
        return complex(at_point(_jet_formula, self, z).f0[0])

    def describe(self) -> str:
        if self.kind == "composite":
            return " o ".join(f.describe() for f in self.factors)
        if self.params:
            ps = ",".join(_fmt_param(p) for p in self.params)
            return f"{self.kind}({ps})"
        return self.kind


def _fmt_param(p) -> str:
    if isinstance(p, complex):
        return f"{p.real:g}{p.imag:+g}i" if p.imag else f"{p.real:g}"
    return f"{p:g}"


# ---------------------------------------------------------------------------
# constructors

def identity_map() -> AnalyticMap:
    return AnalyticMap(
        "identity", (), domains.unit_disk(), True,
        image_domain=domains.unit_disk(), entire=True,
    )


def koebe_map() -> AnalyticMap:
    """k(z) = z/(1-z)^2, the disk onto the plane minus (-inf, -1/4]."""
    return AnalyticMap(
        "koebe", (), domains.unit_disk(), True,
        image_domain=domains.koebe_slit_plane(),
    )


def mobius_map(a: complex, theta: float = 0.0) -> AnalyticMap:
    """z -> e^{i theta} (z - a)/(1 - conj(a) z), a disk automorphism."""
    a = complex(a)
    if abs(a) >= 1:
        raise InvalidParameterError("mobius parameter must satisfy |a| < 1")
    return AnalyticMap(
        "mobius", (a, float(theta)), domains.unit_disk(), True,
        image_domain=domains.unit_disk(),
    )


def cayley_map() -> AnalyticMap:
    """z -> i(1+z)/(1-z), the disk onto the upper half-plane."""
    return AnalyticMap(
        "cayley", (), domains.unit_disk(), True,
        image_domain=domains.upper_half_plane(),
    )


def log_slit_map(zeta0: complex, c: complex) -> AnalyticMap:
    """z -> c Log(z - zeta0), principal branch, on zeta0 + (slit disk)."""
    zeta0 = complex(zeta0)
    c = complex(c)
    if c == 0:
        raise InvalidParameterError("log_slit scale c must be nonzero")
    return AnalyticMap(
        "log_slit", (zeta0, c), domains.slit_disk(zeta0), True,
        image_domain=domains.log_strip(c),
    )


def power_map(n: int) -> AnalyticMap:
    if n < 1:
        raise InvalidParameterError("power exponent must be >= 1")
    return AnalyticMap(
        "power", (int(n),), domains.unit_disk(), n == 1,
        image_domain=domains.unit_disk() if n == 1 else None, entire=True,
    )


def punctured_disk_covering_map() -> AnalyticMap:
    """z -> exp((z+1)/(z-1)), the classical covering of the punctured disk.

    Locally univalent on the disk but not univalent: image_domain records the
    exact image, while delta-of-image queries are rejected.
    """
    return AnalyticMap(
        "punctured_disk_covering", (), domains.unit_disk(), False,
        image_domain=domains.punctured_disk(),
    )


_CONSTRUCTORS: dict[str, Callable[..., AnalyticMap]] = {
    "identity": identity_map,
    "koebe": koebe_map,
    "mobius": mobius_map,
    "cayley": cayley_map,
    "log_slit": log_slit_map,
    "logslit": log_slit_map,
    "power": power_map,
    "punctured_disk_covering": punctured_disk_covering_map,
    "pdc": punctured_disk_covering_map,
}


def make_catalog_map(tag: str, *params) -> AnalyticMap:
    try:
        ctor = _CONSTRUCTORS[tag]
    except KeyError:
        raise InvalidParameterError(f"unknown map tag {tag!r}") from None
    return ctor(*params)


def parse_map_spec(spec: str) -> AnalyticMap:
    """Parse the CLI mini-grammar `name[:p1,p2,...]`.

    mobius takes (a_re, theta) or (a_re, a_im, theta); logslit takes
    (zeta_re, c_re) or (zeta_re, zeta_im, c_re, c_im); power takes n.
    """
    name, _, rest = spec.partition(":")
    args = [float(t) for t in rest.split(",")] if rest else []
    name = name.strip()
    if name == "mobius":
        if len(args) == 2:
            return mobius_map(args[0], args[1])
        if len(args) == 3:
            return mobius_map(complex(args[0], args[1]), args[2])
        raise InvalidParameterError("mobius needs 2 or 3 parameters")
    if name in ("logslit", "log_slit"):
        if len(args) == 2:
            return log_slit_map(args[0], args[1])
        if len(args) == 4:
            return log_slit_map(complex(args[0], args[1]), complex(args[2], args[3]))
        raise InvalidParameterError("logslit needs 2 or 4 parameters")
    if name == "power":
        if len(args) != 1 or args[0] != int(args[0]):
            raise InvalidParameterError("power needs one integer parameter")
        return power_map(int(args[0]))
    if args:
        raise InvalidParameterError(f"{name} takes no parameters")
    return make_catalog_map(name)


# ---------------------------------------------------------------------------
# jet evaluation

def _jet_formula(f: AnalyticMap, z: np.ndarray, faults: Faults) -> JetArray:
    """Exact jets of f at every point of the array z, flagging in `faults`
    the singular points of the formula and points with non-finite entries.
    No membership check."""
    kind = f.kind
    if kind == "identity":
        jet = JetArray(z, np.ones_like(z), np.zeros_like(z), np.zeros_like(z))
    elif kind == "koebe":
        faults.flag(z == 1, SingularPointError("koebe is singular at z = 1"))
        d = 1 - z
        jet = JetArray(z / d ** 2, (1 + z) / d ** 3,
                       2 * (2 + z) / d ** 4, 6 * (3 + z) / d ** 5)
    elif kind == "mobius":
        a, theta = f.params
        e = cmath.exp(1j * theta)
        ac = a.conjugate()
        d = 1 - ac * z
        faults.flag(d == 0, SingularPointError("mobius pole"))
        u = 1 - abs(a) ** 2
        jet = JetArray(e * (z - a) / d, e * u / d ** 2,
                       2 * e * ac * u / d ** 3, 6 * e * ac ** 2 * u / d ** 4)
    elif kind == "cayley":
        faults.flag(z == 1, SingularPointError("cayley is singular at z = 1"))
        d = 1 - z
        jet = JetArray(1j * (1 + z) / d, 2j / d ** 2, 4j / d ** 3,
                       12j / d ** 4)
    elif kind == "log_slit":
        zeta0, c = f.params
        u = z - zeta0
        faults.flag(u == 0, SingularPointError(
            "log_slit singular at its branch point"))
        jet = JetArray(c * np.log(u), c / u, -c / u ** 2, 2 * c / u ** 3)
    elif kind == "power":
        n = f.params[0]
        f2 = n * (n - 1) * z ** (n - 2) if n >= 2 else np.zeros_like(z)
        f3 = (n * (n - 1) * (n - 2) * z ** (n - 3) if n >= 3
              else np.zeros_like(z))
        jet = JetArray(z ** n, n * z ** (n - 1), f2, f3)
    elif kind == "punctured_disk_covering":
        faults.flag(z == 1,
                    SingularPointError("essential singularity at z = 1"))
        d = z - 1
        p = np.exp((z + 1) / d)
        w1 = -2 / d ** 2
        w2 = 4 / d ** 3
        w3 = -12 / d ** 4
        jet = JetArray(p, p * w1, p * (w1 * w1 + w2),
                       p * (w1 ** 3 + 3 * w1 * w2 + w3))
    elif kind == "composite":
        outer, inner = f.factors
        jg = _jet_formula(inner, z, faults)
        jet = compose(_jet_formula(outer, jg.f0, faults), jg)
    else:
        raise ValueError(f"unknown map kind {kind!r}")
    return check_finite(jet, faults)


def checked_jet(f: AnalyticMap, z: np.ndarray, faults: Faults) -> JetArray:
    """Jets of f at every point of z, flagging in `faults` what eval_jet
    raises at each point."""
    if not f.entire:
        faults.flag(~domains.contains_vec(f.base_domain, z), lambda i:
                    OutsideDomainError(f"{complex(z.flat[i])} outside base "
                                       f"domain of {f.describe()}"))
    return _jet_formula(f, z, faults)


def eval_jet(f: AnalyticMap, z: complex) -> Jet3:
    """Exact Jet3 of f at an interior point of its base domain."""
    return Jet3(*(complex(v[0]) for v in at_point(checked_jet, f, z)))


# ---------------------------------------------------------------------------
# composition

def compose_maps(f: AnalyticMap, g: AnalyticMap,
                 check_samples: int = 256, seed: int = 0) -> AnalyticMap:
    """f o g on the base domain of g.

    Domain compatibility is spot-checked by mapping `check_samples` random
    interior points of g's base through g; symbolic image computation is out
    of scope.
    """
    if not f.entire:
        rng = random.Random(seed)
        z = np.array([_random_interior_point(g.base_domain, rng)
                      for _ in range(check_samples)], dtype=complex)
        faults = Faults(z.shape)
        with np.errstate(all="ignore"):
            gz = checked_jet(g, z, faults).f0
        faults.flag(~domains.contains_vec(f.base_domain, gz), lambda i:
                    IncompatibleCompositionError(
                        f"{g.describe()} maps {complex(z[i])} to "
                        f"{complex(gz[i])}, outside the base domain of "
                        f"{f.describe()}"))
        for i in sorted(faults.errors):
            if not isinstance(faults.errors[i], SingularPointError):
                raise faults.errors[i]
    univalent = f.univalent and g.univalent
    image = None
    if univalent and g.image_domain == f.base_domain:
        image = f.image_domain
    return AnalyticMap(
        "composite", (), g.base_domain, univalent,
        image_domain=image, entire=f.entire and g.entire, factors=(f, g),
    )


def _random_interior_point(D: Domain, rng: random.Random) -> complex:
    """A random point of a map's base domain: the disk or a shifted slit
    disk."""
    shift = D.params[0] if D.kind == "slit_disk" else 0j
    for _ in range(10000):
        z = cmath.rect(math.sqrt(rng.random()) * 0.999,
                       rng.uniform(-math.pi, math.pi)) + shift
        if domains.contains(D, z):
            return z
    raise RuntimeError(f"could not sample an interior point of {D}")
