"""Catalog of analytic, conformal and covering maps.

Every map evaluates to an exact order-3 jet at any admissible point via
closed-form derivative formulas; composites evaluate by the jet chain rule.
No numerical differentiation anywhere.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import domains
from .domains import Domain
from .errors import (
    Faults,
    IncompatibleCompositionError,
    InvalidParameterError,
    MapNotUnivalentError,
    NoDensityRouteError,
    SingularPointError,
    at_point,
    parse_finite,
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
    "image_boundary_distance",
    "pushforward_density",
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
    if n * (n - 1) * (n - 2) > sys.float_info.max:
        raise InvalidParameterError("power exponent too large: its jet "
                                    "coefficients overflow")
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
    (zeta_re, c_re) or (zeta_re, zeta_im, c_re, c_im); power takes n.  A
    parameter must be a finite number.
    """
    name, _, rest = spec.partition(":")
    args = [parse_finite(t) for t in rest.split(",")] if rest else []
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

# the values of the maps that carry disk samples onto a domain
# (domains.Kind.sample_map), alone; their jets below start from them
_VALUES = {
    "koebe": lambda z: z / (1 - z) ** 2,
    "cayley": lambda z: 1j * (1 + z) / (1 - z),
}


def sample_values(tag: str, z: np.ndarray) -> np.ndarray:
    """The values of the catalog map `tag` (a Kind.sample_map) at the points
    z, bit for bit the f0 of its jets, with no check."""
    return _VALUES[tag](z)


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
        jet = JetArray(_VALUES["koebe"](z), (1 + z) / d ** 3,
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
        jet = JetArray(_VALUES["cayley"](z), 2j / d ** 2, 4j / d ** 3,
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
        domains.checked_delta(f.base_domain, z, faults)
    return _jet_formula(f, z, faults)


def _critical(f: AnalyticMap, z: np.ndarray) -> np.ndarray:
    """Where f' has a zero: at z = 0 for a power n >= 2, at z = -1 for
    koebe, and for f o g where g' has one, or where g(z) is one of f' and
    g'(z) reads nonzero.  In the catalog a g'(z) that reads 0 off the
    zeros of g' comes with a g(z) that underflowed too, as power(400) at
    0.1 does.  A 0 in a jet's f' anywhere else is a nonzero value below the
    float range."""
    if f.kind == "composite":
        outer, inner = f.factors
        with np.errstate(all="ignore"):
            jet = _jet_formula(inner, z, Faults(z.shape))
        return _critical(inner, z) | (_critical(outer, jet.f0)
                                      & (jet.f1 != 0))
    if f.kind == "power" and f.params[0] >= 2:
        return z == 0
    if f.kind == "koebe":
        return z == -1
    return np.zeros(z.shape, dtype=bool)


def flag_critical(f: AnalyticMap, z: np.ndarray, jet: JetArray,
                  faults: Faults):
    """Flag in `faults` the points of z where the jet's f' is 0: a zero of
    f', or a nonzero f' below the float range."""
    def error(i):
        w = z.flat[i:i + 1]
        # the repr of a complex with a real part brings its own parentheses
        at = str(complex(w[0])).strip("()")
        if _critical(f, w)[0]:
            return SingularPointError(f"f'({at}) = 0")
        return SingularPointError(f"f'({at}) is nonzero but below the float "
                                  "range")

    faults.flag(jet.f1 == 0, error)


def eval_jet(f: AnalyticMap, z: complex) -> Jet3:
    """Exact Jet3 of f at an interior point of its base domain."""
    return Jet3(*(complex(v[0]) for v in at_point(checked_jet, f, z)))


# ---------------------------------------------------------------------------
# image boundary distance

def checked_image_delta(f: AnalyticMap, base: Domain, z: np.ndarray,
                        faults: Faults, jet: JetArray | None = None):
    """delta of f(base) at f(z), in the catalog image domain of f, at every
    point of z, flagging in `faults` what image_boundary_distance raises at
    each point.  `jet` is the jet of f at z when the caller has it; its
    errors are then flagged already.  The image domain is that of f's base
    domain: ValueError for any other base."""
    if base != f.base_domain:
        raise ValueError(f"kind/domain mismatch: {f.describe()} has base "
                         f"domain {f.base_domain}, got {base}")
    if not f.univalent:
        faults.flag(True, MapNotUnivalentError(f"{f.kind} is not univalent"))
    if f.image_domain is None:
        faults.flag(True, NoDensityRouteError(
            f"no catalog image domain for {f.describe()}"))
        return np.full(z.shape, np.nan)
    domains.checked_delta(base, z, faults)
    if jet is None:
        jet = checked_jet(f, z, faults)
    return domains.checked_delta(f.image_domain, jet.f0, faults)


def image_boundary_distance(f: AnalyticMap, base: Domain, z: complex) -> float:
    """delta of f(base) at f(z), in the catalog image domain of f."""
    return float(at_point(checked_image_delta, f, base, z)[0])


# ---------------------------------------------------------------------------
# pushforward density

def checked_pushforward_density(f: AnalyticMap, base: Domain, z: np.ndarray,
                                faults: Faults) -> np.ndarray:
    """lambda of f(base) at f(z), lambda_base(z) / |f'(z)|, at every point
    of z, flagging in `faults` what pushforward_density raises at each
    point: the density's errors, the jet's, then f' = 0."""
    lam = domains.checked_density(base, z, faults)
    jet = checked_jet(f, z, faults)
    flag_critical(f, z, jet, faults)
    # hypot rounds |f'| more closely than np.abs of a complex array does
    return lam / np.hypot(jet.f1.real, jet.f1.imag)


def pushforward_density(f: AnalyticMap, base: Domain, z: complex) -> float:
    """lambda of f(base) at the point f(z), via conformal invariance:
    lambda_{f(D)}(f(z)) = lambda_D(z) / |f'(z)|."""
    return float(at_point(checked_pushforward_density, f, base, z)[0])


# ---------------------------------------------------------------------------
# composition

def compose_maps(f: AnalyticMap, g: AnalyticMap,
                 check_samples: int = 256, seed: int = 0) -> AnalyticMap:
    """f o g on the base domain of g.

    Domain compatibility is spot-checked by mapping `check_samples` seeded
    uniform samples of g's base through g (none when 0); symbolic image
    computation is out of scope.
    """
    if not f.entire and check_samples:
        from .verify import SampleSet  # verify imports this module

        z = SampleSet(seed, check_samples).points(g.base_domain)
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
