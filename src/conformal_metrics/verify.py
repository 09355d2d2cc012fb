"""The bound-checking engine.

Every inequality the library knows about is evaluated over deterministic,
seeded sample sets; results come back as a BoundReport with margins, extremal
witnesses and an explicit violation list.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import domains, jets, maps, metrics
from .domains import Domain
from .errors import (
    ConformalMetricsError,
    Faults,
    MapNotUnivalentError,
    NotLocallyUnivalentError,
    OutsideDomainError,
    SingularPointError,
)
from .jets import pre_schwarzian, schwarzian, compose
from .maps import AnalyticMap

__all__ = [
    "SampleSet",
    "BoundReport",
    "distortion_ratio",
    "check_pointwise_bounds",
    "punctured_disk_ratio",
    "check_distance_comparison",
    "check_log_construction",
    "check_composition_laws",
    "check_covering_identity",
    "estimate_uniformity_constant",
    "BOUND_KINDS",
]

# Default violation tolerance; delta of the image is always closed form.
RTOL_CLOSED_FORM = 1e-9


@dataclass(frozen=True)
class SampleSet:
    """Reproducible sample specification."""

    seed: int
    count: int
    strategy: str = "uniform_disk"  # uniform_disk | radial_line |
                                    # near_boundary | near_puncture
    eps: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.strategy in ("near_boundary", "near_puncture"):
            e = self.eps if self.eps is not None else 1e-6
            if not (0 < e < 0.5):
                raise ValueError("eps must lie in (0, 1/2)")
            if self.strategy == "near_boundary" and 1.0 - e == 1.0:
                raise ValueError(f"eps {e:g} is below float resolution at "
                                 "|z| = 1: every sample would round onto "
                                 "the unit circle")

    def _disk_array(self) -> np.ndarray:
        """Sample points in the unit disk according to the strategy.

        Each sample takes two draws from random.Random(seed): the angle,
        then the radius (or, for radial_line, the abscissa).  A sample at 0
        is dropped and the stream continues.
        """
        rng = random.Random(self.seed)
        e = self.eps if self.eps is not None else 1e-6
        out = np.empty(0, dtype=complex)
        while len(out) < self.count:
            u = _draws(rng, self.count - len(out))
            th = _uniform(-math.pi, math.pi, u[:, 0])
            if self.strategy == "uniform_disk":
                z = _rect(np.sqrt(u[:, 1]), th)
            elif self.strategy == "radial_line":
                z = _uniform(1e-3, 1 - 1e-3, u[:, 1]) + 0j
            elif self.strategy in ("near_boundary", "near_puncture"):
                r = np.exp(_uniform(math.log(e), math.log(0.5), u[:, 1]))
                z = _rect(1.0 - r if self.strategy == "near_boundary" else r,
                          th)
            else:
                raise ValueError(f"unknown strategy {self.strategy!r}")
            out = np.concatenate([out, z[z != 0]])
        return out

    def disk_points(self) -> list[complex]:
        """Sample points in the unit disk according to the strategy."""
        return self._disk_array().tolist()

    def points(self, D: Domain) -> np.ndarray:
        """Samples inside D, as a complex array: disk samples pushed through
        the catalog map onto non-disk domains."""
        base = self._disk_array()
        kind = D.kind
        if kind in ("unit_disk", "punctured_disk"):
            return base
        if kind == "upper_half_plane":
            return _map_values(maps.cayley_map(), base)
        if kind == "koebe_slit_plane":
            return _map_values(maps.koebe_map(), base)
        if kind == "slit_disk":
            # disk samples that land in D after the shift, then fresh
            # uniform draws from random.Random(seed + 1) until count
            c = D.params[0]
            out = base + c
            out = out[domains.contains_vec(D, out)]
            rng = random.Random(self.seed + 1)
            while len(out) < self.count:
                u = _draws(rng, self.count - len(out))
                z = _rect(np.sqrt(u[:, 0]), _uniform(-math.pi, math.pi,
                                                     u[:, 1])) + c
                out = np.concatenate([out, z[domains.contains_vec(D, z)]])
            return out
        raise ValueError(f"no sampling strategy for domain kind {kind!r}")


def _draws(rng: random.Random, n: int) -> np.ndarray:
    """The next 2n values of rng, as n rows of two."""
    return np.array([rng.random() for _ in range(2 * n)]).reshape(n, 2)


def _uniform(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """random.uniform(a, b) applied to the draws u."""
    return a + (b - a) * u


def _rect(r: np.ndarray, th: np.ndarray) -> np.ndarray:
    """cmath.rect elementwise."""
    z = np.empty(th.shape, dtype=complex)
    z.real = r * np.cos(th)
    z.imag = r * np.sin(th)
    return z


def _map_values(f: AnalyticMap, z: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return maps.checked_jet(f, z, Faults(z.shape)).f0


@dataclass
class BoundReport:
    kind: str
    constants: dict
    samples_checked: int
    min_ratio: float
    max_ratio: float
    argmin: complex
    argmax: complex
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "constants": self.constants,
            "samples_checked": self.samples_checked,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "argmin": [self.argmin.real, self.argmin.imag],
            "argmax": [self.argmax.real, self.argmax.imag],
            "violations": [
                {"z": [v["z"].real, v["z"].imag], "lhs": v["lhs"], "rhs": v["rhs"]}
                for v in self.violations
            ],
            "skipped": [
                {"z": [s["z"].real, s["z"].imag], "reason": s["reason"]}
                for s in self.skipped
            ],
        }


# ---------------------------------------------------------------------------
# pointwise quantities

def distortion_ratio(f: AnalyticMap, D: Domain, z: complex) -> float:
    """|f'(z)| / delta_{f(D)}(f(z)), the quantity all the sharp bounds
    control."""
    j = f.jet(z)
    if j.f1 == 0:
        raise _critical_point(z)
    return abs(j.f1) / domains.image_boundary_distance(f, D, z)


def _critical_point(z) -> SingularPointError:
    return SingularPointError(f"f'({z}) = 0")


def punctured_disk_ratio(z: complex) -> float:
    """2 log(1/|z|) / (1 - |z|): the unbounded ratio witnessing that the
    simply-connected bounds fail on the punctured disk."""
    r = abs(complex(z))
    if not (0 < r < 1):
        raise OutsideDomainError("need 0 < |z| < 1")
    return 2.0 * math.log(1.0 / r) / (1.0 - r)


# ---------------------------------------------------------------------------
# pointwise bound checks

BOUND_KINDS = (
    "thm21", "lemma31", "lambda_delta", "koebe_distortion",
    "osgood_T", "osgood_T_delta", "lehto_S", "gehring_S", "thm41", "cor43",
)

_NEEDS_SIMPLY_CONNECTED = {"thm21", "koebe_distortion", "lehto_S", "osgood_T"}
_NEEDS_MAP = set(BOUND_KINDS) - {"lambda_delta"}
_NEEDS_LAMBDA = {"thm21", "thm41", "cor43", "lambda_delta", "osgood_T",
                 "lehto_S", "koebe_distortion"}
_NEEDS_DELTA = {"lemma31", "lambda_delta", "osgood_T_delta", "gehring_S"}

# errors that skip a sample; any other error at a sample aborts the check
_SKIPPED = (NotLocallyUnivalentError, SingularPointError, OutsideDomainError)


def _bound_window(kind: str, Q: float | None) -> tuple[float, float]:
    if kind == "thm21":
        return 1.0, 4.0
    if kind == "lemma31":
        return 0.25, 4.0
    if kind in ("lambda_delta", "koebe_distortion"):
        return 0.25, 1.0
    if kind == "osgood_T":
        return 0.0, 8.0
    if kind == "osgood_T_delta":
        return 0.0, 4.0
    if kind == "lehto_S":
        return 0.0, 12.0
    if kind == "gehring_S":
        return 0.0, 6.0
    if kind == "thm41":
        if Q is None:
            raise ValueError("thm41 needs the uniformity constant Q")
        return 0.25, 4.0 * Q
    if kind == "cor43":
        return 0.125, 8.0
    raise ValueError(f"unknown bound kind {kind!r}")


def check_pointwise_bounds(f: AnalyticMap | None, D: Domain,
                           samples: SampleSet, kind: str,
                           Q: float | None = None,
                           rtol: float = RTOL_CLOSED_FORM,
                           constants_override: dict | None = None) -> BoundReport:
    """Evaluate one named inequality at every sample; see BOUND_KINDS.

    The recorded per-sample value is normalized so the window constants are
    scale free (e.g. thm21 records ratio/lambda with window [1, 4]).
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    if kind in _NEEDS_MAP and f is None:
        raise ValueError(f"kind {kind!r} requires a map")
    if kind in _NEEDS_SIMPLY_CONNECTED and not domains.simply_connected(D):
        raise ValueError(f"kind/domain mismatch: {kind} needs a simply "
                         f"connected domain, got {D.kind}")
    if kind in _NEEDS_SIMPLY_CONNECTED and f is not None and not f.univalent:
        raise ValueError(f"kind/domain mismatch: {kind} needs a univalent map")

    lo, hi = _bound_window(kind, Q)
    constants = {"lower": lo, "upper": hi, "rtol": rtol,
                 "delta_route": "closed_form"}
    if Q is not None:
        constants["Q"] = Q
    if constants_override:
        constants.update(constants_override)
        lo, hi = constants["lower"], constants["upper"]

    z = samples.points(D)
    faults = Faults(z.shape)
    with np.errstate(all="ignore"):
        v, t = _evaluate(f, D, z, kind, faults)
    checks = [(v < lo - rtol, v, lo), (v > hi + rtol, v, hi)]
    if t is not None:
        checks.append((t > 8.0 + rtol, t, 8.0))
    return _report(kind, constants, z, v, faults, checks)


def _report(kind, constants, z, v, faults, checks,
            skippable=_SKIPPED) -> BoundReport:
    """BoundReport of the values v over the samples z that `faults` leaves
    clean.  A flagged sample is skipped when its entry is a reason string or
    a `skippable` error; any other error aborts, as in a per-sample loop.
    `checks` lists (violated, lhs, rhs) over all samples, in report order."""
    skip = sorted(faults.errors)
    for i in skip:
        err = faults.errors[i]
        if isinstance(err, Exception) and not isinstance(err, skippable):
            raise err
    ok = faults.clean
    if not ok.any():
        raise ConformalMetricsError("all samples were skipped")
    zs, vs = z[ok], v[ok]
    imin, imax = int(np.argmin(vs)), int(np.argmax(vs))
    violations = [
        {"z": w, "lhs": x, "rhs": rhs}
        for bad, lhs, rhs in checks
        for w, x in zip(z[ok & bad].tolist(), lhs[ok & bad].tolist())
    ]
    skipped = [{"z": complex(z[i]), "reason": str(faults.errors[i])}
               for i in skip]
    return BoundReport(kind, constants, len(vs), float(vs[imin]),
                       float(vs[imax]), complex(zs[imin]), complex(zs[imax]),
                       violations, skipped)


def _evaluate(f, D, z, kind, faults):
    """(value, T) of a bound kind at every sample; T is |f''/f'|/lambda for
    cor43 and None otherwise.  Checks are flagged in `faults` in the order
    the scalar API makes them, so each sample keeps the error a per-sample
    evaluation would raise."""
    if kind in _NEEDS_LAMBDA:
        lam = domains.checked_density(D, z, faults)
    if kind in _NEEDS_DELTA:
        delta = domains.checked_delta(D, z, faults)
    if kind == "lambda_delta":
        return lam * delta, None
    jet = maps.checked_jet(f, z, faults)
    if kind in ("thm21", "thm41", "cor43", "lemma31", "koebe_distortion"):
        faults.flag(jet.f1 == 0, lambda i: _critical_point(complex(z[i])))
        d_image = _image_delta(f, D, z, jet, faults)
        if kind == "koebe_distortion":
            return d_image * lam / np.abs(jet.f1), None
        ratio = np.abs(jet.f1) / d_image
        if kind == "lemma31":
            return ratio * delta, None
        t = np.abs(pre_schwarzian(jet)) / lam if kind == "cor43" else None
        return ratio / lam, t
    if kind in ("osgood_T", "osgood_T_delta"):
        faults.flag(jet.f1 == 0,
                    NotLocallyUnivalentError(jets.PRE_SCHWARZIAN_UNDEFINED))
        size = np.abs(pre_schwarzian(jet))
        return (size / lam if kind == "osgood_T" else size * delta), None
    faults.flag(jet.f1 == 0,
                NotLocallyUnivalentError(jets.SCHWARZIAN_UNDEFINED))
    size = np.abs(schwarzian(jet))
    return (size / lam ** 2 if kind == "lehto_S" else size * delta ** 2), None


def _image_delta(f, D, z, jet, faults):
    """domains.image_boundary_distance at every sample, given the jets."""
    if not f.univalent:
        faults.flag(True, MapNotUnivalentError(f"{f.kind} is not univalent"))
    if f.image_domain is None:
        faults.flag(True, domains.no_image_error(f))
        return np.full(z.shape, np.nan)
    domains.require_inside(D, z, faults)
    return domains.checked_delta(f.image_domain, jet.f0, faults)


# ---------------------------------------------------------------------------
# distance comparison (quasihyperbolic vs hyperbolic)

def check_distance_comparison(f: AnalyticMap, pre_pairs,
                              cfg: metrics.SolverConfig | None = None) -> BoundReport:
    """k_{f(D)}(f(z1), f(z2)) / h_D(z1, z2) against the window [1, 4]."""
    cfg = cfg or metrics.SolverConfig()
    if f.image_domain is None:
        raise ValueError("distance comparison needs a closed-form image domain")
    lo_slack = 1e-3 + 4 * cfg.tolerance
    hi_slack = 1e-2 + 4 * cfg.tolerance
    values = []
    for z1, z2 in pre_pairs:
        h = metrics.hyperbolic_distance_disk(z1, z2)
        if h == 0.0:
            values.append((1.0, complex(z1)))  # coincident pair, by convention
            continue
        k, _ = metrics.quasihyperbolic_distance(
            f.image_domain, f.value(z1), f.value(z2), cfg
        )
        values.append((k / h, complex(z1)))
    vmin, zmin = min(values, key=lambda t: t[0])
    vmax, zmax = max(values, key=lambda t: t[0])
    violations = [
        {"z": z, "lhs": v, "rhs": 1.0} for v, z in values if v < 1.0 - lo_slack
    ] + [
        {"z": z, "lhs": v, "rhs": 4.0} for v, z in values if v > 4.0 + hi_slack
    ]
    constants = {"lower": 1.0, "upper": 4.0,
                 "lower_slack": lo_slack, "upper_slack": hi_slack}
    return BoundReport("cor22", constants, len(values), vmin, vmax,
                       zmin, zmax, violations)


# ---------------------------------------------------------------------------
# logarithm construction (necessity mechanism)

def check_log_construction(D: Domain, z0: complex, c: complex = 1.0) -> BoundReport:
    """Distortion ratio of f = c Log(z - zeta0) with zeta0 = the slit
    endpoint (the puncture / slit tip of D).

    The image is the half-strip c * {Re w < 0, |Im w| < pi}.  With
    u = z0 - zeta0:

    - punctured disk: the slit of the single-valuedness base is taken
      opposite to z0, so f(z0) lies on the strip's center line and delta of
      the image is |c| * min(log(1/|u|), pi);
    - slit disk: the slit is fixed along zeta0 + (-1, 0], so f(z0) sits at
      height arg u and delta of the image is
      |c| * min(log(1/|u|), pi - |arg u|).

    On the punctured disk, lambda = 1/(2|u| log(1/|u|)) gives the closed form

        ratio_over_lambda = 2 log(1/|u|) / min(log(1/|u|), pi),

    which is exactly 2 for |u| >= e^{-pi} and equals 2 log(1/|u|)/pi below:
    the ratio is unbounded only at the puncture, and exceeds 50 only for
    |u| < e^{-25 pi} (about 7.8e-35).  The reported ratios are invariant
    under rescaling c.
    """
    if D.kind not in ("punctured_disk", "slit_disk"):
        raise ValueError("log construction is defined on punctured-disk or "
                         "slit-disk bases")
    z0 = complex(z0)
    if not domains.contains(D, z0):
        raise OutsideDomainError(f"{z0} not interior to {D}")
    zeta0 = D.params[0] if D.kind == "slit_disk" else 0j
    c = complex(c)
    if c == 0:
        raise ValueError("scale c must be nonzero")
    u = z0 - zeta0
    fprime = abs(c) / abs(u)
    half_width = math.pi
    if D.kind == "slit_disk":
        half_width -= abs(cmath.phase(u))
    delta_image = abs(c) * min(math.log(1.0 / abs(u)), half_width)
    r = fprime / delta_image
    a = r * domains.boundary_distance(D, z0)
    b = r / domains.hyperbolic_density(D, z0)
    constants = {
        "zeta0": [zeta0.real, zeta0.imag],
        "c": [c.real, c.imag],
        "fprime_abs": fprime,
        "delta_image": delta_image,
        "ratio_times_delta": a,
        "ratio_over_lambda": b,
    }
    return BoundReport("log_construction", constants, 1, b, b, z0, z0)


# ---------------------------------------------------------------------------
# transformation laws and the covering identity

def check_composition_laws(f: AnalyticMap, g: AnalyticMap,
                           samples: SampleSet, rtol: float = 1e-11) -> BoundReport:
    """T_{f o g} = (T_f o g) g' + T_g and S_{f o g} = (S_f o g) g'^2 + S_g,
    checked with exact jets at every sample."""
    z = samples.points(g.base_domain)
    faults = Faults(z.shape)
    with np.errstate(all="ignore"):
        jg = maps.checked_jet(g, z, faults)
        jf = maps.checked_jet(f, jg.f0, faults)
        jh = jets.check_finite(compose(jf, jg), faults)
        faults.flag((jh.f1 == 0) | (jf.f1 == 0) | (jg.f1 == 0),
                    NotLocallyUnivalentError(jets.PRE_SCHWARZIAN_UNDEFINED))
        t_direct = pre_schwarzian(jh)
        t_law = pre_schwarzian(jf) * jg.f1 + pre_schwarzian(jg)
        s_direct = schwarzian(jh)
        s_law = schwarzian(jf) * jg.f1 ** 2 + schwarzian(jg)
        dev_t = np.abs(t_direct - t_law) / np.maximum(1.0, np.abs(t_direct))
        # S is a difference of terms of size |T|^2, so that is the scale on
        # which float cancellation happens and the right normalizer
        dev_s = np.abs(s_direct - s_law) / np.maximum(
            np.maximum(1.0, np.abs(s_direct)), np.abs(t_direct) ** 2)
        v = np.maximum(dev_t, dev_s)
    return _report("composition_laws", {"rtol": rtol}, z, v, faults,
                   [(v > rtol, v, rtol)])


def check_covering_identity(samples: SampleSet, rtol: float = 1e-10,
                            max_radius: float = 0.95) -> BoundReport:
    """lambda_{D*}(p(z)) |p'(z)| (1 - |z|^2) = 1 for the punctured-disk
    covering p(z) = exp((z+1)/(z-1)).

    Samples with |z| > max_radius are skipped: there |p(z)| is so close to 0
    or 1 that the log in the density loses the relative accuracy the check
    asserts.
    """
    p = maps.punctured_disk_covering_map()
    z = samples._disk_array()
    faults = Faults(z.shape)
    with np.errstate(all="ignore"):
        faults.flag(np.abs(z) > max_radius, "near-boundary precision")
        j = maps.checked_jet(p, z, faults)
        faults.flag(np.abs(j.f0) < 1e-300, "covering value underflow")
        lam = domains.checked_density(domains.punctured_disk(), j.f0, faults)
        v = lam * np.abs(j.f1) * (1.0 - np.abs(z) ** 2)
    return _report("covering_identity", {"target": 1.0, "rtol": rtol}, z, v,
                   faults, [(np.abs(v - 1.0) > rtol, v, 1.0)], skippable=())


# ---------------------------------------------------------------------------
# uniformity constant

def estimate_uniformity_constant(D: Domain, samples: SampleSet) -> float:
    """Empirical Q-hat = max over samples of 1/(lambda_D delta_D); converges
    to the domain constant of uniformity from below (infinite supremum for
    non-uniformly-perfect domains such as the punctured disk)."""
    z = samples.points(D)
    faults = Faults(z.shape)
    with np.errstate(all="ignore"):
        q = 1.0 / (domains.checked_density(D, z, faults)
                   * domains.checked_delta(D, z, faults))
    if faults.errors:
        raise faults.errors[min(faults.errors)]
    return float(np.max(q, where=q > 0.0, initial=0.0))
