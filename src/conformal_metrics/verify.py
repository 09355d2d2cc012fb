"""The bound-checking engine.

Every inequality the library knows about is evaluated over deterministic,
seeded sample sets; results come back as a BoundReport with margins, extremal
witnesses and an explicit violation list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import domains, jets, maps
from .domains import Domain
from .errors import (
    ConformalMetricsError,
    Faults,
    NotLocallyUnivalentError,
    OutsideDomainError,
    SingularPointError,
    at_point,
)
from .jets import pre_schwarzian, schwarzian, compose
from .maps import AnalyticMap

__all__ = [
    "SampleSet",
    "BoundReport",
    "distortion_ratio",
    "quantity",
    "check_pointwise_bounds",
    "punctured_disk_ratio",
    "check_distance_comparison",
    "check_log_construction",
    "check_composition_laws",
    "check_covering_identity",
    "estimate_uniformity_constant",
    "BOUNDS",
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

    def _disk_array(self, D: Domain | None = None) -> np.ndarray:
        """Sample points in the unit disk according to the strategy, shifted
        by the centre of D when D, a kind with a centre, is given.

        Each sample takes two draws from random.Random(seed): the angle,
        then the radius (or, for radial_line, the abscissa).  A sample at 0,
        one that rounds onto or beyond the unit circle (near_boundary with
        eps near float resolution at |z| = 1), or one whose shift rounds
        outside D is dropped, and the stream continues."""
        rng = random.Random(self.seed)
        e = self.eps if self.eps is not None else 1e-6
        c = None if D is None else domains.entry(D).centre(*D.params)
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
            z = z[(z != 0) & (np.abs(z) < 1.0)]
            if c is not None:
                z = z + c
                z = z[domains.contains_vec(D, z)]
            out = np.concatenate([out, z])
        return out

    def disk_points(self) -> list[complex]:
        """Sample points in the unit disk according to the strategy."""
        return self._disk_array().tolist()

    def points(self, D: Domain) -> np.ndarray:
        """Samples inside D, as a complex array: disk samples pushed through
        the catalog map onto D, or shifted to D's centre, where one that
        rounds outside D gives way to the strategy's next draw."""
        entry = domains.entry(D)
        if entry.sample_map is not None:
            with np.errstate(all="ignore"):
                return maps.sample_values(entry.sample_map, self._disk_array())
        if entry.centre is None:
            raise ValueError(f"no sampling strategy for domain kind {D.kind!r}")
        return self._disk_array(D)


def _draws(rng: random.Random, n: int) -> np.ndarray:
    """The next 2n values of rng, as n rows of two.

    One getrandbits call yields the 32-bit words that 2n calls of
    rng.random() would consume, little-endian, and leaves rng in the same
    state; each value is random()'s own formula on a pair of words (a, b):
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53.
    """
    bits = rng.getrandbits(128 * n).to_bytes(16 * n, "little")
    w = np.frombuffer(bits, dtype="<u4").astype(np.uint64).reshape(2 * n, 2)
    return ((w[:, 0] >> 5) * 2**26 + (w[:, 1] >> 6)).reshape(n, 2) / 2.0**53


def _uniform(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """random.uniform(a, b) applied to the draws u."""
    return a + (b - a) * u


def _rect(r: np.ndarray, th: np.ndarray) -> np.ndarray:
    """cmath.rect elementwise."""
    z = np.empty(th.shape, dtype=complex)
    z.real = r * np.cos(th)
    z.imag = r * np.sin(th)
    return z


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
    return float(at_point(quantity, f, D, z, name="ratio")[0])


# the T and S quantities: |T_f| and |S_f|, undefined where f' = 0
_SIZES = {"T": (pre_schwarzian, jets.PRE_SCHWARZIAN_UNDEFINED),
          "S": (schwarzian, jets.SCHWARZIAN_UNDEFINED)}


def quantity(f: AnalyticMap, D: Domain, z: np.ndarray, name: str,
             faults: Faults, jet=None) -> np.ndarray:
    """|f'|/delta of the image ("ratio"), |T_f| ("T") or |S_f| ("S") at every
    point of z, flagging in `faults` what a scalar evaluation raises at each
    point: the jet's errors, f' = 0, then those of delta of the image.  `jet`
    is the jet of f at z when the caller has it; its errors are then flagged
    already."""
    if jet is None:
        jet = maps.checked_jet(f, z, faults)
    if name == "ratio":
        maps.flag_critical(f, z, jet, faults)
        return np.abs(jet.f1) / maps.checked_image_delta(f, D, z, faults, jet)
    size, undefined = _SIZES[name]
    faults.flag(jet.f1 == 0, NotLocallyUnivalentError(undefined))
    return np.abs(size(jet))


def checked_punctured_disk_ratio(z: np.ndarray, faults: Faults) -> np.ndarray:
    """punctured_disk_ratio at every point of z, flagging in `faults` the
    points outside the punctured disk."""
    domains.checked_delta(domains.punctured_disk(), z, faults)
    # hypot rounds |z| more closely than np.abs of a complex array does
    r = np.hypot(z.real, z.imag)
    return 2.0 * np.log(1.0 / r) / (1.0 - r)


def punctured_disk_ratio(z: complex) -> float:
    """2 log(1/|z|) / (1 - |z|): the unbounded ratio witnessing that the
    simply-connected bounds fail on the punctured disk."""
    return float(at_point(checked_punctured_disk_ratio, z)[0])


# ---------------------------------------------------------------------------
# pointwise bound checks

@dataclass(frozen=True)
class Bound:
    """One sharp window lower <= value <= upper.  The value is a quantity
    read off the map's jet at z, normalized by powers of lambda_D(z) and
    delta_D(z) so the window is scale free."""

    lower: float
    upper: float                # thm41 multiplies it by Q
    quantity: str | None        # "ratio", "T", "S", or None: reads no map
    value: Callable             # (quantity, lambda, delta) -> value
    lam: bool = False           # reads lambda_D
    delta: bool = False         # reads delta_D
    simply_connected: bool = False


BOUNDS = {
    "thm21": Bound(1.0, 4.0, "ratio", lambda q, lam, d: q / lam, lam=True,
                   simply_connected=True),
    "lemma31": Bound(0.25, 4.0, "ratio", lambda q, lam, d: q * d, delta=True),
    "lambda_delta": Bound(0.25, 1.0, None, lambda q, lam, d: lam * d,
                          lam=True, delta=True),
    "koebe_distortion": Bound(0.25, 1.0, "ratio", lambda q, lam, d: lam / q,
                              lam=True, simply_connected=True),
    "osgood_T": Bound(0.0, 8.0, "T", lambda q, lam, d: q / lam, lam=True,
                      simply_connected=True),
    "osgood_T_delta": Bound(0.0, 4.0, "T", lambda q, lam, d: q * d,
                            delta=True),
    "lehto_S": Bound(0.0, 12.0, "S", lambda q, lam, d: q / lam ** 2,
                     lam=True, simply_connected=True),
    "gehring_S": Bound(0.0, 6.0, "S", lambda q, lam, d: q * d ** 2,
                       delta=True),
    "thm41": Bound(0.25, 4.0, "ratio", lambda q, lam, d: q / lam, lam=True),
    "cor43": Bound(0.125, 8.0, "ratio", lambda q, lam, d: q / lam, lam=True),
}
BOUND_KINDS = tuple(BOUNDS)

# errors that skip a sample; any other error at a sample aborts the check
_SKIPPED = (NotLocallyUnivalentError, SingularPointError, OutsideDomainError)


def check_pointwise_bounds(f: AnalyticMap | None, D: Domain,
                           samples: SampleSet, kind: str,
                           Q: float | None = None,
                           rtol: float = RTOL_CLOSED_FORM,
                           constants_override: dict | None = None) -> BoundReport:
    """Evaluate one named inequality at every sample; see BOUND_KINDS.

    The recorded per-sample value is normalized so the window constants are
    scale free (e.g. thm21 records ratio/lambda with window [1, 4]).
    """
    if kind not in BOUNDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    bound = BOUNDS[kind]
    if bound.quantity is not None and f is None:
        raise ValueError(f"kind {kind!r} requires a map")
    if bound.simply_connected and not domains.simply_connected(D):
        raise ValueError(f"kind/domain mismatch: {kind} needs a simply "
                         f"connected domain, got {D.kind}")
    if bound.simply_connected and f is not None and not f.univalent:
        raise ValueError(f"kind/domain mismatch: {kind} needs a univalent map")

    if Q is not None and not (math.isfinite(Q) and Q > 0):
        raise ValueError(f"Q must be finite and positive, got {Q!r}")
    for name, value in (constants_override or {}).items():
        if not math.isfinite(value):
            raise ValueError(f"override constant {name} = {value!r} is not "
                             "finite")
    lo, hi = bound.lower, bound.upper
    if kind == "thm41":
        if Q is None:
            raise ValueError("thm41 needs the uniformity constant Q")
        hi *= Q
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
    if t is not None:  # cor43's T side is Osgood's window
        t_hi = BOUNDS["osgood_T"].upper
        checks.append((t > t_hi + rtol, t, t_hi))
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
    bound = BOUNDS[kind]
    lam = domains.checked_density(D, z, faults) if bound.lam else None
    delta = domains.checked_delta(D, z, faults) if bound.delta else None
    if bound.quantity is None:
        return bound.value(None, lam, delta), None
    jet = maps.checked_jet(f, z, faults)
    q = quantity(f, D, z, bound.quantity, faults, jet)
    t = np.abs(pre_schwarzian(jet)) / lam if kind == "cor43" else None
    return bound.value(q, lam, delta), t


# ---------------------------------------------------------------------------
# distance comparison (quasihyperbolic vs hyperbolic)

def check_distance_comparison(f: AnalyticMap, pre_pairs,
                              cfg=None) -> BoundReport:
    """k_{f(D)}(f(z1), f(z2)) / h_D(z1, z2) against thm21's window [1, 4]:
    integrating lambda <= 1/delta <= 4 lambda gives h <= k <= 4h.  cfg is
    the solver's metrics.SolverConfig, its defaults when None."""
    from . import metrics  # only this check runs the solver

    cfg = cfg or metrics.SolverConfig()
    if f.image_domain is None:
        raise ValueError("distance comparison needs a closed-form image domain")
    if not f.univalent:
        raise ValueError("kind/domain mismatch: thm21 needs a univalent map")
    lo_slack = 1e-3 + 4 * cfg.tolerance
    hi_slack = 1e-2 + 4 * cfg.tolerance
    z, v = [], []
    for z1, z2 in pre_pairs:
        h = metrics.hyperbolic_distance(f.base_domain, z1, z2)
        if h == 0.0:
            k = h = 1.0  # coincident pair, by convention
        else:
            k, _ = metrics.quasihyperbolic_distance(
                f.image_domain, f.value(z1), f.value(z2), cfg)
        z.append(complex(z1))
        v.append(k / h)
    z, v = np.array(z, dtype=complex), np.array(v, dtype=float)
    lo, hi = BOUNDS["thm21"].lower, BOUNDS["thm21"].upper
    constants = {"lower": lo, "upper": hi,
                 "lower_slack": lo_slack, "upper_slack": hi_slack}
    return _report("cor22", constants, z, v, Faults(z.shape),
                   [(v < lo - lo_slack, v, lo), (v > hi + hi_slack, v, hi)])


# ---------------------------------------------------------------------------
# logarithm construction (necessity mechanism)

def check_log_construction(D: Domain, z0: complex, c: complex = 1.0) -> BoundReport:
    """Distortion ratio of f = c Log(z - zeta0) with zeta0 = the slit
    endpoint (the puncture / slit tip of D).

    f'(z0) and delta of the image are those of log_slit_map(zeta0, c) on
    slit_disk(zeta0), whose image is the half-strip
    c * {Re w < 0, |Im w| < pi}.  With u = z0 - zeta0:

    - punctured disk: the slit of the single-valuedness base is taken
      opposite to z0, so f is evaluated at zeta0 + |u|, on the strip's
      center line, where delta of the image is |c| * min(log(1/|u|), pi);
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
    delta = domains.boundary_distance(D, z0)
    zeta0 = D.params[0] if D.kind == "slit_disk" else 0j
    f = maps.log_slit_map(zeta0, c)
    at = z0 if D.kind == "slit_disk" else zeta0 + abs(z0 - zeta0)
    fprime = abs(f.jet(at).f1)
    delta_image = maps.image_boundary_distance(f, f.base_domain, at)
    r = fprime / delta_image
    a = r * delta
    b = r / domains.hyperbolic_density(D, z0)
    c = f.params[1]
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
    lam_delta, _ = at_point(_evaluate, None, D, samples.points(D),
                            kind="lambda_delta")
    q = 1.0 / lam_delta
    return float(np.max(q, where=q > 0.0, initial=0.0))
