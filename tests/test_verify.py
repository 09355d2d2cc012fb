import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conformal_metrics import (
    BOUND_KINDS,
    ConformalMetricsError,
    MapNotUnivalentError,
    NoDensityRouteError,
    NotLocallyUnivalentError,
    OutsideDomainError,
    Polyline,
    SampleSet,
    SingularPointError,
    boundary_distance,
    cayley_map,
    check_composition_laws,
    check_covering_identity,
    check_distance_comparison,
    check_log_construction,
    check_pointwise_bounds,
    compose_maps,
    contains,
    distortion_ratio,
    estimate_uniformity_constant,
    hyperbolic_density,
    hyperbolic_distance,
    identity_map,
    image_boundary_distance,
    koebe_map,
    koebe_slit_plane,
    log_slit_map,
    log_strip,
    mobius_map,
    path_quadrature,
    power_map,
    pre_schwarzian,
    punctured_disk,
    punctured_disk_covering_map,
    punctured_disk_ratio,
    pushforward_density,
    quasihyperbolic_distance,
    schwarzian,
    slit_disk,
    unit_disk,
    upper_half_plane,
)
from conformal_metrics import domains, maps, make_catalog_map
from conformal_metrics.cli import main
from conformal_metrics.errors import Faults, at_point
from conformal_metrics.verify import quantity
from helpers import lambda_lower_violation_witness, random_map_pair


S = SampleSet(seed=7, count=400)


def test_sample_sets_are_reproducible():
    a = SampleSet(seed=3, count=50).disk_points()
    b = SampleSet(seed=3, count=50).disk_points()
    assert a == b
    c = SampleSet(seed=4, count=50).disk_points()
    assert a != c


def test_sample_strategies_land_where_claimed():
    for z in SampleSet(seed=1, count=100, strategy="radial_line").disk_points():
        assert z.imag == 0 and 0 < z.real < 1
    for z in SampleSet(seed=1, count=100, strategy="near_boundary",
                       eps=1e-8).disk_points():
        assert 0.5 <= abs(z) < 1
    for z in SampleSet(seed=1, count=100, strategy="near_puncture",
                       eps=1e-8).disk_points():
        assert 0 < abs(z) <= 0.5


def test_samples_pushed_into_each_domain():
    for D in (upper_half_plane(), koebe_slit_plane(), slit_disk(0)):
        for z in S.points(D):
            assert contains(D, z)


@pytest.mark.parametrize("D", [upper_half_plane(), koebe_slit_plane()],
                         ids=lambda D: D.kind)
@pytest.mark.parametrize("strategy", ["uniform_disk", "radial_line",
                                      "near_boundary", "near_puncture"])
def test_sample_values_are_the_jets_values(D, strategy):
    # the sample map's values alone, bit for bit the f0 of its jets
    samples = SampleSet(seed=5, count=2000, strategy=strategy, eps=1e-12)
    base = np.array(samples.disk_points())
    f = make_catalog_map(domains.entry(D).sample_map)
    with np.errstate(all="ignore"):
        want = maps.checked_jet(f, base, Faults(base.shape)).f0
    assert samples.points(D).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# distortion ratios

def test_cayley_ratio_is_twice_density():
    f = cayley_map()
    for z in (0, 0.3, 0.2 - 0.4j):
        lam = hyperbolic_density(unit_disk(), z)
        assert distortion_ratio(f, unit_disk(), z) == pytest.approx(
            2 * lam, rel=1e-12
        )


def test_koebe_ratio_on_positive_axis_is_4_lambda():
    f = koebe_map()
    for x in (0.1, 0.5, 0.9):
        lam = hyperbolic_density(unit_disk(), x)
        assert distortion_ratio(f, unit_disk(), x) == pytest.approx(
            4 * lam, rel=1e-9
        )


def test_at_point_over_an_array_gives_the_scalar_values():
    f, D = koebe_map(), unit_disk()
    z = [0.5, 0.1 - 0.3j, -0.7j]
    got = at_point(quantity, f, D, z, name="ratio")
    assert got.tolist() == [distortion_ratio(f, D, w) for w in z]
    assert at_point(quantity, f, D, 0.5, name="ratio").shape == (1,)


@pytest.mark.parametrize("f, D, points, error, message", [
    # 2.0 leaves D, a check of the image chain, made after the jet; nan
    # fails the jet's own finiteness check
    (identity_map(), unit_disk(), [0.5, 2.0, math.nan], OutsideDomainError,
     "(2+0j) is not an interior point of Domain(unit_disk)"),
    # 2.0 leaves the covering's base domain, the jet's own check; 0.5 fails
    # later, at univalence
    (punctured_disk_covering_map(), unit_disk(), [2.0, 0.5],
     OutsideDomainError,
     "(2+0j) is not an interior point of Domain(unit_disk)"),
    # 0.5 fails at univalence, 0 at the earlier f' = 0
    (power_map(2), unit_disk(), [0.5, 0j], MapNotUnivalentError,
     "power is not univalent"),
    (power_map(2), unit_disk(), [0j, 0.5], SingularPointError,
     "f'(0j) = 0"),
    # as the first case, the two failing points swapped
    (identity_map(), unit_disk(), [0.5, math.nan, 2.0], ValueError,
     "jet entries must be finite"),
])
def test_at_point_raises_the_first_failing_points_error(f, D, points, error,
                                                        message):
    with pytest.raises(error) as exc:
        at_point(quantity, f, D, points, name="ratio")
    assert str(exc.value) == message
    # as a loop over the points raises
    with pytest.raises(error) as exc:
        for z in points:
            distortion_ratio(f, D, z)
    assert str(exc.value) == message


def _sweep_pdisk_ratio(z):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sweep", "--quantity", "pdisk-ratio", "--domain",
                     "pdisk", "--from", str(z.real), "--to", "0.5",
                     "--steps", "2"])
    assert code == 2
    raise OutsideDomainError(err.getvalue().removeprefix("error: ")
                             .removesuffix("\n"))


# (entry point at z, the domain z is tested against)
_OUTSIDE_POINT_ENTRIES = {
    "boundary_distance": (lambda z: boundary_distance(unit_disk(), z),
                          unit_disk()),
    "hyperbolic_density": (lambda z: hyperbolic_density(unit_disk(), z),
                           unit_disk()),
    "pushforward_density": (
        lambda z: pushforward_density(koebe_map(), unit_disk(), z),
        unit_disk()),
    "eval_jet": (lambda z: maps.eval_jet(koebe_map(), z), unit_disk()),
    "image_boundary_distance": (
        lambda z: image_boundary_distance(koebe_map(), unit_disk(), z),
        unit_disk()),
    "distortion_ratio": (
        lambda z: distortion_ratio(identity_map(), unit_disk(), z),
        unit_disk()),
    "distortion_ratio-pdc": (
        lambda z: distortion_ratio(punctured_disk_covering_map(),
                                   unit_disk(), z), unit_disk()),
    "hyperbolic_distance": (
        lambda z: hyperbolic_distance(punctured_disk(), z, 0.5),
        punctured_disk()),
    "quasihyperbolic_distance": (
        lambda z: quasihyperbolic_distance(punctured_disk(), 0.5, z),
        punctured_disk()),
    "path_quadrature": (
        lambda z: path_quadrature("quasihyperbolic", punctured_disk(),
                                  Polyline([0.5, 0.9, z, -0.5])),
        punctured_disk()),
    "punctured_disk_ratio": (punctured_disk_ratio, punctured_disk()),
    "cli-sweep-pdisk-ratio": (_sweep_pdisk_ratio, punctured_disk()),
}


@pytest.mark.parametrize("name", list(_OUTSIDE_POINT_ENTRIES))
def test_an_outside_point_reads_the_same_on_every_entry_point(name):
    call, D = _OUTSIDE_POINT_ENTRIES[name]
    with pytest.raises(OutsideDomainError) as exc:
        call(2.0)
    assert str(exc.value) == f"(2+0j) is not an interior point of {D}"


def test_punctured_disk_ratio_values():
    assert punctured_disk_ratio(math.exp(-10)) == pytest.approx(
        20.0 / (1 - math.exp(-10))
    )
    assert punctured_disk_ratio(math.exp(-1)) == pytest.approx(
        2 / (1 - math.exp(-1))
    )
    with pytest.raises(OutsideDomainError):
        punctured_disk_ratio(0)
    with pytest.raises(OutsideDomainError):
        punctured_disk_ratio(1)


def test_punctured_disk_ratio_unbounded():
    # the ratio exceeds any threshold for small enough |z|: at e^{-100}
    # it equals 200/(1 - e^{-100}) ~ 200
    assert punctured_disk_ratio(math.exp(-100)) > 50


# ---------------------------------------------------------------------------
# pointwise bound checks

@pytest.mark.parametrize("f", [koebe_map(), cayley_map(),
                               mobius_map(0.3), mobius_map(0.7, 2.1)],
                         ids=["koebe", "cayley", "mobius03", "mobius07"])
def test_thm21_window_univalent_maps(f):
    rep = check_pointwise_bounds(f, unit_disk(), S, "thm21")
    assert rep.passed
    assert rep.min_ratio >= 1 - 1e-9
    assert rep.max_ratio <= 4 + 1e-9


def test_thm21_sharpness_on_radial_line():
    rep = check_pointwise_bounds(
        koebe_map(), unit_disk(),
        SampleSet(seed=0, count=200, strategy="radial_line"), "thm21"
    )
    assert rep.max_ratio == pytest.approx(4.0, rel=1e-10)
    assert rep.min_ratio >= 1.0 - 1e-12


def test_lemma31_window():
    rep = check_pointwise_bounds(koebe_map(), unit_disk(), S, "lemma31")
    assert rep.passed
    assert 0.25 - 1e-9 <= rep.min_ratio and rep.max_ratio <= 4 + 1e-9


def test_lambda_delta_disk_and_slits():
    for D in (unit_disk(), slit_disk(0), koebe_slit_plane()):
        rep = check_pointwise_bounds(None, D, S, "lambda_delta", rtol=1e-10)
        assert rep.passed, (D.kind, rep.violations[:2])
        assert rep.max_ratio <= 1 + 1e-10


def test_lambda_delta_fails_near_puncture():
    rep = check_pointwise_bounds(
        None, punctured_disk(),
        SampleSet(seed=2, count=200, strategy="near_puncture", eps=1e-12),
        "lambda_delta",
    )
    assert not rep.passed
    assert all(v["lhs"] < 0.25 for v in rep.violations)  # lower side only
    assert rep.max_ratio <= 1 + 1e-10                    # upper side intact


def test_lambda_lower_violation_witness():
    for c in (0.25, 1.0, 4.0):
        z = lambda_lower_violation_witness(c)
        lam = hyperbolic_density(punctured_disk(), z)
        assert lam < c / abs(z)  # delta = |z| near the puncture


def test_koebe_distortion_window():
    rep = check_pointwise_bounds(koebe_map(), unit_disk(), S,
                                 "koebe_distortion")
    assert rep.passed
    assert 0.25 - 1e-9 <= rep.min_ratio and rep.max_ratio <= 1 + 1e-9


def test_koebe_distortion_uses_the_domain_density():
    # delta_image * lambda_D / |f'| with lambda of the slit disk itself
    rep = check_pointwise_bounds(log_slit_map(0.5, 1), slit_disk(0.5),
                                 SampleSet(seed=0, count=2000),
                                 "koebe_distortion")
    assert rep.passed, rep.violations[:2]
    assert 0.25 <= rep.min_ratio and rep.max_ratio <= 1.0


def test_osgood_and_lehto_windows():
    for kind, hi in (("osgood_T", 8.0), ("osgood_T_delta", 4.0),
                     ("lehto_S", 12.0), ("gehring_S", 6.0)):
        rep = check_pointwise_bounds(koebe_map(), unit_disk(), S, kind)
        assert rep.passed, (kind, rep.violations[:2])
        assert rep.max_ratio <= hi + 1e-9


def test_equality_witnesses_at_origin():
    from conformal_metrics import pre_schwarzian, schwarzian
    j = koebe_map().jet(0)
    assert abs(pre_schwarzian(j)) == pytest.approx(4.0, abs=1e-10)
    assert abs(schwarzian(j)) == pytest.approx(6.0, abs=1e-10)


def test_thm41_window_needs_q():
    with pytest.raises(ValueError):
        check_pointwise_bounds(koebe_map(), unit_disk(), S, "thm41")
    rep = check_pointwise_bounds(koebe_map(), unit_disk(), S, "thm41", Q=2.0)
    assert rep.passed
    assert rep.max_ratio <= 8 + 1e-9


def test_ratio_and_T_margins_couple():
    # wherever the ratio bound holds with constant a, the T bound holds
    # with constant 4a on the same samples
    for f in (koebe_map(), cayley_map(), mobius_map(0.5)):
        rep_ratio = check_pointwise_bounds(f, unit_disk(), S, "thm21")
        rep_t = check_pointwise_bounds(f, unit_disk(), S, "osgood_T")
        assert rep_t.max_ratio <= 4.0 * rep_ratio.max_ratio + 1e-9


def test_cor43_window_and_T_side():
    rep = check_pointwise_bounds(mobius_map(0.5), unit_disk(), S, "cor43")
    assert rep.passed
    assert 0.125 - 1e-9 <= rep.min_ratio and rep.max_ratio <= 8 + 1e-9


def test_kind_domain_mismatch():
    with pytest.raises(ValueError):
        check_pointwise_bounds(koebe_map(), punctured_disk(), S, "thm21")
    with pytest.raises(ValueError):
        check_pointwise_bounds(punctured_disk_covering_map(), unit_disk(),
                               S, "thm21")
    with pytest.raises(ValueError):
        check_pointwise_bounds(None, unit_disk(), S, "osgood_T")
    with pytest.raises(ValueError):
        check_pointwise_bounds(koebe_map(), unit_disk(), S, "nonsense")
    # delta of the image is that of the map's base domain: another domain
    # would read delta of the wrong image
    message = ("kind/domain mismatch: identity has base domain "
               "Domain(unit_disk), got Domain(upper_half_plane)")
    with pytest.raises(ValueError) as exc:
        distortion_ratio(identity_map(), upper_half_plane(), 0.9j)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        check_pointwise_bounds(identity_map(), upper_half_plane(), S,
                               "lemma31")
    assert str(exc.value) == message


def test_osgood_T_delta_sharpness_attained_at_origin():
    # sup over the radial line of |T_k| delta / 4 is 1, attained at 0
    rep = check_pointwise_bounds(
        koebe_map(), unit_disk(),
        SampleSet(seed=0, count=500, strategy="radial_line"), "osgood_T_delta"
    )
    assert rep.passed
    assert rep.max_ratio <= 4.0 + 1e-12
    from conformal_metrics import pre_schwarzian
    assert abs(pre_schwarzian(koebe_map().jet(0))) * 1.0 == pytest.approx(4.0)


def test_constants_override_flags_sharp_samples():
    rep = check_pointwise_bounds(
        koebe_map(), unit_disk(),
        SampleSet(seed=0, count=100, strategy="radial_line"), "thm21",
        constants_override={"upper": 3.9},
    )
    assert not rep.passed
    assert rep.constants["upper"] == 3.9


# ---------------------------------------------------------------------------
# distance comparison

def test_distance_comparison_identity_and_mobius():
    rng = random.Random(11)
    pairs = [(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
              complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
             for _ in range(8)]
    for f in (identity_map(), mobius_map(0.5)):
        rep = check_distance_comparison(f, pairs)
        assert rep.passed, rep.violations[:2]
        assert rep.min_ratio >= 1 - 2e-3
        assert rep.max_ratio <= 4 + 1e-2


def test_distance_comparison_takes_h_on_the_base_domain():
    # log_slit_map(0, 1) lives on the slit disk: h there is 2.318, while h
    # on the unit disk, 1.108, would report k/h = 3.50
    f = log_slit_map(0, 1)
    z1, z2 = 0.5, -0.5 + 0.1j
    h = hyperbolic_distance(slit_disk(0), z1, z2)
    assert h == pytest.approx(2.318, abs=1e-3)
    rep = check_distance_comparison(f, [(z1, z2)])
    assert rep.passed
    assert rep.min_ratio == pytest.approx(3.883 / h, rel=1e-3)


def test_distance_comparison_needs_a_univalent_map():
    # thm21's window holds for univalent maps only: the covering of the
    # punctured disk would report k/h = 6.13 at z = 0 as a violation
    with pytest.raises(ValueError, match="kind/domain mismatch: thm21 needs "
                                         "a univalent map"):
        check_distance_comparison(punctured_disk_covering_map(),
                                  [(0, 0.9), (0.3, -0.3)])


def test_distance_comparison_needs_an_image_domain():
    with pytest.raises(ValueError, match="distance comparison needs a "
                                         "closed-form image domain"):
        check_distance_comparison(power_map(2), [(0.1, 0.2)])


def test_distance_comparison_coincident_pair():
    rep = check_distance_comparison(identity_map(), [(0.3, 0.3)])
    assert rep.min_ratio == rep.max_ratio == 1.0


# ---------------------------------------------------------------------------
# log construction

def test_log_construction_scale_invariance():
    a = check_log_construction(punctured_disk(), 0.99, c=1.0)
    b = check_log_construction(punctured_disk(), 0.99, c=7.3 - 2.2j)
    assert a.constants["ratio_over_lambda"] == pytest.approx(
        b.constants["ratio_over_lambda"], rel=1e-12
    )
    assert a.constants["ratio_times_delta"] == pytest.approx(
        b.constants["ratio_times_delta"], rel=1e-12
    )


def test_log_construction_ratio_blows_up_near_puncture():
    # r(z0)/lambda(z0) = 2 log(1/|z0|) / pi once the strip half-width pi
    # dominates: unbounded as z0 -> 0, crossing 50 around |z0| = e^{-25 pi}
    vals = [check_log_construction(punctured_disk(),
                                   math.exp(-k)).constants["ratio_over_lambda"]
            for k in (1, 10, 50, 100)]
    assert vals == sorted(vals)
    assert vals[-1] == pytest.approx(200 / math.pi, rel=1e-9)
    assert vals[-1] > 50


def test_log_construction_near_outer_boundary_is_order_one():
    b = check_log_construction(punctured_disk(), 0.99)
    # delta_image = log(1/0.99) while 1/lambda = 2*0.99*log(1/0.99):
    # the ratio collapses to ~2, nowhere near the blow-up regime
    assert b.constants["ratio_over_lambda"] == pytest.approx(2.0, rel=1e-2)


@pytest.mark.parametrize("zeta0, c", [(0j, 1.0), (0.3 - 0.2j, 2.5 - 1.5j)])
@pytest.mark.parametrize("u", [
    0.05 * cmath.exp(2.9j), 0.5 * cmath.exp(-3.1j), 0.9 * cmath.exp(1.2j),
    1e-3 * cmath.exp(-2j), 0.99 * cmath.exp(-0.4j),
])
def test_log_construction_slit_disk_matches_log_slit_map(zeta0, c, u):
    # the slit of slit_disk is fixed along zeta0 + (-1, 0], so off the axis
    # f(z0) leaves the strip's center line and delta_image shrinks to
    # |c| (pi - |arg u|), so |f'|/delta_image is
    # 1/(|u| min(log 1/|u|, pi - |arg u|))
    D = slit_disk(zeta0)
    z0 = zeta0 + u
    b = check_log_construction(D, z0, c).constants["ratio_over_lambda"]
    r = 1.0 / (abs(u) * min(math.log(1.0 / abs(u)),
                            math.pi - abs(cmath.phase(u))))
    assert b == pytest.approx(r / hyperbolic_density(D, z0), rel=1e-12)
    # c Log is univalent on the simply connected slit disk: thm21 window
    assert 1.0 <= b <= 4.0


def test_log_construction_guards():
    with pytest.raises(ValueError):
        check_log_construction(unit_disk(), 0.5)
    with pytest.raises(OutsideDomainError):
        check_log_construction(punctured_disk(), 0.0)
    with pytest.raises(OutsideDomainError) as exc:
        check_log_construction(punctured_disk(), 1.5)
    assert str(exc.value) == (
        "(1.5+0j) is not an interior point of Domain(punctured_disk)")


# ---------------------------------------------------------------------------
# composition laws and covering identity

def test_composition_laws_random_pairs():
    rng = random.Random(0)
    pts = SampleSet(seed=5, count=50)
    for _ in range(50):
        f, g = random_map_pair(rng)
        rep = check_composition_laws(f, g, pts)
        assert rep.passed, (f.describe(), g.describe(), rep.violations[:1])


def test_covering_identity_holds():
    rep = check_covering_identity(SampleSet(seed=9, count=2000))
    assert rep.passed
    assert rep.samples_checked + len(rep.skipped) == 2000
    assert abs(rep.min_ratio - 1) < 1e-10 and abs(rep.max_ratio - 1) < 1e-10


# ---------------------------------------------------------------------------
# uniformity constants

def test_uniformity_disk_approaches_two():
    q = estimate_uniformity_constant(
        unit_disk(), SampleSet(seed=1, count=4096, strategy="near_boundary",
                               eps=1e-6)
    )
    assert 1.99 < q <= 2.0 + 1e-12


def test_uniformity_half_plane_exact():
    q = estimate_uniformity_constant(upper_half_plane(), S)
    assert q == pytest.approx(2.0, abs=1e-12)


def test_uniformity_punctured_disk_unbounded():
    q = estimate_uniformity_constant(
        punctured_disk(),
        SampleSet(seed=1, count=4096, strategy="near_puncture",
                  eps=math.exp(-50)),
    )
    assert q > 50


@given(st.integers(min_value=0, max_value=10000))
@settings(max_examples=20, deadline=None)
def test_uniformity_disk_never_exceeds_two(seed):
    q = estimate_uniformity_constant(
        unit_disk(), SampleSet(seed=seed, count=256)
    )
    assert q <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# the batch engine against a per-sample loop over the scalar API

@dataclass(frozen=True)
class PickedSamples(SampleSet):
    """Seeded samples followed by hand-picked points; with count=0 only the
    picked points."""

    picked: tuple = ()

    def __post_init__(self):
        pass  # count may be 0

    def points(self, D):
        seeded = super().points(D) if self.count else np.empty(0, complex)
        return np.concatenate([seeded, np.array(self.picked, dtype=complex)])


_LAMBDA_KINDS = {"thm21", "thm41", "cor43", "lambda_delta", "osgood_T",
                 "lehto_S", "koebe_distortion"}
_DELTA_KINDS = {"lemma31", "lambda_delta", "osgood_T_delta", "gehring_S"}


def _reference_ratio(f, D, z):
    """|f'|/delta of the image, one check at a time in the library's order."""
    j = f.jet(z)
    if j.f1 == 0:
        raise SingularPointError(f"f'({str(z).strip('()')}) = 0")
    if not f.univalent:
        raise MapNotUnivalentError(f"{f.kind} is not univalent")
    if f.image_domain is None:
        raise NoDensityRouteError(
            f"no catalog image domain for {f.describe()}")
    if not contains(D, z):
        raise OutsideDomainError(f"{z} is not an interior point of {D}")
    return abs(j.f1) / boundary_distance(f.image_domain, f.value(z))


def _reference_check(f, D, samples, kind):
    """check_pointwise_bounds as one scalar evaluation per sample: the
    values as (v, z), the skipped samples and the cor43 T values."""
    values, skipped, t_values = [], [], []
    for z in samples.points(D).tolist():
        try:
            if kind in _LAMBDA_KINDS:
                lam = hyperbolic_density(D, z)
            if kind in _DELTA_KINDS:
                delta = boundary_distance(D, z)
            if kind == "lambda_delta":
                v = lam * delta
            elif kind in ("thm21", "thm41", "cor43"):
                v = _reference_ratio(f, D, z) / lam
                if kind == "cor43":
                    t_values.append(
                        (abs(pre_schwarzian(f.jet(z))) / lam, z))
            elif kind == "lemma31":
                v = _reference_ratio(f, D, z) * delta
            elif kind == "koebe_distortion":
                v = lam / _reference_ratio(f, D, z)
            elif kind == "osgood_T":
                v = abs(pre_schwarzian(f.jet(z))) / lam
            elif kind == "osgood_T_delta":
                v = abs(pre_schwarzian(f.jet(z))) * delta
            elif kind == "lehto_S":
                v = abs(schwarzian(f.jet(z))) / lam ** 2
            else:
                v = abs(schwarzian(f.jet(z))) * delta ** 2
        except (NotLocallyUnivalentError, SingularPointError,
                OutsideDomainError) as exc:
            skipped.append({"z": z, "reason": str(exc)})
            continue
        values.append((v, z))
    if not values:
        raise ConformalMetricsError("all samples were skipped")
    return values, skipped, t_values


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared below, type and message
        return exc


_ON_CIRCLE = cmath.rect(1.0, 0.1)        # |z| rounds to exactly 1
_NEAR_SLIT = -0.5 + 1e-16j               # lambda = 5e15
_SLIT_OVERFLOW = -0.5 + 1e-310j          # lambda overflows
_KOEBE_TO_TIP = -0.999999999             # koebe value rounds to -1/4
_CAYLEY_TO_AXIS = 0.19846971337464014 + 0.9801070211323802j
_MOBIUS = mobius_map(0.3 + 0.2j, 0.7)
_MOBIUS_TO_CIRCLE = 0.9999995000000416 + 0.0009999998333333415j
_ONE_MINUS = 1 - 2 ** -53                # mobius(-0.99) rounds it to 1
_MINUS_ONE_PLUS = -(1 - 2 ** -53)        # mobius(0.99) rounds it to -1

# (kind, map, domain, seeded strategy or None for the picked points alone,
#  picked points, keyword arguments of check_pointwise_bounds)
PARITY_CASES = [
    ("thm21", koebe_map(), unit_disk(), "uniform_disk",
     (_ON_CIRCLE, _KOEBE_TO_TIP), {}),
    ("thm21", compose_maps(koebe_map(), mobius_map(-0.99)), unit_disk(),
     "near_boundary", (_ONE_MINUS,), {}),
    ("thm21", compose_maps(koebe_map(), mobius_map(0.99)), unit_disk(),
     "uniform_disk", (_MINUS_ONE_PLUS,), {}),
    ("thm21", cayley_map(), unit_disk(), "near_boundary",
     (_CAYLEY_TO_AXIS,), {}),
    ("thm21", koebe_map(), unit_disk(), "uniform_disk", (),
     {"constants_override": {"lower": 1.5, "upper": 3.0}}),
    ("lemma31", _MOBIUS, unit_disk(), "near_boundary",
     (_MOBIUS_TO_CIRCLE, 1.0), {}),
    ("lemma31", log_slit_map(0, 1), slit_disk(0), "near_puncture",
     (_NEAR_SLIT, -0.5), {}),
    ("lambda_delta", None, slit_disk(0), "uniform_disk",
     (_NEAR_SLIT, _SLIT_OVERFLOW, -0.5, 0j), {}),
    ("lambda_delta", None, punctured_disk(), "near_puncture", (0j,), {}),
    ("koebe_distortion", cayley_map(), unit_disk(), "uniform_disk",
     (1.0, _CAYLEY_TO_AXIS), {}),
    ("osgood_T", log_slit_map(0, 1), slit_disk(0), "uniform_disk",
     (_NEAR_SLIT, 0j), {}),
    ("osgood_T_delta", power_map(2), unit_disk(), "uniform_disk", (0j,), {}),
    ("osgood_T_delta", koebe_map(), upper_half_plane(), "uniform_disk",
     (-1j,), {}),
    ("lehto_S", identity_map(), koebe_slit_plane(), "near_puncture",
     (-0.5,), {}),
    ("gehring_S", power_map(2), unit_disk(), "radial_line", (0j, 0.5), {}),
    ("thm41", _MOBIUS, unit_disk(), "uniform_disk", (_MOBIUS_TO_CIRCLE,),
     {"Q": 2.0}),
    ("cor43", koebe_map(), unit_disk(), "near_boundary",
     (_ON_CIRCLE, _KOEBE_TO_TIP), {}),
    # a negative rtol turns samples of all three kinds into violations
    ("cor43", koebe_map(), unit_disk(), "uniform_disk", (), {"rtol": -3.0}),
    # lambda of the shifted slit disk, not of the unit disk, at |z| = 1
    ("koebe_distortion", log_slit_map(0.3, 1), slit_disk(0.3),
     "uniform_disk", (1.0,), {}),
]

# cases where a per-sample loop raises instead of skipping
ABORT_CASES = [
    # c/u^3 overflows: Jet3 rejects the non-finite entry
    ("lemma31", log_slit_map(0, 1), slit_disk(0), "uniform_disk",
     (1e-120 + 1e-120j,), {}),
    # not univalent, with a closed-form image
    ("thm41", punctured_disk_covering_map(), unit_disk(), "uniform_disk", (),
     {"Q": 2.0}),
    # univalent, with no catalog image: no route to delta of the image
    ("thm21", replace(_MOBIUS, image_domain=None), unit_disk(),
     "uniform_disk", (), {}),
    # the only sample has f'(z) = 0
    ("thm41", power_map(2), unit_disk(), None, (0j,), {"Q": 2.0}),
]


def _run_parity(case):
    kind, f, D, strategy, picked, kwargs = case
    samples = PickedSamples(seed=11, count=300 if strategy else 0,
                            strategy=strategy or "uniform_disk",
                            picked=picked)
    rep = _outcome(lambda: check_pointwise_bounds(f, D, samples, kind,
                                                  **kwargs))
    ref = _outcome(lambda: _reference_check(f, D, samples, kind))
    return rep, ref


@pytest.mark.parametrize("case", PARITY_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in
                              enumerate(PARITY_CASES)])
def test_batch_engine_matches_per_sample_loop(case):
    rep, ref = _run_parity(case)
    assert not isinstance(ref, Exception), ref
    assert not isinstance(rep, Exception), rep
    values, skipped, t_values = ref
    assert rep.samples_checked == len(values)
    assert rep.skipped == skipped
    lo, hi, rtol = (rep.constants[k] for k in ("lower", "upper", "rtol"))
    want = ([(z, v) for v, z in values if v < lo - rtol]
            + [(z, v) for v, z in values if v > hi + rtol]
            + [(z, t) for t, z in t_values if t > 8.0 + rtol])
    assert [v["z"] for v in rep.violations] == [z for z, _ in want]
    for got, (_, v) in zip(rep.violations, want):
        assert got["lhs"] == pytest.approx(v, rel=1e-12, abs=0)
    vs = [v for v, _ in values]
    assert rep.min_ratio == pytest.approx(min(vs), rel=1e-12, abs=0)
    assert rep.max_ratio == pytest.approx(max(vs), rel=1e-12, abs=0)


def test_parity_cases_reach_every_kind_and_skip_reason():
    reasons, off_disk = set(), set()
    for case in PARITY_CASES:
        rep, _ = _run_parity(case)
        names = {s["reason"].split(" ")[-1] if "interior" in s["reason"]
                 else s["reason"] for s in rep.skipped}
        reasons |= names
        if case[2] != unit_disk():
            off_disk |= names
    assert {c[0] for c in PARITY_CASES} == set(BOUND_KINDS)
    assert {"Domain(unit_disk)", "Domain(koebe_slit_plane)",
            "Domain(upper_half_plane)", "Domain(punctured_disk)",
            "hyperbolic density is not a finite positive float here",
            "koebe is singular at z = 1",
            "pre-Schwarzian undefined: f' = 0",
            "Schwarzian undefined: f' = 0",
            "f'(-0.9999999999999999+0j) = 0"} <= reasons
    # the jet's check of koebe's base domain, on half-plane samples
    assert "Domain(unit_disk)" in off_disk


@pytest.mark.parametrize("case", ABORT_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in
                              enumerate(ABORT_CASES)])
def test_batch_engine_aborts_like_per_sample_loop(case):
    rep, ref = _run_parity(case)
    assert isinstance(ref, Exception)
    assert type(rep) is type(ref)
    assert str(rep) == str(ref)


def test_near_boundary_eps_below_float_resolution_rejected():
    for eps in (1e-300, 5e-17):
        with pytest.raises(ValueError, match="float resolution"):
            SampleSet(seed=0, count=10, strategy="near_boundary", eps=eps)
    for eps in (None, 1e-6, 1e-8):
        pts = SampleSet(seed=0, count=10, strategy="near_boundary",
                        eps=eps).disk_points()
        assert all(abs(z) < 1 for z in pts)
    # the puncture has no such limit
    SampleSet(seed=0, count=10, strategy="near_puncture", eps=1e-300)


@pytest.mark.parametrize("kwargs, message", [
    ({"count": 0}, "count must be >= 1"),
    ({"strategy": "near_puncture", "eps": 0.5}, "eps must lie in"),
    ({"strategy": "near_boundary", "eps": -1e-3}, "eps must lie in"),
], ids=["count", "eps-high", "eps-negative"])
def test_sample_set_rejects_bad_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SampleSet(**{"seed": 0, "count": 10, **kwargs})


@pytest.mark.parametrize("draw, message", [
    (lambda: SampleSet(0, 10, strategy="bogus").disk_points(),
     "unknown strategy 'bogus'"),
    # the log strip has no catalog map from the disk and no centre
    (lambda: SampleSet(0, 10).points(log_strip(1)),
     "no sampling strategy for domain kind 'log_strip'"),
], ids=["unknown-strategy", "log-strip"])
def test_sampling_without_a_route_raises(draw, message):
    with pytest.raises(ValueError) as exc:
        draw()
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [1, 2, 5000])
def test_bulk_draws_match_per_call_random(n):
    from conformal_metrics.verify import _draws
    for seed in (0, 1, 42, 90210):
        bulk, loop = random.Random(seed), random.Random(seed)
        got = _draws(bulk, n)
        want = np.array([loop.random() for _ in range(2 * n)]).reshape(n, 2)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert bulk.getstate() == loop.getstate()


def test_centre_kind_samples_rounding_outside_give_way_to_the_next_draw():
    # one near_boundary draw of this seed, shifted by the centre, rounds
    # outside the slit disk; the strategy's next draw from the same stream,
    # not a uniform one, takes its place
    c = 0.625 - 1j
    D = slit_disk(c)
    samples = SampleSet(seed=1, count=5000, strategy="near_boundary",
                        eps=2e-16)
    z = samples.points(D)
    wide = SampleSet(seed=1, count=5010, strategy="near_boundary",
                     eps=2e-16)._disk_array() + c
    inside = domains.contains_vec(D, wide)
    assert not inside[:5001].all()
    assert z.tobytes() == wide[inside][:5000].tobytes()
    assert 1 - abs(z[-1] - c) < 1e-12


def test_near_boundary_samples_rounding_onto_the_circle_are_dropped():
    # at eps = 1e-16 about 1 sample in 400 rounds onto |z| = 1
    for seed in range(10):
        z = SampleSet(seed=seed, count=2000, strategy="near_boundary",
                      eps=1e-16)._disk_array()
        assert len(z) == 2000
        assert np.all(np.abs(z) < 1.0)
