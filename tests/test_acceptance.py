"""End-to-end acceptance checks.

Each test evaluates one numbered criterion, prints a single PASS/FAIL line
(visible with `pytest -s` and in captured output on failure), then asserts.
Criterion 13 checks the logarithm construction on the punctured disk
against its closed form ratio/lambda = 2 log(1/|u|) / min(log(1/|u|), pi)
(see `check_log_construction`), with scale invariance under a complex c.
It uses two points: 0.99, where the ratio is exactly 2 because lambda*delta
does not degenerate away from the puncture, and |u| = e^{-100}, where it is
200/pi > 50.  The ratio exceeds 50 only for |u| < e^{-25 pi}, so the
blow-up is checked at the puncture, not at the outer circle.
"""

import cmath
import json
import math
import random
import time

from conformal_metrics import (
    SampleSet,
    SolverConfig,
    boundary_distance,
    cayley_map,
    check_composition_laws,
    check_covering_identity,
    check_distance_comparison,
    check_log_construction,
    check_pointwise_bounds,
    distortion_ratio,
    estimate_uniformity_constant,
    hyperbolic_density,
    hyperbolic_distance_disk,
    identity_map,
    koebe_map,
    koebe_slit_plane,
    mobius_map,
    path_quadrature,
    pre_schwarzian,
    punctured_disk,
    punctured_disk_ratio,
    quasihyperbolic_distance_detailed,
    schwarzian,
    slit_disk,
    unit_disk,
    upper_half_plane,
)
from conformal_metrics.cli import main as cli_main
from conformal_metrics.metrics import Polyline
from helpers import lambda_lower_violation_witness, random_map_pair

import numpy as np


def _verdict(n, ok):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed"


def test_criterion_01_koebe_sharpness():
    t0 = time.time()
    f = koebe_map()
    ok = True
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        lam = hyperbolic_density(unit_disk(), x)
        r = distortion_ratio(f, unit_disk(), x)
        ok &= abs(r / lam - 4.0) <= 4.0 * 1e-9
    ok &= (time.time() - t0) < 1.0
    _verdict(1, ok)


def test_criterion_02_identity_sharpness():
    r = distortion_ratio(identity_map(), unit_disk(), 0)
    lam = hyperbolic_density(unit_disk(), 0)
    _verdict(2, abs(r - 1.0) <= 1e-12 and abs(lam - 1.0) <= 1e-12)


def test_criterion_03_thm21_window():
    t0 = time.time()
    samples = SampleSet(seed=42, count=10_000)
    ok = True
    for f in (koebe_map(), cayley_map(), mobius_map(0.3, 0),
              mobius_map(0.7, 2.1)):
        rep = check_pointwise_bounds(f, unit_disk(), samples, "thm21")
        ok &= rep.passed
        ok &= rep.min_ratio >= 1 - 1e-9 and rep.max_ratio <= 4 + 2e-2
    ok &= (time.time() - t0) < 30.0
    _verdict(3, ok)


def test_criterion_04_lemma31_window():
    samples = SampleSet(seed=42, count=10_000)
    ok = True
    for f in (koebe_map(), cayley_map(), mobius_map(0.3, 0),
              mobius_map(0.7, 2.1)):
        rep = check_pointwise_bounds(f, unit_disk(), samples, "lemma31")
        ok &= rep.passed
        ok &= rep.min_ratio >= 0.25 - 1e-9 and rep.max_ratio <= 4 + 2e-2
    _verdict(4, ok)


def test_criterion_05_lambda_delta_window():
    samples = SampleSet(seed=7, count=10_000)
    ok = True
    for D in (unit_disk(), slit_disk(0), koebe_slit_plane()):
        rep = check_pointwise_bounds(None, D, samples, "lambda_delta",
                                     rtol=1e-10)
        ok &= rep.passed
    # punctured disk: upper bound survives, lower bound has a witness
    rep = check_pointwise_bounds(None, punctured_disk(), samples,
                                 "lambda_delta", rtol=1e-10)
    ok &= rep.max_ratio <= 1 + 1e-10
    z = math.exp(-20)
    lam = hyperbolic_density(punctured_disk(), z)
    d = boundary_distance(punctured_disk(), z)
    ok &= lam * d < 0.25
    w = lambda_lower_violation_witness(1.0)
    ok &= (hyperbolic_density(punctured_disk(), w)
           * boundary_distance(punctured_disk(), w)) < 0.25
    _verdict(5, ok)


def test_criterion_06_blow_up():
    ok = abs(punctured_disk_ratio(math.exp(-10)) - 20.0009080) <= 1e-6
    # float64 evaluates 2*50/(1 - e^{-50}) to exactly 100.0: the excess
    # 100 e^{-50} is below the representable relative spacing
    ok &= punctured_disk_ratio(math.exp(-50)) >= 100.0
    rs = np.exp(np.linspace(-1, -30, 50))
    vals = [punctured_disk_ratio(r) for r in rs]
    ok &= all(b > a for a, b in zip(vals, vals[1:]))
    _verdict(6, ok)


def test_criterion_07_transformation_laws():
    t0 = time.time()
    rng = random.Random(2024)
    samples = SampleSet(seed=5, count=100)
    ok = True
    for _ in range(1000):
        f, g = random_map_pair(rng)
        rep = check_composition_laws(f, g, samples, rtol=1e-11)
        ok &= rep.passed
    for z in SampleSet(seed=6, count=100).disk_points():
        ok &= abs(schwarzian(mobius_map(0.4, 1.0).jet(z))) <= 1e-11
    ok &= (time.time() - t0) < 10.0
    _verdict(7, ok)


def test_criterion_08_derivative_bounds_at_origin():
    j = koebe_map().jet(0)
    lam0 = hyperbolic_density(unit_disk(), 0)
    d0 = boundary_distance(unit_disk(), 0)
    t = abs(pre_schwarzian(j))
    s = abs(schwarzian(j))
    ok = abs(t - 4.0) <= 1e-10
    ok &= t < 8.0 * lam0                      # Osgood hyperbolic, strict
    ok &= abs(t - 4.0 / d0) <= 1e-10          # Osgood quasihyperbolic, equality
    ok &= abs(s - 6.0) <= 1e-10
    ok &= s < 12.0 * lam0 ** 2                # Lehto, strict
    ok &= abs(s - 6.0 / d0 ** 2) <= 1e-10     # Gehring, equality
    _verdict(8, ok)


def test_criterion_09_covering_identity():
    rep = check_covering_identity(SampleSet(seed=13, count=10_000),
                                  rtol=1e-10, max_radius=0.95)
    ok = rep.passed
    ok &= abs(rep.min_ratio - 1.0) <= 1e-10
    ok &= abs(rep.max_ratio - 1.0) <= 1e-10
    _verdict(9, ok)


def test_criterion_10_geodesic_solver():
    t0 = time.time()
    v, geo, hist = quasihyperbolic_distance_detailed(unit_disk(), 0, 0.5)
    elapsed = time.time() - t0
    ok = abs(v - math.log(2)) <= 1e-4
    ok &= all(a >= b - 1e-15 for a, b in zip(hist, hist[1:]))
    ok &= elapsed < 5.0
    h = hyperbolic_distance_disk(0, 0.5)
    ok &= abs(h - 0.549306144) <= 1e-9
    radial = Polyline(np.linspace(0, 0.5, 65))
    hq = path_quadrature("hyperbolic", unit_disk(), radial)
    ok &= abs(hq - h) <= 1e-6
    _verdict(10, ok)


def test_criterion_11_distance_comparison():
    rng = random.Random(77)
    pairs = [(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
              complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
             for _ in range(20)]
    ok = True
    for f in (identity_map(), mobius_map(0.5, 0)):
        rep = check_distance_comparison(f, pairs)
        ok &= rep.passed
        ok &= rep.min_ratio >= 1 - 1e-3 and rep.max_ratio <= 4 + 1e-2
    _verdict(11, ok)


def test_criterion_12_uniformity():
    q_disk = estimate_uniformity_constant(
        unit_disk(),
        SampleSet(seed=1, count=4096, strategy="near_boundary", eps=1e-6),
    )
    ok = 1.99 < q_disk <= 2.0
    q_uhp = estimate_uniformity_constant(
        upper_half_plane(), SampleSet(seed=1, count=4096)
    )
    ok &= abs(q_uhp - 2.0) <= 1e-12
    q_pd = estimate_uniformity_constant(
        punctured_disk(),
        SampleSet(seed=1, count=4096, strategy="near_puncture",
                  eps=math.exp(-50)),
    )
    ok &= q_pd > 50
    samples = SampleSet(seed=42, count=10_000)
    rep = check_pointwise_bounds(koebe_map(), unit_disk(), samples,
                                 "thm41", Q=2.0)
    ok &= rep.passed
    ok &= rep.min_ratio >= 0.25 - 1e-9 and rep.max_ratio <= 8 + 2e-2
    rep = check_pointwise_bounds(mobius_map(0.3, 0), unit_disk(), samples,
                                 "cor43")
    ok &= rep.passed
    ok &= rep.min_ratio >= 0.125 - 1e-9 and rep.max_ratio <= 8 + 2e-2
    _verdict(12, ok)


def test_criterion_13_log_construction():
    def closed_form(z0):
        # punctured disk, u = z0: lambda = 1/(2|u| log(1/|u|)) and
        # delta_image = |c| min(log(1/|u|), pi)
        lg = math.log(1.0 / abs(z0))
        return 2.0 * lg / min(lg, math.pi)

    def ratio_over_lambda(z0):
        a = check_log_construction(punctured_disk(), z0, c=1.0)
        b = check_log_construction(punctured_disk(), z0, c=3.7 + 1.1j)
        ra = a.constants["ratio_over_lambda"]
        rb = b.constants["ratio_over_lambda"]
        ok = abs(ra - rb) <= 1e-12 * max(1.0, abs(ra))  # scale invariance
        ok &= abs(ra - closed_form(z0)) <= 1e-12 * closed_form(z0)
        return ra, ok

    # near the outer circle (|u| >= e^{-pi}) the ratio is exactly 2
    _, ok = ratio_over_lambda(0.99)
    # the blow-up is at the puncture: |u| = e^{-100}, well past the crossing
    # of 50 at e^{-25 pi}, gives 200/pi
    r, ok_deep = ratio_over_lambda(math.exp(-100) * cmath.exp(1j))
    ok &= ok_deep and r > 50
    _verdict(13, ok)


def test_criterion_14_cli_determinism(capsys, tmp_path):
    argv = ["verify", "--kind", "thm21", "--map", "koebe", "--domain",
            "disk", "--samples", "1000", "--seed", "42"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    json.loads(out1)  # well-formed
    flip = ["verify", "--kind", "thm21", "--map", "koebe", "--domain",
            "disk", "--samples", "200", "--seed", "1", "--strategy",
            "radial_line", "--upper-constant", "3.9"]
    code3 = cli_main(list(flip))
    capsys.readouterr()
    ok &= code3 == 1
    _verdict(14, ok)
