import cmath

import mpmath
import pytest

from conformal_metrics import (
    IncompatibleCompositionError,
    InvalidParameterError,
    OutsideDomainError,
    SingularPointError,
    cayley_map,
    compose_maps,
    koebe_map,
    log_slit_map,
    make_catalog_map,
    mobius_map,
    parse_map_spec,
    power_map,
    punctured_disk_covering_map,
    pushforward_density,
    schwarzian,
    unit_disk,
)
from conformal_metrics import maps
from conformal_metrics.errors import at_point

mpmath.mp.dps = 40


def _mp_derivs(fn, z, n=3):
    return [complex(mpmath.diff(fn, z, k)) for k in range(n + 1)]


CASES = [
    (koebe_map(), lambda z: z / (1 - z) ** 2, [0.3, -0.5, 0.2 + 0.6j]),
    (cayley_map(), lambda z: 1j * (1 + z) / (1 - z), [0.0, 0.4j, -0.7]),
    (mobius_map(0.3 + 0.2j, 1.1),
     lambda z: cmath.exp(1.1j) * (z - (0.3 + 0.2j)) / (1 - (0.3 - 0.2j) * z),
     [0.0, 0.5, -0.2 - 0.4j]),
    (power_map(3), lambda z: z ** 3, [0.5, 0.3 + 0.3j]),
    (punctured_disk_covering_map(),
     lambda z: mpmath.exp((z + 1) / (z - 1)), [0.0, 0.5j, -0.6]),
    (log_slit_map(0, 1), lambda z: mpmath.log(z), [0.3, 0.1 + 0.2j]),
]


@pytest.mark.parametrize("f,ref,points", CASES,
                         ids=[c[0].kind for c in CASES])
def test_jets_match_high_precision_differentiation(f, ref, points):
    for z in points:
        j = f.jet(z)
        want = _mp_derivs(ref, z)
        got = [j.f0, j.f1, j.f2, j.f3]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


def test_koebe_jet_at_origin():
    j = koebe_map().jet(0.0)
    assert (j.f0, j.f1, j.f2, j.f3) == (0, 1, 4, 18)
    assert schwarzian(j) == -6


def test_mobius_schwarzian_vanishes():
    f = mobius_map(0.4 - 0.1j, 2.5)
    for z in (0.0, 0.3 + 0.3j, -0.8):
        assert abs(schwarzian(f.jet(z))) < 1e-12


def test_mobius_parameter_validation():
    with pytest.raises(InvalidParameterError):
        mobius_map(1.0)
    with pytest.raises(InvalidParameterError):
        mobius_map(0.8 + 0.7j)


@pytest.mark.parametrize("make, message", [
    (lambda: log_slit_map(0, 0), "log_slit scale c must be nonzero"),
    (lambda: power_map(0), "power exponent must be >= 1"),
], ids=["log-slit", "power"])
def test_zero_parameters_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_eval_outside_base_domain_rejected():
    with pytest.raises(OutsideDomainError):
        koebe_map().jet(2.0)
    with pytest.raises(OutsideDomainError):
        log_slit_map(0, 1).jet(-0.5)  # on the slit


def test_singular_points():
    with pytest.raises(SingularPointError):
        at_point(maps._jet_formula, koebe_map(), 1.0)
    with pytest.raises(SingularPointError):
        at_point(maps._jet_formula, log_slit_map(0, 1), 0.0)


def test_a_zero_of_f_prime_is_told_from_an_underflow():
    # f' = 0 exactly at the critical points of the formula, power's 0 and
    # mobius(a) = 0 under the square; elsewhere a 0 is 400 z^399 underflowed
    square_after = compose_maps(power_map(2), mobius_map(0.5, 0))
    for f, z, at in ((power_map(2), 0.0, "0j"),
                     (square_after, 0.5, "0.5+0j")):
        with pytest.raises(SingularPointError) as exc:
            pushforward_density(f, unit_disk(), z)
        assert str(exc.value) == f"f'({at}) = 0"
    # mobius(4/7) is 0.1 up to rounding; under the square, 0.1^400
    # underflows onto its critical point 0, but f' = 2 g g' is not 0
    for f, z, at in ((power_map(400), 0.1, "0.1+0j"),
                     (compose_maps(power_map(400), mobius_map(0.5, 0)), 4 / 7,
                      "0.5714285714285714+0j"),
                     (compose_maps(power_map(2), power_map(400)), 0.1,
                      "0.1+0j"),
                     (power_map(400), -0.1j, "-0-0.1j")):
        with pytest.raises(SingularPointError) as exc:
            pushforward_density(f, unit_disk(), z)
        assert str(exc.value) == (f"f'({at}) is nonzero but below the float "
                                  "range")


def test_power_map_univalence_flag():
    assert power_map(1).univalent
    assert not power_map(2).univalent


def test_composition_chain_rule_end_to_end():
    g = mobius_map(0.3, 0.7)
    f = koebe_map()
    h = compose_maps(f, g)
    z = 0.2 + 0.1j
    direct = f.jet(g.value(z))
    composed = h.jet(z)
    gz = g.jet(z)
    assert composed.f0 == pytest.approx(direct.f0)
    assert composed.f1 == pytest.approx(direct.f1 * gz.f1)


def test_composition_compatibility_check():
    # cayley maps the disk onto the upper half plane, outside koebe's base
    with pytest.raises(IncompatibleCompositionError):
        compose_maps(koebe_map(), cayley_map())


def test_composition_check_samples_a_slit_disk_base():
    # log_slit's base is a slit disk; part of its image, a half-strip,
    # leaves koebe's base, the unit disk
    with pytest.raises(IncompatibleCompositionError, match="log_slit"):
        compose_maps(koebe_map(), log_slit_map(0, 1))


def test_entire_outer_skips_compatibility():
    h = compose_maps(power_map(2), cayley_map())
    z = 0.3j
    w = cayley_map().value(z)
    assert h.value(z) == pytest.approx(w * w)


def test_composite_of_automorphisms_is_univalent_with_image():
    h = compose_maps(mobius_map(0.2), mobius_map(-0.5, 1.0))
    assert h.univalent
    assert h.image_domain is not None and h.image_domain.kind == "unit_disk"


def test_parse_map_spec_round_trip():
    assert parse_map_spec("koebe").kind == "koebe"
    m = parse_map_spec("mobius:0.3,0.2,1.5")
    assert m.params[0] == 0.3 + 0.2j and m.params[1] == 1.5
    assert parse_map_spec("power:3").params == (3,)
    ls = parse_map_spec("logslit:0,1")
    assert ls.kind == "log_slit"
    assert parse_map_spec("logslit:0,0,1,0") == ls
    assert parse_map_spec("logslit:0.5,-1,2,3").params == (0.5 - 1j, 2 + 3j)
    with pytest.raises(InvalidParameterError,
                       match="logslit needs 2 or 4 parameters"):
        parse_map_spec("logslit:1")
    with pytest.raises(InvalidParameterError):
        parse_map_spec("mobius:0.3,0,0,0")
    with pytest.raises(InvalidParameterError):
        parse_map_spec("power:2.5")
    with pytest.raises(InvalidParameterError):
        parse_map_spec("koebe:1")
    with pytest.raises(InvalidParameterError):
        parse_map_spec("frobnicate")


def test_make_catalog_aliases():
    assert make_catalog_map("pdc").kind == "punctured_disk_covering"
    assert make_catalog_map("identity").entire


def test_describe_is_stable():
    assert koebe_map().describe() == "koebe"
    assert "mobius" in compose_maps(koebe_map(), mobius_map(0.5)).describe()
