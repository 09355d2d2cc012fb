import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conformal_metrics import (
    Polyline,
    metrics,
    path_quadrature,
    punctured_disk,
    slit_disk,
)
from conformal_metrics.cli import main, parse_complex, parse_domain_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("-1,2") == complex(-1, 2)
    with pytest.raises(ValueError):
        parse_complex("1,2,3")


@pytest.mark.parametrize("text", ["nan", "inf", "0,nan", "inf,1",
                                  "0,-inf", "1e400", "NaN,0"])
def test_parse_complex_rejects_non_finite_parts(text):
    with pytest.raises(ValueError, match="is not a finite number"):
        parse_complex(text)


def test_parse_domain_spec():
    assert parse_domain_spec("disk").kind == "unit_disk"
    assert parse_domain_spec("pdisk").kind == "punctured_disk"
    assert parse_domain_spec("uhp").kind == "upper_half_plane"
    assert parse_domain_spec("koebe-slit").kind == "koebe_slit_plane"
    assert parse_domain_spec("slit-disk") == slit_disk(0)
    assert parse_domain_spec("slit-disk:0.5") == slit_disk(0.5)
    assert parse_domain_spec("slit-disk:-0.25,1") == slit_disk(-0.25 + 1j)
    for spec in ("banana", "image:koebe", "image:mobius:0.3,0:disk:256",
                 "disk:0.5", "slit-disk:", "slit-disk:1,2,3",
                 "slit-disk:inf"):
        with pytest.raises(ValueError):
            parse_domain_spec(spec)


def test_ratio_of_log_slit_off_the_origin(capsys):
    # Log(z - 1/2) on its slit disk: |f'(0.6)| = 10 over delta of the log
    # strip at log(0.1), its distance to the end
    code, out, err = run(capsys, "ratio", "--map", "logslit:0.5,1",
                         "--domain", "slit-disk:0.5,0", "--at", "0.6")
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(10 / math.log(10), abs=1e-9)
    # the default centre is 0, the base of another map
    code, out, err = run(capsys, "ratio", "--map", "logslit:0.5,1",
                         "--domain", "slit-disk", "--at", "0.6")
    assert (code, out) == (2, "")
    assert "kind/domain mismatch" in err


def test_density_subcommand(capsys):
    code, out, _ = run(capsys, "density", "--domain", "disk", "--at", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(1 / 0.75)


def test_delta_subcommand(capsys):
    code, out, _ = run(capsys, "delta", "--domain", "pdisk", "--at", "0.3")
    assert code == 0
    assert float(out) == pytest.approx(0.3)


def test_ratio_subcommand(capsys):
    code, out, _ = run(capsys, "ratio", "--map", "koebe",
                       "--domain", "disk", "--at", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(16 / 3, rel=1e-9)


def test_distance_hyp(capsys):
    code, out, _ = run(capsys, "distance", "--domain", "disk",
                       "--metric", "hyp", "--from", "0", "--to", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(0.549306144, abs=1e-9)


def test_distance_hyp_near_the_circle(capsys):
    code, out, _ = run(capsys, "distance", "--domain", "disk", "--metric",
                       "hyp", "--from", "0.999999999", "--to", "-0.999999999")
    assert code == 0
    assert out == "21.416413045\n"


def test_distance_hyp_half_plane(capsys):
    code, out, _ = run(capsys, "distance", "--domain", "uhp",
                       "--metric", "hyp", "--from", "1,1", "--to", "1,2")
    assert code == 0
    assert float(out) == pytest.approx(math.log(2) / 2, abs=1e-9)


def test_distance_hyp_punctured_disk(capsys):
    # the lifts of 0.5 and -0.5 differ by pi in Re psi = arg z, either way
    # round the puncture, and by 0 in Im psi = log 2
    code, out, err = run(capsys, "distance", "--domain", "pdisk",
                         "--metric", "hyp", "--from", "0.5", "--to", "-0.5")
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(
        math.asinh(math.pi / (2 * math.log(2))), abs=1e-9)


def test_distance_qhyp_and_geodesic_round_trip(tmp_path, capsys):
    geo = tmp_path / "geo.csv"
    code, out, _ = run(capsys, "distance", "--domain", "pdisk",
                       "--metric", "qhyp", "--from", "0.25", "--to", "0.5",
                       "--geodesic-out", str(geo))
    assert code == 0
    printed = float(out)
    assert printed == pytest.approx(math.log(2), abs=1e-3)
    with open(geo, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y"]
    pts = [complex(float(x), float(y)) for x, y in rows[1:]]
    requad = path_quadrature("quasihyperbolic", punctured_disk(),
                             Polyline(pts))
    assert abs(requad - printed) <= 1e-9


def test_distance_qhyp_below_the_csv_precision(tmp_path, capsys):
    # 9 significant digits round the whole geodesic onto 0.3: k is the
    # solver's, and there is no CSV to export
    argv = ["distance", "--domain", "disk", "--metric", "qhyp",
            "--from", "0.3", "--to", "0.3000000001"]
    assert run(capsys, *argv) == (0, "0.000000000\n", "")
    path = tmp_path / "geo.csv"
    code, out, err = run(capsys, *argv, "--geodesic-out", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: the geodesic is below the precision of the "
                   "--geodesic-out CSV, 9 significant digits\n")
    assert not path.exists()


def test_distance_qhyp_round_the_slit_tip(capsys):
    # the pair straddles the slit 3/4 from its tip: the start path, the
    # hyperbolic geodesic, goes round the tip
    code, out, err = run(capsys, "distance", "--domain", "koebe-slit",
                         "--metric", "qhyp", "--from", "-1,0.01",
                         "--to", "-1,-0.01")
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(13.16427, abs=1e-5)


def test_verify_json_and_determinism(capsys):
    argv = ["verify", "--kind", "thm21", "--map", "koebe",
            "--domain", "disk", "--samples", "1000", "--seed", "42"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    rep = json.loads(out1)
    assert rep["kind"] == "thm21"
    assert rep["samples_checked"] == 1000
    assert not rep["violations"]
    assert 1 - 1e-9 <= rep["min_ratio"] and rep["max_ratio"] <= 4 + 1e-9


def test_verify_exit_code_flips_with_tightened_constant(capsys):
    base = ["verify", "--kind", "thm21", "--map", "koebe", "--domain", "disk",
            "--samples", "200", "--seed", "1", "--strategy", "radial_line"]
    code_ok, _, _ = run(capsys, *base)
    code_bad, out, _ = run(capsys, *base, "--upper-constant", "3.9")
    assert code_ok == 0
    assert code_bad == 1
    assert json.loads(out)["violations"]


def test_verify_json_lists_the_skipped_samples(capsys):
    # half-plane samples outside the disk, koebe's base domain, are skipped
    code, out, _ = run(capsys, "verify", "--kind", "osgood_T_delta", "--map",
                       "koebe", "--domain", "uhp", "--samples", "50")
    assert code == 0
    rep = json.loads(out)
    assert (rep["samples_checked"], len(rep["skipped"])) == (26, 24)
    for skip in rep["skipped"]:
        x, y = skip["z"]
        assert skip == {"z": [x, y], "reason": f"{complex(x, y)} is not an "
                                               "interior point of "
                                               "Domain(unit_disk)"}


def test_verify_thm41_estimates_q(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "thm41", "--map",
                       "identity", "--domain", "disk", "--samples", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["constants"]["Q"] == pytest.approx(2.0, abs=1e-3)


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--quantity", "ratio", "--map",
                       "koebe", "--domain", "disk", "--from", "0.1",
                       "--to", "0.9", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,value,bound"
    assert len(lines) == 6
    for line in lines[1:]:
        t, v, bound = (float(s) for s in line.split(","))
        assert v <= bound * (1 + 1e-9)


def test_sweep_pdisk_ratio_monotone(capsys):
    code, out, _ = run(capsys, "sweep", "--quantity", "pdisk-ratio",
                       "--domain", "pdisk", "--from", "0.05", "--to", "0.3",
                       "--steps", "6")
    assert code == 0
    vals = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
    assert vals == sorted(vals, reverse=True)


@pytest.mark.parametrize("quantity", ["ratio", "T", "S"])
def test_sweep_without_map_is_usage_error(capsys, quantity):
    code, out, err = run(capsys, "sweep", "--quantity", quantity,
                         "--domain", "disk", "--from", "0.1", "--to", "0.5",
                         "--steps", "3")
    assert (code, out) == (2, "")
    assert err == f"error: --quantity {quantity} needs --map\n"


@pytest.mark.parametrize("argv, message", [
    # the range ends on the base domain's boundary
    (("ratio", "--map", "koebe", "--from", "0", "--to", "1", "--steps", "11"),
     "(1+0j) is not an interior point of Domain(unit_disk)"),
    # z = 1 fails at its density, a later check than the f' = 0 of z = 0
    (("T", "--map", "power:2", "--from", "1", "--to", "0", "--steps", "3"),
     "(1+0j) is not an interior point of Domain(unit_disk)"),
    (("S", "--map", "power:2", "--from", "0", "--to", "1", "--steps", "3"),
     "Schwarzian undefined: f' = 0"),
])
def test_sweep_reports_its_first_failing_point(capsys, argv, message):
    code, out, err = run(capsys, "sweep", "--quantity", *argv,
                         "--domain", "disk")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("ratio", "--at", "0,0.9"),
    ("verify", "--kind", "lemma31", "--samples", "200"),
    ("sweep", "--quantity", "ratio", "--from", "0.1", "--to", "0.5",
     "--steps", "3"),
], ids=["ratio", "verify", "sweep"])
def test_ratio_off_the_maps_base_domain_is_a_usage_error(capsys, argv):
    # delta of the image is that of the map's base domain, the disk
    code, out, err = run(capsys, *argv, "--map", "identity", "--domain", "uhp")
    assert (code, out) == (2, "")
    assert err == ("error: kind/domain mismatch: identity has base domain "
                   "Domain(unit_disk), got Domain(upper_half_plane)\n")


def test_sweep_path_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quantity", "pdisk-ratio", "--domain", "pdisk",
              "--path", "radial", "--from", "0.1", "--to", "0.5",
              "--steps", "3"])
    assert exc.value.code == 2
    assert "--path" in capsys.readouterr().err


def test_quad_panels_option_is_rejected(capsys):
    # the solver grades its quadrature by length / delta: no panel count
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--domain", "disk", "--metric", "qhyp",
              "--from", "0.1", "--to", "0.5", "--quad-panels", "16"])
    assert exc.value.code == 2
    assert "--quad-panels" in capsys.readouterr().err


@pytest.mark.parametrize("option, field", [
    ("--path-nodes", "path_nodes"),
])
def test_solver_grids_below_two_are_usage_errors(capsys, option, field):
    code, out, err = run(capsys, "distance", "--domain", "disk", "--metric",
                         "qhyp", "--from", "0.1", "--to", "0.5", option, "1")
    assert (code, out) == (2, "")
    assert err == f"error: {field} must be at least 2\n"


def test_uniformity_subcommand(capsys):
    code, out, _ = run(capsys, "uniformity", "--domain", "disk",
                       "--samples", "2000", "--strategy", "near_boundary")
    assert code == 0
    assert 1.9 < float(out) <= 2.0


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "density", "--domain", "nosuch", "--at", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "ratio", "--map", "mobius:2,0",
                       "--domain", "disk", "--at", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "density", "--domain", "disk", "--at", "5")
    assert code == 2 and "error:" in err


def test_unknown_bound_kind_is_argparses_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kind", "nosuch", "--map", "koebe",
              "--domain", "disk"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: conformal-metrics verify [-h] --kind KIND")
    assert err.endswith(
        "conformal-metrics verify: error: argument --kind: invalid choice: "
        "'nosuch' (choose from 'thm21', 'lemma31', 'lambda_delta', "
        "'koebe_distortion', 'osgood_T', 'osgood_T_delta', 'lehto_S', "
        "'gehring_S', 'thm41', 'cor43')\n")


def test_solver_options_left_out_keep_the_config_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(metrics, "quasihyperbolic_distance",
                        lambda D, z1, z2, cfg: seen.append(cfg) or (0.0, None))
    argv = ["distance", "--domain", "disk", "--metric", "qhyp",
            "--from", "0", "--to", "0.5"]
    assert main(argv) == 0
    assert main(argv + ["--path-nodes", "64", "--solver-tolerance", "1e-5"]) == 0
    assert seen == [metrics.SolverConfig(),
                    metrics.SolverConfig(path_nodes=64, tolerance=1e-5)]


def test_boundary_samples_option_is_rejected(capsys):
    for argv in (["ratio", "--map", "koebe", "--domain", "disk", "--at", "0"],
                 ["verify", "--kind", "thm21", "--map", "koebe",
                  "--domain", "disk"],
                 ["sweep", "--quantity", "ratio", "--map", "koebe",
                  "--domain", "disk", "--from", "0", "--to", "0.5",
                  "--steps", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--boundary-samples", "256"])
        assert exc.value.code == 2
        assert "--boundary-samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, want", [
    (["density", "--domain", "disk", "--at", "-0.5,0.3"], 1 / (1 - 0.34)),
    (["distance", "--domain", "disk", "--metric", "hyp",
      "--from", "-0.3,0.1", "--to", "0"],
     math.atanh(abs(complex(-0.3, 0.1)))),
    (["distance", "--domain", "disk", "--metric", "hyp",
      "--from", "0", "--to", "-0.2"], math.atanh(0.2)),
    (["distance", "--domain", "disk", "--metric", "hyp",
      "--from", "0", "--to", "-0.2,-0.1"],
     math.atanh(abs(complex(-0.2, -0.1)))),
], ids=["at", "from", "to", "to-complex"])
def test_negative_complex_literals_are_values(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("argv, bad", [
    (["density", "--domain", "disk", "--at", "nan"], "nan"),
    (["delta", "--domain", "uhp", "--at", "0,inf"], "inf"),
    (["delta", "--domain", "koebe-slit", "--at", "nan"], "nan"),
    (["ratio", "--map", "koebe", "--domain", "disk", "--at", "0.1,nan"],
     "nan"),
    (["distance", "--domain", "disk", "--metric", "hyp",
      "--from", "inf", "--to", "0"], "inf"),
    (["distance", "--domain", "uhp", "--metric", "qhyp",
      "--from", "0,1", "--to", "0,inf"], "inf"),
    (["sweep", "--quantity", "ratio", "--map", "koebe", "--domain", "disk",
      "--from", "0", "--to", "nan", "--steps", "3"], "nan"),
    (["sweep", "--quantity", "pdisk-ratio", "--domain", "pdisk",
      "--from", "1e400", "--to", "0.5", "--steps", "3"], "1e400"),
    (["ratio", "--map", "power:inf", "--domain", "disk", "--at", "0.1"],
     "inf"),
    (["ratio", "--map", "mobius:nan,0", "--domain", "disk", "--at", "0.1"],
     "nan"),
], ids=["density", "delta", "delta-koebe", "ratio", "distance-hyp",
        "distance-qhyp", "sweep-to", "sweep-from", "map-power", "map-mobius"])
def test_non_finite_literals_are_usage_errors(capsys, argv, bad):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad!r} is not a finite number\n"


@pytest.mark.parametrize("argv, message", [
    (["--map", "power:400", "--at", "0.1"],
     "f'(0.1+0j) is nonzero but below the float range"),
    (["--map", "power:2", "--at", "0"], "f'(0j) = 0"),
])
def test_ratio_tells_an_underflowed_f_prime_from_a_zero(capsys, argv,
                                                         message):
    assert run(capsys, "ratio", "--domain", "disk", *argv) == (
        2, "", f"error: {message}\n")


def test_power_whose_jet_coefficients_overflow_is_a_usage_error(capsys):
    # n(n - 1)(n - 2) is beyond the float range
    code, out, err = run(capsys, "ratio", "--map", "power:1e300",
                         "--domain", "disk", "--at", "0.1")
    assert (code, out) == (2, "")
    assert err == ("error: power exponent too large: its jet coefficients "
                   "overflow\n")


@pytest.mark.parametrize("option, message", [
    (("--q", "nan"), "Q must be finite and positive, got nan"),
    (("--q", "-1"), "Q must be finite and positive, got -1.0"),
    (("--upper-constant", "nan"),
     "override constant upper = nan is not finite"),
], ids=["q-nan", "q-negative", "upper-nan"])
def test_a_window_constant_that_is_not_a_number_is_a_usage_error(
        capsys, option, message):
    # such a window would pass, or fail, every sample vacuously
    code, out, err = run(capsys, "verify", "--kind", "thm41", "--map",
                         "koebe", "--domain", "disk", "--samples", "10",
                         *option)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # both metrics read the endpoints through the same checked kernel
    (["disk", "--metric", "hyp", "--from", "2", "--to", "0"],
     "(2+0j) is not an interior point of Domain(unit_disk)"),
    (["disk", "--metric", "qhyp", "--from", "2", "--to", "0"],
     "(2+0j) is not an interior point of Domain(unit_disk)"),
    # a 2-node path is the chord, which crosses the boundary
    (["pdisk", "--metric", "qhyp", "--from", "0.5", "--to", "-0.5",
      "--path-nodes", "2"], "path meets the boundary of the domain"),
    (["koebe-slit", "--metric", "qhyp", "--from", "-2,0.5",
      "--to", "-2,-0.5", "--path-nodes", "2"],
     "path meets the boundary of the domain"),
    (["slit-disk", "--metric", "qhyp", "--from", "-0.5,0.1",
      "--to", "-0.5,-0.1", "--path-nodes", "2"],
     "path meets the boundary of the domain"),
    # a chord that grazes the slit: its grading stops at its piece bound
    (["slit-disk", "--metric", "qhyp", "--from", "-0.9,0.000001",
      "--to", "-0.1,-0.000001", "--path-nodes", "2"],
     "path meets the boundary of the domain"),
], ids=["hyp-outside", "qhyp-outside", "pdisk-chord", "koebe-chord",
        "slit-disk-chord", "slit-disk-grazing-chord"])
def test_distance_errors_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, "distance", "--domain", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_eps_below_float_resolution_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--kind", "thm21", "--map",
                         "koebe", "--domain", "disk", "--strategy",
                         "near_boundary", "--eps", "1e-300")
    assert code == 2 and out == ""
    assert "error:" in err and "float resolution" in err


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "v.txt"
    code, out, _ = run(capsys, "density", "--domain", "disk", "--at", "0",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "1.000000000\n"


_NO_SCIPY = """
import sys
from conformal_metrics import cli, punctured_disk, quasihyperbolic_distance
k, _ = quasihyperbolic_distance(punctured_disk(), 0.25, 0.5)
print(k)
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
    assert "scipy" not in sys.modules, argv
assert "scipy" not in sys.modules
"""

# the benchmark's single-point commands (perfbench cli-point)
_CLI_POINT = [
    "density --domain pdisk --at 0.3,0.2",
    "delta --domain koebe-slit --at -1.2,0.4",
    "ratio --map koebe --domain disk --at 0.3,-0.4",
    "distance --domain disk --metric hyp --from 0.1,0.2 --to -0.3,0.5",
    "verify --kind thm21 --map koebe --domain disk --samples 1000 --seed 7",
    "sweep --quantity ratio --map koebe --domain disk --from 0.05 --to 0.95 "
    "--steps 19",
    "distance --domain pdisk --metric qhyp --from 0.25 --to 0.5",
]


def test_scipy_is_never_loaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *_CLI_POINT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    k = proc.stdout.split()[0]
    assert float(k) == pytest.approx(math.log(2), rel=1e-6)


_LOADED = """
import sys
from conformal_metrics import cli
assert cli.main(sys.argv[1].split()) == 0
print(*sorted(m for m in sys.modules if m.startswith("conformal_metrics.")))
"""
_BASE = {"cli", "domains", "errors"}
_METRICS = _BASE | {"metrics"}
_VERIFY = _BASE | {"jets", "maps", "verify"}


@pytest.mark.parametrize("argv, modules", zip(_CLI_POINT, [
    _BASE, _BASE, _VERIFY, _METRICS, _VERIFY, _VERIFY, _METRICS]))
def test_each_command_loads_only_its_modules(argv, modules):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LOADED, argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == sorted(f"conformal_metrics.{m}" for m in modules)
