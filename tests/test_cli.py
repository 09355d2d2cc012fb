import csv
import json
import math

import pytest

from conformal_metrics import (
    Polyline,
    path_quadrature,
    punctured_disk,
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


def test_parse_domain_spec():
    assert parse_domain_spec("disk").kind == "unit_disk"
    assert parse_domain_spec("pdisk").kind == "punctured_disk"
    assert parse_domain_spec("uhp").kind == "upper_half_plane"
    assert parse_domain_spec("koebe-slit").kind == "koebe_slit_plane"
    assert parse_domain_spec("slit-disk").kind == "slit_disk"
    for spec in ("banana", "image:koebe", "image:mobius:0.3,0:disk:256"):
        with pytest.raises(ValueError):
            parse_domain_spec(spec)


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


def test_distance_hyp_non_disk_is_usage_error(capsys):
    code, _, err = run(capsys, "distance", "--domain", "uhp",
                       "--metric", "hyp", "--from", "1,1", "--to", "1,2")
    assert code == 2
    assert "error:" in err


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
