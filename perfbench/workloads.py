"""Operation lists for the three benchmark workloads.

An op is one unit of work the timing loop repeats: a CLI process
(cli-point), one `check_pointwise_bounds` call (verify-sweep) or one
`quasihyperbolic_distance_detailed` call (qhyp-solve).  Every op carries a
check of its own output.  The seed only changes the generated inputs; the
library receives nothing but those inputs.

An op may name a known defect (a ROADMAP item).  Such an op stays in the
workload; when its check fails it counts as failed but does not make the
run incorrect.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import re
import subprocess
from dataclasses import dataclass
from typing import Callable

from conformal_metrics import cli, domains, maps, metrics, verify

VERIFY_SAMPLES = 5_000        # samples per verify-sweep check
CLI_VERIFY_SAMPLES = 1_000    # samples of the CLI verify command
QHYP_RTOL = 1e-3              # allowed |k - closed form| / closed form
GO_RTOL = 1e-12               # rounding allowance in the k >= j check
NEG_LITERAL = "negative complex literal (ROADMAP, smaller known defects)"
UNDER_REPORT = "solver misses at delta ratio >= 5e3 (ROADMAP item 2)"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right
    known_defect: str | None = None
    samples: int = 0        # verify samples the op evaluates
    solves: int = 0         # quasihyperbolic solves the op runs
    key: Callable[[object], object] = lambda out: out  # compared across runs
    rel_err: Callable[[object], float | None] = lambda out: None
    skips: Callable[[object], tuple[int, int] | None] = lambda out: None


# ---------------------------------------------------------------------------
# cli-point

def _fmt_point(z: complex) -> str:
    """The README's `re,im` form, as a user would type it."""
    return f"{z.real:.6f},{z.imag:.6f}"


def _parse_point(text: str) -> complex:
    re_, im_ = text.split(",")
    return complex(float(re_), float(im_))


def _in_process(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _close(text: str, ref: float) -> str | None:
    try:
        got = float(text)
    except ValueError:
        return f"unparsable output {text!r}"
    # 9 printed decimals: half a unit in the last place plus rounding
    if abs(got - ref) > 6e-10 + 1e-12 * abs(ref):
        return f"printed {got!r}, closed form {ref!r}"
    return None


def _koebe_ratio(z: complex) -> float:
    """|k'(z)| / delta of the slit plane at k(z), for the Koebe map k."""
    w = z / (1 - z) ** 2
    delta = abs(w + 0.25) if w.real >= -0.25 else abs(w.imag)
    return abs((1 + z) / (1 - z) ** 3) / delta


def _koebe_slit_delta(z: complex) -> float:
    return abs(z + 0.25) if z.real >= -0.25 else abs(z.imag)


def _pdisk_density(z: complex) -> float:
    r = abs(z)
    return 1.0 / (2.0 * r * math.log(1.0 / r))


def _disk_hyp(a: complex, b: complex) -> float:
    return math.atanh(abs(a - b) / abs(1 - a.conjugate() * b))


def _sweep_check(text: str) -> str | None:
    rows = text.splitlines()
    if len(rows) != 20 or rows[0] != "param,value,bound":
        return "sweep output is not 19 rows under the header"
    for row in rows[1:]:
        _, value, bound = (float(x) for x in row.split(","))
        if not value <= bound:
            return f"sweep row {row!r} exceeds its thm21 bound"
    return None


def _verify_json_check(text: str) -> str | None:
    report = json.loads(text)
    if report["samples_checked"] + len(report["skipped"]) != CLI_VERIFY_SAMPLES:
        return "samples_checked + skipped != samples"
    if report["violations"]:
        return "thm21 violations on the Koebe map"
    return None


# A fixed README pair with a closed form: delta(z) = |z| on |z| <= 1/2 in the
# punctured disk, so k(0.25, 0.5) = log 2.  Kept fixed so that the accuracy
# metric compares like with like across seeds.
README_QHYP = ("pdisk", 0.25 + 0j, 0.5 + 0j, math.log(2.0))


def _readme_qhyp_check(text: str) -> str | None:
    _, a, b, ref = README_QHYP
    return _close_rel(float(text), ref, a, b, domains.punctured_disk())


def _readme_qhyp_err(text: str) -> float:
    return abs(float(text) - README_QHYP[3]) / README_QHYP[3]


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[str], str | None]  # on stdout of a successful run
    samples: int = 0
    solves: int = 0
    rel_err: Callable[[str], float] | None = None


def cli_commands(seed: int) -> list[Command]:
    """The README commands of cli-point, with seeded points."""
    rng = random.Random(seed)

    def disk_point(radius=0.9):
        return cmath.rect(radius * math.sqrt(rng.random()),
                          rng.uniform(-math.pi, math.pi))

    z_density = _fmt_point(disk_point())
    z_delta = _fmt_point(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    z_ratio = _fmt_point(disk_point())
    z_from, z_to = _fmt_point(disk_point()), _fmt_point(disk_point())
    verify_seed = rng.randrange(1 << 16)
    return [
        Command("density", ["density", "--domain", "pdisk", "--at", z_density],
                lambda t: _close(t, _pdisk_density(_parse_point(z_density)))),
        Command("delta", ["delta", "--domain", "koebe-slit", "--at", z_delta],
                lambda t: _close(t, _koebe_slit_delta(_parse_point(z_delta)))),
        Command("ratio", ["ratio", "--map", "koebe", "--domain", "disk",
                          "--at", z_ratio],
                lambda t: _close(t, _koebe_ratio(_parse_point(z_ratio)))),
        Command("distance-hyp",
                ["distance", "--domain", "disk", "--metric", "hyp",
                 "--from", z_from, "--to", z_to],
                lambda t: _close(t, _disk_hyp(_parse_point(z_from),
                                              _parse_point(z_to)))),
        Command("verify", ["verify", "--kind", "thm21", "--map", "koebe",
                           "--domain", "disk", "--samples",
                           str(CLI_VERIFY_SAMPLES), "--seed", str(verify_seed)],
                _verify_json_check, samples=CLI_VERIFY_SAMPLES),
        Command("sweep", ["sweep", "--quantity", "ratio", "--map", "koebe",
                          "--domain", "disk", "--from", "0.05", "--to", "0.95",
                          "--steps", "19"],
                _sweep_check),
        Command("distance-qhyp",
                ["distance", "--domain", README_QHYP[0], "--metric", "qhyp",
                 "--from", str(README_QHYP[1].real),
                 "--to", str(README_QHYP[2].real)],
                _readme_qhyp_check, solves=1, rel_err=_readme_qhyp_err),
    ]


def _cli_known_defect(argv: list[str]) -> str | None:
    if any(re.fullmatch(r"-[^,]*,.*", a) for a in argv):
        return NEG_LITERAL
    return None


def _cli_skips(out) -> tuple[int, int] | None:
    code, text = out
    if code not in (0, 1):
        return None
    return len(json.loads(text)["skipped"]), CLI_VERIFY_SAMPLES


def cli_point(seed: int, python: str, env: dict, cwd: str) -> list[Op]:
    """One fresh `python -m conformal_metrics` process per op."""
    ops = []
    for cmd in cli_commands(seed):
        expected = _in_process(cmd.argv)

        def run(argv=cmd.argv):
            proc = subprocess.run([python, "-m", "conformal_metrics", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=cwd, check=False)
            return proc.returncode, proc.stdout

        def check(out, expected=expected, cmd=cmd):
            if out != expected:
                return (f"CLI gave {out!r}, in-process cli.main gave "
                        f"{expected!r}")
            if out[0] != 0:
                return f"exit code {out[0]}"
            return cmd.check(out[1])

        def rel_err(out, cmd=cmd):
            if cmd.rel_err is None or out[0] != 0:
                return None
            return cmd.rel_err(out[1])

        ops.append(Op(cmd.name, run, check, _cli_known_defect(cmd.argv),
                      cmd.samples, cmd.solves, rel_err=rel_err,
                      skips=_cli_skips if cmd.samples else (lambda out: None)))
    return ops


def in_process_cli(seed: int) -> list[Op]:
    """The cli-point commands through a warm in-process `cli.main`; their
    outputs are checked by the subprocess runs."""
    return [Op(cmd.name, lambda argv=cmd.argv: _in_process(argv),
               lambda out: None, None, cmd.samples, cmd.solves,
               skips=_cli_skips if cmd.samples else (lambda out: None))
            for cmd in cli_commands(seed)]


# ---------------------------------------------------------------------------
# verify-sweep

# (kind, map, domain, strategy, expected verdict).  Maps are catalog maps and
# composites whose image is a catalog domain, so every check is on the
# closed-form delta route.  Expected verdicts: lambda_delta fails near the
# puncture (the punctured disk is not simply connected) and osgood_T rejects
# maps that are not univalent.
VERIFY_CHECKS = [
    ("thm21", "koebe", "disk", "uniform_disk", "pass"),
    ("thm21", "mobius", "disk", "radial_line", "pass"),
    ("thm21", "cayley", "disk", "near_boundary", "pass"),
    ("thm21", "koebe∘mobius", "disk", "near_puncture", "pass"),
    ("thm21", "logslit", "slit-disk", "uniform_disk", "pass"),
    ("lemma31", "identity", "disk", "near_boundary", "pass"),
    ("lemma31", "koebe", "disk", "radial_line", "pass"),
    ("lemma31", "cayley∘mobius", "disk", "uniform_disk", "pass"),
    ("lemma31", "logslit", "slit-disk", "near_puncture", "pass"),
    ("lambda_delta", None, "disk", "uniform_disk", "pass"),
    ("lambda_delta", None, "pdisk", "near_boundary", "pass"),
    ("lambda_delta", None, "pdisk", "near_puncture", "violations"),
    ("lambda_delta", None, "uhp", "radial_line", "pass"),
    ("lambda_delta", None, "koebe-slit", "near_boundary", "pass"),
    ("lambda_delta", None, "slit-disk", "uniform_disk", "pass"),
    ("koebe_distortion", "koebe", "disk", "near_boundary", "pass"),
    ("koebe_distortion", "mobius∘mobius", "disk", "uniform_disk", "pass"),
    ("koebe_distortion", "cayley", "disk", "radial_line", "pass"),
    ("osgood_T", "koebe", "disk", "radial_line", "pass"),
    ("osgood_T", "mobius", "disk", "near_puncture", "pass"),
    ("osgood_T", "identity", "uhp", "uniform_disk", "pass"),
    ("osgood_T", "logslit", "slit-disk", "near_boundary", "pass"),
    ("osgood_T", "power3", "disk", "uniform_disk", "rejected"),
    ("osgood_T", "pdc", "disk", "radial_line", "rejected"),
    ("osgood_T_delta", "koebe", "disk", "near_puncture", "pass"),
    ("osgood_T_delta", "cayley∘mobius", "disk", "near_boundary", "pass"),
    ("osgood_T_delta", "identity", "koebe-slit", "radial_line", "pass"),
    ("osgood_T_delta", "power3", "uhp", "near_boundary", "pass"),
    ("lehto_S", "koebe", "disk", "uniform_disk", "pass"),
    ("lehto_S", "koebe∘mobius", "disk", "radial_line", "pass"),
    ("lehto_S", "identity", "koebe-slit", "near_puncture", "pass"),
    ("gehring_S", "cayley", "disk", "near_puncture", "pass"),
    ("gehring_S", "mobius∘mobius", "disk", "near_boundary", "pass"),
    ("gehring_S", "power3", "pdisk", "uniform_disk", "pass"),
    ("gehring_S", "logslit", "slit-disk", "radial_line", "pass"),
    ("thm41", "koebe", "disk", "near_boundary", "pass"),
    ("thm41", "mobius", "disk", "uniform_disk", "pass"),
    ("cor43", "identity", "disk", "radial_line", "pass"),
    ("cor43", "koebe∘mobius", "disk", "uniform_disk", "pass"),
    ("cor43", "cayley", "disk", "near_boundary", "pass"),
]

DOMAINS = {
    "disk": domains.unit_disk,
    "pdisk": domains.punctured_disk,
    "uhp": domains.upper_half_plane,
    "koebe-slit": domains.koebe_slit_plane,
    "slit-disk": domains.slit_disk,
}

THM41_Q = 2.0  # uniformity constant of the disk: sup 1/(lambda delta) = 2


def _catalog_maps(rng: random.Random) -> dict:
    def mobius():
        a = cmath.rect(0.8 * math.sqrt(rng.random()),
                       rng.uniform(-math.pi, math.pi))
        return maps.mobius_map(a, rng.uniform(-math.pi, math.pi))

    m1, m2, m3, m4 = mobius(), mobius(), mobius(), mobius()
    return {
        None: None,
        "identity": maps.identity_map(),
        "koebe": maps.koebe_map(),
        "mobius": m1,
        "cayley": maps.cayley_map(),
        "logslit": maps.log_slit_map(0j, 1 + 0j),
        "power3": maps.power_map(3),
        "pdc": maps.punctured_disk_covering_map(),
        "koebe∘mobius": maps.compose_maps(maps.koebe_map(), m2),
        "cayley∘mobius": maps.compose_maps(maps.cayley_map(), m3),
        "mobius∘mobius": maps.compose_maps(m1, m4),
    }


def _report_key(out):
    if isinstance(out, Exception):
        return repr(out)
    return (out.samples_checked, out.min_ratio, out.max_ratio,
            len(out.violations), len(out.skipped))


def verify_sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    catalog = _catalog_maps(rng)
    ops = []
    for kind, fname, dname, strategy, expected in VERIFY_CHECKS:
        f, D = catalog[fname], DOMAINS[dname]()
        samples = verify.SampleSet(seed=rng.randrange(1 << 30),
                                   count=VERIFY_SAMPLES, strategy=strategy)
        Q = THM41_Q if kind == "thm41" else None

        def run(f=f, D=D, samples=samples, kind=kind, Q=Q):
            try:
                return verify.check_pointwise_bounds(f, D, samples, kind, Q=Q)
            except ValueError as exc:  # kind/map mismatch
                return exc

        def check(out, expected=expected):
            if isinstance(out, Exception):
                verdict = "rejected"
            else:
                if out.samples_checked + len(out.skipped) != VERIFY_SAMPLES:
                    return "samples_checked + skipped != samples"
                verdict = "pass" if out.passed else "violations"
            if verdict != expected:
                return f"verdict {verdict}, expected {expected}"
            return None

        def skips(out):
            if isinstance(out, Exception):
                return None
            return len(out.skipped), VERIFY_SAMPLES

        name = f"{kind} {fname or '-'} {dname} {strategy}"
        ops.append(Op(name, run, check, None,
                      0 if expected == "rejected" else VERIFY_SAMPLES, 0,
                      key=_report_key, skips=skips))
    return ops


# ---------------------------------------------------------------------------
# qhyp-solve

def j_metric(D, a: complex, b: complex) -> float:
    """Gehring-Osgood j: log(1 + |a-b| / min(delta(a), delta(b))), a lower
    bound for k in every proper subdomain (Gehring & Osgood 1979)."""
    return math.log1p(abs(a - b) / min(domains.boundary_distance(D, a),
                                       domains.boundary_distance(D, b)))


def _uhp_k(a: complex, b: complex) -> float:
    return math.acosh(1 + abs(a - b) ** 2 / (2 * a.imag * b.imag))


def _pdisk_k(a: complex, b: complex) -> float:
    """On |z| <= 1/2 the punctured disk has delta = |z|, the metric |dz|/|z|
    whose geodesics are logarithmic spirals (lower bound everywhere, since
    delta <= |z|)."""
    return math.hypot(math.log(abs(b) / abs(a)), abs(cmath.phase(b / a)))


def _square_symmetry(rng: random.Random):
    """One of the 8 symmetries of the square [-1, 1]^2, which map the
    solver's grid on a bounded domain onto itself."""
    turn = 1j ** rng.randrange(4)
    flip = rng.random() < 0.5
    return lambda z: turn * (z.conjugate() if flip else z)


def qhyp_pairs(seed: int) -> list[tuple]:
    """(name, domain, a, b, closed form or None, known defect or None).

    Pairs with a closed form are a fixed reference set, so that rel_err
    compares the same problems on every seed: a symmetry of the disk alone
    moves the solver's error between 2.5e-7 and 4.6e-6 (ties in the grid
    Dijkstra), which would leave a seeded median unusable as a bound.  The
    pairs checked against j are seeded: the seed applies a symmetry of the
    domain (square symmetries of the disks, dilations about the slit tip,
    translations of the slit disk, conjugation), so every seed gives a
    congruent set with new coordinates.
    """
    uhp = domains.upper_half_plane()
    disk = domains.unit_disk()
    pdisk = domains.punctured_disk()
    pairs = []
    # delta-ratio family: the geodesic of a horizontal pair at height y0 and
    # distance 2*rho*y0 rises to about rho*y0, so its delta ratio is rho.
    # rho = 5e3 is the ROADMAP item 2 reproduction (0.001i -> 10+0.001i).
    for rho in (1e1, 1e2, 1e3, 5e3, 1e4, 1e5):
        a, b = 0.001j, 2 * rho * 0.001 + 0.001j
        pairs.append((f"uhp rho={rho:g}", uhp, a, b, _uhp_k(a, b),
                      UNDER_REPORT if rho >= 5e3 else None))
    for a, b in ((1j, 4j), (0.5 + 1j, 3 + 0.2j), (-2 + 3j, 2 + 0.5j),
                 (0.1j, 1 + 2j), (-1 + 0.05j, 1 + 0.05j)):
        pairs.append(("uhp", uhp, a, b, _uhp_k(a, b), None))
    for r in (0.5, 0.9, 0.99, 0.999, 0.9999):
        a = cmath.rect(r, 0.3)
        pairs.append((f"disk diameter r={r:g}", disk, a, -a,
                      2 * math.log(1 / (1 - r)),
                      UNDER_REPORT if r == 0.9999 else None))
    for r1, r2 in ((0.1, 0.9), (0.3, 0.95), (0.05, 0.6)):
        a, b = cmath.rect(r1, 1.1), cmath.rect(r2, 1.1)
        pairs.append(("disk radial", disk, a, b,
                      math.log((1 - r1) / (1 - r2)), None))
    for a, b in ((0.25, 0.5), (0.3, -0.2), (0.1j, 0.4),
                 (cmath.rect(0.05, 1.0), cmath.rect(0.45, 2.5)),
                 (cmath.rect(0.02, 0.3), cmath.rect(0.5, 0.3))):
        a, b = complex(a), complex(b)
        pairs.append(("pdisk spiral", pdisk, a, b, _pdisk_k(a, b), None))

    rng = random.Random(seed)
    for a, b in ((0.5 + 0.5j, -0.3 + 0.6j), (0.8j, 0.7),
                 (-0.6 - 0.2j, 0.6 - 0.2j)):
        sym = _square_symmetry(rng)
        pairs.append(("disk", disk, sym(a), sym(b), None, None))
    for a, b in ((0.7, -0.7), (0.2 + 0.7j, -0.1 - 0.8j)):
        sym = _square_symmetry(rng)
        pairs.append(("pdisk around puncture", pdisk, sym(a), sym(b),
                      None, None))
    koebe = domains.koebe_slit_plane()
    for a, b in ((-2 + 0.5j, -2 - 0.5j), (-1 + 0.3j, -1.5 - 0.3j),
                 (1 + 0j, 3 + 2j), (-0.2 + 1j, 2 - 1j)):
        s = 2.0 ** rng.randrange(-2, 3)
        a, b = (-0.25 + s * (z + 0.25) for z in (a, b))
        if rng.random() < 0.5:
            a, b = a.conjugate(), b.conjugate()
        pairs.append(("koebe-slit around slit", koebe, a, b, None, None))
    for a, b in ((-0.5 + 0.1j, -0.5 - 0.1j), (0.5j, -0.5j),
                 (0.3 + 0.3j, 0.6 - 0.2j), (-0.8 + 0.05j, -0.2 - 0.3j)):
        c = complex(rng.randrange(-8, 9), rng.randrange(-8, 9)) / 8
        if rng.random() < 0.5:
            a, b = a.conjugate(), b.conjugate()
        pairs.append(("slit-disk around slit", domains.slit_disk(c),
                      c + a, c + b, None, None))
    return pairs


def qhyp_solve(seed: int) -> list[Op]:
    ops = []
    for name, D, a, b, ref, defect in qhyp_pairs(seed):
        def run(D=D, a=a, b=b):
            return metrics.quasihyperbolic_distance_detailed(D, a, b)

        def check(out, D=D, a=a, b=b, ref=ref):
            return _close_rel(out[0], ref, a, b, D)

        def rel_err(out, ref=ref):
            return None if ref is None else abs(out[0] - ref) / ref

        ops.append(Op(name, run, check, defect, 0, 1,
                      key=lambda out: (out[0], len(out[2])), rel_err=rel_err))
    return ops


def _close_rel(k: float, ref: float | None, a, b, D) -> str | None:
    j = j_metric(D, a, b)
    if k < j * (1 - GO_RTOL):
        return f"k = {k!r} below the Gehring-Osgood bound j = {j!r}"
    if ref is not None and abs(k - ref) > QHYP_RTOL * ref:
        return f"k = {k!r}, closed form {ref!r}"
    return None


WORKLOADS = {
    "cli-point": cli_point,
    "verify-sweep": verify_sweep,
    "qhyp-solve": qhyp_solve,
}
