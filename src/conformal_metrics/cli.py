"""Command-line front door.

Subcommands: density, delta, ratio, distance, verify, sweep, uniformity.
Scalar results print with 9 decimal places; verify emits the BoundReport
JSON shape; sweep and geodesic exports are CSV (9 significant digits, LF,
UTF-8).  Exit codes: 0 ok, 1 bound violations, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import domains, maps, metrics, verify
from .domains import Domain
from .errors import ConformalMetricsError

__all__ = ["main", "parse_domain_spec", "parse_complex"]


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"bad complex literal {text!r} (want re or re,im)")


_DOMAIN_TAGS = {
    "disk": domains.unit_disk,
    "pdisk": domains.punctured_disk,
    "uhp": domains.upper_half_plane,
    "koebe-slit": domains.koebe_slit_plane,
    "slit-disk": domains.slit_disk,
}


def parse_domain_spec(spec: str) -> Domain:
    """disk | pdisk | uhp | koebe-slit | slit-disk"""
    try:
        return _DOMAIN_TAGS[spec]()
    except KeyError:
        raise ValueError(f"unknown domain spec {spec!r}") from None


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sample_set(args) -> verify.SampleSet:
    return verify.SampleSet(seed=args.seed, count=args.samples,
                            strategy=args.strategy, eps=args.eps)


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_density(args) -> int:
    lam = domains.hyperbolic_density(parse_domain_spec(args.domain),
                                     parse_complex(args.at))
    _emit(f"{lam:.9f}\n", args.out)
    return 0


def _cmd_delta(args) -> int:
    d = domains.boundary_distance(parse_domain_spec(args.domain),
                                  parse_complex(args.at))
    _emit(f"{d:.9f}\n", args.out)
    return 0


def _cmd_ratio(args) -> int:
    r = verify.distortion_ratio(maps.parse_map_spec(args.map),
                                parse_domain_spec(args.domain),
                                parse_complex(args.at))
    _emit(f"{r:.9f}\n", args.out)
    return 0


def _solver_config(args) -> metrics.SolverConfig:
    return metrics.SolverConfig(
        grid_resolution=args.grid_resolution,
        relax_iterations=args.relax_iterations,
        path_nodes=args.path_nodes,
        quad_panels_per_segment=args.quad_panels,
        tolerance=args.solver_tolerance,
    )


def _cmd_distance(args) -> int:
    D = parse_domain_spec(args.domain)
    z1, z2 = parse_complex(getattr(args, "from")), parse_complex(args.to)
    if args.metric == "hyp":
        if D.kind != "unit_disk":
            raise ValueError("hyperbolic distance is closed form on the disk "
                             "only; use conformal pullback for other domains")
        d = metrics.hyperbolic_distance_disk(z1, z2)
        _emit(f"{d:.9f}\n", args.out)
        return 0
    cfg = _solver_config(args)
    d, geo = metrics.quasihyperbolic_distance(D, z1, z2, cfg)
    if geo is not None:
        # Round the geodesic to the CSV precision first so that
        # re-quadrature of the exported file reproduces the printed value.
        pts = [complex(_round9(p.real), _round9(p.imag)) for p in geo.points]
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        geo = metrics.Polyline(dedup)
        d = metrics.path_quadrature("quasihyperbolic", D, geo,
                                    panels=cfg.quad_panels_per_segment)
        if args.geodesic_out:
            rows = ["x,y"] + [f"{_fmt9(p.real)},{_fmt9(p.imag)}"
                              for p in geo.points]
            with open(args.geodesic_out, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write("\n".join(rows) + "\n")
    _emit(f"{d:.9f}\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    D = parse_domain_spec(args.domain)
    samples = _sample_set(args)
    f = maps.parse_map_spec(args.map) if args.map else None
    override = None
    if args.upper_constant is not None:
        override = {"upper": args.upper_constant}
    q = args.q
    if args.kind == "thm41" and q is None:
        q = verify.estimate_uniformity_constant(
            D, verify.SampleSet(seed=args.seed, count=4096,
                                strategy="near_boundary", eps=1e-6)
        )
    report = verify.check_pointwise_bounds(
        f, D, samples, args.kind, Q=q, constants_override=override,
    )
    _emit(json.dumps(report.to_json_dict()) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    D = parse_domain_spec(args.domain)
    f = maps.parse_map_spec(args.map) if args.map else None
    a, b = float(getattr(args, "from")), float(args.to)
    params = np.linspace(a, b, args.steps)
    rows = ["param,value,bound"]
    for t in params:
        z = complex(t, 0.0)
        if args.quantity == "pdisk-ratio":
            value = verify.punctured_disk_ratio(z)
            bound = float("inf")
        elif args.quantity == "ratio":
            value = verify.distortion_ratio(f, D, z)
            bound = 4.0 * domains.hyperbolic_density(D, z)
        elif args.quantity == "T":
            value = abs(verify.pre_schwarzian(f.jet(z)))
            bound = 8.0 * domains.hyperbolic_density(D, z)
        else:  # S
            value = abs(verify.schwarzian(f.jet(z)))
            bound = 12.0 * domains.hyperbolic_density(D, z) ** 2
        rows.append(f"{_fmt9(t)},{_fmt9(value)},{_fmt9(bound)}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_uniformity(args) -> int:
    q = verify.estimate_uniformity_constant(parse_domain_spec(args.domain),
                                            _sample_set(args))
    _emit(f"{q:.9f}\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_sample_args(p, default_count=1000):
    p.add_argument("--samples", type=int, default=default_count)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", default="uniform_disk",
                   choices=["uniform_disk", "radial_line", "near_boundary",
                            "near_puncture"])
    p.add_argument("--eps", type=float, default=None)


def _add_solver_args(p):
    p.add_argument("--grid-resolution", type=int, default=200)
    p.add_argument("--relax-iterations", type=int, default=500)
    p.add_argument("--path-nodes", type=int, default=128)
    p.add_argument("--quad-panels", type=int, default=16)
    p.add_argument("--solver-tolerance", type=float, default=1e-6)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conformal-metrics",
        description="Hyperbolic/quasihyperbolic density and distance "
                    "computations, and numerical verification of the sharp "
                    "distortion bounds relating them.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="hyperbolic density at a point")
    p.add_argument("--domain", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("delta", help="boundary distance at a point")
    p.add_argument("--domain", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("ratio", help="distortion ratio |f'|/delta_image")
    p.add_argument("--map", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("distance", help="hyperbolic or quasihyperbolic "
                                        "distance between two points")
    p.add_argument("--domain", required=True)
    p.add_argument("--metric", required=True, choices=["hyp", "qhyp"])
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--geodesic-out")
    p.add_argument("--out")
    _add_solver_args(p)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("verify", help="run one bound check, emit BoundReport "
                                      "JSON; exit 1 on violations")
    p.add_argument("--kind", required=True, choices=list(verify.BOUND_KINDS))
    p.add_argument("--map")
    p.add_argument("--domain", required=True)
    p.add_argument("--q", type=float, default=None,
                   help="uniformity constant for thm41 (estimated if absent)")
    p.add_argument("--upper-constant", type=float, default=None,
                   help="diagnostic override of the upper bound constant")
    p.add_argument("--out")
    _add_sample_args(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="CSV sweep of a quantity along a "
                                     "radial parameter range")
    p.add_argument("--quantity", required=True,
                   choices=["ratio", "pdisk-ratio", "T", "S"])
    p.add_argument("--map")
    p.add_argument("--domain", required=True)
    p.add_argument("--path", default="radial", choices=["radial"])
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("uniformity", help="empirical uniformity constant")
    p.add_argument("--domain", required=True)
    p.add_argument("--out")
    _add_sample_args(p, default_count=4096)
    p.set_defaults(fn=_cmd_uniformity)

    return ap


# Options that take a complex literal.  argparse reads a value that starts
# with '-' and is not a plain number, such as -0.5,0.3, as an option; such a
# value is attached to its option (`--at=-0.5,0.3`) before parsing.
_POINT_OPTIONS = ("--at", "--from", "--to")


def _attach_point_values(argv: list[str]) -> list[str]:
    out = []
    for tok in argv:
        if out and out[-1] in _POINT_OPTIONS and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(
        _attach_point_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except (ConformalMetricsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():  # console_scripts hook
    sys.exit(main())
