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

from . import domains
from .domains import Domain
from .errors import ConformalMetricsError, at_point, parse_finite

__all__ = ["main", "parse_domain_spec", "parse_complex"]


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"bad complex literal {text!r} (want re or re,im)")
    return complex(*(parse_finite(part) for part in parts))


_DOMAIN_TAGS = {
    "disk": domains.unit_disk,
    "pdisk": domains.punctured_disk,
    "uhp": domains.upper_half_plane,
    "koebe-slit": domains.koebe_slit_plane,
    "slit-disk": domains.slit_disk,
}


def parse_domain_spec(spec: str) -> Domain:
    """disk | pdisk | uhp | koebe-slit | slit-disk[:re[,im]], the last with
    its centre (0 by default)."""
    tag, colon, centre = spec.partition(":")
    if tag not in _DOMAIN_TAGS or (colon and tag != "slit-disk"):
        raise ValueError(f"unknown domain spec {spec!r}")
    return _DOMAIN_TAGS[tag](*([parse_complex(centre)] if colon else []))


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sample_set(args):
    from . import verify

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
    from . import maps, verify

    r = verify.distortion_ratio(maps.parse_map_spec(args.map),
                                parse_domain_spec(args.domain),
                                parse_complex(args.at))
    _emit(f"{r:.9f}\n", args.out)
    return 0


# option dest -> (SolverConfig field, option type); an option not given
# leaves its field at the SolverConfig default
_SOLVER_OPTIONS = {
    "relax_iterations": ("relax_iterations", int),
    "path_nodes": ("path_nodes", int),
    "solver_tolerance": ("tolerance", float),
}


def _solver_config(args):
    from .metrics import SolverConfig

    return SolverConfig(**{field: getattr(args, dest)
                           for dest, (field, _) in _SOLVER_OPTIONS.items()
                           if getattr(args, dest) is not None})


def _cmd_distance(args) -> int:
    from . import metrics

    D = parse_domain_spec(args.domain)
    z1, z2 = parse_complex(getattr(args, "from")), parse_complex(args.to)
    if args.metric == "hyp":
        _emit(f"{metrics.hyperbolic_distance(D, z1, z2):.9f}\n", args.out)
        return 0
    d, geo = metrics.quasihyperbolic_distance(D, z1, z2, _solver_config(args))
    if geo is not None:
        # Round the geodesic to the CSV precision first so that
        # re-quadrature of the exported file reproduces the printed value.
        # A geodesic that the rounding collapses to one point keeps the
        # solver's value, and has no CSV to export.
        pts = [complex(_round9(p.real), _round9(p.imag)) for p in geo.points]
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        if len(dedup) > 1:
            geo = metrics.Polyline(dedup)
            d = metrics.path_quadrature("quasihyperbolic", D, geo)
        elif args.geodesic_out:
            raise ValueError("the geodesic is below the precision of the "
                             "--geodesic-out CSV, 9 significant digits")
        if args.geodesic_out:
            rows = ["x,y"] + [f"{_fmt9(p.real)},{_fmt9(p.imag)}"
                              for p in geo.points]
            with open(args.geodesic_out, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write("\n".join(rows) + "\n")
    _emit(f"{d:.9f}\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import maps, verify

    if args.kind not in verify.BOUND_KINDS:
        choices = ", ".join(map(repr, verify.BOUND_KINDS))
        args.usage_error(f"argument --kind: invalid choice: {args.kind!r} "
                         f"(choose from {choices})")
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


# sweep quantity -> (bound kind giving its constant, power of lambda)
_SWEEP_BOUNDS = {"ratio": ("thm21", 1), "T": ("osgood_T", 1),
                 "S": ("lehto_S", 2)}


def _quantity_and_density(f, D, z, faults, name):
    from . import verify

    return (verify.quantity(f, D, z, name, faults),
            domains.checked_density(D, z, faults))


def _cmd_sweep(args) -> int:
    from . import maps, verify

    D = parse_domain_spec(args.domain)
    f = maps.parse_map_spec(args.map) if args.map else None
    if f is None and args.quantity != "pdisk-ratio":
        raise ValueError(f"--quantity {args.quantity} needs --map")
    a, b = parse_finite(getattr(args, "from")), parse_finite(args.to)
    params = np.linspace(a, b, args.steps)
    if args.quantity == "pdisk-ratio":
        values = at_point(verify.checked_punctured_disk_ratio, params)
        bounds = np.full(len(params), np.inf)
    else:
        kind, power = _SWEEP_BOUNDS[args.quantity]
        values, lam = at_point(_quantity_and_density, f, D, params,
                               name=args.quantity)
        bounds = verify.BOUNDS[kind].upper * lam ** power
    rows = ["param,value,bound"] + [
        f"{_fmt9(t)},{_fmt9(v)},{_fmt9(bound)}"
        for t, v, bound in zip(params, values, bounds)]
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_uniformity(args) -> int:
    from . import verify

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
    for dest, (_, kind) in _SOLVER_OPTIONS.items():
        p.add_argument("--" + dest.replace("_", "-"), type=kind, default=None)


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
    # checked against verify.BOUND_KINDS in _cmd_verify, which imports verify
    p.add_argument("--kind", required=True, metavar="KIND")
    p.add_argument("--map")
    p.add_argument("--domain", required=True)
    p.add_argument("--q", type=float, default=None,
                   help="uniformity constant for thm41 (estimated if absent)")
    p.add_argument("--upper-constant", type=float, default=None,
                   help="diagnostic override of the upper bound constant")
    p.add_argument("--out")
    _add_sample_args(p)
    p.set_defaults(fn=_cmd_verify, usage_error=p.error)

    p = sub.add_parser("sweep", help="CSV sweep of a quantity along a "
                                     "radial parameter range")
    p.add_argument("--quantity", required=True,
                   choices=["ratio", "pdisk-ratio", "T", "S"])
    p.add_argument("--map")
    p.add_argument("--domain", required=True)
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
