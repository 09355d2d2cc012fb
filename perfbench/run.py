"""Benchmark of the conformal-metrics library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's `src` only; the benchmark refuses to run without it.  One client
runs one op at a time (a closed loop).  Every op is repeated across the run
and its time is the fastest of its executions, because host drift moves
medians far more than minima (see perfbench/README.md).  Percentiles are
taken over distinct ops.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, measured in
a separate run with wrappers around the library's layer functions.  The line
before it is a detail record: environment, per-op times and statuses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
HOLDOUT_SEED = 90210   # kept out of tuning; re-check claimed gains on it
MIN_PASSES = 3
SETUP_PROBES = 8
# Relative errors below the solver's default stopping tolerance (relative
# improvement 1e-6) are not controlled by the solver; they are reported as
# this floor so that harmless changes below it do not read as regressions.
REL_ERR_FLOOR = 1e-6


class CheckoutError(Exception):
    pass


def _require_checkout():
    """Import conformal_metrics from this checkout's src, nowhere else."""
    if not (SRC / "conformal_metrics" / "__init__.py").is_file():
        raise CheckoutError(f"no conformal_metrics package under {SRC}")
    sys.path.insert(0, str(SRC))
    import conformal_metrics
    _require_from_src(conformal_metrics.__file__)


def _require_from_src(path: str):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise CheckoutError(f"conformal_metrics came from {path}, not {SRC}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    threads = {k: os.environ.get(k, "unset (library default)")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# timing loop

class OpRecord:
    """Best time, executions and output status of one distinct op."""

    def __init__(self, op):
        self.op = op
        self.best = math.inf
        self.best_traced = math.inf
        self.executions = 0
        self.failed = 0
        self.problem = None
        self.unexpected = False
        self.key = None
        self.output = None

    def record(self, out, dt: float, traced: bool = False):
        if traced:
            self.best_traced = min(self.best_traced, dt)
        else:
            self.best = min(self.best, dt)
        self.executions += 1
        problem = self.op.check(out)
        key = self.op.key(out)
        if self.output is None:
            self.output, self.key = out, key
        elif problem is None and key != self.key:
            problem = "output changed between executions"
        if problem is not None:
            self.failed += 1
            self.problem = problem
            self.unexpected |= self.op.known_defect is None

    def status(self) -> str:
        if self.problem is None:
            return "ok"
        return "unexpected failure" if self.unexpected else "known defect"


def run_passes(records, seconds: float, rng: random.Random, between=None,
               tracer=None):
    """Repeat passes over all ops in shuffled order until `seconds` have
    passed and MIN_PASSES are done; the last pass may stop part way.  With a tracer, passes alternate
    untraced and traced; `between(elapsed)` runs after every pass."""
    start = perf_counter()
    flagged = set()
    passes = 0
    min_passes = MIN_PASSES * (2 if tracer else 1)
    while passes < min_passes or perf_counter() - start < seconds:
        traced = tracer is not None and passes % 2 == 1
        order = list(range(len(records)))
        rng.shuffle(order)
        for i in order:
            if passes >= min_passes and perf_counter() - start >= seconds:
                break
            rec = records[i]
            if traced:
                self_before = tracer.self_total()
                tracer.enable()
            t0 = perf_counter()
            try:
                out = rec.op.run()
            finally:
                dt = perf_counter() - t0
                if traced:
                    tracer.disable()
            if traced and tracer.self_total() - self_before > dt:
                flagged.add(rec.op.name)
            rec.record(out, dt, traced)
        passes += 1
        if between is not None:
            between(perf_counter() - start)
    return passes, sorted(flagged)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten distinct ops beyond it; the
    slowest op when there are too few ops for that."""
    values = sorted(values)
    n = len(values)
    if n >= 11:
        return values[n - 11], f"p{100 * (n - 10) / n:.4g}"
    return values[-1], "max"


def _probe(argv: list[str]) -> tuple[float, str, str]:
    """Wall time of a child until its first stdout line, that line and the
    child's stderr."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err[-2000:]}")
    return dt, line.strip(), err


class Spread:
    """Runs `probe()` SETUP_PROBES times, spread evenly over `seconds`."""

    def __init__(self, probe, seconds: float):
        self.probe, self.seconds = probe, seconds
        self.values = []

    def __call__(self, elapsed: float):
        while len(self.values) < SETUP_PROBES and \
                elapsed >= self.seconds * len(self.values) / SETUP_PROBES:
            self.values.append(self.probe())

    def finish(self):
        while len(self.values) < SETUP_PROBES:
            self.values.append(self.probe())
        return self.values


def setup_probe(workload: str, seed: int) -> float:
    dt, line, _ = _probe([sys.executable, str(BENCH / "probe.py"),
                          workload, str(seed)])
    tag, _, path = line.partition(" ")
    if tag != "done":
        raise RuntimeError(f"setup probe printed {line!r}")
    _require_from_src(path)
    return dt


# ---------------------------------------------------------------------------
# metrics

def _stats(values):
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values)}


def end_to_end(records, setup_s, peak_rss_mb, rel_errs, per_s):
    times = [r.best * 1e3 for r in records]
    tail_ms, tail_label = tail(times)
    # no error to report only when the op that gives it failed: a failed
    # answer counts as wholly wrong
    rel_errs = [max(e, REL_ERR_FLOOR) for e in rel_errs] or [1.0]
    values = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "samples_per_s": (per_s, "1/s"),
        "rel_err_p50": (statistics.median(rel_errs), "ratio"),
        "rel_err_max": (max(rel_errs), "ratio"),
    }
    return values, {"tail_percentile": tail_label}


def _rel_errs(records):
    errs = (r.op.rel_err(r.output) for r in records if r.output is not None)
    return [e for e in errs if e is not None]


def _canary_rel_errs():
    """The README qhyp pair solved once, for workloads that run no solver:
    every end-to-end metric is reported on every workload."""
    from conformal_metrics import domains, metrics
    from workloads import README_QHYP

    _, a, b, ref = README_QHYP
    k, _ = metrics.quasihyperbolic_distance(domains.punctured_disk(), a, b)
    return [abs(k - ref) / ref]


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer, records, passes_traced, flagged, overhead,
                  cli_values=None):
    """Per-layer metrics from the traced passes; see perfbench/README.md."""
    st = tracer.stats
    samples = passes_traced * sum(r.op.samples for r in records)
    solves = passes_traced * sum(r.op.solves for r in records)
    skip_pairs = [r.op.skips(r.output) for r in records
                  if r.output is not None]
    skip_pairs = [p for p in skip_pairs if p is not None]
    not_exercised = []

    def per(stage, field, denom, scale=1.0):
        value = getattr(st[stage], field)
        if not denom:
            return None
        return value * scale / denom

    cli_values = cli_values or {}
    table = {
        "cli.interpreter_ms": (cli_values.get("interpreter_ms"), "ms", None),
        "cli.import_ms": (cli_values.get("import_ms"), "ms", None),
        "cli.import_scipy_ms": (cli_values.get("import_scipy_ms"), "ms", None),
        "cli.main_ms": (cli_values.get("main_ms"), "ms", None),
        "verify.points_us_per_sample":
            (per("verify.points", "busy", samples, 1e6), "us", "verify.points"),
        "verify.check_self_ms":
            (per("verify.check", "self", st["verify.check"].calls, 1e3), "ms",
             "verify.check"),
        "verify.skip_ratio":
            (sum(s for s, _ in skip_pairs) / sum(a for _, a in skip_pairs)
             if skip_pairs else None, "ratio", None),
        "maps.eval_jet_per_sample":
            (per("maps.eval_jet", "calls", samples), "count", "maps.eval_jet"),
        "maps.eval_jet_self_us":
            (per("maps.eval_jet", "self", st["maps.eval_jet"].calls, 1e6),
             "us", "maps.eval_jet"),
        "jets.jet3_per_sample":
            (per("jets.jet3", "calls", samples), "count", "jets.jet3"),
        "jets.compose_per_sample":
            (per("jets.compose", "calls", samples), "count", "jets.compose"),
        "domains.contains_per_sample":
            (per("domains.contains", "calls", samples), "count",
             "domains.contains"),
        "domains.density_self_us":
            (per("domains.density", "self", st["domains.density"].calls, 1e6),
             "us", "domains.density"),
        "domains.delta_self_us":
            (per("domains.delta", "self", st["domains.delta"].calls, 1e6),
             "us", "domains.delta"),
        "domains.vec_calls_per_solve":
            (per("domains.vec", "calls", solves), "count", "domains.vec"),
        "domains.vec_points_per_solve":
            (per("domains.vec", "points", solves), "count", "domains.vec"),
        "domains.vec_busy_ms":
            (per("domains.vec", "busy", solves, 1e3), "ms", "domains.vec"),
        "metrics.grid_self_ms":
            (per("metrics.grid", "self", solves, 1e3), "ms", "metrics.grid"),
        "metrics.dijkstra_ms":
            (per("metrics.dijkstra", "busy", solves, 1e3), "ms",
             "metrics.dijkstra"),
        "metrics.resample_ms":
            (per("metrics.resample", "busy", solves, 1e3), "ms",
             "metrics.resample"),
        "metrics.relax_ms":
            (per("metrics.relax", "busy", solves, 1e3), "ms", "metrics.relax"),
        "metrics.quadrature_ms":
            (per("metrics.quadrature", "busy", solves, 1e3), "ms",
             "metrics.quadrature"),
        "metrics.relax_iterations":
            (per("metrics.relax", "results", solves), "count",
             "metrics.relax"),
        "metrics.segment_cost_calls_per_solve":
            (per("metrics.segment_costs", "calls", solves), "count",
             "metrics.segment_costs"),
        "trace.overhead_pct": (overhead, "%", None),
        "trace.self_over_wall_ops": (len(flagged), "count", None),
    }
    values, absent = {}, []
    for name, (value, unit, stage) in table.items():
        if stage in tracer.absent:
            absent.append(name)
            value = 0
        elif value is None:
            not_exercised.append(name)
            value = 0
        values[name] = (value, unit)
    return values, {"absent": absent, "absent_stages": tracer.absent,
                    "not_exercised": not_exercised,
                    "self_time_over_wall": flagged,
                    "tracing_overhead_pct": overhead}


def overhead_pct(records) -> float:
    traced = sum(r.best_traced for r in records)
    untraced = sum(r.best for r in records)
    return 100.0 * (traced / untraced - 1.0)


# ---------------------------------------------------------------------------
# workloads

def _check_child_import():
    _, line, _ = _probe([sys.executable, "-c",
                         "import conformal_metrics; "
                         "print(conformal_metrics.__file__)"])
    _require_from_src(line)


def run_cli_point(seed, seconds, trace):
    import workloads

    _check_child_import()
    rng = random.Random(seed)
    records = [OpRecord(op) for op in workloads.cli_point(
        seed, sys.executable, child_env(), str(ROOT))]
    if not trace:
        run_passes(records, seconds, rng)
        values, extra = end_to_end(
            records,
            setup_s=records[0].best,
            peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN),
            rel_errs=_rel_errs(records),
            per_s=len(records) / sum(r.best for r in records),
        )
        extra["setup"] = "best time of the first command, a fresh process"
        return records, values, extra

    from tracer import Tracer

    # one CLI pass checks the outputs; the layer figures come from probes
    # and a warm in-process cli.main on the same argv
    start = perf_counter()
    run_passes(records, 0, rng)
    probes = {"interpreter_ms": [], "import_ms": [], "import_scipy_ms": []}

    def cli_probes(_elapsed=None):
        if len(probes["interpreter_ms"]) >= SETUP_PROBES:
            return
        probes["interpreter_ms"].append(
            _probe([sys.executable, "-c", "print()"])[0] * 1e3)
        probes["import_ms"].append(float(_probe(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); "
             "import conformal_metrics.cli; "
             "print(time.perf_counter() - t)"])[1]) * 1e3)
        _, _, err = _probe([sys.executable, "-X", "importtime", "-c",
                            "import conformal_metrics.cli; print()"])
        probes["import_scipy_ms"].append(_scipy_import_ms(err))

    tracer = Tracer()
    warm = [OpRecord(op) for op in workloads.in_process_cli(seed)]
    remaining = max(seconds - (perf_counter() - start), 0)
    passes, flagged = run_passes(warm, remaining, rng, tracer=tracer,
                                 between=cli_probes)
    while len(probes["interpreter_ms"]) < SETUP_PROBES:
        cli_probes()
    cli_values = {k: min(v) for k, v in probes.items()}
    cli_values["main_ms"] = statistics.median(r.best * 1e3 for r in warm)
    values, extra = layer_metrics(tracer, warm, passes // 2, flagged,
                                  overhead_pct(warm), cli_values)
    return records, values, extra


def _scipy_import_ms(importtime_err: str) -> float:
    """Self time of every scipy module in a -X importtime report."""
    total_us = 0
    for line in importtime_err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            total_us += int(m.group(1))
    return total_us / 1e3


def run_in_process(workload, seed, seconds, trace):
    import workloads

    rng = random.Random(seed)
    records = [OpRecord(op) for op in workloads.WORKLOADS[workload](seed)]
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        passes, flagged = run_passes(records, seconds, rng, tracer=tracer)
        values, extra = layer_metrics(tracer, records, passes // 2, flagged,
                                      overhead_pct(records))
        return records, values, extra

    probes = Spread(lambda: setup_probe(workload, seed), seconds)
    run_passes(records, seconds, rng, between=probes)
    setups = probes.finish()
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    if workload == "verify-sweep":
        per_s = (sum(r.op.samples for r in records)
                 / sum(r.best for r in records if r.op.samples))
        rel_errs = _canary_rel_errs()
    else:
        per_s = sum(r.op.solves for r in records) / sum(r.best for r in records)
        rel_errs = _rel_errs(records)
    values, extra = end_to_end(records, min(setups), peak, rel_errs, per_s)
    extra["setup_probes_s"] = setups
    return records, values, extra


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    try:
        _require_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.workload == "cli-point":
        records, values, extra = run_cli_point(args.seed, args.seconds,
                                               args.trace)
    else:
        records, values, extra = run_in_process(args.workload, args.seed,
                                                args.seconds, args.trace)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    differ = {m["name"] for m in wanted} ^ set(values)
    if differ:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    executions = [r.executions for r in records]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "distinct_ops": len(records),
        "executions_per_op": _stats(executions),
        **extra,
        "ops": [{"name": r.op.name, "best_ms": r.best * 1e3,
                 "executions": r.executions, "status": r.status(),
                 **({"problem": r.problem} if r.problem else {}),
                 **({"known_defect": r.op.known_defect}
                    if r.op.known_defect else {})}
                for r in records],
    }
    print(json.dumps({"detail": detail}))
    # counted over distinct ops, which the seed fixes, so that the counts
    # do not move with how many executions fit in the run; an op fails when
    # any of its executions gave a wrong output
    print(json.dumps({
        "correct": not any(r.unexpected for r in records),
        "attempted": len(records),
        "failed": sum(r.problem is not None for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": values[m["name"]][1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
