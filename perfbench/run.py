#!/usr/bin/env python3
"""The spinldp benchmark: one runner, three workloads, a traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload phase-scan --seed 1 --seconds 35 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json.  A run imports spinldp
from ./src (no install needed), builds the workload's inputs from the seed,
then repeats timed passes until --seconds would be exceeded (at least two,
so that outputs can be compared across passes).
Every pass checks its outputs against their oracles.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics --
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A result file with the environment record, every pass and every gate
failure goes to .perfbench_out/, and a traced run writes its spans there
too.

--trace 1 alternates untraced and traced passes; the per-layer metrics come
from the traced ones and the tracing overhead is the difference between the
two medians.  Numbers from the compiled kernel and the NumPy fallback are
different programs and must not be compared: the environment record says
which one ran.

setup_s is the median of SETUP_REPEATS cold set-ups, each in a fresh
interpreter (`--setup-probe`): importing NumPy, SciPy and spinldp plus
building the inputs, timed from before NumPy is imported.  A fresh process
is needed because a second import in one process finds NumPy and SciPy
already loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

T_START = time.perf_counter()  # a setup probe times from here: NumPy is not yet imported
sys.path.insert(0, str(HERE))
from tracing import LAGRANGIAN, RATE_DERIV, RATE_EVAL, NullTracer, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, LatticeGrowth  # noqa: E402

MODULES = ("badness", "cli", "duality", "finite_jump", "kernels", "lattice",
           "magnetization", "poisson_walk", "rate_functions", "trajectory", "verification")
SETUP_REPEATS = 5
MIN_PASSES = 2


def load_spinldp():
    """Import spinldp afresh from ./src, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "spinldp" or n.startswith("spinldp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = types.SimpleNamespace(
        **{m: importlib.import_module(f"spinldp.{m}") for m in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"spinldp imported from {mods.cli.__file__}, not {SRC}")
    return mods


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(mods):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiled_core": mods.kernels.using_compiled_core(),
        "SPINLDP_PURE": bool(os.environ.get("SPINLDP_PURE")),
    }


def end_to_end_metrics(setup_times, untraced):
    walls = [p["wall_s"] for p in untraced]
    rates = [p["items"] / p["wall_s"] for p in untraced]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracers, outcomes, traced_walls, untraced_walls):
    """Per-pass counts and per-call times from the traced passes.

    Layers a workload does not reach read 0 calls and 0 ms on it.
    """
    n = len(tracers)
    totals = [t.totals() for t in tracers]

    def calls(name):
        # deterministic per pass; the first traced pass stands for all
        return totals[0][name][0] if name in totals[0] else 0

    def seconds(name, col=1):
        return sum(t[name][col] for t in totals if name in t)

    def ms_per_call(name):
        c = sum(t[name][0] for t in totals if name in t)
        return 1e3 * seconds(name) / c if c else 0.0

    open_solves = calls("trajectory.minimize_action_open_start")
    fixed_solves = calls("trajectory.minimize_action_fixed")
    lagrangian_calls = calls(LAGRANGIAN)
    cells = outcomes[0].counts.get("cells", 0)
    rate_calls = calls(RATE_EVAL) + calls(RATE_DERIV)
    m = {
        "badness.cell_ms": (1e3 * seconds("badness.badness_scan") / (n * cells) if cells else 0.0, "ms"),
        "badness.optimal_initials_ms": (ms_per_call("badness.optimal_initials"), "ms"),
        "badness.is_bad_ms": (ms_per_call("badness.is_bad"), "ms"),
        "badness.bad_cells": (outcomes[0].counts.get("badness.bad_cells", 0), "count"),
        "trajectory.open_solves": (open_solves, "count"),
        "trajectory.open_solve_ms": (ms_per_call("trajectory.minimize_action_open_start"), "ms"),
        "trajectory.fixed_solves": (fixed_solves, "count"),
        "trajectory.fixed_solve_ms": (ms_per_call("trajectory.minimize_action_fixed"), "ms"),
        "trajectory.lagrangian_calls": (lagrangian_calls, "count"),
        "trajectory.lagrangian_calls_per_solve": (
            lagrangian_calls / (open_solves + fixed_solves) if open_solves + fixed_solves else 0.0,
            "count"),
        "magnetization.value_and_partials_us": (1e3 * ms_per_call(LAGRANGIAN), "us"),
        "magnetization.exact_log_prob_ms": (ms_per_call("magnetization.mag_exact_log_prob"), "ms"),
        "rate_functions.calls": (rate_calls, "count"),
        "rate_functions.self_ms": (
            1e3 * (seconds(RATE_EVAL, 2) + seconds(RATE_DERIV, 2)) / n, "ms"),
        "lattice.events": (outcomes[0].counts.get("lattice.events", 0), "count"),
    }
    for case in LatticeGrowth.CASES:
        secs = sum(s[3] - s[2] for t in tracers
                   for s in t.children_of(f"case.{case.label}", "lattice.glauber_simulate"))
        events = sum(o.counts.get(f"lattice.events.{case.label}", 0) for o in outcomes)
        m[f"lattice.events_per_s.{case.label}"] = (events / secs if secs else 0.0, "1/s")
    m.update({
        "lattice.moment_series_ms": (ms_per_call("lattice.moment_series"), "ms"),
        "lattice.identity_ms": (ms_per_call("lattice.nonlinear_generator_exact"), "ms"),
        "finite_jump.variational_ms": (ms_per_call("finite_jump.fj_lagrangian_variational"), "ms"),
        "finite_jump.dual_ms": (ms_per_call("finite_jump.fj_lagrangian_dual"), "ms"),
        "duality.gap_ms": (ms_per_call("duality.duality_gap"), "ms"),
        "poisson_walk.exact_log_prob_ms": (ms_per_call("poisson_walk.pw_exact_log_prob"), "ms"),
        "cli.overhead_ms": (1e3 * (seconds("cli.main") - seconds("badness.badness_scan")) / n, "ms"),
        "tracing.overhead_s": (
            statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
    })
    return m


def trace_notes(tracers, outcomes):
    """Checks on the traced counts; reported as notes, they are not gates."""
    notes = []
    totals = [t.totals() for t in tracers]
    for name in ("trajectory.minimize_action_open_start", "trajectory.minimize_action_fixed",
                 LAGRANGIAN):
        seen = {t.get(name, [0])[0] for t in totals}
        if len(seen) > 1:
            notes.append(f"{name} calls differ between traced passes: {sorted(seen)}")
    if len({json.dumps(o.counts, sort_keys=True) for o in outcomes}) > 1:
        notes.append("per-pass counts differ between traced passes")
    counts = outcomes[0].counts
    if counts.get("cells"):
        # is_bad re-solves at mT +- delta 2^-n, n < 5, only when M* has two elements
        solves = totals[0].get("trajectory.minimize_action_open_start", [0])[0]
        expected = counts["cells"] + 10 * counts["two_minimizer_cells"]
        notes.append(f"open-start solves per pass {solves}; 1 per cell plus 10 per "
                     f"two-minimizer cell predicts {expected} ({counts['cells']} cells, "
                     f"{counts['two_minimizer_cells']} with two minimizers)")
    return notes


def setup_probe(workload, seed, size):
    """Seconds one cold set-up takes, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload.name,
         "--seed", str(seed), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(workload, seed, seconds, trace, size="full"):
    """Set up, run timed passes, and return the full result record."""
    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    setup_times = [setup_probe(workload, seed, size) for _ in range(SETUP_REPEATS)]
    try:
        (workdir / "inputs").mkdir(parents=True)
        mods = load_spinldp()
        inputs = workload.build(mods, seed, size, str(workdir / "inputs"))
        env = environment(mods)
        print(f"spinldp benchmark: workload={workload.name} seed={seed} trace={trace} "
              f"size={size}")
        print("environment: " + json.dumps(env, sort_keys=True))

        passes, outcomes, tracers = [], [], []
        first_fingerprint = None
        t_start = time.perf_counter()
        while True:
            k = len(passes)
            traced = bool(trace) and k % 2 == 1
            tracer = Tracer() if traced else NullTracer()
            outdir = str(workdir / f"pass{k}")
            t0 = time.perf_counter()
            if traced:
                with instrument(mods, tracer):
                    outcome = workload.run_pass(mods, inputs, outdir, tracer)
            else:
                outcome = workload.run_pass(mods, inputs, outdir, tracer)
            wall = time.perf_counter() - t0
            shutil.rmtree(outdir, ignore_errors=True)
            if outcome.fingerprint is not None:
                if first_fingerprint is None:
                    first_fingerprint = outcome.fingerprint
                else:
                    outcome.check(outcome.fingerprint == first_fingerprint,
                                  f"pass {k + 1} outputs differ from pass 1 byte for byte")
            if traced:
                tracers.append(tracer)
                outcomes.append(outcome)
            passes.append({"traced": traced, "wall_s": wall, "items": outcome.items,
                           "attempted": outcome.attempted, "failed": outcome.failed,
                           "failures": outcome.failures})
            print(f"pass {k + 1} ({'traced' if traced else 'untraced'}): {wall:.3f} s, "
                  f"{outcome.items} {workload.item_unit}, "
                  f"{outcome.failed}/{outcome.attempted} checks failed")
            for what in outcome.failures:
                print(f"  FAILED: {what}")
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and \
                    elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        metrics = per_layer_metrics(tracers, outcomes,
                                    [p["wall_s"] for p in passes if p["traced"]],
                                    [p["wall_s"] for p in untraced])
        notes = trace_notes(tracers, outcomes)
    else:
        metrics = end_to_end_metrics(setup_times, untraced)
        notes = []
    record = {
        "workload": workload.name, "seed": seed, "trace": trace, "size": size,
        "environment": env, "setup_s_samples": setup_times, "passes": passes,
        "failed_frac": failed / attempted,
        "notes": notes,
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    if tracers:
        record["spans_file"] = str(write_json(
            OUT / f"spans-{workload.name}-seed{seed}.json",
            {"workload": workload.name, "seed": seed,
             "passes": [t.dump() for t in tracers]}).relative_to(ROOT))
    return record


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")
    return path


def report(record):
    width = max(len(k) for k in record["result"]["metrics"])
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<{width}}  {record['failed_frac']:.6g}")
    for note in record["notes"]:
        print(f"  note: {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (required)")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                        help="measure for about this long (at least two passes); "
                             "default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke-test size")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this process, print its seconds and run no passes")
    args = parser.parse_args(argv)

    if not (SRC / "spinldp" / "__init__.py").is_file():
        print(f"error: no spinldp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.setup_probe:
        workdir = OUT / "work" / f"probe-{args.workload}-{os.getpid()}"
        try:
            workdir.mkdir(parents=True)
            WORKLOADS[args.workload].build(load_spinldp(), args.seed, args.size, str(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(time.perf_counter() - T_START)
        return 0

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace, args.size)
    path = write_json(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                      record)
    report(record)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
