"""JSON-configured experiment commands.

Usage: spinldp <command> [config.json] [--seed S] [--workers W] [--out-dir D]

Every experiment is a single JSON document (archivable, diffable); flags
only override the seed, worker count, and output directory.  All outputs
are deterministic given the config: rerunning a command reproduces every
file byte for byte, at any worker count.

Exit codes: 0 success, 1 runtime error (the module error name is printed),
2 config validation failure (with a field diagnostic).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import badness as bd
from . import finite_jump as fj
from . import lattice as lat
from . import magnetization as mag
from . import poisson_walk as pw
from . import trajectory as tr
from .errors import ConfigError, SpinLDPError
from .io_utils import write_csv, write_json
from .seeding import child_seed

COMMANDS = {}


def command(name):
    def deco(fn):
        COMMANDS[name] = fn
        return fn
    return deco


def _need(cfg, field, types, where=""):
    if field not in cfg:
        raise ConfigError(f"{where}{field}: required field missing")
    v = cfg[field]
    # JSON true/false load as bool, which isinstance counts as an int
    if isinstance(v, bool) or not isinstance(v, types):
        raise ConfigError(f"{where}{field}: expected {types}, got {type(v).__name__}")
    return v


def _finite(x) -> bool:
    """False for JSON's NaN, Infinity and 1e400, and for ints past float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _need_number(cfg, field, lo=None, hi=None, where=""):
    v = _need(cfg, field, (int, float), where)
    if not _finite(v):
        raise ConfigError(f"{where}{field}: must be a finite number, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where}{field}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where}{field}: must be <= {hi}, got {v}")
    return float(v)


def _number_or(cfg, field, default, lo=None, hi=None, where=""):
    """_need_number for an optional field: float(default) when it is absent."""
    if field not in cfg:
        return float(default)
    return _need_number(cfg, field, lo, hi, where)


def _need_int(cfg, field, lo=None, hi=None, where=""):
    """_need_number for a count: an integral value (3 or 3.0), returned as int."""
    v = _need_number(cfg, field, lo, hi, where)
    if not v.is_integer():
        raise ConfigError(f"{where}{field}: expected an integer, got {cfg[field]!r}")
    return int(v)


def _int_or(cfg, field, default, lo=None, hi=None, where=""):
    """_need_int for an optional field: default when it is absent."""
    if field not in cfg:
        return default
    return _need_int(cfg, field, lo, hi, where)


def _offset(x) -> int:
    """One lattice offset from the config: an integral number (3 or 3.0),
    never a bool; int() alone would truncate 0.5 to 0."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not _finite(x) or x != int(x):
        raise ConfigError(f"observables: expected lists of integer offsets, got {x!r}")
    return int(x)


def _need_seed(cfg):
    if "seed" not in cfg:
        raise ConfigError("seed: a master seed is mandatory for stochastic commands")
    seed = _need(cfg, "seed", (int,))
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    return seed


def _odd_side(v, where):
    """A torus side from the config: an odd integer >= 3 (side 2N+1)."""
    if not isinstance(v, (int, float)) or v < 3 or v % 2 != 1:
        raise ConfigError(f"{where}: must be an odd integer >= 3 (torus of side 2N+1), got {v!r}")
    return int(v)


def _grid(spec, where):
    """Either an explicit list or {start, stop, num[, log]}"""
    if isinstance(spec, list):
        bad = [x for x in spec
               if isinstance(x, bool) or not isinstance(x, (int, float)) or not _finite(x)]
        if bad:
            raise ConfigError(f"{where}: expected finite numbers, got {bad[0]!r}")
        return [float(x) for x in spec]
    if isinstance(spec, dict):
        start = _need_number(spec, "start", where=where + ".")
        stop = _need_number(spec, "stop", where=where + ".")
        num = _need_int(spec, "num", lo=1, where=where + ".")
        log = spec.get("log", False)
        if not isinstance(log, bool):
            raise ConfigError(f"{where}.log: expected true or false, got {log!r}")
        if log:
            if start <= 0 or stop <= 0:
                raise ConfigError(f"{where}: log grid needs positive endpoints")
            return list(np.logspace(math.log10(start), math.log10(stop), num))
        return list(np.linspace(start, stop, num))
    raise ConfigError(f"{where}: expected list or grid object")


def _rates_from_config(spec, where="rates"):
    kind = _need(spec, "kind", str, where + ".")
    if kind == "constant":
        dim = _need_int(spec, "dim", lo=1, hi=2, where=where + ".")
        return lat.LocalRateSpec.constant(
            _need_number(spec, "value", lo=1e-12, where=where + "."), dim,
            _int_or(spec, "radius", 0, lo=0, where=where + "."))
    if kind == "table":
        return lat.LocalRateSpec.from_dict(spec)
    if kind == "random":
        dim = _need_int(spec, "dim", lo=1, hi=2, where=where + ".")
        return lat.LocalRateSpec.random_table(
            dim, _need_int(spec, "radius", lo=0, where=where + "."),
            _need_int(spec, "seed", lo=0, where=where + "."),
            _number_or(spec, "lo", 0.2, lo=1e-12, where=where + "."),
            _number_or(spec, "hi", 5.0, lo=1e-12, where=where + "."))
    raise ConfigError(f"{where}.kind: unknown kind {kind!r}")


def _n_list(cfg, field="N_list"):
    n_list = _grid(_need(cfg, field, list), field)
    if not n_list or any(n < 1 or not n.is_integer() for n in n_list):
        raise ConfigError(f"{field}: need positive integers, got {cfg[field]!r}")
    return [int(n) for n in n_list]


def _sides(cfg, field):
    """Torus sides for the finite-size fit: odd, >= 3, at least two distinct."""
    sides = [_odd_side(s, field) for s in _need(cfg, field, list)]
    if len(set(sides)) < 2:
        raise ConfigError(f"{field}: the scaling fit needs at least two distinct sides, "
                          f"got {sides}")
    return sides


# verify's overrides of verification.DEFAULTS (all but the seed), each
# checked before any criterion runs.
_VERIFY_FIELDS = {
    "c2_samples": partial(_need_int, lo=1),
    "c3_N_list": _n_list,
    "c5_instances": partial(_need_int, lo=1),
    "c6_sides": _sides,
    "c7_models": partial(_need_int, lo=1),
    "c9_replicas": partial(_need_int, lo=2),  # a bootstrap SE needs two
    "c10_T_points": partial(_need_int, lo=2),  # the column needs a first and a last T
    "c10_scan_points": partial(_need_int, lo=1),
    "c11_replicas": partial(_need_int, lo=2),  # a standard error needs two
    "c11_side": lambda cfg, f: _odd_side(_need(cfg, f, (int, float)), f),
}


@command("pw-rate")
def cmd_pw_rate(cfg, out_dir, workers):
    b = _need_number(cfg, "b", lo=1e-12)
    d = _need_number(cfg, "d", lo=0.0)
    t = _need_number(cfg, "t", lo=1e-12)
    a = _need_number(cfg, "a")
    n_list = _n_list(cfg)
    params = pw.PoissonWalkParams(b, d, 1)
    rows = pw.pw_rate_convergence(params, n_list, t, a,
                                  csv_path=os.path.join(out_dir, "pw_rate.csv"))
    print(f"pw-rate: final gap {rows[-1]['gap']:+.6f} at N={rows[-1]['N']}")
    return 0


@command("mag-rate")
def cmd_mag_rate(cfg, out_dir, workers):
    seed = _need_seed(cfg)
    m0 = _need_number(cfg, "m0", lo=-1.0, hi=1.0)
    mT = _need_number(cfg, "mT", lo=-1.0, hi=1.0)
    T = _need_number(cfg, "T", lo=1e-9)
    steps = _int_or(cfg, "steps", 400, lo=1)
    # the oracle's integrality rule, before the minimization
    exact = []
    for n in _n_list(cfg):
        try:
            exact.append((n, -mag.mag_exact_log_prob(n, m0, T, mT) / n))
        except ValueError as exc:
            raise ConfigError(f"N_list: N={n} incompatible with the endpoints ({exc})") from exc
    model = mag.mag_model()
    problem = tr.ActionProblem(model, tr.FixedStart(m0), mT, T)
    _, action = tr.minimize_action_fixed(problem, steps=steps, seed=child_seed(seed, 0))
    rows = [[n, m0, T, mT, e, action, e - action] for n, e in exact]
    write_csv(os.path.join(out_dir, "mag_rate.csv"),
              ["N", "m0", "T", "mT", "exact_rate", "action", "gap"], rows)
    print(f"mag-rate: action {action:.6f}, final gap {rows[-1][-1]:+.6f}")
    return 0


@command("mag-bvp")
def cmd_mag_bvp(cfg, out_dir, workers):
    m0 = _need_number(cfg, "m0", lo=-1.0, hi=1.0)
    mT = _need_number(cfg, "mT", lo=-1.0, hi=1.0)
    T = _need_number(cfg, "T", lo=1e-9)
    steps = _int_or(cfg, "steps", 2000, lo=1)
    c1, c2, path = mag.mag_extremal(m0, mT, T)
    times = np.linspace(0.0, T, steps + 1)
    values = path(times)
    traj = tr.TrajectoryGrid(T=T, steps=steps, values=values)
    model = mag.mag_model()
    action = tr.action_integral(model, traj)
    resid = tr.euler_lagrange_residual(model, traj)
    write_csv(os.path.join(out_dir, "mag_bvp.csv"), ["t", "value"],
              [[float(t), float(v)] for t, v in zip(times, values)])
    write_json(os.path.join(out_dir, "mag_bvp.json"),
               {"C1": c1, "C2": c2, "action": action, "el_residual": resid})
    print(f"mag-bvp: C1={c1:.7f} C2={c2:.7f} action={action:.6f} el_residual={resid:.2e}")
    return 0


def _float_array(cfg, field):
    try:
        arr = np.array(_need(cfg, field, list), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: expected a numeric array ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{field}: every entry must be finite")
    return arr


@command("fd-lagrangian")
def cmd_fd_lagrangian(cfg, out_dir, workers):
    D, c, mu, alpha = (_float_array(cfg, f) for f in ("D", "c", "mu", "alpha"))
    try:
        model = fj.JumpModel(D, c, mu)
    except ValueError as exc:
        raise ConfigError(f"D/c/mu: {exc}") from exc
    out = {"C_mu": model.C_mu}
    try:
        out["variational"] = fj.fj_lagrangian_variational(model, alpha)
    except SpinLDPError as exc:
        out["variational"] = {"error": type(exc).__name__}
    try:
        value, nu = fj.fj_lagrangian_dual(model, alpha)
        out["dual"] = {"value": value, "nu": [float(x) for x in nu]}
    except SpinLDPError as exc:
        out["dual"] = {"error": type(exc).__name__}
    try:
        out["mass_constrained_closed_form"] = fj.fj_paper_closed_form(model, alpha)
    except SpinLDPError as exc:
        out["mass_constrained_closed_form"] = {"error": type(exc).__name__}
    write_json(os.path.join(out_dir, "fd_lagrangian.json"), out)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


@command("scan-bad")
def cmd_scan_bad(cfg, out_dir, workers):
    seed = _need_seed(cfg)
    rf = _need(cfg, "rate_function", dict)
    kind = _need(rf, "kind", str, "rate_function.")
    params = tuple(_need(rf, "params", list, "rate_function."))
    try:
        bd.rate_function_from_descriptor(kind, params)
    except ValueError as exc:
        raise ConfigError(f"rate_function: {exc}") from exc
    T_grid = _grid(_need(cfg, "T_grid", (list, dict)), "T_grid")
    if not all(T > 0 for T in T_grid):
        raise ConfigError(f"T_grid: every horizon must be > 0, got {T_grid}")
    mT_grid = _grid(_need(cfg, "mT_grid", (list, dict)), "mT_grid")
    if not all(-1.0 <= m <= 1.0 for m in mT_grid):
        raise ConfigError(f"mT_grid: every endpoint must lie in [-1, 1], got {mT_grid}")
    solver = _need(cfg, "solver", dict) if "solver" in cfg else {}
    default = bd.SolverOpts()
    opts = bd.SolverOpts(
        dt_target=_number_or(solver, "dt_target", default.dt_target, lo=1e-12, where="solver."),
        min_steps=_int_or(solver, "min_steps", default.min_steps, lo=1, where="solver."),
        max_iter=_int_or(solver, "max_iter", default.max_iter, lo=1, where="solver."),
        gtol=_number_or(solver, "gtol", default.gtol, lo=0.0, where="solver."),
    )
    result = bd.badness_scan(
        kind, params, T_grid, mT_grid,
        epsilon=_number_or(cfg, "epsilon", 0.1, lo=0.0),
        delta=_number_or(cfg, "delta", 0.05, lo=1e-12),
        opts=opts, master_seed=seed, workers=workers,
        csv_path=os.path.join(out_dir, "scan_bad.csv"),
    )
    print(f"scan-bad: {result.bad_count()} bad cells of {len(result.cells)}")
    return 0


@command("lattice-sim")
def cmd_lattice_sim(cfg, out_dir, workers):
    seed = _need_seed(cfg)
    dim = _need_int(cfg, "dim", lo=1, hi=2)
    side = _odd_side(_need(cfg, "side", (int, float)), "side")
    rates = _rates_from_config(_need(cfg, "rates", dict))
    times = sorted(_grid(_need(cfg, "times", (list, dict)), "times"))
    if not times or times[0] < 0:
        raise ConfigError(f"times: need at least one checkpoint, all >= 0, got {times}")
    replicas = _need_int(cfg, "replicas", lo=1)
    obs = _need(cfg, "observables", list)
    try:
        obs_offsets = [[tuple(_offset(x) for x in o) for o in A] for A in obs]
    except TypeError as exc:
        raise ConfigError(f"observables: expected lists of integer offsets ({exc})") from exc
    arr = lat.moment_series(dim, side, rates, times, obs_offsets,
                            replicas=replicas, master_seed=seed, workers=workers)
    rows = []
    for ti, t in enumerate(times):
        for oi, offsets in enumerate(obs_offsets):
            vals = arr[:, ti, oi]
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append([t, json.dumps([list(o) for o in offsets]),
                         float(np.mean(vals)), se, len(vals)])
    write_csv(os.path.join(out_dir, "lattice_moments.csv"),
              ["t", "observable", "mean", "se", "replicas"], rows)
    config = lat.SpinConfiguration.all_plus(dim, side)
    final, log = lat.glauber_simulate(config, rates, times[-1], child_seed(seed, 0))
    with open(os.path.join(out_dir, "lattice_final.txt"), "w") as fh:
        fh.write(final.to_text())
    write_csv(os.path.join(out_dir, "lattice_events.csv"), ["t", "site"],
              [[float(t), int(s)] for t, s in zip(log.times, log.sites)])
    print(f"lattice-sim: {replicas} replicas, {len(times)} checkpoint times, "
          f"{len(log.times)} events in the snapshot run")
    return 0


@command("lattice-check")
def cmd_lattice_check(cfg, out_dir, workers):
    seed = _need_seed(cfg)
    from .verification import criterion_5, criterion_6, DEFAULTS

    merged = dict(DEFAULTS)
    merged["seed"] = seed
    if "instances" in cfg:
        merged["c5_instances"] = _need_int(cfg, "instances", lo=1)
    if "sides" in cfg:
        merged["c6_sides"] = _sides(cfg, "sides")
    r5 = criterion_5(merged)
    r6 = criterion_6(merged)
    out = {
        "identity": {"passed": r5.passed, "detail": r5.detail},
        "finite_size_scaling": {"passed": r6.passed, "detail": r6.detail},
    }
    write_json(os.path.join(out_dir, "lattice_check.json"), out)
    print(f"lattice-check: identity {'PASS' if r5.passed else 'FAIL'}; "
          f"scaling {'PASS' if r6.passed else 'FAIL'}")
    return 0 if (r5.passed and r6.passed) else 1


@command("verify")
def cmd_verify(cfg, out_dir, workers):
    from .verification import CRITERIA, DEFAULTS, run_criteria

    seed = _need_seed(cfg) if "seed" in cfg else DEFAULTS["seed"]
    merged = {k: check(cfg, k) for k, check in _VERIFY_FIELDS.items() if k in cfg}
    merged["seed"] = seed
    indices = cfg.get("criteria")
    if indices is not None:
        indices = _need(cfg, "criteria", list)
        bad = [i for i in indices if type(i) is not int or i not in CRITERIA]
        if bad:
            raise ConfigError(f"criteria: unknown indices {bad} (valid {sorted(CRITERIA)})")
    results = run_criteria(indices, merged, workers=workers)
    write_csv(os.path.join(out_dir, "verify_summary.csv"),
              ["index", "name", "passed", "detail"],
              [[r.index, r.name, int(r.passed), r.detail] for r in results])
    n_fail = sum(1 for r in results if not r.passed)
    print(f"verify: {len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinldp",
        description="Spin-flip trajectory large-deviation experiments",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", nargs="?", help="JSON config path (verify may omit it)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
            if not isinstance(cfg, dict):
                raise ConfigError("top level: expected a JSON object")
        elif args.command == "verify":
            cfg = {}
        else:
            raise ConfigError("config: a JSON config file is required")
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = args.out_dir or cfg.get("out_dir", "out")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError(f"out_dir: expected a non-empty path string, got {out_dir!r}")
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinLDPError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
