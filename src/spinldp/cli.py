"""JSON-configured experiment commands.

Usage: spinldp <command> [config.json] [--seed S] [--workers W] [--out-dir D]

Every experiment is a single JSON document (archivable, diffable); flags
only override the seed, worker count, and output directory.  All outputs
are deterministic given the config: rerunning a command reproduces every
file byte for byte, at any worker count.

Each command's fields, kinds, ranges and defaults are declared once, in its
table FIELDS[name]; an unknown key or a bad value exits 2 before any output
is written.  The library modules return values: every output file is
written here, every config is parsed here, and every line is printed here.
`verify` is the one acceptance runner: it runs the criteria a config names
(the generator identity suite is configs/lattice_check.json, criteria 5
and 6) and prints each verdict as it finishes.

Exit codes: 0 success, 1 runtime error (the module error name is printed),
2 config validation failure (with a field diagnostic).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import badness as bd
from . import finite_jump as fj
from . import lattice as lat
from . import magnetization as mag
from . import poisson_walk as pw
from . import trajectory as tr
from . import verification as vf
from .errors import ConfigError, SpinLDPError
from .io_utils import write_csv, write_json
from .seeding import child_seed

COMMANDS = {}
REQUIRED = object()  # the default of a field every config must give


def command(name):
    """Register fn as `spinldp name`: walk the config through FIELDS[name], then
    call fn with the typed values.  The writers make the output directory."""
    def deco(fn):
        def run(cfg, out_dir, workers):
            values = _fields(cfg, FIELDS[name], "")
            config_out_dir = values.pop("out_dir")
            return fn(values, out_dir or config_out_dir, workers)
        COMMANDS[name] = run
        return fn
    return deco


def _fields(cfg, table, where):
    """cfg's fields, each parsed by its (kind, default) entry in table: an
    unknown key or a missing REQUIRED field is rejected, and an absent field
    gets kind(default), or None for a None default.  A table in the kind
    slot is a nested object, walked the same way."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where[:-1] or 'top level'}: expected an object, got {type(cfg).__name__}")
    unknown = [key for key in cfg if key not in table]
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}: unknown field (known: {', '.join(sorted(table))})")
    out = dict.fromkeys(table)
    for field, (kind, default) in table.items():
        if field not in cfg and default is REQUIRED:
            raise ConfigError(f"{where}{field}: required field missing")
        if field in cfg or default is not None:
            value = cfg.get(field, default)
            out[field] = (_fields(value, kind, f"{where}{field}.") if isinstance(kind, dict)
                          else kind(value, where + field))
    return out


def _finite(x) -> bool:
    """False for JSON's NaN, Infinity and 1e400, and for ints past float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(lo=None, hi=None, count=False):
    """Kind of a finite number in [lo, hi], parsed as float; a count is
    integral (3 or 3.0) and parsed as int."""
    def parse(v, where):
        # JSON true/false load as bool, which isinstance counts as an int
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {type(v).__name__}")
        if not _finite(v):
            raise ConfigError(f"{where}: must be a finite number, got {v!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{where}: must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            raise ConfigError(f"{where}: must be <= {hi}, got {v}")
        if count and v != int(v):
            raise ConfigError(f"{where}: expected an integer, got {v!r}")
        return int(v) if count else float(v)
    return parse


_COUNT = _number(lo=1, count=True)
_DIM = _number(lo=1, hi=2, count=True)
_MAGNETIZATION = _number(lo=-1.0, hi=1.0)


def _typed(json_type, name):
    """Kind of a JSON value of one type, passed through unchanged."""
    def parse(v, where):
        if not isinstance(v, json_type):
            raise ConfigError(f"{where}: expected {name}, got {type(v).__name__}")
        return v
    return parse


_list, _object = _typed(list, "a list"), _typed(dict, "a JSON object")
_text, _flag = _typed(str, "a string"), _typed(bool, "true or false")


def _path(v, where):
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where}: expected a non-empty path string, got {v!r}")
    return v


def _seed(v, where):
    """Kind of a master seed: a JSON integer >= 0 (SeedSequence entropy)."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    if v < 0:
        raise ConfigError(f"{where}: must be >= 0, got {v}")
    return v


def _odd_side(v, where):
    """A torus side from the config: an odd integer >= 3 (side 2N+1)."""
    if not isinstance(v, (int, float)) or v < 3 or v % 2 != 1:
        raise ConfigError(f"{where}: must be an odd integer >= 3 (torus of side 2N+1), got {v!r}")
    return int(v)


_GRID = {"start": (_number(), REQUIRED), "stop": (_number(), REQUIRED),
         "num": (_COUNT, REQUIRED), "log": (_flag, False)}


def _grid(spec, where):
    """Either a non-empty explicit list or {start, stop, num[, log]}"""
    if isinstance(spec, list):
        bad = [x for x in spec
               if isinstance(x, bool) or not isinstance(x, (int, float)) or not _finite(x)]
        if bad:
            raise ConfigError(f"{where}: expected finite numbers, got {bad[0]!r}")
        if not spec:
            raise ConfigError(f"{where}: expected at least one value, got []")
        return [float(x) for x in spec]
    if isinstance(spec, dict):
        g = _fields(spec, _GRID, where + ".")
        if g["log"]:
            if g["start"] <= 0 or g["stop"] <= 0:
                raise ConfigError(f"{where}: log grid needs positive endpoints")
            return list(np.logspace(math.log10(g["start"]), math.log10(g["stop"]), g["num"]))
        return list(np.linspace(g["start"], g["stop"], g["num"]))
    raise ConfigError(f"{where}: expected list or grid object")


def _n_list(v, where):
    n_list = _grid(_list(v, where), where)
    if any(n < 1 or not n.is_integer() for n in n_list):
        raise ConfigError(f"{where}: need positive integers, got {v!r}")
    return [int(n) for n in n_list]


def _sides(v, where):
    """Torus sides for the finite-size fit: odd, >= 3, at least two distinct."""
    sides = [_odd_side(s, where) for s in _list(v, where)]
    if len(set(sides)) < 2:
        raise ConfigError(f"{where}: the scaling fit needs at least two distinct sides, "
                          f"got {sides}")
    return sides


def _float_array(v, where):
    def leaves(x):
        for y in x:
            yield from leaves(y) if isinstance(y, list) else (y,)

    # np.array(..., dtype=float) would run "2.0" as 2.0 and true as 1.0
    bad = [x for x in leaves(_list(v, where))
           if isinstance(x, bool) or not isinstance(x, (int, float))]
    if bad:
        raise ConfigError(f"{where}: expected a numeric array, got {bad[0]!r}")
    try:
        arr = np.array(v, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected a numeric array ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: every entry must be finite")
    return arr


def _offset(x, where) -> int:
    """One lattice offset from the config: an integral number (3 or 3.0),
    never a bool; int() alone would truncate 0.5 to 0."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not _finite(x) or x != int(x):
        raise ConfigError(f"{where}: expected lists of integer offsets, got {x!r}")
    return int(x)


def _observables(v, where):
    try:
        return [[tuple(_offset(x, where) for x in o) for o in A] for A in _list(v, where)]
    except TypeError as exc:
        raise ConfigError(f"{where}: expected lists of integer offsets ({exc})") from exc


# lattice-sim's rates: one table per kind
_RADIUS = _number(lo=0, count=True)
_MAX_WINDOW = 20  # sites: a 2^20-rate, 8 MB table (radius <= 9 in 1-d, <= 1 in 2-d)
_RATES = {
    "constant": {"kind": (_text, REQUIRED), "dim": (_DIM, REQUIRED),
                 "value": (_number(lo=1e-12), REQUIRED), "radius": (_RADIUS, 0)},
    "table": {"kind": (_text, REQUIRED), "dim": (_DIM, REQUIRED),
              "radius": (_RADIUS, REQUIRED), "rates": (_object, REQUIRED)},
    "random": {"kind": (_text, REQUIRED), "dim": (_DIM, REQUIRED),
               "radius": (_RADIUS, REQUIRED), "seed": (_number(lo=0, count=True), REQUIRED),
               "lo": (_number(lo=1e-12), 0.2), "hi": (_number(lo=1e-12), 5.0)},
}


def _rates(spec, where):
    """The LocalRateSpec of a rates object, walked by the table its kind
    selects; the table kind's rates give one finite rate per window pattern."""
    kind = _object(spec, where).get("kind")
    if not isinstance(kind, str) or kind not in _RATES:
        raise ConfigError(f"{where}.kind: expected one of {', '.join(_RATES)}, got {kind!r}")
    r = _fields(spec, _RATES[kind], where + ".")
    # every kind tabulates one rate per window pattern: 2^w of them
    w = (2 * r["radius"] + 1) ** r["dim"]
    if w > _MAX_WINDOW:
        raise ConfigError(f"{where}.radius: a window of (2*{r['radius']}+1)^{r['dim']} = {w} "
                          f"sites needs 2^{w} rates; at most {_MAX_WINDOW} sites")
    if kind == "constant":
        return lat.LocalRateSpec.constant(r["value"], r["dim"], r["radius"])
    if kind == "random":
        return lat.LocalRateSpec.random_table(r["dim"], r["radius"], r["seed"], r["lo"], r["hi"])
    table = np.full(2**w, np.nan)
    for pat, rate in r["rates"].items():
        if len(pat) != w or set(pat) - {"+", "-"}:
            raise ConfigError(f"{where}: pattern {pat!r} is not {w} characters of '+'/'-'")
        # float() would run JSON true as 1.0 and "2.5" as 2.5
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ConfigError(f"{where}: rate {rate!r} of pattern {pat!r} is not a number")
        # NaN marks a missing pattern in table, so a NaN rate is caught here
        if not _finite(rate):
            raise ConfigError(f"{where}: rate {rate!r} of pattern {pat!r} is not finite")
        table[sum(1 << k for k, ch in enumerate(pat) if ch == "+")] = rate
    missing = np.flatnonzero(np.isnan(table))
    if len(missing):
        pats = ["".join("+" if (c >> k) & 1 else "-" for k in range(w)) for c in missing[:4]]
        raise ConfigError(f"{where}: {len(missing)} of {len(table)} window patterns have no rate, "
                          f"e.g. {pats}")
    try:
        return lat.LocalRateSpec(r["dim"], r["radius"], table)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _criteria(v, where):
    """verify's criterion indices, each at most once, run in increasing order;
    [] runs them all."""
    bad = [i for i in _list(v, where) if type(i) is not int or i not in vf.CRITERIA]
    if bad:
        raise ConfigError(f"{where}: unknown indices {bad} (valid {sorted(vf.CRITERIA)})")
    if len(set(v)) < len(v):
        raise ConfigError(f"{where}: an index is repeated in {v}")
    return sorted(v or vf.CRITERIA)


# verify's sizes of the criteria, defaulting to verification.DEFAULTS
_TWO = _number(lo=2, count=True)  # a standard error, a first and a last T
_VERIFY_FIELDS = {f: (kind, vf.DEFAULTS[f]) for f, kind in {
    "c2_samples": _COUNT, "c3_N_list": _n_list, "c5_instances": _COUNT, "c6_sides": _sides,
    "c7_models": _COUNT, "c9_replicas": _TWO, "c10_T_points": _TWO, "c10_scan_points": _COUNT,
    "c11_replicas": _TWO, "c11_side": _odd_side,
}.items()}
_OUT_DIR = (_path, "out")

# Each command's fields {field: (kind, default)}; a None default leaves the
# value to the command.  --seed writes seed into any config, so every
# command declares it.
FIELDS = {
    "pw-rate": {"b": (_number(lo=1e-12), REQUIRED), "d": (_number(lo=0.0), REQUIRED),
                "t": (_number(lo=1e-12), REQUIRED), "a": (_number(), REQUIRED),
                "N_list": (_n_list, REQUIRED), "seed": (_seed, None), "out_dir": _OUT_DIR},
    "mag-rate": {"seed": (_seed, REQUIRED), "m0": (_MAGNETIZATION, REQUIRED),
                 "mT": (_MAGNETIZATION, REQUIRED), "T": (_number(lo=1e-9), REQUIRED),
                 "steps": (_COUNT, 400), "N_list": (_n_list, REQUIRED), "out_dir": _OUT_DIR},
    "mag-bvp": {"m0": (_MAGNETIZATION, REQUIRED), "mT": (_MAGNETIZATION, REQUIRED),
                "T": (_number(lo=1e-9), REQUIRED), "steps": (_COUNT, 2000),
                "seed": (_seed, None), "out_dir": _OUT_DIR},
    "fd-lagrangian": {"D": (_float_array, REQUIRED), "c": (_float_array, REQUIRED),
                      "mu": (_float_array, REQUIRED), "alpha": (_float_array, REQUIRED),
                      "seed": (_seed, None), "out_dir": _OUT_DIR},
    "scan-bad": {
        "seed": (_seed, REQUIRED), "out_dir": _OUT_DIR,
        "rate_function": ({"kind": (_text, REQUIRED), "params": (_list, REQUIRED)}, REQUIRED),
        "T_grid": (_grid, REQUIRED), "mT_grid": (_grid, REQUIRED),
        "solver": ({"dt_target": (_number(lo=1e-12), bd.SolverOpts.dt_target),
                    "min_steps": (_COUNT, bd.SolverOpts.min_steps),
                    "max_iter": (_COUNT, bd.SolverOpts.max_iter),
                    "gtol": (_number(lo=0.0), bd.SolverOpts.gtol)}, {}),
        "epsilon": (_number(lo=0.0), 0.1), "delta": (_number(lo=1e-12), 0.05)},
    "lattice-sim": {"seed": (_seed, REQUIRED), "dim": (_DIM, REQUIRED),
                    "side": (_odd_side, REQUIRED), "rates": (_rates, REQUIRED),
                    "times": (_grid, REQUIRED), "replicas": (_COUNT, REQUIRED),
                    "observables": (_observables, REQUIRED), "out_dir": _OUT_DIR},
    "verify": {"seed": (_seed, vf.DEFAULTS["seed"]), "criteria": (_criteria, []),
               **_VERIFY_FIELDS, "out_dir": _OUT_DIR},
}


@command("pw-rate")
def cmd_pw_rate(v, out_dir, workers):
    params = pw.PoissonWalkParams(v["b"], v["d"], 1)
    rows = pw.pw_rate_convergence(params, v["N_list"], v["t"], v["a"])
    columns = ["N", "t", "a", "empirical_rate", "analytic_rate", "gap"]
    write_csv(os.path.join(out_dir, "pw_rate.csv"), columns,
              [[r[c] for c in columns] for r in rows])
    print(f"pw-rate: final gap {rows[-1]['gap']:+.6f} at N={rows[-1]['N']}")
    return 0


@command("mag-rate")
def cmd_mag_rate(v, out_dir, workers):
    m0, mT, T = v["m0"], v["mT"], v["T"]
    # the oracle's integrality rule, before the minimization
    exact = []
    for n in v["N_list"]:
        try:
            exact.append((n, -mag.mag_exact_log_prob(n, m0, T, mT) / n))
        except ValueError as exc:
            raise ConfigError(f"N_list: N={n} incompatible with the endpoints ({exc})") from exc
    model = mag.mag_model()
    problem = tr.ActionProblem(model, tr.FixedStart(m0), mT, T)
    _, action = tr.minimize_action_fixed(problem, steps=v["steps"], seed=child_seed(v["seed"], 0))
    rows = [[n, m0, T, mT, e, action, e - action] for n, e in exact]
    write_csv(os.path.join(out_dir, "mag_rate.csv"),
              ["N", "m0", "T", "mT", "exact_rate", "action", "gap"], rows)
    print(f"mag-rate: action {action:.6f}, final gap {rows[-1][-1]:+.6f}")
    return 0


@command("mag-bvp")
def cmd_mag_bvp(v, out_dir, workers):
    T, steps = v["T"], v["steps"]
    c1, c2, path = mag.mag_extremal(v["m0"], v["mT"], T)
    times = np.linspace(0.0, T, steps + 1)
    values = path(times)
    traj = tr.TrajectoryGrid(T=T, steps=steps, values=values)
    model = mag.mag_model()
    action = tr.action_integral(model, traj)
    resid = tr.euler_lagrange_residual(model, traj)
    write_csv(os.path.join(out_dir, "mag_bvp.csv"), ["t", "value"],
              [[float(t), float(m)] for t, m in zip(times, values)])
    write_json(os.path.join(out_dir, "mag_bvp.json"),
               {"C1": c1, "C2": c2, "action": action, "el_residual": resid})
    print(f"mag-bvp: C1={c1:.7f} C2={c2:.7f} action={action:.6f} el_residual={resid:.2e}")
    return 0


@command("fd-lagrangian")
def cmd_fd_lagrangian(v, out_dir, workers):
    try:
        model = fj.JumpModel(v["D"], v["c"], v["mu"])
    except ValueError as exc:
        raise ConfigError(f"D/c/mu: {exc}") from exc
    alpha = v["alpha"]
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
def cmd_scan_bad(v, out_dir, workers):
    kind, params = v["rate_function"]["kind"], tuple(v["rate_function"]["params"])
    try:
        bd.rate_function_from_descriptor(kind, params)
    except ValueError as exc:
        raise ConfigError(f"rate_function.{exc}") from exc  # exc names kind or params
    T_grid, mT_grid = v["T_grid"], v["mT_grid"]
    if not all(T > 0 for T in T_grid):
        raise ConfigError(f"T_grid: every horizon must be > 0, got {T_grid}")
    if not all(abs(m) + v["delta"] <= 1.0 for m in mT_grid):
        raise ConfigError(f"mT_grid: every |mT| + delta must be <= 1, so that is_bad's endpoints "
                          f"lie in [-1, 1]; got {mT_grid} with delta {v['delta']}")
    cells = bd.badness_scan(
        kind, params, T_grid, mT_grid, epsilon=v["epsilon"], delta=v["delta"],
        opts=bd.SolverOpts(**v["solver"]), master_seed=v["seed"], workers=workers,
    )
    write_csv(os.path.join(out_dir, "scan_bad.csv"),
              ["T", "mT", "n_minimizers", "gamma0_list", "cost", "bad", "label",
               "d_nature", "d_nurture", "error"],
              [[c.T, c.mT, c.n_minimizers, c.gamma0_list, c.cost, int(c.bad), c.label,
                c.d_nature, c.d_nurture, c.error] for c in cells])
    print(f"scan-bad: {sum(c.bad for c in cells)} bad cells of {len(cells)}")
    return 0


@command("lattice-sim")
def cmd_lattice_sim(v, out_dir, workers):
    seed, dim, side, rates, replicas = v["seed"], v["dim"], v["side"], v["rates"], v["replicas"]
    if rates.dim != dim:
        raise ConfigError(f"rates.dim: {rates.dim} differs from the lattice's dim {dim}")
    times = sorted(v["times"])
    if times[0] < 0:
        raise ConfigError(f"times: every checkpoint must be >= 0, got {times}")
    arr = lat.moment_series(dim, side, rates, times, v["observables"],
                            replicas=replicas, master_seed=seed, workers=workers)
    rows = []
    for ti, t in enumerate(times):
        for oi, offsets in enumerate(v["observables"]):
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


@command("verify")
def cmd_verify(v, out_dir, workers):
    results = []
    for index in v.pop("criteria"):
        results.append(vf.CRITERIA[index](v, workers=workers))
        print(results[-1].line())
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
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        return COMMANDS[args.command](cfg, args.out_dir, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinLDPError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
