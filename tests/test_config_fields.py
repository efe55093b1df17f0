"""Every config is read through its command's field table in cli.FIELDS.

A wrong type, a non-finite number, an out-of-range value or an unknown key
exits 2, names the field, and leaves no output directory.  The cases are
generated from the tables: a new field is tested here with no edit, and a
new nested table only needs a base config that reaches it
(test_bases_reach_every_table says which).
"""

import copy
import inspect
import json
import math

import pytest

from spinldp import cli
from spinldp.errors import ConfigError
from test_settable_surface import config_tables, kind_tables

LATTICE = {"seed": 3, "dim": 1, "side": 21, "times": [0.5], "replicas": 2,
           "observables": [[[0]]]}
TABLE_RATES = {"kind": "table", "dim": 1, "radius": 0, "rates": {"+": 1.0, "-": 2.0}}
SCAN = {"seed": 1, "rate_function": {"kind": "bernoulli", "params": [0.5]},
        "T_grid": {"start": 0.1, "stop": 1.0, "num": 2}, "mT_grid": [0.0]}

FD = {"D": [[-2.0, 2.0], [2.0, -2.0]], "c": [1.0, 1.0], "mu": [0.75, 0.25], "alpha": [0.0, 0.0]}

# one valid config per command, and one per table a field's value selects
BASES = {
    "pw-rate": [{"b": 2.0, "d": 1.0, "t": 1.0, "a": 1.0, "N_list": [50, 100]}],
    "mag-rate": [{"seed": 7, "m0": 0.5, "mT": 0.0, "T": 0.5, "N_list": [200]}],
    "mag-bvp": [{"m0": 0.5, "mT": 0.0, "T": 1.0}],
    "fd-lagrangian": [FD],
    "scan-bad": [SCAN],
    "lattice-sim": [
        {**LATTICE, "rates": {"kind": "constant", "dim": 1, "value": 1.0}},
        {**LATTICE, "rates": TABLE_RATES},
        {**LATTICE, "rates": {"kind": "random", "dim": 1, "radius": 1, "seed": 2}},
    ],
    "verify": [{"seed": 1, "criteria": [2], "c2_samples": 10, "c3_N_list": [50, 100],
                "c5_instances": 2, "c6_sides": [11, 21], "c7_models": 2, "c9_replicas": 10,
                "c10_T_points": 2, "c10_scan_points": 1, "c11_replicas": 2, "c11_side": 21}],
}


def _tables_in(cfg, table, path):
    """(path, table, cfg) for table and every nested table cfg reaches."""
    yield path, table, cfg
    for field, (kind, _) in table.items():
        if isinstance(kind, dict):
            yield from _tables_in(cfg.get(field, {}), kind, path + (field,))
        elif isinstance(cfg.get(field), dict):
            for nested in kind_tables(kind):
                if set(cfg[field]) <= set(nested):
                    yield from _tables_in(cfg[field], nested, path + (field,))


def _with(cfg, path, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return out


def _bounds(kind):
    """(lo, hi) of a cli._number kind, None for any other kind."""
    if getattr(kind, "__qualname__", "").startswith("_number."):
        refs = inspect.getclosurevars(kind).nonlocals
        return refs["lo"], refs["hi"]
    return None


def _poisoned(value):
    """value (a list) with its first number replaced by NaN; None if it has none."""
    for i, x in enumerate(value):
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return value[:i] + [math.nan] + value[i + 1:]
        if isinstance(x, list) and _poisoned(x) is not None:
            return value[:i] + [_poisoned(x)] + value[i + 1:]
    return None


def _bad_values(kind, valid):
    if isinstance(kind, dict):
        yield "x"
        return
    try:
        kind("x", "probe")
        yield 7  # a string kind
    except ConfigError:
        yield "x"
    bounds = _bounds(kind)
    if bounds is not None or (isinstance(valid, (int, float)) and not isinstance(valid, bool)):
        yield from (math.nan, math.inf, -math.inf)
    elif isinstance(valid, list) and _poisoned(valid) is not None:
        yield _poisoned(valid)
    if bounds is not None:
        lo, hi = bounds
        if lo is not None:
            yield lo - 1
        if hi is not None:
            yield hi + 1


def _misspelt(table):
    return next(f[:-2] + f[-1] + f[-2] for f in sorted(table)
                if len(f) > 2 and f[:-2] + f[-1] + f[-2] not in table)


def _cases():
    for command, bases in BASES.items():
        for base in bases:
            for path, table, sub in _tables_in(base, cli.FIELDS[command], ()):
                typo = path + (_misspelt(table),)
                yield command, _with(base, typo, 1), ".".join(typo)
                for field, (kind, _) in table.items():
                    for bad in _bad_values(kind, sub.get(field)):
                        yield command, _with(base, path + (field,), bad), ".".join(path + (field,))


CASES = list(_cases())

# Case ids are numbered in order.  Numbers 289-301 belonged to the cases of the
# deleted lattice-check command, which came just before verify's; verify's cases
# skip them so that each keeps the id it had.
RETIRED_IDS = 13
CASE_IDS = [f"{c}-{f}-{i + RETIRED_IDS * (c == 'verify')}" for i, (c, _, f) in enumerate(CASES)]


def _run(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main([command, str(path), "--out-dir", str(out)])
    return code, capsys.readouterr().err, out.exists()


@pytest.mark.parametrize("command, bases", sorted(BASES.items()))
def test_bases_are_valid(command, bases):
    for base in bases:
        cli._fields(base, cli.FIELDS[command], "")


def test_bases_reach_every_table():
    reached = {id(table) for command, bases in BASES.items() for base in bases
               for _, table, _ in _tables_in(base, cli.FIELDS[command], ())}
    missed = [sorted(t) for t in config_tables() if id(t) not in reached]
    assert not missed, f"no base config reaches the tables with fields {missed}"


@pytest.mark.parametrize("command, cfg, field", CASES, ids=CASE_IDS)
def test_every_declared_field_rejects_a_bad_value(tmp_path, capsys, command, cfg, field):
    code, err, made_out_dir = _run(tmp_path, capsys, command, cfg)
    assert code == 2
    assert f"{field}:" in err
    assert not made_out_dir


# Each ran with a default, or crashed, before every config was walked
# through its field table.
@pytest.mark.parametrize("command, cfg, named", [
    # misspelt keys
    ("scan-bad", {**SCAN, "epsilom": 0.3}, "epsilom:"),
    ("scan-bad", {**SCAN, "solver": {"max_iters": 3}}, "solver.max_iters:"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "bernoulli", "params": [0.5], "parms": [0.3]}},
     "rate_function.parms:"),
    ("verify", {"seed": 1, "criteria": [2], "c2_samples": 10, "c5_instance": 3}, "c5_instance:"),
    ("verify", {"seed": 5, "criteria": [5, 6], "c5_instances": 2, "c6_side": [11, 21]},
     "c6_side:"),
    ("mag-bvp", {"m0": 0.5, "mT": 0.0, "T": 1.0, "step": 200}, "step:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "random", "dim": 1, "radius": 1, "seed": 2,
                                          "low": 0.5}}, "rates.low:"),
    # a rate table of another dimension than the lattice's
    ("lattice-sim", {**LATTICE, "rates": {"kind": "constant", "dim": 2, "value": 1.0}}, "rates.dim:"),
    ("lattice-sim", {**LATTICE, "dim": 2, "side": 5,
                     "rates": {"kind": "constant", "dim": 1, "value": 1.0}}, "rates.dim:"),
    # the table kind's counts and rates are parsed, not coerced
    ("lattice-sim", {**LATTICE, "rates": {**TABLE_RATES, "dim": 1.7}}, "rates.dim:"),
    ("lattice-sim", {**LATTICE, "rates": {**TABLE_RATES, "radius": True, "rates": {
        a + b + c: 1.0 for a in "+-" for b in "+-" for c in "+-"}}}, "rates.radius:"),
    ("lattice-sim", {**LATTICE, "rates": {**TABLE_RATES, "rates": {"+": True, "-": 2.0}}},
     "pattern '+'"),
    ("lattice-sim", {**LATTICE, "rates": {**TABLE_RATES, "rates": {"+": 1.0, "-": "2.5"}}},
     "pattern '-'"),
    # an empty grid list
    ("scan-bad", {**SCAN, "T_grid": []}, "T_grid:"),
    ("scan-bad", {**SCAN, "mT_grid": []}, "mT_grid:"),
    # numeric strings and bools in arrays and rate-function params are not coerced
    ("fd-lagrangian", {**FD, "D": [[-2.0, "2.0"], [2.0, -2.0]]}, "D:"),
    ("fd-lagrangian", {**FD, "c": [True, 1.0]}, "c:"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "bernoulli", "params": ["0.5"]}},
     "rate_function.params:"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "double_well", "params": ["1.5"]}},
     "rate_function.params:"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "tabulated",
                                            "params": [["-1.0", 0.0, 1.0], [1.0, 0.0, 1.0]]}},
     "rate_function.params:"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "tabulated",
                                            "params": [[-1.0, 0.0, 1.0], [True, 0.0, True]]}},
     "rate_function.params:"),
    # a window of more than 20 sites, w = (2r+1)^d: a table of 2^w rates (2^441 here)
    ("lattice-sim", {**LATTICE, "dim": 2, "side": 21, "observables": [[[0, 0]]],
                     "rates": {"kind": "constant", "dim": 2, "value": 1.0, "radius": 10}},
     "rates.radius:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "constant", "dim": 1, "value": 1.0,
                                          "radius": 10}}, "rates.radius:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "random", "dim": 1, "radius": 10, "seed": 2}},
     "rates.radius:"),
    ("lattice-sim", {**LATTICE, "rates": {**TABLE_RATES, "radius": 10, "rates": {}}},
     "rates.radius:"),
])
def test_config_that_ran_on_a_default_exits_2(tmp_path, capsys, command, cfg, named):
    code, err, made_out_dir = _run(tmp_path, capsys, command, cfg)
    assert code == 2
    assert named in err
    assert not made_out_dir


@pytest.mark.parametrize("dim, radius", [(1, 9), (2, 1)])
def test_largest_window_is_accepted(dim, radius):
    spec = cli._rates({"kind": "constant", "dim": dim, "value": 1.0, "radius": radius}, "rates")
    assert (spec.dim, spec.radius) == (dim, radius)
