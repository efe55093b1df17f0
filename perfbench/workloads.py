"""The three benchmark workloads, each with the reason it exists.

Every workload is a closed loop with one caller: the runner issues one call,
waits for it to return, then issues the next.  All of them run in the
benchmark's single process with workers=1.  There is deliberately no
workers=2 scaling row: the reference machine has two cores shared with other
tenants, so a two-worker row would time the scheduler, not spinldp.  Leave
that row to a machine with idle cores to spare.

Inputs come only from the workload seed.  Sizes are fixed per workload so a
pass costs about the same on every seed; the seed moves the random streams,
models and configurations, not the amount of work.

Gates never compare bit-identical paths or costs: the value-function engine
(ROADMAP item 4) will move costs by O(dt) and the n-fold-way kernel (item 5)
will change the random stream, and both must keep passing these gates.
Statistical gates are set at 5 standard errors.  A 3-SE band over the six
moment comparisons fails 7 of 200 seeds (3.5%) by chance at 100 replicas,
which a gate that judges later changes cannot afford; at 5 SE none of the
200 fails, so a failure means a defect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Z_GATE = 5.0

# Solver settings of acceptance criterion 10 (src/spinldp/verification.py).
DOUBLE_WELL_SOLVER = {"dt_target": 0.02, "min_steps": 100, "max_iter": 800, "gtol": 1e-8}
BERNOULLI_SOLVER = {"dt_target": 0.02, "min_steps": 80, "max_iter": 600, "gtol": 1e-8}


@dataclass
class PassOutcome:
    """What one timed pass did and which of its checks failed."""

    items: int = 0  # work units completed: scan cells, flip events, oracle checks
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # exact per-pass counts for the trace
    fingerprint: object = None  # outputs that must repeat byte for byte across passes

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class PhaseScan:
    """`spinldp scan-bad` through `cli.main` on two generated configs.

    Loads badness, trajectory (open start), magnetization and rate_functions:
    about 85% of tier-1 time.  Part one is a double-well column (beta=1.5,
    mT=0) on a log T grid across the crossover, which lies between T=0.25
    and T=0.3: the first T is good, the last bad.  A double-well cell with
    two minimizers runs 11 open-start solves (one for M*, ten for the branch
    selection); a short-horizon cell with one minimizer, like every
    Bernoulli cell, stops after 1.  Part two is a Bernoulli(0.5) T x mT grid,
    the only part where several cells share a T, which is what a
    value-function engine (ROADMAP item 4) would exploit.  So this workload
    judges item 4, and the single minimizer driver (item 3) through the
    open-start solver.
    """

    name = "phase-scan"
    why = "scan-bad via cli.main: badness/trajectory open-start solves; judges ROADMAP items 3-4"
    item_unit = "cells"

    SIZES = {
        "full": {"dw_T": {"start": 0.04, "stop": 1.0, "num": 3, "log": True},
                 "bern_T": [0.2, 2.0], "bern_mT": [-0.6, 0.0, 0.6]},
        "tiny": {"dw_T": {"start": 0.05, "stop": 1.5, "num": 2, "log": True},
                 "bern_T": [0.5], "bern_mT": [-0.5, 0.5]},
    }

    def build(self, mods, seed, size, workdir):
        sz = self.SIZES[size]
        common = {"seed": int(seed), "epsilon": 0.1, "delta": 0.05}
        configs = {
            "double_well": {**common,
                            "rate_function": {"kind": "double_well", "params": [1.5]},
                            "T_grid": sz["dw_T"], "mT_grid": [0.0],
                            "solver": DOUBLE_WELL_SOLVER},
            "bernoulli": {**common,
                          "rate_function": {"kind": "bernoulli", "params": [0.5]},
                          "T_grid": sz["bern_T"], "mT_grid": sz["bern_mT"],
                          "solver": BERNOULLI_SOLVER},
        }
        paths = {}
        for part, cfg in configs.items():
            # validates the descriptor (the double well root-finds its wells)
            mods.badness.rate_function_from_descriptor(
                cfg["rate_function"]["kind"], cfg["rate_function"]["params"])
            paths[part] = os.path.join(workdir, f"{part}.json")
            with open(paths[part], "w") as fh:
                json.dump(cfg, fh)
        return paths

    def run_pass(self, mods, paths, outdir, tracer):
        out = PassOutcome()
        branches = {}
        real_is_bad = mods.badness.is_bad

        def capturing_is_bad(I, mT, T, *args, **kwargs):
            flag, diag = real_is_bad(I, mT, T, *args, **kwargs)
            branches[(I.kind, float(T))] = diag
            return flag, diag

        # The branch-sign gate needs is_bad's diagnostics, which the scan CSV
        # does not carry; one dict store per cell, so untraced timing is unaffected.
        mods.badness.is_bad = capturing_is_bad
        csv_bytes = {}
        try:
            for part, path in paths.items():
                part_dir = os.path.join(outdir, part)
                with tracer.span("cli.main"):
                    code = mods.cli.main(["scan-bad", path, "--workers", "1",
                                          "--out-dir", part_dir])
                out.check(code == 0, f"{part}: scan-bad exited {code}")
                csv_path = Path(part_dir, "scan_bad.csv")
                csv_bytes[part] = csv_path.read_bytes() if code == 0 else b""
        finally:
            mods.badness.is_bad = real_is_bad

        cells = {part: list(csv.DictReader(io.StringIO(b.decode())))
                 for part, b in csv_bytes.items()}
        dw, bern = cells["double_well"], cells["bernoulli"]
        for part, rows in cells.items():
            for row in rows:
                wrong = part == "bernoulli" and row["bad"] == "1"
                out.check(not row["error"] and not wrong,
                          f"{part} cell T={row['T']} mT={row['mT']}: "
                          f"bad={row['bad']} error={row['error']!r}")
        flags = [row["bad"] == "1" for row in dw]
        crossings = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        out.check(len(flags) >= 2 and not flags[0] and flags[-1] and crossings == 1,
                  f"double-well column verdicts {flags}: want good first, bad last, "
                  "one crossover")
        last = branches.get(("double_well", float(dw[-1]["T"])) if dw else None, {})
        plus, minus = last.get("plus_branch") or [math.nan], last.get("minus_branch") or [math.nan]
        out.check(plus[-1] > 0 > minus[-1],
                  f"largest-T branch selections plus={plus[-1]} minus={minus[-1]}: "
                  "want plus > 0 > minus")

        out.items = len(dw) + len(bern)
        out.counts = {
            "badness.bad_cells": sum(flags) + sum(row["bad"] == "1" for row in bern),
            "cells": out.items,
            "two_minimizer_cells": sum(int(row["n_minimizers"]) >= 2
                                       for rows in cells.values() for row in rows),
        }
        out.fingerprint = csv_bytes
        return out


@dataclass(frozen=True)
class TorusCase:
    dim: int
    side: int
    radius: int

    @property
    def sites(self):
        return self.side ** self.dim

    @property
    def label(self):
        return f"{self.dim}d_n{self.sites}_r{self.radius}"


class LatticeGrowth:
    """`lattice.glauber_simulate` on growing tori, then a replica ensemble.

    The event kernel rescans every rate on each event, so its cost per event
    grows like n; events/s falls about 5x from n=2k to n=20k.  That is the
    cost the n-fold way (ROADMAP item 5) removes, so this workload judges
    item 5.  Each case runs to a fixed expected event count (T = target /
    initial total rate), so the work per pass does not depend on the seed.
    No trajectory, badness or finite_jump code runs here, so items 3-4 must
    leave it unchanged.
    """

    name = "lattice-growth"
    why = "glauber_simulate at n~2k and n~20k in 1d/2d, O(n)-per-event kernel; judges ROADMAP item 5"
    item_unit = "events"

    CASES = (TorusCase(1, 2001, 0), TorusCase(1, 2001, 1), TorusCase(1, 20001, 0),
             TorusCase(1, 20001, 1), TorusCase(2, 45, 1), TorusCase(2, 141, 1))
    SIZES = {
        "full": {"events": 20000, "moment_side": 201, "replicas": 100},
        "tiny": {"events": 400, "moment_side": 41, "replicas": 10},
    }
    MOMENT_TIMES = (0.1, 0.5, 1.0)
    MOMENT_OBSERVABLES = ([(0,)], [(0,), (1,)])

    def build(self, mods, seed, size, workdir):
        lat = mods.lattice
        sz = self.SIZES[size]
        runs = []
        for k, case in enumerate(self.CASES):
            ss = np.random.SeedSequence([int(seed), k])
            cfg_seed, rate_seed, sim_seed = ss.spawn(3)
            config = lat.SpinConfiguration.random(case.dim, case.side, cfg_seed)
            rates = (lat.LocalRateSpec.constant(1.0, case.dim) if case.radius == 0
                     else lat.LocalRateSpec.random_table(case.dim, case.radius, rate_seed))
            T = sz["events"] / float(np.sum(rates.rates_for(config)))
            runs.append((case, config, rates, T, sim_seed))
        moments = {
            "side": sz["moment_side"], "replicas": sz["replicas"],
            "rates": lat.LocalRateSpec.constant(1.0, 1),
            "master_seed": int(np.random.SeedSequence([int(seed), len(self.CASES)])
                               .generate_state(1, np.uint32)[0]),
        }
        return {"runs": runs, "moments": moments}

    def run_pass(self, mods, inputs, outdir, tracer):
        lat = mods.lattice
        out = PassOutcome()
        for case, config, rates, T, sim_seed in inputs["runs"]:
            with tracer.span(f"case.{case.label}"):
                _, log = lat.glauber_simulate(config, rates, T, sim_seed)
            events = len(log.times)
            out.items += events
            out.counts[f"lattice.events.{case.label}"] = events
            if case.radius == 0:
                # constant rate 1 at every site: the event count is Poisson(n T)
                mean = case.sites * T
                out.check(abs(events - mean) <= Z_GATE * math.sqrt(mean),
                          f"{case.label}: {events} events, Poisson mean {mean:.1f}")

        m = inputs["moments"]
        arr = lat.moment_series(1, m["side"], m["rates"], self.MOMENT_TIMES,
                                self.MOMENT_OBSERVABLES, replicas=m["replicas"],
                                master_seed=m["master_seed"], workers=1)
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
        for ti, t in enumerate(self.MOMENT_TIMES):
            for oi, obs in enumerate(self.MOMENT_OBSERVABLES):
                # all-plus start, independent rate-1 flips: E <H_A> = exp(-2|A|t)
                target = math.exp(-2.0 * len(obs) * t)
                z = abs(mean[ti, oi] - target) / max(se[ti, oi], 1e-12)
                out.check(z <= Z_GATE, f"moment |A|={len(obs)} t={t}: z={z:.2f}")
        out.counts["lattice.events"] = out.items
        return out


class OracleBattery:
    """Acceptance criteria 1-8 through `verification.CRITERIA`, unchanged.

    The exact oracles at their pinned tolerances: duality gaps (1), the
    zero-cost drift (2), two-Poisson log-probabilities and the rate table
    (3), the binomial oracle against a 400-step fixed-start solve (4), the
    tilted-generator identity by flip enumeration (5), finite-size scaling
    (6), variational against dual on random jump models (7) and the
    4th-order Hamilton flow (8).  It runs the fixed-start solver on longer
    arrays than phase-scan and the lattice operator algebra rather than the
    kernel, so a shared minimizer driver (item 3) or any change to
    trajectory or lattice shows here too; finite_jump does most of the work.

    Criterion 9 is left out: its Monte Carlo cross-check (|MC - closed form|
    <= 3 bootstrap SE) fails 10 of 300 seeds (3.3%) at its pinned 10^4
    replicas, so as a gate it would fail runs by chance.
    """

    name = "oracle-battery"
    why = "acceptance criteria 1-8 at pinned tolerances: fixed-start solves, finite_jump, lattice algebra"
    item_unit = "checks"

    CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8)
    SIZES = {
        "full": {"c5_instances": 100, "c7_models": 16},
        "tiny": {"c2_samples": 100, "c3_N_list": [50, 100], "c5_instances": 4,
                 "c7_models": 2},
    }

    def build(self, mods, seed, size, workdir):
        cfg = dict(mods.verification.DEFAULTS)
        cfg.update(self.SIZES[size], seed=int(seed))
        return cfg

    def run_pass(self, mods, cfg, outdir, tracer):
        out = PassOutcome()
        for index in self.CRITERIA:
            with tracer.span(f"verification.criterion_{index}"):
                res = mods.verification.CRITERIA[index](cfg, workers=1)
            out.check(res.passed, f"criterion {index} {res.name}: {res.detail}")
        out.items = len(self.CRITERIA)
        return out


WORKLOADS = {w.name: w for w in (PhaseScan(), LatticeGrowth(), OracleBattery())}
