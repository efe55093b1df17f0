"""Span tracing for the traced benchmark run, recorded from the benchmark side.

The program is not edited.  Instead, `instrument` replaces each public
function listed in SPANS by a timing wrapper under the name its caller looks
it up by, for the duration of one traced pass, and puts the originals back
afterwards.  Two lookup styles occur in spinldp:

* module attribute at call time (`tr.minimize_action_fixed(...)` in
  verification, `bd.badness_scan(...)` in the CLI): patch the defining
  module;
* a name imported into another module (`badness` does
  `from .trajectory import minimize_action_open_start`): patch that
  module's copy as well.

`mag_model()` reads `mag_value_and_partials` when it is called, and the
scan cells build their rate function through
`badness.rate_function_from_descriptor`, so patching those two names reaches
the per-`fun_grad` evaluators.  Those evaluators run ~10^5 times per pass,
so they are recorded as leaf counters (count, total seconds) rather than as
individual spans; their time still counts as child time of the span that
was open when they ran.

Each span is (name, parent index, start, end); self time is the duration
minus the time covered by child spans and leaf calls (single-threaded, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Several entries may share a span name
# when one function is reachable under two names.
SPANS = [
    ("badness", "badness_scan", "badness.badness_scan"),
    ("badness", "is_bad", "badness.is_bad"),
    ("badness", "optimal_initials", "badness.optimal_initials"),
    ("badness", "nature_nurture_classify", "badness.nature_nurture_classify"),
    ("badness", "minimize_action_open_start", "trajectory.minimize_action_open_start"),
    ("badness", "minimize_action_fixed", "trajectory.minimize_action_fixed"),
    ("trajectory", "minimize_action_open_start", "trajectory.minimize_action_open_start"),
    ("trajectory", "minimize_action_fixed", "trajectory.minimize_action_fixed"),
    ("trajectory", "hamilton_flow_integrate", "trajectory.hamilton_flow_integrate"),
    ("magnetization", "mag_exact_log_prob", "magnetization.mag_exact_log_prob"),
    ("lattice", "glauber_simulate", "lattice.glauber_simulate"),
    ("lattice", "moment_series", "lattice.moment_series"),
    ("lattice", "nonlinear_generator_exact", "lattice.nonlinear_generator_exact"),
    ("finite_jump", "fj_lagrangian_variational", "finite_jump.fj_lagrangian_variational"),
    ("finite_jump", "fj_lagrangian_dual", "finite_jump.fj_lagrangian_dual"),
    ("duality", "duality_gap", "duality.duality_gap"),
    ("poisson_walk", "pw_exact_log_prob", "poisson_walk.pw_exact_log_prob"),
]

LAGRANGIAN = "magnetization.mag_value_and_partials"
RATE_EVAL = "rate_functions.evaluator"
RATE_DERIV = "rate_functions.derivative"


class Tracer:
    """Spans and leaf counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end, child_seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           perf_counter(), 0.0, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        rec = self.spans[idx]
        rec[3] = perf_counter()
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][4] += rec[3] - rec[2]

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_leaf(self, name, fn):
        agg = self.leaves[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                agg[0] += 1
                agg[1] += d
                if stack:
                    spans[stack[-1]][4] += d

        return counted

    # -- derived quantities -------------------------------------------------

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, _, start, end, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        for name, (calls, secs) in self.leaves.items():
            row = out[name]
            row[0] += calls
            row[1] += secs
            row[2] += secs
        return out

    def children_of(self, parent_name, child_name):
        """Spans named child_name whose parent span is named parent_name."""
        return [s for s in self.spans
                if s[0] == child_name and s[1] >= 0 and self.spans[s[1]][0] == parent_name]

    def dump(self):
        return {"spans": [s[:4] for s in self.spans],
                "leaves": {k: list(v) for k, v in self.leaves.items()}}


class NullTracer:
    """Stand-in for untraced passes: spans cost one context switch."""

    @contextlib.contextmanager
    def span(self, name):
        yield


@contextlib.contextmanager
def patched(targets):
    """Set (module, attribute, value) triples, restoring the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, value in targets:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def instrument(mods, tracer):
    """Context manager wrapping every traced name in the loaded spinldp modules."""
    targets = []
    for mod_name, attr, span_name in SPANS:
        mod = getattr(mods, mod_name)
        targets.append((mod, attr, tracer.wrap(span_name, getattr(mod, attr))))

    mag = mods.magnetization
    targets.append((mag, "mag_value_and_partials",
                    tracer.wrap_leaf(LAGRANGIAN, mag.mag_value_and_partials)))

    make_rate = mods.badness.rate_function_from_descriptor

    def traced_rate_function(kind, params):
        spec = make_rate(kind, params)
        return dataclasses.replace(
            spec,
            evaluator=tracer.wrap_leaf(RATE_EVAL, spec.evaluator),
            derivative=tracer.wrap_leaf(RATE_DERIV, spec.derivative),
        )

    targets.append((mods.badness, "rate_function_from_descriptor", traced_rate_function))
    return patched(targets)
