"""Spans and counts around ccpj's layer functions, installed from outside.

The tracer replaces each listed function at every place it is bound: the
defining module and every ``ccpj`` module that imported it by name (``cli``
imports ``run`` and ``sweep_period``; ``optimize`` and ``calibrate`` import
``sweep_period`` and ``navigate_confined``). Each call records a span
(name, start, end, parent, job) in memory; ``uninstall`` puts the
originals back. A layer's self time is its span's duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "job"

# (module, attribute, span name). Counted-only functions are in COUNTED.
TIMED = (
    ("ccpj.config", "load_config", "config.load_config"),
    ("ccpj.config", "build_scenario", "config.build_scenario"),
    ("ccpj.gait", "SimTrace.to_csv", "cli.to_csv"),
    ("ccpj.plotsvg", "line_plot", "cli.line_plot"),
    ("ccpj.gait", "run", "gait.run"),
    ("ccpj.gait", "sweep_period", "gait.sweep_period"),
    ("ccpj.gait", "navigate_confined", "gait.navigate_confined"),
    ("ccpj.gait", "static_load_check", "gait.static_load_check"),
    ("ccpj.optimize", "optimize_period", "optimize.optimize_period"),
    ("ccpj.optimize", "select_mask", "optimize.select_mask"),
    ("ccpj.optimize", "max_feasible_current", "optimize.max_feasible_current"),
    ("ccpj.calibrate", "run_calibration", "calibrate.run_calibration"),
    ("ccpj.calibrate", "load_dataset", "calibrate.load_dataset"),
    ("ccpj.calibrate", "stiffness_fit_report", "calibrate.stiffness_fit_report"),
    ("ccpj.calibrate", "thermal_fit_report", "calibrate.thermal_fit_report"),
    ("ccpj.calibrate", "slip_fit_report", "calibrate.slip_fit_report"),
    ("ccpj.beam", "equilibrium_shape", "beam.equilibrium_shape"),
    ("ccpj.beam", "three_point_bend", "beam.three_point_bend"),
)

# (module, attribute, count name) of cheap, frequently called functions:
# counted, not timed, so their time stays in the caller's self time.
COUNTED = (
    ("ccpj.gait", "steady_cycle_displacement", "gait.steady_cycle_calls"),
    ("ccpj.calibrate", "fit_stiffness_table", "calibrate.stiffness_fit_calls"),
)

# Self-time metrics: each timed span name belongs to exactly one, so
# together with the root's self time they partition the traced pass time.
SELF_GROUPS = {
    "config.load_s": ("config.load_config", "config.build_scenario"),
    "cli.artifact_s": ("cli.to_csv", "cli.line_plot"),
    "gait.run_s": ("gait.run",),
    "gait.sweep_self_s": ("gait.sweep_period",),
    "gait.confined_s": ("gait.navigate_confined",),
    "gait.static_load_s": ("gait.static_load_check",),
    "optimize.self_s": ("optimize.optimize_period", "optimize.select_mask",
                        "optimize.max_feasible_current"),
    "calibrate.thermal_s": ("calibrate.thermal_fit_report",),
    "calibrate.other_s": ("calibrate.run_calibration", "calibrate.load_dataset",
                          "calibrate.stiffness_fit_report",
                          "calibrate.slip_fit_report"),
    "beam.equilibrium_s": ("beam.equilibrium_shape",),
    "beam.three_point_bend_s": ("beam.three_point_bend",),
}
# The root span's self time: CLI jobs book it to cli.self_s (argparse,
# report rendering, writes); library jobs to beam.other_s (FlexuralModel
# set-up and shape readouts around the solver calls).
ROOT_SELF = {"cli": "cli.self_s", "library": "beam.other_s"}

SELF_METRICS = (*SELF_GROUPS, *ROOT_SELF.values())

# name -> unit, in report order. Values are per traced pass.
UNITS = {
    **{name: "s" for name in SELF_METRICS},
    "cli.artifact_bytes": "count",
    "gait.run_calls": "count",
    "gait.steps": "count",
    "gait.trace_rows": "count",
    "gait.us_per_step": "us",
    "gait.steady_cycle_calls": "count",
    "optimize.period_evals": "count",
    "optimize.mask_attempts": "count",
    "optimize.mask_useful_ratio": "1",
    "calibrate.resweep_s": "s",
    "calibrate.stiffness_fit_calls": "count",
    "beam.equilibrium_calls": "count",
    "beam.iterations": "count",
    "beam.us_per_iteration": "us",
    "beam.three_point_bend_calls": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "1",
}

# Counts that must repeat exactly from run to run at a fixed seed.
EXACT_COUNTS = (
    "gait.run_calls", "gait.steps", "gait.trace_rows",
    "gait.steady_cycle_calls", "optimize.period_evals",
    "optimize.mask_attempts", "calibrate.stiffness_fit_calls",
    "beam.equilibrium_calls", "beam.iterations",
    "beam.three_point_bend_calls", "cli.artifact_bytes",
)


def _steps(scenario) -> int:
    """Simulator steps of one run, as gait.run computes them."""
    return int(math.ceil(scenario.duration / scenario.dt - 1e-9))


class Tracer:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def root(self, job_id: str, fn, *args):
        """Run one job under the root span."""
        self.job = job_id
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._parent_name()
            index = tracer._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(index)
                tracer._count(name, parent, ok, args)
            tracer._count_result(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, name: str, parent: str | None, ok: bool, args):
        c = self.counts
        if name == "gait.run":
            c["gait.run_calls"] += 1
            c["gait.steps"] += _steps(args[0])
        elif name == "gait.sweep_period" and parent == "optimize.optimize_period":
            c["optimize.period_evals"] += 1
        elif name == "gait.navigate_confined" and parent == "optimize.select_mask":
            c["optimize.mask_attempts"] += 1
            c["optimize.mask_useful"] += int(ok)
        elif name == "beam.equilibrium_shape":
            c["beam.equilibrium_calls"] += 1
        elif name == "beam.three_point_bend":
            c["beam.three_point_bend_calls"] += 1

    def _count_result(self, name: str, result):
        if name == "gait.run":
            self.counts["gait.trace_rows"] += len(result.t)
        elif name == "beam.equilibrium_shape":
            self.counts["beam.iterations"] += result.iterations

    # -- installing --------------------------------------------------------
    def install(self):
        """Wrap every listed function wherever a ccpj module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module_name, attr, span_name in table:
                owner, leaf = _resolve(module_name, attr)
                original = getattr(owner, leaf)
                wrapper = make(span_name, original)
                for target in _binding_sites(owner, leaf, original):
                    self._patches.append((target, leaf, original))
                    setattr(target, leaf, wrapper)

    def uninstall(self):
        for target, leaf, original in reversed(self._patches):
            setattr(target, leaf, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.job = None


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _binding_sites(owner, leaf: str, original):
    """The owner plus every ccpj module holding `original` under `leaf`."""
    sites = [owner]
    for name, module in list(sys.modules.items()):
        if (name == "ccpj" or name.startswith("ccpj.")) and module is not owner:
            if getattr(module, leaf, None) is original:
                sites.append(module)
    return sites


class LayerTotals:
    """Per-layer sums over the traced passes of one run."""

    def __init__(self, root_kind: str):
        self.root_metric = ROOT_SELF[root_kind]
        self.self_s: dict[str, float] = defaultdict(float)
        self.resweep_s = 0.0
        self.counts: Counter = Counter()
        self.traced_pass_s: list[float] = []

    def add_pass(self, tracer: Tracer, artifact_bytes: int):
        """Add one traced pass; its time is the sum of its root spans."""
        group_of = {span: metric for metric, spans in SELF_GROUPS.items()
                    for span in spans}
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        pass_seconds = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child_time[i]
            if name == ROOT:
                pass_seconds += end - start
            metric = self.root_metric if name == ROOT else group_of[name]
            self.self_s[metric] += own
            if (name == "gait.sweep_period" and parent >= 0
                    and spans[parent][0] == "calibrate.thermal_fit_report"):
                self.resweep_s += end - start
        self.counts.update(tracer.counts)
        self.counts["cli.artifact_bytes"] += artifact_bytes
        self.traced_pass_s.append(pass_seconds)

    def metrics(self, untraced_pass_s: list[float]) -> dict[str, float]:
        """Per-pass means; every name in UNITS is present."""
        n = len(self.traced_pass_s)
        c = self.counts
        out = {name: self.self_s.get(name, 0.0) / n for name in SELF_METRICS}
        for name in EXACT_COUNTS:
            out[name] = c[name] / n
        out["gait.us_per_step"] = (out["gait.run_s"] / out["gait.steps"] * 1e6
                                   if out["gait.steps"] else 0.0)
        out["beam.us_per_iteration"] = (
            out["beam.equilibrium_s"] / out["beam.iterations"] * 1e6
            if out["beam.iterations"] else 0.0)
        out["optimize.mask_useful_ratio"] = (
            c["optimize.mask_useful"] / c["optimize.mask_attempts"]
            if c["optimize.mask_attempts"] else 0.0)
        out["calibrate.resweep_s"] = self.resweep_s / n
        traced = sum(self.traced_pass_s) / n
        untraced = sum(untraced_pass_s) / len(untraced_pass_s)
        out["trace.pass_s"] = traced
        out["trace.untraced_pass_s"] = untraced
        out["trace.overhead_s"] = traced - untraced
        out["trace.overhead_ratio"] = (traced - untraced) / untraced
        return {name: out[name] for name in UNITS}
