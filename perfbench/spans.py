"""In-memory span tracing installed from outside the package.

A traced run replaces public functions of ``trailer_mpc`` at module
boundaries with thin wrappers that record one span per call (name, start,
end, parent, control-cycle id) or, for hot library calls, only a count
charged to the innermost open span.  Nothing inside ``src/`` knows about
tracing: :meth:`Tracer.install` patches every ``trailer_mpc`` module that
holds the target object (names imported with ``from .x import f`` are
separate bindings) and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

# stats reported per span name, in this order
SPAN_STATS = ("calls", "total_ms", "self_ms", "p99_ms", "max_ms")

WRAPPED_MARK = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``owner`` is a dotted module path, optionally followed by ``:Class`` for
    a method; ``kind`` is "span" (timed) or "count" (counted only).
    """

    name: str
    owner: str
    attr: str
    kind: str = "span"


# Layers are the package's modules.  Spans sit at module boundaries; the
# three scipy factor/solve calls inside qp are counted, not timed, because
# they run tens of thousands of times per workload.
TARGETS = (
    Target("sim.run", "trailer_mpc.sim", "run"),
    Target("mpc.MpcController", "trailer_mpc.mpc:MpcController", "__init__"),
    Target("mpc.LqController", "trailer_mpc.mpc:LqController", "__init__"),
    Target("mpc.design_cost", "trailer_mpc.mpc", "design_cost"),
    Target("mpc.step", "trailer_mpc.mpc:MpcController", "step"),
    Target("mpc.lq_step", "trailer_mpc.mpc:LqController", "step"),
    Target("error_model.compute_error", "trailer_mpc.error_model", "compute_error"),
    Target("error_model.linearize", "trailer_mpc.error_model", "linearize"),
    Target("paths.project", "trailer_mpc.paths", "project"),
    Target("paths.interpolate", "trailer_mpc.paths", "interpolate"),
    Target("paths.generate_straight", "trailer_mpc.paths", "generate_straight"),
    Target("paths.generate_figure_eight", "trailer_mpc.paths", "generate_figure_eight"),
    Target("paths.extend_for_horizon", "trailer_mpc.paths", "extend_for_horizon"),
    Target("qp.soft_qp_solve", "trailer_mpc.qp", "soft_qp_solve"),
    Target("qp.kkt_residuals", "trailer_mpc.qp", "kkt_residuals"),
    Target("qp.admm", "trailer_mpc.qp:PreparedQp", "solve"),
    Target("model.integrate_step", "trailer_mpc.model", "integrate_step"),
    Target("model.derivatives_batch", "trailer_mpc.model", "derivatives_batch"),
    Target("regions.sensing_region", "trailer_mpc.regions", "sensing_region"),
    Target("regions.stability_sweep", "trailer_mpc.regions", "stability_sweep"),
    Target("regions.fit_inner_polytope", "trailer_mpc.regions", "fit_inner_polytope"),
    Target("qp.lu_factor.calls", "trailer_mpc.qp", "lu_factor", "count"),
    Target("qp.admm.iters", "trailer_mpc.qp", "cho_solve", "count"),
    Target("qp.admm.factor", "trailer_mpc.qp", "cho_factor", "count"),
)

# spans that open a new control cycle, and the closed-loop run holding them
CYCLE_SPANS = frozenset({"mpc.step", "mpc.lq_step"})
RUN_SPAN = "sim.run"

# derived per-layer values besides the SPAN_STATS of every span target
EXTRA_METRICS = (
    ("qp.lu_factor.calls", "count", "lower"),
    ("qp.soft_qp_solve.none", "count", "lower"),
    ("qp.soft_qp_solve.lu_p99", "count", "lower"),
    ("qp.soft_qp_solve.lu_max", "count", "lower"),
    ("qp.admm.iters", "count", "lower"),
    ("qp.admm.factor", "count", "lower"),
    ("regions.cell_cycles", "count", "lower"),
    ("trace.wall_s", "s", "lower"),   # the traced run's wall_s
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        if t.kind != "span":
            continue
        for stat in SPAN_STATS:
            unit = "count" if stat == "calls" else "ms"
            out.append((f"{t.name}.{stat}", unit, "lower"))
    out.extend(EXTRA_METRICS)
    return out


def _resolve(owner):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    """Collects spans and counts; owns the wrappers it installs."""

    def __init__(self, clock=time.perf_counter, targets=TARGETS):
        self.clock = clock
        self.targets = targets
        # span records: [name, start, end, parent index, cycle id]
        self.spans = []
        self.counts = Counter()
        # per-span counts charged by "count" targets: span index -> Counter
        self.span_counts = {}
        self._stack = []
        self._cycle = -1
        self._next_cycle = 0
        self._patches = []   # (holder, attr, original)

    # -- recording -----------------------------------------------------

    def begin(self, name):
        # a control cycle runs from one controller step to the next inside
        # sim.run, so the plant integration after a step shares its id
        parent = self._stack[-1] if self._stack else -1
        if name in CYCLE_SPANS:
            self._cycle = self._next_cycle
            self._next_cycle += 1
        elif name == RUN_SPAN:
            self._cycle = -1
        self.spans.append([name, self.clock(), None, parent, self._cycle])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()
        if self.spans[idx][0] == RUN_SPAN:
            self._cycle = -1

    def count(self, name, n=1):
        self.counts[name] += n
        if self._stack:
            top = self._stack[-1]
            self.span_counts.setdefault(top, Counter())[name] += n

    # -- wrappers ------------------------------------------------------

    def _wrap(self, target, original):
        tracer = self
        name = target.name
        if target.kind == "count":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.count(name)
                result = original(*args, **kwargs)
                tracer.note(name, args, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(idx)
                tracer.note(name, args, result)
                return result
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def note(self, name, args, result):
        """Counts taken from a call's arguments and result: the QP's failed
        returns, and the cell columns of each batched derivative."""
        if name == "qp.soft_qp_solve" and result is None:
            self.count("qp.soft_qp_solve.none")
        elif name == "model.derivatives_batch":
            self.count("model.derivatives_batch.cols", args[1].shape[1])

    def install(self):
        """Wrap every target in every ``trailer_mpc`` module bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                holder = _resolve(target.owner)
                original = holder.__dict__[target.attr]
                wrapper = self._wrap(target, original)
                self._patch(holder, target.attr, original, wrapper)
                if ":" in target.owner:
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is holder or mod is None or \
                            not mod_name.startswith("trailer_mpc"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, holder, attr, original, wrapper):
        self._patches.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------

    def write(self, path):
        """Write spans and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "cycle"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def installed_wrappers():
    """(holder name, attr) of every tracing wrapper currently bound anywhere
    in the ``trailer_mpc`` package; empty when nothing is installed."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("trailer_mpc"):
            continue
        for attr, value in list(vars(mod).items()):
            holders = [(f"{mod_name}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                holders += [(f"{mod_name}.{attr}.{k}", v)
                            for k, v in vars(value).items()]
            found += [h for h, v in holders if getattr(v, WRAPPED_MARK, False)]
    return found


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans come from one call stack, so children never
    overlap and never leave their parent."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# count-only wrappers that give the region sweep's operations in a run that
# is not traced: cell-cycles from the batched plant, answers from the QP
SWEEP_COUNTS = (
    Target("qp.soft_qp_solve", "trailer_mpc.qp", "soft_qp_solve", "count"),
    Target("model.derivatives_batch", "trailer_mpc.model", "derivatives_batch",
           "count"),
)


def cell_cycles(counts):
    """Sweep cell-cycles: the sweep's plant takes 20 derivative evaluations
    per cycle (4 RK4 stages x 5 substeps), each over the columns of the
    cells still alive."""
    return counts["model.derivatives_batch.cols"] // 20


def _p99(values):
    """Nearest-rank 99th percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1]


def summarize(tracer, wall_s):
    """Every per-layer metric by name: {name: (value, unit)}."""
    durations = {}
    selfs = {}
    for (name, start, end, _, _), own in zip(tracer.spans,
                                             self_times(tracer.spans)):
        durations.setdefault(name, []).append((end - start) * 1e3)
        selfs[name] = selfs.get(name, 0.0) + own * 1e3
    lu_per_solve = [tracer.span_counts.get(i, {}).get("qp.lu_factor.calls", 0)
                    for i, rec in enumerate(tracer.spans)
                    if rec[0] == "qp.soft_qp_solve"]
    values = {}
    for t in TARGETS:
        if t.kind != "span":
            continue
        d = durations.get(t.name, [])
        values[f"{t.name}.calls"] = len(d)
        values[f"{t.name}.total_ms"] = sum(d)
        values[f"{t.name}.self_ms"] = selfs.get(t.name, 0.0)
        values[f"{t.name}.p99_ms"] = _p99(d) if d else 0.0
        values[f"{t.name}.max_ms"] = max(d, default=0.0)
    values["qp.lu_factor.calls"] = tracer.counts["qp.lu_factor.calls"]
    values["qp.soft_qp_solve.none"] = tracer.counts["qp.soft_qp_solve.none"]
    values["qp.soft_qp_solve.lu_p99"] = _p99(lu_per_solve) if lu_per_solve else 0
    values["qp.soft_qp_solve.lu_max"] = max(lu_per_solve, default=0)
    values["qp.admm.iters"] = tracer.counts["qp.admm.iters"]
    values["qp.admm.factor"] = tracer.counts["qp.admm.factor"]
    values["regions.cell_cycles"] = cell_cycles(tracer.counts)
    values["trace.wall_s"] = wall_s
    return {name: (values[name], unit) for name, unit, _ in per_layer_names()}
