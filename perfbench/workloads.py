"""The benchmark's three workloads and their correctness gate.

Every workload is a closed loop run single-process and single-threaded:
each control cycle starts only after the previous one has returned, and
simulated time is not paced against the wall clock.  Inputs come only from
the package's public entry points (``sim.paper_suite``, ``sim.run``,
``sim.make_controller``, ``ExperimentSpec.build_path`` and ``regions.*``).
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time

import numpy as np

import spans
from trailer_mpc import regions, sim
from trailer_mpc.mpc import MpcConfig
from trailer_mpc.params import VehicleParams

# Seeds other than 0 move each closed-loop start by up to this much in
# lateral offset (m) and heading (rad).  exp1_eight is bistable in its
# start: a jitter of 1e-6 sent 2 of 10 seeds into a branch with about 20
# ADMM fallbacks, 5 LQ fallbacks and four times the run time, while 1e-7
# did not on those seeds.  The jitter stays two decades below that, so
# every seed keeps the solver path of seed 0 and only machine noise differs
# between seeds.  This hides the unbounded active-set tail behind the
# branch; once the QP has a bounded worst case (ROADMAP item 2), widen the
# jitter to 1e-6 and check that failed stays 0 on paper_eight.
JITTER_Z_M = 1e-9
JITTER_THETA_RAD = 1e-9

# Region sweep grid: 15-degree cells (13 x 13, out to +/-90 degrees), 60 m
# recovery budget.  On a 2-vCPU VM whose speed drifts by a factor of 1.5,
# the 10-degree grid (361 cells, 45-50 s) and the 12-degree one (289 cells,
# 31-45 s) leave too little room in the run-time budget for 70 runs of the
# three workloads; this one takes 20-25 s.
REGION_SPACING_DEG = 15.0
REGION_DISTANCE_M = 60.0
# Cells the sweep labels stable on this grid.  The sweep is deterministic,
# so a solver change that flips a label fails the gate instead of only
# running faster.
REGION_STABLE_CELLS = 19
# Each run is set up this many times before it runs; its set-up time is
# the median of these.  A straight set-up takes about 20 ms and a
# figure-eight one 0.7 s, so only the cheap ones are repeated.
SETUP_REPEATS = {"straight": 5, "eight": 1, "region": 5}

KKT_TOL = 1e-6

# Paper outcomes at seed 0: MPC always converges; LQ jackknifes except on
# exp3_straight.
LQ_CONVERGES = frozenset({"exp3_straight"})

# The figure-eight MPC run of experiment 3 (about 17 s, no ADMM fallback)
# is left out so that one paper_eight run stays near 45 s; the two
# runs kept reach the ADMM fallback three times between them, which sets
# the workload's worst cycle.
EIGHT_DROPPED = frozenset({("exp3_eight", "mpc")})

# The fitted set is checked in closed loop from the mildest paper start.
REGION_CHECK_EXPERIMENT = "exp3_straight"


class TimedController:
    """Hands ``sim.run`` a controller whose ``step`` is timed from outside."""

    def __init__(self, inner):
        self.inner = inner
        self.path = inner.path
        self.step_ms = []

    def step(self, state, ctrl):
        t0 = time.perf_counter()
        out = self.inner.step(state, ctrl)
        self.step_ms.append((time.perf_counter() - t0) * 1e3)
        return out


@dataclasses.dataclass
class RunRecord:
    spec: sim.ExperimentSpec
    log: sim.RunLog
    step_ms: list
    setup_s: list         # every set-up of this run
    wall_s: float


@dataclasses.dataclass
class WorkloadResult:
    name: str
    runs: list            # RunRecord of every closed-loop run
    wall_s: float
    grid: object = None   # merged RegionGrid (region_sweep only)
    polytope: object = None
    sweep_counts: object = None   # Counter of the sweep's QP calls and cells

    @property
    def setup_samples(self):
        """Every set-up measured in the workload."""
        return [t for r in self.runs for t in r.setup_s]

    @property
    def setup_s(self):
        """Set-up time of the workload: the sum over its runs of each run's
        median set-up.  (The runs' set-ups differ in work, so a median
        across runs would jump between the MPC and the LQ set-up.)"""
        return sum(float(np.median(r.setup_s)) for r in self.runs)


def jittered(specs, seed):
    """The specs with perturbations jittered by the seed (exact at 0)."""
    if seed == 0:
        return list(specs)
    rng = np.random.default_rng(seed)
    out = []
    for spec in specs:
        z, th, b3, b2 = spec.perturbation
        z += rng.uniform(-JITTER_Z_M, JITTER_Z_M)
        th += rng.uniform(-JITTER_THETA_RAD, JITTER_THETA_RAD)
        out.append(dataclasses.replace(spec, perturbation=(z, th, b3, b2)))
    return out


def paper_specs(kind):
    return [s for s in sim.paper_suite() if s.path_kind == kind and
            (s.name, s.controller) not in EIGHT_DROPPED]


def region_check_specs():
    return [s for s in sim.paper_suite()
            if s.name == REGION_CHECK_EXPERIMENT and s.controller == "mpc"]


def run_closed_loop(specs, params, cfg, polytope=None, setups=1):
    """Run each spec from its own path build and controller construction,
    timing that set-up ``setups`` times and running the last one built."""
    records = []
    for spec in specs:
        setup_s = []
        for _ in range(setups):
            # every set-up starts from a collected heap, whatever ran before
            gc.collect()
            t0 = time.perf_counter()
            path = spec.build_path(cfg.delta_s, params)
            controller = sim.make_controller(spec, params, cfg, path=path,
                                             polytope=polytope)
            setup_s.append(time.perf_counter() - t0)
        timed = TimedController(controller)
        t1 = time.perf_counter()
        log = sim.run(spec, params, cfg, controller=timed)
        t2 = time.perf_counter()
        records.append(RunRecord(spec, log, timed.step_ms, setup_s, t2 - t1))
    return records


def paper_workload(kind):
    def run(seed, params, cfg):
        records = run_closed_loop(jittered(paper_specs(kind), seed), params, cfg,
                                  setups=SETUP_REPEATS[kind])
        return WorkloadResult(
            name=f"paper_{kind}", runs=records,
            wall_s=sum(r.wall_s for r in records))
    return run


def region_sweep(seed, params, cfg):
    """Sensing region, stability sweep, merge and octagon fit on a coarse
    grid, then the fitted set in closed loop.

    The seed is ignored: the sweep simulates half the grid and mirrors it,
    which needs symmetric axes, so its inputs cannot be jittered.  The grid
    and sensing region take about 0.1 ms, too short to time steadily, so
    they count toward ``wall_s`` (the time to a fitted polytope) and the
    set-up samples are those of the closed-loop check run.  The sweep runs
    under count-only wrappers that give its cell-cycles and QP answers.
    """
    del seed
    counter = spans.Tracer(targets=spans.SWEEP_COUNTS)
    t0 = time.perf_counter()
    b3, b2 = regions.make_axes(REGION_SPACING_DEG)
    sensing = regions.sensing_region(params, b3, b2)
    with counter:
        stability = regions.stability_sweep(params, cfg, b3, b2,
                                            distance=REGION_DISTANCE_M)
    grid = regions.merge(sensing, stability)
    polytope = regions.fit_inner_polytope(grid)
    wall = time.perf_counter() - t0
    records = run_closed_loop(region_check_specs(), params, cfg,
                              polytope=polytope, setups=SETUP_REPEATS["region"])
    return WorkloadResult(name="region_sweep", runs=records, wall_s=wall,
                          grid=grid, polytope=polytope,
                          sweep_counts=counter.counts)


WORKLOADS = {
    "paper_straight": paper_workload("straight"),
    "paper_eight": paper_workload("eight"),
    "region_sweep": region_sweep,
}


def run_workload(name, seed):
    params, cfg = VehicleParams(), MpcConfig()
    return WORKLOADS[name](seed, params, cfg), params, cfg


# -- correctness gate -------------------------------------------------------

def violations(result, params, cfg, seed):
    """Every correctness violation of a workload result (empty if correct).

    The paper outcomes are checked at seed 0 only; the invariants (KKT
    certificate, actuator limits, fitted set) at every seed.
    """
    out = []
    u_lim = min(params.u_max, cfg.u_max) + 1e-12
    slew_lim = min(params.udot_max, cfg.udot_max) / cfg.f_s + 1e-12
    for rec in result.runs:
        tag = f"{rec.spec.name}/{rec.spec.controller}"
        log = rec.log
        if len(log) == 0:
            out.append(f"{tag}: no control cycle ran")
            continue
        converges = rec.spec.controller == "mpc" or rec.spec.name in LQ_CONVERGES
        expected = sim.CONVERGED if converges else sim.JACKKNIFED
        if (seed == 0 or result.name == "region_sweep") and log.status != expected:
            out.append(f"{tag}: status {log.status}, expected {expected}")
        max_u = float(np.max(np.abs(log.u_cmd)))
        if max_u > u_lim:
            out.append(f"{tag}: |u_cmd| = {max_u:.6g} above {u_lim:.6g}")
        if rec.spec.controller == "mpc":
            optimal = np.array([s == "Optimal" for s in log.qp_status])
            worst = float(np.max(log.kkt_max[optimal], initial=0.0))
            if worst > KKT_TOL:
                out.append(f"{tag}: KKT residual {worst:.3g} above {KKT_TOL:g}")
            slew = float(np.max(np.abs(np.diff(log.u_cmd)), initial=0.0))
            if slew > slew_lim:
                out.append(f"{tag}: per-cycle slew {slew:.6g} above {slew_lim:.6g}")
    if result.polytope is not None:
        poly, grid = result.polytope, result.grid
        if not bool(poly.contains(0.0, 0.0)):
            out.append("region fit does not contain the origin")
        B3, B2 = np.meshgrid(grid.beta3_axis, grid.beta2_axis, indexing="ij")
        inside = poly.contains(B3, B2)
        bad = inside & ~(grid.stable & grid.visible)
        if bad.any():
            out.append(f"region fit holds {int(bad.sum())} cells that are not "
                       "Stable and Visible")
        stable = int(grid.stable.sum())
        if stable != REGION_STABLE_CELLS:
            out.append(f"{stable} cells labelled stable, expected "
                       f"{REGION_STABLE_CELLS}")
    return out


# -- end-to-end metrics -----------------------------------------------------

def end_to_end(result, cfg):
    """Every end-to-end metric as {name: (value, unit)}, plus the sample
    counts and informational values printed beside them."""
    mpc_ms = np.concatenate([r.step_ms for r in result.runs
                             if r.spec.controller == "mpc"])
    lq_ms = np.concatenate([[]] + [r.step_ms for r in result.runs
                                   if r.spec.controller == "lq"])
    converge = sum(float(r.log.s[-1] - r.log.s[0]) for r in result.runs
                   if r.spec.controller == "mpc")
    metrics = {
        "setup_s": (result.setup_s, "s"),
        "wall_s": (result.wall_s, "s"),
        "cycle_p50_ms": (float(np.percentile(mpc_ms, 50)), "ms"),
        "converge_m": (converge, "m"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    deadline_ms = 1e3 / cfg.f_s
    info = {
        "step_ms": {f"{r.spec.name}/{r.spec.controller}": r.step_ms
                    for r in result.runs},
        "setup_samples_s": result.setup_samples,
        "samples": {"setup_s": len(result.setup_samples), "cycle": len(mpc_ms),
                    "lq_cycle": len(lq_ms)},
        "cycle_p99_ms": float(np.percentile(mpc_ms, 99)),
        "cycle_max_ms": float(np.max(mpc_ms)),
        "lq_cycle_p50_ms": float(np.percentile(lq_ms, 50)) if len(lq_ms) else None,
        "deadline_ms": deadline_ms,
        "deadline_misses": int(np.sum(mpc_ms > deadline_ms)),
        "deadline_miss_frac": float(np.mean(mpc_ms > deadline_ms)),
        "statuses": {f"{r.spec.name}/{r.spec.controller}": r.log.status
                     for r in result.runs},
    }
    if result.grid is not None:
        info["stable_cells"] = int(result.grid.stable.sum())
        info["region_cells"] = int(result.grid.stable.size)
        info["polytope_h"] = [float(v) for v in result.polytope.h]
    return metrics, info


def operations(result):
    """(attempted, failed): control cycles run, and MPC cycles whose QP gave
    no certified answer so the LQ fallback fired; for the region sweep also
    its cell-cycles, and those without a QP answer."""
    attempted = sum(len(r.log) for r in result.runs)
    failed = sum(1 for r in result.runs if r.spec.controller == "mpc"
                 for s in r.log.qp_status if s != "Optimal")
    if result.sweep_counts is not None:
        cells = spans.cell_cycles(result.sweep_counts)
        answers = (result.sweep_counts["qp.soft_qp_solve"]
                   - result.sweep_counts["qp.soft_qp_solve.none"])
        attempted += cells
        failed += cells - answers
    return attempted, failed


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
