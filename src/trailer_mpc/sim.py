"""Closed-loop simulation harness: plant + controller at a fixed control rate.

Couples the kinematic vehicle model (RK4, zero-order-hold commands) with the
MPC or saturated-LQ controller, applies initial perturbations in path-error
coordinates, detects jackknife / validity loss / convergence, and logs per-
cycle diagnostics to CSV.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

# Nothing here calls compute_error.  It is imported because the benchmark's
# span tracer (perfbench/spans.py) wraps it in every module that binds it, and
# perfbench/tests checks this binding; ROADMAP item 1b drops that check.
from .error_model import _check_validity, compute_error
from .exceptions import (InvalidState, OutOfDomain, ProjectionLost,
                         SingularConfiguration, ValidityViolated)
from .model import (CONV_TOL, JACKKNIFE_ANGLE, SINGULAR_TOL, ControlInput,
                    VehicleState, integrate_step, speed_ratio)
from .mpc import (ControllerState, LqController, MpcConfig, MpcController,
                  StepDiagnostics)
from .params import is_int, is_real, real_tuple
from .paths import (NominalPath, _sample_count, figure_eight_length,
                    generate_figure_eight, generate_straight, interpolate)
from .table import write_table

CONVERGED = "Converged"
JACKKNIFED = "Jackknifed"
VALIDITY_LOST = "ValidityLost"
TIMEOUT = "Timeout"
STATUSES = (CONVERGED, JACKKNIFED, VALIDITY_LOST, TIMEOUT)

# convergence: error infinity norm below CONV_TOL, sustained over 5 m of travel
CONV_SUSTAIN_M = 5.0

# the run log's qp_status of each solver path: "Optimal" for a certified
# answer, "MaxIter" for none (the LQ fallback), and "LQ" for the LQ
# baseline, which solves no QP
QP_STATUS = {"parametric": "Optimal", "ipm": "Optimal",
             "lq_fallback": "MaxIter", "lq": "LQ"}


@dataclass
class ExperimentSpec:
    """One closed-loop experiment: path, controller and initial perturbation;
    the values are checked as given, and a bool or a string is no number."""

    name: str                 # file-safe: the run CSV is <name>_<controller>.csv
    path_kind: str            # "straight" or "eight"
    path_size: float          # straight length or figure-eight radius (m)
    controller: str           # "mpc" or "lq"
    v: float = -1.0           # travel direction (+1 forward, -1 backward)
    perturbation: tuple = (0.0, 0.0, 0.0, 0.0)  # (z3t, theta3t, beta3t, beta2t)
    start_s: float = 0.0
    max_time: float = None    # seconds; default derived from path length
    noise_std: tuple = None   # optional per-state measurement noise (5 values)
    seed: int = 0

    def __post_init__(self):
        if self.path_kind not in ("straight", "eight"):
            raise ValueError(f"unknown path_kind {self.path_kind!r}")
        if self.controller not in ("mpc", "lq"):
            raise ValueError(f"unknown controller {self.controller!r}")
        perturbation = real_tuple(self.perturbation, 4)
        noise_std = None if self.noise_std is None else \
            real_tuple(self.noise_std, 5, 0.0, closed=True)
        for name, ok, meaning in (
                ("name", isinstance(self.name, str) and set(self.name).isdisjoint("/\\")
                 and self.name != "", "a non-empty string without a path separator"),
                ("perturbation", perturbation is not None, "4 finite numbers"),
                ("noise_std", self.noise_std is None or noise_std is not None,
                 "a list of 5 finite, non-negative numbers, one per state"),
                ("v", is_real(self.v) and self.v in (-1, 1), "-1 or +1"),
                ("path_size", is_real(self.path_size, 0.0), "positive and finite"),
                ("start_s", is_real(self.start_s, 0.0, closed=True), "finite and >= 0"),
                ("max_time", self.max_time is None or is_real(self.max_time, 0.0),
                 "positive and finite, or null"),
                ("seed", is_int(self.seed) and self.seed >= 0, "an integer >= 0")):
            if not ok:
                raise ValueError(f"{name} must be {meaning}; got {getattr(self, name)!r}")
        if self.start_s >= self.path_length:
            raise ValueError(f"start_s must be below the path length {self.path_length}; "
                             f"got {self.start_s!r}")
        self.perturbation, self.noise_std = perturbation, noise_std

    @property
    def path_length(self) -> float:
        """Length (m) of the nominal path."""
        size = self.path_size
        return size if self.path_kind == "straight" else figure_eight_length(size)

    def sample_count(self, delta_s=0.2) -> int:
        """Samples of the path that build_path(delta_s) makes, counted
        without building it; raises ValueError, as build_path does, when the
        count exceeds MAX_PATH_SAMPLES or delta_s is not positive and finite."""
        return _sample_count(self.path_length, delta_s)

    def build_path(self, delta_s=0.2, params=None) -> NominalPath:
        if self.path_kind == "straight":
            return generate_straight(self.path_size, self.v, delta_s)
        if self.path_kind == "eight":
            return generate_figure_eight(self.path_size, self.v, delta_s,
                                         params=params)
        raise ValueError(f"unknown path kind {self.path_kind!r}")


@dataclass
class RunLog:
    """One run: its status and one column per quantity a control cycle
    records, read as attributes (``log.u_cmd``, ``log.states`` ...)."""

    spec: ExperimentSpec
    status: str
    period_ms: float      # control period 1000 / MpcConfig.f_s
    columns: dict         # by name, as from_cycles builds them

    @classmethod
    def from_cycles(cls, spec, status, period_ms, cycles) -> "RunLog":
        """The log of ``cycles``, one (t, true state array, StepDiagnostics,
        collector ms inside the step) per control cycle: a column per
        StepDiagnostics field, ``error`` as the array ``errors``, and
        ``qp_status``, the QP outcome each ``solver_path`` implies
        (``QP_STATUS``)."""
        t, states, diags, gc_ms = zip(*cycles) if cycles else ((), (), (), ())
        columns = dict(t=np.array(t, dtype=float),
                       states=np.array(states).reshape(-1, 5),
                       errors=np.array([d.error.as_array() for d in diags]).reshape(-1, 4),
                       gc_ms=np.array(gc_ms, dtype=float))
        for name, kind in get_type_hints(StepDiagnostics).items():
            if name != "error":
                values = [getattr(d, name) for d in diags]
                columns[name] = values if kind is str else np.array(values, dtype=kind)
        columns["qp_status"] = [QP_STATUS[p] for p in columns["solver_path"]]
        return cls(spec, status, period_ms, columns)

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self):
        return len(self.t)

    def summary(self) -> dict:
        err_inf = np.abs(self.errors).max(axis=1) if len(self.errors) else np.zeros(0)
        du = np.abs(np.diff(self.u_cmd)) if len(self.u_cmd) > 1 else np.zeros(0)
        return {
            "name": self.spec.name,
            "controller": self.spec.controller,
            "status": self.status,
            "distance_m": float(self.s[-1] - self.s[0]) if len(self) else 0.0,
            "final_err_inf": float(err_inf[-1]) if len(self) else math.nan,
            "max_abs_beta3": float(np.abs(self.states[:, 3]).max()) if len(self) else math.nan,
            "max_abs_beta2": float(np.abs(self.states[:, 4]).max()) if len(self) else math.nan,
            "max_abs_u": float(np.abs(self.u_cmd).max()) if len(self) else math.nan,
            "max_cycle_slew": float(du.max()) if len(du) else 0.0,
            "max_slack": float(self.slack_max.max()) if len(self) else 0.0,
            # the per-cycle latency: mean, median, 99th percentile (numpy's
            # linear interpolation) and worst
            "mean_solve_ms": float(self.solve_ms.mean()) if len(self) else 0.0,
            "p50_solve_ms": float(np.percentile(self.solve_ms, 50)) if len(self) else 0.0,
            "p99_solve_ms": float(np.percentile(self.solve_ms, 99)) if len(self) else 0.0,
            "max_solve_ms": float(self.solve_ms.max()) if len(self) else 0.0,
            "max_kkt": float(self.kkt_max.max()) if len(self) else 0.0,
            # cycles answered by the hot start from the last cycle's answer,
            # and cycles handed over to the interior point
            "n_parametric": self.solver_path.count("parametric"),
            "n_ipm": self.solver_path.count("ipm"),
            "n_lq_fallback": self.solver_path.count("lq_fallback"),
            # the QP work of the worst cycle: breakpoints and IPM iterations
            "max_qp_iterations": int(self.qp_iterations.max()) if len(self) else 0,
            # cycles that built a condensed structure rather than reusing one
            "n_structure_builds": int(np.count_nonzero(self.structure_built)),
            # time spent condensing horizons, all cycles
            "structure_ms": float(self.t_structure_ms.sum()),
            # cycles whose command took longer than the control period
            "deadline_misses": int(np.count_nonzero(self.solve_ms > self.period_ms)),
            "max_gc_ms": float(self.gc_ms.max()) if len(self) else 0.0,
        }

    def write_csv(self, path):
        table = {}
        for name, *heads in CSV_COLUMNS:
            col = self.columns[name]
            table.update(zip(heads or [name], col.T if np.ndim(col) > 1 else [col]))
        write_table(path, table)


# The run CSV's columns in order: a RunLog column, with its header where
# that is not the column's name, or a 2-D one with a header per column
CSV_COLUMNS = (
    ("t", "t_s"), ("s", "s_m"),
    ("states", "x3", "y3", "theta3", "beta3", "beta2"),
    ("errors", "z3t", "theta3t", "beta3t", "beta2t"),
    ("u_cmd",), ("qp_status",), ("qp_obj",), ("slack_max",), ("solve_ms",),
    ("gc_ms",), ("solver_path",), ("qp_iterations",), ("structure_built",),
    ("t_project_ms",), ("t_structure_ms",), ("t_solve_ms",),
)


def initial_state(path: NominalPath, perturbation, start_s=0.0) -> VehicleState:
    """Map an error-coordinate perturbation to a global vehicle state at the
    given station, rejecting starts that violate the error-model validity."""
    z3t, theta3t, beta3t, beta2t = perturbation
    ref = interpolate(path, start_s)
    _check_validity(z3t, theta3t, ref.kappa3r)
    nx, ny = -math.sin(ref.theta3r), math.cos(ref.theta3r)
    return VehicleState(
        x3=ref.x3r + z3t * nx,
        y3=ref.y3r + z3t * ny,
        theta3=ref.theta3r + theta3t,
        beta3=ref.beta3r + beta3t,
        beta2=ref.beta2r + beta2t,
    )


def make_controller(spec: ExperimentSpec, params, cfg, path=None, polytope=None):
    path = path if path is not None else spec.build_path(
        (cfg or MpcConfig()).delta_s, params)
    if spec.controller == "mpc":
        return MpcController(params, path, cfg, polytope=polytope)
    if spec.controller == "lq":
        return LqController(params, path, cfg)
    raise ValueError(f"unknown controller {spec.controller!r}")


def run(spec: ExperimentSpec, params, cfg: MpcConfig = None, controller=None,
        stop_on_converged=True) -> RunLog:
    """Simulate one experiment and return its log.

    All failures become terminal statuses; the first triggering condition
    wins.  When ``stop_on_converged`` is false the run continues to the path
    end (the status, once Converged, is kept).

    Automatic collection is off until the run ends, and between steps the
    youngest generation is collected once its count reaches the first
    threshold, if collection was on; ``gc_ms`` is collector time in a step.
    """
    cfg = cfg or MpcConfig()
    if controller is None:
        controller = make_controller(spec, params, cfg)
    path = controller.path
    dt = 1.0 / cfg.f_s
    rng = np.random.default_rng(spec.seed)

    state = initial_state(path, spec.perturbation, spec.start_s)
    ctrl = ControllerState(s_prev=spec.start_s)
    max_time = spec.max_time if spec.max_time is not None else \
        3.0 * (path.s_end_true - spec.start_s) + 30.0

    cycles = []
    status = None
    conv_anchor = None
    t = 0.0
    enabled = gc.isenabled()
    collect_at = gc.get_threshold()[0] if enabled else 0
    gc_s = [0.0]   # collector seconds: each collection adds stop less start

    def on_gc(phase, info):
        gc_s[0] += time.perf_counter() if phase == "stop" else -time.perf_counter()
    gc.disable()
    gc.callbacks.append(on_gc)
    try:
        while True:
            if collect_at and gc.get_count()[0] >= collect_at:
                gc.collect(0)
            meas = state
            if spec.noise_std is not None:
                meas = VehicleState.from_array(state.as_array() +
                                               rng.normal(0.0, spec.noise_std))
            gc0 = gc_s[0]
            try:
                u_cmd, diag = controller.step(meas, ctrl)
            except (ProjectionLost, ValidityViolated, OutOfDomain):
                status = status or VALIDITY_LOST
                break
            except (InvalidState, SingularConfiguration):
                status = status or JACKKNIFED
                break

            cycles.append((t, state.as_array(), diag, (gc_s[0] - gc0) * 1e3))

            # convergence bookkeeping (sustained small error over distance)
            if diag.error.inf_norm() < CONV_TOL:
                if conv_anchor is None:
                    conv_anchor = diag.s
                if status is None and diag.s - conv_anchor >= CONV_SUSTAIN_M:
                    status = CONVERGED
                    if stop_on_converged:
                        break
            else:
                conv_anchor = None

            if diag.s >= path.s_end_true - cfg.delta_s:
                # reached the end of the real path data
                if status is None:
                    status = CONVERGED if (conv_anchor is not None and
                                           diag.error.inf_norm() < CONV_TOL) else TIMEOUT
                break
            if t >= max_time:
                status = status or TIMEOUT
                break

            try:
                state = integrate_step(params, state, ControlInput(u_cmd, spec.v),
                                       dt, substeps=10)
            except (InvalidState, SingularConfiguration):
                status = status or JACKKNIFED
                break
            t += dt
            if abs(state.beta3) > JACKKNIFE_ANGLE or abs(state.beta2) > JACKKNIFE_ANGLE \
                    or speed_ratio(params, state.beta2, state.beta3, u_cmd) <= SINGULAR_TOL:
                status = status or JACKKNIFED
                break
    finally:
        gc.callbacks.remove(on_gc)
        if enabled:
            gc.enable()

    return RunLog.from_cycles(spec, status or TIMEOUT, 1e3 / cfg.f_s, cycles)


def run_suite(specs, params, cfg: MpcConfig = None, out_dir=None,
              stop_on_converged=True) -> list:
    """Run all specs sequentially; returns a list of summary dicts.

    Each spec gets its own path and controller; a figure-eight that an
    earlier spec built comes from :func:`generate_figure_eight`'s memo.
    When out_dir is given, one RunLog CSV per spec plus a summary.csv are
    written there.
    """
    cfg = cfg or MpcConfig()
    summaries = []
    for spec in specs:
        log = run(spec, params, cfg, stop_on_converged=stop_on_converged)
        summaries.append(log.summary())
        if out_dir is not None:
            log.write_csv(os.path.join(out_dir, f"{spec.name}_{spec.controller}.csv"))
    if out_dir is not None and summaries:
        write_table(os.path.join(out_dir, "summary.csv"),
                    {key: [s[key] for s in summaries] for key in summaries[0]})
    return summaries


# Initial perturbations reported for the three full-scale experiments on the
# straight path.
EXPERIMENT_PERTURBATIONS = {
    1: (5.6, 0.0, 0.0, 0.0),
    2: (-1.2, -0.8, 0.0, 0.0),
    3: (-4.1, -0.42, 0.0, 0.0),
}

# Stand-ins for the figure-eight experiments, whose initial states were only
# published graphically.  Experiments 1-2 reuse the straight-path values; for
# experiment 3 the heading error opposes the lateral recovery (same
# magnitudes), the adverse combination under which the saturated-LQ baseline
# jackknifes almost instantly on the curved path while the MPC recovers --
# the reported qualitative outcome.  The aligned straight-path combination
# (-4.1, -0.42) is mild enough that even the LQ tracks the figure-eight.
EIGHT_PERTURBATIONS = {
    1: (5.6, 0.0, 0.0, 0.0),
    2: (-1.2, -0.8, 0.0, 0.0),
    3: (-4.1, 0.42, 0.0, 0.0),
}


def paper_suite() -> list:
    """The 12-run replication suite: 3 perturbations x 2 paths (the 120 m
    straight line, the radius-20 m figure-eight) x 2 controllers."""
    specs = []
    for num in (1, 2, 3):
        for kind, size, perts in (("straight", 120.0, EXPERIMENT_PERTURBATIONS),
                                  ("eight", 20.0, EIGHT_PERTURBATIONS)):
            for controller in ("mpc", "lq"):
                specs.append(ExperimentSpec(
                    name=f"exp{num}_{kind}", path_kind=kind, path_size=size,
                    controller=controller, v=-1.0, perturbation=perts[num],
                ))
    return specs
