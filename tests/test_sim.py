import csv
import dataclasses
import gc
import math

import numpy as np
import pytest

from trailer_mpc import (ExperimentSpec, initial_state, paper_suite, qp, run,
                         run_suite)
from trailer_mpc.error_model import compute_error
from trailer_mpc.exceptions import ValidityViolated
from trailer_mpc.mpc import MpcConfig
from trailer_mpc.sim import CSV_COLUMNS, RunLog, make_controller
from trailer_mpc.table import read_table


def test_initial_state_round_trips_through_error(params, straight_back):
    pert = (1.5, -0.3, 0.2, -0.1)
    state = initial_state(straight_back, pert, start_s=10.0)
    _, err, _ = compute_error(state, straight_back, s_prev=10.0)
    assert np.allclose(err.as_array(), pert, atol=2e-3)


def test_initial_state_rejects_invalid(straight_back):
    with pytest.raises(ValidityViolated):
        initial_state(straight_back, (0.0, 1.6, 0.0, 0.0))


def test_paper_suite_structure():
    specs = paper_suite()
    assert len(specs) == 12
    assert {s.controller for s in specs} == {"mpc", "lq"}
    assert {s.path_kind for s in specs} == {"straight", "eight"}
    assert all(s.v == -1.0 for s in specs)


def test_run_zero_perturbation_converges(params):
    spec = ExperimentSpec(name="null", path_kind="straight", path_size=40.0,
                          controller="mpc")
    log = run(spec, params, MpcConfig())
    assert log.status == "Converged"
    assert np.abs(log.errors).max() < 1e-6
    assert np.abs(log.u_cmd).max() < 1e-6


def test_run_lq_zero_perturbation_converges(params):
    spec = ExperimentSpec(name="null_lq", path_kind="straight", path_size=40.0,
                          controller="lq")
    log = run(spec, params, MpcConfig())
    assert log.status == "Converged"


def test_run_lq_jackknifes_on_large_offset(params):
    spec = ExperimentSpec(name="big", path_kind="straight", path_size=120.0,
                          controller="lq", perturbation=(5.6, 0.0, 0.0, 0.0))
    log = run(spec, params, MpcConfig())
    assert log.status == "Jackknifed"
    assert log.s[-1] - log.s[0] < 30.0


def test_noise_seed_determinism(params):
    spec = ExperimentSpec(name="noisy", path_kind="straight", path_size=40.0,
                          controller="lq", perturbation=(0.5, 0.0, 0.0, 0.0),
                          noise_std=(0.01, 0.01, 0.002, 0.002, 0.002), seed=3)
    log1 = run(spec, params, MpcConfig())
    log2 = run(spec, params, MpcConfig())
    assert log1.status == log2.status
    assert np.array_equal(log1.u_cmd, log2.u_cmd)
    assert np.array_equal(log1.states, log2.states)


def test_noisy_run_hands_over_only_its_first_cycle(params):
    # exp1_straight under measurement noise: soft rows keep reaching their
    # kinks as combinations of the working rows, and each cycle's hot start
    # answers only when such a row can pass its kink; the first cycle has
    # no hot start
    spec = next(s for s in paper_suite()
                if s.name == "exp1_straight" and s.controller == "mpc")
    spec = dataclasses.replace(
        spec, noise_std=(0.01, 0.01, 0.002, 0.002, 0.002), seed=1)
    summary = run(spec, params, MpcConfig()).summary()
    assert summary["status"] == "Converged"
    assert summary["n_lq_fallback"] == 0
    assert summary["n_ipm"] <= 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: qp.parametric_solve can cycle at a degenerate point: in "
    "exp2_eight with measurement noise seed 1, three hot starts that hit "
    "the 30-breakpoint cap never finish uncapped, because the path repeats "
    "the same 8-20 state changes, every breakpoint of zero length; an "
    "anti-cycling tie rule is needed (CHANGES.md)"))
def test_noisy_hot_starts_that_give_up_finish_uncapped(params, monkeypatch):
    # exp2_eight under measurement noise: 4 homotopies give up at the
    # breakpoint cap.  Run again with a larger cap, one finishes in 34
    # breakpoints; the other three cycle among the same state changes.
    spec = next(s for s in paper_suite()
                if s.name == "exp2_eight" and s.controller == "mpc")
    spec = dataclasses.replace(
        spec, noise_std=(0.01, 0.01, 0.002, 0.002, 0.002), seed=1)
    solve = qp.parametric_solve
    gave_up = []

    def capture(*args):
        res, breakpoints = solve(*args)
        if res is None and breakpoints == qp.EXCHANGE_CAP:
            # the problem and its hot start, without the cap and the cache
            gave_up.append(args[:10])
        return res, breakpoints

    monkeypatch.setattr(qp, "parametric_solve", capture)
    run(spec, params, MpcConfig())
    for args in gave_up:
        assert solve(*args, max_iter=200)[0] is not None


def test_run_log_csv(tmp_path, params):
    spec = ExperimentSpec(name="log", path_kind="straight", path_size=40.0,
                          controller="lq", perturbation=(0.3, 0.0, 0.0, 0.0))
    log = run(spec, params, MpcConfig())
    f = tmp_path / "log.csv"
    log.write_csv(f)
    data = read_table(f)
    assert list(data.dtype.names) == [h for name, *heads in CSV_COLUMNS
                                      for h in heads or [name]]
    assert len(data) == len(log)
    # floats by repr read back bit for bit
    assert np.array_equal(data["u_cmd"], log.u_cmd)


def test_run_log_without_a_cycle(tmp_path):
    # a run whose first cycle fails still has every column, and a CSV header
    spec = ExperimentSpec(name="none", path_kind="straight", path_size=40.0,
                          controller="lq")
    log = RunLog.from_cycles(spec, "ValidityLost", 50.0, [])
    assert len(log) == 0 and log.states.shape == (0, 5) and log.solver_path == []
    assert log.summary()["n_structure_builds"] == 0
    assert log.summary()["max_qp_iterations"] == 0
    assert all(log.summary()[f"{k}_solve_ms"] == 0.0
               for k in ("mean", "p50", "p99", "max"))
    log.write_csv(tmp_path / "none.csv")
    header = (tmp_path / "none.csv").read_text().splitlines()
    assert header == [",".join(h for name, *heads in CSV_COLUMNS
                               for h in heads or [name])]


def test_run_suite_summary(tmp_path, params):
    specs = [
        ExperimentSpec(name="a", path_kind="straight", path_size=40.0,
                       controller="lq"),
        ExperimentSpec(name="b", path_kind="straight", path_size=40.0,
                       controller="lq", perturbation=(0.4, 0.0, 0.0, 0.0)),
    ]
    summaries = run_suite(specs, params, MpcConfig(), out_dir=str(tmp_path))
    assert [s["name"] for s in summaries] == ["a", "b"]
    assert all(s["status"] == "Converged" for s in summaries)
    assert (tmp_path / "a_lq.csv").exists()
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one row per run with every summary key, the structure phase's total
    # among them
    assert [r["name"] for r in rows] == ["a", "b"]
    assert list(rows[0]) == list(summaries[0])
    assert [float(r["structure_ms"]) for r in rows] == [0.0, 0.0]


def test_summary_reports_the_latency_distribution(tmp_path, params):
    # the median and the 99th percentile of the per-cycle time (numpy's
    # linearly interpolated percentiles) sit between the mean and the worst
    # cycle; summary.csv carries them by name
    spec = ExperimentSpec(name="lat", path_kind="straight", path_size=40.0,
                          controller="mpc", perturbation=(1.0, 0.0, 0.0, 0.0),
                          max_time=3.0)
    log = run(spec, params, MpcConfig())
    summary = log.summary()
    ms = np.sort(log.solve_ms)
    assert summary["p50_solve_ms"] == float(np.median(ms))
    assert summary["p99_solve_ms"] == float(np.percentile(ms, 99))
    assert ms[0] <= summary["p50_solve_ms"] <= summary["p99_solve_ms"] \
        <= summary["max_solve_ms"] == ms[-1]
    keys = list(summary)
    at = keys.index("mean_solve_ms")
    assert keys[at:at + 4] == ["mean_solve_ms", "p50_solve_ms",
                               "p99_solve_ms", "max_solve_ms"]
    run_suite([spec], params, MpcConfig(), out_dir=str(tmp_path))
    with open(tmp_path / "summary.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert 0.0 < float(row["p50_solve_ms"]) <= float(row["p99_solve_ms"]) \
        <= float(row["max_solve_ms"])


def test_summary_reports_the_worst_cycles_qp_work(tmp_path, params):
    # the first cycle has no hot start: the interior point's iterations and
    # its crossover's breakpoints make it the run's largest QP effort, and
    # summary.csv carries it; an LQ run solves no QP
    spec = ExperimentSpec(name="work", path_kind="straight", path_size=40.0,
                          controller="mpc", perturbation=(1.0, 0.0, 0.0, 0.0),
                          max_time=3.0)
    log = run(spec, params, MpcConfig())
    worst = log.summary()["max_qp_iterations"]
    assert worst == log.qp_iterations.max() == log.qp_iterations[0] > 0
    assert log.solver_path[0] == "ipm"
    summaries = run_suite([spec, dataclasses.replace(spec, controller="lq")],
                          params, MpcConfig(), out_dir=str(tmp_path))
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["max_qp_iterations"]) for r in rows] == \
        [s["max_qp_iterations"] for s in summaries] == [worst, 0]


def test_the_qp_status_column_is_the_solver_paths_outcome(tmp_path, params):
    # the run log derives qp_status from solver_path: a certified answer is
    # Optimal, the LQ fallback MaxIter, and the LQ baseline's cycle LQ; the
    # run CSV carries the same column
    outcome = {"parametric": "Optimal", "ipm": "Optimal",
               "lq_fallback": "MaxIter", "lq": "LQ"}
    for spec in paper_suite()[:2]:
        log = run(spec, params, MpcConfig())
        paths = set(log.solver_path)
        assert paths == ({"ipm", "parametric"} if spec.controller == "mpc"
                         else {"lq"})
        assert log.qp_status == [outcome[p] for p in log.solver_path]
        log.write_csv(tmp_path / "run.csv")
        with open(tmp_path / "run.csv", newline="") as fh:
            assert [r["qp_status"] for r in csv.DictReader(fh)] == \
                log.qp_status


def test_timeout_status(params):
    # a drastic cap forces a Timeout before convergence can be sustained
    spec = ExperimentSpec(name="short", path_kind="straight", path_size=60.0,
                          controller="lq", perturbation=(1.0, 0.0, 0.0, 0.0),
                          max_time=1.0)
    log = run(spec, params, MpcConfig())
    assert log.status == "Timeout"


def test_build_path_rejects_unknown_kind():
    with pytest.raises(ValueError):
        spec = ExperimentSpec(name="x", path_kind="circle", path_size=10.0,
                              controller="lq")
        spec.build_path()


@pytest.mark.parametrize("kind, size", [("straight", 40.0), ("eight", 20.0),
                                        ("eight", 15.0)])
@pytest.mark.parametrize("delta_s", [0.1, 0.2])
def test_sample_count_is_the_length_of_the_built_path(params, kind, size, delta_s):
    spec = ExperimentSpec(name="n", path_kind=kind, path_size=size, controller="lq")
    assert spec.sample_count(delta_s) == len(spec.build_path(delta_s, params))


def test_five_builds_of_one_eight_integrate_it_once(params, eight_builds):
    specs = [s for s in paper_suite() if s.path_kind == "eight"][:5]
    assert {(s.path_size, s.v) for s in specs} == {(20.0, -1.0)}
    paths = [spec.build_path(0.2, params) for spec in specs]
    assert len(eight_builds) == 1
    for path in paths[1:]:
        assert path.beta2.tobytes() == paths[0].beta2.tobytes()
        assert not np.shares_memory(path.beta2, paths[0].beta2)


def test_run_suite_integrates_the_paper_eight_once(params, eight_builds):
    # two cycles a run: the paths and controllers, not the runs, are tested
    specs = [dataclasses.replace(s, max_time=0.05) for s in paper_suite()]
    summaries = run_suite(specs, params, MpcConfig())
    assert len(summaries) == 12
    assert len(eight_builds) == 1


class _MeasuresNanAfter:
    """A controller whose measured ``field`` is NaN from cycle ``after`` on."""

    def __init__(self, inner, field, after):
        self.inner, self.path = inner, inner.path
        self.field, self.after, self.cycles = field, after, 0

    def step(self, state, ctrl):
        if self.cycles >= self.after:
            state = dataclasses.replace(state, **{self.field: math.nan})
        self.cycles += 1
        return self.inner.step(state, ctrl)


@pytest.mark.parametrize("field", ["x3", "theta3", "beta3", "beta2"])
@pytest.mark.parametrize("controller", ["mpc", "lq"])
def test_a_nan_measurement_ends_the_run_as_validity_lost(params, controller,
                                                         field):
    from trailer_mpc.sim import VALIDITY_LOST, make_controller

    cfg = MpcConfig()
    spec = ExperimentSpec(name="nan", path_kind="straight", path_size=40.0,
                          controller=controller,
                          perturbation=(0.5, 0.0, 0.0, 0.0))
    nan = _MeasuresNanAfter(make_controller(spec, params, cfg), field, 3)
    log = run(spec, params, cfg, controller=nan)
    assert log.status == VALIDITY_LOST
    assert len(log.u_cmd) == 3 and np.all(np.isfinite(log.u_cmd))


def test_noise_std_needs_one_entry_per_state():
    with pytest.raises(ValueError):
        ExperimentSpec(name="n", path_kind="straight", path_size=40.0,
                       controller="lq", noise_std=(0.01,))


def test_reused_controller_runs_like_fresh_ones(params):
    from trailer_mpc.sim import make_controller

    cfg = MpcConfig()
    # the first run stops after two cycles, near the second run's start, so
    # an answer carried over from it would hot-start the second run's first
    # cycle, which would then skip the handover to the interior point
    specs = [ExperimentSpec(name=f"r{k}", path_kind="straight", path_size=40.0,
                            controller="mpc", perturbation=(1.5, 0.0, 0.0, 0.0),
                            max_time=max_time)
             for k, max_time in enumerate([0.05, 0.5])]
    shared = make_controller(specs[0], params, cfg)
    reused = [run(spec, params, cfg, controller=shared) for spec in specs]
    fresh = [run(spec, params, cfg) for spec in specs]
    for a, b in zip(reused, fresh):
        assert a.status == b.status
        assert np.array_equal(a.u_cmd, b.u_cmd)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.qp_iterations, b.qp_iterations)
        assert a.solver_path == b.solver_path


def test_vehicle_curvature_limit_binds_the_mpc():
    from trailer_mpc import VehicleParams

    params = VehicleParams(u_max=0.1)
    spec = ExperimentSpec(name="tight", path_kind="straight", path_size=40.0,
                          controller="mpc", perturbation=(3.0, 0.0, 0.0, 0.0),
                          max_time=10.0)
    log = run(spec, params, MpcConfig())
    summary = log.summary()
    # the unconstrained recovery from 3 m asks for more than 0.1
    assert summary["max_abs_u"] == pytest.approx(0.1)
    assert np.abs(log.u_cmd).max() <= 0.1 + 1e-12
    assert summary["n_lq_fallback"] == 0
    assert summary["n_ipm"] == log.solver_path.count("ipm") >= 1


@pytest.mark.parametrize("controller", ["mpc", "lq"])
def test_run_log_phase_timings_and_deadline_misses(tmp_path, params, controller):
    spec = ExperimentSpec(name="phases", path_kind="straight", path_size=40.0,
                          controller=controller,
                          perturbation=(1.0, 0.0, 0.0, 0.0), max_time=3.0)
    log = run(spec, params, MpcConfig())
    phases = (log.t_project_ms, log.t_structure_ms, log.t_solve_ms)
    for t in phases:
        assert t.shape == log.solve_ms.shape
        assert np.all(t >= 0.0)
    # the phases are disjoint parts of the whole step
    assert np.all(sum(phases) <= log.solve_ms + 1e-9)
    if controller == "mpc":
        # the first cycle builds the horizon's structure; on a straight
        # line every later cycle reuses it, whatever its grid base
        assert log.t_structure_ms[0] > 0.0
        assert log.structure_built[0] and not np.any(log.structure_built[1:])
        assert np.all(log.t_solve_ms > 0.0)
    else:
        assert not np.any(log.t_structure_ms) and not np.any(log.t_solve_ms)
        assert not np.any(log.structure_built)
    assert log.period_ms == 50.0
    summary = log.summary()
    assert summary["deadline_misses"] == int(np.sum(log.solve_ms > 50.0))
    assert summary["structure_ms"] == float(np.sum(log.t_structure_ms))
    assert (summary["structure_ms"] > 0.0) == (controller == "mpc")
    f = tmp_path / "log.csv"
    log.write_csv(f)
    header = f.read_text().splitlines()[0].split(",")
    assert header[-4:] == ["structure_built", "t_project_ms",
                           "t_structure_ms", "t_solve_ms"]
    data = np.genfromtxt(f, delimiter=",", names=True,
                         usecols=("t_project_ms", "t_structure_ms", "t_solve_ms"))
    for name, t in zip(data.dtype.names, phases):
        assert np.array_equal(data[name], t)


def test_run_log_counts_the_hot_started_cycles(tmp_path, params):
    spec = ExperimentSpec(name="hot", path_kind="straight", path_size=40.0,
                          controller="mpc", perturbation=(1.0, 0.0, 0.0, 0.0),
                          max_time=3.0)
    log = run(spec, params, MpcConfig())
    summary = log.summary()
    # every grid base of a straight line has the same condensed structure,
    # so the run builds one and every cycle after the first hot-starts on it
    assert summary["n_structure_builds"] == 1
    assert summary["n_parametric"] == log.solver_path.count("parametric")
    assert log.solver_path[0] != "parametric"
    assert log.solver_path[1:] == ["parametric"] * (len(log) - 1)
    f = tmp_path / "log.csv"
    log.write_csv(f)
    with open(f, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["solver_path"] for r in rows] == log.solver_path
    assert [int(r["structure_built"]) for r in rows] == \
        log.structure_built.astype(int).tolist()


def test_noise_std_must_be_five_finite_non_negative_numbers():
    spec = dict(name="n", path_kind="straight", path_size=40.0,
                controller="mpc")
    made = ExperimentSpec(**spec, noise_std=[0, 0.1, 0, 0, 0],
                          perturbation=np.array([1, 0, 0, 0]))
    assert made.noise_std == (0.0, 0.1, 0.0, 0.0, 0.0)
    # both stored as tuples of floats
    assert made.perturbation == (1.0, 0.0, 0.0, 0.0)
    assert all(type(v) is float for v in made.noise_std + made.perturbation)
    for bad in (0, [], 0.1, [-1, 0, 0, 0, 0], [0, 0, 0, 0, math.inf],
                [0, 0, 0, 0], "01234", ["0.1", 0, 0, 0, 0], [False] * 5):
        with pytest.raises(ValueError, match="noise_std"):
            ExperimentSpec(**spec, noise_std=bad)


@pytest.mark.parametrize("field, bad", [
    ("v", (0.5, 0.0, 2.0, "-1", True)),
    ("path_size", (-30.0, 0.0, math.inf, math.nan, True, "40")),
    # a start at or past the end of the 40 m path once ran
    ("start_s", (-0.2, math.inf, math.nan, "0", False, 40.0, 45.0, 500.0)),
    ("max_time", ("abc", 0.0, -1.0, math.inf, math.nan, True)),
    ("seed", (-1, 1.5, "7", True)),
    ("perturbation", ([0.5, 0.0, 0.0], ["1", 0, 0, 0], [True, 0, 0, 0], 0.5)),
    ("name", ("", "a/b", "a\\b", 7, None)),
])
def test_spec_rejects_a_bad_value_before_anything_runs(field, bad):
    spec = dict(name="b", path_kind="straight", path_size=40.0,
                controller="lq")
    for value in bad:
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(**{**spec, field: value})
    # the edge values that are meaningful still pass
    ExperimentSpec(**spec, v=1, start_s=0.0, max_time=None, seed=0)
    ExperimentSpec(**spec, max_time=1e-3)


def test_deadline_misses_count_against_the_configured_rate(params):
    # at 1 MHz every cycle overruns its 1 microsecond period
    cfg = MpcConfig(f_s=1e6)
    spec = ExperimentSpec(name="fast", path_kind="straight", path_size=40.0,
                          controller="lq", perturbation=(1.0, 0.0, 0.0, 0.0),
                          max_time=1e-5)
    log = run(spec, params, cfg)
    assert log.period_ms == pytest.approx(1e-3)
    assert log.summary()["deadline_misses"] == len(log) > 1


class _Flagged:
    """A controller whose ``inside`` is True while its ``step`` runs, and
    that runs ``before(cycle)`` first inside each step."""

    def __init__(self, inner, before=lambda cycle: None):
        self.inner, self.path, self.before = inner, inner.path, before
        self.inside, self.cycle = False, 0

    def step(self, state, ctrl):
        self.inside = True
        try:
            self.before(self.cycle)
            return self.inner.step(state, ctrl)
        finally:
            self.inside = False
            self.cycle += 1


def _paper_mpc_run(params):
    spec = next(s for s in paper_suite()
                if s.name == "exp1_straight" and s.controller == "mpc")
    return spec, make_controller(spec, params, MpcConfig())


def test_no_collection_starts_inside_a_control_step(params):
    spec, controller = _paper_mpc_run(params)
    flagged = _Flagged(controller)
    starts = []   # for each collection: whether a step was running

    def hook(phase, info):
        if phase == "start":
            starts.append(flagged.inside)

    gc.callbacks.append(hook)
    try:
        log = run(spec, params, MpcConfig(), controller=flagged)
    finally:
        gc.callbacks.remove(hook)
    assert log.status == "Converged" and gc.isenabled()
    # the run collects between its cycles, never inside one
    assert starts and not any(starts)
    assert not np.any(log.gc_ms) and log.summary()["max_gc_ms"] == 0.0


def test_gc_ms_is_the_collector_time_inside_a_step(tmp_path, params):
    spec = ExperimentSpec(name="gc", path_kind="straight", path_size=40.0,
                          controller="lq", perturbation=(1.0, 0.0, 0.0, 0.0),
                          max_time=1.0)
    controller = make_controller(spec, params, MpcConfig())
    log = run(spec, params, MpcConfig(), controller=_Flagged(
        controller, lambda cycle: cycle == 3 and gc.collect()))
    assert np.flatnonzero(log.gc_ms).tolist() == [3]
    assert log.summary()["max_gc_ms"] == log.gc_ms[3] > 0.0
    log.write_csv(tmp_path / "gc.csv")
    data = np.genfromtxt(tmp_path / "gc.csv", delimiter=",", names=True)
    assert np.array_equal(data["gc_ms"], log.gc_ms)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_setting(params, enabled):
    spec, controller = _paper_mpc_run(params)

    def fail(cycle):
        if cycle == 5:
            raise RuntimeError("step failed")

    starts = []

    def hook(phase, info):
        starts.append(phase)

    callbacks = list(gc.callbacks)
    try:
        (gc.enable if enabled else gc.disable)()
        gc.callbacks.append(hook)
        run(spec, params, MpcConfig(), controller=controller)
        assert gc.isenabled() == enabled
        # with collection off, the run collects nothing either
        assert enabled or starts == []
        with pytest.raises(RuntimeError, match="step failed"):
            run(spec, params, MpcConfig(), controller=_Flagged(controller, fail))
        assert gc.isenabled() == enabled
    finally:
        gc.callbacks.remove(hook)
        gc.enable()
    assert gc.callbacks == callbacks
