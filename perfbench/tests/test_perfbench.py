"""Tests of the benchmark itself: smoke runs of each workload on tiny inputs,
wrapper install/removal, self-time arithmetic and the benchmark's metric
list.  Run with ``PYTHONPATH=src python -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from trailer_mpc import sim  # noqa: E402
from trailer_mpc.mpc import MpcConfig  # noqa: E402
from trailer_mpc.params import VehicleParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _short(kind, controller, **kw):
    # named after the paper experiment whose LQ run converges, so the
    # outcome gate expects Converged for both controllers
    return sim.ExperimentSpec(name="exp3_straight", path_kind=kind,
                              path_size=30.0 if kind == "straight" else 20.0,
                              controller=controller,
                              perturbation=(0.05, 0.0, 0.0, 0.0), **kw)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    # paper runs are cut after 2 s of simulated time, so their outcome is
    # Timeout and the smoke runs them at seed 1, where outcomes are not gated
    monkeypatch.setattr(wl, "paper_specs", lambda kind: [
        _short(kind, c, max_time=2.0) for c in ("mpc", "lq")])
    monkeypatch.setattr(wl, "region_check_specs", lambda: [
        _short("straight", c) for c in ("mpc", "lq")])
    monkeypatch.setattr(wl, "REGION_SPACING_DEG", 30.0)
    monkeypatch.setattr(wl, "REGION_STABLE_CELLS", 7)


def _smoke(capsys, workload, seed, trace):
    """Run a shrunk workload; check it is correct and prints every metric
    that BENCHMARK.json names, each with its unit."""
    out, details = bench.run_one(workload, seed, trace)
    bench.report(workload, seed, trace, out, details)
    text = capsys.readouterr().out
    assert out["correct"], details["violations"]
    assert out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        line = next(ln for ln in text.splitlines()
                    if ln.split()[:1] == [m["name"]])
        assert line.split()[2] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    return out


@pytest.mark.parametrize("workload", ["paper_straight", "paper_eight"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(tiny, capsys, workload, trace):
    out = _smoke(capsys, workload, 1, trace)
    assert out["failed"] == 0


def test_region_sweep_smoke_counts_cell_cycles(tiny, capsys):
    untraced = _smoke(capsys, "region_sweep", 0, 0)
    traced = _smoke(capsys, "region_sweep", 0, 1)
    m = traced["metrics"]
    mpc_cycles = m["mpc.step.calls"]["value"]
    lq_cycles = m["mpc.lq_step.calls"]["value"]
    cells = m["regions.cell_cycles"]["value"]
    # every sweep cell-cycle asks the QP once, and so does every MPC cycle
    # of the check run, whose QP always answers on this grid
    assert cells > 0
    assert m["qp.soft_qp_solve.calls"]["value"] == cells + mpc_cycles
    assert untraced["attempted"] == traced["attempted"] == \
        cells + mpc_cycles + lq_cycles
    assert untraced["failed"] == traced["failed"] == \
        m["qp.soft_qp_solve.none"]["value"]
    assert spans.installed_wrappers() == []


def _wrapped_snapshot():
    return sorted(spans.installed_wrappers())


def test_untraced_run_installs_nothing_and_traced_run_removes_all(tiny, monkeypatch):
    seen = []
    original = wl.run_closed_loop

    def spy(*args, **kwargs):
        seen.append(_wrapped_snapshot())
        return original(*args, **kwargs)

    monkeypatch.setattr(wl, "run_closed_loop", spy)
    assert _wrapped_snapshot() == []
    bench.run_one("paper_straight", 0, 0)
    assert seen == [[]]
    bench.run_one("paper_straight", 0, 1)
    assert "trailer_mpc.mpc.linearize" in seen[1]
    assert "trailer_mpc.error_model.linearize" in seen[1]
    assert "trailer_mpc.mpc.MpcController.step" in seen[1]
    assert _wrapped_snapshot() == []


def test_uninstall_restores_every_binding():
    import trailer_mpc

    def bindings():
        out = {}
        for name, mod in list(sys.modules.items()):
            if mod is not None and name.startswith("trailer_mpc"):
                for attr, value in vars(mod).items():
                    out[(name, attr)] = value
                    if isinstance(value, type):
                        for k, v in vars(value).items():
                            out[(name, attr, k)] = v
        return out

    assert trailer_mpc is not None
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # every target is wrapped where it is defined and where it is imported
        assert ("trailer_mpc.qp", "soft_qp_solve") in changed
        assert ("trailer_mpc.sim", "compute_error") in changed
        assert ("trailer_mpc.regions", "derivatives_batch") in changed
        assert ("trailer_mpc.qp", "lu_factor") in changed
    finally:
        tracer.uninstall()
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_is_span_minus_children():
    # root [0, 10] with children A [1, 4] and B [5, 9], grandchild C [2, 3]
    # under A: the nesting a single call stack produces
    tree = [["root", 0.0, 10.0, -1, -1],
            ["A", 1.0, 4.0, 0, -1],
            ["B", 5.0, 9.0, 0, -1],
            ["C", 2.0, 3.0, 1, -1]]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 4, 3 - 1, 4.0, 1.0])


def test_tracer_records_tree_cycles_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("sim.run")          # t=0
    step = tracer.begin("mpc.step")          # t=1
    solve = tracer.begin("qp.soft_qp_solve")  # t=2
    tracer.count("qp.lu_factor.calls", 3)
    tracer.end(solve)                        # t=3
    tracer.end(step)                         # t=4
    step2 = tracer.begin("mpc.step")         # t=5
    tracer.end(step2)                        # t=6
    tracer.end(outer)                        # t=7
    names = [s[0] for s in tracer.spans]
    assert names == ["sim.run", "mpc.step", "qp.soft_qp_solve", "mpc.step"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert [s[4] for s in tracer.spans] == [-1, 0, 0, 1]
    summary = spans.summarize(tracer, wall_s=1.0)
    assert summary["sim.run.self_ms"][0] == pytest.approx(7e3 - 3e3 - 1e3)
    assert summary["mpc.step.self_ms"][0] == pytest.approx(2e3 + 1e3)
    assert summary["qp.soft_qp_solve.lu_max"][0] == 3
    assert summary["qp.lu_factor.calls"][0] == 3


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS) \
        == list(bench.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == \
        [n for n, _, _ in spans.per_layer_names()]
    assert len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_straight",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_paper_outcome_gate_flags_wrong_status():
    params, cfg = VehicleParams(), MpcConfig()
    spec = _short("straight", "mpc")
    records = wl.run_closed_loop([spec], params, cfg)
    records[0].log.status = sim.JACKKNIFED
    result = wl.WorkloadResult("paper_straight", records, 1.0)
    assert wl.violations(result, params, cfg, seed=0)
    assert not wl.violations(result, params, cfg, seed=1)
