import json
import math

import numpy as np
import pytest

from trailer_mpc.cli import main
from trailer_mpc.paths import NominalPath


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_path_straight(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["path", "--straight", "40", "--reverse", "--out", str(out)]) == 0
    path = NominalPath.read_csv(out)
    assert path.direction == -1.0
    assert path.s_end == pytest.approx(40.0)


def test_path_eight_infeasible_radius(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(["path", "--eight", "3", "--out", str(out)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--straight", "--eight"])
def test_path_beyond_the_sample_bound_is_an_error(tmp_path, capsys, option):
    out = tmp_path / "p.csv"
    assert main(["path", option, "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err
    assert not out.exists()


def test_design_prints_stable_gain(capsys):
    assert main(["design"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spectral_radius"] < 1.0
    assert np.asarray(out["Q"]).shape == (4, 4)
    assert np.asarray(out["P"]).shape == (4, 4)
    assert len(out["K"]) == 4


def test_run_config_round_trip(tmp_path, capsys):
    cfg = {
        "experiments": [
            {"name": "tiny", "path_kind": "straight", "path_size": 40.0,
             "controller": "lq", "perturbation": [0.3, 0.0, 0.0, 0.0]},
        ],
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(f), "--out-dir", str(tmp_path / "out"),
                 "--expect", "lq=converged"])
    assert code == 0
    summaries = json.loads(capsys.readouterr().out)
    assert summaries[0]["status"] == "Converged"
    assert (tmp_path / "out" / "tiny_lq.csv").exists()


def test_run_expect_mismatch(tmp_path, capsys):
    cfg = {"experiments": [
        {"name": "t", "path_kind": "straight", "path_size": 40.0,
         "controller": "lq"}]}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(f), "--expect", "lq=jackknifed"]) == 1


# a misspelled controller once checked nothing and exited 0, and a
# misspelled status was an expect mismatch (exit 1) after every run
@pytest.mark.parametrize("expect", ["mcp=jackknifed", "lq=convergd", "lq",
                                    "mpc=converged,", "=converged"])
def test_run_bad_expect_is_a_config_error_before_any_run(tmp_path, capsys, expect):
    cfg = {"experiments": [{"name": "t", "path_size": 40.0, "controller": "lq"}]}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out-dir", str(out),
                 "--expect", expect]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("config error: --expect") and captured.err.count("\n") == 1


# at start_s 30 both controllers once "converged" after 0 m; past the end
# the run died on the horizon or on a station of the extended path
@pytest.mark.parametrize("kind, size, start_s", [
    ("straight", 30.0, 30.0), ("straight", 30.0, 35.0), ("straight", 30.0, 500.0),
    ("eight", 20.0, 288.0)])
def test_run_start_at_or_past_the_path_end_is_a_config_error(
        tmp_path, capsys, kind, size, start_s):
    cfg = {"experiments": [{"name": "s", "path_kind": kind, "path_size": size,
                            "controller": "mpc", "start_s": start_s}]}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: start_s") and err.count("\n") == 1


def test_run_bad_config(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["run", "--config", str(f)]) == 2
    f2 = tmp_path / "empty.json"
    f2.write_text(json.dumps({"experiments": []}))
    assert main(["run", "--config", str(f2)]) == 2
    capsys.readouterr()
    f3 = tmp_path / "unk.json"
    # a NaN perturbation once ran every cycle on the LQ fallback, and a
    # string one ended in a traceback
    for bad in (dict(controller="pid"), dict(path_kind="circle"),
                dict(perturbation=[0.5, 0.0]),
                dict(perturbation=[math.nan, 0.0, 0.0, 0.0]),
                dict(perturbation=[0.0, math.inf, 0.0, 0.0]),
                dict(perturbation=["a", 0.0, 0.0, 0.0])):
        entry = {"name": "x", "controller": "lq", "path_kind": "straight",
                 **bad}
        f3.write_text(json.dumps({"experiments": [entry]}))
        assert main(["run", "--config", str(f3)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
    # NaN limits once ran unclipped to Converged
    entry = {"name": "x", "controller": "lq", "path_kind": "straight"}
    f3.write_text(json.dumps({"params": {"u_max": math.nan}, "experiments": [entry]}))
    assert main(["run", "--config", str(f3)]) == 2
    assert capsys.readouterr().err.startswith("config error: u_max")


# a misspelled experiment key once ran with zero perturbation
@pytest.mark.parametrize("where, key", [("experiment", "perturbaton"),
                                        ("config", "experiment")])
def test_run_config_rejects_unknown_keys(tmp_path, capsys, where, key):
    entry = {"name": "t", "controller": "lq", "path_kind": "straight",
             "path_size": 40.0}
    cfg = {"experiments": [entry]}
    (entry if where == "experiment" else cfg)[key] = [3.0, 0.0, 0.0, 0.0]
    f = tmp_path / "typo.json"
    f.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown {where} key") and repr(key) in err


# an infinite f_s once looped forever with a zero period
@pytest.mark.parametrize("mpc", [{"f_s": 0}, {"udot_max": -0.1},
                                 {"horizon": 2.5}, {"slack_quad": -1.0},
                                 {"f_s": math.inf}, {"u_max": math.nan}])
def test_run_config_rejects_a_bad_mpc_setting(tmp_path, capsys, mpc):
    f = tmp_path / "mpc.json"
    f.write_text(json.dumps({"mpc": mpc, "experiments": [
        {"name": "m", "controller": "mpc", "path_kind": "straight",
         "path_size": 40.0}]}))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and next(iter(mpc)) in err


# each once crashed in the middle of the run with a traceback and exit 1
@pytest.mark.parametrize("field, value", [("v", 0.5), ("path_size", -30),
                                          ("max_time", "abc")])
def test_run_config_rejects_a_bad_experiment_value(tmp_path, capsys, field,
                                                   value):
    f = tmp_path / "exp.json"
    f.write_text(json.dumps({"experiments": [
        {"name": "e", "controller": "lq", "path_kind": "straight",
         "path_size": 40.0, field: value}]}))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


# once a traceback with exit 1: the path was first counted as it was built
@pytest.mark.parametrize("path_kind", ["straight", "eight"])
def test_run_config_rejects_an_oversized_path(tmp_path, capsys, path_kind):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"experiments": [
        {"name": "b", "controller": "lq", "path_kind": path_kind,
         "path_size": 1e9}]}))
    assert main(["run", "--config", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "samples" in captured.err
    assert captured.out == ""


# each once ran: a bool or a string is not a number, and a seed of 1.5
# ran as seed 1 (u_max true meant a curvature limit of 1.0 1/m)
@pytest.mark.parametrize("where, field, value", [
    ("experiment", "seed", 1.5), ("experiment", "seed", "7"),
    ("experiment", "v", True), ("experiment", "path_size", True),
    ("experiment", "noise_std", ["0.1", "0", "0", "0", "0"]),
    ("params", "u_max", True), ("mpc", "horizon", True)])
def test_run_config_rejects_a_value_of_the_wrong_type(tmp_path, capsys, where,
                                                      field, value):
    entry = {"name": "w", "controller": "lq", "path_size": 40.0}
    cfg = {"experiments": [entry]}
    if where == "experiment":
        entry[field] = value
    else:
        cfg[where] = {field: value}
    f = tmp_path / "typed.json"
    f.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(f), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and field in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_run_config_integers_run_as_their_floats(tmp_path, capsys):
    logs = []
    for path_size, v in ((40, -1), (40.0, -1.0)):
        f = tmp_path / "int.json"
        f.write_text(json.dumps({"experiments": [
            {"name": "i", "controller": "lq", "path_size": path_size, "v": v,
             "perturbation": [1, 0, 0, 0]}]}))
        out = tmp_path / str(path_size)
        assert main(["run", "--config", str(f), "--out-dir", str(out)]) == 0
        logs.append(np.genfromtxt(out / "i_lq.csv", delimiter=",", names=True))
    assert np.array_equal(logs[0]["u_cmd"], logs[1]["u_cmd"])
    assert np.array_equal(logs[0]["s_m"], logs[1]["s_m"])


# "a/b" once ran, then died writing out/a/b_lq.csv; a second "a" once
# overwrote the first one's CSV
@pytest.mark.parametrize("names", [["a/b"], [""], [7], ["a", "a"]])
def test_run_config_rejects_a_bad_or_repeated_name(tmp_path, capsys, names):
    f = tmp_path / "names.json"
    f.write_text(json.dumps({"experiments": [
        {"name": name, "controller": "lq", "path_size": 40.0} for name in names]}))
    assert main(["run", "--config", str(f), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: name") and captured.out == ""


# "params_file": 5 once opened file descriptor 5, and "out_dir": 5 ended
# in a TypeError traceback with exit 1
@pytest.mark.parametrize("key, value", [
    ("out_dir", 5), ("out_dir", ""), ("out_dir", ["out"]), ("out_dir", None),
    ("params_file", 5), ("params_file", ""), ("params_file", True)])
def test_run_config_rejects_a_bad_file_name(tmp_path, capsys, key, value):
    f = tmp_path / "files.json"
    f.write_text(json.dumps({key: value, "experiments": [
        {"name": "f", "controller": "lq", "path_size": 40.0}]}))
    assert main(["run", "--config", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {key} must be a non-empty string")
    assert captured.err.count("\n") == 1 and captured.out == ""


# each once exited 2 with Python's message ("'int' object is not
# iterable", "ExperimentSpec.__init__() missing ...") instead of the field
@pytest.mark.parametrize("cfg, field", [
    ([], "the config must be a JSON object"),
    ({"experiments": 5}, "experiments must be a list"),
    ({"experiments": {"name": "x"}}, "experiments must be a list"),
    ({"experiments": [5]}, "experiments[0] must be an object"),
    ({"experiments": [{"name": "a", "controller": "lq"}, "b"]},
     "experiments[1] must be an object"),
    ({"experiments": [{"controller": "lq"}]}, "experiments[0] has no name"),
    ({"experiments": [{"name": "c"}]}, "experiments[0] has no controller"),
    ({"experiments": [{"path_size": 40.0}]},
     "experiments[0] has no controller, name")])
def test_run_config_names_a_malformed_experiment(tmp_path, capsys, cfg, field):
    f = tmp_path / "shape.json"
    f.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_readme_run_config_passes_the_config_layer():
    from pathlib import Path

    from trailer_mpc.cli import _specs_from_config
    from trailer_mpc.mpc import MpcConfig
    from trailer_mpc.params import VehicleParams

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Run config (JSON)", 1)[1]
    cfg = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    specs = _specs_from_config(cfg)
    assert [spec.name for spec in specs] == [e["name"] for e in cfg["experiments"]]
    MpcConfig(**cfg["mpc"])
    VehicleParams(**cfg["params"])


@pytest.mark.parametrize("noise_std", [0, [], 0.1, [-1, 0, 0, 0, 0]])
def test_run_config_rejects_a_bad_noise_std(tmp_path, capsys, noise_std):
    f = tmp_path / "noise.json"
    f.write_text(json.dumps({"experiments": [
        {"name": "n", "controller": "lq", "path_kind": "straight",
         "path_size": 40.0, "noise_std": noise_std}]}))
    assert main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "noise_std" in err


def test_region_sensing_only(tmp_path, capsys):
    code = main(["region", "--sensing", "--spacing-deg", "10",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    data = np.genfromtxt(tmp_path / "region_grid.csv", delimiter=",", names=True)
    origin = data[(np.abs(data["beta3"]) < 1e-12) & (np.abs(data["beta2"]) < 1e-12)]
    assert origin["visible"] == 1


def test_region_fit_empty_margin(tmp_path, capsys):
    # sensing alone marks nothing Stable, so fitting must report an empty region
    code = main(["region", "--sensing", "--fit", "--margin", "2.0",
                 "--spacing-deg", "10", "--out-dir", str(tmp_path)])
    assert code == 1


def test_region_fit_alone_computes_both_grids(tmp_path, capsys):
    from trailer_mpc import (MpcConfig, VehicleParams, make_axes,
                             sensing_region, stability_sweep)

    main(["region", "--fit", "--spacing-deg", "30", "--distance", "20",
          "--out-dir", str(tmp_path)])
    data = np.genfromtxt(tmp_path / "region_grid.csv", delimiter=",", names=True)
    b3, b2 = make_axes(30.0)
    params = VehicleParams()
    visible = sensing_region(params, b3, b2).visible
    stable = stability_sweep(params, MpcConfig(), b3, b2, distance=20.0).stable
    # the CSV lists the cells row by row (beta3 outer, beta2 inner)
    assert np.array_equal(data["visible"].astype(bool), visible.ravel())
    assert np.array_equal(data["stable"].astype(bool), stable.ravel())
    assert stable.any() and visible.any()


def test_region_stability_prints_progress_to_stderr_only(tmp_path, capsys):
    from trailer_mpc import MpcConfig, VehicleParams, make_axes, stability_sweep

    grid_file = tmp_path / "region_grid.csv"
    assert main(["region", "--stability", "--spacing-deg", "15", "--distance",
                 "20", "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {grid_file}\n"
    *lines, work_line = captured.err.splitlines()
    # one line per further tenth of the cells finished
    assert 2 <= len(lines) <= 11
    done = [int(line.split()[2]) for line in lines]
    total = int(lines[-1].split()[4])
    assert all(line.startswith("stability sweep: ") for line in lines)
    assert done == sorted(set(done)) and done[-1] == total
    b3, b2 = make_axes(15.0)
    grid = stability_sweep(VehicleParams(), MpcConfig(), b3, b2, distance=20.0)
    data = np.genfromtxt(grid_file, delimiter=",", names=True)
    assert np.array_equal(data["stable"].astype(bool), grid.stable.ravel())
    # then the sweep's work, in one line
    w = grid.work
    assert w.cells == total
    assert work_line == (
        f"stability sweep work: {total} cells, {w.cell_cycles} cell-cycles, "
        f"{w.qp_answers} QP answers, {w.lq_fallbacks} LQ fallbacks, "
        f"{w.exchanges} exchanges")


def test_region_requires_some_work(capsys):
    assert main(["region"]) == 2


def test_qp_is_an_unknown_command(capsys):
    # the package is the controller: it has no general-QP debug command
    with pytest.raises(SystemExit) as exc:
        main(["qp", "prob.qp"])
    assert exc.value.code == 2
    assert "invalid choice: 'qp'" in capsys.readouterr().err


def _with_output(argv, tmp_path):
    """argv with its command's output option pointed into tmp_path."""
    if argv[0] == "path":
        return argv + ["--out", str(tmp_path / "p.csv")]
    if argv[0] == "region":
        return argv + ["--out-dir", str(tmp_path / "out")]
    return argv


@pytest.mark.parametrize("command", [["path", "--straight", "40"], ["design"],
                                     ["region", "--sensing",
                                      "--spacing-deg", "30"]])
# a missing file, an unknown key and invalid values
@pytest.mark.parametrize("content", [None, "L1 = 4.62\nphi_deg = 140\n",
                                     "L1 = -1\n", "u_max = nan\n",
                                     "L3 = inf\n"])
def test_bad_params_file_is_a_config_error(tmp_path, capsys, command, content):
    f = tmp_path / "vehicle.txt"
    if content is not None:
        f.write_text(content)
    assert main(_with_output(command + ["--params", str(f)], tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


# a tiny positive spacing is valid but means a huge grid, so none is tried
@pytest.mark.parametrize("argv", [
    ["region", "--sensing", "--spacing-deg", "0"],
    ["region", "--sensing", "--spacing-deg=-2"],
    ["region", "--sensing", "--spacing-deg", "91"],
    ["region", "--stability", "--spacing-deg", "30", "--distance", "0"],
    ["region", "--stability", "--spacing-deg", "30", "--distance=-5"],
    ["path", "--straight", "40", "--delta-s", "0"],
    ["path", "--straight", "40", "--delta-s=-0.2"],
    ["path", "--straight", "inf"],
    ["path", "--eight", "nan"],
    ["region", "--sensing", "--fit", "--spacing-deg", "30", "--margin", "nan"],
    ["region", "--sensing", "--fit", "--spacing-deg", "30", "--margin=-1"],
])
def test_bad_grid_or_step_option_is_a_config_error(tmp_path, capsys, argv):
    assert main(_with_output(argv, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(tmp_path.iterdir())
