"""Command-line interface: path generation, controller design, closed-loop
experiment runs and region analysis.

All outputs are CSV/JSON; run configs are JSON files (see README for the
schema).  Exit codes: 0 success, 1 runtime failure (infeasible path, empty
region, --expect mismatch), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .error_model import analytic_straight_model
from .exceptions import EmptyRegion, InfeasiblePath, TrailerMpcError
from .mpc import JointAnglePolytope, MpcConfig, design_cost
from .params import VehicleParams, is_real
from .paths import generate_figure_eight, generate_straight
from .regions import (RegionGrid, fit_inner_polytope, make_axes, merge,
                      sensing_region, stability_sweep)
from .sim import STATUSES, ExperimentSpec, paper_suite, run_suite

USAGE_ERROR = 2
RUNTIME_ERROR = 1
# the keys a run config and each of its experiments may hold
CONFIG_KEYS = {"experiments", "params", "params_file", "mpc", "out_dir"}
EXPERIMENT_KEYS = {f.name for f in dataclasses.fields(ExperimentSpec)}
# a run config's defaults for ExperimentSpec fields that have none, and the
# fields an experiment must give
EXPERIMENT_DEFAULTS = {"path_kind": "straight", "path_size": 120.0}
EXPERIMENT_REQUIRED = {f.name for f in dataclasses.fields(ExperimentSpec)
                       if f.default is dataclasses.MISSING} - EXPERIMENT_DEFAULTS.keys()


class _ConfigError(Exception):
    """A bad parameter file or option value; main reports it with exit 2."""


def _load_params(path):
    try:
        return VehicleParams.from_file(path) if path else VehicleParams()
    except (OSError, ValueError) as exc:
        raise _ConfigError(exc) from exc


def _require_positive(option, value):
    if not is_real(value, 0.0):
        raise _ConfigError(f"{option} must be a positive number, got {value}")


def cmd_path(args) -> int:
    _require_positive("--delta-s", args.delta_s)
    params = _load_params(args.params)
    direction = -1.0 if args.reverse else 1.0
    try:
        if args.straight is not None:
            _require_positive("--straight", args.straight)
            path = generate_straight(args.straight, direction, args.delta_s)
        else:
            _require_positive("--eight", args.eight)
            path = generate_figure_eight(args.eight, direction, args.delta_s,
                                         params=params)
    except (InfeasiblePath, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    path.write_csv(args.out)
    print(f"wrote {len(path)} samples to {args.out}")
    return 0


def cmd_design(args) -> int:
    params = _load_params(args.params)
    cfg = MpcConfig()
    model = analytic_straight_model(params, -1.0 if args.reverse else 1.0,
                                    cfg.delta_s)
    cost = design_cost(params, cfg, model)
    out = {
        "Q": cost.Q.tolist(),
        "P": cost.P.tolist(),
        "K": cost.K.tolist(),
        "spectral_radius": cost.spectral_radius,
    }
    print(json.dumps(out, indent=2))
    return 0


def _reject_unknown(keys, known, where):
    unknown = set(keys) - known
    if unknown:
        raise ValueError(f"unknown {where} key(s) {sorted(unknown)}")


def _specs_from_config(cfg_dict):
    """The config's experiments as ExperimentSpecs, from the values as given."""
    if not isinstance(cfg_dict, dict):
        raise ValueError("the config must be a JSON object")
    _reject_unknown(cfg_dict, CONFIG_KEYS, "config")
    for key in ("out_dir", "params_file"):
        if key in cfg_dict and not (isinstance(cfg_dict[key], str) and cfg_dict[key]):
            raise ValueError(f"{key} must be a non-empty string, got {cfg_dict[key]!r}")
    experiments = cfg_dict.get("experiments", [])
    if not isinstance(experiments, list):
        raise ValueError(f"experiments must be a list, got {experiments!r}")
    specs = []
    for i, entry in enumerate(experiments):
        if not isinstance(entry, dict):
            raise ValueError(f"experiments[{i}] must be an object, got {entry!r}")
        _reject_unknown(entry, EXPERIMENT_KEYS, "experiment")
        missing = sorted(EXPERIMENT_REQUIRED - entry.keys())
        if missing:
            raise ValueError(f"experiments[{i}] has no {', '.join(missing)}")
        spec = ExperimentSpec(**{**EXPERIMENT_DEFAULTS, **entry})
        if any((s.name, s.controller) == (spec.name, spec.controller) for s in specs):
            raise ValueError(f"name {spec.name!r} repeats for controller {spec.controller!r}")
        specs.append(spec)
    return specs


def cmd_run(args) -> int:
    try:
        # --expect's entries by controller, in lower case, checked before any run
        expected = {}
        for item in args.expect.split(",") if args.expect else []:
            key, _, value = (part.strip().lower() for part in item.partition("="))
            if key not in ("mpc", "lq") or value not in [s.lower() for s in STATUSES]:
                raise ValueError(f"--expect entry {item!r} is not mpc=STATUS or lq=STATUS "
                                 f"with STATUS one of {', '.join(STATUSES)}")
            expected[key] = value
        if args.preset == "paper":
            cfg_dict = {}
            specs = paper_suite()
        else:
            with open(args.config) as fh:
                cfg_dict = json.load(fh)
            specs = _specs_from_config(cfg_dict)
            if not specs:
                raise ValueError("config contains no experiments")
        params = VehicleParams(**cfg_dict["params"]) if "params" in cfg_dict else \
            _load_params(cfg_dict.get("params_file", args.params))
        mpc_cfg = MpcConfig(**cfg_dict.get("mpc", {}))
        # an oversized path is a config error, found before any run starts
        for spec in specs:
            spec.sample_count(mpc_cfg.delta_s)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    out_dir = args.out_dir or cfg_dict.get("out_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    summaries = run_suite(specs, params, mpc_cfg, out_dir=out_dir,
                          stop_on_converged=not args.full_length)
    print(json.dumps(summaries, indent=2))
    for summary in summaries:
        want = expected.get(summary["controller"])
        if want is not None and summary["status"].lower() != want:
            print(f"expect mismatch: {summary['name']} ({summary['controller']}) "
                  f"finished {summary['status']}, wanted {want}", file=sys.stderr)
            return RUNTIME_ERROR
    return 0


def _sweep_progress():
    """A ``stability_sweep`` progress callback that prints one line to
    stderr per further tenth of the cells finished: 11 lines at most."""
    printed = -1

    def report(done, total):
        nonlocal printed
        tenth = 10 * done // total
        if tenth > printed:
            printed = tenth
            print(f"stability sweep: {done} of {total} cells finished",
                  file=sys.stderr, flush=True)
    return report


def cmd_region(args) -> int:
    # --fit alone computes both grids
    both = args.fit and not (args.sensing or args.stability)
    sensing, stability = args.sensing or both, args.stability or both
    if not (sensing or stability):
        print("nothing to do: pass --sensing, --stability and/or --fit",
              file=sys.stderr)
        return USAGE_ERROR
    _require_positive("--distance", args.distance)
    if not is_real(args.margin, 0.0, closed=True):
        raise _ConfigError(f"--margin must be a non-negative number, got {args.margin}")
    params = _load_params(args.params)
    try:
        b3_axis, b2_axis = make_axes(args.spacing_deg)
    except ValueError as exc:
        raise _ConfigError(f"--spacing-deg: {exc}") from exc
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    grid = None
    if sensing:
        grid = sensing_region(params, b3_axis, b2_axis)
    if stability:
        stab = stability_sweep(params, MpcConfig(), b3_axis, b2_axis,
                               distance=args.distance,
                               progress=_sweep_progress())
        print("stability sweep work: {0.cells} cells, {0.cell_cycles} cell-cycles, "
              "{0.qp_answers} QP answers, {0.lq_fallbacks} LQ fallbacks, "
              "{0.exchanges} exchanges".format(stab.work), file=sys.stderr)
        grid = merge(grid, stab) if grid is not None else stab
    grid_file = os.path.join(out_dir, "region_grid.csv")
    grid.write_csv(grid_file)
    print(f"wrote {grid_file}")
    if args.fit:
        try:
            poly = fit_inner_polytope(grid, margin=args.margin)
        except EmptyRegion as exc:
            print(f"error: {exc}", file=sys.stderr)
            return RUNTIME_ERROR
        poly_file = os.path.join(out_dir, "polytope.csv")
        poly.write_csv(poly_file)
        print(f"wrote {poly_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trailer-mpc",
        description="Path-following MPC for a general 2-trailer in reverse.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("path", help="generate a nominal path CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--straight", type=float, metavar="LENGTH")
    group.add_argument("--eight", type=float, metavar="RADIUS")
    p.add_argument("--reverse", action="store_true", help="backward motion")
    p.add_argument("--delta-s", type=float, default=0.2)
    p.add_argument("--params", help="vehicle parameter file (key = value)")
    p.add_argument("--out", default="path.csv")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("design", help="print cost matrices and LQ gain")
    p.add_argument("--reverse", action="store_true", default=True)
    p.add_argument("--forward", dest="reverse", action="store_false")
    p.add_argument("--params")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("run", help="run experiments from a JSON config")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="FILE")
    group.add_argument("--preset", choices=["paper"])
    p.add_argument("--params")
    p.add_argument("--out-dir")
    p.add_argument("--expect", metavar="CTRL=STATUS[,...]")
    p.add_argument("--full-length", action="store_true",
                   help="do not stop early on convergence")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("region", help="stability / sensing region analysis")
    p.add_argument("--sensing", action="store_true")
    p.add_argument("--stability", action="store_true")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--spacing-deg", type=float, default=2.0)
    p.add_argument("--distance", type=float, default=150.0)
    p.add_argument("--params")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_region)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TrailerMpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
