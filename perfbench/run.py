"""Benchmark of trailer-mpc: paper closed loops and the region sweep.

Run from the repository root:

    python3 perfbench/run.py --workload paper_straight --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all                # every workload

``--trace 0`` measures the end-to-end metrics with no span wrappers installed
(``region_sweep`` alone counts its sweep's QP answers); ``--trace 1`` repeats
the workload with span wrappers at module boundaries and reports the
per-layer metrics instead.  Each workload is a fixed amount of work (30-50 s
on a 2-vCPU VM).  ``--seconds`` is the nominal run length and does not cut
the work, so every count repeats exactly for a given seed.  The last line of standard output is one JSON object; the run
exits non-zero when the correctness gate finds a violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper_straight", "paper_eight", "region_sweep")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40,
                    help="nominal length of one run; the work itself is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Pin BLAS threads, then import the package from this checkout's src."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "trailer_mpc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'trailer_mpc'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import trailer_mpc
    if Path(trailer_mpc.__file__).resolve().parent != (SRC / "trailer_mpc").resolve():
        raise SystemExit(f"perfbench: imported trailer_mpc from {trailer_mpc.__file__}")


def git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts():
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "loadavg_1m": os.getloadavg()[0],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_one(name, seed, trace):
    """Run one workload; returns the contract's result object and details."""
    import spans as tr
    import workloads as wl

    leftover = tr.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers installed before the run: {leftover}")
    tracer = None
    t0 = time.perf_counter()
    if trace:
        tracer = tr.Tracer()
        with tracer:
            result, params, cfg = wl.run_workload(name, seed)
    else:
        result, params, cfg = wl.run_workload(name, seed)
    elapsed = time.perf_counter() - t0
    leftover = tr.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left after the run: {leftover}")

    problems = wl.violations(result, params, cfg, seed)
    e2e, info = wl.end_to_end(result, cfg)
    if not all(math.isfinite(v) for v, _ in e2e.values()):
        problems.append(f"non-finite metric in {e2e}")
    attempted, failed = wl.operations(result)
    if trace:
        metrics = tr.summarize(tracer, e2e["wall_s"][0])
    else:
        metrics = e2e
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return out, {"violations": problems, "info": info, "elapsed_s": elapsed,
                 "end_to_end": {k: v for k, (v, _) in e2e.items()},
                 "tracer": tracer}


def report(name, seed, trace, out, details):
    """Human-readable lines: every metric with its unit and sample counts."""
    info = details["info"]
    n = info["samples"]
    print(f"== {name} seed={seed} trace={trace} "
          f"({details['elapsed_s']:.1f} s, {'correct' if out['correct'] else 'INCORRECT'})")
    for msg in details["violations"]:
        print(f"  violation: {msg}")
    counts = {"setup_s": n["setup_s"], "cycle_p50_ms": n["cycle"]}
    for key, m in out["metrics"].items():
        extra = f"  (n={counts[key]})" if key in counts else ""
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  operations: {out['attempted']} attempted, {out['failed']} failed "
          f"({out['failed'] / out['attempted']:.3%}; failed = MPC cycles that "
          "fell back to LQ, and sweep cell-cycles without a QP answer)")
    print(f"  MPC cycle latency (n={n['cycle']}): p99 {info['cycle_p99_ms']:.4g} ms, "
          f"max {info['cycle_max_ms']:.6g} ms; "
          f"{info['deadline_misses']} cycles ({info['deadline_miss_frac']:.3%}) "
          f"over the {info['deadline_ms']:g} ms period")
    if n["lq_cycle"]:
        print(f"  LQ cycle latency (n={n['lq_cycle']}): p50 {info['lq_cycle_p50_ms']:.4g} ms")
    if "stable_cells" in info:
        print(f"  stable_cells {info['stable_cells']} of {info['region_cells']}")
    print(f"  statuses {info['statuses']}")


def save(name, seed, trace, out, details, facts):
    """Write the result (and, for a traced run, the spans) under .perfbench/."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    doc = {"workload": name, "seed": seed, "trace": trace, "facts": facts,
           "result": out, "info": details["info"],
           "violations": details["violations"],
           "end_to_end": details["end_to_end"]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if details["tracer"] is not None:
        details["tracer"].write(OUT_DIR / f"{stem}-spans.json")
        untraced = OUT_DIR / f"{name}-seed{seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["wall_s"]
            traced = details["end_to_end"]["wall_s"]
            print(f"  tracing overhead: wall_s {traced:.3f} s traced vs "
                  f"{base:.3f} s untraced ({traced / base - 1.0:+.1%})")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    facts = machine_facts()
    print("facts " + json.dumps(facts))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out, details = run_one(name, args.seed, args.trace)
        report(name, args.seed, args.trace, out, details)
        save(name, args.seed, args.trace, out, details, facts)
        results[name] = out
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
