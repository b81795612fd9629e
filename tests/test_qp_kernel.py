"""Pinned decisions of the active-set kernel on the controller's own QPs.

Each case solves a QP built from a real condensed structure: the plain
straight-path structure (box and slew rows only, as in the region sweep) and
the default-polytope one (400 soft joint-angle rows, as in the paper runs).
A cold solve from a clipped random plan is followed by a warm solve of a
nearby problem.  ``data/qp_kernel_pins.json`` holds each case's iteration
count and solution.  The kernel's arithmetic is meant to stay fixed, so
counts must match exactly and solutions to 1e-12; a change that moves the
exchange sequence on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_qp_kernel.py --write
"""

import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailer_mpc import MpcConfig, MpcController, VehicleParams
from trailer_mpc.paths import generate_straight
from trailer_mpc.qp import (_solve_active, primal_active_set_solve,
                            soft_qp_solve)

PINS = pathlib.Path(__file__).parent / "data" / "qp_kernel_pins.json"

# error-state draws (lateral offset m, heading, beta3, beta2 in rad)
ERR_LO = np.array([-2.0, -0.2, -0.3, -0.3])
ERR_HI = -ERR_LO
# a nearby problem for the warm follow-up
ERR_NUDGE = np.array([0.05, 0.01, 0.01, 0.01])


def _structures():
    params, cfg = VehicleParams(), MpcConfig()
    path = generate_straight(40.0, -1.0, cfg.delta_s)
    plain = MpcController(params, path, cfg, use_polytope=False)._structure(0)
    soft = MpcController(params, path, cfg)._structure(0)
    return cfg, plain, soft


def _problem(cfg, struct, x0, u_prev, guess):
    """The reduced QP of one control cycle, as MpcController builds it."""
    N, ns = struct.n_inputs, struct.n_slack
    delta = cfg.udot_max / cfg.f_s
    l = struct.l.copy()
    u = struct.u.copy()
    l[struct.row_slew0] = u_prev - delta - struct.ur0
    u[struct.row_slew0] = u_prev + delta - struct.ur0
    if ns:
        u[struct.soft_rows] = struct.hbar - struct.HsPhi @ x0
    l_in, u_in = l[:2 * N], u[:2 * N]
    ut = MpcController._feasible_inputs(struct, l_in, u_in, guess)
    return dict(P=struct.P[:N, :N], q=(struct.W @ x0)[:N],
                A=struct.A[:2 * N, :N], l=l_in, u=u_in,
                G=struct.A[struct.soft_rows, :N], b=u[struct.soft_rows],
                # the region sweep passes (0, 1) when there is no soft row
                sig1=cfg.slack_linear if ns else 0.0,
                sig2=0.5 * float(struct.P[N, N]) if ns else 1.0,
                x0=ut, single_col=struct.single_col_in)


def cases():
    """(name, solver, problem, warm_from) for every pinned case; warm_from
    names the case whose final working set starts this one."""
    cfg, plain, soft = _structures()
    out = []
    for label, struct, seeds in (("plain", plain, range(6)),
                                 ("soft", soft, range(4))):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            x0 = rng.uniform(ERR_LO, ERR_HI)
            u_prev = float(rng.uniform(-0.15, 0.15))
            guess = rng.uniform(-0.2, 0.2, struct.n_inputs)
            cold = f"{label}{seed}"
            out.append((cold, "soft", _problem(cfg, struct, x0, u_prev, guess),
                        None))
            nudged = x0 + ERR_NUDGE * rng.uniform(-1.0, 1.0, 4)
            out.append((cold + "w", "soft",
                        _problem(cfg, struct, nudged, u_prev, guess), cold))
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.uniform(ERR_LO, ERR_HI)
        guess = rng.uniform(-0.2, 0.2, plain.n_inputs)
        out.append((f"primal{seed}", "primal",
                    _problem(cfg, plain, x0, float(rng.uniform(-0.15, 0.15)),
                             guess), None))
    return out


def solve(solver, prob, warm=None):
    """(x, working set, iterations) of one case, or None."""
    if solver == "primal":
        res = primal_active_set_solve(prob["P"], prob["q"], prob["A"], prob["l"],
                                      prob["u"], prob["x0"], 1e-6,
                                      prob["single_col"])
        return None if res is None else (res[0], None, res[3])
    if warm is not None and not len(prob["b"]):
        # the region sweep carries over only the hard-row masks
        empty = np.zeros(0, dtype=bool)
        warm = (warm[0], warm[1], empty, empty)
    res = soft_qp_solve(prob["P"], prob["q"], prob["A"], prob["l"], prob["u"],
                        prob["G"], prob["b"], prob["sig1"], prob["sig2"],
                        prob["x0"], 1e-6, prob["single_col"], warm=warm)
    return None if res is None else (res[0], res[5], res[6])


def record(result):
    if result is None:
        return None
    x, sets, iters = result
    entry = {"iterations": int(iters), "x": [float(v) for v in x]}
    if sets is not None:
        entry["sets"] = [np.flatnonzero(m).tolist() for m in sets]
    return entry


def run_cases():
    done, records = {}, {}
    for name, solver, prob, warm_from in cases():
        warm = done[warm_from][1] if warm_from and done.get(warm_from) else None
        done[name] = solve(solver, prob, warm)
        records[name] = record(done[name])
    return records


@pytest.fixture(scope="module")
def kernel_results():
    return run_cases()


def test_kernel_decisions_match_pins(kernel_results):
    pins = json.loads(PINS.read_text())
    assert sorted(kernel_results) == sorted(pins)
    for name, pin in pins.items():
        got = kernel_results[name]
        if pin is None:
            assert got is None, name
            continue
        assert got is not None, name
        assert got["iterations"] == pin["iterations"], name
        assert got.get("sets") == pin.get("sets"), name
        np.testing.assert_allclose(got["x"], pin["x"], rtol=0.0, atol=1e-12,
                                   err_msg=name)


def test_pinned_cases_exercise_the_kernel():
    pins = json.loads(PINS.read_text())
    solved = {k: v for k, v in pins.items() if v is not None}
    # cold starts take several exchanges, warm follow-ups few, and some
    # soft case ends with a soft row at its kink or eliminated
    assert max(v["iterations"] for v in solved.values()) >= 10
    assert min(v["iterations"] for k, v in solved.items() if k.endswith("w")) <= 3
    assert any(v["sets"][2] for k, v in solved.items() if k.startswith("soft"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       n_rows=st.integers(0, 10))
def test_solve_active_satisfies_active_rows_and_stationarity(seed, n, n_rows):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    # a mix of bound rows (one nonzero) and general rows
    A = rng.normal(size=(n_rows, n))
    bound = rng.random(n_rows) < 0.5
    cols = rng.integers(0, n, n_rows)
    A[bound] = 0.0
    A[bound, cols[bound]] = rng.choice([-1.0, 1.0, 2.0], bound.sum())
    b = rng.normal(size=n_rows)
    single_col = np.where(bound, cols, -1)
    act = np.flatnonzero(rng.random(n_rows) < 0.6)
    # a working set must be linearly independent: keep one bound row per
    # column and at most n - (pinned columns) general rows
    pinned, keep = set(), []
    for i in act:
        if bound[i]:
            if cols[i] not in pinned:
                pinned.add(cols[i])
                keep.append(i)
    general = [i for i in act if not bound[i]][:max(n - len(pinned) - 1, 0)]
    act = np.array(sorted(keep + general), dtype=int)
    res = _solve_active(P, q, A[act], b[act], single_col[act])
    if len(pinned) == n:
        return   # every variable pinned: see the xfail test in test_qp.py
    assert res is not None
    x, lam = res
    assert lam.shape == (len(act),)
    np.testing.assert_allclose(A[act] @ x, b[act], rtol=0.0, atol=1e-9)
    stationarity = P @ x + q + A[act].T @ lam
    assert np.max(np.abs(stationarity), initial=0.0) <= 1e-9


if __name__ == "__main__" and "--write" in sys.argv:
    PINS.parent.mkdir(exist_ok=True)
    # one case per line
    PINS.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(rec)}"
        for name, rec in run_cases().items()) + "\n}\n")
