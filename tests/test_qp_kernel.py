"""Pinned decisions of the active-set kernel on the controller's own QPs.

Each case solves a QP built from the plain straight-path condensed
structure (box and slew rows only, as in the region sweep) with
``soft_qp_solve`` without a hot start, the region sweep's solve.
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

from trailer_mpc import (JointAnglePolytope, MpcConfig, MpcController,
                         VehicleParams)
from trailer_mpc.mpc import QP_TOL
from trailer_mpc.paths import generate_straight
from trailer_mpc.qp import (EXCHANGE_CAP, IPM_MAX_ITER, _WorkingFactor,
                            certified_solve, row_structure, soft_qp_solve)
from trailer_mpc.regions import _feasible_inputs

PINS = pathlib.Path(__file__).parent / "data" / "qp_kernel_pins.json"

# the polytope with no rows: a controller without joint-angle rows
NO_JOINT_ROWS = JointAnglePolytope(np.zeros((0, 2)), np.zeros(0))

# error-state draws (lateral offset m, heading, beta3, beta2 in rad)
ERR_LO = np.array([-2.0, -0.2, -0.3, -0.3])
ERR_HI = -ERR_LO
# a nearby problem for the warm follow-up
ERR_NUDGE = np.array([0.05, 0.01, 0.01, 0.01])


def _controllers():
    params, cfg = VehicleParams(), MpcConfig()
    path = generate_straight(40.0, -1.0, cfg.delta_s)
    return (cfg, MpcController(params, path, cfg, NO_JOINT_ROWS),
            MpcController(params, path, cfg))


def _bounds(cfg, struct, x0, u_prev):
    """(q, l, u, b) of one control cycle's QP: the linear cost, the hard
    rows' bounds and the soft rows' bounds, as MpcController.step builds
    them."""
    l, u, _, _ = struct.cycle_bounds(u_prev, cfg.udot_max / cfg.f_s)
    return struct.W @ x0, l, u, struct.hbar - struct.HsPhi @ x0


def _draw(seed, n_inputs):
    """(error state, previous command, input-plan guess) of a case."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(ERR_LO, ERR_HI), float(rng.uniform(-0.15, 0.15)),
            rng.uniform(-0.2, 0.2, n_inputs), rng)


def _problem(cfg, struct, x0, u_prev, guess):
    """The reduced QP of one control cycle, as MpcController builds it."""
    q, l, u, b = _bounds(cfg, struct, x0, u_prev)
    N = struct.n_inputs
    ut = _feasible_inputs(struct, l[N], u[N], guess)
    # without soft rows the penalties are unused; the region sweep passes
    # (0, 1)
    return dict(P=struct.P_uu, q=q, A=struct.A_in, l=l, u=u, G=struct.G, b=b,
                sig1=0.0, sig2=1.0, x0=ut,
                single_col=row_structure(struct.A_in))


def cases():
    """(name, problem, warm_from) for every pinned case; warm_from names
    the case whose final working set starts this one."""
    cfg, plain, _ = _controllers()
    struct = plain._structure(0)
    out = []
    for seed in range(6):
        x0, u_prev, guess, rng = _draw(seed, struct.n_inputs)
        cold = f"plain{seed}"
        out.append((cold, _problem(cfg, struct, x0, u_prev, guess), None))
        nudged = x0 + ERR_NUDGE * rng.uniform(-1.0, 1.0, 4)
        out.append((cold + "w",
                    _problem(cfg, struct, nudged, u_prev, guess), cold))
    return out


def solve(prob, warm=None):
    """(x, working set, iterations) of one case, or None."""
    res = soft_qp_solve(prob["P"], prob["q"], prob["A"], prob["l"], prob["u"],
                        prob["G"], prob["b"], prob["sig1"], prob["sig2"],
                        prob["x0"], prob["single_col"], warm=warm)
    return None if res is None else (res[0], res[5], res[6])


def record(result):
    if result is None:
        return None
    x, (sides, _), iters = result
    # the pins' layout: rows at their lower and upper side, then the two
    # soft masks the kernel leaves empty
    return {"iterations": int(iters), "x": [float(v) for v in x],
            "sets": [np.flatnonzero(sides < 0).tolist(),
                     np.flatnonzero(sides > 0).tolist(), [], []]}


def run_cases():
    done, records = {}, {}
    for name, prob, warm_from in cases():
        warm = done[warm_from][1] if warm_from and done.get(warm_from) else None
        done[name] = solve(prob, warm)
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
    # cold starts take several exchanges, warm follow-ups few
    assert max(v["iterations"] for v in solved.values()) >= 10
    assert min(v["iterations"] for k, v in solved.items() if k.endswith("w")) <= 3


@pytest.mark.parametrize("name", ["soft1", "soft2"])
def test_controller_answers_the_cold_cases_the_active_set_gives_up_on(name):
    # two cold starts on the default-polytope structure (400 soft
    # joint-angle rows), which need many exchanges: the controller's chain,
    # without a hot start, answers them by the IPM and its crossover
    cfg, _, controller = _controllers()
    struct = controller._structure(0)
    x0, u_prev, _, _ = _draw(int(name[-1]), struct.n_inputs)
    q, l, u, b = _bounds(cfg, struct, x0, u_prev)
    sol, path, hot = certified_solve(
        struct.P_uu, q, struct.A_in, l, u, struct.G, b, cfg.slack_linear,
        cfg.slack_quad, QP_TOL)
    assert path == "ipm"
    assert sol.status == "Optimal"
    assert max(sol.primal_residual, sol.dual_residual,
               sol.comp_residual) <= QP_TOL
    assert sol.iterations <= EXCHANGE_CAP + IPM_MAX_ITER
    assert hot is not None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       n_rows=st.integers(0, 10))
def test_working_factor_satisfies_active_rows_and_stationarity(seed, n,
                                                                n_rows):
    # the working-set factorization on hard rows alone, as the active set
    # without a hot start builds it
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
    # every variable pinned is solved too: the factorization has no
    # all-pinned give-up
    work = _WorkingFactor(P, q, A, np.zeros((0, n)), np.zeros(0), 0.0, 1.0,
                          act[:0], act, b[act])
    res = work.solve()
    assert res is not None
    x, lam = res
    assert lam.shape == (n_rows,)
    assert not lam[np.setdiff1d(np.arange(n_rows), act)].any()
    np.testing.assert_allclose(A[act] @ x, b[act], rtol=0.0, atol=1e-9)
    stationarity = P @ x + q + A[act].T @ lam[act]
    assert np.max(np.abs(stationarity), initial=0.0) <= 1e-9


if __name__ == "__main__" and "--write" in sys.argv:
    PINS.parent.mkdir(exist_ok=True)
    # one case per line
    PINS.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(rec)}"
        for name, rec in run_cases().items()) + "\n}\n")
