"""The known cold control cycles at or over the interior point's iteration
cap, as recipes: one MpcController.step on the backward figure-eight of
radius 20 with the default octagon, from a station, an error in path
coordinates and the last command.  They were found by drawing random cold
cycles (ROADMAP items 4 and 11); no arrays are stored."""

import numpy as np
import pytest

from trailer_mpc import ControllerState, MpcConfig, MpcController
from trailer_mpc.mpc import QP_TOL
from trailer_mpc.qp import IPM_MAX_ITER
from trailer_mpc.sim import initial_state

# (station s, error (z3, theta3, beta3, beta2), u_prev, solver path,
# crossover breakpoints); the two fallbacks have u_prev at the curvature
# limit, and the other two reach the cap and are still certified.  Every
# one runs the interior point to its cap, and its crossover gives up (the
# fallbacks) or lands at once after the breakpoints given
COLD_CYCLES = [
    (132.85637551112515, (-0.8599479541470234, 0.12718054123512745,
                          0.7890378809997669, -0.6835023739110233),
     0.17895152371457368, "lq_fallback", 1),
    (132.13669948742395, (-0.47499050775923934, 0.265322870832175,
                          -0.6041624272387314, -0.7778897242922437),
     0.17891267344273443, "lq_fallback", 0),
    (148.28653022385788, (-0.884861788000681, -0.15108888678220833,
                          0.1779323135059624, -0.35244921003926777),
     0.1750149428476519, "ipm", 0),
    (230.8706534978993, (-0.609958361772929, -0.016171905969325273,
                         0.07742271318403637, 0.4697150539803916),
     -0.16939940577257015, "ipm", 0),
]


@pytest.mark.parametrize("s, error, u_prev, path, breakpoints", COLD_CYCLES,
                         ids=[f"s{s:.1f}" for s, *_ in COLD_CYCLES])
def test_a_cold_cycle_at_the_cap_needs_no_failure_label(
        params, eight_back, monkeypatch, s, error, u_prev, path, breakpoints):
    # the controller never asks why a QP failed: the LQ fallback runs
    # whatever the cause, so a failed cycle makes no SVD or least-squares
    # call (their failure label once took half of its time)
    calls = []

    def counted(fn):
        def spy(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return spy

    for name in ("svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    controller = MpcController(params, eight_back, MpcConfig())
    state = initial_state(controller.path, error, s)
    _, diag = controller.step(state, ControllerState(u_prev=u_prev, s_prev=s))
    assert calls == []
    assert diag.solver_path == path
    # what the solvers did, also where the crossover gave up
    assert diag.qp_iterations == IPM_MAX_ITER + breakpoints
    if path == "ipm":
        assert diag.kkt_max <= QP_TOL
