"""The control-cycle contract of MpcController.step over the operating
domain: each cycle ends a run with one of the statuses sim.run maps, or
returns a command inside the actuator limits that a certified QP answer or
the LQ fallback backs, within the chain's iteration caps."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from trailer_mpc import (ControlInput, ControllerState, MpcConfig,
                         MpcController, VehicleParams, integrate_step)
from trailer_mpc.exceptions import (InvalidState, OutOfDomain, ProjectionLost,
                                    SingularConfiguration, ValidityViolated)
from trailer_mpc.mpc import QP_TOL
from trailer_mpc.paths import generate_figure_eight, generate_straight
from trailer_mpc.qp import EXCHANGE_CAP, IPM_MAX_ITER
from trailer_mpc.sim import initial_state

# what sim.run turns into the ValidityLost and Jackknifed statuses
TERMINAL = (ProjectionLost, ValidityViolated, OutOfDomain, InvalidState,
            SingularConfiguration)
PATHS = [("straight", -1.0), ("straight", 1.0), ("eight", -1.0), ("eight", 1.0)]


@functools.cache
def _controller(kind, direction):
    params = VehicleParams()
    path = generate_straight(60.0, direction) if kind == "straight" else \
        generate_figure_eight(20.0, direction, params=params)
    return MpcController(params, path, MpcConfig())


def _holds_the_contract(controller, u_prev, u_cmd, diag):
    width = controller.udot_max / controller.cfg.f_s
    assert abs(u_cmd) <= controller.u_max
    assert u_prev - width <= u_cmd <= u_prev + width
    assert diag.kkt_max <= QP_TOL or diag.solver_path == "lq_fallback"
    assert diag.qp_iterations <= 2 * EXCHANGE_CAP + IPM_MAX_ITER


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PATHS), where=st.floats(0.0, 1.0),
       error=st.tuples(st.floats(-1.0, 1.0), st.floats(-0.5, 0.5),
                       st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
       u_prev=st.floats(-1.0, 1.0), hot=st.booleans())
def test_a_control_cycle_keeps_the_contract(path, where, error, u_prev, hot):
    controller = _controller(*path)
    ref = controller.path
    s = where * (ref.s_end_true - 12.0)
    state = initial_state(ref, error, s)
    ctrl = ControllerState(s_prev=s, u_prev=u_prev * controller.u_max)
    try:
        if hot:
            u_prev = ctrl.u_prev
            u_cmd, diag = controller.step(state, ctrl)
            _holds_the_contract(controller, u_prev, u_cmd, diag)
            state = integrate_step(controller.params, state,
                                   ControlInput(u_cmd, path[1]),
                                   1.0 / controller.cfg.f_s, substeps=10)
        u_prev = ctrl.u_prev
        u_cmd, diag = controller.step(state, ctrl)
    except TERMINAL:
        return
    _holds_the_contract(controller, u_prev, u_cmd, diag)
