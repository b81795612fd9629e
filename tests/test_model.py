import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailer_mpc import (ControlInput, VehicleState, derivatives,
                         integrate_step, segment_poses, speed_ratio)
from trailer_mpc.exceptions import InvalidState, SingularConfiguration
from trailer_mpc.model import chain_terms, derivatives_batch

# M = diag(1, -1, -1, -1, -1): the chain mirrored about the path's x axis
MIRROR = np.array([1.0, -1.0, -1.0, -1.0, -1.0])


def test_speed_ratio_frozen_value(params):
    # frozen oracle: cos(0.2) * (cos(0.3) + 1.66 * sin(0.3) * 0.1)
    assert speed_ratio(params, 0.3, 0.2, 0.1) == pytest.approx(
        0.9843718568700349, abs=1e-15)


def test_speed_ratio_zero_angles(params):
    assert speed_ratio(params, 0.0, 0.0, 0.18) == pytest.approx(1.0, abs=1e-15)


def test_derivatives_straight_line(params):
    state = VehicleState(0.0, 0.0, 0.0, 0.0, 0.0)
    dx = derivatives(params, state, ControlInput(0.0, -1.0))
    assert np.allclose(dx, [-1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
    dx = derivatives(params, state, ControlInput(0.0, 1.0))
    assert np.allclose(dx, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_derivatives_heading_rotates_velocity(params):
    th = 0.7
    state = VehicleState(1.0, -2.0, th, 0.0, 0.0)
    dx = derivatives(params, state, ControlInput(0.0, 1.0))
    assert dx[0] == pytest.approx(math.cos(th), abs=1e-15)
    assert dx[1] == pytest.approx(math.sin(th), abs=1e-15)


def test_derivatives_joint_rates_against_finite_difference(params, rng):
    # the flow must be the time-derivative of the RK4 integrator's output
    for _ in range(20):
        state = VehicleState(*rng.uniform(-0.5, 0.5, 5))
        u = float(rng.uniform(-0.18, 0.18))
        v = float(rng.choice([-1.0, 1.0]))
        dx = derivatives(params, state, ControlInput(u, v))
        h = 1e-6
        fwd = integrate_step(params, state, ControlInput(u, v), h).as_array()
        num = (fwd - state.as_array()) / h
        assert np.allclose(dx, num, atol=1e-5)


def test_invalid_state_beta3_at_right_angle(params):
    state = VehicleState(0.0, 0.0, 0.0, math.pi / 2.0, 0.0)
    with pytest.raises(InvalidState):
        derivatives(params, state, ControlInput(0.0, -1.0))


def test_singular_configuration(params):
    # beta2 = pi/2 makes C1 = cos(beta3) * M1 * u; u <= 0 is singular
    state = VehicleState(0.0, 0.0, 0.0, 0.0, math.pi / 2.0)
    with pytest.raises(SingularConfiguration):
        derivatives(params, state, ControlInput(-0.1, -1.0))
    # positive curvature keeps the chain regular there
    dx = derivatives(params, state, ControlInput(0.15, -1.0))
    assert np.all(np.isfinite(dx))


def test_control_input_direction_validated():
    with pytest.raises(ValueError):
        ControlInput(0.0, 0.0)
    ControlInput(0.0, 1)
    ControlInput(0.0, -1.0)


def test_integrate_step_fourth_order(params):
    state = VehicleState(0.0, 0.0, 0.1, 0.2, -0.1)
    inp = ControlInput(0.12, -1.0)
    coarse = integrate_step(params, state, inp, 0.2, substeps=1).as_array()
    fine = integrate_step(params, state, inp, 0.2, substeps=8).as_array()
    finest = integrate_step(params, state, inp, 0.2, substeps=64).as_array()
    err_coarse = np.max(np.abs(coarse - finest))
    err_fine = np.max(np.abs(fine - finest))
    assert err_fine < err_coarse / 100.0  # RK4: 8x substeps ~ 4096x accuracy
    assert err_fine < 1e-11


def test_integrate_step_zero_dt_identity(params):
    state = VehicleState(1.0, 2.0, 0.3, 0.1, -0.2)
    out = integrate_step(params, state, ControlInput(0.1, 1.0), 0.0)
    assert np.allclose(out.as_array(), state.as_array())
    with pytest.raises(ValueError):
        integrate_step(params, state, ControlInput(0.1, 1.0), -0.1)


def test_segment_poses_aligned_chain(params):
    state = VehicleState(0.0, 0.0, 0.0, 0.0, 0.0)
    poses = segment_poses(params, state)
    assert poses.semitrailer == (0.0, 0.0, 0.0)
    assert poses.dolly[0] == pytest.approx(params.L3)
    assert poses.tractor[0] == pytest.approx(params.L3 + params.L2 + params.M1)
    assert poses.tractor[1] == pytest.approx(0.0)


def test_segment_poses_heading_composition(params):
    state = VehicleState(0.0, 0.0, 0.2, 0.3, -0.1)
    poses = segment_poses(params, state)
    assert poses.dolly[2] == pytest.approx(0.5)
    assert poses.tractor[2] == pytest.approx(0.4)


def test_derivatives_batch_matches_scalar(params, rng):
    X = rng.uniform(-0.4, 0.4, size=(5, 30))
    u = rng.uniform(-0.15, 0.15, size=30)
    out, c1 = derivatives_batch(params, X, u, -1.0)
    for k in range(30):
        state = VehicleState.from_array(X[:, k])
        dx = derivatives(params, state, ControlInput(float(u[k]), -1.0))
        assert np.allclose(out[:, k], dx, atol=1e-12)
        assert c1[k] == pytest.approx(
            speed_ratio(params, X[4, k], X[3, k], u[k]), abs=1e-14)


def _random_chains(seed, k):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.uniform(-50.0, 50.0, (2, k)), rng.uniform(-4.0, 4.0, k),
                   rng.uniform(-1.6, 1.6, (2, k))])
    return X, rng.uniform(-0.3, 0.3, k)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), v=st.sampled_from([-1.0, 1.0]))
def test_flow_is_exactly_odd_symmetric(params, seed, v):
    # f(M x, -u) = M f(x, u) exactly: the region sweep simulates half the
    # joint-angle grid and mirrors its labels onto the other half
    X, u = _random_chains(seed, 40)
    for k in range(X.shape[1]):
        inp, inp_m = ControlInput(float(u[k]), v), ControlInput(float(-u[k]), v)
        state_m = VehicleState.from_array(MIRROR * X[:, k])
        try:
            f = derivatives(params, VehicleState.from_array(X[:, k]), inp)
        except (InvalidState, SingularConfiguration) as exc:
            with pytest.raises(type(exc)):
                derivatives(params, state_m, inp_m)
            continue
        assert np.array_equal(derivatives(params, state_m, inp_m), MIRROR * f)
    out, c1 = derivatives_batch(params, X, u, v)
    out_m, c1_m = derivatives_batch(params, MIRROR[:, None] * X, -u, v)
    assert np.array_equal(out_m, MIRROR[:, None] * out)
    assert np.array_equal(c1_m, c1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chain_terms_on_arrays_equal_its_float_results(params, seed):
    # one implementation for the plant (floats) and the sweep (arrays)
    X, u = _random_chains(seed, 30)
    sb2, cb2, cb3 = np.sin(X[4]), np.cos(X[4]), np.cos(X[3])
    for u_arg in (u, float(u[0])):
        terms = chain_terms(params, sb2, cb2, cb3, u_arg)
        for k in range(X.shape[1]):
            u_k = float(u[k]) if isinstance(u_arg, np.ndarray) else u_arg
            scalar = chain_terms(params, float(sb2[k]), float(cb2[k]),
                                 float(cb3[k]), u_k)
            assert [float(t[k]) for t in terms] == list(scalar)
