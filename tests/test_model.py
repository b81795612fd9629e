import dataclasses
import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailer_mpc import (ControlInput, VehicleState, derivatives,
                         integrate_step, segment_poses, speed_ratio)
from trailer_mpc.exceptions import InvalidState, SingularConfiguration
from trailer_mpc.model import chain_terms, derivatives_batch
from trailer_mpc.params import is_int, is_real

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


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, True, "0.1"])
def test_integrate_step_rejects_a_bad_dt(params, dt):
    state = VehicleState(1.0, 2.0, 0.3, 0.1, -0.2)
    with pytest.raises(ValueError, match="dt"):
        integrate_step(params, state, ControlInput(0.1, 1.0), dt)


@pytest.mark.parametrize("substeps", [-1, 0, 1.0, 2.5, True, None])
def test_integrate_step_rejects_a_bad_substep_count(params, substeps):
    # a bool is not a count, and neither is a float that happens to be whole
    state = VehicleState(1.0, 2.0, 0.3, 0.1, -0.2)
    for dt in (0.05, 0.0):
        with pytest.raises(ValueError, match="substeps"):
            integrate_step(params, state, ControlInput(0.1, 1.0), dt,
                           substeps=substeps)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, True, "0.1"])
def test_control_input_rejects_a_curvature_that_is_no_finite_number(u):
    with pytest.raises(ValueError, match="curvature"):
        ControlInput(u, -1)


def test_is_real_and_is_int_take_numbers_of_every_type_alike():
    # the fast path for float and int answers as the ABC checks do
    reals = [0.5, np.float64(0.5), np.float32(0.5), 2, np.int64(2),
             fractions.Fraction(1, 2)]
    for value in reals:
        assert is_real(value) and is_real(value, 0.0, 3.0, closed=True)
        assert not is_real(value, 3.0)
    for value in (True, False, np.bool_(True), "0.5", None, math.nan,
                  math.inf, -math.inf, np.float64(math.nan), 1j):
        assert not is_real(value)
    assert all(is_int(v) for v in (0, -3, np.int64(7), np.int8(-1)))
    assert not any(is_int(v) for v in (True, 1.0, np.float64(1.0), "1", None))


def _reference_step(params, state, inp, dt, substeps):
    """Stage-by-stage RK4 over :func:`derivatives` on lists of five, which
    the float plant step must equal bit for bit."""
    h = dt / substeps
    x = [state.x3, state.y3, state.theta3, state.beta3, state.beta2]
    for _ in range(substeps):
        k1 = derivatives(params, VehicleState(*x), inp)
        x2 = [float(x[i] + 0.5 * h * k1[i]) for i in range(5)]
        k2 = derivatives(params, VehicleState(*x2), inp)
        x3 = [float(x[i] + 0.5 * h * k2[i]) for i in range(5)]
        k3 = derivatives(params, VehicleState(*x3), inp)
        x4 = [float(x[i] + h * k3[i]) for i in range(5)]
        k4 = derivatives(params, VehicleState(*x4), inp)
        x = [float(x[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
             for i in range(5)]
    return VehicleState(*x)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
       theta3=st.floats(-7.0, 7.0), beta3=st.floats(-1.6, 1.6),
       beta2=st.floats(-2.0, 2.0), u=st.floats(-0.4, 0.4),
       v=st.sampled_from([-1, 1]),
       dt=st.floats(0.0, 2.0, exclude_min=True), substeps=st.integers(1, 12))
def test_integrate_step_equals_the_stage_by_stage_rk4(params, x, theta3, beta3,
                                                      beta2, u, v, dt, substeps):
    # the float plant keeps every bit of the list form, and fails at the
    # same stage: |beta3| >= pi/2 raises InvalidState, C1 <= SINGULAR_TOL
    # SingularConfiguration
    state, inp = VehicleState(*x, theta3, beta3, beta2), ControlInput(u, v)
    try:
        want = _reference_step(params, state, inp, dt, substeps)
    except (InvalidState, SingularConfiguration) as exc:
        with pytest.raises((InvalidState, SingularConfiguration)) as got:
            integrate_step(params, state, inp, dt, substeps)
        assert type(got.value) is type(exc)
        return
    got = integrate_step(params, state, inp, dt, substeps)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert all(type(value) is float for value in dataclasses.astuple(got))


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
