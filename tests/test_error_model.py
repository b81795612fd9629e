import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailer_mpc import (MpcConfig, MpcController, PathError, VehicleState,
                         analytic_straight_model, compute_error,
                         error_dynamics_s, linearize)
from trailer_mpc.error_model import wrap_angle
from trailer_mpc.exceptions import ValidityViolated
from trailer_mpc.paths import generate_straight, interpolate
from trailer_mpc.sim import initial_state


def test_wrap_angle():
    # the range is [-pi, pi): an odd multiple of pi wraps to -pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    assert wrap_angle(7.0 * math.pi) == pytest.approx(-math.pi)


def test_wrap_angle_of_an_array_is_that_of_each_float():
    a = np.random.default_rng(0).uniform(-20.0, 20.0, 1000)
    a[:3] = (-math.pi, math.pi, 0.0)
    assert np.array_equal(wrap_angle(a), [wrap_angle(float(x)) for x in a])


def test_an_infinite_heading_is_no_valid_error(straight_back):
    with pytest.raises(ValidityViolated):
        compute_error(VehicleState(0.0, 0.0, math.inf, 0.0, 0.0), straight_back, 0.0)


def test_origin_is_equilibrium_straight(params, straight_back):
    zero = np.zeros(4)
    for s in np.linspace(0.0, 100.0, 97):
        de = error_dynamics_s(params, straight_back, float(s), zero, 0.0)
        assert np.max(np.abs(de)) < 1e-12


def test_origin_is_equilibrium_eight(params, eight_back):
    zero = np.zeros(4)
    for s in np.linspace(0.0, eight_back.s_end - 1.0, 97):
        de = error_dynamics_s(params, eight_back, float(s), zero, 0.0)
        assert np.max(np.abs(de)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(direction=st.sampled_from([-1.0, 1.0]), s=st.floats(0.0, 38.0))
def test_linearize_matches_analytic_on_straight(params, direction, s):
    path = generate_straight(40.0, direction, 0.2)
    num = linearize(params, interpolate(path, s), 0.2)
    ana = analytic_straight_model(params, direction, 0.2)
    assert np.max(np.abs(num.A - ana.A)) < 1e-7
    assert np.max(np.abs(num.B - ana.B)) < 1e-7
    assert np.max(np.abs(num.F - ana.F)) < 1e-7
    assert np.max(np.abs(num.G - ana.G)) < 1e-7


def _central_diff_jacobians(params, path, s, h=1e-6):
    A = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        A[:, j] = (error_dynamics_s(params, path, s, e, 0.0) -
                   error_dynamics_s(params, path, s, -e, 0.0)) / (2.0 * h)
    B = (error_dynamics_s(params, path, s, np.zeros(4), h) -
         error_dynamics_s(params, path, s, np.zeros(4), -h)) / (2.0 * h)
    return A, B


@pytest.mark.parametrize("kind", ["straight", "eight"])
def test_jacobians_against_independent_differences(params, straight_back,
                                                   eight_back, kind, rng):
    path = straight_back if kind == "straight" else eight_back
    for s in rng.uniform(1.0, path.s_end - 12.0, 25):
        model = linearize(params, interpolate(path, float(s)), 0.2)
        A_ref, B_ref = _central_diff_jacobians(params, path, float(s))
        scale = max(1.0, np.max(np.abs(A_ref)))
        assert np.max(np.abs(model.A - A_ref)) / scale < 1e-6
        assert np.max(np.abs(model.B - B_ref)) / max(1.0, np.max(np.abs(B_ref))) < 1e-6


def richardson_model(params, path, s, delta_s):
    """(F, G) at station s from Richardson-refined central differences of
    error_dynamics_s, one station at a time, with linearize's steps and
    order of operations: the reference for the controller's station
    table."""
    h = 2e-5

    def diff(e, step):
        return (error_dynamics_s(params, path, s, e * step, 0.0) -
                error_dynamics_s(params, path, s, -e * step, 0.0)) / (2.0 * step)

    def diff_u(step):
        return (error_dynamics_s(params, path, s, np.zeros(4), step) -
                error_dynamics_s(params, path, s, np.zeros(4), -step)) / (2.0 * step)

    A = np.zeros((4, 4))
    for j in range(4):
        ej = np.zeros(4)
        ej[j] = 1.0
        A[:, j] = (4.0 * diff(ej, h / 2.0) - diff(ej, h)) / 3.0
    B = (4.0 * diff_u(h / 2.0) - diff_u(h)) / 3.0
    return np.eye(4) + delta_s * A, delta_s * B


@pytest.mark.parametrize("kind", ["straight", "eight"])
def test_station_table_matches_the_station_by_station_reference(
        params, straight_back, eight_back, kind):
    path = straight_back if kind == "straight" else eight_back
    controller = MpcController(params, path, MpcConfig())
    ext = controller.path
    for i in range(len(ext)):
        F, G = richardson_model(params, ext, float(ext.s[i]), ext.delta_s)
        k = controller._ids[i]
        got_F, got_G = controller._F[k], controller._G[k]
        if kind == "straight":
            # every station is the origin's, and the bits agree
            assert got_F.tobytes() == F.tobytes()
            assert got_G.tobytes() == G.tobytes()
        else:
            # the table linearizes at the samples, the reference at the
            # interpolated station, which may be an ulp off
            assert np.max(np.abs(got_F - F)) <= 1e-12
            assert np.max(np.abs(got_G - G)) <= 1e-12


def test_compute_error_recovers_perturbation(params, eight_back):
    pert = (0.8, 0.15, 0.1, -0.2)
    state = initial_state(eight_back, pert, start_s=30.0)
    s, err, ref = compute_error(state, eight_back, s_prev=30.0)
    assert s == pytest.approx(30.0, abs=2e-3)
    # the reference the error was taken against, for the controller's use
    assert ref == interpolate(eight_back, s)
    assert err.z3t == pytest.approx(pert[0], abs=2e-3)
    assert err.theta3t == pytest.approx(pert[1], abs=2e-3)
    assert err.beta3t == pytest.approx(pert[2], abs=2e-3)
    assert err.beta2t == pytest.approx(pert[3], abs=2e-3)


def test_compute_error_zero_on_path(params, straight_back):
    state = VehicleState(-7.0, 0.0, 0.0, 0.0, 0.0)
    s, err, _ = compute_error(state, straight_back, s_prev=6.8)
    assert s == pytest.approx(7.0, abs=1e-3)
    assert err.inf_norm() < 1e-6


def test_validity_violation_curvature_times_offset(params, eight_back):
    # find a curved station; an offset past 1/kappa breaks the Frenet transform
    idx = int(np.argmax(np.abs(eight_back.kappa3)))
    s = float(eight_back.s[idx])
    kap = float(eight_back.kappa3[idx])
    bad = np.array([0.98 / kap, 0.0, 0.0, 0.0])
    with pytest.raises(ValidityViolated):
        error_dynamics_s(params, eight_back, s, bad, 0.0)


def test_validity_violation_heading(params, straight_back):
    bad = np.array([0.0, math.pi / 2.0 - 0.01, 0.0, 0.0])
    with pytest.raises(ValidityViolated):
        error_dynamics_s(params, straight_back, 5.0, bad, 0.0)


def test_path_error_round_trip():
    err = PathError(1.0, -0.5, 0.25, 0.125)
    again = PathError.from_array(err.as_array())
    assert again == err
    assert err.inf_norm() == 1.0
