import bisect
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trailer_mpc
from trailer_mpc import (NominalPath, VehicleParams, eq_residuals, interpolate,
                         project, reverse_path)
from trailer_mpc.exceptions import InfeasiblePath, OutOfDomain, ProjectionLost
from trailer_mpc.model import chain_terms
from trailer_mpc.paths import (MAX_PATH_SAMPLES, _math_map, _sample_count,
                               equilibrium_joint, extend_for_horizon,
                               generate_figure_eight, generate_straight)


def scalar_rk4_figure_eight(radius, direction, delta_s=0.2, params=None):
    """The figure-eight integrated as four scalar states, x, y, theta3 and
    beta2, by RK4 with 5 substeps per sample, one station at a time in
    plain Python: the reference that generate_figure_eight must equal bit
    for bit, errors included."""
    if params is None:
        params = trailer_mpc.VehicleParams()
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    gm = 1.0 / radius
    blend_length, lead = 16.0, 2.0
    hold = 2.0 * math.pi * radius - blend_length
    if hold <= 0.0:
        raise InfeasiblePath("radius too small for the 16 m blends")
    breaks = np.cumsum([0.0, lead, blend_length, hold, 2.0 * blend_length, hold,
                        blend_length, lead]).tolist()
    levels = [0.0, 0.0, gm, gm, -gm, -gm, 0.0, 0.0]
    total = breaks[-1]

    def segment(s):
        i = min(max(bisect.bisect_right(breaks, s) - 1, 0), len(levels) - 2)
        length = breaks[i + 1] - breaks[i]
        t = min(max((s - breaks[i]) / length, 0.0), 1.0)
        return levels[i], levels[i + 1], length, t

    def g_of(s):
        a, b, _, t = segment(s)
        return a + (b - a) * t * t * (3.0 - 2.0 * t)

    def gs_of(s):
        a, b, length, t = segment(s)
        return (b - a) * 6.0 * t * (1.0 - t) / length

    vbar = -1.0
    L3 = params.L3

    def beta3_of(s):
        return math.atan(L3 * vbar * g_of(s))

    def w_of(s):
        g = g_of(s)
        return L3 * gs_of(s) / (1.0 + (L3 * g) ** 2) + vbar * g

    def tractor_curvature(beta3, beta2, w):
        sb2, cb2 = math.sin(beta2), math.cos(beta2)
        cb3 = math.cos(beta3)
        denom = params.M1 * (cb2 + w * params.L2 * cb3 * sb2)
        return (sb2 - w * params.L2 * cb3 * cb2) / denom

    def rhs(s, state):
        x, y, th, b2 = state
        b3 = beta3_of(s)
        u = tractor_curvature(b3, b2, w_of(s))
        c1, _, n2 = chain_terms(params, math.sin(b2), math.cos(b2), math.cos(b3), u)
        return (vbar * math.cos(th), vbar * math.sin(th), vbar * math.tan(b3) / L3,
                vbar * n2 / c1)

    n = _sample_count(total, delta_s)
    sub = 5
    h = delta_s / sub
    state = (0.0, 0.0, 0.0, 0.0)
    xs = np.zeros(n); ys = np.zeros(n); ths = np.zeros(n)
    b3s = np.zeros(n); b2s = np.zeros(n); us = np.zeros(n); k3s = np.zeros(n)
    s_cur = 0.0
    for k in range(n):
        b3s[k] = beta3_of(s_cur)
        k3s[k] = math.tan(b3s[k]) / L3
        b2s[k] = state[3]
        us[k] = tractor_curvature(b3s[k], state[3], w_of(s_cur))
        xs[k], ys[k], ths[k] = state[0], state[1], state[2]
        if k == n - 1:
            break
        for _ in range(sub):
            k1 = rhs(s_cur, state)
            m2 = tuple(state[i] + 0.5 * h * k1[i] for i in range(4))
            k2 = rhs(s_cur + 0.5 * h, m2)
            m3 = tuple(state[i] + 0.5 * h * k2[i] for i in range(4))
            k3 = rhs(s_cur + 0.5 * h, m3)
            m4 = tuple(state[i] + h * k3[i] for i in range(4))
            k4 = rhs(s_cur + h, m4)
            state = tuple(state[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                          for i in range(4))
            s_cur += h

    if np.max(np.abs(us)) > params.u_max:
        raise InfeasiblePath(
            f"implied tractor curvature {np.max(np.abs(us)):.3f} exceeds {params.u_max}")
    du_ds = np.abs(np.diff(us)) / delta_s
    c1_nom = chain_terms(params, np.sin(b2s), np.cos(b2s), np.cos(b3s), us)[0]
    c_max = params.udot_max / np.maximum(c1_nom[:-1], 1e-9)
    if np.any(du_ds > c_max):
        raise InfeasiblePath("implied nominal curvature rate exceeds the slew limit")

    path = NominalPath(
        s=np.arange(n) * delta_s, x=xs, y=ys, theta3=ths, beta3=b3s, beta2=b2s,
        u=us, kappa3=k3s, direction=vbar, delta_s=float(delta_s),
    )
    if direction == 1 or direction == 1.0:
        path = reverse_path(path)
    return path


def fields_at(path, s):
    """Linear interpolation of (x, y, theta3, beta3, beta2, u, kappa3) at
    stations s on numpy values, the reference for interpolate and project.

    Accepts a scalar or an array; raises OutOfDomain outside [0, s_end].
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < -1e-9) or np.any(s_arr > path.s_end + 1e-9):
        raise OutOfDomain(f"station outside [0, {path.s_end:.3f}]")
    pos = np.clip(s_arr / path.delta_s, 0.0, len(path.s) - 1.0)
    i = np.minimum(pos.astype(int), len(path.s) - 2)
    t = pos - i
    return [(1.0 - t) * arr[i] + t * arr[i + 1]
            for arr in (path.x, path.y, path.theta3, path.beta3, path.beta2,
                        path.u, path.kappa3)]


def test_straight_path_fields(straight_back):
    path = straight_back
    assert path.direction == -1.0
    assert len(path) == 601
    assert path.s_end == pytest.approx(120.0)
    assert np.allclose(path.x, -path.s)  # backward: x decreases as s grows
    assert np.all(path.u == 0.0) and np.all(path.kappa3 == 0.0)
    assert np.all(path.beta3 == 0.0) and np.all(path.beta2 == 0.0)


def test_straight_path_flow_residual_zero(params, straight_back):
    assert np.max(eq_residuals(params, straight_back)) < 1e-13


def test_straight_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        generate_straight(0.0, -1.0)


@pytest.mark.parametrize("length, delta_s", [
    (1e308, 0.2),                         # 5e308 intervals: not finite
    (0.2 * MAX_PATH_SAMPLES, 0.2),        # one sample too many
    (1.0, 1e-300),
    (math.nan, 0.2),
])
def test_straight_rejects_a_sample_count_beyond_the_bound(length, delta_s):
    with pytest.raises(ValueError, match="samples"):
        generate_straight(length, -1.0, delta_s)


def test_sample_count_bound_is_inclusive():
    # counted, not allocated: MAX_PATH_SAMPLES samples pass, one more does not
    assert _sample_count(MAX_PATH_SAMPLES - 1, 1.0) == MAX_PATH_SAMPLES
    assert _sample_count(0.2 * (MAX_PATH_SAMPLES - 1), 0.2) == MAX_PATH_SAMPLES
    with pytest.raises(ValueError, match="samples"):
        _sample_count(MAX_PATH_SAMPLES, 1.0)


def test_straight_takes_the_largest_sample_count(monkeypatch):
    import trailer_mpc.paths as paths_mod

    monkeypatch.setattr(paths_mod, "MAX_PATH_SAMPLES", 11)
    assert len(generate_straight(2.0, -1.0, 0.2)) == 11
    with pytest.raises(ValueError, match="samples"):
        generate_straight(2.2, -1.0, 0.2)


@pytest.mark.parametrize("radius", [1e308, 1e200, 1e6])
def test_eight_rejects_a_sample_count_beyond_the_bound(params, radius):
    # 1e308: the hold 2 pi r overflows; 1e200 and 1e6: too many samples,
    # rejected before any of them is integrated
    with pytest.raises(ValueError, match="samples"):
        generate_figure_eight(radius, -1.0, 0.2, params=params)


@pytest.mark.parametrize("delta_s", [0.1, 0.2])
@pytest.mark.parametrize("direction", [-1.0, 1.0])
@pytest.mark.parametrize("radius", [6.0, 15.0, 20.0, 30.0])
def test_eight_equals_the_scalar_rk4_oracle(params, radius, direction, delta_s):
    got = generate_figure_eight(radius, direction, delta_s, params=params)
    want = scalar_rk4_figure_eight(radius, direction, delta_s, params=params)
    for name in ("s", "x", "y", "theta3", "beta3", "beta2", "u", "kappa3"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
        # bytes also tell a signed zero apart
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.s_end_true == want.s_end_true
    assert got.direction == want.direction == direction
    assert got.delta_s == want.delta_s


def _outcome(fn, *args, **kwargs):
    """The path ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (InfeasiblePath, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=6, deadline=None)
@given(radius=st.floats(6.0, 60.0), delta_s=st.floats(0.05, 0.4),
       direction=st.sampled_from([-1.0, 1.0]))
# the pow of (L3 g) ** 2 rounds otherwise than x * x at two midpoints
@example(radius=6.0, delta_s=0.05, direction=-1.0)
# one sample, no step
@example(radius=20.0, delta_s=1000.0, direction=1.0)
def test_eight_equals_the_scalar_rk4_oracle_on_drawn_sizes(params, radius,
                                                           delta_s, direction):
    # beyond the grid: other lengths of the leads, blends and holds in
    # substeps, so other runs of equal stage inputs and other steps at
    # which beta2 reaches its fixed point
    got = _outcome(generate_figure_eight, radius, direction, delta_s,
                   params=params)
    want = _outcome(scalar_rk4_figure_eight, radius, direction, delta_s,
                    params=params)
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("s", "x", "y", "theta3", "beta3", "beta2", "u", "kappa3"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.direction, got.delta_s, got.s_end_true) == \
        (want.direction, want.delta_s, want.s_end_true)


# runs of equal values, both zeros side by side, NaN and both infinities
_MAP_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, 2.5, math.nan,
                               math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(_MAP_VALUES, st.integers(1, 4)), max_size=12),
       fn=st.sampled_from([math.atan, math.tan, (2.0).__rpow__]))
def test_math_map_equals_the_element_by_element_map(runs, fn):
    a = np.array([v for v, count in runs for _ in range(count)], dtype=float)
    try:
        want = np.array([fn(v) for v in a.tolist()], dtype=float)
    except ValueError:
        # math.tan of an infinity: the map raises as libm's caller does
        with pytest.raises(ValueError):
            _math_map(fn, a)
        return
    got = _math_map(fn, a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", [2.0, 0.0, -0.5, "a", True, None,
                                       math.nan, math.inf])
@pytest.mark.parametrize("kind", ["straight", "eight"])
def test_generators_reject_a_direction_other_than_plus_or_minus_one(
        params, kind, direction):
    with pytest.raises(ValueError, match="direction must be -1 or \\+1"):
        if kind == "straight":
            generate_straight(1.0, direction)
        else:
            generate_figure_eight(20.0, direction, params=params)


@pytest.mark.parametrize("direction", [-1, 1, -1.0, 1.0, np.float64(1.0)])
def test_generators_take_either_direction_as_int_or_float(params, direction):
    straight = generate_straight(1.0, direction)
    assert straight.direction == direction
    assert straight.x.tobytes() == (float(direction) * straight.s).tobytes()
    assert generate_figure_eight(20.0, direction, params=params).direction \
        == direction


@pytest.mark.parametrize("radius, change", [
    (2.0, {}),                     # no room for the hold
    (5.0, {}),                     # tractor curvature beyond u_max
    (20.0, {"udot_max": 0.02}),    # curvature rate beyond the slew limit
])
def test_eight_fails_as_the_scalar_rk4_oracle_does(params, radius, change):
    params = dataclasses.replace(params, **change)
    with pytest.raises(InfeasiblePath) as want:
        scalar_rk4_figure_eight(radius, -1.0, 0.2, params=params)
    with pytest.raises(InfeasiblePath) as got:
        generate_figure_eight(radius, -1.0, 0.2, params=params)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


_FIELDS = ("s", "x", "y", "theta3", "beta3", "beta2", "u", "kappa3")


def _path_bytes(path):
    return (tuple(getattr(path, name).tobytes() for name in _FIELDS),
            path.direction, path.delta_s, path.s_end_true)


def test_a_kept_eight_equals_the_scalar_rk4_oracle_in_both_directions(
        params, eight_builds):
    want = {d: _path_bytes(scalar_rk4_figure_eight(20.0, d, 0.2, params=params))
            for d in (-1.0, 1.0)}
    for direction in (-1.0, 1.0, -1.0, 1.0):
        got = generate_figure_eight(20.0, direction, 0.2, params=params)
        assert _path_bytes(got) == want[direction]
    assert len(eight_builds) == 1


@pytest.mark.parametrize("direction", [-1.0, 1.0])
def test_a_write_into_one_eight_reaches_no_later_one(params, eight_builds,
                                                     direction):
    before = [generate_figure_eight(20.0, d, 0.2, params=params)
              for d in (-1.0, 1.0)]
    want = [_path_bytes(p) for p in before]
    written = generate_figure_eight(20.0, direction, 0.2, params=params)
    for name in _FIELDS:
        getattr(written, name)[::7] += 1.0
    after = [generate_figure_eight(20.0, d, 0.2, params=params)
             for d in (-1.0, 1.0)]
    assert [_path_bytes(p) for p in before] == want
    assert [_path_bytes(p) for p in after] == want
    assert len(eight_builds) == 1
    # no two calls, and no call and the memo, share an array
    for a, b in [(a, b) for a in before + after + [written]
                 for b in before + after + [written] if a is not b]:
        for name in _FIELDS:
            assert not np.shares_memory(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("radius, change", [
    (5.0, {}),                     # tractor curvature beyond u_max
    (20.0, {"udot_max": 0.02}),    # curvature rate beyond the slew limit
])
def test_an_infeasible_eight_is_built_and_raised_on_every_call(
        params, eight_builds, radius, change):
    import trailer_mpc.paths as paths_mod

    params = dataclasses.replace(params, **change)
    messages = set()
    for attempt in (1, 2, 3):
        with pytest.raises(InfeasiblePath) as exc:
            generate_figure_eight(radius, -1.0 if attempt % 2 else 1.0, 0.2,
                                  params=params)
        messages.add(str(exc.value))
        assert paths_mod._eights == {}
        assert len(eight_builds) == attempt
    assert len(messages) == 1


def test_each_eight_input_gives_its_own_path(params, eight_builds):
    import trailer_mpc.paths as paths_mod

    longer = dataclasses.replace(params, L2=4.2)
    # params store Python floats, so float32 fields of equal value are
    # equal params with equal hashes and build the float ones' path, and a
    # float32 field of another value makes other params
    thirds = dataclasses.replace(params, M1=1.0, L2=3.0)
    thirds32 = dataclasses.replace(params, M1=np.float32(1.0), L2=np.float32(3.0))
    assert thirds32 == thirds and hash(thirds32) == hash(thirds)
    assert VehicleParams(L2=np.float32(3.87)) != VehicleParams()
    cases = [(20.0, -1.0, 0.2, params), (15.0, -1.0, 0.2, params),
             (20.0, -1.0, 0.1, params), (20.0, -1.0, 0.2, longer),
             (20.0, 1.0, 0.2, params), (np.float32(20.0), -1.0, 0.2, params),
             (20.0, -1.0, 0.2, thirds), (20.0, -1.0, 0.2, thirds32)]
    got = [_path_bytes(generate_figure_eight(r, d, ds, params=p))
           for r, d, ds, p in cases]
    # the direction +1 case reverses the first case's build, and the
    # thirds32 case takes the thirds build
    assert len(eight_builds) == len(cases) - 2
    assert len(set(got)) == len(cases) - 1 and got[-1] == got[-2]
    for (r, d, ds, p), path in zip(cases, got):
        paths_mod._eights.clear()
        assert _path_bytes(generate_figure_eight(r, d, ds, params=p)) == path
    # an int radius is a key of its own with the bits of the float one, and
    # the default params are VehicleParams()
    paths_mod._eights.clear()
    del eight_builds[:]
    assert _path_bytes(generate_figure_eight(20, -1)) == got[0]
    assert _path_bytes(generate_figure_eight(20.0, -1)) == got[0]
    assert _path_bytes(generate_figure_eight(20.0, -1.0, 0.2, params=params)) \
        == got[0]
    assert len(eight_builds) == 2


def test_the_eight_memo_keeps_its_last_four_builds(params, eight_builds):
    import trailer_mpc.paths as paths_mod

    radii = [15.0, 16.0, 17.0, 18.0, 19.0, 20.0]
    for k, radius in enumerate(radii):
        generate_figure_eight(radius, -1.0, 0.4, params=params)
        assert len(paths_mod._eights) == min(k + 1, 4)
    assert [key[0] for key in paths_mod._eights] == radii[-4:]
    generate_figure_eight(radii[-1], 1.0, 0.4, params=params)
    generate_figure_eight(radii[0], 1.0, 0.4, params=params)
    assert len(eight_builds) == len(radii) + 1


def test_eight_infeasible_curvature_rate(params):
    # the implied tractor curvature stays inside u_max; its rate does not
    slow = dataclasses.replace(params, udot_max=0.02)
    with pytest.raises(InfeasiblePath, match="curvature rate exceeds the slew limit"):
        generate_figure_eight(20.0, -1.0, 0.2, params=slow)


@pytest.mark.parametrize("delta_s", [0.0, -0.2, math.nan, math.inf])
@pytest.mark.parametrize("kind", ["straight", "eight"])
def test_generators_reject_a_bad_delta_s(params, kind, delta_s):
    with pytest.raises(ValueError, match="delta_s must be positive and finite"):
        if kind == "straight":
            generate_straight(40.0, -1.0, delta_s)
        else:
            generate_figure_eight(20.0, -1.0, delta_s, params=params)


def test_eight_flow_residual(params, eight_back):
    # RK4-generated samples checked against the Euler flow step: the residual
    # floor is the local truncation term delta_s^2 * kappa_max / 2 = 1.0e-3
    res = eq_residuals(params, eight_back)
    assert np.max(res) < 1.5e-3


def test_eight_peak_curvature_and_limits(params, eight_back):
    path = eight_back
    assert np.max(np.abs(path.kappa3)) == pytest.approx(1.0 / 20.0, rel=1e-9)
    assert np.max(np.abs(path.u)) <= params.u_max
    # both lobes present: curvature attains both signs
    assert path.kappa3.min() < -0.04 and path.kappa3.max() > 0.04


def test_eight_heading_returns(eight_back):
    # one full turn per lobe in opposite senses: the net heading change is zero
    path = eight_back
    assert abs(path.theta3[-1] - path.theta3[0]) < 1e-6
    assert path.theta3.max() > 2.0 * math.pi - 0.3  # the first lobe turns fully


def test_eight_infeasible_small_radius(params):
    # 2*pi*R below the blend length: no room for the constant-curvature hold
    with pytest.raises(InfeasiblePath):
        generate_figure_eight(2.0, -1.0, 0.2, params=params)
    with pytest.raises(ValueError):
        generate_figure_eight(-1.0, -1.0, 0.2, params=params)


def test_eight_infeasible_tight_radius(params):
    # a feasible-geometry radius whose implied tractor curvature exceeds u_max
    with pytest.raises(InfeasiblePath):
        generate_figure_eight(5.0, -1.0, 0.2, params=params)


def test_csv_round_trip(tmp_path, eight_back):
    f = tmp_path / "path.csv"
    eight_back.write_csv(f)
    back = NominalPath.read_csv(f)
    for name in ("s", "x", "y", "theta3", "beta3", "beta2", "u", "kappa3"):
        assert np.array_equal(getattr(back, name), getattr(eight_back, name))
    assert back.direction == eight_back.direction
    assert back.delta_s == eight_back.delta_s


def test_interpolate_linear_between_samples(straight_back):
    s = 1.7
    ref = interpolate(straight_back, s)
    assert ref.x3r == pytest.approx(-1.7)
    assert ref.y3r == 0.0
    assert ref.v3r_sign == -1.0


def test_fields_at_out_of_domain(straight_back):
    with pytest.raises(OutOfDomain):
        interpolate(straight_back, -0.5)
    with pytest.raises(OutOfDomain):
        interpolate(straight_back, 120.5)
    with pytest.raises(OutOfDomain):
        interpolate(straight_back, math.nan)


def test_project_straight(straight_back):
    s = project(straight_back, (-3.07, 0.4), s_prev=2.8)
    assert s == pytest.approx(3.07, abs=1e-12)  # the exact foot of the perpendicular


def test_project_never_decreases(straight_back):
    s = project(straight_back, (-1.0, 0.0), s_prev=1.5)
    assert s >= 1.5


def test_project_lost_outside_window(straight_back):
    with pytest.raises(ProjectionLost):
        project(straight_back, (-30.0, 0.0), s_prev=2.0, window=2.0)


def test_path_arrays_are_the_only_store():
    # a write to a field array reaches the station queries
    path = generate_straight(20.0, -1.0)
    path.x[10:20] += 1.0
    path.u[10] = 0.05
    assert interpolate(path, 2.0).x3r == pytest.approx(-1.0)
    assert interpolate(path, 2.0).ur == pytest.approx(0.05)
    assert project(path, (-2.0, 0.0), s_prev=2.6) == pytest.approx(3.0)


def test_path_memory_is_its_arrays():
    tracemalloc.start()
    try:
        path = generate_straight(2e4 - 0.2, -1.0)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(path) == 10 ** 5
    arrays = sum(a.nbytes for a in (path.s, path.x, path.y, path.theta3,
                                     path.beta3, path.beta2, path.u, path.kappa3))
    assert traced < 1.25 * arrays


def test_reverse_path_involution(eight_back):
    back = reverse_path(reverse_path(eight_back))
    assert np.allclose(back.x, eight_back.x)
    assert np.allclose(back.u, eight_back.u)
    assert back.direction == eight_back.direction
    fwd = reverse_path(eight_back)
    assert fwd.direction == 1.0
    assert fwd.x[0] == pytest.approx(eight_back.x[-1])


def test_extend_for_horizon(params, straight_back):
    ext = extend_for_horizon(params, straight_back, 10.0)
    assert ext.s_end_true == straight_back.s_end
    assert ext.s_end >= straight_back.s_end + 10.0 - 1e-9
    assert np.max(eq_residuals(params, ext)) < 1e-10  # straight stays exact


def test_read_csv_rejects_nonuniform(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("s,x3r,y3r,theta3r,beta3r,beta2r,ur,v3r_sign,kappa3r\n"
                 "0.0,0,0,0,0,0,0,-1.0,0\n"
                 "0.2,0,0,0,0,0,0,-1.0,0\n"
                 "0.5,0,0,0,0,0,0,-1.0,0\n")
    with pytest.raises(InfeasiblePath):
        NominalPath.read_csv(f)


def _stations(path, rng, n=200):
    """Random stations plus the sample grid's ends and a few grid points."""
    return np.concatenate([rng.uniform(0.0, path.s_end, n),
                           path.s[[0, 1, len(path) // 2, -2, -1]]])


@pytest.mark.parametrize("kind", ["straight", "eight"])
def test_interpolate_is_fields_at_bit_for_bit(straight_back, eight_back, kind, rng):
    path = straight_back if kind == "straight" else eight_back
    for s in _stations(path, rng):
        ref = interpolate(path, s)
        got = (ref.x3r, ref.y3r, ref.theta3r, ref.beta3r, ref.beta2r, ref.ur,
               ref.kappa3r)
        want = tuple(float(v) for v in fields_at(path, float(s)))
        # compared as bytes, which also tells a signed zero apart
        assert np.array(got).tobytes() == np.array(want).tobytes(), s
        assert ref.s == float(s) and ref.v3r_sign == path.direction
    with pytest.raises(OutOfDomain):
        interpolate(path, path.s_end + 0.01)
    with pytest.raises(OutOfDomain):
        interpolate(path, -0.01)


def _project_oracle(path, p, s_prev, window=2.0):
    """project's nearest chord point, on numpy arrays over every chord at
    once, with the distance measured at fields_at of the clipped station."""
    lo = max(0.0, s_prev - window)
    hi = min(path.s_end, s_prev + window)
    if hi <= lo:
        raise ProjectionLost("window collapsed")
    a = np.column_stack([path.x[:-1], path.y[:-1]])
    e = np.column_stack([np.diff(path.x), np.diff(path.y)])
    t = np.clip(np.einsum("ij,ij->i", np.asarray(p) - a, e)
                / np.einsum("ij,ij->i", e, e), 0.0, 1.0)
    s = np.clip((np.arange(len(t)) + t) * path.delta_s, lo, hi)
    x, y = fields_at(path, s)[:2]
    s_best = s[np.argmin((x - p[0]) ** 2 + (y - p[1]) ** 2)]
    if s_best >= hi and hi < path.s_end - 1e-9 and hi > s_prev + 1e-9:
        raise ProjectionLost("forward edge")
    return max(float(s_best), float(s_prev))


@pytest.mark.parametrize("kind", ["straight", "eight"])
def test_project_matches_an_exact_chord_oracle(straight_back, eight_back, kind, rng):
    path = straight_back if kind == "straight" else eight_back
    stations = _stations(path, rng)
    lost = 0
    for s in stations:
        ref = interpolate(path, s)
        # up to 3 m to the side and 0.5 m along the path, searched from up
        # to 1.2 m behind
        z, a = rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 0.5)
        c, sn = math.cos(ref.theta3r), math.sin(ref.theta3r)
        p = (ref.x3r - z * sn + a * c, ref.y3r + z * c + a * sn)
        s_prev = max(0.0, float(s) - rng.uniform(0.0, 1.2))
        try:
            want = _project_oracle(path, p, s_prev)
        except ProjectionLost:
            lost += 1
            with pytest.raises(ProjectionLost):
                project(path, p, s_prev)
            continue
        assert project(path, p, s_prev) == pytest.approx(want, abs=1e-9), (s, p, s_prev)
    assert lost < len(stations) // 10


def _project_min_max(path, p, s_prev, window=2.0):
    """project's chord loop written with the builtin min and max: the
    reference that project's comparisons must equal bit for bit."""
    px, py = float(p[0]), float(p[1])
    lo = max(0.0, s_prev - window)
    hi = min(path.s_end, s_prev + window)
    if hi <= lo:
        raise ProjectionLost("window collapsed")
    ds = path.delta_s
    last = len(path.s) - 1
    k_lo = min(math.floor(lo / ds), last - 1)
    k_hi = max(min(math.ceil(hi / ds), last), k_lo + 1)
    xs, ys = path.x[k_lo:k_hi + 1].tolist(), path.y[k_lo:k_hi + 1].tolist()
    s_best, d2_best = lo, math.inf
    for k, ax, ay, bx, by in zip(range(k_lo, k_hi), xs, ys, xs[1:], ys[1:]):
        ex, ey = bx - ax, by - ay
        ee = ex * ex + ey * ey
        t = ((px - ax) * ex + (py - ay) * ey) / ee if ee > 0.0 else 0.0
        s = min(hi, max(lo, (k + min(1.0, max(0.0, t))) * ds))
        t = s / ds - k
        dx, dy = ax + t * ex - px, ay + t * ey - py
        d2 = dx * dx + dy * dy
        if d2 < d2_best:
            s_best, d2_best = s, d2
    if s_best >= hi and hi < path.s_end - 1e-9 and hi > s_prev + 1e-9:
        raise ProjectionLost("forward edge")
    return max(s_best, float(s_prev))


@pytest.fixture(scope="module")
def tie_paths(eight_back):
    """A 12 m straight path, the same turned by 90 degrees at its middle
    sample with samples 10 and 40 repeated (chords of zero length), and the
    figure-eight."""
    straight = generate_straight(12.0, -1.0)
    x, y = straight.x.copy(), straight.y.copy()
    mid = len(x) // 2
    y[mid:] += x[mid:] - x[mid]
    x[mid:] = x[mid]
    x[11], y[11] = x[10], y[10]
    x[41], y[41] = x[40], y[40]
    return {"straight": straight, "bent": dataclasses.replace(straight, x=x, y=y),
            "eight": eight_back}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["straight", "bent", "eight"]),
       i=st.integers(0, 60), where=st.sampled_from(["vertex", "normal", "free"]),
       offset=st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 3.0, math.nan]),
                        st.floats(-3.0, 3.0)),
       j=st.integers(-2, 62), edge=st.sampled_from([0.0, -2.0, 2.0, None]),
       jitter=st.floats(-0.3, 0.3))
def test_project_equals_its_min_max_loop_bit_for_bit(tie_paths, kind, i, where,
                                                      offset, j, edge, jitter):
    # points on a vertex (a chord's t exactly 0 or 1), off it along the
    # normal (t = -0.0 on the straight line) or anywhere; windows whose
    # edges sit on a sample (s exactly at lo or hi), at the path's ends or
    # anywhere
    path = tie_paths[kind]
    ds = path.delta_s
    i = min(i, len(path.s) - 1)
    ax, ay = float(path.x[i]), float(path.y[i])
    th = float(path.theta3[i])
    if where == "vertex":
        p = (ax, ay)
    elif where == "normal":
        p = (ax - offset * math.sin(th), ay + offset * math.cos(th))
    else:
        p = (ax + offset, ay + jitter)
    s_prev = max(0.0, j * ds + (jitter if edge is None else edge))
    try:
        want = _project_min_max(path, p, s_prev)
    except ProjectionLost:
        with pytest.raises(ProjectionLost):
            project(path, p, s_prev)
        return
    got = project(path, p, s_prev)
    # compared as bytes, which also tells a signed zero apart
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (p, s_prev)


def test_equilibrium_joint_zeroes_both_joint_angle_rates(params):
    for beta3 in np.linspace(-1.2, 1.2, 49):
        beta2, u = equilibrium_joint(params, beta3)
        c1, n3, n2 = chain_terms(params, math.sin(beta2), math.cos(beta2),
                                 math.cos(beta3), u)
        # per unit of semitrailer travel, as in eq_residuals
        assert abs(n3 / (params.L2 * c1) - math.tan(beta3) / params.L3) < 1e-12
        assert abs(n2 / c1) < 1e-12
    assert equilibrium_joint(params, 0.0) == (0.0, 0.0)


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(trailer_mpc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, trailer_mpc; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
