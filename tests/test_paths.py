import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trailer_mpc
from trailer_mpc import NominalPath, eq_residuals, interpolate, project, reverse_path
from trailer_mpc.exceptions import InfeasiblePath, OutOfDomain, ProjectionLost
from trailer_mpc.model import chain_terms
from trailer_mpc.paths import (MAX_PATH_SAMPLES, _sample_count,
                               equilibrium_joint, extend_for_horizon,
                               generate_figure_eight, generate_straight)


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


def test_project_straight(straight_back):
    s = project(straight_back, (-3.07, 0.4), s_prev=2.8)
    assert s == pytest.approx(3.07, abs=1e-12)  # the exact foot of the perpendicular


def test_project_never_decreases(straight_back):
    s = project(straight_back, (-1.0, 0.0), s_prev=1.5)
    assert s >= 1.5


def test_project_lost_outside_window(straight_back):
    with pytest.raises(ProjectionLost):
        project(straight_back, (-30.0, 0.0), s_prev=2.0, window=2.0)


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
