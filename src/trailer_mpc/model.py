"""Kinematic model of the general 2-trailer with a car-like tractor.

State: semitrailer axle pose (x3, y3, theta3) plus the two joint angles
beta3 (semitrailer-dolly) and beta2 (dolly-tractor).  Controls: tractor
curvature u and direction v in {-1, +1} (speed is normalized away by
time scaling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidState, SingularConfiguration
from .params import is_int, is_real

# C1 values at or below this are treated as singular.
SINGULAR_TOL = 1e-6

_HALF_PI = math.pi / 2.0

# closed-loop limits: jackknife joint angle, converged error infinity norm
JACKKNIFE_ANGLE = _HALF_PI - 0.05
CONV_TOL = 0.02


@dataclass
class VehicleState:
    x3: float
    y3: float
    theta3: float
    beta3: float
    beta2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x3, self.y3, self.theta3, self.beta3, self.beta2])

    @classmethod
    def from_array(cls, arr) -> "VehicleState":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]), float(arr[4]))


@dataclass(frozen=True)
class ControlInput:
    u: float
    v: float  # -1.0 or +1.0

    def __post_init__(self):
        if not is_real(self.u) or self.v not in (-1.0, 1.0, -1, 1):
            raise ValueError("curvature u must be finite and direction v -1 or +1")


@dataclass(frozen=True)
class SegmentPoses:
    """Planar poses (x, y, heading) of all three vehicle segments."""

    tractor: tuple
    dolly: tuple
    semitrailer: tuple


def chain_terms(params, sb2, cb2, cb3, u):
    """(C1, n3, n2) of the chain kinematics from sin/cos of beta2, cos of
    beta3 and the tractor curvature u.

    C1 = v3/v is the speed ratio; per unit of semitrailer speed the joint
    angles move at n3 / (L2 C1) - tan(beta3) / L3 and n2 / C1.  Arithmetic
    only, so floats and numpy arrays give the same bits; callers take the
    trig functions once.
    """
    c1 = cb3 * (cb2 + params.M1 * sb2 * u)
    n3 = sb2 - params.M1 * cb2 * u
    n2 = u - sb2 / params.L2 + params.M1 / params.L2 * cb2 * u
    return c1, n3, n2


def speed_ratio(params, beta2, beta3, u):
    """Ratio C1 = v3/v between semitrailer-axle speed and tractor rear-axle
    speed.  Zero means the kinematic chain is singular (semitrailer axle
    does not move)."""
    return chain_terms(params, math.sin(beta2), math.cos(beta2), math.cos(beta3), u)[0]


def _derivatives_checked(params, theta3, beta3, beta2, u, v):
    if abs(beta3) >= _HALF_PI:
        raise InvalidState(f"|beta3| = {abs(beta3):.4f} >= pi/2")
    c1, n3, n2 = chain_terms(params, math.sin(beta2), math.cos(beta2),
                             math.cos(beta3), u)
    if c1 <= SINGULAR_TOL:
        raise SingularConfiguration(f"C1 = {c1:.3e} <= {SINGULAR_TOL}")
    v3 = v * c1
    tb3 = math.tan(beta3)
    return (v3 * math.cos(theta3), v3 * math.sin(theta3), v3 * tb3 / params.L3,
            v3 * (n3 / (params.L2 * c1) - tb3 / params.L3), v3 * n2 / c1)


def derivatives(params, state: VehicleState, inp: ControlInput) -> np.ndarray:
    """Time derivatives of the full state for curvature u and direction v.

    Raises InvalidState if |beta3| >= pi/2 and SingularConfiguration if the
    speed ratio C1 is not strictly positive.
    """
    return np.array(_derivatives_checked(params, state.theta3, state.beta3,
                                         state.beta2, inp.u, float(inp.v)))


def derivatives_batch(params, x, u, v):
    """Vectorized time derivatives.

    ``x`` has shape (5, K); ``u`` is scalar or shape (K,).  No singularity
    guard: the caller is expected to mask out singular columns.  Returns an
    array of shape (5, K) together with the C1 values.
    """
    theta3, beta3, beta2 = x[2], x[3], x[4]
    c1, n3, n2 = chain_terms(params, np.sin(beta2), np.cos(beta2), np.cos(beta3), u)
    v3 = v * c1
    tb3 = np.tan(beta3)
    out = np.empty_like(x)
    out[0] = v3 * np.cos(theta3)
    out[1] = v3 * np.sin(theta3)
    out[2] = v3 * tb3 / params.L3
    # the scalar path's rates with v3 / c1 = v cancelled, which keeps
    # singular columns finite; chain_terms gives both paths c1, n3 and n2
    out[3] = v * n3 / params.L2 - out[2]
    out[4] = v * n2
    return out, c1


def integrate_step(params, state: VehicleState, inp: ControlInput, dt, substeps=1) -> VehicleState:
    """Propagate the state over dt with fixed-step RK4 under constant input.
    Raises ValueError unless dt is finite and >= 0 and substeps an integer
    >= 1, else what :func:`derivatives` raises at the first stage point with
    |beta3| >= pi/2 or C1 <= SINGULAR_TOL."""
    if not (is_real(dt, 0.0, closed=True) and is_int(substeps) and substeps >= 1):
        raise ValueError("dt must be finite and >= 0, substeps an integer >= 1")
    x3, y3, th, b3, b2 = state.x3, state.y3, state.theta3, state.beta3, state.beta2
    if dt == 0.0:
        return VehicleState(x3, y3, th, b3, b2)
    u, v, h = inp.u, float(inp.v), dt / substeps
    h2, h6 = 0.5 * h, h / 6.0  # 0.5 * h * k parses as (0.5 * h) * k
    for _ in range(substeps):
        a = _derivatives_checked(params, th, b3, b2, u, v)
        b = _derivatives_checked(params, th + h2 * a[2], b3 + h2 * a[3], b2 + h2 * a[4], u, v)
        c = _derivatives_checked(params, th + h2 * b[2], b3 + h2 * b[3], b2 + h2 * b[4], u, v)
        d = _derivatives_checked(params, th + h * c[2], b3 + h * c[3], b2 + h * c[4], u, v)
        x3 += h6 * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0])
        y3 += h6 * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1])
        th += h6 * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2])
        b3 += h6 * (a[3] + 2.0 * b[3] + 2.0 * c[3] + d[3])
        b2 += h6 * (a[4] + 2.0 * b[4] + 2.0 * c[4] + d[4])
    return VehicleState(x3, y3, th, b3, b2)


def segment_poses(params, state: VehicleState) -> SegmentPoses:
    """Poses of semitrailer, dolly and tractor from the holonomic chain.

    The dolly axle carries the semitrailer kingpin (on-axle hitch) and sits
    L3 ahead of the semitrailer axle along theta3.  The tractor's hitch
    point sits L2 ahead of the dolly axle along theta2 and M1 behind the
    tractor's rear axle along theta1.
    """
    theta2 = state.theta3 + state.beta3
    theta1 = theta2 + state.beta2
    x2 = state.x3 + params.L3 * math.cos(state.theta3)
    y2 = state.y3 + params.L3 * math.sin(state.theta3)
    xh = x2 + params.L2 * math.cos(theta2)
    yh = y2 + params.L2 * math.sin(theta2)
    x1 = xh + params.M1 * math.cos(theta1)
    y1 = yh + params.M1 * math.sin(theta1)
    return SegmentPoses(
        tractor=(x1, y1, theta1),
        dolly=(x2, y2, theta2),
        semitrailer=(state.x3, state.y3, state.theta3),
    )

