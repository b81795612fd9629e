"""Frenet-frame path-following error state and its distance-based dynamics.

The error state is (z3t, theta3t, beta3t, beta2t): signed lateral offset of
the semitrailer axle, semitrailer heading error, and the two joint-angle
errors, all relative to the nominal path sample at the projected station.
The lateral offset is positive to the left of the nominal semitrailer
heading theta3r (which for backward paths points opposite to the direction
of travel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularConfiguration, ValidityViolated
from .model import SINGULAR_TOL, VehicleState, chain_terms
from .paths import NominalPath, PathSample, interpolate, project

# Margins tightening the Frenet-transform validity conditions
# 1 - kappa3r * z3t > 0 and |theta3t| < pi/2 to keep the dynamics
# well-conditioned near the transformation boundary.
VALIDITY_MARGIN = 0.05

_HALF_PI = math.pi / 2.0


@dataclass
class PathError:
    z3t: float
    theta3t: float
    beta3t: float
    beta2t: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z3t, self.theta3t, self.beta3t, self.beta2t])

    @classmethod
    def from_array(cls, arr) -> "PathError":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]))

    def inf_norm(self) -> float:
        return max(abs(self.z3t), abs(self.theta3t), abs(self.beta3t), abs(self.beta2t))


@dataclass(frozen=True)
class LinearizedModel:
    A: np.ndarray  # 4x4, d(error)/ds Jacobian wrt error at the origin
    B: np.ndarray  # 4-vector, Jacobian wrt curvature deviation
    F: np.ndarray  # I + delta_s * A
    G: np.ndarray  # delta_s * B
    delta_s: float


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def compute_error(state: VehicleState, path: NominalPath, s_prev):
    """Project the semitrailer axle onto the path and return (s, PathError)."""
    s = project(path, (state.x3, state.y3), s_prev)
    ref = interpolate(path, s)
    dx = state.x3 - ref.x3r
    dy = state.y3 - ref.y3r
    z3t = -math.sin(ref.theta3r) * dx + math.cos(ref.theta3r) * dy
    theta3t = wrap_angle(state.theta3 - ref.theta3r)
    err = PathError(z3t, theta3t, state.beta3 - ref.beta3r, state.beta2 - ref.beta2r)
    _check_validity(err.z3t, err.theta3t, ref.kappa3r)
    return s, err


def _check_validity(z3t, theta3t, kappa3r):
    if 1.0 - kappa3r * z3t <= VALIDITY_MARGIN:
        raise ValidityViolated(f"1 - kappa3r*z3t = {1.0 - kappa3r * z3t:.3f} too small")
    if abs(theta3t) >= _HALF_PI - VALIDITY_MARGIN:
        raise ValidityViolated(f"|theta3t| = {abs(theta3t):.3f} too close to pi/2")


def _rates_per_v3(params, nominal, e, u_tilde):
    """Error rates divided by the semitrailer speed v3, plus ds/dt per v3."""
    b3r, b2r, ur = nominal.beta3r, nominal.beta2r, nominal.ur
    # derive the nominal curvature from beta3r (identical at the samples) so
    # that the origin stays an exact equilibrium at interpolated stations too
    k3r = math.tan(b3r) / params.L3
    z, th = e[0], e[1]
    b3 = b3r + e[2]
    b2 = b2r + e[3]
    u = ur + u_tilde
    if abs(b3) >= _HALF_PI:
        raise SingularConfiguration(f"|beta3| = {abs(b3):.4f} >= pi/2")
    c1p, n3p, n2p = chain_terms(params, math.sin(b2), math.cos(b2), math.cos(b3), u)
    c1r, n3r, n2r = chain_terms(params, math.sin(b2r), math.cos(b2r), math.cos(b3r), ur)
    if c1p <= SINGULAR_TOL or c1r <= SINGULAR_TOL:
        raise SingularConfiguration("C1 not strictly positive")
    one_minus = 1.0 - k3r * z
    proj = math.cos(th) / one_minus

    L2, L3 = params.L2, params.L3
    t3 = math.tan(b3) / L3
    rates = (
        math.sin(th),
        t3 - k3r * proj,
        n3p / (L2 * c1p) - t3 - proj * (n3r / (L2 * c1r) - k3r),
        n2p / c1p - proj * (n2r / c1r),
    )
    ds_per_v3 = nominal.v3r_sign * proj
    return rates, ds_per_v3


def error_dynamics_s(params, path: NominalPath, s, e, u_tilde) -> np.ndarray:
    """Distance-based error dynamics d(error)/ds at station s.

    ``e`` is a PathError or a length-4 array.  The origin (e, u_tilde) = (0, 0)
    is an equilibrium for every station of every consistent path.
    """
    e_arr = e.as_array() if isinstance(e, PathError) else np.asarray(e, dtype=float)
    return _dynamics_at(params, interpolate(path, s), e_arr, u_tilde)


def _dynamics_at(params, nominal: PathSample, e, u_tilde) -> np.ndarray:
    """:func:`error_dynamics_s` at the interpolated station ``nominal``."""
    e = e.tolist()   # the scalar arithmetic is cheaper on Python floats
    _check_validity(e[0], e[1], nominal.kappa3r)
    rates, ds_per_v3 = _rates_per_v3(params, nominal, e, u_tilde)
    return np.array(rates) / ds_per_v3


def linearize(params, path: NominalPath, s, delta_s) -> LinearizedModel:
    """Jacobians A(s), B(s) of the error dynamics at the origin, plus the
    Euler-forward discretization F = I + delta_s*A, G = delta_s*B.

    Richardson-refined central differences; the nonlinear dynamics are the
    single source of truth so the linearization can never drift from them.
    """
    h = 2e-5
    nominal = interpolate(path, s)

    def f(e, ut):
        return _dynamics_at(params, nominal, e, ut)

    A = np.zeros((4, 4))
    for j in range(4):
        ej = np.zeros(4)
        ej[j] = 1.0

        def diff(step):
            return (f(ej * step, 0.0) - f(-ej * step, 0.0)) / (2.0 * step)

        A[:, j] = (4.0 * diff(h / 2.0) - diff(h)) / 3.0

    def diff_u(step):
        z = np.zeros(4)
        return (f(z, step) - f(z, -step)) / (2.0 * step)

    B = (4.0 * diff_u(h / 2.0) - diff_u(h)) / 3.0
    F = np.eye(4) + delta_s * A
    G = delta_s * B
    return LinearizedModel(A=A, B=B, F=F, G=G, delta_s=float(delta_s))


def analytic_straight_model(params, direction, delta_s) -> LinearizedModel:
    """Closed-form A, B for a straight path (hand-derived; used for the cost
    design and as a cross-check of the numeric linearization)."""
    L2, L3, M1 = params.L2, params.L3, params.M1
    A = direction * np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0 / L3, 0.0],
        [0.0, 0.0, -1.0 / L3, 1.0 / L2],
        [0.0, 0.0, 0.0, -1.0 / L2],
    ])
    B = direction * np.array([0.0, 0.0, -M1 / L2, 1.0 + M1 / L2])
    return LinearizedModel(A=A, B=B, F=np.eye(4) + delta_s * A, G=delta_s * B,
                           delta_s=float(delta_s))
