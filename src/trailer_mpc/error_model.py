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
    """Wrap to [-pi, pi): a float, or an array elementwise."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def compute_error(state: VehicleState, path: NominalPath, s_prev):
    """Project the semitrailer axle onto the path and return (s, PathError,
    ref), ref the PathSample interpolated at s.  Raises ValidityViolated
    outside the validity margins or when an error is not finite, so a NaN
    measurement ends a run as ValidityLost."""
    s = project(path, (state.x3, state.y3), s_prev)
    ref = interpolate(path, s)
    dx = state.x3 - ref.x3r
    dy = state.y3 - ref.y3r
    z3t = -math.sin(ref.theta3r) * dx + math.cos(ref.theta3r) * dy
    theta3t = wrap_angle(state.theta3 - ref.theta3r)
    err = PathError(z3t, theta3t, state.beta3 - ref.beta3r, state.beta2 - ref.beta2r)
    _check_validity(err.z3t, err.theta3t, ref.kappa3r)
    if not (math.isfinite(err.z3t) and math.isfinite(err.beta3t)
            and math.isfinite(err.beta2t)):
        raise ValidityViolated(f"path error {err} not finite")
    return s, err, ref


def _check_validity(z3t, theta3t, kappa3r):
    """Raise ValidityViolated outside the Frenet transform's validity
    margins, a NaN offset or heading error included."""
    if not (1.0 - kappa3r * z3t > VALIDITY_MARGIN):
        raise ValidityViolated(f"1 - kappa3r*z3t = {1.0 - kappa3r * z3t:.3f} too small")
    if not (abs(theta3t) < _HALF_PI - VALIDITY_MARGIN):
        raise ValidityViolated(f"|theta3t| = {abs(theta3t):.3f} too close to pi/2")


def _dynamics(params, nominal, e, u_tilde):
    """d(error)/ds at the station whose (beta3r, beta2r, ur, v3r_sign) is
    ``nominal``, with the perturbed and nominal speed ratios C1.

    The station's fields, ``e``'s four components and ``u_tilde`` are floats
    or numpy arrays that broadcast together; a float gets the bits of its
    array entry.  Nothing is checked; the result means nothing where
    |beta3| >= pi/2 or either C1 <= SINGULAR_TOL.
    """
    b3r, b2r, ur, sign = nominal
    # derive the nominal curvature from beta3r (identical at the samples) so
    # that the origin stays an exact equilibrium at interpolated stations too
    k3r = np.tan(b3r) / params.L3
    z, th = e[0], e[1]
    b3 = b3r + e[2]
    b2 = b2r + e[3]
    u = ur + u_tilde
    c1p, n3p, n2p = chain_terms(params, np.sin(b2), np.cos(b2), np.cos(b3), u)
    c1r, n3r, n2r = chain_terms(params, np.sin(b2r), np.cos(b2r), np.cos(b3r), ur)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = np.cos(th) / (1.0 - k3r * z)
        L2, L3 = params.L2, params.L3
        t3 = np.tan(b3) / L3
        # the rates per unit of semitrailer speed v3, over ds/dt per v3; the
        # beta3 rate reads every input, so it has the full shape
        rate_b3 = n3p / (L2 * c1p) - t3 - proj * (n3r / (L2 * c1r) - k3r)
        rates = np.empty((4,) + np.shape(rate_b3))
        rates[0], rates[1], rates[2], rates[3] = (
            np.sin(th), t3 - k3r * proj, rate_b3, n2p / c1p - proj * (n2r / c1r))
        return rates / (sign * proj), c1p, c1r


def error_dynamics_s(params, path: NominalPath, s, e, u_tilde) -> np.ndarray:
    """Distance-based error dynamics d(error)/ds at station s.

    ``e`` is a PathError or a length-4 array.  The origin (e, u_tilde) = (0, 0)
    is an equilibrium for every station of every consistent path.  Raises
    ValidityViolated outside the Frenet transform's validity margins and
    SingularConfiguration where |beta3| >= pi/2 or C1 <= SINGULAR_TOL.
    """
    e = (e.as_array() if isinstance(e, PathError) else np.asarray(e, dtype=float)).tolist()
    nom = interpolate(path, s)
    _check_validity(e[0], e[1], nom.kappa3r)
    if abs(nom.beta3r + e[2]) >= _HALF_PI:
        raise SingularConfiguration(f"|beta3| = {abs(nom.beta3r + e[2]):.4f} >= pi/2")
    de_ds, c1p, c1r = _dynamics(params, (nom.beta3r, nom.beta2r, nom.ur, nom.v3r_sign),
                                e, u_tilde)
    if c1p <= SINGULAR_TOL or c1r <= SINGULAR_TOL:
        raise SingularConfiguration("C1 not strictly positive")
    return de_ds


# linearize's 20 difference points (e, u_tilde), one per column: for each of
# e's components and u_tilde, +-h/2 and +-h; u_tilde's leave e at +0.0
_H = 2e-5
_STEPS = np.tile([_H / 2.0, _H], 5)
_POINTS = np.repeat(np.eye(5), 4, axis=1) * np.tile([1.0, -1.0], 10) * \
    np.repeat(_STEPS, 2)
_POINTS[:4, 16:] = 0.0
_E, _U = _POINTS[:4], _POINTS[4]


def linearize(params, nominal: PathSample, delta_s) -> LinearizedModel:
    """Jacobians A, B of the error dynamics at the origin of station
    ``nominal``, plus the Euler-forward discretization F = I + delta_s*A,
    G = delta_s*B.

    Richardson-refined central differences; the nonlinear dynamics are the
    single source of truth so the linearization can never drift from them.
    The station's fields are floats, or arrays over n stations, which give
    A (n, 4, 4), B (n, 4), F and G stacked, each station with the bits of
    its own float call.  Nothing is checked: a station with |beta3r| near
    pi/2 or C1 <= SINGULAR_TOL gives a meaningless model, and callers
    check C1 before they use one.
    """
    # stations on the leading axes, the difference points on the last
    station = [np.asarray(v)[..., None] for v in (
        nominal.beta3r, nominal.beta2r, nominal.ur, nominal.v3r_sign)]
    f = _dynamics(params, station, _E, _U)[0]
    with np.errstate(invalid="ignore"):
        diff = (f[..., 0::2] - f[..., 1::2]) / (2.0 * _STEPS)
        # A's four columns, then B, each with the stations leading
        rich = (4.0 * diff[..., 0::2] - diff[..., 1::2]) / 3.0
    A = rich[..., :4].swapaxes(0, -2)
    B = rich[..., 4].swapaxes(0, -1)
    return LinearizedModel(A=A, B=B, F=np.eye(4) + delta_s * A, G=delta_s * B,
                           delta_s=float(delta_s))


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
