"""Receding-horizon path-following controller (and the saturated-LQ baseline).

Each control cycle the 4-state path error is measured, the error dynamics,
linearized once per path station, are condensed along the prediction horizon,
and a dense QP over (curvature deviations, joint-angle slack variables) is
solved.  Curvature box and slew-rate rows are hard; the joint-angle polytope
rows are softened with linearly+quadratically penalized slacks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solve_discrete_are

from .error_model import (PathError, analytic_straight_model, compute_error,
                          linearize)
from .exceptions import (InfeasiblePath, NominalOutsidePolytope, PathExhausted,
                         RiccatiDiverged, SingularConfiguration)
from .model import SINGULAR_TOL, VehicleState, chain_terms
from .params import is_int, is_real, real_tuple
from .paths import NominalPath, _remember, extend_for_horizon
from .qp import Answer, FactorCache, auxiliary_hot, certified_solve
from .table import read_table, write_table

# KKT tolerance every QP answer the controller uses must meet.
QP_TOL = 1e-6


@dataclass
class MpcConfig:
    """Controller design parameters (defaults match the test vehicle setup)."""

    horizon: int = 50          # prediction steps N
    delta_s: float = 0.2       # prediction grid spacing (m)
    f_s: float = 20.0          # control rate (Hz)
    qbar: np.ndarray = field(default_factory=lambda: np.array(
        [0.5, 1.0, 0.5, 1.0, 4.0, 0.5, 1.0, 4.0]) / 35.0)
    slack_linear: float = 1e3   # linear slack penalty (exact-penalty term)
    slack_quad: float = 1e4     # quadratic slack penalty
    u_max: float = 0.18         # curvature bound (1/m)
    udot_max: float = 0.13      # curvature rate bound (1/(m s))

    def __post_init__(self):
        if not (is_int(self.horizon) and self.horizon >= 1):
            raise ValueError("horizon must be an integer >= 1")
        for name in ("delta_s", "f_s", "u_max", "udot_max"):
            if not is_real(getattr(self, name), 0.0):
                raise ValueError(f"{name} must be a positive, finite number")
        for name in ("slack_linear", "slack_quad"):
            if not is_real(getattr(self, name), 0.0, closed=True):
                raise ValueError(f"{name} must be a nonnegative, finite number")
        qbar = real_tuple(self.qbar, 8, 0.0, closed=True)
        if qbar is None:
            raise ValueError("qbar must be 8 nonnegative, finite weights")
        self.qbar = np.array(qbar)


@dataclass
class JointAnglePolytope:
    """Convex polytope H (beta3, beta2)' <= h of admissible joint angles."""

    H: np.ndarray  # (m, 2)
    h: np.ndarray  # (m,)

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.h = np.asarray(self.h, dtype=float)
        if self.H.shape[1] != 2 or len(self.h) != self.H.shape[0]:
            raise ValueError("H must be (m, 2) with matching h")
        if not (np.isfinite(self.H).all() and np.isfinite(self.h).all()):
            raise ValueError("polytope rows H and h must be finite")
        if np.any(self.h <= 0.0):
            raise ValueError("polytope must contain the origin strictly (h > 0)")

    @property
    def m(self) -> int:
        return self.H.shape[0]

    def contains(self, beta3, beta2):
        b3 = np.asarray(beta3, dtype=float)
        b2 = np.asarray(beta2, dtype=float)
        vals = (np.multiply.outer(self.H[:, 0], b3) +
                np.multiply.outer(self.H[:, 1], b2))
        bound = self.h.reshape((-1,) + (1,) * b3.ndim)
        return np.all(vals <= bound, axis=0)

    def write_csv(self, path):
        write_table(path, {"H_beta3": self.H[:, 0], "H_beta2": self.H[:, 1], "h": self.h})

    @classmethod
    def read_csv(cls, path) -> "JointAnglePolytope":
        """The polytope of a CSV from :meth:`write_csv`; raises ValueError
        for a file with no rows, which no fit writes."""
        data = read_table(path)
        if len(data) == 0:
            raise ValueError("polytope CSV holds no rows")
        return cls(np.column_stack([data["H_beta3"], data["H_beta2"]]), data["h"])


# The symmetric octagon's four support directions: beta3, beta2 and the two
# unit diagonals.
OCTAGON_DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
OCTAGON_DIRECTIONS[2:] /= math.sqrt(2.0)
OCTAGON_DIRECTIONS.flags.writeable = False


def octagon(support) -> JointAnglePolytope:
    """The symmetric octagon with the four supports along OCTAGON_DIRECTIONS:
    each direction's row, then its negative's (0.0 - d, so no -0.0)."""
    D = OCTAGON_DIRECTIONS
    return JointAnglePolytope(np.stack([D, 0.0 - D], axis=1).reshape(8, 2),
                              np.repeat(support, 2))


def default_joint_polytope() -> JointAnglePolytope:
    """Symmetric octagon meant to lie inside the intersection of the simulated
    closed-loop stability region and the LIDAR sensing region for the default
    vehicle.  regions.fit_inner_polytope (0.05 rad margin, 2-degree grid, 150 m
    recovery budget) does not reproduce it: its beta3 support is 0.663 and its
    diagonal one 0.4196, so this set is larger than the fitted safe set."""
    return octagon([0.7679, 0.6283, 0.8886, 0.4443])


def build_output_matrix(params) -> np.ndarray:
    """Jacobian lifting the 4 error states to the 8 weighted body outputs.

    Output order (tractor lateral/heading, dolly lateral/heading, hitch joint
    angle, semitrailer lateral/heading, semitrailer joint angle) against error
    state order (lateral offset, heading error, semitrailer joint error,
    hitch joint error).
    """
    L2, L3, M1 = params.L2, params.L3, params.M1
    return np.array([
        [1.0, L3 + L2 + M1, L2 + M1, M1],
        [0.0, 1.0, 1.0, 1.0],
        [1.0, L3, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])


@dataclass(frozen=True)
class CostMatrices:
    Q: np.ndarray      # 4x4 stage cost (= M' diag(qbar) M)
    P: np.ndarray      # 4x4 terminal cost, Riccati solution
    M: np.ndarray      # 8x4 output matrix
    K: np.ndarray      # 4-vector LQ gain
    spectral_radius: float

    def lq_command(self, ur, e):
        """The LQ law: nominal curvature ``ur`` less the gain times error ``e``."""
        return ur - float(self.K @ e)


def design_cost(params, cfg: MpcConfig, straight_model) -> CostMatrices:
    """Stage cost, Riccati terminal cost and LQ gain for the straight-path
    discretized model (F, G).

    The last few designs are kept by the bits of all a design reads (the
    output matrix of ``params``, ``cfg.qbar``, F and G), whose deterministic
    function it is: the MPC and LQ controllers of one vehicle, weights and
    model share one read-only design.  A design that raises is not kept."""
    M = build_output_matrix(params)
    qbar = np.array(cfg.qbar, dtype=float)
    F, G = straight_model.F, straight_model.G
    key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (M, qbar, F, G))
    cost = _designs.get(key)
    if cost is not None:
        return cost
    Q = M.T @ np.diag(qbar) @ M
    Q = 0.5 * (Q + Q.T)
    try:
        P = solve_discrete_are(F, G[:, None], Q, np.eye(1))
    except (LinAlgError, ValueError) as exc:
        raise RiccatiDiverged(f"no stabilizing Riccati solution: {exc}") from exc
    P = 0.5 * (P + P.T)
    PG = P @ G
    K = (PG @ F) / (1.0 + G @ PG)
    residual = np.max(np.abs(F.T @ P @ F - P - np.outer(F.T @ PG, K) + Q))
    if residual > 1e-9:
        raise RiccatiDiverged(f"Riccati residual {residual:.2e} > 1e-9")
    rho = float(np.max(np.abs(np.linalg.eigvals(F - np.outer(G, K)))))
    for a in (Q, P, M, K):
        a.flags.writeable = False
    cost = CostMatrices(Q=Q, P=P, M=M, K=K, spectral_radius=rho)
    _remember(_designs, key, cost)
    return cost


_designs = {}   # design_cost's last designs, by the bits they read


def _polytope_rhs(poly: JointAnglePolytope, beta3r, beta2r) -> np.ndarray:
    """Right-hand side ``h - H (beta3r, beta2r)'`` of the polytope recentered
    on nominal joint angles: (m,) for one station, (n, m) for arrays of n."""
    return poly.h - np.stack([beta3r, beta2r], axis=-1) @ poly.H.T


def _require_inside(hbar, s):
    """Raise NominalOutsidePolytope at the first station (row of ``hbar``,
    at stations ``s``) whose recentered right-hand side is not positive."""
    outside = np.flatnonzero(np.any(hbar <= 0.0, axis=-1))
    if len(outside):
        raise NominalOutsidePolytope(
            f"nominal joint angles at s={s[outside[0]]:.2f} outside the polytope")


def actuator_limits(params, cfg: MpcConfig):
    """(u_max, udot_max) the controllers enforce: the tighter of the
    vehicle's limits and the controller configuration's."""
    return min(params.u_max, cfg.u_max), min(params.udot_max, cfg.udot_max)


def clamp_box(u, u_max):
    """The command ``u`` clamped to [-u_max, u_max], ``u`` on a tie."""
    return min(max(u, -u_max), u_max)


def clamp_slew(u, u_prev, width):
    """The command ``u`` clamped to ``width`` around ``u_prev``, ``u`` on a tie."""
    return min(max(u, u_prev - width), u_prev + width)


def _slew_widths(params, udot_max, beta3r, beta2r, ur):
    """(C1, udot_max / C1) at nominal stations, floats or arrays: the speed
    ratio and the curvature-rate bound per meter of semitrailer travel.
    The bound means nothing where C1 <= SINGULAR_TOL; callers check C1
    with :func:`_require_regular`."""
    c1 = chain_terms(params, np.sin(beta2r), np.cos(beta2r), np.cos(beta3r), ur)[0]
    with np.errstate(divide="ignore"):
        return c1, udot_max / c1


def _require_regular(c1, s):
    """Raise SingularConfiguration at the first station (``c1`` at
    stations ``s``) whose speed ratio is at most SINGULAR_TOL."""
    singular = np.flatnonzero(c1 <= SINGULAR_TOL)
    if len(singular):
        i = singular[0]
        raise SingularConfiguration(f"nominal C1 = {c1[i]:.3e} at s={s[i]:.2f}")


@dataclass
class ControllerState:
    u_prev: float = None
    s_prev: float = 0.0
    # the last certified QP answer (certified_solve's Answer), on the
    # condensed structure hot_struct at grid base hot_base: the next cycle
    # starts from it, shifted to its own base when its structure is another
    hot: Answer = None
    hot_struct: object = None
    hot_base: int = None


@dataclass(slots=True)
class StepDiagnostics:
    """What one control cycle records, the schema of ``sim.RunLog`` and its
    CSV, which add the ``qp_status`` that ``solver_path`` implies; the QP
    fields keep their defaults on an LQ baseline cycle."""

    s: float
    error: PathError
    u_cmd: float
    # which path gave the command: "parametric" (the hot start from the
    # last cycle's answer, on its condensed structure or shifted to a new
    # one), "ipm" (the interior point, or its crossover) or "lq_fallback"
    # (no certified answer: the cycle never asks why, as its QPs are
    # strictly convex and the fallback is the same); the LQ baseline
    # reports "lq".  The run log derives its qp_status column from it
    solver_path: str
    solve_ms: float
    # phases of solve_ms: projection, reference sample and error
    # (compute_error), the condensed structure (condensing the
    # horizon's station models, cached by content), and the QP: this
    # cycle's QP data (q, l, u, b), the hot start (shifted by _shifted_hot
    # on a new structure) and the solve with its certificate
    t_project_ms: float
    t_structure_ms: float = 0.0
    t_solve_ms: float = 0.0
    # certified_solve's answer (qp.Answer; on an "lq_fallback" cycle the
    # interior point): its objective; its iterations, what the solvers did
    # (the breakpoints of each homotopy, also one that gave up, plus the
    # IPM's iterations); its worst KKT residual (primal, dual or
    # complementarity); and its largest slack, 0 on a fallback
    qp_obj: float = 0.0
    qp_iterations: int = 0
    kkt_max: float = 0.0
    slack_max: float = 0.0
    # whether this cycle built its condensed structure (False when a cached
    # one with the same content served it)
    structure_built: bool = False


class _QpStructure:
    """Condensed QP pieces that survive across control cycles, shared by
    every grid base whose horizon has the same content.

    The QP over the N inputs x and the soft rows' slacks eps is kept in its
    blocks: cost ``0.5 x'P_uu x + (W x0)'x`` plus the slack penalties of the
    configuration; hard rows ``l <= A_in x <= u`` (N box rows, then the
    per-cycle slew row N and the N - 1 rows of the slew chain);
    soft rows ``G x - eps <= hbar - HsPhi x0`` (the joint-angle polytope at
    stages 1..N, ``n_slack`` of them, none for a rowless polytope) and eps >= 0.
    ``A_in`` depends on no grid base: every structure of one controller
    shares the same array.  ``factors`` keeps the QP
    solves' factorizations on this structure (:class:`qp.FactorCache`),
    none of them computed before a solve needs it.  ``chain`` is (l, u) of
    the box rows, then of the slew rows, as lists of floats to walk.
    """

    __slots__ = ("P_uu", "factors", "A_in", "G", "W", "HsPhi", "hbar", "l",
                 "u", "ur0", "n_inputs", "n_slack", "chain")

    def __init__(self, P_uu, A_in, G, W, HsPhi, hbar, l, u, ur0):
        self.P_uu = P_uu
        self.factors = FactorCache(P_uu)
        self.A_in = A_in
        self.G = G
        self.W = W
        self.HsPhi = HsPhi
        self.hbar = hbar
        self.l = l
        self.u = u
        self.ur0 = ur0
        self.n_inputs = A_in.shape[1]
        self.n_slack = G.shape[0]
        N = self.n_inputs
        self.chain = tuple(v.tolist() for v in (l[:N], u[:N], l[N:], u[N:]))

    def cycle_bounds(self, u_prev, width):
        """(l, u, lo, hi): copies of l and u whose per-cycle slew row is
        [lo, hi] = [u_prev - width - ur0, u_prev + width - ur0]."""
        l, u = self.l.copy(), self.u.copy()
        l[self.n_inputs] = lo = u_prev - width - self.ur0
        u[self.n_inputs] = hi = u_prev + width - self.ur0
        return l, u, lo, hi


def _hard_rows(N) -> np.ndarray:
    """The hard-row matrix A_in over N inputs: N curvature box rows, the
    per-cycle slew row on the first input, then the N - 1 rows of the slew
    chain, input k minus input k - 1."""
    A = np.zeros((2 * N, N))
    A[np.arange(N), np.arange(N)] = 1.0
    A[N, 0] = 1.0
    A[np.arange(N + 1, 2 * N), np.arange(1, N)] = 1.0
    A[np.arange(N + 1, 2 * N), np.arange(N - 1)] = -1.0
    return A


class MpcController:
    """Closed-loop MPC: project, condense the horizon's station models, solve.

    The constructor linearizes the error dynamics once at every distinct
    station of the path, distinct in the bits of the path data the models
    and the QP rows read.  The prediction grid is snapped to the path's
    sample grid, and a condensed structure is cached under the ids of its
    horizon's stations, so that the control cycles between two grid
    stations, and every grid base of a straight stretch, share one.
    ``polytope`` None is :func:`default_joint_polytope`; a polytope with no
    rows, ``JointAnglePolytope(np.zeros((0, 2)), np.zeros(0))``, adds none.
    """

    def __init__(self, params, path: NominalPath, cfg: MpcConfig = None,
                 polytope: JointAnglePolytope = None):
        self.params = params
        self.cfg = cfg or MpcConfig()
        if self.cfg.delta_s != path.delta_s:
            raise ValueError("prediction grid spacing must equal the path spacing")
        self.u_max, self.udot_max = actuator_limits(params, self.cfg)
        self.slew_per_cycle = self.udot_max / self.cfg.f_s   # slew half-width
        self.polytope = polytope if polytope is not None else default_joint_polytope()
        self.cost = design_cost(
            params, self.cfg, analytic_straight_model(params, path.direction,
                                                      self.cfg.delta_s))
        margin = 1.2 * self.cfg.horizon * self.cfg.delta_s
        self.path = extend_for_horizon(params, path, margin)
        if np.max(np.abs(self.path.u)) > self.u_max:
            raise InfeasiblePath(
                f"nominal curvature {np.max(np.abs(self.path.u)):.3f} exceeds "
                f"the curvature limit {self.u_max}")
        # per-station tables over the extended path, read by every build:
        # the polytope rows recentered on the nominal joint angles, the
        # speed ratio with the slew chain's half-width udot_max / C1 * ds,
        # and the station models.  Structures hold views of _hbar and share
        # A_in whole, so these are read-only.
        ext = self.path
        # every nominal sample must sit strictly inside the polytope
        self._hbar = _polytope_rhs(self.polytope, ext.beta3, ext.beta2)
        _require_inside(self._hbar, ext.s)
        self._hbar.flags.writeable = False
        self._Hs = np.zeros((self.polytope.m, 4))
        self._Hs[:, 2:] = self.polytope.H
        self._c1, slew = _slew_widths(params, self.udot_max, ext.beta3,
                                      ext.beta2, ext.u)
        self._slew_width = slew * self.cfg.delta_s
        self._A_in = _hard_rows(self.cfg.horizon)
        self._A_in.flags.writeable = False
        # every station's id names its distinct (beta3, beta2, u, kappa3),
        # the fields the error dynamics and the rows read, compared as bits,
        # not floats, since 0.0 == -0.0 would merge stations the arithmetic
        # tells apart; the distinct stations are linearized in one call
        rows = np.column_stack([ext.beta3, ext.beta2, ext.u, ext.kappa3])
        _, first, self._ids = np.unique(
            rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
            return_index=True, return_inverse=True)
        models = linearize(params, ext.sample(first), self.cfg.delta_s)
        self._F, self._G = models.F, models.G
        # condensed structures by the ids of their horizon's stations
        self._structs_by_content = {}
        self.n_structure_builds = 0

    # -- building blocks -------------------------------------------------

    def _structure(self, base) -> _QpStructure:
        """The condensed structure of the horizon from grid base ``base``,
        shared by every base whose stations base .. base+N have the same
        ids, the last few kept."""
        key = self._ids[base:base + self.cfg.horizon + 1].tobytes()
        struct = self._structs_by_content.get(key)
        if struct is None:
            struct = self._build_structure(base)
            self.n_structure_builds += 1
            _remember(self._structs_by_content, key, struct)
        return struct

    def _build_structure(self, base) -> _QpStructure:
        N = self.cfg.horizon
        path = self.path
        # the models of stations base .. base+N-1, and the slew chain's
        # stations base+1 .. base+N-1, mean nothing where C1 is singular
        ids = self._ids[base:base + N]
        _require_regular(self._c1[base:base + N], path.s[base:base + N])
        F, G = self._F[ids], self._G[ids]
        # condensing, one stage block at a time: x_{k+1} = Phi[k] x0 +
        # Gam[k] u for k = 0..N-1, the blocks side by side in [Phi | Gam]
        PG = np.zeros((N, 4, 4 + N))
        PG[0, :, :4] = F[0]
        stage = np.arange(N)
        PG[stage, :, 4 + stage] = G
        for k in range(1, N):
            np.matmul(F[k], PG[k - 1, :, :4 + k], out=PG[k, :, :4 + k])
        Phi = PG[:, :, :4]
        Gam = np.ascontiguousarray(PG[:, :, 4:])
        # the block-diagonal weight: Q on stages 1..N-1, P on stage N
        QG = np.empty((N, 4, N))
        QG[:-1] = self.cost.Q @ Gam[:-1]
        QG[-1] = self.cost.P @ Gam[-1]
        Gam2, QG2 = Gam.reshape(4 * N, N), QG.reshape(4 * N, N)
        P_uu = 2.0 * (Gam2.T @ QG2 + np.eye(N))
        P_uu = 0.5 * (P_uu + P_uu.T)
        W = 2.0 * QG2.T @ Phi.reshape(4 * N, 4)

        ur = path.u[base:base + N + 1]
        l = np.empty(2 * N)
        u = np.empty(2 * N)
        # curvature box rows
        l[:N] = -self.u_max - ur[:N]
        u[:N] = self.u_max - ur[:N]
        # row N, the per-cycle bound on the first command, is filled in per
        # cycle from u_prev; rows N+1..2N-1 chain the predicted inputs with
        # the distance-based bound
        l[N], u[N] = -np.inf, np.inf
        dur = np.diff(ur[:N])
        c = self._slew_width[base + 1:base + N]
        l[N + 1:] = -dur - c
        u[N + 1:] = -dur + c
        # soft joint-angle rows, stages 1..N
        m = self.polytope.m
        G_soft = (self._Hs @ Gam).reshape(N * m, N)
        HsPhi = (self._Hs @ Phi).reshape(N * m, 4)
        hbar = self._hbar[base + 1:base + N + 1].reshape(N * m)

        return _QpStructure(P_uu, self._A_in, G_soft, W, HsPhi, hbar, l, u,
                            float(ur[0]))

    # -- control cycle ----------------------------------------------------

    def step(self, state: VehicleState, ctrl: ControllerState):
        """One control cycle; returns (u_cmd, StepDiagnostics), mutates ctrl."""
        t0 = time.perf_counter()
        cfg = self.cfg
        s0, err, ref = compute_error(state, self.path, ctrl.s_prev)
        t_project = time.perf_counter()
        if ctrl.u_prev is None:
            ctrl.u_prev = clamp_box(ref.ur, self.u_max)
        base = int(round(s0 / cfg.delta_s))
        if (base + cfg.horizon) * cfg.delta_s > self.path.s_end + 1e-9:
            raise PathExhausted(f"horizon from s={s0:.2f} leaves the path data")
        builds = self.n_structure_builds
        struct = self._structure(base)
        t_structure = time.perf_counter()

        x0 = err.as_array()
        N = struct.n_inputs
        q = struct.W.dot(x0)
        l, u, _, _ = struct.cycle_bounds(ctrl.u_prev, self.slew_per_cycle)
        b = struct.hbar - struct.HsPhi.dot(x0)

        # on the structure of the last certified answer the rows are the
        # same, and only q, b and the per-cycle slew row's bounds moved; on
        # another one the answer moves with the grid base
        hot = ctrl.hot
        if hot is not None and ctrl.hot_struct is not struct:
            d = base - ctrl.hot_base
            hot = self._shifted_hot(hot, d, struct, l, u, b) \
                if 0 < d < N else None
        answer, path, resid, obj = certified_solve(
            struct.P_uu, q, struct.A_in, l, u, struct.G, b, cfg.slack_linear,
            cfg.slack_quad, QP_TOL, hot=hot, factors=struct.factors)
        fallback = path is None
        ctrl.hot = None if fallback else answer
        ctrl.hot_struct, ctrl.hot_base = struct, base
        t_solve = time.perf_counter()
        if fallback:
            u_cmd = self.cost.lq_command(ref.ur, x0)
        else:
            u_cmd = ref.ur + float(answer.x[0])
        u_cmd = clamp_slew(clamp_box(u_cmd, self.u_max), ctrl.u_prev,
                           self.slew_per_cycle)

        slack_max = 0.0 if fallback else float(answer.eps.max(initial=0.0))
        diag = StepDiagnostics(
            s=s0, error=err, u_cmd=u_cmd, solver_path=path or "lq_fallback",
            solve_ms=(time.perf_counter() - t0) * 1e3,
            t_project_ms=(t_project - t0) * 1e3,
            t_structure_ms=(t_structure - t_project) * 1e3,
            t_solve_ms=(t_solve - t_structure) * 1e3,
            qp_obj=obj, qp_iterations=answer.iterations, kkt_max=max(resid),
            slack_max=slack_max,
            structure_built=self.n_structure_builds > builds,
        )
        ctrl.u_prev = u_cmd
        ctrl.s_prev = s0
        return u_cmd, diag

    def _shifted_hot(self, hot, d, struct, l, u, b) -> Answer:
        """The hot start ``hot``, a certified answer at grid base base - d
        (0 < d < N), moved onto ``struct`` at base by :func:`auxiliary_hot`
        for this cycle's bounds (l, u, b).  The inputs, the box and chain
        rows and the polytope's stage blocks move by d, and the last input
        repeats.  The per-cycle slew row and the d new stages at the
        horizon's end start inactive, their duals and slacks at 0."""
        N, ms = struct.n_inputs, struct.n_slack
        kept = ms - d * (ms // N)   # soft rows of the stages that remain

        def hard(v):
            # the box rows, then the chain rows after the slew row N
            out = np.zeros(2 * N, v.dtype)
            out[:N - d], out[N + 1:2 * N - d] = v[d:N], v[N + 1 + d:]
            return out

        def soft(v):
            out = np.zeros(ms, v.dtype)
            out[:kept] = v[ms - kept:]
            return out

        sides, states = hot.sets
        return auxiliary_hot(
            struct.A_in, struct.G, l, u, b, self.cfg.slack_linear,
            np.concatenate((hot.x[d:], hot.x[N - 1:].repeat(d))), soft(hot.eps),
            hard(hot.mu), soft(hot.lam), (hard(sides), soft(states)))


class LqController:
    """Saturated LQ baseline: curvature feedforward plus state feedback, with
    pure saturation and no slew or joint-angle constraint handling."""

    def __init__(self, params, path: NominalPath, cfg: MpcConfig = None):
        self.params = params
        self.cfg = cfg or MpcConfig()
        self.cost = design_cost(
            params, self.cfg, analytic_straight_model(params, path.direction,
                                                      self.cfg.delta_s))
        self.path = extend_for_horizon(params, path,
                                       1.2 * self.cfg.horizon * self.cfg.delta_s)
        self.u_max = actuator_limits(params, self.cfg)[0]

    def step(self, state: VehicleState, ctrl: ControllerState):
        t0 = time.perf_counter()
        s0, err, ref = compute_error(state, self.path, ctrl.s_prev)
        t_project = time.perf_counter()
        u_cmd = clamp_box(self.cost.lq_command(ref.ur, err.as_array()), self.u_max)
        diag = StepDiagnostics(
            s=s0, error=err, u_cmd=u_cmd, solver_path="lq",
            solve_ms=(time.perf_counter() - t0) * 1e3,
            t_project_ms=(t_project - t0) * 1e3)
        ctrl.u_prev = u_cmd
        ctrl.s_prev = s0
        return u_cmd, diag
