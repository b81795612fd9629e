"""Joint-angle region analysis for the straight backward path.

Three pieces: (a) a simulated closed-loop stability region over a grid of
initial joint angles, (b) the LIDAR sensing region (joint angles for which
the semitrailer front edge stays inside the sensor's field-of-view cone),
and (c) a conservative inner polytope of their intersection, which becomes
the controller's joint-angle constraint set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .error_model import VALIDITY_MARGIN, wrap_angle
from .exceptions import EmptyRegion
from .model import CONV_TOL, JACKKNIFE_ANGLE, SINGULAR_TOL, derivatives_batch
from .mpc import (OCTAGON_DIRECTIONS, JointAnglePolytope, MpcConfig,
                  MpcController, clamp_box, clamp_slew, octagon)
from .params import is_real
from .paths import generate_straight
from .table import read_table, write_table


@dataclass(frozen=True)
class SweepWork:
    """A stability sweep's work: its cells and cell-cycles, the cycles the QP
    answered or left to the LQ law, and the answered solves' exchanges."""

    cells: int
    cell_cycles: int
    qp_answers: int
    lq_fallbacks: int
    exchanges: int


@dataclass
class RegionGrid:
    beta3_axis: np.ndarray
    beta2_axis: np.ndarray
    stable: np.ndarray   # bool, shape (len(beta3_axis), len(beta2_axis))
    visible: np.ndarray  # bool, same shape
    work: SweepWork = None   # the stability sweep's, when it made the grid

    def __post_init__(self):
        if np.any(np.diff(self.beta3_axis) <= 0) or np.any(np.diff(self.beta2_axis) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        shape = (len(self.beta3_axis), len(self.beta2_axis))
        for name, mask in (("stable", self.stable), ("visible", self.visible)):
            if np.shape(mask) != shape:
                raise ValueError(f"{name} mask has shape {np.shape(mask)}, "
                                 f"not the axes' {shape}")

    def write_csv(self, path):
        n3, n2 = self.stable.shape
        write_table(path, {"beta3": np.repeat(self.beta3_axis, n2),
                           "beta2": np.tile(self.beta2_axis, n3),
                           "stable": self.stable.ravel(), "visible": self.visible.ravel()})

    @classmethod
    def read_csv(cls, path) -> "RegionGrid":
        """The grid of a CSV from :meth:`write_csv`, in any row order; raises
        ValueError unless it holds each (beta3, beta2) pair exactly once and
        each flag is exactly 0 or 1."""
        data = read_table(path)
        b3 = np.unique(data["beta3"])
        b2 = np.unique(data["beta2"])
        stable = np.zeros((len(b3), len(b2)), dtype=bool)
        visible = np.zeros_like(stable)
        i = np.searchsorted(b3, data["beta3"])
        j = np.searchsorted(b2, data["beta2"])
        if len(data) != stable.size or np.unique(i * len(b2) + j).size != stable.size:
            raise ValueError("grid CSV must hold each (beta3, beta2) pair exactly once")
        for name, mask in (("stable", stable), ("visible", visible)):
            if not np.isin(data[name], (0.0, 1.0)).all():
                raise ValueError(f"grid CSV's {name} flags must be 0 or 1")
            mask[i, j] = data[name] == 1.0
        return cls(b3, b2, stable, visible)


def make_axes(spacing_deg=2.0):
    """Symmetric grid axes at the multiples of the spacing inside [-90, 90]
    degrees, in both joint angles (both ends when the spacing divides 90);
    raises ValueError for a spacing outside (0, 90] degrees."""
    if not 0.0 < spacing_deg <= 90.0:
        raise ValueError(f"spacing must lie in (0, 90] degrees, got {spacing_deg}")
    # the tolerance keeps a divisor whose quotient rounds just below an integer
    n = math.floor(90.0 / spacing_deg + 1e-9)
    axis = np.arange(-n, n + 1) * math.radians(spacing_deg)
    return axis, axis.copy()


def merge(a: RegionGrid, b: RegionGrid) -> RegionGrid:
    if len(a.beta3_axis) != len(b.beta3_axis) or \
            len(a.beta2_axis) != len(b.beta2_axis) or \
            np.max(np.abs(a.beta3_axis - b.beta3_axis)) > 1e-12 or \
            np.max(np.abs(a.beta2_axis - b.beta2_axis)) > 1e-12:
        raise ValueError("grids must share axes")
    return RegionGrid(a.beta3_axis.copy(), a.beta2_axis.copy(),
                      a.stable | b.stable, a.visible | b.visible,
                      a.work if a.work is not None else b.work)


def sensing_region(params, beta3_axis, beta2_axis) -> RegionGrid:
    """Joint angles for which the semitrailer front edge is fully inside the
    LIDAR's field-of-view cone.

    The sensor sits at the tractor's hitch point looking backward along the
    tractor axis; the front edge spans the semitrailer width at the front
    overhang.  The cone is convex, so the segment is inside iff both
    endpoints are.
    """
    B3, B2 = np.meshgrid(beta3_axis, beta2_axis, indexing="ij")
    theta2 = B3          # semitrailer heading taken as zero
    theta1 = B3 + B2
    # hitch point relative to the semitrailer axle
    hx = params.L3 + params.L2 * np.cos(theta2)
    hy = params.L2 * np.sin(theta2)
    ax_x = -np.cos(theta1)   # backward-facing cone axis
    ax_y = -np.sin(theta1)
    cos_half = math.cos(params.phi / 2.0)

    visible = np.ones_like(B3, dtype=bool)
    for sign in (1.0, -1.0):
        ex = params.La - hx                     # front-edge endpoint minus apex
        ey = sign * params.b / 2.0 - hy
        norm = np.hypot(ex, ey)
        inside = (ex * ax_x + ey * ax_y) >= cos_half * norm - 1e-12
        visible &= inside & (norm > 1e-9)
    grid = RegionGrid(np.asarray(beta3_axis, float), np.asarray(beta2_axis, float),
                      np.zeros_like(visible), visible)
    return grid


def stability_sweep(params, cfg: MpcConfig, beta3_axis, beta2_axis,
                    distance=150.0, progress=None) -> RegionGrid:
    """Closed-loop MPC stability over a grid of initial joint angles.

    Backward straight path, no joint-angle constraints (curvature box and
    slew stay hard).  A cell is Stable iff the error infinity norm drops
    below 0.02 within the distance budget without jackknifing or leaving the
    error model's valid domain.  The straight path makes every cycle's QP
    share one (P, A) pair, so each cell's active set carries over between
    cycles and most solves finish in one exchange, each on one working-set
    factorization that it updates by one row per exchange.  The map
    is odd-symmetric in (beta3, beta2); only half the grid is simulated and
    the rest mirrored.  The cycle rules are the controller's (:mod:`mpc`).
    The grid's ``work`` is a :class:`SweepWork`.

    ``progress``, when given, is called as ``progress(done, total)`` after
    every control cycle of the sweep with the number of simulated cells
    finished so far, and once more with ``done == total`` when the sweep
    ends.
    """
    from .qp import row_structure, soft_qp_solve

    if not is_real(distance, 0.0):
        raise ValueError(f"distance must be a positive, finite number, got {distance}")
    path = generate_straight(distance + 20.0, -1.0, cfg.delta_s)
    controller = MpcController(params, path, cfg,
                               JointAnglePolytope(np.zeros((0, 2)), np.zeros(0)))
    struct = controller._structure(0)
    N = struct.n_inputs
    dt = 1.0 / cfg.f_s
    width = controller.slew_per_cycle
    single_col = row_structure(struct.A_in)

    # simulate the half-grid with beta3 > 0, plus the beta3 = 0, beta2 >= 0 ray
    cells = [(i, j) for i, b3 in enumerate(beta3_axis)
             for j, b2 in enumerate(beta2_axis)
             if b3 > 0.0 or (b3 == 0.0 and b2 >= 0.0)]
    idx = np.array(cells, dtype=int)
    K = len(idx)
    X = np.zeros((5, K))  # (x3, y3, theta3, beta3, beta2); on-path start
    X[3] = beta3_axis[idx[:, 0]]
    X[4] = beta2_axis[idx[:, 1]]

    alive = np.ones(K, dtype=bool)
    stable_flat = np.zeros(K, dtype=bool)
    u_prev = [0.0] * K
    warm_y = np.zeros((N, K))
    warm_sets = [None] * K
    cycles = answers = exchanges = 0

    # immediate jackknife / singularity at t = 0
    bad0 = (np.abs(X[3]) > JACKKNIFE_ANGLE) | (np.abs(X[4]) > JACKKNIFE_ANGLE)
    alive &= ~bad0

    max_cycles = int(3.0 * distance / dt)
    for _ in range(max_cycles):
        if not np.any(alive):
            break
        a = np.where(alive)[0]
        # straight backward path: station s = -x3, reference heading 0
        err = np.vstack([X[1, a], wrap_angle(X[2, a]), X[3, a], X[4, a]])

        conv = np.abs(err).max(axis=0) < CONV_TOL
        stable_flat[a[conv]] = True
        alive[a[conv]] = False
        invalid = np.abs(err[1]) >= math.pi / 2.0 - VALIDITY_MARGIN
        alive[a[invalid]] = False
        done = (-X[0, a]) >= distance
        alive[a[done]] = False
        a = np.where(alive)[0]
        if len(a) == 0:
            break

        err_a = np.vstack([X[1, a], wrap_angle(X[2, a]), X[3, a], X[4, a]])
        q = struct.W @ err_a
        u_cmd = np.empty(len(a))
        for c, col in enumerate(a):
            l_c, u_c, lo, hi = struct.cycle_bounds(u_prev[col], width)
            ut = _feasible_inputs(struct, lo, hi, warm_y[:, col])
            res = None
            if ut is not None:
                res = soft_qp_solve(struct.P_uu, q[:, c], struct.A_in, l_c, u_c,
                                    struct.G, struct.hbar, 0.0, 1.0, ut,
                                    single_col, warm=warm_sets[col])
            if res is None:
                warm_sets[col] = None
                u = controller.cost.lq_command(struct.ur0, err_a[:, c])
            else:
                warm_y[:, col] = res.x
                warm_sets[col] = res.sets
                answers += 1
                exchanges += res.iterations
                u = float(res.x[0])
            u_prev[col] = u_cmd[c] = clamp_slew(clamp_box(u, controller.u_max),
                                                u_prev[col], width)
        cycles += len(a)

        # plant: RK4 with substeps under zero-order-held commands
        sub = 5
        h = dt / sub
        Xa = X[:, a]
        singular = np.zeros(len(a), dtype=bool)
        for _ in range(sub):
            k1, c1 = derivatives_batch(params, Xa, u_cmd, -1.0)
            k2, _ = derivatives_batch(params, Xa + 0.5 * h * k1, u_cmd, -1.0)
            k3, _ = derivatives_batch(params, Xa + 0.5 * h * k2, u_cmd, -1.0)
            k4, _ = derivatives_batch(params, Xa + h * k3, u_cmd, -1.0)
            Xa = Xa + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            singular |= c1 <= SINGULAR_TOL
        X[:, a] = Xa
        jack = singular | (np.abs(Xa[3]) > JACKKNIFE_ANGLE) | \
            (np.abs(Xa[4]) > JACKKNIFE_ANGLE) | ~np.all(np.isfinite(Xa), axis=0)
        alive[a[jack]] = False
        if progress is not None:
            progress(K - int(np.count_nonzero(alive)), K)

    if progress is not None:
        # cells still running when the cycles run out are finished too
        progress(K, K)
    stable = np.zeros((len(beta3_axis), len(beta2_axis)), dtype=bool)
    stable[idx[:, 0], idx[:, 1]] = stable_flat
    # mirror (beta3, beta2) -> (-beta3, -beta2): the straight-path closed loop
    # is exactly odd-symmetric, so labels transfer unchanged
    stable |= stable[::-1, ::-1]
    return RegionGrid(np.asarray(beta3_axis, float), np.asarray(beta2_axis, float),
                      stable, np.zeros_like(stable),
                      SweepWork(K, cycles, answers, cycles - answers, exchanges))


def _feasible_inputs(struct, lo, hi, guess):
    """A point satisfying the box rows and the slew chain of the condensed
    structure ``struct`` (its ``chain``), with the per-cycle slew row's
    bounds [lo, hi], built by clipping the guess forward through the chain;
    None if a link of the chain closes."""
    lo_box, hi_box, lo_slew, hi_slew = struct.chain
    prev, ut = 0.0, []
    # link k spells out max(lo_box[k], prev + lo_slew[k]),
    # min(hi_box[k], prev + hi_slew[k]) and min(max(g[k], lo), hi), which
    # cost more as calls than the comparisons; each keeps the first operand
    # on a tie, as max and min do.  Link 0 is the per-cycle row, from 0.0
    for lo_b, hi_b, lo_s, hi_s, g_k in zip(lo_box, hi_box, [lo] + lo_slew[1:],
                                            [hi] + hi_slew[1:], guess.tolist()):
        lo = prev + lo_s
        if not lo > lo_b:
            lo = lo_b
        hi = prev + hi_s
        if not hi < hi_b:
            hi = hi_b
        if lo > hi:
            return None
        prev = lo if lo > g_k else g_k
        if hi < prev:
            prev = hi
        ut.append(prev)
    return np.array(ut)


def fit_inner_polytope(grid: RegionGrid, margin=0.05) -> JointAnglePolytope:
    """Largest symmetric octagon whose grid cells are all Stable and Visible.

    The good region is first eroded by ``margin`` (a cell survives only if
    every cell within that radius is good); supports along the four +/-
    direction pairs start at the eroded region's extent and shrink greedily
    until no bad cell remains inside.  Raises EmptyRegion when nothing is
    left.  ``margin`` must be finite and >= 0 (ValueError otherwise).
    """
    if not is_real(margin, 0.0, closed=True):
        raise ValueError(f"margin must be a finite number >= 0, got {margin}")
    good = grid.stable & grid.visible
    B3, B2 = np.meshgrid(grid.beta3_axis, grid.beta2_axis, indexing="ij")

    # erosion by the margin radius
    d3 = float(np.min(np.diff(grid.beta3_axis)))
    d2 = float(np.min(np.diff(grid.beta2_axis)))
    r3 = int(math.ceil(margin / d3))
    r2 = int(math.ceil(margin / d2))
    n3, n2 = good.shape
    padded = np.zeros((n3 + 2 * r3, n2 + 2 * r2), dtype=bool)
    padded[r3:r3 + n3, r2:r2 + n2] = good  # outside the grid counts as bad
    eroded = good.copy()
    for di in range(-r3, r3 + 1):
        for dj in range(-r2, r2 + 1):
            if (di * d3) ** 2 + (dj * d2) ** 2 > margin ** 2 + 1e-12:
                continue
            eroded &= padded[r3 + di:r3 + di + n3, r2 + dj:r2 + dj + n2]
    if not eroded.any() or not eroded[np.searchsorted(grid.beta3_axis, 0.0),
                                      np.searchsorted(grid.beta2_axis, 0.0)]:
        raise EmptyRegion("eroded Stable-and-Visible region does not contain the origin")

    pts = np.column_stack([B3.ravel(), B2.ravel()])
    safe = eroded.ravel()
    proj = np.abs(pts @ OCTAGON_DIRECTIONS.T)  # symmetric pairs share a support
    support = proj[safe].max(axis=0)
    if np.any(support <= 0.0):
        raise EmptyRegion("eroded region has no extent along a support direction")

    unsafe_proj = proj[~safe]
    while True:
        inside = np.all(unsafe_proj <= support[None, :] + 1e-12, axis=1)
        if not inside.any():
            break
        # exclude the offending cell along its most binding direction
        viol = unsafe_proj[inside]
        ratios = viol / support[None, :]
        row = int(np.argmax(ratios.max(axis=1)))
        j = int(np.argmax(ratios[row]))
        support[j] = viol[row, j] - 1e-9
        if support[j] <= 1e-9:
            raise EmptyRegion("supports collapsed while excluding unsafe cells")

    return octagon(support)
