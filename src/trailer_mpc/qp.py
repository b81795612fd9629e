"""Dense convex QP solvers.

Solves problems of the form

    minimize    0.5 * x'Px + q'x + sum_i (sig1 eps_i + sig2 eps_i^2)
    subject to  l <= Ax <= u,   Gx - eps <= b,   eps >= 0,

with P symmetric positive semidefinite and one-sided soft rows ``G`` whose
slacks ``eps`` stay out of the x space; this is "the soft QP" below.
:func:`certified_solve` is the one solve entry, used by the controller and
by :func:`solve_qp` (no soft rows).  Its one active-set method, the
parametric homotopy (:func:`parametric_solve`), runs from the caller's hot
start, then as the crossover after a capped Mehrotra interior point
(:func:`soft_ipm_solve`) from its working set (:func:`auxiliary_hot`).  A
homotopy keeps one factorization of its working set for its whole path
(:class:`_WorkingFactor`: one QR of all working rows, box rows that pin an
input among them, updated by one row per breakpoint, and a Cholesky of the
reduced Hessian), and lets a soft row pass its kink without entering it.
Each answer is certified by :func:`soft_kkt_residuals` on the lifted
problem over (x, slacks) without forming it; when none passes, the status
is MaxIter.  A certified answer is the next solve's hot start, in the one
working-set format of :class:`HotStart`.  Without a hot start,
:func:`soft_qp_solve` is a primal active set on the hard rows alone, which
only the region sweep runs; it solves a working set again only after it
changes, and splits each solve (:func:`_solve_active`) into a
factorization of the working rows, which a :class:`FactorCache` keeps for
the working sets used last, and a solve for the right-hand sides.
:class:`PreparedQp` is the chain's front end for repeated solves of QPs
without soft rows that share P and A: it validates each problem,
hot-starts each solve from the last certified answer, with one
:class:`FactorCache`, and labels a failure primal or dual infeasible;
:func:`solve_qp` is its one-shot form.  The
benchmark's span tracer (``perfbench/spans.py``) resolves
``PreparedQp.solve``, ``cho_factor``, ``cho_solve``, ``lu_factor`` and
:func:`kkt_residuals` here by name.
"""

from __future__ import annotations

import bisect
import inspect
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# No solver here calls cho_factor or cho_solve.  They are imported because
# the benchmark's span tracer (perfbench/spans.py) resolves them in this
# module by name; ROADMAP item 1b retargets those spans, and then they go.
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg import LinAlgWarning, qr_delete, qr_insert
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs
from scipy.linalg.lapack import dgeqp3 as _geqp3, dorgqr as _orgqr
from scipy.linalg.lapack import dtrtrs as _trtrs


class QpStatus:
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"


@dataclass
class QpProblem:
    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def validate(self):
        n = np.size(self.q)
        if np.shape(self.q) != (n,) or np.shape(self.P) != (n, n):
            raise ValueError("P/q dimension mismatch")
        if np.ndim(self.A) != 2 or np.shape(self.A)[1] != n:
            raise ValueError("A column count must match len(q)")
        m = np.shape(self.A)[0]
        if np.shape(self.l) != (m,) or np.shape(self.u) != (m,):
            raise ValueError("l/u must match A row count")
        # NaN fails every check; l may be -inf and u +inf
        if not (all(np.isfinite(a).all() for a in (self.P, self.q, self.A)) and
                np.all(self.l < np.inf) and np.all(self.u > -np.inf)):
            raise ValueError("P, q and A must be finite, l below +inf and u above -inf")
        if np.max(np.abs(self.P - self.P.T)) > 1e-12 * max(1.0, np.max(np.abs(self.P))):
            raise ValueError("P must be symmetric")
        if np.any(self.l > self.u + 1e-12):
            raise ValueError("l <= u must hold componentwise")


@dataclass
class QpSolution:
    y: np.ndarray
    duals: np.ndarray
    status: str
    iterations: int
    objective: float
    primal_residual: float
    dual_residual: float
    comp_residual: float


def row_structure(A):
    """For each row: the column index if the row has a single nonzero, else -1."""
    nz = A != 0.0
    counts = nz.sum(axis=1)
    cols = np.argmax(nz, axis=1)
    return np.where(counts == 1, cols, -1)


def lu_factor(K):
    """LU factorization of the square KKT matrix ``K``: (lu, piv) for
    ``getrs``.  A thin ``getrf`` call: at the active-set method's sizes
    scipy's ``lu_factor`` wrapper costs more than the factorization itself.
    ``K`` is overwritten when it is Fortran-ordered."""
    lu, piv, info = _getrf(K, overwrite_a=True)
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=2)
    return lu, piv


def _solve_active(P, q, A_w, b_w, sc_w):
    """Equality-constrained solve on a working set.

    ``A_w`` holds the working rows (C-ordered), ``b_w`` their right-hand
    sides and ``sc_w`` their single nonzero column (-1 for a general row, as
    in :func:`row_structure`).  Variables pinned by single-entry rows are
    eliminated, which keeps the KKT system small even when many simple
    bounds are active.  Redundant bounds on an already-pinned variable and
    rows touching only pinned variables are left inactive (dual 0).
    Returns (x, lam) with the working rows' duals, or None.  The work is
    split in two: :func:`_factor_active` depends on the rows alone and
    :func:`_solve_factored` on q and b_w, so a factorization serves every
    solve on the same rows with the same bits.
    """
    fac = _factor_active(P, A_w, sc_w)
    return None if fac is None else _solve_factored(P, q, b_w, fac)


class _ActiveFactor(NamedTuple):
    """The part of :func:`_solve_active` that depends on the working rows
    alone: the rows, the pinned columns ``fj`` with their pinning rows
    ``fr`` and entries ``a_fix``, the free columns, the general rows
    ``other`` kept in the KKT system (``A_O``, and ``A_R`` over the free
    columns), the gathers of P and the LU factors of the KKT matrix."""

    A_w: np.ndarray
    fj: np.ndarray
    fr: np.ndarray
    a_fix: np.ndarray
    free: np.ndarray
    other: np.ndarray
    A_O: np.ndarray
    A_R: np.ndarray
    Pff: np.ndarray
    P_fj: np.ndarray
    lu: np.ndarray
    piv: np.ndarray


def _factor_active(P, A_w, sc_w):
    """The :class:`_ActiveFactor` of the working rows ``A_w`` (single
    columns ``sc_w``), or None when they pin every variable."""
    # Called once per working set not kept factored, on small systems where
    # numpy's per-call overhead rivals the arithmetic: index sets come from
    # nonzero() and the KKT diagonal is a strided view.  Every product keeps
    # its operands and layout, so the rounding, and with it the exchange
    # sequence, stays fixed.
    n = P.shape[0]
    pin_rows = (sc_w >= 0).nonzero()[0][::-1]
    fix_row = np.full(n, -1, dtype=np.intp)
    # reversed assignment so the first pinning row of a column wins
    fix_row[sc_w[pin_rows]] = pin_rows
    fixed = fix_row >= 0
    fj = fixed.nonzero()[0]
    fr = fix_row[fj]
    free = (~fixed).nonzero()[0]
    nf = len(free)
    if nf == 0:
        # Every variable is pinned, so no KKT system is left.  This returns
        # None, as the solve always has (it used to fail on the max of an
        # empty right-hand side); see the FOUND line on the all-pinned KKT
        # in CHANGES.md.
        return None
    a_fix = A_w[fr, fj]
    other = (sc_w < 0).nonzero()[0]
    A_O = A_R = None
    if len(other):
        A_O = A_w[other]
        # A_R stays Fortran-ordered as this gather makes it: BLAS rounds a
        # matvec differently for another layout
        A_R = A_O[:, free]
        keep = (A_R != 0.0).any(axis=1)
        if not keep.all():
            other = other[keep]
            A_O = A_O[keep]
            A_R = A_O[:, free]
    k = len(other)

    reg = 1e-9
    nk = nf + k
    free_col = free[:, None]
    Pff = P[free_col, free]
    Kmat = np.zeros((nk, nk), order="F")
    Kmat[:nf, :nf] = Pff
    diag = Kmat.reshape(-1, order="F")[::nk + 1]   # a view
    diag[:nf] += reg
    if k:
        Kmat[:nf, nf:] = A_R.T
        Kmat[nf:, :nf] = A_R
        diag[nf:] -= reg
    lu, piv = lu_factor(Kmat)
    return _ActiveFactor(A_w, fj, fr, a_fix, free, other, A_O, A_R, Pff,
                         P[free_col, fj], lu, piv)


def _solve_factored(P, q, b_w, fac):
    """:func:`_solve_active` of the working rows factored in ``fac`` (an
    :class:`_ActiveFactor`) with right-hand sides ``b_w``: (x, lam) or
    None."""
    # the refinement writes into preallocated slices; see _factor_active on
    # the operands
    A_w, fj, fr, a_fix, free, other, A_O, A_R, Pff, P_fj, lu, piv = fac
    nf, k = len(free), len(other)
    nk = nf + k
    x = np.zeros(len(q))
    x[fj] = b_w[fr] / a_fix
    rhs = np.empty(nk)
    rhs_f, rhs_k = rhs[:nf], rhs[nf:]
    np.subtract(-q[free], P_fj @ x[fj], out=rhs_f)
    if k:
        np.subtract(b_w[other], A_O @ x, out=rhs_k)
    sol = _getrs(lu, piv, rhs)[0]
    # iterative refinement against the unregularized system; the extra
    # passes matter when large soft-penalty folds make Pff ill-conditioned
    # and active rows carry duals of ~1e3
    tol = 1e-13 * (1.0 + np.abs(rhs).max())
    resid = np.empty(nk)
    resid_f, resid_k = resid[:nf], resid[nf:]
    for _ in range(3):
        np.subtract(rhs_f, Pff @ sol[:nf], out=resid_f)
        if k:
            resid_f -= A_R.T @ sol[nf:]
            np.subtract(rhs_k, A_R @ sol[:nf], out=resid_k)
        if np.abs(resid).max() <= tol:
            break
        sol = sol + _getrs(lu, piv, resid)[0]
    if not np.isfinite(sol).all():
        return None
    x[free] = sol[:nf]
    lam = np.zeros(len(A_w))
    lam[other] = sol[nf:]
    # duals of the pinning bound rows from stationarity
    grad = P @ x + q + A_w.T @ lam
    if len(fj):
        lam[fr] = -grad[fj] / a_fix
    return x, lam


def _fold(P, q, G, b, sig1, sig2, elim):
    """(P, q) with the penalty of the eliminated soft rows ``elim`` folded
    in: each such slack is substituted by its violation G_i x - b_i.
    Always returns new arrays."""
    GE = G[elim]
    if len(GE):
        return (P + (2.0 * sig2) * (GE.T @ GE),
                q + GE.T @ (sig1 - 2.0 * sig2 * b[elim]))
    return P.copy(), q.copy()


def soft_qp_solve(P, q, A, l, u, G, b, sig1, sig2, x0, single_col=None,
                  max_iter=3000, warm=None, hot=None, factors=None):
    """Solve of the soft QP: by the parametric homotopy with ``hot``,
    else by a primal active set on the hard rows alone.

    ``hot`` takes a :class:`HotStart`, the optimum of a problem with the
    same P, A and G (an answer, or :func:`auxiliary_hot` of a guess).  The
    solve then follows the optimum's path from it
    (:func:`parametric_solve`, at most ``max_iter`` breakpoints, each counted
    as an iteration, with ``factors``, a :class:`FactorCache` or None), and
    x0 and warm are not used.

    Without ``hot`` the problem may have no soft rows (``G`` with no rows;
    ValueError otherwise): the region sweep's solve of l <= Ax <= u, a
    primal active set from x0, which must satisfy the rows.  Iterates stay
    feasible and the cost decreases monotonically.  ``warm`` takes the
    working set returned by a previous call on a problem with the same
    rows; if its equality-constrained point is feasible the iteration
    starts there, which usually finishes in a handful of exchanges when the
    data changed only slightly.  A working set is solved once until it
    changes: the warm start's trial solve serves the first iteration, also
    when its point is infeasible and x0 lands on the same working set, and
    a full step that adds no row reuses its solve.  ``factors``, a
    :class:`FactorCache` of P and A, keeps the factorizations of the
    working sets used last across calls; None makes a cache for this call
    alone, with the same bits.

    Returns (x, eps, mu, lam, nu, sets, iterations, products) -- duals of
    the hard, soft and nonnegativity rows, the final working set (sides,
    states) in the format of :class:`HotStart`, the number of iterations
    and (A x, G x) as the solve formed them; None on failure.
    Without ``hot`` the soft parts are empty, the products None, and each
    iteration is one equality-constrained solve (a step, an exchange, or
    the final optimality check; the warm start's trial solve is not
    counted).
    """
    if hot is not None:
        return parametric_solve(P, q, A, l, u, G, b, sig1, sig2, hot,
                                max_iter, factors)[0]
    if G.shape[0]:
        raise ValueError("soft rows need a hot start: without one "
                         "soft_qp_solve solves hard rows only")
    mh = A.shape[0]
    if single_col is None:
        single_col = row_structure(A)
    if factors is None:
        factors = FactorCache(P)
    fin_u = np.isfinite(u)
    fin_l = np.isfinite(l)
    su = np.where(fin_u, u, 0.0)
    sl = np.where(fin_l, l, 0.0)
    htol_u = 1e-9 * (1.0 + np.abs(su))
    htol_l = 1e-9 * (1.0 + np.abs(sl))

    def eq_point(sides):
        """:func:`_solve_active` on the hard rows at their side ``sides``:
        ((x, duals), rows) or None."""
        rows_h = sides.nonzero()[0]
        fac = factors.active(rows_h, A, single_col)
        if fac is None:
            return None
        res = _solve_factored(P, q, np.where(sides > 0, u, l)[rows_h], fac)
        return None if res is None else (res, rows_h)

    # the equality solve of the current working set, once it has one: a
    # solve depends on nothing else, so it is redone only after a change
    res = trial = None
    if warm is not None and len(warm[0]) == mh:
        w_sides = np.array(warm[0], dtype=np.int8)
        res = eq_point(w_sides)
        if res is not None:
            x_w = res[0][0]
            vw = A @ x_w
            if np.any(vw > u + htol_u) or np.any(vw < l - htol_l):
                trial, res = res, None
            else:
                x, vh = x_w, vw
                sides = w_sides
    if res is None:
        x = np.asarray(x0, dtype=float).copy()
        vh = A @ x
        if np.any(vh > u + 1e-7 * (1.0 + np.abs(su))) or \
           np.any(vh < l - 1e-7 * (1.0 + np.abs(sl))):
            return None
        sides = np.zeros(mh, dtype=np.int8)
        sides[fin_l & (vh <= l + htol_l)] = -1
        sides[fin_u & (vh >= u - htol_u)] = 1
        if trial is not None and np.array_equal(sides, w_sides):
            res = trial

    for it in range(1, max_iter + 1):
        if res is None:
            res = eq_point(sides)
            if res is None:
                return None
        (x_new, lam_w), rows_h = res
        px = x_new - x
        if np.abs(px).max(initial=0.0) <= \
                1e-11 * (1.0 + np.abs(x).max(initial=0.0)):
            mu = np.zeros(mh)
            mu[rows_h] = lam_w
            # a dual of the wrong sign for its row's side
            wrong_h = np.maximum(-sides * mu, 0.0)
            if not (wrong_h > 1e-9).any():
                empty = np.zeros(0)
                return x_new, empty, mu, empty, empty, \
                    (sides, np.zeros(0, dtype=np.int8)), it, None
            # release one row at a time (most negative dual): mass drops at
            # degenerate vertices trigger long chains of zero-length re-adds
            sides[np.argmax(wrong_h)] = 0
            res = None
            continue
        # ratio test over the inactive rows, upper sides first so that ties
        # go to them
        Ap = A @ px
        alpha = 1.0
        kind = row = None
        # the small slack added to each gap lets the step pass through rows
        # that are tight only to rounding error; the next equality solve pins
        # the added row back onto its bound exactly
        for kd, cand in enumerate((fin_u & (sides != 1) & (Ap > 1e-13),
                                   fin_l & (sides != -1) & (Ap < -1e-13))):
            idx = cand.nonzero()[0]
            if not len(idx):
                continue
            if kd == 0:
                r = (u[idx] - vh[idx] + htol_u[idx]) / Ap[idx]
            else:
                r = (l[idx] - vh[idx] - htol_l[idx]) / Ap[idx]
            j = int(r.argmin())
            if r[j] < alpha:
                alpha = max(r[j], 0.0)
                kind = kd
                row = idx[j]
        x = x + alpha * px
        vh = vh + alpha * Ap
        if kind is not None:
            sides[row] = 1 if kind == 0 else -1
            res = None
    return None


# Iteration cap of soft_ipm_solve.  On the 878 handovers of the six paper
# MPC runs at seed 0 the IPM took 15.5 iterations at the median, 18 at the
# 90th percentile and 22 at most.
IPM_MAX_ITER = 30
# Breakpoint cap of each homotopy of certified_solve: the hot start (on the
# last answer's structure or shifted onto a new one) and the crossover after
# the IPM.  At seed 0 the six paper MPC runs hand only their first cycle over
# to the IPM uncapped, as at this cap (no homotopy needs more than 28
# breakpoints); at a cap of 20 they hand over 16 cycles and at 10, 86.
# A breakpoint costs about 0.2 ms and a handover 10-20 ms, so a path that
# runs to the cap still costs less than the handover it replaces.
EXCHANGE_CAP = 30
# Working sets whose factor halves a FactorCache keeps for the active set
# without a hot start.  An entry of the default 50-input structure holds up
# to about 0.1 MB.  On the 15-degree, 60 m region sweep 8 entries cut the
# LU factorizations from 45 250 to 19 338; 32 and 128 entries cut them to
# 16 484 and 13 207 but the sweep's time by only 3 % and 6 % more.
ACTIVE_CACHE_SIZE = 8


# the states of a soft row in a working set besides 0 (see HotStart)
KINK, ELIM = 1, 2


class HotStart(NamedTuple):
    """The start of :func:`parametric_solve`: the hard-row bounds ``l``/``u``
    and soft-row bounds ``b`` of a problem with the same P, A and G as the
    one it hot-starts, its optimum -- x, slacks ``eps`` and the duals
    ``mu`` of the hard rows and ``lam`` of the soft rows -- and its working
    set; a certified answer (:func:`certified_solve`), or
    :func:`auxiliary_hot` of a guess.

    The working set ``sets`` is the pair (sides, states) of int8 arrays,
    the one format of every solver here: ``sides[i]`` is 1 when hard row i
    is working at its upper bound, -1 at its lower bound and 0 off the
    working set; ``states[j]`` is 0 when soft row j's slack sits at zero,
    ``KINK`` when the row is held at its kink, and ``ELIM`` when its slack
    is eliminated (substituted by the row's violation)."""

    l: np.ndarray
    u: np.ndarray
    b: np.ndarray
    x: np.ndarray
    eps: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    sets: tuple


def auxiliary_hot(A, G, l, u, b, sig1, x, eps, mu, lam, sets) -> HotStart:
    """A :class:`HotStart` that makes a guess -- x, slacks eps, duals mu and
    lam, and working set ``sets`` in the format of :class:`HotStart` --
    the optimum of an auxiliary problem near (l, u, b), as in the hot start
    with varying matrices (Ferreau et al., Math. Prog. Comp. 2014).  Working
    rows are made tight at x (Ax, Gx on a kink row, Gx - eps on an
    eliminated one), every other bound widens to x, and the duals are
    clipped to their rows' signs (a kink row's to [0, sig1])."""
    sides, states = sets
    vh, gx = A.dot(x), G.dot(x)
    up, low, kink = sides > 0, sides < 0, states == KINK
    # each bound or dual in one pass, the working rows' values copied over
    l_aux, u_aux = np.minimum(l, vh), np.maximum(u, vh)
    np.copyto(l_aux, vh, where=low)
    np.copyto(u_aux, vh, where=up)
    b_aux = np.maximum(b, gx)
    np.copyto(b_aux, gx - eps, where=states == ELIM)
    np.copyto(b_aux, gx, where=kink)
    mu_aux, lam_aux = np.zeros(len(mu)), np.zeros(len(lam))
    np.copyto(mu_aux, np.maximum(mu, 0.0), where=up)
    np.copyto(mu_aux, np.minimum(mu, 0.0), where=low)
    np.copyto(lam_aux, lam.clip(0.0, sig1), where=kink)
    return HotStart(l_aux, u_aux, b_aux, x, eps, mu_aux, lam_aux, sets)


class FactorCache:
    """Factorizations kept across the solves of QPs that share P, A and G.

    For the homotopy: P's Cholesky factor, computed on first use (upper,
    for ``potrs``; None when P is not numerically positive definite), which
    the homotopy's equality solve is whenever no row is working, and the
    working-set factorization the last homotopy ended on (all of
    :class:`_WorkingFactor`'s factors and buffers), which the next one takes
    when it starts from the same working set.  A condensed
    structure keeps one, so that a cycle hot-started on the last answer's
    structure factors neither P nor that answer's working set again.

    For the primal active set of :func:`soft_qp_solve` without a hot start:
    the factor halves (:func:`_factor_active`) of the ``ACTIVE_CACHE_SIZE``
    working sets of hard rows used last, least recently used first out, so
    that the region sweep's cells and cycles, which share P and A, factor a
    working set they return to only once."""

    __slots__ = ("P", "_chol", "_working", "_active")

    def __init__(self, P):
        self.P = P
        self._chol = None
        self._working = None
        self._active = {}   # working rows (bytes) -> _ActiveFactor or None

    def active(self, rows, A, single_col):
        """The :func:`_factor_active` of the rows ``rows`` (indices, in
        increasing order) of A, whose single columns are ``single_col``:
        kept, or computed and kept; None when the rows pin every
        variable."""
        key = rows.tobytes()
        if key in self._active:
            fac = self._active.pop(key)
        else:
            fac = _factor_active(self.P, A[rows], single_col[rows])
            if len(self._active) >= ACTIVE_CACHE_SIZE:
                # dicts keep insertion order, so the first key is the one
                # used longest ago
                del self._active[next(iter(self._active))]
        self._active[key] = fac
        return fac

    def cholesky(self):
        if self._chol is None:
            chol, info = _potrf(self.P, lower=False, clean=False)
            self._chol = False if info else chol
        return self._chol if self._chol is not False else None

    def take(self, rows):
        """The kept factorization of the working rows ``rows`` (a tuple),
        or None; either way the cache keeps none after."""
        kept, self._working = self._working, None
        return kept[1] if kept is not None and kept[0] == rows else None

    def keep(self, rows, factors):
        self._working = (rows, factors)


# a row whose part off the span of the others is below this, relative to
# its largest entry, depends on them
DEPENDENT_TOL = 1e-9
# scipy's one-row QR updates without their batch wrapper, which costs more
# than the update itself at the homotopy's sizes
_qr_insert, _qr_delete = inspect.unwrap(qr_insert), inspect.unwrap(qr_delete)


class _WorkingFactor:
    """The equality-constrained problem of a soft QP's working set, kept
    factorized while the working set changes by one row at a time, as in
    the updated factorizations of Gill, Golub, Murray & Saunders
    (Math. Comp. 1974) that qpOASES keeps (Ferreau et al., Math. Prog.
    Comp. 2014).

    Rows are numbered over the hard rows ``A``, then the soft rows ``G``
    (a soft row in the working set is a kink row, G_i x = b_i).  Every
    working row, a box row that pins its variable included, is a column of
    one full QR factorization of the working rows' transpose, W' = Q R,
    which scipy's ``qr_insert`` / ``qr_delete`` update when a row enters
    or leaves.  The trailing columns Z of Q span the null space
    of W, and a solve factors the reduced Hessian Z'PZ by Cholesky: it is
    0-3 wide when the slew chain is saturated, and P itself when no row is
    working and no soft row is eliminated.  A row enters only when it is
    independent of the working rows (:meth:`enter`, :meth:`combination`).
    Of the starting working set, a row that depends on the others (a
    second bound on a pinned variable among them) is left out with dual 0,
    and taken in again once a row leaves.  The objective is the soft QP's
    with the eliminated soft rows (indices ``elim``) folded in
    (:func:`_fold`, :meth:`fold`).  Beside ``gen``, the factored rows in R's
    column order, each change keeps ``idx`` (the same as an array, by which
    a solve writes the duals), ``W`` (the rows) and ``wval`` (their
    right-hand sides); the triangular solves read R's leading block in
    place (R is in Fortran order).
    A :class:`FactorCache` (``cache``) may keep P's factor and hand the
    factorization from one homotopy to the next (:meth:`keep`), with
    ``chol``, the reduced Hessian's factor, which lives until a change.
    With no soft row eliminated the objective is (P, q) itself, copied only
    when a row is folded in.
    """

    def __init__(self, P, q, A, G, b, sig1, sig2, elim, rows, values,
                 cache=None):
        n, mh = len(q), A.shape[0]
        self.n, self.mh, self.m = n, mh, mh + G.shape[0]
        self.P0, self.q0 = P, q
        self.n_elim = len(elim)
        self._objective(*(_fold(P, q, G, b, sig1, sig2, elim)
                          if self.n_elim else (P, q)))
        self.A, self.G = A, G
        self.b, self.sig1, self.sig2 = b, sig1, sig2
        self.cache = cache
        # working row (increasing ``rows``, hard ones first) -> right-hand
        # side, and the working rows as the cache's key until they change
        self.value = dict(zip(rows.tolist(), values.tolist()))
        self.key = tuple(self.value)
        kept = cache.take(self.key) if cache is not None else None
        if kept is None:
            self._factor(rows, values)
            self.chol = None
        else:
            # the last homotopy's factorization of this working set, and
            # its reduced Hessian's Cholesky factor when P is the same
            self.gen, self.dep, self.idx, self.Q, self.R, self.W, self.wval, \
                chol = kept
            self.chol = None if self.n_elim else chol
            k = len(self.gen)
            if k:
                self.wval[:k] = values[np.searchsorted(rows, self.idx[:k])]

    def keep(self):
        """Hand the factorization of the working set to the cache, and the
        reduced Hessian's factor when P is the cache's (no row eliminated)."""
        if self.cache is not None:
            self.cache.keep(self.key or tuple(sorted(self.value)),
                            (self.gen, self.dep, self.idx, self.Q, self.R,
                             self.W, self.wval,
                             None if self.n_elim else self.chol))

    def _objective(self, P, q):
        """Take (P, q), with the solves' right-hand side -q and its size."""
        self.P, self.q = P, q
        self.rf = -q
        self.rf_max = np.abs(self.rf).max(initial=0.0)

    def _factor(self, rows, values):
        """Factor the working ``rows`` (hard rows first; right-hand sides
        ``values``) from scratch, by a QR with column pivoting that leaves
        out the rows depending on the others.  Thin LAPACK calls: at these
        sizes scipy's ``qr`` wrapper costs more than the factorization."""
        mh, n = self.mh, self.n
        # the factorized rows, in R's column order, and the rows left out
        # as dependent
        self.gen, self.dep = [], []
        self.Q = self.R = None
        self.W, self.wval, self.idx = \
            np.empty((n, n)), np.empty(n), np.empty(n, dtype=np.intp)
        if not len(rows):
            return
        soft = rows >= mh
        Wc = np.concatenate([self.A[rows[~soft]], self.G[rows[soft] - mh]]) \
            if soft.any() else self.A[rows]
        a, piv, tau = _geqp3(Wc.T)[:3]
        piv -= 1
        d = np.abs(a.diagonal())
        small = d <= DEPENDENT_TOL * np.abs(Wc).max(axis=1)[piv[:len(d)]]
        r = int(small.argmax()) if small.any() else len(d)
        gen = piv[:r]
        self.gen, self.dep = rows[gen].tolist(), rows[piv[r:]].tolist()
        if r:
            Q = np.zeros((n, n), order="F")
            Q[:, :r] = a[:, :r]
            self.R = np.zeros((n, r), order="F")
            self.R[:r] = np.triu(a[:r, :r])
            self.Q = _orgqr(Q, tau[:r], overwrite_a=True)[0]
            self.W[:r], self.wval[:r], self.idx[:r] = \
                Wc[gen], values[gen], rows[gen]

    def combination(self, a):
        """Whether the row ``a`` is a combination of the working rows: None
        when it is not, else the factored working rows and coefficients c
        with a = sum c_i row_i (a row left out has none)."""
        k = len(self.gen)
        if not k:
            return None
        # the part of the row off the working rows' span is Z'a, whose norm
        # R would gain on its diagonal if the row entered
        w = self.Q.T.dot(a)
        off = w[k:]
        if math.sqrt(off.dot(off)) > DEPENDENT_TOL * np.abs(a).max():
            return None
        return self.idx[:k].copy(), _trtrs(self.R, w[:k])[0]

    def enter(self, i, value):
        """Make row ``i`` working with right-hand side ``value`` when it is
        independent of the working rows; returns whether it entered."""
        if i in self.value:
            self.remove(i)
        self.key = self.chol = None
        k, n = len(self.gen), self.n
        if k >= n:
            return False
        a = self.A[i] if i < self.mh else self.G[i - self.mh]
        if k:
            Q, R = _qr_insert(self.Q, self.R, a, k, which="col",
                              check_finite=False)
        else:
            Q, R = _qr_insert(np.eye(n), np.zeros((n, 0)), a, 0,
                              which="col", check_finite=False)
        if abs(R[k, k]) <= DEPENDENT_TOL * np.abs(a).max():
            return False
        self.Q, self.R = Q, R
        self.W[k], self.idx[k] = a, i
        self.wval[k] = self.value[i] = value
        self.gen.append(i)
        return True

    def remove(self, i):
        """Drop row ``i`` from the working set, then take in the left-out
        rows that no longer depend on the others."""
        del self.value[i]
        self.key = self.chol = None
        if i in self.dep:
            self.dep.remove(i)
            return
        k, p = len(self.gen), self.gen.index(i)
        if k == 1:
            self.Q = self.R = None
        else:
            self.Q, self.R = _qr_delete(self.Q, self.R, p, which="col",
                                        overwrite_qr=True, check_finite=False)
        for buf in (self.W, self.wval, self.idx):
            buf[p:k - 1] = buf[p + 1:k]
        del self.gen[p]
        for r in self.dep[:]:
            self.dep.remove(r)
            v = self.value.pop(r)
            if not self.enter(r, v):
                self.dep.append(r)
                self.value[r] = v

    def fold(self, row, sign):
        """Fold (sign 1) or unfold (-1) the penalty of the eliminated soft
        row ``row`` into the objective; with no row eliminated it is the
        unfolded one again exactly."""
        self.n_elim += sign
        self.chol = None
        if not self.n_elim:
            self._objective(self.P0, self.q0)
            return
        g = self.G[row]
        # the folded row's linear term
        gq = self.sig1 - 2.0 * self.sig2 * self.b[row]
        if self.P is self.P0:
            self.P, self.q = self.P0.copy(), self.q0.copy()
        self.P += (2.0 * sign * self.sig2) * np.outer(g, g)
        self.q += g * (sign * gq)
        self._objective(self.P, self.q)

    def solve(self):
        """(x, duals of every row) at the working set's equality-constrained
        optimum, 0 off the working set; None when the solve fails."""
        k, n = len(self.gen), self.n
        P, W, rk, rf = self.P, self.W[:k], self.wval[:k], self.rf
        nz = n - k
        chol = self.chol
        if k:
            R = self.R
            Y, Z = self.Q[:, :k], self.Q[:, k:]
        elif chol is None and not self.n_elim and self.cache is not None:
            chol = self.cache.cholesky()
        if nz and chol is None:
            H = Z.T.dot(P.dot(Z)) if k else P
            chol, info = _potrf(H, lower=False, clean=False)
            if info:
                # semidefinite: regularize as _solve_active does, the
                # refinement below is against the exact system
                chol, info = _potrf(H + 1e-9 * np.eye(nz), lower=False,
                                    clean=False)
                if info:
                    return None
        self.chol = chol

        # ``dot``, not ``@``: the same BLAS products with less overhead
        def kkt(rf, rk):
            """x and the working rows' duals for the right-hand side
            (rf, rk), with rf - P x."""
            if not k:
                x = _potrs(chol, rf)[0]
                return x, rk, rf - P.dot(x)
            x = Y.dot(_trtrs(R, rk, trans=1)[0])
            if nz:
                x += Z.dot(_potrs(chol, Z.T.dot(rf - P.dot(x)))[0])
            t = rf - P.dot(x)
            return x, _trtrs(R, Y.T.dot(t))[0], t

        # iterative refinement against the unregularized system, to the
        # tolerance of _solve_active: at most three passes
        x, lg, ef = kkt(rf, rk)
        tol = 1e-13 * (1.0 + max(self.rf_max,
                                 np.abs(rk).max() if k else 0.0))
        e = np.empty(n + k)   # stationarity, then the working rows
        for passes in range(4):
            if k:
                np.subtract(ef, W.T.dot(lg), out=e[:n])
                np.subtract(rk, W.dot(x), out=e[n:])
                ef, ek = e[:n], e[n:]
                err = np.abs(e).max()
            else:
                ek, err = rk, np.abs(ef).max()
            if err <= tol or passes == 3 or not math.isfinite(err):
                break
            dx, dl, _ = kkt(ef, ek)
            x, lg = x + dx, lg + dl
            ef = rf - P.dot(x)
        if not math.isfinite(err):
            return None
        lam = np.zeros(self.m)
        lam[self.idx[:k]] = lg
        return x, lam


def parametric_solve(P, q, A, l, u, G, b, sig1, sig2, hot,
                     max_iter=EXCHANGE_CAP, factors=None):
    """Hot start of the soft QP from the optimum of a neighbouring
    problem, the online active-set strategy (Ferreau, Bock & Diehl,
    Int. J. Robust Nonlinear Control 2008).

    ``hot`` (a :class:`HotStart`) holds an optimum and its working set for
    the parameters (q0, l0, u0, b0); P, A and G are shared.  As tau goes
    from 0 to 1 the parameters move along the segment to (q, l, u, b).  On a
    fixed working set the optimum and its duals are affine in tau, so each
    piece of the path costs one equality solve at tau = 1, on a working-set
    factorization that lives for the whole homotopy and changes by one row
    per breakpoint (:class:`_WorkingFactor`; ``factors``, a
    :class:`FactorCache` of P, A and G, or None).  A piece ends at a
    breakpoint, where one row changes state: an inactive hard row reaches a
    bound, or a soft row its kink (primal ratio test); a working row's dual
    reaches zero, or a kink row's dual reaches sig1 (dual ratio test); an
    eliminated slack reaches zero.  It works in the x space only: each soft
    row is in one of three states -- slack at zero (no contribution), at
    the kink (Gx = b held as a hard row), or eliminated (slack substituted
    by its violation, which folds a convex quadratic penalty into the x
    objective).  A row that reaches its bound or kink as a combination of
    the working rows is exchanged for the first working row whose dual
    reaches a bound as the entering row's dual moves; when an entering soft
    row's own dual crosses all of [0, sig1] first, the row passes its kink,
    the exact-penalty transition of Kerrigan & Maciejowski (CDC 2000), from
    inactive to eliminated or back, and never enters.

    The first piece is solved before anything else: when its end point
    stays in its region (every row keeps its state, the test of the ratio
    tests' tolerances, made row block by row block), it is the answer, and
    the ratio tests' state is built only when it leaves, at the first
    breakpoint, from that same solve.  From there a breakpoint changes that
    state entry by entry and pays for its algebra and a few array passes.

    Returns (answer, breakpoints).  The answer is the 8-tuple of
    :func:`soft_qp_solve` at tau = 1, its iterations the breakpoints, or
    None when the path needs more than ``max_iter`` breakpoints, when an
    equality solve fails, when the end point violates a working row, when
    an entry of l or u is finite where that of ``hot.l`` or ``hot.u`` is
    not or the other way round, or when b or ``hot.b`` has an entry that
    is not finite; breakpoints counts those passed either way.
    """
    mh, ms = A.shape[0], G.shape[0]
    fin_u, fin_l = np.isfinite(u), np.isfinite(l)
    # the finite sides compared as bytes, which costs less at these sizes
    if fin_u.tobytes() != np.isfinite(hot.u).tobytes() or \
            fin_l.tobytes() != np.isfinite(hot.l).tobytes() or \
            not math.isfinite(b.sum() + hot.b.sum()):
        return None, 0
    sides, states = hot.sets
    sides, states = np.asarray(sides, np.int8), np.asarray(states, np.int8)
    kink = states == KINK
    hard_w, kink_w = sides.nonzero()[0], kink.nonzero()[0]
    elim_w = (states == ELIM).nonzero()[0]
    # the starting working rows, hard ones first, and their bounds
    rows0 = np.concatenate([hard_w, mh + kink_w])
    values0 = np.concatenate([np.where(sides > 0, u, l)[hard_w], b[kink_w]]) \
        if len(rows0) else b[:0]
    work = _WorkingFactor(P, q, A, G, b, sig1, sig2, elim_w, rows0, values0,
                          factors)

    # The ratio tests watch one vector V of quantities, each nonnegative
    # while its row keeps its state, in blocks of eight kinds in a fixed
    # order so that ties go to the earlier kind: an inactive hard row's
    # distance to its upper (0) and lower (1) bound, an inactive soft row's
    # distance to its kink (2), an eliminated slack (3), a working hard
    # row's dual at its upper (4) and lower (5) side, and a kink row's dual
    # (6) and its distance to sig1 (7), from the offsets ``off``; ``dual_at``
    # holds each row's two entries of blocks 4-7 (hard, then soft).  V holds
    # the point at tau, the working rows' duals among it, and V1 the end of
    # the piece; ``watched`` says which entries belong to a row in its
    # current state (blocks 4-6 the working rows, whose distances to their
    # bounds are blocks 0-2), and ``neg_tol`` how far below zero an end value
    # must fall to count: -1e-9, relative to the bound in blocks 0-3.
    off = (0, mh, 2 * mh, 2 * mh + ms, 2 * mh + 2 * ms, 3 * mh + 2 * ms,
           4 * mh + 2 * ms, 4 * mh + 3 * ms, 4 * mh + 4 * ms)

    def first_leaves(vh1, gs1, mu1, kap1):
        """Whether the first piece's end point has a watched entry below its
        tolerance, tested row block by row block without V: only where the
        point crosses a row's bound or kink, or a working dual its bound.
        An infinite bound leaves no finite excess, as its row is not
        watched."""
        c = ((vh1 > u) | (vh1 < l)).nonzero()[0]
        if len(c):
            vc, uc, lc, sc = vh1[c], u[c], l[c], sides[c]
            if ((sc != 1) & (vc - uc > 1e-9 * np.abs(uc) + 1e-9)).any() or \
                    ((sc != -1) & (lc - vc > 1e-9 * np.abs(lc) + 1e-9)).any():
                return True
        c = (gs1 > 0.0).nonzero()[0]
        if len(c) and ((states[c] == 0)
                       & (gs1[c] > 1e-9 * np.abs(b[c]) + 1e-9)).any():
            return True
        if len(elim_w) and \
                (gs1[elim_w] < -(1e-9 * np.abs(b[elim_w]) + 1e-9)).any():
            return True
        if len(hard_w) and (sides[hard_w] * mu1[hard_w] < -1e-9).any():
            return True
        kap = kap1[kink_w]
        return len(kap) > 0 and bool(((kap < -1e-9)
                                      | (sig1 - kap < -1e-9)).any())

    def answer(x1, vh1, gx1, gs1, mu1, kap1, past, tol, breakpoints):
        """The 8-tuple at the end point (x1, A x1, G x1, G x1 - b, duals),
        or None when a working row's distance ``past`` its bound or kink exceeds ``tol``
        and 1e-12 (1 + |Px| + |q|), ten times what the solve holds the rows
        to: a row left out of the solve as dependent may not hold."""
        if len(past):
            etol = 1e-12 * (1.0 + np.abs(work.P.dot(x1)).max(initial=0.0)
                            + work.rf_max)
            if (past > np.maximum(tol, etol)).any():
                return None
        # kap1 is 0 off the kink rows
        if work.n_elim:
            elim = states == ELIM
            eps = np.where(elim, gs1, 0.0)
            lam = np.where(elim, sig1 + 2.0 * sig2 * eps, kap1)
            nu = kap1 - sig1 * ~elim
        else:
            # the same values without an eliminated row
            eps, lam, nu = np.zeros(ms), kap1, kap1 - sig1
        return x1, eps, mu1, lam, nu, (sides, states), breakpoints, (vh1, gx1)

    def set_dual(row, value):
        """Set the dual of working ``row`` (hard, then soft numbering)."""
        V[dual_at[0, row]], V[dual_at[1, row]] = \
            value, -value if row < mh else sig1 - value

    def change(row, new):
        """Put ``row`` (hard, then soft numbering) in side or state ``new``,
        the one place where they change, keeping ``watched``: a row leaving
        the working set leaves ``work`` with dual 0 (one entering has entered
        it already), and an eliminated slack's penalty is folded in or out."""
        lo, hi = dual_at[0, row], dual_at[1, row]
        if row < mh:
            leaves = sides[row] and not new
            sides[row] = new
            watched[row] = fin_u[row] and new != 1
            watched[off[1] + row] = fin_l[row] and new != -1
            watched[lo], watched[hi] = new == 1, new == -1
        else:
            j = row - mh
            old, states[j] = states[j], new
            leaves = old == KINK and new != KINK
            watched[off[2] + j], watched[off[3] + j] = new == 0, new == ELIM
            watched[lo] = watched[hi] = new == KINK
            if (old == ELIM) != (new == ELIM):
                work.fold(j, 1 if new == ELIM else -1)
        if leaves:
            set_dual(row, 0.0)
            work.remove(row)

    # the side or state each kind of breakpoint leaves its row in
    new_state = (1, -1, KINK, KINK, 0, 0, 0, ELIM)

    V = None
    # the working set's factorization outlives the homotopy in ``factors``
    try:
        for breakpoints in range(max_iter + 1):
            res = work.solve()
            if res is None:
                return None, breakpoints
            x1, dual1 = res
            vh1, gx1 = A.dot(x1), G.dot(x1)
            mu1, kap1 = dual1[:mh], dual1[mh:]
            if V is None:
                gs1 = gx1 - b
                if not first_leaves(vh1, gs1, mu1, kap1):
                    # the start's working rows: a hard row's distance past
                    # its bound (an infinite one counts as 0), a kink row's
                    # past its kink
                    past = tol = rows0
                    if len(rows0):
                        bound = np.where(np.isfinite(values0), values0, 0.0)
                        past = np.concatenate([vh1[hard_w], gx1[kink_w]]) \
                            - bound
                        past[:len(hard_w)] *= sides[hard_w]
                        tol = 1e-9 * np.abs(bound) + 1e-9
                    return answer(x1, vh1, gx1, gs1, mu1, kap1, past, tol, 0), 0
                # the hot start's working set, copied at its first change
                sides, states = sides.copy(), states.copy()
                su, sl = np.where(fin_u, u, 0.0), np.where(fin_l, l, 0.0)
                neg_tol = np.full(off[8], -1e-9)
                neg_tol[:off[4]] -= 1e-9 * np.abs(np.concatenate([su, sl, b,
                                                                 b]))
                # the start, tau = 0, from the hot start's point and duals
                mu = np.where(sides != 0, hot.mu, 0.0)
                kap = np.where(kink, hot.lam, 0.0)
                vh, gs = A.dot(hot.x), G.dot(hot.x) - hot.b
                V = np.concatenate([np.where(fin_u, hot.u, 0.0) - vh,
                                    vh - np.where(fin_l, hot.l, 0.0), -gs, gs,
                                    mu, -mu, kap, sig1 - kap])
                V1 = np.empty(off[8])
                V1_blocks = [V1[a:z] for a, z in zip(off, off[1:])]
                watched = np.concatenate([
                    fin_u & (sides != 1), fin_l & (sides != -1), states == 0,
                    states == ELIM, sides == 1, sides == -1, kink, kink])
                dual_at = np.concatenate(
                    [np.arange(off[4], off[6]).reshape(2, mh),
                     np.arange(off[6], off[8]).reshape(2, ms)], 1)
            # V1, block by block into its views; gs1 = G x1 - b is block 3
            v0, v1, v2, gs1, v4, v5, v6, v7 = V1_blocks
            np.subtract(su, vh1, out=v0)
            np.subtract(vh1, sl, out=v1)
            np.subtract(gx1, b, out=gs1)
            np.negative(gs1, out=v2)
            v4[:] = mu1
            np.negative(mu1, out=v5)
            v6[:] = kap1
            np.subtract(sig1, kap1, out=v7)
            idx = (watched & (V1 < neg_tol)).nonzero()[0]
            if not len(idx):
                working = watched[off[4]:off[7]]
                return answer(x1, vh1, gx1, gs1, mu1, kap1, -V1[:off[3]][working],
                              -neg_tol[:off[3]][working], breakpoints), \
                    breakpoints
            if breakpoints == max_iter:
                break
            # a value already below zero at the start changes state at once
            a0 = np.maximum(V[idx], 0.0)
            r = a0 / (a0 - V1[idx])
            j = int(r.argmin())
            sigma, at = r[j], int(idx[j])
            kind = bisect.bisect_right(off, at) - 1
            row = at - off[kind]
            # move to the breakpoint, in V1's storage, which the next piece
            # writes anew, and change the row's state there
            V1 -= V
            V1 *= sigma
            V += V1
            if kind >= 4:
                change(row if kind < 6 else mh + row, new_state[kind])
                continue
            # the entering row's dual starts at 0 (sig1 for a slack that
            # reached zero) and moves by s t, t >= 0
            s = -1.0 if kind in (1, 3) else 1.0
            lam_r = sig1 if kind == 3 else 0.0
            rid, value = (row, (u, l)[kind][row]) if kind < 2 \
                else (mh + row, b[row])
            if not work.enter(rid, value):
                # The entering row's normal is a combination c of the
                # working rows' normals, so it cannot be added as it is:
                # along t, stationarity moves their duals by -s t c, and
                # the first of them to reach a bound leaves for it.
                comb = work.combination(A[row] if kind < 2 else G[row])
                if comb is None:
                    return None, breakpoints
                ids, c = comb
                # each working dual's distances to its bounds are two
                # entries of V (blocks 4 and 5 of a hard row, of which the
                # one of its side is watched, and 6 and 7 of a kink row),
                # falling at rates s c and -s c
                at = dual_at.take(ids, axis=1).ravel()
                sc = s * c
                fall = np.concatenate([sc, -sc])
                falls = watched[at] & (fall > 1e-12 * np.abs(c).max())
                V_at = V[at]
                t = np.divide(V_at, fall, out=np.full(len(at), np.inf),
                              where=falls)
                j = int(t.argmin())
                t_j = max(t[j], 0.0)
                if kind >= 2 and not t_j <= sig1:
                    # the entering soft row's own dual crosses [0, sig1]
                    # before any working dual reaches a bound: the row
                    # passes its kink without entering, from inactive to
                    # eliminated (kind 2) or back (kind 3)
                    V[at] = V_at - sig1 * fall
                    change(rid, ELIM if kind == 2 else 0)
                    continue
                if not math.isfinite(t_j):
                    # no working dual limits t
                    return None, breakpoints
                V[at] = V_at - t_j * fall
                lam_r += s * t_j
                j %= len(ids)
                leave = int(ids[j])
                change(leave, 0 if leave < mh or sc[j] > 0.0 else ELIM)
                if not work.enter(rid, value):
                    return None, breakpoints
            change(rid, new_state[kind])
            set_dual(rid, lam_r)
        return None, max_iter
    finally:
        work.keep()


def _step_to_boundary(v, dv):
    """Largest step in (0, 1] that keeps v + step * dv nonnegative."""
    neg = dv < 0.0
    if not neg.any():
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


def soft_ipm_solve(P, q, A, l, u, G, b, sig1, sig2, tol):
    """Dense primal-dual interior-point solve of the soft QP, with
    Mehrotra's predictor-corrector steps (Mehrotra, SIAM J. Optim. 1992).

    Each finite side of a hard row is one inequality with a slack and a
    dual; each soft row has two, ``Gx - eps <= b`` and ``eps >= 0``.  The
    Newton system is reduced per row in closed form
    (as in Wang & Boyd, "Fast MPC using online optimization", 2010), so an
    iteration factors one n x n matrix, ``P + A'D_h A + G'D_g G``, with
    diagonal D_h and D_g.  The iterates start at x = 0.

    Stops when every KKT residual and every complementarity product is below
    ``tol / 10``, so the point passes :func:`kkt_residuals` at ``tol`` on the
    lifted problem; also when the residuals stop falling once complementarity
    has converged (their rounding floor grows with the multipliers' size),
    after ``IPM_MAX_ITER`` iterations, or when the reduced matrix is not
    numerically positive definite.  Callers certify the point themselves.
    Returns the 8-tuple of :func:`soft_qp_solve`: the working set is read
    off the interior point (rows whose dual exceeds their slack), the
    iterations are Newton steps, and it forms no products.
    Raises ValueError when an entry of b is not finite.
    """
    bad = np.flatnonzero(~np.isfinite(b))
    if len(bad):
        raise ValueError(f"soft bound b[{bad[0]}] = {b[bad[0]]} is not finite")
    n, mh, ms = len(q), A.shape[0], G.shape[0]
    iu = np.isfinite(u).nonzero()[0]
    il = np.isfinite(l).nonzero()[0]
    nu = len(iu)
    # each finite side of a hard row is one inequality  C x <= d, with
    # C = sign * A[rows], upper sides first
    rows = np.concatenate([iu, il])
    sign = np.concatenate([np.ones(nu), -np.ones(len(il))])
    d = sign * np.concatenate([u[iu], l[il]])
    mc = len(rows)
    m = max(mc + 2 * ms, 1)
    # Slacks y = (s, t, eps) > 0 and their duals lam = (z, w, v) > 0: s of
    # C x <= d, t of the soft rows G x - eps <= b, and eps itself for
    # eps >= 0.  Complementarity drives y * lam to zero.
    H_, T_, E_ = slice(0, mc), slice(mc, mc + ms), slice(mc + ms, None)

    def hard(x):
        return sign * (A @ x)[rows]

    def hard_T(y):
        return A.T @ np.bincount(rows, sign * y, minlength=mh)

    # start: slacks at least 1e-2 from zero, unit hard duals, and the linear
    # penalty split between the two duals of each soft row
    x = np.zeros(n)
    g = G @ x - b
    eps = np.maximum(g, 0.0) + 1e-2
    y = np.concatenate([np.maximum(d - hard(x), 1e-2), eps - g, eps])
    lam = np.concatenate([np.ones(mc), np.full(2 * ms, max(0.5 * sig1, 1.0))])
    stop = 0.1 * tol
    res_prev = math.inf
    for it in range(IPM_MAX_ITER + 1):
        s, t, eps = y[H_], y[T_], y[E_]
        z, w, v = lam[H_], lam[T_], lam[E_]
        r_x = P @ x + q + hard_T(z) + G.T @ w
        r_e = sig1 + 2.0 * sig2 * eps - w - v
        r_s = hard(x) + s - d
        r_t = G @ x - eps + t - b
        prod = y * lam
        res = max(np.abs(r_x).max(initial=0.0), np.abs(r_e).max(initial=0.0),
                  np.abs(r_s).max(initial=0.0), np.abs(r_t).max(initial=0.0))
        comp = prod.max(initial=0.0)
        # converged; or stalled: with complementarity converged, a residual
        # that stops falling has reached the rounding floor, which large
        # multipliers can hold above tol
        if max(res, comp) <= stop or (comp <= stop and res >= res_prev) \
                or it == IPM_MAX_ITER:
            break
        res_prev = res
        mu = prod.sum() / m
        # Soft rows: eliminating t and eps with their duals leaves
        # w c / (w + c t) on G'G, c = 2 sig2 + v / eps, written with w in
        # the numerators, which stays accurate as t -> 0 on a kink row.
        c = 2.0 * sig2 + v / eps
        den = w + c * t
        H = P + (A.T * np.bincount(rows, z / s, minlength=mh)) @ A \
            + (G.T * (w * c / den)) @ G
        chol, info = _potrf(H, lower=False, clean=False, overwrite_a=True)
        if info:
            break   # not positive definite in floating point

        def newton(rc):
            """Newton direction (dx, dy, dlam) that takes y * lam to -rc."""
            rc_s, rc_t, rc_e = rc[H_], rc[T_], rc[E_]
            wr = w * r_t - rc_t
            r_ee = -r_e - rc_e / eps
            rhs = -r_x - hard_T((z * r_s - rc_s) / s) \
                - G.T @ ((c * wr - w * r_ee) / den)
            dx = _potrs(chol, rhs, lower=False)[0]
            Gdx = G @ dx
            deps = (w * Gdx + wr + t * r_ee) / den
            dy = np.concatenate([-r_s - hard(dx), -r_t - Gdx + deps, deps])
            dlam = (-rc - lam * dy) / y
            dlam[T_] = (c * (w * Gdx + wr) - w * r_ee) / den
            return dx, dy, dlam

        def step(dy, dlam, frac):
            """Step length (``frac`` of the way to the boundary, at most 1)
            and the mean complementarity it leads to."""
            alpha = frac * min(_step_to_boundary(y, dy),
                               _step_to_boundary(lam, dlam))
            return alpha, (y + alpha * dy) @ (lam + alpha * dlam) / m

        # predictor: the affine-scaling direction and the centering it needs
        _, dy, dlam = newton(prod)
        mu_aff = step(dy, dlam, 1.0)[1]
        # mu is 0 only without inequalities (no finite row side, no soft
        # row), where the Newton step needs no centring
        smu = (mu_aff / mu) ** 3 * mu if mu > 0.0 else 0.0
        # corrector: centred, with the predictor's second-order term
        dx, dy, dlam = newton(prod + dy * dlam - smu)
        alpha, mu_new = step(dy, dlam, 0.99)
        if mu_new > (1.0 - 0.1 * alpha) * mu:
            # the second-order term can stall the complementarity (a 2-cycle
            # was seen on small random QPs); take a plain centring step
            dx, dy, dlam = newton(prod - 0.3 * mu)
            alpha = step(dy, dlam, 0.99)[0]
        x = x + alpha * dx
        y = y + alpha * dy
        lam = lam + alpha * dlam
    # the upper side wins a row whose both sides look active
    sides = np.zeros(mh, dtype=np.int8)
    sides[il[z[nu:] > s[nu:]]] = -1
    sides[iu[z[:nu] > s[:nu]]] = 1
    states = np.where(w > t, np.where(v > eps, KINK, ELIM), 0).astype(np.int8)
    mu_h = np.bincount(rows, sign * z, minlength=mh)
    return x, eps, mu_h, w, -v, (sides, states), it, None


def kkt_residuals(P, q, A, l, u, y, lam):
    """(primal, dual, complementarity) infinity-norm KKT residuals of
    l <= A y <= u with duals ``lam``: the plain certificate of hard rows,
    the reference that the tests of :func:`soft_kkt_residuals` compare its
    lifted form against."""
    Ay = A @ y
    prim = float(np.max(np.maximum(Ay - u, 0.0) + np.maximum(l - Ay, 0.0),
                        initial=0.0))
    lam_pos = np.maximum(lam, 0.0)
    lam_neg = np.minimum(lam, 0.0)
    # a positive dual must pair with a tight finite upper bound (and the
    # negative part with a lower one); on an infinite side the whole
    # multiplier is a dual-feasibility violation
    fin_u = np.isfinite(u)
    fin_l = np.isfinite(l)
    gap_u = np.where(fin_u, np.abs(np.where(fin_u, u, 0.0) - Ay), 1.0)
    gap_l = np.where(fin_l, np.abs(Ay - np.where(fin_l, l, 0.0)), 1.0)
    comp = float(np.max(lam_pos * gap_u - lam_neg * gap_l, initial=0.0))
    dual = float(np.max(np.abs(P @ y + q + A.T @ lam), initial=0.0))
    return prim, dual, comp


def _dual_gaps(dual, side, value):
    """The largest complementarity product of rows with nonzero duals
    ``dual``: |dual| times the distance from ``value`` to ``side``, the
    bound that the dual's sign selects, or |dual| alone where that side is
    infinite, as in :func:`kkt_residuals`."""
    fin = np.isfinite(side)
    gap = np.abs(np.where(fin, side, value) - value)
    return (np.abs(dual) * np.where(fin, gap, 1.0)).max()


def _worst(*parts):
    """The largest of the residual parts, or inf when one is NaN: Python's
    max(0.0, nan) is 0.0, and no comparison with a tolerance may pass."""
    return math.inf if any(map(math.isnan, parts)) else float(max(parts))


def soft_kkt_residuals(P, q, A, l, u, G, b, sig1, sig2, x, eps, mu, lam, nu,
                       products=None):
    """:func:`kkt_residuals` of the soft QP in its lifted form, over
    y = (x, eps) with duals (mu, lam, nu),

        min  0.5 x'Px + q'x + sig2 eps'eps + sig1 sum(eps)
        s.t. l <= Ax <= u,   Gx - eps <= b,   eps >= 0,

    computed row block by row block: the lifted matrices, mostly the slack
    identity blocks and zeros, are never formed, and neither are the lifted
    vectors.  Each block keeps the finite/infinite-side rules of
    :func:`kkt_residuals` with its own sides: a hard row's are l and u, a
    soft row's only b (finite or not) and a slack's only 0.  A hard or soft
    row enters the complementarity and the stationarity of x only where its
    dual is nonzero, which is on the working set of an answer.  A NaN
    anywhere makes its residual inf, so that it fails every tolerance.
    ``products``, an answer's (A x, G x), spares forming them again.
    """
    vh, gx = (A.dot(x), G.dot(x)) if products is None else products
    vs = gx - eps
    # a row can pass one side of l <= u only; slack j is soft row j's
    prim = _worst(np.maximum(vh - u, l - vh).max(initial=0.0),
                  np.maximum(vs - b, -eps).max(initial=0.0))
    # a slack's dual: positive on its infinite upper side, negative paired
    # with eps itself
    comp = [np.maximum(nu, -nu * np.abs(eps)).max(initial=0.0)]
    dual_x = P.dot(x) + q
    i = mu.nonzero()[0]
    if len(i):
        m = mu[i]
        comp.append(_dual_gaps(m, np.where(m > 0.0, u[i], l[i]), vh[i]))
        dual_x += A[i].T.dot(m)
    i = lam.nonzero()[0]
    if len(i):
        m = lam[i]
        comp.append(_dual_gaps(m, np.where(m > 0.0, b[i], -np.inf), vs[i]))
        dual_x += G[i].T.dot(m)
    dual = _worst(np.abs(dual_x).max(initial=0.0), np.abs(
        2.0 * sig2 * eps + sig1 - lam + nu).max(initial=0.0))
    return prim, dual, _worst(*comp)


def _farkas(A, l, u, mu):
    """Whether the hard-row duals ``mu`` certify that no x satisfies
    l <= Ax <= u: moved onto the null space of A' (the interior point stops
    with A'mu ~ 1 beside |mu| ~ 1e3), they must have a negative support
    u'max(y, 0) + l'min(y, 0) and no weight on an infinite side."""
    y = mu - np.linalg.lstsq(A.T, A.T @ mu, rcond=None)[0]
    rel = 1e-8 * np.abs(y).max(initial=0.0)
    fin_u, fin_l = np.isfinite(u), np.isfinite(l)
    sup = np.where(fin_u, u, 0.0) @ np.maximum(y, 0.0) \
        + np.where(fin_l, l, 0.0) @ np.minimum(y, 0.0)
    return bool(np.abs(A.T @ y).max(initial=0.0) <= rel and sup < -rel
                and not np.any(~fin_u & (y > rel) | ~fin_l & (y < -rel)))


def _unbounded(P, q, A):
    """Whether a direction d with P d = 0, A d = 0 and q'd < 0 exists, to
    1e-8 relative: the cost then falls without bound along d from any
    feasible point, which certifies dual infeasibility.  d = -N N'q over the
    null space N of the stacked rows, from one SVD (reduced: V' is square)."""
    _, s, vt = np.linalg.svd(np.vstack([P, A]), full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-8 * s.max(initial=0.0)))
    return bool(np.linalg.norm(vt[rank:] @ q) > 1e-8 * np.linalg.norm(q))


def certified_solve(P, q, A, l, u, G, b, sig1, sig2, tol, hot=None,
                    factors=None):
    """The package's QP solve: the soft QP by a parametric hot start,
    then interior point and crossover.

    ``hot`` is a :class:`HotStart` on the same P, A and G, or None, and
    ``factors`` a :class:`FactorCache` of them, or None.  Every entry of b
    must be finite: the homotopy declines one that is not, and
    :func:`soft_ipm_solve` raises ValueError for it.  The first answer
    whose :func:`soft_kkt_residuals` pass ``tol`` is taken:

    1. with ``hot``, the parametric homotopy from it (:func:`soft_qp_solve`
       with ``hot``, capped at ``EXCHANGE_CAP`` breakpoints), certified alone
       on the A x and G x of its end-point test;
    2. else :func:`soft_ipm_solve` (at most ``IPM_MAX_ITER`` Newton steps,
       on the cost divided by max(1, max|q|), its duals scaled back) and a
       crossover, the same capped homotopy from :func:`auxiliary_hot` of the
       interior point and its working set, which lands on the vertex;
    3. else the interior point itself.

    Returns (QpSolution, solver path "parametric" or "ipm", HotStart).
    The solution's ``y`` is (x, slacks) and its duals those of the hard,
    soft and slack rows.  Its iterations count the breakpoints and the IPM's
    iterations; a homotopy that gives up counts its full cap, also when it
    stopped earlier, since None does not say how far it got.  The
    :class:`HotStart` is the certified answer with (l, u, b) and its
    working set, the next solve's hot start.  When nothing passes, the
    solution is the interior point, its status MaxIter, and the path and
    hot start None: the controller's fallback is the same whatever the
    cause, so only :meth:`PreparedQp.solve` diagnoses a failure.
    """
    soft = (P, q, A, l, u, G, b, sig1, sig2)
    path, iterations = None, 0
    if hot is not None:
        res, iterations = _homotopy(soft, hot, factors)
        if res is not None:
            resid = soft_kkt_residuals(*soft, *res[:5], res[7])
            if max(resid) <= tol:
                path = "parametric"
    if path is None:
        # scaled, the multipliers and their rounding floor stay near 1
        s = max(1.0, float(np.abs(q).max(initial=0.0)))
        ipm = soft_ipm_solve(P / s, q / s, A, l, u, G, b, sig1 / s, sig2 / s,
                             tol / s)
        ipm = ipm[:2] + tuple(s * d for d in ipm[2:5]) + ipm[5:]
        cross, its = _homotopy(
            soft, auxiliary_hot(A, G, l, u, b, sig1, *ipm[:4], ipm[5]), factors)
        iterations += ipm[6] + its
        for res in (cross, ipm):
            if res is not None:
                resid = soft_kkt_residuals(*soft, *res[:5], res[7])
                if max(resid) <= tol:
                    path = "ipm"
                    break
    x, eps, mu, lam_soft, nu = res[:5]
    status, hot_next = QpStatus.MAX_ITER, None
    if path is not None:
        status = QpStatus.OPTIMAL
        hot_next = HotStart(l, u, b, x, eps, mu, lam_soft, res[5])
    obj = float((0.5 * x).dot(P).dot(x) + q.dot(x) + sig2 * eps.dot(eps)
                + sig1 * eps.sum())
    return QpSolution(np.concatenate([x, eps]),
                      np.concatenate([mu, lam_soft, nu]), status,
                      iterations, obj, *resid), path, hot_next


def _homotopy(soft, start, factors):
    """:func:`soft_qp_solve` of ``soft`` from ``start``, capped: (answer or
    None, its breakpoints or the full cap)."""
    res = soft_qp_solve(*soft, None, max_iter=EXCHANGE_CAP, hot=start,
                        factors=factors)
    return res, EXCHANGE_CAP if res is None else res[6]


def solve_qp(prob: QpProblem, tol=1e-6) -> QpSolution:
    """One-shot solve of ``prob``: :meth:`PreparedQp.solve` on a new front
    end, so without a hot start -- the interior point, its crossover, and
    the interior point itself, the first that passes the KKT check at
    ``tol``."""
    return PreparedQp(prob.P, prob.A, tol).solve(prob.q, prob.l, prob.u)


class PreparedQp:
    """The repeated-solve front end of :func:`certified_solve` for QPs
    without soft rows that share P and A and move q, l and u: one
    :class:`FactorCache` of P for every solve, each hot-started from the
    last certified answer, or cold after a solve that certified none."""

    def __init__(self, P, A, tol=1e-6):
        self.P = np.asarray(P, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.tol = tol
        self._factors = FactorCache(self.P)
        self._hot = None

    def solve(self, q, l, u) -> QpSolution:
        """The answer of (P, q, A, l, u), as :func:`certified_solve` gives
        it, a MaxIter one labelled PrimalInfeasible when its duals, the hard
        rows' alone, are a Farkas certificate (:func:`_farkas`), else
        DualInfeasible when the cost has a direction of unbounded descent
        (:func:`_unbounded`); raises ValueError where
        :meth:`QpProblem.validate` does."""
        q, l, u = (np.asarray(v, dtype=float) for v in (q, l, u))
        QpProblem(self.P, q, self.A, l, u).validate()
        sol, _, self._hot = certified_solve(
            self.P, q, self.A, l, u, np.zeros((0, len(q))), np.zeros(0),
            0.0, 0.0, self.tol, self._hot, self._factors)
        if sol.status == QpStatus.MAX_ITER:
            if _farkas(self.A, l, u, sol.duals):
                sol.status = QpStatus.PRIMAL_INFEASIBLE
            elif _unbounded(self.P, q, self.A):
                sol.status = QpStatus.DUAL_INFEASIBLE
        return sol
