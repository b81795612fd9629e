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
says whether the problem is primal or dual infeasible.  A certified answer
is the next solve's hot start, in the one working-set format of
:class:`HotStart`.  Without a hot start, :func:`soft_qp_solve` is a primal
active set on the hard rows alone, which only the region sweep runs; it
solves a working set again only after it changes, and splits each solve
(:func:`_solve_active`) into a factorization of the working rows, which a
:class:`FactorCache` keeps for the working sets used last, and a solve for
the right-hand sides.
:class:`PreparedQp`, an ADMM solver with batched right-hand sides and no
polish, is used by no solve path.  It stays, with its ``cho_factor`` /
``cho_solve`` calls, because the benchmark's span tracer
(``perfbench/spans.py``) resolves ``PreparedQp.solve``, ``cho_factor``,
``cho_solve``, ``lu_factor`` and :func:`kkt_residuals` here by name.
"""

from __future__ import annotations

import bisect
import inspect
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import (LinAlgWarning, cho_factor, cho_solve, qr_delete,
                          qr_insert)
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
        n = len(self.q)
        if self.P.shape != (n, n):
            raise ValueError("P/q dimension mismatch")
        if self.A.shape[1] != n:
            raise ValueError("A column count must match len(q)")
        m = self.A.shape[0]
        if len(self.l) != m or len(self.u) != m:
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
    changes: the warm start's trial solve serves the first iteration, and
    a full step that adds no row reuses its solve.  ``factors``, a
    :class:`FactorCache` of P and A, keeps the factorizations of the
    working sets used last across calls; None makes a cache for this call
    alone, with the same bits.

    Returns (x, eps, mu, lam, nu, sets, iterations) -- duals of the hard,
    soft and nonnegativity rows, the final working set (sides, states) in
    the format of :class:`HotStart` and the number of iterations -- or
    None on failure.  Without ``hot`` the soft parts are empty and each
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
    res = None
    if warm is not None and len(warm[0]) == mh:
        w_sides = np.array(warm[0], dtype=np.int8)
        res = eq_point(w_sides)
        if res is not None:
            x_w = res[0][0]
            vw = A @ x_w
            if np.any(vw > u + htol_u) or np.any(vw < l - htol_l):
                res = None
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
                    (sides, np.zeros(0, dtype=np.int8)), it
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
    vh, gx = A @ x, G @ x
    kink, elim = states == KINK, states == ELIM
    l_aux = np.where(sides < 0, vh, np.minimum(l, vh))
    u_aux = np.where(sides > 0, vh, np.maximum(u, vh))
    b_aux = np.where(kink, gx, np.where(elim, gx - eps, np.maximum(b, gx)))
    mu = np.where(sides > 0, np.maximum(mu, 0.0),
                  np.where(sides < 0, np.minimum(mu, 0.0), 0.0))
    lam = np.where(kink, np.clip(lam, 0.0, sig1), 0.0)
    return HotStart(l_aux, u_aux, b_aux, x, eps, mu, lam, sets)


class FactorCache:
    """Factorizations kept across the solves of QPs that share P, A and G.

    For the homotopy: P's Cholesky factor, computed on first use (upper,
    for ``potrs``; None when P is not numerically positive definite), which
    the homotopy's equality solve is whenever no row is working, and the
    working-set factorization the last homotopy ended on (its factored and
    left-out rows, Q, R and the factored rows), which the next one takes
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
    with the eliminated soft rows folded in (:func:`_fold`, :meth:`fold`).
    A :class:`FactorCache` (``cache``) may keep P's factor and hand the
    factorization from one homotopy to the next (:meth:`keep`).  With no
    soft row eliminated the objective is (P, q) itself, copied only when a
    row is folded in.
    """

    def __init__(self, P, q, A, G, b, sig1, sig2, elim, hard, kink, values,
                 cache=None):
        n, mh = len(q), A.shape[0]
        self.n, self.mh, self.m = n, mh, mh + G.shape[0]
        self.P0, self.q0 = P, q
        self.n_elim = int(np.count_nonzero(elim))
        self.P, self.q = _fold(P, q, G, b, sig1, sig2, elim) \
            if self.n_elim else (P, q)
        self.A, self.G = A, G
        self.b, self.sig1, self.sig2 = b, sig1, sig2
        self.cache = cache
        # working row -> its right-hand side
        rows = np.concatenate([hard, mh + kink])
        self.value = dict(zip(rows.tolist(), values.tolist()))
        self.wval = np.empty(n)
        kept = cache.take(tuple(rows.tolist())) if cache is not None else None
        if kept is not None:
            # the last homotopy's factorization of this working set
            self.gen, self.dep, Q, R, self.W = kept
            self._set_qr(Q, R)
            self.wval[:len(self.gen)] = [self.value[i] for i in self.gen]
        else:
            self.W = np.empty((n, n))   # the factored rows, R's column order
            self._factor(rows)

    def keep(self):
        """Hand the factorization of the working set to the cache."""
        if self.cache is not None:
            self.cache.keep(tuple(sorted(self.value)),
                            (self.gen, self.dep, self.Q, self.R, self.W))

    def _set_qr(self, Q, R):
        """Take the factors Q and R, and R's leading square block R1 in
        Fortran order, which the triangular solves read without a copy."""
        self.Q, self.R = Q, R
        self.R1 = None if R is None else np.asfortranarray(R[:R.shape[1]])

    def _factor(self, rows):
        """Factor the working ``rows`` (hard rows first) from scratch, by a
        QR with column pivoting that leaves out the rows depending on the
        others.  Thin LAPACK calls: at these sizes scipy's ``qr`` wrapper
        costs more than the factorization."""
        # the factorized rows, in R's column order, and the rows left out
        # as dependent
        self.gen, self.dep = [], []
        self._set_qr(None, None)
        if not len(rows):
            return
        mh, n = self.mh, self.n
        soft = rows >= mh
        Wc = np.concatenate([self.A[rows[~soft]], self.G[rows[soft] - mh]]) \
            if soft.any() else self.A[rows]
        a, piv, tau = _geqp3(Wc.T)[:3]
        piv -= 1
        d = np.abs(a.diagonal())
        small = d <= DEPENDENT_TOL * np.abs(Wc).max(axis=1)[piv[:len(d)]]
        r = int(small.argmax()) if small.any() else len(d)
        self.gen, self.dep = rows[piv[:r]].tolist(), rows[piv[r:]].tolist()
        if r:
            Q = np.zeros((n, n), order="F")
            Q[:, :r] = a[:, :r]
            R = np.zeros((n, r))
            R[:r] = np.triu(a[:r, :r])
            self._set_qr(_orgqr(Q, tau[:r], overwrite_a=True)[0], R)
            self.W[:r] = Wc[piv[:r]]
            self.wval[:r] = [self.value[i] for i in self.gen]

    def combination(self, a):
        """Whether the row ``a`` is a combination of the working rows: None
        when it is not, else the factored working rows and coefficients c
        with a = sum c_i row_i (a row left out has none)."""
        k = len(self.gen)
        if not k:
            return None
        # the part of the row off the working rows' span is Z'a, whose norm
        # R would gain on its diagonal if the row entered
        w = self.Q.T @ a
        off = w[k:]
        if math.sqrt(off @ off) > DEPENDENT_TOL * np.abs(a).max():
            return None
        return np.array(self.gen, dtype=np.intp), _trtrs(self.R1, w[:k])[0]

    def enter(self, i, value):
        """Make row ``i`` working with right-hand side ``value`` when it is
        independent of the working rows; returns whether it entered."""
        if i in self.value:
            self.remove(i)
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
        self._set_qr(Q, R)
        self.W[k] = a
        self.wval[k] = self.value[i] = value
        self.gen.append(i)
        return True

    def remove(self, i):
        """Drop row ``i`` from the working set, then take in the left-out
        rows that no longer depend on the others."""
        del self.value[i]
        if i in self.dep:
            self.dep.remove(i)
            return
        k, p = len(self.gen), self.gen.index(i)
        if k == 1:
            self._set_qr(None, None)
        else:
            self._set_qr(*_qr_delete(self.Q, self.R, p, which="col",
                                     check_finite=False))
        self.W[p:k - 1] = self.W[p + 1:k]
        self.wval[p:k - 1] = self.wval[p + 1:k]
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
        if not self.n_elim:
            self.P, self.q = self.P0, self.q0
            return
        g = self.G[row]
        # the folded row's linear term
        gq = self.sig1 - 2.0 * self.sig2 * self.b[row]
        if self.P is self.P0:
            self.P, self.q = self.P0.copy(), self.q0.copy()
        self.P += (2.0 * sign * self.sig2) * np.outer(g, g)
        self.q += g * (sign * gq)

    def solve(self):
        """(x, duals of every row) at the working set's equality-constrained
        optimum, 0 off the working set; None when the solve fails."""
        k, n = len(self.gen), self.n
        P, W, rk = self.P, self.W[:k], self.wval[:k]
        rf = -self.q
        nz = n - k
        if k:
            R1 = self.R1
            Y, Z = self.Q[:, :k], self.Q[:, k:]
        chol = None
        if not (k or self.n_elim) and self.cache is not None:
            chol = self.cache.cholesky()
        if nz and chol is None:
            H = Z.T @ (P @ Z) if k else P
            chol, info = _potrf(H, lower=False, clean=False)
            if info:
                # semidefinite: regularize as _solve_active does, the
                # refinement below is against the exact system
                chol, info = _potrf(H + 1e-9 * np.eye(nz), lower=False,
                                    clean=False)
                if info:
                    return None

        def kkt(rf, rk):
            """x and the working rows' duals for the right-hand side
            (rf, rk), with rf - P x."""
            if not k:
                x = _potrs(chol, rf, lower=False)[0]
                return x, rk, rf - P @ x
            x = Y @ _trtrs(R1, rk, trans=1)[0]
            if nz:
                x += Z @ _potrs(chol, Z.T @ (rf - P @ x), lower=False)[0]
            t = rf - P @ x
            return x, _trtrs(R1, Y.T @ t)[0], t

        # iterative refinement against the unregularized system, to the
        # tolerance of _solve_active: at most three passes
        x, lg, ef = kkt(rf, rk)
        tol = 1e-13 * (1.0 + max(np.abs(rf).max(initial=0.0),
                                 np.abs(rk).max(initial=0.0)))
        for passes in range(4):
            if k:
                ef -= W.T @ lg
                ek = rk - W @ x
                err = max(np.abs(ef).max(), np.abs(ek).max())
            else:
                ek, err = rk, np.abs(ef).max()
            if err <= tol or passes == 3 or not math.isfinite(err):
                break
            dx, dl, _ = kkt(ef, ek)
            x, lg = x + dx, lg + dl
            ef = rf - P @ x
        if not math.isfinite(err):
            return None
        lam = np.zeros(self.m)
        lam[self.gen] = lg
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
    breakpoint, from that same solve.

    Returns (answer, breakpoints).  The answer is the 7-tuple of
    :func:`soft_qp_solve` at tau = 1, its iterations the breakpoints, or
    None when the path needs more than ``max_iter`` breakpoints, when an
    equality solve fails, when the end point violates a working row, when
    an entry of l or u is finite where that of ``hot.l`` or ``hot.u`` is
    not or the other way round, or when b or ``hot.b`` has an entry that
    is not finite; breakpoints counts those passed either way.
    """
    mh, ms = A.shape[0], G.shape[0]
    fin_u, fin_l = np.isfinite(u), np.isfinite(l)
    if (fin_u != np.isfinite(hot.u)).any() or \
            (fin_l != np.isfinite(hot.l)).any() or \
            not math.isfinite(b.sum() + hot.b.sum()):
        return None, 0
    sides, states = (np.array(s, dtype=np.int8) for s in hot.sets)
    kink = states == KINK
    elim = states == ELIM
    hard_w, kink_w, elim_w = (w.nonzero()[0] for w in (sides, kink, elim))
    work = _WorkingFactor(
        P, q, A, G, b, sig1, sig2, elim, hard_w, kink_w,
        np.concatenate([np.where(sides > 0, u, l)[hard_w], b[kink_w]]),
        factors)

    # The ratio tests watch one vector V of quantities, each nonnegative
    # while its row keeps its state, in blocks of eight kinds in a fixed
    # order so that ties go to the earlier kind: an inactive hard row's
    # distance to its upper (0) and lower (1) bound, an inactive soft row's
    # distance to its kink (2), an eliminated slack (3), a working hard
    # row's dual at its upper (4) and lower (5) side, and a kink row's dual
    # (6) and its distance to sig1 (7).  V holds the point at tau, the
    # working rows' duals among it, and V1 the end point of the piece;
    # ``watch()`` says which entries belong to a row in its current state,
    # and ``tol`` how far below zero an end value must fall to count: 1e-9,
    # relative to the bound in blocks 0-3.  V is built only at the first
    # breakpoint: most paths have none.

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

    def watch():
        """Which entries of V belong to a row in its current state."""
        kink = states == KINK
        return np.concatenate([fin_u & (sides != 1), fin_l & (sides != -1),
                               states == 0, states == ELIM, sides == 1,
                               sides == -1, kink, kink])

    def answer(x1, vh1, gs1, mu1, kap1, breakpoints):
        """The 7-tuple at the end point (x1, A x1, G x1 - b, duals), or None
        when it violates a working row.  A working row that depends on the
        others, as the previous answer's working set may hold, is left out
        of the equality solve; an end point that violates it is no answer.
        The solve holds the others to 1e-13 (1 + |rhs|), |rhs| near
        |Px| + |q|."""
        if work.value:
            hw, kw = sides.nonzero()[0], (states == KINK).nonzero()[0]
            etol = 1e-12 * (1.0 + np.abs(work.P @ x1).max(initial=0.0)
                            + np.abs(work.q).max(initial=0.0))
            # a working hard row's distance to its bound (an infinite one
            # counts as 0), a kink row's to its kink, as in V
            sw = sides[hw]
            bound = np.where(sw > 0, u[hw], l[hw])
            bound = np.where(np.isfinite(bound), bound, 0.0)
            if (sw * (bound - vh1[hw]) < -np.maximum(
                    1e-9 * np.abs(bound) + 1e-9, etol)).any() or \
                    (-gs1[kw] < -np.maximum(1e-9 * np.abs(b[kw]) + 1e-9,
                                            etol)).any():
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
        return x1, eps, mu1, lam, nu, (sides, states), breakpoints

    def set_dual(row, value):
        """Set the dual of working ``row`` (hard, then soft numbering)."""
        if row < mh:
            V[off[4] + row], V[off[5] + row] = value, -value
        else:
            V[off[6] + row - mh], V[off[7] + row - mh] = value, sig1 - value

    # the side or state each kind of breakpoint leaves its row in
    new_state = (1, -1, KINK, KINK, 0, 0, 0, ELIM)

    def change(kind, row):
        """Change the state of ``row`` as the ratio test's ``kind`` says; an
        entering row has entered ``work`` already."""
        (sides if kind in (0, 1, 4, 5) else states)[row] = new_state[kind]
        if kind >= 4:
            # a working row leaves: its dual is 0 from here on
            rid = row if kind < 6 else mh + row
            set_dual(rid, 0.0)
            work.remove(rid)
        if kind in (3, 7):
            # an eliminated slack reached zero, or a kink row's released
            work.fold(row, -1 if kind == 3 else 1)

    V = None
    # the working set's factorization outlives the homotopy in ``factors``
    try:
        for breakpoints in range(max_iter + 1):
            res = work.solve()
            if res is None:
                return None, breakpoints
            x1, dual1 = res
            vh1, gs1 = A @ x1, G @ x1 - b
            mu1, kap1 = dual1[:mh], dual1[mh:]
            if V is None:
                if not first_leaves(vh1, gs1, mu1, kap1):
                    return answer(x1, vh1, gs1, mu1, kap1, 0), 0
                su, sl = np.where(fin_u, u, 0.0), np.where(fin_l, l, 0.0)
                off = [0]
                for size in (mh, mh, ms, ms, mh, mh, ms, ms):
                    off.append(off[-1] + size)
                tol = np.full(off[8], 1e-9)
                tol[:off[4]] += 1e-9 * np.abs(np.concatenate([su, sl, b, b]))
                neg_tol = -tol
                # the start, tau = 0, from the hot start's point and duals
                mu = np.where(sides != 0, hot.mu, 0.0)
                kap = np.where(kink, hot.lam, 0.0)
                vh, gs = A @ hot.x, G @ hot.x - hot.b
                V = np.concatenate([np.where(fin_u, hot.u, 0.0) - vh,
                                    vh - np.where(fin_l, hot.l, 0.0), -gs, gs,
                                    mu, -mu, kap, sig1 - kap])
            V1 = np.concatenate([su - vh1, vh1 - sl, -gs1, gs1, mu1, -mu1,
                                 kap1, sig1 - kap1])
            watched = watch()
            idx = (watched & (V1 < neg_tol)).nonzero()[0]
            if not len(idx):
                return answer(x1, vh1, gs1, mu1, kap1, breakpoints), \
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
            # move to the breakpoint and change the row's state there
            V += sigma * (V1 - V)
            if kind < 4:
                # the entering row's dual starts at 0 (sig1 for a slack that
                # reached zero) and moves by s t, t >= 0
                s = -1.0 if kind in (1, 3) else 1.0
                lam_r = sig1 if kind == 3 else 0.0
                rid, value = (row, (u, l)[kind][row]) if kind < 2 \
                    else (mh + row, b[row])
                if not work.enter(rid, value):
                    # The entering row's normal is a combination c of the
                    # working rows' normals, so it cannot be added as it
                    # is: along t, stationarity moves their duals by
                    # -s t c, and the first of them to reach a bound leaves
                    # for it.
                    comb = work.combination(A[row] if kind < 2 else G[row])
                    if comb is None:
                        return None, breakpoints
                    ids, c = comb
                    # each working dual's distances to its bounds are two
                    # entries of V (blocks 4 and 5 of a hard row, of which the
                    # one of its side is watched, and 6 and 7 of a kink row),
                    # moving at rates d and -d
                    is_hard = ids < mh
                    at1 = ids + np.where(is_hard, off[4], off[6] - mh)
                    at = np.concatenate([at1, at1 + np.where(is_hard, mh, ms)])
                    d = -s * c
                    rate = np.concatenate([d, -d])
                    dmin = 1e-12 * np.abs(d).max()
                    falls = watched[at] & (rate < -dmin)
                    t = np.full(len(at), np.inf)
                    t[falls] = V[at[falls]] / -rate[falls]
                    j = int(t.argmin())
                    t_j = max(t[j], 0.0)
                    if kind >= 2 and not t_j <= sig1:
                        # the entering soft row's own dual crosses [0, sig1]
                        # before any working dual reaches a bound: the row
                        # passes its kink without entering, from inactive to
                        # eliminated (kind 2) or back (kind 3)
                        V[at] += sig1 * rate
                        states[row] = ELIM if kind == 2 else 0
                        work.fold(row, 1 if kind == 2 else -1)
                        continue
                    if not np.isfinite(t_j):
                        # no working dual limits t
                        return None, breakpoints
                    V[at] += t_j * rate
                    lam_r += s * t_j
                    j %= len(ids)
                    if is_hard[j]:
                        change(4, int(ids[j]))
                    else:
                        change(6 if d[j] < 0.0 else 7, int(ids[j]) - mh)
                    if not work.enter(rid, value):
                        return None, breakpoints
                change(kind, row)
                set_dual(rid, lam_r)
            else:
                change(kind, row)
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
    numerically positive definite.  Callers certify the point themselves.  Returns the 7-tuple of
    :func:`soft_qp_solve`: the working set is read off the interior point
    (rows whose dual exceeds their slack), the iterations are Newton steps.
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
    return x, eps, mu_h, w, -v, (sides, states), it


def kkt_residuals(P, q, A, l, u, y, lam):
    """(primal, dual, complementarity) infinity-norm KKT residuals."""
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


def soft_kkt_residuals(P, q, A, l, u, G, b, sig1, sig2, x, eps, mu, lam, nu):
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
    """
    vh = A @ x
    vs = G @ x - eps
    prim = _worst((np.maximum(vh - u, 0.0) + np.maximum(l - vh, 0.0)).max(
        initial=0.0), (vs - b).max(initial=0.0), (-eps).max(initial=0.0))
    # a slack's dual: positive on its infinite upper side, negative paired
    # with eps itself
    comp = [np.maximum(nu, -nu * np.abs(eps)).max(initial=0.0)]
    dual_x = P @ x + q
    i = mu.nonzero()[0]
    if len(i):
        m = mu[i]
        comp.append(_dual_gaps(m, np.where(m > 0.0, u[i], l[i]), vh[i]))
        dual_x += A[i].T @ m
    i = lam.nonzero()[0]
    if len(i):
        m = lam[i]
        comp.append(_dual_gaps(m, np.where(m > 0.0, b[i], -np.inf), vs[i]))
        dual_x += G[i].T @ m
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


def _unbounded(P, q, A, G):
    """Whether a direction d with P d = 0, A d = 0, G d = 0 and q'd < 0
    exists, to 1e-8 relative: the cost then falls without bound along d from
    any feasible point, which certifies dual infeasibility.  d = -N N'q
    over the null space N of the stacked rows, from one SVD."""
    _, s, vt = np.linalg.svd(np.vstack([P, A, G]))
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
       with ``hot``, capped at ``EXCHANGE_CAP`` breakpoints);
    2. else :func:`soft_ipm_solve` (at most ``IPM_MAX_ITER`` Newton steps)
       and a crossover, the same capped homotopy from
       :func:`auxiliary_hot` of the interior point and its working set,
       which lands on the vertex;
    3. else the interior point itself.

    Returns (QpSolution, solver path "parametric" or "ipm", HotStart).
    The solution's ``y`` is (x, slacks) and its duals those of the hard,
    soft and slack rows.  Its iterations count the breakpoints and the IPM's
    iterations; a homotopy that gives up counts its full cap, also when it
    stopped earlier, since None does not say how far it got.  The
    :class:`HotStart` is the certified answer with (l, u, b) and its
    working set, the next solve's hot start.  When nothing
    passes, the solution is the interior point, the path and hot start
    are None, and the status is PrimalInfeasible when its duals are a
    Farkas certificate, else DualInfeasible when a direction of unbounded
    descent exists (:func:`_unbounded`), else MaxIter.
    """
    soft = (P, q, A, l, u, G, b, sig1, sig2)
    iterations = 0

    def homotopy(hot_start):
        nonlocal iterations
        res = soft_qp_solve(*soft, None, max_iter=EXCHANGE_CAP,
                            hot=hot_start, factors=factors)
        iterations += EXCHANGE_CAP if res is None else res[6]
        return res

    def answers():
        """(solver path, answer) in order of preference, solved lazily."""
        nonlocal iterations
        if hot is not None:
            res = homotopy(hot)
            if res is not None:
                yield "parametric", res
        ipm = soft_ipm_solve(*soft, tol)
        iterations += ipm[6]
        cross = homotopy(auxiliary_hot(A, G, l, u, b, sig1, *ipm[:4], ipm[5]))
        if cross is not None:
            yield "ipm", cross
        yield "ipm", ipm

    for path, res in answers():
        x, eps, mu, lam_soft, nu = res[:5]
        rp, rd, rc = soft_kkt_residuals(*soft, x, eps, mu, lam_soft, nu)
        if max(rp, rd, rc) <= tol:
            status = QpStatus.OPTIMAL
            hot_next = HotStart(l, u, b, x, eps, mu, lam_soft, res[5])
            break
    else:
        # the interior point failed the check as well
        if _farkas(A, l, u, mu):
            status = QpStatus.PRIMAL_INFEASIBLE
        elif _unbounded(P, q, A, G):
            status = QpStatus.DUAL_INFEASIBLE
        else:
            status = QpStatus.MAX_ITER
        path = hot_next = None
    obj = float(0.5 * x @ P @ x + q @ x + sig2 * (eps @ eps) + sig1 * eps.sum())
    return QpSolution(np.concatenate([x, eps]),
                      np.concatenate([mu, lam_soft, nu]), status,
                      iterations, obj, rp, rd, rc), path, hot_next


def solve_qp(prob: QpProblem, tol=1e-6) -> QpSolution:
    """One-shot solve of ``prob`` by :func:`certified_solve`, without soft
    rows or a hot start: the interior point, its crossover, and the interior
    point itself, the first that passes the KKT check at ``tol``."""
    prob.validate()
    n = len(prob.q)
    return certified_solve(prob.P, prob.q, prob.A, prob.l, prob.u,
                           np.zeros((0, n)), np.zeros(0), 0.0, 0.0, tol)[0]


class PreparedQp:
    """Equilibrated + factorized ADMM workspace for a fixed (P, A) pair.

    Repeated solves with new (q, l, u) reuse the factorization; inputs may be
    batched as (n, K) / (m, K) arrays, in which case every column is solved
    simultaneously (columns that have converged keep iterating but their
    iteration counts are recorded at first convergence).
    """

    def __init__(self, P, A, eq_mask=None, rho=0.1, sigma=1e-6, alpha=1.6,
                 scaling_iters=10, tol=1e-6, max_iter=4000, check_every=10):
        self.n = P.shape[0]
        self.m = A.shape[0]
        self.tol = tol
        self.max_iter = max_iter
        self.alpha = alpha
        self.sigma = sigma
        self.check_every = check_every
        self.P = np.asarray(P, dtype=float)
        self.A = np.asarray(A, dtype=float)

        # Ruiz equilibration of [[P, A'], [A, 0]]
        d = np.ones(self.n)
        e = np.ones(self.m)
        Ps = self.P.copy()
        As = self.A.copy()
        for _ in range(scaling_iters):
            col_p = np.abs(Ps).max(axis=0) if self.n else np.zeros(0)
            col_a = np.abs(As).max(axis=0) if self.m else np.zeros(self.n)
            dn = np.sqrt(np.maximum(np.maximum(col_p, col_a), 1e-12))
            row_a = np.abs(As).max(axis=1) if self.m else np.zeros(0)
            en = np.sqrt(np.maximum(row_a, 1e-12))
            Ps /= dn[None, :] * dn[:, None]
            if self.m:
                As = As / en[:, None] / dn[None, :]
            d /= dn
            e /= en
        col_norm = np.abs(Ps).max(axis=0).mean() if self.n else 1.0
        self.c = 1.0 / max(col_norm, 1e-6)
        Ps *= self.c
        self.d = d
        self.e = e
        self.Ps = Ps
        self.As = As

        if eq_mask is None:
            eq_mask = np.zeros(self.m, dtype=bool)
        self.rho_vec = np.where(eq_mask, rho * 1e3, rho)
        self._factor()

    def _factor(self):
        K = self.Ps + self.sigma * np.eye(self.n)
        if self.m:
            K = K + (self.As * self.rho_vec[:, None]).T @ self.As
        self.chol = cho_factor(K, lower=True, check_finite=False)

    def solve(self, q, l, u, y0=None, lam0=None, tol=None, max_iter=None):
        """Solve for one or many (q, l, u) columns; returns a QpSolution for
        1-D inputs, or (Y, Lam, iters, status) arrays for batched inputs."""
        tol = self.tol if tol is None else tol
        max_iter = self.max_iter if max_iter is None else max_iter
        q = np.asarray(q, dtype=float)
        batched = q.ndim == 2
        Q = q if batched else q[:, None]
        K = Q.shape[1]
        L = np.asarray(l, dtype=float).reshape(self.m, -1) * np.ones((1, K))
        U = np.asarray(u, dtype=float).reshape(self.m, -1) * np.ones((1, K))

        # scale into equilibrated space
        Qs = self.c * (self.d[:, None] * Q)
        Ls = self.e[:, None] * L
        Us = self.e[:, None] * U

        X = np.zeros((self.n, K)) if y0 is None else (np.asarray(y0, float).reshape(self.n, -1) / self.d[:, None]) * np.ones((1, K))
        if lam0 is None:
            Y = np.zeros((self.m, K))
        else:
            Y = (self.c * np.asarray(lam0, float).reshape(self.m, -1) / self.e[:, None]) * np.ones((1, K))
        Z = np.clip(self.As @ X, Ls, Us) if self.m else np.zeros((0, K))

        rho = self.rho_vec[:, None]
        sigma, alpha = self.sigma, self.alpha
        iters_done = np.full(K, -1, dtype=int)
        status = np.full(K, QpStatus.MAX_ITER, dtype=object)
        prim = np.zeros(K)
        dual = np.zeros(K)
        comp = np.zeros(K)
        Y_prev_check = Y.copy()
        last_adapt = 0

        it = 0
        while it < max_iter:
            it += 1
            rhs = sigma * X - Qs
            if self.m:
                rhs = rhs + self.As.T @ (rho * Z - Y)
            Xt = cho_solve(self.chol, rhs, check_finite=False)
            Xn = alpha * Xt + (1.0 - alpha) * X
            if self.m:
                Zhat = self.As @ Xt
                Zt = alpha * Zhat + (1.0 - alpha) * Z
                Zn = np.clip(Zt + Y / rho, Ls, Us)
                Y = Y + rho * (Zt - Zn)
                Z = Zn
            X = Xn

            if it % self.check_every == 0 or it == max_iter:
                Xo = self.d[:, None] * X
                Yo = (self.e[:, None] * Y) / self.c
                r_dual = np.abs(self.P @ Xo + Q + (self.A.T @ Yo if self.m else 0.0)).max(axis=0)
                if self.m:
                    AX = self.A @ Xo
                    r_prim = (np.maximum(AX - U, 0.0) + np.maximum(L - AX, 0.0)).max(axis=0)
                    yp = np.maximum(Yo, 0.0)
                    yn = np.minimum(Yo, 0.0)
                    gap_u = np.where(np.isfinite(U), np.abs(U - AX), 0.0)
                    gap_l = np.where(np.isfinite(L), np.abs(AX - L), 0.0)
                    r_comp = np.maximum(yp * gap_u - yn * gap_l, 0.0).max(axis=0)
                else:
                    r_prim = np.zeros(K)
                    r_comp = np.zeros(K)
                ok = (r_prim <= tol) & (r_dual <= tol) & (r_comp <= tol)
                newly = ok & (iters_done < 0)
                iters_done[newly] = it
                status[newly] = QpStatus.OPTIMAL
                prim[newly] = r_prim[newly]
                dual[newly] = r_dual[newly]
                comp[newly] = r_comp[newly]
                if np.all(iters_done >= 0):
                    break

                if self.m:
                    bad = self._infeasibility_certificate(Y - Y_prev_check, L, U)
                    fresh_bad = bad & (iters_done < 0)
                    if np.any(fresh_bad):
                        iters_done[fresh_bad] = it
                        status[fresh_bad] = QpStatus.PRIMAL_INFEASIBLE
                        if np.all(iters_done >= 0):
                            break
                    Y_prev_check = Y.copy()

                    # penalty adaptation on the scaled residual balance
                    if it - last_adapt >= 50:
                        AsX = self.As @ X
                        rp = np.abs(AsX - Z).max() / max(
                            np.abs(AsX).max(initial=0.0), np.abs(Z).max(initial=0.0), 1e-10)
                        PsX = self.Ps @ X
                        AtY = self.As.T @ Y
                        rd = np.abs(PsX + Qs + AtY).max() / max(
                            np.abs(PsX).max(initial=0.0), np.abs(Qs).max(initial=0.0),
                            np.abs(AtY).max(initial=0.0), 1e-10)
                        ratio = rp / max(rd, 1e-16)
                        if ratio > 5.0 or ratio < 0.2:
                            factor = np.clip(math.sqrt(ratio), 1e-3, 1e3)
                            self.rho_vec = np.clip(self.rho_vec * factor, 1e-6, 1e6)
                            self._factor()
                            rho = self.rho_vec[:, None]
                            last_adapt = it

        unfinished = iters_done < 0
        iters_done[unfinished] = it
        prim[unfinished] = r_prim[unfinished] if it % self.check_every == 0 else np.inf
        Xo = self.d[:, None] * X
        Yo = (self.e[:, None] * Y) / self.c

        if not batched:
            obj = float(0.5 * Xo[:, 0] @ self.P @ Xo[:, 0] + Q[:, 0] @ Xo[:, 0])
            p, dl, cm = kkt_residuals(self.P, Q[:, 0], self.A, L[:, 0], U[:, 0],
                                      Xo[:, 0], Yo[:, 0])
            return QpSolution(Xo[:, 0], Yo[:, 0], str(status[0]), int(iters_done[0]),
                              obj, p, dl, cm)
        return Xo, Yo, iters_done, status

    def _infeasibility_certificate(self, dY, L, U):
        """Columnwise OSQP-style primal infeasibility test on dual increments."""
        dYo = (self.e[:, None] * dY) / self.c
        norm = np.abs(dYo).max(axis=0)
        eps = 1e-8
        with np.errstate(invalid="ignore"):
            at_norm = norm > 1e-10
        if not np.any(at_norm):
            return np.zeros(dY.shape[1], dtype=bool)
        atv = np.abs(self.A.T @ dYo).max(axis=0) if self.n else np.zeros(dY.shape[1])
        dp = np.maximum(dYo, 0.0)
        dn = np.minimum(dYo, 0.0)
        # rows with infinite bounds must not contribute to the certificate
        bad_inf = ((~np.isfinite(U)) & (dp > eps * norm[None, :])).any(axis=0)
        bad_inf |= ((~np.isfinite(L)) & (dn < -eps * norm[None, :])).any(axis=0)
        sup = np.where(np.isfinite(U), U, 0.0) * dp + np.where(np.isfinite(L), L, 0.0) * dn
        sup = sup.sum(axis=0)
        return at_norm & ~bad_inf & (atv <= eps * norm) & (sup < -eps * norm)
