"""The controller's dense convex QP solver.

Solves problems of the form

    minimize    0.5 * x'Px + q'x + sum_i (sig1 eps_i + sig2 eps_i^2)
    subject to  l <= Ax <= u,   Gx - eps <= b,   eps >= 0,

with P symmetric positive semidefinite and one-sided soft rows ``G`` whose
slacks ``eps`` stay out of the x space; this is "the soft QP" below.
:func:`certified_solve` is the one solve entry, run by the controller on
every cycle; a failed solve is MaxIter, with no further label.  Its one
active-set method, the parametric homotopy (:func:`parametric_solve`),
runs from the caller's hot start, then as the crossover after a capped
Mehrotra interior point (:func:`soft_ipm_solve`) from its working set
(:func:`auxiliary_hot`).  A
homotopy keeps one factorization of its working set for its whole path
(:class:`_WorkingFactor`: one QR of all working rows, box rows that pin an
input among them, updated by one row per breakpoint, and a Cholesky of the
reduced Hessian), and lets a soft row pass its kink without entering it.
Each answer is certified by :func:`soft_kkt_residuals` on the lifted
problem over (x, slacks) without forming it; when none passes, the answer
is the interior point, with no solver path.  Every solver returns one
record, :class:`Answer`, and a certified one is the next solve's hot
start.  Without a hot start,
:func:`soft_qp_solve` is a primal active set on the hard rows alone, which
only the region sweep runs; it keeps the same one factorization of its
working set, changed by one row per exchange, and solves a working set
again only after it changes.  :class:`_WorkingFactor` is the package's
one equality solve on a working set.
No control cycle runs :class:`PreparedQp`, :func:`kkt_residuals` or the
``cho_factor`` / ``cho_solve`` / ``lu_factor`` imports: the benchmark's
span tracer (``perfbench/spans.py``) resolves these names here, and they
stay until ROADMAP item 1b retargets its spans.
"""

from __future__ import annotations

import bisect
import inspect
import math
from typing import NamedTuple

import numpy as np
# No solver here calls cho_factor, cho_solve or lu_factor.  They are
# imported only because the benchmark's span tracer (perfbench/spans.py)
# resolves them in this module by name; ROADMAP item 1b retargets those
# spans, and then they go.
from scipy.linalg import cho_factor, cho_solve, lu_factor
from scipy.linalg import qr_delete, qr_insert
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs
from scipy.linalg.lapack import dgeqp3 as _geqp3, dorgqr as _orgqr
from scipy.linalg.lapack import dtrtrs as _trtrs


# the states of a soft row in a working set besides 0 (see Answer)
KINK, ELIM = 1, 2


class Answer(NamedTuple):
    """One answer of the soft QP: what every solver here returns, what
    :func:`certified_solve` returns, and the next solve's hot start.

    ``l``, ``u`` and ``b`` are the hard-row and soft-row bounds of the
    problem it answers, whose P, A and G the caller keeps; ``x`` is the
    point, ``eps`` the slacks, and ``mu``, ``lam`` and ``nu`` the duals of
    the hard rows, the soft rows and the slacks' rows eps >= 0.  The
    working set ``sets`` is the pair (sides, states) of int8 arrays, the
    one format of every solver here: ``sides[i]`` is 1 when hard row i is
    working at its upper bound, -1 at its lower bound and 0 off the working
    set; ``states[j]`` is 0 when soft row j's slack sits at zero, ``KINK``
    when the row is held at its kink, and ``ELIM`` when its slack is
    eliminated (substituted by the row's violation).  ``iterations`` is the
    solver's work: a homotopy's breakpoints, the interior point's Newton
    steps, the primal active set's equality solves, or a whole chain's in
    :func:`certified_solve`.  ``products`` is (A x, G x) where the solver
    formed them, else None.

    :func:`parametric_solve` starts from the first eight fields: a
    certified answer, or :func:`auxiliary_hot` of a guess, whose ``nu`` is
    None."""

    l: np.ndarray
    u: np.ndarray
    b: np.ndarray
    x: np.ndarray
    eps: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    sets: tuple
    nu: np.ndarray = None
    iterations: int = 0
    products: tuple = None


def row_structure(A):
    """For each row: the column index if the row has a single nonzero, else -1."""
    nz = A != 0.0
    counts = nz.sum(axis=1)
    cols = np.argmax(nz, axis=1)
    return np.where(counts == 1, cols, -1)


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

    ``hot`` takes an :class:`Answer`, the optimum of a problem with the
    same P, A and G (an answer, or :func:`auxiliary_hot` of a guess).  The
    solve then follows the optimum's path from it
    (:func:`parametric_solve`, at most ``max_iter`` breakpoints, with
    ``factors``, a :class:`FactorCache` or None), and x0, single_col and
    warm are not used.

    Without ``hot`` the problem may have no soft rows (``G`` with no rows;
    ValueError otherwise): the region sweep's solve of l <= Ax <= u, a
    primal active set from x0, which must satisfy the rows, with no use of
    ``factors``.  Iterates stay
    feasible and the cost decreases monotonically.  ``warm`` takes the
    working set returned by a previous call on a problem with the same
    rows; if its equality-constrained point is feasible the iteration
    starts there, which usually finishes in a handful of exchanges when the
    data changed only slightly.  The call keeps one factorization of its
    working set, the homotopy's (:class:`_WorkingFactor`): built from the
    warm set, or from x0's tight rows when they differ from it by more than
    one row, and then changed by one row update per exchange; a row that
    enters as a combination of the working rows is held at dual 0.  A
    working set is solved once until it changes: the warm start's trial
    solve serves the first iteration, also when its point is infeasible and
    x0 lands on the same working set, and a full step that adds no row
    reuses its solve.  A working set whose single-column rows
    (``single_col``, as :func:`row_structure` gives it, computed when None)
    pin every input returns None before any solve, although its point may
    be the optimum: the all-pinned FOUND line in CHANGES.md, which ROADMAP
    item 2 ends by deleting this loop.

    With ``hot`` it returns :func:`parametric_solve`'s pair (answer or
    None, breakpoints), so a homotopy that gives up still says how far it
    got.  :func:`certified_solve` runs its homotopies through this call,
    not :func:`parametric_solve`, because the benchmark counts its calls:
    one per control cycle, and a second when a hot start hands over.

    Without ``hot`` it returns an :class:`Answer`, or None on failure.
    Its soft parts are empty, its products None, and each iteration is one
    equality-constrained solve (a step, an exchange, or the final
    optimality check; the warm start's trial solve is not counted).
    """
    if hot is not None:
        return parametric_solve(P, q, A, l, u, G, b, sig1, sig2, hot,
                                max_iter, factors)
    if G.shape[0]:
        raise ValueError("soft rows need a hot start: without one "
                         "soft_qp_solve solves hard rows only")
    mh, n = A.shape[0], len(q)
    if single_col is None:
        single_col = row_structure(A)
    fin_u = np.isfinite(u)
    fin_l = np.isfinite(l)
    su = np.where(fin_u, u, 0.0)
    sl = np.where(fin_l, l, 0.0)
    htol_u = 1e-9 * (1.0 + np.abs(su))
    htol_l = 1e-9 * (1.0 + np.abs(sl))

    def pins_every_input(sides):
        """Whether the single-column rows working at ``sides`` pin every
        input, where the loop gives up."""
        cols = single_col[sides != 0]
        return len(cols) >= n and \
            np.count_nonzero(np.bincount(cols + 1, minlength=n + 1)[1:]) == n

    def factor(sides):
        """The factorization of the hard rows working at ``sides``."""
        rows = sides.nonzero()[0]
        return _WorkingFactor(P, q, A, G, b, sig1, sig2, rows[:0], rows,
                              np.where(sides > 0, u, l)[rows])

    def set_side(row, side):
        """Put hard ``row`` at ``side`` in ``sides`` and ``work``."""
        sides[row] = side
        if side:
            work.hold(row, u[row] if side > 0 else l[row])
        else:
            work.remove(row)

    # the working set's factorization, and the equality solve of the
    # current working set once it has one: a solve depends on nothing else,
    # so it is redone only after a change
    work = res = trial = None
    if warm is not None and len(warm[0]) == mh:
        w_sides = np.array(warm[0], dtype=np.int8)
        if not pins_every_input(w_sides):
            work = factor(w_sides)
            res = work.solve()
        if res is not None:
            x_w, _ = res
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
        # the warm set's factorization serves x0's rows when they differ
        # from it by at most one row; without it, the loop factors them
        changed = () if work is None else (sides != w_sides).nonzero()[0]
        if len(changed) > 1:
            work = None
        elif len(changed):
            set_side(changed[0], sides[changed[0]])
        else:
            res = trial

    for it in range(1, max_iter + 1):
        if res is None:
            if pins_every_input(sides):
                return None
            if work is None:
                work = factor(sides)
            res = work.solve()
            if res is None:
                return None
        x_new, mu = res
        px = x_new - x
        if np.abs(px).max(initial=0.0) <= \
                1e-11 * (1.0 + np.abs(x).max(initial=0.0)):
            # a dual of the wrong sign for its row's side
            wrong_h = np.maximum(-sides * mu, 0.0)
            if not (wrong_h > 1e-9).any():
                empty = np.zeros(0)
                return Answer(l, u, b, x_new, empty, mu, empty,
                              (sides, np.zeros(0, dtype=np.int8)), empty, it)
            # release one row at a time (most negative dual): mass drops at
            # degenerate vertices trigger long chains of zero-length re-adds
            set_side(np.argmax(wrong_h), 0)
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
            set_side(row, 1 if kind == 0 else -1)
            res = None
    return None


# Iteration cap of soft_ipm_solve.  At seed 0 the six paper MPC runs hand
# over only their first cycle, and the IPM takes 10-14 iterations on each of
# these 6 handovers; the known cold cycles that reach the cap, two of which
# fall back to LQ there, are the recipes of tests/test_cold_cycles.py.
IPM_MAX_ITER = 30
# Breakpoint cap of each homotopy of certified_solve: the hot start (on the
# last answer's structure or shifted onto a new one) and the crossover after
# the IPM.  At seed 0 the six paper MPC runs hand only their first cycle over
# to the IPM uncapped, as at this cap (no homotopy needs more than 28
# breakpoints); at a cap of 20 they hand over 16 cycles and at 10, 86.
# A breakpoint costs at most 0.22 ms and an IPM iteration 0.44 ms (README's
# unit costs, timed on the recipes of tests/test_cold_cycles.py), so a path
# that runs to the cap (6.6 ms) costs about what a paper handover's 10-14
# IPM iterations (4.4-6.2 ms) cost before their crossover.
EXCHANGE_CAP = 30


def auxiliary_hot(A, G, l, u, b, sig1, x, eps, mu, lam, sets) -> Answer:
    """An :class:`Answer` that makes a guess -- x, slacks eps, duals mu and
    lam, and working set ``sets`` in the format of :class:`Answer` --
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
    return Answer(l_aux, u_aux, b_aux, x, eps, mu_aux, lam_aux, sets)


class FactorCache:
    """Factorizations kept across the homotopies of QPs that share P, A
    and G: P's Cholesky factor, computed on first use (upper, for
    ``potrs``; None when P is not numerically positive definite), which the
    homotopy's equality solve is whenever no row is working, and the
    working-set factorization the last homotopy ended on (all of
    :class:`_WorkingFactor`'s factors and buffers), which the next one takes
    when it starts from the same working set.  A condensed structure keeps
    one, so that a cycle hot-started on the last answer's structure factors
    neither P nor that answer's working set again.  The primal active set
    of :func:`soft_qp_solve` without a hot start keeps none: it updates one
    factorization for its whole call."""

    __slots__ = ("P", "_chol", "_working")

    def __init__(self, P):
        self.P = P
        self._chol = None
        self._working = None

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
    Of the starting working set, and of the rows that :meth:`hold` makes
    working, a row that depends on the others (a second bound on a pinned
    variable among them) is left out with dual 0, and taken in again once a
    row leaves.  The homotopy keeps one for its whole path, and so does the
    primal active set of :func:`soft_qp_solve` without a hot start, on hard
    rows alone.  The objective is the soft QP's
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

    def hold(self, i, value):
        """Make row ``i`` working with right-hand side ``value``: entered
        when independent of the working rows, else left out with dual 0, as
        :meth:`_factor` leaves out a dependent row, until a row leaves."""
        if not self.enter(i, value):
            self.dep.append(i)
            self.value[i] = value

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
                # semidefinite: regularize, the refinement below is
                # against the exact system
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

        # iterative refinement against the unregularized system: at most
        # three passes
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

    ``hot`` (an :class:`Answer`) holds an optimum and its working set for
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

    Returns (answer, breakpoints).  The answer is the :class:`Answer` at
    tau = 1, its iterations the breakpoints and its products the A x and
    G x of the end-point test, or None when the path needs more than
    ``max_iter`` breakpoints, when an equality solve fails, when the end
    point violates a working row, when an entry of l or u is finite where
    that of ``hot.l`` or ``hot.u`` is not or the other way round, or when b
    or ``hot.b`` has an entry that is not finite; breakpoints counts those
    passed either way.
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
        """The :class:`Answer` at the end point (x1, A x1, G x1, G x1 - b,
        duals), or None when a working row's distance ``past`` its bound or
        kink exceeds ``tol`` and 1e-12 (1 + |Px| + |q|), ten times what the
        solve holds the rows to: a row left out of the solve as dependent
        may not hold."""
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
        return Answer(l, u, b, x1, eps, mu1, lam, (sides, states), nu,
                      breakpoints, (vh1, gx1))

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
    Returns an :class:`Answer`: the working set is read off the interior
    point (rows whose dual exceeds their slack), the iterations are Newton
    steps, and it forms no products.
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
    return Answer(l, u, b, x, eps, mu_h, w, (sides, states), -v, it)


def kkt_residuals(P, q, A, l, u, y, lam):
    """(primal, dual, complementarity) infinity-norm KKT residuals of
    l <= A y <= u with duals ``lam``: the plain certificate of hard rows,
    the reference that the tests of :func:`soft_kkt_residuals` compare its
    lifted form against, and a benchmark span target (ROADMAP item 1b)."""
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


def certified_solve(P, q, A, l, u, G, b, sig1, sig2, tol, hot=None,
                    factors=None):
    """The package's one QP solve, run by the controller: the soft QP by a
    parametric hot start, then interior point and crossover.

    ``hot`` is an :class:`Answer` on the same P, A and G, or None, and
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

    Returns (answer, path, residuals, objective): the :class:`Answer`
    taken, the solver path "parametric" or "ipm", its
    :func:`soft_kkt_residuals` and its objective.  The answer's iterations
    count the breakpoints each homotopy passed, also one that gave up, and
    the IPM's iterations.  A certified answer is the next solve's hot
    start.  When nothing passes, the answer is the interior point and the
    path None: the controller's fallback is the same whatever the cause,
    so nothing diagnoses a failure further.
    """
    soft = (P, q, A, l, u, G, b, sig1, sig2)

    def residuals(res):
        return soft_kkt_residuals(*soft, res.x, res.eps, res.mu, res.lam,
                                  res.nu, res.products)

    path, iterations = None, 0
    if hot is not None:
        res, iterations = soft_qp_solve(*soft, None, max_iter=EXCHANGE_CAP,
                                        hot=hot, factors=factors)
        if res is not None:
            resid = residuals(res)
            if max(resid) <= tol:
                path = "parametric"
    if path is None:
        # scaled, the multipliers and their rounding floor stay near 1
        s = max(1.0, float(np.abs(q).max(initial=0.0)))
        ipm = soft_ipm_solve(P / s, q / s, A, l, u, G, b, sig1 / s, sig2 / s,
                             tol / s)
        ipm = ipm._replace(mu=s * ipm.mu, lam=s * ipm.lam, nu=s * ipm.nu)
        cross, its = soft_qp_solve(
            *soft, None, max_iter=EXCHANGE_CAP, factors=factors,
            hot=auxiliary_hot(A, G, l, u, b, sig1, ipm.x, ipm.eps, ipm.mu,
                              ipm.lam, ipm.sets))
        iterations += ipm.iterations + its
        for res in (cross, ipm):
            if res is not None:
                resid = residuals(res)
                if max(resid) <= tol:
                    path = "ipm"
                    break
        res = res._replace(iterations=iterations)
    x, eps = res.x, res.eps
    obj = float((0.5 * x).dot(P).dot(x) + q.dot(x) + sig2 * eps.dot(eps)
                + sig1 * eps.sum())
    return res, path, resid, obj


class PreparedQp:
    """Repeated :func:`certified_solve` of QPs without soft rows that share
    P and A and move q, l and u: one :class:`FactorCache` of P for every
    solve, each hot-started from the last certified answer, or cold after
    a solve that certified none.  No control cycle runs it: it stays only
    because the benchmark's ``qp.admm`` span resolves ``PreparedQp.solve``
    by name, until ROADMAP item 1b retargets that span."""

    def __init__(self, P, A, tol=1e-6):
        self.P = np.asarray(P, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.tol = tol
        self._factors = FactorCache(self.P)
        self._hot = None

    def solve(self, q, l, u):
        """:func:`certified_solve`'s (answer, path, residuals, objective)
        for (P, q, A, l, u), with no validation and no relabelling."""
        q, l, u = (np.asarray(v, dtype=float) for v in (q, l, u))
        answer, path, resid, obj = certified_solve(
            self.P, q, self.A, l, u, np.zeros((0, len(q))), np.zeros(0),
            0.0, 0.0, self.tol, self._hot, self._factors)
        self._hot = answer if path is not None else None
        return answer, path, resid, obj
