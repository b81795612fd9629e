"""The homotopy's working-set factorization against solves from scratch.

``qp._WorkingFactor`` keeps one QR of the transpose of all its working
rows, box rows that pin a variable among them, and changes it by one row
per breakpoint.  These tests apply random sequences of row insertions and
deletions (box rows, general rows, kink rows) and rank-1 folds of
eliminated soft rows, and after every step compare the updated
factorization's point and duals with a dense solve of the KKT system of
the same working set, and its dependence verdicts and combinations with an
SVD rank test.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trailer_mpc.qp import (KINK, FactorCache, HotStart, _fold,
                            _WorkingFactor, certified_solve,
                            parametric_solve, soft_kkt_residuals)

N = 4


def _problem(rng):
    """P, q, the hard rows A (N box rows, a second bound on x0, the chain
    x_i - x_{i-1} and two dense rows), soft rows G and their data."""
    M = rng.normal(size=(N, N))
    P = M @ M.T + np.eye(N)
    q = rng.normal(size=N)
    chain = np.zeros((N - 1, N))
    chain[np.arange(N - 1), np.arange(1, N)] = 1.0
    chain[np.arange(N - 1), np.arange(N - 1)] = -1.0
    box = np.diag(rng.choice([1.0, -2.0, 0.5], N))
    A = np.vstack([box, np.eye(1, N), chain, rng.normal(size=(2, N))])
    G = rng.normal(size=(3, N))
    b = rng.normal(size=3)
    return P, q, A, G, b


def _rank(M):
    if not len(M):
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s.max()))


def _check_solve(work, P, q, A, G, elim, sig1, sig2, b):
    """The factorization's point and duals against a dense solve of the
    KKT system of the same working set and freshly folded objective."""
    mh = A.shape[0]
    rows = sorted(work.value)
    P_f, q_f = _fold(P, q, G, b, sig1, sig2, elim)
    np.testing.assert_allclose(work.P, P_f, rtol=1e-12, atol=1e-9)
    W = np.array([A[i] if i < mh else G[i - mh] for i in rows]).reshape(-1, N)
    values = np.array([work.value[i] for i in rows])
    got = work.solve()
    assert got is not None
    x, lam = got
    duals = lam[rows]
    # the working rows hold and stationarity holds with their duals
    np.testing.assert_allclose(W @ x, values, rtol=0.0,
                               atol=1e-9 * (1.0 + np.abs(values).max(
                                   initial=0.0)))
    scale = 1.0 + np.abs(P_f @ x).max() + np.abs(q_f).max()
    assert np.abs(P_f @ x + q_f + W.T @ duals).max() <= 1e-9 * scale
    K = np.block([[P_f, W.T], [W, np.zeros((len(rows), len(rows)))]])
    if np.linalg.cond(K) > 1e6:
        # singular when a working row depends on the others, and a dense
        # solve loses digits when K is near it; the residual checks above
        # still apply
        return
    ref = np.linalg.solve(K, np.concatenate([-q_f, values]))
    x_ref, lam_ref = ref[:N], ref[N:]
    np.testing.assert_allclose(x, x_ref, rtol=0.0,
                               atol=1e-9 * (1.0 + np.abs(x_ref).max()))
    np.testing.assert_allclose(duals, lam_ref, rtol=0.0,
                               atol=1e-9 * (1.0 + np.abs(lam_ref).max(
                                   initial=0.0)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6)),
                    min_size=1, max_size=30))
# nearly dependent rows whose coefficients reach 4.6e3 and 1.0e3, where
# the combination and lstsq differ by 1.2e-9 and 7.1e-9
@example(seed=1810887888,
         ops=[(0, 986928), (3, 462973), (1, 690614), (3, 218744),
              (3, 579948), (3, 128168), (1, 842193), (0, 991319),
              (1, 957884), (3, 321921), (0, 238117), (3, 876186)])
@example(seed=3892099983,
         ops=[(3, 333329), (0, 729255), (1, 241531), (0, 9540), (0, 488742),
              (3, 618271), (0, 731680), (1, 675919), (3, 853445),
              (2, 106232), (3, 859968), (2, 463893)])
def test_updated_factorization_matches_solves_from_scratch(seed, ops):
    rng = np.random.default_rng(seed)
    P, q, A, G, b = _problem(rng)
    mh, ms = A.shape[0], G.shape[0]
    sig1, sig2 = 10.0, 50.0
    values = np.concatenate([rng.normal(size=mh), b])
    elim = np.zeros(ms, dtype=bool)
    work = _WorkingFactor(P, q, A, G, b, sig1, sig2, np.flatnonzero(elim),
                          np.zeros(0, dtype=np.intp), np.zeros(0))
    _check_solve(work, P, q, A, G, elim, sig1, sig2, b)
    for action, pick in ops:
        working = sorted(work.value)
        if action <= 1:
            # a row enters: a hard row, or a soft row at its kink
            free_rows = [i for i in range(mh + ms) if i not in work.value
                         and not (i >= mh and elim[i - mh])]
            if not free_rows:
                continue
            i = free_rows[pick % len(free_rows)]
            a = A[i] if i < mh else G[i - mh]
            W = np.array([A[r] if r < mh else G[r - mh]
                          for r in working]).reshape(-1, N)
            dependent = _rank(np.vstack([W, a])) == _rank(W)
            comb = work.combination(a)
            assert (comb is not None) == dependent
            if dependent:
                ids, c = comb
                Wc = np.array([A[r] if r < mh else G[r - mh] for r in ids])
                np.testing.assert_allclose(Wc.T @ c, a, rtol=0.0, atol=1e-9)
                # the working rows are independent, so c is unique; like
                # x and the duals in _check_solve, to 1e-9 of its size
                c_ref = np.linalg.lstsq(W.T, a, rcond=None)[0]
                pos = {r: k for k, r in enumerate(working)}
                np.testing.assert_allclose(
                    c, c_ref[[pos[r] for r in ids]], rtol=0.0,
                    atol=1e-9 * (1.0 + np.abs(c_ref).max()))
            assert work.enter(i, values[i]) == (not dependent)
        elif action == 2:
            if not working:
                continue
            work.remove(working[pick % len(working)])
        else:
            # fold or unfold the penalty of a soft row off the working set
            soft = [r for r in range(ms) if mh + r not in work.value]
            if not soft:
                continue
            r = soft[pick % len(soft)]
            work.fold(r, -1 if elim[r] else 1)
            elim[r] = not elim[r]
        _check_solve(work, P, q, A, G, elim, sig1, sig2, b)


def test_starting_factorization_leaves_out_dependent_rows():
    # x0 - x1 = 0 and x1 - x2 = 0 imply x0 - x2 = 0, so of these three
    # rows one is left out; with x2 pinned by a box row, a column of the
    # QR like any other row, the rest pin x0 and x1
    P, q = np.eye(3), np.array([1.0, -2.0, 0.5])
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0],
                  [0.0, 0.0, 1.0]])
    G = np.zeros((0, 3))
    work = _WorkingFactor(P, q, A, G, np.zeros(0), 0.0, 0.0,
                          np.zeros(0, dtype=np.intp), np.arange(4),
                          np.array([0.0, 0.0, 0.0, 0.7]))
    assert len(work.gen) == 3 and len(work.dep) == 1
    x, lam = work.solve()
    np.testing.assert_allclose(x, [0.7, 0.7, 0.7], atol=1e-12)
    # the left-out row keeps dual 0 and is taken in once a row leaves
    assert lam[work.dep[0]] == 0.0
    work.remove(work.gen[0])
    assert len(work.gen) == 3 and not work.dep


def test_homotopy_reaches_an_all_pinned_vertex():
    # min 0.5 |x|^2 + q'x in the box [-1, 1]^2: from q0 = 0, whose optimum
    # 0 is interior, to q = (-10, 10), whose optimum is the vertex (1, -1)
    # with every input at a bound and no variable left free
    P, A = np.eye(2), np.eye(2)
    l, u = -np.ones(2), np.ones(2)
    G, b = np.zeros((0, 2)), np.zeros(0)
    q = np.array([-10.0, 10.0])
    zero = np.zeros(0)
    hot = HotStart(l, u, b, np.zeros(2), zero, np.zeros(2), zero,
                   (np.zeros(2, np.int8), np.zeros(0, np.int8)))
    res, breakpoints = parametric_solve(P, q, A, l, u, G, b, 0.0, 1.0, hot)
    assert res is not None and breakpoints == 2
    x, eps, mu, lam, nu, (sides, _), _, _ = res
    np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-12)
    # the box rows' duals: mu = -(P x + q)
    np.testing.assert_allclose(mu, [9.0, -9.0], atol=1e-12)
    assert sides.tolist() == [1, -1]
    assert max(soft_kkt_residuals(P, q, A, l, u, G, b, 0.0, 1.0, x, eps, mu,
                                  lam, nu)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sig=st.sampled_from([(10.0, 50.0), (1e3, 1e4)]))
def test_factor_cache_hands_the_factorization_on(seed, sig):
    # a chain of hot starts, each from the last answer, as the controller
    # runs them on one structure: with a FactorCache every homotopy after
    # the first starts from the factorization the last one ended on, and
    # the answers equal those without it
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(N, N))
    P = M @ M.T + np.eye(N)
    _, _, A, G, b = _problem(rng)
    l, u = -rng.uniform(0.1, 1.0, A.shape[0]), rng.uniform(0.1, 1.0, A.shape[0])
    s1, s2 = sig
    factors = FactorCache(P)
    q = rng.normal(size=N)
    _, path, hot = certified_solve(P, q, A, l, u, G, b, s1, s2, 1e-6)
    if path is None:
        return
    taken = 0
    for _ in range(4):
        q = q + 0.3 * rng.normal(size=N)
        soft = (P, q, A, l, u, G, b, s1, s2)
        sides, states = hot.sets
        rows = sorted(np.flatnonzero(sides).tolist()
                      + (A.shape[0] + np.flatnonzero(states == KINK)).tolist())
        kept = factors._working is not None and \
            factors._working[0] == tuple(rows)
        taken += kept
        ref, bp_ref = parametric_solve(*soft, hot)
        got, bp = parametric_solve(*soft, hot, factors=factors)
        assert bp == bp_ref and (got is None) == (ref is None)
        if got is None:
            return
        for a, r in zip(got[:5], ref[:5]):
            np.testing.assert_allclose(a, r, rtol=0.0,
                                       atol=1e-9 * (1.0 + np.abs(r).max(
                                           initial=0.0)))
        assert all(np.array_equal(a, r) for a, r in zip(got[5], ref[5]))
        x, eps, mu, lam, _, sets, _, _ = got
        hot = HotStart(l, u, b, x, eps, mu, lam, sets)
    # every homotopy but the first took the last one's factorization
    assert taken == 3


def test_cold_homotopy_walks_the_paper_first_cycles(params, monkeypatch):
    # The first-cycle QP of each paper MPC run (N = 50 inputs, 100 hard
    # and 400 soft rows), solved by the homotopy cold: from x = 0 with no
    # working set.  The walk passes tens to hundreds of breakpoints through
    # nearly full working sets, exchanges and soft rows passing their kinks,
    # which the small random problems above never reach; each breakpoint
    # costs one equality solve on the updated factorization.
    from trailer_mpc import mpc, qp, sim

    cfg = mpc.MpcConfig()
    first = []
    certified = mpc.certified_solve

    def spy(*args, **kwargs):
        first.append(args[:9])
        return certified(*args, **kwargs)

    monkeypatch.setattr(mpc, "certified_solve", spy)
    for spec in sim.paper_suite():
        if spec.controller == "mpc":
            controller = sim.make_controller(spec, params, cfg)
            state = sim.initial_state(controller.path, spec.perturbation,
                                      spec.start_s)
            controller.step(state, mpc.ControllerState(s_prev=spec.start_s))
    assert len(first) == 6
    solves = []
    solve = qp._WorkingFactor.solve

    def counted(self):
        solves.append(self)
        return solve(self)

    monkeypatch.setattr(qp._WorkingFactor, "solve", counted)
    walks = []
    for P, q, A, l, u, G, b, sig1, sig2 in first:
        n, mh, ms = len(q), A.shape[0], G.shape[0]
        cold = qp.auxiliary_hot(
            A, G, l, u, b, sig1, np.zeros(n), np.zeros(ms), np.zeros(mh),
            np.zeros(ms), (np.zeros(mh, np.int8), np.zeros(ms, np.int8)))
        solves.clear()
        res, breakpoints = parametric_solve(P, q, A, l, u, G, b, sig1, sig2,
                                            cold, max_iter=2000)
        assert res is not None
        assert len(solves) == breakpoints + 1
        assert max(soft_kkt_residuals(P, q, A, l, u, G, b, sig1, sig2,
                                      *res[:5])) <= mpc.QP_TOL
        walks.append(breakpoints)
    assert max(walks) >= 50, walks
