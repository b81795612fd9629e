import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trailer_mpc import QpProblem, QpStatus, qp, solve_qp
from trailer_mpc.qp import (ELIM, EXCHANGE_CAP, KINK, HotStart, PreparedQp,
                            auxiliary_hot, certified_solve, kkt_residuals,
                            parametric_solve, row_structure, soft_ipm_solve,
                            soft_kkt_residuals, soft_qp_solve)


def brute_force_active_set(P, q, A, l, u, tol=1e-9):
    """Exhaustive active-set enumeration oracle for tiny strictly convex QPs.

    Solves the equality-constrained QP for every subset of (finite) constraint
    faces, keeps feasible candidates, and returns the best.  Exponential; only
    for test-sized problems.
    """
    m, n = A.shape
    faces = []
    for i in range(m):
        if np.isfinite(u[i]):
            faces.append((i, u[i]))
        if np.isfinite(l[i]) and l[i] != u[i]:
            faces.append((i, l[i]))
    best, best_obj = None, np.inf
    for size in range(0, min(len(faces), n) + 1):
        for combo in combinations(range(len(faces)), size):
            rows = [faces[j][0] for j in combo]
            if len(set(rows)) != len(rows):
                continue
            Aa = A[rows]
            ba = np.array([faces[j][1] for j in combo])
            K = np.block([[P, Aa.T], [Aa, np.zeros((size, size))]])
            rhs = np.concatenate([-q, ba])
            try:
                z = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            y = z[:n]
            Ay = A @ y
            if np.any(Ay > u + tol) or np.any(Ay < l - tol):
                continue
            obj = 0.5 * y @ P @ y + q @ y
            if obj < best_obj - 1e-15:
                best_obj, best = obj, y
    if best is None:
        raise AssertionError("oracle found no feasible candidate")
    return best, best_obj


def _random_qp(rng, n, m):
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    center = A @ rng.normal(size=n) * 0.3
    width = rng.uniform(0.1, 2.0, m)
    l = center - width
    u = center + width
    # sprinkle one-sided rows
    l[rng.random(m) < 0.2] = -np.inf
    u[rng.random(m) < 0.2] = np.inf
    bad = l > u
    l[bad], u[bad] = u[bad], l[bad]
    return P, q, A, l, u


def test_oracle_agreement_200_random_qps(rng):
    for trial in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 11))
        P, q, A, l, u = _random_qp(rng, n, m)
        sol = solve_qp(QpProblem(P, q, A, l, u), tol=1e-8)
        if sol.status != QpStatus.OPTIMAL:
            continue  # rare: genuinely infeasible random instances
        _, obj_ref = brute_force_active_set(P, q, A, l, u)
        assert sol.objective <= obj_ref + 1e-6 * (1.0 + abs(obj_ref)), trial
        assert abs(sol.objective - obj_ref) <= 1e-6 * (1.0 + abs(obj_ref)), trial


def test_kkt_residuals_at_optimum():
    P = np.diag([2.0, 4.0])
    q = np.array([-2.0, -4.0])   # unconstrained optimum (1, 1)
    A = np.array([[1.0, 0.0]])
    l = np.array([-np.inf])
    u = np.array([0.5])          # binds the first variable
    y = np.array([0.5, 1.0])
    lam = np.array([1.0])  # stationarity: P y + q + A'lam = 0
    rp, rd, rc = kkt_residuals(P, q, A, l, u, y, lam)
    assert max(rp, rd, rc) < 1e-12


def test_status_primal_infeasible():
    P = np.eye(1)
    q = np.zeros(1)
    A = np.array([[1.0], [1.0]])
    l = np.array([-np.inf, 1.0])
    u = np.array([-1.0, np.inf])
    sol = solve_qp(QpProblem(P, q, A, l, u))
    assert sol.status == QpStatus.PRIMAL_INFEASIBLE


def test_status_primal_infeasible_without_symmetry():
    # x1 + x2 >= 2 and 2 x1 + 2 x2 <= 1 cannot both hold; the interior
    # point's duals leave A'mu ~ 1 beside |mu| ~ 1e3, so the certificate
    # needs them moved onto the null space of A'
    A = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    l = np.array([2.0, -np.inf, -1.0])
    u = np.array([np.inf, 1.0, 1.0])
    sol = solve_qp(QpProblem(np.eye(2), np.ones(2), A, l, u))
    assert sol.status == QpStatus.PRIMAL_INFEASIBLE
    # a feasible neighbour is solved, not certified infeasible
    u[1] = 5.0
    assert solve_qp(QpProblem(np.eye(2), np.ones(2), A, l, u)).status == \
        QpStatus.OPTIMAL


@pytest.mark.parametrize("m", [0, 2])
def test_no_finite_row_side_gives_the_unconstrained_minimum(rng, m):
    # m = 0 rows, or rows with every bound infinite: the interior point has
    # no inequality and its complementarity is 0/0 unless guarded
    n = 3
    M = rng.normal(size=(n, n))
    P = M @ M.T + np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_qp(QpProblem(P, q, A, np.full(m, -np.inf),
                                 np.full(m, np.inf)))
    assert sol.status == QpStatus.OPTIMAL
    np.testing.assert_allclose(sol.y, -np.linalg.solve(P, q), rtol=0.0,
                               atol=1e-9)


def test_validate_catches_shape_and_bound_errors():
    prob = QpProblem(np.eye(2), np.zeros(3), np.eye(2), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        prob.validate()
    prob = QpProblem(np.eye(2), np.zeros(2), np.eye(2),
                     np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        prob.validate()
    # NaN or inf in the data, NaN or a bound that no row value meets
    ok = dict(P=np.eye(2), q=np.zeros(2), A=np.eye(2), l=np.full(2, -np.inf),
              u=np.full(2, np.inf))
    QpProblem(**ok).validate()
    for name, bad in (("P", np.diag([np.nan, 1.0])), ("q", np.array([np.inf, 0.0])),
                      ("A", np.array([[1.0, -np.inf], [0.0, 1.0]])),
                      ("l", np.array([np.nan, 0.0])), ("u", np.array([0.0, np.nan])),
                      ("l", np.array([np.inf, 0.0])), ("u", np.array([-np.inf, 0.0]))):
        with pytest.raises(ValueError):
            QpProblem(**{**ok, name: bad}).validate()


def test_row_structure():
    A = np.array([[1.0, 0.0, 0.0],
                  [0.0, 0.0, -2.0],
                  [1.0, -1.0, 0.0]])
    assert row_structure(A).tolist() == [0, 2, -1]


def test_prepared_qp_matches_one_shot(rng):
    n, m = 8, 12
    P, q, A, l, u = _random_qp(rng, n, m)
    prep = PreparedQp(P, A, tol=1e-8)
    sol1 = prep.solve(q, l, u)
    assert sol1.status == QpStatus.OPTIMAL
    sol = solve_qp(QpProblem(P, q, A, l, u), tol=1e-8)
    assert sol1.objective == pytest.approx(sol.objective, abs=1e-6)
    # warm start from the solution: same answer
    sol2 = prep.solve(q, l, u, y0=sol1.y, lam0=sol1.duals)
    assert sol2.status == QpStatus.OPTIMAL
    assert np.allclose(sol2.y, sol1.y, atol=1e-6)


def test_prepared_qp_batch_matches_columnwise(rng):
    n, m, K = 6, 9, 7
    P, q0, A, l0, u0 = _random_qp(rng, n, m)
    Q = np.column_stack([q0 + rng.normal(scale=0.3, size=n) for _ in range(K)])
    L = np.repeat(l0[:, None], K, axis=1)
    U = np.repeat(u0[:, None], K, axis=1)
    prep = PreparedQp(P, A, tol=1e-8)
    Y, _, _, statuses = prep.solve(Q, L, U)
    for k in range(K):
        if statuses[k] != QpStatus.OPTIMAL:
            continue
        sol = solve_qp(QpProblem(P, Q[:, k], A, l0, u0), tol=1e-8)
        objk = 0.5 * Y[:, k] @ P @ Y[:, k] + Q[:, k] @ Y[:, k]
        assert objk == pytest.approx(sol.objective, abs=1e-5)


def test_scaling_invariance(rng):
    n, m = 5, 8
    P, q, A, l, u = _random_qp(rng, n, m)
    sol = solve_qp(QpProblem(P, q, A, l, u), tol=1e-9)
    scale = rng.uniform(0.1, 10.0, m)
    sol2 = solve_qp(QpProblem(P, q, scale[:, None] * A, scale * l, scale * u),
                    tol=1e-9)
    assert sol.status == sol2.status
    if sol.status == QpStatus.OPTIMAL:
        assert np.allclose(sol.y, sol2.y, atol=1e-5)


def test_primal_active_set_matches_oracle(rng):
    for trial in range(40):
        n, m = 4, 7
        M = rng.normal(size=(n, n))
        P = M @ M.T + np.eye(n)
        q = rng.normal(size=n)
        A = np.vstack([np.eye(n), rng.normal(size=(m - n, n))])
        xf = rng.normal(size=n) * 0.3
        c = A @ xf
        l = c - rng.uniform(0.1, 1.0, m)
        u = c + rng.uniform(0.1, 1.0, m)
        # without soft rows soft_qp_solve is the plain primal active set
        res = soft_qp_solve(P, q, A, l, u, np.zeros((0, n)), np.zeros(0),
                            0.0, 1.0, xf)
        assert res is not None, trial
        x, _, lam, _, _, _, iters, _ = res
        assert max(kkt_residuals(P, q, A, l, u, x, lam)) < 1e-8
        assert iters >= 1
        ref, obj_ref = brute_force_active_set(P, q, A, l, u)
        assert np.allclose(x, ref, atol=1e-6), trial


def _random_soft_qp(rng):
    n, mh, ms = 4, 3, 3
    M = rng.normal(size=(n, n))
    P = M @ M.T + np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(mh, n))
    c = A @ rng.normal(size=n) * 0.3
    l = c - rng.uniform(0.1, 1.0, mh)
    u = c + rng.uniform(0.1, 1.0, mh)
    G = rng.normal(size=(ms, n))
    b = rng.normal(size=ms) - 1.0
    return P, q, A, l, u, G, b


def _lifted(P, q, A, l, u, G, b, s1, s2):
    n = len(q)
    ms = len(b)
    nz = n + ms
    Pl = np.zeros((nz, nz))
    Pl[:n, :n] = P
    Pl[n:, n:] = 2.0 * s2 * np.eye(ms)
    ql = np.concatenate([q, s1 * np.ones(ms)])
    Al = np.zeros((A.shape[0] + 2 * ms, nz))
    Al[:A.shape[0], :n] = A
    Al[A.shape[0]:A.shape[0] + ms, :n] = G
    Al[A.shape[0]:A.shape[0] + ms, n:] = -np.eye(ms)
    Al[A.shape[0] + ms:, n:] = np.eye(ms)
    ll = np.concatenate([l, np.full(ms, -np.inf), np.zeros(ms)])
    ul = np.concatenate([u, b, np.full(ms, np.inf)])
    return Pl, ql, Al, ll, ul


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ms=st.integers(0, 3),
       infinite=st.booleans())
def test_soft_kkt_residuals_match_the_lifted_problem(seed, ms, infinite):
    rng = np.random.default_rng(seed)
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    G, b = G[:ms], b[:ms]
    if infinite:
        # one-sided and free hard rows, and a soft row that never binds
        l[rng.random(len(l)) < 0.5] = -np.inf
        u[rng.random(len(u)) < 0.5] = np.inf
        b[rng.random(ms) < 0.3] = np.inf
    s1, s2 = rng.uniform(0.1, 100.0, 2)
    # any point and duals of either sign, so every residual term is live
    x = rng.normal(size=len(q))
    eps = rng.normal(size=ms)
    mu, lam, nu = (rng.normal(size=k) for k in (A.shape[0], ms, ms))
    got = soft_kkt_residuals(P, q, A, l, u, G, b, s1, s2, x, eps, mu, lam, nu)
    Pl, ql, Al, ll, ul = _lifted(P, q, A, l, u, G, b, s1, s2)
    y = np.concatenate([x, eps])
    duals = np.concatenate([mu, lam, nu])
    want = kkt_residuals(Pl, ql, Al, ll, ul, y, duals)
    bounds = np.concatenate([ll, ul])
    mag = 1.0 + max(np.abs(y).max(), np.abs(duals).max(initial=0.0),
                    np.abs(Pl).max(), np.abs(Al).max(), np.abs(ql).max(),
                    np.abs(bounds[np.isfinite(bounds)]).max(initial=0.0))
    # the products summed differ only in rounding order
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * mag ** 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ms=st.integers(0, 3),
       sig=st.sampled_from([(10.0, 50.0), (1e3, 1e4)]),
       infinite=st.booleans())
def test_soft_kkt_residuals_match_the_lifted_problem_at_answers(seed, ms, sig,
                                                                infinite):
    # the solver's answers: exact-zero duals off the working set, kink and
    # eliminated soft rows, and interior points where a crossover fails
    rng = np.random.default_rng(seed)
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    G, b = G[:ms], b[:ms]
    if infinite:
        # one-sided and free hard rows
        l[rng.random(len(l)) < 0.5] = -np.inf
        u[rng.random(len(u)) < 0.5] = np.inf
    s1, s2 = sig
    sol, _, _ = certified_solve(P, q, A, l, u, G, b, s1, s2, 1e-6)
    if infinite:
        # and a soft row that never binds, checked at the answer with the
        # row bound (the interior point takes no infinite b)
        b[rng.random(ms) < 0.3] = np.inf
    soft = (P, q, A, l, u, G, b, s1, s2)
    n, mh = len(q), len(l)
    x, eps = sol.y[:n], sol.y[n:]
    mu, lam, nu = np.split(sol.duals, [mh, mh + ms])
    got = soft_kkt_residuals(*soft, x, eps, mu, lam, nu)
    Pl, ql, Al, ll, ul = _lifted(*soft)
    want = kkt_residuals(Pl, ql, Al, ll, ul, sol.y, sol.duals)
    bounds = np.concatenate([ll, ul])
    mag = 1.0 + max(np.abs(sol.y).max(), np.abs(sol.duals).max(initial=0.0),
                    np.abs(Pl).max(), np.abs(Al).max(), np.abs(ql).max(),
                    np.abs(bounds[np.isfinite(bounds)]).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * mag ** 3)
    # one NaN or infinite entry anywhere fails the certificate, also when
    # the residuals are reduced with Python's max, whose max(0.0, nan) is 0.0
    for vec in (x, eps, mu, lam, nu):
        if not len(vec):
            continue
        i = rng.integers(len(vec))
        keep = vec[i]
        for bad in (np.nan, np.inf, -np.inf):
            vec[i] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                res = soft_kkt_residuals(*soft, x, eps, mu, lam, nu)
            assert not max(res) <= 1e-6, (bad, res)
        vec[i] = keep


def test_first_piece_is_solved_once(monkeypatch):
    # a hot start whose working set still holds takes one equality solve;
    # one whose first piece leaves its region goes on from that same solve
    # to the ratio test, one solve per piece, and reaches the crossover's
    # vertex
    solves = []
    solve = qp._WorkingFactor.solve

    def counted(self):
        solves.append(self)
        return solve(self)

    monkeypatch.setattr(qp._WorkingFactor, "solve", counted)
    rng = np.random.default_rng(7)
    s1, s2 = 10.0, 50.0
    moved = 0
    for trial in range(20):
        P, q, A, l, u, G, b = _random_soft_qp(rng)
        soft = (P, q, A, l, u, G, b, s1, s2)
        _, path, hot = certified_solve(*soft, 1e-6)
        assert path is not None
        solves.clear()
        res, breakpoints = parametric_solve(*soft, hot)
        assert breakpoints == 0 and len(solves) == 1
        assert max(soft_kkt_residuals(*soft, *res[:5])) <= 1e-6
        q2 = q + 100.0 * rng.normal(size=len(q))
        soft2 = (P, q2, A, l, u, G, b, s1, s2)
        solves.clear()
        res, breakpoints = parametric_solve(*soft2, hot)
        assert res is not None
        assert len(solves) == breakpoints + 1
        moved += breakpoints >= 1
        ipm = soft_ipm_solve(*soft2, 1e-6)
        cross = parametric_solve(*soft2, auxiliary_hot(
            A, G, l, u, b, s1, *ipm[:4], ipm[5]))[0]
        np.testing.assert_allclose(np.concatenate(res[:2]),
                                   np.concatenate(cross[:2]), rtol=0.0,
                                   atol=1e-8)
    assert moved >= 15, moved


def test_the_certificate_reads_the_homotopys_products():
    # a homotopy answer carries the A x and G x of its end-point test, the
    # bits of the products formed again, so the certificate's residuals
    # from them are those it computes alone; the interior point forms none
    rng = np.random.default_rng(11)
    s1, s2 = 10.0, 50.0
    for trial in range(20):
        P, q, A, l, u, G, b = _random_soft_qp(rng)
        soft = (P, q, A, l, u, G, b, s1, s2)
        _, path, hot = certified_solve(*soft, 1e-6)
        assert path is not None
        q2 = q + 100.0 * rng.normal(size=len(q))
        for problem in (soft, (P, q2) + soft[2:]):
            res, _ = parametric_solve(*problem, hot)
            x, (vh, gx) = res[0], res[7]
            assert vh.tobytes() == A.dot(x).tobytes(), trial
            assert gx.tobytes() == G.dot(x).tobytes(), trial
            assert np.array(soft_kkt_residuals(*problem, *res[:5], res[7])
                            ).tobytes() == \
                np.array(soft_kkt_residuals(*problem, *res[:5])).tobytes()
        assert soft_ipm_solve(P, q2, A, l, u, G, b, s1, s2, 1e-6)[7] is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ms=st.integers(0, 4),
       sig=st.sampled_from([(10.0, 50.0), (1e3, 1e4), (0.5, 0.01)]))
# multipliers near 4e4, where the homotopy crossover's end check must allow
# the equality solve's rounding
@example(seed=193, ms=4, sig=(1e3, 1e4))
def test_soft_ipm_matches_lifted_oracle(seed, ms, sig):
    rng = np.random.default_rng(seed)
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    G, b = G[:ms], b[:ms]
    s1, s2 = sig
    res = soft_ipm_solve(P, q, A, l, u, G, b, s1, s2, 1e-6)
    assert res is not None
    x, eps, mu, lam, nu, sets, iters, products = res
    assert iters >= 1 and products is None
    assert np.all(eps > 0.0)
    sides, states = sets
    assert sides.dtype == states.dtype == np.int8
    assert set(sides.tolist()) <= {-1, 0, 1}
    assert set(states.tolist()) <= {0, KINK, ELIM}
    Pl, ql, Al, ll, ul = _lifted(P, q, A, l, u, G, b, s1, s2)
    y_ref, obj_ref = brute_force_active_set(Pl, ql, Al, ll, ul)
    y = np.concatenate([x, eps])
    duals = np.concatenate([mu, lam, nu])
    # stationarity is accurate relative to the multipliers, which reach 4e4
    # on some draws: one in 3000 points misses the absolute 1e-6
    assert max(kkt_residuals(Pl, ql, Al, ll, ul, y, duals)) <= \
        1e-6 * (1.0 + np.abs(duals).max(initial=0.0))
    # an interior point is off the optimum by O(sqrt(mu)) where a row is
    # weakly active, but its cost agrees
    obj = 0.5 * y @ Pl @ y + ql @ y
    assert abs(obj - obj_ref) <= 1e-6 * (1.0 + abs(obj_ref))
    # certified_solve's crossover, the homotopy from the interior point and
    # its working set, lands on the oracle's vertex
    cross = parametric_solve(P, q, A, l, u, G, b, s1, s2,
                             auxiliary_hot(A, G, l, u, b, s1, x, eps, mu, lam,
                                           sets))[0]
    assert cross is not None
    np.testing.assert_allclose(np.concatenate(cross[:2]), y_ref, rtol=0.0,
                               atol=1e-6)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_soft_bound_that_is_not_finite_raises(bad):
    # G x - eps <= inf would leave inf - inf in the interior point's
    # residuals and a NaN point; the homotopy declines such a b, so with or
    # without a hot start the solve raises
    P, q, A, l, u, G, b = _random_soft_qp(np.random.default_rng(7))
    _, path, hot = certified_solve(P, q, A, l, u, G, b, 10.0, 50.0, 1e-6)
    assert path is not None
    b = b.copy()
    b[0] = bad
    soft = (P, q, A, l, u, G, b, 10.0, 50.0)
    with pytest.raises(ValueError, match=r"b\[0\]"):
        soft_ipm_solve(*soft, 1e-6)
    for hot_start in (None, hot):
        with pytest.raises(ValueError, match=r"b\[0\]"):
            certified_solve(*soft, 1e-6, hot=hot_start)


def test_soft_qp_warm_start_consistent(rng):
    s1, s2 = 10.0, 50.0
    for trial in range(20):
        P, q, A, l, u, G, b = _random_soft_qp(rng)
        # without a hot start soft_qp_solve takes hard rows only
        G, b = G[:0], b[:0]
        x0 = np.linalg.lstsq(A, 0.5 * (l + u), rcond=None)[0]
        res = soft_qp_solve(P, q, A, l, u, G, b, s1, s2, x0)
        assert res is not None
        q2 = q + 0.05 * rng.normal(size=len(q))
        warm = soft_qp_solve(P, q2, A, l, u, G, b, s1, s2, x0,
                             warm=res[5])
        cold = soft_qp_solve(P, q2, A, l, u, G, b, s1, s2, x0)
        assert warm is not None and cold is not None
        assert np.allclose(warm[0], cold[0], atol=1e-6), trial


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ms=st.integers(0, 3),
       sig=st.sampled_from([(10.0, 50.0), (1e3, 1e4)]),
       scale=st.sampled_from([0.01, 0.1, 1.0]))
def test_parametric_hot_start_reaches_the_optimum_or_gives_up(seed, ms, sig,
                                                              scale):
    rng = np.random.default_rng(seed)
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    G, b = G[:ms], b[:ms]
    s1, s2 = sig
    _, path, hot = certified_solve(P, q, A, l, u, G, b, s1, s2, 1e-6)
    assume(path is not None)
    # the next problem: q, b and the bounds of one hard row move
    q2 = q + scale * rng.normal(size=len(q))
    b2 = b + scale * rng.normal(size=ms)
    l2, u2 = l.copy(), u.copy()
    i = rng.integers(len(l))
    shift = scale * rng.normal()
    l2[i] += shift
    u2[i] += shift
    soft2 = (P, q2, A, l2, u2, G, b2, s1, s2)
    res, breakpoints = parametric_solve(*soft2, hot)
    assert 0 <= breakpoints <= EXCHANGE_CAP
    certified = res is not None and \
        max(soft_kkt_residuals(*soft2, *res[:5])) <= 1e-6
    # certified_solve takes the hot start's answer exactly when it passes the
    # certificate, and never returns an uncertified point as "parametric"
    sol2, path2, _ = certified_solve(*soft2, 1e-6, hot=hot)
    assert (path2 == "parametric") == certified
    if not certified:
        return
    assert res[6] == breakpoints == sol2.iterations
    assert max(sol2.primal_residual, sol2.dual_residual,
               sol2.comp_residual) <= 1e-6
    _, obj_ref = brute_force_active_set(*_lifted(*soft2))
    assert abs(sol2.objective - obj_ref) <= 1e-6 * (1.0 + abs(obj_ref))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ms=st.integers(0, 3),
       sig=st.sampled_from([(10.0, 50.0), (1e3, 1e4)]))
def test_auxiliary_hot_start_reaches_the_optimum_or_gives_up(seed, ms, sig):
    rng = np.random.default_rng(seed)
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    G, b = G[:ms], b[:ms]
    s1, s2 = sig
    soft = (P, q, A, l, u, G, b, s1, s2)
    _, obj_ref = brute_force_active_set(*_lifted(*soft))
    # any guess: a point, slacks, duals of either sign and a working set
    mh, n = A.shape
    sets = (rng.integers(-1, 2, mh).astype(np.int8),
            rng.choice(np.array([0, KINK, ELIM], dtype=np.int8), ms))
    guess = (rng.normal(size=n), rng.uniform(0.0, 1.0, ms),
             10.0 * rng.normal(size=mh), rng.uniform(-s1, 2.0 * s1, ms))
    res, breakpoints = parametric_solve(
        *soft, auxiliary_hot(A, G, l, u, b, s1, *guess, sets))
    assert 0 <= breakpoints <= EXCHANGE_CAP
    if res is not None:
        x, eps = res[:2]
        obj = 0.5 * x @ P @ x + q @ x + s1 * eps.sum() + s2 * (eps @ eps)
        assert abs(obj - obj_ref) <= 1e-6 * (1.0 + abs(obj_ref))
    # from an optimum and its working set the path has no breakpoint
    _, path, hot = certified_solve(*soft, 1e-6)
    assume(path is not None)
    res, breakpoints = parametric_solve(
        *soft, auxiliary_hot(A, G, l, u, b, s1, *hot[3:]))
    assert breakpoints == 0
    # the same working set's point; only an interior-point answer, whose
    # crossover failed its certificate, sits off that point: on 2000 draws
    # at sig2 = 1e4, 305 of the 743 interior-point answers moved by more
    # than 1e-9, at most 1.5e-7, and none of the 1254 crossover answers,
    # which passed through the same rank-1 folds, moved at all
    np.testing.assert_allclose(res[0], hot.x, rtol=0.0, atol=1e-10 * s2)


def test_parametric_hot_start_exchanges_a_dependent_row():
    # min 0.5 |x|^2 - 10 x1 with x1 <= u_0 and x1 <= u_1: as u_0 goes from 1
    # to 3, x1 follows it up to the second bound, which depends on the first
    # (same normal), so the bounds trade places in one breakpoint
    P, q = np.eye(2), np.array([-10.0, 0.0])
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    l = np.full(2, -np.inf)
    G, b = np.zeros((0, 2)), np.zeros(0)
    u0, u1 = np.array([1.0, 2.0]), np.array([3.0, 2.0])
    _, path, hot = certified_solve(P, q, A, l, u0, G, b, 0.0, 0.0, 1e-9)
    assert path == "ipm" and hot.sets[0].tolist() == [1, 0]
    res, breakpoints = parametric_solve(P, q, A, l, u1, G, b, 0.0, 0.0, hot)
    assert breakpoints == 1
    x, _, mu, _, _, (sides, _), _, _ = res
    np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(mu, [0.0, 8.0], atol=1e-9)
    assert sides.tolist() == [0, 1]


@pytest.mark.parametrize("b0, b1, elim", [(2.0, 0.0, True),
                                          (0.0, 2.0, False)])
def test_parametric_soft_row_passes_its_kink(b0, b1, elim):
    # min 0.5 x^2 - 10 x with x <= 1, held at the bound by the dual 9, and
    # the soft row x - eps <= b with (sig1, sig2) = (2, 1).  As b goes from
    # 2 to 0 the row reaches its kink at x = 1 (b = 1), where it depends on
    # the bound: its dual would rise from 0 as the bound's falls, and it
    # crosses [0, sig1] before the bound's dual reaches 0, so the row
    # passes its kink to eliminated, and the bound's dual falls by sig1.
    # From b = 0 to 2 the eliminated slack reaches zero at b = 1 and the
    # row passes back to inactive.
    P, q, A = np.eye(1), np.array([-10.0]), np.eye(1)
    l, u = np.full(1, -np.inf), np.ones(1)
    G = np.eye(1)
    s1, s2 = 2.0, 1.0
    b0, b1 = np.array([b0]), np.array([b1])
    _, path, hot = certified_solve(P, q, A, l, u, G, b0, s1, s2, 1e-9)
    assert path is not None and hot.sets[0].tolist() == [1]
    assert hot.sets[1].tolist() == [0 if elim else ELIM]
    soft = (P, q, A, l, u, G, b1, s1, s2)
    res, breakpoints = parametric_solve(*soft, hot)
    assert res is not None and breakpoints == 1
    x, eps, mu, lam, nu, (sides, states), _, _ = res
    assert sides.tolist() == [1]
    assert states.tolist() == [ELIM if elim else 0]
    assert max(soft_kkt_residuals(*soft, x, eps, mu, lam, nu)) <= 1e-12
    y_ref, _ = brute_force_active_set(*_lifted(*soft))
    np.testing.assert_allclose(np.concatenate([x, eps]), y_ref, atol=1e-12)
    # the bound's dual: 9, less the eliminated row's sig1 + 2 sig2 eps
    np.testing.assert_allclose(mu, [5.0 if elim else 9.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       ms=st.integers(1, 2),
       sig=st.sampled_from([(0.5, 0.01), (10.0, 50.0), (1e3, 1e4)]))
def test_parametric_soft_rows_enter_a_full_vertex(seed, n, ms, sig):
    # from a vertex of the box [-1, 1]^n, where every input is at a bound,
    # the soft rows' bounds move from inactive to violated there: each
    # entering soft row depends on the working rows, and is exchanged for a
    # bound or passes its kink
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    P = M @ M.T + np.eye(n)
    side = rng.choice([-1.0, 1.0], n)
    x_v = side
    # the bounds' duals side * m hold the vertex: P x + q + mu = 0
    m = rng.uniform(0.5, 20.0, n)
    q = -P @ x_v - side * m
    A, l, u = np.eye(n), -np.ones(n), np.ones(n)
    G = rng.normal(size=(ms, n))
    b0 = G @ x_v + rng.uniform(0.5, 1.5, ms)
    b1 = G @ x_v - rng.uniform(0.1, 2.0, ms)
    s1, s2 = sig
    hot = HotStart(l, u, b0, x_v, np.zeros(ms), side * m, np.zeros(ms),
                   (side.astype(np.int8), np.zeros(ms, dtype=np.int8)))
    soft = (P, q, A, l, u, G, b1, s1, s2)
    res, breakpoints = parametric_solve(*soft, hot)
    assert res is not None
    assert max(soft_kkt_residuals(*soft, *res[:5])) <= 1e-9
    x, eps = res[:2]
    obj = 0.5 * x @ P @ x + q @ x + s1 * eps.sum() + s2 * (eps @ eps)
    _, obj_ref = brute_force_active_set(*_lifted(*soft))
    assert abs(obj - obj_ref) <= 1e-9 * (1.0 + abs(obj_ref))


def test_status_dual_infeasible():
    # P = 0, q = (1, 0) and one row bounding x2 only: the cost falls
    # without bound along -x1
    prob = QpProblem(np.zeros((2, 2)), np.array([1.0, 0.0]),
                     np.array([[0.0, 1.0]]), np.array([-1.0]), np.array([1.0]))
    assert solve_qp(prob).status == QpStatus.DUAL_INFEASIBLE
    # bounding x1 from below as well makes it solvable
    prob = QpProblem(prob.P, prob.q, np.eye(2), -np.ones(2), np.ones(2))
    sol = solve_qp(prob)
    assert sol.status == QpStatus.OPTIMAL
    np.testing.assert_allclose(sol.y[0], -1.0, atol=1e-6)


def test_soft_qp_rejects_infeasible_start(rng):
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    bad = np.full(len(q), 1e6)
    assert soft_qp_solve(P, q, A, l, u, G[:0], b[:0], 1.0, 1.0, bad) is None


def test_soft_qp_without_a_hot_start_rejects_soft_rows(rng):
    P, q, A, l, u, G, b = _random_soft_qp(rng)
    x0 = np.linalg.lstsq(A, 0.5 * (l + u), rcond=None)[0]
    with pytest.raises(ValueError, match="hot start"):
        soft_qp_solve(P, q, A, l, u, G, b, 1.0, 1.0, x0)


@pytest.mark.xfail(strict=True, reason="the equality solve gives up when every "
                   "variable is pinned, so an optimum at a vertex of the box "
                   "returns None (FOUND line in CHANGES.md)")
def test_soft_qp_all_inputs_at_box_bounds():
    P = np.eye(2)
    q = np.array([-10.0, 10.0])   # unconstrained optimum (10, -10)
    A = np.eye(2)
    l = -np.ones(2)
    u = np.ones(2)
    G = np.zeros((0, 2))
    b = np.zeros(0)
    res = soft_qp_solve(P, q, A, l, u, G, b, 0.0, 1.0, np.zeros(2))
    assert res is not None
    np.testing.assert_allclose(res[0], [1.0, -1.0], atol=1e-12)
