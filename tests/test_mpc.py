import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from trailer_mpc import (ControllerState, JointAnglePolytope, LqController,
                         MpcConfig, MpcController, VehicleParams, VehicleState,
                         analytic_straight_model, build_output_matrix,
                         default_joint_polytope, design_cost, linearize)
from trailer_mpc.exceptions import (NominalOutsidePolytope, PathExhausted,
                                    RiccatiDiverged, SingularConfiguration,
                                    ValidityViolated)
from trailer_mpc.model import SINGULAR_TOL, speed_ratio
from trailer_mpc.paths import NominalPath, generate_straight
from trailer_mpc.qp import IPM_MAX_ITER

# the polytope with no rows: a controller without joint-angle rows
NO_JOINT_ROWS = JointAnglePolytope(np.zeros((0, 2)), np.zeros(0))


def test_output_matrix_tractor_row(params):
    # tractor lateral offset sensitivity: (1, L3+L2+M1, L2+M1, M1)
    M = build_output_matrix(params)
    assert M.shape == (8, 4)
    assert np.allclose(M[0], [1.0, 13.53, 5.53, 1.66])
    assert np.allclose(M[1], [0.0, 1.0, 1.0, 1.0])
    assert np.allclose(M[4], [0.0, 0.0, 0.0, 1.0])


def test_design_cost_dare_residual_and_stability(params):
    cfg = MpcConfig()
    for direction in (-1.0, 1.0):
        model = analytic_straight_model(params, direction, cfg.delta_s)
        cost = design_cost(params, cfg, model)
        F, G, Q, P, K = model.F, model.G, cost.Q, cost.P, cost.K
        assert np.array_equal(P, P.T)
        PG = P @ G
        residual = F.T @ P @ F - P - np.outer(F.T @ PG, (PG @ F) / (1.0 + G @ PG)) + Q
        assert np.max(np.abs(residual)) < 1e-9
        assert cost.spectral_radius < 1.0
        rho = np.max(np.abs(np.linalg.eigvals(F - np.outer(G, K))))
        assert rho == pytest.approx(cost.spectral_radius, abs=1e-12)


def test_riccati_diverges_on_unstabilizable_pair(params):
    cfg = MpcConfig()
    model = analytic_straight_model(params, -1.0, cfg.delta_s)
    from trailer_mpc.error_model import LinearizedModel

    broken = LinearizedModel(A=model.A, B=np.zeros(4), F=model.F,
                             G=np.zeros(4), delta_s=model.delta_s)
    with pytest.raises(RiccatiDiverged):
        design_cost(params, cfg, broken)


def _design_bytes(cost):
    return (cost.Q.tobytes(), cost.P.tobytes(), cost.M.tobytes(),
            cost.K.tobytes(), cost.spectral_radius)


@pytest.fixture
def solves(monkeypatch):
    """An empty design memo, and the Riccati solves made from here on."""
    import trailer_mpc.mpc as mpc_mod

    calls = []
    solve = mpc_mod.solve_discrete_are

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mpc_mod, "_designs", {})
    monkeypatch.setattr(mpc_mod, "solve_discrete_are", counted)
    return calls


def test_controllers_of_one_design_share_one_riccati_solve(params, eight_back,
                                                           solves):
    cfg = MpcConfig()
    controllers = [MpcController(params, eight_back, cfg),
                   LqController(params, eight_back, cfg),
                   LqController(params, eight_back, MpcConfig())]
    assert len(solves) == 1
    cost = controllers[0].cost
    assert all(c.cost is cost for c in controllers)
    for a in (cost.Q, cost.P, cost.M, cost.K):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def _fresh_design(params, cfg, model):
    """design_cost of a memo that holds nothing."""
    import trailer_mpc.mpc as mpc_mod

    kept = dict(mpc_mod._designs)
    mpc_mod._designs.clear()
    try:
        return design_cost(params, cfg, model)
    finally:
        mpc_mod._designs.clear()
        mpc_mod._designs.update(kept)


def test_each_design_input_gives_the_bits_of_a_fresh_solve(params, solves):
    import dataclasses

    cfg = MpcConfig()
    weights = MpcConfig(qbar=cfg.qbar * 2.0)
    fine = MpcConfig(delta_s=0.1)
    longer = dataclasses.replace(params, L2=4.2)
    cases = [(params, cfg, -1.0), (params, weights, -1.0), (longer, cfg, -1.0),
             (params, cfg, 1.0), (params, fine, -1.0)]
    costs = [design_cost(p, c, analytic_straight_model(p, d, c.delta_s))
             for p, c, d in cases]
    assert len(solves) == len(cases)
    # all distinct designs, each with a fresh solve's bits
    assert len({_design_bytes(c) for c in costs}) == len(cases)
    for (p, c, d), cost in zip(cases, costs):
        model = analytic_straight_model(p, d, c.delta_s)
        assert _design_bytes(_fresh_design(p, c, model)) == _design_bytes(cost)
    # the last four again come from the memo, which keeps four
    again = [design_cost(p, c, analytic_straight_model(p, d, c.delta_s))
             for p, c, d in cases[1:]]
    assert all(a is b for a, b in zip(again, costs[1:]))
    assert len(solves) == 2 * len(cases)   # only the fresh solves above


def test_a_qbar_changed_in_place_gives_the_new_design(params, solves):
    cfg = MpcConfig()
    model = analytic_straight_model(params, -1.0, cfg.delta_s)
    before = design_cost(params, cfg, model)
    cfg.qbar[4] = 8.0 / 35.0
    after = design_cost(params, cfg, model)
    assert after is not before and len(solves) == 2
    assert _design_bytes(after) == _design_bytes(_fresh_design(params, cfg, model))
    assert before.Q.tobytes() != after.Q.tobytes()


def test_a_diverged_design_is_not_kept_and_the_memo_stays_bounded(params,
                                                                  solves):
    import trailer_mpc.mpc as mpc_mod
    from trailer_mpc.error_model import LinearizedModel

    cfg = MpcConfig()
    model = analytic_straight_model(params, -1.0, cfg.delta_s)
    broken = LinearizedModel(A=model.A, B=np.zeros(4), F=model.F,
                             G=np.zeros(4), delta_s=model.delta_s)
    for attempt in (1, 2):
        with pytest.raises(RiccatiDiverged):
            design_cost(params, cfg, broken)
        assert mpc_mod._designs == {}
        assert len(solves) == attempt
    for k in range(10):
        design_cost(params, MpcConfig(qbar=cfg.qbar * (k + 1)), model)
        assert len(mpc_mod._designs) == min(k + 1, 4)


def test_polytope_contains_and_box():
    poly = JointAnglePolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                              [0.5, 0.5, 0.3, 0.3])
    assert poly.m == 4
    assert poly.contains(0.4, -0.2)
    assert not poly.contains(0.6, 0.0)
    # a point on the boundary is inside
    assert poly.contains(0.5, -0.3)
    with pytest.raises(ValueError):
        JointAnglePolytope(np.array([[1.0, 0.0]]), np.array([0.0]))


def test_polytope_csv_round_trip(tmp_path):
    poly = default_joint_polytope()
    f = tmp_path / "poly.csv"
    poly.write_csv(f)
    back = JointAnglePolytope.read_csv(f)
    assert np.array_equal(back.H, poly.H)
    assert np.array_equal(back.h, poly.h)
    back.write_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == f.read_bytes()


def test_a_polytope_file_with_no_rows_fails_to_read(tmp_path):
    # a header alone once read as the rowless polytope, which drops the
    # joint-angle rows from the controller; in code it stays a value
    f = tmp_path / "poly.csv"
    f.write_text("H_beta3,H_beta2,h\n")
    with pytest.raises(ValueError, match="no rows"):
        JointAnglePolytope.read_csv(f)
    assert JointAnglePolytope(np.zeros((0, 2)), np.zeros(0)).m == 0


def test_the_shipped_octagon_is_built_from_the_four_directions():
    from trailer_mpc.mpc import OCTAGON_DIRECTIONS, octagon

    poly = default_joint_polytope()
    assert poly.H.tobytes() == octagon(poly.h[0::2]).H.tobytes()
    assert np.array_equal(poly.H[0::2], OCTAGON_DIRECTIONS)
    assert np.array_equal(poly.H[1::2], -OCTAGON_DIRECTIONS)
    # no -0.0 in the negated rows
    assert not np.signbit(poly.H[poly.H == 0.0]).any()
    assert poly.h.tolist() == [0.7679, 0.7679, 0.6283, 0.6283,
                               0.8886, 0.8886, 0.4443, 0.4443]


def test_a_polytope_with_a_non_finite_row_fails_at_construction():
    for field, index, value in (("h", 0, math.nan), ("H", (3, 1), math.inf)):
        poly = default_joint_polytope()
        getattr(poly, field)[index] = value
        with pytest.raises(ValueError, match="finite"):
            JointAnglePolytope(poly.H, poly.h)
    # no rows at all is the polytope without joint-angle rows
    assert NO_JOINT_ROWS.m == 0 and NO_JOINT_ROWS.contains(5.0, -5.0)


def test_a_polytope_file_with_nan_fails_to_read(tmp_path):
    f = tmp_path / "poly.csv"
    default_joint_polytope().write_csv(f)
    lines = f.read_text().splitlines()
    lines[2] = "0.0,1.0,nan"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        JointAnglePolytope.read_csv(f)


def test_default_polytope_symmetric_origin_inside():
    poly = default_joint_polytope()
    assert poly.contains(0.0, 0.0)
    # facets come in +/- pairs with equal support
    assert np.allclose(poly.H[0::2], -poly.H[1::2])
    assert np.allclose(poly.h[0::2], poly.h[1::2])


def test_config_validation():
    for bad in (dict(horizon=0), dict(horizon=2.5), dict(horizon=50.0),
                dict(qbar=np.ones(5)), dict(delta_s=0.0), dict(f_s=0),
                dict(f_s=-20.0), dict(f_s=math.nan), dict(u_max=0.0),
                dict(udot_max=-0.1), dict(slack_linear=-1.0),
                dict(slack_quad=-1e4), dict(f_s=math.inf),
                dict(delta_s=math.inf), dict(u_max=math.nan),
                dict(udot_max=math.inf), dict(slack_linear=math.inf),
                dict(slack_quad=math.nan), dict(qbar=np.full(8, math.nan)),
                dict(qbar=np.full(8, math.inf)),
                # a bool or a string is not a number
                dict(horizon=True), dict(u_max=True), dict(f_s="20"),
                dict(qbar=["0.1"] * 8), dict(qbar=[True] * 8)):
        with pytest.raises(ValueError):
            MpcConfig(**bad)
    MpcConfig(slack_linear=0.0, slack_quad=0.0)   # only negative ones fail
    for name in ("L1", "L2", "L3", "M1", "u_max", "udot_max", "La", "b"):
        for value in (math.nan, math.inf, -math.inf, True, "1.0"):
            with pytest.raises(ValueError, match=name):
                VehicleParams(**{name: value})


def test_controller_requires_matching_grid(params, straight_back):
    with pytest.raises(ValueError):
        MpcController(params, straight_back, MpcConfig(delta_s=0.1))


def table_models(controller, base):
    """(F, G) of the horizon's stations from ``base``, stacked, as the
    controller's station table gives them."""
    ids = controller._ids[base:base + controller.cfg.horizon]
    return controller._F[ids], controller._G[ids]


def test_zero_error_fixed_point(params, straight_back):
    controller = MpcController(params, straight_back, MpcConfig())
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 0.0, 0.0, 0.0, 0.0)
    u_cmd, diag = controller.step(state, ctrl)
    assert diag.solver_path != "lq_fallback"
    assert abs(u_cmd) < 1e-8
    assert diag.slack_max < 1e-10


def test_condensing_equivalence_small_horizon(params, eight_back):
    # the condensed QP cost must equal the explicit stacked-state cost of a
    # rollout through the horizon's own per-stage models, on a straight
    # line and inside the figure-eight's first blend (s = 10 m), where
    # every stage has its own F_k and G_k
    cfg = MpcConfig(horizon=5)
    N = cfg.horizon
    straight = generate_straight(30.0, -1.0, cfg.delta_s)
    for path, base in ((straight, 0), (eight_back, 50)):
        controller = MpcController(params, path, cfg, NO_JOINT_ROWS)
        struct = controller._structure(base)
        F, G = table_models(controller, base)
        if path is straight:
            model = analytic_straight_model(params, -1.0, cfg.delta_s)
            assert np.allclose(F[0], model.F, atol=1e-9)
            assert np.allclose(G[0], model.G, atol=1e-9)
        else:
            assert len({Fk.tobytes() for Fk in F}) == N
            assert len({Gk.tobytes() for Gk in G}) == N
        Q, P = controller.cost.Q, controller.cost.P

        def rollout_cost(x0, ut):
            x, cost = x0, 0.0
            for k in range(N):
                x = F[k] @ x + G[k] * ut[k]
                cost += x @ (P if k == N - 1 else Q) @ x
            return cost + ut @ ut

        rng = np.random.default_rng(7)
        for _ in range(5):
            x0 = rng.normal(scale=0.1, size=4)
            ut = rng.normal(scale=0.05, size=N)
            cost_qp = 0.5 * ut @ struct.P_uu @ ut + (struct.W @ x0) @ ut
            # condensing drops the constant term, the free response's cost
            offset = rollout_cost(x0, ut) - cost_qp
            assert offset == pytest.approx(rollout_cost(x0, np.zeros(N)),
                                           rel=1e-9)


def test_a_sample_outside_the_polytope_fails_the_constructor(params,
                                                              straight_back):
    import dataclasses

    beta3 = straight_back.beta3.copy()
    beta3[[30, 40]] = 2.0
    path = dataclasses.replace(straight_back, beta3=beta3)
    # the message names the first station outside
    with pytest.raises(NominalOutsidePolytope, match=r"s=6\.00 "):
        MpcController(params, path, MpcConfig())
    MpcController(params, path, MpcConfig(), NO_JOINT_ROWS)


def test_a_build_over_a_singular_station_raises(params, straight_back):
    import dataclasses

    beta2 = straight_back.beta2.copy()
    beta2[30] = 0.5 * math.pi   # C1 = cos(beta2) = 6e-17 there
    path = dataclasses.replace(straight_back, beta2=beta2)
    # the constructor linearizes every station, the singular one too
    controller = MpcController(params, path, MpcConfig(), NO_JOINT_ROWS)
    # every horizon whose models read station 30 names it
    for base in (0, 30):
        with pytest.raises(SingularConfiguration, match=r"s=6\.00"):
            controller._structure(base)
    assert controller.n_structure_builds == 0
    # the horizon from base 31 starts past it
    controller._structure(31)


def loop_structure(controller, base):
    """The condensed structure of the horizon from ``base``, built station
    by station: a PathSample, a polytope shift and a slew bound per station,
    a block-row recursion for Gamma and the dense block-diagonal weight.
    The reference for MpcController._build_structure's tables and batched
    products, with one linearize call per station; returns its fields by
    name."""
    cfg, params, path = controller.cfg, controller.params, controller.path
    N = cfg.horizon
    models = [linearize(params, path.sample(base + k), cfg.delta_s)
              for k in range(N)]
    Phi = np.empty((N, 4, 4))
    Gam = np.zeros((4 * N, N))
    acc = np.eye(4)
    for k in range(N):
        rows = slice(4 * k, 4 * k + 4)
        if k > 0:
            Gam[rows, :k] = models[k].F @ Gam[4 * (k - 1):4 * k, :k]
        Gam[rows, k] = models[k].G
        acc = models[k].F @ acc
        Phi[k] = acc
    Qt = np.zeros((4 * N, 4 * N))
    for k in range(N - 1):
        Qt[4 * k:4 * k + 4, 4 * k:4 * k + 4] = controller.cost.Q
    Qt[4 * (N - 1):, 4 * (N - 1):] = controller.cost.P
    QG = Qt @ Gam
    P_uu = 2.0 * (Gam.T @ QG + np.eye(N))
    P_uu = 0.5 * (P_uu + P_uu.T)
    W = 2.0 * QG.T @ Phi.reshape(4 * N, 4)

    samples = [path.sample(base + k) for k in range(N + 1)]
    ur = np.array([smp.ur for smp in samples])
    l = np.full(2 * N, -np.inf)
    u = np.full(2 * N, np.inf)
    l[:N] = -controller.u_max - ur[:N]
    u[:N] = controller.u_max - ur[:N]
    for k in range(1, N):
        smp = samples[k]
        c1 = speed_ratio(params, smp.beta2r, smp.beta3r, smp.ur)
        assert c1 > SINGULAR_TOL
        c_k = controller.udot_max / c1 * cfg.delta_s
        dur = ur[k] - ur[k - 1]
        l[N + k] = -dur - c_k
        u[N + k] = -dur + c_k
    poly = controller.polytope
    m = poly.m
    G_soft = np.zeros((N * m, N))
    HsPhi = np.zeros((N * m, 4))
    hbar = np.zeros(N * m)
    if m:
        Hs = np.zeros((m, 4))
        Hs[:, 2] = poly.H[:, 0]
        Hs[:, 3] = poly.H[:, 1]
        for k in range(1, N + 1):
            rows = slice((k - 1) * m, k * m)
            G_soft[rows] = Hs @ Gam[4 * (k - 1):4 * k, :]
            HsPhi[rows] = Hs @ Phi[k - 1]
            hbar[rows] = poly.h - poly.H @ np.array([samples[k].beta3r,
                                                     samples[k].beta2r])
    return dict(P_uu=P_uu, W=W, G=G_soft, HsPhi=HsPhi, hbar=hbar, l=l, u=u)


@pytest.mark.parametrize("direction", [-1.0, 1.0])
@pytest.mark.parametrize("octagon", [True, False])
def test_straight_structure_is_the_loop_build_bit_for_bit(params, direction,
                                                          octagon):
    cfg = MpcConfig()
    controller = MpcController(params, generate_straight(30.0, direction),
                               cfg, None if octagon else NO_JOINT_ROWS)
    for base in (0, 40):   # the second horizon reaches into the tail
        struct = controller._structure(base)
        for name, want in loop_structure(controller, base).items():
            got = getattr(struct, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    A = struct.A_in
    N = cfg.horizon
    assert np.array_equal(A[:N], np.eye(N)) and np.array_equal(A[N], np.eye(N)[0])
    assert np.array_equal(A[N + 1:], np.eye(N)[1:] - np.eye(N)[:-1])


def test_figure_eight_structure_matches_the_loop_build(params, eight_back):
    controller = MpcController(params, eight_back, MpcConfig())
    last = len(controller.path) - controller.cfg.horizon - 1
    shared = controller._structure(0).A_in
    for base in range(0, last + 1, 7):
        struct = controller._structure(base)
        assert struct.A_in is shared
        for name, want in loop_structure(controller, base).items():
            got = getattr(struct, name)
            # the slew row's open bounds, +-inf, sit in the same places
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite]), name
            err = np.max(np.abs(got[finite] - want[finite]))
            assert err <= 1e-12 * np.max(np.abs(want[finite])), (name, base)


def test_constraint_row_counts(params, straight_back):
    cfg = MpcConfig()
    controller = MpcController(params, straight_back, cfg)
    struct = controller._structure(0)
    N = cfg.horizon
    m_poly = controller.polytope.m
    # the QP stays in its blocks: inputs, hard rows, soft rows
    assert struct.P_uu.shape == (N, N)
    assert struct.A_in.shape == (2 * N, N)
    assert struct.l.shape == struct.u.shape == (2 * N,)
    assert struct.n_slack == N * m_poly
    assert struct.G.shape == (N * m_poly, N)
    assert struct.HsPhi.shape == (N * m_poly, 4)
    # box rows then slew rows
    assert np.allclose(struct.u[:N], cfg.u_max)
    assert np.allclose(struct.l[:N], -cfg.u_max)
    # C1 = 1 on the straight nominal: the chain's half-width is udot_max
    # per meter of travel
    c = controller.udot_max * cfg.delta_s
    assert np.allclose(struct.u[N + 1:2 * N], c)
    assert np.allclose(struct.l[N + 1:2 * N], -c)
    # soft rows: the polytope at stages 1..N around the zero nominal angles
    assert np.array_equal(struct.hbar, np.tile(controller.polytope.h, N))


def test_first_cycle_slew_window(params, straight_back):
    cfg = MpcConfig()
    controller = MpcController(params, straight_back, cfg)
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 1.5, 0.0, 0.0, 0.0)  # lateral offset
    u_prev_expect = 0.0  # nominal curvature at the start
    u_cmd, diag = controller.step(state, ctrl)
    assert abs(u_cmd - u_prev_expect) <= cfg.udot_max / cfg.f_s + 1e-12
    u2, _ = controller.step(state, ctrl)
    assert abs(u2 - u_cmd) <= cfg.udot_max / cfg.f_s + 1e-12


def test_path_exhausted(params):
    cfg = MpcConfig()
    path = generate_straight(12.0, -1.0, cfg.delta_s)
    controller = MpcController(params, path, cfg)
    # the constructor pads the path, but stepping past the padded end fails
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(-23.0, 0.0, 0.0, 0.0, 0.0)
    ctrl.s_prev = 22.8
    with pytest.raises(PathExhausted):
        controller.step(state, ctrl)


def test_lq_controller_saturates(params, straight_back):
    cfg = MpcConfig()
    lq = LqController(params, straight_back, cfg)
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 5.6, 0.0, 0.0, 0.0)
    u_cmd, diag = lq.step(state, ctrl)
    assert abs(u_cmd) == pytest.approx(cfg.u_max)
    assert diag.solver_path == "lq"


def test_mpc_command_within_limits_under_large_error(params, straight_back):
    cfg = MpcConfig()
    controller = MpcController(params, straight_back, cfg)
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 5.6, 0.0, 0.0, 0.0)
    u_prev = None
    for _ in range(12):
        u_cmd, diag = controller.step(state, ctrl)
        assert abs(u_cmd) <= cfg.u_max + 1e-12
        if u_prev is not None:
            assert abs(u_cmd - u_prev) <= cfg.udot_max / cfg.f_s + 1e-9
        u_prev = u_cmd
        assert diag.kkt_max < 1e-6


@pytest.mark.parametrize("octagon", [True, False])
def test_step_reports_the_active_set_iterations(params, straight_back,
                                                monkeypatch, octagon):
    import trailer_mpc.qp as qp_mod

    # per step: breakpoints of each homotopy, also one that gives up (the
    # second of soft_qp_solve's pair with a hot start), plus the IPM's
    # iterations
    counts = []
    for name, work in (("soft_qp_solve", lambda pair: pair[1]),
                       ("soft_ipm_solve", lambda res: res.iterations)):
        solver = getattr(qp_mod, name)

        def counted(*args, _solver=solver, _work=work, **kwargs):
            res = _solver(*args, **kwargs)
            counts[-1] += _work(res)
            return res

        monkeypatch.setattr(qp_mod, name, counted)
    controller = MpcController(params, straight_back, MpcConfig(),
                               None if octagon else NO_JOINT_ROWS)
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 1.5, 0.0, 0.0, 0.0)
    iters = []
    for _ in range(3):
        counts.append(0)
        iters.append(controller.step(state, ctrl)[1].qp_iterations)
    assert iters == counts
    assert iters[0] > 1   # the first cycle, without a hot start, hands over


def test_second_cycle_at_the_same_base_hot_starts(params, straight_back):
    import trailer_mpc.mpc as mpc_mod

    controller = MpcController(params, straight_back, MpcConfig())
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 1.5, 0.0, 0.0, 0.0)
    diags = [controller.step(state, ctrl)[1] for _ in range(2)]
    # the same state, so the same grid base and structure; only the slew
    # row moved with the first command
    assert round(diags[0].s / 0.2) == round(diags[1].s / 0.2)
    # the first cycle has no previous answer to start from
    assert diags[0].solver_path != "parametric"
    assert diags[1].solver_path == "parametric"
    assert diags[1].kkt_max <= mpc_mod.QP_TOL
    # the hot start's answer is this cycle's optimum: a cold solve agrees
    cold = MpcController(params, straight_back, MpcConfig())
    cold_ctrl = ControllerState(s_prev=0.0, u_prev=diags[0].u_cmd)
    assert cold.step(state, cold_ctrl)[0] == pytest.approx(diags[1].u_cmd,
                                                          abs=1e-9)


def test_a_held_working_set_factors_nothing_and_solves_once(params,
                                                            monkeypatch):
    import trailer_mpc.qp as qp_mod
    from trailer_mpc.sim import paper_suite, run

    # calls of the working-set factorization, its solve and every Cholesky
    # factorization of the QP layer, counted per control cycle
    calls = []
    for owner, name, key in ((qp_mod._WorkingFactor, "_factor", "factor"),
                             (qp_mod._WorkingFactor, "solve", "solve"),
                             (qp_mod, "_potrf", "potrf")):
        def counted(*args, _f=getattr(owner, name), _key=key, **kwargs):
            calls[-1][_key] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    step = MpcController.step

    def counted_step(self, state, ctrl):
        calls.append(dict(factor=0, solve=0, potrf=0))
        return step(self, state, ctrl)

    monkeypatch.setattr(MpcController, "step", counted_step)
    spec = next(s for s in paper_suite()
                if s.name == "exp3_straight" and s.controller == "mpc")
    log = run(spec, params, MpcConfig())
    assert len(calls) == len(log)
    # a cycle whose hot start passes no breakpoint on the structure of the
    # last answer reuses the last factorization, the reduced Hessian's
    # Cholesky factor included, and pays for one equality solve
    held = (log.qp_iterations == 0) & ~log.structure_built
    assert held.sum() > 0.9 * len(log)
    for k in np.flatnonzero(held):
        assert log.solver_path[k] == "parametric"
        assert calls[k] == dict(factor=0, solve=1, potrf=0), k
    # the first cycle builds the structure and factors
    assert calls[0]["potrf"] > 0


def test_cycle_after_a_base_change_hot_starts(params, eight_back):
    from trailer_mpc.sim import ExperimentSpec, make_controller, run

    spec = ExperimentSpec(name="shift", path_kind="eight", path_size=20.0,
                          controller="mpc", perturbation=(0.5, 0.0, 0.0, 0.0),
                          max_time=2.0)
    cfg = MpcConfig()
    log = run(spec, params, cfg,
              controller=make_controller(spec, params, cfg, path=eight_back))
    bases = np.round(log.s / 0.2).astype(int)
    moved = np.flatnonzero(np.diff(bases)) + 1
    # every base of the figure-eight has its own structure; the cycle on
    # it starts from the last answer shifted by the base change
    assert len(moved) >= 10 and log.structure_built[moved].all()
    assert [log.solver_path[k] for k in moved] == ["parametric"] * len(moved)


def test_shifted_hot_start_moves_rows_by_the_base_change(params, eight_back):
    from trailer_mpc.qp import KINK, Answer

    cfg = MpcConfig()
    controller = MpcController(params, eight_back, cfg)
    struct = controller._structure(101)
    N, ms = cfg.horizon, struct.n_slack
    m = ms // N
    # an answer at base 100 with every hard row at its upper bound and
    # every soft row at its kink; distinct values show where each row went
    y = np.arange(1.0, N + ms + 1)
    duals = np.concatenate([np.arange(1.0, 2 * N + 1),
                            np.linspace(1.0, 900.0, ms)])
    every = (np.ones(2 * N, np.int8), np.full(ms, KINK, np.int8))
    hot = Answer(struct.l, struct.u, struct.hbar, y[:N], y[N:],
                 duals[:2 * N], duals[2 * N:], every)
    l, u = struct.l.copy(), struct.u.copy()
    l[N], u[N] = -0.01, 0.01
    got = controller._shifted_hot(hot, 1, struct, l, u, struct.hbar)
    # rows of base 101 and the rows of base 100 they continue (-1: new)
    hard = np.r_[1:N, -1, -1, N + 2:2 * N, -1]
    soft = np.r_[m:ms, np.full(m, -1)]
    sides, states = got.sets
    assert np.array_equal(sides, hard >= 0)
    assert np.array_equal(states, np.where(soft >= 0, KINK, 0))
    x, eps, mu, lam = got.x, got.eps, got.mu, got.lam
    np.testing.assert_array_equal(x, np.r_[y[1:N], y[N - 1]])
    np.testing.assert_array_equal(eps, np.where(soft >= 0, y[N:][soft], 0.0))
    np.testing.assert_array_equal(mu, np.where(hard >= 0, duals[hard], 0.0))
    np.testing.assert_array_equal(lam, np.where(soft >= 0,
                                                duals[2 * N:][soft], 0.0))
    # the working rows are tight at the shifted inputs and the others,
    # the slew row among them, hold them
    Ax, Gx = struct.A_in @ x, struct.G @ x
    up = sides > 0
    np.testing.assert_array_equal(got.u[up], Ax[up])
    np.testing.assert_array_equal(got.l, np.minimum(l, Ax))
    assert got.u[N] == max(u[N], Ax[N])
    np.testing.assert_array_equal(got.b, np.where(soft >= 0, Gx,
                                                  np.maximum(struct.hbar, Gx)))


def _reference_shifted_hot(cfg, hot, d, struct, l, u, b):
    """MpcController._shifted_hot by row maps: for each row of struct, the
    answer's row it continues, or -1."""
    from trailer_mpc.qp import auxiliary_hot

    N, ms = struct.n_inputs, struct.n_slack
    m = ms // N
    hard = np.full(2 * N, -1)
    hard[:N - d] = np.arange(d, N)
    hard[N + 1:2 * N - d] = np.arange(N + 1 + d, 2 * N)
    soft = np.full(ms, -1)
    soft[:ms - d * m] = np.arange(d * m, ms)

    def moved(v, rows):
        return np.where(rows >= 0, v[rows], v.dtype.type(0))

    sides, states = hot.sets
    return auxiliary_hot(
        struct.A_in, struct.G, l, u, b, cfg.slack_linear,
        hot.x[np.minimum(np.arange(N) + d, N - 1)], moved(hot.eps, soft),
        moved(hot.mu, hard), moved(hot.lam, soft),
        (moved(sides, hard), moved(states, soft)))


def test_shifted_hot_start_by_slices_keeps_the_bits_of_row_maps(
        params, eight_back):
    from trailer_mpc.qp import Answer

    cfg = MpcConfig()
    controller = MpcController(params, eight_back, cfg)
    struct = controller._structure(120)
    N, ms = cfg.horizon, struct.n_slack
    rng = np.random.default_rng(3)
    l, u = struct.l.copy(), struct.u.copy()
    l[N], u[N] = -0.01, 0.01
    b = struct.hbar - rng.uniform(0.0, 0.1, ms)
    # every side and state, and values of either sign
    sets = (rng.integers(-1, 2, 2 * N).astype(np.int8),
            rng.integers(0, 3, ms).astype(np.int8))
    hot = Answer(struct.l, struct.u, struct.hbar, rng.normal(size=N),
                 rng.uniform(0.0, 1.0, ms), rng.normal(size=2 * N),
                 rng.normal(size=ms), sets)
    fields = ("l", "u", "b", "x", "eps", "mu", "lam")
    for d in range(1, N):
        got = controller._shifted_hot(hot, d, struct, l, u, b)
        want = _reference_shifted_hot(cfg, hot, d, struct, l, u, b)
        for g, w in zip([getattr(got, f) for f in fields] + list(got.sets),
                        [getattr(want, f) for f in fields] + list(want.sets)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_straight_bases_share_one_structure(params, straight_back):
    controller = MpcController(params, straight_back, MpcConfig())
    assert controller._structure(0) is controller._structure(7)
    assert controller.n_structure_builds == 1
    # one linearization serves every station of the straight line
    assert not controller._ids.any() and controller._F.shape == (1, 4, 4)


def test_curved_bases_get_their_own_structures(params, eight_back):
    controller = MpcController(params, eight_back, MpcConfig())
    assert controller._structure(100) is not controller._structure(101)
    assert controller.n_structure_builds == 2
    # the cache answers a known base without a new build
    assert controller._structure(100) is controller._structure(100)
    assert controller.n_structure_builds == 2


@pytest.mark.parametrize("column", ["u", "beta3", "beta2"])
@pytest.mark.parametrize("value", [np.nextafter(0.0, 1.0), -0.0])
def test_a_sample_one_ulp_off_gets_its_own_structure(params, straight_back,
                                                    column, value):
    import dataclasses

    data = getattr(straight_back, column).copy()
    data[30] = value   # 1 ulp above +0.0, or -0.0, which equals 0.0
    path = dataclasses.replace(straight_back, **{column: data})
    controller = MpcController(params, path, MpcConfig())
    # the sample gets its own station id and model
    assert np.count_nonzero(controller._ids) == 1 and controller._ids[30]
    assert len(controller._F) == 2
    # the horizon from base 0 reads sample 30; those from 60 and 61 do not
    assert controller._structure(0) is not controller._structure(60)
    assert controller._structure(60) is controller._structure(61)
    assert controller.n_structure_builds == 2


@settings(max_examples=60, deadline=None)
@given(direction=st.sampled_from([-1.0, 1.0]),
       stations=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                                   st.floats(-0.1, 0.1)),
                         min_size=2, max_size=8))
def test_batched_linearization_equals_one_station_calls(params, direction,
                                                        stations):
    # the controller's station table linearizes all stations in one call
    beta3, beta2, u = (np.array(col) for col in zip(*stations))
    n = len(u)
    zeros = np.zeros(n)
    path = NominalPath(s=0.2 * np.arange(n), x=zeros, y=zeros, theta3=zeros,
                       beta3=beta3, beta2=beta2, u=u,
                       kappa3=np.tan(beta3) / params.L3,
                       direction=direction, delta_s=0.2)
    table = linearize(params, path.sample(np.arange(n)), 0.2)
    assert table.F.shape == (n, 4, 4) and table.G.shape == (n, 4)
    for i in range(n):
        one = linearize(params, path.sample(i), 0.2)
        assert np.max(np.abs(table.F[i] - one.F)) <= 1e-15
        assert np.max(np.abs(table.G[i] - one.G)) <= 1e-15


def test_step_hands_over_to_the_ipm(params, straight_back):
    import trailer_mpc.mpc as mpc_mod
    import trailer_mpc.qp as qp_mod

    controller = MpcController(params, straight_back, MpcConfig())
    ctrl = ControllerState(s_prev=0.0)
    # the first cycle has no answer to hot-start from
    u_cmd, diag = controller.step(VehicleState(0.0, 5.6, 0.0, 0.0, 0.0), ctrl)
    assert diag.solver_path == "ipm"
    assert diag.kkt_max <= mpc_mod.QP_TOL
    assert 1 <= diag.qp_iterations <= qp_mod.EXCHANGE_CAP + IPM_MAX_ITER
    # the certified answer carries over: the next cycle hot-starts from it
    assert ctrl.hot is not None and ctrl.hot_base == round(diag.s / 0.2)


def test_a_large_error_first_cycle_gets_a_certified_answer(
        params, straight_back, monkeypatch):
    # Joint angles (-30, 15) degrees on the straight line without
    # joint-angle rows, a start of the 15-degree region grid: the first
    # cycle's gradient reaches 6.2e3.  On the unscaled cost the interior
    # point's multipliers grow with it, its residuals stall above the
    # tolerance, neither it nor its crossover passed, and the cycle fell
    # back to LQ; on the cost divided by max|q| it converges and the
    # crossover certifies the vertex.
    import trailer_mpc.mpc as mpc_mod

    solved = []
    solve = mpc_mod.certified_solve

    def spy(*args, **kwargs):
        out = solve(*args, **kwargs)
        solved.append((args, out[1]))
        return out

    monkeypatch.setattr(mpc_mod, "certified_solve", spy)
    controller = MpcController(params, straight_back, MpcConfig(),
                               NO_JOINT_ROWS)
    _, diag = controller.step(
        VehicleState(0.0, 0.0, 0.0, math.radians(-30.0), math.radians(15.0)),
        ControllerState(s_prev=0.0))
    (args, path), = solved
    assert np.abs(args[1]).max() > 6e3
    assert path == diag.solver_path == "ipm"
    assert diag.kkt_max <= mpc_mod.QP_TOL


def test_lq_fallback_is_reported_not_logged(params, straight_back, monkeypatch,
                                            caplog):
    import trailer_mpc.qp as qp_mod
    from trailer_mpc.sim import ExperimentSpec, RunLog

    # no answer passes the KKT check
    monkeypatch.setattr(qp_mod, "soft_kkt_residuals",
                        lambda *a: (1.0, 1.0, 1.0))
    cfg = MpcConfig()
    controller = MpcController(params, straight_back, cfg)
    ctrl = ControllerState(s_prev=0.0)
    state = VehicleState(0.0, 0.5, 0.0, 0.0, 0.0)
    with caplog.at_level("DEBUG"):
        u_cmd, diag = controller.step(state, ctrl)
    assert diag.solver_path == "lq_fallback"
    assert diag.kkt_max == 1.0
    assert 1 <= diag.qp_iterations <= qp_mod.EXCHANGE_CAP + IPM_MAX_ITER
    assert ctrl.hot is None
    # the LQ command, within the first cycle's slew window
    assert abs(u_cmd) <= cfg.udot_max / cfg.f_s + 1e-12
    # the cycle writes nothing to a logger: the run log is the one record
    # of the fallback
    assert caplog.records == []
    spec = ExperimentSpec(name="fallback", path_kind="straight",
                          path_size=40.0, controller="mpc")
    log = RunLog.from_cycles(spec, "Timeout", 50.0,
                             [(0.0, state.as_array(), diag, 0.0)])
    assert log.qp_status == ["MaxIter"]
    assert log.summary()["n_lq_fallback"] == 1


def test_controller_limits_are_the_tighter_of_vehicle_and_config(straight_back):
    from trailer_mpc import VehicleParams, actuator_limits

    tight = VehicleParams(u_max=0.1, udot_max=0.05)
    cfg = MpcConfig()
    assert actuator_limits(tight, cfg) == (0.1, 0.05)
    assert actuator_limits(VehicleParams(), MpcConfig(u_max=0.12)) == (0.12, 0.13)
    controller = MpcController(tight, straight_back, cfg)
    struct = controller._structure(0)
    N = cfg.horizon
    assert np.allclose(struct.u[:N], 0.1)
    assert np.allclose(struct.u[N + 1:2 * N], 0.05 * cfg.delta_s)
    assert LqController(tight, straight_back, cfg).u_max == 0.1


def test_controller_rejects_a_nominal_path_beyond_its_curvature_limit(
        params, eight_back):
    from trailer_mpc.exceptions import InfeasiblePath

    # the 20 m figure-eight's nominal curvature reaches 0.071 1/m
    MpcController(params, eight_back, MpcConfig(u_max=0.08))
    with pytest.raises(InfeasiblePath):
        MpcController(params, eight_back, MpcConfig(u_max=0.06))


@pytest.mark.parametrize("field", ["x3", "y3", "theta3", "beta3", "beta2"])
@pytest.mark.parametrize("controller", [MpcController, LqController])
def test_a_nan_measurement_is_a_validity_violation(params, straight_back,
                                                   controller, field):
    import dataclasses

    ctrl = controller(params, straight_back, MpcConfig())
    state = dataclasses.replace(VehicleState(-10.0, 0.3, 0.01, 0.02, -0.01),
                                **{field: math.nan})
    cycle = ControllerState(s_prev=10.0)
    with pytest.raises(ValidityViolated):
        ctrl.step(state, cycle)
    # the state it keeps between cycles is untouched
    assert cycle.s_prev == 10.0 and cycle.u_prev is None
