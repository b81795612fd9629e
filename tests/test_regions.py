import math

import numpy as np
import pytest

from trailer_mpc import (RegionGrid, fit_inner_polytope, make_axes, merge,
                         sensing_region, stability_sweep)
from trailer_mpc.exceptions import EmptyRegion
from trailer_mpc.mpc import JointAnglePolytope, MpcConfig, MpcController
from trailer_mpc.paths import generate_straight
from trailer_mpc.regions import SweepWork, _feasible_inputs

# the polytope with no rows: a controller without joint-angle rows
NO_JOINT_ROWS = JointAnglePolytope(np.zeros((0, 2)), np.zeros(0))


def test_make_axes():
    b3, b2 = make_axes(5.0)
    assert len(b3) == 37 and len(b2) == 37
    assert b3[0] == pytest.approx(-math.pi / 2.0)
    assert b3[18] == 0.0
    assert np.allclose(np.diff(b3), math.radians(5.0))


# 90 / (90 / 169) rounds to just below 169
@pytest.mark.parametrize("spacing, n_side", [
    (2.0, 45), (15.0, 6), (0.3, 300), (90.0 / 169.0, 169), (7.0, 12), (50.0, 1),
    (60.0, 1), (90.0, 1)])
def test_make_axes_stays_inside_a_quarter_turn(spacing, n_side):
    b3, b2 = make_axes(spacing)
    assert len(b3) == 2 * n_side + 1 and np.array_equal(b3, b2)
    assert np.array_equal(b3, np.arange(-n_side, n_side + 1) * math.radians(spacing))
    assert np.all(np.abs(b3) <= math.pi / 2.0 + 1e-12)


def test_sensing_region_origin_and_symmetry(params):
    b3, b2 = make_axes(5.0)
    grid = sensing_region(params, b3, b2)
    i0 = 18
    assert grid.visible[i0, i0]          # aligned chain is visible
    assert not grid.visible[i0, -1]      # beta2 near +pi/2: front leaves the cone
    assert np.array_equal(grid.visible, grid.visible[::-1, ::-1])


def test_the_2_degree_sensing_map_has_5361_visible_cells(params):
    # the baseline figure of the default vehicle's sensing region
    grid = sensing_region(params, *make_axes(2.0))
    assert grid.visible.shape == (91, 91)
    assert int(grid.visible.sum()) == 5361


@pytest.mark.parametrize("distance", [0.0, -10.0, math.nan, math.inf])
def test_stability_sweep_rejects_a_bad_distance(params, distance):
    with pytest.raises(ValueError, match="distance"):
        stability_sweep(params, MpcConfig(), *make_axes(45.0),
                        distance=distance)


@pytest.mark.parametrize("margin", [-1.0, math.nan, math.inf])
def test_fit_inner_polytope_rejects_a_bad_margin(margin):
    with pytest.raises(ValueError, match="margin"):
        fit_inner_polytope(_disc_grid(0.5), margin=margin)


def test_sensing_region_narrow_fov_shrinks(params):
    b3, b2 = make_axes(10.0)
    wide = sensing_region(params, b3, b2)
    import dataclasses
    narrow_params = dataclasses.replace(params, phi=math.radians(60.0))
    narrow = sensing_region(narrow_params, b3, b2)
    assert narrow.visible.sum() < wide.visible.sum()
    assert np.all(wide.visible[narrow.visible])  # narrow is a subset


def test_stability_sweep_small_grid(params):
    axis = np.radians(np.arange(-60.0, 61.0, 30.0))
    grid = stability_sweep(params, MpcConfig(), axis, axis.copy(),
                           distance=100.0)
    mid = len(axis) // 2
    assert grid.stable[mid, mid]                       # origin is stable
    assert np.array_equal(grid.stable, grid.stable[::-1, ::-1])
    assert grid.stable.sum() < grid.stable.size        # the region is bounded


def test_stability_sweep_reports_progress_without_changing_labels(params):
    b3, b2 = make_axes(30.0)
    reports = []
    grid = stability_sweep(params, MpcConfig(), b3, b2, distance=60.0,
                           progress=lambda done, total: reports.append((done, total)))
    plain = stability_sweep(params, MpcConfig(), b3, b2, distance=60.0)
    assert np.array_equal(grid.stable, plain.stable)
    done = [d for d, _ in reports]
    # the simulated half grid: beta3 > 0, and the beta3 = 0, beta2 >= 0 ray
    total = len(b3) * (len(b2) // 2) + len(b2) // 2 + 1
    assert {t for _, t in reports} == {total}
    assert len(reports) > 2 and done == sorted(done) and done[-1] == total
    assert done[0] < total


def _feasible_inputs_reference(struct, l_in, u_in, guess):
    """The clipped chain with max and min, as _feasible_inputs spells
    them out."""
    N = r0 = struct.n_inputs   # the per-cycle slew row
    lo = max(l_in[0], l_in[r0])
    hi = min(u_in[0], u_in[r0])
    if lo > hi:
        return None
    ut = [min(max(guess[0], lo), hi)]
    for k in range(1, N):
        lo = max(l_in[k], ut[-1] + l_in[N + k])
        hi = min(u_in[k], ut[-1] + u_in[N + k])
        if lo > hi:
            return None
        ut.append(min(max(guess[k], lo), hi))
    return np.array(ut)


def test_feasible_inputs_equal_the_max_min_chain(params):
    cfg = MpcConfig()
    controller = MpcController(params, generate_straight(40.0, -1.0, cfg.delta_s),
                               cfg, NO_JOINT_ROWS)
    struct = controller._structure(0)
    rng = np.random.default_rng(7)
    closed = 0
    for _ in range(300):
        # previous commands beyond the curvature box close the first link
        u_prev = rng.uniform(-1.5, 1.5) * cfg.u_max
        l, u, lo, hi = struct.cycle_bounds(u_prev, controller.slew_per_cycle)
        assert (lo, hi) == (l[struct.n_inputs], u[struct.n_inputs])
        # guesses on the box bounds and between, so that ties occur
        guess = rng.choice([-cfg.u_max, 0.0, cfg.u_max], struct.n_inputs)
        guess = np.where(rng.random(struct.n_inputs) < 0.5, guess,
                         rng.uniform(-0.3, 0.3, struct.n_inputs))
        want = _feasible_inputs_reference(struct, l, u, guess)
        got = _feasible_inputs(struct, lo, hi, guess)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()
        closed += want is None
    assert 0 < closed < 300


def test_stability_sweep_reports_its_work(params):
    # the 15-degree, 60 m grid of the benchmark: 85 simulated cells, and
    # the QP gives no answer on 2960 of their cycles (the exchange loop's
    # all-pinned defect, ROADMAP item 2)
    b3, b2 = make_axes(15.0)
    grid = stability_sweep(params, MpcConfig(), b3, b2, distance=60.0)
    work = grid.work
    assert (work.cells, work.cell_cycles, work.lq_fallbacks) == (85, 11985, 2960)
    assert work.qp_answers + work.lq_fallbacks == work.cell_cycles
    assert work.exchanges >= work.qp_answers
    assert int(grid.stable.sum()) == 19
    # merging with the sensing grid, either way round, keeps the work
    sensing = sensing_region(params, b3, b2)
    assert merge(sensing, grid).work == merge(grid, sensing).work == work
    assert sensing.work is None and isinstance(work, SweepWork)


def test_merge_requires_matching_axes(params):
    b3a, b2a = make_axes(10.0)
    b3b, b2b = make_axes(5.0)
    ga = sensing_region(params, b3a, b2a)
    gb = sensing_region(params, b3b, b2b)
    with pytest.raises(ValueError):
        merge(ga, gb)


def test_merge_requires_matching_beta2_axes():
    b3, b2 = make_axes(15.0)
    full = np.zeros((len(b3), len(b2)), dtype=bool)
    ga = RegionGrid(b3, b2, full, full.copy())
    gb = RegionGrid(b3, b2[1:-1], full[:, 1:-1], full[:, 1:-1].copy())
    for a, b in ((ga, gb), (gb, ga)):
        with pytest.raises(ValueError, match="grids must share axes"):
            merge(a, b)


@pytest.mark.parametrize("mask", ["stable", "visible"])
@pytest.mark.parametrize("shape", [(3, 3), (13, 12), (12, 13), (13,), (169,),
                                   (13, 13, 1)])
def test_region_grid_rejects_a_mask_of_another_shape(mask, shape):
    b3, b2 = make_axes(15.0)
    masks = {"stable": np.zeros((13, 13), dtype=bool),
             "visible": np.zeros((13, 13), dtype=bool)}
    RegionGrid(b3, b2, **masks)
    masks[mask] = np.zeros(shape, dtype=bool)
    with pytest.raises(ValueError, match=f"{mask} mask has shape"):
        RegionGrid(b3, b2, **masks)


def _disc_grid(radius=0.5, spacing_deg=5.0):
    b3, b2 = make_axes(spacing_deg)
    B3, B2 = np.meshgrid(b3, b2, indexing="ij")
    good = B3 ** 2 + B2 ** 2 <= radius ** 2
    return RegionGrid(b3, b2, good.copy(), good.copy())


def test_fit_inner_polytope_inside_disc():
    grid = _disc_grid(0.5)
    poly = fit_inner_polytope(grid, margin=0.05)
    assert poly.m == 8
    # every grid cell inside the polytope must be Stable and Visible
    B3, B2 = np.meshgrid(grid.beta3_axis, grid.beta2_axis, indexing="ij")
    inside = poly.contains(B3.ravel(), B2.ravel())
    good = (grid.stable & grid.visible).ravel()
    assert np.all(good[inside])
    assert poly.contains(0.0, 0.0)
    # supports never exceed the disc radius
    assert np.all(poly.h <= 0.5)


def test_fit_inner_polytope_empty_on_large_margin():
    grid = _disc_grid(0.3)
    with pytest.raises(EmptyRegion):
        fit_inner_polytope(grid, margin=2.0)


def test_fit_inner_polytope_requires_origin():
    b3, b2 = make_axes(10.0)
    B3, B2 = np.meshgrid(b3, b2, indexing="ij")
    good = (B3 - 1.0) ** 2 + B2 ** 2 <= 0.09  # off-center blob
    grid = RegionGrid(b3, b2, good.copy(), good.copy())
    with pytest.raises(EmptyRegion):
        fit_inner_polytope(grid, margin=0.05)


def test_region_grid_csv_round_trip(tmp_path, params):
    b3, b2 = make_axes(15.0)
    grid = sensing_region(params, b3, b2)
    grid.stable[3, 4] = True
    f = tmp_path / "grid.csv"
    grid.write_csv(f)
    back = RegionGrid.read_csv(f)
    assert np.allclose(back.beta3_axis, grid.beta3_axis)
    assert np.array_equal(back.visible, grid.visible)
    assert np.array_equal(back.stable, grid.stable)
    back.write_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == f.read_bytes()


def test_region_grid_csv_must_hold_each_cell_once(tmp_path, params):
    # the 30-degree grid without its last 5 rows once read as a grid whose
    # lost cells are not visible (27 of 29 visible cells), and a repeated
    # row passed too; the rows may come in any order
    b3, b2 = make_axes(30.0)
    grid = sensing_region(params, b3, b2)
    f = tmp_path / "grid.csv"
    grid.write_csv(f)
    header, *rows = f.read_text().splitlines()
    for bad in (rows[:-5], rows + rows[7:8], rows[:-1] + rows[:1]):
        f.write_text("\n".join([header] + bad) + "\n")
        with pytest.raises(ValueError, match="exactly once"):
            RegionGrid.read_csv(f)
    f.write_text("\n".join([header] + rows[::-1]) + "\n")
    assert np.array_equal(RegionGrid.read_csv(f).visible, grid.visible)


def test_the_sweep_solves_no_working_set_twice_in_a_row(params, monkeypatch):
    # a warm set whose point is infeasible, with x0 on the same rows, starts
    # the exchange loop from the trial's solve instead of solving it again
    # (253 such repeats on this grid before)
    from trailer_mpc import qp

    real, calls = qp._solve_factored, []

    def spy(P, q, b_w, fac):
        calls.append((q.tobytes(), b_w.tobytes(), fac.A_w.tobytes()))
        return real(P, q, b_w, fac)

    monkeypatch.setattr(qp, "_solve_factored", spy)
    grid = stability_sweep(params, MpcConfig(), *make_axes(30.0), distance=60.0)
    assert grid.work.qp_answers > 0 and len(calls) > grid.work.qp_answers
    assert not any(a == b for a, b in zip(calls, calls[1:]))
