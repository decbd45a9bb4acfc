import dataclasses
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgqpd import (IntegralInfo, OffsetFunction, OracleInfo, ScanConfig,
                   SeriesInfo, T2Search, TruncationConfig, TruncationError, global_minimize,
                   minimize_over_t2, named_evaluator, scan, scan_plane, series)
from lgqpd import fock
from lgqpd.config import load_scan_config
from lgqpd.states import mode_e
from lgqpd.output import build_manifest, scan_csv_text

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TWO_PI = 2 * math.pi


def pointwise(f):
    return lambda grid: [f(t) for t in grid]


def sloped(f, df, probes=None):
    """``f`` as an evaluator whose ``slope(t)`` is (f(t), df(t)); each slope
    probe's t is appended to ``probes`` when it is given."""
    evaluator = lambda t: f(t)

    def slope(t):
        if probes is not None:
            probes.append(t)
        return f(t), df(t)
    evaluator.slope = slope
    return evaluator


#: cos with its exact slope
COS = sloped(np.cos, lambda t: -np.sin(t))


def mirror_cells(cfg):
    """The cells of a row of ``cfg`` that have a time-reversal partner on its
    grid, p0 < 0 with -p0 on ``axis2``, judged from the grid alone."""
    ax2 = cfg.axis2_values()
    return np.array([p0 < 0 and -p0 in ax2 for p0 in ax2])


def periodic_gap(t2a, t2b, period):
    """|t2a - t2b| on a circle of ``period``: the window's ends are one point."""
    gap = np.abs(t2a - t2b) % period
    return np.minimum(gap, period - gap)


def assert_cells_match_their_own_search(cfg, symmetric):
    """Scan ``cfg`` and check it against each cell minimized alone.  Any worker
    count gives the same bytes, and every searched cell those of its own
    search.  When ``symmetric``, the cells with a time-reversal partner on the
    grid are filled from it, each within 1e-15 in q_min and 1e-6 in
    t2_argmin of its own search; otherwise no cell is filled."""
    res = scan_plane(cfg, workers=1)
    assert res.n_failed == 0
    assert scan_csv_text(res) == scan_csv_text(scan_plane(cfg, workers=2))
    filled = mirror_cells(cfg) & symmetric
    assert res.mirror_filled == cfg.axis1_steps * int(filled.sum())
    q, t2 = TestScanPlane._cell_by_cell(cfg)
    assert res.q_min[:, ~filled].tobytes() == q[:, ~filled].tobytes()
    assert res.t2_argmin[:, ~filled].tobytes() == t2[:, ~filled].tobytes()
    assert np.all(np.abs(res.q_min - q)[:, filled] <= 1e-15)
    gap = periodic_gap(res.t2_argmin, t2, cfg.t2_max - cfg.t2_min)
    assert np.all(gap[:, filled] <= 1e-6)
    return res


def sequential_global_minimize(free, route="series", fixed=None, projector="sign",
                               coarse_steps=7, n_starts=4, t2_coarse=96, t2_refine=32,
                               n_max=300, nm_maxiter=120):
    """global_minimize with its Nelder-Mead starts run one after another, each
    new point searched on its own curve: the reference of the lock-step."""
    from scipy.optimize import minimize

    fixed, free = dict(fixed or {}), dict(free)
    search = T2Search(*free.pop("t2"), t2_coarse, t2_refine)
    names = sorted(free)
    lows = np.array([free[n][0] for n in names])
    highs = np.array([free[n][1] for n in names])

    def named(vec):
        return dict(fixed, **{n: float(np.clip(v, lo, hi))
                              for n, v, lo, hi in zip(names, vec, lows, highs)})

    memo = {}

    def inner(vec):
        params = named(vec)
        key = tuple(params[n] for n in names)
        if key not in memo:
            memo[key] = minimize_over_t2(*named_evaluator(params, route, projector, n_max),
                                         search)
        return params, memo[key]

    def full_argmin(vec):
        params, (_, t2) = inner(vec)
        return dict(params, t2=t2)

    axes = [np.linspace(lo, hi, coarse_steps) for lo, hi in zip(lows, highs)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    values = np.array([inner(p)[1][0] for p in points])
    order = np.argsort(values, kind="stable")[:n_starts]
    starts, best_vec, best_val = [], points[order[0]], float(values[order[0]])
    for k in order:
        res = minimize(lambda vec: inner(vec)[1][0], points[k], method="Nelder-Mead",
                       options={"maxiter": nm_maxiter, "xatol": 1e-5, "fatol": 1e-10})
        xk = np.clip(res.x, lows, highs)
        vk = inner(xk)[1][0]
        starts.append(scan.StartOutcome(start={n: float(v) for n, v in zip(names, points[k])},
                                        value=float(vk), argmin=full_argmin(xk)))
        if vk < best_val:
            best_val, best_vec = float(vk), xk
    return scan.GlobalMinimum(value=best_val, argmin=full_argmin(best_vec),
                              starts=tuple(starts))


#: global_minimize cases: the benchmark's window minima at r = 0 and 0.5, a
#: 2-D sign panel and a thermal one on small budgets.
LOCK_STEP_CASES = {
    "window_r0": dict(
        free={"L": (0.7, 1.4), "t2": (0.05, math.pi - 0.05)},
        fixed={"s1": 1, "s2": 1, "r": 0.0, "theta0": 0.0, "t1": 0.0}, projector="window",
        coarse_steps=15, n_starts=3, t2_coarse=96, t2_refine=32, n_max=256, nm_maxiter=150),
    "window_r05": dict(
        free={"L": (0.7, 1.4), "t2": (0.05, math.pi - 0.05)},
        fixed={"s1": 1, "s2": 1, "r": 0.5, "theta0": 0.0, "t1": 0.0}, projector="window",
        coarse_steps=15, n_starts=3, t2_coarse=96, t2_refine=32, n_max=256, nm_maxiter=150),
    "sign_panel": dict(
        free={"x0": (-1.5, 1.5), "p0": (0.5, 2.0), "t2": (0.0, TWO_PI)},
        fixed={"s1": 1, "s2": -1, "r": 0.3, "t1": 0.0}, coarse_steps=4, n_starts=3,
        t2_coarse=48, t2_refine=16, n_max=150, nm_maxiter=40),
    "thermal_panel": dict(
        free={"x0": (-1.5, 1.5), "p0": (0.5, 2.0), "t2": (0.0, TWO_PI)},
        fixed={"s1": 1, "s2": -1, "r": 0.3, "t1": 0.0, "n_th": 0.8}, coarse_steps=3,
        n_starts=2, t2_coarse=48, t2_refine=16, n_max=150, nm_maxiter=30),
}


class TestMinimizeOverT2:
    def test_cosine(self):
        q, t = minimize_over_t2(COS, np.cos, T2Search(0.0, TWO_PI, 200, 60))
        assert q == pytest.approx(-1.0, abs=1e-10)
        assert t == pytest.approx(math.pi, abs=1e-6)

    def test_curve_and_pointwise_coarse_grid_agree(self):
        search = T2Search(0.0, TWO_PI, 120, 40)
        q1, t1 = minimize_over_t2(COS, pointwise(np.cos), search)
        q2, t2 = minimize_over_t2(COS, np.cos, search)
        assert q1 == q2 and t1 == t2

    def test_coarse_grid_from_curve_refinement_from_evaluator(self):
        grid = np.linspace(0.0, TWO_PI, 50)
        i = int(np.argmin(np.cos(grid)))
        for refine_iters in (1, 3, 12):
            grids, points = [], []
            found = minimize_over_t2(sloped(math.cos, lambda t: -math.sin(t), points),
                                     lambda g: grids.append(g) or np.cos(g),
                                     T2Search(0.0, TWO_PI, 50, refine_iters))
            assert len(grids) == 1
            assert np.array_equal(grids[0], grid)
            # the probe cap: each probe is one slope call, so a cap of 1
            # probes once
            assert found.evals == len(points)
            assert 0 < len(points) <= refine_iters
            assert all(grid[i - 1] <= t <= grid[i + 1] for t in points)
            assert found[0] <= np.cos(grid).min()

    def test_a_series_cell_takes_the_curve_it_is_given(self):
        # the coarse grid comes from the curve passed, not the cell's own
        cell, _ = named_evaluator({"s1": 1, "s2": -1, "x0": -0.554, "p0": 1.95}, "series",
                                  "sign")
        grids = []
        res = minimize_over_t2(cell, lambda g: grids.append(g) or np.full(len(g), -7.0),
                               T2Search(0.0, TWO_PI, 50, 0))
        assert res == (-7.0, 0.0)
        assert len(grids) == 1

    @pytest.mark.parametrize("steps,iters", [
        (200.5, 40), (math.nan, 40), (math.inf, 40), (200, 40.5), (200, math.nan)])
    def test_search_rejects_bad_counts(self, steps, iters):
        # a fractional or NaN step count used to construct and fail in grid(),
        # and a fractional cap was taken as it stood
        with pytest.raises(ValueError):
            T2Search(0.0, TWO_PI, steps, iters)

    def test_whole_float_counts_are_taken(self):
        search = T2Search(0.0, TWO_PI, 50.0, 8.0)
        assert (search.coarse_steps, search.refine_iters) == (50, 8)
        assert type(search.coarse_steps) is int and len(search.grid()) == 50

    def test_refinement_precision_independent_of_window_origin(self):
        # a cusp, as at a degenerate separation, found to about XATOL both
        # near t2 = 0 and a hundred units out
        for origin in (0.0, 100.0):
            t_star = origin + 1.2345678
            t = minimize_over_t2(sloped(lambda t: abs(t - t_star),
                                        lambda t: math.copysign(1.0, t - t_star)),
                                 lambda grid: np.abs(grid - t_star),
                                 T2Search(origin, origin + TWO_PI, 200, 40))[1]
            assert abs(t - t_star) < 1e-8

    def test_zero_refinement_returns_the_coarse_point(self):
        grid = np.linspace(0.0, TWO_PI, 50)
        i = int(np.argmin(np.cos(grid)))
        points = []
        q, t = minimize_over_t2(lambda t: points.append(t) or math.cos(t), np.cos,
                                T2Search(0.0, TWO_PI, 50, 0))
        assert points == []
        assert (q, t) == (float(np.cos(grid[i])), float(grid[i]))

    def test_keeps_a_coarse_point_lower_than_the_refinement(self):
        # a dip too narrow for the refinement to find sits on the best grid point
        grid = np.linspace(0.0, TWO_PI, 50)
        i = int(np.argmin(np.cos(grid)))
        f = lambda t: np.cos(t) - 0.5 * np.exp(-((t - grid[i]) / 1e-6) ** 2)
        df = lambda t: -np.sin(t) + (t - grid[i]) / 1e-12 * np.exp(-((t - grid[i]) / 1e-6) ** 2)
        q, t = minimize_over_t2(sloped(f, df), f, T2Search(0.0, TWO_PI, 50, 8))
        assert (q, t) == (float(f(grid)[i]), float(grid[i]))

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_minimum_at_either_end_costs_one_probe(self, slope):
        # the refinement never evaluates its bracket's ends; one probe XATOL
        # inside the window confirms a minimum at its end
        search = T2Search(0.5, 3.0, 50, 40)
        grid = search.grid()
        i = 0 if slope > 0 else len(grid) - 1
        points = []
        found = minimize_over_t2(sloped(lambda t: slope * t, lambda t: slope, points),
                                 lambda g: slope * g, search)
        q, t = found
        assert len(points) == found.evals == 1
        assert points[0] == pytest.approx(grid[i] + slope * scan.XATOL, abs=1e-15)
        assert search.t2_min < points[0] < search.t2_max
        assert (q, t) == (float(slope * grid[i]), float(grid[i]))

    @pytest.mark.parametrize("end,inner", [(0, 1), (-1, -2)])
    def test_minimum_inside_an_end_step_is_still_refined(self, end, inner):
        # the value falls away from the end: the search runs on the end's bracket
        search = T2Search(0.5, 3.0, 50, 40)
        grid = search.grid()
        t_star = grid[end] + 0.2 * (grid[inner] - grid[end])
        f = lambda t: (t - t_star) ** 2
        points = []
        q, t = minimize_over_t2(sloped(f, lambda t: 2.0 * (t - t_star), points), f, search)
        assert int(np.argmin(f(grid))) == end % len(grid)
        assert len(points) > 1
        assert abs(t - t_star) < 1e-8 and q < f(grid[end])

    def test_zero_refinement_evaluates_nothing_at_an_end(self):
        points = []
        search = T2Search(0.5, 3.0, 50, 0)
        q, t = minimize_over_t2(lambda t: points.append(t) or t, lambda g: g, search)
        assert points == []
        assert (q, t) == (0.5, 0.5)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_nan_beside_the_best_point_still_refines(self, side):
        # no parabola through the coarse values: the search starts at the
        # bracket's midpoint, the best grid point, and still finds the minimum
        search = T2Search(0.0, TWO_PI, 50, 40)
        grid = search.grid()
        i = int(np.argmin(np.cos(grid)))
        values = np.cos(grid)
        values[i + side] = math.nan
        points = []
        evaluator = sloped(math.cos, lambda t: -math.sin(t), points)
        found = minimize_over_t2(evaluator, lambda _: values, search)
        q, t = found
        # one probe per step, the first at the best grid point
        assert points[0] == 0.5 * (grid[i - 1] + grid[i + 1])
        assert points[0] == pytest.approx(grid[i], abs=1e-15)
        assert found.evals == len(points)
        assert q == pytest.approx(-1.0, abs=1e-15) and t == pytest.approx(math.pi, abs=1e-7)

    def test_slope_probe_counts_once(self):
        # an evaluator with a slope is refined by (q, dq/dt2) probes, each one
        # evaluation, down to a step below XATOL
        calls = []
        evaluator = lambda t: math.cos(t)
        evaluator.slope = lambda t: calls.append(t) or (math.cos(t), -math.sin(t))
        found = minimize_over_t2(evaluator, np.cos, T2Search(0.0, TWO_PI, 50, 40))
        assert found.evals == len(calls) <= 5 and not found.capped
        assert found[1] == pytest.approx(math.pi, abs=1e-9)

    def test_rounding_of_a_small_q_is_no_kink(self):
        # two slope probes straddle a smooth minimum at q = -4.5e-3; the
        # second value is 1e-16 off the secant's model, the rounding of the
        # order-one terms that q sums.  The secant's step is below XATOL, so
        # the search ends; a rounding scaled by |q| alone read a kink and
        # went on for four more probes
        search = T2Search(5.5, 6.5, 21, 40)
        x1 = float(search.grid()[10]) + 1e-3
        q1, d1, d2 = -4.545979101733699e-3, 4.255e-9, -2.942e-13
        bend = d1 / 4e-8  # the coarse parabola's Newton step from x1 is 4e-8
        curve = lambda g: q1 + 0.5 * bend * (np.asarray(g) - x1) ** 2 + 1e-12
        probes = []

        def slope(t):
            probes.append(t)
            if len(probes) == 1:
                return q1, d1
            return q1 + 0.5 * (d1 + d2) * (t - probes[0]) - 1e-16, d2

        evaluator = lambda t: slope(t)[0]
        evaluator.slope = slope
        found = minimize_over_t2(evaluator, curve, search)
        assert found.evals == len(probes) == 2 and not found.capped

    def test_lowest_probe_without_a_slope_ends_the_search(self):
        # a cusp whose own value is exact (a commuting separation on the
        # series route) has no slope; once it is the lowest point the search
        # stops there
        t_star = 1.2345678
        f = lambda t: 0.0 if abs(t - t_star) < 1e-3 else 1.0 + abs(t - t_star)
        evaluator = lambda t: f(t)
        evaluator.slope = lambda t: (f(t), None if f(t) == 0.0 else math.copysign(1.0, t - t_star))
        found = minimize_over_t2(evaluator, np.vectorize(f), T2Search(0.0, TWO_PI, 200, 40))
        assert found[0] == 0.0 and abs(found[1] - t_star) < 1e-3 and not found.capped

    def test_an_evaluator_without_a_slope_is_refused(self):
        # the refinement probes (q, dq/dt2) only; a bare callable is refused
        # before its curve or its points are evaluated, and is taken when
        # nothing is refined
        calls = []
        evaluator = lambda t: calls.append(t) or math.cos(t)
        curve = lambda g: calls.append(g) or np.cos(g)
        with pytest.raises(TypeError, match="slope"):
            minimize_over_t2(evaluator, curve, T2Search(0.0, TWO_PI, 50, 1))
        assert calls == []
        grid = T2Search(0.0, TWO_PI, 50, 0).grid()
        assert minimize_over_t2(evaluator, curve, T2Search(0.0, TWO_PI, 50, 0)) == (
            float(np.cos(grid).min()), float(grid[np.argmin(np.cos(grid))]))

    def test_capped_when_the_cap_is_spent(self):
        evaluator = lambda t: math.cos(t)
        evaluator.slope = lambda t: (math.cos(t), -math.sin(t))
        search = T2Search(0.5, TWO_PI, 50, 1)
        assert minimize_over_t2(evaluator, np.cos, search).capped
        assert not minimize_over_t2(evaluator, np.cos, dataclasses.replace(
            search, refine_iters=40)).capped

    def test_benchmark_row(self):
        evaluator, curve = named_evaluator(
            {"s1": 1, "s2": -1, "x0": -1.48, "p0": 0.717, "r": 1.0}, "series", "sign", 400)
        q, _ = minimize_over_t2(evaluator, curve, T2Search(0.0, TWO_PI, 240, 40))
        assert 4 * q == pytest.approx(-0.113, abs=0.003)


class TestNamedEvaluator:
    @pytest.mark.parametrize("route", ["series", "oracle"])
    @pytest.mark.parametrize("params", [
        {"x0": 1.5, "L": 1.0}, {"p0": -0.7, "L": 1.0}, {"n_th": 0.9, "L": 1.0},
        {"offset": OffsetFunction(0.5), "L": 1.0}, {}, {"L": -1.0}])
    def test_window_rejects_what_it_cannot_take(self, route, params):
        with pytest.raises(ValueError):
            named_evaluator(params, route, "window", 60)

    def test_rejects_uncovered_routes(self):
        with pytest.raises(ValueError, match="window"):
            named_evaluator({"L": 1.0}, "integral", "window", 60)
        with pytest.raises(ValueError, match="pure states"):
            named_evaluator({"n_th": 0.5}, "integral", "sign", 60)
        with pytest.raises(ValueError, match="offset"):
            named_evaluator({"offset": OffsetFunction(constant=0.3)}, "series", "sign", 60)

    @pytest.mark.parametrize("route", ["series", "integral", "oracle"])
    def test_sign_rejects_half_width(self, route):
        # L used to be accepted and ignored under the sign projector
        with pytest.raises(ValueError, match="half-width"):
            named_evaluator({"s1": 1, "s2": -1, "x0": 0.5, "L": 5.0}, route, "sign", 60)

    def test_rejects_unknown_parameter(self):
        # a misspelled name used to be dropped, giving the r = 0 value
        with pytest.raises(ValueError, match="'R'"):
            named_evaluator({"s1": 1, "s2": -1, "x0": 0.5, "R": 0.5}, "series", "sign")

    @pytest.mark.parametrize("route,params,n_max", [
        ("oracle", {"oracle_dim": 700}, 200), ("oracle", {"oracle_dim": 1}, 200),
        ("integral", {"quad_order": 4}, 200), ("series", {}, 200000),
        ("integral", {"quad_order": 257}, 200),
        # the settings of a route that does not run used to be accepted unread
        ("series", {"oracle_dim": 2000}, 200), ("integral", {"oracle_dim": 1}, 200),
        ("series", {"quad_order": 4}, 200), ("oracle", {"quad_order": 600}, 200),
        ("integral", {}, 200000), ("oracle", {}, 0), ("fock", {}, 200),
        # a non-finite t1 used to give NaN (series) or a traceback (integral, oracle)
        *[(route, {"t1": t1}, 200) for route in scan.ROUTES for t1 in (math.nan, math.inf)],
        # refused by TruncationConfig, now the only check of n_max
        ("series", {}, math.nan)])
    def test_rejects_out_of_range_settings(self, route, params, n_max):
        # these used to pass the dispatch and fail at the first evaluation
        with pytest.raises(ValueError):
            named_evaluator(dict(params, s1=1, s2=-1), route, "sign", n_max)

    @pytest.mark.parametrize("route,setting", [
        ("oracle", {"oracle_dim": 120.7}), ("integral", {"quad_order": 8.9}),
        ("series", {"oracle_dim": math.nan}), ("series", {"quad_order": math.inf}),
        ("series", {"n_max": 200.5}), ("oracle", {"n_max": 200.5})])
    def test_rejects_fractional_settings(self, route, setting):
        # these used to be truncated by int(), evaluating at dim 120 or order
        # 8; a fractional n_max summed 201 orders
        params = dict(setting, s1=1, s2=-1, x0=0.5)
        n_max = params.pop("n_max", 200)
        with pytest.raises(ValueError, match=next(iter(setting))):
            named_evaluator(params, route, "sign", n_max)
        with pytest.raises(ValueError, match="n_max"):
            TruncationConfig(n_max=200.5)

    def test_whole_float_settings_are_taken(self):
        evaluator, _ = named_evaluator({"s1": 1, "s2": -1, "x0": 0.5, "oracle_dim": 120.0},
                                       "oracle", "sign")
        assert evaluator(1.3, with_info=True)[1].dim == 120
        evaluator, _ = named_evaluator({"s1": 1, "s2": -1, "x0": 0.5, "quad_order": 16.0},
                                       "integral", "sign")
        assert evaluator(1.3) == named_evaluator(
            {"s1": 1, "s2": -1, "x0": 0.5, "quad_order": 16}, "integral", "sign")[0](1.3)
        evaluator, curve = named_evaluator({"s1": 1, "s2": -1, "x0": 0.5}, "series", "sign",
                                           200.0)
        assert evaluator(1.3, with_info=True)[1].n_used == 200
        assert evaluator.trunc.n_max == 200 and type(evaluator.trunc.n_max) is int
        assert TruncationConfig(n_max=200.0).n_max == 200

    @pytest.mark.parametrize("route,projector,params", [
        ("series", "sign", {"x0": 0.4, "p0": 1.1, "r": 0.3}),
        ("series", "sign", {"x0": 0.4, "p0": 1.1, "r": 0.3, "n_th": 0.8}),
        ("series", "window", {"r": 0.3, "L": 1.02}),
        ("integral", "sign", {"x0": 0.4, "p0": 1.1, "offset": OffsetFunction(0.6, 0.9, 0.2)}),
        ("oracle", "sign", {"x0": 0.4, "p0": 1.1, "n_th": 0.8, "oracle_dim": 120}),
        ("oracle", "window", {"r": 0.3, "L": 1.02, "oracle_dim": 120}),
        ("oracle", "sign", {"x0": 0.4, "p0": 1.1, "offset": OffsetFunction(0.6, 0.9, 0.2),
                            "oracle_dim": 120}),
    ])
    def test_curve_matches_evaluator(self, route, projector, params):
        params = dict(params, s1=1, s2=-1, t1=0.3)
        evaluator, curve = named_evaluator(params, route, projector, 120)
        grid = np.array([0.9, 1.7, 2.4])
        values = curve(grid)
        for t2, q in zip(grid, values):
            assert q == pytest.approx(evaluator(t2), abs=1e-12)
        q, info = evaluator(1.7, with_info=True)
        assert q == evaluator(1.7)
        kind = {"series": SeriesInfo, "integral": IntegralInfo, "oracle": OracleInfo}[route]
        assert isinstance(info, kind)
        if route == "oracle":
            assert info.dim == 120


class TestDifferenceSlope:
    """The integral and oracle evaluators' slope: each probe is one call of
    the route's t2-array kernel at (t2, t2 - XATOL, t2 + XATOL), whose q is
    the point call's bit for bit and whose dq/dt2 is the central difference
    of the other two columns."""

    CASES = [("integral", {}), ("integral", {"offset": OffsetFunction(0.4, 0.3, 0.1)}),
             ("oracle", {"oracle_dim": 150}), ("oracle", {"n_th": 0.5, "oracle_dim": 150})]
    IDS = ["integral", "integral_offset", "oracle", "oracle_thermal"]

    @staticmethod
    def _spy(monkeypatch, route) -> list:
        """The t2 arrays of the route's kernel calls: ``_q_integral`` as the
        integral curve calls it, or ``fock._oracle``."""
        module, name = (scan, "_q_integral") if route == "integral" else (fock, "_oracle")
        real, calls = getattr(module, name), []

        def spy(*args):
            calls.append(np.array(args[5]))
            return real(*args)
        monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("route,extra", CASES, ids=IDS)
    def test_one_kernel_call_per_probe(self, monkeypatch, route, extra):
        evaluator, _ = named_evaluator(dict(extra, s1=1, s2=-1, t1=0.3, x0=0.4, p0=1.1, r=0.3,
                                            theta0=0.2), route, "sign")
        calls = self._spy(monkeypatch, route)
        for t2 in np.random.default_rng(4).uniform(0.0, TWO_PI, 12).tolist() + [0.3]:
            q, dq = evaluator.slope(t2)
            assert len(calls) == 1
            assert calls.pop().tolist() == [t2, t2 - scan.XATOL, t2 + scan.XATOL]
            assert repr(q) == repr(evaluator(t2))
            assert type(dq) is float and math.isfinite(dq)
            calls.clear()

    @pytest.mark.parametrize("route,extra", CASES, ids=IDS)
    def test_slope_is_the_derivative(self, route, extra):
        # against a Richardson difference of point calls of step 1e-2, away
        # from the separations where the two quadratures commute
        params = dict(extra, s1=-1, s2=1, t1=0.3, x0=-0.6, p0=0.8, r=0.5, theta0=0.2)
        evaluator, _ = named_evaluator(params, route, "sign")
        e1, checked = mode_e(0.3, 0.5, 0.2), 0
        for t2 in np.random.default_rng(6).uniform(0.0, TWO_PI, 20).tolist():
            if abs(math.sin(np.angle(mode_e(t2, 0.5, 0.2) * np.conj(e1)))) < 0.1:
                continue
            diff = lambda h: (evaluator(t2 + h) - evaluator(t2 - h)) / (2.0 * h)
            richardson = (4.0 * diff(5e-3) - diff(1e-2)) / 3.0
            assert abs(evaluator.slope(t2)[1] - richardson) < 1e-5
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("route,extra", [
        ("integral", {"offset_amp": 0.4}), ("oracle", {"n_th": 0.5, "oracle_dim": 150})])
    def test_refine_evals_counts_one_per_probe(self, monkeypatch, route, extra):
        # each searched cell makes one coarse curve call; every other kernel
        # call is one probe, which refine_evals counts once
        cfg = ScanConfig(plane="x0p0", route=route, s1=1, s2=-1, r=0.5, axis1_min=-1.0,
                         axis1_max=1.0, axis1_steps=2, axis2_min=0.3, axis2_max=2.0,
                         axis2_steps=2, t2_coarse_steps=40, t2_refine_iters=20, **extra)
        calls = self._spy(monkeypatch, route)
        res = scan_plane(cfg)
        assert res.n_failed == 0 and res.refine_capped == 0 and res.mirror_filled == 0
        probes = [t2 for t2 in calls if t2.size == 3]
        assert len(calls) - len(probes) == 4
        assert res.refine_evals == len(probes) > 4
        assert all(np.array_equal(t2[1:], [t2[0] - scan.XATOL, t2[0] + scan.XATOL])
                   for t2 in probes)


class TestScanConfigValidation:
    def test_good_config(self):
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1,
                         axis1_steps=3, axis2_steps=3)
        assert cfg.axis1_name == "x0"
        assert len(cfg.axis1_values()) == 3

    def test_single_step_axis_pins_value(self):
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=1,
                         axis1_min=0.7, axis1_steps=1, axis2_min=-0.2, axis2_steps=1)
        assert list(cfg.axis1_values()) == [0.7]
        assert list(cfg.axis2_values()) == [-0.2]

    def test_whole_float_counts_are_stored_as_ints(self):
        counts = dict(n_max=60.0, t2_coarse_steps=20.0, t2_refine_iters=5.0,
                      quad_order=16.0, oracle_dim=100.0)
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, **counts)
        for name, value in counts.items():
            stored = getattr(cfg, name)
            assert type(stored) is int and stored == value
        result = scan_plane(dataclasses.replace(cfg, axis1_steps=1, axis2_steps=1))
        manifest = build_manifest(result, scan_csv_text(result), 0.0)
        # the manifest's resolved config echoes 60, not 60.0
        assert json.dumps(manifest["config"]["n_max"]) == "60"
        assert json.dumps(manifest["settings"]["t2_coarse_steps"]) == "20"

    def test_plane_names_the_projector(self):
        assert ScanConfig(plane="x0p0", route="series", s1=1, s2=1).projector == "sign"
        assert ScanConfig(plane="rL", route="series", s1=1, s2=1, axis1_min=0.0,
                          axis2_min=0.5).projector == "window"

    def test_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            ScanConfig(plane="rL", route="integral", s1=1, s2=1,
                       axis1_min=0.0, axis2_min=0.5)
        with pytest.raises(ValueError):
            ScanConfig(plane="x0p0", route="integral", s1=1, s2=1, n_th=0.5)
        with pytest.raises(ValueError):
            ScanConfig(plane="x0p0", route="series", s1=2, s2=1)

    def test_window_scan_rejects_offset(self):
        with pytest.raises(ValueError, match="offset"):
            ScanConfig(plane="rL", route="series", s1=1, s2=1,
                       axis1_min=0.0, axis2_min=0.5, offset_const=0.3)

    @pytest.mark.parametrize("route", ["series", "oracle"])
    def test_rl_plane_rejects_fixed_r(self, route):
        # the first axis supplies r; a fixed r used to be overwritten unread
        with pytest.raises(ValueError, match="r must be 0"):
            ScanConfig(plane="rL", route=route, s1=1, s2=1, r=0.7,
                       axis1_min=0.0, axis2_min=0.5)

    @pytest.mark.parametrize("bad", [
        dict(route="oracle", oracle_dim=700), dict(route="integral", quad_order=4),
        dict(route="series", n_max=200000), dict(route="series", t2_coarse_steps=1),
        dict(route="series", t2_refine_iters=-1), dict(route="series", t2_max=0.0),
        dict(route="series", t2_max=math.inf), dict(route="series", t2_min=-math.inf),
        dict(route="series", omega=0.0), dict(route="series", omega=math.nan),
        dict(route="series", omega=-1.0), dict(route="series", omega=math.inf),
        dict(route="integral", quad_order=100000),
        # out of range for a route the config does not run
        dict(route="series", oracle_dim=2000), dict(route="integral", oracle_dim=2000),
        dict(route="series", quad_order=4), dict(route="oracle", quad_order=4),
        dict(route="oracle", n_max=200000), dict(route="integral", n_max=200000),
        dict(route="series", plane="xp"), dict(route="series", axis1_steps=0),
        dict(route="oracle", axis2_steps=0),
        # a non-finite t1 used to make every cell NaN
        *[dict(route=route, t1=t1) for route in scan.ROUTES for t1 in (math.nan, math.inf)],
        # fractional or NaN counts used to raise TypeError, or to be taken
        dict(route="series", axis1_steps=2.5), dict(route="series", axis2_steps=math.nan),
        dict(route="series", t2_coarse_steps=200.5), dict(route="series", t2_refine_iters=2.5),
        dict(route="oracle", t2_coarse_steps=math.nan)])
    def test_rejects_settings_that_would_fail_every_cell(self, bad):
        with pytest.raises(ValueError):
            ScanConfig(**{"plane": "x0p0", "s1": 1, "s2": -1, **bad})

    def test_window_scan_rejects_thermal_state(self):
        # the window kernel covers squeezed vacuum only; n_th must not be dropped
        with pytest.raises(ValueError, match="squeezed vacuum"):
            ScanConfig(plane="rL", route="series", s1=1, s2=1,
                       axis1_min=0.0, axis2_min=0.5, n_th=0.9)

    @pytest.mark.parametrize("far", [
        dict(axis1_max=-0.5, axis1_steps=3), dict(axis2_max=0.0, axis2_steps=3)])
    def test_window_grid_checked_at_far_corner(self, far):
        # r < 0 or L <= 0 at the far corner used to pass and fail those cells
        base = dict(plane="rL", route="series", s1=1, s2=1,
                    axis1_min=0.5, axis1_max=0.8, axis1_steps=2,
                    axis2_min=1.0, axis2_max=1.2, axis2_steps=2)
        ScanConfig(**base)
        with pytest.raises(ValueError):
            ScanConfig(**dict(base, **far))

    def test_thermal_n_max_below_occupation_cut(self):
        # n_th = 1.5 cuts the occupation sum at m = 54; every cell used to fail
        with pytest.raises(TruncationError, match="occupation cut"):
            ScanConfig(plane="x0p0", route="series", s1=1, s2=1, n_th=1.5, n_max=20)
        ScanConfig(plane="x0p0", route="oracle", s1=1, s2=1, n_th=1.5, n_max=20,
                   oracle_dim=120)


class TestScanPlane:
    def test_parity_pair_on_single_cell(self):
        base = dict(plane="x0p0", route="series", t1=0.0, r=0.0,
                    axis1_min=0.0, axis1_steps=1, axis2_min=0.0, axis2_steps=1,
                    t2_coarse_steps=80, t2_refine_iters=20, n_max=150)
        r1 = scan_plane(ScanConfig(s1=1, s2=-1, **base))
        r2 = scan_plane(ScanConfig(s1=-1, s2=1, **base))
        assert r1.q_min[0, 0] == pytest.approx(r2.q_min[0, 0], abs=1e-10)

    def test_grid_and_global_minimum(self):
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5,
                         axis1_min=-1.2, axis1_max=-0.6, axis1_steps=3,
                         axis2_min=0.9, axis2_max=1.5, axis2_steps=3,
                         t2_coarse_steps=100, t2_refine_iters=25, n_max=200)
        res = scan_plane(cfg)
        assert res.q_min.shape == (3, 3)
        assert res.n_failed == 0
        k = np.argmin(res.q_min)
        i, j = divmod(k, 3)
        assert res.global_min == res.q_min[i, j]
        assert res.global_argmin[0] == res.axis1[i]
        assert res.global_argmin[1] == res.axis2[j]
        assert res.global_min >= -0.125 - 1e-6

    @staticmethod
    def _assert_workers_do_not_change_bytes(n_th):
        cfg = ScanConfig(plane="x0p0", route="series", s1=-1, s2=1, r=0.3,
                         n_th=n_th,
                         axis1_min=-1.0, axis1_max=1.0, axis1_steps=3,
                         axis2_min=-1.0, axis2_max=1.0, axis2_steps=3,
                         t2_coarse_steps=60, t2_refine_iters=15, n_max=120)
        res = scan_plane(cfg, workers=1)
        assert res.n_failed == 0
        assert scan_csv_text(res) == scan_csv_text(scan_plane(cfg, workers=2))

    def test_workers_do_not_change_bytes(self):
        self._assert_workers_do_not_change_bytes(0.0)

    def test_workers_do_not_change_bytes_thermal(self):
        self._assert_workers_do_not_change_bytes(0.8)

    @pytest.mark.parametrize("rows,workers,pool", [(1, 8, None), (3, 8, 3), (3, 2, 2),
                                                   (3, 1, None)])
    def test_the_pool_has_at_most_one_worker_per_row(self, monkeypatch, rows, workers, pool):
        # a one-row scan runs in-process, however many workers it may use
        sizes = []

        class Pool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks, chunksize=1):
                return list(map(func, tasks))

        monkeypatch.setattr(scan, "get_context",
                            lambda method: type("Context", (), {"Pool": Pool}))
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.3,
                         axis1_min=-1.0, axis1_max=1.0, axis1_steps=rows, axis2_min=0.5,
                         axis2_max=1.0, axis2_steps=2, t2_coarse_steps=20, t2_refine_iters=5,
                         n_max=60)
        res = scan_plane(cfg, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert scan_csv_text(res) == scan_csv_text(scan_plane(cfg))

    def test_route_independence_on_subgrid(self):
        base = dict(plane="x0p0", s1=1, s2=-1, t1=0.0, r=0.3,
                    axis1_min=-1.5, axis1_max=-0.5, axis1_steps=5,
                    axis2_min=0.8, axis2_max=1.6, axis2_steps=5,
                    t2_min=0.05, t2_max=2 * math.pi, t2_coarse_steps=150,
                    t2_refine_iters=40, n_max=300)
        res_series = scan_plane(ScanConfig(route="series", **base))
        res_integral = scan_plane(ScanConfig(route="integral", **base))
        assert np.max(np.abs(res_series.q_min - res_integral.q_min)) < 5e-4
        assert np.max(np.abs(res_series.t2_argmin - res_integral.t2_argmin)) < 0.01

    @pytest.mark.parametrize("route,extra", [
        ("series", {}), ("series", {"n_th": 0.8}), ("integral", {"offset_amp": 0.4}),
        ("oracle", {"oracle_dim": 120})])
    def test_omega_rescales_times_only(self, route, extra):
        # the kernels see omega*t: t1 = 0.3 and t2 in [0, pi] at omega = 2 is
        # the omega = 1 scan at t1 = 0.6, t2 in [0, 2 pi], with t2 halved
        base = dict(plane="x0p0", route=route, s1=1, s2=-1, r=0.3, theta0=0.4,
                    axis1_min=-0.8, axis1_max=0.4, axis1_steps=2,
                    axis2_min=0.9, axis2_max=1.5, axis2_steps=2,
                    t2_coarse_steps=40, t2_refine_iters=12, n_max=120, **extra)
        fast = scan_plane(ScanConfig(omega=2.0, t1=0.3, t2_max=math.pi, **base))
        unit = scan_plane(ScanConfig(t1=0.6, t2_max=2 * math.pi, **base))
        assert fast.n_failed == unit.n_failed == 0
        assert fast.q_min.tobytes() == unit.q_min.tobytes()
        assert fast.t2_argmin.tobytes() == (unit.t2_argmin / 2).tobytes()
        assert fast.global_argmin[2] == unit.global_argmin[2] / 2

    @staticmethod
    def _cell_by_cell(cfg):
        """Each cell of ``cfg`` minimized alone, through its own curve."""
        q = np.full((cfg.axis1_steps, cfg.axis2_steps), math.nan)
        t2 = np.full_like(q, math.nan)
        for i, a1 in enumerate(cfg.axis1_values()):
            for j, a2 in enumerate(cfg.axis2_values()):
                q[i, j], t2[i, j] = minimize_over_t2(
                    *scan._cell_evaluator(cfg, float(a1), float(a2)), cfg.t2_search())
        return q, t2 / cfg.omega

    @pytest.mark.parametrize("cells", [1, 6, 41])
    def test_row_batches_change_no_bit(self, cells):
        # a row's coarse curves come from one batched call; any worker count
        # and the cell-by-cell search give the same bytes in every searched
        # cell; at theta0 = 0.5 no cell has a mirror, and every cell is searched
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5,
                         axis1_min=-1.0, axis1_max=0.5, axis1_steps=2,
                         axis2_min=-2.5, axis2_max=2.5, axis2_steps=cells,
                         t2_coarse_steps=60, t2_refine_iters=12, n_max=80)
        assert_cells_match_their_own_search(cfg, True)
        assert_cells_match_their_own_search(dataclasses.replace(cfg, theta0=0.5), False)

    def test_window_rows_change_no_bit(self):
        cfg = ScanConfig(plane="rL", route="series", s1=1, s2=1,
                         axis1_min=0.0, axis1_max=0.4, axis1_steps=2,
                         axis2_min=0.8, axis2_max=1.3, axis2_steps=5,
                         t2_min=0.05, t2_max=math.pi, t2_coarse_steps=50,
                         t2_refine_iters=10, n_max=100)
        res = scan_plane(cfg)
        q, t2 = self._cell_by_cell(cfg)
        assert res.q_min.tobytes() == q.tobytes()
        assert res.t2_argmin.tobytes() == t2.tobytes()

    def test_failing_cell_fails_alone(self, monkeypatch):
        # one cell whose curve raises makes the row's batched call raise; the
        # row is redone cell by cell, and only that cell is NaN (theta0 = 0.5
        # searches every cell: no cell is filled from its mirror)
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5, theta0=0.5,
                         axis1_min=0.5, axis1_steps=1,
                         axis2_min=-2.5, axis2_max=2.5, axis2_steps=6,
                         t2_coarse_steps=40, t2_refine_iters=8, n_max=60)
        clean = scan_plane(cfg)
        assert clean.mirror_filled == 0
        bad_p0 = float(cfg.axis2_values()[2])
        real = series._q_pure

        def failing(inputs, column, *args):
            # column[0] is the batch's list of states
            if any(abs(s.p0 - bad_p0) < 1e-12 for s in column[0]):
                raise FloatingPointError("injected")
            return real(inputs, column, *args)

        monkeypatch.setattr(series, "_q_pure", failing)
        res = scan_plane(cfg)
        assert res.n_failed == 1
        assert np.flatnonzero(np.isnan(res.q_min[0])).tolist() == [2]
        keep = ~np.isnan(res.q_min)
        assert res.q_min[keep].tobytes() == clean.q_min[keep].tobytes()
        assert res.t2_argmin[keep].tobytes() == clean.t2_argmin[keep].tobytes()

    @pytest.mark.parametrize("cells,t1", [(1, 0.0), (3, 0.0), (21, 0.0), (3, 0.4)])
    def test_thermal_row_batches_change_no_bit(self, cells, t1):
        # a thermal row's coarse curves come from one streamed call too; at
        # t1 != 0 each cell has its own fixed cut, and no cell has a mirror
        cfg = ScanConfig(plane="x0p0", route="series", s1=-1, s2=1, t1=t1, r=0.5,
                         n_th=1.54, axis1_min=-1.0, axis1_max=0.5, axis1_steps=2,
                         axis2_min=-2.5, axis2_max=2.5, axis2_steps=cells,
                         t2_coarse_steps=60, t2_refine_iters=12, n_max=80)
        assert_cells_match_their_own_search(cfg, t1 == 0)
        assert_cells_match_their_own_search(dataclasses.replace(cfg, theta0=0.5), False)

    @pytest.mark.parametrize("t1,builds", [(0.0, 1), (0.4, 3)])
    def test_thermal_row_builds_each_fixed_cut_once(self, t1, builds):
        # each cell's refinement reuses the t1 cut its row's batched curve
        # built; at t1 != 0 every cell has its own cut
        cfg = ScanConfig(plane="x0p0", route="series", s1=-1, s2=1, t1=t1, r=0.5,
                         n_th=1.5414940825367982, axis1_min=-2.5, axis1_steps=1,
                         axis2_min=-2.5, axis2_max=2.5, axis2_steps=3,
                         t2_coarse_steps=120, t2_refine_iters=30, n_max=200)
        series._thermal_fixed_cut.cache_clear()
        res = scan_plane(cfg)
        assert res.n_failed == 0 and res.refine_evals > 3
        assert series._thermal_fixed_cut.cache_info().misses == builds

    def test_failing_thermal_cell_fails_alone(self, monkeypatch):
        # the failing cell, p0 = 0, is searched and fills no mirror; the
        # cells at p0 < 0 are filled from those at -p0
        cfg = ScanConfig(plane="x0p0", route="series", s1=-1, s2=1, r=0.5, n_th=0.8,
                         axis1_min=0.5, axis1_steps=1,
                         axis2_min=-2.5, axis2_max=2.5, axis2_steps=5,
                         t2_coarse_steps=40, t2_refine_iters=8, n_max=60)
        clean = scan_plane(cfg)
        assert clean.mirror_filled == 2
        bad_p0 = float(cfg.axis2_values()[2])
        real = series._q_thermal

        def failing(state, *args, **kwargs):
            states = [state] if isinstance(state, scan.StateSpec) else state
            if any(abs(s.p0 - bad_p0) < 1e-12 for s in states):
                raise FloatingPointError("injected")
            return real(state, *args, **kwargs)

        monkeypatch.setattr(series, "_q_thermal", failing)
        res = scan_plane(cfg)
        assert res.n_failed == 1
        assert np.flatnonzero(np.isnan(res.q_min[0])).tolist() == [2]
        keep = ~np.isnan(res.q_min)
        assert res.q_min[keep].tobytes() == clean.q_min[keep].tobytes()
        assert res.t2_argmin[keep].tobytes() == clean.t2_argmin[keep].tobytes()

    def test_floor_breach_names_the_cell(self, monkeypatch):
        # one cell's coarse curve reads -0.2 everywhere; its refinement keeps
        # that value at t2 = 0, since the true q just inside is higher.  The
        # cell is p0 = 0, which is searched and is its own mirror.
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5,
                         axis1_min=0.5, axis1_steps=1,
                         axis2_min=-1.0, axis2_max=1.0, axis2_steps=3,
                         t2_coarse_steps=40, t2_refine_iters=8, n_max=60)
        real = series._q_pure

        def lowered_at(value):
            def kernel(inputs, column, *args):
                out = real(inputs, column, *args)
                out.q[[s.p0 == 0.0 for s in column[0]]] = value
                return out
            return kernel

        monkeypatch.setattr(series, "_q_pure", lowered_at(-0.2))
        with pytest.raises(ArithmeticError, match=r"q=-0\.200000 .* at x0=0\.5, p0=0\.0, t2=0\.0$"):
            scan_plane(cfg)
        # the bound is -1/8 - 1e-6
        monkeypatch.setattr(series, "_q_pure", lowered_at(-0.125 - 5e-7))
        assert scan_plane(cfg).global_argmin == (0.5, 0.0, 0.0)

    def test_failed_cells_marked_nan(self):
        # displacements that overflow a 20-level number basis make every cell
        # fail at evaluation; failures must be recorded, not raised
        cfg = ScanConfig(plane="x0p0", route="oracle", s1=1, s2=1, oracle_dim=20,
                         axis1_min=4.0, axis1_steps=1, axis2_min=4.0,
                         axis2_steps=2, axis2_max=5.0, t2_coarse_steps=20,
                         t2_refine_iters=5)
        res = scan_plane(cfg)
        assert res.n_failed == 2
        assert np.all(np.isnan(res.q_min))
        assert math.isnan(res.global_min)

    def test_window_plane(self):
        cfg = ScanConfig(plane="rL", route="series", s1=1, s2=1,
                         axis1_min=0.0, axis1_max=0.4, axis1_steps=2,
                         axis2_min=0.9, axis2_max=1.1, axis2_steps=2,
                         t2_min=0.05, t2_max=math.pi, t2_coarse_steps=80,
                         t2_refine_iters=20, n_max=200)
        res = scan_plane(cfg)
        assert res.n_failed == 0
        assert res.global_min < -0.04  # the window family violates clearly


class TestRefineBudget:
    """Deterministic counts of refinement evaluations on the benchmark's grids."""

    @staticmethod
    def _scan_counting(monkeypatch, cfg):
        """The scan of ``cfg`` and each cell's refinement evaluations, a (q,
        dq/dt2) probe counting as one."""
        evals = {}
        real = scan._cell_evaluator

        def counting(config, a1, a2):
            evaluator, curve = real(config, a1, a2)
            evals[a1, a2] = 0

            def probe(t2):
                evals[a1, a2] += 1
                return evaluator(t2)

            def slope(t2):
                evals[a1, a2] += 1
                return evaluator.slope(t2)
            probe.slope = slope
            return probe, curve

        monkeypatch.setattr(scan, "_cell_evaluator", counting)
        res = scan_plane(cfg)
        assert res.n_failed == 0 and res.refine_evals == sum(evals.values())
        return res, evals

    def test_sign_grid(self, monkeypatch):
        # the sign-scan grid: fig2a, 6 x 6 over +-2.5 (71 evaluations, the
        # cells at p0 < 0 being filled from their mirrors)
        cfg = dataclasses.replace(load_scan_config(CONFIGS / "fig2a.cfg"),
                                  axis1_steps=6, axis2_steps=6)
        res, evals = self._scan_counting(monkeypatch, cfg)
        assert res.refine_evals <= 150
        assert res.refine_capped == 0
        at_zero = [(a1, a2) for i, a1 in enumerate(res.axis1)
                   for j, a2 in enumerate(res.axis2) if res.t2_argmin[i, j] == 0.0]
        assert len(at_zero) == 8
        # only the cells at p0 > 0 are searched; a minimum at t2 = 0 folds
        # onto 0 in the mirror cell
        searched = [cell for cell in at_zero if cell[1] > 0]
        assert sorted(at_zero) == sorted(searched + [(a1, -a2) for a1, a2 in searched])
        assert set(evals) == {(a1, a2) for a1 in res.axis1 for a2 in res.axis2 if a2 > 0}
        assert all(evals[cell] == 1 for cell in searched)

    def test_thermal_grid(self, monkeypatch):
        # the thermal-scan grid: fig4_t05, 3 x 3 at temperature ratio 2 (20
        # evaluations)
        cfg = dataclasses.replace(load_scan_config(CONFIGS / "fig4_t05.cfg"),
                                  n_th=1.0 / math.expm1(0.5), axis1_steps=3, axis2_steps=3)
        res, _ = self._scan_counting(monkeypatch, cfg)
        assert res.refine_evals <= 40

    def test_cusp_grid(self, monkeypatch):
        # fig2c, 11 x 11: its p0 = 0 row has cusps at the commuting separation
        # t2 = pi inside the window (257 evaluations)
        cfg = dataclasses.replace(load_scan_config(CONFIGS / "fig2c.cfg"),
                                  axis1_steps=11, axis2_steps=11)
        res, _ = self._scan_counting(monkeypatch, cfg)
        assert res.refine_evals <= 550
        assert res.refine_capped == 0

    def test_capped_cells_are_counted(self):
        cfg = dataclasses.replace(load_scan_config(CONFIGS / "fig2a.cfg"),
                                  axis1_steps=6, axis2_steps=6, t2_refine_iters=2)
        res = scan_plane(cfg)
        # the 8 cells whose minimum is at t2 = 0 stop after their one end probe
        assert 0 < res.refine_capped <= res.q_min.size - 8
        assert res.refine_capped == scan_plane(cfg, workers=2).refine_capped

    @pytest.mark.parametrize("name,x0", [("fig2c", 2.5), ("fig2d", -2.5)])
    def test_commuting_cusp_cells_keep_their_exact_zero(self, name, x0):
        # on the p0 = 0 row the minimum is the exact value 0 at t2 = pi, where
        # the truncated series next to it reads about 1e-3
        cfg = dataclasses.replace(load_scan_config(CONFIGS / f"{name}.cfg"),
                                  axis1_min=x0, axis1_steps=1, axis2_min=0.0, axis2_steps=1)
        res = scan_plane(cfg)
        assert res.q_min[0, 0] == 0.0
        assert abs(res.t2_argmin[0, 0] - math.pi) < 1e-8


class TestMirror:
    """A time-reversal symmetric scan searches one cell of each mirror pair
    and fills the other from it."""

    #: a symmetric row: x0p0, t1 = 0, no offset, theta0 = 0, t2 in [0, 2 pi];
    #: a budget that no search spends, so that no search stops early on a
    #: path that its mirror does not take
    ROW = dict(plane="x0p0", route="series", s1=1, s2=-1, r=0.5, axis1_min=0.5, axis1_steps=1,
               axis2_min=-2.5, axis2_max=2.5, axis2_steps=6, t2_coarse_steps=40,
               t2_refine_iters=30, n_max=60)

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c", "fig2d", "fig4_t05"])
    def test_reduced_panels(self, name):
        # 9 x 9 over +-2.5: every p0 < 0 has its mirror on the grid (7 x 7
        # would not: linspace(-2.5, 2.5, 7) is not exactly antisymmetric)
        cfg = dataclasses.replace(load_scan_config(CONFIGS / f"{name}.cfg"),
                                  axis1_steps=9, axis2_steps=9)
        assert mirror_cells(cfg).sum() == 4
        res = assert_cells_match_their_own_search(cfg, True)
        manifest = build_manifest(res, scan_csv_text(res), 1.0)
        assert manifest["mirror_filled"] == 36
        # the searched p0 = 0 column runs its coarse curves on half the grid
        assert manifest["reflected"] == res.reflected == 9

    @pytest.mark.parametrize("overrides", [
        {"r": 0.0, "theta0": 0.5}, {"theta0": math.pi}, {"n_th": 0.8},
        {"route": "integral"}, {"route": "oracle", "oracle_dim": 120},
        {"t2_min": 1.0, "t2_max": 1.0 + TWO_PI}, {"omega": 2.0, "t2_max": math.pi},
        {"axis1_min": -1.0, "axis1_steps": 3, "axis2_min": -1.0, "axis2_max": 2.0,
         "axis2_steps": 4}], ids=["r0", "theta0_pi", "thermal", "integral", "oracle",
                                  "shifted_window", "omega2", "asymmetric_axis"])
    def test_symmetric_configs_fill_their_mirrors(self, overrides):
        # any route and n_th, any full-period window, at any omega; on an
        # asymmetric axis (-1, 0, 1, 2) only p0 = -1 has its mirror
        res = assert_cells_match_their_own_search(ScanConfig(**dict(self.ROW, **overrides)), True)
        assert res.refine_capped == 0
        if "axis2_steps" in overrides:
            assert res.mirror_filled == 3
        # only the asymmetric axis has a p0 = 0 column
        assert res.reflected == (3 if "axis2_steps" in overrides else 0)

    @pytest.mark.parametrize("overrides", [
        {"t1": 0.4}, {"theta0": 0.5}, {"theta0": -math.pi},
        {"route": "integral", "offset_amp": 0.4}, {"route": "integral", "offset_const": 0.1},
        {"t2_max": math.pi}, {"t2_max": TWO_PI + 1e-9},
        {"plane": "rL", "r": 0.0, "axis1_min": 0.0, "axis1_max": 0.4, "axis1_steps": 2,
         "axis2_min": 0.8, "axis2_max": 1.3, "axis2_steps": 5}],
        ids=["t1", "theta0", "theta0_minus_pi", "offset_amp", "offset_const", "half_period",
             "longer_window", "rL"])
    def test_a_broken_condition_searches_every_cell(self, overrides):
        res = assert_cells_match_their_own_search(ScanConfig(**dict(self.ROW, **overrides)), False)
        # every window cell of the rL plane is time-reversal invariant, and
        # [0, 2 pi] is two of its periods
        assert res.reflected == (10 if overrides.get("plane") == "rL" else 0)

    @pytest.mark.parametrize("overrides,reflected,mirrored", [
        ({}, 2, True), ({"n_th": 0.8}, 2, True), ({"r": 0.0, "theta0": 0.5}, 2, True),
        ({"theta0": 0.5}, 0, False), ({"t1": 0.4}, 0, False), ({"route": "integral"}, 2, True),
        ({"route": "oracle", "oracle_dim": 120}, 2, True),
        ({"route": "integral", "offset_amp": 0.4}, 0, False),
        ({"t2_max": math.pi}, 0, False), ({"t2_coarse_steps": 3}, 0, True)],
        ids=["sign", "thermal", "r0", "theta0", "t1", "integral", "oracle", "integral_offset",
             "half_period", "k3"])
    def test_reflected_counts_the_searched_half_grid_curves(self, overrides, reflected,
                                                             mirrored):
        # p0 in (-1, 0, 1) on two rows: the p0 = 0 cells are searched, and on
        # every route their coarse curves run on half the grid when the cell
        # and the grid allow it
        cfg = ScanConfig(**dict(self.ROW, axis1_steps=2, axis1_max=1.0, axis2_min=-1.0,
                                axis2_max=1.0, axis2_steps=3, **overrides))
        res = assert_cells_match_their_own_search(cfg, mirrored)
        assert res.reflected == reflected
        assert scan_plane(cfg, workers=2).reflected == reflected

    def test_a_failed_partner_fails_its_mirror(self, monkeypatch):
        cfg = ScanConfig(**self.ROW)
        clean = scan_plane(cfg)
        assert clean.mirror_filled == 3
        bad_p0 = float(cfg.axis2_values()[4])
        real = series._q_pure

        def failing(inputs, column, *args):
            # column[0] is the batch's list of states
            if any(abs(s.p0 - bad_p0) < 1e-12 for s in column[0]):
                raise FloatingPointError("injected")
            return real(inputs, column, *args)

        monkeypatch.setattr(series, "_q_pure", failing)
        res = scan_plane(cfg)
        assert res.n_failed == 2
        assert np.flatnonzero(np.isnan(res.q_min[0])).tolist() == [1, 4]
        assert np.isnan(res.t2_argmin[0, [1, 4]]).all()
        keep = ~np.isnan(res.q_min)
        assert res.q_min[keep].tobytes() == clean.q_min[keep].tobytes()
        assert res.t2_argmin[keep].tobytes() == clean.t2_argmin[keep].tobytes()

    @pytest.mark.parametrize("t2_min", [0.0, 0.5])
    def test_fill_folds_the_argmin_into_the_window(self, monkeypatch, t2_min):
        # a searched minimum at t2 maps to -t2 folded into the window, in the
        # search's omega units; on a window from 0 both ends map to 0
        cfg = ScanConfig(**dict(self.ROW, omega=2.0, t2_min=t2_min, t2_max=t2_min + math.pi))
        lo, hi = cfg.t2_search().t2_min, cfg.t2_search().t2_max
        found = {}

        def fixed_search(config, a1, a2, search):
            yield from ()
            return scan.T2Minimum(-0.01 * a2, found[a2])

        monkeypatch.setattr(scan, "_kept_search", fixed_search)
        for t2 in (lo, hi, 0.5 * (lo + hi), lo + 1e-3, hi - 1e-3):
            found.update({float(p0): t2 for p0 in cfg.axis2_values()})
            res = scan_plane(cfg)
            assert res.mirror_filled == 3
            assert res.q_min[0, :3].tolist() == res.q_min[0, :2:-1].tolist()
            assert res.t2_argmin[0, 3:].tolist() == [t2 / 2.0] * 3
            folded = lo + (-t2 - lo) % (hi - lo)
            assert res.t2_argmin[0, :3].tolist() == [folded / 2.0] * 3
            assert lo <= folded < hi
            if lo == 0.0 and t2 in (lo, hi):
                assert folded == 0.0


class TestGlobalMinimize:
    @pytest.mark.parametrize("free,fixed", [
        ({"x0": (0.3, 0.6)}, {}), ({"x0": (0.3, 0.6)}, {"t2": 1.1}),
        ({"x0": (0.3, 0.6), "t2": (1.1, 1.1)}, {}),
        ({"x0": (0.3, 0.6), "p0": (0.4, 0.4), "t2": (0.0, TWO_PI)}, {}),
        ({"t2": (0.0, TWO_PI)}, {"x0": 0.3})])
    def test_rejects_pinned_or_missing_bounds(self, monkeypatch, free, fixed):
        # t2 is always searched and every other free name spans an interval;
        # a pinned value goes in fixed.  Nothing may be evaluated first.
        monkeypatch.setattr(scan, "minimize_over_t2", None)
        with pytest.raises(ValueError):
            global_minimize(free=free, fixed=dict({"s1": 1, "s2": 1}, **fixed))

    @pytest.mark.parametrize("counts", [
        dict(coarse_steps=0), dict(coarse_steps=2.5), dict(coarse_steps=math.nan),
        dict(n_starts=0), dict(n_starts=-2), dict(n_starts=2.5), dict(n_starts=math.inf)])
    def test_rejects_bad_counts(self, monkeypatch, counts):
        # coarse_steps=0 used to fail unpacking and 2.5 with a TypeError, and
        # n_starts=-2 ran one start.  Nothing may be evaluated first.
        monkeypatch.setattr(scan, "named_evaluator", None)
        with pytest.raises(ValueError, match=next(iter(counts))):
            global_minimize(free={"x0": (-1.0, 1.0), "t2": (0.0, TWO_PI)},
                            fixed={"s1": 1, "s2": -1}, **counts)

    def test_reports_all_starts(self):
        res = global_minimize(
            free={"x0": (-1.5, 1.5), "p0": (0.5, 2.0), "t2": (0.0, TWO_PI)},
            fixed={"s1": 1, "s2": -1, "r": 0.0, "t1": 0.0},
            route="series", coarse_steps=4, n_starts=2, t2_coarse=48,
            t2_refine=16, n_max=150, nm_maxiter=40)
        assert len(res.starts) == 2
        assert res.value <= min(s.value for s in res.starts) + 1e-15

    @pytest.mark.parametrize("extra", [
        {"x0": 1.5}, {"p0": -0.7}, {"n_th": 0.9}, {"offset": OffsetFunction(0.4, 0.2, 0.1)}])
    def test_window_rejects_displaced_thermal_or_offset(self, extra):
        # these used to be dropped, returning the squeezed-vacuum minimum
        with pytest.raises(ValueError):
            global_minimize(
                free={"L": (0.9, 1.1), "t2": (0.05, math.pi - 0.05)},
                fixed=dict({"s1": 1, "s2": 1, "r": 0.0, "t1": 0.0}, **extra),
                projector="window", coarse_steps=2, n_starts=1, t2_coarse=8,
                t2_refine=2, n_max=40, nm_maxiter=2)

    @pytest.mark.parametrize("free,fixed", [
        ({"x0": (-1.0, 1.0), "L": (0.5, 1.5)}, {}), ({"x0": (-1.0, 1.0)}, {"L": 1.0})])
    def test_sign_rejects_half_width(self, free, fixed):
        # a free L used to be searched and reported though it changes nothing
        with pytest.raises(ValueError, match="half-width"):
            global_minimize(
                free=dict(free, t2=(0.0, TWO_PI)), fixed=dict({"s1": 1, "s2": -1}, **fixed),
                coarse_steps=2, n_starts=1, t2_coarse=8, t2_refine=2, n_max=40,
                nm_maxiter=2)

    def test_rejects_unknown_free_parameter(self):
        # a misspelled free name used to be "minimized" and reported in the argmin
        with pytest.raises(ValueError, match="'P0'"):
            global_minimize(
                free={"x0": (-1, 1), "P0": (-2, 2), "t2": (0.0, TWO_PI)},
                fixed={"s1": 1, "s2": -1}, coarse_steps=2, n_starts=1, t2_coarse=8,
                t2_refine=2, n_max=40, nm_maxiter=2)

    @pytest.mark.parametrize("n_th", [0.0, 0.8])
    def test_each_point_searched_once(self, monkeypatch, n_th):
        searched = []
        real_evaluator = scan.named_evaluator

        def recording_evaluator(params, *args):
            searched.append((params["x0"], params["p0"]))
            return real_evaluator(params, *args)

        requests = [0]
        real_nm = scan._nelder_mead

        def counting_nm(*args):
            simplex, value = real_nm(*args), None
            while True:
                try:
                    x = simplex.send(value)
                except StopIteration as stop:
                    return stop.value
                requests[0] += 1
                value = yield x

        monkeypatch.setattr(scan, "named_evaluator", recording_evaluator)
        monkeypatch.setattr(scan, "_nelder_mead", counting_nm)
        fixed = {"s1": 1, "s2": -1, "r": 0.3, "t1": 0.0, "n_th": n_th}
        search = T2Search(0.0, TWO_PI, 48, 16)
        res = global_minimize(
            free={"x0": (-1.5, 1.5), "p0": (0.5, 2.0), "t2": (0.0, TWO_PI)},
            fixed=fixed, route="series", coarse_steps=4, n_starts=2,
            t2_coarse=search.coarse_steps, t2_refine=search.refine_iters,
            n_max=150, nm_maxiter=40)
        # grid points, Nelder-Mead probes, one value and one argmin per start,
        # and the winner's argmin
        requests = 4 * 4 + requests[0] + 2 * len(res.starts) + 1
        assert len(searched) == len(set(searched)) < requests

        # every reported minimum is exactly what a fresh t2 search gives
        for value, argmin in [(res.value, res.argmin)] + [
                (s.value, s.argmin) for s in res.starts]:
            params = {k: v for k, v in argmin.items() if k != "t2"}
            evaluator, curve = real_evaluator(params, "series", "sign", 150)
            assert minimize_over_t2(evaluator, curve, search) == (value, argmin["t2"])


class TestLockStep:
    """global_minimize runs its Nelder-Mead starts in lock-step rounds
    (scan._drive), one batched t2 curve call per round, with the results of
    running them one after another, and starts no thread."""

    @pytest.fixture
    def no_threads(self, monkeypatch):
        def refused(self):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", refused)

    @pytest.mark.parametrize("case", sorted(LOCK_STEP_CASES))
    def test_equals_the_sequential_starts(self, case):
        settings = LOCK_STEP_CASES[case]
        assert repr(global_minimize(**settings)) == repr(sequential_global_minimize(**settings))

    def test_one_start(self):
        settings = dict(LOCK_STEP_CASES["sign_panel"], n_starts=1)
        res = global_minimize(**settings)
        assert len(res.starts) == 1
        assert repr(res) == repr(sequential_global_minimize(**settings))

    def test_rounds_batch_the_starts_points(self, monkeypatch):
        calls, searched = [], set()
        real_rows, real_evaluator = scan._cell_calls, scan.named_evaluator

        def counting_rows(cells, grid, slope):
            calls.append(len(cells))
            return real_rows(cells, grid, slope)

        def recording_evaluator(params, *args):
            searched.add((params["x0"], params["p0"]))
            return real_evaluator(params, *args)

        monkeypatch.setattr(scan, "_cell_calls", counting_rows)
        monkeypatch.setattr(scan, "named_evaluator", recording_evaluator)
        global_minimize(**LOCK_STEP_CASES["sign_panel"])
        # the coarse grid is the first call; the starts' points follow in rounds
        assert calls[0] == 16 and sum(calls) == len(searched)
        assert len(calls) - 1 < len(searched) - 16
        assert max(calls[1:]) == 3

    @pytest.mark.parametrize("k", [5, 20, 30])
    def test_an_evaluation_error_is_raised_and_no_thread_is_left(self, monkeypatch, no_threads,
                                                                 k):
        # the coarse grid takes the first 16 calls, the rounds the later ones
        real_evaluator, calls = scan.named_evaluator, [0]

        def failing_evaluator(params, *args):
            calls[0] += 1
            if calls[0] == k:
                raise RuntimeError(f"call {k}")
            return real_evaluator(params, *args)

        monkeypatch.setattr(scan, "named_evaluator", failing_evaluator)
        with pytest.raises(RuntimeError, match=f"call {k}"):
            global_minimize(**LOCK_STEP_CASES["sign_panel"])
        assert calls[0] == k

    @pytest.mark.parametrize("failing_start", [0, 2])
    def test_a_start_error_is_raised_and_no_thread_is_left(self, monkeypatch, no_threads,
                                                           failing_start):
        real_nm, started = scan._nelder_mead, []

        def failing_nm(x0, *args):
            started.append(x0)
            if len(started) == failing_start + 1:
                yield x0 * 0.9  # a new point: the start waits for a round first
                raise FloatingPointError("start failed")
            return (yield from real_nm(x0, *args))

        monkeypatch.setattr(scan, "_nelder_mead", failing_nm)
        with pytest.raises(FloatingPointError, match="start failed"):
            global_minimize(**LOCK_STEP_CASES["sign_panel"])
        assert len(started) == 3

    @pytest.mark.parametrize("route,extra", [
        ("series", {}), ("series", {"n_th": 0.8}), ("integral", {})])
    def test_no_thread_is_started(self, no_threads, route, extra):
        settings = dict(LOCK_STEP_CASES["sign_panel"], route=route, coarse_steps=3,
                        n_starts=2, t2_coarse=16, t2_refine=6, nm_maxiter=8)
        settings["fixed"] = dict(settings["fixed"], **extra)
        assert len(global_minimize(**settings).starts) == 2
        cfg = ScanConfig(plane="x0p0", route=route, s1=1, s2=-1, r=0.3, axis1_steps=2,
                         axis2_steps=3, t2_coarse_steps=16, t2_refine_iters=6, n_max=80,
                         **extra)
        assert scan_plane(cfg).n_failed == 0

    # _drive itself: generators, each yielding its requests, served one
    # round at a time on the calling thread

    @staticmethod
    def task(name, posts):
        for i in range(posts):
            yield (name, i)
        return name

    def test_rounds_serve_posts_in_task_order(self):
        served = []
        tasks = [self.task("a", 2), self.task("b", 0), self.task("c", 3)]
        assert scan._drive(tasks, lambda requests: served.append(requests)
                           or [None] * len(requests)) == ["a", "b", "c"]
        assert served == [[("a", 0), ("c", 0)], [("a", 1), ("c", 1)], [("c", 2)]]

    def test_each_task_reads_what_its_round_served(self):
        served = []

        def serve(requests):
            served.append(len(requests))
            assert [j for j, _ in requests] == sorted(j for j, _ in requests)
            return [2 * i + j for j, i in requests]

        def task(j):
            total = 0
            for i in range(40 + j):
                answer = yield (j, i)
                assert answer == 2 * i + j
                total += answer
            return total

        out = scan._drive([task(j) for j in range(8)], serve)
        assert out == [(40 + j) * (39 + j) + (40 + j) * j for j in range(8)]
        assert served == [8] * 40 + [7, 6, 5, 4, 3, 2, 1]

    def test_an_error_answer_is_raised_inside_its_task(self):
        def task(name):
            try:
                answer = yield name
            except KeyError as exc:
                return f"{name} caught {exc.args[0]}"
            return (yield answer)

        out = scan._drive([task("a"), task("b"), task("c")], lambda requests: [
            KeyError(r) if r == "b" else r.upper() for r in requests])
        assert out == ["A", "b caught b", "C"]

    def test_a_task_error_or_a_serve_error_reaches_the_caller(self):
        def failing():
            yield 1
            raise ValueError("task")

        with pytest.raises(ValueError, match="task"):
            scan._drive([self.task("a", 3), failing()], lambda requests: [0] * len(requests))

        def refusing(requests):
            raise OSError("serve")

        with pytest.raises(OSError, match="serve"):
            scan._drive([self.task("a", 3)], refusing)

    def test_tasks_without_requests(self):
        assert scan._drive([self.task("a", 0), self.task("b", 0)], None) == ["a", "b"]
        assert scan._drive([], None) == []


def _random_cell(rng, projector, t1=None):
    """A series cell of ``projector`` with drawn state, signs and t1."""
    if t1 is None:
        t1 = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
    s1, s2 = (int(v) for v in rng.choice([1, -1], 2))
    if projector == "window":
        params = {"s1": s1, "s2": s2, "t1": t1, "r": float(rng.uniform(0.0, 1.0)),
                  "theta0": float(rng.choice([0.0, 0.7])), "L": float(rng.uniform(0.5, 1.6))}
    else:
        params = {"s1": s1, "s2": s2, "t1": t1, "x0": float(rng.uniform(-2.5, 2.5)),
                  "p0": float(rng.uniform(-2.5, 2.5)), "r": float(rng.uniform(0.0, 1.0)),
                  "theta0": float(rng.choice([0.0, 0.7]))}
    return named_evaluator(params, "series", projector, 120)[0], t1


def _rows_taken(monkeypatch) -> list:
    """The pure cells, in order, to which a kernel call hands a t1 row
    (series._SeriesCell.take_row), once for each call that forms rows."""
    taken, real = [], series._SeriesCell.take_row

    def take_row(cell, row1):
        taken.append(cell)
        real(cell, row1)

    monkeypatch.setattr(series._SeriesCell, "take_row", take_row)
    return taken


class TestRoundKernel:
    """One round of probes of pure series cells is one (C, 1) call of the
    family's kernel, each answer equal bit for bit to the cell's own call."""

    @pytest.mark.parametrize("projector", ["sign", "window"])
    def test_equals_each_cells_own_call(self, projector):
        rng = np.random.default_rng(1 if projector == "sign" else 2)
        singular = 0
        for columns in range(1, 65):
            requests = []
            for _ in range(columns):
                cell, t1 = _random_cell(rng, projector)
                t2 = float(rng.uniform(0.0, TWO_PI))
                if rng.uniform() < 0.15:  # a commuting separation, or next to one
                    t2 = t1 + math.pi * int(rng.integers(1, 3)) + float(rng.choice([0.0, 1e-6]))
                phi = series._columns([cell.column[0]], t1, np.array([[t2]]))[4]
                singular += abs(math.sin(phi[0, 0])) < 1e-9
                requests.append(scan._Request(cell, t2))
            answers = scan._serve(requests)
            for request, answer in zip(requests, answers):
                cell = request.evaluator
                assert repr(answer) == repr(cell.slope(request.t2))
                assert repr(answer[0]) == repr(cell(request.t2))
        assert singular > 50

    def test_a_round_holds_each_cells_t1_pieces(self, monkeypatch):
        # 41 cells with distinct t1 cuts: each takes one t1 row, from its
        # first round, however many rounds and slope calls it probes in, past
        # the eigenfunction memo's 8 entries
        rng = np.random.default_rng(5)
        cells = [_random_cell(rng, "window", t1=0.3)[0] for _ in range(41)]
        taken = _rows_taken(monkeypatch)
        for t2 in (0.4, 0.9, 1.3):
            answers = scan._serve([scan._Request(cell, t2) for cell in cells])
            assert [repr(a) for a in answers] == [repr(cell.slope(t2)) for cell in cells]
        assert sorted(map(id, taken)) == sorted(map(id, cells))

    def test_each_cell_builds_its_t1_row_once(self, monkeypatch):
        # direct calls, slopes, probe rounds and curves, with the other
        # cells' calls in between, all read the row that the cell holds: each
        # cell takes one row, from its first call, a slope for 5 of them and
        # a row's batch curve for the other 5
        rng = np.random.default_rng(7)
        cells = [_random_cell(rng, "window", t1=0.3)[0] for _ in range(5)]
        curved = [_random_cell(rng, "window", t1=0.3)[0] for _ in range(5)]
        taken = _rows_taken(monkeypatch)
        grid = np.linspace(0.0, TWO_PI, 7)
        scan._serve([scan._Request(cell, grid, curve=cell.curve) for cell in curved])
        cells += curved
        for t2 in (0.4, 0.9, 1.3):
            for cell in cells:
                assert cell.slope(t2)[0] == cell(t2)
        scan._serve([scan._Request(cell, 2.1) for cell in cells])
        for cell in cells:
            cell.curve(grid)
        assert sorted(map(id, taken)) == sorted(map(id, cells))

    def test_each_thermal_cell_builds_its_t1_cut_once(self):
        cells = [named_evaluator({"s1": -1, "s2": 1, "t1": 0.4, "x0": x0, "p0": 0.7, "r": 0.5,
                                  "n_th": 0.8}, "series", "sign", 80)[0] for x0 in (-0.6, 0.9)]
        series._thermal_fixed_cut.cache_clear()
        for t2 in (0.5, 1.2, 2.9):
            for cell in cells:
                assert cell.slope(t2)[0] == cell(t2)
        scan._serve([scan._Request(cell, 2.1) for cell in cells])
        for cell in cells:
            cell.curve(np.linspace(0.0, TWO_PI, 7))
        assert series._thermal_fixed_cut.cache_info().misses == 2

    def test_thermal_and_integral_cells_are_served_by_their_own_calls(self):
        cells = [named_evaluator({"s1": 1, "s2": -1, "x0": 0.4, "p0": 1.1, "r": 0.3,
                                  "n_th": 0.8}, "series", "sign", 80)[0],
                 named_evaluator({"s1": 1, "s2": -1, "x0": 0.4, "p0": 1.1}, "integral",
                                 "sign", 80)[0]]
        requests = [scan._Request(cells[0], 1.3), scan._Request(cells[0], 1.4),
                    scan._Request(cells[1], 1.3)]
        assert scan._serve(requests) == [cells[0].slope(1.3), cells[0].slope(1.4),
                                         cells[1].slope(1.3)]

    def test_a_failing_probe_fails_its_cell_alone(self, monkeypatch):
        # the pure kernel raises for any round of probes (one t2 per column)
        # that holds one cell's probe, and not for its coarse curve; the
        # rounds are then served cell by cell, and only that cell is NaN
        # (theta0 = 0.5 searches every cell: no cell is filled from its mirror)
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5, theta0=0.5,
                         axis1_min=0.5, axis1_steps=1,
                         axis2_min=-2.5, axis2_max=2.5, axis2_steps=6,
                         t2_coarse_steps=40, t2_refine_iters=8, n_max=60)
        clean = scan_plane(cfg)
        assert clean.mirror_filled == 0
        bad, real = float(cfg.axis2_values()[4]), series._q_pure

        def failing(inputs, column, s1, s2, t1, t2, *args):
            # a round's t2 is (C, 1), and column[0] its list of states
            if t2.ndim == 2 and any(abs(s.p0 - bad) < 1e-12 for s in column[0]):
                raise FloatingPointError("injected")
            return real(inputs, column, s1, s2, t1, t2, *args)

        monkeypatch.setattr(series, "_q_pure", failing)
        res = scan_plane(cfg)
        assert res.n_failed == 1
        assert np.flatnonzero(np.isnan(res.q_min[0])).tolist() == [4]
        keep = ~np.isnan(res.q_min)
        assert res.q_min[keep].tobytes() == clean.q_min[keep].tobytes()
        assert res.t2_argmin[keep].tobytes() == clean.t2_argmin[keep].tobytes()

    @pytest.mark.parametrize("n_th", [0.0, 0.5])
    def test_a_folded_curve_rides_in_the_whole_grids_call(self, monkeypatch, n_th):
        # a row's p0 = 0 cell folds: its search asks for the first ceil(K/2)
        # points of the grid that the row's other cells ask for, and for its
        # window centre, and the round serves all three in one curve call
        # over the whole grid and the centre
        grid = T2Search(coarse_steps=120).grid()
        cells = [named_evaluator({"s1": 1, "s2": -1, "t1": 0.0, "x0": 0.4, "p0": p0, "r": 0.5,
                                  "theta0": 0.0, "n_th": n_th}, "series", "sign")[0]
                 for p0 in (0.0, 0.7, -1.3)]
        assert scan._folds(T2Search(coarse_steps=120), cells[0].period)
        requests = [scan._Request(cell, t2, cell.curve, centre) for cell, t2, centre
                    in zip(cells, (grid[:60], grid, grid), (math.pi, None, None))]
        calls, real = [], scan._cell_calls

        def counting(batch, t2, slope):
            calls.append((len(batch), len(t2)))
            return real(batch, t2, slope)

        monkeypatch.setattr(scan, "_cell_calls", counting)
        answers = scan._serve(requests)
        assert calls == [(3, 121)]
        for request, (values, probe) in zip(requests, answers):
            assert values.tobytes() == request.evaluator.curve(request.t2).tobytes()
        # t1 = 0 and t2 = pi is a commuting separation: the centre has no slope
        assert answers[0][1] == cells[0].slope(math.pi) == (cells[0](math.pi), None)
        assert answers[1][1] is answers[2][1] is None


class TestFoldedCentre:
    """A folded t2 search (scan._t2_search) asks its coarse curve for the
    window centre c too, where q is symmetric: the centre rides in the
    coarse call (scan._serve), and the refinement takes it as its first
    probe, not counted in ``evals``, when the best coarse point is the half
    grid's last (even K) or middle (odd K) point."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        """The t2 arrays of every series kernel call (series._cell_calls),
        curves and probe rounds alike, in order."""
        calls, real = [], series._cell_calls

        def counting(cells, t2, slope):
            calls.append(np.array(t2))
            return real(cells, t2, slope)

        monkeypatch.setattr(series, "_cell_calls", counting)
        monkeypatch.setattr(scan, "_cell_calls", counting)
        return calls

    @pytest.mark.parametrize("steps", [96, 97])
    def test_a_centre_minimum_costs_one_kernel_call(self, monkeypatch, steps):
        search = T2Search(0.05, math.pi - 0.05, steps, 32)
        centre = 0.5 * (search.t2_min + search.t2_max)
        cell, curve = named_evaluator({"s1": 1, "s2": 1, "t1": 0.0, "r": 0.5, "L": 1.03},
                                      "series", "window", 120)
        own = cell(centre)
        calls = self._counted(monkeypatch)
        found = minimize_over_t2(cell, curve, search)
        assert len(calls) == 1
        assert calls[0].tobytes() == np.append(search.grid()[:(steps + 1) // 2],
                                               centre).tobytes()
        assert found.reflected and found.evals == 0 and not found.capped
        if steps % 2:  # the middle grid point is c up to rounding, and kept when lower
            assert abs(found[1] - centre) <= math.ulp(centre)
            own = cell(found[1])
        else:
            assert found[1] == centre
        assert repr(found[0]) == repr(own)

    def test_a_singular_centre_has_no_slope(self, monkeypatch):
        # sign, s1 = s2, x0 = p0 = 0 and t1 = 0: t2 = pi is a commuting
        # separation, whose exact value 0 is the lowest, a cusp
        search = T2Search(0.0, TWO_PI, 40, 40)
        cell, curve = named_evaluator({"s1": 1, "s2": 1, "t1": 0.0, "x0": 0.0, "p0": 0.0,
                                       "r": 0.5}, "series", "sign", 120)
        answers, real = [], scan._serve
        monkeypatch.setattr(scan, "_serve", lambda requests: answers.append(real(requests))
                            or answers[-1])
        calls = self._counted(monkeypatch)
        found = minimize_over_t2(cell, curve, search)
        assert len(calls) == 1 and found.evals == 0
        assert answers[0][0][1] == cell.slope(math.pi) == (0.0, None)
        assert found == (0.0, math.pi)

    def test_a_higher_centre_without_a_slope_bisects_toward_the_best_point(self):
        # the best coarse points are the half grid's last point and its
        # mirror, and the centre is higher and has no slope: the search
        # shrinks its bracket to the best point's side and probes its midpoint
        search = T2Search(0.0, TWO_PI, 40, 40)
        grid, centre = search.grid(), math.pi
        half = (grid[:20] - centre) ** 2
        values = np.concatenate([half, half[::-1]])
        refine = scan._refine(None, grid, values, search, (centre, 1.0, None))
        probe = next(refine)
        assert probe.t2 == 0.5 * (grid[18] + centre)
        t2 = probe.t2
        with pytest.raises(StopIteration) as stop:
            refine.send((-1.0, None))  # the lowest point yet, without a slope
        assert stop.value.value == (-1.0, t2, 1)

    @pytest.mark.parametrize("route", ["integral", "oracle"])
    def test_integral_and_oracle_take_the_centre_from_their_curve(self, route):
        params = {"s1": 1, "s2": 1, "t1": 0.0, "x0": 0.4, "p0": 0.0, "r": 0.5,
                  "oracle_dim": 120}
        search = T2Search(0.0, TWO_PI, 40, 20)
        evaluator, curve = named_evaluator(params, route, "sign")
        grids, probes = [], []
        slope = evaluator.slope
        evaluator.slope = lambda t2: probes.append(t2) or slope(t2)
        found = minimize_over_t2(evaluator, lambda g: grids.append(g) or curve(g), search)
        assert len(grids) == 1 and probes == []
        assert grids[0].tobytes() == np.append(search.grid()[:20], math.pi).tobytes()
        assert found.evals == 0 and found[1] == math.pi
        assert repr(found[0]) == repr(evaluator(math.pi))

    def test_a_mixed_round_and_its_one_request_fallback(self, monkeypatch):
        search = T2Search(0.0, TWO_PI, 60, 30)
        cells = [named_evaluator({"s1": 1, "s2": -1, "t1": 0.0, "x0": 0.4, "p0": p0,
                                  "r": 0.5, "theta0": 0.0}, "series", "sign", 120)
                 for p0 in (0.7, 0.0, -1.3)]
        cells.append(named_evaluator({"s1": 1, "s2": 1, "t1": 0.0, "x0": 0.0, "p0": 0.0,
                                      "r": 0.5}, "series", "sign", 120))
        own = [minimize_over_t2(*cell, search) for cell in cells]
        assert [hasattr(cell[0], "period") for cell in cells] == [False, True, False, True]
        together = scan._drive([scan._t2_search(*cell, search) for cell in cells], scan._serve)
        assert repr(together) == repr(own)
        assert [(f.evals, f.reflected) for f in together] == [
            (f.evals, f.reflected) for f in own]
        # a round that mixes cells raises, so each request is served alone:
        # a folded cell's curve still ends on its centre
        calls = self._counted(monkeypatch)
        real = scan._cell_calls

        def single(batch, t2, slope):
            if len(batch) > 1:
                raise FloatingPointError("injected")
            return real(batch, t2, slope)

        monkeypatch.setattr(scan, "_cell_calls", single)
        alone = scan._drive([scan._t2_search(*cell, search) for cell in cells],
                            scan._serve_kept)
        assert repr(alone) == repr(own)
        ends = [t2[-1] for t2 in calls if t2.ndim == 1]
        assert ends == [search.grid()[-1], math.pi, search.grid()[-1], math.pi]


class TestNelderMead:
    """The Nelder-Mead generator takes scipy's steps bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["bowl", "ripple", "plateaus"]))
    # plateaus whose ties take both contractions' tie branches
    @example(dim=3, seed=53, shape="plateaus")
    def test_equals_scipy(self, dim, seed, shape):
        from scipy.optimize import minimize

        rng = np.random.default_rng(seed)
        center, scale = rng.uniform(-2.0, 2.0, dim), rng.uniform(0.2, 3.0, dim)
        x0 = rng.uniform(-2.0, 2.0, dim) * rng.choice([0.0, 1.0], dim)  # zeros too

        def f(x):
            value = float(np.sum(scale * (x - center) ** 2))
            if shape == "ripple":
                value += 0.3 * float(np.cos(5.0 * x).sum())
            elif shape == "plateaus":  # tied vertex values
                value = float(np.round(value, 1))
            return value

        options = {"maxiter": 120, "xatol": 1e-5, "fatol": 1e-10}  # global_minimize's
        want = minimize(f, x0, method="Nelder-Mead", options=options)
        x, fun = scan._drive([scan._nelder_mead(x0, 120, 1e-5, 1e-10)],
                             lambda points: [f(p) for p in points])[0]
        assert x.tobytes() == want.x.tobytes()
        assert repr(fun) == repr(want.fun)


