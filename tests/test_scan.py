import math

import numpy as np
import pytest

from lgqpd import (IntegralInfo, OffsetFunction, OracleInfo, ScanConfig,
                   SeriesInfo, T2Search, TruncationError, global_minimize,
                   minimize_over_t2, named_evaluator, scan, scan_plane)
from lgqpd.output import scan_csv_text

TWO_PI = 2 * math.pi


def pointwise(f):
    return lambda grid: [f(t) for t in grid]


class TestMinimizeOverT2:
    def test_cosine(self):
        q, t = minimize_over_t2(np.cos, np.cos, T2Search(0.0, TWO_PI, 200, 60))
        assert q == pytest.approx(-1.0, abs=1e-10)
        assert t == pytest.approx(math.pi, abs=1e-6)

    def test_curve_and_pointwise_coarse_grid_agree(self):
        search = T2Search(0.0, TWO_PI, 120, 40)
        q1, t1 = minimize_over_t2(np.cos, pointwise(np.cos), search)
        q2, t2 = minimize_over_t2(np.cos, np.cos, search)
        assert q1 == q2 and t1 == t2

    def test_coarse_grid_from_curve_refinement_from_evaluator(self):
        grid = np.linspace(0.0, TWO_PI, 50)
        i = int(np.argmin(np.cos(grid)))
        for refine_iters in (1, 3, 12):
            grids, points = [], []
            q, _ = minimize_over_t2(lambda t: points.append(t) or math.cos(t),
                                    lambda g: grids.append(g) or np.cos(g),
                                    T2Search(0.0, TWO_PI, 50, refine_iters))
            assert len(grids) == 1
            assert np.array_equal(grids[0], grid)
            # Brent's evaluation cap, of which scipy spends at least 2
            assert 0 < len(points) <= max(refine_iters, 2)
            assert all(grid[i - 1] <= t <= grid[i + 1] for t in points)
            assert q <= np.cos(grid).min()

    def test_refinement_precision_independent_of_window_origin(self):
        # a cusp, as at a degenerate separation, found to about XATOL both
        # near t2 = 0 and a hundred units out
        for origin in (0.0, 100.0):
            t_star = origin + 1.2345678
            t = minimize_over_t2(lambda t: abs(t - t_star),
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
        # a dip too narrow for Brent to find sits on the best grid point
        grid = np.linspace(0.0, TWO_PI, 50)
        i = int(np.argmin(np.cos(grid)))
        f = lambda t: np.cos(t) - 0.5 * np.exp(-((t - grid[i]) / 1e-6) ** 2)
        q, t = minimize_over_t2(f, f, T2Search(0.0, TWO_PI, 50, 8))
        assert (q, t) == (float(f(grid)[i]), float(grid[i]))

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
        ("integral", {"quad_order": 257}, 200)])
    def test_rejects_out_of_range_settings(self, route, params, n_max):
        # these used to pass the dispatch and fail at the first evaluation
        with pytest.raises(ValueError):
            named_evaluator(dict(params, s1=1, s2=-1), route, "sign", n_max)

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
        dict(route="integral", quad_order=100000)])
    def test_rejects_settings_that_would_fail_every_cell(self, bad):
        with pytest.raises(ValueError):
            ScanConfig(plane="x0p0", s1=1, s2=-1, **bad)

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
        real_nm = scan._nm_minimize

        def counting_nm(fun, x0, **kwargs):
            def counted(x):
                requests[0] += 1
                return fun(x)
            return real_nm(counted, x0, **kwargs)

        monkeypatch.setattr(scan, "named_evaluator", recording_evaluator)
        monkeypatch.setattr(scan, "_nm_minimize", counting_nm)
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
