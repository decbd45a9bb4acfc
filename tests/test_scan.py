import math

import numpy as np
import pytest

from lgqpd import (DEFAULT_UNITS, OffsetFunction, ScanConfig, StateSpec, T2Search,
                   TruncationConfig, global_minimize, minimize_over_t2,
                   named_evaluator, qpd_series_squeezed, scan, scan_plane)
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
        search = T2Search(0.0, TWO_PI, 50, 12)
        grids, points = [], []
        minimize_over_t2(lambda t: points.append(t) or math.cos(t),
                         lambda grid: grids.append(grid) or np.cos(grid), search)
        assert len(grids) == 1
        assert np.array_equal(grids[0], np.linspace(0.0, TWO_PI, 50))
        assert len(points) == 2 + search.refine_iters

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

    @pytest.mark.parametrize("route,projector,params", [
        ("series", "sign", {"x0": 0.4, "p0": 1.1, "r": 0.3}),
        ("series", "sign", {"x0": 0.4, "p0": 1.1, "r": 0.3, "n_th": 0.8}),
        ("series", "window", {"r": 0.3, "L": 1.02}),
        ("integral", "sign", {"x0": 0.4, "p0": 1.1, "offset": OffsetFunction(0.6, 0.9, 0.2)}),
        ("oracle", "sign", {"x0": 0.4, "p0": 1.1, "n_th": 0.8, "oracle_dim": 120}),
        ("oracle", "window", {"r": 0.3, "L": 1.02, "oracle_dim": 120}),
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
        assert (info is None) == (route == "oracle")


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

    def test_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            ScanConfig(plane="rL", route="series", s1=1, s2=1)  # needs window
        with pytest.raises(ValueError):
            ScanConfig(plane="rL", route="integral", s1=1, s2=1, projector="window",
                       axis1_min=0.0, axis2_min=0.5)
        with pytest.raises(ValueError):
            ScanConfig(plane="x0p0", route="integral", s1=1, s2=1, n_th=0.5)
        with pytest.raises(ValueError):
            ScanConfig(plane="x0p0", route="series", s1=2, s2=1)

    def test_window_projector_only_on_rl_plane(self):
        # the x0p0 plane would silently scan sign projectors
        with pytest.raises(ValueError, match="rL"):
            ScanConfig(plane="x0p0", route="series", s1=1, s2=1, projector="window")
        with pytest.raises(ValueError):
            ScanConfig(plane="rL", route="series", s1=1, s2=1, projector="window",
                       axis1_min=0.0, axis2_min=0.5, offset_const=0.3)

    @pytest.mark.parametrize("fixed", [dict(x0=1.5), dict(p0=-0.7), dict(n_th=0.9)])
    def test_window_scan_rejects_non_vacuum_state(self, fixed):
        # the window kernel covers squeezed vacuum only; these must not be dropped
        with pytest.raises(ValueError, match="squeezed vacuum"):
            ScanConfig(plane="rL", route="series", s1=1, s2=1, projector="window",
                       axis1_min=0.0, axis2_min=0.5, **fixed)


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

    def test_failed_cells_marked_nan(self):
        # n_max below the thermal occupation cut makes every cell fail;
        # failures must be recorded, not raised
        cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=1, n_th=1.5,
                         axis1_min=0.0, axis1_steps=1, axis2_min=0.0,
                         axis2_steps=2, axis2_max=1.0, t2_coarse_steps=20,
                         t2_refine_iters=5, n_max=10)
        res = scan_plane(cfg)
        assert res.n_failed == 2
        assert np.all(np.isnan(res.q_min))
        assert math.isnan(res.global_min)

    def test_window_plane(self):
        cfg = ScanConfig(plane="rL", route="series", s1=1, s2=1, projector="window",
                         axis1_min=0.0, axis1_max=0.4, axis1_steps=2,
                         axis2_min=0.9, axis2_max=1.1, axis2_steps=2,
                         t2_min=0.05, t2_max=math.pi, t2_coarse_steps=80,
                         t2_refine_iters=20, n_max=200)
        res = scan_plane(cfg)
        assert res.n_failed == 0
        assert res.global_min < -0.04  # the window family violates clearly


class TestGlobalMinimize:
    def test_degenerate_box_returns_point_evaluation(self):
        res = global_minimize(
            free={"x0": (0.55, 0.55), "p0": (1.93, 1.93), "t2": (0.0, TWO_PI)},
            fixed={"s1": -1, "s2": 1, "r": 0.0, "t1": 0.0}, route="series",
            n_max=300)
        state = StateSpec.from_phase_space(0.55, 1.93)
        f = lambda t2: qpd_series_squeezed(state, -1, 1, 0.0, t2,
                                           TruncationConfig(n_max=300))
        q, _ = minimize_over_t2(f, pointwise(f), T2Search(0.0, TWO_PI, 96, 32))
        assert res.value == pytest.approx(q, abs=1e-9)

    def test_fixed_t2_point(self):
        res = global_minimize(
            free={"x0": (0.3, 0.3), "p0": (0.4, 0.4), "t2": (1.1, 1.1)},
            fixed={"s1": 1, "s2": 1, "r": 0.0, "t1": 0.0}, route="series")
        state = StateSpec.from_phase_space(0.3, 0.4)
        expected = qpd_series_squeezed(state, 1, 1, 0.0, 1.1,
                                       TruncationConfig(n_max=300))
        assert res.value == pytest.approx(expected, abs=1e-12)

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
            evaluator, curve = real_evaluator(argmin, "series", "sign", 150,
                                              DEFAULT_UNITS)
            assert minimize_over_t2(evaluator, curve, search) == (value, argmin["t2"])
