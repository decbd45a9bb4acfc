import math
import runpy
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from lgqpd import (ConvergenceWarning, OffsetFunction, StateSpec, ZERO_OFFSET,
                   composite_gauss_legendre, gauss_legendre, integral, named_evaluator,
                   qpd_integral, qpd_oracle, sign_marginal)
from lgqpd.integral import (DEGENERATE_TOL, U_ORDER_CAP, _c_integral_vec, _check_pure,
                            _degenerate_q, _q_integral)
from lgqpd.series import MeasurementSpec
from lgqpd.states import gamma_from, mode_e

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@dataclass(frozen=True)
class QuadFormReference:
    """Quadratic-form data of the reduced Gaussian integral at one point,
    built here from scalars as a reference for the kernel.

    ``B`` is the determinant of the 2x2 momentum covariance block, ``delta``
    the u-independent constant, and ``cal_e1/cal_e2`` the offset-shifted drive
    values E(t_i) gamma + conj(E(t_i) gamma) - xbar(t_i).  ``sigma(u)`` and
    ``beta_quad(u)`` evaluate the u-dependent coefficients.
    """

    e1: complex
    e2: complex
    s1: int
    s2: int
    cal_e1: float
    cal_e2: float
    B: complex
    delta: complex

    @property
    def degenerate(self) -> bool:
        return abs(math.sin(np.angle(self.e2 * np.conj(self.e1)))) < DEGENERATE_TOL

    def sigma(self, u):
        cu, su = np.cos(u), np.sin(u)
        ee = self.e2 * np.conj(self.e1)
        return (abs(self.e2) ** 2 * cu * cu + abs(self.e1) ** 2 * su * su
                - 2.0 * self.s1 * self.s2 * ee * su * cu) / self.B

    def beta_quad(self, u):
        cu, su = np.cos(u), np.sin(u)
        ee = self.e2 * np.conj(self.e1)
        return (-abs(self.e2) ** 2 * self.s1 * self.cal_e1 * cu
                - abs(self.e1) ** 2 * self.s2 * self.cal_e2 * su
                + ee * (self.s2 * self.cal_e1 * su + self.s1 * self.cal_e2 * cu)) / self.B


def quad_form_reference(state, offset, s1, s2, t1, t2) -> QuadFormReference:
    """The quadratic form of one point, from scalar arithmetic."""
    gam = gamma_from(state.xi, state.r, state.theta0)
    e1 = mode_e(t1, state.r, state.theta0)
    e2 = mode_e(t2, state.r, state.theta0)
    cal1 = 2.0 * (e1 * gam).real - float(offset.value(t1))
    cal2 = 2.0 * (e2 * gam).real - float(offset.value(t2))
    B = abs(e1) ** 2 * abs(e2) ** 2 - (e2 * np.conj(e1)) ** 2
    ee = e2 * np.conj(e1)
    delta = (abs(e2) ** 2 * cal1 * cal1 + abs(e1) ** 2 * cal2 * cal2
             - 2.0 * ee * cal1 * cal2) / B if B != 0 else complex("nan")
    return QuadFormReference(complex(e1), complex(e2), int(s1), int(s2), cal1, cal2,
                             complex(B), complex(delta))


def qpd_integral_2d(state, offset, s1, s2, t1, t2, grid=(64, 240)):
    """Reference: direct 2-D quadrature over (u, c) before the radial closed
    form.  Slow but independent of that closed form; it pins its constant
    and the sqrt(B) branch."""
    _check_pure(state)
    offset = ZERO_OFFSET if offset is None else offset
    form = quad_form_reference(state, offset, s1, s2, t1, t2)
    if form.degenerate:
        return _degenerate_q(form.e1, form.e2, s1, s2, form.cal_e1, form.cal_e2)

    u_order, c_order = grid
    u_rule = gauss_legendre(int(u_order), 0.0, math.pi / 2.0)
    sig = form.sigma(u_rule.nodes)
    if np.any(sig.real <= 0):
        raise ArithmeticError("Re(sigma) <= 0 on the u grid")
    bet = form.beta_quad(u_rule.nodes)
    # Radial cutoff where the Gaussian factor is below exp(-160) for every u;
    # composite panels keep the oscillatory phase resolved out to the cutoff.
    c_max = float(np.max((np.abs(bet) + np.sqrt(np.abs(bet) ** 2 + 320.0 * sig.real))
                         / sig.real))
    c_rule = composite_gauss_legendre(0.0, c_max,
                                      panel_width=c_max / max(1, c_order // 12),
                                      order=12)
    c = c_rule.nodes[None, :]
    integrand = c * np.exp(-0.5 * (sig[:, None] * c * c + 2.0 * bet[:, None] * c
                                   + form.delta))
    inner = integrand @ c_rule.weights
    total = (u_rule.weights * inner).sum() / np.sqrt(form.B)
    return float(total.real) / (2.0 * math.pi)


def radial_quadrature_oracle(sigma, beta, delta, upper=60.0):
    """Independent oracle: adaptive quadrature of c exp(-(sigma c^2 + 2 beta c + delta)/2)."""
    def integrand(c):
        return c * np.exp(-0.5 * (sigma * c * c + 2.0 * beta * c + delta))
    val, _ = quad(integrand, 0.0, upper, complex_func=True, limit=300,
                  epsabs=1e-13, epsrel=1e-12)
    return val


class TestRadialClosedForm:
    def test_gaussian_moment(self):
        assert _c_integral_vec(1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_real_oracle(self):
        got = _c_integral_vec(2.0, 1.0, 0.0)
        expected = radial_quadrature_oracle(2.0, 1.0, 0.0)
        assert got.real == pytest.approx(expected.real, rel=1e-9)
        assert abs(got.imag) < 1e-14

    def test_complex_oracle(self):
        sigma, beta, delta = 1.0 + 0.3j, 0.5 - 0.2j, 0.1j
        got = _c_integral_vec(sigma, beta, delta)
        expected = radial_quadrature_oracle(sigma, beta, delta)
        assert got.real == pytest.approx(expected.real, rel=1e-9)
        assert got.imag == pytest.approx(expected.imag, rel=1e-9)

    def test_moderate_negative_drive(self):
        # the integrand peaks at exp(beta^2/2 sigma) ~ e^50 here; the erfcx
        # form tracks the quadrature oracle without loss
        got = _c_integral_vec(1.0, -10.0, 0.0)
        expected = radial_quadrature_oracle(1.0, -10.0, 0.0, upper=60.0)
        assert got.real == pytest.approx(expected.real, rel=1e-9)

    def test_overflowing_drive_is_loud(self):
        # far out in x0 the radial form exceeds double range on the u grid;
        # the kernel raises instead of returning inf or nan
        for s2 in (1, -1):
            with pytest.raises(ArithmeticError):
                qpd_integral(StateSpec.from_phase_space(40.0, 0.0), None, 1, s2, 0.0, 1.3)


class TestQuadFormStructure:
    def test_sigma_real_part_positive(self):
        rng = np.random.default_rng(3)
        u = np.linspace(1e-4, math.pi / 2 - 1e-4, 301)
        for _ in range(25):
            state = StateSpec.from_phase_space(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                               rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            t1, t2 = rng.uniform(0, 3), rng.uniform(3.2, 6)
            form = quad_form_reference(state, OffsetFunction(), 1, -1, t1, t2)
            assert np.all(form.sigma(u).real > 0)

    def test_b_never_negative_real(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            state = StateSpec.from_phase_space(0.0, 0.0, rng.uniform(0, 2),
                                               rng.uniform(0, 2 * math.pi))
            form = quad_form_reference(state, OffsetFunction(), 1, 1,
                                       rng.uniform(0, 6), rng.uniform(0, 6))
            assert form.B.real > -1e-12


class TestQpdIntegral:
    def test_same_time_projector_algebra(self):
        ground = StateSpec()
        assert qpd_integral(ground, None, 1, -1, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert qpd_integral(ground, None, 1, 1, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_equal_times_give_an_exact_zero_for_opposite_signs(self):
        # the second cut at t2 == t1 is the first, not the array half's
        # recomputation of it, which rounds differently (5.55e-17 at FIG1_STATE)
        off = OffsetFunction(0.6, 0.9, 0.2)
        for state, offset, t1 in ((FIG1_STATE, None, 0.0), (FIG1_STATE, off, 0.7),
                                  (StateSpec.from_phase_space(-0.3, 0.8, 0.4, 2.0), off, -1.3)):
            grid = np.array([t1 + 0.5, t1, t1 + math.pi, t1])
            for s1, s2 in ((1, -1), (-1, 1)):
                assert qpd_integral(state, offset, s1, s2, t1, t1) == 0.0
                assert _q_integral(state, offset, s1, s2, t1, grid, 32)[0][[1, 3]].tolist() == [
                    0.0, 0.0]

    def test_route_comparison_demo_starts_at_zero(self, tmp_path, monkeypatch, capsys):
        # its first row is t2 = t1 = 0 at s = (+1, -1)
        out = tmp_path / "routes.csv"
        monkeypatch.setattr("sys.argv", ["route_comparison.py", str(out)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)  # its t2 = 3.15 column
            runpy.run_path(str(DEMOS / "route_comparison.py"), run_name="__main__")
        capsys.readouterr()
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table[0, 0] == 0.0 and table[0, 4] == 0.0

    def test_half_period_anticorrelation(self):
        ground = StateSpec()
        assert qpd_integral(ground, None, 1, 1, 0.0, math.pi) == pytest.approx(0.0, abs=1e-12)
        assert qpd_integral(ground, None, 1, -1, 0.0, math.pi) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_branch_is_continuous(self):
        state = StateSpec.from_phase_space(0.7, -0.4, 0.5, 1.0)
        q_at = qpd_integral(state, None, 1, 1, 0.0, math.pi)
        q_near = qpd_integral(state, None, 1, 1, 0.0, math.pi - 1e-5)
        assert abs(q_at - q_near) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            qpd_integral(StateSpec(), None, 1, 1, 0.0, 1.0, quad_order=4)
        with pytest.raises(ValueError):
            qpd_integral(StateSpec(n_th=0.5), None, 1, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            qpd_integral(StateSpec(), None, 2, 1, 0.0, 1.0)

    def test_starting_order_keeps_doublings_within_cap(self, monkeypatch):
        state = StateSpec.from_phase_space(0.55, 1.925, 1.0, 1.0471975511965976)
        _, info = qpd_integral(state, None, 1, -1, 0.0, 2.0, U_ORDER_CAP // 2,
                               with_info=True)
        assert info.order == U_ORDER_CAP
        # a start of 600 used to evaluate at 600 and 1200; it is now rejected
        # before any rule is built
        monkeypatch.setattr(integral, "gauss_legendre", None)
        with pytest.raises(ValueError, match="quad_order"):
            qpd_integral(state, None, 1, -1, 0.0, 2.0, U_ORDER_CAP // 2 + 1)

    def test_normalization(self):
        state = StateSpec.from_phase_space(0.550, 1.925, 1.0, math.pi / 3)
        total = sum(qpd_integral(state, None, s1, s2, 0.3, 1.1)
                    for s1 in (1, -1) for s2 in (1, -1))
        assert total == pytest.approx(1.0, abs=5e-8)

    def test_marginal_closed_form(self):
        state = StateSpec.from_phase_space(-0.6, 1.2, 0.7, 2.2)
        off = OffsetFunction(0.8, 0.5, -0.3)
        for s1 in (1, -1):
            marg = sum(qpd_integral(state, off, s1, s2, 0.45, 2.1) for s2 in (1, -1))
            assert marg == pytest.approx(sign_marginal(state, off, s1, 0.45), abs=5e-8)

    def test_offset_equivalence(self):
        coherent = StateSpec.from_phase_space(1.1, -0.7)
        off = OffsetFunction.coherent_equivalent(coherent.xi)
        for s1, s2 in ((1, -1), (-1, -1)):
            qa = qpd_integral(coherent, None, s1, s2, 0.3, 1.9)
            qb = qpd_integral(StateSpec(), off, s1, s2, 0.3, 1.9)
            assert qa == pytest.approx(qb, abs=1e-8)

    def test_parity_at_origin(self):
        state = StateSpec(xi=0j, r=0.6, theta0=0.8)
        for s1, s2 in ((1, 1), (1, -1)):
            qa = qpd_integral(state, None, s1, s2, 0.2, 1.4)
            qb = qpd_integral(state, None, -s1, -s2, 0.2, 1.4)
            assert qa == pytest.approx(qb, abs=1e-10)

    def test_luders_floor_on_sweep(self):
        state = StateSpec.from_phase_space(-0.554, 1.95)
        for t2 in np.linspace(0.05, 2 * math.pi, 60):
            assert qpd_integral(state, None, 1, -1, 0.0, float(t2)) >= -0.125 - 1e-6


class TestRouteAgreement:
    def test_closed_form_vs_2d_and_oracle(self):
        rng = np.random.default_rng(42)
        meas = MeasurementSpec.sign()
        for _ in range(12):
            state = StateSpec.from_phase_space(rng.uniform(-1.5, 1.5),
                                               rng.uniform(-1.5, 1.5),
                                               rng.uniform(0, 1),
                                               rng.uniform(0, 2 * math.pi))
            t1 = rng.uniform(0.1, 2.0)
            t2 = t1 + rng.uniform(0.4, 2.4)
            s1 = 1 if rng.uniform() < 0.5 else -1
            s2 = 1 if rng.uniform() < 0.5 else -1
            q = qpd_integral(state, None, s1, s2, t1, t2)
            q2d = qpd_integral_2d(state, None, s1, s2, t1, t2, grid=(192, 960))
            assert q == pytest.approx(q2d, abs=1e-6)
        state = StateSpec.from_phase_space(0.8, 0.5, 0.6, 1.2)
        q = qpd_integral(state, None, 1, -1, 0.4, 1.9)
        qo = qpd_oracle(state, meas, 1, -1, 0.4, 1.9, dim=350)
        assert q == pytest.approx(qo, abs=1e-5)

    def test_2d_route_reproduces_minimum_row(self):
        # the direct 2-D quadrature alone finds the benchmark row minimum
        from lgqpd import T2Search, minimize_over_t2, scan

        state = StateSpec.from_phase_space(-0.554, 1.95)
        # a cell record like the integral route's, over the 2-D quadrature
        cell = scan._KernelCell(lambda t2: ([qpd_integral_2d(state, None, 1, -1, 0.0, t,
                                                             grid=(64, 240)) for t in t2], None))
        q, _ = minimize_over_t2(cell, cell.curve,
                                T2Search(0.2, 1.0, coarse_steps=40, refine_iters=25))
        assert 4 * q == pytest.approx(-0.113, abs=0.003)

    def test_2d_route_with_offset(self):
        state = StateSpec.from_phase_space(0.4, -0.9, 0.5, 0.7)
        off = OffsetFunction(0.7, 1.1, 0.15)
        q = qpd_integral(state, off, -1, 1, 0.3, 1.7)
        q2d = qpd_integral_2d(state, off, -1, 1, 0.3, 1.7, grid=(96, 320))
        assert q == pytest.approx(q2d, abs=1e-6)


FIG1_STATE = StateSpec.from_phase_space(0.550, 1.925, 1.0, math.pi / 3)


class TestKernel:
    def test_each_column_is_its_own_point_call(self):
        # degenerate columns (t2 = t1 + k pi), near-degenerate ones that run to
        # the order cap, and offsets, for every K from 1 to 64
        rng = np.random.default_rng(11)
        orders = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            for k_cols in range(1, 65):
                state = StateSpec.from_phase_space(
                    rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0, 1),
                    rng.uniform(0, 2 * math.pi))
                offset = OffsetFunction(0.7, 1.1, 0.15) if k_cols % 3 == 0 else None
                s1, s2 = (int(rng.choice([1, -1])) for _ in range(2))
                t1 = rng.uniform(0, 2)
                t2 = t1 + rng.uniform(0.05, 3.1, k_cols)
                t2[::4] = t1 + math.pi * rng.integers(0, 3, t2[::4].size)
                t2[2::4] = t1 + math.pi + rng.uniform(-1e-2, 1e-2, t2[2::4].size)
                quad_order = int(rng.choice([8, 16, 32, 64]))
                q, info = _q_integral(state, offset, s1, s2, t1, t2, quad_order)
                for k in range(k_cols):
                    point = qpd_integral(state, offset, s1, s2, t1, float(t2[k]), quad_order,
                                         with_info=True)
                    assert (q[k], info[k]) == point
                    assert [type(v) for v in vars(info[k]).values()] == [bool, float, int, bool]
                orders |= {column.order for column in info}
        assert {0, 64, U_ORDER_CAP} <= orders and len(orders) >= 5

    def test_columns_match_the_scalar_form_at_their_order(self):
        # the u quadrature of the test-local form, at the order each column stopped at
        state = StateSpec.from_phase_space(0.8, -0.5, 0.6, 1.2)
        off = OffsetFunction(0.7, 1.1, 0.15)
        t2 = np.concatenate([np.linspace(0.5, 6.0, 37), [0.4 + math.pi, 0.4 + math.pi + 3e-3]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            q, info = _q_integral(state, off, 1, -1, 0.4, t2, 16)
        for k, column in enumerate(info):
            form = quad_form_reference(state, off, 1, -1, 0.4, t2[k])
            assert column.degenerate == form.degenerate
            if form.degenerate:
                ref = _degenerate_q(form.e1, form.e2, 1, -1, form.cal_e1, form.cal_e2)
            else:
                rule = gauss_legendre(column.order, 0.0, math.pi / 2.0)
                vals = _c_integral_vec(form.sigma(rule.nodes), form.beta_quad(rule.nodes),
                                       form.delta)
                ref = float(((rule.weights * vals).sum() / np.sqrt(form.B)).real) / (2 * math.pi)
            assert q[k] == pytest.approx(ref, abs=1e-10)

    def test_dispatch_curve_is_one_kernel_call_equal_to_its_point_calls(self, monkeypatch):
        params = dict(x0=0.4, p0=1.1, r=0.6, theta0=0.9, s1=-1, s2=1, t1=0.3,
                      offset=OffsetFunction(0.6, 0.9, 0.2))
        grid = np.concatenate([np.linspace(0.0, 2 * math.pi, 41), [0.3, 0.3 + math.pi]])
        calls = []
        kernel = integral._q_integral
        # the dispatch binds the kernel when it builds the evaluator
        monkeypatch.setattr("lgqpd.scan._q_integral", lambda *args, **kwargs:
                            calls.append(args[5].size) or kernel(*args, **kwargs))
        evaluator, curve = named_evaluator(params, "integral", "sign")
        values = curve(grid)
        assert calls == [grid.size]
        assert values.tobytes() == np.array([evaluator(t2) for t2 in grid]).tobytes()

    def test_each_unconverged_column_warns_with_its_t2(self):
        grid = np.array([2.0, 3.14, 3.15, math.pi])
        with pytest.warns(ConvergenceWarning) as record:
            _, info = _q_integral(FIG1_STATE, None, 1, -1, 0.0, grid, 32)
        assert [column.converged for column in info] == [True, False, False, True]
        assert [str(w.message) for w in record] == [
            f"u-integral not self-consistent at t2={t2!r}, order 512: "
            f"delta={column.last_delta:.3e}" for t2, column in zip([3.14, 3.15], info[1:3])]

    def test_point_warning_is_reported_at_the_callers_line(self):
        with pytest.warns(ConvergenceWarning, match=r"t2=3\.15, order 512") as record:
            line = sys._getframe().f_lineno + 1
            qpd_integral(FIG1_STATE, None, 1, -1, 0.0, 3.15)
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_dispatch_point_warning_is_reported_at_the_callers_line(self):
        evaluator, _ = named_evaluator(dict(x0=0.550, p0=1.925, r=1.0, theta0=math.pi / 3,
                                            s1=1, s2=-1), "integral", "sign")
        with pytest.warns(ConvergenceWarning, match=r"t2=3\.15, order 512") as record:
            line = sys._getframe().f_lineno + 1
            evaluator(3.15)
        assert (record[0].filename, record[0].lineno) == (__file__, line)
