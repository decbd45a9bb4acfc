import math

import numpy as np
import pytest
from scipy.integrate import quad

from lgqpd import (OffsetFunction, StateSpec, ZERO_OFFSET, composite_gauss_legendre,
                   gauss_legendre, integral, qpd_integral, qpd_oracle, quad_form,
                   sign_marginal)
from lgqpd.integral import (U_ORDER_CAP, _c_integral_vec, _check_pure, _degenerate_q,
                            _is_degenerate)
from lgqpd.series import MeasurementSpec


def qpd_integral_2d(state, offset, s1, s2, t1, t2, grid=(64, 240)):
    """Reference: direct 2-D quadrature over (u, c) before the radial closed
    form.  Slow but independent of that closed form; it pins its constant
    and the sqrt(B) branch."""
    _check_pure(state)
    offset = ZERO_OFFSET if offset is None else offset
    form = quad_form(state, offset, s1, s2, t1, t2)
    if _is_degenerate(form):
        return _degenerate_q(form)

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
            form = quad_form(state, OffsetFunction(), 1, -1, t1, t2)
            assert np.all(form.sigma(u).real > 0)

    def test_b_never_negative_real(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            state = StateSpec.from_phase_space(0.0, 0.0, rng.uniform(0, 2),
                                               rng.uniform(0, 2 * math.pi))
            form = quad_form(state, OffsetFunction(), 1, 1,
                             rng.uniform(0, 6), rng.uniform(0, 6))
            assert form.B.real > -1e-12


class TestQpdIntegral:
    def test_same_time_projector_algebra(self):
        ground = StateSpec()
        assert qpd_integral(ground, None, 1, -1, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert qpd_integral(ground, None, 1, 1, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

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
        from lgqpd import T2Search, minimize_over_t2

        state = StateSpec.from_phase_space(-0.554, 1.95)
        f = lambda t2: qpd_integral_2d(state, None, 1, -1, 0.0, t2, grid=(64, 240))
        q, _ = minimize_over_t2(f, lambda grid: [f(t) for t in grid],
                                T2Search(0.2, 1.0, coarse_steps=40, refine_iters=25))
        assert 4 * q == pytest.approx(-0.113, abs=0.003)

    def test_2d_route_with_offset(self):
        state = StateSpec.from_phase_space(0.4, -0.9, 0.5, 0.7)
        off = OffsetFunction(0.7, 1.1, 0.15)
        q = qpd_integral(state, off, -1, 1, 0.3, 1.7)
        q2d = qpd_integral_2d(state, off, -1, 1, 0.3, 1.7, grid=(96, 320))
        assert q == pytest.approx(q2d, abs=1e-6)
