import math

import numpy as np
import pytest
from scipy.linalg import expm

from lgqpd import (OffsetFunction, StateSpec, UnitsConfig, gamma_from,
                   lambda_of, mode_e, n_th_from_temperature, phase_beta_of,
                   reduce_squeezed_to_coherent, thermal_m_cut, thermal_weight,
                   x_xi_of)

SQRT2 = math.sqrt(2.0)


def dense_displace_squeeze(xi, zeta, dim=200):
    """Independent Fock oracle: dense matrix exponentials of the generators."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    ad = a.conj().T
    d = expm(xi * ad - np.conj(xi) * a)
    s = expm(0.5 * (zeta * (ad @ ad) - np.conj(zeta) * (a @ a)))
    return a, d, s


class TestGammaFrom:
    def test_identity_at_zero_squeeze(self):
        assert gamma_from(1 + 2j, 0.0, 0.7) == 1 + 2j

    def test_real_closed_form(self):
        assert gamma_from(1.0, 1.0, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_fock_oracle(self):
        # D(xi) S(zeta) = S(zeta) D(gamma): both orderings give the same state,
        # and <a> of the state is xi.
        xi = 0.389 + 1.361j
        r, th0 = 1.0, math.pi / 3
        zeta = r * np.exp(1j * th0)
        gamma = gamma_from(xi, r, th0)
        a, d_xi, s = dense_displace_squeeze(xi, zeta)
        _, d_gam, _ = dense_displace_squeeze(gamma, zeta)
        v1 = (d_xi @ s)[:, 0]
        v2 = (s @ d_gam)[:, 0]
        assert np.max(np.abs(v1 - v2)) < 1e-10
        mean_a = np.vdot(v1, a @ v1)
        assert abs(mean_a - xi) < 1e-9


class TestModeE:
    def test_trivials(self):
        assert mode_e(0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert mode_e(0.0, 1.0, 0.0) == pytest.approx(math.e, abs=1e-12)
        got = mode_e(math.pi / 2, 1.0, 0.0)
        assert got == pytest.approx(-1j * math.exp(-1.0), abs=1e-12)

    def test_modulus_equals_lambda(self):
        ts = np.linspace(0.0, 2 * math.pi, 101)
        for r in (0.0, 0.5, 1.0, 2.0):
            for th0 in (0.0, math.pi / 3, math.pi):
                e = mode_e(ts, r, th0)
                lam = lambda_of(ts, r, th0)
                assert np.max(np.abs(np.abs(e) ** 2 - lam ** 2)) < 1e-12


class TestLambdaBeta:
    def test_no_squeezing(self):
        ts = np.linspace(0, 7, 41)
        assert np.allclose(lambda_of(ts, 0.0, 0.3), 1.0, atol=1e-15)
        assert np.allclose(phase_beta_of(ts, 0.0, 0.3), 0.0, atol=1e-15)

    def test_beta_zeros_at_quarter_periods(self):
        for wt in (math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
            assert phase_beta_of(wt, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_lambda_closed_form(self):
        assert lambda_of(0.0, 1.0, 0.0) == pytest.approx(math.e, abs=1e-12)

    def test_lambda_floor_and_period(self):
        ts = np.linspace(0, math.pi, 57)
        for r in (0.3, 1.2):
            lam = lambda_of(ts, r, 0.9)
            assert np.all(lam >= math.exp(-r) - 1e-12)
            assert np.allclose(lam, lambda_of(ts + math.pi, r, 0.9), atol=1e-12)

    def test_polar_reconstruction(self):
        ts = np.linspace(0, 2 * math.pi, 97)
        r, th0 = 0.8, 1.1
        lam = lambda_of(ts, r, th0)
        beta = phase_beta_of(ts, r, th0)
        a = np.cosh(r) + np.cos(th0 - 2 * ts) * np.sinh(r)
        b = np.sin(th0 - 2 * ts) * np.sinh(r)
        assert np.max(np.abs(lam * np.cos(beta) - a)) < 1e-12
        assert np.max(np.abs(lam * np.sin(beta) - b)) < 1e-12
        assert np.max(np.abs(a * np.sin(beta) - b * np.cos(beta))) < 1e-12

    def test_beta_continuous_over_period(self):
        # steepest slope is ~e^{2r}; a branch jump would show as ~pi
        ts = np.linspace(0, math.pi, 2001)
        beta = phase_beta_of(ts, 1.5, 2.0)
        assert np.max(np.abs(np.diff(beta))) < 0.05
        assert np.allclose(phase_beta_of(ts + math.pi, 1.5, 2.0), beta, atol=1e-12)


class TestTrajectory:
    def test_endpoints(self):
        xi = (1.2 + 0.7j) / SQRT2
        assert x_xi_of(0.0, xi) == pytest.approx(1.2, abs=1e-14)
        assert x_xi_of(math.pi / 2, xi) == pytest.approx(0.7, abs=1e-14)

    def test_quarter_turn(self):
        xi = (0.550 + 1.925j) / SQRT2
        expected = (0.550 + 1.925) / SQRT2
        assert x_xi_of(math.pi / 4, xi) == pytest.approx(expected, abs=1e-12)

    def test_omega_scaling(self):
        units = UnitsConfig(omega=2.0)
        xi = (0.4 + 0.9j) / SQRT2
        assert x_xi_of(0.3, xi, units) == pytest.approx(x_xi_of(0.6, xi), abs=1e-14)


class TestReduction:
    def test_identity_at_zero_squeeze(self):
        spec = StateSpec(xi=0.3 - 0.4j, r=0.0, theta0=1.0)
        xi_p, tmap = reduce_squeezed_to_coherent(spec)
        assert xi_p == spec.xi  # bit-exact
        assert tmap(0.7) == pytest.approx(0.7, abs=1e-15)

    def test_axis_squeeze_contracts_position(self):
        # theta0 = 0 squeezing scales x0 by e^{-r} in the reduced coherent state
        spec = StateSpec.from_phase_space(1.0, 0.0, r=0.5, theta0=0.0)
        xi_p, _ = reduce_squeezed_to_coherent(spec)
        assert SQRT2 * xi_p.real == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert SQRT2 * xi_p.imag == pytest.approx(0.0, abs=1e-12)

    def test_map_is_symplectic(self):
        spec = StateSpec.from_phase_space(0.9, -1.4, r=0.8, theta0=2.1)
        xi_p, _ = reduce_squeezed_to_coherent(spec)
        # inverse = same map with the squeeze sign flipped
        back, _ = reduce_squeezed_to_coherent(StateSpec(xi=xi_p, r=0.8, theta0=2.1 + math.pi))
        # reflection through theta0 + pi flips sinh terms
        assert abs(back - spec.xi) < 1e-12

    def test_cross_evaluator_identity(self):
        from lgqpd import TruncationConfig, qpd_series_squeezed

        spec = StateSpec.from_phase_space(0.550, 1.925, r=1.0, theta0=math.pi / 3)
        xi_p, tmap = reduce_squeezed_to_coherent(spec)
        reduced = StateSpec(xi=xi_p)
        trunc = TruncationConfig(n_max=400)
        for t1, t2 in ((0.4, 1.7), (0.9, 3.3)):
            q_sq = qpd_series_squeezed(spec, 1, -1, t1, t2, trunc)
            q_coh = qpd_series_squeezed(reduced, 1, -1, tmap(t1), tmap(t2), trunc)
            assert q_sq == pytest.approx(q_coh, abs=1e-12)


class TestThermalWeight:
    def test_trivials(self):
        assert thermal_weight(0, 0.0) == 1.0
        assert thermal_weight(1, 0.0) == 0.0
        assert thermal_weight(2, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_partial_sum_remainder_exact(self):
        n_th = 0.73
        ratio = n_th / (1 + n_th)
        for m_cut in (3, 10, 25):
            partial = sum(thermal_weight(m, n_th) for m in range(m_cut + 1))
            assert 1.0 - partial == pytest.approx(ratio ** (m_cut + 1), rel=1e-12)

    def test_m_cut_bounds_the_tail(self):
        for n_th in (0.2, 1.0, 1.54):
            m = thermal_m_cut(n_th, 1e-12)
            assert thermal_weight(m, n_th) < 1e-12
            assert thermal_weight(m - 2, n_th) >= 1e-13

    def test_temperature_conversion(self):
        assert n_th_from_temperature(0.0) == 0.0
        assert n_th_from_temperature(1.0) == pytest.approx(1 / (math.e - 1), rel=1e-14)
        # high-temperature limit approaches the classical equipartition value
        assert n_th_from_temperature(50.0) == pytest.approx(49.5, abs=0.01)


class TestSpecsValidation:
    def test_state_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StateSpec(r=-0.1)
        with pytest.raises(ValueError):
            StateSpec(n_th=-1.0)
        with pytest.raises(ValueError):
            StateSpec(xi=complex("nan"))

    def test_units_positive(self):
        with pytest.raises(ValueError):
            UnitsConfig(omega=0.0)

    def test_offset_fields_finite(self):
        with pytest.raises(ValueError):
            OffsetFunction(amplitude=math.nan)

    def test_offset_coherent_equivalent(self):
        xi = (1.1 - 0.7j) / SQRT2
        off = OffsetFunction.coherent_equivalent(xi)
        ts = np.linspace(0, 6, 31)
        expected = -2 * abs(xi) * np.cos(ts - np.angle(xi))
        assert np.max(np.abs(off.value(ts) - expected)) < 1e-12
        # the cut in eigenfunction units opposes the mean trajectory
        assert np.max(np.abs(off.cut_position(ts) + x_xi_of(ts, xi))) < 1e-12
