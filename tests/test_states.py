import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lgqpd import (CapabilityError, OffsetFunction, StateSpec, gamma_from, lambda_of, mode_e,
                   n_th_from_temperature, named_evaluator, phase_beta_of,
                   reduce_squeezed_to_coherent, thermal_m_cut, thermal_weight,
                   x_xi_of)
from lgqpd.states import (T2_PERIOD, ZERO_OFFSET, lambda_dot, phase_beta_dot,
                          time_reversal_fixes, x_xi_dot)

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


class TestRates:
    @pytest.mark.parametrize("r,theta0", [(0.0, 0.0), (0.5, 0.0), (1.0, 0.9), (2.0, -2.5)])
    def test_closed_forms_are_the_derivatives(self, r, theta0):
        t = np.linspace(-1.0, 7.0, 41)
        h = 1e-5
        xi = (0.7 - 1.3j) / SQRT2

        def central(f):
            return (f(t + h) - f(t - h)) / (2 * h)
        assert np.allclose(lambda_dot(t, r, theta0),
                           central(lambda u: lambda_of(u, r, theta0)), rtol=1e-7, atol=1e-7)
        assert np.allclose(phase_beta_dot(t, r, theta0),
                           central(lambda u: phase_beta_of(u, r, theta0)), rtol=1e-7, atol=1e-7)
        assert np.allclose(x_xi_dot(t, xi), central(lambda u: x_xi_of(u, xi)),
                           rtol=1e-7, atol=1e-7)


class TestTrajectory:
    def test_endpoints(self):
        xi = (1.2 + 0.7j) / SQRT2
        assert x_xi_of(0.0, xi) == pytest.approx(1.2, abs=1e-14)
        assert x_xi_of(math.pi / 2, xi) == pytest.approx(0.7, abs=1e-14)

    def test_quarter_turn(self):
        xi = (0.550 + 1.925j) / SQRT2
        expected = (0.550 + 1.925) / SQRT2
        assert x_xi_of(math.pi / 4, xi) == pytest.approx(expected, abs=1e-12)


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
            m = thermal_m_cut(n_th)
            assert thermal_weight(m, n_th) < 1e-12
            assert thermal_weight(m - 2, n_th) >= 1e-13

    def test_m_cut_below_the_threshold_is_the_closed_form(self):
        for n_th in (1e-300, 0.2, 1.54, 7e3, 9998.0, 9999.0):
            ratio = n_th / (1.0 + n_th)
            want = max(int(math.ceil(math.log(1e-12 * (1.0 + n_th)) / math.log(ratio))) + 1, 1)
            assert thermal_m_cut(n_th) == want
        assert thermal_m_cut(0.0) == 1

    @pytest.mark.parametrize("n_th", [1e4, 2e4, 1e6, 1e11, 1e12 - 1e3, 1e12 - 2, 1e12 - 1, 1e12,
                                      1e15, 1e16, 1e300])
    def test_m_cut_refuses_an_occupation_without_a_cut(self, n_th):
        # above n_th = 9999 a cut at weight 1e-12 could leave more than 1e-8
        # of the state, up to almost all of it near 1e12; from 1e12 - 1 on the
        # ground weight 1/(1 + n_th) is itself at most 1e-12, and from about
        # 1e16 on n_th / (1 + n_th) rounds to 1.0
        with pytest.raises(CapabilityError, match="no occupation cut"):
            thermal_m_cut(n_th)

    def test_temperature_conversion(self):
        assert n_th_from_temperature(0.0) == 0.0
        assert n_th_from_temperature(1.0) == pytest.approx(1 / (math.e - 1), rel=1e-14)
        # high-temperature limit approaches the classical equipartition value
        assert n_th_from_temperature(50.0) == pytest.approx(49.5, abs=0.01)

    @pytest.mark.parametrize("temp", [1e-3, 1.0 / 709.79, 1e-300, 5e-324])
    def test_occupation_underflows_to_zero_at_low_temperature(self, temp):
        # exp(1/T) overflows below T = 1/709.78
        assert n_th_from_temperature(temp) == 0.0

    @pytest.mark.parametrize("temp", [1.0 / 709.78, 0.0015, 0.01, 0.3, 1.0, 50.0])
    def test_temperature_conversion_is_the_closed_form(self, temp):
        assert n_th_from_temperature(temp) == 1.0 / math.expm1(1.0 / temp)


class TestSpecsValidation:
    def test_state_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StateSpec(r=-0.1)
        with pytest.raises(ValueError):
            StateSpec(n_th=-1.0)
        with pytest.raises(ValueError):
            StateSpec(xi=complex("nan"))
        with pytest.raises(ValueError, match="theta0"):
            StateSpec(theta0=math.inf)

    @pytest.mark.parametrize("call,args", [
        (n_th_from_temperature, (math.nan,)), (n_th_from_temperature, (-1.0,)),
        (gamma_from, (0.5 + 0j, -0.1, 0.0)), (gamma_from, (complex(math.inf, 0.0), 0.5, 0.0)),
        (thermal_weight, (-1, 0.5)), (thermal_weight, (1.5, 0.5)),
        (thermal_weight, (2, math.nan)), (thermal_weight, (2, -0.5))])
    def test_state_functions_reject_bad_values(self, call, args):
        with pytest.raises(ValueError):
            call(*args)

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


class TestTimeReversal:
    """time_reversal_fixes holds where time reversal maps q onto itself on
    every route, q(x0, p0; 0, t2) = q(x0, -p0; 0, -t2) = q(x0, p0; 0, t2 +
    P), P from T2_PERIOD; a cell with p0 = 0 then carries P as its
    evaluator's period."""

    #: the oracle at dim 200 on a few examples
    EXAMPLES = {"series": 20, "integral": 12, "oracle": 4}
    POINT = dict(x0=0.5, p0=1.2, r=0.5, s1=1, s2=-1, oracle_dim=200)

    @staticmethod
    def _mismatch(route, projector, params, t2s, tr=True):
        """The largest |q(x0, p0; t2) - q(x0, -p0; -t2)| over ``t2s``, or,
        unless ``tr``, the largest |q(t2) - q(t2 + P)|."""
        ev = named_evaluator(params, route, projector)[0]
        if not tr:
            return max(abs(ev(t2) - ev(t2 + T2_PERIOD[projector])) for t2 in t2s)
        mirror = named_evaluator(dict(params, p0=-params.get("p0", 0.0)), route, projector)[0]
        return max(abs(ev(t2) - mirror(-t2)) for t2 in t2s)

    @pytest.mark.parametrize("route", ["series", "integral", "oracle"])
    def test_the_rule_holds_on_every_route(self, route):
        @settings(max_examples=self.EXAMPLES[route], deadline=None)
        @given(x0=st.floats(-2.0, 2.0), p0=st.floats(-2.0, 2.0),
               squeeze=st.one_of(st.tuples(st.just(0.0), st.floats(-3.0, 3.0)),
                                 st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, math.pi]))),
               signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
               t2=st.floats(0.05, 6.2), thermal=st.booleans())
        def check(x0, p0, squeeze, signs, t2, thermal):
            # away from the commuting separations t2 = k pi
            assume(abs(math.sin(t2)) > 1e-3)
            r, theta0 = squeeze
            n_th = 0.3 if thermal and route == "series" else 0.0
            assert time_reversal_fixes(StateSpec.from_phase_space(x0, p0, r, theta0, n_th), 0.0,
                                       ZERO_OFFSET)
            params = dict(x0=x0, p0=p0, r=r, theta0=theta0, n_th=n_th, s1=signs[0], s2=signs[1],
                          oracle_dim=200)
            assert self._mismatch(route, "sign", params, [t2]) <= 1e-13
            assert self._mismatch(route, "sign", params, [t2], tr=False) <= 1e-13
            cell = named_evaluator(dict(params, p0=0.0), route, "sign")[0]
            assert cell.period == T2_PERIOD["sign"] == 2 * math.pi

        check()

    @pytest.mark.parametrize("route", ["series", "oracle"])
    @pytest.mark.parametrize("r,theta0", [(0.0, 0.3), (0.5, 0.0), (0.8, math.pi)])
    def test_the_rule_holds_for_the_window(self, route, r, theta0):
        params = dict(L=1.03, r=r, theta0=theta0, s1=1, s2=-1, oracle_dim=200)
        assert named_evaluator(params, route, "window")[0].period == T2_PERIOD["window"] == math.pi
        for tr in (True, False):
            assert self._mismatch(route, "window", params, [0.4, 1.3, 2.9], tr) <= 1e-13

    @pytest.mark.parametrize("route,broken", [
        (route, broken) for route in ("series", "integral", "oracle")
        for broken in ("t1", "theta0", "offset") if (route, broken) != ("series", "offset")])
    def test_each_broken_condition_breaks_the_identity(self, route, broken):
        # so the rule is not looser than the physics; t1 is the same on both
        # sides, and the series takes no offset
        extra = {"t1": {"t1": 0.4}, "theta0": {"theta0": 0.5},
                 "offset": {"offset": OffsetFunction(0.4, 0.3)}}[broken]
        params = dict(self.POINT, **extra)
        state = StateSpec.from_phase_space(0.5, 1.2, 0.5, params.get("theta0", 0.0))
        assert not time_reversal_fixes(state, params.get("t1", 0.0),
                                       params.get("offset", ZERO_OFFSET))
        assert self._mismatch(route, "sign", params, [0.7, 1.9, 4.1]) > 1e-3
        assert not hasattr(named_evaluator(dict(params, p0=0.0), route, "sign")[0], "period")

    @pytest.mark.parametrize("route", ["integral", "oracle"])
    @pytest.mark.parametrize("offset", [OffsetFunction(0.4, 0.0), OffsetFunction(constant=0.3)])
    def test_an_even_offset_is_refused_although_it_keeps_the_identity(self, route, offset):
        # "no offset" is the conservative rule
        params = dict(self.POINT, offset=offset)
        assert not time_reversal_fixes(StateSpec(r=0.5), 0.0, offset)
        assert self._mismatch(route, "sign", params, [0.7, 1.9, 4.1]) <= 1e-13
