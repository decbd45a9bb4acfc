import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgqpd import (CapabilityError, averaged_partial_sum,
                   composite_gauss_legendre, gauss_legendre, psi_rows)
from lgqpd.matrix_elements import lowered
from lgqpd.special import HARD_N_CAP
from lgqpd.integral import quad_form
from lgqpd.states import StateSpec


def psi(n, x):
    """psi_n(x) at one point, from the recurrence rows."""
    return float(psi_rows(float(x), n)[n])


class TestHermitePsi:
    def test_ground_state_value(self):
        assert psi(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_odd_parity_zero(self):
        assert psi(1, 0.0) == 0.0
        # psi_n has parity (-1)^n
        xs = np.linspace(-4.0, 4.0, 33)
        rows = psi_rows(xs, 40)
        n = np.arange(41)[:, None]
        assert np.array_equal(rows[:, ::-1], np.where(n % 2 == 0, rows, -rows))

    def test_exact_coefficient_oracle(self):
        # H_7 with exact integer coefficients
        x = 1.3
        h7 = 128 * x**7 - 1344 * x**5 + 3360 * x**3 - 1680 * x
        norm = math.sqrt(2**7 * math.factorial(7) * math.sqrt(math.pi))
        expected = h7 * math.exp(-x * x / 2.0) / norm
        assert psi(7, 1.3) == pytest.approx(expected, rel=1e-13)

    def test_orthonormality(self):
        rule = composite_gauss_legendre(-12.0, 12.0, panel_width=0.25, order=12)
        psi = psi_rows(rule.nodes, 40)
        gram = (psi * rule.weights) @ psi.T
        assert np.max(np.abs(gram - np.eye(41))) < 1e-9

    def test_derivative_vs_finite_differences(self):
        # the identity psi_n' = sqrt(2n) psi_{n-1} - x psi_n behind every
        # derivative-free J form
        h = 1e-5
        xs = np.linspace(-6, 6, 25)
        rows = psi_rows(xs, 40)
        d = lowered(rows) - xs * rows
        fd = (psi_rows(xs + h, 40) - psi_rows(xs - h, 40)) / (2 * h)
        for n in (0, 3, 11, 40):
            assert np.all(np.abs(fd[n] - d[n]) <= 1e-6 * np.maximum(1.0, np.abs(d[n])))

    def test_order_cap(self):
        with pytest.raises(CapabilityError):
            psi_rows(0.0, HARD_N_CAP + 1)
        with pytest.raises(CapabilityError):
            psi_rows(np.zeros(3), HARD_N_CAP + 1)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-45.0, 45.0), others=st.lists(st.floats(-45.0, 45.0), max_size=4),
           n_max=st.integers(0, 300))
    def test_scalar_call_matches_array_column(self, x, others, n_max):
        # the memoized scalar path runs the same arithmetic as an array call
        column = psi_rows(np.array(others + [x]), n_max)[:, -1]
        scalar = psi_rows(x, n_max)
        assert scalar.shape == (n_max + 1,)
        assert np.array_equal(scalar, column)
        assert not scalar.flags.writeable
        assert psi_rows(x, n_max) is scalar


def pairwise_averaged_sum(terms, window):
    """Reference: the plain iterated pairwise averaging of the final
    ``window`` partial sums."""
    s = np.cumsum(terms, axis=0)[-window:]
    while s.shape[0] > 1:
        s = 0.5 * (s[1:] + s[:-1])
    return s[0]


class TestAveragedPartialSum:
    @pytest.mark.parametrize("window", [1, 2, 150, 256])
    def test_matches_iterated_averaging(self, window):
        # the window is three quarters of the terms, clipped to [2, 256] and
        # to their number: 1, 2, 200 and 400 terms give these windows
        n = np.arange(1, {1: 1, 2: 2, 150: 200, 256: 400}[window] + 1)
        terms = np.cos(1.7 * n) / np.sqrt(n)
        got = averaged_partial_sum(terms)
        assert np.ndim(got) == 0
        assert abs(got - pairwise_averaged_sum(terms, window)) <= 1e-12
        phases = np.array([0.3, 1.1, 2.9, math.pi - 1e-3])
        block = np.cos(np.outer(n, phases)) / n[:, None] ** 0.75
        got = averaged_partial_sum(block)
        assert got.shape == phases.shape
        assert np.max(np.abs(got - pairwise_averaged_sum(block, window))) <= 1e-12

    def test_default_window_and_short_input(self):
        terms = np.sin(0.9 * np.arange(40)) / (1.0 + np.arange(40))
        assert abs(averaged_partial_sum(terms)
                   - pairwise_averaged_sum(terms, 30)) <= 1e-12
        assert averaged_partial_sum(terms[:3]) == pytest.approx(
            pairwise_averaged_sum(terms[:3], 2), abs=1e-15)
        assert averaged_partial_sum(np.zeros((0, 2))).shape == (2,)


class TestGaussLegendre:
    def test_exactness_degree_three(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert rule.weights @ rule.nodes ** 2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_known_integral(self):
        rule = gauss_legendre(16, 0.0, math.pi / 2)
        assert rule.weights @ np.sin(rule.nodes) == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_exactness_sweep(self):
        rule = gauss_legendre(6, 0.0, 2.0)
        for deg in range(12):
            exact = 2.0 ** (deg + 1) / (deg + 1)
            assert rule.weights @ rule.nodes ** deg == pytest.approx(exact, rel=1e-12)

    def test_self_convergence_on_angular_integrand(self):
        # the u-integrand of the correlator reduction at a fixed point
        from lgqpd import ZERO_OFFSET

        state = StateSpec.from_phase_space(0.550, 1.925, 1.0, math.pi / 3)
        form = quad_form(state, ZERO_OFFSET, 1, -1, 0.0, 2.0)

        def integrand(u):
            sig = form.sigma(u)
            bet = form.beta_quad(u)
            from lgqpd.integral import _c_integral_vec
            return (_c_integral_vec(sig, bet, form.delta) / np.sqrt(form.B)).real

        r32, r64 = (rule.weights @ integrand(rule.nodes)
                    for rule in (gauss_legendre(k, 0.0, math.pi / 2) for k in (32, 64)))
        assert abs(r32 - r64) < 1e-10

    def test_weight_sum_invariant(self):
        rule = gauss_legendre(9, -2.0, 5.0)
        assert rule.weights.sum() == pytest.approx(7.0, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 0.0, math.inf)

    def test_rule_is_cached_and_read_only(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        gauss_legendre.cache_clear()
        first = gauss_legendre(11, -0.5, 1.5)
        again = gauss_legendre(11, -0.5, 1.5)
        assert calls == [11] and again is first
        with pytest.raises(ValueError, match="read-only"):
            first.nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            first.weights[0] = 0.0
