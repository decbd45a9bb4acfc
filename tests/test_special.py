import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lgqpd import (CapabilityError, N_MAX, averaged_partial_sum,
                   composite_gauss_legendre, erf_real, erfc_complex,
                   erfcx_complex, gauss_legendre, hermite_psi,
                   hermite_psi_prime, psi_rows)
from lgqpd.integral import quad_form
from lgqpd.states import StateSpec


def erf_maclaurin(x, terms=60):
    """Independent oracle: Maclaurin series of erf summed to machine precision."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


def erfc_ray_quadrature(z):
    """Independent oracle: (2/sqrt(pi)) int_z^inf e^{-t^2} dt along the ray z + s."""
    def integrand(s):
        t = z + s
        return np.exp(-t * t)
    val, _ = quad(integrand, 0.0, 12.0, complex_func=True, epsabs=1e-14, epsrel=1e-13)
    return 2.0 / math.sqrt(math.pi) * val


class TestErfReal:
    def test_zero(self):
        assert erf_real(0.0) == 0.0

    def test_odd(self):
        assert erf_real(0.7) == -erf_real(-0.7)

    def test_series_oracle(self):
        # frozen from the Maclaurin oracle below
        assert erf_real(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)
        assert erf_real(1.0) == pytest.approx(erf_maclaurin(1.0), abs=1e-14)

    def test_bounded_and_monotone(self):
        # strict bound holds up to the double-precision saturation point ~5.9
        xs = np.linspace(-5.5, 5.5, 401)
        vals = np.array([erf_real(x) for x in xs])
        assert np.all(np.abs(vals) < 1.0)
        assert np.all(np.diff(vals) > 0)
        assert abs(erf_real(20.0)) <= 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            erf_real(math.inf)


class TestErfcComplex:
    def test_zero(self):
        assert erfc_complex(0.0) == 1.0 + 0j

    def test_real_axis(self):
        assert erfc_complex(1.0).real == pytest.approx(1.0 - erf_real(1.0), abs=1e-15)
        assert erfc_complex(1.0).imag == 0.0

    def test_contour_oracle(self):
        z = 1.0 + 1.0j
        expected = erfc_ray_quadrature(z)
        got = erfc_complex(z)
        assert got.real == pytest.approx(expected.real, abs=1e-12)
        assert got.imag == pytest.approx(expected.imag, abs=1e-12)

    def test_reflection(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            total = erfc_complex(z) + erfc_complex(-z)
            assert abs(total - 2.0) < 1e-13

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-5, 5, size=(1000, 2))
        for re, im in pts:
            z = complex(re, im)
            diff = erfc_complex(np.conj(z)) - np.conj(erfc_complex(z))
            assert abs(diff) < 1e-13

    def test_overflow_is_loud(self):
        with pytest.raises(OverflowError):
            erfc_complex(1.0 + 40.0j)
        # the scaled variant covers that regime
        assert np.isfinite(erfcx_complex(1.0 + 40.0j))


class TestHermitePsi:
    def test_ground_state_value(self):
        assert hermite_psi(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_odd_parity_zero(self):
        assert hermite_psi(1, 0.0) == 0.0

    def test_exact_coefficient_oracle(self):
        # H_7 with exact integer coefficients
        x = 1.3
        h7 = 128 * x**7 - 1344 * x**5 + 3360 * x**3 - 1680 * x
        norm = math.sqrt(2**7 * math.factorial(7) * math.sqrt(math.pi))
        expected = h7 * math.exp(-x * x / 2.0) / norm
        assert hermite_psi(7, 1.3) == pytest.approx(expected, rel=1e-13)

    def test_orthonormality(self):
        rule = composite_gauss_legendre(-12.0, 12.0, panel_width=0.25, order=12)
        psi = psi_rows(rule.nodes, 40)
        gram = (psi * rule.weights) @ psi.T
        assert np.max(np.abs(gram - np.eye(41))) < 1e-9

    def test_derivative_vs_finite_differences(self):
        h = 1e-5
        xs = np.linspace(-6, 6, 25)
        for n in (0, 3, 11, 40):
            for x in xs:
                fd = (hermite_psi(n, x + h) - hermite_psi(n, x - h)) / (2 * h)
                d = hermite_psi_prime(n, x)
                assert abs(fd - d) <= 1e-6 * max(1.0, abs(d))

    def test_order_cap(self):
        with pytest.raises(CapabilityError):
            hermite_psi(N_MAX + 1, 0.0)

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
        n = np.arange(1, 301)
        terms = np.cos(1.7 * n) / np.sqrt(n)
        got = averaged_partial_sum(terms, window)
        assert np.ndim(got) == 0
        assert abs(got - pairwise_averaged_sum(terms, window)) <= 1e-12
        phases = np.array([0.3, 1.1, 2.9, math.pi - 1e-3])
        block = np.cos(np.outer(n, phases)) / n[:, None] ** 0.75
        got = averaged_partial_sum(block, window)
        assert got.shape == phases.shape
        assert np.max(np.abs(got - pairwise_averaged_sum(block, window))) <= 1e-12

    def test_default_window_and_short_input(self):
        terms = np.sin(0.9 * np.arange(40)) / (1.0 + np.arange(40))
        assert abs(averaged_partial_sum(terms)
                   - pairwise_averaged_sum(terms, 30)) <= 1e-12
        assert averaged_partial_sum(terms[:3], 256) == pytest.approx(
            pairwise_averaged_sum(terms[:3], 3), abs=1e-15)
        assert averaged_partial_sum(np.zeros((0, 2))).shape == (2,)


class TestGaussLegendre:
    def test_exactness_degree_three(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert rule.integrate(lambda x: x * x) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_known_integral(self):
        rule = gauss_legendre(16, 0.0, math.pi / 2)
        assert rule.integrate(np.sin) == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_exactness_sweep(self):
        rule = gauss_legendre(6, 0.0, 2.0)
        for deg in range(12):
            exact = 2.0 ** (deg + 1) / (deg + 1)
            assert rule.integrate(lambda x, d=deg: x ** d) == pytest.approx(exact, rel=1e-12)

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

        r32 = gauss_legendre(32, 0.0, math.pi / 2).integrate(integrand)
        r64 = gauss_legendre(64, 0.0, math.pi / 2).integrate(integrand)
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
