import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgqpd import CapabilityError, composite_gauss_legendre, gauss_legendre, psi_rows
from lgqpd.matrix_elements import lowered
from lgqpd.series import _block_rows
from lgqpd.special import (HARD_N_CAP, _psi_blocks, _psi_memo, _recurrence_coefficients,
                            _sqrt_2n, averaged_partial_sum, erf)
from lgqpd.states import StateSpec
from test_integral import quad_form_reference


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
        for x in (0.0, np.zeros(3)):
            with pytest.raises(ValueError, match="non-negative"):
                psi_rows(x, -1)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-45.0, 45.0), others=st.lists(st.floats(-45.0, 45.0), max_size=4),
           wide=st.lists(st.floats(-45.0, 45.0), min_size=9, max_size=14, unique=True),
           n_max=st.integers(0, 300))
    def test_scalar_call_matches_array_column(self, x, others, wide, n_max):
        # the memoized scalar path runs the same arithmetic as an array call:
        # a batch of 9 or more distinct points runs the array recurrence, and
        # one of at most 8 gathers the memoized scalar rows
        column = psi_rows(np.array(wide + [x]), n_max)[:, -1]
        scalar = psi_rows(x, n_max)
        assert scalar.shape == (n_max + 1,)
        assert scalar.tobytes() == column.tobytes()
        assert not scalar.flags.writeable
        assert psi_rows(x, n_max) is scalar
        gathered = psi_rows(np.array(others + [x]), n_max)[:, -1]
        assert gathered.tobytes() == column.tobytes()

    @pytest.mark.parametrize("n_max", [0, 1, 200, 256, 2500])
    def test_scalar_call_matches_array_column_at_workload_orders(self, n_max):
        # beyond the hypothesis test's n <= 300: the allowed region, the
        # classically forbidden region |x| > sqrt(2n + 1), and cuts where
        # psi_0 underflows (|x| >= 39)
        edge = math.sqrt(2 * n_max + 1)
        cuts = [0.0, -0.0, 0.37, -1.9, 3.1, edge - 0.5, edge + 0.5, -(edge + 2.0),
                1.5 * edge + 1.0, 38.5, 39.0, -39.0, 40.3, 45.0, -80.0]
        columns = psi_rows(np.array(cuts), n_max)
        for j, x in enumerate(cuts):
            scalar = psi_rows(x, n_max)
            assert np.array_equal(scalar, columns[:, j]), x
            assert np.all(np.isfinite(scalar))

    #: 9 distinct points that make any batch they join run the array recurrence
    PAD = np.linspace(-3.3, 2.9, 9)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 255, 256, 2500])
    def test_batches_of_few_distinct_points_equal_the_array_recurrence(self, n_max):
        # a batch of at most 8 distinct points, repeats included, is gathered
        # from the memoized scalar rows; with PAD it runs the array recurrence,
        # and each of its columns must equal that bit for bit, in the blocks of
        # any streaming (2 and 3 rows, a _phase_sums block of 4 columns over
        # 97 points, 256 rows, one block), a consumer overwriting each block
        rng = np.random.default_rng(n_max)
        for values in ([0.7], [0.0, -0.0], [1.1, -0.4, 38.5, 45.0],
                       list(np.linspace(-6.0, 39.0, 8))):
            x = rng.choice(np.array(values), size=(3, 11))
            x[0, :len(values)] = values  # every value appears
            arrays = psi_rows(np.concatenate([x.ravel(), self.PAD]), n_max)
            reference = arrays[:, :x.size].reshape((n_max + 1,) + x.shape)
            _psi_memo.cache_clear()
            for rows in sorted({2, 3, _block_rows(4, 97), 256, n_max + 1}):
                streamed = []
                for block in _psi_blocks(x, n_max, rows):
                    streamed.append(block.copy())
                    block[...] = math.nan
                assert np.concatenate(streamed).tobytes() == reference.tobytes(), (values, rows)
            # the batch read the memo: one entry per distinct bit pattern
            assert _psi_memo.cache_info().currsize == len(values)

    #: psi_n(x) from mpmath at 80 digits, H_n(x) exp(-x^2/2) / (2^n n!
    #: sqrt(pi))^(1/2), where psi_0 is subnormal (x = 38) or underflows (x = 40
    #: and 45: psi_0 is 2.76e-348 and 1.42e-440, below the least subnormal)
    EXACT = {(38.0, 0): 2.0658395977942090e-314, (38.0, 600): 1.1181803175544643e-16,
             (38.0, 2500): 0.078792937225130865, (40.0, 0): 0.0,
             (40.0, 600): 3.0762344635639020e-32, (40.0, 2500): 0.079765278033672441,
             (45.0, 0): 0.0, (45.0, 600): 1.4924392693580455e-85,
             (45.0, 2500): 0.060235868034175495}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_orders_past_an_underflowing_ground_state(self, sign):
        # the recurrence starts from a scaled psi_0 and carries its exponent:
        # the scalar path, the gathered batch and the array recurrence each
        # stay within 1e-12 relative (or the subnormal spacing) of mpmath
        for (x, n), exact in self.EXACT.items():
            x *= sign
            exact *= sign ** n
            for got in (psi_rows(x, 2500)[n], psi_rows(np.array([x, x]), 2500)[n, 1],
                        psi_rows(np.concatenate([self.PAD, [x]]), 2500)[n, -1]):
                assert abs(got - exact) <= 1e-12 * abs(exact) + 2.0 ** -1074, (x, n, got)

    def test_order_tables_are_cached_and_read_only(self):
        up, down = _recurrence_coefficients(40)
        assert _recurrence_coefficients(40) == (up, down)
        assert _recurrence_coefficients(40)[0] is up
        assert isinstance(up, tuple) and isinstance(down, tuple)
        k = np.arange(1, 40)
        assert np.array_equal(up, np.sqrt(2.0 / (k + 1)))
        assert np.array_equal(down, np.sqrt(k / (k + 1.0)))
        table = _sqrt_2n(40)
        assert _sqrt_2n(40) is table
        assert not table.flags.writeable
        assert np.array_equal(table, np.sqrt(2.0 * np.arange(41)))
        with pytest.raises(ValueError):
            table[1] = 0.0


class TestErf:
    """special.erf is math.erf elementwise: within a few ulp of SciPy's erf,
    exact at the special values, and the same for a scalar and an array."""

    #: The most ulp by which math.erf may differ from SciPy's erf.
    ULP = 4

    def test_within_a_few_ulp_of_scipy(self):
        from scipy.special import erf as scipy_erf
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(-6.0, 6.0, 100_000), rng.uniform(-1e-3, 1e-3, 20_000),
                            rng.uniform(-1e-8, 1e-8, 10_000)])
        ours, theirs = erf(x), scipy_erf(x)
        # same sign everywhere, so the int64 views differ by the ulp between them
        assert np.array_equal(np.signbit(ours), np.signbit(theirs))
        assert np.abs(ours.view(np.int64) - theirs.view(np.int64)).max() <= self.ULP

    def test_special_values_are_exact(self):
        from scipy.special import erf as scipy_erf
        tiny = np.finfo(float).tiny
        x = np.array([0.0, -0.0, 40.0, -40.0, math.inf, -math.inf, math.nan,
                      5e-324, -5e-324, 1e-310, 0.5 * tiny, tiny])
        ours = erf(x)
        assert ours[:6].tolist() == [0.0, -0.0, 1.0, -1.0, 1.0, -1.0]
        assert np.signbit(ours[1]) and not np.signbit(ours[0])
        assert np.isnan(ours[6])
        assert ours[7:].tobytes() == scipy_erf(x[7:]).tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (3, 4), (2, 0, 3)])
    def test_keeps_the_shape_and_each_element_is_its_scalar_call(self, shape):
        x = np.random.default_rng(len(shape)).uniform(-4.0, 4.0, shape)
        out = erf(x)
        assert out.shape == x.shape and out.dtype == float
        for index in np.ndindex(shape):
            assert repr(float(erf(float(x[index])))) == repr(float(out[index]))
        # a transposed (not contiguous) array is read in its own order
        assert erf(x.T).tobytes() == out.T.copy().tobytes()


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
        form = quad_form_reference(state, ZERO_OFFSET, 1, -1, 0.0, 2.0)

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
        for a, b in ((1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="a < b"):
                composite_gauss_legendre(a, b)

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
