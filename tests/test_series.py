import math
import warnings

import numpy as np
import pytest

from lgqpd import (MeasurementSpec, StateSpec, TruncationConfig,
                   TruncationError, TruncationWarning, averaged_partial_sum,
                   j_block, lambda_of, phase_beta_of, q_sign_series_curve,
                   q_thermal_series_curve, q_window_series_curve, qpd_integral,
                   qpd_oracle, qpd_series_squeezed,
                   qpd_series_thermal, qpd_series_window,
                   series_tail_estimate, thermal_m_cut, x_xi_of)
from lgqpd.series import _q_sign, _q_thermal, _q_window
from lgqpd.states import DEFAULT_UNITS
from test_matrix_elements import quadrature_diag_row

TWO_PI = 2 * math.pi
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def thermal_reference(state, s1, s2, t1, t2, n_max, m_max=None):
    """The thermal series summed term by term over full (m, n) blocks, with
    the diagonal J_nn and the completeness weights taken by quadrature."""
    n_th = state.n_th
    w = n_th / (1.0 + n_th)
    m_cut = m_max if m_max is not None else thermal_m_cut(n_th, 1e-12)
    a1 = x_xi_of(t1, state.xi) / lambda_of(t1, state.r, state.theta0)
    a2 = x_xi_of(t2, state.xi) / lambda_of(t2, state.r, state.theta0)
    phi = (t2 - t1) + (phase_beta_of(t2, state.r, state.theta0)
                       - phase_beta_of(t1, state.r, state.theta0))
    wm = w ** np.arange(m_cut + 1)
    if abs(math.sin(phi)) < 1e-9:
        # completeness: the overlap of the two outcome regions, the first
        # one reflected when phi is an odd multiple of pi
        lo1, hi1 = (-a1, math.inf) if s1 == 1 else (-math.inf, -a1)
        if math.cos(phi) < 0:
            lo1, hi1 = -hi1, -lo1
        lo2, hi2 = (-a2, math.inf) if s2 == 1 else (-math.inf, -a2)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo >= hi:
            return 0.0
        weights = quadrature_diag_row(lo, m_cut) - quadrature_diag_row(hi, m_cut)
        return float(wm @ weights) / (1.0 + n_th)

    jb1 = j_block(-a1, m_cut, n_max)
    jb2 = j_block(-a2, m_cut, n_max)
    idx = np.arange(m_cut + 1)
    jb1[idx, idx] = quadrature_diag_row(-a1, m_cut)
    jb2[idx, idx] = quadrature_diag_row(-a2, m_cut)
    n = np.arange(n_max + 1)
    m = np.arange(m_cut + 1)
    block = 0.25 * (1.0 + s1 * math.erf(a1)) * (1.0 + s2 * math.erf(a2))
    down_terms = np.cos(n[1:] * phi) * jb2[0, 1:] * jb1[0, 1:]
    s_up = float((wm[1:] * np.cos(m[1:] * phi) * jb2[1:, 0] * jb1[1:, 0]).sum())
    prod = wm[:, None] * np.cos((m[:, None] - n[None, :]) * phi) * jb2 * jb1
    prod[0, :] = 0.0
    prod[:, 0] = 0.0
    prod[idx[1:], idx[1:]] = 0.0
    phase_sum = float(averaged_partial_sum(down_terms + prod.sum(axis=0)[1:]))
    k1 = jb1[idx, idx] if s1 == 1 else 1.0 - jb1[idx, idx]
    k2 = jb2[idx, idx] if s2 == 1 else 1.0 - jb2[idx, idx]
    ee = float((wm[1:] * k2[1:] * k1[1:]).sum())
    return (block + s1 * s2 * (phase_sum + s_up) + ee) / (1.0 + n_th)


class TestTailEstimate:
    def test_geometric_bound_is_tight(self):
        a, q = 0.7, 0.5
        terms = a * q ** np.arange(40)
        exact_tail = a * q ** 40 / (1 - q)
        bound = series_tail_estimate(terms)
        assert exact_tail <= bound <= 4 * exact_tail

    def test_all_zero(self):
        assert series_tail_estimate(np.zeros(12)) == 0.0

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError):
            series_tail_estimate([1.0] * 7)

    def test_oscillating_terms_use_envelope(self):
        # the bound must dominate the omitted remainder even when the last
        # few terms sit near phase zeros
        n = np.arange(60)
        terms = np.cos(1.3 * n) * 0.8 ** n
        bound = series_tail_estimate(terms)
        m = np.arange(60, 4000)
        remainder = abs(np.sum(np.cos(1.3 * m) * 0.8 ** m))
        first_omitted = abs(np.cos(1.3 * 60) * 0.8 ** 60)
        assert bound >= remainder
        assert bound >= first_omitted

    def test_consistent_with_observed_truncation_gap(self):
        # benchmark curve point: bound at n=50 brackets the observed change
        # when extending the sum to n=500
        state = StateSpec.from_phase_space(0.550, 1.925, 1.0, math.pi / 3)
        t2 = 2.0
        q50, info50 = qpd_series_squeezed(state, 1, -1, 0.0, t2,
                                          TruncationConfig(n_max=50), with_info=True)
        q500 = qpd_series_squeezed(state, 1, -1, 0.0, t2, TruncationConfig(n_max=500))
        observed = abs(q500 - q50)
        assert info50.tail_bound >= observed / 5.0
        assert info50.tail_bound <= max(observed * 500.0, 1e-4)


class TestCoherentSeries:
    def test_same_time_trivials(self):
        ground = StateSpec()
        assert qpd_series_squeezed(ground, 1, 1, 0.3, 0.3) == pytest.approx(0.5, abs=1e-14)
        assert qpd_series_squeezed(ground, 1, -1, 0.3, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_against_fock_oracle(self):
        state = StateSpec.from_phase_space(1.0, 1.0)
        q = qpd_series_squeezed(state, 1, -1, 0.0, 1.0, TruncationConfig(n_max=1200))
        qo = qpd_oracle(state, MeasurementSpec.sign(), 1, -1, 0.0, 1.0, dim=300)
        assert q == pytest.approx(qo, abs=1e-6)

    def test_benchmark_minimum_row(self):
        state = StateSpec.from_phase_space(0.550, 1.93)
        ts = np.linspace(0.05, TWO_PI, 400)
        qs = q_sign_series_curve(state, -1, 1, 0.0, ts, n_max=400)
        assert 4 * qs.min() == pytest.approx(-0.113, abs=0.003)


class TestSqueezedSeries:
    def test_reduces_to_coherent_bit_for_bit(self):
        # at r = 0 the squeeze phase drops out exactly
        state0 = StateSpec.from_phase_space(0.8, -0.3, r=0.0, theta0=1.2)
        q_sq = qpd_series_squeezed(state0, -1, 1, 0.2, 1.7)
        q_coh = qpd_series_squeezed(StateSpec(xi=state0.xi), -1, 1, 0.2, 1.7)
        assert q_sq == q_coh

    def test_matches_integral_route_curve(self):
        state = StateSpec.from_phase_space(0.550, 1.925, 1.0, math.pi / 3)
        trunc = TruncationConfig(n_max=500)
        for t2 in (0.7, 2.0, 3.0, 5.5):
            qs = qpd_series_squeezed(state, 1, -1, 0.0, t2, trunc)
            qi = qpd_integral(state, None, 1, -1, 0.0, t2)
            assert qs == pytest.approx(qi, abs=1e-3)

    def test_thermal_preconditions(self):
        with pytest.raises(ValueError):
            qpd_series_squeezed(StateSpec(n_th=0.3), 1, 1, 0.0, 1.0)

    def test_parity_at_origin(self):
        state = StateSpec(xi=0j, r=0.7, theta0=0.4)
        for s1, s2 in ((1, 1), (1, -1)):
            qa = qpd_series_squeezed(state, s1, s2, 0.25, 1.3)
            qb = qpd_series_squeezed(state, -s1, -s2, 0.25, 1.3)
            assert qa == pytest.approx(qb, abs=1e-10)

    def test_normalization_exact(self):
        state = StateSpec.from_phase_space(0.7, -1.1, 0.6, 1.1)
        total = sum(qpd_series_squeezed(state, s1, s2, 0.35, 1.45)
                    for s1 in (1, -1) for s2 in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_singular_branch_same_time(self):
        state = StateSpec.from_phase_space(0.9, 0.4, 0.5, 0.3)
        q, info = qpd_series_squeezed(state, 1, 1, 0.7, 0.7, with_info=True)
        assert info.singular_branch
        # same-time correlator equals the single-projector marginal
        from lgqpd import sign_marginal
        assert q == pytest.approx(sign_marginal(state, None, 1, 0.7), abs=1e-12)
        assert qpd_series_squeezed(state, 1, -1, 0.7, 0.7) == pytest.approx(0.0, abs=1e-14)


class TestThermalSeries:
    def test_zero_temperature_delegates(self):
        state = StateSpec.from_phase_space(0.6, 0.9, 0.4, 1.0, n_th=0.0)
        assert qpd_series_thermal(state, 1, -1, 0.2, 1.6) == \
            qpd_series_squeezed(state, 1, -1, 0.2, 1.6)

    def test_against_thermal_fock_oracle(self):
        from lgqpd import n_th_from_temperature
        n_th = n_th_from_temperature(0.5)
        state = StateSpec.from_phase_space(1.0, 1.0, n_th=n_th)
        q = qpd_series_thermal(state, 1, 1, 0.0, 2.0, TruncationConfig(n_max=900))
        qo = qpd_oracle(state, MeasurementSpec.sign(), 1, 1, 0.0, 2.0, dim=300)
        assert q == pytest.approx(qo, abs=1e-6)

    def test_squeezed_thermal_against_oracle(self):
        state = StateSpec.from_phase_space(0.9, -0.5, 0.5, 0.8, n_th=1.0)
        q = qpd_series_thermal(state, -1, 1, 0.3, 1.7, TruncationConfig(n_max=900))
        qo = qpd_oracle(state, MeasurementSpec.sign(), -1, 1, 0.3, 1.7, dim=350)
        assert q == pytest.approx(qo, abs=1e-6)

    def test_normalization_exact(self):
        state = StateSpec.from_phase_space(0.9, 1.1, 0.5, 0.8, n_th=0.8)
        total = sum(qpd_series_thermal(state, s1, s2, 0.25, 1.9)
                    for s1 in (1, -1) for s2 in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_singular_branch_thermal(self):
        state = StateSpec.from_phase_space(0.4, 0.8, 0.3, 0.0, n_th=0.6)
        q, info = qpd_series_thermal(state, 1, -1, 0.5, 0.5, with_info=True)
        assert info.singular_branch
        assert q == pytest.approx(0.0, abs=1e-13)
        qo = qpd_oracle(state, MeasurementSpec.sign(), 1, 1, 0.5, 0.5, dim=300)
        q11 = qpd_series_thermal(state, 1, 1, 0.5, 0.5)
        assert q11 == pytest.approx(qo, abs=1e-8)

    def test_m_truncation_warning_and_error(self):
        state = StateSpec.from_phase_space(0.5, 0.5, n_th=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            with pytest.raises(TruncationWarning):
                qpd_series_thermal(state, 1, 1, 0.0, 1.0,
                                   TruncationConfig(n_max=100, m_max=5))
        with pytest.raises(TruncationError):
            qpd_series_thermal(state, 1, 1, 0.0, 1.0, TruncationConfig(n_max=20))


    @pytest.mark.parametrize("n_th", [0.156, 0.8, 1.54, 3.0])
    def test_kernel_against_term_by_term_reference(self, n_th):
        state = StateSpec.from_phase_space(0.7, -1.3, 0.5, 0.4, n_th)
        t1 = 0.3
        # t2 = t1 and t1 + pi are singular; t1 + 1e-3 is close to it
        grid = np.array([t1, t1 + 1e-3, 1.1, t1 + math.pi, 4.0, 5.9])
        for k in (0, 3):
            assert qpd_series_thermal(state, 1, 1, t1, grid[k],
                                      with_info=True)[1].singular_branch
        for s1, s2 in SIGN_PAIRS:
            for m_max in (None, 7, 80):
                trunc = TruncationConfig(n_max=150, m_max=m_max)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TruncationWarning)
                    scalar = np.array([qpd_series_thermal(state, s1, s2, t1, t, trunc)
                                       for t in grid])
                ref = np.array([thermal_reference(state, s1, s2, t1, t, 150, m_max)
                                for t in grid])
                assert np.max(np.abs(scalar - ref)) < 1e-13

    def test_curve_truncation_error(self):
        state = StateSpec.from_phase_space(0.5, 0.5, n_th=1.5)
        with pytest.raises(TruncationError):
            q_thermal_series_curve(state, 1, 1, 0.0, np.array([0.5, 1.0]), 20)


class TestWindowSeries:
    def test_same_time_disjoint_regions(self):
        vac = StateSpec()
        assert qpd_series_window(vac, 1.0, 1, -1, 0.4, 0.4) == pytest.approx(0.0, abs=1e-14)

    def test_period_pi_over_omega(self):
        state = StateSpec(xi=0j, r=0.4, theta0=0.0)
        for t2 in (0.3, 1.1, 2.0):
            qa = qpd_series_window(state, 1.02, 1, 1, 0.0, t2)
            qb = qpd_series_window(state, 1.02, 1, 1, 0.0, t2 + math.pi)
            assert qa == pytest.approx(qb, abs=1e-8)

    def test_against_fock_oracle(self):
        state = StateSpec(xi=0j, r=0.3, theta0=0.0)
        q = qpd_series_window(state, 1.0, 1, 1, 0.0, 1.3, TruncationConfig(n_max=900))
        qo = qpd_oracle(state, MeasurementSpec.window(1.0), 1, 1, 0.0, 1.3, dim=300)
        assert q == pytest.approx(qo, abs=1e-6)

    def test_normalization_exact(self):
        state = StateSpec(xi=0j, r=0.35, theta0=0.4)
        total = sum(qpd_series_window(state, 1.1, s1, s2, 0.2, 1.8)
                    for s1 in (1, -1) for s2 in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        # the point and the curve share their checks
        for state, half_width in ((StateSpec(xi=0.5 + 0j), 1.0), (StateSpec(n_th=0.2), 1.0),
                                  (StateSpec.from_phase_space(0.8, 0.0, n_th=0.5), 1.0),
                                  (StateSpec(), -1.0)):
            with pytest.raises(ValueError):
                qpd_series_window(state, half_width, 1, 1, 0.0, 1.0)
            with pytest.raises(ValueError):
                q_window_series_curve(state, half_width, 1, 1, 0.0, np.array([0.5, 1.0]), 60)

    def test_luders_floor(self):
        vac = StateSpec()
        grid = np.linspace(0.0, TWO_PI, 200)
        q = q_window_series_curve(vac, 1.02, 1, 1, 0.0, grid, n_max=300)
        assert q.min() >= -0.125 - 1e-6


class TestPointAndCurve:
    """Each series point is the one-element call of its family's t2 kernel,
    which also feeds the family's curve."""

    T1 = 0.3
    # t2 = t1 and t1 + pi are singular; t1 + 1e-3 is close to it
    GRID = np.array([T1, T1 + 1e-3, 1.1, T1 + math.pi, 4.0, 5.9])

    @pytest.mark.parametrize("family,n_th", [
        ("sign", 0.0), ("window", 0.0), ("thermal", 0.156), ("thermal", 0.8),
        ("thermal", 1.54), ("thermal", 3.0)])
    def test_point_matches_curve(self, family, n_th):
        if family == "sign":
            state, extra, n_max, tol = StateSpec.from_phase_space(0.5, 1.2, 0.8, 0.9), (), 300, 1e-12
            point, curve = qpd_series_squeezed, q_sign_series_curve
            kernel = lambda *args: _q_sign(*args, n_max, DEFAULT_UNITS)
        elif family == "window":
            state, extra, n_max, tol = StateSpec(xi=0j, r=0.25, theta0=0.0), (1.02,), 300, 1e-12
            point, curve = qpd_series_window, q_window_series_curve
            kernel = lambda *args: _q_window(*args, n_max, DEFAULT_UNITS)
        else:
            state = StateSpec.from_phase_space(0.7, -1.3, 0.5, 0.4, n_th)
            extra, n_max, tol = (), 150, 1e-14
            point, curve = qpd_series_thermal, q_thermal_series_curve
            kernel = lambda *args: _q_thermal(*args, TruncationConfig(n_max=n_max),
                                              DEFAULT_UNITS)
        trunc = TruncationConfig(n_max=n_max)
        for s1, s2 in SIGN_PAIRS:
            args = (state,) + extra + (s1, s2, self.T1)
            singular = kernel(*args, self.GRID)[2]
            assert list(np.flatnonzero(singular)) == [0, 3]
            q_curve = curve(*args, self.GRID, n_max)
            for k, t2 in enumerate(self.GRID):
                q, info = point(*args, float(t2), trunc, with_info=True)
                assert abs(q - q_curve[k]) <= tol
                assert info.singular_branch == singular[k]
                assert info.n_used == (0 if singular[k] else n_max)
