import ast
import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgqpd import (CapabilityError, MeasurementSpec, StateSpec, TruncationConfig,
                   TruncationError, lambda_of, phase_beta_of, q_sign_series_curve,
                   q_window_series_curve, qpd_integral, qpd_oracle, qpd_series_squeezed,
                   qpd_series_thermal, qpd_series_window, named_evaluator,
                   psi_rows, series, sign_marginal, thermal_m_cut, x_xi_of)
from lgqpd import T2Search, scan, special
from lgqpd.matrix_elements import j_block, j_row, ladder_diagonal, lowered
from lgqpd.series import (SINGULAR_PHASE_TOL, _BLOCK_DOUBLES, _cached_phase_table, _SeriesCell,
                          _carry_sum, _cell_calls, _cell_curves, _cell_values, _columns,
                          _euler_tails, _fill_singular, _ground_weight, _halfline,
                          _phase_tables, _psi_sq_weights, _sign_inputs, _t1_geometry,
                          _window_inputs, _window_region)
from lgqpd.special import HARD_N_CAP, averaged_partial_sum
from lgqpd.states import T2_PERIOD, x_xi_dot
from test_matrix_elements import quadrature_diag_row, window_row
from test_states import lambda_dot, phase_beta_dot

TWO_PI = 2 * math.pi
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@functools.lru_cache(maxsize=None)
def tail_weights(n_max: int) -> np.ndarray:
    """Omega_n for n = 1..n_max, the weight of the n-th term in the
    Euler-averaged sum of n_max terms (binomial weights C(W-1, k) / 2^(W-1)
    on the final W partial sums), as 1 minus the exact integer head of the
    binomials before n over 2^(W-1), rounded once."""
    w = min(256, max(2, 3 * n_max // 4), n_max)
    first, scale = n_max + 1 - w, 2 ** (w - 1)
    heads = [sum(math.comb(w - 1, k) for k in range(max(n - first, 0))) for n in range(1, n_max + 1)]
    return np.array([(scale - head) / scale for head in heads])


def streamed_sum(terms, rows: int) -> np.ndarray:
    """The Euler-averaged sum of ``terms`` as a curve streams it, in the
    operations of _phase_sums and _thermal_stream: blocks of at most ``rows``
    orders, each weighted by its tail weights in a reused slot buffer and
    added to the running total by _carry_sum."""
    n = len(terms)
    omega = _euler_tails(n).reshape((-1,) + (1,) * (np.ndim(terms) - 1))
    slots, total = np.empty((rows + 1,) + np.shape(terms)[1:]), np.zeros(np.shape(terms)[1:])
    for k0 in range(0, n, rows):
        m = min(rows, n - k0)
        new = slots[1:m + 1]
        new[...] = terms[k0:k0 + m]
        np.multiply(new, omega[k0 + 1:k0 + m + 1], out=new)
        total = _carry_sum(slots, m, total)
    return total


def ordered_sum(terms) -> np.ndarray:
    """The terms added along axis 0 one by one, in order of n, from 0."""
    total = np.zeros(np.shape(terms)[1:])
    for term in terms:
        total = total + term
    return total


def geometry(state, t1, t2):
    """lam1, lam2, a1, a2 and phi of one state over the t2 array ``t2``, as
    the kernels' _columns gives them."""
    lam1, lam2, a1, a2, phi, _ = _columns([state], t1, np.asarray(t2, dtype=float))
    return lam1, lam2, a1[0, 0], a2[0], phi


def thermal_reference(state, s1, s2, t1, t2, n_max):
    """The thermal series summed term by term over full (m, n) blocks, with
    the diagonal J_nn and the completeness weights taken by quadrature."""
    n_th = state.n_th
    w = n_th / (1.0 + n_th)
    m_cut = thermal_m_cut(n_th)
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


@pytest.mark.parametrize("make", [
    lambda: MeasurementSpec("interval"), lambda: TruncationConfig(n_max=0),
    lambda: TruncationConfig(n_max=-3), lambda: TruncationConfig(n_max=2.5)])
def test_specs_reject_bad_values(make):
    with pytest.raises(ValueError):
        make()


class TestCurveOrderRule:
    """The public curves take n_max under the rule of TruncationConfig, which
    the points use (:func:`test_specs_reject_bad_values`)."""

    GRID = np.array([0.7, 1.3])
    CURVES = {
        "sign": lambda n_max: q_sign_series_curve(
            StateSpec.from_phase_space(0.5, 1.2, 0.8, 0.9), 1, -1, 0.0, TestCurveOrderRule.GRID,
            n_max),
        "window": lambda n_max: q_window_series_curve(
            StateSpec(r=0.25), 1.02, 1, 1, 0.0, TestCurveOrderRule.GRID, n_max)}

    @pytest.mark.parametrize("family", CURVES)
    @pytest.mark.parametrize("n_max", [0, -3, 2.5])
    def test_bad_orders_are_refused(self, family, n_max):
        with pytest.raises(ValueError, match="n_max"):
            self.CURVES[family](n_max)

    @pytest.mark.parametrize("family", CURVES)
    def test_orders_above_the_cap_are_refused(self, family):
        with pytest.raises(CapabilityError):
            self.CURVES[family](HARD_N_CAP + 1)

    @pytest.mark.parametrize("family", CURVES)
    def test_a_whole_float_order_is_taken(self, family):
        assert self.CURVES[family](200.0).tobytes() == self.CURVES[family](200).tobytes()


_PURE = StateSpec.from_phase_space(0.5, 1.2, 0.8, 0.9)
_THERMAL = StateSpec.from_phase_space(0.5, 1.2, 0.8, 0.9, n_th=0.6)
_VACUUM = StateSpec(r=0.25)
_CELL = {"s1": 1, "s2": -1, "x0": 0.5, "p0": 1.2, "r": 0.8, "theta0": 0.9}
NON_FINITE_ENTRIES = {
    "integral t2": lambda t: qpd_integral(_PURE, None, 1, -1, 0.0, t),
    "integral t1": lambda t: qpd_integral(_PURE, None, 1, -1, t, 1.3),
    "integral curve": lambda t: named_evaluator(_CELL, "integral", "sign")[1]([1.3, t]),
    "squeezed t2": lambda t: qpd_series_squeezed(_PURE, 1, -1, 0.0, t),
    "squeezed t1": lambda t: qpd_series_squeezed(_PURE, 1, -1, t, 1.3),
    "thermal t2": lambda t: qpd_series_thermal(_THERMAL, 1, -1, 0.0, t),
    "thermal t1": lambda t: qpd_series_thermal(_THERMAL, 1, -1, t, 1.3),
    "window t2": lambda t: qpd_series_window(_VACUUM, 1.02, 1, 1, 0.0, t),
    "window t1": lambda t: qpd_series_window(_VACUUM, 1.02, 1, 1, t, 1.3),
    "sign curve t2": lambda t: q_sign_series_curve(_PURE, 1, -1, 0.0, [1.3, t], 60),
    "sign curve t1": lambda t: q_sign_series_curve(_PURE, 1, -1, t, [1.3], 60),
    "window curve t2": lambda t: q_window_series_curve(_VACUUM, 1.02, 1, 1, 0.0, [t], 60),
    "cell point": lambda t: named_evaluator(_CELL, "series", "sign", 60)[0](t),
    "cell slope": lambda t: named_evaluator(_CELL, "series", "sign", 60)[0].slope(t),
    "cell curve": lambda t: named_evaluator(_CELL, "series", "sign", 60)[1]([1.3, t]),
    "thermal cell point": lambda t: named_evaluator(
        dict(_CELL, n_th=0.6), "series", "sign", 60)[0](t),
    "thermal cell curve": lambda t: named_evaluator(
        dict(_CELL, n_th=0.6), "series", "sign", 60)[1]([t]),
    "marginal": lambda t: sign_marginal(_PURE, None, 1, t),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES)
def test_non_finite_times_are_refused(entry, t):
    # these used to return NaN, or raise an overflow ArithmeticError (integral)
    with pytest.raises(ValueError, match=r"t[12]? must be finite"):
        NON_FINITE_ENTRIES[entry](t)


class TestTailEstimate:
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

    def test_m_truncation_error(self):
        state = StateSpec.from_phase_space(0.5, 0.5, n_th=1.5)
        with pytest.raises(TruncationError):
            qpd_series_thermal(state, 1, 1, 0.0, 1.0, TruncationConfig(n_max=20))

    def test_occupation_remainder_under_the_order_cap(self):
        # the point reports the cut and its remainder w^(m_cut + 1)
        state = StateSpec.from_phase_space(0.5, 0.5, n_th=1.5)
        info = qpd_series_thermal(state, 1, 1, 0.0, 1.0, TruncationConfig(n_max=100),
                                  with_info=True)[1]
        assert (info.m_used, info.m_tail) == (thermal_m_cut(1.5), 0.6 ** (thermal_m_cut(1.5) + 1))
        # the remainder stays under 7.0e-9 for every n_th whose cut fits under
        # the order cap, and under 1e-8 for every cut that thermal_m_cut
        # accepts (up to n_th = 9999); a cell refuses n_max below the cut, and
        # refuses the state where the cut is above the cap
        n_ths = np.geomspace(1e-6, 9999.0, 20001).tolist()
        cuts = [thermal_m_cut(n_th) for n_th in n_ths]
        last = max(i for i, m in enumerate(cuts) if m <= HARD_N_CAP)
        assert all(m <= HARD_N_CAP for m in cuts[:last + 1]) and 6e3 < n_ths[last] < 8e3
        remainders = [(n_th / (1.0 + n_th)) ** (m + 1) for n_th, m in zip(n_ths, cuts)]
        assert max(remainders[:last + 1]) <= 7.0e-9 and max(remainders) <= 1e-8
        cap = TruncationConfig(n_max=HARD_N_CAP)
        _SeriesCell("thermal", (StateSpec(n_th=n_ths[last]),), (1, 1, 0.0), cap)
        with pytest.raises(TruncationError):
            _SeriesCell("thermal", (StateSpec(n_th=n_ths[last]),), (1, 1, 0.0),
                        TruncationConfig(n_max=cuts[last] - 1))
        with pytest.raises(CapabilityError, match="no occupation cut within the order cap"):
            _SeriesCell("thermal", (StateSpec(n_th=n_ths[last + 1]),), (1, 1, 0.0), cap)


    @pytest.mark.parametrize("n_th", [0.156, 0.8, 1.54, 3.0])
    def test_kernel_against_term_by_term_reference(self, n_th):
        state = StateSpec.from_phase_space(0.7, -1.3, 0.5, 0.4, n_th)
        t1 = 0.3
        # t2 = t1 and t1 + pi are singular; t1 + 1e-3 is close to it
        grid = np.array([t1, t1 + 1e-3, 1.1, t1 + math.pi, 4.0, 5.9])
        for k in (0, 3):
            assert qpd_series_thermal(state, 1, 1, t1, grid[k],
                                      with_info=True)[1].singular_branch
        trunc = TruncationConfig(n_max=150)
        for s1, s2 in SIGN_PAIRS:
            scalar = np.array([qpd_series_thermal(state, s1, s2, t1, t, trunc)
                               for t in grid])
            ref = np.array([thermal_reference(state, s1, s2, t1, t, 150) for t in grid])
            assert np.max(np.abs(scalar - ref)) < 1e-13

    def test_curve_truncation_error(self):
        state = StateSpec.from_phase_space(0.5, 0.5, n_th=1.5)
        with pytest.raises(TruncationError):
            _cell_curves([_SeriesCell("thermal", (state,), (1, 1, 0.0),
                                      TruncationConfig(n_max=20))], np.array([0.5, 1.0]))

    def test_a_singular_point_builds_no_cut(self):
        # completeness reads no t1 cut
        state = StateSpec.from_phase_space(0.4, 0.8, 0.3, 0.0, n_th=0.6)
        series._thermal_fixed_cut.cache_clear()
        qpd_series_thermal(state, 1, -1, 0.5, 0.5)
        assert series._thermal_fixed_cut.cache_info().misses == 0
        qpd_series_thermal(state, 1, -1, 0.5, 1.5)
        assert series._thermal_fixed_cut.cache_info().misses == 1

    @pytest.mark.parametrize("xi,r,theta0,n_th,t1,t2", [
        # thermal points of acceptance criterion 2's stream (seed 20250810),
        # all at s = (-1, -1)
        (1.4245000222451762 + 0.04906166833507898j, 0.9762157889406923, 2.443779449870041,
         0.5, 2.6529542277285056, 6.894103817323829),
        (0.27003314937000195 + 1.3847625218696973j, 0.38229542031513053, 3.250987378918071,
         0.5, 3.0266861267170917, 5.594936157086739),
        (-1.3470569994892574 - 1.0692248450530824j, 0.7854458389233082, 4.9131725669568675,
         1.0, 2.302896306461546, 7.608499204228668)])
    def test_one_off_point_against_the_oracle(self, xi, r, theta0, n_th, t1, t2):
        state = StateSpec(xi=xi, r=r, theta0=theta0, n_th=n_th)
        q = qpd_series_thermal(state, -1, -1, t1, t2, TruncationConfig(n_max=2500))
        qo = qpd_oracle(state, MeasurementSpec.sign(), -1, -1, t1, t2, dim=400)
        assert abs(q - qo) <= 1e-5


def mixed_blocks(cut, w, m_cut, n_max):
    """B_mn = w^m J_mn(cut, inf) / (2 (n - m)) and G_mn = w^m J_mn(cut, inf)
    from the dense j_block, with the m = 0 row, the n = 0 column and the
    diagonal zeroed: the dense reference of the thermal kernel's table
    products."""
    m = np.arange(m_cut + 1)[:, None]
    g = w ** m * j_block(cut, m_cut, n_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = g / (2.0 * (np.arange(n_max + 1) - m))
    for arr in (b, g):
        arr[0] = arr[:, 0] = 0.0
        np.fill_diagonal(arr, 0.0)
    return b, g


def table_products(cut, factors, tables):
    """(B^T F)^T for the Q table and (G^T F)^T for the H table from a cut's
    held pieces, F^T being the (4, m_cut + 1) ``factors``: L ⊙ ((u ⊙ F^T) T)
    - psi ⊙ ((v ⊙ F^T) T) for each table T, the products that the thermal
    stream forms step by step."""
    p = np.matmul((np.array((cut.u, cut.v))[:, None] * factors).reshape(8, -1), tables)
    return cut.low * p[:, :4] - cut.psi * p[:, 4:]


class TestThermalCut:
    """A thermal t1 cut is held as O(n_max) pieces, and its mixed family is
    applied through the x-independent tables of (m_cut, n_max)."""

    @settings(max_examples=40, deadline=None)
    @given(cut=st.floats(-5.0, 5.0), n_th=st.sampled_from([0.156, 0.8, 1.54, 3.0]),
           data=st.data())
    def test_table_products_equal_the_blocks(self, cut, n_th, data):
        w, m_cut = n_th / (1.0 + n_th), thermal_m_cut(n_th)
        n_max = data.draw(st.integers(m_cut, 2500))
        factors = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
            (4, m_cut + 1))
        pieces = series._thermal_fixed_cut(cut, w, m_cut, n_max)
        tables = series._gap_tables(m_cut, n_max)
        got = table_products(pieces, factors, tables)
        # both forms round the Wronskian difference L_n psi_m - L_m psi_n,
        # which cancels at large |cut|: each entry agrees within the rounding
        # bound of a sum of m_cut + 1 products, (m_cut + 6) eps, relative to
        # the magnitudes that cancel in it
        tol = (m_cut + 6) * np.finfo(float).eps
        for value, block, table in zip(got, mixed_blocks(cut, w, m_cut, n_max), tables):
            scale = (np.abs(pieces.low) * (np.abs(pieces.u * factors) @ np.abs(table))
                     + np.abs(pieces.psi) * (np.abs(pieces.v * factors) @ np.abs(table)))
            assert np.all(np.abs(value - factors @ block) <= tol * scale)

    @pytest.mark.parametrize("above", [0, 245])
    def test_a_cell_holds_no_block(self, above):
        n_th = 1.54
        n_max = thermal_m_cut(n_th) + above
        state = StateSpec.from_phase_space(0.7, -1.3, 0.5, 0.4, n_th)
        cell = _SeriesCell("thermal", (state,), (1, -1, 0.3), TruncationConfig(n_max=n_max))
        cell.slope(1.1)
        cell.curve(np.linspace(0.0, TWO_PI, 9))
        assert all(arr.ndim == 1 and arr.size <= n_max + 1 for arr in cell._held)


def reference_row(cell):
    """A pure cell's t1 row by the 1-D helpers: j_row at its cut -a1, or
    window_row at L / lambda(t1), orders 1..n_max."""
    state, t1, n_max = cell.column[0], cell.shared[2], cell.trunc.n_max
    lam1 = _t1_geometry(state.r, state.theta0, t1)[0]
    if cell.family == "window":
        return window_row(cell.column[1] / lam1, n_max)[1:]
    return j_row(-(x_xi_of(t1, state.xi) / lam1), n_max)[1:]


def _formed_calls(monkeypatch) -> list:
    """One flag for each pure kernel call, in order: True where its phase
    sums form the t1 rows, False where they read the rows the cells hold."""
    formed, real = [], series._phase_sums

    def phase_sums(window, cut1, cut2, phi, n_max, row1, rates):
        formed.append(row1 is None)
        return real(window, cut1, cut2, phi, n_max, row1, rates)

    monkeypatch.setattr(series, "_phase_sums", phase_sums)
    return formed


class TestRowsFromCurves:
    """A pure cell holds the t1 row that its first non-singular call formed
    in the kernel's stream, alone or in a batch curve, and keeps it: every
    later call reads it."""

    @staticmethod
    def _cells(family, r, t1, seed):
        rng = np.random.default_rng(seed)
        trunc = TruncationConfig(n_max=120)
        if family == "window":
            return [_SeriesCell("window", (StateSpec(r=r, theta0=0.3), float(h)), (1, 1, t1), trunc)
                    for h in rng.uniform(0.5, 1.6, 4)]
        return [_SeriesCell("sign", (StateSpec.from_phase_space(x0, p0, r, 0.3),), (1, -1, t1),
                            trunc) for x0, p0 in rng.uniform(-2.5, 2.5, (4, 2))]

    @pytest.mark.parametrize("family", ["sign", "window"])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("t1", [0.0, 0.4])
    def test_a_handed_row_equals_the_cells_own(self, monkeypatch, family, r, t1):
        seed = int(10 * r + 10 * t1)
        fresh, handed = self._cells(family, r, t1, seed), self._cells(family, r, t1, seed)
        formed = _formed_calls(monkeypatch)
        for cell in fresh:  # a one-column call forms the cell's own row
            cell(0.9)
        # t1 and t1 + pi are singular phases for any squeezing
        grid = np.concatenate([[t1, t1 + math.pi], np.linspace(0.0, TWO_PI, 11)])
        rows = _cell_curves(handed, grid)
        held = [cell._row for cell in fresh + handed]
        for own, cell, row in zip(fresh, handed, rows):
            assert cell._row.tobytes() == own._row.tobytes() == reference_row(cell).tobytes()
            assert row.tobytes() == own.curve(grid).tobytes()
            for t2 in (t1, t1 + math.pi, 0.9, 2.3):
                assert repr(cell.slope(t2)) == repr(own.slope(t2))
                assert repr(cell(t2)) == repr(own(t2))
        assert all(cell._row is h for cell, h in zip(fresh + handed, held))
        # 4 one-column calls and the batch curve formed rows, no later call
        assert formed[:5] == [True] * 5 and not any(formed[5:]) and len(formed) > 5
        # a point's tail bound is a point at half the truncation, whose cell
        # forms its own row
        for own, cell in zip(fresh, handed):
            for t2 in (t1, t1 + math.pi, 0.9, 2.3):
                assert repr(cell(t2, with_info=True)) == repr(own(t2, with_info=True))

    def test_an_all_singular_curve_hands_no_row(self):
        cells = self._cells("sign", 0.5, 0.4, 3)
        _cell_curves(cells, np.array([0.4, 0.4 + math.pi]))
        assert not any("_row" in cell.__dict__ for cell in cells)

    def test_a_held_row_is_kept(self, monkeypatch):
        # a cell that holds its row keeps it through later batch curves, and
        # in a batch whose other cells hold none, which forms the rows
        cells = self._cells("window", 0.5, 0.0, 4)
        formed = _formed_calls(monkeypatch)
        for cell in cells[:2]:
            cell(0.9)
        held = [cell._row for cell in cells[:2]]
        _cell_curves(cells, np.linspace(0.0, TWO_PI, 9))
        held += [cell._row for cell in cells[2:]]
        _cell_curves(cells, np.linspace(0.0, TWO_PI, 9))
        assert all(cell._row is h for cell, h in zip(cells, held))
        assert formed == [True, True, True, False]


class TestFormedRows:
    """A pure call whose cells hold no t1 row forms the rows in its stream,
    cut1 riding along as column K; each q and dq/dt2 equals, bit for bit,
    the call that reads the rows that the cells hold, here the 1-D
    reference rows, at any batch size, in mixed batches, on both paths of
    special._psi_blocks and at every block edge."""

    T1 = 0.0

    @staticmethod
    def _pool(rng, family, few):
        """(columns, t2 values) to draw from: with ``few``, two columns and
        two t2 values, at most 6 distinct cuts; the sign pool's x0 = 0
        state has cut1 = -0.0 at t1 = 0."""
        count = 2 if few else 64
        r, position = rng.uniform(0.0, 1.0, count), rng.uniform(-2.5, 2.5, (count, 2))
        if family == "window":
            columns = [(StateSpec(r=float(r[k]), theta0=0.3), 1.05 + 0.2 * float(position[k, 0]))
                       for k in range(count)]
        else:
            position[0, 0] = 0.0
            columns = [(StateSpec.from_phase_space(*map(float, position[k]), float(r[k]), 0.3),)
                       for k in range(count)]
        return columns, ([0.9, 2.3] if few else list(rng.uniform(0.0, TWO_PI, count)))

    @staticmethod
    def _answers(family, picks, n_max, slope, held):
        """The answers of one round of fresh cells of ``picks``, (column, t2)
        pairs, with or without ``slope``: each (q, dq/dt2 or None); the
        cells flagged in ``held`` first take their reference rows.  Returns
        the answers and the cells."""
        trunc = TruncationConfig(n_max=n_max)
        cells = [_SeriesCell(family, column, (1, -1, TestFormedRows.T1), trunc)
                 for column, _ in picks]
        for cell, take in zip(cells, held):
            if take:
                cell.take_row(reference_row(cell))
        values = _cell_calls(cells, np.array([[t2] for _, t2 in picks]), slope)
        return [(float(v.q[0]), None if v.slope is None or v.singular[0] else float(v.slope[0]))
                for v in values], cells

    @staticmethod
    def _distinct_cuts(cells, picks) -> int:
        cuts = set()
        for cell, (_, t2) in zip(cells, picks):
            state = cell.column[0]
            for t in (TestFormedRows.T1, t2):
                lam = lambda_of(t, state.r, state.theta0)
                cut = cell.column[1] / lam if cell.family == "window" else -(x_xi_of(t, state.xi) / lam)
                cuts.add(np.float64(cut).tobytes())
        return len(cuts)

    def _check(self, family, picks, n_max, slope, mixed):
        """Formed (or, with ``mixed``, partly held) rows against all held
        ones: every answer, and every row the cells then hold."""
        held = [True] * len(picks)
        want, _ = self._answers(family, picks, n_max, slope, held)
        some = [mixed and k % 3 == 0 for k in range(len(picks))]
        got, cells = self._answers(family, picks, n_max, slope, some)
        assert [repr(a) for a in got] == [repr(a) for a in want]
        for cell in cells:
            assert cell._row.tobytes() == reference_row(cell).tobytes()
        return cells

    @pytest.mark.parametrize("family", ["sign", "window"])
    @pytest.mark.parametrize("slope", [False, True])
    @pytest.mark.parametrize("few", [True, False])
    def test_every_batch_size(self, family, slope, few):
        rng = np.random.default_rng(2 * slope + few + (family == "window") * 4)
        columns, t2s = self._pool(rng, family, few)
        paths = set()
        for c in range(1, 65):
            picks = [(columns[k % len(columns)], t2s[(k // len(columns) + k) % len(t2s)])
                     for k in range(c)]
            cells = self._check(family, picks, 120, slope, mixed=c % 2 == 0)
            # the 2C cuts (t2's and t1's) are the memo's own keys up to 8 of
            # them; beyond that they are gathered from it when at most 8 are
            # distinct, else the array recurrence runs
            paths.add("keys" if 2 * c <= 8 else
                      "memo" if self._distinct_cuts(cells, picks) <= 8 else "recurrence")
        assert paths == {"keys", "memo" if few else "recurrence"}

    @pytest.mark.parametrize("family", ["sign", "window"])
    @pytest.mark.parametrize("slope", [False, True])
    @pytest.mark.parametrize("n_max", [1, 2, 108, 109, 110, 200, 256, 2500])
    def test_block_edges(self, family, slope, n_max):
        # one round at three columns' 50 values of t2 streams in blocks of
        # 16384 // 150 = 109 orders, so n_max = 109 puts the slope's
        # psi_n_max in a block of its own (TestBatchedCurves.test_block_edges)
        if family == "window":
            columns = [(StateSpec(r=0.5), h) for h in (0.8, 1.03, 1.6)]
        else:
            columns = [(StateSpec.from_phase_space(x0, 0.6 - x0, 0.5),) for x0 in (-1.5, 0.0, 2.0)]
        grid = np.linspace(0.0, TWO_PI, 50)  # 0 and 2 pi are singular
        picks = [(column, float(t2)) for column in columns for t2 in grid]
        self._check(family, picks, n_max, slope, mixed=False)
        self._check(family, picks, n_max, slope, mixed=True)

    def test_one_way_into_the_pure_kernel(self):
        # _q_pure is called only by _cell_calls, and the series builds a
        # j_row only for a thermal cut; every pure t1 row comes from the
        # stream of _phase_sums
        tree = ast.parse(Path(series.__file__).read_text(encoding="utf-8"))
        callers = {"_q_pure": [], "j_row": []}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id in callers):
                    callers[child.func.id].append(where)
                named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
                visit(child, child.name if named else where)

        visit(tree, None)
        assert callers == {"_q_pure": ["_cell_calls"], "j_row": ["_thermal_fixed_cut"]}
        assert not hasattr(series, "_window_row")


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


class TestGeometry:
    """_columns evaluates the geometry of a batch once per distinct
    squeezing, over a shared grid or one t2 per column; each column equals
    the closed forms of its own state bit for bit, the rates included: the
    test-local lambda_dot and phase_beta_dot form their own A(t), sin(2t -
    theta0) and lambda, where _columns reads them from beta's evaluation."""

    @pytest.mark.parametrize("t1", [0.0, 0.3, -2.1, 7.5])
    def test_cached_t1_half_equals_a_fresh_computation(self, t1):
        states = [StateSpec.from_phase_space(0.7, -1.3, 0.5, 0.4),
                  StateSpec.from_phase_space(-0.2, 0.9, 0.5, 0.4),
                  StateSpec.from_phase_space(1.1, 0.3, 0.2, -1.0)]
        t2 = np.array([0.1, 1.1, 4.0])
        assert _t1_geometry(0.5, 0.4, t1) is _t1_geometry(0.5, 0.4, t1)
        for batch in (states[:2], states):  # one squeezing, then two
            for at in (t2, t2[:len(batch), None]):  # a shared grid, then one t2 each
                out, shape = _columns(batch, t1, at, slope=True), (len(batch), at.shape[-1])
                for c, state in enumerate(batch):
                    lam1, lam2, a1, a2, phi = (np.broadcast_to(v, shape)[c] for v in out[:5])
                    dphi, dlam2, dx = (np.broadcast_to(v, shape)[c] for v in out[5])
                    t = at if at.ndim == 1 else at[c]
                    r, theta0 = state.r, state.theta0
                    fresh_lam1, fresh_lam2 = lambda_of(t1, r, theta0), lambda_of(t, r, theta0)
                    assert (lam1 == fresh_lam1).all()
                    assert (a1 == x_xi_of(t1, state.xi) / fresh_lam1).all()
                    assert (lam1 == _t1_geometry(r, theta0, t1)[0]).all()
                    assert np.array_equal(lam2, fresh_lam2)
                    assert np.array_equal(a2, x_xi_of(t, state.xi) / fresh_lam2)
                    assert np.array_equal(phi, (t - t1) + (phase_beta_of(t, r, theta0)
                                                           - phase_beta_of(t1, r, theta0)))
                    assert np.array_equal(dphi, 1.0 + phase_beta_dot(t, r, theta0))
                    assert np.array_equal(dlam2, lambda_dot(t, r, theta0))
                    assert np.array_equal(dx, x_xi_dot(t, state.xi))


class TestPointAndCurve:
    """Each series point is a one-column call of its family's kernel, whose
    call on a grid is the family's curve: a pure point equals the curve's
    value bit for bit, a thermal one to rounding, since its stacked matrix
    products take their shapes from K."""

    T1 = 0.3
    # t2 = t1 and t1 + pi are singular; t1 + 1e-3 is close to it
    GRID = np.array([T1, T1 + 1e-3, 1.1, T1 + math.pi, 4.0, 5.9])

    @pytest.mark.parametrize("family,n_th", [
        ("sign", 0.0), ("window", 0.0), ("thermal", 0.156), ("thermal", 0.8),
        ("thermal", 1.54), ("thermal", 3.0)])
    def test_point_matches_curve(self, family, n_th):
        if family == "sign":
            state, extra, n_max, tol = StateSpec.from_phase_space(0.5, 1.2, 0.8, 0.9), (), 300, 0.0
            point, curve = qpd_series_squeezed, q_sign_series_curve
        elif family == "window":
            state, extra, n_max, tol = StateSpec(xi=0j, r=0.25, theta0=0.0), (1.02,), 300, 0.0
            point, curve = qpd_series_window, q_window_series_curve
        else:
            state = StateSpec.from_phase_space(0.7, -1.3, 0.5, 0.4, n_th)
            extra, n_max, tol = (), 150, 1e-14
            point = qpd_series_thermal

            def curve(state, s1, s2, t1, grid, n_max):
                cell = _SeriesCell("thermal", (state,), (s1, s2, t1), TruncationConfig(n_max=n_max))
                return _cell_curves([cell], grid)[0]
        trunc = TruncationConfig(n_max=n_max)
        for s1, s2 in SIGN_PAIRS:
            args = (state,) + extra + (s1, s2, self.T1)
            cell = _SeriesCell(family, (state,) + extra, (s1, s2, self.T1), trunc)
            singular = _cell_calls([cell], self.GRID, None)[0].singular
            assert list(np.flatnonzero(singular)) == [0, 3]
            q_curve = curve(*args, self.GRID, n_max)
            for k, t2 in enumerate(self.GRID):
                q, info = point(*args, float(t2), trunc, with_info=True)
                if tol:
                    assert abs(q - q_curve[k]) <= tol
                else:
                    assert q == q_curve[k]
                assert info.singular_branch == singular[k]
                assert info.n_used == (0 if singular[k] else n_max)


class TestPointSlope:
    """A series cell's slope: the value-only q of the family's public point,
    bit for bit, with the exact t2 derivative of its truncated sum."""

    @staticmethod
    def _point(data, family):
        """A random point of ``family``: its public value-only call and its
        cell's slope as functions of t2, and t1."""
        t1 = data.draw(st.sampled_from([0.0, data.draw(st.floats(-2.0, 2.0))]))
        s1, s2 = data.draw(st.sampled_from(SIGN_PAIRS))
        r, theta0 = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(-3.0, 3.0))
        half = None
        if family == "window":
            state = StateSpec(r=r, theta0=theta0)
            half = data.draw(st.floats(0.2, 2.5))
        else:
            n_th = 0.0 if family == "sign" else data.draw(st.sampled_from([0.156, 1.54]))
            state = StateSpec.from_phase_space(data.draw(st.floats(-2.5, 2.5)),
                                               data.draw(st.floats(-2.5, 2.5)), r, theta0, n_th)
        low = 20 if family != "thermal" else max(20, thermal_m_cut(state.n_th))
        trunc = TruncationConfig(n_max=data.draw(st.integers(low, 300)))
        if family == "window":
            value = lambda t2: qpd_series_window(state, half, s1, s2, t1, t2, trunc)
        elif family == "sign":
            value = lambda t2: qpd_series_squeezed(state, s1, s2, t1, t2, trunc)
        else:
            value = lambda t2: qpd_series_thermal(state, s1, s2, t1, t2, trunc)
        column = (state,) if half is None else (state, half)
        return value, _SeriesCell(family, column, (s1, s2, t1), trunc).slope, t1

    @pytest.mark.parametrize("family", ["sign", "window", "thermal"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_slope_is_the_derivative_of_the_value(self, family, data):
        value, slope, t1 = self._point(data, family)
        t2 = data.draw(st.floats(t1 - 3.0, t1 + 9.0))
        # phi is a multiple of pi exactly at t2 = t1 + k pi
        k = round((t2 - t1) / math.pi)
        if abs(t2 - t1 - k * math.pi) < 1e-2:
            t2 = t1 + k * math.pi + 0.05
        q, dq = slope(t2)
        assert q == value(t2)
        # Richardson-extrapolated central differences of the value-only call
        h = 1e-4
        central = [(value(t2 + e) - value(t2 - e)) / (2 * e) for e in (h, h / 2)]
        assert dq == pytest.approx((4 * central[1] - central[0]) / 3, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("family", ["sign", "window"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pure_point_equals_its_one_dimensional_sums(self, family, data):
        # a point is the (1, 1) call of the streamed sums: q and dq/dt2 equal
        # the sums of its 1-D rows, added in order of n, bit for bit
        t1 = data.draw(st.sampled_from([0.0, data.draw(st.floats(-2.0, 2.0))]))
        t2 = data.draw(st.floats(-3.0, 9.0))
        s1, s2 = data.draw(st.sampled_from(SIGN_PAIRS))
        r, theta0 = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(-3.0, 3.0))
        n_max = data.draw(st.integers(1, 400))
        if family == "window":
            state, half = StateSpec(r=r, theta0=theta0), data.draw(st.floats(0.2, 2.5))
            column = (state, half)
        else:
            state, half = StateSpec.from_phase_space(data.draw(st.floats(-2.5, 2.5)),
                                                     data.draw(st.floats(-2.5, 2.5)), r,
                                                     theta0), None
            column = (state,)
        cell = _SeriesCell(family, column, (s1, s2, t1), TruncationConfig(n_max=n_max))
        q, dq = cell.slope(t2)
        if dq is None:
            assert abs(math.sin(geometry(state, t1, np.array([t2]))[4][0])) < SINGULAR_PHASE_TOL
            return
        assert (q, dq) == point_reference(state, half, s1, s2, t1, t2, n_max)

    @pytest.mark.parametrize("family", ["sign", "window", "thermal"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_no_slope_at_a_singular_phase(self, family, data):
        value, slope, t1 = self._point(data, family)
        for t2 in (t1, t1 + math.pi, t1 - 2 * math.pi):
            q, dq = slope(t2)
            assert dq is None
            assert q == value(t2)


def point_reference(state, half_width, s1, s2, t1, t2, n_max):
    """(q, dq/dt2) of one non-singular pure point summed on 1-D rows, in the
    operations of _phase_sums: the kernel's block, phase, cuts and rates at
    t2, the t1 row (j_row, or window_row for a ``half_width``), v_n = Omega_n
    row1_n / sqrt(2n) (doubled for a window, whose odd orders are skipped),
    and the value's and the slope's terms each added in order of n, psi_0 at
    cut2 multiplied in at the end."""
    window = half_width is not None
    inputs, row = (_window_inputs, window_row) if window else (_sign_inputs, j_row)
    column = ([state], np.array([[half_width]])) if window else ([state],)
    block, phi, cut1, cut2, rates = inputs(*column, s1, s2, t1, np.array([[t2]]), True)
    block, phi, cut1, cut2, dblock, dphi, dcut = (float(np.ravel(v)[0]) for v in
                                                  (block, phi, cut1, cut2, *rates))
    n = np.arange(1, n_max + 1)
    u = row(cut1, n_max)[1:] * tail_weights(n_max) * (1 + window)
    v = row(cut1, n_max)[1:] * tail_weights(n_max) / np.sqrt(2.0 * n) * (1 + window)
    psi = psi_rows(cut2, n_max)
    angle = n * phi
    summed = slice(1, None, 2) if window else slice(None)
    value = ordered_sum(((np.cos(angle) * v) * psi[:-1])[summed])
    cos_part = ordered_sum(((np.cos(angle) * u) * psi[1:])[summed])
    sin_part = ordered_sum(((np.sin(angle) * (v * n)) * psi[:-1])[summed])
    dsum = psi[0] * (-(dcut * cos_part) - dphi * sin_part)
    return float(block + s1 * s2 * (value * psi[0])), float(dblock + s1 * s2 * dsum)


#: The public point of each series family at a truncation.
POINT_OF = {
    "sign": lambda state, half, t1, t2, trunc, **kw: qpd_series_squeezed(
        state, 1, -1, t1, t2, trunc, **kw),
    "window": lambda state, half, t1, t2, trunc, **kw: qpd_series_window(
        state, half, 1, -1, t1, t2, trunc, **kw),
    "thermal": lambda state, half, t1, t2, trunc, **kw: qpd_series_thermal(
        state, 1, -1, t1, t2, trunc, **kw),
}


class TestTailFromHalfTruncation:
    """A point's tail bound is the change that halving its truncation
    makes, |q(n_max) - q(n_max // 2)|; inf where no half truncation exists,
    and 0 at a singular phase, which completeness evaluates exactly."""

    @staticmethod
    def _draw(rng, family):
        r, theta0 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-3.0, 3.0))
        if family == "window":
            return StateSpec(r=r, theta0=theta0), float(rng.uniform(0.3, 2.0))
        return StateSpec.from_phase_space(*rng.uniform(-2.5, 2.5, 2), r, theta0,
                                          0.0 if family == "sign" else 0.3), None

    @pytest.mark.parametrize("family", ["sign", "window"])
    def test_no_half_truncation_at_one_order(self, family):
        state, half = self._draw(np.random.default_rng(4), family)
        info = POINT_OF[family](state, half, 0.0, 1.3, TruncationConfig(1), with_info=True)[1]
        assert (info.n_used, info.tail_bound, info.singular_branch) == (1, math.inf, False)
        info = POINT_OF[family](state, half, 0.0, 1.3, TruncationConfig(2), with_info=True)[1]
        assert math.isfinite(info.tail_bound)

    def test_no_half_truncation_below_the_occupation_cut(self):
        state = StateSpec.from_phase_space(0.5, -0.4, 0.3, 0.2, n_th=0.3)
        m_cut = thermal_m_cut(state.n_th)
        below = qpd_series_thermal(state, 1, -1, 0.0, 1.3, TruncationConfig(2 * m_cut - 1),
                                   with_info=True)[1]
        assert (below.n_used, below.tail_bound, below.m_used) == (2 * m_cut - 1, math.inf, m_cut)
        q, at = qpd_series_thermal(state, 1, -1, 0.0, 1.3, TruncationConfig(2 * m_cut),
                                   with_info=True)
        half = qpd_series_thermal(state, 1, -1, 0.0, 1.3, TruncationConfig(m_cut))
        assert at.tail_bound == abs(q - half)

    @pytest.mark.parametrize("family", ["sign", "window", "thermal"])
    @pytest.mark.parametrize("n_max", [1, 200])
    def test_singular_phase_reports_no_tail(self, family, n_max):
        # t2 = t1 and t2 = t1 + pi are singular phases for any squeezing
        state, half = self._draw(np.random.default_rng(5), family)
        if family == "thermal":
            n_max = max(n_max, thermal_m_cut(state.n_th))
        for t1, t2 in ((0.4, 0.4), (0.0, math.pi)):
            info = POINT_OF[family](state, half, t1, t2, TruncationConfig(n_max),
                                    with_info=True)[1]
            assert (info.n_used, info.tail_bound, info.singular_branch) == (0, 0.0, True)

    def test_pure_sign_under_reports_against_the_integral(self):
        # 300 seeded pure sign points at n_max = 200: count those whose bound
        # is below the series' distance to the integral, outside and inside
        # the near-degenerate band |sin phi| < 0.1.  On these draws the
        # 16-term envelope fit that this bound replaced under-reported at 13
        # of 265 points outside the band and at 17 of 35 inside it.
        rng = np.random.default_rng(0)
        trunc = TruncationConfig(200)
        under, total = {False: 0, True: 0}, {False: 0, True: 0}
        for _ in range(300):
            s1, s2 = (int(v) for v in rng.choice([1, -1], 2))
            t1 = float(rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
            t2 = float(rng.uniform(-3.0, 9.0))
            r, theta0 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-3.0, 3.0))
            state = StateSpec.from_phase_space(*rng.uniform(-2.5, 2.5, 2), r, theta0)
            q, info = qpd_series_squeezed(state, s1, s2, t1, t2, trunc, with_info=True)
            if info.singular_branch:
                continue
            phi = (t2 - t1) + phase_beta_of(t2, r, theta0) - phase_beta_of(t1, r, theta0)
            band = abs(math.sin(phi)) < 0.1
            total[band] += 1
            under[band] += info.tail_bound < abs(q - qpd_integral(state, None, s1, s2, t1, t2))
        assert total == {False: 265, True: 35}
        assert under[False] <= 13 and under[True] <= 17


class TestTailFromTheStream:
    """A cell's tail bound comes from its streamed kernel at n_max and at
    n_max // 2: it equals |q(n_max) - q(n_max // 2)| of the point summed on
    whole term vectors, the pure rows of point_reference bit for bit and
    the thermal (m, n) blocks of thermal_reference to rounding."""

    @pytest.mark.parametrize("family", ["sign", "window", "thermal"])
    def test_tail_bound_matches_the_full_vector_estimate(self, family):
        rng = np.random.default_rng(["sign", "window", "thermal"].index(family))
        checked = 0
        while checked < 20:
            t1 = float(rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
            t2 = float(rng.uniform(-3.0, 9.0))
            state, half = TestTailFromHalfTruncation._draw(rng, family)
            n_max = int(rng.integers(60, 300))
            column = (state,) if half is None else (state, half)
            cell = _SeriesCell(family, column, (1, -1, t1), TruncationConfig(n_max=n_max))
            q, info = cell(t2, with_info=True)
            if info.singular_branch:
                continue
            assert q == cell(t2)
            assert info.n_used == n_max
            if family == "thermal":
                want = abs(thermal_reference(state, 1, -1, t1, t2, n_max)
                           - thermal_reference(state, 1, -1, t1, t2, n_max // 2))
                assert info.tail_bound == pytest.approx(want, rel=0.0, abs=1e-14)
            else:
                want = abs(point_reference(state, half, 1, -1, t1, t2, n_max)[0]
                           - point_reference(state, half, 1, -1, t1, t2, n_max // 2)[0])
                assert info.tail_bound == want
            checked += 1


class TestProbeRounds:
    """A round of probes is one (C, 1) call of its family's kernel, each
    column at its own t2, with dq/dt2 from the same pass: every column
    equals its own one-column call bit for bit, q and slope, whatever the
    other columns, their t1 and whether their phases are singular."""

    @staticmethod
    def _cell(rng, family):
        t1 = float(rng.choice([0.0, 0.4]))
        r, theta0 = float(rng.uniform(0.0, 1.0)), float(rng.choice([0.0, 0.7]))
        trunc = TruncationConfig(n_max=120)
        if family == "window":
            column = (StateSpec(r=r, theta0=theta0), float(rng.uniform(0.5, 1.6)))
        else:
            column = (StateSpec.from_phase_space(*rng.uniform(-2.5, 2.5, 2), r, theta0,
                                                 0.0 if family == "sign" else 0.3),)
        return _SeriesCell(family, column, (1, -1, t1), trunc), t1

    @pytest.mark.parametrize("family", ["sign", "window", "thermal"])
    def test_each_column_equals_its_own_call(self, family):
        rng = np.random.default_rng(["sign", "window", "thermal"].index(family) + 10)
        singular = 0
        for columns in range(1, 65):
            requests = []
            for _ in range(columns):
                cell, t1 = self._cell(rng, family)
                t2 = float(rng.uniform(0.0, TWO_PI))
                if rng.uniform() < 0.15:  # a commuting separation
                    t2 = t1 + math.pi * int(rng.integers(1, 3))
                phi = _columns([cell.column[0]], t1, np.array([[t2]]))[4]
                singular += abs(math.sin(phi[0, 0])) < SINGULAR_PHASE_TOL
                requests.append((cell, t2))
            for (cell, t2), answer in zip(requests, _cell_values(requests)):
                assert repr(answer) == repr(cell.slope(t2))
                assert repr(answer[0]) == repr(cell(t2))
        assert singular > 50


def materialized_curve(state, half_width, s1, s2, t1, grid, n_max):
    """A pure series curve with the rows of every order for all of ``grid``
    at once: the t1 row (j_row, or window_row for a ``half_width``), v_n =
    Omega_n row1_n / sqrt(2n), doubled for a window, the terms
    psi_{n-1}(cut2) (cos(n phi) v_n) of the summed orders (a window's even
    ones) added in order of n, times psi_0(cut2), then completeness at the
    singular phases."""
    lam1, lam2, a1, a2, phi = geometry(state, t1, grid)
    window = half_width is not None
    if not window:
        cut1, cut2, region = -a1, -a2, _halfline
        block = 0.25 * (1.0 + s1 * special.erf(a1)) * (1.0 + s2 * special.erf(a2))
        row1 = j_row(cut1, n_max)[1:]
    else:
        cut1, cut2, region = half_width / lam1, half_width / lam2, _window_region
        qbar1, qbar2 = 1.0 - 2.0 * special.erf(cut1), 1.0 - 2.0 * special.erf(cut2)
        block = 0.25 * (1.0 + s1 * qbar1) * (1.0 + s2 * qbar2)
        row1 = window_row(cut1, n_max)[1:]
    n = np.arange(1, n_max + 1)
    v = row1 * tail_weights(n_max) / np.sqrt(2.0 * n)
    if window:
        v = 2.0 * v
    psi = psi_rows(cut2, n_max)
    terms = psi[:-1] * (np.cos(n[:, None] * phi) * v[:, None])
    if window:
        terms = terms[1::2]
    q = block + s1 * s2 * (ordered_sum(terms) * psi[0])
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    if singular.any():
        q = _fill_singular(q, singular, phi, region, s1, s2, cut1, cut2, _ground_weight)
    return q


def pure_cells(states, halves, s1, s2, t1, n_max):
    """Sign cells of ``states``, or window cells of ``states`` and
    ``halves`` when these are given."""
    trunc = TruncationConfig(n_max=n_max)
    if halves is None:
        return [_SeriesCell("sign", (state,), (s1, s2, t1), trunc) for state in states]
    return [_SeriesCell("window", (state, half), (s1, s2, t1), trunc)
            for state, half in zip(states, halves)]


def batch_curves(states, halves, s1, s2, t1, grid, n_max):
    """The (C, K) curves of a batch of pure cells, from one call of
    _cell_curves, the path of a scan row's coarse curves."""
    return np.array(_cell_curves(pure_cells(states, halves, s1, s2, t1, n_max), grid))


class TestBatchedCurves:
    """A batch of pure cells gives one row per cell, from one streamed pass
    over the orders; each row equals, bit for bit, the curve summed with
    full (n_max + 1, K) rows, whatever the batch size, the block layout and
    the number of grid points."""

    @staticmethod
    def _check(states, halves, s1, s2, t1, grid, n_max, every=None):
        rows = batch_curves(states, halves, s1, s2, t1, grid, n_max)
        assert rows.shape == (len(states), len(grid))
        for c, state in enumerate(states):
            half = None if halves is None else halves[c]
            want = materialized_curve(state, half, s1, s2, t1, grid, n_max)
            assert rows[c].tobytes() == want.tobytes()
            one = (q_sign_series_curve(state, s1, s2, t1, grid, n_max) if half is None
                   else q_window_series_curve(state, half, s1, s2, t1, grid, n_max))
            assert one.tobytes() == want.tobytes()
        if every is None:
            return
        # slope columns: one round of probes at every (state, t2), C = C K
        # columns of K = 1, streamed in blocks of _BLOCK_DOUBLES // (C K)
        # orders; each q is the curve's value and each slope the cell's own
        cells = pure_cells(states, halves, s1, s2, t1, n_max)
        requests = [(cell, float(t2)) for cell in cells for t2 in grid]
        answers = _cell_values(requests)
        assert [q for q, _ in answers] == rows.ravel().tolist()
        for (cell, t2), answer in list(zip(requests, answers))[::every]:
            assert repr(answer) == repr(cell.slope(t2))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_columns_equal_the_materialized_sum(self, data):
        window = data.draw(st.booleans())
        cells = data.draw(st.integers(1, 7))
        n_max = data.draw(st.integers(1, 300))
        t1 = data.draw(st.floats(-1.0, 1.0))
        # t1 and t1 + pi are singular for every squeezing; t1 + 1e-3 is close
        extra = data.draw(st.lists(st.floats(-3.0, 9.0), min_size=1, max_size=30))
        grid = np.array([t1, t1 + 1e-3, t1 + math.pi] + extra)
        squeezing = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                       min_size=cells, max_size=cells))
        theta0 = data.draw(st.sampled_from([0.0, 0.7]))
        if window:
            states = [StateSpec(r=r, theta0=theta0) for r in squeezing]
            halves = data.draw(st.lists(st.floats(0.2, 2.5), min_size=cells,
                                        max_size=cells))
        else:
            coords = data.draw(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                                        min_size=cells, max_size=cells))
            states = [StateSpec.from_phase_space(x0, p0, r, theta0)
                      for (x0, p0), r in zip(coords, squeezing)]
            halves = None
        s1, s2 = data.draw(st.sampled_from(SIGN_PAIRS))
        self._check(states, halves, s1, s2, t1, grid, n_max)

    CELLS, STEPS = 3, 50
    BLOCK = _BLOCK_DOUBLES // (CELLS * STEPS)

    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("n_max", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 200, 256, 2500])
    def test_block_edges(self, window, n_max):
        grid = np.linspace(0.0, 2 * math.pi, self.STEPS)  # 0 and 2 pi are singular
        states = [StateSpec.from_phase_space(x0, 0.6 - x0, 0.5) for x0 in (-1.5, 0.2, 2.0)]
        if window:
            states, halves = [StateSpec(r=0.5)] * 3, [0.8, 1.03, 1.6]
        else:
            halves = None
        self._check(states, halves, 1, -1, 0.0, grid, n_max, every=1)

    @pytest.mark.parametrize("window", [False, True])
    def test_batch_larger_than_the_block_budget(self, window):
        grid = np.linspace(-0.4, 7.0, 2400)
        assert 7 * grid.size > _BLOCK_DOUBLES
        r = [0.0, 0.5, 1.0, 0.5, 0.0, 0.3, 0.5]
        if window:
            states, halves = [StateSpec(r=x) for x in r], list(np.linspace(0.6, 1.5, 7))
        else:
            states = [StateSpec.from_phase_space(0.3 * k - 1, 1.2, x) for k, x in enumerate(r)]
            halves = None
        self._check(states, halves, -1, 1, 0.2, grid, 60, every=97)

    @pytest.mark.parametrize("n_max", [2, BLOCK, 256])
    def test_repeated_cuts_equal_the_array_recurrence(self, n_max):
        # at r = 0 every cut of a window column is L: 4 columns with 3
        # distinct L read the memoized scalar rows (special._psi_blocks), and
        # with 7 more distinct L the same columns run the array recurrence
        grid = np.linspace(0.0, 2 * math.pi, self.STEPS)
        halves = [0.8, 1.03, 1.03, 1.6] + list(np.linspace(0.5, 2.0, 7))
        states = [StateSpec()] * len(halves)
        special._psi_memo.cache_clear()
        few = batch_curves(states[:4], halves[:4], 1, 1, 0.0, grid, n_max)
        assert special._psi_memo.cache_info().currsize == 3
        many = batch_curves(states, halves, 1, 1, 0.0, grid, n_max)
        assert few.tobytes() == many[:4].tobytes()

    def test_all_singular_batch_is_completeness(self):
        grid = np.array([0.0, math.pi, 2 * math.pi])
        states = [StateSpec.from_phase_space(x0, 0.4, 0.5) for x0 in (-1.0, 0.0, 1.0)]
        self._check(states, None, 1, 1, 0.0, grid, 40)

    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 3, 8])
    def test_batch_invariance_holds_from_two_grid_points(self, window, steps):
        # every column of a batch of C = 1..64 equals its own curve bit for
        # bit, at one grid point too: the sums add in order of n at any shape
        rng = np.random.default_rng(steps)
        if window:
            states = [StateSpec(r=r) for r in rng.uniform(0.0, 1.0, 64)]
            halves = list(rng.uniform(0.6, 1.6, 64))
        else:
            states = [StateSpec.from_phase_space(x0, p0, 0.5)
                      for x0, p0 in rng.uniform(-2.5, 2.5, (64, 2))]
            halves = None
        grid = rng.uniform(0.1, 6.0, steps)
        own = np.array([q_sign_series_curve(state, 1, -1, 0.0, grid, 200) if halves is None
                        else q_window_series_curve(state, halves[c], 1, -1, 0.0, grid, 200)
                        for c, state in enumerate(states)])
        for c in range(1, 65):
            rows = batch_curves(states[:c], None if halves is None else halves[:c], 1, -1, 0.0,
                                grid, 200)
            assert rows.tobytes() == own[:c].tobytes()

    def test_window_sums_read_only_even_orders(self, monkeypatch):
        # a window's rows are 0 at odd n, so its sums neither multiply nor
        # add those orders: cosines made NaN there change no bit
        grid = np.linspace(0.05, 3.0, 30)
        states, halves = [StateSpec(r=0.5)] * 3 + [StateSpec(r=0.2)], [0.8, 1.03, 1.6, 0.9]
        want = batch_curves(states, halves, 1, 1, 0.0, grid, 201)
        real = series._phase_tables

        def odd_nan(phi, n_max, sine=False):
            tables = [table.copy() for table in real(phi, n_max, True)]
            for table in tables:
                table[1::2] = np.nan
            return tables if sine else tables[:1] + [None]

        monkeypatch.setattr(series, "_phase_tables", odd_nan)
        assert batch_curves(states, halves, 1, 1, 0.0, grid, 201).tobytes() == want.tobytes()
        assert np.isnan(batch_curves(states[:1], None, 1, 1, 0.0, grid, 201)).all()


class TestOneSummationPath:
    """Every series sum, value and slope, of a point, a round of probes or a
    curve, is the Euler-averaged sum sum_n Omega_n t_n with one table of
    tail weights (_euler_tails), added in order of n by the family's one
    kernel (_phase_sums or _thermal_stream, through _carry_sum).  special's
    averaged_partial_sum is the oracle's sum, which these agree with to
    rounding."""

    def test_series_takes_no_other_sum_and_no_other_route(self):
        tree = ast.parse(Path(series.__file__).read_text(encoding="utf-8"))
        imported, names = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("lgqpd.").removeprefix("lgqpd")
                imported.setdefault(module or "*", set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update((a.name.removeprefix("lgqpd."), {"*"}) for a in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        for oracle_sum in ("averaged_partial_sum", "_euler_weights"):
            assert oracle_sum not in set().union(*imported.values()) | names
        for route in ("fock", "integral"):
            assert route not in imported and route not in imported.get("*", ())

    def test_the_tail_weights_are_read_by_the_two_kernels_alone(self):
        # one kernel per family: no second summation path reads the weights
        tree = ast.parse(Path(series.__file__).read_text(encoding="utf-8"))

        def reads(node):
            return sum(isinstance(n, ast.Name) and n.id == "_euler_tails" for n in ast.walk(node))

        kernels = [reads(node) for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name in ("_phase_sums", "_thermal_stream")]
        assert len(kernels) == 2 and all(kernels)
        assert reads(tree) == sum(kernels)

    @pytest.mark.parametrize("n", [1, 2, 3, 150, 200, 256, 257, 2500])
    def test_tail_weights_are_the_exact_binomial_tails(self, n):
        w = min(256, max(2, 3 * n // 4), n)
        first = n + 1 - w
        exact, tail = [], Fraction(0)
        for j in range(n, 0, -1):
            if j >= first:
                tail += Fraction(math.comb(w - 1, j - first), 2 ** (w - 1))
            exact.append(float(tail))
        omega = _euler_tails(n)
        assert omega[1:].tolist() == exact[::-1] == tail_weights(n).tolist()
        assert (omega[1:first + 1] == 1.0).all()
        assert not omega.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 150, 256, 257, 2500])
    @pytest.mark.parametrize("shape", [(), (3, 5)])
    def test_one_block_equals_the_averaged_partial_sum(self, n, shape):
        # an oscillating, slowly decaying tail, as the eigenbasis terms
        order = np.arange(1, n + 1).reshape((-1,) + (1,) * len(shape))
        noise = np.random.default_rng(n).standard_normal((n,) + shape)
        terms = (np.cos(1.3 * order) + 0.1 * noise) / np.sqrt(order)
        total = streamed_sum(terms, n)
        weighted = terms * tail_weights(n).reshape(order.shape)
        assert np.shape(total) == shape
        assert np.asarray(total).tobytes() == ordered_sum(weighted).tobytes()
        # the oracle's sum of the partial sums, to rounding
        bound = 16 * np.finfo(float).eps * np.abs(terms).sum(axis=0)
        assert (np.abs(total - averaged_partial_sum(terms)) <= bound).all()
        if not shape:  # a point's sum, alone and in a round of three (C = 3, K = 1)
            rows = streamed_sum(np.stack([terms, 2.0 * terms, terms], axis=1)[:, :, None], n)
            alone = np.asarray(total).reshape(1).tobytes()
            assert [rows[c].tobytes() for c in (0, 2)] == [alone] * 2

    @pytest.mark.parametrize("rows", [2, 7, 300])
    @pytest.mark.parametrize("shape", [(), (3, 2)])
    def test_blocks_add_as_one_sequence(self, rows, shape):
        # however the blocks cut the orders, each column is one sum in order
        # of n, a lone column too
        n_max = 300
        order = np.arange(1, n_max + 1).reshape((-1,) + (1,) * len(shape))
        noise = np.random.default_rng(rows).standard_normal((n_max,) + shape)
        terms = np.cos(1.3 * order) + 0.1 * noise
        want = ordered_sum(terms * tail_weights(n_max).reshape(order.shape))
        assert np.asarray(streamed_sum(terms, rows)).tobytes() == want.tobytes()


class TestPhaseTable:
    """The cos(n phi) and sin(n phi) tables that every array call reads."""

    @pytest.mark.parametrize("shape", [(7,), (3, 5)])
    def test_equals_a_fresh_evaluation_bit_for_bit(self, shape):
        phi = np.linspace(-3.0, 40.0, math.prod(shape)).reshape(shape)
        angle = np.arange(151).reshape((-1,) + (1,) * len(shape)) * phi
        for wave, table in zip((np.cos, np.sin), _phase_tables(phi, 150, sine=True)):
            assert table.shape == (151,) + shape
            assert table.tobytes() == wave(angle).tobytes()

    def test_read_only_and_shared(self):
        phi = np.array([0.1, 1.2, 2.3])
        cos, sin = _phase_tables(phi, 40, sine=True)
        assert _phase_tables(phi, 40)[1] is None
        for table in (cos, sin):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[1, 0] = 0.0
        # an equal array of phases, such as the next row's, gets the same table
        assert _phase_tables(phi.copy(), 40)[0] is cos
        assert _phase_tables(phi, 41)[0] is not cos

    def test_cache_is_bounded(self):
        assert _cached_phase_table.cache_info().maxsize == 8
        for k in range(10):
            _phase_tables(np.array([0.3 * k, 1.0]), 30)
        assert _cached_phase_table.cache_info().currsize <= 8

    def test_a_rows_grid_table_outlives_its_probe_rounds(self):
        # the probes of a round compute their phases directly: after the
        # first row's rounds, the second row's curve reads its table from
        # the cache (theta0 = 0.5: no mirror and no half grid)
        cfg = scan.ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5, theta0=0.5,
                              axis1_min=-1.0, axis1_max=1.0, axis1_steps=2,
                              axis2_min=-2.5, axis2_max=2.5, axis2_steps=3,
                              t2_coarse_steps=40, t2_refine_iters=8, n_max=60)
        _cached_phase_table.cache_clear()
        res = scan.scan_plane(cfg)
        assert res.refine_evals > 6
        info = _cached_phase_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_pure_curves_build_no_sine_table(self, monkeypatch):
        waves, real = [], series._cached_phase_table

        def recording(wave, *args):
            waves.append(wave)
            return real(wave, *args)

        monkeypatch.setattr(series, "_cached_phase_table", recording)
        grid = np.linspace(0.1, 6.0, 25)
        states = [StateSpec.from_phase_space(x0, 0.4, 0.5) for x0 in (-1.0, 0.3)]
        batch_curves(states, None, 1, -1, 0.0, grid, 120)
        batch_curves([StateSpec(r=0.5)] * 2, [0.8, 1.2], 1, 1, 0.0, grid, 120)
        assert waves == [np.cos, np.cos]
        # the thermal stream reads both
        _SeriesCell("thermal", (StateSpec.from_phase_space(0.3, 0.4, 0.5, n_th=0.156),),
                    (1, -1, 0.0), TruncationConfig(n_max=120)).curve(grid)
        assert waves[2:] == [np.cos, np.sin]


def materialized_thermal_curve(state, s1, s2, t1, grid, n_max):
    """A thermal series curve summed with the psi rows of every order for
    all of ``grid`` at once: the mixed family as one product of B^T with the
    (m_cut + 1) x 4K factors, the (n_max, K) terms weighted by Omega_n and
    added in order of n, then completeness at the singular phases."""
    n_th = state.n_th
    w = n_th / (1.0 + n_th)
    m_cut = thermal_m_cut(n_th)
    _, _, a1, a2, phi = geometry(state, t1, grid)
    fixed = j_block(float(-a1), m_cut, n_max)
    row1, diag1 = fixed[0], np.diagonal(fixed).copy()
    b = mixed_blocks(float(-a1), w, m_cut, n_max)[0]

    k = grid.size
    psi = psi_rows(-a2, n_max)
    low = lowered(psi)
    n = np.arange(n_max + 1)[:, None]
    cos_n, sin_n = np.cos(n * phi), np.sin(n * phi)
    m = slice(0, m_cut + 1)
    c = b.T @ np.concatenate([cos_n[m] * psi[m], cos_n[m] * low[m],
                              sin_n[m] * psi[m], sin_n[m] * low[m]], axis=1)
    mixed = (cos_n * (low * c[:, :k] - psi * c[:, k:2 * k])
             + sin_n * (low * c[:, 2 * k:3 * k] - psi * c[:, 3 * k:]))
    row2 = psi[0] * psi[:-1] / np.sqrt(2.0 * np.arange(n_max + 1))[1:, None]
    n_terms = cos_n[1:] * row2 * row1[1:, None] + mixed[1:]
    wm = w ** n[1:m_cut + 1]
    s_up = (wm * cos_n[1:m_cut + 1] * row2[:m_cut] * row1[1:m_cut + 1, None]).sum(axis=0)
    phase_sum = ordered_sum(n_terms * tail_weights(n_max)[:, None])
    diag2 = ladder_diagonal(-a2, psi[m])
    k1 = diag1 if s1 == 1 else 1.0 - diag1
    k2 = diag2 if s2 == 1 else 1.0 - diag2
    ee = (wm * k2[1:] * k1[1:, None]).sum(axis=0)
    block = 0.25 * (1.0 + s1 * special.erf(a1)) * (1.0 + s2 * special.erf(a2))
    q = (block + s1 * s2 * (phase_sum + s_up) + ee) / (1.0 + n_th)
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    if singular.any():
        q = _fill_singular(
            q, singular, phi, _halfline, s1, s2, -a1, -a2,
            lambda region: float(w ** np.arange(m_cut + 1) @ _psi_sq_weights(region, m_cut))
            / (1.0 + n_th))
    return q


class TestBatchedThermalCurves:
    """A list of thermal states gives one row per state from one streamed
    pass over the orders.  Each row equals that state's own curve bit for
    bit, whatever the batch size, the block layout and the t1 cuts, and the
    curve summed with full (n_max + 1, K) rows within 1e-15: the mixed
    family's matrix products run over fewer orders at a time, and BLAS may
    round a product differently by its shape."""

    @staticmethod
    def _check(states, s1, s2, t1, grid, n_max):
        cells = [_SeriesCell("thermal", (state,), (s1, s2, t1), TruncationConfig(n_max=n_max))
                 for state in states]
        rows = np.array(_cell_curves(cells, grid))
        assert rows.shape == (len(states), len(grid))
        for c, state in enumerate(states):
            one = cells[c].curve(grid)
            assert rows[c].tobytes() == one.tobytes()
            want = materialized_thermal_curve(state, s1, s2, t1, grid, n_max)
            assert np.max(np.abs(rows[c] - want)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_columns_equal_the_materialized_sum(self, data):
        cells = data.draw(st.integers(1, 7))
        n_th = data.draw(st.sampled_from([0.156, 1.54, 3.0]))
        n_max = data.draw(st.integers(thermal_m_cut(n_th), 300))
        # at t1 != 0 every state has its own fixed cut
        t1 = data.draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
        # t1 and t1 + pi are singular for every squeezing; t1 + 1e-3 is close
        extra = data.draw(st.lists(st.floats(-3.0, 9.0), min_size=1, max_size=30))
        grid = np.array([t1, t1 + 1e-3, t1 + math.pi] + extra)
        squeezing = data.draw(st.sampled_from([[0.5] * cells, [0.0, 0.5, 1.0] * 3]))
        theta0 = data.draw(st.sampled_from([0.0, 0.7]))
        coords = data.draw(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                                    min_size=cells, max_size=cells))
        states = [StateSpec.from_phase_space(x0, p0, r, theta0, n_th)
                  for (x0, p0), r in zip(coords, squeezing)]
        s1, s2 = data.draw(st.sampled_from(SIGN_PAIRS))
        self._check(states, s1, s2, t1, grid, n_max)

    CELLS, STEPS = 3, 50
    BLOCK = _BLOCK_DOUBLES // (CELLS * STEPS)

    @pytest.mark.parametrize("t1", [0.0, 0.4])
    @pytest.mark.parametrize("n_th,n_max", [
        (0.156, 15), (1.54, 55), (3.0, 93),  # n_max at the occupation cut
        (0.156, BLOCK - 1), (0.156, BLOCK), (0.156, BLOCK + 1), (0.156, 2 * BLOCK),
        (1.54, BLOCK), (1.54, 200), (3.0, BLOCK), (3.0, 200)])
    def test_block_edges(self, t1, n_th, n_max):
        # m_cut = 15, 55 and 93: the rows m <= m_cut fill part of a block, half
        # of one, or nearly one; n_max = BLOCK ends on a one-order block
        grid = np.linspace(0.0, 2 * math.pi, self.STEPS)  # 0 and 2 pi are singular
        states = [StateSpec.from_phase_space(x0, 0.6 - x0, 0.5, 0.0, n_th)
                  for x0 in (-1.5, 0.2, 2.0)]
        self._check(states, -1, 1, t1, grid, n_max)

    @pytest.mark.parametrize("t1", [0.0, 0.3])
    def test_small_blocks_of_a_wide_batch(self, t1):
        # 7 columns of 123 values of t2 stream in blocks of 19 orders, one
        # column alone in blocks of 133: the mixed family's products must not
        # follow the blocks, since their rounding may depend on their shape
        grid = np.concatenate([[t1, t1 + 1e-3, t1 + math.pi], np.linspace(-0.5, 7.0, 120)])
        states = [StateSpec.from_phase_space(x0, p0, 0.5, 0.4, 1.54)
                  for x0, p0 in ((0.7, -1.3), (-2.5, 2.5), (0.0, 1.0), (1.0, 0.3),
                                 (0.2, 0.2), (-1.1, -0.4), (2.2, 0.9))]
        self._check(states, -1, 1, t1, grid, 100)

    @pytest.mark.parametrize("n_th", [0.156, 3.0])
    def test_high_order_at_small_k(self, n_th):
        grid = np.array([0.3, 1.0, 1.0 + math.pi, 2.2, 5.0])
        states = [StateSpec.from_phase_space(x0, 1.2, 0.5, 0.0, n_th) for x0 in (-1.0, 0.4)]
        self._check(states, 1, -1, 0.0, grid, 2500)

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("t1", [0.0, 0.3])
    def test_batch_invariance_at_one_and_two_grid_points(self, steps, t1):
        # every column of a batch of C = 1..64 equals its own curve bit for
        # bit: the stacked products run per column, and every sum over n or
        # m adds in order at any shape
        rng = np.random.default_rng(steps)
        states = [StateSpec.from_phase_space(x0, p0, 0.5, 0.4, 0.156)
                  for x0, p0 in rng.uniform(-2.5, 2.5, (64, 2))]
        cells = [_SeriesCell("thermal", (state,), (1, -1, t1), TruncationConfig(n_max=200))
                 for state in states]
        grid = rng.uniform(0.1, 6.0, steps)
        own = np.array([cell.curve(grid) for cell in cells])
        for c in range(1, 65):
            assert np.array(_cell_curves(cells[:c], grid)).tobytes() == own[:c].tobytes()

    def test_mixed_occupations_are_split_into_batches(self, monkeypatch):
        grid = np.linspace(0.1, 6.0, 20)
        trunc = TruncationConfig(n_max=120)
        cells = [_SeriesCell("thermal" if n_th else "sign",
                             (StateSpec.from_phase_space(x0, 0.5, 0.5, 0.0, n_th),), (1, 1, 0.0),
                             trunc)
                 for x0, n_th in ((-1.0, 0.156), (0.0, 1.54), (0.5, 0.0), (1.0, 0.156))]
        batches, real = [], series._q_thermal

        def recording(states, *args):
            batches.append([s.n_th for s in states])
            return real(states, *args)

        monkeypatch.setattr(series, "_q_thermal", recording)
        rows = _cell_curves(cells, grid)
        assert batches == [[0.156, 0.156], [1.54]]
        for cell, row in zip(cells, rows):
            assert row.tobytes() == cell.curve(grid).tobytes()


class TestReflectedCurves:
    """A t2 search of a series cell that time reversal leaves unchanged (t1
    = 0, p0 = 0, and r = 0 or theta0 in {0, pi}) has q(t2) = q(-t2): on a
    grid of K >= 4 points whose mirrored pairs each sum to one multiple m P
    of q's period, it asks for its coarse curve on the first ceil(K/2)
    points and fills the rest from their mirrors (scan._t2_search).  Every
    other search asks for the whole grid, and every curve is the family's
    kernel on the grid it is given.  The coarse values are read where the
    refinement receives them."""

    N_MAX = 120
    SIGN_GRID = (0.0, TWO_PI, 40)
    WINDOW_GRID = (0.05, math.pi - 0.05, 96)

    @classmethod
    def _cell(cls, family, x0=0.7, p0=0.0, r=0.5, theta0=0.0, t1=0.0, half_width=1.03):
        """The (evaluator, curve) of one series cell, from named_evaluator."""
        if family == "window":
            return named_evaluator(dict(s1=1, s2=1, r=r, theta0=theta0, t1=t1, L=half_width),
                                   "series", "window", cls.N_MAX)
        params = dict(s1=1, s2=-1, x0=x0, p0=p0, r=r, theta0=theta0, t1=t1,
                      n_th=0.3 if family == "thermal" else 0.0)
        return named_evaluator(params, "series", "sign", cls.N_MAX)

    @staticmethod
    def _searched(monkeypatch, cells, search):
        """The searches of ``cells`` run together in lock-step (scan._drive):
        each one's coarse values on ``search.grid()``, the grid each asked
        its curve for, and each one's T2Minimum, whose refinement is cut
        short."""
        values, asked = {}, []

        def refine(evaluator, grid, coarse, search, centre):
            values[id(evaluator)] = coarse
            yield from ()
            return 0.0, 0.0

        def serve(requests):
            asked.extend(request.t2 for request in requests)
            return scan._serve(requests)

        monkeypatch.setattr(scan, "_refine", refine)
        found = scan._drive([scan._t2_search(*cell, search) for cell in cells], serve)
        return [values[id(cell[0])] for cell in cells], asked, found

    def _search(self, family):
        return T2Search(*(self.WINDOW_GRID if family == "window" else self.SIGN_GRID))

    @pytest.mark.parametrize("family,kwargs,grid", [
        ("sign", {}, SIGN_GRID), ("sign", {"theta0": math.pi, "x0": -1.2}, SIGN_GRID),
        ("sign", {"r": 0.0, "theta0": 0.9}, SIGN_GRID), ("sign", {"x0": 0.0}, SIGN_GRID),
        ("sign", {}, (-math.pi, 3 * math.pi, 41)),
        ("thermal", {}, SIGN_GRID), ("thermal", {"theta0": math.pi}, (0.0, TWO_PI, 41)),
        ("window", {}, WINDOW_GRID), ("window", {"r": 0.0}, WINDOW_GRID),
        ("window", {"theta0": math.pi}, (0.02, 3.121592653589793, 120)),
        ("window", {}, (0.3, TWO_PI - 0.3, 51))],
        ids=["sign", "sign_theta0_pi", "sign_r0", "sign_xi0", "sign_two_periods", "thermal",
             "thermal_odd", "window", "window_r0", "window_fig6", "window_m2"])
    def test_a_reflected_curve_equals_the_whole_grid_kernel(self, monkeypatch, family, kwargs,
                                                            grid):
        search, cell = T2Search(*grid), self._cell(family, **kwargs)
        (values,), asked, (found,) = self._searched(monkeypatch, [cell], search)
        assert found.reflected
        assert asked[0].tobytes() == search.grid()[:(grid[2] + 1) // 2].tobytes()
        assert values.shape == search.grid().shape
        assert np.abs(values - cell[1](search.grid())).max() <= 1e-15
        assert values.tobytes() == values[::-1].tobytes()

    @pytest.mark.parametrize("family", ["sign", "thermal", "window"])
    def test_a_row_is_the_same_alone_in_a_mixed_batch_and_through_its_curve(self, monkeypatch,
                                                                           family):
        search = self._search(family)
        half = search.grid()[:(len(search.grid()) + 1) // 2]
        alone = self._searched(monkeypatch, [self._cell(family)], search)[0][0]
        others = ([self._cell(family, t1=0.4), self._cell(family, theta0=0.5)]
                  + ([] if family == "window" else [self._cell(family, p0=0.3)]))
        mixed, _, found = self._searched(monkeypatch, [others[0], self._cell(family), *others[1:]],
                                         search)
        assert [f.reflected for f in found] == [False, True] + [False] * (len(others) - 1)
        assert mixed[1].tobytes() == alone.tobytes()
        assert self._cell(family)[1](half).tobytes() == alone[:len(half)].tobytes()
        for cell, row in zip(others, mixed[:1] + mixed[2:]):
            assert row.tobytes() == cell[1](search.grid()).tobytes()

    @pytest.mark.parametrize("family,case", [
        (family, case) for family in ("sign", "thermal", "window")
        for case in ("t1", "p0", "theta0", "short_window", "k2", "k3")
        if not (family, case) == ("window", "p0")])  # a window state has p0 = 0
    def test_a_refused_case_is_the_direct_curve(self, monkeypatch, family, case):
        lo, hi, steps = self.WINDOW_GRID if family == "window" else self.SIGN_GRID
        kwargs = {"t1": {"t1": 0.4}, "p0": {"p0": 0.3}, "theta0": {"theta0": 0.5}}.get(case, {})
        search = T2Search(lo, hi - 1e-9 if case == "short_window" else hi, steps)
        if case in ("k2", "k3"):
            # symmetric, but too short to fold
            search = T2Search(lo, hi, int(case[1]))
            assert scan._folds(T2Search(lo, hi, 4), self._cell(family)[0].period)
        cell = self._cell(family, **kwargs)
        # the cell is its own mirror unless a condition of time reversal breaks
        assert (cell[0].period is None) == (case in ("t1", "p0", "theta0"))
        (values,), asked, (found,) = self._searched(monkeypatch, [cell], search)
        assert not found.reflected
        assert asked[0].tobytes() == search.grid().tobytes()
        assert values.tobytes() == cell[1](search.grid()).tobytes()

    @pytest.mark.parametrize("steps", [4, 5, 40, 41])
    def test_the_first_half_is_the_kernel_and_the_rest_its_mirror(self, monkeypatch, steps):
        # an odd K fills its centre point from itself, and a half grid has at
        # least 2 points; the one kernel call ends on the window centre
        search = T2Search(0.0, TWO_PI, steps)
        grid, half = search.grid(), (steps + 1) // 2
        cell, seen, real = self._cell("sign"), [], series._q_pure
        monkeypatch.setattr(series, "_q_pure",
                            lambda *args: seen.append(args[5]) or real(*args))
        (row,), _, _ = self._searched(monkeypatch, [cell], search)
        assert len(seen) == 1 and seen[0].tobytes() == np.append(grid[:half], math.pi).tobytes()
        assert row.shape == grid.shape
        assert row[:half].tobytes() == cell[1](grid[:half]).tobytes()
        assert row[half:].tobytes() == row[steps // 2 - 1::-1].tobytes()

    @pytest.mark.parametrize("family", ["sign", "thermal", "window"])
    def test_short_grids_never_fold(self, family):
        # K >= 4 keeps the manifests' reflected counts, and CI's checks on
        # them, as they were when only the series folded its curves; a
        # search's grid has K >= 2 points (T2Search)
        period = math.pi if family == "window" else TWO_PI
        assert T2_PERIOD["window" if family == "window" else "sign"] == period
        with pytest.raises(ValueError):
            T2Search(0.0, period, 1)
        for steps in (2, 3):
            assert not scan._folds(T2Search(0.0, period, steps), period)
        assert scan._folds(T2Search(0.0, period, 4), period)

    @pytest.mark.parametrize("family", ["sign", "thermal"])
    def test_sign_states_at_xi_zero_keep_the_full_period(self, monkeypatch, family):
        # the cut-0 rows flip sign under t2 -> t2 + pi, so a window of pi does
        # not fold a sign or thermal curve, whose values are not symmetric there
        search = T2Search(*self.WINDOW_GRID)
        cell = self._cell(family, x0=0.0)
        assert cell[0].period == TWO_PI
        (values,), asked, (found,) = self._searched(monkeypatch, [cell], search)
        assert not found.reflected
        assert asked[0].tobytes() == search.grid().tobytes()
        direct = cell[1](search.grid())
        assert values.tobytes() == direct.tobytes()
        assert np.abs(direct - direct[::-1]).max() > 1e-3
