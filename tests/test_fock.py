import math

import numpy as np
import pytest

from lgqpd import (CapabilityError, MeasurementSpec, OffsetFunction,
                   StateSpec, TruncationError, gamma_from, projector_matrix,
                   qpd_oracle)
from lgqpd.fock import _state_columns
from lgqpd.matrix_elements import j_block

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def rho_fock(state, dim):
    """Dense density matrix from the oracle's weighted state columns."""
    cols, weights = _state_columns(state, dim)
    return (cols * weights) @ cols.conj().T


class TestProjectorMatrix:
    def test_cut_at_minus_infinity_is_identity(self):
        meas = MeasurementSpec.sign()
        p = projector_matrix(meas, 1, 0.0, 40)
        # zero offset, s = +1, cut 0: complement pair sums to identity
        q = projector_matrix(meas, -1, 0.0, 40)
        assert np.max(np.abs(p + q - np.eye(40))) < 1e-12

    def test_window_outcomes_sum_to_identity(self):
        meas = MeasurementSpec.window(1.2)
        p_out = projector_matrix(meas, 1, 0.0, 50)
        p_in = projector_matrix(meas, -1, 0.0, 50)
        assert np.max(np.abs(p_out + p_in - np.eye(50))) < 1e-9

    def test_entry_01_at_cut_zero(self):
        p = projector_matrix(MeasurementSpec.sign(), 1, 0.0, 50)
        assert p[0, 1].real == pytest.approx(INV_SQRT_2PI, abs=1e-9)
        assert abs(p[0, 1].imag) == 0.0

    def test_matches_closed_form_elements(self):
        off = OffsetFunction(constant=0.7 * math.sqrt(2.0))
        p = projector_matrix(MeasurementSpec.sign(off), 1, 0.0, 40)
        expected = j_block(0.7, 30, 30)
        assert np.max(np.abs(p[:31, :31].real - expected)) < 1e-9

    def test_hermitian_and_idempotent_in_truncation(self):
        # Hard-edged indicators have k^(-3/4) matrix-element tails, so the
        # idempotence deficit on the physical (low-index) block decays only
        # like dim^(-1/2); assert that honest rate rather than an absolute
        # machine-level bound.
        for cut in (-3.0, 0.4, 3.0):
            off = OffsetFunction(constant=cut * math.sqrt(2.0))
            meas = MeasurementSpec.sign(off)
            p = projector_matrix(meas, 1, 0.0, 400)
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            corner = np.s_[:40, :40]
            deficit_400 = np.max(np.abs((p @ p - p)[corner]))
            p100 = projector_matrix(meas, 1, 0.0, 100)
            deficit_100 = np.max(np.abs((p100 @ p100 - p100)[corner]))
            assert deficit_400 < 1e-2
            assert deficit_400 < 0.65 * deficit_100

    def test_eigenvalue_range(self):
        p = projector_matrix(MeasurementSpec.sign(), 1, 0.0, 120)
        eigs = np.linalg.eigvalsh(p)
        assert eigs.min() > -1e-8
        assert eigs.max() < 1 + 1e-8

    def test_dim_cap(self):
        with pytest.raises(CapabilityError):
            projector_matrix(MeasurementSpec.sign(), 1, 0.0, 601)


class TestRhoFock:
    def test_vacuum(self):
        rho = rho_fock(StateSpec(), 30)
        expected = np.zeros((30, 30))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_coherent_mean(self):
        dim = 250
        rho = rho_fock(StateSpec(xi=1.0 + 0j), dim)
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        assert np.trace(rho @ a) == pytest.approx(1.0, abs=1e-9)

    def test_squeezed_mean_against_displacement_algebra(self):
        # <a> of the displaced squeezed state equals xi for every squeeze,
        # the same consistency that fixes gamma_from
        xi, r, th0 = 0.389 + 1.361j, 1.0, math.pi / 3
        dim = 300
        rho = rho_fock(StateSpec(xi=xi, r=r, theta0=th0), dim)
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        mean_a = np.trace(rho @ a)
        assert abs(mean_a - xi) < 1e-9
        gamma = gamma_from(xi, r, th0)
        assert abs(gamma * math.cosh(r) + np.conj(gamma) * np.exp(1j * th0) * math.sinh(r)
                   - mean_a) < 1e-9

    def test_hermitian_psd_unit_trace(self):
        rho = rho_fock(StateSpec.from_phase_space(0.8, -0.6, 0.5, 1.1, n_th=0.7), 260)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-10
        assert 1 - 1e-8 <= np.trace(rho).real <= 1 + 1e-10

    def test_trace_deficit_error(self):
        with pytest.raises(TruncationError):
            _state_columns(StateSpec(xi=4.0 + 0j), 12)


class TestQpdOracle:
    def test_same_time_ground(self):
        assert qpd_oracle(StateSpec(), MeasurementSpec.sign(), 1, 1, 0.2, 0.2,
                          dim=120) == pytest.approx(0.5, abs=1e-9)

    def test_normalization(self):
        state = StateSpec.from_phase_space(0.8, 0.3, 0.4, 0.9, n_th=0.5)
        total = sum(qpd_oracle(state, MeasurementSpec.sign(), s1, s2, 0.3, 1.2, dim=250)
                    for s1 in (1, -1) for s2 in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_dim_convergence(self):
        state = StateSpec.from_phase_space(1.4, -0.8, 0.9, 2.0, n_th=1.0)
        q200 = qpd_oracle(state, MeasurementSpec.sign(), -1, 1, 0.4, 1.9, dim=200)
        q400 = qpd_oracle(state, MeasurementSpec.sign(), -1, 1, 0.4, 1.9, dim=400)
        assert abs(q200 - q400) < 1e-6

    def test_against_dense_trace_and_dim_stable(self):
        # the plain dense trace still carries its last tail oscillation
        # (~1e-5 scale); the stabilized evaluator must sit within that band
        # of it and be essentially dim-independent
        state = StateSpec.from_phase_space(0.7, 0.9, 0.5, 0.6, n_th=0.8)
        meas = MeasurementSpec.sign()
        t1, t2, dim = 0.3, 1.4, 220
        q = qpd_oracle(state, meas, 1, -1, t1, t2, dim=dim)
        rho = rho_fock(state, dim)
        n = np.arange(dim)
        p1 = projector_matrix(meas, 1, t1, dim)
        p2 = projector_matrix(meas, -1, t2, dim)
        u1 = np.exp(1j * n * t1)
        u2 = np.exp(1j * n * t2)
        p1t = (u1[:, None] * u1.conj()[None, :]) * p1
        p2t = (u2[:, None] * u2.conj()[None, :]) * p2
        dense = np.trace(p2t @ p1t @ rho).real
        assert q == pytest.approx(dense, abs=1e-4)
        q400 = qpd_oracle(state, meas, 1, -1, t1, t2, dim=400)
        assert q == pytest.approx(q400, abs=1e-7)

    def test_window_against_series(self):
        from lgqpd import TruncationConfig, qpd_series_window

        state = StateSpec(xi=0j, r=0.3, theta0=0.0)
        qo = qpd_oracle(state, MeasurementSpec.window(1.02), 1, 1, 0.0, 1.55, dim=300)
        qs = qpd_series_window(state, 1.02, 1, 1, 0.0, 1.55, TruncationConfig(n_max=900))
        assert qo == pytest.approx(qs, abs=1e-6)

    def test_offset_measurement(self):
        from lgqpd import OffsetFunction, qpd_integral

        state = StateSpec.from_phase_space(0.5, -0.8, 0.3, 1.0)
        off = OffsetFunction(0.6, 0.9, 0.2)
        qo = qpd_oracle(state, MeasurementSpec.sign(off), 1, -1, 0.4, 2.6, dim=300)
        qi = qpd_integral(state, off, 1, -1, 0.4, 2.6)
        assert qo == pytest.approx(qi, abs=1e-5)
