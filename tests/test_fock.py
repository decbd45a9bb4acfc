import ast
import contextlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from lgqpd import (CapabilityError, MeasurementSpec, OffsetFunction, OracleInfo,
                   StateSpec, TruncationError, fock, gamma_from, qpd_oracle,
                   thermal_m_cut, thermal_weight)
from lgqpd.fock import _state_columns, projector_matrix
from lgqpd.matrix_elements import j_block
from lgqpd.special import composite_gauss_legendre, psi_rows

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SIGN_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def rho_fock(state, dim):
    """Dense density matrix from the oracle's weighted state columns."""
    cols, weights, _ = _state_columns(state, dim)
    return (cols * weights) @ cols.conj().T


def dense_columns(state, dim):
    """D(xi) S(zeta)|m> by dense matrix exponentials of the truncated
    generators: the oracle's original definition of its state columns."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    ad = a.conj().T
    n_cols = 1 if state.n_th == 0 else min(dim, thermal_m_cut(state.n_th))
    cols = np.eye(dim, n_cols, dtype=complex)
    zeta = state.r * np.exp(1j * state.theta0)
    cols = expm(0.5 * (zeta * (ad @ ad) - np.conj(zeta) * (a @ a))) @ cols
    return expm(state.xi * ad - np.conj(state.xi) * a) @ cols


#: Four quadrants, then purely real and purely imaginary.
XIS = (0.8 + 0.6j, -0.7 + 0.9j, -1.1 - 0.4j, 0.5 - 1.2j, 1.3 + 0j, 1.4j)
SQUEEZES = ((0.0, 0.0), (0.3, 0.0), (0.3, 2.5), (0.3, -1.0),
            (1.0, 0.0), (1.0, 2.5), (1.0, -1.0))
#: (xi, r, theta0, n_th, dim), each state small enough for its basis.
COLUMN_CASES = (
    [(xi, r, th, n_th, 120) for xi in XIS for r, th in SQUEEZES
     for n_th in ((0.0, 0.5, 2.0) if r == 0 else (0.0, 0.5) if r < 1 else (0.0,))]
    + [(xi, r, th, 0.0, 40) for xi in XIS for r, th in SQUEEZES[:4]]
    + [(XIS[0], 0.0, 0.0, 0.5, 40), (XIS[4], 0.0, 0.0, 0.5, 40),
       (XIS[0], 1.0, 2.5, 0.5, 400), (XIS[1], 1.0, -1.0, 0.5, 400),
       (XIS[2], 0.3, 0.0, 2.0, 400), (XIS[5], 0.3, 2.5, 2.0, 400),
       (XIS[2], 1.0, 2.5, 2.0, 600)]
    # odd dims, where a chain's even and odd halves differ in length
    + [(xi, r, th, 0.0, 41) for xi in XIS for r, th in SQUEEZES[:4]]
    + [(xi, r, th, n_th, 121) for xi in XIS[:3] for r, th in SQUEEZES[::3]
       for n_th in ((0.0, 0.5) if r < 1 else (0.0,))]
    + [(XIS[0], 1.0, 2.5, 0.5, 301), (XIS[3], 0.3, -1.0, 2.0, 301)]
    # dim 2, where each squeeze chain has a single site
    + [(0j, 0.0, 0.0, 0.0, 2), (0j, 0.3, 0.0, 0.0, 2), (0j, 1.0, 2.5, 0.0, 2)])
#: (xi, r, theta0, n_th) in bases of dim 2 to 5; most overfill them.
SMALL_CASES = [(xi, r, th, n_th) for xi in (0j, 1e-6 + 0j, XIS[0], XIS[5])
               for r, th in SQUEEZES[:3] for n_th in (0.0, 0.5)]


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


def dense_overlap(lo, hi, dim):
    """Integrals of psi_m psi_n over [lo, hi] as one dense quadrature, with
    no parity blocks."""
    supp = math.sqrt(2.0 * (dim - 1) + 1.0) + 8.0
    lo, hi = max(lo, -supp), min(hi, supp)
    width = min(0.5, 8.0 / math.sqrt(2.0 * (dim - 1) + 1.0))
    rule = composite_gauss_legendre(lo, hi, panel_width=width, order=16)
    psi = psi_rows(rule.nodes, dim - 1)
    return (psi * rule.weights) @ psi.T


OFFSET = OffsetFunction(constant=0.45 * math.sqrt(2.0))
#: (measurement, outcome, its region's dense projector at dim 301)
PROJECTOR_CASES = [
    (MeasurementSpec.sign(), 1, lambda d: dense_overlap(0.0, math.inf, d)),
    (MeasurementSpec.sign(), -1, lambda d: np.eye(d) - dense_overlap(0.0, math.inf, d)),
    (MeasurementSpec.sign(OFFSET), 1, lambda d: dense_overlap(0.45, math.inf, d)),
    (MeasurementSpec.sign(OFFSET), -1, lambda d: dense_overlap(-math.inf, 0.45, d)),
    (MeasurementSpec.window(1.1), 1,
     lambda d: dense_overlap(-math.inf, -1.1, d) + dense_overlap(1.1, math.inf, d)),
    (MeasurementSpec.window(1.1), -1, lambda d: dense_overlap(-1.1, 1.1, d)),
]


class TestParityBlocks:
    """The oracle applies each projector through its blocks of level parity;
    the blocks that parity makes exact (zero, or 1/2 I) are not multiplied."""

    @pytest.mark.parametrize("meas,s,dense", PROJECTOR_CASES)
    def test_apply_equals_dense_product(self, meas, s, dense):
        dim, t = 301, 0.7
        cols = _state_columns(StateSpec(xi=0.6 - 0.4j, r=0.3, theta0=0.5, n_th=1.0), dim)[0]
        p = projector_matrix(meas, s, t, dim)
        assert np.max(np.abs(p - dense(dim))) <= 1e-13
        ph = np.exp(1j * np.arange(dim) * t)
        expected = ph[:, None] * (p @ (ph.conj()[:, None] * cols))
        got = fock._phased_apply(fock._projector(meas, s, t, dim), t, cols)
        assert np.max(np.abs(got - expected)) <= 1e-13

    @pytest.mark.parametrize("meas,regions", [
        (MeasurementSpec.sign(), {1: [(0.0, math.inf)], -1: [(-math.inf, 0.0)]}),
        (MeasurementSpec.sign(OFFSET), {1: [(0.45, math.inf)], -1: [(-math.inf, 0.45)]}),
        (MeasurementSpec.window(1.1),
         {1: [(-math.inf, -1.1), (1.1, math.inf)], -1: [(-1.1, 1.1)]}),
    ])
    @pytest.mark.parametrize("s1,s2", SIGN_PAIRS)
    def test_same_time_product(self, meas, regions, s1, s2):
        # P_{s2} P_{s1} as one dense quadrature over the intersection of the
        # two outcome regions
        dim, t1 = 301, 0.4
        prod = np.zeros((dim, dim))
        for lo1, hi1 in regions[s1]:
            for lo2, hi2 in regions[s2]:
                if max(lo1, lo2) < min(hi1, hi2):
                    prod += dense_overlap(max(lo1, lo2), min(hi1, hi2), dim)
        state = StateSpec(xi=0j, r=0.3, theta0=0.5, n_th=0.5)
        cols, weights, _ = _state_columns(state, dim)
        ph = np.exp(1j * np.arange(dim) * t1)
        y = ph[:, None] * (prod @ (ph.conj()[:, None] * cols))
        expected = float((weights * np.einsum("nm,nm->m", cols.conj(), y)).sum().real)
        got = qpd_oracle(state, meas, s1, s2, t1, t1, dim=dim)
        assert got == pytest.approx(expected, abs=1e-13)
        if s1 != s2:
            assert got == 0.0


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


class TestStateColumns:
    @pytest.mark.parametrize("xi,r,theta0,n_th,dim", COLUMN_CASES)
    def test_columns_match_dense_exponentials(self, xi, r, theta0, n_th, dim):
        state = StateSpec(xi=xi, r=r, theta0=theta0, n_th=n_th)
        cols, weights, tail_mass = _state_columns(state, dim)
        assert np.max(np.abs(cols - dense_columns(state, dim))) <= 1e-12
        assert tail_mass <= 1e-9
        assert weights.shape == (cols.shape[1],)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("xi,r,theta0,n_th", SMALL_CASES)
    def test_small_bases_match_or_overfill(self, xi, r, theta0, n_th, dim):
        # the dense columns' own weighted tail mass says whether the state
        # fits; the dense exponentials have no single-site chain to skip
        state = StateSpec(xi=xi, r=r, theta0=theta0, n_th=n_th)
        dense = dense_columns(state, dim)
        weights = np.array([thermal_weight(m, n_th) for m in range(dense.shape[1])])
        tail = float((weights * (np.abs(dense[int(0.9 * dim):]) ** 2).sum(axis=0)).sum())
        assert not 1e-10 < tail < 1e-8
        if tail > 1e-9:
            with pytest.raises(TruncationError):
                _state_columns(state, dim)
        else:
            assert np.max(np.abs(_state_columns(state, dim)[0] - dense)) <= 1e-12


class TestCaches:
    BATTERY = [(0.4, 1.1, 0.3, 0.9, 0.0), (-1.2, 0.5, 1.0, -1.0, 0.0),
               (0.8, -0.6, 0.5, 2.5, 0.7), (1.5, 0.2, 0.1, 0.0, 0.3)]

    def test_built_once_per_region_and_chain(self, monkeypatch):
        for cached in (fock._overlap_blocks, fock._chain_svd):
            cached.cache_clear()
        quadratures = []
        monkeypatch.setattr(fock, "psi_rows", lambda *a: quadratures.append(a) or psi_rows(*a))
        for k, (x0, p0, r, th, n_th) in enumerate(self.BATTERY):
            state = StateSpec.from_phase_space(x0, p0, r, th, n_th)
            for s1, s2 in SIGN_PAIRS:
                qpd_oracle(state, MeasurementSpec.sign(), s1, s2, 0.3, 1.1 + 0.2 * k, dim=120)
            fock._oracle(state, MeasurementSpec.sign(), 1, -1, 0.3,
                         np.linspace(0.5, 3.0, 7), dim=120)[0]
        # one [0, inf) overlap, a displacement chain and two squeeze parity chains
        assert fock._overlap_blocks.cache_info().misses == 1
        assert fock._chain_svd.cache_info().misses == 3
        # both outcomes of a region share its parity blocks, built once
        for s in (1, -1):
            projector_matrix(MeasurementSpec.sign(), s, 0.0, 120)
            for t2 in (0.5, 1.5):
                fock._oracle(StateSpec(r=0.4), MeasurementSpec.window(1.1), s, -s, 0.0,
                             np.array([0.0, t2]), dim=120)[0]
        assert fock._overlap_blocks.cache_info().misses == 2
        assert len(quadratures) == 2

    @pytest.mark.parametrize("meas", [MeasurementSpec.sign(), MeasurementSpec.window(1.1)])
    @pytest.mark.parametrize("s", [1, -1])
    def test_returned_projector_cannot_change_the_next(self, meas, s):
        p = projector_matrix(meas, s, 0.0, 60)
        before = np.array(p)
        with contextlib.suppress(ValueError):
            p[0, 0] += 1.0
        assert np.array_equal(projector_matrix(meas, s, 0.0, 60), before)


def test_oracle_shares_no_series_code():
    """The oracle arbitrates the other routes, so it may take only the
    measurement description and the input checks (outcome signs, finite
    times) from them."""
    tree = ast.parse(Path(fock.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("lgqpd.").removeprefix("lgqpd")
            if module:
                imported.setdefault(module, set()).update(a.name for a in node.names)
            else:
                imported.update((a.name, {"*"}) for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.name.removeprefix("lgqpd."), {"*"}) for a in node.names)
    assert imported["series"] == {"MeasurementSpec", "_check_finite", "_check_signs"}
    assert "matrix_elements" not in imported
    assert "integral" not in imported


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

    def test_info(self):
        state = StateSpec.from_phase_space(0.7, 0.9, 0.5, 0.6, n_th=0.8)
        args = (state, MeasurementSpec.sign(), 1, -1, 0.3, 1.4)
        q, info = qpd_oracle(*args, dim=220, with_info=True)
        assert q == qpd_oracle(*args, dim=220)
        assert isinstance(info, OracleInfo)
        assert (info.dim, info.n_cols) == (220, thermal_m_cut(0.8))
        assert abs(info.trace_deficit) < 1e-8
        assert 0.0 <= info.tail_mass <= 1e-9

    def test_point_info_is_the_curve_kernels_column_record(self):
        # one record per column, as the integral kernel gives; t2 = t1 takes
        # the same-time branch
        state = StateSpec.from_phase_space(0.4, -0.3, 0.2, 0.0, n_th=0.4)
        meas, grid = MeasurementSpec.sign(), np.array([0.3, 1.1, 2.4])
        q, infos = fock._oracle(state, meas, 1, -1, 0.3, grid, 120)
        assert len(infos) == grid.size
        for t2, qk, column in zip(grid.tolist(), q, infos):
            assert (qk, column) == qpd_oracle(state, meas, 1, -1, 0.3, t2, dim=120,
                                              with_info=True)

    def test_offset_measurement(self):
        from lgqpd import OffsetFunction, qpd_integral

        state = StateSpec.from_phase_space(0.5, -0.8, 0.3, 1.0)
        off = OffsetFunction(0.6, 0.9, 0.2)
        qo = qpd_oracle(state, MeasurementSpec.sign(off), 1, -1, 0.4, 2.6, dim=300)
        qi = qpd_integral(state, off, 1, -1, 0.4, 2.6)
        assert qo == pytest.approx(qi, abs=1e-5)


class TestOracleArguments:
    def test_whole_float_dim_is_an_int(self):
        args = (StateSpec(xi=0.5 + 0.2j), MeasurementSpec.sign(), 1, -1, 0.3, 1.2)
        q, info = qpd_oracle(*args, dim=40.0, with_info=True)
        assert (q, info) == qpd_oracle(*args, dim=40, with_info=True)
        assert type(info.dim) is int
        assert np.array_equal(projector_matrix(MeasurementSpec.window(1.0), 1, 0.0, 40.0),
                              projector_matrix(MeasurementSpec.window(1.0), 1, 0.0, 40))

    @pytest.mark.parametrize("dim", [math.inf, -math.inf, math.nan, 40.5, 1, 1.0])
    def test_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer >= 2"):
            qpd_oracle(StateSpec(), MeasurementSpec.sign(), 1, 1, 0.0, 1.0, dim=dim)
        with pytest.raises(ValueError, match="dim must be an integer >= 2"):
            projector_matrix(MeasurementSpec.sign(), 1, 0.0, dim)

    @pytest.mark.parametrize("meas", [MeasurementSpec.sign(), MeasurementSpec.window(1.0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times(self, meas, bad):
        state = StateSpec(r=0.3)
        with pytest.raises(ValueError, match="t1 must be finite"):
            qpd_oracle(state, meas, 1, 1, bad, 1.0, dim=40)
        with pytest.raises(ValueError, match="t2 must be finite"):
            qpd_oracle(state, meas, 1, 1, 0.0, bad, dim=40)
        with pytest.raises(ValueError, match="t2 must be finite"):
            fock._oracle(state, meas, 1, -1, 0.0, np.array([0.5, bad, 1.0]), dim=40)[0]
        with pytest.raises(ValueError, match="t must be finite"):
            projector_matrix(meas, 1, bad, 40)


class TestOracleCurve:
    @pytest.mark.parametrize("state,meas", [
        (StateSpec.from_phase_space(0.5, -0.8, 0.3, 1.0),
         MeasurementSpec.sign(OffsetFunction(0.6, 0.9, 0.2))),
        (StateSpec.from_phase_space(0.7, 0.9, 0.5, 0.6, n_th=0.8), MeasurementSpec.sign()),
        (StateSpec(r=0.3, theta0=0.4), MeasurementSpec.window(1.02)),
    ])
    def test_matches_pointwise(self, state, meas):
        t1 = 0.4
        # long enough to split the thermal columns into several products
        grid = np.concatenate([[t1], np.linspace(0.1, 5.0, 17), [t1, 2.2]])
        for s1, s2 in SIGN_PAIRS:
            curve = fock._oracle(state, meas, s1, s2, t1, grid, dim=120)[0]
            point = [qpd_oracle(state, meas, s1, s2, t1, t2, dim=120) for t2 in grid]
            assert np.max(np.abs(curve - point)) <= 1e-15
