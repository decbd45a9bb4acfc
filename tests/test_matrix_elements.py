import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from lgqpd import composite_gauss_legendre, j_diag_row, j_row, psi_rows
from lgqpd.matrix_elements import j_block, lowered

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def window_row(h, n_max):
    """Window row J_0n(h, inf) - J_0n(-h, inf) for n = 0..n_max from the one
    row at +h, in the operations of the series' formed window rows: psi_0 is
    even and psi_{n-1} has parity (-1)^(n-1), so the entry is -erf(h) at
    n = 0, 2 J_0n(h, inf) at even n and 0 at odd n."""
    row = 2.0 * j_row(h, n_max)
    row[0] = -math.erf(h)
    row[1::2] = 0.0
    return row


def psi(n, x):
    return float(psi_rows(float(x), n)[n])


def quad_oracle(m, n, lo, hi):
    """Independent oracle: adaptive quadrature of psi_m psi_n."""
    def integrand(x):
        rows = psi_rows(float(x), max(m, n))
        return float(rows[m] * rows[n])
    val, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


def half_line_oracle(m, n, cut):
    # psi_m psi_n is below 1e-20 beyond the lower order's turning point + 10
    return quad_oracle(m, n, cut, max(cut, 0.0) + math.sqrt(2 * min(m, n) + 1) + 10.0)


#: Cuts on both sides of the low orders' turning points.
ORACLE_CUTS = (-3.0, 0.4, 2.5, 6.0)


def quadrature_diag_row(x, n_max):
    """Independent reference for J_nn(x, inf), n = 0..n_max: composite
    Gauss-Legendre quadrature of psi_n**2 up to where its Gaussian envelope
    is below exp(-60), with panels narrow enough to resolve the oscillation."""
    if math.isinf(x):
        return np.ones(n_max + 1) if x < 0 else np.zeros(n_max + 1)
    supp = math.sqrt(2.0 * n_max + 1.0) + 8.0
    lo = max(x, -supp)
    if lo >= supp:
        return np.zeros(n_max + 1)
    width = min(0.5, 8.0 / math.sqrt(2.0 * n_max + 1.0))
    rule = composite_gauss_legendre(lo, supp, panel_width=width, order=16)
    psi = psi_rows(rule.nodes, n_max)
    return (psi * psi) @ rule.weights


def j_diag(n, x):
    """Scalar reference J_nn(x, inf), in [0, 1] and decreasing in x."""
    return float(j_diag_row(float(x), n)[n])


def j_offdiag(m, n, x1, x2=math.inf):
    """Scalar reference J_mn(x1, x2), m != n, in Wronskian closed form; an
    infinite endpoint's boundary term drops out."""
    if m == n:
        raise ValueError("j_offdiag requires m != n; use j_diag for the diagonal")
    return _boundary_term(m, n, x2) - _boundary_term(m, n, x1)


def _boundary_term(m, n, x):
    # [psi'_m(x) psi_n(x) - psi'_n(x) psi_m(x)] / (2 (n - m))
    if math.isinf(x):
        return 0.0
    rows = psi_rows(float(x), max(m, n))
    lower = lowered(rows)
    return float((lower[m] * rows[n] - lower[n] * rows[m]) / (2.0 * (n - m)))


class TestOffDiagonal:
    def test_orthogonality_full_line(self):
        assert j_offdiag(0, 1, -math.inf, math.inf) == pytest.approx(0.0, abs=1e-14)

    def test_half_line_exact_value(self):
        assert j_offdiag(0, 1, 0.0, math.inf) == pytest.approx(INV_SQRT_2PI, abs=1e-13)

    def test_quadrature_oracle(self):
        got = j_offdiag(3, 7, -0.8, math.inf)
        expected = quad_oracle(3, 7, -0.8, 35.0)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_finite_interval_oracle(self):
        got = j_offdiag(2, 5, -0.4, 1.7)
        assert got == pytest.approx(quad_oracle(2, 5, -0.4, 1.7), abs=1e-10)

    def test_symmetry(self):
        assert j_offdiag(4, 9, 0.3, math.inf) == pytest.approx(
            j_offdiag(9, 4, 0.3, math.inf), abs=1e-14)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            j_offdiag(3, 3, 0.0, math.inf)


class TestDiagonal:
    def test_ground_state_closed_form(self):
        assert j_diag(0, 0.3) == pytest.approx(0.5 * (1 - math.erf(0.3)), abs=1e-14)

    def test_half_at_origin(self):
        for n in (0, 1, 4, 17, 60):
            assert j_diag(n, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_quadrature_oracle(self):
        got = j_diag(4, 1.1)
        expected = quad(lambda x: psi(4, x) ** 2, 1.1, 40.0,
                        limit=400, epsabs=1e-13)[0]
        assert got == pytest.approx(expected, abs=1e-10)

    def test_limits_and_monotonicity(self):
        assert j_diag_row(-math.inf, 3)[3] == 1.0
        assert j_diag_row(math.inf, 3)[3] == 0.0
        xs = np.linspace(-6, 6, 41)
        vals = [j_diag(6, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))

    def test_row_consistency(self):
        row = j_diag_row(0.7, 30)
        for n in (0, 5, 30):
            assert row[n] == pytest.approx(j_diag(n, 0.7), abs=1e-13)

    @pytest.mark.parametrize("cut", ORACLE_CUTS + (-30.0, 30.0))
    def test_ladder_against_quadrature_row(self, cut):
        ladder = j_diag_row(cut, 512)
        assert np.max(np.abs(ladder - quadrature_diag_row(cut, 512))) < 1e-13

    @pytest.mark.parametrize("cut", ORACLE_CUTS + (30.0,))
    def test_ladder_against_adaptive_quadrature(self, cut):
        row = j_diag_row(cut, 512)
        for n in (1, 57, 200, 512):
            assert row[n] == pytest.approx(half_line_oracle(n, n, cut), abs=1e-13)

    def test_ladder_parity_and_cut_vectorization(self):
        # psi_n**2 is even, so J_nn(-x, inf) = 1 - J_nn(x, inf)
        cuts = np.array([-30.0, -6.0, -0.4, 0.0, 0.4, 6.0, 30.0])
        rows = j_diag_row(cuts, 512)
        assert np.max(np.abs(rows + rows[:, ::-1] - 1.0)) < 1e-13
        for k, c in enumerate(cuts):
            assert np.array_equal(rows[:, k], j_diag_row(float(c), 512))

    def test_block_diagonal_is_the_ladder(self):
        block = j_block(-1.3, 40, 120)
        assert np.array_equal(np.diagonal(block), j_diag_row(-1.3, 40))


class TestComplementAndCompleteness:
    def test_complement_rule(self):
        for m, n in ((0, 1), (2, 6), (5, 11)):
            for a in (-1.2, 0.0, 0.9):
                total = j_offdiag(m, n, -math.inf, a) + j_offdiag(m, n, a, math.inf)
                assert abs(total) < 1e-12  # delta_mn = 0 off the diagonal
        for n in (0, 3, 9):
            a = 0.4
            lower = quad(lambda x: psi(n, x) ** 2, -40.0, a, limit=400)[0]
            assert lower + j_diag(n, a) == pytest.approx(1.0, abs=1e-10)

    def test_projector_idempotence_in_truncated_basis(self):
        # The indicator's jump makes the Fock coefficients decay like
        # k^(-3/4), so the truncated completeness sum converges as K^(-1/2);
        # check the value at K = 300 and that quadrupling K halves the error.
        a = 0.6
        target = j_block(a, 10, 10)

        def error(k_max):
            rect = j_block(a, 10, k_max)
            return np.max(np.abs(rect @ rect.T - target))

        err_300 = error(300)
        err_1200 = error(1200)
        assert err_300 < 1e-2
        assert err_1200 < 0.65 * err_300


class TestRowHelper:
    def test_row_against_scalar_elements(self):
        cut = -0.35
        row = j_row(cut, 9)
        assert row[0] == pytest.approx(0.5 * (1 - math.erf(cut)), abs=1e-14)
        for n in range(1, 10):
            assert row[n] == pytest.approx(j_offdiag(0, n, cut, math.inf), abs=1e-13)

    @pytest.mark.parametrize("cut", ORACLE_CUTS)
    def test_high_order_row_against_quadrature(self, cut):
        row = j_row(cut, 512)
        for n in (1, 2, 57, 200, 512):
            assert row[n] == pytest.approx(half_line_oracle(0, n, cut), rel=1e-9, abs=1e-18)

    @pytest.mark.parametrize("cut", ORACLE_CUTS)
    def test_block_against_quadrature(self, cut):
        block = j_block(cut, 55, 200)
        for m, n in ((0, 200), (1, 0), (3, 8), (20, 19), (55, 54), (55, 56), (40, 133), (55, 200)):
            assert block[m, n] == pytest.approx(half_line_oracle(m, n, cut),
                                               rel=1e-9, abs=1e-18)

    def test_block_low_order_entries(self):
        block = j_block(0.0, 2, 2)
        assert block[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert block[0, 1] == pytest.approx(INV_SQRT_2PI, abs=1e-12)
        assert block[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert block[0, 2] == pytest.approx(j_offdiag(0, 2, 0.0, math.inf), abs=1e-14)

    def test_block_symmetry(self):
        block = j_block(-0.7, 40, 40)
        assert np.max(np.abs(block - block.T)) < 1e-12

    def test_block_first_row_is_j_row(self):
        cut = 1.03
        assert np.max(np.abs(j_block(cut, 12, 12)[0] - j_row(cut, 12))) < 1e-12

    def test_block_build_performance(self):
        start = time.perf_counter()
        block = j_block(1.03, 500, 500)
        elapsed = time.perf_counter() - start
        assert block.shape == (501, 501)
        assert elapsed < 10.0
        assert block.nbytes < 50e6

    @pytest.mark.parametrize("h", [0.05, 0.7, 1.02, 3.3])
    def test_window_row_parity(self, h):
        want = j_row(h, 256) - j_row(-h, 256)
        assert np.max(np.abs(window_row(h, 256) - want)) < 1e-14
