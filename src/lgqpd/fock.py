"""Brute-force truncated Fock-basis evaluator used to arbitrate every formula.

The density matrix is built by exponentiating the displacement and squeeze
generators in a truncated number basis; projector matrix elements are direct
quadratures of eigenfunction products over the measured region (independent
of the closed Wronskian forms used by the series route); free evolution is an
exact diagonal phase conjugation.  This module optimizes for trust, not
speed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as _sparse
from scipy.sparse.linalg import expm_multiply

from .errors import CapabilityError, TruncationError
from .series import MeasurementSpec, _check_signs
from .special import averaged_partial_sum, composite_gauss_legendre, psi_rows
from .states import DEFAULT_UNITS, StateSpec, UnitsConfig, thermal_m_cut, thermal_weight

DIM_CAP = 600


def _check_dim(dim: int) -> None:
    if dim < 2 or int(dim) != dim:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    if dim > DIM_CAP:
        raise CapabilityError(f"dim={dim} exceeds cap {DIM_CAP}")


def _annihilation(dim: int):
    return _sparse.diags(np.sqrt(np.arange(1, dim)), 1, format="csc", dtype=complex)


def _psi_overlap_matrix(lo: float, hi: float, dim: int) -> np.ndarray:
    """Matrix of integrals of psi_m psi_n over [lo, hi] by direct quadrature."""
    supp = math.sqrt(2.0 * (dim - 1) + 1.0) + 8.0
    lo, hi = max(lo, -supp), min(hi, supp)
    if lo >= hi:
        return np.zeros((dim, dim))
    width = min(0.5, 8.0 / math.sqrt(2.0 * (dim - 1) + 1.0))
    rule = composite_gauss_legendre(lo, hi, panel_width=width, order=16)
    psi = psi_rows(rule.nodes, dim - 1)
    return (psi * rule.weights) @ psi.T


def projector_matrix(meas: MeasurementSpec, s: int, t: float, dim: int,
                     units: UnitsConfig = DEFAULT_UNITS) -> np.ndarray:
    """Projector onto the outcome-s region of the measurement at time t.

    Time enters only through the measurement's own offset; free evolution is
    applied separately in :func:`qpd_oracle`.  The result is Hermitian with
    eigenvalues in [0, 1] up to truncation leakage.
    """
    if s not in (1, -1):
        raise ValueError(f"s must be +1 or -1, got {s!r}")
    _check_dim(dim)
    if meas.projector == "sign":
        cut = float(meas.offset.cut_position(t, units))
        upper = _psi_overlap_matrix(cut, math.inf, dim)
        return upper if s == 1 else np.eye(dim) - upper
    half = float(meas.window_halfwidth)
    box = _psi_overlap_matrix(-half, half, dim)
    return np.eye(dim) - box if s == 1 else box


def _state_columns(state: StateSpec, dim: int):
    """Columns D(xi) S(zeta) |m> for the occupations that carry weight."""
    a = _annihilation(dim)
    ad = a.conj().T
    n_cols = 1 if state.is_pure else min(dim, thermal_m_cut(state.n_th, 1e-12))
    cols = np.eye(dim, n_cols, dtype=complex)
    if state.r != 0:
        zeta = state.r * np.exp(1j * state.theta0)
        gen_s = 0.5 * (zeta * (ad @ ad) - np.conj(zeta) * (a @ a))
        cols = expm_multiply(gen_s, cols)
    if state.xi != 0:
        gen_d = state.xi * ad - np.conj(state.xi) * a
        cols = expm_multiply(gen_d, cols)
    weights = np.array([thermal_weight(m, state.n_th) for m in range(n_cols)])
    _check_state_fits(cols, weights, dim)
    return cols, weights


def _check_state_fits(cols: np.ndarray, weights: np.ndarray, dim: int) -> None:
    """Reject bases too small for the state.

    The truncated generators exponentiate to unitaries of the truncated space,
    so the norm stays 1 even when the physical state does not fit; the
    telltale is probability piling up near the top of the basis.
    """
    top = (np.abs(cols[int(0.9 * dim):]) ** 2).sum(axis=0)
    tail_mass = float((weights * top).sum())
    if tail_mass > 1e-9:
        raise TruncationError(
            f"state occupies the top of the basis (tail mass {tail_mass:.3e} "
            f"above level {int(0.9 * dim)}); increase dim")


def _phased_apply(proj: np.ndarray, t: float, omega: float, vecs: np.ndarray) -> np.ndarray:
    """Apply exp(iHt) P exp(-iHt) to columns; H is diagonal so only phases act."""
    n = np.arange(proj.shape[0])
    ph = np.exp(1j * n * omega * t)
    return ph[:, None] * (proj @ (ph.conj()[:, None] * vecs))


def _same_time_product_matrix(meas: MeasurementSpec, s1: int, s2: int, t: float,
                              dim: int, units: UnitsConfig) -> np.ndarray:
    """Exact matrix of P_{s2} P_{s1} at equal times: a single quadrature over
    the intersection of the two outcome regions."""
    if meas.projector == "sign":
        cut = float(meas.offset.cut_position(t, units))
        regions = {1: [(cut, math.inf)], -1: [(-math.inf, cut)]}
    else:
        half = float(meas.window_halfwidth)
        regions = {1: [(-math.inf, -half), (half, math.inf)], -1: [(-half, half)]}
    out = np.zeros((dim, dim))
    for lo1, hi1 in regions[s1]:
        for lo2, hi2 in regions[s2]:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out += _psi_overlap_matrix(lo, hi, dim)
    return out


def qpd_oracle(state: StateSpec, meas: MeasurementSpec, s1: int, s2: int,
               t1: float, t2: float, dim: int = 300,
               units: UnitsConfig = DEFAULT_UNITS) -> float:
    """Quasi-probability Re Tr[P_{s2}(t2) P_{s1}(t1) rho] in the truncated basis.

    Ground truth for the cross-method tests; converges in ``dim`` for the
    standard parameter ranges (|xi| <= 2, r <= 1, n_th <= 2 by dim ~ 300-400).
    Equal times are evaluated through the exact product projector (one
    quadrature over the intersection region); at separations where the two
    measured quadratures commute (total phase a multiple of pi) the
    intermediate-index tail stops oscillating and convergence degrades to
    ~dim^(-1/2) -- the closed-form routes own those points.
    """
    _check_signs(s1, s2)
    _check_dim(dim)
    cols, weights = _state_columns(state, dim)
    trace = float(((np.abs(cols) ** 2).sum(axis=0) * weights).sum())
    if trace < 1.0 - 1e-8:
        raise TruncationError(
            f"trace deficit {1.0 - trace:.3e} at dim={dim}; increase dim")

    if t1 == t2:
        prod = _same_time_product_matrix(meas, s1, s2, t1, dim, units)
        y = _phased_apply(prod, t1, units.omega, cols)
        return float((weights * np.einsum("nm,nm->m", cols.conj(), y)).sum().real)

    p1 = projector_matrix(meas, s1, t1, dim, units)
    p2 = projector_matrix(meas, s2, t2, dim, units)
    y1 = _phased_apply(p1, t1, units.omega, cols)
    y2 = _phased_apply(p2, t2, units.omega, cols)
    # The hard measurement edges give the intermediate-index expansion an
    # oscillating k^(-3/2) tail; the averaged summation removes the last
    # uncancelled oscillation (~1e-5 at dim 400 if summed plainly).
    terms = np.einsum("nm,nm->n", y2.conj(), y1 * weights).real
    return float(averaged_partial_sum(terms, window=min(256, 3 * dim // 4)))
