"""Truncated Fock-basis evaluator used to arbitrate every formula.

The state columns D(xi) S(zeta)|m> are exponentials of the displacement and
squeeze generators truncated to the number basis.  Each generator is a
tridiagonal chain (the squeeze generator one per parity block), and a
diagonal phase turns it into -i * scale * T with T real, symmetric and fixed
by the dimension; T is diagonalized once per (chain, dim), so a state costs a
few matrix products.  Projector matrix elements are direct quadratures of
eigenfunction products over the measured region (independent of the closed
Wronskian forms used by the series route), built once per (region, dim).
Free evolution is an exact diagonal phase conjugation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, TruncationError
from .series import MeasurementSpec, _check_signs
from .special import averaged_partial_sum, composite_gauss_legendre, psi_rows
from .states import StateSpec, thermal_m_cut, thermal_weight

DIM_CAP = 600
#: The default dimension of the truncated number basis.
DEFAULT_DIM = 300
#: i^k, looked up by k mod 4 so that the chain phases carry no rounding.
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass(frozen=True)
class OracleInfo:
    """Diagnostics of one oracle evaluation: the basis dimension, the number
    of thermal columns kept, the trace deficit 1 - Tr rho and the weighted
    probability in the top tenth of the basis."""

    dim: int
    n_cols: int
    trace_deficit: float
    tail_mass: float


def _check_dim(dim: int) -> None:
    if dim < 2 or int(dim) != dim:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    if dim > DIM_CAP:
        raise CapabilityError(f"dim={dim} exceeds cap {DIM_CAP}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _real_matmul(real: np.ndarray, cplx: np.ndarray) -> np.ndarray:
    """``real @ cplx`` as one real product over the interleaved real and
    imaginary parts, without promoting ``real`` to complex."""
    cplx = np.ascontiguousarray(cplx)
    return (real @ cplx.view(float).reshape(cplx.shape[0], -1)).view(complex)


@functools.lru_cache(maxsize=4)
def _psi_overlap_matrix(lo: float, hi: float, dim: int) -> np.ndarray:
    """Matrix of integrals of psi_m psi_n over [lo, hi] by direct quadrature
    (read-only)."""
    supp = math.sqrt(2.0 * (dim - 1) + 1.0) + 8.0
    lo, hi = max(lo, -supp), min(hi, supp)
    if lo >= hi:
        return _read_only(np.zeros((dim, dim)))
    width = min(0.5, 8.0 / math.sqrt(2.0 * (dim - 1) + 1.0))
    rule = composite_gauss_legendre(lo, hi, panel_width=width, order=16)
    psi = psi_rows(rule.nodes, dim - 1)
    return _read_only((psi * rule.weights) @ psi.T)


@functools.lru_cache(maxsize=4)
def _region_projector(lo: float, hi: float, inside: bool, dim: int) -> np.ndarray:
    """Read-only projector onto [lo, hi] (``inside``) or onto its complement."""
    overlap = _psi_overlap_matrix(lo, hi, dim)
    return overlap if inside else _read_only(np.eye(dim) - overlap)


def projector_matrix(meas: MeasurementSpec, s: int, t: float, dim: int) -> np.ndarray:
    """Projector onto the outcome-s region of the measurement at time t.

    Time enters only through the measurement's own offset; free evolution is
    applied separately in :func:`qpd_oracle`.  The result is Hermitian with
    eigenvalues in [0, 1] up to truncation leakage.  It is built once per
    (region, dim) and returned read-only.
    """
    _check_signs(s)
    _check_dim(dim)
    if meas.projector == "sign":
        cut = float(meas.offset.cut_position(t))
        return _region_projector(cut, math.inf, s == 1, dim)
    half = float(meas.window_halfwidth)
    return _region_projector(-half, half, s == -1, dim)


@functools.lru_cache(maxsize=6)
def _chain_eigh(step: int, parity: int, dim: int):
    """Eigenvalues and eigenvectors (read-only) of the real symmetric chain T
    on the levels n = parity, parity + step, ... below dim.

    T couples n to n + step with sqrt(n + 1) for the displacement (step 1)
    and sqrt((n + 1)(n + 2)) / 2 for the squeeze (step 2).  scipy.linalg is
    imported on first use.
    """
    from scipy.linalg import eigh_tridiagonal
    n = np.arange(parity, dim - step, step, dtype=float)
    coupling = np.sqrt(n + 1.0) if step == 1 else 0.5 * np.sqrt((n + 1.0) * (n + 2.0))
    lam, vec = eigh_tridiagonal(np.zeros(n.size + 1), coupling)
    return _read_only(lam), _read_only(vec)


def _apply_chain_exp(cols: np.ndarray, step: int, parity: int, scale: float,
                     angle: float) -> None:
    """Apply exp(G) in place to the rows of one chain, where G has
    G[k+1, k] = c_k scale e^{i angle} and G[k, k+1] = -c_k scale e^{-i angle}
    along the chain, c_k the coupling of :func:`_chain_eigh`.

    With d_k = e^{i k angle} i^k, G = D (-i scale T) D^*, so
    exp(G) = D V exp(-i scale Lambda) V^T D^*.
    """
    lam, vec = _chain_eigh(step, parity, cols.shape[0])
    k = np.arange(lam.size)
    d = np.exp(1j * k * angle) * _I_POWERS[k % 4]
    block = _real_matmul(vec.T, d.conj()[:, None] * cols[parity::step])
    block *= np.exp(-1j * scale * lam)[:, None]
    cols[parity::step] = d[:, None] * _real_matmul(vec, block)


def _state_columns(state: StateSpec, dim: int):
    """Columns D(xi) S(zeta) |m> for the occupations that carry weight, their
    thermal weights and the weighted tail mass."""
    n_cols = 1 if state.is_pure else min(dim, thermal_m_cut(state.n_th))
    cols = np.eye(dim, n_cols, dtype=complex)
    if state.r != 0:
        for parity in (0, 1):
            _apply_chain_exp(cols, 2, parity, state.r, state.theta0)
    if state.xi != 0:
        _apply_chain_exp(cols, 1, 0, abs(state.xi), float(np.angle(state.xi)))
    weights = np.array([thermal_weight(m, state.n_th) for m in range(n_cols)])
    return cols, weights, _check_state_fits(cols, weights, dim)


def _check_state_fits(cols: np.ndarray, weights: np.ndarray, dim: int) -> float:
    """Reject bases too small for the state; returns the weighted tail mass.

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
    return tail_mass


def _phased_apply(proj: np.ndarray, t: float, vecs: np.ndarray) -> np.ndarray:
    """Apply exp(iHt) P exp(-iHt) to columns; H is diagonal so only phases act."""
    ph = np.exp(1j * np.arange(proj.shape[0]) * t)
    return ph[:, None] * _real_matmul(proj, ph.conj()[:, None] * vecs)


def _same_time_product_matrix(meas: MeasurementSpec, s1: int, s2: int, t: float,
                              dim: int) -> np.ndarray:
    """Exact matrix of P_{s2} P_{s1} at equal times: a single quadrature over
    the intersection of the two outcome regions."""
    if meas.projector == "sign":
        cut = float(meas.offset.cut_position(t))
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


def _oracle(state: StateSpec, meas: MeasurementSpec, s1: int, s2: int, t1: float,
            t2_grid, dim: int):
    """q at every t2 of a 1-D array, and the diagnostics record.

    The state columns and the t1 side are built once; each t2 applies only
    its phases and P_{s2}(t2), which is the same cached matrix for every t2
    unless an offset moves the cut.
    """
    _check_signs(s1, s2)
    _check_dim(dim)
    cols, weights, tail_mass = _state_columns(state, dim)
    trace = float(((np.abs(cols) ** 2).sum(axis=0) * weights).sum())
    if trace < 1.0 - 1e-8:
        raise TruncationError(
            f"trace deficit {1.0 - trace:.3e} at dim={dim}; increase dim")
    info = OracleInfo(dim, cols.shape[1], 1.0 - trace, tail_mass)

    t2 = np.asarray(t2_grid, dtype=float)
    q = np.empty(t2.shape)
    same = t2 == t1
    if same.any():
        prod = _same_time_product_matrix(meas, s1, s2, t1, dim)
        y = _phased_apply(prod, t1, cols)
        q[same] = float((weights * np.einsum("nm,nm->m", cols.conj(), y)).sum().real)

    y1 = _phased_apply(projector_matrix(meas, s1, t1, dim), t1, cols) * weights
    for j in np.flatnonzero(~same):
        y2 = _phased_apply(projector_matrix(meas, s2, t2[j], dim), t2[j], cols)
        # The hard measurement edges give the intermediate-index expansion an
        # oscillating k^(-3/2) tail; the averaged summation removes the last
        # uncancelled oscillation (~1e-5 at dim 400 if summed plainly).
        terms = np.einsum("nm,nm->n", y2.conj(), y1).real
        q[j] = averaged_partial_sum(terms)
    return q, info


def q_oracle_curve(state: StateSpec, meas: MeasurementSpec, s1: int, s2: int,
                   t1: float, t2_grid: np.ndarray, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Oracle quasi-probability over a 1-D array of t2 values (see
    :func:`qpd_oracle`)."""
    return _oracle(state, meas, s1, s2, t1, t2_grid, dim)[0]


def qpd_oracle(state: StateSpec, meas: MeasurementSpec, s1: int, s2: int,
               t1: float, t2: float, dim: int = DEFAULT_DIM, with_info: bool = False):
    """Quasi-probability Re Tr[P_{s2}(t2) P_{s1}(t1) rho] in the truncated basis.

    Ground truth for the cross-method tests; converges in ``dim`` for the
    standard parameter ranges (|xi| <= 2, r <= 1, n_th <= 2 by dim ~ 300-400).
    Equal times are evaluated through the exact product projector (one
    quadrature over the intersection region); at separations where the two
    measured quadratures commute (total phase a multiple of pi) the
    intermediate-index tail stops oscillating and convergence degrades to
    ~dim^(-1/2) -- the closed-form routes own those points.

    The one-element call of :func:`q_oracle_curve`.  With ``with_info=True``
    returns ``(q, OracleInfo)``.
    """
    q, info = _oracle(state, meas, s1, s2, t1, np.array([t2], dtype=float), dim)
    return (float(q[0]), info) if with_info else float(q[0])
