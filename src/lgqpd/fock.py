"""Truncated Fock-basis evaluator used to arbitrate every formula.

The state columns D(xi) S(zeta)|m> are exponentials of the displacement and
squeeze generators truncated to the number basis.  Each generator is a
tridiagonal chain (the squeeze generator one per parity block), and a
diagonal phase turns it into -i * scale * T with T real, symmetric and fixed
by the dimension.  T has a zero diagonal, so it only couples the chain's even
sites to its odd ones; the singular value decomposition of that even-odd
block is taken once per (chain, dim), and a state costs four half-size
products per chain.  Projector matrix elements are direct quadratures of
eigenfunction products over the measured region (independent of the closed
Wronskian forms used by the series route), done once per (region, dim) and
kept in blocks of level parity: psi_n(-x) = (-1)^n psi_n(x) makes the
even-odd blocks of a window vanish and the same-parity blocks of the
half-line at 0 exactly 1/2 I, and such blocks are not multiplied.  Free
evolution is an exact diagonal phase conjugation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, TruncationError
from .series import MeasurementSpec, _check_finite, _check_signs
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


def _check_dim(dim) -> int:
    """``dim`` as an int; a whole float is taken, anything else is refused."""
    if not (math.isfinite(dim) and dim >= 2 and int(dim) == dim):
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    if dim > DIM_CAP:
        raise CapabilityError(f"dim={dim} exceeds cap {DIM_CAP}")
    return int(dim)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _real_matmul(real: np.ndarray, cplx: np.ndarray) -> np.ndarray:
    """``real @ cplx`` as one real product over the interleaved real and
    imaginary parts, without promoting ``real`` to complex."""
    cplx = np.ascontiguousarray(cplx)
    return (real @ cplx.view(float).reshape(cplx.shape[0], -1)).view(complex)


@dataclass(frozen=True)
class _ParityBlocks:
    """A real symmetric matrix on the number basis split by level parity: its
    even-even and odd-odd blocks, where a float c stands for c times the
    identity, and its even-odd block, None where parity makes it zero (the
    odd-even block is its transpose)."""

    even: float | np.ndarray
    odd: float | np.ndarray
    cross: np.ndarray | None


@functools.lru_cache(maxsize=4)
def _overlap_blocks(lo: float, hi: float, dim: int) -> _ParityBlocks:
    """Integrals of psi_m psi_n over [lo, hi] by direct quadrature, in parity
    blocks (read-only).

    psi_n(-x) = (-1)^n psi_n(x), so over an interval symmetric about 0 the
    even-odd block vanishes, and a half-line at 0 and its mirror tile the
    line, so its same-parity blocks are exactly 1/2 I.
    """
    symmetric, half_line = lo == -hi, lo == 0.0 and hi == math.inf
    supp = math.sqrt(2.0 * (dim - 1) + 1.0) + 8.0
    lo, hi = max(lo, -supp), min(hi, supp)
    if lo >= hi:
        return _ParityBlocks(0.0, 0.0, None)
    width = min(0.5, 8.0 / math.sqrt(2.0 * (dim - 1) + 1.0))
    rule = composite_gauss_legendre(lo, hi, panel_width=width, order=16)
    psi = psi_rows(rule.nodes, dim - 1)
    even, odd = psi[0::2], psi[1::2]
    weighted = even * rule.weights
    if half_line:
        return _ParityBlocks(0.5, 0.5, _read_only(weighted @ odd.T))
    blocks = (weighted @ even.T, (odd * rule.weights) @ odd.T,
              None if symmetric else weighted @ odd.T)
    return _ParityBlocks(*(None if b is None else _read_only(b) for b in blocks))


def _times(block: float | np.ndarray, vecs: np.ndarray) -> np.ndarray:
    if isinstance(block, float):
        return block * vecs
    return _real_matmul(block, vecs) if np.iscomplexobj(vecs) else block @ vecs


def _apply_projector(blocks: _ParityBlocks, inside: bool, vecs: np.ndarray) -> np.ndarray:
    """P @ vecs for P the overlap in ``blocks`` (``inside``) or its complement
    I - overlap: one half-size product per block that parity leaves."""
    even, odd = vecs[0::2], vecs[1::2]
    out = np.empty_like(vecs)
    out[0::2] = _times(blocks.even, even)
    out[1::2] = _times(blocks.odd, odd)
    if blocks.cross is not None:
        out[0::2] += _times(blocks.cross, odd)
        out[1::2] += _times(blocks.cross.T, even)
    return out if inside else vecs - out


def _projector(meas: MeasurementSpec, s: int, t: float, dim: int):
    """The outcome-s projector of the measurement at time t as (parity blocks
    of its region's overlap, whether P is that overlap or its complement)."""
    if meas.projector == "sign":
        cut = float(meas.offset.cut_position(t))
        return _overlap_blocks(cut, math.inf, dim), s == 1
    half = float(meas.window_halfwidth)
    return _overlap_blocks(-half, half, dim), s == -1


def projector_matrix(meas: MeasurementSpec, s: int, t: float, dim: int) -> np.ndarray:
    """Projector onto the outcome-s region of the measurement at time t.

    Time enters only through the measurement's own offset; free evolution is
    applied separately in :func:`qpd_oracle`.  The result is Hermitian with
    eigenvalues in [0, 1] up to truncation leakage.  Its quadrature is done
    once per (region, dim); the dense matrix is assembled from it on each call
    and returned read-only.
    """
    _check_signs(s)
    dim = _check_dim(dim)
    _check_finite(t=t)
    return _read_only(_apply_projector(*_projector(meas, s, t, dim), np.eye(dim)))


@functools.lru_cache(maxsize=6)
def _chain_svd(step: int, parity: int, dim: int):
    """U, sigma, W^T (read-only) of the singular value decomposition of the
    even-odd block A of the real symmetric chain T on the levels n = parity,
    parity + step, ... below dim.

    T couples n to n + step with sqrt(n + 1) for the displacement (step 1)
    and sqrt((n + 1)(n + 2)) / 2 for the squeeze (step 2).  Its diagonal is
    zero, so it couples the chain's even sites only to its odd ones:
    T = [[0, A], [A^T, 0]].  A chain of L >= 2 sites has ceil(L/2) even and
    floor(L/2) odd sites; U and W are square.  scipy.linalg is imported on
    first use.
    """
    from scipy.linalg import svd
    n = np.arange(parity, dim - step, step, dtype=float)
    coupling = np.sqrt(n + 1.0) if step == 1 else 0.5 * np.sqrt((n + 1.0) * (n + 2.0))
    t = np.diag(coupling, 1)
    u, sigma, wt = svd((t + t.T)[0::2, 1::2])
    return _read_only(u), _read_only(sigma), _read_only(wt)


def _apply_chain_exp(cols: np.ndarray, step: int, parity: int, scale: float,
                     angle: float) -> None:
    """Apply exp(G) in place to the rows of one chain, where G has
    G[k+1, k] = c_k scale e^{i angle} and G[k, k+1] = -c_k scale e^{-i angle}
    along the chain, c_k the coupling of :func:`_chain_svd`.

    With d_k = e^{i k angle} i^k, G = D (-i scale T) D^*, and with
    A = U Sigma W^T, C = cos(scale Sigma) and S = sin(scale Sigma),
    exp(-i scale T) = [[U C U^T, -i U S W^T], [-i W S U^T, W C W^T]] over the
    even and odd sites: four half-size products.  An even site left over when
    the halves differ in length is a zero mode (cos 0 = 1, sin 0 = 0).
    """
    chain = cols[parity::step]
    if chain.shape[0] < 2:
        return
    u, sigma, wt = _chain_svd(step, parity, cols.shape[0])
    k = np.arange(chain.shape[0])
    d = np.exp(1j * k * angle) * _I_POWERS[k % 4]
    x = d.conj()[:, None] * chain
    even = _real_matmul(u.T, x[0::2])
    odd = _real_matmul(wt, x[1::2])
    paired = even[:sigma.size].copy()
    c, s = np.cos(scale * sigma)[:, None], np.sin(scale * sigma)[:, None]
    even[:sigma.size] = c * paired - 1j * s * odd
    odd = c * odd - 1j * s * paired
    x[0::2] = _real_matmul(u, even)
    x[1::2] = _real_matmul(wt.T, odd)
    cols[parity::step] = d[:, None] * x


def _state_columns(state: StateSpec, dim: int):
    """Columns D(xi) S(zeta) |m> for the occupations that carry weight, their
    thermal weights and the weighted tail mass."""
    n_cols = 1 if state.is_pure else min(dim, thermal_m_cut(state.n_th))
    cols = np.eye(dim, n_cols, dtype=complex)
    if state.r != 0:
        # |m> lies on the squeeze chain of its own parity only
        for parity in range(min(2, n_cols)):
            _apply_chain_exp(cols[:, parity::2], 2, parity, state.r, state.theta0)
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


def _phased_apply(proj, t: float, vecs: np.ndarray) -> np.ndarray:
    """Apply exp(iHt) P exp(-iHt) to columns, ``proj`` as :func:`_projector`
    gives it; H is diagonal so only phases act."""
    ph = np.exp(1j * np.arange(vecs.shape[0]) * t)
    return ph[:, None] * _apply_projector(*proj, ph.conj()[:, None] * vecs)


def _oracle(state: StateSpec, meas: MeasurementSpec, s1: int, s2: int, t1: float,
            t2_grid, dim: int):
    """q at every t2 of a 1-D array, and one :class:`OracleInfo` per column,
    the same record for each: the state columns and their checks are shared.

    The state columns and the t1 side are built once; each t2 applies only
    its phases and P_{s2}(t2), whose quadrature is the same cached one for
    every t2 unless an offset moves the cut.  At t2 = t1 the two outcome
    regions coincide or are disjoint, so P_{s2} P_{s1} is exactly P_{s1} or 0.
    """
    _check_signs(s1, s2)
    dim = _check_dim(dim)
    t2 = np.asarray(t2_grid, dtype=float)
    _check_finite(t1=t1, t2=t2)
    cols, weights, tail_mass = _state_columns(state, dim)
    trace = float(((np.abs(cols) ** 2).sum(axis=0) * weights).sum())
    if trace < 1.0 - 1e-8:
        raise TruncationError(
            f"trace deficit {1.0 - trace:.3e} at dim={dim}; increase dim")
    info = OracleInfo(dim, cols.shape[1], 1.0 - trace, tail_mass)

    q = np.empty(t2.shape)
    y1 = _phased_apply(_projector(meas, s1, t1, dim), t1, cols)
    same = t2 == t1
    if same.any():
        q[same] = 0.0 if s1 != s2 else float(
            (weights * np.einsum("nm,nm->m", cols.conj(), y1)).sum().real)
    y1 *= weights
    for j in np.flatnonzero(~same):
        y2 = _phased_apply(_projector(meas, s2, t2[j], dim), t2[j], cols)
        # The hard measurement edges give the intermediate-index expansion an
        # oscillating k^(-3/2) tail; the averaged summation removes the last
        # uncancelled oscillation (~1e-5 at dim 400 if summed plainly).
        terms = np.einsum("nm,nm->n", y2.conj(), y1).real
        q[j] = averaged_partial_sum(terms)
    return q, [info] * t2.size


def qpd_oracle(state: StateSpec, meas: MeasurementSpec, s1: int, s2: int,
               t1: float, t2: float, dim: int = DEFAULT_DIM, with_info: bool = False):
    """Quasi-probability Re Tr[P_{s2}(t2) P_{s1}(t1) rho] in the truncated basis.

    Ground truth for the cross-method tests; converges in ``dim`` for the
    standard parameter ranges (|xi| <= 2, r <= 1, n_th <= 2 by dim ~ 300-400).
    Equal times are evaluated through the exact product projector: two
    outcomes at one time measure the same region or disjoint ones, so
    P_{s2} P_{s1} is P_{s1} or 0.  At separations where the two
    measured quadratures commute (total phase a multiple of pi) the
    intermediate-index tail stops oscillating and convergence degrades to
    ~dim^(-1/2) -- the closed-form routes own those points.

    The one-element call of the kernel :func:`_oracle`.  With ``with_info=True``
    returns ``(q, OracleInfo)``.
    """
    q, info = _oracle(state, meas, s1, s2, t1, np.array([t2], dtype=float), dim)
    return (float(q[0]), info[0]) if with_info else float(q[0])
