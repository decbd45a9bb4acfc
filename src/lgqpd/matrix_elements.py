"""Eigenbasis matrix elements J_mn of position-interval indicator operators.

``J_mn(x1, x2)`` is the integral of ``psi_m psi_n`` over ``[x1, x2]``.  Every
form here is closed and needs no derivative rows and no quadrature.

Off the diagonal, the Wronskian through the eigenvalue difference (n - m):
with psi_n' = sqrt(2n) psi_{n-1} - x psi_n the x psi_m psi_n terms cancel,
leaving

    (psi_n' psi_m - psi_m' psi_n)(x) = sqrt(2n) psi_{n-1} psi_m - sqrt(2m) psi_{m-1} psi_n,

and for m = 0 simply sqrt(2n) psi_0 psi_{n-1}.

On the diagonal, the ladder: with psi_{n-1}' = x psi_{n-1} - sqrt(2n) psi_n,
d/dx (psi_{n-1} psi_n) = sqrt(2n) (psi_{n-1}**2 - psi_n**2), so

    J_nn(x, inf) = (1 - erf x)/2 + sum_{k=1..n} psi_{k-1}(x) psi_k(x) / sqrt(2k),

a cumulative sum over the same psi rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import ResourceLimitError
from .special import N_MAX, psi_rows


def j_diag_row(x, n_max: int) -> np.ndarray:
    """J_nn(x, inf) for all n = 0..n_max by the ladder sum.

    ``x`` may be an array, in which case the result has shape
    (n_max + 1,) + x.shape; a scalar ``x`` may be infinite.
    """
    if np.ndim(x) == 0 and math.isinf(x):
        return np.ones(n_max + 1) if x < 0 else np.zeros(n_max + 1)
    return ladder_diagonal(x, psi_rows(x, n_max))


def ladder_diagonal(x, psi: np.ndarray) -> np.ndarray:
    """J_nn(x, inf) for n = 0..len(psi)-1 from the psi rows already
    evaluated at ``x`` (shape (n + 1,) + x.shape)."""
    x = np.asarray(x, dtype=float)
    steps = np.empty_like(psi)
    steps[0] = 0.5 * (1.0 - _sp.erf(x))
    k = np.arange(1, psi.shape[0]).reshape((-1,) + (1,) * x.ndim)
    steps[1:] = psi[:-1] * psi[1:] / np.sqrt(2.0 * k)
    return np.cumsum(steps, axis=0)


def j_diag(n: int, x: float) -> float:
    """Diagonal half-line element J_nn(x, inf), in [0, 1] and decreasing in x."""
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    return float(j_diag_row(float(x), n)[n])


def j_offdiag(m: int, n: int, x1: float, x2: float = math.inf) -> float:
    """Off-diagonal element J_mn(x1, x2) in Wronskian closed form.

    Either endpoint may be infinite; the eigenfunctions vanish there and the
    corresponding boundary term drops out.
    """
    if m == n:
        raise ValueError("j_offdiag requires m != n; use j_diag for the diagonal")
    for k in (m, n):
        if k < 0 or int(k) != k:
            raise ValueError(f"indices must be non-negative integers, got {k!r}")
    if not x1 < x2:
        raise ValueError(f"need x1 < x2, got x1={x1}, x2={x2}")
    return float(_boundary_term(m, n, x2) - _boundary_term(m, n, x1))


def _boundary_term(m: int, n: int, x: float) -> float:
    # [psi'_m(x) psi_n(x) - psi'_n(x) psi_m(x)] / (2 (n - m))
    if math.isinf(x):
        return 0.0
    psi = psi_rows(float(x), max(m, n))
    lower = lowered(psi)
    return float((lower[m] * psi[n] - lower[n] * psi[m]) / (2.0 * (n - m)))


def lowered(psi: np.ndarray) -> np.ndarray:
    """sqrt(2k) psi_{k-1} for k = 0..len(psi)-1 (zero at k = 0), so that
    psi_k' = lowered[k] - x psi_k; ``psi`` may carry trailing cut axes."""
    lower = np.zeros_like(psi)
    k = np.arange(1, psi.shape[0]).reshape((-1,) + (1,) * (psi.ndim - 1))
    lower[1:] = np.sqrt(2.0 * k) * psi[:-1]
    return lower


def j_row(cut: float, n_max: int) -> np.ndarray:
    """Half-line row J_0n(cut, inf) for n = 0..n_max.

    The n = 0 entry is the exact (1 - erf(cut))/2; the rest are the Wronskian
    form psi_0 psi_{n-1} / sqrt(2n), vectorized over n.  ``cut`` may be an
    array, in which case the result has shape (n_max + 1,) + cut.shape.
    """
    cut_arr = np.asarray(cut, dtype=float)
    psi = psi_rows(cut_arr, n_max)
    out = np.empty_like(psi)
    out[0] = 0.5 * (1.0 - _sp.erf(cut_arr))
    if n_max >= 1:
        n = np.arange(1, n_max + 1).reshape((-1,) + (1,) * cut_arr.ndim)
        out[1:] = psi[0] * psi[:-1] / np.sqrt(2.0 * n)
    return out


def j_block(cut: float, m_max: int, n_max: int) -> np.ndarray:
    """Half-line block J_mn(cut, inf) for 0 <= m <= m_max, 0 <= n <= n_max."""
    psi = psi_rows(float(cut), max(m_max, n_max))
    lower = lowered(psi)
    m = np.arange(m_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        block = (lower[None, :n_max + 1] * psi[:m_max + 1, None]
                 - lower[:m_max + 1, None] * psi[None, :n_max + 1]) / (2.0 * (n - m))
    k = min(m_max, n_max)
    idx = np.arange(k + 1)
    block[idx, idx] = ladder_diagonal(float(cut), psi[:k + 1])
    return block


@dataclass(frozen=True)
class JTable:
    """Cached symmetric table of half-line elements J_mn(lower_cut, inf)."""

    lower_cut: float
    max_index: int
    entries: np.ndarray

    def __getitem__(self, mn: tuple[int, int]) -> float:
        m, n = mn
        return float(self.entries[m, n])


def build_jtable(lower_cut: float, max_index: int) -> JTable:
    """Build (or fetch from cache) the complete J table at one lower cut.

    ``lower_cut`` may be -inf, which yields the identity table by
    orthonormality.  Raises ResourceLimitError above the configured order cap.
    """
    if max_index < 0 or int(max_index) != max_index:
        raise ValueError(f"max_index must be a non-negative integer, got {max_index!r}")
    if max_index > N_MAX:
        raise ResourceLimitError(f"max_index={max_index} exceeds cap {N_MAX}")
    return _build_jtable_cached(float(lower_cut), int(max_index))


@functools.lru_cache(maxsize=64)
def _build_jtable_cached(lower_cut: float, max_index: int) -> JTable:
    if math.isinf(lower_cut):
        entries = (np.eye(max_index + 1) if lower_cut < 0
                   else np.zeros((max_index + 1, max_index + 1)))
    else:
        entries = j_block(lower_cut, max_index, max_index)
        entries = 0.5 * (entries + entries.T)  # symmetrize away roundoff
    entries.flags.writeable = False
    return JTable(lower_cut=lower_cut, max_index=max_index, entries=entries)
