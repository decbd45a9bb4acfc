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

import math

import numpy as np

from .special import _sqrt_2n, erf, psi_rows


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
    steps[0] = 0.5 * (1.0 - erf(x))
    steps[1:] = psi[:-1] * psi[1:] / _column(_sqrt_2n(psi.shape[0] - 1)[1:], x.ndim)
    return np.cumsum(steps, axis=0)


def lowered(psi: np.ndarray) -> np.ndarray:
    """sqrt(2k) psi_{k-1} for k = 0..len(psi)-1 (zero at k = 0), so that
    psi_k' = lowered[k] - x psi_k; ``psi`` may carry trailing cut axes."""
    lower = np.zeros_like(psi)
    lower[1:] = _column(_sqrt_2n(psi.shape[0] - 1)[1:], psi.ndim - 1) * psi[:-1]
    return lower


def _column(table: np.ndarray, n_cut_axes: int) -> np.ndarray:
    """A per-order table shaped to broadcast down the order axis of rows
    that carry ``n_cut_axes`` trailing cut axes."""
    return table.reshape((-1,) + (1,) * n_cut_axes)


def j_row(cut: float, n_max: int) -> np.ndarray:
    """Half-line row J_0n(cut, inf) for n = 0..n_max.

    The n = 0 entry is the exact (1 - erf(cut))/2; the rest are the Wronskian
    form psi_0 psi_{n-1} / sqrt(2n), vectorized over n, from the memoized
    scalar :func:`psi_rows`.  The series reads it only for a thermal cell's
    t1 pieces; its pure kernel forms the rows block by block, by the same
    operations (``series._phase_sums``).
    """
    psi = psi_rows(float(cut), n_max)
    row = np.empty_like(psi)
    row[0] = 0.5 * (1.0 - erf(cut))
    if n_max >= 1:
        row[1:] = psi[0] * psi[:-1] / _sqrt_2n(n_max)[1:]
    return row


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
