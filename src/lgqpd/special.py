"""Harmonic-oscillator eigenfunctions, the stabilized series sum, and Gauss-Legendre rules.

Conventions (used throughout the package): hbar = m = 1 and positions are
dimensionless, so the oscillator eigenfunctions are

    psi_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2),

orthonormal on the real line.  The eigenfunctions are evaluated by upward
three-term recurrence on the normalized functions themselves (never on raw
Hermite polynomials), which is stable in the classically allowed region and
free of factorial overflow up to very high order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError

#: Hard ceiling on eigenfunction order, to bound memory in the vector helpers.
HARD_N_CAP = 1 << 17

_QUARTER_PI = np.pi ** -0.25


def _check_n_cap(n_max: int) -> None:
    if n_max > HARD_N_CAP:
        raise CapabilityError(f"n_max={n_max} exceeds hard cap {HARD_N_CAP}")


def psi_rows(x, n_max: int):
    """Eigenfunctions psi_0..psi_n_max on a grid.

    Parameters
    ----------
    x : float or ndarray
        Evaluation points (dimensionless).
    n_max : int
        Highest order to compute; capped only by the hard ceiling.

    Returns
    -------
    psi : ndarray
        Array of shape ``(n_max + 1,) + x.shape`` with psi_n(x) in row n.
        No derivative rows are built: every consumer needs only
        psi_n'(x) = sqrt(2n) psi_{n-1}(x) - x psi_n(x), whose x psi terms
        cancel in the Wronskian forms.

    A scalar ``x`` is memoized (the few most recent cuts), because a t2
    minimization re-evaluates its fixed t1 cut on every probe; the cached
    array is returned read-only.  Array inputs are always computed afresh.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    _check_n_cap(n_max)
    if np.ndim(x) == 0:
        return _psi_rows_scalar(float(x), n_max)
    return _psi_rows(np.asarray(x, dtype=float), n_max)


@functools.lru_cache(maxsize=8)
def _psi_rows_scalar(x: float, n_max: int) -> np.ndarray:
    # a NumPy scalar runs the recurrence's scalar arithmetic faster than a
    # 0-d array, with the same IEEE operations
    psi = _psi_rows(np.float64(x), n_max)
    psi.flags.writeable = False
    return psi


def _psi_rows(x: np.ndarray | np.float64, n_max: int) -> np.ndarray:
    psi = np.zeros((n_max + 1,) + x.shape)
    psi[0] = _QUARTER_PI * np.exp(-0.5 * x * x)
    if n_max >= 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    n = np.arange(1, n_max)
    up = np.sqrt(2.0 / (n + 1)).tolist()
    down = np.sqrt(n / (n + 1.0)).tolist()
    for k, a, b in zip(range(1, n_max), up, down):
        psi[k + 1] = a * x * psi[k] - b * psi[k - 1]
    return psi


def averaged_partial_sum(terms: np.ndarray):
    """Sum of a truncated series, stabilized by iterated pairwise averaging of
    the trailing partial sums (along axis 0 for multi-dimensional terms).

    Oscillating tails with slowly decaying envelopes leave a plain truncated
    sum carrying its last uncancelled oscillation; repeatedly averaging the
    final ``window`` partial sums damps every nonzero oscillation frequency
    (each pass multiplies a frequency-w component by cos(w/2)) and recovers
    the limit to roughly the envelope's value at the truncation point times
    the achieved damping.  The window is three quarters of the partial sums,
    clipped to [2, 256] and to their number.  Non-oscillating (already
    converged or degenerate) tails pass through unchanged up to the envelope
    scale.

    The ``window - 1`` averaging passes are applied in one step: they leave
    the Euler weights C(window-1, k) / 2^(window-1) on the k-th of the final
    ``window`` partial sums, so the result is one weighted sum of them.
    """
    terms = np.asarray(terms)
    if terms.shape[0] == 0:
        return terms.sum(axis=0)
    cum = np.cumsum(terms, axis=0)
    window = min(256, max(2, 3 * terms.shape[0] // 4), cum.shape[0])
    return np.einsum("k,k...->...", _euler_weights(window), cum[-window:])


@functools.lru_cache(maxsize=64)
def _euler_weights(window: int) -> np.ndarray:
    """Binomial weights C(window-1, k) / 2^(window-1), k = 0..window-1."""
    scale = 2 ** (window - 1)
    weights = np.array([math.comb(window - 1, k) / scale for k in range(window)])
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for quadrature on a finite interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("interval endpoints must be finite")
        length = b - a
        if abs(float(weights.sum()) - length) > 1e-12 * max(1.0, abs(length)):
            raise ValueError("weights must sum to the interval length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@functools.lru_cache(maxsize=32)
def gauss_legendre(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule on [a, b], exact for polynomials of degree 2*order - 1.

    Memoized by ``(order, a, b)``, because the integral route asks for the same
    few rules at every point; the cached nodes and weights are read-only.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("endpoints must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * (b - a)
    rule = QuadratureRule(nodes=half * (x + 1.0) + a, weights=w * half, interval=(a, b))
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def composite_gauss_legendre(a: float, b: float, panel_width: float = 0.5,
                             order: int = 16) -> QuadratureRule:
    """Composite Gauss-Legendre rule with uniform panels of at most panel_width."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    n_panels = max(1, int(math.ceil((b - a) / panel_width)))
    edges = np.linspace(a, b, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(int(order))
    half = 0.5 * np.diff(edges)
    nodes = (half[:, None] * (x[None, :] + 1.0) + edges[:-1, None]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, interval=(a, b))
