"""Oscillator eigenfunctions, erf, the oracle's stabilized series sum, and Gauss-Legendre rules.

Conventions (used throughout the package): hbar = m = 1 and positions are
dimensionless, so the oscillator eigenfunctions are

    psi_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2),

orthonormal on the real line.  The eigenfunctions are evaluated by upward
three-term recurrence on the normalized functions themselves (never on raw
Hermite polynomials), which is stable in the classically allowed region and
free of factorial overflow up to very high order.  Its coefficients, and the
sqrt(2n) ladder factors that every matrix-element form reads, are tables
built once per order and cached read-only.

:func:`erf` is the standard library's ``math.erf`` applied elementwise: the
series route and the matrix elements read it, so importing the package
loads no SciPy module.  The integral route keeps ``scipy.special`` (erf and
erfcx), imported on its first use, so the two routes share no erf.
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
_SQRT2 = math.sqrt(2.0)


def _check_n_cap(n_max: int) -> None:
    if n_max > HARD_N_CAP:
        raise CapabilityError(f"n_max={n_max} exceeds hard cap {HARD_N_CAP}")


def erf(x) -> np.ndarray:
    """The error function of ``x`` elementwise, as an array of the shape of
    ``x`` (0-d for a scalar), each value ``math.erf`` of the element: a
    scalar call equals the matching element of any array call bit for bit.
    It differs from SciPy's erf by a few ulp at most."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


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

    A scalar ``x`` runs the recurrence on plain Python floats, which is
    several times cheaper than NumPy arithmetic on one point and performs the
    same IEEE operations, so it equals the array call's column bit for bit.
    It is memoized (the ``_MEMO_SIZE`` most recent cuts), and the cached
    array is returned read-only: a thermal cell's t1 pieces and the series
    streams that gather a repeated cut all read one entry.  An array ``x`` is
    one block of :func:`_psi_blocks`, which reads the same memo when ``x``
    takes at most ``_MEMO_SIZE`` distinct values.  Both paths read the recurrence
    coefficients from one cached table per ``n_max``.

    Where psi_0 is below the least normal double (|x| above about 37.6) the
    recurrence starts from a scaled psi_0 and carries the binary exponent, so
    that the orders that grow back into the double range keep their full
    precision (:func:`_psi_scaled`).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    _check_n_cap(n_max)
    if np.ndim(x) == 0:
        return _psi_rows_scalar(float(x), n_max)
    return next(_psi_blocks(np.asarray(x, dtype=float), n_max, n_max + 1))


@functools.lru_cache(maxsize=16)
def _recurrence_coefficients(n_max: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The upward recurrence's coefficients sqrt(2/(k+1)) and sqrt(k/(k+1))
    for k = 1..n_max-1, as tuples of Python floats (read-only)."""
    k = np.arange(1, n_max)
    return tuple(np.sqrt(2.0 / (k + 1)).tolist()), tuple(np.sqrt(k / (k + 1.0)).tolist())


@functools.lru_cache(maxsize=16)
def _sqrt_2n(n_max: int) -> np.ndarray:
    """sqrt(2n) for n = 0..n_max, read-only: the ladder factor of
    psi_n' = sqrt(2n) psi_{n-1} - x psi_n and of every J form."""
    table = np.sqrt(2.0 * np.arange(n_max + 1))
    table.flags.writeable = False
    return table


#: Entries of the memo of scalar rows (:func:`_psi_rows_scalar`), and the
#: most distinct points an array call (:func:`_psi_blocks`) gathers from it.
_MEMO_SIZE = 8
#: The least normal double: a psi_0 below it starts the scaled recurrence.
_TINY = float(np.finfo(float).tiny)
#: |x| from which every psi_n, n <= HARD_N_CAP, is below the least subnormal
#: (the turning point sqrt(2n + 1) is at most 512), so the plain recurrence's
#: zeros are exact and the scaled one is not run.
_SCALED_LIMIT = 1024.0
#: ln 2 split (fdlibm's ln2_hi, ln2_lo): e * _LN2_HI is exact for |e| < 2^20.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
#: The scaled recurrence's bound on its running pair, and the bits by which
#: it rescales the pair (exactly) when the pair exceeds it.
_RESCALE_BITS = 600
_RESCALE_AT = 2.0 ** _RESCALE_BITS


def _psi_rows_scalar(x: float, n_max: int) -> np.ndarray:
    # the sign of x is part of the key: 0.0 and -0.0 are one dict key, but
    # their odd orders differ in the sign of zero
    return _psi_memo(x, math.copysign(1.0, x), n_max)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _psi_memo(x: float, sign: float, n_max: int) -> np.ndarray:
    psi = np.array(_psi_recurrence(x, n_max))
    psi.flags.writeable = False
    return psi


def _psi_recurrence(x: float, n_max: int) -> list:
    """psi_0..psi_n_max at ``x`` as Python floats, by the array recurrence's
    operations in its order, or by :func:`_psi_scaled` where psi_0 is not a
    normal double."""
    # psi_0 through NumPy's exp, which math.exp may differ from in the last ulp
    lower = float(_QUARTER_PI * np.exp(-0.5 * x * x))
    if not lower >= _TINY and abs(x) < _SCALED_LIMIT:
        return _psi_scaled(x, n_max)
    values = [lower]
    if n_max >= 1:
        upper = _SQRT2 * x * lower
        values.append(upper)
        for a, b in zip(*_recurrence_coefficients(n_max)):
            lower, upper = upper, a * x * upper - b * lower
            values.append(upper)
    return values


def _psi_scaled(x: float, n_max: int) -> list:
    """The recurrence of :func:`_psi_recurrence` on psi_n 2^-e, for an ``x``
    whose psi_0 is not a normal double.  psi_0 2^-e = pi^(-1/4) exp(-x^2/2 -
    e ln 2) is of order one, its exponent formed without cancellation; e is
    carried as an int and raised by ``_RESCALE_BITS`` whenever the running
    pair exceeds ``_RESCALE_AT``, and each order is returned as ldexp(psi_n
    2^-e, e), exact where it is a normal double."""
    half = -0.5 * x * x
    e = math.floor(half / math.log(2.0))
    lower = _QUARTER_PI * math.exp((half - e * _LN2_HI) - e * _LN2_LO)
    values = [math.ldexp(lower, e)]
    if n_max >= 1:
        upper = _SQRT2 * x * lower
        values.append(math.ldexp(upper, e))
        for a, b in zip(*_recurrence_coefficients(n_max)):
            lower, upper = upper, a * x * upper - b * lower
            if abs(upper) > _RESCALE_AT:
                lower = math.ldexp(lower, -_RESCALE_BITS)
                upper = math.ldexp(upper, -_RESCALE_BITS)
                e += _RESCALE_BITS
            values.append(math.ldexp(upper, e))
    return values


def _psi_blocks(x: np.ndarray, n_max: int, rows: int):
    """psi_0..psi_n_max at the points ``x``, streamed: consecutive blocks of
    ``rows`` orders (the last may be shorter), each written into one reused
    buffer of shape (rows,) + x.shape.  :func:`psi_rows` takes it in a
    single block.

    When ``x`` takes at most ``_MEMO_SIZE`` distinct values (bit patterns),
    each block is gathered from their memoized scalar rows
    (:func:`_psi_rows_scalar`), which a cut repeated along t2 (the window
    family at r = 0, where lambda(t) = 1) and a t1 cut riding along with it
    share; at most ``_MEMO_SIZE`` points, such as a point's t2 and t1 cuts,
    are their own keys, so they are not sorted.  Otherwise the array
    recurrence runs, the package's one, and the columns whose psi_0 is not a
    normal double are overwritten by their scalar rows (:func:`_psi_scaled`).
    Both paths equal the scalar call bit for bit.

    A consumer may overwrite a block before it asks for the next one: the
    recurrence continues from copies of the block's last two rows, so
    ``rows`` must be at least 2 when there is more than one block.
    """
    buf = np.empty((min(rows, n_max + 1),) + x.shape)
    flat = np.ascontiguousarray(x).view(np.uint64).reshape(-1)
    keys = flat
    if flat.size > _MEMO_SIZE:
        bits = np.sort(flat)
        keys = bits[np.concatenate(([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1))]
    if flat.size and len(keys) <= _MEMO_SIZE:
        table = np.stack([_psi_rows_scalar(v, n_max) for v in keys.view(float).tolist()],
                         axis=1)
        where = (np.arange(flat.size) if keys is flat
                 else np.searchsorted(keys, flat)).reshape(x.shape)
        for k0 in range(0, n_max + 1, rows):
            block = buf[:n_max + 1 - k0]
            yield np.take(table[k0:k0 + len(block)], where, axis=1, out=block, mode="clip")
        return
    a, b = _recurrence_coefficients(n_max)
    mul, sub = np.multiply, np.subtract
    scaled = np.empty(x.shape)
    lower = upper = patch = None
    for k0 in range(0, n_max + 1, rows):
        block = buf[:n_max + 1 - k0]
        for k, row in enumerate(block, start=k0):
            if k >= 2:
                # psi_k = a x psi_{k-1} - b psi_{k-2}, written in place
                mul(x, a[k - 2], scaled)
                mul(scaled, upper, scaled)
                mul(lower, b[k - 2], row)
                sub(scaled, row, row)
            elif k == 1:
                row[...] = _SQRT2 * x * upper
            else:
                row[...] = _QUARTER_PI * np.exp(-0.5 * x * x)
                far = np.flatnonzero(~(row >= _TINY) & (np.abs(x) < _SCALED_LIMIT))
                if far.size:
                    patch = far, np.array([_psi_scaled(v, n_max)
                                           for v in flat[far].view(float).tolist()]).T
            lower, upper = upper, row
        if patch is not None:
            block.reshape(len(block), -1)[:, patch[0]] = patch[1][k0:k0 + len(block)]
        if k0 + rows <= n_max:
            lower, upper = lower.copy(), upper.copy()
        yield block


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

    This is the number-basis oracle's sum only.  The eigenbasis series forms
    the same average as its own tail-weighted sum of the terms
    (``series._euler_tails``), so the routes share no summation code; the
    two agree to rounding.
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
