"""Eigenbasis series evaluation of the two-time quasi-probability.

Each projector sandwiched between energy eigenstates reduces to half-line (or
window) matrix elements J of the eigenfunctions, evaluated at cuts rescaled by
the width lambda(t); free evolution contributes the phase
``exp(-i n (t2 - t1 + beta(t2) - beta(t1)))``.  Each projector family
has one kernel over t2, a closed erf block plus a truncated phase sum over J
products.  Every series point, slope and t2 search probe is a call of a cell
(:class:`_SeriesCell`: one family, state and t1), which builds the t1 half of
its points once and holds it; the pure families' probes of several cells are
one call of the round kernel.  Every curve is the kernel's array call, which
takes a list of states at once, streaming their orders in cache-sized blocks
and reading the phase factors cos(n phi), and for the thermal family sin(n
phi), from cached tables per grid of phases.  Every truncated sum over n is
Euler-averaged, and since that average is linear in the terms it is one
weighted sum sum_n Omega_n t_n with exact tail weights Omega_n: a dot
product per row for points and rounds, and for curves a sum in order of n,
so that each column of a batch equals its own call bit for bit at any batch
shape.  The families are:

* coherent and squeezed pure states (sign projectors),
* thermal squeezed coherent states (extra geometrically weighted sums over
  the initial occupation, plus a diagonal overlap family), whose t1 cut is
  held as O(n_max) pieces (the last build cached) and whose mixed-phase
  family goes through x-independent 1/(2 (n - m)) tables cached per (m_cut,
  n_max): a point is one product of a table with the cut-weighted factors,
  and a curve forms each step's block columns from the pieces and the table
  and applies them in one stacked matrix product,
* squeezed vacuum with symmetric window projectors.

The two pure families share one summation core.  When the total phase per
quantum is a multiple of pi the two measured quadratures commute, the phase
sum loses its oscillatory cancellation, and the truncated series converges
like n^(-1/2); those separations are instead evaluated exactly through
projector completeness (the sum collapses to an overlap integral of interval
indicators, with a parity reflection when the phase is an odd multiple of
pi), written once for all three kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special as _sp

from .errors import TruncationError
from .matrix_elements import j_diag_row, j_row, ladder_diagonal, lowered
from .special import _check_n_cap, _psi_blocks, _sqrt_2n, psi_rows
from .states import (ZERO_OFFSET, OffsetFunction, StateSpec, lambda_dot, lambda_of,
                     phase_beta_dot, phase_beta_of, thermal_m_cut, x_xi_dot, x_xi_of)

#: |sin(total phase)| below which the exact completeness branch is used.
SINGULAR_PHASE_TOL = 1e-9

_INF = math.inf
#: 2/sqrt(pi), the factor of d erf(x)/dx = 2/sqrt(pi) exp(-x^2).
_ERF_SLOPE = 2.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class TruncationConfig:
    """Series truncation controls.

    ``n_max`` caps the eigenbasis sum, a whole number from 1 to the order
    cap.  The thermal occupation sum is cut where the thermal weight falls
    below 1e-12 (:func:`thermal_m_cut`); the remainder of that cut, reported
    as ``m_tail``, is at most 7.0e-9, at the largest n_th (about 7e3) whose
    cut fits under the order cap.
    """

    n_max: int = 200

    def __post_init__(self):
        if not float(self.n_max).is_integer():
            raise ValueError(f"n_max must be a whole number, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        _check_n_cap(self.n_max)


DEFAULT_TRUNCATION = TruncationConfig()


# ---------------------------------------------------------------------------
# input rules, judged by the kernels and, before evaluating, by lgqpd.scan
# ---------------------------------------------------------------------------

def _check_signs(*signs) -> None:
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"outcome signs must be +1 or -1, got {s!r}")


def _check_finite(**times) -> None:
    """Refuse a non-finite time, or an array of times holding one (None is no
    time)."""
    for name, t in times.items():
        if not (t is None or (math.isfinite(t) if isinstance(t, float) else np.isfinite(t).all())):
            t = np.ravel(t)
            raise ValueError(f"{name} must be finite, got {float(t[~np.isfinite(t)][0])!r}")


def _check_half_width(half_width) -> None:
    if half_width is None or not (math.isfinite(half_width) and half_width > 0):
        raise ValueError("the window projector requires a half-width L > 0, "
                         f"got {half_width!r}")


def _check_squeezed_vacuum(state: StateSpec) -> None:
    if state.xi != 0 or state.n_th != 0:
        raise ValueError("the window projector requires squeezed vacuum "
                         "(x0 = p0 = n_th = 0)")


@dataclass(frozen=True)
class MeasurementSpec:
    """Projector family: sign of (x - xbar(t)), or a symmetric window of
    half-width L (outcome +1 for |x| > L)."""

    projector: str = "sign"
    offset: OffsetFunction = None  # type: ignore[assignment]
    window_halfwidth: float | None = None

    def __post_init__(self):
        if self.projector not in ("sign", "window"):
            raise ValueError(f"projector must be 'sign' or 'window', got {self.projector!r}")
        if self.offset is None:
            object.__setattr__(self, "offset", ZERO_OFFSET)
        if self.projector == "window":
            _check_half_width(self.window_halfwidth)
            if not self.offset.is_zero:
                raise ValueError("the window projector does not take an offset")
        elif self.window_halfwidth is not None:
            raise ValueError("the sign projector does not take a half-width L")

    @classmethod
    def sign(cls, offset=None) -> "MeasurementSpec":
        return cls(projector="sign", offset=offset)

    @classmethod
    def window(cls, half_width: float) -> "MeasurementSpec":
        return cls(projector="window", window_halfwidth=half_width)


@dataclass(frozen=True)
class SeriesInfo:
    """Diagnostics of one series evaluation."""

    n_used: int
    tail_bound: float
    singular_branch: bool
    m_used: int = 0
    m_tail: float = 0.0


def series_tail_estimate(terms) -> float:
    """Conservative bound on the omitted tail of a term sequence.

    Fits a geometric envelope to the trailing |terms| (running maxima guard
    against phase zeros) and sums the extrapolated geometric tail.  Exact for
    geometric decay; deliberately pessimistic for slower decay, where the
    clipped ratio makes the bound large rather than falsely small.
    """
    t = np.abs(np.asarray(terms, dtype=float))
    if t.size < 8:
        raise ValueError("series_tail_estimate needs at least 8 computed terms")
    if not np.any(t > 0):
        return 0.0
    k = min(16, t.size)
    window = t[-k:]
    env = np.maximum.accumulate(window[::-1])[::-1]
    pos = env > 0
    n_idx = np.arange(t.size - k, t.size, dtype=float)[pos]
    y = np.log(env[pos])
    if n_idx.size < 2 or np.ptp(y) == 0.0:
        rho = 0.995
        level = float(env[pos][-1])
    else:
        slope, intercept = np.polyfit(n_idx, y, 1)
        rho = float(np.clip(math.exp(slope), 1e-6, 0.995))
        level = float(math.exp(intercept + slope * t.size))
    return level / (1.0 - rho)


# ---------------------------------------------------------------------------
# interval algebra for the exact completeness branch
# ---------------------------------------------------------------------------

def _halfline(s: int, cut: float):
    return [(cut, _INF)] if s == 1 else [(-_INF, cut)]


def _window_region(s: int, half_width: float):
    if s == 1:
        return [(-_INF, -half_width), (half_width, _INF)]
    return [(-half_width, half_width)]


def _reflect(intervals):
    return sorted((-hi, -lo) for lo, hi in intervals)


def _intersect(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return sorted(out)


def _ground_weight(intervals) -> float:
    """Integral of psi_0^2 over a union of disjoint intervals."""
    total = 0.0
    for lo, hi in intervals:
        e_lo = -1.0 if lo == -_INF else _sp.erf(lo)
        e_hi = 1.0 if hi == _INF else _sp.erf(hi)
        total += 0.5 * (e_hi - e_lo)
    return total


def _psi_sq_weights(intervals, m_max: int) -> np.ndarray:
    """Integrals of psi_m^2 over a union of intervals, for m = 0..m_max, as
    ladder differences J_mm(lo, inf) - J_mm(hi, inf)."""
    out = np.zeros(m_max + 1)
    for lo, hi in intervals:
        out += j_diag_row(lo, m_max) - j_diag_row(hi, m_max)
    return out


def _fill_singular(q, singular, phi, region, s1: int, s2: int, cut1, cut2, weight):
    """``q`` (a point or a (C, K) batch) with each ``singular`` point (phase
    ``phi`` within tolerance of a multiple of pi) set to ``weight`` of the
    overlap of ``region(s2, cut2)`` with ``region(s1, cut1)``, the latter
    reflected at odd multiples of pi; ``phi`` and the cuts broadcast to the
    shape of q."""
    q = np.array(q, dtype=float)
    flat_q = q.reshape(-1)
    flat_phi, flat_cut1, flat_cut2 = (np.broadcast_to(v, q.shape).reshape(-1)
                                      for v in (phi, cut1, cut2))
    for j in np.flatnonzero(np.broadcast_to(singular, q.shape)):
        first = region(s1, float(flat_cut1[j]))
        if math.cos(flat_phi[j]) < 0:
            first = _reflect(first)
        flat_q[j] = weight(_intersect(region(s2, float(flat_cut2[j])), first))
    return q[()]


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _t1_geometry(state: StateSpec, t1: float):
    """lambda(t1), beta(t1) and x_xi(t1)/lambda(t1): the half of
    :func:`_geometry` that every t2 probe of a minimization shares."""
    lam1 = lambda_of(t1, state.r, state.theta0)
    return lam1, phase_beta_of(t1, state.r, state.theta0), x_xi_of(t1, state.xi) / lam1


def _geometry(state: StateSpec, t1: float, t2, t1_geometry=None):
    lam1, b1, a1 = t1_geometry or _t1_geometry(state, t1)
    lam2 = lambda_of(t2, state.r, state.theta0)
    b2 = phase_beta_of(t2, state.r, state.theta0)
    a2 = x_xi_of(t2, state.xi) / lam2
    phi = (t2 - t1) + (b2 - b1)
    return lam1, lam2, a1, a2, phi


def _window_row(h: float, n_max: int) -> np.ndarray:
    """Window row J_0n(h, inf) - J_0n(-h, inf) for n = 0..n_max from the one
    row at +h: psi_0 is even and psi_{n-1} has parity (-1)^(n-1), so the
    entry is -erf(h) at n = 0, 2 J_0n(h, inf) at even n and 0 at odd n."""
    row = 2.0 * j_row(h, n_max)
    row[0] = -_sp.erf(h)
    row[1::2] = 0.0
    return row


#: Doubles in one block of the streamed sums: a batch of C columns over K
#: values of t2 runs its orders in blocks of _BLOCK_DOUBLES // (C K) (at least
#: 2), so that a block's working set stays in cache.
_BLOCK_DOUBLES = 16384


def _phase_table(wave, phi, n_max: int):
    """``wave``(n phi), np.cos or np.sin, for n = 0..n_max, of shape (n_max +
    1,) + phi.shape and read-only: the phase factors of every array call.
    The pure curves read only the cosines, the thermal stream both.  Cached
    by the wave, phi's bytes and n_max, because every row of a plane, and
    every curve of a search at fixed squeezing, has the same phases."""
    phi = np.ascontiguousarray(phi, dtype=float)
    return _cached_phase_table(wave, phi.tobytes(), phi.shape, n_max)


@functools.lru_cache(maxsize=8)
def _cached_phase_table(wave, key: bytes, shape: tuple, n_max: int):
    table = wave(np.arange(n_max + 1).reshape((-1,) + (1,) * len(shape))
                 * np.frombuffer(key).reshape(shape))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _euler_tails(n_max: int) -> np.ndarray:
    """Omega_n for n = 0..n_max (Omega_0 is not read), read-only: the
    weight of the n-th term in the Euler-averaged sum of an n_max-term
    series.

    That sum puts the binomial weights C(W-1, k) / 2^(W-1) on the final W =
    min(256, max(2, 3 n_max // 4), n_max) partial sums, from order f = n_max
    + 1 - W on.  It is linear in the terms, so it equals sum_n Omega_n t_n,
    Omega_n being the tail of the weights from k = max(n - f, 0): an exact
    integer sum of binomials over 2^(W-1), rounded once, and exactly 1.0 for
    n <= f."""
    w = min(256, max(2, 3 * n_max // 4), n_max)
    # tails[j] = sum_{k >= j} C(w-1, k), the weight of order f + j
    tails = list(itertools.accumulate(math.comb(w - 1, k) for k in reversed(range(w))))[::-1]
    omega = np.ones(n_max + 1)
    omega[n_max + 2 - w:] = [t / 2 ** (w - 1) for t in tails[1:]]
    omega.flags.writeable = False
    return omega


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... along axis 0, added in this order whatever
    the trailing shape, so that each column's sum is the same in any batch:
    numpy reduces an outer axis row by row, but sums a lone contiguous run,
    one value per row, pairwise, so that run goes through cumsum."""
    if terms[0].size == 1:
        return np.cumsum(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _carry_sum(slots: np.ndarray, m: int, total: np.ndarray) -> np.ndarray:
    """``total`` + slots[1] + ... + slots[m], in order (:func:`_ordered_sum`),
    slot 0 carrying the total in: a running sum that streams its terms in
    blocks adds them as one sequence, however the blocks are cut."""
    slots[0] = total
    return _ordered_sum(slots[:m + 1])


def _block_rows(c: int, k: int) -> int:
    return max(2, _BLOCK_DOUBLES // (c * k))


def _phase_sums(window: bool, cut1, cut2, phi, n_max: int):
    """The Euler-averaged sums over n = 1..n_max of cos(n phi) row1_n row2_n
    for a batch of C columns sharing K values of t2, and the t1 rows row1
    (C, n_max), read-only: ``cut1`` (C, 1) and ``cut2`` (C, K) are the cuts of
    the rows (:func:`j_row`, or :func:`_window_row` for a ``window``), ``phi``
    is (K,) or (C, K).

    With row2_n = psi_0(cut2) psi_{n-1}(cut2) / sqrt(2n) (twice that at even
    n and 0 at odd n for a window), the sum sum_n Omega_n cos(n phi) row1_n
    row2_n (:func:`_euler_tails`) is psi_0(cut2) sum_n psi_{n-1}(cut2)
    (cos(n phi) v_n), with v_n = Omega_n row1_n / sqrt(2n), doubled for a
    window, whose odd orders are neither multiplied nor summed.

    The orders stream through reused buffers in blocks, and no (n_max, C, K)
    array is built.  On each block: the shared eigenfunctions
    (:func:`special._psi_blocks`) at both cuts at once, cut1 riding along as
    column K, up to order n_max like a cut's scalar row (:func:`psi_rows`),
    so that a batch whose cuts repeat reads the memo entries that its cells'
    rows and probes read; the t1 rows by :func:`j_row`'s (and
    :func:`_window_row`'s) operations, so each equals its cell's own, and
    their v; the block's terms, the cosines read from :func:`_phase_table`;
    and their sum in order of n, the running total carried in
    (:func:`_carry_sum`).  psi_0(cut2) multiplies the total once, after the
    last block.  Every operation is elementwise or that ordered sum, so each
    column equals its own curve bit for bit, at any C and K and any cut of
    the blocks.
    """
    c, k = cut2.shape
    rows = _block_rows(c, k)
    cos_t = _phase_table(np.cos, phi, n_max).reshape(n_max + 1, -1, k)
    sqrt_2n, omega = _sqrt_2n(n_max), _euler_tails(n_max)
    row1 = np.empty((c, n_max))
    slots = np.empty((rows + 1, c, k))
    total = np.zeros((c, k))
    psi0 = None
    # the block from k0 holds psi_{n-1} for the orders n = k0 + 1, ...; the
    # last order's psi_n_max is not read
    blocks = _psi_blocks(np.concatenate([cut2, cut1], axis=1), n_max, rows)
    for k0, psi in zip(range(0, n_max, rows), blocks):
        psi = psi[:n_max - k0]
        m = len(psi)
        if psi0 is None:
            psi0 = psi[0].copy()
        # J_0n = psi_0 psi_{n-1} / sqrt(2n) at cut1, as j_row; twice that at
        # even n and 0 at odd n for the window, as _window_row
        r1 = psi[:, :, k] * psi0[:, k]
        r1 /= sqrt_2n[k0 + 1:k0 + m + 1, None]
        if window:
            r1 *= 2.0
            r1[k0 % 2::2] = 0.0
        row1[:, k0:k0 + m] = r1.T
        # the summed orders n, every one or a window's even ones, at block
        # rows i = n - k0 - 1
        lo = k0 + 1 + (window and k0 % 2 == 0)
        n, i = slice(lo, k0 + m + 1, 1 + window), slice(lo - k0 - 1, m, 1 + window)
        v = r1[i] * omega[n, None]
        v /= sqrt_2n[n, None]
        if window:
            v *= 2.0
        new = slots[1:len(v) + 1]
        np.multiply(cos_t[n], v[:, :, None], out=new)
        np.multiply(new, psi[i, :, :k], out=new)
        total = _carry_sum(slots, len(v), total)
    total *= psi0[:, :k]
    row1.flags.writeable = False
    return total, row1


class _KernelValue(NamedTuple):
    """The result of every series kernel: ``q``, a float at one t2 and one
    row per state over a t2 array; ``slope``, dq/dt2 of one point when asked,
    else None, and None at a singular phase, whose completeness value has no
    slope; ``terms``, the eigenbasis terms of one non-singular point, which
    feed the tail estimate, else None; ``singular``, the phases that
    completeness evaluated; the occupation cut ``m_used`` with its
    remainder ``m_tail``, 0 for a pure state; and ``row1``, the (C, n_max) t1
    rows of a pure curve whose phase sums ran (:func:`_phase_sums`), else
    None."""

    q: object
    slope: float | None
    terms: np.ndarray | None
    singular: object
    m_used: int = 0
    m_tail: float = 0.0
    row1: np.ndarray | None = None


def _q_pure(inputs, column: tuple, s1: int, s2: int, t1: float, t2,
            n_max: int) -> _KernelValue:
    """Summation core of the pure kernels over a t2 array: q = block + s1 s2
    sum_n cos(n phi) row1_n row2_n, the rows :func:`j_row` at the cuts, or
    :func:`_window_row` for the window family, and singular phases
    overwritten by completeness over the outcome regions; ``inputs`` is the
    family's (:func:`_sign_inputs` or :func:`_window_inputs`) and ``column``
    its per-state arguments.

    A batch of C columns sharing K values of t2 has ``cut1`` of shape (C,
    1), ``block`` and ``cut2`` (C, K), and ``phi`` (K,) or (C, K); its sums
    stream through :func:`_phase_sums`, whose t1 rows it returns as
    ``row1``.  A point is a cell's one-column call of :func:`_q_round`.
    """
    block, phi, cut1, cut2, _ = inputs(*column, s1, s2, t1, t2)
    window = inputs is _window_inputs
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    q, row1 = block, None
    if not np.all(singular):
        sums, row1 = _phase_sums(window, cut1, cut2, phi, n_max)
        q = block + s1 * s2 * sums
    if np.any(singular):
        q = _fill_singular(q, singular, phi, _window_region if window else _halfline,
                           s1, s2, cut1, cut2, _ground_weight)
    return _KernelValue(q, None, None, singular, row1=row1)


def _q_round(window: bool, probes: list, n_max: int) -> list:
    """The round kernel of the pure families: one point of each of C
    columns, each with its own state, t1 and t2, as :class:`_KernelValue`s.
    A column (:meth:`_SeriesCell.probe`) holds s1, s2, the kernel's block,
    phase and cuts at its t2, the rates (block', phi', cut2') when its slope
    is asked, else None, and its t1 row.

    Each column's eigenfunctions at cut2 come from the memoized scalar
    recurrence (:func:`psi_rows`).  The rows, cosines and terms, and the
    derivative terms of the columns that ask, are each one (C, n_max) array,
    each row summed as its dot product with the tail weights Omega_n
    (:func:`_euler_rows`).
    These are one point's operations, elementwise, in its order, so a column equals its
    one-column call bit for bit, whatever the other columns.  dq/dt2 is the
    Euler sum of the term derivatives, d row2_n/dcut2 being -psi_0 psi_n
    (doubled at even n and 0 at odd n for a window).  A column at a
    singular phase is its completeness value, without a slope.
    """
    s1, s2, block, phi, cut1, cut2, rates, row1 = zip(*probes)
    psi = np.array([psi_rows(cut, n_max) for cut in cut2])
    n = np.arange(1, n_max + 1)
    # J_0n = psi_0 psi_{n-1} / sqrt(2n), as j_row; twice that at even n and 0
    # at odd n for a window, as _window_row
    row2 = psi[:, :1] * psi[:, :-1] / _sqrt_2n(n_max)[1:]
    if window:
        row2 *= 2.0
        row2[:, 0::2] = 0.0
    row1 = np.array(row1)
    angle = n * np.array(phi)[:, None]
    cos = np.cos(angle)
    terms = cos * row1 * row2
    dq = dict.fromkeys(range(len(probes)))
    sloped = [j for j, r in enumerate(rates) if r is not None]
    if sloped:
        dblock, dphi, dcut = zip(*(rates[j] for j in sloped))
        at = slice(None) if len(sloped) == len(probes) else sloped
        scale = [(-2.0 if window else -1.0) * d * float(psi[j, 0]) for j, d in zip(sloped, dcut)]
        drow2 = np.array(scale)[:, None] * psi[at, 1:]
        if window:
            drow2[:, 0::2] = 0.0
        dterms = row1[at] * (cos[at] * drow2 - np.array(dphi)[:, None] * n
                             * np.sin(angle[at]) * row2[at])
        dq.update((j, db + s1[j] * s2[j] * d)
                  for j, db, d in zip(sloped, dblock, _euler_rows(dterms)))
    out = []
    for j, total in enumerate(_euler_rows(terms)):
        if abs(np.sin(phi[j])) < SINGULAR_PHASE_TOL:
            q = _fill_singular(block[j], True, phi[j], _window_region if window else _halfline,
                               s1[j], s2[j], cut1[j], cut2[j], _ground_weight)
            out.append(_KernelValue(q, None, None, True))
        else:
            out.append(_KernelValue(block[j] + s1[j] * s2[j] * total, dq[j], terms[j], False))
    return out


def _euler_rows(terms: np.ndarray) -> list:
    """The Euler-averaged sum of each row of a (C, n) block of terms, the
    sums of C points or of a point and its slope: each row's dot product
    with the tail weights Omega_n (:func:`_euler_tails`), one contiguous 1-D
    einsum per row, so each row equals its own sum bit for bit."""
    omega = _euler_tails(terms.shape[1])[1:]
    return [np.einsum("k,k->", omega, row) for row in terms]


def _sign_inputs(state, s1: int, s2: int, t1: float, t2, slope: bool = False,
                 t1_geometry=None) -> tuple:
    """(block, phi, cut1, cut2, rates) of the pure sign kernel, as
    :func:`_q_pure` and :func:`_q_round` read them, over a t2 array (no
    rates) or at a float t2 (a cell's probe); cut_i = -a_i, and block = (1 +
    s1 erf a1)(1 + s2 erf a2)/4."""
    _, lam2, a1, a2, phi = _columns(state, t1, t2, t1_geometry)
    block = 0.25 * (1.0 + s1 * _sp.erf(a1)) * (1.0 + s2 * _sp.erf(a2))
    rates = _erf_rates(state, s1, s2, t2, lam2, a1, a2) if slope else None
    return block, phi, -a1, -a2, rates


def _window_inputs(state, half_width, s1: int, s2: int, t1: float, t2, slope: bool = False,
                   t1_geometry=None) -> tuple:
    """The window kernel's inputs, as :func:`_sign_inputs`: the cuts +/-
    L/lambda(t_i) enter through the window rows, and h2' = -h2 lambda' /
    lambda."""
    lam1, lam2, _, _, phi = _columns(state, t1, t2, t1_geometry)
    h1, h2 = half_width / lam1, half_width / lam2
    qbar1, qbar2 = 1.0 - 2.0 * _sp.erf(h1), 1.0 - 2.0 * _sp.erf(h2)
    block = 0.25 * (1.0 + s1 * qbar1) * (1.0 + s2 * qbar2)
    rates = None
    if slope:
        dphi, dlam2 = _t2_rates(state, t2)
        dh2 = -h2 * dlam2 / lam2
        dblock = 0.25 * (1.0 + s1 * qbar1) * s2 * -2.0 * _ERF_SLOPE * math.exp(-h2 * h2) * dh2
        rates = dblock, dphi, dh2
    return block, phi, h1, h2, rates


def _columns(state, t1: float, t2, t1_geometry=None):
    """:func:`_geometry` of one state at a float t2 (from ``t1_geometry``,
    when a cell holds it), or of a list of C states (or one, C = 1) over a
    t2 array, evaluated once per distinct state and stacked by column: lam1
    and a1 of shape (C, 1), lam2 and a2 (C, K), and phi (K,) when the states
    share their squeezing, else (C, K)."""
    if np.ndim(t2) == 0:
        return _geometry(state, t1, t2, t1_geometry)
    states = _each(state)
    # once per distinct state: a window batch at fixed r has one
    geometry = {s: _geometry(s, t1, t2) for s in dict.fromkeys(states)}
    lam1, lam2, a1, a2, phi = (np.array(v) for v in zip(*(geometry[s] for s in states)))
    if len({(s.r, s.theta0) for s in states}) == 1:
        phi = phi[0]
    return lam1[:, None], lam2, a1[:, None], a2, phi


def _each(state) -> list:
    return [state] if isinstance(state, StateSpec) else state


def _t2_rates(state: StateSpec, t2: float):
    """phi'(t2) = 1 + beta'(t2) and lambda'(t2), the closed forms of
    :mod:`states`, for the slope of a point."""
    return (1.0 + phase_beta_dot(t2, state.r, state.theta0),
            lambda_dot(t2, state.r, state.theta0))


def _erf_rates(state: StateSpec, s1: int, s2: int, t2: float, lam2: float, a1: float,
               a2: float):
    """The rates (block', phi', cut2') of the sign and thermal kernels' point,
    whose block is (1 + s1 erf a1)(1 + s2 erf a2)/4 and whose cut2 is -a2,
    with a2' = (x_xi' - a2 lambda') / lambda."""
    dphi, dlam2 = _t2_rates(state, t2)
    da2 = (x_xi_dot(t2, state.xi) - a2 * dlam2) / lam2
    dblock = 0.25 * (1.0 + s1 * _sp.erf(a1)) * s2 * _ERF_SLOPE * math.exp(-a2 * a2) * da2
    return dblock, dphi, -da2


def _check_family(family: str, s1: int, s2: int, t1: float, states: list, n_max: int,
                  half_widths=(), t2=None) -> None:
    """The input rules of a family's kernel ("sign", "window" or "thermal")
    for a batch of ``states``, a window's ``half_widths`` and a curve's
    ``t2``."""
    _check_signs(s1, s2)
    _check_finite(t1=t1, t2=t2)
    if family == "sign" and any(s.n_th != 0 for s in states):
        raise ValueError("pure-state evaluator requires n_th = 0; use qpd_series_thermal")
    if family == "window":
        for s in states:
            _check_squeezed_vacuum(s)
        for h in half_widths:
            _check_half_width(h)
    if family == "thermal":
        m_cut = thermal_m_cut(states[0].n_th)
        if n_max < m_cut:  # the eigenbasis cap must reach the occupation cut
            raise TruncationError(
                f"n_max={n_max} is below the thermal occupation cut m={m_cut}; raise n_max")


def _point(out: _KernelValue, with_info: bool):
    """One-point result of a kernel: q, or (q, SeriesInfo), whose tail bound
    is inf (no estimate) below the 8 terms that :func:`series_tail_estimate`
    needs."""
    if not with_info:
        return float(out.q)
    n_used = 0 if out.singular else out.terms.shape[0]
    tail = (0.0 if out.singular else _INF if n_used < 8
            else series_tail_estimate(out.terms))
    return float(out.q), SeriesInfo(n_used, tail, bool(out.singular), out.m_used,
                                    out.m_tail)


def qpd_series_squeezed(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                        trunc: TruncationConfig | None = None, with_info: bool = False):
    """Series quasi-probability for a pure squeezed coherent state.

    With ``with_info`` the :class:`SeriesInfo` reports ``tail_bound``, the
    estimate of :func:`series_tail_estimate` over the summed terms.
    Near-degenerate time separations converge slowly and report a large
    bound.
    """
    return _SeriesCell("sign", (state,), (s1, s2, t1),
                       trunc or DEFAULT_TRUNCATION)(t2, with_info)


def qpd_series_window(state: StateSpec, half_width: float, s1: int, s2: int,
                      t1: float, t2: float, trunc: TruncationConfig | None = None,
                      with_info: bool = False):
    """Series quasi-probability for squeezed vacuum with window projectors.

    Outcome +1 projects onto |x| > L at measurement time; the width rescaling
    turns the cuts into +/- L/lambda(t_i).  Only even orders contribute by
    parity, so the result is periodic in t2 with period pi.
    """
    return _SeriesCell("window", (state, half_width), (s1, s2, t1),
                       trunc or DEFAULT_TRUNCATION)(t2, with_info)


def q_sign_series_curve(state, s1: int, s2: int, t1: float, t2_grid: np.ndarray,
                        n_max: int) -> np.ndarray:
    """Pure-state sign-projector quasi-probability over a grid of t2 values.

    ``state`` may also be a sequence of C states, which gives a (C, K) array
    from one streamed pass over the orders (:func:`_phase_sums`); each row
    equals that state's own curve bit for bit.  ``n_max`` follows the rule
    of :class:`TruncationConfig`.
    """
    one = isinstance(state, StateSpec)
    states = [state] if one else list(state)
    n_max = TruncationConfig(n_max).n_max
    _check_family("sign", s1, s2, t1, states, n_max, t2=t2_grid)
    q = _q_pure(_sign_inputs, (states,), s1, s2, t1, np.asarray(t2_grid, dtype=float), n_max).q
    return q[0] if one else q


def q_window_series_curve(state, half_width, s1: int, s2: int, t1: float,
                          t2_grid: np.ndarray, n_max: int) -> np.ndarray:
    """Window-projector quasi-probability over a grid of t2 values.

    ``state`` and ``half_width`` may also be sequences of C states and C
    half-widths, which give a (C, K) array as for
    :func:`q_sign_series_curve`.
    """
    one = isinstance(state, StateSpec)
    states = [state] if one else list(state)
    widths = half_width if one else np.asarray(half_width, dtype=float)[:, None]
    n_max = TruncationConfig(n_max).n_max
    _check_family("window", s1, s2, t1, states, n_max, np.ravel(widths), t2_grid)
    q = _q_pure(_window_inputs, (states, widths), s1, s2, t1,
                np.asarray(t2_grid, dtype=float), n_max).q
    return q[0] if one else q


def qpd_series_thermal(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                       trunc: TruncationConfig | None = None, with_info: bool = False):
    """Series quasi-probability for a thermal squeezed coherent state.

    Adds to the pure-state series a geometrically weighted sum over the
    initial occupation m: conjugate-phase and mixed-phase J products plus the
    diagonal overlap family coupling J_nn factors of both measurement cuts.
    The call of a thermal cell, or at n_th = 0 of the pure evaluator's sign
    cell; :class:`SeriesInfo` reports the occupation cut as ``m_used`` and
    its remainder as ``m_tail``.
    """
    return _SeriesCell("thermal" if state.n_th > 0 else "sign", (state,), (s1, s2, t1),
                       trunc or DEFAULT_TRUNCATION)(t2, with_info)


class _ThermalCut(NamedTuple):
    """The t1-only pieces of the thermal kernel at one cut, none longer than
    n_max + 1 and all read-only: ``psi`` = psi_n(cut) and ``low`` = L_n =
    sqrt(2n) psi_{n-1}(cut) for n <= n_max, ``u`` = w^m psi_m and ``v`` =
    w^m L_m for m <= m_cut, the row J_0n(cut, inf), the diagonal J_mm(cut,
    inf) for m <= m_cut, and the occupation weights ``wm`` = w^m for m =
    1..m_cut.

    By the Wronskian form J_mn = (L_n psi_m - L_m psi_n) / (2 (n - m)) the
    mixed family's blocks B_mn = w^m J_mn / (2 (n - m)) and G_mn = w^m J_mn
    are (u_m L_n - v_m psi_n) Q_mn and (u_m L_n - v_m psi_n) H_mn, with the
    x-independent tables of :func:`_gap_tables`; no block is held."""

    psi: np.ndarray
    low: np.ndarray
    u: np.ndarray
    v: np.ndarray
    row: np.ndarray
    diag: np.ndarray
    wm: np.ndarray


@functools.lru_cache(maxsize=1)
def _thermal_fixed_cut(cut: float, w: float, m_cut: int, n_max: int) -> _ThermalCut:
    """The :class:`_ThermalCut` pieces at ``cut``.  A cell holds its own;
    the cache of the last build lets the cells of a row at t1 = 0, which
    share their cut, share one build."""
    psi = psi_rows(cut, n_max)
    low = lowered(psi)
    weights = w ** np.arange(m_cut + 1)
    out = _ThermalCut(psi, low, weights * psi[:m_cut + 1], weights * low[:m_cut + 1],
                      j_row(cut, n_max), ladder_diagonal(cut, psi[:m_cut + 1]), weights[1:])
    for arr in out:
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=2)
def _gap_tables(m_cut: int, n_max: int) -> np.ndarray:
    """Q_mn = H_mn^2 and H_mn = 1 / (2 (n - m)) for m <= m_cut and n <=
    n_max, stacked as (2, m_cut + 1, n_max + 1), zero on the m = 0 row, the
    n = 0 column and n = m, read-only: the x-independent halves of the mixed
    family's blocks (:class:`_ThermalCut`), shared by every cut of one
    (m_cut, n_max)."""
    with np.errstate(divide="ignore"):
        h = 0.5 / (np.arange(n_max + 1) - np.arange(m_cut + 1)[:, None])
    h[0] = h[:, 0] = 0.0
    np.fill_diagonal(h, 0.0)
    out = np.array((h * h, h))
    out.flags.writeable = False
    return out


def _mixed_products(cut: _ThermalCut, factors: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """(B^T F)^T for the Q table and (G^T F)^T for the H table, F^T being
    the (4, m_cut + 1) ``factors`` and ``tables`` the first one or both of
    :func:`_gap_tables`, as a (tables, 4, n_max + 1) array: L ⊙ ((u ⊙ F^T)
    T) - psi ⊙ ((v ⊙ F^T) T) for each table T, one product of the table with
    the 8 weighted factor rows."""
    p = np.matmul((np.array((cut.u, cut.v))[:, None] * factors).reshape(8, -1), tables)
    return cut.low * p[:, :4] - cut.psi * p[:, 4:]


def _mixed_factors(cos, sin, psi, low) -> list:
    """cos(m phi) psi_m, cos(m phi) sqrt(2m) psi_{m-1} and their sine twins
    for m <= m_cut (``low`` is sqrt(2m) psi_{m-1}), which B^T turns into the
    mixed-phase family."""
    return [cos * psi, cos * low, sin * psi, sin * low]


def _thermal_terms(cos, sin, psi, low, row2, row1, c, out=None):
    """The eigenbasis terms of orders n >= 1: cos(n phi) J_0n(cut2) J_0n(cut1)
    plus the mixed family sum_m w^m cos((m-n) phi) J_mn(cut1) J_mn(cut2),
    with J_mn(cut2) in its rank-2 Wronskian form, from the products ``c`` of
    B^T with the four :func:`_mixed_factors`; written into ``out`` when
    given.  In place, in the order of cos row2 row1 + (cos (low c0 - psi c1)
    + sin (low c2 - psi c3))."""
    mixed = low * c[0]
    mixed -= psi * c[1]
    mixed *= cos
    sine = low * c[2]
    sine -= psi * c[3]
    sine *= sin
    mixed += sine
    out = np.multiply(cos, row2, out=out)
    out *= row1
    out += mixed
    return out


def _thermal_point(cut: _ThermalCut, cut2: float, phi: float, n_max: int, rates=None):
    """(phase_sum, s_up, diag2, terms, slopes) of one thermal point, on plain
    rows of length n_max + 1: the memoized scalar eigenfunctions at cut2, and
    the mixed family from B^T F, F the (m_cut + 1) x 4 factors, which
    :func:`_mixed_products` takes as one product of the cached Q table
    (:func:`_gap_tables`) with F weighted by the t1 cut's O(n_max) pieces.

    Given ``rates``, the t2 derivatives (phi', cut2'), ``slopes`` holds the
    t2 derivatives of the first three, else it is None.  They read the same
    rows: d J_mn(cut2)/dcut2 = -psi_m psi_n, and in the mixed family's phase
    derivative the factor (m - n) cancels B's 1 / (2 (n - m)), leaving G^T F,
    the same product with the H table, in the same call."""
    m1, wm = len(cut.u), cut.wm
    psi = psi_rows(cut2, n_max)
    low = lowered(psi)
    angle = np.arange(n_max + 1) * phi
    cos, sin = np.cos(angle), np.sin(angle)
    factors = np.array(_mixed_factors(cos[:m1], sin[:m1], psi[:m1], low[:m1]))
    # B^T F, and G^T F for a slope
    products = _mixed_products(cut, factors, _gap_tables(m1 - 1, n_max)[:1 if rates is None else 2])
    c, row1 = products[0], cut.row
    # J_0n(cut2) = psi_0 psi_{n-1} / sqrt(2n) for n >= 1, as in j_row
    row2 = psi[0] * psi[:-1] / _sqrt_2n(n_max)[1:]
    terms = _thermal_terms(cos[1:], sin[1:], psi[1:], low[1:], row2, row1[1:], c[:, 1:])
    s_up = (wm * cos[1:m1] * row2[:m1 - 1] * row1[1:m1]).sum(axis=0)
    diag2 = ladder_diagonal(cut2, psi[:m1])
    if rates is None:
        return _euler_rows(terms[None])[0], s_up, diag2, terms, None
    dphi, dcut = rates
    cn, sn, p, lo = cos[1:], sin[1:], psi[1:], low[1:]
    d = products[1][:, 1:]
    # the n >= 1 terms of the m = 0 family, cos(n phi) J_0n(cut1) J_0n(cut2)
    dpure = (cn * row1[1:] * (-dcut * psi[0] * p)
             - dphi * np.arange(1, n_max + 1) * sn * row2 * row1[1:])
    dterms = (dpure + 0.5 * dphi * (cn * (lo * d[2] - p * d[3]) - sn * (lo * d[0] - p * d[1]))
              - dcut * p * (cn * d[0] + sn * d[2]))
    total, dtotal = _euler_rows(np.array([terms, dterms]))
    return total, s_up, diag2, terms, (dtotal, (wm * dpure[:m1 - 1]).sum(), -dcut * psi[:m1] ** 2)


def _thermal_stream(cuts: list, cut2, phi, n_max: int):
    """(phase_sum, s_up, diag2) of the thermal kernel for C columns over K
    values of t2: ``cut2`` (C, K), ``phi`` (K,) or (C, K), and ``cuts``,
    each column's fixed t1 :class:`_ThermalCut`.

    The orders stream as in :func:`_phase_sums`.  Every order's mixed family
    needs the rows m <= m_cut, so these are kept aside first, the stream's
    blocks being gathered until they are in (m_cut may exceed a block); their
    factors are then stacked once, as (C, m_cut + 1, 4K).  The orders are
    summed in steps of a size set by K alone.  Each step forms each column's
    columns of B for the step, (u_m L_n - v_m psi_n) Q_mn, as a stacked
    product of its cut's pieces (u, v) and (L, -psi) scaled by the cached Q
    table (:func:`_gap_tables`), and takes its mixed family as one stacked
    product of their transpose with the factors: every column of any batch
    then runs the same products, whose rounding may depend on their shape.
    The step's terms are weighted by their tail weights Omega_n
    (:func:`_euler_tails`) and added in order of n to the running total
    (:func:`_carry_sum`), as in :func:`_phase_sums`, and the occupation sum
    s_up adds in order of m (:func:`_ordered_sum`), so each column equals its
    own curve bit for bit, at any K, one included.
    """
    c, k = cut2.shape
    m1 = len(cuts[0].u)
    row1 = np.stack([f.row for f in cuts], axis=1)[:, :, None]
    uv = np.array([(f.u, f.v) for f in cuts]).transpose(0, 2, 1)
    lp = np.array([(f.low, -f.psi) for f in cuts])
    wm, q = cuts[0].wm[:, None, None], _gap_tables(m1 - 1, n_max)[0]
    rows, step = _block_rows(c, k), _block_rows(4, k)  # a step's product has 4K columns
    cos_t, sin_t = (_phase_table(wave, phi, n_max).reshape(n_max + 1, -1, k)
                    for wave in (np.cos, np.sin))
    sqrt_2n, omega = _sqrt_2n(n_max), _euler_tails(n_max)[:, None, None]
    slots, total, done = np.empty((step + 1, c, k)), np.zeros((c, k)), 0
    # ext[i] holds psi_{done + i}, the orders n = done + 1, ... waiting for
    # their terms, ext[0] being the last order done
    ext = np.empty((rows + max(m1, step), c, k))
    filled, factors = 0, None
    for psi in _psi_blocks(cut2, n_max, rows):
        ext[filled:filled + len(psi)] = psi
        filled += len(psi)
        if factors is None:
            if filled < m1:
                continue
            head = ext[:m1]
            psi0, diag2 = ext[0].copy(), ladder_diagonal(cut2, head)
            factors = np.empty((c, m1, 4, k))
            for j, f in enumerate(_mixed_factors(cos_t[:m1], sin_t[:m1], head, lowered(head))):
                factors[:, :, j] = f.transpose(1, 0, 2)
            factors = factors.reshape(c, m1, 4 * k)
            row2 = psi0 * head[:-1] / sqrt_2n[1:m1, None, None]
            s_up = _ordered_sum(wm * cos_t[1:m1] * row2 * row1[1:m1])
        waiting, start = filled - 1, 0
        last = done + waiting == n_max
        while waiting - start >= step or (last and waiting > start):
            m, lo = min(step, waiting - start), done + 1
            cur, lower = ext[start + 1:start + m + 1], ext[start:start + m]
            s = sqrt_2n[lo:lo + m, None, None]
            # J_0n(cut2) = psi_0 psi_{n-1} / sqrt(2n), as in j_row
            row2 = psi0 * lower / s
            b = np.matmul(uv, lp[..., lo:lo + m])
            b *= q[:, lo:lo + m]
            prod = np.matmul(b.transpose(0, 2, 1), factors)
            prod = prod.reshape(c, m, 4, k).transpose(2, 1, 0, 3)
            new = _thermal_terms(cos_t[lo:lo + m], sin_t[lo:lo + m], cur, lower * s, row2,
                                 row1[lo:lo + m], prod, slots[1:m + 1])
            np.multiply(new, omega[lo:lo + m], out=new)
            total = _carry_sum(slots, m, total)
            done += m
            start += m
        ext[:filled - start] = ext[start:filled]
        filled -= start
    return total, s_up, diag2


def _q_thermal(state, s1: int, s2: int, t1: float, t2, n_max: int, slope: bool,
               held) -> _KernelValue:
    """Thermal kernel of cells, the occupation sum cut at m_cut: at a float
    t2, one cell's point (:func:`_thermal_point`), with its slope when asked;
    over a t2 array, a batch of the listed states, which share n_th, from one
    stream (:func:`_thermal_stream`).  The cells judged the input rules, and
    ``held`` returns each one's :class:`_ThermalCut`; a point at a singular
    phase reads no cut, so it does not call it.  The block, phase, cuts and
    rates are the sign kernel's (:func:`_sign_inputs`).

    The mixed-phase family sum_m w^m cos((m-n) phi) J_mn(-a1) J_mn(-a2)
    takes J_mn(-a2) in its rank-2 Wronskian form and cos((m-n) phi) as
    cos m phi cos n phi + sin m phi sin n phi, so it is the fixed cut's B^T
    applied to four factors over m <= m_cut; no (m, n, K) array is built,
    and no (m_cut + 1) x (n_max + 1) block is held.
    The occupation sums converge geometrically and are cut at m_cut; the
    eigenbasis index n does not, so its sum is Euler-averaged.  Singular
    phases are overwritten by the completeness branch.
    """
    n_th = _each(state)[0].n_th
    w = n_th / (1.0 + n_th)
    m_cut = thermal_m_cut(n_th)

    block, phi, cut1, cut2, rates = _sign_inputs(state, s1, s2, t1, t2, slope)
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL

    def weight(region):
        return (float(w ** np.arange(m_cut + 1) @ _psi_sq_weights(region, m_cut))
                / (1.0 + n_th))

    q, dq, terms = block, None, None
    point = np.ndim(t2) == 0
    if not (point and singular):
        cuts = held()
        if point:
            diag1, wm = cuts[0].diag, cuts[0].wm
            phase_sum, s_up, diag2, terms, slopes = _thermal_point(
                cuts[0], cut2, phi, n_max, None if rates is None else rates[1:])
        else:
            diag1 = np.stack([f.diag for f in cuts], axis=1)[:, :, None]
            wm, slopes = cuts[0].wm[:, None, None], None
            phase_sum, s_up, diag2 = _thermal_stream(cuts, cut2, phi, n_max)
        k1 = diag1 if s1 == 1 else 1.0 - diag1
        k2 = diag2 if s2 == 1 else 1.0 - diag2
        ee = _ordered_sum(wm * k2[1:] * k1[1:])
        q = (block + s1 * s2 * (phase_sum + s_up) + ee) / (1.0 + n_th)
        if slopes is not None:
            dphase, ds_up, ddiag2 = slopes
            dk2 = ddiag2 if s2 == 1 else -ddiag2
            dq = (rates[0] + s1 * s2 * (dphase + ds_up)
                  + (wm * dk2[1:] * k1[1:]).sum()) / (1.0 + n_th)
    if np.any(singular):
        q = _fill_singular(q, singular, phi, _halfline, s1, s2, cut1, cut2, weight)
    return _KernelValue(q, dq, terms, singular, m_cut, w ** (m_cut + 1))


# ---------------------------------------------------------------------------
# series cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SeriesCell:
    """One series point of a projector ``family`` ("sign", "window" or
    "thermal") as a function of t2: ``column`` holds the cell's own
    arguments, (state,) or (state, L) for a window, ``shared`` those that a
    batch of cells shares, (s1, s2, t1), and ``trunc`` the truncation.  The
    family's input rules are judged when the cell is made.

    Every series point, slope, t2 search probe and cell curve is a call of a
    cell, and each reads the t1 half that the cell builds once and holds:
    the t1 geometry and t1 row of a pure family, the O(n_max)
    :class:`_ThermalCut` pieces of a thermal one, which a thermal cell
    builds only when a non-singular point or a curve first reads them.  A
    pure cell whose first call is a batch curve builds no row: it holds the
    one the curve formed (:meth:`take_row`).
    """

    family: str
    column: tuple
    shared: tuple
    trunc: TruncationConfig

    def __post_init__(self):
        _check_family(self.family, *self.shared, [self.column[0]], self.trunc.n_max,
                      self.column[1:])

    def __call__(self, t2, with_info: bool = False):
        _check_finite(t2=t2)
        return _point(self.value(t2), with_info)

    def slope(self, t2):
        """(q, dq/dt2) at one t2: q equals the value-only call bit for bit,
        and dq is the exact t2 derivative of the truncated, Euler-averaged
        sum, or None at a singular phase."""
        _check_finite(t2=t2)
        return _cell_values([(self, t2, True)])[0]

    def curve(self, grid):
        """q over an array of t2 values (:func:`_cell_curves`)."""
        _check_finite(t2=grid)
        return _cell_curves([self], grid)[0]

    def value(self, t2, slope: bool = False) -> _KernelValue:
        """The family's kernel at one t2, with its slope when asked: for a
        pure family the cell's one-column call of :func:`_q_round`."""
        if self.family == "thermal":
            return _q_thermal(*self.column, *self.shared, float(t2), self.trunc.n_max, slope,
                              lambda: [self._held])
        return _q_round(self.family == "window", [self.probe(t2, slope)], self.trunc.n_max)[0]

    def probe(self, t2, slope: bool) -> tuple:
        """The column of a pure cell in a :func:`_q_round` call at one t2."""
        geometry, row1 = self._held
        inputs = _window_inputs if self.family == "window" else _sign_inputs
        return (*self.shared[:2],
                *inputs(*self.column, *self.shared, float(t2), slope, geometry), row1)

    def take_row(self, row1) -> None:
        """Hold ``row1``, this pure cell's t1 row as a batch curve formed it
        (:func:`_phase_sums`, equal to the cell's own bit for bit), unless the
        cell holds its t1 half already."""
        self.__dict__.setdefault("_held", (_t1_geometry(self.column[0], self.shared[2]), row1))

    @functools.cached_property
    def _held(self) -> tuple:
        state, t1, n_max = self.column[0], self.shared[2], self.trunc.n_max
        geometry = _t1_geometry(state, t1)
        if self.family == "thermal":
            return _thermal_fixed_cut(float(-geometry[2]), state.n_th / (1.0 + state.n_th),
                                      thermal_m_cut(state.n_th), n_max)
        if self.family == "sign":
            return geometry, j_row(-geometry[2], n_max)[1:]
        return geometry, _window_row(self.column[1] / geometry[0], n_max)[1:]


def _cell_values(requests) -> list:
    """The answers to ``requests``, (cell, t2, slope) triples, in order: q,
    or (q, dq/dt2 or None) when ``slope``, each equal bit for bit to the
    cell's own call.  The pure cells of one family and n_max are one
    :func:`_q_round` call, and thermal cells go through their point kernel."""
    out, rounds = [None] * len(requests), {}
    for i, (cell, t2, slope) in enumerate(requests):
        if cell.family == "thermal":
            out[i] = cell.value(t2, slope)
        else:
            rounds.setdefault((cell.family, cell.trunc.n_max), []).append(i)
    for (family, n_max), members in rounds.items():
        probes = [requests[i][0].probe(*requests[i][1:]) for i in members]
        for i, value in zip(members, _q_round(family == "window", probes, n_max)):
            out[i] = value
    return [(float(v.q), None if v.slope is None else float(v.slope)) if slope else float(v.q)
            for v, (_, _, slope) in zip(out, requests)]


def _cell_curves(cells, grid) -> list:
    """Each cell's q over the t2 array ``grid``, in order: the cells of one
    family, ``shared``, n_max and n_th in one streamed call, each row equal
    bit for bit to the cell's own curve.  The cells judged their inputs
    when they were made, so pure cells go straight to :func:`_q_pure`, and
    each that holds no t1 row yet takes the one its column's phase sums
    formed (:meth:`_SeriesCell.take_row`); thermal cells go through
    :func:`_q_thermal` with their held t1 pieces, which the stream reads."""
    grid = np.asarray(grid, dtype=float)
    rows, groups = [None] * len(cells), {}
    for i, cell in enumerate(cells):
        key = (cell.family, cell.shared, cell.trunc.n_max, cell.column[0].n_th)
        groups.setdefault(key, []).append(i)
    for (family, shared, n_max, _), members in groups.items():
        batch = [cells[i] for i in members]
        columns = [list(arg) for arg in zip(*(cell.column for cell in batch))]
        if family == "thermal":
            q = _q_thermal(*columns, *shared, grid, n_max, False,
                           lambda: [c._held for c in batch]).q
        else:
            inputs = _sign_inputs
            if family == "window":
                inputs, columns[1] = _window_inputs, np.asarray(columns[1], dtype=float)[:, None]
            out = _q_pure(inputs, columns, *shared, grid, n_max)
            q = out.q
            if out.row1 is not None:
                for cell, row in zip(batch, out.row1):
                    cell.take_row(row)
        for i, row in zip(members, q):
            rows[i] = row
    return rows
