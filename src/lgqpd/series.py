"""Eigenbasis series evaluation of the two-time quasi-probability.

Each projector sandwiched between energy eigenstates reduces to half-line (or
window) matrix elements J of the eigenfunctions, evaluated at cuts rescaled by
the width lambda(t); free evolution contributes the phase
``exp(-i n (t2 - t1 + beta(t2) - beta(t1)))``.  Each series family has one
kernel, a closed erf block plus a truncated phase sum over J products, which
takes a (C, K) batch: C columns over a t2 grid that they share (curves), or
at one t2 each (K = 1: a point, or one round of t2 search probes, with
dq/dt2 from the same pass when asked).  Its orders stream in cache-sized
blocks, and every sum over n is the Euler average written as one weighted
sum sum_n Omega_n t_n with exact tail weights Omega_n, added in order of n,
so that each column equals its own one-column call bit for bit at any batch
shape.  A cell (:class:`_SeriesCell`: one family, state and t1) holds the t1
half of its calls from the first call that needs it.  The families are:

* coherent and squeezed pure states (sign projectors), and squeezed vacuum
  with symmetric window projectors, which share the pure kernel;
* thermal squeezed coherent states (extra geometrically weighted sums over
  the initial occupation, plus a diagonal overlap family), whose t1 cut is
  held as O(n_max) pieces and whose mixed-phase family goes through
  x-independent 1/(2 (n - m)) tables cached per (m_cut, n_max), applied to
  each step of orders as one stacked matrix product.

When the total phase per quantum is a multiple of pi the two measured
quadratures commute, the phase sum loses its oscillatory cancellation, and
the truncated series converges like n^(-1/2); those separations are instead
evaluated exactly through projector completeness (the sum collapses to an
overlap integral of interval indicators, with a parity reflection when the
phase is an odd multiple of pi), written once for both kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, TruncationError
from .matrix_elements import j_diag_row, j_row, ladder_diagonal, lowered
from .special import HARD_N_CAP, _check_n_cap, _psi_blocks, _sqrt_2n, erf, psi_rows
from .states import (ZERO_OFFSET, OffsetFunction, StateSpec, _beta_and_rates, lambda_of,
                     phase_beta_of, thermal_m_cut, x_xi_dot, x_xi_of)

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
    below 1e-12 (:func:`thermal_m_cut`, which refuses a cut whose remainder
    could exceed 1e-8); the remainder of that cut, reported as ``m_tail``,
    is at most 7.0e-9 below the order cap, at the largest n_th (about 7e3)
    whose cut fits under it.  A thermal cell refuses, with a
    CapabilityError, an n_th whose cut is above the order cap.
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
    """Refuse a non-finite time, or an array of times holding one."""
    for name, t in times.items():
        if not (math.isfinite(t) if isinstance(t, float) else np.isfinite(t).all()):
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
    """Diagnostics of one series evaluation: ``n_used`` orders summed (0 at
    a singular phase, which completeness evaluates exactly); ``tail_bound``,
    the truncation error estimate |q(n_max) - q(n_max // 2)|, 0 at a
    singular phase and inf where no half truncation exists (n_max = 1, or a
    thermal n_max // 2 below the occupation cut); and the occupation cut
    ``m_used`` with its remainder ``m_tail``, 0 for a pure state."""

    n_used: int
    tail_bound: float
    singular_branch: bool
    m_used: int = 0
    m_tail: float = 0.0


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
        e_lo = -1.0 if lo == -_INF else erf(lo)
        e_hi = 1.0 if hi == _INF else erf(hi)
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
def _t1_geometry(r: float, theta0: float, t1: float):
    """lambda(t1) and beta(t1) of one squeezing: the t1 half of the geometry
    that every call of a row's cells shares."""
    return lambda_of(t1, r, theta0), phase_beta_of(t1, r, theta0)


def _columns(states: list, t1: float, t2: np.ndarray, slope: bool = False):
    """The geometry of C states at t1 and at ``t2``, a (K,) grid that the
    columns share or (C, 1), one t2 per column: lam1 and a1 broadcasting to
    (C, 1), lam2 and a2 to (C, K), phi of shape (K,) when a grid meets states
    of one squeezing, else (C, K), and with ``slope`` the t2 rates (phi' = 1
    + beta', lambda', x_xi'), the closed forms of :mod:`states`, else None.
    lambda and beta are evaluated once per distinct squeezing (r, theta0)
    and taken on its columns, and x_xi once over all columns."""
    squeezing = [(s.r, s.theta0) for s in states]

    def of(r, theta0, t):
        lam = lambda_of(t, r, theta0)
        return [*_t1_geometry(r, theta0, t1), lam,
                *_beta_and_rates(t, r, theta0, lam if slope else None)]

    keys = list(dict.fromkeys(squeezing))
    parts = of(*keys[0], t2)
    for key in keys[1:]:
        rows = np.array([s == key for s in squeezing])[:, None]
        parts = [np.where(rows, value, part) for value, part in zip(of(*key, t2), parts)]
    lam1, b1, lam2, b2, *rates = parts
    xi = np.array([s.xi for s in states])[:, None]
    phi = (t2 - t1) + (b2 - b1)
    return (lam1, lam2, x_xi_of(t1, xi) / lam1, x_xi_of(t2, xi) / lam2, phi,
            (1.0 + rates[0], rates[1], x_xi_dot(t2, xi)) if slope else None)


#: Doubles in one block of the streamed sums: a batch of C columns over K
#: values of t2 runs its orders in blocks of _BLOCK_DOUBLES // (C K) (at least
#: 2, and at most the orders that the call has), so that a block's working
#: set stays in cache.
_BLOCK_DOUBLES = 16384


def _phase_tables(phi, n_max: int, sine: bool = False) -> list:
    """[cos(n phi), sin(n phi) when ``sine`` else None] for n = 0..n_max,
    each of shape (n_max + 1,) + phi.shape: the phase factors of every
    kernel call.  The pure curves read only the cosines; the thermal stream
    and every slope read both.  A curve's tables are read-only and cached by
    the wave, phi's bytes and n_max, because every row of a plane, and every
    curve of a search at fixed squeezing, has the same phases.  A call at one
    t2 per column (K = 1: a point or a round of probes) computes its own from
    one array of angles: its phases never repeat, and would evict a grid's
    table."""
    phi = np.ascontiguousarray(phi, dtype=float)
    waves = (np.cos, np.sin) if sine else (np.cos,)
    if phi.shape[-1] == 1:
        angles = _angles(phi, n_max)
        tables = [wave(angles) for wave in waves]
    else:
        tables = [_cached_phase_table(wave, phi.tobytes(), phi.shape, n_max) for wave in waves]
    return tables + [None] * (2 - len(tables))


@functools.lru_cache(maxsize=8)
def _cached_phase_table(wave, key: bytes, shape: tuple, n_max: int):
    table = wave(_angles(np.frombuffer(key).reshape(shape), n_max))
    table.flags.writeable = False
    return table


def _angles(phi: np.ndarray, n_max: int) -> np.ndarray:
    return np.arange(n_max + 1.0).reshape((-1,) + (1,) * phi.ndim) * phi


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
        return terms.cumsum(axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _carry_sum(slots: np.ndarray, m: int, total: np.ndarray) -> np.ndarray:
    """``total`` + slots[1] + ... + slots[m], in order (:func:`_ordered_sum`),
    slot 0 carrying the total in: a running sum that streams its terms in
    blocks adds them as one sequence, however the blocks are cut."""
    slots[0] = total
    return _ordered_sum(slots[:m + 1])


def _block_rows(c: int, k: int) -> int:
    return max(2, _BLOCK_DOUBLES // (c * k))


def _phase_sums(window: bool, cut1, cut2, phi, n_max: int, row1, rates):
    """(sums, row1, slopes) of the pure families for C columns over K
    values of t2: ``sums`` are the Euler-averaged sums over n = 1..n_max of
    cos(n phi) row1_n row2_n, the rows being J_0n(cut, inf) at the cuts, or
    for a ``window`` the window rows J_0n(h, inf) - J_0n(-h, inf), which
    parity makes twice J_0n(h, inf) at even n and 0 at odd n.  ``cut2`` is
    (C, K) and ``phi`` (K,) or (C, K).  Each column's t1 row is ``row1`` (C,
    n_max), the rows that the cells hold, or, when it is None, is formed in
    the stream from ``cut1`` (C, 1) and returned read-only: so for curves,
    points, slopes and rounds of probes alike.  Given ``rates``, the t2
    rates (phi', cut2') of shape (C, K), ``slopes`` is the t2 derivative of
    the sums, else None.

    With row2_n = psi_0(cut2) psi_{n-1}(cut2) / sqrt(2n) (twice that at even
    n and 0 at odd n for a window), the sum sum_n Omega_n cos(n phi) row1_n
    row2_n (:func:`_euler_tails`) is psi_0(cut2) sum_n psi_{n-1}(cut2)
    (cos(n phi) v_n), with v_n = Omega_n row1_n / sqrt(2n), doubled for a
    window, whose odd orders are neither multiplied nor summed.  Since
    d row2_n / dcut2 = -psi_0 psi_n (doubled, or 0, as row2), the slope is
    psi_0 (-cut2' sum_n psi_n cos(n phi) sqrt(2n) v_n - phi' sum_n psi_{n-1}
    n sin(n phi) v_n).

    The orders stream through reused buffers in blocks, and no (n_max, C, K)
    array is built.  On each block: the shared eigenfunctions
    (:func:`special._psi_blocks`) at cut2, and cut1 riding along as column
    K when the rows are formed, up to order n_max like a cut's scalar row
    (:func:`psi_rows`); the formed rows by :func:`j_row`'s operations
    (doubled, and zero at odd n, for a window), so that a column's row is
    the same in any call; the block's terms, the phase factors read from
    :func:`_phase_tables`; and
    each sum's terms added in order of n, the running total carried in
    (:func:`_carry_sum`).  The slope's psi_n sum takes the orders whose
    psi_n the block holds, n = k0, ..., so no row is carried across a block
    edge.  psi_0(cut2) multiplies each total once, after the last block.
    Every operation is elementwise or that ordered sum, so each column
    equals its own call bit for bit, at any C and K and any cut of the
    blocks.
    """
    c, k = cut2.shape
    rows = min(_block_rows(c, k), n_max + 1)
    cos_t, sin_t = (None if t is None else t.reshape(n_max + 1, -1, k)
                    for t in _phase_tables(phi, n_max, rates is not None))
    sqrt_2n, omega = _sqrt_2n(n_max), _euler_tails(n_max)
    formed, step = row1 is None, 1 + window
    if formed:
        row1, cut2 = np.empty((c, n_max)), np.concatenate([cut2, cut1], axis=1)
    slots = np.empty((rows + 1, c, k))
    total = cos_sum = sin_sum = np.zeros((c, k))
    psi0 = None
    # the block from k0 holds psi_{n-1} for the orders n = k0 + 1, ...; the
    # value sums do not read the last order's psi_n_max, the slope's do, in
    # a block of its own when n_max is a multiple of the block size
    blocks = _psi_blocks(cut2, n_max, rows)
    for k0, block in zip(range(0, n_max + (rates is not None), rows), blocks):
        psi = block[:n_max - k0]
        m = len(psi)
        if psi0 is None:
            psi0 = psi[0].copy()
        if formed:
            # J_0n = psi_0 psi_{n-1} / sqrt(2n) at cut1, as j_row; twice that
            # at even n and 0 at odd n for the window
            r1 = psi[:, :, k] * psi0[:, k]
            r1 /= sqrt_2n[k0 + 1:k0 + m + 1, None]
            if window:
                r1 *= 2.0
                r1[k0 % 2::2] = 0.0
            row1[:, k0:k0 + m] = r1.T
        r1 = row1[:, k0:k0 + m].T
        # the summed orders n, every one or a window's even ones, at block
        # rows i = n - k0 - 1
        lo = k0 + 1 + (window and k0 % 2 == 0)
        n, i = slice(lo, k0 + m + 1, step), slice(lo - k0 - 1, m, step)
        v = r1[i] * omega[n, None]
        v /= sqrt_2n[n, None]
        if window:
            v *= 2.0
        new = slots[1:len(v) + 1]
        np.multiply(cos_t[n], v[:, :, None], out=new)
        np.multiply(new, psi[i, :, :k], out=new)
        total = _carry_sum(slots, len(v), total)
        if rates is not None:
            np.multiply(sin_t[n], (v * np.arange(lo, k0 + m + 1.0, step)[:, None])[:, :, None],
                        out=new)
            np.multiply(new, psi[i, :, :k], out=new)
            sin_sum = _carry_sum(slots, len(v), sin_sum)
            # the orders n = k0, ... whose psi_n this block holds (n >= 1)
            start = max(k0, 1) + (window and max(k0, 1) % 2)
            a = slice(start, k0 + len(block), step)
            u = row1[:, start - 1:a.stop - 1:step].T * omega[a, None]
            if window:
                u *= 2.0
            new = slots[1:len(u) + 1]
            np.multiply(cos_t[a], u[:, :, None], out=new)
            np.multiply(new, block[start - k0::step, :, :k], out=new)
            cos_sum = _carry_sum(slots, len(u), cos_sum)
    psi0 = psi0[:, :k]
    total *= psi0
    if formed:
        row1.flags.writeable = False
    slopes = None
    if rates is not None:
        dphi, dcut = rates
        slopes = psi0 * (-(dcut * cos_sum) - dphi * sin_sum)
    return total, row1, slopes


class _KernelValue(NamedTuple):
    """The result of a series kernel, of C columns over K values of t2, or
    of one column when a cell's call is sliced from it: ``q``; ``slope``,
    dq/dt2 when asked, else None, not read at a singular phase, whose
    completeness value has no slope; ``singular``, the phases that
    completeness evaluated; the occupation cut ``m_used`` with its remainder
    ``m_tail``, 0 for a pure state; and ``row1``, the (C, n_max) t1 rows
    that a pure call's phase sums formed (:func:`_phase_sums`) where its
    cells held none, else None."""

    q: object
    slope: object
    singular: object
    m_used: int = 0
    m_tail: float = 0.0
    row1: np.ndarray | None = None


def _q_pure(inputs, column, s1: int, s2: int, t1: float, t2, n_max: int, held,
            slope: bool) -> _KernelValue:
    """The kernel of the pure families, called by :func:`_cell_calls`: q =
    block + s1 s2 sum_n cos(n phi) row1_n row2_n, the rows the half-line or
    window rows at the cuts (:func:`_phase_sums`), and singular phases
    overwritten by completeness over the outcome regions; ``inputs`` is the
    family's (:func:`_sign_inputs` or :func:`_window_inputs`) and ``column``
    its per-column arguments, lists of C states (and (C, 1) half-widths).

    ``t2`` is a (K,) grid for a curve of each column, or (C, 1), one t2 per
    column, for points and rounds of probes, which return dq/dt2 when
    ``slope`` is asked.  Either is one call of :func:`_phase_sums`, which
    reads ``held``, the cells' (C, n_max) t1 rows, or, when it is None,
    forms the rows in its stream and returns them as ``row1``.
    """
    block, phi, cut1, cut2, rates = inputs(*column, s1, s2, t1, t2, slope)
    window = inputs is _window_inputs
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    q, dq, row1 = block, None, None
    if not singular.all():
        sums, row1, dsums = _phase_sums(window, cut1, cut2, phi, n_max, held,
                                        rates and rates[1:])
        q = block + s1 * s2 * sums
        if slope:
            dq = rates[0] + s1 * s2 * dsums
    if singular.any():
        q = _fill_singular(q, singular, phi, _window_region if window else _halfline,
                           s1, s2, cut1, cut2, _ground_weight)
    return _KernelValue(q, dq, singular, row1=row1 if held is None else None)


def _sign_inputs(states: list, s1: int, s2: int, t1: float, t2, slope: bool = False) -> tuple:
    """(block, phi, cut1, cut2, rates) of the sign kernel (and the thermal
    one) for the columns of :func:`_columns`: cut_i = -a_i, block = (1 + s1
    erf a1)(1 + s2 erf a2)/4, and with ``slope`` the rates (block', phi',
    cut2'), with a2' = (x_xi' - a2 lambda') / lambda, else None."""
    _, lam2, a1, a2, phi, rates = _columns(states, t1, t2, slope)
    first = 0.25 * (1.0 + s1 * erf(a1))
    block = first * (1.0 + s2 * erf(a2))
    if slope:
        dphi, dlam2, dx = rates
        da2 = (dx - a2 * dlam2) / lam2
        rates = first * (s2 * _ERF_SLOPE) * np.exp(-a2 * a2) * da2, dphi, -da2
    return block, phi, -a1, -a2, rates


def _window_inputs(states: list, half_width, s1: int, s2: int, t1: float, t2,
                   slope: bool = False) -> tuple:
    """The window kernel's inputs, as :func:`_sign_inputs`, ``half_width``
    being (C, 1): the cuts +/- L/lambda(t_i) enter through the window rows,
    and h2' = -h2 lambda' / lambda."""
    lam1, lam2, _, _, phi, rates = _columns(states, t1, t2, slope)
    h1, h2 = half_width / lam1, half_width / lam2
    qbar1, qbar2 = 1.0 - 2.0 * erf(h1), 1.0 - 2.0 * erf(h2)
    first = 0.25 * (1.0 + s1 * qbar1)
    block = first * (1.0 + s2 * qbar2)
    if slope:
        dphi, dlam2, _ = rates
        dh2 = -h2 * dlam2 / lam2
        rates = first * (s2 * -2.0 * _ERF_SLOPE) * np.exp(-h2 * h2) * dh2, dphi, dh2
    return block, phi, h1, h2, rates


def _check_family(family: str, s1: int, s2: int, t1: float, states: list, n_max: int,
                  half_widths=()) -> None:
    """The input rules of a family's kernel ("sign", "window" or "thermal")
    for a batch of ``states`` and a window's ``half_widths``."""
    _check_signs(s1, s2)
    _check_finite(t1=t1)
    if family == "sign" and any(s.n_th != 0 for s in states):
        raise ValueError("pure-state evaluator requires n_th = 0; use qpd_series_thermal")
    if family == "window":
        for s in states:
            _check_squeezed_vacuum(s)
        for h in half_widths:
            _check_half_width(h)
    if family == "thermal":
        m_cut = thermal_m_cut(states[0].n_th)
        if m_cut > HARD_N_CAP:  # no n_max reaches the cut
            raise CapabilityError(f"n_th={states[0].n_th!r} has no occupation cut within the "
                                  f"order cap {HARD_N_CAP}: the cut is m={m_cut}")
        if n_max < m_cut:  # the eigenbasis cap must reach the occupation cut
            raise TruncationError(
                f"n_max={n_max} is below the thermal occupation cut m={m_cut}; raise n_max")


def qpd_series_squeezed(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                        trunc: TruncationConfig | None = None, with_info: bool = False):
    """Series quasi-probability for a pure squeezed coherent state.

    With ``with_info`` the :class:`SeriesInfo` reports ``tail_bound``, the
    change |q(n_max) - q(n_max // 2)| that halving the truncation makes.
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


def q_sign_series_curve(state: StateSpec, s1: int, s2: int, t1: float, t2_grid: np.ndarray,
                        n_max: int) -> np.ndarray:
    """Pure-state sign-projector quasi-probability over a grid of t2 values:
    the curve of one series cell (:meth:`_SeriesCell.curve`).  ``n_max``
    follows the rule of :class:`TruncationConfig`."""
    return _SeriesCell("sign", (state,), (s1, s2, t1), TruncationConfig(n_max)).curve(t2_grid)


def q_window_series_curve(state: StateSpec, half_width: float, s1: int, s2: int, t1: float,
                          t2_grid: np.ndarray, n_max: int) -> np.ndarray:
    """Window-projector quasi-probability over a grid of t2 values, the
    curve of one cell as :func:`q_sign_series_curve`."""
    return _SeriesCell("window", (state, half_width), (s1, s2, t1),
                       TruncationConfig(n_max)).curve(t2_grid)


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


def _thermal_stream(cuts: list, cut2, phi, n_max: int, rates=None):
    """(phase_sum, s_up, diag2, slopes) of the thermal kernel for C columns
    over K values of t2: ``cut2`` (C, K), ``phi`` (K,) or (C, K), and
    ``cuts``, each column's fixed t1 :class:`_ThermalCut`.  Given ``rates``
    (phi', cut2') of shape (C, K), ``slopes`` holds the t2 derivatives of
    the first three, else it is None.

    The orders stream as in :func:`_phase_sums`.  Every order's mixed family
    needs the rows m <= m_cut, so these are kept aside first, the stream's
    blocks being gathered until they are in (m_cut may exceed a block); their
    factors are then stacked once, as (C, m_cut + 1, 4K).  The orders are
    summed in steps of a size set by K alone, each step holding psi_{n-1}
    and psi_n of its orders.  Each step forms each column's columns of B for
    the step, (u_m L_n - v_m psi_n) Q_mn, as a stacked product of its cut's
    pieces (u, v) and (L, -psi) scaled by the cached Q table
    (:func:`_gap_tables`), and takes its mixed family as one stacked product
    of their transpose with the factors: every column of any batch then
    runs the same products, whose rounding may depend on their shape.  A
    slope takes G, the same pieces scaled by the H table, through a second
    product of that shape: d J_mn(cut2)/dcut2 = -psi_m psi_n, and in the
    mixed family's phase derivative the factor (m - n) cancels B's 1 / (2
    (n - m)).  The step's terms are weighted by their tail weights Omega_n
    (:func:`_euler_tails`) and added in order of n to the running total
    (:func:`_carry_sum`), as in :func:`_phase_sums`, and the occupation sum
    s_up adds in order of m (:func:`_ordered_sum`), so each column equals its
    own call bit for bit, at any C.
    """
    c, k = cut2.shape
    m1 = len(cuts[0].u)
    row1 = np.array([f.row for f in cuts]).T[:, :, None]
    uv = np.array([(f.u, f.v) for f in cuts]).transpose(0, 2, 1)
    lp = np.array([(f.low, -f.psi) for f in cuts])
    wm, (q, h) = cuts[0].wm[:, None, None], _gap_tables(m1 - 1, n_max)
    # a step's product has 4K columns
    rows, step = min(_block_rows(c, k), n_max + 1), min(_block_rows(4, k), n_max)
    cos_t, sin_t = (t.reshape(n_max + 1, -1, k) for t in _phase_tables(phi, n_max, True))
    sqrt_2n, omega = _sqrt_2n(n_max), _euler_tails(n_max)[:, None, None]
    slots, total, dtotal, done = np.empty((step + 1, c, k)), np.zeros((c, k)), np.zeros((c, k)), 0
    # ext[i] holds psi_{done + i}, the orders n = done + 1, ... waiting for
    # their terms, ext[0] being the last order done
    ext = np.empty((rows + max(m1, step), c, k))
    filled, factors = 0, None

    def mixed(block, m):
        prod = np.matmul(block.transpose(0, 2, 1), factors)
        return prod.reshape(c, m, 4, k).transpose(2, 1, 0, 3)

    for psi in _psi_blocks(cut2, n_max, rows):
        ext[filled:filled + len(psi)] = psi
        filled += len(psi)
        if factors is None:
            if filled < m1:
                continue
            head = ext[:m1]
            psi0, diag2 = ext[0].copy(), ladder_diagonal(cut2, head)
            factors = np.array(_mixed_factors(cos_t[:m1], sin_t[:m1], head, lowered(head)))
            factors = factors.transpose(2, 1, 0, 3).reshape(c, m1, 4 * k)
            row2 = psi0 * head[:-1] / sqrt_2n[1:m1, None, None]
            s_up = _ordered_sum(wm * cos_t[1:m1] * row2 * row1[1:m1])
            if rates is not None:
                ds_up, ddiag2 = 0.0, -rates[1] * head * head
        waiting, start = filled - 1, 0
        last = done + waiting == n_max
        while waiting - start >= step or (last and waiting > start):
            m, lo = min(step, waiting - start), done + 1
            cur, lower = ext[start + 1:start + m + 1], ext[start:start + m]
            s = sqrt_2n[lo:lo + m, None, None]
            # J_0n(cut2) = psi_0 psi_{n-1} / sqrt(2n), as in j_row
            row2 = psi0 * lower / s
            base = np.matmul(uv, lp[..., lo:lo + m])
            cos, sin, low, r1 = cos_t[lo:lo + m], sin_t[lo:lo + m], lower * s, row1[lo:lo + m]
            new = _thermal_terms(cos, sin, cur, low, row2, r1, mixed(base * q[:, lo:lo + m], m),
                                 slots[1:m + 1])
            np.multiply(new, omega[lo:lo + m], out=new)
            total = _carry_sum(slots, m, total)
            if rates is not None:
                base *= h[:, lo:lo + m]
                d = mixed(base, m)
                half, dcut = 0.5 * rates[0], rates[1]
                # the mixed family's phase and cut derivatives, by cos and sin
                mix = cos * (half * (low * d[2] - cur * d[3]) - dcut * (cur * d[0]))
                mix -= sin * (half * (low * d[0] - cur * d[1]) + dcut * (cur * d[2]))
                # the m = 0 family's, by d J_0n(c)/dc = -psi_0 psi_n
                n = np.arange(lo, lo + m, dtype=float)[:, None, None]
                dpure = r1 * (cos * cur * (-dcut * psi0) - sin * (n * row2) * rates[0])
                if lo < m1:  # s_up's orders m < m1 are the first ones
                    j = min(m, m1 - lo)
                    ds_up = ds_up + _ordered_sum(wm[lo - 1:lo - 1 + j] * dpure[:j])
                np.add(dpure, mix, out=new)
                np.multiply(new, omega[lo:lo + m], out=new)
                dtotal = _carry_sum(slots, m, dtotal)
            done += m
            start += m
        ext[:filled - start] = ext[start:filled]
        filled -= start
    slopes = None if rates is None else (dtotal, ds_up, ddiag2)
    return total, s_up, diag2, slopes


def _q_thermal(states: list, s1: int, s2: int, t1: float, t2, n_max: int, slope: bool,
               held) -> _KernelValue:
    """Thermal kernel of cells, the occupation sum cut at m_cut, for a batch
    of the listed states, which share n_th, over a (K,) grid or at one t2
    per column ((C, 1), points and rounds of probes, which return dq/dt2
    when ``slope`` is asked): one stream (:func:`_thermal_stream`).  The
    cells judged the input rules, and ``held`` returns each one's
    :class:`_ThermalCut`; a call whose every phase is singular reads no
    cut, so it does not call it.  The block, phase, cuts and rates are the
    sign kernel's (:func:`_sign_inputs`).

    The mixed-phase family sum_m w^m cos((m-n) phi) J_mn(-a1) J_mn(-a2)
    takes J_mn(-a2) in its rank-2 Wronskian form and cos((m-n) phi) as
    cos m phi cos n phi + sin m phi sin n phi, so it is the fixed cut's B^T
    applied to four factors over m <= m_cut; no (m, n, K) array is built,
    and no (m_cut + 1) x (n_max + 1) block is held.
    The occupation sums converge geometrically and are cut at m_cut; the
    eigenbasis index n does not, so its sum is Euler-averaged.  Singular
    phases are overwritten by the completeness branch.
    """
    n_th = states[0].n_th
    w = n_th / (1.0 + n_th)
    m_cut = thermal_m_cut(n_th)

    block, phi, cut1, cut2, rates = _sign_inputs(states, s1, s2, t1, t2, slope)
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL

    def weight(region):
        return (float(w ** np.arange(m_cut + 1) @ _psi_sq_weights(region, m_cut))
                / (1.0 + n_th))

    q, dq = block, None
    if not singular.all():
        cuts = held()
        diag1 = np.array([f.diag for f in cuts]).T[:, :, None]
        wm = cuts[0].wm[:, None, None]
        phase_sum, s_up, diag2, slopes = _thermal_stream(cuts, cut2, phi, n_max,
                                                         rates and rates[1:])
        k1 = diag1 if s1 == 1 else 1.0 - diag1
        k2 = diag2 if s2 == 1 else 1.0 - diag2
        ee = _ordered_sum(wm * k2[1:] * k1[1:])
        q = (block + s1 * s2 * (phase_sum + s_up) + ee) / (1.0 + n_th)
        if slope:
            dphase, ds_up, ddiag2 = slopes
            dk2 = ddiag2 if s2 == 1 else -ddiag2
            dq = (rates[0] + s1 * s2 * (dphase + ds_up)
                  + _ordered_sum(wm * dk2[1:] * k1[1:])) / (1.0 + n_th)
    if singular.any():
        q = _fill_singular(q, singular, phi, _halfline, s1, s2, cut1, cut2, weight)
    return _KernelValue(q, dq, singular, m_cut, w ** (m_cut + 1))


# ---------------------------------------------------------------------------
# series cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SeriesCell:
    """One series point of a projector ``family`` ("sign", "window" or
    "thermal") as a function of t2: ``column`` holds the cell's own
    arguments, (state,) or (state, L) for a window, ``shared`` those that a
    batch of cells shares, (s1, s2, t1), ``trunc`` the truncation, and
    ``period`` q's period in t2 where time reversal fixes the cell, or None
    (``scan.named_evaluator``).  The family's input rules are judged when
    the cell is made.

    Every series point, slope, t2 search probe and cell curve is a call of
    the family's kernel through :func:`_cell_calls`, a point being a
    one-column call, and the public curves one-cell calls.  Each call reads
    the t1 half that the cell holds.  A pure cell holds the t1 row that its
    first non-singular call formed in the kernel's stream
    (:meth:`take_row`); a thermal cell holds the O(n_max)
    :class:`_ThermalCut` pieces, which it builds only when a non-singular
    call first reads them.  A point's tail bound is one more point, of this
    cell at half the truncation, which forms its own t1 half.
    """

    family: str
    column: tuple
    shared: tuple
    trunc: TruncationConfig
    period: float | None = None

    def __post_init__(self):
        _check_family(self.family, *self.shared, [self.column[0]], self.trunc.n_max,
                      self.column[1:])

    def __call__(self, t2, with_info: bool = False):
        """q at one t2, or (q, :class:`SeriesInfo`) with ``with_info``, whose
        tail bound is |q - q'|, q' this cell's point at truncation n_max //
        2 where that truncation exists."""
        _check_finite(t2=t2)
        out = _cell_calls([self], np.array([[float(t2)]]), False)[0]
        q = float(out.q[0])
        if not with_info:
            return q
        if out.singular[0]:
            return q, SeriesInfo(0, 0.0, True, out.m_used, out.m_tail)
        half, tail = self.trunc.n_max // 2, _INF
        if half >= max(1, out.m_used):
            tail = abs(q - replace(self, trunc=TruncationConfig(half))(t2))
        return q, SeriesInfo(self.trunc.n_max, tail, False, out.m_used, out.m_tail)

    def slope(self, t2):
        """(q, dq/dt2) at one t2: q equals the value-only call bit for bit,
        and dq is the exact t2 derivative of the truncated, Euler-averaged
        sum, or None at a singular phase."""
        _check_finite(t2=t2)
        return _cell_values([(self, t2)])[0]

    def curve(self, grid):
        """q over an array of t2 values (:func:`_cell_curves`)."""
        _check_finite(t2=grid)
        return _cell_curves([self], grid)[0]

    def take_row(self, row1) -> None:
        """Hold ``row1`` as ``_row``, this pure cell's t1 row as a kernel
        call formed it (:func:`_phase_sums`, the same in any call), unless
        the cell holds one already."""
        self.__dict__.setdefault("_row", row1)

    @functools.cached_property
    def _held(self) -> _ThermalCut:
        """The thermal cell's t1 pieces."""
        state, t1 = self.column[0], self.shared[2]
        a1 = x_xi_of(t1, state.xi) / _t1_geometry(state.r, state.theta0, t1)[0]
        return _thermal_fixed_cut(float(-a1), state.n_th / (1.0 + state.n_th),
                                  thermal_m_cut(state.n_th), self.trunc.n_max)


def _cell_calls(cells, t2: np.ndarray, slope: bool) -> list:
    """Each cell's :class:`_KernelValue`, in order, sliced to its column:
    over the 1-D t2 array ``t2`` that the cells share (curves, with
    ``slope`` False), or, for ``t2`` of shape (C, 1), at each cell's own t2
    (points, or a round of probes), with dq/dt2 of every column when
    ``slope``.  The cells of one family, ``shared``, n_max and n_th are one
    kernel call, and each column equals the cell's own call bit for bit,
    its q whether or not ``slope`` is asked.

    The cells judged their inputs when they were made, so they go straight
    to :func:`_q_pure` or :func:`_q_thermal`.  A pure call reads its cells'
    held t1 rows when every cell holds one; otherwise its phase sums form
    the rows, and each cell that holds none takes its column's
    (:meth:`_SeriesCell.take_row`).  Thermal cells hand the kernel their held
    t1 pieces."""
    point = t2.ndim == 2
    out, groups = [None] * len(cells), {}
    for i, cell in enumerate(cells):
        key = (cell.family, cell.shared, cell.trunc.n_max, cell.column[0].n_th)
        groups.setdefault(key, []).append(i)
    for (family, shared, n_max, _), members in groups.items():
        batch = [cells[i] for i in members]
        columns = [list(arg) for arg in zip(*(cell.column for cell in batch))]
        at = t2[members] if point and len(members) < len(cells) else t2
        if family == "thermal":
            value = _q_thermal(columns[0], *shared, at, n_max, slope,
                               lambda: [c._held for c in batch])
        else:
            inputs = _sign_inputs
            if family == "window":
                inputs, columns[1] = _window_inputs, np.asarray(columns[1], dtype=float)[:, None]
            held = all("_row" in c.__dict__ for c in batch)
            value = _q_pure(inputs, columns, *shared, at, n_max,
                            np.array([c._row for c in batch]) if held else None, slope)
            for cell, row in zip(batch, () if value.row1 is None else value.row1):
                cell.take_row(row)
        q, dq, singular, m_used, m_tail, _ = value
        if singular.shape != q.shape:
            singular = np.broadcast_to(singular, q.shape)
        for j, i in enumerate(members):
            out[i] = _KernelValue(q[j], None if dq is None else dq[j], singular[j], m_used, m_tail)
    return out


def _cell_values(requests) -> list:
    """The probes ``requests``, (cell, t2) pairs, in order: each (q, dq/dt2,
    or None at a singular phase), from one :func:`_cell_calls` round with
    slopes, each equal bit for bit to the cell's own :meth:`_SeriesCell.slope`
    call."""
    cells, t2 = zip(*requests)
    values = _cell_calls(cells, np.array(t2, dtype=float)[:, None], True)
    return [(float(v.q[0]), None if v.singular[0] else float(v.slope[0])) for v in values]


def _cell_curves(cells, grid) -> list:
    """Each cell's q over the t2 array ``grid``, in order: one
    :func:`_cell_calls` of the cells' curves, each row equal bit for bit to
    the cell's own curve."""
    return [v.q for v in _cell_calls(cells, np.asarray(grid, dtype=float), False)]
