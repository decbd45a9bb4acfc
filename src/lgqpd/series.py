"""Eigenbasis series evaluation of the two-time quasi-probability.

Each projector sandwiched between energy eigenstates reduces to half-line (or
window) matrix elements J of the eigenfunctions, evaluated at cuts rescaled by
the width lambda(t); free evolution contributes the phase
``exp(-i n (t2 - t1 + beta(t2) - beta(t1)))``.  Each projector family
has one kernel over t2, a closed erf block plus a truncated phase sum over J
products, and every series point is the one-element call of its kernel:

* coherent and squeezed pure states (sign projectors),
* thermal squeezed coherent states (extra geometrically weighted sums over
  the initial occupation, plus a diagonal overlap family), whose t1-only
  pieces are cached,
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
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import TruncationError, TruncationWarning
from .matrix_elements import j_block, j_diag_row, j_row, ladder_diagonal, lowered
from .special import _check_n_cap, averaged_partial_sum, psi_rows
from .states import (ZERO_OFFSET, OffsetFunction, StateSpec, lambda_of,
                     phase_beta_of, thermal_m_cut, x_xi_of)

#: |sin(total phase)| below which the exact completeness branch is used.
SINGULAR_PHASE_TOL = 1e-9

_INF = math.inf


@dataclass(frozen=True)
class TruncationConfig:
    """Series truncation controls.

    ``n_max`` caps the eigenbasis sum and ``tail_tol`` is the certification
    target for the reported tail bound.  The thermal occupation sum is cut
    where the thermal weight falls below 1e-12 (:func:`thermal_m_cut`).
    """

    n_max: int = 200
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        _check_n_cap(self.n_max)
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


DEFAULT_TRUNCATION = TruncationConfig()


# ---------------------------------------------------------------------------
# input rules, judged by the kernels and, before evaluating, by lgqpd.scan
# ---------------------------------------------------------------------------

def _check_signs(*signs) -> None:
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"outcome signs must be +1 or -1, got {s!r}")


def _check_half_width(half_width) -> None:
    if half_width is None or not (math.isfinite(half_width) and half_width > 0):
        raise ValueError("the window projector requires a half-width L > 0, "
                         f"got {half_width!r}")


def _check_squeezed_vacuum(state: StateSpec) -> None:
    if state.xi != 0 or state.n_th != 0:
        raise ValueError("the window projector requires squeezed vacuum "
                         "(x0 = p0 = n_th = 0)")


def _occupation_cut(n_th: float, n_max: int) -> int:
    """The thermal occupation cut, which the eigenbasis cap must reach."""
    m_cut = thermal_m_cut(n_th)
    if n_max < m_cut:
        raise TruncationError(
            f"n_max={n_max} is below the thermal occupation cut m={m_cut}; "
            "raise n_max")
    return m_cut


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
    """``q`` with each ``singular`` point (phase ``phi`` within tolerance of a
    multiple of pi) set to ``weight`` of the overlap of ``region(s2, cut2)``
    with ``region(s1, cut1)``, the latter reflected at odd multiples of pi."""
    q = np.array(q, dtype=float)
    flat_q, flat_phi, flat_cut = q.reshape(-1), np.reshape(phi, -1), np.reshape(cut2, -1)
    region1 = region(s1, cut1)
    for j in np.flatnonzero(singular):
        first = region1 if math.cos(flat_phi[j]) > 0 else _reflect(region1)
        flat_q[j] = weight(_intersect(region(s2, float(flat_cut[j])), first))
    return q[()]


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _geometry(state: StateSpec, t1: float, t2):
    lam1 = lambda_of(t1, state.r, state.theta0)
    lam2 = lambda_of(t2, state.r, state.theta0)
    b1 = phase_beta_of(t1, state.r, state.theta0)
    b2 = phase_beta_of(t2, state.r, state.theta0)
    a1 = x_xi_of(t1, state.xi) / lam1
    a2 = x_xi_of(t2, state.xi) / lam2
    phi = (t2 - t1) + (b2 - b1)
    return lam1, lam2, a1, a2, phi


def _window_row(h, n_max: int) -> np.ndarray:
    """Window row J_0n(h, inf) - J_0n(-h, inf) for n = 0..n_max from the one
    row at +h: psi_0 is even and psi_{n-1} has parity (-1)^(n-1), so the
    entry is -erf(h) at n = 0, 2 J_0n(h, inf) at even n and 0 at odd n.
    ``h`` may be an array, as for :func:`j_row`."""
    row = 2.0 * j_row(h, n_max)
    row[0] = -_sp.erf(h)
    row[1::2] = 0.0
    return row


def _q_pure(block, rows, phi, s1: int, s2: int, region, cut1, cut2):
    """Summation core of the pure kernels: (q, terms, singular) with q =
    block + s1 s2 sum_n cos(n phi) row1_n row2_n, singular phases overwritten
    by completeness over the outcome regions ``region(s, cut)``.  ``block``,
    ``phi`` and ``cut2`` have the shape of t2: a float for one point, so that
    the row helpers take their memoized scalar paths, or an array for a
    curve.  ``rows()`` gives the t1 row and the t2 rows; it is not called when
    every phase is singular (a t2 search closing in on a commuting
    separation), and ``terms`` is then None."""
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    n_singular = np.count_nonzero(singular)
    q, terms = block, None
    if n_singular < singular.size:
        row1, row2 = rows()
        col = (slice(1, None),) + (None,) * (row2.ndim - 1)  # n >= 1 down the order axis
        terms = np.cos(np.arange(row1.shape[0])[col] * phi) * row1[col] * row2[1:]
        q = block + s1 * s2 * averaged_partial_sum(terms)
    if n_singular:
        q = _fill_singular(q, singular, phi, region, s1, s2, cut1, cut2, _ground_weight)
    return q, terms, singular


def _q_sign(state: StateSpec, s1: int, s2: int, t1: float, t2, n_max: int):
    """Pure-state sign-projector kernel over t2, as :func:`_q_pure`."""
    _check_signs(s1, s2)
    if state.n_th != 0:
        raise ValueError("pure-state evaluator requires n_th = 0; use qpd_series_thermal")
    _, _, a1, a2, phi = _geometry(state, t1, t2)
    block = 0.25 * (1.0 + s1 * _sp.erf(a1)) * (1.0 + s2 * _sp.erf(a2))
    return _q_pure(block, lambda: (j_row(-a1, n_max), j_row(-a2, n_max)), phi, s1, s2,
                   _halfline, -a1, -a2)


def _q_window(state: StateSpec, half_width: float, s1: int, s2: int, t1: float,
              t2, n_max: int):
    """Squeezed-vacuum window-projector kernel over t2, as :func:`_q_pure`.
    The cuts +/- L/lambda(t_i) enter through the window rows."""
    _check_signs(s1, s2)
    _check_squeezed_vacuum(state)
    _check_half_width(half_width)
    lam1, lam2, _, _, phi = _geometry(state, t1, t2)
    h1, h2 = half_width / lam1, half_width / lam2
    qbar1, qbar2 = 1.0 - 2.0 * _sp.erf(h1), 1.0 - 2.0 * _sp.erf(h2)
    block = 0.25 * (1.0 + s1 * qbar1) * (1.0 + s2 * qbar2)
    return _q_pure(block, lambda: (_window_row(h1, n_max), _window_row(h2, n_max)), phi,
                   s1, s2, _window_region, h1, h2)


def _point(q, terms, singular, with_info: bool, **occupation):
    """One-point result of a kernel: q, or (q, SeriesInfo) with the thermal
    ``occupation`` fields."""
    if not with_info:
        return float(q)
    if singular:
        return float(q), SeriesInfo(0, 0.0, True, **occupation)
    return float(q), SeriesInfo(terms.shape[0], series_tail_estimate(terms), False,
                                **occupation)


def qpd_series_squeezed(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                        trunc: TruncationConfig | None = None, with_info: bool = False):
    """Series quasi-probability for a pure squeezed coherent state.

    The reported ``tail_bound`` certifies truncation when it is below the
    configured ``tail_tol``; near-degenerate time separations converge slowly
    and are reported honestly through a large bound.
    """
    trunc = trunc or DEFAULT_TRUNCATION
    return _point(*_q_sign(state, s1, s2, t1, float(t2), trunc.n_max), with_info)


def qpd_series_window(state: StateSpec, half_width: float, s1: int, s2: int,
                      t1: float, t2: float, trunc: TruncationConfig | None = None,
                      with_info: bool = False):
    """Series quasi-probability for squeezed vacuum with window projectors.

    Outcome +1 projects onto |x| > L at measurement time; the width rescaling
    turns the cuts into +/- L/lambda(t_i).  Only even orders contribute by
    parity, so the result is periodic in t2 with period pi.
    """
    trunc = trunc or DEFAULT_TRUNCATION
    return _point(*_q_window(state, half_width, s1, s2, t1, float(t2), trunc.n_max),
                  with_info)


def q_sign_series_curve(state: StateSpec, s1: int, s2: int, t1: float,
                        t2_grid: np.ndarray, n_max: int) -> np.ndarray:
    """Pure-state sign-projector quasi-probability over a grid of t2 values."""
    return _q_sign(state, s1, s2, t1, np.asarray(t2_grid, dtype=float), n_max)[0]


def q_window_series_curve(state: StateSpec, half_width: float, s1: int, s2: int,
                          t1: float, t2_grid: np.ndarray, n_max: int) -> np.ndarray:
    """Window-projector quasi-probability over a grid of t2 values."""
    return _q_window(state, half_width, s1, s2, t1, np.asarray(t2_grid, dtype=float),
                     n_max)[0]


def qpd_series_thermal(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                       trunc: TruncationConfig | None = None, with_info: bool = False):
    """Series quasi-probability for a thermal squeezed coherent state.

    Adds to the pure-state series a geometrically weighted sum over the
    initial occupation m: conjugate-phase and mixed-phase J products plus the
    diagonal overlap family coupling J_nn factors of both measurement cuts.
    Reduces exactly to the pure evaluator at n_th = 0.  This is the
    one-point call of the t2-array kernel of :func:`q_thermal_series_curve`.
    """
    if state.n_th == 0:
        return qpd_series_squeezed(state, s1, s2, t1, t2, trunc, with_info)
    q, n_terms, singular, m_cut, m_tail = _q_thermal(
        state, s1, s2, t1, np.array([float(t2)]), trunc or DEFAULT_TRUNCATION)
    return _point(q[0], n_terms[:, 0], singular[0], with_info, m_used=m_cut, m_tail=m_tail)


def q_thermal_series_curve(state: StateSpec, s1: int, s2: int, t1: float,
                           t2_grid: np.ndarray, n_max: int) -> np.ndarray:
    """Thermal sign-projector quasi-probability (n_th > 0) over a grid of t2
    values, with the default occupation cut."""
    if state.n_th == 0:
        raise ValueError("thermal curve requires n_th > 0; use q_sign_series_curve")
    return _q_thermal(state, s1, s2, t1, np.asarray(t2_grid, dtype=float),
                      TruncationConfig(n_max=n_max))[0]


@functools.lru_cache(maxsize=1)
def _thermal_fixed_cut(cut: float, w: float, m_cut: int, n_max: int):
    """The t1-only pieces of the thermal kernel: the row J_0n(cut, inf), the
    diagonal J_mm(cut, inf) for m <= m_cut, and B_mn = w^m J_mn(cut, inf) /
    (2 (n - m)) with the m = 0 row, the n = 0 column and the diagonal zeroed.
    Cached read-only, because every t2 probe of a minimization shares them;
    one entry suffices, since a minimization has one fixed cut, and keeps the
    (m_cut + 1) x (n_max + 1) block from piling up at large n_max."""
    block = j_block(cut, m_cut, n_max)
    m = np.arange(m_cut + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        b = w ** m * block / (2.0 * (np.arange(n_max + 1) - m))
    b[0] = b[:, 0] = 0.0
    np.fill_diagonal(b, 0.0)
    out = (block[0].copy(), np.diagonal(block).copy(), b)
    for arr in out:
        arr.flags.writeable = False
    return out


def _q_thermal(state: StateSpec, s1: int, s2: int, t1: float, t2: np.ndarray,
               trunc: TruncationConfig):
    """Thermal kernel over K values of t2: (q, n_terms, singular, m_cut,
    m_tail), with the eigenbasis terms n_terms of shape (n_max, K) and the
    occupation sum cut at m_cut with remainder m_tail.

    The mixed-phase family sum_m w^m cos((m-n) phi) J_mn(-a1) J_mn(-a2)
    takes J_mn(-a2) in its rank-2 Wronskian form and cos((m-n) phi) as
    cos m phi cos n phi + sin m phi sin n phi, so it is one product of the
    fixed B^T with an (m_cut+1) x 4K array; no (m, n, K) array is built.
    Singular phases are overwritten by the completeness branch.
    """
    _check_signs(s1, s2)
    n_th, n_max = state.n_th, trunc.n_max
    w = n_th / (1.0 + n_th)
    m_cut = _occupation_cut(n_th, n_max)
    m_tail = w ** (m_cut + 1)
    if m_tail > trunc.tail_tol:
        warnings.warn(
            f"thermal occupation sum truncated at m={m_cut} with remainder "
            f"{m_tail:.3e} > tail_tol={trunc.tail_tol:.1e}",
            TruncationWarning, stacklevel=3)

    _, _, a1, a2, phi = _geometry(state, t1, t2)
    row1, diag1, b = _thermal_fixed_cut(float(-a1), w, m_cut, n_max)
    k = t2.size
    # a single cut takes the memoized NumPy-scalar recurrence, which is faster
    psi = (psi_rows(float(-a2[0]), n_max)[:, None] if k == 1
           else psi_rows(-a2, n_max))
    low = lowered(psi)
    n = np.arange(n_max + 1)[:, None]
    cos_n, sin_n = np.cos(n * phi), np.sin(n * phi)
    m = slice(0, m_cut + 1)
    c = b.T @ np.concatenate([cos_n[m] * psi[m], cos_n[m] * low[m],
                              sin_n[m] * psi[m], sin_n[m] * low[m]], axis=1)
    mixed = (cos_n * (low * c[:, :k] - psi * c[:, k:2 * k])
             + sin_n * (low * c[:, 2 * k:3 * k] - psi * c[:, 3 * k:]))

    # J_0n(-a2) = psi_0 psi_{n-1} / sqrt(2n) for n >= 1, as in j_row
    row2 = psi[0] * psi[:-1] / np.sqrt(2.0 * n[1:])
    n_terms = cos_n[1:] * row2 * row1[1:, None] + mixed[1:]
    wm = w ** n[1:m_cut + 1]
    s_up = (wm * cos_n[1:m_cut + 1] * row2[:m_cut] * row1[1:m_cut + 1, None]).sum(axis=0)
    # the occupation sums converge geometrically; the eigenbasis index n does
    # not, so its tail is summed in stabilized form
    phase_sum = averaged_partial_sum(n_terms)

    diag2 = ladder_diagonal(-a2, psi[m])
    k1 = diag1 if s1 == 1 else 1.0 - diag1
    k2 = diag2 if s2 == 1 else 1.0 - diag2
    ee = (wm * k2[1:] * k1[1:, None]).sum(axis=0)

    block = 0.25 * (1.0 + s1 * _sp.erf(a1)) * (1.0 + s2 * _sp.erf(a2))
    q = (block + s1 * s2 * (phase_sum + s_up) + ee) / (1.0 + n_th)
    singular = abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    if singular.any():
        q = _fill_singular(
            q, singular, phi, _halfline, s1, s2, -a1, -a2,
            lambda region: float(w ** np.arange(m_cut + 1) @ _psi_sq_weights(region, m_cut))
            / (1.0 + n_th))
    return q, n_terms, singular, m_cut, m_tail
