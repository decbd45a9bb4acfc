"""Eigenbasis series evaluation of the two-time quasi-probability.

Each projector sandwiched between energy eigenstates reduces to half-line (or
window) matrix elements J of the eigenfunctions, evaluated at cuts rescaled by
the width lambda(t); free evolution contributes the phase
``exp(-i n (omega (t2-t1) + beta(t2) - beta(t1)))``.  The evaluators share a
closed erf block plus a truncated phase sum over J products:

* coherent and squeezed pure states (sign projectors),
* thermal squeezed coherent states (extra geometrically weighted sums over
  the initial occupation, plus a diagonal overlap family), evaluated by one
  kernel over an array of t2 values whose t1-only pieces are cached,
* squeezed vacuum with symmetric window projectors.

When the total phase per quantum is a multiple of pi the two measured
quadratures commute, the phase sum loses its oscillatory cancellation, and
the truncated series converges like n^(-1/2); those separations are instead
evaluated exactly through projector completeness (the sum collapses to an
overlap integral of interval indicators, with a parity reflection when the
phase is an odd multiple of pi).
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
from .special import averaged_partial_sum, psi_rows
from .states import (DEFAULT_UNITS, ZERO_OFFSET, OffsetFunction, StateSpec,
                     UnitsConfig, lambda_of, phase_beta_of, thermal_m_cut,
                     x_xi_of)

#: |sin(total phase)| below which the exact completeness branch is used.
SINGULAR_PHASE_TOL = 1e-9

_INF = math.inf


@dataclass(frozen=True)
class TruncationConfig:
    """Series truncation controls.

    ``n_max`` caps the eigenbasis sum, ``tail_tol`` is the certification
    target for the reported tail bound, and ``m_max`` caps the thermal
    occupation sum (None picks the smallest cut with thermal weight below
    1e-12).
    """

    n_max: int = 200
    tail_tol: float = 1e-8
    m_max: int | None = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        if self.m_max is not None and self.m_max < 1:
            raise ValueError("m_max must be >= 1 when given")


DEFAULT_TRUNCATION = TruncationConfig()


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
            L = self.window_halfwidth
            if L is None or not (math.isfinite(L) and L > 0):
                raise ValueError("window projector requires window_halfwidth > 0")
            if not self.offset.is_zero:
                raise ValueError("window projector does not take an offset")

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


def _phase_eta(phi: float):
    """(is_singular, eta) with eta = +/-1 when phi is within tolerance of a
    multiple of pi (eta = exp(-i phi) there)."""
    if abs(math.sin(phi)) >= SINGULAR_PHASE_TOL:
        return False, 0
    return True, (1 if math.cos(phi) > 0 else -1)


def _regions_at_eta(region1, region2, eta: int):
    return _intersect(region2, region1 if eta == 1 else _reflect(region1))


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _geometry(state: StateSpec, t1: float, t2: float, units: UnitsConfig):
    lam1 = lambda_of(t1, state.r, state.theta0, units)
    lam2 = lambda_of(t2, state.r, state.theta0, units)
    b1 = phase_beta_of(t1, state.r, state.theta0, units)
    b2 = phase_beta_of(t2, state.r, state.theta0, units)
    a1 = x_xi_of(t1, state.xi, units) / lam1
    a2 = x_xi_of(t2, state.xi, units) / lam2
    phi = units.omega * (t2 - t1) + (b2 - b1)
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


def _check_signs(s1: int, s2: int) -> None:
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise ValueError(f"s1 and s2 must be +1 or -1, got {s1!r}, {s2!r}")


def _q_sign_pure(a1: float, a2: float, phi: float, s1: int, s2: int, n_max: int,
                 with_info: bool):
    singular, eta = _phase_eta(phi)
    if singular:
        region = _regions_at_eta(_halfline(s1, -a1), _halfline(s2, -a2), eta)
        return _ground_weight(region), SeriesInfo(0, 0.0, True)
    e1, e2 = _sp.erf(a1), _sp.erf(a2)
    block = 0.25 * (1.0 + s1 * e1) * (1.0 + s2 * e2)
    row1 = j_row(-a1, n_max)
    row2 = j_row(-a2, n_max)
    n = np.arange(1, n_max + 1)
    terms = np.cos(n * phi) * row1[1:] * row2[1:]
    q = block + s1 * s2 * float(averaged_partial_sum(terms))
    if not with_info:
        return q, None
    return q, SeriesInfo(n_max, series_tail_estimate(terms), False)


def qpd_series_coherent(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                        trunc: TruncationConfig | None = None,
                        units: UnitsConfig = DEFAULT_UNITS, with_info: bool = False):
    """Series quasi-probability for a pure coherent state (r = 0, n_th = 0)."""
    if state.r != 0:
        raise ValueError("qpd_series_coherent requires r = 0; use qpd_series_squeezed")
    return qpd_series_squeezed(state, s1, s2, t1, t2, trunc, units, with_info)


def qpd_series_squeezed(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                        trunc: TruncationConfig | None = None,
                        units: UnitsConfig = DEFAULT_UNITS, with_info: bool = False):
    """Series quasi-probability for a pure squeezed coherent state.

    The reported ``tail_bound`` certifies truncation when it is below the
    configured ``tail_tol``; near-degenerate time separations converge slowly
    and are reported honestly through a large bound.
    """
    _check_signs(s1, s2)
    if state.n_th != 0:
        raise ValueError("pure-state evaluator requires n_th = 0; use qpd_series_thermal")
    trunc = trunc or DEFAULT_TRUNCATION
    _, _, a1, a2, phi = _geometry(state, t1, t2, units)
    q, info = _q_sign_pure(a1, a2, phi, s1, s2, trunc.n_max, with_info)
    return (q, info) if with_info else q


def qpd_series_thermal(state: StateSpec, s1: int, s2: int, t1: float, t2: float,
                       trunc: TruncationConfig | None = None,
                       units: UnitsConfig = DEFAULT_UNITS, with_info: bool = False):
    """Series quasi-probability for a thermal squeezed coherent state.

    Adds to the pure-state series a geometrically weighted sum over the
    initial occupation m: conjugate-phase and mixed-phase J products plus the
    diagonal overlap family coupling J_nn factors of both measurement cuts.
    Reduces exactly to the pure evaluator at n_th = 0.  This is the
    one-point call of the t2-array kernel of :func:`q_thermal_series_curve`.
    """
    _check_signs(s1, s2)
    if state.n_th == 0:
        return qpd_series_squeezed(
            StateSpec(state.xi, state.r, state.theta0, 0.0), s1, s2, t1, t2,
            trunc, units, with_info)
    q, n_terms, singular, m_cut, m_tail = _q_thermal(
        state, s1, s2, t1, np.array([float(t2)]), trunc or DEFAULT_TRUNCATION, units)
    if not with_info:
        return float(q[0])
    n_used = 0 if singular[0] else n_terms.shape[0]
    bound = 0.0 if singular[0] else series_tail_estimate(n_terms[:, 0])
    return float(q[0]), SeriesInfo(n_used, bound, bool(singular[0]),
                                   m_used=m_cut, m_tail=m_tail)


def q_thermal_series_curve(state: StateSpec, s1: int, s2: int, t1: float,
                           t2_grid: np.ndarray, n_max: int,
                           units: UnitsConfig = DEFAULT_UNITS) -> np.ndarray:
    """Thermal sign-projector quasi-probability (n_th > 0) over a grid of t2
    values, with the default occupation cut."""
    _check_signs(s1, s2)
    if state.n_th == 0:
        raise ValueError("thermal curve requires n_th > 0; use q_sign_series_curve")
    return _q_thermal(state, s1, s2, t1, np.asarray(t2_grid, dtype=float),
                      TruncationConfig(n_max=n_max), units)[0]


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
               trunc: TruncationConfig, units: UnitsConfig):
    """Thermal kernel over K values of t2: (q, n_terms, singular, m_cut,
    m_tail), with the eigenbasis terms n_terms of shape (n_max, K) and the
    occupation sum cut at m_cut with remainder m_tail.

    The mixed-phase family sum_m w^m cos((m-n) phi) J_mn(-a1) J_mn(-a2)
    takes J_mn(-a2) in its rank-2 Wronskian form and cos((m-n) phi) as
    cos m phi cos n phi + sin m phi sin n phi, so it is one product of the
    fixed B^T with an (m_cut+1) x 4K array; no (m, n, K) array is built.
    Singular phases are overwritten by the completeness branch.
    """
    n_th, n_max = state.n_th, trunc.n_max
    w = n_th / (1.0 + n_th)
    m_cut = trunc.m_max if trunc.m_max is not None else thermal_m_cut(n_th, 1e-12)
    m_tail = w ** (m_cut + 1)
    if m_tail > trunc.tail_tol:
        warnings.warn(
            f"thermal occupation sum truncated at m={m_cut} with remainder "
            f"{m_tail:.3e} > tail_tol={trunc.tail_tol:.1e}",
            TruncationWarning, stacklevel=3)
    if n_max < m_cut:
        raise TruncationError(
            f"n_max={n_max} is below the thermal occupation cut m_max={m_cut}; "
            "raise TruncationConfig.n_max")

    _, _, a1, a2, phi = _geometry(state, t1, t2, units)
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
    singular = np.abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    for j in np.nonzero(singular)[0]:
        eta = 1 if math.cos(phi[j]) > 0 else -1
        region = _regions_at_eta(_halfline(s1, -a1), _halfline(s2, -float(a2[j])), eta)
        weights = _psi_sq_weights(region, m_cut)
        q[j] = float(w ** np.arange(m_cut + 1) @ weights) / (1.0 + n_th)
    return q, n_terms, singular, m_cut, m_tail


def qpd_series_window(state: StateSpec, half_width: float, s1: int, s2: int,
                      t1: float, t2: float, trunc: TruncationConfig | None = None,
                      units: UnitsConfig = DEFAULT_UNITS, with_info: bool = False):
    """Series quasi-probability for squeezed vacuum with window projectors.

    Outcome +1 projects onto |x| > L at measurement time; the width rescaling
    turns the cuts into +/- L/lambda(t_i).  Only even orders contribute by
    parity, so the result is periodic in t2 with period pi/omega.
    """
    _check_signs(s1, s2)
    if state.xi != 0:
        raise ValueError("window evaluator requires xi = 0 (squeezed vacuum)")
    if state.n_th != 0:
        raise ValueError("window evaluator requires n_th = 0")
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValueError(f"half_width must be positive, got {half_width!r}")
    trunc = trunc or DEFAULT_TRUNCATION
    lam1, lam2, _, _, phi = _geometry(state, t1, t2, units)
    h1, h2 = half_width / lam1, half_width / lam2

    singular, eta = _phase_eta(phi)
    if singular:
        region = _regions_at_eta(_window_region(s1, h1), _window_region(s2, h2), eta)
        q = _ground_weight(region)
        info = SeriesInfo(0, 0.0, True)
        return (q, info) if with_info else q

    qbar1 = 1.0 - 2.0 * _sp.erf(h1)
    qbar2 = 1.0 - 2.0 * _sp.erf(h2)
    block = 0.25 * (1.0 + s1 * qbar1) * (1.0 + s2 * qbar2)
    d1 = _window_row(h1, trunc.n_max)
    d2 = _window_row(h2, trunc.n_max)
    n = np.arange(1, trunc.n_max + 1)
    terms = np.cos(n * phi) * d1[1:] * d2[1:]
    q = block + s1 * s2 * float(averaged_partial_sum(terms))
    if not with_info:
        return q
    return q, SeriesInfo(trunc.n_max, series_tail_estimate(terms), False)


# ---------------------------------------------------------------------------
# vectorized t2-grid helpers used by the scan engine
# ---------------------------------------------------------------------------

def q_sign_series_curve(state: StateSpec, s1: int, s2: int, t1: float,
                        t2_grid: np.ndarray, n_max: int,
                        units: UnitsConfig = DEFAULT_UNITS) -> np.ndarray:
    """Pure-state sign-projector quasi-probability over a grid of t2 values."""
    _check_signs(s1, s2)
    if state.n_th != 0:
        raise ValueError("curve helper covers pure states only")
    _, _, a1, a2, phi = _geometry(state, t1, np.asarray(t2_grid, dtype=float), units)

    e1, e2 = _sp.erf(a1), _sp.erf(a2)
    block = 0.25 * (1.0 + s1 * e1) * (1.0 + s2 * e2)
    row1 = j_row(-a1, n_max)
    rows2 = j_row(-a2, n_max)
    n = np.arange(1, n_max + 1)
    terms = row1[1:, None] * rows2[1:] * np.cos(n[:, None] * phi[None, :])
    q = block + s1 * s2 * averaged_partial_sum(terms)

    sing = np.abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    for k in np.nonzero(sing)[0]:
        eta = 1 if math.cos(phi[k]) > 0 else -1
        region = _regions_at_eta(_halfline(s1, -a1), _halfline(s2, -float(a2[k])), eta)
        q[k] = _ground_weight(region)
    return q


def q_window_series_curve(state: StateSpec, half_width: float, s1: int, s2: int,
                          t1: float, t2_grid: np.ndarray, n_max: int,
                          units: UnitsConfig = DEFAULT_UNITS) -> np.ndarray:
    """Window-projector quasi-probability over a grid of t2 values."""
    _check_signs(s1, s2)
    lam1, lam2, _, _, phi = _geometry(state, t1, np.asarray(t2_grid, dtype=float), units)
    h1, h2 = half_width / lam1, half_width / lam2

    qbar1 = 1.0 - 2.0 * _sp.erf(h1)
    qbar2 = 1.0 - 2.0 * _sp.erf(h2)
    block = 0.25 * (1.0 + s1 * qbar1) * (1.0 + s2 * qbar2)
    d1 = _window_row(h1, n_max)
    d2 = _window_row(h2, n_max)
    n = np.arange(1, n_max + 1)
    terms = d1[1:, None] * d2[1:] * np.cos(n[:, None] * phi[None, :])
    q = block + s1 * s2 * averaged_partial_sum(terms)

    sing = np.abs(np.sin(phi)) < SINGULAR_PHASE_TOL
    for k in np.nonzero(sing)[0]:
        eta = 1 if math.cos(phi[k]) > 0 else -1
        region = _regions_at_eta(_window_region(s1, h1), _window_region(s2, float(h2[k])), eta)
        q[k] = _ground_weight(region)
    return q
