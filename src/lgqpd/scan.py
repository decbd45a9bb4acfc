"""Parameter sweeps and minimization of the quasi-probability.

A scan evaluates the minimum over t2 of q_{s1,s2}(t1, t2) on a 2-D parameter
grid: either the displacement plane (x0, p0) at fixed squeezing, or the
(r, L) plane of the window projector for squeezed vacuum.  Grid rows are
independent tasks, each with one kernel call for its cells' coarse t2
curves and one call per round of their refinements' probes, so grids may
be evaluated by a worker pool.  A search whose curve is symmetric about its
window centre asks that coarse call for the centre as well, and takes the
value there as its first probe, which is then no call of its own.  Results
are written into preallocated arrays indexed by grid coordinates and
reduced in a fixed row-major order, which makes output byte-identical for
any worker count.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, NamedTuple

import numpy as np

from .integral import DEFAULT_QUAD_ORDER, _check_order, _check_pure, _q_integral, qpd_integral
from .fock import DEFAULT_DIM, _check_dim, q_oracle_curve, qpd_oracle
from .series import (DEFAULT_TRUNCATION, MeasurementSpec, TruncationConfig, _cell_calls,
                     _cell_values, _check_finite, _check_signs, _check_squeezed_vacuum,
                     _SeriesCell)
from .states import T2_PERIOD, OffsetFunction, StateSpec, thermal_m_cut, time_reversal_fixes

#: Absolute tolerance of the t2 refinement: it stops once its next step, or
#: half its bracket, is below XATOL.  It is also the step of the central
#: difference that gives the integral and oracle evaluators their slope
#: (:func:`_difference_slope`), and the distance from a window end of the
#: probe that confirms a minimum there.
XATOL = 1e-9

#: Rounding of a q value relative to max(|q|, 1), below which two values'
#: difference is noise: q sums terms of order one, so its rounding does not
#: shrink with |q|.
_ROUNDING = 64 * np.finfo(float).eps

LUDERS_FLOOR = -0.125 - 1e-6

PLANES = ("x0p0", "rL")
ROUTES = ("integral", "series", "oracle")
#: The named parameters that :func:`named_evaluator` reads.
_PARAM_NAMES = frozenset({"s1", "s2", "t1", "x0", "p0", "r", "theta0", "n_th", "L",
                         "offset", "quad_order", "oracle_dim"})


@dataclass(frozen=True)
class T2Search:
    """Search window for the inner t2 minimization, its coarse grid size, and
    ``refine_iters``, the cap on the refinement's probes, each one (q,
    dq/dt2) call of the evaluator's ``slope``, the probe that confirms a
    minimum at a window end included (0 keeps the coarse point)."""

    t2_min: float = 0.0
    t2_max: float = 2.0 * math.pi
    coarse_steps: int = 200
    refine_iters: int = 40

    def __post_init__(self):
        if not -math.inf < self.t2_min < self.t2_max < math.inf:
            raise ValueError("t2_min and t2_max must be finite, with t2_max > t2_min")
        object.__setattr__(self, "coarse_steps", _whole("coarse_steps", self.coarse_steps, 2))
        object.__setattr__(self, "refine_iters", _whole("refine_iters", self.refine_iters, 0))

    def grid(self) -> np.ndarray:
        """The coarse grid of t2 values, read-only and built once per search
        spec: every search of a scan row or of :func:`global_minimize` shares
        it."""
        return self._grid

    @functools.cached_property
    def _grid(self) -> np.ndarray:
        grid = np.linspace(self.t2_min, self.t2_max, self.coarse_steps)
        grid.flags.writeable = False
        return grid


class T2Minimum(tuple):
    """``(q_min, t2_argmin)`` of :func:`minimize_over_t2`, with the
    refinement's probes ``evals``, ``capped``, true when it spent
    its ``refine_iters`` before its step fell below ``XATOL``, and
    ``reflected``, true when its coarse curve ran on half its grid.  A
    reflected search's probe at the window centre, taken from its coarse
    curve call, is not counted in ``evals``."""

    def __new__(cls, q: float, t2: float, evals: int = 0, capped: bool = False,
                reflected: bool = False):
        out = super().__new__(cls, (q, t2))
        out.evals, out.capped, out.reflected = evals, capped, reflected
        return out


def minimize_over_t2(evaluator, curve, search: T2Search) -> T2Minimum:
    """Minimum of a continuous evaluator over t2: ``curve`` on the coarse grid,
    then a safeguarded Newton-secant search for a zero of dq/dt2 in the grid
    bracket around the best point, within ``search.refine_iters`` probes
    (:class:`T2Search`).  Every probe is one call of ``evaluator.slope``.
    The coarse point, and every point probed, is kept when it is the
    lowest.

    A best point at either end of the window is first probed once, ``XATOL``
    inside it: when that probe is not lower, the bracket being unimodal puts
    the minimum within ``XATOL`` of the end, and the coarse point is returned
    after that one call; otherwise the search runs as for an interior bracket.

    The search starts at the vertex of the parabola through the three coarse
    values around the best point (the bracket's midpoint when they have no
    vertex inside it), whose curvature sets the first Newton step.  Each
    probe shrinks the bracket by the sign of its slope; the next point is the
    secant zero of the last two slopes, or the intersection of their tangents
    when the values show a kink between them, and the bracket's midpoint
    when that step leaves the bracket or a probe has no slope.  A probe
    without a slope that is the lowest point yet ends the search: on the
    series route that is the exact value at a commuting separation, a cusp of
    q; a higher one shrinks the bracket to the side of the lowest point.

    ``evaluator`` maps one t2 to q, and its ``slope`` attribute maps one t2
    to (q, dq/dt2 or None); every evaluator of :func:`named_evaluator` has
    one.  With ``search.refine_iters > 0`` an evaluator without ``slope`` is
    refused with a TypeError before anything is evaluated.  Its ``period``
    attribute, when it has one, is q's period P in t2, and says that q(t2) =
    q(-t2) (:func:`named_evaluator` sets it where time reversal fixes the
    cell): on a grid that folds for P (:func:`_folds`) the coarse curve is
    asked for the first ceil(K/2) grid points only, and each later point is
    filled from its mirror, q(t_{K-1-k}) = q(t_k).  That call also takes the
    window centre c = (t2_min + t2_max) / 2, where dq/dt2 = 0 by symmetry:
    when the best coarse point is the half grid's last (even K) or middle
    (odd K) point, the first probe is c, and it is taken from the curve call,
    with that slope (none where the series kernel meets a singular phase at
    c), not made as a call of its own and not counted in ``evals``.
    ``curve`` maps an array of t2 values, the grid, or that first half
    followed by c, to their q values.
    """
    if search.refine_iters and getattr(evaluator, "slope", None) is None:
        raise TypeError("the t2 refinement probes evaluator.slope(t2) -> (q, dq/dt2), "
                        "which this evaluator lacks; pass refine_iters=0 to skip it")
    return _drive([_t2_search(evaluator, curve, search)], _serve)[0]


class _Request(NamedTuple):
    """A request of a t2 search (:func:`_t2_search`): when ``curve`` is
    given, the values of ``curve`` on ``t2``, the coarse grid or its first
    half, answered together with the probe (q, dq/dt2 or None) at
    ``centre``, a folded grid's window centre, or with None when there is no
    centre; otherwise the probe (q, dq/dt2 or None) of the ``evaluator`` at
    the float ``t2``."""

    evaluator: object
    t2: object
    curve: Callable | None = None
    centre: float | None = None


def _t2_search(evaluator, curve, search: T2Search):
    """The search of :func:`minimize_over_t2` as a generator: it yields
    each of its :class:`_Request`s and is sent the answer, and it returns the
    :class:`T2Minimum`, so that :func:`_drive` can serve the requests of
    many searches together.  The coarse curve is asked for half the grid
    and the window centre when the evaluator's ``period`` folds it
    (:func:`_folds`), and the refinement (:func:`_refine`) runs on the whole
    grid's values and the centre's probe."""
    grid = search.grid()
    period = getattr(evaluator, "period", None)
    half = period is not None and _folds(search, period)
    t2 = grid[:(len(grid) + 1) // 2] if half else grid
    centre = 0.5 * (search.t2_min + search.t2_max) if half else None
    values, probe = yield _Request(evaluator, t2, curve, centre)
    values = np.asarray(values, dtype=float)
    if half:  # K >= 4, so the mirrored slice starts at index 1 or later
        values = np.concatenate([values, values[len(grid) // 2 - 1::-1]])
        probe = (centre, *probe)
    return T2Minimum(*(yield from _refine(evaluator, grid, values, search, probe)),
                     reflected=half)


@functools.lru_cache(maxsize=8)
def _folds(search: T2Search, period: float) -> bool:
    """Whether a curve with q(t2) = q(-t2) and period P repeats its first
    ceil(K/2) values of ``search.grid()`` on the rest: K >= 4, and every
    pair t_k + t_{K-1-k} is one multiple m P within 4 ulps of m P, so that
    q(t_{K-1-k}) = q(m P - t_k) = q(t_k).  Cached, because every search of a
    scan row, and of a minimization, shares its spec."""
    grid = search.grid()
    pairs = grid + grid[::-1]
    target = round(pairs[0] / period) * period
    return len(grid) >= 4 and bool(np.all(np.abs(pairs - target) <= 4.0 * math.ulp(target)))


def _refine(evaluator, grid, values, search: T2Search, centre=None):
    """The refinement of :func:`_t2_search` from the coarse ``values`` on
    ``grid``, as a generator of its requests that returns (q, t2, evals,
    capped).  ``centre`` is a folded grid's (c, q, dq/dt2 or None) at its
    window centre c, where q is symmetric and its first probe goes when the
    best coarse point is the half grid's last (even K) or middle (odd K)
    point: that probe is taken from it, and is not counted in ``evals``."""
    i, last = int(np.nanargmin(values)), len(grid) - 1
    best_q, best_t = float(values[i]), float(grid[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, last)])
    if search.refine_iters == 0 or not hi > lo:
        return best_q, best_t
    evals = 0
    if i in (0, last):
        inside = min(best_t + XATOL, hi) if i == 0 else max(best_t - XATOL, lo)
        (q, _), evals = (yield _Request(evaluator, inside)), 1
        if not q < best_q:
            return best_q, best_t, evals
        best_q, best_t = q, inside
    # the parabola through the coarse values around the best point
    x, curvature = 0.5 * (lo + hi), None
    if last >= 2:
        j = min(max(i, 1), last - 1)
        step = grid[j + 1] - grid[j]
        bend = (values[j + 1] - 2.0 * values[j] + values[j - 1]) / step ** 2
        if bend > 0:
            curvature = bend
            vertex = grid[j] - (values[j + 1] - values[j - 1]) / (2.0 * step * bend)
            if lo < vertex < hi:
                x = float(vertex)
    if centre is not None and i == last // 2:
        x = centre[0]
    else:
        centre = None
    prev = None  # the last probe with a slope: (t2, q, dq/dt2)
    while centre or evals < search.refine_iters:
        if centre:
            (_, q, d), centre = centre, None
        else:
            q, d = yield _Request(evaluator, x)
            evals += 1
        sloped = d is not None and math.isfinite(d)
        if q < best_q:
            best_q, best_t = float(q), float(x)
            if not sloped or d == 0.0:
                return best_q, best_t, evals
            lo, hi = (lo, x) if d > 0 else (x, hi)
        else:  # the lowest point, and so a minimum, lies on its side of x
            lo, hi = (lo, x) if best_t < x else (x, hi)
        nxt = None
        if sloped:
            if prev is not None and d != prev[2]:
                t0, q0, d0 = prev
                nxt = x - d * (x - t0) / (d - d0)
                # values off the secant's quadratic model by much more than
                # their rounding mark a kink, whose minimum is where the two
                # tangents meet
                off = abs(q - q0 - 0.5 * (d + d0) * (x - t0))
                if d * d0 < 0 and off > (0.1 * abs((d - d0) * (x - t0))
                                         + _ROUNDING * max(abs(q), abs(q0), 1.0)):
                    nxt = (q0 - q + d * x - d0 * t0) / (d - d0)
            elif prev is None and curvature is not None:
                nxt = x - d / curvature
            prev = x, q, d
        if nxt is not None and abs(nxt - x) < XATOL or hi - lo < 2.0 * XATOL:
            return best_q, best_t, evals
        x = nxt if nxt is not None and lo < nxt < hi else 0.5 * (lo + hi)
    return best_q, best_t, evals, True


@dataclass(frozen=True)
class ScanConfig:
    """Flat configuration of one plane scan (field names double as the
    key-value config file keys); the plane names the projector and the two
    coordinates its axes supply.  Times are t at angular frequency ``omega``:
    every kernel gets omega*t, and ``t2_argmin`` comes back as t."""

    plane: str
    route: str
    s1: int
    s2: int
    t1: float = 0.0
    r: float = 0.0
    theta0: float = 0.0
    n_th: float = 0.0
    offset_amp: float = 0.0
    offset_phase: float = 0.0
    offset_const: float = 0.0
    axis1_min: float = -2.0
    axis1_max: float = 2.0
    axis1_steps: int = 2
    axis2_min: float = -2.0
    axis2_max: float = 2.0
    axis2_steps: int = 2
    t2_min: float = T2Search.t2_min
    t2_max: float = T2Search.t2_max
    t2_coarse_steps: int = T2Search.coarse_steps
    t2_refine_iters: int = T2Search.refine_iters
    n_max: int = DEFAULT_TRUNCATION.n_max
    quad_order: int = DEFAULT_QUAD_ORDER
    oracle_dim: int = DEFAULT_DIM
    omega: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if self.plane not in PLANES:
            raise ValueError(f"plane must be one of {PLANES}, got {self.plane!r}")
        # A single-step axis pins that coordinate, giving a 1-cell (or 1-row)
        # scan; the other counts are range-checked where they are read.
        for name, least in (("axis1_steps", 1), ("axis2_steps", 1), ("t2_coarse_steps", None),
                            ("t2_refine_iters", None), ("n_max", None), ("quad_order", None),
                            ("oracle_dim", None)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), least))
        self.t2_search()
        if self.plane == "rL" and self.r != 0:
            raise ValueError(f"the rL plane scans r; r must be 0, got {self.r!r}")
        # The dispatch judges every input rule.  The axes are linspaces, so a
        # rule on one cell coordinate holds on the whole grid when it holds at
        # the first and the last cell.
        ax1, ax2 = self.axis1_values(), self.axis2_values()
        for i in (0, -1):
            _cell_evaluator(self, float(ax1[i]), float(ax2[i]))

    @property
    def projector(self) -> str:
        """The plane names the projector: sign on x0p0, window on rL."""
        return "sign" if self.plane == "x0p0" else "window"

    @property
    def axis1_name(self) -> str:
        return "x0" if self.plane == "x0p0" else "r"

    @property
    def axis2_name(self) -> str:
        return "p0" if self.plane == "x0p0" else "L"

    def axis1_values(self) -> np.ndarray:
        return np.linspace(self.axis1_min, self.axis1_max, self.axis1_steps)

    def axis2_values(self) -> np.ndarray:
        return np.linspace(self.axis2_min, self.axis2_max, self.axis2_steps)

    def t2_search(self) -> T2Search:
        """The inner search, over the window omega*t2."""
        return T2Search(self.omega * self.t2_min, self.omega * self.t2_max,
                        self.t2_coarse_steps, self.t2_refine_iters)

    def offset(self) -> OffsetFunction:
        return OffsetFunction(self.offset_amp, self.offset_phase, self.offset_const)


@dataclass(frozen=True)
class ScanResult:
    """Grid of t2-minimized quasi-probabilities with the global minimum, the
    seconds spent on the coarse curves and on the refinements, the
    refinements' probes, and ``refine_capped``, the cells whose
    refinement spent its whole ``t2_refine_iters`` before its step fell below
    ``XATOL``, each summed over the grid's rows (over every worker) and
    counting only the cells that ran a search; ``mirror_filled`` is the
    number of cells filled from their time-reversal partner instead
    (:func:`_mirror_partners`), and ``reflected`` the number of searched
    cells whose coarse curve ran on half its grid (:func:`_t2_search`)."""

    config: ScanConfig
    axis1: np.ndarray
    axis2: np.ndarray
    q_min: np.ndarray
    t2_argmin: np.ndarray
    n_failed: int
    global_min: float
    global_argmin: tuple[float, float, float]  # (axis1, axis2, t2)
    coarse_s: float = 0.0
    refine_s: float = 0.0
    refine_evals: int = 0
    refine_capped: int = 0
    mirror_filled: int = 0
    reflected: int = 0


def _cell_evaluator(config: ScanConfig, a1: float, a2: float):
    """The dispatch's ``(evaluator, curve)`` for one grid cell; it rejects
    what the route cannot honour."""
    params = {"s1": config.s1, "s2": config.s2, "t1": config.omega * config.t1,
              config.axis1_name: a1, config.axis2_name: a2, "theta0": config.theta0,
              "n_th": config.n_th, "offset": config.offset(),
              "quad_order": config.quad_order, "oracle_dim": config.oracle_dim}
    params.setdefault("r", config.r)  # unless the first axis supplies r
    return named_evaluator(params, config.route, config.projector, config.n_max)


def _mirror_partners(config: ScanConfig, axis2: np.ndarray) -> list:
    """For each cell of a row, the index of the cell it is filled from, or
    None for a cell that runs its own search.

    On the x0p0 plane, when time reversal maps the measurement onto itself
    (:func:`states.time_reversal_fixes`), the cell at (x0, -p0) has the
    minimum of the cell at (x0, p0), at its t2 negated; on a t2 window of
    exactly one period (omega * t2_max - omega * t2_min == 2 pi) that t2 is
    folded into the window.  Every route and n_th qualifies.  Then a cell
    with p0 < 0 whose -p0 is exactly on ``axis2`` is filled from that cell.
    Otherwise every cell runs."""
    search = config.t2_search()
    state = StateSpec(r=config.r, theta0=config.theta0)
    if not (config.plane == "x0p0"
            and time_reversal_fixes(state, config.omega * config.t1, config.offset())
            and search.t2_max - search.t2_min == T2_PERIOD[config.projector]):
        return [None] * len(axis2)
    index = {float(p0): j for j, p0 in enumerate(axis2)}
    return [index.get(-float(p0)) if p0 < 0 else None for p0 in axis2]


def _scan_row(task):
    """Minimize over t2 in the cells of one grid row: the searches
    (:func:`_t2_search`) of the cells that ``partners`` does not fill
    (:func:`_mirror_partners`) run in lock-step rounds (:func:`_drive`),
    each round served in one call per request kind (:func:`_serve`), the
    first round the cells' coarse curves and the later ones their probes.  A
    filled cell takes its partner's q and its t2 negated and folded into the
    window.  A cell whose evaluator, search or requests raise is NaN by
    itself (:func:`_serve_kept`), and so is a cell filled from it.  Returns
    each cell's ``(q, t2, failed)``, the row's coarse and refinement seconds,
    the probes of its searched cells' refinements, the number of
    them that were capped and the number of them whose coarse curve ran on
    half its grid."""
    config, a1, axis2, partners = task
    search = config.t2_search()
    start = time.perf_counter()
    served = []

    def serve(requests) -> list:
        answers = _serve_kept(requests)
        served.append(time.perf_counter())
        return answers

    driven = [j for j, k in enumerate(partners) if k is None]
    found = dict(zip(driven, _drive([_kept_search(config, a1, float(axis2[j]), search)
                                     for j in driven], serve)))
    end = time.perf_counter()
    coarse = (served[0] if served else end) - start
    done = [f for f in found.values() if f is not None]
    period = search.t2_max - search.t2_min
    cells = []
    for j, k in enumerate(partners):
        f = found[j if k is None else k]
        if f is None:
            cells.append((math.nan, math.nan, True))
            continue
        t2 = f[1] if k is None else search.t2_min + (-f[1] - search.t2_min) % period
        cells.append((f[0], t2 / config.omega, False))
    return (cells, coarse, end - start - coarse, sum(f.evals for f in done),
            sum(f.capped for f in done), sum(f.reflected for f in done))


def _kept_search(config: ScanConfig, a1: float, a2: float, search: T2Search):
    """The t2 search of one cell, which returns None when building its
    evaluator raises, or its search, or an error is raised inside it for its
    request."""
    try:
        return (yield from _t2_search(*_cell_evaluator(config, a1, a2), search))
    except Exception:
        return None


def _drive(tasks, serve) -> list:
    """Run the generators ``tasks`` in lock-step rounds, and return what each
    returns, in order.

    A round collects the request that each live task yielded, in task order,
    and ``serve(requests)`` answers them in one call, one answer per
    request.  Each task is then sent its answer, in order, and runs to its
    next request or its end; an answer that is an exception is raised inside
    its task instead.  An error that a task or ``serve`` raises reaches the
    caller.  Everything runs on the calling thread, and a task's path depends
    on its own answers only, so each result is that of the task run alone.
    """
    results, live = [None] * len(tasks), []

    def step(i: int, resume, answer) -> None:
        try:
            live.append((i, resume(answer)))
        except StopIteration as stop:
            results[i] = stop.value

    for i, task in enumerate(tasks):
        step(i, task.send, None)
    while live:
        round_, live = live, []
        answers = serve([request for _, request in round_])
        for (i, _), answer in zip(round_, answers):
            step(i, tasks[i].throw if isinstance(answer, Exception) else tasks[i].send, answer)
    return results


def _serve(requests) -> list:
    """The answers to one round of :class:`_Request`s, in order: the series
    cells' coarse curves on one grid in one call (``series._cell_calls``)
    and their probes in one call (``series._cell_values``), each equal to
    the cell's own call bit for bit, and any other request through its own
    curve or ``evaluator.slope`` (integral and oracle cells, and a curve
    that is not the cell's own).  A grid that is the start of a longer grid
    of the round, as a folded search's first half is of the whole grid
    (:func:`_t2_search`), rides in that grid's call, and its curves are
    sliced from the longer ones.  The folded searches' window centres follow
    the longest grid in that call, each answered with q there and a slope
    of 0, which symmetry gives, or None where the series kernel evaluated a
    singular phase."""
    answers, groups = [None] * len(requests), {}
    for i, (evaluator, t2, curve, centre) in enumerate(requests):
        if isinstance(evaluator, _SeriesCell) and curve in (None, evaluator.curve):
            # the probes are one group, and the curves on each grid one more
            groups.setdefault(None if curve is None else t2.tobytes(), []).append(i)
        elif curve is None:
            answers[i] = evaluator.slope(t2)
        else:
            centres = [] if centre is None else [centre]
            answers[i] = _centred(requests[i], curve(np.append(t2, centres)), centres)
    grids = sorted((grid for grid in groups if grid is not None), key=len, reverse=True)
    for grid in grids:
        longer = [g for g in grids if len(g) > len(grid) and g.startswith(grid) and g in groups]
        if longer:
            groups[longer[0]] += groups.pop(grid)
    for grid, members in groups.items():
        batch = [requests[i] for i in members]
        if grid is None:
            values = _cell_values([(r.evaluator, r.t2) for r in batch])
        else:
            centres = list(dict.fromkeys(r.centre for r in batch if r.centre is not None))
            t2 = np.append(max((r.t2 for r in batch), key=len), centres)
            values = [_centred(r, v.q, centres, v.singular)
                      for r, v in zip(batch, _cell_calls([r.evaluator for r in batch], t2, False))]
        for i, value in zip(members, values):
            answers[i] = value
    return answers


def _centred(request: _Request, q, centres: list, singular=None) -> tuple:
    """The answer to the curve ``request`` from ``q``, its curve on a grid
    that its own starts and ``centres`` end: its grid's values, and the
    probe (q, 0.0, or None where ``singular``) at its centre, or None."""
    if request.centre is None:
        return q[:len(request.t2)], None
    k = len(q) - len(centres) + centres.index(request.centre)
    slope = None if singular is not None and singular[k] else 0.0
    return q[:len(request.t2)], (float(q[k]), slope)


def _serve_kept(requests) -> list:
    """:func:`_serve`, or, when that raises, each request served alone: one
    whose serving raises is answered by its error, which :func:`_drive`
    raises inside its search."""
    try:
        return _serve(requests)
    except Exception:
        pass
    answers = []
    for request in requests:
        try:
            answers += _serve([request])
        except Exception as exc:
            answers.append(exc)
    return answers


def scan_plane(config: ScanConfig, workers: int = 1) -> ScanResult:
    """Evaluate the t2-minimized quasi-probability on the configured grid.

    The tasks are the grid's rows (:func:`_scan_row`), whatever the number of
    ``workers``: each row evaluates its cells' coarse t2 curves in one kernel
    call and then refines its cells in lock-step rounds, one kernel call per
    round and family on the series route.  When the config is symmetric under
    time reversal, each row searches only one cell of each mirror pair and
    fills the other (:func:`_mirror_partners`), and a cell that time reversal
    leaves unchanged evaluates its coarse curve on half its grid and its
    window centre, on any route (:func:`_t2_search`); the centre's value is
    the first probe of its refinement when the minimum lies next to it, and
    is not counted in ``refine_evals``.  Per-cell failures are recorded as
    NaN cells, not raised.  The rows run in one process, or in a pool of
    ``workers`` processes, at most one per row.  The reduction to the global
    minimum runs single-threaded in row-major order, so the result does not
    depend on ``workers``.
    """
    ax1 = config.axis1_values()
    ax2 = config.axis2_values()
    partners = _mirror_partners(config, ax2)
    tasks = [(config, float(a1), ax2, partners) for a1 in ax1]
    q_min = np.full((len(ax1), len(ax2)), math.nan)
    t2_arg = np.full_like(q_min, math.nan)
    n_failed = 0
    coarse_s = refine_s = 0.0
    refine_evals = refine_capped = reflected = 0
    workers = min(workers, len(tasks))
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_scan_row, tasks, chunksize=1)
    else:
        results = map(_scan_row, tasks)
    for i, (cells, coarse, refine, evals, capped, half) in enumerate(results):
        for j, (q, t2, failed) in enumerate(cells):
            q_min[i, j] = q
            t2_arg[i, j] = t2
            n_failed += int(failed)
        coarse_s += coarse
        refine_s += refine
        refine_evals += evals
        refine_capped += capped
        reflected += half

    if np.isfinite(q_min).any():
        flat = np.where(np.isfinite(q_min), q_min, np.inf).ravel()
        i, j = divmod(int(np.argmin(flat)), len(ax2))
        gmin = float(q_min[i, j])
        garg = (float(ax1[i]), float(ax2[j]), float(t2_arg[i, j]))
        if gmin < LUDERS_FLOOR:
            raise ArithmeticError(
                f"scan produced q={gmin:.6f} below the attainable floor -1/8 at "
                f"{config.axis1_name}={garg[0]!r}, {config.axis2_name}={garg[1]!r}, "
                f"t2={garg[2]!r}")
    else:
        gmin, garg = math.nan, (math.nan, math.nan, math.nan)
    return ScanResult(config=config, axis1=ax1, axis2=ax2, q_min=q_min,
                      t2_argmin=t2_arg, n_failed=n_failed,
                      global_min=gmin, global_argmin=garg,
                      coarse_s=coarse_s, refine_s=refine_s, refine_evals=refine_evals,
                      refine_capped=refine_capped,
                      mirror_filled=len(ax1) * (len(ax2) - partners.count(None)),
                      reflected=reflected)


# ---------------------------------------------------------------------------
# box-constrained global minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StartOutcome:
    start: dict
    value: float
    argmin: dict


@dataclass(frozen=True)
class GlobalMinimum:
    """Best value and argmin of :func:`global_minimize` and every start's
    outcome.  A cached result is shared: callers must not mutate its dicts."""

    value: float
    argmin: dict
    starts: tuple[StartOutcome, ...]


def global_minimize(free: dict, route: str = "series", fixed: dict | None = None,
                    projector: str = "sign", coarse_steps: int = 7,
                    n_starts: int = 4, t2_coarse: int = 96, t2_refine: int = 32,
                    n_max: int = 300, nm_maxiter: int = 120) -> GlobalMinimum:
    """Deterministic multi-start minimization over named free parameters.

    ``free`` maps parameter names from {x0, p0, r, L, t2} to (lo, hi) bounds
    with hi > lo; it must hold t2 and at least one other name, and a pinned
    value goes in ``fixed``.  t2 is minimized by the inner search of
    :func:`minimize_over_t2`, a coarse grid and then a Newton-secant
    refinement on dq/dt2 (the series' exact slope, a central difference on
    the other routes), with at most ``t2_refine`` probes per search, each one
    kernel call;
    the other parameters go through a coarse grid followed by Nelder-Mead
    polish from the best ``n_starts`` grid points.

    Points are t2-searched in batches: the coarse grid is one batch, and the
    Nelder-Mead starts (:func:`_nelder_mead`) run in lock-step rounds
    (:func:`_drive`): in start order, each start runs up to its next point
    not yet searched, and the round's new points are one batch.  A batch's
    searches run in lock-step rounds of their own: their t2 curves are one
    call (one kernel call on the series route), each row equal to that
    point's own curve, and each later round's probes one call
    (:func:`_serve`).  Everything runs on the calling thread, and a start's
    path depends on its own values only, so the result is that of running
    the starts one after another.  All start outcomes are reported.  Raises
    ValueError for a missing t2, for a bound with hi <= lo, and for
    ``coarse_steps`` or ``n_starts`` that is not a whole number >= 1.
    """
    coarse_steps = _whole("coarse_steps", coarse_steps, 1)
    n_starts = _whole("n_starts", n_starts, 1)
    fixed = dict(fixed or {})
    free = dict(free)
    if "t2" not in free:
        raise ValueError("t2 must be free, with bounds (t2_min, t2_max)")
    search = T2Search(*free.pop("t2"), t2_coarse, t2_refine)
    outer_names = sorted(free)
    lows = np.array([free[n][0] for n in outer_names])
    highs = np.array([free[n][1] for n in outer_names])
    if not outer_names or not np.all(highs > lows):
        raise ValueError(f"free needs a name besides t2, each with bounds hi > lo, "
                         f"got {free}; put a pinned value in fixed")

    def named(vec) -> dict:
        params = dict(fixed)
        # clamp: the simplex may probe just outside the box mid-iteration
        params.update({name: float(np.clip(v, lo, hi))
                       for name, v, lo, hi in zip(outer_names, vec, lows, highs)})
        return params

    def key(params) -> tuple:
        return tuple(params[name] for name in outer_names)

    # Nelder-Mead re-probes points, and every start's argmin repeats its last
    # objective call, so the inner t2 search runs once per clipped point
    memo: dict[tuple, T2Minimum] = {}

    def search_batch(batch) -> list:
        """The t2 search of each new point of ``batch``, in lock-step; one
        answer (None) per point of the batch."""
        fresh = {}
        for params in batch:
            fresh.setdefault(key(params), params)
        searches = [_t2_search(*named_evaluator(params, route, projector, n_max), search)
                    for params in fresh.values()]
        memo.update(zip(fresh, _drive(searches, _serve)))
        return [None] * len(batch)

    def full_argmin(vec) -> dict:
        params = named(vec)
        params["t2"] = memo[key(params)][1]
        return params

    def value(vec):
        """The t2-minimized q at ``vec``, which first yields its point when
        that has not been searched."""
        params = named(vec)
        if key(params) not in memo:
            yield params
        return memo[key(params)][0]

    def polish(x0):
        """One Nelder-Mead start: its clipped argmin and value."""
        simplex, q = _nelder_mead(x0, nm_maxiter, 1e-5, 1e-10), None
        while True:
            try:
                vec = simplex.send(q)
            except StopIteration as stop:
                xk = np.clip(stop.value[0], lows, highs)
                return xk, (yield from value(xk))
            q = yield from value(vec)

    axes = [np.linspace(lo, hi, coarse_steps) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    search_batch([named(p) for p in points])
    values = np.array([memo[key(named(p))][0] for p in points])
    order = np.argsort(values, kind="stable")[:n_starts]

    starts = []
    best_vec, best_val = points[order[0]], float(values[order[0]])
    polished = _drive([polish(points[k]) for k in order], search_batch)
    for k, (xk, vk) in zip(order, polished):
        starts.append(StartOutcome(
            start={n: float(v) for n, v in zip(outer_names, points[k])},
            value=float(vk),
            argmin=full_argmin(xk)))
        if vk < best_val:
            best_val, best_vec = float(vk), xk
    return GlobalMinimum(value=best_val, argmin=full_argmin(best_vec),
                         starts=tuple(starts))


def _nelder_mead(x0, maxiter: int, xatol: float, fatol: float):
    """Nelder-Mead (Nelder & Mead, Comput. J. 7, 308, 1965) as a generator:
    it yields each point, is sent its value, and returns the best vertex and
    the least value.  Its steps are those of scipy's ``minimize(method=
    "Nelder-Mead")`` with ``maxiter``, ``xatol`` and ``fatol`` and no bounds,
    ``maxfev`` or ``adaptive``, in the same numpy operations, so its ``x``
    and ``fun`` equal scipy's bit for bit."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf)
    for k in range(n + 1):
        fsim[k] = yield sim[k].copy()
    for _ in range(2):  # sorted twice, as scipy does
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = yield xr
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # contraction outside
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = yield xc
            shrink = not fxc <= fxr
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
        else:  # contraction inside
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = yield xcc
            shrink = not fxcc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xcc, fxcc
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = yield sim[j].copy()
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def named_evaluator(params: dict, route: str, projector: str,
                    n_max: int = DEFAULT_TRUNCATION.n_max):
    """The one map from (route, projector, state family) to a kernel.

    ``params`` holds named parameters from {s1, s2, t1, x0, p0, r, theta0,
    n_th, L, offset, quad_order, oracle_dim}; an ``offset`` entry (an
    :class:`OffsetFunction`) shifts the sign cut.  Returns ``(evaluator,
    curve)``: ``evaluator(t2, with_info=False)`` is q at one t2, or ``(q,
    info)`` with the route's diagnostics record (``SeriesInfo``,
    ``IntegralInfo`` or ``OracleInfo``), and ``curve(t2_grid)`` is q over an
    array of t2; ``n_max`` is the series truncation.

    Every evaluator has a ``slope(t2)``, the (q, dq/dt2) probe that
    :func:`minimize_over_t2` refines with, one kernel call each.  On the
    series route the evaluator is the cell of its family, pure sign, thermal
    sign or window (``series._SeriesCell``), the curve its ``curve``, and
    its slope the exact derivative from the family's kernel.  The integral
    and oracle evaluators are the one-element calls of their route's t2-array
    kernel (``integral._q_integral`` or :func:`q_oracle_curve`), their curve
    one call of that kernel, and their slope a central difference from one
    three-point call of it (:func:`_difference_slope`).  On
    every route, an evaluator whose cell time reversal leaves unchanged (p0
    = 0 and :func:`states.time_reversal_fixes`) has a ``period`` attribute,
    q's period in t2 (``states.T2_PERIOD``), which :func:`minimize_over_t2`
    folds its grid with.

    Raises ValueError for an unknown parameter name, a non-finite t1, an
    out-of-range ``n_max``, ``quad_order`` or ``oracle_dim`` (each is checked
    whichever route runs), or a combination that no route covers, and
    TruncationError for a thermal series whose ``n_max`` is below the
    occupation cut, or CapabilityError (a ValueError) for an n_th that has
    no occupation cut (:func:`states.thermal_m_cut`), or, on the series
    route, none within the order cap.  Each rule is the
    check that the kernel itself makes, run here before any evaluation.
    """
    unknown = sorted(set(params) - _PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown}; known: {sorted(_PARAM_NAMES)}")
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    meas = MeasurementSpec(projector, params.get("offset"), params.get("L"))
    s1, s2 = params.get("s1", 1), params.get("s2", 1)
    _check_signs(s1, s2)
    t1 = float(params.get("t1", 0.0))
    _check_finite(t1=t1)
    state = StateSpec.from_phase_space(
        float(params.get("x0", 0.0)), float(params.get("p0", 0.0)),
        float(params.get("r", 0.0)), float(params.get("theta0", 0.0)),
        float(params.get("n_th", 0.0)))
    # every truncation setting is range-checked, whichever route reads it
    trunc = TruncationConfig(n_max=n_max)
    order = _whole("quad_order", params.get("quad_order", DEFAULT_QUAD_ORDER))
    _check_order(order)
    dim = _whole("oracle_dim", params.get("oracle_dim", DEFAULT_DIM))
    _check_dim(dim)
    if meas.projector == "window":
        if route == "integral":
            raise ValueError("the integral route does not cover window projectors")
        _check_squeezed_vacuum(state)
    elif route == "series" and not meas.offset.is_zero:
        raise ValueError("the series route does not take a measurement offset; "
                         "use the integral or oracle route")
    if route == "series":
        # a window state has n_th = 0 (checked above)
        family = "thermal" if state.n_th > 0 else meas.projector
        column = (state, float(meas.window_halfwidth)) if family == "window" else (state,)
        evaluator = _SeriesCell(family, column, (s1, s2, t1), trunc)
        curve = evaluator.curve
    elif route == "integral":
        _check_pure(state)
        evaluator = (lambda t2, with_info=False: qpd_integral(
            state, meas.offset, s1, s2, t1, t2, order, with_info))
        curve = (lambda grid: _q_integral(state, meas.offset, s1, s2, t1,
                                          np.asarray(grid, dtype=float), order)[0])
    else:
        if not state.is_pure:
            thermal_m_cut(state.n_th)  # the oracle's occupation columns stop at the cut
        evaluator = (lambda t2, with_info=False: qpd_oracle(
            state, meas, s1, s2, t1, t2, dim, with_info))
        curve = lambda grid: q_oracle_curve(state, meas, s1, s2, t1, grid, dim)
    if route != "series":
        evaluator.slope = _difference_slope(curve)
    if state.p0 == 0 and time_reversal_fixes(state, t1, meas.offset):
        # the cell is its own time-reversal mirror, so q(t2) = q(-t2)
        object.__setattr__(evaluator, "period", T2_PERIOD[meas.projector])
    return evaluator, curve


def _difference_slope(curve):
    """The ``slope(t2)`` of an evaluator whose route's kernel ``curve`` has
    no derivative: one call at (t2, t2 - XATOL, t2 + XATOL), whose first
    column is q, bit for bit the one-element call since each column equals
    its own, and the other two the central difference dq/dt2."""
    def slope(t2):
        q, below, above = curve(np.array([t2, t2 - XATOL, t2 + XATOL]))
        return float(q), float((above - below) / (2.0 * XATOL))
    return slope


def _whole(name: str, value, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` when given; a fractional or
    non-finite value is refused, not truncated."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and int(value) < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)
