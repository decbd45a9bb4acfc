"""Parameter sweeps and minimization of the quasi-probability.

A scan evaluates the minimum over t2 of q_{s1,s2}(t1, t2) on a 2-D parameter
grid: either the displacement plane (x0, p0) at fixed squeezing, or the
(r, L) plane of the window projector for squeezed vacuum.  Cells are
independent, so grids may be evaluated by a worker pool; results are written
into preallocated arrays indexed by grid coordinates and reduced in a fixed
row-major order, which makes output byte-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np
from scipy.optimize import minimize as _nm_minimize
from scipy.optimize import minimize_scalar

from .integral import _check_order, _check_pure, qpd_integral
from .fock import _check_dim, q_oracle_curve, qpd_oracle
from .series import (MeasurementSpec, TruncationConfig, _check_signs,
                     _check_squeezed_vacuum, _occupation_cut, q_sign_series_curve,
                     q_thermal_series_curve, q_window_series_curve,
                     qpd_series_squeezed, qpd_series_thermal, qpd_series_window)
from .states import OffsetFunction, StateSpec

#: Absolute tolerance of the Brent refinement in t2.
XATOL = 1e-9

LUDERS_FLOOR = -0.125 - 1e-6

PLANES = ("x0p0", "rL")
ROUTES = ("integral", "series", "oracle")
#: The named parameters that :func:`named_evaluator` reads.
_PARAM_NAMES = frozenset({"s1", "s2", "t1", "x0", "p0", "r", "theta0", "n_th", "L",
                         "offset", "quad_order", "oracle_dim"})


@dataclass(frozen=True)
class T2Search:
    """Search window for the inner t2 minimization, its coarse grid size, and
    ``refine_iters``, the cap on the Brent refinement's evaluations (0 keeps
    the coarse point; a cap of 1 still evaluates twice)."""

    t2_min: float = 0.0
    t2_max: float = 2.0 * math.pi
    coarse_steps: int = 200
    refine_iters: int = 40

    def __post_init__(self):
        if not -math.inf < self.t2_min < self.t2_max < math.inf:
            raise ValueError("t2_min and t2_max must be finite, with t2_max > t2_min")
        if self.coarse_steps < 2:
            raise ValueError("coarse_steps must be >= 2")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")


def minimize_over_t2(evaluator, curve, search: T2Search):
    """Minimum of a continuous evaluator over t2: ``curve`` on the coarse grid,
    then Brent's bounded method by ``evaluator`` on the grid bracket around
    the best point, with at most ``max(search.refine_iters, 2)`` evaluations
    (none for 0).  The coarse point is kept when it is still lower.

    ``evaluator`` maps one t2 to q and ``curve`` an array of t2 values to
    their q values.  Returns ``(q_min, t2_argmin)``.
    """
    grid = np.linspace(search.t2_min, search.t2_max, search.coarse_steps)
    values = np.asarray(curve(grid), dtype=float)
    i = int(np.nanargmin(values))
    best_q, best_t = float(values[i]), float(grid[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if search.refine_iters > 0 and hi > lo:
        # scipy adds sqrt(eps) times |x| to the tolerance: searching the offset
        # from lo keeps it near XATOL wherever the window lies
        res = minimize_scalar(lambda u: evaluator(lo + u), bounds=(0.0, hi - lo),
                              method="bounded",
                              options={"xatol": XATOL, "maxiter": search.refine_iters})
        if res.fun < best_q:
            best_q, best_t = float(res.fun), float(lo + res.x)
    return best_q, best_t


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
    t2_min: float = 0.0
    t2_max: float = 2.0 * math.pi
    t2_coarse_steps: int = 200
    t2_refine_iters: int = 40
    n_max: int = 200
    quad_order: int = 32
    oracle_dim: int = 300
    omega: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if self.plane not in PLANES:
            raise ValueError(f"plane must be one of {PLANES}, got {self.plane!r}")
        # A single-step axis pins that coordinate, giving a 1-cell (or 1-row) scan.
        if self.axis1_steps < 1 or self.axis2_steps < 1:
            raise ValueError("axis steps must be >= 1")
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
    """Grid of t2-minimized quasi-probabilities with the global minimum."""

    config: ScanConfig
    axis1: np.ndarray
    axis2: np.ndarray
    q_min: np.ndarray
    t2_argmin: np.ndarray
    n_failed: int
    global_min: float
    global_argmin: tuple[float, float, float]  # (axis1, axis2, t2)


def _cell_evaluator(config: ScanConfig, a1: float, a2: float):
    """The dispatch's ``(evaluator, curve)`` for one grid cell; it rejects
    what the route cannot honour."""
    params = {"s1": config.s1, "s2": config.s2, "t1": config.omega * config.t1,
              config.axis1_name: a1, config.axis2_name: a2, "theta0": config.theta0,
              "n_th": config.n_th, "offset": config.offset(),
              "quad_order": config.quad_order, "oracle_dim": config.oracle_dim}
    params.setdefault("r", config.r)  # unless the first axis supplies r
    return named_evaluator(params, config.route, config.projector, config.n_max)


def _scan_cell(args):
    config, i, j, a1, a2 = args
    try:
        q, t2 = minimize_over_t2(*_cell_evaluator(config, a1, a2), config.t2_search())
        return i, j, q, t2 / config.omega, False
    except Exception:
        return i, j, math.nan, math.nan, True


def scan_plane(config: ScanConfig, workers: int = 1) -> ScanResult:
    """Evaluate the t2-minimized quasi-probability on the configured grid.

    Per-cell failures are recorded as NaN cells, not raised.  The reduction
    to the global minimum runs single-threaded in row-major order, so the
    result does not depend on ``workers``.
    """
    ax1 = config.axis1_values()
    ax2 = config.axis2_values()
    tasks = [(config, i, j, float(a1), float(a2))
             for i, a1 in enumerate(ax1) for j, a2 in enumerate(ax2)]
    q_min = np.full((len(ax1), len(ax2)), math.nan)
    t2_arg = np.full_like(q_min, math.nan)
    n_failed = 0
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_scan_cell, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    else:
        results = map(_scan_cell, tasks)
    for i, j, q, t2, failed in results:
        q_min[i, j] = q
        t2_arg[i, j] = t2
        n_failed += int(failed)

    finite = q_min[np.isfinite(q_min)]
    if finite.size and finite.min() < LUDERS_FLOOR:
        raise ArithmeticError(
            f"scan produced q={finite.min():.6f} below the attainable floor -1/8")
    if finite.size:
        flat = np.where(np.isfinite(q_min), q_min, np.inf).ravel()
        k = int(np.argmin(flat))
        i, j = divmod(k, len(ax2))
        gmin = float(q_min[i, j])
        garg = (float(ax1[i]), float(ax2[j]), float(t2_arg[i, j]))
    else:
        gmin, garg = math.nan, (math.nan, math.nan, math.nan)
    return ScanResult(config=config, axis1=ax1, axis2=ax2, q_min=q_min,
                      t2_argmin=t2_arg, n_failed=n_failed,
                      global_min=gmin, global_argmin=garg)


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
    value goes in ``fixed``.  t2 is minimized by the inner coarse-plus-Brent
    search of :func:`minimize_over_t2`, with at most ``t2_refine`` Brent
    evaluations per search; the other parameters go through a
    coarse grid followed by Nelder-Mead polish from the best ``n_starts``
    grid points.  All start outcomes are reported.  Raises ValueError for a
    missing t2 and for a bound with hi <= lo.
    """
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

    # Nelder-Mead re-probes points, and every start's argmin repeats its last
    # objective call, so the inner t2 search runs once per clipped point
    memo: dict[tuple, tuple[float, float]] = {}

    def inner(vec) -> tuple[dict, tuple[float, float]]:
        params = named(vec)
        key = tuple(params[name] for name in outer_names)
        if key not in memo:
            memo[key] = minimize_over_t2(*named_evaluator(params, route, projector, n_max),
                                         search)
        return params, memo[key]

    def objective(vec) -> float:
        return inner(vec)[1][0]

    def full_argmin(vec) -> dict:
        params, (_, t2) = inner(vec)
        params["t2"] = t2
        return params

    axes = [np.linspace(lo, hi, coarse_steps) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = np.array([objective(p) for p in points])
    order = np.argsort(values, kind="stable")[:max(1, n_starts)]

    starts = []
    best_vec, best_val = points[order[0]], float(values[order[0]])
    for k in order:
        x0 = points[k]
        res = _nm_minimize(objective, x0, method="Nelder-Mead",
                           options={"maxiter": nm_maxiter, "xatol": 1e-5,
                                    "fatol": 1e-10})
        xk = np.clip(res.x, lows, highs)
        vk = objective(xk)
        starts.append(StartOutcome(
            start={n: float(v) for n, v in zip(outer_names, x0)},
            value=float(vk),
            argmin=full_argmin(xk)))
        if vk < best_val:
            best_val, best_vec = float(vk), xk
    return GlobalMinimum(value=best_val, argmin=full_argmin(best_vec),
                         starts=tuple(starts))


def named_evaluator(params: dict, route: str, projector: str, n_max: int = 200):
    """The one map from (route, projector, state family) to a kernel.

    ``params`` holds named parameters from {s1, s2, t1, x0, p0, r, theta0,
    n_th, L, offset, quad_order, oracle_dim}; an ``offset`` entry (an
    :class:`OffsetFunction`) shifts the sign cut.  Returns ``(evaluator,
    curve)``: ``evaluator(t2, with_info=False)`` is q at one t2, or ``(q,
    info)`` with the route's diagnostics record (``SeriesInfo``,
    ``IntegralInfo`` or ``OracleInfo``), and ``curve(t2_grid)`` is q over an
    array of t2.  The integral curve maps the evaluator over the grid;
    ``n_max`` is the series truncation.

    Raises ValueError for an unknown parameter name, an out-of-range
    ``n_max``, ``quad_order`` or ``oracle_dim`` of the chosen route, or a
    combination that no route covers, and TruncationError for a thermal
    series whose ``n_max`` is below the occupation cut.  Each rule is the
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
    state = StateSpec.from_phase_space(
        float(params.get("x0", 0.0)), float(params.get("p0", 0.0)),
        float(params.get("r", 0.0)), float(params.get("theta0", 0.0)),
        float(params.get("n_th", 0.0)))
    trunc = TruncationConfig(n_max=n_max)
    if meas.projector == "window":
        if route == "integral":
            raise ValueError("the integral route does not cover window projectors")
        _check_squeezed_vacuum(state)
        half = float(meas.window_halfwidth)
        if route == "series":
            return (lambda t2, with_info=False: qpd_series_window(
                        state, half, s1, s2, t1, t2, trunc, with_info),
                    lambda grid: q_window_series_curve(state, half, s1, s2, t1, grid,
                                                       n_max))
    elif route == "series":
        if not meas.offset.is_zero:
            raise ValueError("the series route does not take a measurement offset; "
                             "use the integral or oracle route")
        if state.n_th > 0:
            _occupation_cut(state.n_th, n_max)
            return (lambda t2, with_info=False: qpd_series_thermal(
                        state, s1, s2, t1, t2, trunc, with_info),
                    lambda grid: q_thermal_series_curve(state, s1, s2, t1, grid, n_max))
        return (lambda t2, with_info=False: qpd_series_squeezed(
                    state, s1, s2, t1, t2, trunc, with_info),
                lambda grid: q_sign_series_curve(state, s1, s2, t1, grid, n_max))
    elif route == "integral":
        _check_pure(state)
        order = int(params.get("quad_order", 32))
        _check_order(order)
        evaluator = (lambda t2, with_info=False: qpd_integral(
            state, meas.offset, s1, s2, t1, t2, order, with_info))
        return evaluator, lambda grid: np.array([evaluator(t) for t in grid])
    dim = int(params.get("oracle_dim", 300))
    _check_dim(dim)
    return (lambda t2, with_info=False: qpd_oracle(
                state, meas, s1, s2, t1, t2, dim, with_info),
            lambda grid: q_oracle_curve(state, meas, s1, s2, t1, grid, dim))
