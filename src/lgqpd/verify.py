"""Canned verification scenarios behind ``lgqpd verify`` and the acceptance tests.

Each case returns a list of :class:`CheckResult`; a case passes when all of
its checks pass.  The scenarios pin the package's benchmark numbers: the
cross-route agreement curve, the -0.113 family of sign-projector minima, the
-0.0538 window-projector minimum, thermal weakening of the violation, and the
exact structural identities (normalization, reduction, offset equivalence,
and the -1/8 floor).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .integral import sign_marginal
from .scan import (LUDERS_FLOOR, GlobalMinimum, T2Search, global_minimize,
                   minimize_over_t2, named_evaluator)
from .states import (SQRT2, OffsetFunction, StateSpec, n_th_from_temperature,
                     reduce_squeezed_to_coherent)

TWO_PI = 2.0 * math.pi

#: Benchmark minimum of 4*q for sign projectors (22.6% of the -1/2 floor).
SIGN_MIN_4Q = -0.113
#: Benchmark minimum of q for the window projector at zero squeezing.
WINDOW_MIN_Q = -0.0538

#: Displacements that realize the sign-projector minimum for each squeeze
#: magnitude, for both sign pairs (s1, s2, r, x0, p0).
SIGN_MINIMUM_ROWS = (
    (1, -1, 0.0, -0.554, 1.95),
    (1, -1, 0.5, -0.896, 1.18),
    (1, -1, 0.6, -0.991, 1.07),
    (1, -1, 0.7, -1.09, 0.968),
    (1, -1, 0.8, -1.21, 0.875),
    (1, -1, 0.9, -1.34, 0.792),
    (1, -1, 1.0, -1.48, 0.717),
    (-1, 1, 0.0, 0.550, 1.93),
    (-1, 1, 0.5, 0.904, 1.17),
    (-1, 1, 0.6, 1.00, 1.06),
    (-1, 1, 0.7, 1.09, 0.968),
    (-1, 1, 0.8, 1.22, 0.866),
    (-1, 1, 0.9, 1.34, 0.792),
    (-1, 1, 1.0, 1.48, 0.717),
)

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    detail: str = ""


def _check(name: str, measured: float, expected: float, tol: float,
           detail: str = "") -> CheckResult:
    return CheckResult(name, bool(abs(measured - expected) <= tol),
                       float(measured), float(expected), float(tol), detail)


def _check_below(name: str, measured: float, bound: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(measured <= bound), float(measured), float(bound),
                       0.0, detail)


# ---------------------------------------------------------------------------
# cross-route agreement curve
# ---------------------------------------------------------------------------

def verify_fig1() -> list[CheckResult]:
    """Series and integral routes coincide on a dense t2 grid, and the series
    converges monotonically in its truncation order."""
    point = dict(x0=0.550, p0=1.925, r=1.0, theta0=math.pi / 3, s1=1, s2=-1, t1=0.0)
    grid = np.arange(0.0, TWO_PI + 1e-9, 0.05)
    curves = {n: named_evaluator(point, "series", "sign", n)[1](grid) for n in (5, 50, 500)}
    q_int = named_evaluator(point, "integral", "sign")[1](grid)
    dev = float(np.max(np.abs(curves[500] - q_int)))
    d_50 = float(np.max(np.abs(curves[500] - curves[50])))
    d_5 = float(np.max(np.abs(curves[50] - curves[5])))
    return [
        _check_below("series(500) vs integral, max abs dev", dev, 1e-3,
                     detail=f"{grid.size} points"),
        _check_below("convergence ordering |q500-q50| < |q50-q5|", d_50, d_5,
                     detail=f"d50={d_50:.2e} d5={d_5:.2e}"),
    ]


# ---------------------------------------------------------------------------
# sign-projector minima
# ---------------------------------------------------------------------------

def _min_over_t2_series(s1: int, s2: int, r: float, x0: float,
                        p0: float) -> tuple[float, float]:
    """Series minimum over t2 at t1 = 0 for one row of SIGN_MINIMUM_ROWS."""
    search = T2Search(0.0, TWO_PI, coarse_steps=240, refine_iters=40)
    params = {"s1": s1, "s2": s2, "r": r, "x0": x0, "p0": p0}
    return minimize_over_t2(*named_evaluator(params, "series", "sign", 400), search)


def verify_table1() -> list[CheckResult]:
    """Every benchmark row attains min over t2 of 4q = -0.113 within 0.003."""
    out = []
    for s1, s2, r, x0, p0 in SIGN_MINIMUM_ROWS:
        q, _ = _min_over_t2_series(s1, s2, r, x0, p0)
        out.append(_check(f"row s=({s1:+d},{s2:+d}) r={r:.1f}", 4.0 * q,
                          SIGN_MIN_4Q, 0.003))
    return out


@functools.lru_cache(maxsize=None)
def _panel_minimum(s1: int, s2: int, r: float, n_th: float = 0.0,
                   n_starts: int = 3, coarse_steps: int = 9, t2_coarse: int = 96,
                   t2_refine: int = 32, nm_maxiter: int = 150) -> GlobalMinimum:
    """Series minimum of one sign-pair panel over (x0, p0, t2), memoized:
    calls spelled alike share one run."""
    return global_minimize(
        free={"x0": (-2.5, 2.5), "p0": (-2.5, 2.5), "t2": (0.0, TWO_PI)},
        fixed={"s1": s1, "s2": s2, "r": r, "theta0": 0.0, "t1": 0.0, "n_th": n_th},
        route="series", coarse_steps=coarse_steps, n_starts=n_starts,
        t2_coarse=t2_coarse, t2_refine=t2_refine, n_max=256,
        nm_maxiter=nm_maxiter)


def verify_fig2min() -> list[CheckResult]:
    """All four sign pairs reach the same -0.113/4 plane minimum at r = 1/2,
    so squeezing does not deepen the violation."""
    out = []
    for s1, s2 in SIGN_PAIRS:
        res = _panel_minimum(s1, s2, r=0.5)
        out.append(_check(f"panel s=({s1:+d},{s2:+d}) global min", res.value,
                          SIGN_MIN_4Q / 4.0, 0.001,
                          detail=f"argmin={ {k: round(v, 3) for k, v in res.argmin.items() if k in ('x0', 'p0', 't2')} }"))
    return out


# ---------------------------------------------------------------------------
# window projector
# ---------------------------------------------------------------------------

def verify_window_min() -> list[CheckResult]:
    """Ground-state window projector: min over (L, t2) of q_{1,1} is
    -0.0538, attained near L = 1.0 and omega t2 = 1.55."""
    res = global_minimize(
        free={"L": (0.7, 1.4), "t2": (0.05, math.pi - 0.05)},
        fixed={"s1": 1, "s2": 1, "r": 0.0, "theta0": 0.0, "t1": 0.0},
        route="series", projector="window", coarse_steps=15, n_starts=3,
        t2_coarse=96, t2_refine=32, n_max=256, nm_maxiter=150)
    L_star = res.argmin["L"]
    t2_star = res.argmin["t2"]
    return [
        _check("window minimum q", res.value, WINDOW_MIN_Q, 0.001),
        CheckResult("argmin L in [1.00, 1.05]", 1.00 <= L_star <= 1.05,
                    L_star, 1.025, 0.025),
        CheckResult("argmin omega*t2 in [1.50, 1.60]", 1.50 <= t2_star <= 1.60,
                    t2_star, 1.55, 0.05),
    ]


# ---------------------------------------------------------------------------
# thermal ordering
# ---------------------------------------------------------------------------

def verify_thermal_order() -> list[CheckResult]:
    """Plane minima of q_{-1,1} weaken monotonically with temperature, and the
    zero-temperature run reproduces the pure-state panel minimum.

    The four temperature panels run with a lighter optimizer budget (the
    ordering gaps are ~7e-3, well above its resolution); the T = 0 value is
    then compared against the full-budget pure-state panel, which also guards
    the optimizer settings against each other.
    """
    temps = (0.0, 0.5, 1.0, 2.0)
    minima = []
    for temp in temps:
        n_th = n_th_from_temperature(temp)
        res = _panel_minimum(-1, 1, r=0.5, n_th=n_th, n_starts=2,
                             coarse_steps=7, t2_coarse=64, t2_refine=24,
                             nm_maxiter=60)
        minima.append(res.value)
    out = []
    for (ta, qa), (tb, qb) in zip(zip(temps, minima), zip(temps[1:], minima[1:])):
        out.append(_check_below(f"min(T={ta}) <= min(T={tb})", qa, qb + 1e-12,
                                detail=f"{qa:.6f} <= {qb:.6f}"))
    panel_b = _panel_minimum(-1, 1, r=0.5)
    out.append(_check("T=0 matches the pure-state panel", minima[0],
                      panel_b.value, 0.001))
    return out


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

#: Integral-route point with a measurement offset, also used for the marginal.
_OFFSET_POINT = dict(x0=0.5, p0=-0.8, r=0.8, theta0=2.0,
                     offset=OffsetFunction(0.6, 0.9, 0.2), t1=0.4)

#: (name, route, projector, t2, named parameters) of each normalization point.
_NORMALIZATION_POINTS = (
    ("series squeezed", "series", "sign", 1.45,
     dict(x0=0.7, p0=-1.1, r=0.6, theta0=1.1, t1=0.35)),
    ("series coherent", "series", "sign", 2.2, dict(x0=1.2, p0=0.4, t1=0.0)),
    ("series thermal", "series", "sign", 1.9,
     dict(x0=0.9, p0=1.1, r=0.5, theta0=0.8, n_th=0.8, t1=0.25)),
    ("series window", "series", "window", 1.8, dict(r=0.35, theta0=0.4, L=1.1, t1=0.2)),
    ("integral with offset", "integral", "sign", 2.6, _OFFSET_POINT),
    ("oracle", "oracle", "sign", 1.2,
     dict(x0=0.8, p0=0.3, r=0.4, theta0=0.9, n_th=0.5, t1=0.3, oracle_dim=250)),
)


def verify_normalization() -> list[CheckResult]:
    """Sum of q over the four sign pairs is 1 for every evaluator."""
    out = []
    for name, route, projector, t2, params in _NORMALIZATION_POINTS:
        total = sum(named_evaluator(dict(params, s1=s1, s2=s2), route, projector)[0](t2)
                    for s1, s2 in SIGN_PAIRS)
        out.append(_check(f"sum_s q = 1 [{name}]", total, 1.0, 1e-8))
    p = _OFFSET_POINT
    marg = sum(named_evaluator(dict(p, s1=1, s2=s2), "integral", "sign")[0](2.6)
               for s2 in (1, -1))
    state = StateSpec.from_phase_space(p["x0"], p["p0"], p["r"], p["theta0"])
    out.append(_check("marginal matches erf closed form",
                      marg, sign_marginal(state, p["offset"], 1, p["t1"]), 5e-8))
    return out


def verify_reduction() -> list[CheckResult]:
    """Squeezed-state correlators equal coherent-state correlators at the
    mapped displacement and reparameterized times (thermal included)."""
    cases = [
        dict(x0=0.550, p0=1.925, r=1.0, theta0=math.pi / 3),
        dict(x0=-0.9, p0=1.2, r=0.5, theta0=0.0),
        dict(x0=0.8, p0=-0.6, r=0.7, theta0=1.9, n_th=0.7),
    ]
    out = []
    for params in cases:
        state = StateSpec.from_phase_space(**params)
        xi_p, time_map = reduce_squeezed_to_coherent(state)
        for (t1, t2) in ((0.4, 1.7), (0.15, 2.9)):
            squeezed = dict(params, s1=1, s2=-1, t1=t1)
            coherent = {"s1": 1, "s2": -1, "t1": time_map(t1),
                        "x0": SQRT2 * xi_p.real, "p0": SQRT2 * xi_p.imag,
                        "n_th": state.n_th}
            q_sq = named_evaluator(squeezed, "series", "sign", 400)[0](t2)
            q_coh = named_evaluator(coherent, "series", "sign", 400)[0](time_map(t2))
            out.append(_check(
                f"reduction r={state.r} n_th={state.n_th} t=({t1},{t2})",
                q_sq, q_coh, 1e-8))
    return out


def verify_offset_equiv() -> list[CheckResult]:
    """Measuring a coherent state with no offset equals measuring the ground
    state with the opposing harmonic offset."""
    out = []
    for x0, p0 in ((1.1, -0.7), (0.550, 1.925)):
        off = OffsetFunction.coherent_equivalent(StateSpec.from_phase_space(x0, p0).xi)
        for s1, s2 in ((1, -1), (-1, -1)):
            for t1, t2 in ((0.3, 1.9), (0.8, 4.4)):
                point = {"s1": s1, "s2": s2, "t1": t1}
                qa = named_evaluator(dict(point, x0=x0, p0=p0), "integral", "sign")[0](t2)
                qb = named_evaluator(dict(point, offset=off), "integral", "sign")[0](t2)
                out.append(_check(
                    f"offset equiv (x0={x0}, s=({s1:+d},{s2:+d}), t2={t2})",
                    qa, qb, 1e-8))
    return out


def verify_luders() -> list[CheckResult]:
    """No evaluated quasi-probability falls below the -1/8 floor."""
    worst = math.inf
    grid = np.linspace(0.0, TWO_PI, 160)
    for s1, s2 in SIGN_PAIRS:
        params = {"s1": s1, "s2": s2, "x0": -0.554, "p0": 1.95}
        curve = named_evaluator(params, "series", "sign", 300)[1]
        worst = min(worst, float(curve(grid).min()))
    for L in (0.9, 1.03, 1.2):
        curve = named_evaluator({"s1": 1, "s2": 1, "L": L}, "series", "window", 300)[1]
        worst = min(worst, float(curve(grid).min()))
    q_row, _ = _min_over_t2_series(*SIGN_MINIMUM_ROWS[6])
    worst = min(worst, q_row)
    return [CheckResult("min evaluated q >= -1/8 - 1e-6", worst >= LUDERS_FLOOR,
                        worst, -0.125, 1e-6)]


CASES = {
    "fig1": verify_fig1,
    "table1": verify_table1,
    "fig2min": verify_fig2min,
    "window-min": verify_window_min,
    "thermal-order": verify_thermal_order,
    "normalization": verify_normalization,
    "reduction": verify_reduction,
    "offset-equiv": verify_offset_equiv,
    "luders": verify_luders,
}


def run_case(name: str) -> list[CheckResult]:
    if name not in CASES:
        raise KeyError(f"unknown verification case {name!r}; choose from {sorted(CASES)}")
    return CASES[name]()
