"""Canned verification scenarios behind ``lgqpd verify`` and the acceptance tests.

Each case returns a list of :class:`CheckResult`; a case passes when all of
its checks pass.  The scenarios pin the package's benchmark numbers: the
cross-route agreement curve, the -0.113 family of sign-projector minima, the
-0.0538 window-projector minimum, thermal weakening of the violation, and the
exact structural identities (normalization, reduction, offset equivalence,
and the -1/8 floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import qpd_oracle
from .integral import qpd_integral, sign_marginal
from .scan import GlobalMinimum, T2Search, global_minimize, minimize_over_t2
from .series import (MeasurementSpec, TruncationConfig, q_sign_series_curve,
                     q_thermal_series_curve, q_window_series_curve,
                     qpd_series_squeezed, qpd_series_thermal, qpd_series_window)
from .states import (OffsetFunction, StateSpec, n_th_from_temperature,
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
    state = StateSpec.from_phase_space(0.550, 1.925, r=1.0, theta0=math.pi / 3)
    s1, s2, t1 = 1, -1, 0.0
    grid = np.arange(0.0, TWO_PI + 1e-9, 0.05)
    curves = {n: q_sign_series_curve(state, s1, s2, t1, grid, n_max=n)
              for n in (5, 50, 500)}
    q_int = np.array([qpd_integral(state, None, s1, s2, t1, t) for t in grid])
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

def _min_over_t2_series(state: StateSpec, s1: int, s2: int, t1: float,
                        n_max: int = 400) -> tuple[float, float]:
    search = T2Search(0.0, TWO_PI, coarse_steps=240, refine_iters=40)
    trunc = TruncationConfig(n_max=n_max)
    grid = np.linspace(search.t2_min, search.t2_max, search.coarse_steps)
    if state.n_th == 0:
        coarse = q_sign_series_curve(state, s1, s2, t1, grid, n_max)
        f = lambda t2: qpd_series_squeezed(state, s1, s2, t1, t2, trunc)
    else:
        coarse = q_thermal_series_curve(state, s1, s2, t1, grid, n_max)
        f = lambda t2: qpd_series_thermal(state, s1, s2, t1, t2, trunc)
    return minimize_over_t2(f, search, coarse_values=coarse)


def verify_table1() -> list[CheckResult]:
    """Every benchmark row attains min over t2 of 4q = -0.113 within 0.003."""
    out = []
    for s1, s2, r, x0, p0 in SIGN_MINIMUM_ROWS:
        state = StateSpec.from_phase_space(x0, p0, r=r, theta0=0.0)
        q, _ = _min_over_t2_series(state, s1, s2, t1=0.0)
        out.append(_check(f"row s=({s1:+d},{s2:+d}) r={r:.1f}", 4.0 * q,
                          SIGN_MIN_4Q, 0.003))
    return out


def _panel_minimum(s1: int, s2: int, r: float, n_th: float = 0.0,
                   n_starts: int = 3, coarse_steps: int = 9, t2_coarse: int = 96,
                   t2_refine: int = 32, nm_maxiter: int = 150) -> GlobalMinimum:
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

def _normalization_points():
    yield ("series squeezed",
           lambda s1, s2: qpd_series_squeezed(
               StateSpec.from_phase_space(0.7, -1.1, 0.6, 1.1), s1, s2, 0.35, 1.45))
    yield ("series coherent",
           lambda s1, s2: qpd_series_squeezed(
               StateSpec.from_phase_space(1.2, 0.4), s1, s2, 0.0, 2.2))
    yield ("series thermal",
           lambda s1, s2: qpd_series_thermal(
               StateSpec.from_phase_space(0.9, 1.1, 0.5, 0.8, n_th=0.8), s1, s2, 0.25, 1.9))
    yield ("series window",
           lambda s1, s2: qpd_series_window(
               StateSpec(0j, 0.35, 0.4), 1.1, s1, s2, 0.2, 1.8))
    yield ("integral with offset",
           lambda s1, s2: qpd_integral(
               StateSpec.from_phase_space(0.5, -0.8, 0.8, 2.0),
               OffsetFunction(0.6, 0.9, 0.2), s1, s2, 0.4, 2.6))
    yield ("oracle", lambda s1, s2: qpd_oracle(
        StateSpec.from_phase_space(0.8, 0.3, 0.4, 0.9, n_th=0.5),
        MeasurementSpec.sign(), s1, s2, 0.3, 1.2, dim=250))


def verify_normalization() -> list[CheckResult]:
    """Sum of q over the four sign pairs is 1 for every evaluator."""
    out = []
    for name, f in _normalization_points():
        total = sum(f(s1, s2) for s1, s2 in SIGN_PAIRS)
        out.append(_check(f"sum_s q = 1 [{name}]", total, 1.0, 1e-8))
    state = StateSpec.from_phase_space(0.5, -0.8, 0.8, 2.0)
    off = OffsetFunction(0.6, 0.9, 0.2)
    marg = sum(qpd_integral(state, off, 1, s2, 0.4, 2.6) for s2 in (1, -1))
    out.append(_check("marginal matches erf closed form",
                      marg, sign_marginal(state, off, 1, 0.4), 5e-8))
    return out


def verify_reduction() -> list[CheckResult]:
    """Squeezed-state correlators equal coherent-state correlators at the
    mapped displacement and reparameterized times (thermal included)."""
    cases = [
        StateSpec.from_phase_space(0.550, 1.925, 1.0, math.pi / 3),
        StateSpec.from_phase_space(-0.9, 1.2, 0.5, 0.0),
        StateSpec.from_phase_space(0.8, -0.6, 0.7, 1.9, n_th=0.7),
    ]
    trunc = TruncationConfig(n_max=400)
    out = []
    for state in cases:
        xi_p, time_map = reduce_squeezed_to_coherent(state)
        reduced = StateSpec(xi=xi_p, r=0.0, theta0=0.0, n_th=state.n_th)
        for (t1, t2) in ((0.4, 1.7), (0.15, 2.9)):
            ev = qpd_series_thermal if state.n_th > 0 else qpd_series_squeezed
            q_sq = ev(state, 1, -1, t1, t2, trunc)
            q_coh = ev(reduced, 1, -1, time_map(t1), time_map(t2), trunc)
            out.append(_check(
                f"reduction r={state.r} n_th={state.n_th} t=({t1},{t2})",
                q_sq, q_coh, 1e-8))
    return out


def verify_offset_equiv() -> list[CheckResult]:
    """Measuring a coherent state with no offset equals measuring the ground
    state with the opposing harmonic offset."""
    out = []
    for x0, p0 in ((1.1, -0.7), (0.550, 1.925)):
        coherent = StateSpec.from_phase_space(x0, p0)
        ground = StateSpec()
        off = OffsetFunction.coherent_equivalent(coherent.xi)
        for s1, s2 in ((1, -1), (-1, -1)):
            for t1, t2 in ((0.3, 1.9), (0.8, 4.4)):
                qa = qpd_integral(coherent, None, s1, s2, t1, t2)
                qb = qpd_integral(ground, off, s1, s2, t1, t2)
                out.append(_check(
                    f"offset equiv (x0={x0}, s=({s1:+d},{s2:+d}), t2={t2})",
                    qa, qb, 1e-8))
    return out


def verify_luders() -> list[CheckResult]:
    """No evaluated quasi-probability falls below the -1/8 floor."""
    floor = -0.125 - 1e-6
    worst = math.inf
    state = StateSpec.from_phase_space(-0.554, 1.95)
    grid = np.linspace(0.0, TWO_PI, 160)
    for s1, s2 in SIGN_PAIRS:
        worst = min(worst, float(q_sign_series_curve(state, s1, s2, 0.0, grid, 300).min()))
    vac = StateSpec()
    for L in (0.9, 1.03, 1.2):
        worst = min(worst, float(q_window_series_curve(vac, L, 1, 1, 0.0, grid, 300).min()))
    row = SIGN_MINIMUM_ROWS[6]
    q_row, _ = _min_over_t2_series(StateSpec.from_phase_space(row[3], row[4], row[2]),
                                   row[0], row[1], 0.0)
    worst = min(worst, q_row)
    return [CheckResult("min evaluated q >= -1/8 - 1e-6", worst >= floor,
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
