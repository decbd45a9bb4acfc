"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs one tiny round of each workload and checks it, then shifts the
program's answers by 1e-4 and shows that every check rejects them.  It also
compares the closed-form marginal used by ``thermal-scan`` with the program's
own marginal and with the oracle.  Exit code 0 when every step holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import run  # first: pins the BLAS threads before numpy is imported

SHIFT = 1e-4


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"PASS {message}")


def rejects(check, *args) -> bool:
    from workloads import CheckFailed
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def one_round(workload) -> dict:
    return {unit: workload.collect(unit, workload.run(unit)) for unit in workload.units}


def shift_scan(texts, dq: float):
    """Scan outputs with every q_min moved by ``dq``, CSV, JSON twin and
    checksum kept consistent with each other."""
    csv_text, json_text = texts
    lines = csv_text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[2] = format(float(row[2]) + dq, ".17g")
    csv_text = "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"
    payload = json.loads(json_text)
    payload["rows"] = [[float(v) for v in row] for row in rows]
    payload["manifest"]["global_min"] += dq
    payload["manifest"]["checksums"]["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    return csv_text, json.dumps(payload)


def smoke_scans(root: Path, tmp: Path) -> None:
    from workloads import SignScan, ThermalScan

    for workload in (SignScan(root, tmp, steps=2), ThermalScan(root, tmp, steps=3)):
        outputs = one_round(workload)
        result = workload.check_round(outputs, {})
        expect(result.attempted == sum(workload.ops(u) for u in workload.units),
               f"{workload.name}: every cell checked ({result.attempted}, "
               f"{result.failed} of the known fault)")
        shifted = {u: shift_scan(texts, SHIFT) for u, texts in outputs.items()}
        result = workload.check_round(shifted, {})
        expect(result.failed == result.attempted,
               f"{workload.name}: every cell shifted by {SHIFT:g} fails its reference")
        unit = workload.units[0]
        csv_text, json_text = outputs[unit]
        first_q = csv_text.splitlines()[1].split(",")[2]
        tampered = {**outputs, unit: (csv_text.replace(
            first_q, format(float(first_q) + SHIFT, ".17g"), 1), json_text)}
        expect(rejects(workload.check_round, tampered, {}),
               f"{workload.name}: a CSV that no longer matches its manifest is rejected")


def smoke_crosscheck(root: Path, tmp: Path) -> None:
    from workloads import RouteCrosscheck

    workload = RouteCrosscheck(root, tmp, points=3)
    outputs = one_round(workload)
    result = workload.check_round(outputs, {})
    expect(result.attempted == 3 and max(result.deviations) <= 1e-5,
           f"route-crosscheck: 3 points agree (max gap {max(result.deviations):.2e})")
    for route in ("series", "integral", "oracle"):
        unit = next(u for u, values in outputs.items() if route in values)
        shifted = {**outputs, unit: {**outputs[unit]}}
        shifted[unit][route] += SHIFT
        expect(rejects(workload.check_round, shifted, {}),
               f"route-crosscheck: the {route} value shifted by {SHIFT:g} is rejected")


def smoke_window(root: Path, tmp: Path) -> None:
    from workloads import WindowMinimize

    workload = WindowMinimize(root, tmp, settings=dict(
        coarse_steps=8, n_starts=1, t2_coarse=48, t2_refine=24, nm_maxiter=40))
    outputs = one_round(workload)
    result = workload.check_round(outputs, {})
    expect(result.attempted == 2,
           f"window-minimize: both minima pass (r=0: q = {outputs[0.0][0]:.6f})")
    for r in workload.units:
        value, argmin = outputs[r]
        shifted = {**outputs, r: (value + SHIFT, argmin)}
        expect(rejects(workload.check_round, shifted, {}),
               f"window-minimize: the r={r:g} minimum shifted by {SHIFT:g} is rejected")


def smoke_marginal() -> None:
    from lgqpd import fock, integral, series, states
    from workloads import sign_marginal_closed

    pure = states.StateSpec.from_phase_space(0.7, -1.2, 0.4, 1.1)
    for s, t in ((1, 0.3), (-1, 2.2)):
        closed = sign_marginal_closed(0.7, -1.2, 0.4, 1.1, 0.0, s, t)
        program = integral.sign_marginal(pure, None, s, t)
        expect(abs(closed - program) < 1e-12,
               f"closed-form marginal matches lgqpd's pure-state marginal at t={t}")
    n_th = 1.0 / math.expm1(1.0 / 2.0)
    thermal = states.StateSpec.from_phase_space(0.5, 2.5, 0.5, 0.0, n_th)
    meas = series.MeasurementSpec.sign()
    t1, t2 = 0.0, 1.3
    total = sum(fock.qpd_oracle(thermal, meas, s1, 1, t1, t2, 400) for s1 in (1, -1))
    closed = sign_marginal_closed(0.5, 2.5, 0.5, 0.0, n_th, 1, t2)
    expect(abs(total - closed) < 1e-6,
           f"closed-form thermal marginal matches the oracle's q(+,+) + q(-,+) "
           f"({abs(total - closed):.1e})")


def main() -> int:
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="smoke-") as tmp:
        smoke_marginal()
        smoke_crosscheck(run.ROOT, Path(tmp))
        smoke_scans(run.ROOT, Path(tmp))
        smoke_window(run.ROOT, Path(tmp))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
