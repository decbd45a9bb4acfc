"""Benchmark of the lgqpd package, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and README.md) in this process, with
scans at one worker and BLAS pinned to ``BLAS_THREADS`` threads.  Whole
rounds of the workload's operations are timed until ``--seconds`` of timed
work have been done; then every output is checked against computations the
answering route did not make.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every check
passes, 1 when one fails, 2 when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Fixed BLAS/OpenMP thread count; set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_PROBES = 3
#: The keys of ``workloads.WORKLOADS``, known before the program is imported.
WORKLOAD_NAMES = ("sign-scan", "thermal-scan", "route-crosscheck", "window-minimize")


class SetupError(RuntimeError):
    """The checkout does not hold the program or its configs."""


def import_program() -> None:
    """Import lgqpd from the checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "lgqpd" / "__init__.py").is_file():
        raise SetupError(f"no lgqpd package under {src}")
    for name in ("fig2a.cfg", "fig4_t05.cfg"):
        if not (ROOT / "configs" / name).is_file():
            raise SetupError(f"no configs/{name} in {ROOT}")
    sys.path.insert(0, str(src))
    import lgqpd
    if Path(lgqpd.__file__).resolve().parent != src / "lgqpd":
        raise SetupError(f"imported lgqpd from {lgqpd.__file__}, not from {src}")


def setup(workload_name: str, workdir: Path):
    """Import the program and build the workload's inputs in ``workdir``."""
    import_program()
    from workloads import WORKLOADS
    return WORKLOADS[workload_name](ROOT, workdir)


def run_units(workload, units, tracer=None) -> tuple[dict, dict, float]:
    """Run ``units`` in order; returns their results, their times at the
    reference speed (see ``speed.py``) and their total wall time."""
    import speed

    results, at_reference = {}, {}
    wall = 0.0
    for unit in units:
        with speed.SpeedMeter() as meter:
            start = time.perf_counter()
            if tracer is None:
                results[unit] = workload.run(unit)
            else:
                results[unit] = tracer.span("bench.unit", workload.run, unit)
            elapsed = time.perf_counter() - start
        wall += elapsed
        at_reference[unit] = meter.at_reference(elapsed)
    return results, at_reference, wall


def run_rounds(workload, seconds: float, rng: random.Random, outputs: list,
               tracer=None) -> list[tuple[float, dict]]:
    """Time whole rounds, each in an order shuffled by ``rng``, until
    ``seconds`` of timed work are done (at least one round).  Appends each
    round's collected outputs to ``outputs``; returns per round its wall time
    and its units' times at the reference speed."""
    rounds: list[tuple[float, dict]] = []
    while True:
        order = list(workload.units)
        rng.shuffle(order)
        results, at_reference, wall = run_units(workload, order, tracer)
        rounds.append((wall, at_reference))
        outputs.append({unit: workload.collect(unit, results[unit]) for unit in workload.units})
        if sum(w for w, _ in rounds) >= seconds:
            return rounds


def probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Median time, wall and at the reference speed, from launching a fresh
    interpreter on this script to the point where its first timed operation
    would begin.  Each interpreter meters its own speed during its set-up
    and reports it on its ``READY`` line."""
    wall, at_reference = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--setup-probe",
                               "--workload", workload_name, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            elapsed = time.perf_counter() - start
            proc.communicate()
        if len(line) != 2 or line[0] != "READY" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed (exit {proc.returncode})")
        wall.append(elapsed)
        at_reference.append(elapsed * float(line[1]))
    return statistics.median(wall), statistics.median(at_reference)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles the order of each round's units")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per run; whole rounds are always completed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        try:
            if args.setup_probe:
                import speed
                with speed.SpeedMeter() as meter:
                    setup(args.workload, Path(tmp))
                print(f"READY {meter.speed()!r}", flush=True)
                return 0
            workload = setup(args.workload, Path(tmp))
        except SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        return measure(workload, args)


def measure(workload, args) -> int:
    from tracing import Tracer
    from workloads import FAULT, CheckFailed

    rng = random.Random(args.seed)
    outputs: list[dict] = []
    ops_per_round = sum(workload.ops(unit) for unit in workload.units)
    tracer = None
    if args.trace:
        # Tracing overhead: the first unit once untraced, against its traced
        # runs.  That untraced run is not counted, so the run attempts whole
        # rounds only.
        probe_unit = workload.units[0]
        _, baseline, _ = run_units(workload, [probe_unit])
        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, args.seconds, rng, outputs, tracer)
        finally:
            tracer.uninstall()
    else:
        rounds = run_rounds(workload, args.seconds, rng, outputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    deviations: list[float] = []
    failures: list[str] = []
    refs: dict = {}
    correct = True
    try:
        for round_outputs in outputs:
            result = workload.check_round(round_outputs, refs)
            attempted += result.attempted
            failed += result.failed
            deviations += result.deviations
            failures = failures or result.failures
    except CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}")

    wall = sum(w for w, _ in rounds)
    if tracer is None:
        setup_wall, setup_s = probe_setup(args.workload, args.seed)
        print(f"wall clock: setup {setup_wall:.4g} s, "
              f"{ops_per_round * len(rounds) / wall:.4g} operations/s")
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(ops_per_round / sum(units.values())
                                            for _, units in rounds), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ref_dev_max": (max(deviations, default=0.0), "dq"),
        }
    else:
        traced = statistics.median(units[probe_unit] for _, units in rounds)
        overhead = (traced - baseline[probe_unit]) / workload.ops(probe_unit)
        metrics = tracer.layer_metrics(ops_per_round * len(rounds), overhead)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.dump(dump)
        print(f"spans written to {dump.relative_to(ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s) of "
          f"{ops_per_round} operations in {wall:.2f} s timed; "
          f"blas_threads = {BLAS_THREADS} (nproc = {os.cpu_count()})")
    if failures:
        print(f"failed operations in one round, all of the known fault ({FAULT}):")
        print("\n".join(f"  {line}" for line in failures))
    print(f"attempted = {attempted}, failed = {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
