"""Command-line front end: single-point evaluation, plane scans, verification.

Exit codes: 0 on success, 1 when a verification case fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .config import ConfigError, load_scan_config
from .errors import TruncationError
from .fock import DEFAULT_DIM
from .integral import DEFAULT_QUAD_ORDER, IntegralInfo
from .output import json_text, write_scan_outputs
from .scan import ROUTES, named_evaluator, scan_plane
from .series import DEFAULT_TRUNCATION, SeriesInfo, _check_signs
from .states import OffsetFunction, n_th_from_temperature
from .verify import CASES, run_case


def _sign(text: str) -> int:
    try:
        sign = int(text)
        _check_signs(sign)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return sign


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse's message
    lookups cost about a millisecond per build, and parsing leaves the parser
    as it was."""
    parser = argparse.ArgumentParser(
        prog="lgqpd",
        description="Two-time quasi-probabilities of an oscillator under "
                    "dichotomic position measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate q_{s1,s2}(t1, t2) at one parameter point")
    ev.add_argument("--route", choices=ROUTES, required=True)
    ev.add_argument("--s1", type=_sign, required=True)
    ev.add_argument("--s2", type=_sign, required=True)
    ev.add_argument("--t1", type=float, required=True, help="first time (omega*t)")
    ev.add_argument("--t2", type=float, required=True, help="second time (omega*t)")
    ev.add_argument("--x0", type=float, default=0.0)
    ev.add_argument("--p0", type=float, default=0.0)
    ev.add_argument("--r", type=float, default=0.0, help="squeeze magnitude")
    ev.add_argument("--theta0", type=float, default=0.0, help="squeeze phase (radians)")
    ev.add_argument("--temp-ratio", type=float, default=0.0,
                    help="temperature as k_B T / (hbar omega)")
    ev.add_argument("--projector", choices=("sign", "window"), default="sign")
    ev.add_argument("--L", type=float, default=None,
                    help="window half-width; only with --projector window")
    ev.add_argument("--offset-amp", type=float, default=0.0)
    ev.add_argument("--offset-phase", type=float, default=0.0)
    ev.add_argument("--offset-const", type=float, default=0.0)
    ev.add_argument("--nmax", type=int, default=DEFAULT_TRUNCATION.n_max,
                    help="series truncation order")
    ev.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER,
                    help="starting u-quadrature order")
    ev.add_argument("--oracle-dim", type=int, default=DEFAULT_DIM)
    ev.add_argument("--out", choices=("text", "json"), default="text")

    sc = sub.add_parser("scan", help="run a plane scan from a key-value config file")
    sc.add_argument("config", type=Path, help="key = value configuration file")
    sc.add_argument("--out-dir", type=Path, default=Path("."))
    sc.add_argument("--basename", default=None, help="output file stem (default: config stem)")
    sc.add_argument("--threads", type=int, default=1, help="worker process cap")

    vf = sub.add_parser("verify", help="run a canned verification scenario")
    vf.add_argument("case", choices=sorted(CASES) + ["all"])
    return parser


def _cmd_eval(args) -> int:
    start = time.perf_counter()
    try:
        params = {"s1": args.s1, "s2": args.s2, "t1": args.t1, "x0": args.x0,
                  "p0": args.p0, "r": args.r, "theta0": args.theta0,
                  "n_th": n_th_from_temperature(args.temp_ratio),
                  "offset": OffsetFunction(args.offset_amp, args.offset_phase,
                                           args.offset_const),
                  "L": args.L, "quad_order": args.quad_order,
                  "oracle_dim": args.oracle_dim}
        evaluator, _ = named_evaluator(params, args.route, args.projector, args.nmax)
        q, info = evaluator(args.t2, with_info=True)
    except (ValueError, TruncationError) as exc:
        print(f"lgqpd eval: error: {exc}", file=sys.stderr)
        return 2

    wall = time.perf_counter() - start
    if isinstance(info, SeriesInfo):
        diagnostics = {"n_used": info.n_used, "tail_bound": info.tail_bound,
                       "singular_branch": info.singular_branch}
        if params["n_th"] > 0:
            diagnostics.update({"m_used": info.m_used, "m_tail": info.m_tail})
    elif isinstance(info, IntegralInfo):
        diagnostics = {"converged": info.converged, "self_consistency": info.last_delta,
                       "u_order": info.order, "degenerate_branch": info.degenerate}
    else:
        diagnostics = {"dim": info.dim, "n_cols": info.n_cols,
                       "trace_deficit": info.trace_deficit, "tail_mass": info.tail_mass}

    if args.out == "json":
        print(json_text({"q": q, "route": args.route, "projector": args.projector,
                         "s1": args.s1, "s2": args.s2, "t1": args.t1, "t2": args.t2,
                         "diagnostics": diagnostics, "wall_s": wall}))
    else:
        print(f"q = {_fmt(q)}")
        print(f"route = {args.route}, projector = {args.projector}")
        for key, val in diagnostics.items():
            print(f"{key} = {val}")
        print(f"wall_s = {wall:.3g}")
    return 0


def _cmd_scan(args) -> int:
    try:
        config = load_scan_config(args.config)
    except FileNotFoundError:
        print(f"lgqpd scan: error: no such config file: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"lgqpd scan: error: {args.config}: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    result = scan_plane(config, workers=max(1, args.threads))
    wall = time.perf_counter() - start
    basename = args.basename or args.config.stem
    csv_path, json_path = write_scan_outputs(result, args.out_dir, basename, wall)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    if result.n_failed:
        print(f"{result.n_failed} cell(s) failed and were marked nan")
    a1, a2, t2 = result.global_argmin
    print(f"global min q = {_fmt(result.global_min)} at "
          f"{result.config.axis1_name}={_fmt(a1)}, "
          f"{result.config.axis2_name}={_fmt(a2)}, t2={_fmt(t2)}")
    return 0


def _cmd_verify(args) -> int:
    names = sorted(CASES) if args.case == "all" else [args.case]
    all_passed = True
    for case in names:
        for check in run_case(case):
            status = "PASS" if check.passed else "FAIL"
            all_passed &= check.passed
            line = (f"{status} [{case}] {check.name}: measured={check.measured:.8g} "
                    f"expected={check.expected:.8g} tol={check.tolerance:.2g}")
            if check.detail:
                line += f" ({check.detail})"
            print(line)
    return 0 if all_passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "scan":
        return _cmd_scan(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
