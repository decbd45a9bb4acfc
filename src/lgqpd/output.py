"""Scan output writers: CSV grid, JSON twin, and the run manifest.

The CSV is locale-independent, row-major in (axis1, axis2) with doubles at 17
significant digits, so identical scans produce byte-identical files.  Every
CSV is accompanied by a JSON twin holding the same payload plus a manifest
(resolved configuration, numerical settings, wall time, checksums) from which
the scan can be reproduced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from . import __version__
from .scan import ScanResult

CSV_HEADER = "axis1,axis2,q_min,t2_argmin"


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def scan_csv_text(result: ScanResult) -> str:
    lines = [CSV_HEADER]
    for i, a1 in enumerate(result.axis1):
        for j, a2 in enumerate(result.axis2):
            lines.append(",".join(_fmt(v) for v in
                                  (a1, a2, result.q_min[i, j], result.t2_argmin[i, j])))
    return "\n".join(lines) + "\n"


def build_manifest(result: ScanResult, csv_text: str, wall_time_s: float) -> dict:
    """The run manifest.  ``coarse_s`` sums each band's seconds up to its
    first served round, its coarse curves, and ``refine_s`` the rest, its
    refinements, over every band of rows (one per worker), ``refine_evals`` the
    refinements' probes and ``refine_capped`` the cells whose
    refinement hit its cap, each over the cells that ran a search;
    ``mirror_filled`` counts the cells filled from their time-reversal
    partner instead, ``reflected`` the searched cells whose coarse curve ran
    on half its grid, and ``cells_per_s`` is the grid's cells over
    ``wall_time_s``."""
    cfg = result.config
    cells = result.q_min.size
    return {
        "tool": "lgqpd",
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "route": cfg.route,
        "settings": {
            "n_max": cfg.n_max,
            "quad_order": cfg.quad_order,
            "oracle_dim": cfg.oracle_dim,
            "t2_coarse_steps": cfg.t2_coarse_steps,
            "t2_refine_iters": cfg.t2_refine_iters,
        },
        "grid_shape": [int(result.axis1.size), int(result.axis2.size)],
        "n_failed": int(result.n_failed),
        "global_min": result.global_min,
        "global_argmin": {
            cfg.axis1_name: result.global_argmin[0],
            cfg.axis2_name: result.global_argmin[1],
            "t2": result.global_argmin[2],
        },
        "wall_time_s": wall_time_s,
        "coarse_s": result.coarse_s,
        "refine_s": result.refine_s,
        "refine_evals": result.refine_evals,
        "refine_capped": result.refine_capped,
        "mirror_filled": result.mirror_filled,
        "reflected": result.reflected,
        "cells_per_s": cells / wall_time_s if wall_time_s > 0 else None,
        "checksums": {"csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest()},
    }


def write_scan_outputs(result: ScanResult, out_dir, basename: str,
                       wall_time_s: float) -> tuple[Path, Path]:
    """Write <basename>.csv and <basename>.json; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_text = scan_csv_text(result)
    manifest = build_manifest(result, csv_text, wall_time_s)
    payload = {
        "manifest": manifest,
        "axis1_name": result.config.axis1_name,
        "axis2_name": result.config.axis2_name,
        "columns": CSV_HEADER.split(","),
        "rows": [
            [float(v) for v in (a1, a2, result.q_min[i, j], result.t2_argmin[i, j])]
            for i, a1 in enumerate(result.axis1)
            for j, a2 in enumerate(result.axis2)
        ],
    }
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    csv_path.write_text(csv_text, encoding="utf-8")
    json_path.write_text(json_text(payload) + "\n", encoding="utf-8")
    return csv_path, json_path


def json_text(payload) -> str:
    """``payload`` as strict JSON, indented by 2: a non-finite float, which
    JSON cannot spell, is written as null."""
    return json.dumps(_nulled(payload), indent=2, allow_nan=False)


def _nulled(value):
    """``value`` with each non-finite float, in dicts and lists at any
    depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _nulled(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value
