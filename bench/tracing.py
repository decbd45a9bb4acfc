"""Per-layer tracing of the lgqpd package from outside.

The tracer replaces each traced public function with a timing wrapper in
every ``lgqpd`` module namespace that holds it, because the package's modules
import functions by name and call them through their own globals.  Each call
records one span ``(layer, start, end, parent)``; spans are kept in memory (in
flat arrays, since a traced minimization makes about a million of them) and
written out once, when the run ends.  A layer's self time is its span minus
the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: (module, function) -> layer name.  Several functions may share a layer.
LAYERS = {
    ("special", "psi_rows"): "special.psi_rows",
    ("special", "averaged_partial_sum"): "special.averaged_partial_sum",
    ("special", "gauss_legendre"): "special.gauss_legendre",
    ("special", "composite_gauss_legendre"): "special.composite_gauss_legendre",
    ("matrix_elements", "j_row"): "matrix_elements.j_row",
    ("matrix_elements", "j_block"): "matrix_elements.j_block",
    ("matrix_elements", "j_diag_row"): "matrix_elements.j_diag_row",
    ("series", "qpd_series_squeezed"): "series.scalar",
    ("series", "qpd_series_thermal"): "series.scalar",
    ("series", "qpd_series_window"): "series.scalar",
    ("series", "q_sign_series_curve"): "series.curve",
    ("series", "q_window_series_curve"): "series.curve",
    ("integral", "qpd_integral"): "integral.qpd_integral",
    ("fock", "qpd_oracle"): "fock.qpd_oracle",
    ("fock", "projector_matrix"): "fock.projector_matrix",
    ("scan", "minimize_over_t2"): "scan.minimize_over_t2",
    ("scan", "global_minimize"): "scan.global_minimize",
    ("scan", "scan_plane"): "scan.scan_plane",
    ("config", "load_scan_config"): "config.load_scan_config",
    ("output", "write_scan_outputs"): "output.write_scan_outputs",
}

#: Layers whose self time is reported (the quadrature rule builders are traced
#: only so that their time is not charged to the layer that calls them).
SELF_TIME_LAYERS = (
    "special.psi_rows", "special.averaged_partial_sum",
    "matrix_elements.j_row", "matrix_elements.j_block", "matrix_elements.j_diag_row",
    "series.scalar", "series.curve", "integral.qpd_integral",
    "fock.qpd_oracle", "fock.projector_matrix", "scan.minimize_over_t2",
    "scan.global_minimize", "scan.scan_plane", "config.load_scan_config",
    "output.write_scan_outputs",
)
CALL_LAYERS = (
    "special.psi_rows", "matrix_elements.j_row", "series.scalar",
    "integral.qpd_integral", "fock.qpd_oracle", "scan.minimize_over_t2",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._layer = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return self._layer_ids[layer]

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``layer``."""
        index = len(self._layer)
        self._layer.append(self._layer_id(layer))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = time.perf_counter()
            self._stack.pop()

    def _inside(self, layer: str) -> bool:
        layer_id = self._layer_ids.get(layer)
        return any(self._layer[i] == layer_id for i in self._stack)

    def _count_evals(self, evaluator):
        def counted(t2):
            self.counts["scan.scalar_evals"] += 1
            return evaluator(t2)
        return counted

    def _before(self, layer, fn_name, args, kwargs):
        """Count work at the layer boundary; may substitute arguments."""
        if layer == "special.psi_rows":
            n_max = _arg(args, kwargs, 1, "n_max")
            self.counts["special.psi_rows.values"] += (n_max + 1) * np.size(
                _arg(args, kwargs, 0, "x"))
        elif layer == "matrix_elements.j_row":
            cut = np.asarray(_arg(args, kwargs, 0, "cut"), dtype=float)
            self.keys["j_row"].add((cut.shape, cut.tobytes(),
                                    int(_arg(args, kwargs, 1, "n_max"))))
        elif layer == "series.curve":
            grid_index = 4 if fn_name == "q_sign_series_curve" else 5
            self.counts["series.curve.points"] += np.size(
                _arg(args, kwargs, grid_index, "t2_grid"))
        elif layer == "fock.projector_matrix":
            self.keys["projector_matrix"].add(
                (repr(_arg(args, kwargs, 0, "meas")), int(_arg(args, kwargs, 1, "s")),
                 int(_arg(args, kwargs, 3, "dim"))))
        elif layer == "scan.minimize_over_t2":
            if args:
                args = (self._count_evals(args[0]),) + tuple(args[1:])
            else:
                kwargs = dict(kwargs, evaluator=self._count_evals(kwargs["evaluator"]))
        return args, kwargs

    def _after(self, layer, result):
        if layer.endswith("gauss_legendre") and self._inside("integral.qpd_integral"):
            self.counts["integral.u_nodes"] += len(result.nodes)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{layer}.calls"] += 1
            args, kwargs = self._before(layer, fn.__name__, args, kwargs)
            result = self.span(layer, fn, *args, **kwargs)
            self._after(layer, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put a wrapper in place of every traced function in every lgqpd
        module namespace that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "lgqpd" or name.startswith("lgqpd."))]
        for (mod_name, fn_name), layer in LAYERS.items():
            original = getattr(importlib.import_module(f"lgqpd.{mod_name}"), fn_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        layer = np.frombuffer(self._layer, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        per_layer = np.bincount(layer, weights=dur - covered,
                                minlength=len(self.layer_names))
        return dict(zip(self.layer_names, per_layer.tolist()))

    def layer_metrics(self, ops: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` traced operations, each time or count
        given per operation, as ``name -> (value, unit)``; ``overhead_s`` is
        the tracing overhead per operation."""
        self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / ops, "s")
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = (self.counts[f"{layer}.calls"] / ops, "count")
        for name in ("special.psi_rows.values", "series.curve.points", "integral.u_nodes"):
            out[name] = (self.counts[name] / ops, "count")
        j_calls = self.counts["matrix_elements.j_row.calls"]
        out["matrix_elements.j_row.distinct_cut_ratio"] = (
            len(self.keys["j_row"]) / j_calls if j_calls else 0.0, "ratio")
        builds = self.counts["fock.projector_matrix.calls"]
        out["fock.projector_matrix.distinct_ratio"] = (
            len(self.keys["projector_matrix"]) / builds if builds else 0.0, "ratio")
        mins = self.counts["scan.minimize_over_t2.calls"]
        out["scan.scalar_evals_per_min"] = (
            self.counts["scan.scalar_evals"] / mins if mins else 0.0, "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def dump(self, path) -> None:
        """Write the spans (layer id, start, end, parent index) with the layer
        names and the counters to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, layer_names=np.array(self.layer_names),
            layer=np.frombuffer(self._layer, dtype=np.int32),
            start_s=np.frombuffer(self._start), end_s=np.frombuffer(self._end),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)]))
