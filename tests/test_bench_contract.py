"""The benchmark's tracer reaches into the package from outside: it wraps the
functions named in ``bench/tracing.py`` ``LAYERS`` and reads some of their
arguments by position.  These checks fail when a rename, a deletion or a
reordered signature would silently break ``bench/run.py --trace 1``."""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """bench/<name>.py as a module, compiled from its source so that no
    bytecode cache is written next to it.  The module is registered, because
    ``dataclasses`` looks its class's module up."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


_TRACING = load_bench("tracing")
LAYERS, Tracer = _TRACING.LAYERS, _TRACING.Tracer

#: (module, function) -> {position: parameter name} that Tracer._before reads.
POSITIONAL_SLOTS = {
    ("special", "psi_rows"): {0: "x", 1: "n_max"},
    ("matrix_elements", "j_row"): {0: "cut", 1: "n_max"},
    ("series", "q_sign_series_curve"): {4: "t2_grid"},
    ("series", "q_window_series_curve"): {5: "t2_grid"},
    ("fock", "projector_matrix"): {0: "meas", 1: "s", 3: "dim"},
    ("scan", "minimize_over_t2"): {0: "evaluator"},
}


@pytest.mark.parametrize("module,function", sorted(LAYERS))
def test_every_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"lgqpd.{module}"), function))


@pytest.mark.parametrize("key", sorted(POSITIONAL_SLOTS))
def test_positional_slots_read_by_the_tracer(key):
    module, function = key
    assert key in LAYERS
    fn = getattr(importlib.import_module(f"lgqpd.{module}"), function)
    params = list(inspect.signature(fn).parameters.values())
    for index, name in POSITIONAL_SLOTS[key].items():
        assert params[index].name == name
        assert params[index].kind in (inspect.Parameter.POSITIONAL_ONLY,
                                      inspect.Parameter.POSITIONAL_OR_KEYWORD)


def test_series_points_stay_off_the_curve_layer():
    """A series point that went through a public curve name would count a
    ``series.curve`` call and one more traced curve point per probe."""
    lgqpd = importlib.import_module("lgqpd")
    tracer = Tracer()
    tracer.install()
    try:
        lgqpd.qpd_series_squeezed(lgqpd.StateSpec.from_phase_space(0.5, 1.2), 1, -1, 0.0, 1.3)
        lgqpd.qpd_series_window(lgqpd.StateSpec(r=0.3), 1.02, 1, 1, 0.0, 1.3)
    finally:
        tracer.uninstall()
    assert tracer.counts["series.scalar.calls"] == 2
    assert tracer.counts["series.curve.calls"] == 0
    assert tracer.counts["series.curve.points"] == 0


def test_window_minimize_settings_are_search_parameters():
    """``window-minimize`` passes its settings to ``global_minimize`` by name."""
    from lgqpd import scan

    settings = load_bench("workloads").WindowMinimize.SETTINGS
    assert set(settings) <= set(inspect.signature(scan.global_minimize).parameters)
