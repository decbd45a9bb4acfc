"""Every demo script runs to completion in-process, with its output captured."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, capsys):
    # no arguments: route_comparison.py writes a CSV only when given a path
    monkeypatch.setattr("sys.argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
