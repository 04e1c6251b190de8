"""Each demo script runs to completion and writes its outputs where it is told."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(demo), str(tmp_path)])
    runpy.run_path(str(demo), run_name="__main__")
    assert f"under {tmp_path}/" in capsys.readouterr().out
    assert any(p.suffix == ".csv" for p in tmp_path.iterdir())
