"""Every demo script runs to completion against the current API."""

import os
import runpy
from pathlib import Path

import pytest

import lamespectra

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # demos that start the CLI in a subprocess must import this same package
    paths = [str(Path(lamespectra.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
