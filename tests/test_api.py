"""The public surface: what importing the package loads and what it exports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lamespectra

MODULES = ["lamespectra"] + [f"lamespectra.{m.name}"
                             for m in pkgutil.iter_modules(lamespectra.__path__)]


def test_cli_import_leaves_out_scipy_sparse():
    # a fresh interpreter, so no other test's imports count
    src = str(Path(lamespectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, lamespectra.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_benchmark_span_resolves():
    # the traced benchmark wraps each (module, function) of SPANS by name, so
    # renaming or deleting one in lamespectra breaks every traced run
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    (spans,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]]
    assert len(spans) > 0
    missing = [(m, f) for m, f, _ in spans
               if not callable(getattr(importlib.import_module(f"lamespectra.{m}"), f, None))]
    assert missing == []
