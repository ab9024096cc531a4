"""The public surface: what importing the package loads and what it exports."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lamespectra

MODULES = ["lamespectra"] + [f"lamespectra.{m.name}"
                             for m in pkgutil.iter_modules(lamespectra.__path__)]


def _fresh_python(code: str, cwd=None) -> str:
    """Stdout of ``code`` run in a fresh interpreter, so no other test's imports count."""
    src = str(Path(lamespectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


# no module under src/ imports scipy; the subpackage cases name the heavy
# imports a regression would most likely bring back
@pytest.mark.parametrize("package", ["scipy.sparse", "scipy.linalg", "scipy"])
def test_cli_import_leaves_out(package):
    code = ("import sys, lamespectra.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({package!r})))")
    assert _fresh_python(code).strip() == "[]"


WELL = """
lattice: {dim: 1, points: 192, period: 30.0}
material: {lambda: -1.0, mu: 1.0}
potential: {family: well, depth: 5.0, half_width: 1.015625}
solver: {tau_filter: 0.5}
"""

# (run, command, config): every command on a small fixture, and last a run
# in which 56 bound states pass the distance filter
RUNS = [
    ("norms", "norms", """
        lattice: {dim: 2, points: 8}
        potential: {family: gaussian, amplitude: -4.0, width: 0.7}
        norms:
          - {name: lp, p: 2.0}
          - {name: weighted_lq, q: 2.0, alpha: 0.5}
          - {name: morrey_campanato, alpha: 1.0, p: 1.5}
          - {name: kerman_sayer, alpha: 0.5}
          - {name: muckenhoupt, p: 2.0}
        """),
    ("decompose", "decompose", "lattice: {dim: 2, points: 8}\n"),
    ("resolvent-check", "resolvent-check", """
        lattice: {dim: 2, points: 8}
        material: {lambda: 0.5, mu: 1.0}
        resolvent: {z_values: [[-1.0, 0.5]], samples: 1}
        """),
    ("spectrum", "spectrum", WELL),
    ("enclosure", "enclosure", WELL + "enclosure: {theorem: T1d, gamma: 0.5}\n"),
    ("calibrate", "calibrate", """
        lattice: {dim: 1, points: 64, period: 12.0}
        material: {lambda: 0.0, mu: 0.5}
        calibrate:
          theorem: T1d
          gamma: 0.5
          ensemble: {family: gaussian, size: 3, real_only: true}
        seed: 5
        """),
    ("bs-check", "bs-check", WELL + "bs: {limit: 2}\n"),
    ("many-survivors", "spectrum", WELL.replace("depth: 5.0, half_width: 1.015625",
                                                "depth: 300.0, half_width: 5.0")),
]


def test_no_command_imports_scipy(tmp_path):
    # eigenvalues and LUs run through numpy.linalg, so every command runs with
    # scipy blocked, however many eigenvalues pass the distance filter
    for run, _, text in RUNS:
        (tmp_path / f"{run}.yaml").write_text(textwrap.dedent(text))
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
        from lamespectra.cli import main
        for run, command in {[(run, command) for run, command, _ in RUNS]!r}:
            assert main([command, "-c", run + ".yaml", "-o", run]) == 0, run
        print("ok")
    """)
    assert _fresh_python(code, cwd=tmp_path).splitlines()[-1] == "ok"
    routes = {run: {stage["route"] for stage in
                    json.loads((tmp_path / run / report).read_text())["trace"]
                    if stage["stage"] == "dense.eig"}
              for run, report in (("spectrum", "spectrum.json.meta.json"),
                                  ("calibrate", "calibration.json.meta.json"),
                                  ("many-survivors", "spectrum.json.meta.json"))}
    assert routes == {run: {"inverse_iteration"}
                      for run in ("spectrum", "calibrate", "many-survivors")}


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
