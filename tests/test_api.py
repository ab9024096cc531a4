"""The public surface: what importing the package loads and what it exports."""

import ast
import importlib
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


@pytest.mark.parametrize("package", ["scipy.sparse", "scipy.linalg"])
def test_cli_import_leaves_out(package):
    code = ("import sys, lamespectra.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({package!r})))")
    assert _fresh_python(code).strip() == "[]"


LAZY_RUNS = {
    "norms": """
        lattice: {dim: 2, points: 8}
        potential: {family: gaussian, amplitude: -4.0, width: 0.7}
        norms:
          - {name: lp, p: 2.0}
          - {name: weighted_lq, q: 2.0, alpha: 0.5}
          - {name: morrey_campanato, alpha: 1.0, p: 1.5}
          - {name: kerman_sayer, alpha: 0.5}
          - {name: muckenhoupt, p: 2.0}
        """,
    "decompose": "lattice: {dim: 2, points: 8}\n",
    "resolvent-check": """
        lattice: {dim: 2, points: 8}
        material: {lambda: 0.5, mu: 1.0}
        resolvent: {z_values: [[-1.0, 0.5]], samples: 1}
        """,
    "spectrum": """
        lattice: {dim: 1, points: 16}
        material: {lambda: 0.5, mu: 1.0}
        potential: {family: well, depth: 5.0, half_width: 1.0}
        """,
}


def test_fft_commands_leave_out_lapack(tmp_path):
    # norms, decompose and resolvent-check use FFTs and norm scans only; the
    # spectrum run after them shows that the check can see LAPACK load
    for name, text in LAZY_RUNS.items():
        (tmp_path / f"{name}.yaml").write_text(textwrap.dedent(text))
    code = textwrap.dedent(f"""
        import sys
        from lamespectra.cli import main
        loaded = {{}}
        for name in {list(LAZY_RUNS)!r}:
            assert main([name, "-c", name + ".yaml", "-o", name]) == 0
            loaded[name] = "scipy.linalg" in sys.modules
        print(loaded)
    """)
    loaded = _fresh_python(code, cwd=tmp_path).splitlines()[-1]
    assert loaded == str({"norms": False, "decompose": False, "resolvent-check": False,
                          "spectrum": True})


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
