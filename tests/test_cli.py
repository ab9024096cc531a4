import ast
import contextlib
import copy
import csv
import io
import json
import tempfile
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import well_bound_states
from test_api import _fresh_python
from lamespectra.cli import main
from lamespectra.config import lattice_from_config, potential_from_config
from lamespectra.norms import _level_blocks

WELL_CONFIG = """
lattice: {dim: 1, points: 192, period: 30.0}
material: {lambda: -1.0, mu: 1.0}
potential:
  family: well
  depth: 5.0
  half_width: 1.015625   # 6.5 grid cells, edge between samples
solver: {tau_filter: 0.5}
"""


CALIBRATE_CONFIG = """
lattice: {dim: 1, points: 64, period: 12.0}
material: {lambda: 0.0, mu: 0.5}
calibrate:
  theorem: T1d
  gamma: 0.5
  ensemble: {family: gaussian, size: 3}
seed: 5
"""


def _write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _json(out, name):
    return json.loads((out / name).read_text())


def _eig_notes(out, report):
    """The ``dense.eig`` stages in the trace of a report's sidecar, in order."""
    return [s for s in _json(out, report + ".meta.json")["trace"] if s["stage"] == "dense.eig"]


def test_decompose_random(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 2, points: 16}
        seed: 3
        """,
    )
    out = tmp_path / "out"
    assert main(["decompose", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "decompose.json")
    assert doc["pythagorean_residual"] < 1e-12
    assert doc["divergence_residual"] < 1e-12
    assert doc["recomposition_residual"] < 1e-12
    for name in ("field.csv", "solenoidal.csv", "potential_part.csv"):
        assert (out / name).exists()
    assert _json(out, "decompose.json.meta.json")["trace"] == []  # no traced stage runs


def test_decompose_gradient_is_potential_only(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 2, points: 16}
        decompose: {field: gradient}
        """,
    )
    out = tmp_path / "out"
    assert main(["decompose", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "decompose.json")
    assert doc["norms"]["solenoidal"] < 1e-12 * doc["norms"]["total"]


def test_decompose_bad_field_kind(tmp_path):
    cfg = _write(tmp_path, "lattice: {dim: 2, points: 16}\ndecompose: {field: radial}\n")
    assert main(["decompose", "-c", cfg, "-o", str(tmp_path / "o")]) == 2


def test_resolvent_check(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 2, points: 16}
        material: {lambda: 2.0, mu: 0.5}
        resolvent:
          z_values: [[-1.0, 0.0], [0.5, 1.5]]
          samples: 2
        """,
    )
    out = tmp_path / "out"
    assert main(["resolvent-check", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "resolvent_check.json")
    assert doc["worst_rel_deviation"] < 1e-11
    assert len(doc["checks"]) == 2


def test_spectrum_against_line_oracle(tmp_path):
    cfg = _write(tmp_path, WELL_CONFIG)
    out = tmp_path / "out"
    assert main(["spectrum", "-c", cfg, "-o", str(out)]) == 0
    with open(out / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    oracle = well_bound_states(5.0, 1.015625, 1.0)
    assert len(rows) == len(oracle) == 2
    got = sorted(float(r["re"]) for r in rows)
    # h^2 discretization error at n = 192: the shallow state sits closer to
    # threshold and converges with a larger constant
    for g, o, tol in zip(got, oracle, (2e-3, 1e-2)):
        assert abs(g - o) / abs(o) < tol
    doc = _json(out, "spectrum.json")
    assert doc["solver_info"]["tau_filter"] == 0.5
    assert all(float(r["residual"]) < 1e-8 for r in rows)


def test_spectrum_empty_for_zero_potential(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 1, points: 64, period: 10.0}
        material: {lambda: 0.0, mu: 1.0}
        potential: {family: gaussian, amplitude: 0.0, width: 0.5}
        """,
    )
    out = tmp_path / "out"
    assert main(["spectrum", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "spectrum.json")
    assert doc["eigenvalues"] == []


def test_spectrum_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, WELL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "-c", cfg, "-o", str(out1)]) == 0
    assert main(["spectrum", "-c", cfg, "-o", str(out2)]) == 0
    assert (out1 / "spectrum.json").read_bytes() == (out2 / "spectrum.json").read_bytes()
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()


def test_bs_check_at_spectrum_points(tmp_path):
    cfg = _write(tmp_path, WELL_CONFIG + "bs: {limit: 2}\n")
    out = tmp_path / "out"
    assert main(["bs-check", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "bs_check.json")
    assert doc["n_from_spectrum"] == 2
    for row in doc["checks"]:
        assert row["eigenvalue_gap"] < 1e-6
        assert row["operator_norm"] >= 1.0 - 1e-6


SYMMETRIC_CONFIG = """
lattice: {dim: 2, points: 12}
material: {lambda: 0.5, mu: 1.0}
potential: {family: gaussian, amplitude: -35.0, width: 0.55}
solver: {tau_filter: 3.0}
"""


def test_bs_check_symmetric_potential(tmp_path):
    # a centred radial bump gives degenerate singular values of K(z)
    cfg = _write(tmp_path, SYMMETRIC_CONFIG)
    out = tmp_path / "out"
    assert main(["bs-check", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "bs_check.json")
    assert doc["n_from_spectrum"] == len(doc["checks"]) == 5
    for row in doc["checks"]:
        assert row["eigenvalue_gap"] < 1e-6
        assert row["operator_norm"] >= 1.0 - 1e-12


def test_norms_command(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 1, points: 32, period: 8.0}
        potential: {family: gaussian, amplitude: [-4.0, 2.0], width: 0.7}
        norms:
          - {name: lp, p: 2.0}
          - {name: morrey_campanato, alpha: 0.5, p: 1.0}
        """,
    )
    out = tmp_path / "out"
    assert main(["norms", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "norms.json")
    assert [e["norm_name"] for e in doc["norms"]] == ["lp", "morrey_campanato"]
    assert all(e["value"] > 0.0 for e in doc["norms"])
    assert doc["norms"][1]["witness"]["radius_exponent"] >= 0


def test_norms_sidecar_times_each_entry(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 2, points: 16}
        potential: {family: gaussian, amplitude: -4.0, width: 0.7}
        norms:
          - {name: lp, p: 2.0}
          - {name: morrey_campanato, alpha: 0.5, p: 1.0}
          - {name: kerman_sayer, alpha: 1.0}
        """,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["norms", "-c", cfg, "-o", str(out1)]) == 0
    assert main(["norms", "-c", cfg, "-o", str(out2)]) == 0
    assert (out1 / "norms.json").read_bytes() == (out2 / "norms.json").read_bytes()
    stages = _json(out1, "norms.json.meta.json")["trace"]
    assert len(stages) == len(_json(out1, "norms.json")["norms"]) == 3
    assert all(isinstance(s["seconds"], float) and s["seconds"] >= 0.0 for s in stages)
    # one stage per entry, in order, with each scan's counts
    lp, screen, products = stages
    assert set(lp) == {"stage", "seconds"} and lp["stage"] == "norm.lp"
    assert screen["stage"] == "norm.morrey_campanato"
    assert screen["slab_adds"] == 2 * 8 + (3 + 5 + 9 + 17)  # R = 8, radii 1, 2, 4, 8
    assert screen["candidates_reevaluated"] >= 1
    assert products["stage"] == "norm.kerman_sayer"
    assert set(products) == {"stage", "seconds", "products_formed", "products_skipped_zero"}


@pytest.mark.parametrize("command, extra, report", [
    ("spectrum", "", "spectrum.json"),
    ("enclosure", "enclosure: {theorem: T1d, gamma: 0.5}\n", "enclosure.json"),
])
def test_sidecar_records_the_eigensolve(tmp_path, command, extra, report):
    cfg = _write(tmp_path, WELL_CONFIG + extra)
    out = tmp_path / "out"
    assert main([command, "-c", cfg, "-o", str(out)]) == 0
    (solve,) = _eig_notes(out, report)
    assert solve["route"] == "inverse_iteration"
    assert solve["lu_solves"] == 2  # the well's two bound states
    assert solve["seconds"] > 0.0
    if command == "spectrum":
        assert set(_json(out, report)["solver_info"]).isdisjoint(solve)


def test_calibrate_sidecar_records_each_eigensolve(tmp_path):
    cfg = _write(tmp_path, CALIBRATE_CONFIG)
    out = tmp_path / "out"
    assert main(["calibrate", "-c", cfg, "-o", str(out)]) == 0
    solves = _eig_notes(out, "calibration.json")
    # one solve per member with a positive right-hand side, in member order
    solved = [m for m in _json(out, "calibration.json")["members"] if m["rhs"] > 0.0]
    assert len(solves) == len(solved) > 0
    for s, member in zip(solves, solved):
        assert s["route"] == "inverse_iteration"
        assert s["lu_solves"] == member["n_eigenvalues"]
        assert s["seconds"] > 0.0
    # with the default distance filter some members keep more than 40
    assert max(s["lu_solves"] for s in solves) > 40


KS_3D_CONFIG = """
lattice: {dim: 3, points: 32}
potential: {family: gaussian, amplitude: -4.0, width: 0.7}
norms:
  - {name: kerman_sayer, alpha: 1.0}
"""


def test_norms_ks_scan_3d_n32_fits(tmp_path):
    # N = 32768: the scan holds a leaf buffer and O(N) arrays, never the
    # 8.6 GB slab, and skips the products outside the Gaussian's support
    cfg = _write(tmp_path, KS_3D_CONFIG)
    out = tmp_path / "o"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["norms", "-c", cfg, "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert time.perf_counter() - start < 10.0
    assert peak <= 64 * 1024**2
    assert _json(out, "norms.json")["norms"][0]["value"] > 0.0
    (counts,) = _json(out, "norms.json.meta.json")["trace"]
    assert counts["stage"] == "norm.kerman_sayer"
    # the six dyadic levels hold 6 N^2 products, fewer in cubes of zero mass
    assert counts["products_formed"] + counts["products_skipped_zero"] <= 6 * 32768**2
    assert counts["products_skipped_zero"] > 10 * counts["products_formed"] > 0
    # only 128-product blocks that pair two nonzero cells are formed: within
    # 4x the nonzero products of the kept cubes (3.41x is the block floor)
    cfg = yaml.safe_load(KS_3D_CONFIG)
    absV = np.abs(potential_from_config(cfg, lattice_from_config(cfg)).values)
    nonzero = sum(int(np.sum(np.count_nonzero(_level_blocks(absV, 32 >> level), axis=1) ** 2))
                  for level in range(6))
    assert counts["products_formed"] <= 4 * nonzero


def test_norms_ks_budget_exit_code(tmp_path, capsys):
    # a budget below the scan's chunk model: the guard refuses up front
    cfg = _write(tmp_path, KS_3D_CONFIG + "solver: {budget_bytes: 2000000}\n")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["norms", "-c", cfg, "-o", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert time.perf_counter() - start < 2.0
    assert peak < 32 * 1024**2
    err = capsys.readouterr().err
    assert "N = 32768 cells needs 6.6 MB" in err
    assert "budget is 2.0 MB" in err


def test_failed_run_leaves_its_sidecar(tmp_path, capsys):
    # the L^p norm finishes, the Kerman-Sayer scan exceeds the budget: the
    # sidecar keeps the finished stage and the error, and no report is written
    cfg = _write(tmp_path, KS_3D_CONFIG.replace("norms:\n", "norms:\n  - {name: lp, p: 2.0}\n")
                 + "solver: {budget_bytes: 2000000}\n")
    out = tmp_path / "o"
    assert main(["norms", "-c", cfg, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    meta = _json(out, "norms.json.meta.json")
    assert [s["stage"] for s in meta["trace"]] == ["norm.lp"]
    assert meta["error"] == {"exit_code": 4, "message": err.removeprefix("error: ").rstrip("\n")}
    assert meta["warnings"] == []
    assert not (out / "norms.json").exists()


def test_warnings_reach_the_user_as_messages(tmp_path, capsys):
    # an A_p weight with zero cells warns once; the CLI prints the message
    # alone, without the warning's source line, and records it in the sidecar
    cfg = _write(tmp_path, "lattice: {dim: 2, points: 16}\n"
                 "potential: {family: well, depth: 5.0, half_width: 1.0}\n"
                 "norms: [{name: muckenhoupt, p: 2.0}]\n")
    out = tmp_path / "o"
    assert main(["norms", "-c", cfg, "-o", str(out)]) == 0
    message = "weight vanishes on 231 cells; flooring at 1e-12"
    err = capsys.readouterr().err
    assert err == f"warning: {message}\n"
    assert _json(out, "norms.json.meta.json")["warnings"] == [message]


def test_calibrate_ks_scan_honours_budget(tmp_path, capsys):
    # the right-hand side is computed before the dense solve, so the KS scan
    # must refuse first rather than allocate past the configured budget
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 2, points: 32}
        material: {lambda: 0.5, mu: 1.0}
        solver: {budget_bytes: 1000000}
        calibrate:
          theorem: T_KS
          gamma: 0.4
          ensemble: {family: gaussian, size: 1}
        """,
    )
    assert main(["calibrate", "-c", cfg, "-o", str(tmp_path / "o")]) == 4
    assert "Kerman-Sayer scan over N = 1024 cells" in capsys.readouterr().err


def test_norms_requires_list(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 1, points: 32, period: 8.0}
        potential: {family: gaussian, amplitude: 1.0, width: 0.7}
        """,
    )
    assert main(["norms", "-c", cfg, "-o", str(tmp_path / "o")]) == 2


def test_enclosure_command(tmp_path):
    cfg = _write(tmp_path, WELL_CONFIG + "enclosure: {theorem: T1d, gamma: 0.5}\n")
    out = tmp_path / "out"
    assert main(["enclosure", "-c", cfg, "-o", str(out)]) == 0
    doc = _json(out, "enclosure.json")
    assert doc["verdicts"] == ["inside", "inside"]
    with open(out / "enclosure.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["verdict"] for r in rows] == ["inside", "inside"]


def test_enclosure_hypothesis_violation_exit_code(tmp_path):
    # a d >= 2 family requested on a 1d run
    cfg = _write(tmp_path, WELL_CONFIG + "enclosure: {theorem: T_Lp, gamma: 0.25}\n")
    assert main(["enclosure", "-c", cfg, "-o", str(tmp_path / "o")]) == 3


def test_enclosure_of_an_overflowing_ks_weight_writes_inf(tmp_path):
    # |V|^beta overflows for T_KS: the report is written with an infinite rhs
    cfg = _write(tmp_path, """
        lattice: {dim: 2, points: 8}
        material: {lambda: 1.0, mu: 1.0}
        potential: {family: gaussian, amplitude: -1.0e+300, width: 0.7}
        enclosure: {theorem: T_KS, gamma: 0.4}
        """)
    out = tmp_path / "out"
    assert main(["enclosure", "-c", cfg, "-o", str(out)]) == 0
    assert _json(out, "enclosure.json")["rhs_value"] == float("inf")
    assert "overflow encountered in power" in _json(out, "enclosure.json.meta.json")["warnings"]


def test_budget_exit_code(tmp_path):
    cfg = _write(
        tmp_path,
        """
        lattice: {dim: 2, points: 32}
        material: {lambda: 1.0, mu: 1.0}
        potential: {family: gaussian, amplitude: -10.0, width: 0.5}
        solver: {budget_bytes: 1000000}
        """,
    )
    assert main(["spectrum", "-c", cfg, "-o", str(tmp_path / "o")]) == 4


_RESOLVENT = "lattice: {dim: 1, points: 16}\nmaterial: {lambda: 0.0, mu: 1.0}\nresolvent: "
_NORMS = ("lattice: {dim: 1, points: 32, period: 8.0}\n"
          "potential: {family: gaussian, amplitude: 1.0, width: 0.7}\nnorms: ")
_WELL_16 = "lattice: {dim: 1, points: 16}\nmaterial: {lambda: 0.0, mu: 1.0}\npotential: "
_TINY_CELL = ("lattice: {dim: 1, points: 8, period: 1.0e-160}\nmaterial: {lambda: 0.0, mu: 1.0}\n"
              "potential: {family: well, depth: 1.0, half_width: 1.0e-161}\n")
EIGHT_SAMPLES = Path(__file__).resolve().parent / "data" / "eight_samples.csv"


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("resolvent-check", _RESOLVENT + "{z_values: [[-1.0, 0.3], [2.0, 0.0]]}\n",
         "resolvent.z_values[1]"),
        ("bs-check", WELL_CONFIG + "bs: {z_values: [0.0]}\n", "bs.z_values[0]"),
        ("bs-check", WELL_CONFIG.replace("tau_filter: 0.5", "tau_filter: 0.0"),
         "solver.tau_filter"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_filter: small"),
         "solver.tau_filter"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_res: tight"), "solver.tau_res"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "budget_bytes: 512MB"),
         "solver.budget_bytes"),
        ("resolvent-check", _RESOLVENT + "{samples: three}\n", "resolvent.samples"),
        ("bs-check", WELL_CONFIG + "bs: {limit: all}\n", "bs.limit"),
        ("enclosure", WELL_CONFIG + "enclosure: {theorem: T1d, gamma: 0.5, margin: wide}\n",
         "enclosure.margin"),
        ("calibrate", CALIBRATE_CONFIG.replace("size: 3", "size: many"),
         "calibrate.ensemble.size"),
        ("norms", "lattice: {dim: 1, points: 32, period: 8.0}\n"
         "potential: {family: gaussian, amplitude: 1.0, width: 0.7}\n"
         "norms: [{name: lp, p: two}]\n", "norms[0].p"),
        ("decompose", "lattice: {dim: 1, points: 16}\nseed: abc\n", "seed"),
        ("decompose", "lattice: {dim: 1, points: many}\n", "lattice.points"),
        ("resolvent-check", _RESOLVENT + "[1, 2]\n", "'resolvent'"),
        ("bs-check", WELL_CONFIG + "bs: 3\n", "'bs'"),
        ("decompose", "lattice: {dim: 1, points: 16}\ndecompose: [random]\n", "'decompose'"),
        ("calibrate", CALIBRATE_CONFIG.replace("{family: gaussian, size: 3}", "gaussian"),
         "'calibrate.ensemble'"),
        ("norms", _NORMS + "[{name: lp}]\n", "norms[0].p"),
        ("spectrum", _WELL_16.replace("lambda: 0.0", "lambda: [1]")
         + "{family: well, depth: 1.0, half_width: 1.0}\n", "material.lambda"),
        ("spectrum", _WELL_16 + "{family: well, depth: 1.0, half_width: 1.0, center: [a]}\n",
         "potential.center"),
        ("spectrum", _WELL_16 + "{family: well, depth: 1.0, half_width: 1.0, center: 4.0}\n",
         "potential.center"),
        ("spectrum", _WELL_16 + "{csv: no_such_dir/V.csv}\n", "potential.csv"),
        ("spectrum", _WELL_16 + f"{{csv: '{EIGHT_SAMPLES}'}}\n", "potential.csv"),
        ("enclosure", WELL_CONFIG + "enclosure: {theorem: T1d, gamma: [0.5]}\n",
         "enclosure.gamma"),
        ("calibrate", CALIBRATE_CONFIG.replace("family: gaussian", "family: coulomb"),
         "calibrate.ensemble.family"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_filter: .nan"),
         "solver.tau_filter"),
        ("decompose", "lattice: {dim: 1, points: 16.7}\n", "lattice.points"),
        ("decompose", "lattice: {dim: 1.9, points: 16}\n", "lattice.dim"),
        ("calibrate", CALIBRATE_CONFIG.replace("size: 3", "size: 3, real_only: 'no'"),
         "calibrate.ensemble.real_only"),
        ("resolvent-check", _RESOLVENT + "{samples: 0}\n", "resolvent.samples"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_res: -1.0e-9"),
         "solver.tau_res"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_filter: -0.5"),
         "solver.tau_filter"),
        ("spectrum", WELL_CONFIG + "solvr: {tau_filter: 0.5}\n", "solvr"),
        ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_filtr: 1"),
         "solver.tau_filtr"),
        ("norms", _NORMS + "[{name: lp, p: 2, q: 3}]\n", "norms[0].q"),
        ("decompose", "lattice: {dim: 5}\n", "lattice: dim"),
        ("resolvent-check", _RESOLVENT + "{z_values: []}\n", "resolvent.z_values"),
        # floating-point edges: h^dim, the largest |xi|^2 and lam + 2 mu overflow,
        # or the grid is more than numpy can index
        ("decompose", "lattice: {dim: 2, points: 8, period: 1.0e+200}\n", "lattice: period"),
        ("spectrum", _TINY_CELL, "lattice: period"),
        ("bs-check", _TINY_CELL, "lattice: period"),
        ("spectrum", _WELL_16.replace("lambda: 0.0, mu: 1.0", "lambda: 1.0e+308, mu: 1.0e+308")
         + "{family: well, depth: 1.0, half_width: 1.0}\n", "material: lam + 2 mu"),
        ("enclosure", WELL_CONFIG.replace("lambda: -1.0, mu: 1.0", "lambda: 1.0e+308, mu: 1.0e+308")
         + "enclosure: {theorem: T1d, gamma: 0.5}\n", "material: lam + 2 mu"),
        ("decompose", "lattice: {dim: 1, points: 1.0e+308}\n", "lattice: n"),
        ("spectrum", _TINY_CELL.replace("1.0e-160", "1.0e-150").replace("mu: 1.0", "mu: 1.0e+10"),
         "material: the spectral width"),
        ("decompose", "lattice: {dim: 1, points: 1" + "0" * 400 + "}\n", "lattice.points"),
    ],
    ids=["resolvent-z-on-ray", "bs-z-on-ray", "bs-spectrum-point-on-ray", "solver-tau-filter",
         "solver-tau-res", "solver-budget", "resolvent-samples", "bs-limit", "enclosure-margin",
         "calibrate-size", "norms-parameter", "seed", "lattice-points", "resolvent-not-mapping",
         "bs-not-mapping", "decompose-not-mapping", "ensemble-not-mapping",
         "norms-missing-parameter", "material-lambda-list", "potential-center-text",
         "potential-center-scalar", "potential-csv-missing", "potential-csv-sample-count",
         "enclosure-gamma-list", "ensemble-family-unknown", "solver-tau-filter-nan",
         "lattice-points-fraction", "lattice-dim-fraction", "ensemble-real-only-text",
         "resolvent-samples-zero", "solver-tau-res-negative", "solver-tau-filter-negative",
         "unknown-section", "unknown-key", "norms-unexpected-parameter", "lattice-dim-unknown",
         "resolvent-z-values-empty", "lattice-period-overflow", "lattice-period-underflow",
         "bs-lattice-period-underflow", "material-longitudinal-overflow",
         "enclosure-material-longitudinal-overflow", "lattice-points-unindexable",
         "material-spectral-width-overflow", "lattice-points-beyond-float"],
)
def test_bad_value_exit_code(tmp_path, capsys, command, text, named):
    cfg = _write(tmp_path, text)
    assert main([command, "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command, text", [
    ("spectrum", WELL_CONFIG.replace("tau_filter: 0.5", "tau_res: -1.0")),
    ("bs-check", WELL_CONFIG + "bs: {z_values: [[-1.0, 0.5], 2.0]}\n"),
    # a filter that could keep a point on the ray, where K(z) does not exist
    ("bs-check", WELL_CONFIG.replace("tau_filter: 0.5", "tau_filter: 0.0")),
    ("enclosure", WELL_CONFIG + "enclosure: {theorem: T1d, gamma: 0.5, margin: .nan}\n"),
    ("norms", _NORMS + "[{name: lp, p: 2.0}, {name: kerman_sayer}]\n"),
    ("calibrate", CALIBRATE_CONFIG + "solver: {budget_bytes: -1}\n"),
], ids=["spectrum", "bs-check", "bs-check-tau-filter", "enclosure", "norms", "calibrate"])
def test_config_is_checked_before_any_compute(tmp_path, monkeypatch, command, text):
    # the bad key sits in the last section each command reads, or breaks the
    # rule on solver.tau_filter that bs-check adds after all sections
    def compute(*args, **kwargs):
        raise AssertionError("compute ran before the config check")

    for name in ("discrete_eigenvalues", "norm_result", "calibrate_constant"):
        monkeypatch.setattr(f"lamespectra.cli.{name}", compute)
    cfg = _write(tmp_path, text)
    assert main([command, "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_norm_windows_are_checked_before_any_scan(tmp_path, monkeypatch, capsys):
    # the Kerman-Sayer entry is valid and would scan 3d n=32 first; the bad
    # p of the next entry is refused before it
    def scan(*args, **kwargs):
        raise AssertionError("a norm scan ran before the config check")

    for name in ("lp_norm", "morrey_campanato_norm", "kerman_sayer_norm"):
        monkeypatch.setattr(f"lamespectra.norms.{name}", scan)
    cfg = _write(tmp_path, KS_3D_CONFIG + "  - {name: lp, p: 0.5}\n")
    assert main(["norms", "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    assert "norms[1]: p must be >= 1, got 0.5" in capsys.readouterr().err
    cfg = _write(tmp_path, _NORMS + "[{name: morrey_campanato, alpha: 1.5, p: 1.0}]\n")
    assert main(["norms", "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    assert "norms[0]: alpha must lie in (0, dim/p] = (0, 1.0]" in capsys.readouterr().err
    cfg = _write(tmp_path, _NORMS + "[{name: kerman_sayer, alpha: 0.5, eps_mass: -1.0}]\n")
    assert main(["norms", "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    assert "error: norms[0]: eps_mass must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("row", ["0,-1.0,0.0", "-1,-1.0,0.0", "8,-1.0,0.0", "6,-1.0,0.0,0.0"],
                         ids=["repeated", "negative", "out-of-range", "extra-cell"])
def test_csv_potential_bad_index_exit_code(tmp_path, capsys, row):
    lines = EIGHT_SAMPLES.read_text().splitlines()
    path = tmp_path / "V.csv"
    path.write_text("\n".join(lines[:7] + [row] + lines[8:]) + "\n")
    lat = "lattice: {dim: 1, points: 8}\n"
    cfg = _write(tmp_path, lat + f"potential: {{csv: '{path}'}}\nnorms: [{{name: lp, p: 1.0}}]\n")
    assert main(["norms", "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    assert "error: potential.csv: CSV line 8:" in capsys.readouterr().err


def test_output_under_a_file_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "lattice: {dim: 1, points: 16}\n")
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / "taken" / "out")
    assert main(["decompose", "-c", cfg, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err


def test_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    # a failed allocation (numpy raises MemoryError) exits 4 with a message;
    # a real one is not made here, since an overcommitting host kills the
    # process instead of raising
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 24.0 TiB for an array")

    monkeypatch.setattr("lamespectra.cli.helmholtz_decompose", refuse)
    cfg = _write(tmp_path, "lattice: {dim: 1, points: 16}\n")
    out = tmp_path / "o"
    assert main(["decompose", "-c", cfg, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 24.0 TiB for an array\n"
    assert _json(out, "decompose.json.meta.json")["error"] == {
        "exit_code": 4, "message": "out of memory: Unable to allocate 24.0 TiB for an array"}
    assert [p.name for p in out.iterdir()] == ["decompose.json.meta.json"]


def _demo_08_config() -> dict:
    """The config that demos/08_cli_pipeline.py shares across three subcommands."""
    source = (Path(__file__).resolve().parents[1] / "demos" / "08_cli_pipeline.py").read_text()
    (node,) = [n for n in ast.parse(source).body
               if isinstance(n, ast.Assign) and n.targets[0].id == "CONFIG"]
    return yaml.safe_load(ast.literal_eval(node.value))


_LAT16 = {"dim": 1, "points": 16, "period": 8.0}
_MAT = {"lambda": 0.0, "mu": 1.0}
_WELL = {"family": "well", "depth": 5.0, "half_width": 1.0}
FUZZ_BASES = [(command, _demo_08_config()) for command in ("spectrum", "norms", "enclosure")] + [
    ("decompose", {"lattice": _LAT16, "seed": 3, "decompose": {"field": "gradient"}}),
    ("resolvent-check", {"lattice": _LAT16, "material": _MAT,
                         "resolvent": {"z_values": [[-1.0, 0.3], 2.5], "samples": 1}}),
    ("spectrum", {"lattice": _LAT16, "material": _MAT, "potential": _WELL,
                  "solver": {"tau_filter": 0.5, "tau_res": 1e-6, "budget_bytes": 10**7}}),
    ("bs-check", {"lattice": _LAT16, "material": _MAT, "potential": _WELL,
                  "solver": {"tau_filter": 0.5}, "bs": {"limit": 2, "z_values": [[-1.0, 0.5]]}}),
    ("norms", {"lattice": _LAT16, "potential": {"family": "gaussian", "amplitude": [-4.0, 2.0],
                                                "width": 0.7, "center": [4.0]},
               "norms": [{"name": "lp", "p": 2.0}, {"name": "kerman_sayer", "alpha": 0.5}]}),
    ("enclosure", {"lattice": _LAT16, "material": _MAT, "potential": _WELL,
                   "enclosure": {"theorem": "T1d", "gamma": 0.5, "margin": 0.01}}),
    ("calibrate", {"lattice": _LAT16, "material": _MAT, "seed": 5,
                   "calibrate": {"theorem": "T1d", "gamma": 0.5,
                                 "ensemble": {"family": "well", "size": 2, "real_only": True}}}),
]
# wrong types, lists for mappings, NaN, points on the ray, negative sizes
MUTANTS = ["text", True, None, [1, 2, 3], {"a": 1}, float("nan"), 0.0, [2.0, 0.0], [[1.0, 0.0]],
           -1, -16, -0.5]


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_with_a_documented_code(data):
    command, base = data.draw(st.sampled_from(FUZZ_BASES))
    cfg = copy.deepcopy(base)
    path = data.draw(st.sampled_from(list(_paths(cfg))[1:]))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    how = data.draw(st.sampled_from(["replace", "wrap", "delete", "extra"]))
    if how == "replace":
        parent[path[-1]] = data.draw(st.sampled_from(MUTANTS))
    elif how == "wrap":  # a list where a mapping or a scalar goes
        parent[path[-1]] = [parent[path[-1]]]
    elif how == "delete":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]]["extra_key"] = 1
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "run.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "-c", str(cfg_path), "-o", str(Path(tmp) / "o")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


def test_missing_config_exit_code(tmp_path):
    assert main(["spectrum", "-c", str(tmp_path / "none.yaml"), "-o", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "run.yaml"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"lattice: {dim: 1, points: 16}\n\xff\n")
    assert main(["spectrum", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err
    assert "Traceback" not in err


def test_calibrate_deterministic(tmp_path):
    cfg = _write(tmp_path, CALIBRATE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["calibrate", "-c", cfg, "-o", str(out1)]) == 0
    assert main(["calibrate", "-c", cfg, "-o", str(out2)]) == 0
    assert (out1 / "calibration.json").read_bytes() == (out2 / "calibration.json").read_bytes()
    doc = _json(out1, "calibration.json")
    assert doc["value"] > 0.0
    assert len(doc["members"]) == 3


def test_calibrate_seed_override_changes_fingerprint(tmp_path):
    cfg = _write(tmp_path, CALIBRATE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["calibrate", "-c", cfg, "-o", str(out1), "--seed", "1"]) == 0
    assert main(["calibrate", "-c", cfg, "-o", str(out2), "--seed", "2"]) == 0
    a = _json(out1, "calibration.json")
    b = _json(out2, "calibration.json")
    assert a["fingerprint"] != b["fingerprint"]


def _outputs(out):
    """Bytes of every report and CSV a run wrote (the sidecars hold timings)."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith(".meta.json")}


def test_parser_reuse_in_one_process(tmp_path):
    # main builds its parser once per process: --help and an unknown command
    # exit through it, and no parsed value carries over to the next call
    for argv, code in ((["--help"], 0), (["nosuch"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    cfg = _write(tmp_path, "lattice: {dim: 2, points: 8}\nseed: 5\n")
    runs = {"seed3": ["--seed", "3"], "config_seed": []}
    for name, seed in runs.items():
        argv = ["decompose", "-c", cfg, "-o", str(tmp_path / name), *seed]
        assert main(argv) == 0
        argv[4] = str(tmp_path / f"fresh_{name}")
        _fresh_python(f"from lamespectra.cli import main; raise SystemExit(main({argv!r}))")
    for name in runs:
        assert _outputs(tmp_path / name) == _outputs(tmp_path / f"fresh_{name}")
    # the two seeds draw different fields, so a leaked --seed 3 would show
    assert _outputs(tmp_path / "seed3") != _outputs(tmp_path / "config_seed")
