import csv
import json
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

from oracles import well_bound_states
from lamespectra.cli import main
from lamespectra.spectra import _EIG_FALLBACK

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
    assert (out / "decompose.json.meta.json").exists()


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
    meta = _json(out1, "norms.json.meta.json")
    assert len(meta["norm_seconds"]) == len(_json(out1, "norms.json")["norms"]) == 3
    assert all(isinstance(t, float) and t >= 0.0 for t in meta["norm_seconds"])


@pytest.mark.parametrize("command, extra, report", [
    ("spectrum", "", "spectrum.json"),
    ("enclosure", "enclosure: {theorem: T1d, gamma: 0.5}\n", "enclosure.json"),
])
def test_sidecar_records_the_eigensolve(tmp_path, command, extra, report):
    cfg = _write(tmp_path, WELL_CONFIG + extra)
    out = tmp_path / "out"
    assert main([command, "-c", cfg, "-o", str(out)]) == 0
    (solve,) = _json(out, report + ".meta.json")["eigensolves"]
    assert solve["eigenvector_route"] == "inverse_iteration"
    assert solve["lu_solves"] == 2  # the well's two bound states
    assert solve["eigensolve_seconds"] > 0.0
    if command == "spectrum":
        assert set(_json(out, report)["solver_info"]).isdisjoint(solve)


def test_calibrate_sidecar_records_each_eigensolve(tmp_path):
    cfg = _write(tmp_path, CALIBRATE_CONFIG)
    out = tmp_path / "out"
    assert main(["calibrate", "-c", cfg, "-o", str(out)]) == 0
    solves = _json(out, "calibration.json.meta.json")["eigensolves"]
    members = _json(out, "calibration.json")["members"]
    assert [s["member"] for s in solves] == [m["index"] for m in members if m["rhs"] > 0.0]
    for s in solves:
        kept = members[s["member"]]["n_eigenvalues"]
        if s["eigenvector_route"] == "eig":
            assert s["lu_solves"] == 0 and kept > _EIG_FALLBACK
        else:
            assert s["eigenvector_route"] == "inverse_iteration" and s["lu_solves"] == kept
        assert s["eigensolve_seconds"] > 0.0
    # with the default distance filter this ensemble takes both routes
    assert {s["eigenvector_route"] for s in solves} == {"eig", "inverse_iteration"}


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
    meta = _json(out, "norms.json.meta.json")
    (counts,) = meta["kerman_sayer_products"]
    assert counts["entry"] == 0
    # the six dyadic levels hold 6 N^2 products, fewer in cubes of zero mass
    assert counts["products_formed"] + counts["products_skipped_zero"] <= 6 * 32768**2
    assert counts["products_skipped_zero"] > 10 * counts["products_formed"] > 0


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
    assert "N = 32768 cells needs 4.5 MB" in err
    assert "budget is 2.0 MB" in err


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
    ],
    ids=["resolvent-z-on-ray", "bs-z-on-ray", "bs-spectrum-point-on-ray", "solver-tau-filter",
         "solver-tau-res", "solver-budget", "resolvent-samples", "bs-limit", "enclosure-margin",
         "calibrate-size", "norms-parameter", "seed", "lattice-points", "resolvent-not-mapping",
         "bs-not-mapping", "decompose-not-mapping", "ensemble-not-mapping"],
)
def test_bad_value_exit_code(tmp_path, capsys, command, text, named):
    cfg = _write(tmp_path, text)
    assert main([command, "-c", cfg, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_missing_config_exit_code(tmp_path):
    assert main(["spectrum", "-c", str(tmp_path / "none.yaml"), "-o", str(tmp_path)]) == 2


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
