import csv
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from lamespectra.lattice import (
    Lattice,
    ScalarField,
    VectorField,
    random_scalar_field,
    random_vector_field,
)
from lamespectra.serialize import (
    SCHEMA_VERSION,
    plain,
    read_report,
    scalar_from_csv,
    scalar_to_csv,
    vector_from_csv,
    vector_to_csv,
    write_metadata,
    write_report,
    write_table,
)


def test_scalar_csv_roundtrip(tmp_path):
    lat = Lattice(2, 8)
    rng = np.random.default_rng(0)
    f = random_scalar_field(lat, rng)
    path = tmp_path / "field.csv"
    scalar_to_csv(f, path)
    g = scalar_from_csv(lat, path)
    assert np.array_equal(f.values, g.values)


def test_vector_csv_roundtrip(tmp_path):
    lat = Lattice(3, 4)
    rng = np.random.default_rng(1)
    f = random_vector_field(lat, rng)
    path = tmp_path / "vec.csv"
    vector_to_csv(f, path)
    g = vector_from_csv(lat, path)
    assert np.array_equal(f.values, g.values)


def _csv_writer_bytes(path, header, rows):
    """Reference: the rows through csv.writer, floats as repr strings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path):
    # more rows than one formatting block, and values with unusual reprs
    lat = Lattice(2, 40)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(2, 40, 40)) * 10.0 ** rng.integers(-320, 300, size=(2, 40, 40))
    vals = vals + 1j * rng.normal(size=(2, 40, 40))
    vals.reshape(-1)[:6] = [np.nan, np.inf, complex(-0.0, -np.inf), 5e-324, 1e16, -1e-310]
    vf = VectorField(lat, vals)
    sf = ScalarField(lat, vals[1])
    vector_to_csv(vf, tmp_path / "v.csv")
    scalar_to_csv(sf, tmp_path / "s.csv")
    flat = [c.reshape(-1).tolist() for c in vals]
    vrows = [(j, i, v.real, v.imag) for j in range(2) for i, v in enumerate(flat[j])]
    srows = [(i, v.real, v.imag) for i, v in enumerate(flat[1])]
    ref = tmp_path / "ref.csv"
    assert (tmp_path / "v.csv").read_bytes() == _csv_writer_bytes(
        ref, ["component", "index", "re", "im"], vrows)
    assert (tmp_path / "s.csv").read_bytes() == _csv_writer_bytes(ref, ["index", "re", "im"], srows)
    write_table(tmp_path / "t.csv", ["x", "verdict"], [[0.5, float("inf")], ["inside", "recorded"]])
    assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(
        ref, ["x", "verdict"], [(0.5, "inside"), (float("inf"), "recorded")])
    write_table(tmp_path / "e.csv", ["re", "im"], [[], []])
    assert (tmp_path / "e.csv").read_bytes() == _csv_writer_bytes(ref, ["re", "im"], [])


def test_csv_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("idx,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        scalar_from_csv(Lattice(1, 4), path)
    path.write_text("")  # an empty file has no header either
    with pytest.raises(ValueError, match="unexpected CSV header None"):
        scalar_from_csv(Lattice(1, 4), path)


def test_csv_count_rejected(tmp_path):
    lat = Lattice(1, 8)
    rng = np.random.default_rng(2)
    f = random_scalar_field(Lattice(1, 4), rng)
    path = tmp_path / "short.csv"
    scalar_to_csv(f, path)
    with pytest.raises(ValueError, match="expected 8 samples, file holds 4"):
        scalar_from_csv(lat, path)
    vpath = tmp_path / "vshort.csv"
    vector_to_csv(random_vector_field(Lattice(2, 4), rng), vpath)
    with pytest.raises(ValueError, match="file holds 32"):
        vector_from_csv(Lattice(2, 8), vpath)


@pytest.mark.parametrize("rows, message", [
    (["0,1.0,0.0", "1,2.0,0.0", "1,3.0,0.0", "3,4.0,0.0"],
     "CSV line 4: repeats the sample at index 1"),
    (["0,1.0,0.0", "1,2.0,0.0", "-1,5.0,0.0", "2,4.0,0.0"], "CSV line 4: index -1 outside 0..3"),
    (["0,1.0,0.0", "1,2.0,0.0", "2,3.0,0.0", "4,4.0,0.0"], "CSV line 5: index 4 outside 0..3"),
    (["0,1.0,2.0,5.0", "1,2.0,0.0", "2,3.0,0.0", "3,4.0,0.0"],
     "CSV line 2: expected 3 cells, got 4"),
    (["0,1.0,0.0", "1,2.0", "2,3.0,0.0", "3,4.0,0.0"], "CSV line 3: expected 3 cells, got 2"),
    (["0,1.0,0.0", "1,2.0,0.0", "2,3.0,0.0", "3,4.0,0.0", ""],
     "CSV line 6: expected 3 cells, got 0"),
], ids=["repeated", "negative", "out-of-range", "extra-cell", "short-row", "blank-line"])
def test_csv_bad_index_rejected(tmp_path, rows, message):
    # each file has a row for each of the four samples, so counting rows passes
    path = tmp_path / "bad.csv"
    path.write_text("\r\n".join(["index,re,im"] + rows) + "\r\n")
    with pytest.raises(ValueError, match=message):
        scalar_from_csv(Lattice(1, 4), path)


@pytest.mark.parametrize("row, message", [
    ("0,1,9.0,0.0", "CSV line 4: repeats the sample at component 0, index 1"),
    ("-1,2,9.0,0.0", "CSV line 4: component -1 outside 0..1"),
    ("2,2,9.0,0.0", "CSV line 4: component 2 outside 0..1"),
    ("0,-4,9.0,0.0", "CSV line 4: index -4 outside 0..15"),
    ("0,16,9.0,0.0", "CSV line 4: index 16 outside 0..15"),
    ("0,2,9.0,0.0,1.0", "CSV line 4: expected 4 cells, got 5"),
    ("0,2,9.0", "CSV line 4: expected 4 cells, got 3"),
    ("", "CSV line 4: expected 4 cells, got 0"),
], ids=["repeated", "negative-component", "component-out-of-range", "negative-index",
        "index-out-of-range", "extra-cell", "short-row", "blank-line"])
def test_vector_csv_bad_index_rejected(tmp_path, row, message):
    # the row replaces the sample (0, 2) on line 4, so the row count is right
    path = tmp_path / "v.csv"
    vector_to_csv(random_vector_field(Lattice(2, 4), np.random.default_rng(4)), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + [row] + lines[4:]) + "\n")
    with pytest.raises(ValueError, match=message):
        vector_from_csv(Lattice(2, 4), path)


def test_reports_are_byte_stable(tmp_path):
    payload = {"b": [1.0, 2.5], "a": {"z": 0.1, "y": "text"}}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    write_report(payload, p1)
    write_report(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = read_report(p1)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["a"] == payload["a"]
    # keys come out sorted so diffs stay small
    text = p1.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"schema_version"')
    assert text.endswith("\n")


@dataclass(frozen=True)
class _Inner:
    z: complex
    witness: dict | None


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    pair: tuple
    samples: np.ndarray


def test_plain_gives_json_data():
    obj = _Outer(_Inner(np.complex128(1.5 - 2j), None), (np.float64(0.25), np.int64(3)),
                 np.array([1 + 2j, 0.5 - 0.5j]))
    got = plain({"result": obj, "z": 3 + 4j, "flags": [True, "text"]})
    assert got == {"result": {"inner": {"z": [1.5, -2.0], "witness": None},
                              "pair": [0.25, 3], "samples": [[1.0, 2.0], [0.5, -0.5]]},
                   "z": [3.0, 4.0], "flags": [True, "text"]}
    leaves = [got["result"]["inner"]["z"][0], *got["result"]["pair"], *got["result"]["samples"][0]]
    assert [type(v) for v in leaves] == [float, float, int, float, float]
    assert json.loads(json.dumps(got)) == got


def test_metadata_sidecar(tmp_path):
    artifact = tmp_path / "spectrum.json"
    write_report({"eigenvalues": []}, artifact)
    sidecar = write_metadata(artifact, extra={"seed": 7})
    assert sidecar.name == "spectrum.json.meta.json"
    doc = json.loads(sidecar.read_text())
    assert doc["artifact"] == "spectrum.json"
    assert doc["seed"] == 7
    assert "written_at" in doc


@pytest.mark.parametrize("threads", ["3", None])
def test_metadata_sidecar_records_the_environment(tmp_path, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    env = json.loads(write_metadata(tmp_path / "x.json").read_text())["environment"]
    # numpy's LAPACK: the one the dense eigenvalues and LUs run in
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas, lapack = deps["blas"], deps["lapack"]
    assert env == {"numpy": np.__version__, "blas": blas["name"],
                   "blas_version": blas["version"], "lapack": lapack["name"],
                   "lapack_version": lapack["version"], "openblas_num_threads": threads,
                   "cpu_count": os.cpu_count()}
