import csv
import json

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


def test_metadata_sidecar(tmp_path):
    artifact = tmp_path / "spectrum.json"
    write_report({"eigenvalues": []}, artifact)
    sidecar = write_metadata(artifact, extra={"seed": 7})
    assert sidecar.name == "spectrum.json.meta.json"
    doc = json.loads(sidecar.read_text())
    assert doc["artifact"] == "spectrum.json"
    assert doc["seed"] == 7
    assert "written_at" in doc
