"""Deterministic file output: CSV for sampled fields, JSON for reports.

Reports are byte-stable across reruns (sorted keys, fixed float repr, no
embedded timestamps).  Run metadata that legitimately varies, like wall-clock
time, goes to a sidecar ``<name>.meta.json`` so the main artifact can be
diffed or hashed.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from .lattice import Lattice, ScalarField, VectorField

__all__ = [
    "SCHEMA_VERSION",
    "scalar_to_csv",
    "vector_to_csv",
    "write_table",
    "scalar_from_csv",
    "vector_from_csv",
    "write_report",
    "read_report",
    "write_metadata",
]

SCHEMA_VERSION = 1


_BLOCK_ROWS = 1024  # rows formatted per write; bounds the strings held at once


def write_table(path, header, columns) -> None:
    """Write equal-length columns as CSV rows under ``header``.

    Cells are ``str`` of ``.tolist()`` values (``repr`` for floats), lines end
    in ``\r\n`` as :func:`csv.writer` writes them; no cell may need quoting.
    """
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [map(str, col[lo:lo + _BLOCK_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def scalar_to_csv(field: ScalarField, path) -> None:
    """Rows ``index,re,im`` with the flat row-major sample index."""
    flat = field.values.reshape(-1)
    write_table(path, ["index", "re", "im"], [np.arange(flat.size), flat.real, flat.imag])


def vector_to_csv(field: VectorField, path) -> None:
    """Rows ``component,index,re,im``, components in order, then flat index."""
    d, n = field.lattice.dim, field.lattice.npoints
    flat = field.values.reshape(-1)
    write_table(path, ["component", "index", "re", "im"],
                [np.repeat(np.arange(d), n), np.tile(np.arange(n), d), flat.real, flat.imag])


def _read_rows(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader)
        if got != header:
            raise ValueError(f"unexpected CSV header {got!r}; want {header!r}")
        yield from reader


def scalar_from_csv(lattice: Lattice, path) -> ScalarField:
    flat = np.zeros(lattice.npoints, dtype=np.complex128)
    seen = 0
    for row in _read_rows(path, ["index", "re", "im"]):
        i = int(row[0])
        flat[i] = float(row[1]) + 1j * float(row[2])
        seen += 1
    if seen != lattice.npoints:
        raise ValueError(f"expected {lattice.npoints} samples, file holds {seen}")
    return ScalarField(lattice, flat.reshape(lattice.shape))


def vector_from_csv(lattice: Lattice, path) -> VectorField:
    flat = np.zeros((lattice.dim, lattice.npoints), dtype=np.complex128)
    seen = 0
    for row in _read_rows(path, ["component", "index", "re", "im"]):
        j, i = int(row[0]), int(row[1])
        flat[j, i] = float(row[2]) + 1j * float(row[3])
        seen += 1
    if seen != lattice.dim * lattice.npoints:
        raise ValueError(
            f"expected {lattice.dim * lattice.npoints} samples, file holds {seen}"
        )
    return VectorField(lattice, flat.reshape((lattice.dim,) + lattice.shape))


def write_report(payload: dict, path) -> None:
    """Write a JSON report with sorted keys and a schema version stamp."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)
    Path(path).write_text(text + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())


def write_metadata(path, extra: dict | None = None) -> Path:
    """Write the varying run info next to ``path`` and return the sidecar."""
    sidecar = Path(str(path) + ".meta.json")
    doc = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "artifact": Path(path).name}
    if extra:
        doc.update(extra)
    sidecar.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return sidecar
