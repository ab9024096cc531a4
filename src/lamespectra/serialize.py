"""Deterministic file output: CSV for sampled fields, JSON for reports.

Reports are byte-stable across reruns (sorted keys, fixed float repr, no
embedded timestamps); :func:`plain` gives the JSON data of any result.  Run
metadata that legitimately varies, like wall-clock time and the environment,
goes to a sidecar ``<name>.meta.json`` so the main artifact can be diffed or
hashed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
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
    "plain",
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


def _read_samples(path, header, shape) -> np.ndarray:
    """Complex samples of ``shape`` from CSV rows under ``header``.

    Every row has ``len(header)`` cells: the leading ``len(shape)`` index the
    sample, the last two hold its real and imaginary parts.  Every sample
    must appear exactly once: a row with another number of cells, an index
    outside ``shape``, a repeated one or a missing one raises ValueError
    naming the line.
    """
    k = len(shape)
    values = np.zeros(shape, dtype=np.complex128)
    seen = np.zeros(shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)  # an empty file fails the header check
        if got != header:
            raise ValueError(f"unexpected CSV header {got!r}; want {header!r}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"CSV line {reader.line_num}: expected {len(header)} cells, "
                                 f"got {len(row)}")
            at = tuple(map(int, row[:k]))
            if not all(0 <= i < size for i, size in zip(at, shape)) or seen[at]:
                raise ValueError(f"CSV line {reader.line_num}: {_bad_index(header, at, shape)}")
            seen[at] = True
            values[at] = float(row[-2]) + 1j * float(row[-1])
    if not seen.all():
        raise ValueError(f"expected {seen.size} samples, file holds {int(seen.sum())}")
    return values


def _bad_index(header, at, shape) -> str:
    for name, i, size in zip(header, at, shape):
        if not 0 <= i < size:
            return f"{name} {i} outside 0..{size - 1}"
    return "repeats the sample at " + ", ".join(f"{name} {i}" for name, i in zip(header, at))


def scalar_from_csv(lattice: Lattice, path) -> ScalarField:
    flat = _read_samples(path, ["index", "re", "im"], (lattice.npoints,))
    return ScalarField(lattice, flat.reshape(lattice.shape))


def vector_from_csv(lattice: Lattice, path) -> VectorField:
    flat = _read_samples(path, ["component", "index", "re", "im"],
                         (lattice.dim, lattice.npoints))
    return VectorField(lattice, flat.reshape((lattice.dim,) + lattice.shape))


def plain(obj):
    """JSON data of a result: a dataclass becomes a dict of its fields, arrays and
    tuples lists, complex numbers ``[re, im]`` floats, numpy scalars Python ones."""
    if type(obj) in (str, float, int, bool, type(None)):
        return obj
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return plain(obj.tolist())
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj  # json.dumps rejects what is left


def write_report(payload, path) -> None:
    """Write ``plain(payload)``, a dict, as JSON with sorted keys and a schema version stamp."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(plain(payload))
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)
    Path(path).write_text(text + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())


def write_metadata(path, extra: dict | None = None) -> Path:
    """Write the varying run info and environment next to ``path``; return the sidecar."""
    sidecar = Path(str(path) + ".meta.json")
    # the BLAS and LAPACK numpy was built against run every dense solve
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas, lapack = deps["blas"], deps["lapack"]
    env = {"numpy": np.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"), "lapack": lapack.get("name"),
           "lapack_version": lapack.get("version"), "cpu_count": os.cpu_count(),
           "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    doc = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "artifact": Path(path).name,
           "environment": env}
    if extra:
        doc.update(extra)
    sidecar.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return sidecar
