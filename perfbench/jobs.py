"""Job lists drawn from a seed, and the check of each job against its reference.

Every workload has a pool in ``reference/<workload>.json``, written by
``record.py`` on the commit whose results are the reference.  A pool entry
holds the inputs of one job (a CLI config, or the arguments of a library
call) together with what that commit computed for it: the compared values,
the SHA-256 of the report bytes, or the name of the exception it raised.
The workload seed draws entries from the pool; their inputs are written as
YAML/CSV files, so the program sees only generated inputs and every job has
a recorded result to be checked against.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_small", "calibrate_dense", "resolvent_fft", "norm_scan")
# workloads whose time goes to large fresh arrays; their reference kernel
# gets the memory part (see refspeed.py)
MEMORY_BOUND = ("norm_scan",)
TOLERANCES = json.loads((HERE / "tolerances.json").read_text())["classes"]

REPORTS = {
    "enclosure": "enclosure.json",
    "bs-check": "bs_check.json",
    "calibrate": "calibration.json",
    "norms": "norms.json",
    "resolvent-check": "resolvent_check.json",
    "decompose": "decompose.json",
}

# tolerance class of each compared field; unlisted fields compare exactly
FIELD_CLASSES = {
    "enclosure": {"eigenvalues_tested": "eigenvalue", "rhs_value": "rhs", "ratios": "ratio"},
    "bs-check": {"z": "eigenvalue", "eigenvalue_gap": "bs_gap", "operator_norm": "bs_norm"},
    "calibrate": {"value": "c_emp", "best_ratio": "c_emp", "rhs": "rhs"},
    "norms": {},
    "resolvent-check": {"max_rel_deviation": "deviation", "worst_rel_deviation": "deviation"},
    "decompose": {
        "total": "decompose_norm",
        "solenoidal": "decompose_norm",
        "potential": "decompose_norm",
        "pythagorean_residual": "decompose_residual",
        "divergence_residual": "decompose_residual",
        "recomposition_residual": "decompose_residual",
    },
    "estimate": {"estimate": "estimate"},
}


def load_pool(workload: str, size: str) -> dict:
    """The pool of one workload at ``size`` ("full" or "smoke")."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
    doc = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    return doc["sizes"][size]


def select(pool: dict, seed: int) -> list:
    """Keys of the entries the seed draws, group by group, in draw order.

    ``pool["select"]`` maps each group to a count, or to "all".
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    keys = []
    for group, count in pool["select"].items():
        members = sorted(k for k, e in pool["entries"].items() if e["group"] == group)
        if count == "all":
            keys.extend(members)
        else:
            keys.extend(members[i] for i in rng.choice(len(members), size=count, replace=False))
    return keys


@dataclass
class Job:
    """One closed-loop job: ``call()`` returns a CLI exit code or a value."""

    key: str
    command: str
    call: Callable[[], object]
    report: Path | None


def make_job(lib, key: str, entry: dict, workdir: Path) -> Job:
    """Write the inputs of a pool entry under ``workdir`` and bind its call.

    ``lib`` is the imported ``lamespectra`` package.  Calls look functions
    up through their module at call time, so installed spans see them.
    """
    command = entry["command"]
    if command == "estimate":
        a = entry["args"]
        lat = lib.lattice.Lattice(a["dim"], a["points"], a["period"])
        params = lib.lame.LameParams(a["lambda"], a["mu"])
        z = complex(*a["z"])
        pair = tuple(a["pair"])
        kwargs = {k: a[k] for k in ("samples", "n_iter", "tol", "seed")}

        def call():
            return lib.spectra.resolvent_norm_estimate(params, z, pair, lat, **kwargs)

        return Job(key, command, call, None)

    import yaml

    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    cfg = copy.deepcopy(entry["config"])
    if entry.get("csv") is not None:
        path = inputs / f"{key}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, (re, im) in enumerate(entry["csv"]):
                writer.writerow([i, repr(re), repr(im)])
        cfg["potential"] = {"csv": str(path)}
    cfg_path = inputs / f"{key}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    out = workdir / "out" / key
    argv = [command, "-c", str(cfg_path), "-o", str(out)]
    if entry.get("seed") is not None:
        argv += ["--seed", str(entry["seed"])]

    def call():
        return lib.cli.main(argv)

    return Job(key, command, call, out / REPORTS[command])


def run_job(job: Job):
    """Run one job; returns (value, exception name or None, seconds)."""
    start = time.perf_counter()
    try:
        value, error = job.call(), None
    except Exception as exc:  # a failing job is a measured outcome
        value, error = None, type(exc).__name__
    return value, error, time.perf_counter() - start


def summarize(command: str, result) -> dict:
    """The compared part of a job result (a report dict, or an estimate)."""
    if command == "estimate":
        return {"estimate": float(result)}
    if command == "enclosure":
        keep = ("eigenvalues_tested", "rhs_value", "ratios", "verdicts")
    elif command == "bs-check":
        keep = ("checks", "n_from_spectrum")
    elif command == "calibrate":
        keep = ("value", "fingerprint", "members", "bound_spec")
    elif command == "norms":
        keep = ("norms",)
    elif command == "resolvent-check":
        keep = ("checks", "worst_rel_deviation")
    else:
        keep = ("norms", "pythagorean_residual", "divergence_residual", "recomposition_residual")
    return {k: result[k] for k in keep}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(got: float, want: float, tol: dict) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if "rel" in tol:
        return abs(got - want) <= tol["rel"] * abs(want)
    if "abs" in tol:
        return abs(got - want) <= tol["abs"]
    return got == want


def compare(got, want, classes: dict, field: str = "", path: str = "") -> str | None:
    """First difference between ``got`` and ``want`` beyond tolerance, or None.

    The tolerance class comes from the innermost named field; a class with
    ``complex_rel`` compares [re, im] pairs as complex numbers.
    """
    tol = TOLERANCES.get(classes.get(field), {"exact": True})
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in sorted(want):
            diff = compare(got[k], want[k], classes, k, f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length {len(got) if isinstance(got, list) else '-'} != {len(want)}"
        if "complex_rel" in tol and len(want) == 2 and all(_number(v) for v in want):
            zg, zw = complex(*got), complex(*want)
            if abs(zg - zw) <= tol["complex_rel"] * abs(zw):
                return None
            return f"{path}: {zg} != {zw}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = compare(g, w, classes, field, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if _number(want) and _number(got):
        if _close(float(got), float(want), tol):
            return None
        return f"{path}: {got!r} != {want!r}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


@dataclass
class Outcome:
    """How one job ended compared with its reference entry."""

    failed: bool          # raised, exited non-zero, or mismatched
    reason: str | None    # exception name, "exit N", or the first mismatch
    unexpected: bool      # differs from the recorded outcome
    digest_changed: bool  # report bytes differ from the reference


def check(job: Job, entry: dict, value, error: str | None) -> Outcome:
    """Compare a finished job with the result recorded for its entry."""
    if error is None and job.report is not None and value != 0:
        error = f"exit {value}"
    if error is not None:
        return Outcome(True, error, error != entry.get("error"), False)
    if entry.get("error") is not None:
        # a recorded failure that now succeeds has no values to compare with
        return Outcome(False, None, False, False)
    if job.report is None:
        summary = summarize(job.command, value)
        changed = False
    else:
        raw = job.report.read_bytes()
        summary = summarize(job.command, json.loads(raw))
        changed = hashlib.sha256(raw).hexdigest() != entry["digest"]
    diff = compare(summary, entry["expected"], FIELD_CLASSES[job.command])
    if diff:
        return Outcome(True, f"mismatch {diff}", True, changed)
    return Outcome(False, None, False, changed)
