"""Write reference/<workload>.json: the job pools and their reference results.

Run from the root of a checkout, on the commit whose results are the
reference (the reference in this directory was recorded on the commit that
added the benchmark):

    python3 perfbench/record.py [workload ...]

Pool inputs come from fixed generator seeds, so recording twice gives the
same pools.  Every entry is run once, through the same job code as the
benchmark; its compared values and report digest, or the name of the
exception it raised, are stored next to its inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import jobs as J
from worker import ROOT, import_lamespectra

POOL_SEED = 1904
TWO_PI = 2.0 * math.pi
NORMS = [
    {"name": "lp", "p": 2.0},
    {"name": "weighted_lq", "q": 1.5, "alpha": 1.0},
    {"name": "morrey_campanato", "alpha": 1.0, "p": 1.5},
    {"name": "kerman_sayer", "alpha": 1.0},
    {"name": "muckenhoupt", "p": 2.0},
]


def _cplx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _random_potential(rng, family: str, dim: int, period: float) -> dict:
    """Potential section drawn like ``potentials.random_ensemble`` draws members."""
    mag = rng.uniform(5.0, 40.0)
    phase = rng.uniform(-math.pi, math.pi)
    center = [float(c) for c in period / 2.0 + rng.uniform(-period / 16, period / 16, size=dim)]
    amp = _cplx(mag * complex(math.cos(phase), math.sin(phase)))
    if family == "gaussian":
        return {"family": "gaussian", "amplitude": amp, "center": center,
                "width": float(rng.uniform(period / 16, period / 10))}
    if family == "well":
        return {"family": "well", "depth": amp, "center": center,
                "half_width": float(rng.uniform(period / 16, period / 8))}
    return {"family": "inverse_power", "amplitude": amp, "center": center,
            "exponent": float(rng.uniform(0.5, 1.5))}


def sweep_small_pool(lib, rng, n: int, per_family: int, fixtures: tuple) -> dict:
    """T1d enclosures shaped like criterion 03, plus bs-check fixtures."""
    lattice = {"dim": 1, "points": n, "period": 30.0}
    lat = lib.lattice.Lattice(1, n, 30.0)
    entries = {}
    for family in ("gaussian", "well"):
        for i in range(per_family):
            pot = _random_potential(rng, family, 1, 30.0)
            cfg = {"lattice": lattice, "potential": pot,
                   "material": {"lambda": (-1.0, 0.0, 3.0)[i % 3], "mu": 1.0},
                   "enclosure": {"theorem": "T1d", "gamma": 0.5}}
            V = lib.config.potential_from_config(cfg, lat)
            # criterion 03's filter: drop the continuum cluster at about ||V||_1 / L
            cfg["solver"] = {"tau_filter": 5.0 * lib.norms.lp_norm(V, 1.0) / 30.0}
            entries[f"enclosure-{family[0]}{i:03d}"] = {"group": "enclosure",
                                                      "command": "enclosure", "config": cfg}
    for name in fixtures:
        entries[f"bs-{name}"] = dict(_bs_fixture(lib, name), group="bs", command="bs-check")
    return entries


def _bs_fixture(lib, name: str) -> dict:
    """Criterion 04's three fixtures and the symmetric 2d repro of the roadmap."""
    if name == "well":
        h = 30.0 / 192
        m = int(round(1.0 / h - 0.5))
        return {"config": {"lattice": {"dim": 1, "points": 192, "period": 30.0},
                           "material": {"lambda": -1.0, "mu": 1.0},
                           "potential": {"family": "well", "depth": 5.0,
                                         "half_width": (m + 0.5) * h},
                           "solver": {"tau_filter": 0.5}}}
    if name == "gauss":
        return {"config": {"lattice": {"dim": 1, "points": 64, "period": 16.0},
                           "material": {"lambda": 0.0, "mu": 1.0},
                           "potential": {"family": "gaussian", "amplitude": [-30.0, -10.0],
                                         "width": 1.1},
                           "solver": {"tau_filter": 3.0}}}
    lattice = {"dim": 2, "points": 12, "period": TWO_PI}
    cfg = {"lattice": lattice, "material": {"lambda": 0.5, "mu": 1.0},
           "solver": {"tau_filter": 3.0}}
    if name == "symmetric":
        cfg["potential"] = {"family": "gaussian", "amplitude": -35.0, "width": 0.55}
        return {"config": cfg}
    # lopsided: two bumps with no symmetry axis, given as CSV samples
    lat = lib.lattice.Lattice(2, 12)
    L = lat.period
    g1 = lib.potentials.gaussian_bump(lat, -35.0, 0.55, center=(L / 2 - 0.4, L / 2))
    g2 = lib.potentials.gaussian_bump(lat, -18.0, 0.75, center=(L / 2 + 0.7, L / 2 + 0.3))
    values = (g1.values + g2.values).reshape(-1)
    return {"config": cfg, "csv": [_cplx(v) for v in values]}


def calibrate_pool(n: int, size: int) -> dict:
    """T_KS calibration on four Gaussian members at 2d n (order 2 n^2)."""
    entries = {}
    for seed in range(size):
        cfg = {"lattice": {"dim": 2, "points": n},
               "material": {"lambda": 0.5, "mu": 1.0},
               "solver": {"tau_filter": 4.3},
               "calibrate": {"theorem": "T_KS", "gamma": 0.4,
                             "ensemble": {"family": "gaussian", "size": 4}}}
        entries[f"calibrate-s{seed:02d}"] = {"group": "calibrate", "command": "calibrate",
                                            "config": cfg, "seed": seed}
    return entries


def resolvent_pool(n: int, period: float, radii: tuple, size: int) -> dict:
    """Criterion 09's estimates plus seeded resolvent-check and decompose runs."""
    entries = {}
    for pair in (["lp_dual", 1.2], ["weighted_l2", 1.0]):
        for r in radii:
            z = r * complex(math.cos(0.1), math.sin(0.1))
            args = {"dim": 2, "points": n, "period": period, "lambda": 0.5, "mu": 1.0,
                    "z": _cplx(z), "pair": pair, "samples": 1, "n_iter": 25, "tol": 1e-5,
                    "seed": 0}
            entries[f"estimate-{pair[0]}-{r:g}"] = {"group": "estimate", "command": "estimate",
                                                   "args": args}
    lattice = {"dim": 2, "points": n, "period": period}
    for seed in range(size):
        entries[f"resolvent-check-s{seed:02d}"] = {
            "group": "resolvent-check", "command": "resolvent-check", "seed": seed,
            "config": {"lattice": lattice, "material": {"lambda": 0.5, "mu": 1.0},
                       "resolvent": {"samples": 3}}}
        entries[f"decompose-s{seed:02d}"] = {
            "group": "decompose", "command": "decompose", "seed": seed,
            "config": {"lattice": lattice, "decompose": {"field": "random"}}}
    return entries


def norm_pool(rng, grids: tuple, size: int) -> dict:
    """All five norm scans on each family and grid."""
    entries = {}
    for dim, n in grids:
        for family in ("gaussian", "well", "inverse_power"):
            group = f"norms-{family}-{dim}d"
            for k in range(size):
                cfg = {"lattice": {"dim": dim, "points": n, "period": TWO_PI},
                       "potential": _random_potential(rng, family, dim, TWO_PI),
                       "norms": NORMS}
                entries[f"{group}-{k}"] = {"group": group, "command": "norms", "config": cfg}
    return entries


def pools(lib, workload: str) -> dict:
    import numpy as np

    rng = np.random.default_rng(POOL_SEED)
    if workload == "sweep_small":
        return {
            "full": {"select": {"enclosure": 40, "bs": "all"},
                     "entries": sweep_small_pool(lib, rng, 192, 150,
                                                 ("well", "gauss", "lopsided", "symmetric"))},
            "smoke": {"select": {"enclosure": 3, "bs": "all"},
                      "entries": sweep_small_pool(lib, rng, 48, 4, ("gauss",))},
        }
    if workload == "calibrate_dense":
        return {"full": {"select": {"calibrate": 3}, "entries": calibrate_pool(16, 10)},
                "smoke": {"select": {"calibrate": 1}, "entries": calibrate_pool(8, 6)}}
    if workload == "resolvent_fft":
        return {
            "full": {"select": {"estimate": "all", "resolvent-check": 1, "decompose": 1},
                     "entries": resolvent_pool(128, 32.0, (0.1, 1.0, 10.0, 100.0), 8)},
            "smoke": {"select": {"estimate": "all", "resolvent-check": 1, "decompose": 1},
                      "entries": resolvent_pool(32, 8.0, (1.0, 100.0), 3)},
        }
    groups = {f"norms-{f}-{d}d": 1 for d in (2, 3) for f in ("gaussian", "well", "inverse_power")}
    return {"full": {"select": groups, "entries": norm_pool(rng, ((2, 64), (3, 16)), 4)},
            "smoke": {"select": groups, "entries": norm_pool(rng, ((2, 8), (3, 4)), 2)}}


def record(lib, workload: str, workdir: Path) -> dict:
    sizes = pools(lib, workload)
    dropped = []
    for size, pool in sizes.items():
        for key, entry in list(pool["entries"].items()):
            job = J.make_job(lib, key, entry, workdir)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                value, error, seconds = J.run_job(job)
            if error is None and job.report is not None and value != 0:
                error = f"exit {value}"
            entry["error"] = error
            if error is None and job.report is None:
                entry["expected"] = J.summarize(job.command, value)
            elif error is None:
                raw = job.report.read_bytes()
                entry["expected"] = J.summarize(job.command, json.loads(raw))
                entry["digest"] = hashlib.sha256(raw).hexdigest()
            print(f"{workload}/{size}/{key}: {error or 'ok'} in {seconds:.2f} s", file=sys.stderr)
            if job.command == "calibrate" and error == "exit 2":
                # EmptyEnsemble: no eigenvalue of the member passes the filter
                del pool["entries"][key]
                dropped.append(f"{size}/{key}")
    return {"workload": workload, "pool_seed": POOL_SEED, "sizes": sizes,
            "dropped_empty_ensembles": dropped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the benchmark reference")
    parser.add_argument("workloads", nargs="*", default=list(J.WORKLOADS))
    args = parser.parse_args(argv)
    lib = import_lamespectra()
    for workload in args.workloads:
        workdir = ROOT / ".perfbench_out" / f"record-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            doc = record(lib, workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = J.HERE / "reference" / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
