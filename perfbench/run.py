"""lamespectra benchmark: one workload, one closed-loop client, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters (``worker.py``): SETUP_PROBES that stop
after set-up, then one that also runs the timed passes.  ``setup_s`` is the
median set-up time over all of them.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of a traced run.  The line before it holds the environment, the
failure reasons and the reference-check details.  ``--smoke`` runs the
workload at its tiny smoke size with no extra set-up probes.

Exits non-zero, printing no result, when a worker fails (for example when
the checkout has no ``src/lamespectra``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
# one BLAS/OpenMP thread: the run stays on one of the few shared cores
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from jobs import WORKLOADS  # noqa: E402
from worker import PER_LAYER  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("completed_ratio", "ratio"),
)


class WorkerFailed(RuntimeError):
    pass


def spawn(argv: list, timeout: float) -> tuple:
    """Run one worker to completion; returns (its result, its set-up seconds)."""
    env = dict(os.environ, **{name: "1" for name in ONE_THREAD})
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
                              text=True, timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lamespectra benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        probes = []
        for i in range(0 if args.smoke else SETUP_PROBES):
            probes.append(spawn(common + ["--setup-only", "--workdir", str(workdir / f"setup{i}")],
                                deadline - time.monotonic()))
        result, setup = spawn(common + ["--trace", str(args.trace),
                                        "--workdir", str(workdir / "run")],
                              deadline - time.monotonic())
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for r, _ in probes] + [result]
    setups = [s for _, s in probes] + [setup]
    values = dict(result["metrics"])
    if args.trace:
        values["cli.import_s"] = statistics.median(r["import_s"] for r in runs)
        units = PER_LAYER
    else:
        values["setup_s"] = statistics.median(s * r["scale"] for r, s in zip(runs, setups))
        units = END_TO_END
    info = dict(result["info"], workload=args.workload, trace=args.trace,
                setup_samples_s=setups, setup_ref_s=[r["ref_s"] for r in runs])
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
