"""One benchmark process: set up, warm up, run timed passes, check outputs.

``run.py`` starts this script as a fresh interpreter, so the set-up time it
measures starts at interpreter start and the peak RSS is this process's
own.  Set-up covers ``import lamespectra``, writing the run's inputs and
one untimed warm-up job (the workload's first smoke-size job, so set-up
stays short on the dense workload).  With ``--setup-only`` the process
stops there.  Otherwise it runs the job list in a closed loop (one job
after another, one client) for whole passes until the next pass would
exceed ``--seconds``, checks every pass against the reference, and prints
one JSON object as its last stdout line.  Untraced passes also time the
``refspeed`` kernel between jobs, and the end-to-end times are scaled by
it to the nominal reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import jobs as J
import refspeed as R
import spans as S

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REF_POINTS = 3

PER_LAYER = (
    ("lattice.fft.calls", "count"),
    ("lattice.fft.self_s", "s"),
    ("lattice.fft.bytes_computed", "B"),
    ("helmholtz.leray.calls", "count"),
    ("helmholtz.leray.self_s", "s"),
    ("lame.resolvent.calls", "count"),
    ("lame.resolvent.self_s", "s"),
    ("lame.apply.calls", "count"),
    ("lame.apply.self_s", "s"),
    ("operator_norms.singular.iters", "count"),
    ("operator_norms.lp.iters", "count"),
    ("operator_norms.self_s", "s"),
    ("operator_norms.failures", "count"),
    *[(f"norms.{name}.{what}", unit)
      for name in ("lp", "weighted_lq", "morrey_campanato", "kerman_sayer", "muckenhoupt")
      for what, unit in (("calls", "count"), ("self_s", "s"))],
    ("potentials.build.calls", "count"),
    ("potentials.build.self_s", "s"),
    ("spectra.dense.assemble.self_s", "s"),
    ("spectra.dense.order_max", "count"),
    ("spectra.dense.bytes_computed", "B"),
    ("spectra.dense.eig.self_s", "s"),
    ("spectra.filter.residual.calls", "count"),
    ("spectra.filter.residual.self_s", "s"),
    ("spectra.filter.kept_ratio", "ratio"),
    ("spectra.bs.check.self_s", "s"),
    ("spectra.bs.norm.self_s", "s"),
    ("spectra.resolvent_estimate.self_s", "s"),
    ("enclosure.rhs.self_s", "s"),
    ("enclosure.report.self_s", "s"),
    ("enclosure.calibrate.self_s", "s"),
    ("serialize.write.calls", "count"),
    ("serialize.write.self_s", "s"),
    ("serialize.bytes_written", "B"),
    ("serialize.report_digest_changed", "count"),
    ("config.load.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.import_s", "s"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_s", "s"),
)


def import_lamespectra():
    """Import lamespectra from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import lamespectra
    import lamespectra.cli  # noqa: F401  (loads config and serialize too)

    where = Path(lamespectra.__file__).resolve().parent
    if where != SRC / "lamespectra":
        raise ImportError(f"lamespectra imported from {where}, expected {SRC / 'lamespectra'}")
    return lamespectra


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "lamespectra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("version")),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


class Pass:
    """Job times and checked outcomes of one pass over the job list.

    Given a ``refspeed.Reference``, the pass samples the machine's speed
    before its first job, between jobs once ``MIN_GAP_S`` has passed, and
    after its last job, outside the job timers.
    """

    def __init__(self, jobs, entries, ref=None):
        for job in jobs:
            if job.report is not None:
                # a job that stops writing its report must not pass on an old one
                job.report.unlink(missing_ok=True)
        sink = io.StringIO()
        results = []
        self.refs = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            cpu0 = _cpu()
            for i, job in enumerate(jobs):
                if ref is not None and (i == 0 or ref.due()):
                    self.refs.extend(ref.samples())
                results.append(J.run_job(job))
            if ref is not None:
                self.refs.extend(ref.samples())
            self.cpu = _cpu() - cpu0
            self.wall = time.perf_counter() - start
        self.times = [seconds for _, _, seconds in results]
        self.outcomes = [J.check(job, entries[job.key], value, error)
                         for job, (value, error, _) in zip(jobs, results)]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def run_passes(jobs, entries, seconds: float, ref=None) -> list:
    """Whole passes until the next one would overrun ``seconds``; at least one."""
    passes = [Pass(jobs, entries, ref)]
    measured = passes[0].wall
    while measured + passes[-1].wall <= seconds:
        passes.append(Pass(jobs, entries, ref))
        measured += passes[-1].wall
    return passes


def end_to_end(passes, nominal: float) -> tuple:
    """Pass wall time and job percentiles at the nominal reference speed.

    Each pass's job times are scaled by ``nominal`` over the median
    reference sample of that pass, then each job is taken at its median
    over the passes.  Returns the metrics and the same times unscaled.
    """
    import numpy as np

    raw = np.array([p.times for p in passes])
    scale = np.array([nominal / statistics.median(p.refs) for p in passes])
    attempted = raw.size
    failed = sum(o.failed for p in passes for o in p.outcomes)
    times = {}
    for label, per_pass in (("scaled", raw * scale[:, None]), ("raw", raw)):
        per_job = np.median(per_pass, axis=0)
        times[label] = {
            "wall_s": float(per_job.sum()),
            "job_p50_s": float(np.percentile(per_job, 50)),
            "job_p90_s": float(np.percentile(per_job, 90)),
        }
    metrics = dict(times["scaled"],
                   peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   completed_ratio=(attempted - failed) / attempted)
    return metrics, times["raw"]


def per_layer(tracer, traced, untraced) -> dict:
    summary = tracer.summarize()
    n = len(traced)
    calls = {S.STAGE_KEYS[k]: v / n for k, v in summary["calls"].items()}
    self_s = {S.STAGE_KEYS[k]: v / n for k, v in summary["self_s"].items()}
    count = {k: v / n for k, v in tracer.counters.items()}
    wall = sum(p.wall for p in traced) / n
    cpu = sum(p.cpu for p in traced) / n
    out = {}
    for stage, key in S.STAGE_KEYS.items():
        out[f"{key}.calls"] = calls.get(key, 0.0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    out["operator_norms.self_s"] = (out["operator_norms.singular.self_s"]
                                    + out["operator_norms.lp.self_s"])
    residuals = summary["calls"].get("filter.residual", 0)
    out.update({
        "lattice.fft.bytes_computed": count.get("fft.bytes", 0.0),
        "operator_norms.singular.iters": count.get("iter.singular.iters", 0.0),
        "operator_norms.lp.iters": count.get("iter.lp.iters", 0.0),
        "operator_norms.failures": (count.get("iter.singular.failures", 0.0)
                                    + count.get("iter.lp.failures", 0.0)),
        "spectra.dense.order_max": tracer.counters.get("dense.order_max", 0.0),
        "spectra.dense.bytes_computed": count.get("dense.bytes", 0.0),
        "spectra.filter.kept_ratio": (tracer.counters.get("dense.kept", 0.0) / residuals
                                      if residuals else 0.0),
        "serialize.bytes_written": count.get("serialize.bytes", 0.0),
        "serialize.report_digest_changed": sum(o.digest_changed for p in traced
                                               for o in p.outcomes) / n,
        "process.cpu_s": cpu,
        "process.cpu_per_wall": cpu / wall,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced.wall,
        "trace.untraced_s": wall - summary["root_s"] / n,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    lib = import_lamespectra()
    import_s = time.perf_counter() - start

    workdir = Path(args.workdir)
    pool = J.load_pool(args.workload, "smoke" if args.smoke else "full")
    entries = pool["entries"]
    jobs = [J.make_job(lib, key, entries[key], workdir) for key in J.select(pool, args.seed)]
    warm_pool = J.load_pool(args.workload, "smoke")
    warm_key = J.select(warm_pool, args.seed)[0]
    warm = J.make_job(lib, warm_key, warm_pool["entries"][warm_key], workdir / "warmup")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        J.run_job(warm)
    ready = time.monotonic()
    ref = R.Reference(memory=args.workload in J.MEMORY_BOUND)
    # the speed set-up ran at, sampled after set-up and outside its time
    setup_ref_s = statistics.median(t for _ in range(SETUP_REF_POINTS) for t in ref.samples())
    speed = {"ref_s": setup_ref_s, "scale": ref.nominal / setup_ref_s}
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": import_s, **speed}))
        return 0

    info = {"environment": environment(args.seed), "jobs_per_pass": len(jobs)}
    checked = []
    if args.trace:
        untraced = Pass(jobs, entries)
        checked.append(untraced)
        tracer = S.Tracer()
        tracer.install()
        try:
            passes = run_passes(jobs, entries, args.seconds)
        finally:
            tracer.uninstall()
        layers = per_layer(tracer, passes, untraced)
        metrics = {name: layers[name] for name, _ in PER_LAYER if name != "cli.import_s"}
        accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        accounted += metrics["trace.untraced_s"]
        info["trace_accounted_share"] = accounted / metrics["trace.wall_s"]
    else:
        passes = run_passes(jobs, entries, args.seconds, ref)
        metrics, info["unscaled"] = end_to_end(passes, ref.nominal)
        info["pass_ref_s"] = [statistics.median(p.refs) for p in passes]
    checked += passes
    outcomes = [o for p in checked for o in p.outcomes]
    info.update({
        "passes": len(passes),
        "failures": dict(Counter(o.reason for o in outcomes if o.failed)),
        "unexpected": sorted({o.reason for o in outcomes if o.unexpected})[:5],
        "report_digest_changed": sum(o.digest_changed for o in outcomes),
    })
    print(json.dumps({
        "ready": ready,
        "import_s": import_s,
        **speed,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "correct": (not any(o.unexpected for o in outcomes)
                    and abs(info.get("trace_accounted_share", 1.0) - 1.0) <= 0.01),
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
