"""Experiment runner.

Each subcommand reads one YAML config, checked whole by
:func:`lamespectra.config.check_config` before any compute, and writes data
files into an output directory.  The config fully determines the run; the
only flag overrides are the output directory and the seed.  Outputs are
byte-identical across reruns with the same config and seed.  Each command
returns its result and a message; :func:`main` runs it inside one
:func:`trace.record`, prints each distinct warning it raised once as a
``warning:`` line, and writes the report, its ``*.meta.json`` sidecar (the
trace, the warnings and the environment) and the message to stdout.  A
command that fails with one of the exit codes below leaves only the
sidecar, which then also holds the ``error``.

Exit codes: 0 success, 2 invalid config or output directory, 3 hypothesis
violation, 4 budget exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

import numpy as np

from . import trace
from .config import ConfigError, check_config, load_config
from .enclosure import EmptyEnsemble, HypothesisViolation, calibrate_constant, enclosure_report
from .helmholtz import divergence, gradient, helmholtz_decompose
from .lame import _check_admissible, resolvent_direct, split_resolvent
from .lattice import random_scalar_field, random_vector_field, scalar_lp_norm, vector_lp_norm
from .norms import norm_result
from .potentials import random_ensemble
from .serialize import vector_to_csv, write_metadata, write_report, write_table
from .spectra import BudgetExceeded, bs_check, bs_kernel, bs_norm, discrete_eigenvalues

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4


# -- subcommands: each takes the checked config and the output directory,
# -- writes its data files and returns (result, message) ---------------------


def cmd_decompose(run, out: Path) -> tuple:
    lat = run.lattice
    kind = run.decompose["field"]
    rng = np.random.default_rng(run.seed)
    f = (random_vector_field(lat, rng) if kind == "random"
         else gradient(random_scalar_field(lat, rng)))
    pair = helmholtz_decompose(f)
    norms = {"total": vector_lp_norm(f, 2.0), "solenoidal": vector_lp_norm(pair.solenoidal, 2.0),
             "potential": vector_lp_norm(pair.potential, 2.0)}
    pyth = abs(norms["total"] ** 2 - norms["solenoidal"] ** 2 - norms["potential"] ** 2)
    for name, field in (("field", f), ("solenoidal", pair.solenoidal),
                        ("potential_part", pair.potential)):
        vector_to_csv(field, out / f"{name}.csv")
    report = {
        "field_kind": kind,
        "lattice": {"dim": lat.dim, "points": lat.n, "period": lat.period},
        "norms": norms,
        "pythagorean_residual": pyth,
        "divergence_residual": scalar_lp_norm(divergence(pair.solenoidal), 2.0),
        "recomposition_residual": vector_lp_norm(f - pair.total(), 2.0),
    }
    return report, f"decompose: pythagorean residual {pyth:.3e}"


def cmd_resolvent_check(run, out: Path) -> tuple:
    lat, params = run.lattice, run.material
    samples = run.resolvent["samples"]
    rng = np.random.default_rng(run.seed)
    rows, worst = [], 0.0
    for z in run.resolvent["z_values"]:
        dev, split = 0.0, split_resolvent(params, z, lat)
        for _ in range(samples):
            g = random_vector_field(lat, rng)
            via_split = split(g)
            via_direct = resolvent_direct(params, z, g)
            num = vector_lp_norm(via_split - via_direct, 2.0)
            dev = max(dev, num / vector_lp_norm(via_direct, 2.0))
        rows.append({"z": z, "max_rel_deviation": dev})
        worst = max(worst, dev)
    report = {"material": {"lambda": params.lam, "mu": params.mu}, "samples_per_z": samples,
              "checks": rows, "worst_rel_deviation": worst}
    return report, f"resolvent-check: worst relative deviation {worst:.3e}"


def cmd_spectrum(run, out: Path) -> tuple:
    result = discrete_eigenvalues(run.material, run.potential, **run.solver)
    z = result.eigenvalues
    write_table(out / "eigenvalues.csv", ["index", "re", "im", "residual", "distance_to_ray"],
                [range(len(z)), z.real, z.imag, result.residuals, result.distances])
    return result, f"spectrum: {len(result)} eigenvalues kept"


def cmd_bs_check(run, out: Path) -> tuple:
    params, V, budget_bytes = run.material, run.potential, run.solver["budget_bytes"]
    result = discrete_eigenvalues(params, V, **run.solver)
    from_spectrum = [complex(z) for z in result.eigenvalues[:run.bs["limit"]]]
    try:
        for z in from_spectrum:
            _check_admissible(z)
    except ValueError as exc:
        raise ConfigError(f"eigenvalue kept by solver.tau_filter: {exc}") from None
    rows = []
    for z in from_spectrum + run.bs["z_values"]:
        K = bs_kernel(params, V, z, budget_bytes=budget_bytes)
        rows.append({"z": z, "eigenvalue_gap": bs_check(K), "operator_norm": bs_norm(K)})
    report = {"material": {"lambda": params.lam, "mu": params.mu}, "checks": rows,
              "n_from_spectrum": len(from_spectrum)}
    worst = max((r["eigenvalue_gap"] for r in rows), default=0.0)
    return report, f"bs-check: {len(rows)} points, worst |sigma + 1| gap {worst:.3e}"


def cmd_norms(run, out: Path) -> tuple:
    entries = []
    for i, (name, params) in enumerate(run.norms):
        try:
            res = norm_result(name, run.potential, budget_bytes=run.solver["budget_bytes"],
                              **params)
        except ValueError as exc:
            raise ConfigError(f"norms[{i}]: {exc}") from exc
        entries.append(res)
    return {"norms": entries}, f"norms: {len(entries)} computed"


def cmd_enclosure(run, out: Path) -> tuple:
    spec, params, V = run.enclosure["spec"], run.material, run.potential
    result = discrete_eigenvalues(params, V, **run.solver)
    report = enclosure_report(spec, params, V, result, margin=run.enclosure["margin"],
                              budget_bytes=run.solver["budget_bytes"])
    z = report.eigenvalues_tested
    write_table(out / "enclosure.csv", ["re", "im", "abs", "ratio", "verdict"],
                [[w.real for w in z], [w.imag for w in z], [abs(w) for w in z],
                 report.ratios, report.verdicts])
    return report, f"enclosure: {len(report.ratios)} eigenvalues against {spec.theorem}"


def cmd_calibrate(run, out: Path) -> tuple:
    spec, ens = run.calibrate["spec"], run.calibrate["ensemble"]
    real_only = spec.theorem == "T_SA" if ens["real_only"] is None else ens["real_only"]
    potentials = random_ensemble(run.lattice, ens["family"], ens["size"], seed=run.seed,
                                 real_only=real_only)
    try:
        result = calibrate_constant(spec, [(run.material, V) for V in potentials], **run.solver)
    except EmptyEnsemble as exc:
        raise ConfigError(f"calibration produced no usable members: {exc}") from exc
    return (result, f"calibrate: C_emp = {result.value:.6g} over {ens['size']} members "
            f"[{result.fingerprint}]")


# name: (command, report file name)
COMMANDS = {
    "decompose": (cmd_decompose, "decompose.json"),
    "resolvent-check": (cmd_resolvent_check, "resolvent_check.json"),
    "spectrum": (cmd_spectrum, "spectrum.json"),
    "bs-check": (cmd_bs_check, "bs_check.json"),
    "norms": (cmd_norms, "norms.json"),
    "enclosure": (cmd_enclosure, "enclosure.json"),
    "calibrate": (cmd_calibrate, "calibration.json"),
}
FAILURES = (ConfigError, HypothesisViolation, BudgetExceeded, MemoryError)


@functools.cache  # built once per process; each parse_args returns a new Namespace
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamespectra",
        description="Spectral experiments for perturbed elastic wave operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _) in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("-c", "--config", required=True, help="YAML experiment config")
        p.add_argument("-o", "--output", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _exit_status(exc) -> tuple:
    """Exit code and ``error:`` message of a failure in :data:`FAILURES`."""
    if isinstance(exc, MemoryError):
        return EXIT_BUDGET, f"out of memory: {exc}"
    code = (EXIT_CONFIG if isinstance(exc, ConfigError)
            else EXIT_HYPOTHESIS if isinstance(exc, HypothesisViolation) else EXIT_BUDGET)
    return code, str(exc)


def _run(command, run, out: Path, report: Path) -> str:
    """Run one command; write its report and sidecar, or on a failure only the sidecar."""
    failure = None
    with trace.record() as stages, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, message = command(run, out)
        except FAILURES as exc:
            failure = exc
    notes = list(dict.fromkeys(str(w.message) for w in caught))
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    record = {"trace": stages, "warnings": notes}
    if failure is not None:
        code, text = _exit_status(failure)
        write_metadata(report, {**record, "error": {"exit_code": code, "message": text}})
        raise failure
    write_report(result, report)
    write_metadata(report, record)
    return message


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command, report = COMMANDS[args.command]
    try:
        run = check_config(load_config(args.config), args.command, seed=args.seed)
        out = Path(args.output)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {args.output!r}: "
                              f"{exc.strerror}") from None
        print(_run(command, run, out, out / report))
        return EXIT_OK
    except FAILURES as exc:
        code, text = _exit_status(exc)
        print(f"error: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
