"""Experiment runner.

Each subcommand reads one YAML config (see :mod:`lamespectra.config`) and
writes data files into an output directory.  The config fully determines the
run; the only flag overrides are the output directory and the seed.  Outputs
are byte-identical across reruns with the same config and seed; wall-clock
metadata goes to ``*.meta.json`` sidecars.

Exit codes: 0 success, 2 invalid config, 3 hypothesis violation, 4 budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    _as_complex,
    _as_number,
    _optional_section,
    lattice_from_config,
    load_config,
    params_from_config,
    potential_from_config,
)
from .enclosure import (
    BoundSpec,
    EmptyEnsemble,
    HypothesisViolation,
    calibrate_constant,
    enclosure_report,
)
from .helmholtz import helmholtz_decompose, divergence
from .lame import _check_admissible, resolvent_direct, resolvent_split
from .lattice import random_scalar_field, random_vector_field, scalar_lp_norm, vector_lp_norm
from .norms import norm_result
from .potentials import random_ensemble
from .serialize import vector_to_csv, write_metadata, write_report, write_table
from .spectra import BudgetExceeded, DEFAULT_BUDGET_BYTES, bs_check, bs_norm, discrete_eigenvalues

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return _as_number(cfg.get("seed", 0), "seed", int)


def _solver_kwargs(cfg: dict) -> dict:
    sec = _optional_section(cfg, "solver")
    out = {}
    for key in ("tau_filter", "tau_res"):
        if sec.get(key) is not None:
            out[key] = _as_number(sec[key], f"solver.{key}")
    out["budget_bytes"] = _as_number(sec.get("budget_bytes", DEFAULT_BUDGET_BYTES),
                                     "solver.budget_bytes", int)
    return out


def _admissible(z: complex, where: str) -> complex:
    try:
        _check_admissible(z)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return z


def _z_list(sec: dict, where: str, key: str, default) -> list:
    """The points off the essential spectrum listed under ``sec[key]``."""
    raw = sec.get(key, default)
    if not isinstance(raw, list):
        raise ConfigError(f"{where}.{key} must be a list, got {raw!r}")
    names = [f"{where}.{key}[{i}]" for i in range(len(raw))]
    return [_admissible(_as_complex(item, name), name) for item, name in zip(raw, names)]


def _bound_spec(sec: dict) -> BoundSpec:
    if "theorem" not in sec or "gamma" not in sec:
        raise ConfigError("enclosure/calibrate section needs 'theorem' and 'gamma'")
    try:
        return BoundSpec(
            theorem=str(sec["theorem"]),
            gamma=float(sec["gamma"]),
            p=None if sec.get("p") is None else float(sec["p"]),
            alpha=None if sec.get("alpha") is None else float(sec["alpha"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- subcommands --------------------------------------------------------------


def cmd_decompose(cfg: dict, args) -> int:
    lat = lattice_from_config(cfg)
    out = _out_dir(args)
    sec = _optional_section(cfg, "decompose")
    kind = sec.get("field", "random")
    if kind == "random":
        rng = np.random.default_rng(_seed(cfg, args))
        f = random_vector_field(lat, rng)
    elif kind == "gradient":
        rng = np.random.default_rng(_seed(cfg, args))
        from .helmholtz import gradient

        f = gradient(random_scalar_field(lat, rng))
    else:
        raise ConfigError(f"decompose.field must be 'random' or 'gradient', got {kind!r}")
    pair = helmholtz_decompose(f)
    total = pair.total()
    pyth = abs(
        vector_lp_norm(f, 2.0) ** 2
        - vector_lp_norm(pair.solenoidal, 2.0) ** 2
        - vector_lp_norm(pair.potential, 2.0) ** 2
    )
    report = {
        "field_kind": kind,
        "lattice": {"dim": lat.dim, "points": lat.n, "period": lat.period},
        "norms": {
            "total": vector_lp_norm(f, 2.0),
            "solenoidal": vector_lp_norm(pair.solenoidal, 2.0),
            "potential": vector_lp_norm(pair.potential, 2.0),
        },
        "pythagorean_residual": pyth,
        "divergence_residual": scalar_lp_norm(divergence(pair.solenoidal), 2.0),
        "recomposition_residual": vector_lp_norm(f - total, 2.0),
    }
    vector_to_csv(f, out / "field.csv")
    vector_to_csv(pair.solenoidal, out / "solenoidal.csv")
    vector_to_csv(pair.potential, out / "potential_part.csv")
    write_report(report, out / "decompose.json")
    write_metadata(out / "decompose.json")
    print(f"decompose: pythagorean residual {pyth:.3e}")
    return EXIT_OK


def cmd_resolvent_check(cfg: dict, args) -> int:
    lat = lattice_from_config(cfg)
    params = params_from_config(cfg)
    out = _out_dir(args)
    sec = _optional_section(cfg, "resolvent")
    z_values = _z_list(sec, "resolvent", "z_values", [[0.5, 0.8], [-1.0, 0.3], [2.0, -1.0]])
    samples = _as_number(sec.get("samples", 3), "resolvent.samples", int)
    rng = np.random.default_rng(_seed(cfg, args))
    rows = []
    worst = 0.0
    for z in z_values:
        dev = 0.0
        for _ in range(samples):
            g = random_vector_field(lat, rng)
            via_split = resolvent_split(params, z, g)
            via_direct = resolvent_direct(params, z, g)
            num = vector_lp_norm(via_split - via_direct, 2.0)
            den = vector_lp_norm(via_direct, 2.0)
            dev = max(dev, num / den)
        rows.append({"z": [z.real, z.imag], "max_rel_deviation": dev})
        worst = max(worst, dev)
    report = {
        "material": {"lambda": params.lam, "mu": params.mu},
        "samples_per_z": samples,
        "checks": rows,
        "worst_rel_deviation": worst,
    }
    write_report(report, out / "resolvent_check.json")
    write_metadata(out / "resolvent_check.json")
    print(f"resolvent-check: worst relative deviation {worst:.3e}")
    return EXIT_OK


def _spectrum(cfg: dict, args):
    lat = lattice_from_config(cfg)
    params = params_from_config(cfg)
    V = potential_from_config(cfg, lat)
    result = discrete_eigenvalues(params, V, **_solver_kwargs(cfg))
    return lat, params, V, result


def cmd_spectrum(cfg: dict, args) -> int:
    out = _out_dir(args)
    lat, params, V, result = _spectrum(cfg, args)
    write_report(result.to_dict(), out / "spectrum.json")
    z = result.eigenvalues
    write_table(out / "eigenvalues.csv", ["index", "re", "im", "residual", "distance_to_ray"],
                [range(len(z)), z.real, z.imag, result.residuals, result.distances])
    write_metadata(out / "spectrum.json", extra={"eigensolves": [result.eigensolve]})
    print(f"spectrum: {len(result)} eigenvalues kept")
    return EXIT_OK


def cmd_bs_check(cfg: dict, args) -> int:
    out = _out_dir(args)
    sec = _optional_section(cfg, "bs")
    limit = _as_number(sec.get("limit", 16), "bs.limit", int)
    extra = _z_list(sec, "bs", "z_values", [])
    budget_bytes = _solver_kwargs(cfg)["budget_bytes"]
    lat, params, V, result = _spectrum(cfg, args)
    z_values = [_admissible(complex(z), "eigenvalue kept by solver.tau_filter")
                for z in result.eigenvalues[:limit]]
    rows = []
    for z in z_values + extra:
        rows.append(
            {
                "z": [z.real, z.imag],
                "eigenvalue_gap": bs_check(params, V, z, budget_bytes=budget_bytes),
                "operator_norm": bs_norm(params, V, z, budget_bytes=budget_bytes),
            }
        )
    report = {
        "material": {"lambda": params.lam, "mu": params.mu},
        "checks": rows,
        "n_from_spectrum": len(result.eigenvalues[:limit]),
    }
    write_report(report, out / "bs_check.json")
    write_metadata(out / "bs_check.json", extra={"eigensolves": [result.eigensolve]})
    worst = max((r["eigenvalue_gap"] for r in rows), default=0.0)
    print(f"bs-check: {len(rows)} points, worst |sigma + 1| gap {worst:.3e}")
    return EXIT_OK


def cmd_norms(cfg: dict, args) -> int:
    lat = lattice_from_config(cfg)
    V = potential_from_config(cfg, lat)
    out = _out_dir(args)
    requests = cfg.get("norms")
    if not isinstance(requests, list) or not requests:
        raise ConfigError("config needs a non-empty 'norms' list")
    budget_bytes = _solver_kwargs(cfg)["budget_bytes"]
    entries = []
    seconds = []
    for i, req in enumerate(requests):
        if not isinstance(req, dict) or "name" not in req:
            raise ConfigError(f"each norms entry needs a 'name', got {req!r}")
        kwargs = {k: _as_number(v, f"norms[{i}].{k}") for k, v in req.items() if k != "name"}
        start = time.perf_counter()
        try:
            res = norm_result(req["name"], V, budget_bytes=budget_bytes, **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        seconds.append(time.perf_counter() - start)
        entries.append(res.to_dict())
    write_report({"norms": entries}, out / "norms.json")
    write_metadata(out / "norms.json", extra={"norm_seconds": seconds})
    print(f"norms: {len(entries)} computed")
    return EXIT_OK


def cmd_enclosure(cfg: dict, args) -> int:
    out = _out_dir(args)
    sec = cfg.get("enclosure")
    if not isinstance(sec, dict):
        raise ConfigError("config needs an 'enclosure' section")
    spec = _bound_spec(sec)
    margin = _as_number(sec.get("margin", 1e-2), "enclosure.margin")
    lat, params, V, result = _spectrum(cfg, args)
    report = enclosure_report(spec, params, V, result, margin=margin)
    write_report(report.to_dict(), out / "enclosure.json")
    z = report.eigenvalues_tested
    write_table(out / "enclosure.csv", ["re", "im", "abs", "ratio", "verdict"],
                [[w.real for w in z], [w.imag for w in z], [abs(w) for w in z],
                 report.ratios, report.verdicts])
    write_metadata(out / "enclosure.json", extra={"eigensolves": [result.eigensolve]})
    print(f"enclosure: {len(report.ratios)} eigenvalues against {spec.theorem}")
    return EXIT_OK


def cmd_calibrate(cfg: dict, args) -> int:
    out = _out_dir(args)
    sec = cfg.get("calibrate")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'calibrate' section")
    spec = _bound_spec(sec)
    lat = lattice_from_config(cfg)
    params = params_from_config(cfg)
    ens_sec = _optional_section(sec, "ensemble", "calibrate.ensemble")
    family = ens_sec.get("family", "gaussian")
    size = _as_number(ens_sec.get("size", 8), "calibrate.ensemble.size", int)
    potentials = random_ensemble(
        lat,
        family,
        size,
        seed=_seed(cfg, args),
        real_only=bool(ens_sec.get("real_only", spec.theorem == "T_SA")),
    )
    ensemble = [(params, V) for V in potentials]
    try:
        result = calibrate_constant(
            spec,
            ensemble,
            record_a2=(spec.theorem == "T_KS"),
            **_solver_kwargs(cfg),
        )
    except EmptyEnsemble as exc:
        raise ConfigError(f"calibration produced no usable members: {exc}") from exc
    write_report(result.to_dict(), out / "calibration.json")
    write_metadata(out / "calibration.json", extra={"eigensolves": list(result.eigensolves)})
    print(f"calibrate: C_emp = {result.value:.6g} over {size} members [{result.fingerprint}]")
    return EXIT_OK


COMMANDS = {
    "decompose": cmd_decompose,
    "resolvent-check": cmd_resolvent_check,
    "spectrum": cmd_spectrum,
    "bs-check": cmd_bs_check,
    "norms": cmd_norms,
    "enclosure": cmd_enclosure,
    "calibrate": cmd_calibrate,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamespectra",
        description="Spectral experiments for perturbed elastic wave operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("-c", "--config", required=True, help="YAML experiment config")
        p.add_argument("-o", "--output", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
