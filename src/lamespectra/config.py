"""YAML run configuration, checked against one schema before any compute.

:data:`SCHEMA` maps each top-level key to ``(kind, default)``: a kind checks
a value and returns it typed, or is the dict of a section's own keys.
:data:`READS` lists the keys each subcommand reads, and :func:`check_config`
validates a whole document for one subcommand; every bad input raises
:class:`ConfigError` naming its key.  The keys, with types, defaults and
ranges, are tabled under "Config keys" in ``docs/file_formats.md``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import yaml

from . import potentials
from .enclosure import BoundSpec
from .lame import DEFAULT_TAU_Z, LameParams, Potential, _check_admissible
from .lattice import DEFAULT_BUDGET_BYTES, Lattice
from .norms import NORM_PARAMS, check_norm
from .potentials import ENSEMBLE_FAMILIES
from .serialize import scalar_from_csv

__all__ = ["ConfigError", "READS", "SCHEMA", "POTENTIAL_FAMILIES", "check_config",
           "load_config", "lattice_from_config", "params_from_config", "potential_from_config"]

REQUIRED = object()  # the default of a key that must be given


class ConfigError(ValueError):
    """The configuration file is missing keys or holds bad values."""


# libyaml's parser under the same SafeConstructor and resolver as yaml.SafeLoader
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path) -> dict:
    try:
        with open(path, "rb") as fh:  # yaml decodes, so a bad byte is a YAMLError naming the file
            doc = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


# -- kinds: kind(value, where, lattice) -> typed value ---------------------------


def _number(integral=False, lo=None, strict=False):
    """A finite float (int when ``integral``) >= ``lo`` (> when ``strict``); a
    string such as ``1e-3``, which YAML 1.1 reads as no float, counts."""
    def kind(value, where, lattice=None):
        try:
            x = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):  # an int beyond the float range overflows
            x = math.nan
        if not math.isfinite(x):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        if integral and not x.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if lo is not None and (x < lo or strict and x == lo):
            raise ConfigError(f"{where} must be {'>' if strict else '>='} {lo}, got {value!r}")
        return (value if isinstance(value, int) else int(x)) if integral else x
    return kind


_real, _integer, _positive = _number(), _number(integral=True), _number(lo=0, strict=True)


def _complex(value, where, lattice=None) -> complex:
    """A [re, im] pair or one number, each read as :func:`_real` reads it."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], f"{where}[0]"), _real(value[1], f"{where}[1]"))
    try:
        return complex(_real(value, where))
    except ConfigError:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            raise  # a number, but not a finite one
        raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}") from None


def _flag(value, where, lattice=None) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _text(value, where, lattice=None) -> str:
    return str(value)


def _one_of(*options):
    def kind(value, where, lattice=None):
        if value not in options:
            raise ConfigError(f"{where} must be one of {', '.join(options)}, got {value!r}")
        return value
    return kind


def _point(value, where, lattice) -> tuple:
    if not isinstance(value, list) or len(value) != lattice.dim:
        raise ConfigError(f"{where} must be a list of {lattice.dim} numbers, got {value!r}")
    return tuple(_real(c, f"{where}[{i}]") for i, c in enumerate(value))


def _z_list(nonempty=False):
    """Points off the essential spectrum [0, inf), each a number or [re, im];
    one point at least when ``nonempty``."""
    def kind(value, where, lattice=None) -> list:
        if not isinstance(value, list) or nonempty and not value:
            raise ConfigError(f"{where} must be a {'non-empty ' if nonempty else ''}list, "
                              f"got {value!r}")
        out = [_complex(z, f"{where}[{i}]") for i, z in enumerate(value)]
        try:
            for i, z in enumerate(out):
                _check_admissible(z)
        except ValueError as exc:
            raise ConfigError(f"{where}[{i}]: {exc}") from None
        return out
    return kind


# potential family -> (builder in lamespectra.potentials, its keys)
_CENTER = (_point, None)
POTENTIAL_FAMILIES = {
    "gaussian": ("gaussian_bump", {"amplitude": (_complex, REQUIRED),
                                   "width": (_positive, REQUIRED), "center": _CENTER,
                                   "support_radius": (_positive, None)}),
    "well": ("square_well", {"depth": (_complex, REQUIRED), "half_width": (_positive, REQUIRED),
                             "center": _CENTER}),
    "inverse_power": ("inverse_power", {"amplitude": (_complex, REQUIRED),
                                        "exponent": (_real, REQUIRED),
                                        "cutoff_radius": (_positive, None),
                                        "core": (_positive, None), "center": _CENTER}),
}


def _potential(sec, where, lattice) -> Potential:
    """A built-in family with its keys, or ``csv:`` naming exported samples."""
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {where!r} must be a mapping")
    if "csv" in sec:
        path = _keys(sec, {"csv": (_text, REQUIRED)}, where, lattice, "csv potential")["csv"]
        try:
            return Potential(lattice, scalar_from_csv(lattice, path).values)
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"{where}.csv: {exc}") from None
    family = _one_of(*POTENTIAL_FAMILIES)(sec.get("family"), f"{where}.family")
    builder, keys = POTENTIAL_FAMILIES[family]
    kwargs = _keys({k: v for k, v in sec.items() if k != "family"}, keys, where, lattice,
                   f"{family} potential")
    try:
        return getattr(potentials, builder)(lattice, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _norm_list(value, where, lattice) -> list:
    """(name, parameters) pairs; each norm takes the parameters of
    :data:`lamespectra.norms.NORM_PARAMS`, where a None default marks a required one,
    inside the windows :func:`lamespectra.norms.check_norm` checks on ``lattice``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
    out = []
    for i, entry in enumerate(value):
        at = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{at} must be a mapping with a 'name', got {entry!r}")
        name = _one_of(*NORM_PARAMS)(entry.get("name"), f"{at}.name")
        keys = {k: (_real, REQUIRED if d is None else None) for k, d in NORM_PARAMS[name].items()}
        params = _keys(entry, {"name": (_text, REQUIRED), **keys}, at, lattice, f"{name} norm")
        params = {k: params[k] for k in keys if params[k] is not None}
        try:
            check_norm(name, lattice.dim, params)
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from None
        out.append((name, params))
    return out


_BOUND = {"theorem": (_text, REQUIRED), "gamma": (_real, REQUIRED), "p": (_real, None),
          "alpha": (_real, None)}

SCHEMA = {
    "lattice": ({"dim": (_integer, REQUIRED), "points": (_integer, None),
                 "period": (_real, 2.0 * math.pi)}, REQUIRED),
    "material": ({"lambda": (_real, REQUIRED), "mu": (_real, REQUIRED)}, REQUIRED),
    "potential": (_potential, REQUIRED),
    "solver": ({"tau_filter": (_number(lo=0), None), "tau_res": (_positive, None),
                "budget_bytes": (_number(integral=True, lo=1), DEFAULT_BUDGET_BYTES)}, {}),
    "seed": (_number(integral=True, lo=0), 0),
    "decompose": ({"field": (_one_of("random", "gradient"), "random")}, {}),
    "resolvent": ({"z_values": (_z_list(nonempty=True), [[0.5, 0.8], [-1.0, 0.3], [2.0, -1.0]]),
                   "samples": (_number(integral=True, lo=1), 3)}, {}),
    "bs": ({"limit": (_number(integral=True, lo=0), 16), "z_values": (_z_list(), [])}, {}),
    "norms": (_norm_list, REQUIRED),
    "enclosure": ({**_BOUND, "margin": (_real, 1e-2)}, REQUIRED),
    "calibrate": ({**_BOUND, "ensemble": ({  # real_only left out: theorem == "T_SA"
        "family": (_one_of(*ENSEMBLE_FAMILIES), "gaussian"),
        "size": (_number(integral=True, lo=1), 8), "real_only": (_flag, None)}, {})}, REQUIRED),
}

# sections whose typed values become objects; a ValueError names the section
_BUILD = {
    "lattice": lambda dim, points, period: (
        Lattice.default(dim, period) if points is None else Lattice(dim, points, period)),
    "material": lambda **v: LameParams(v["lambda"], v["mu"]),
    "enclosure": lambda margin, **b: {"spec": BoundSpec(**b), "margin": margin},
    "calibrate": lambda ensemble, **b: {"spec": BoundSpec(**b), "ensemble": ensemble},
}

# the keys each subcommand reads, in the order they are checked; any other
# key of SCHEMA may be present and is left alone
READS = {
    "decompose": ("lattice", "seed", "decompose"),
    "resolvent-check": ("lattice", "material", "seed", "resolvent"),
    "spectrum": ("lattice", "material", "potential", "solver"),
    "bs-check": ("lattice", "material", "potential", "solver", "bs"),
    "norms": ("lattice", "potential", "solver", "norms"),
    "enclosure": ("lattice", "material", "potential", "solver", "enclosure"),
    "calibrate": ("lattice", "material", "solver", "seed", "calibrate"),
}


def _value(kind, default, value, where: str, lattice):
    """The typed value of one key; ``value`` is None when the key is absent."""
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"config is missing the {where!r} section")
        if default is None:
            return None
        value = default
    if not isinstance(kind, dict):
        return kind(value, where, lattice)
    if not isinstance(value, dict):
        raise ConfigError(f"config section {where!r} must be a mapping")
    out = _keys(value, kind, where, lattice, f"{where} section")
    try:
        return _BUILD[where](**out) if where in _BUILD else out
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _keys(sec: dict, keys: dict, where: str, lattice, label: str) -> dict:
    """Typed values of the mapping ``sec``, which may hold only ``keys``."""
    unknown = [k for k in sec if k not in keys]
    if unknown:
        raise ConfigError(f"bad arguments for {label}: unknown key {where}.{unknown[0]} "
                          f"(known: {', '.join(keys)})")
    required = [k for k, (_, default) in keys.items() if default is REQUIRED]
    missing = [k for k in required if sec.get(k) is None]
    if missing:
        raise ConfigError(f"{label} needs {' and '.join(map(repr, required))} "
                          f"(missing {where}.{missing[0]})")
    return {k: _value(*keys[k], sec.get(k), f"{where}.{k}", lattice) for k in keys}


def check_config(cfg: dict, command: str, seed: int | None = None) -> SimpleNamespace:
    """The typed values ``command`` reads, one attribute per key of READS.

    ``seed``, when given, replaces the document's (the ``--seed`` flag).
    ``lattice``, ``material`` and ``potential`` come back built, ``norms`` as
    (name, parameters) pairs, the BoundSpec of ``enclosure`` and
    ``calibrate`` under ``spec``.
    """
    if seed is not None:
        cfg = {**cfg, "seed": seed}
    unknown = [k for k in cfg if k not in SCHEMA]
    if unknown:
        raise ConfigError(f"bad arguments for config: unknown key {unknown[0]} "
                          f"(known: {', '.join(SCHEMA)})")
    run = {}
    for name in READS[command]:
        run[name] = _value(*SCHEMA[name], cfg.get(name), name, run.get("lattice"))
    # max|xi|^2 = dim (pi n / L)^2 is the corner mode's, finite on every Lattice
    if "material" in run:
        lattice, material = run["lattice"], run["material"]
        xi2 = lattice.dim * (math.pi * lattice.n / lattice.period) ** 2
        if not math.isfinite(max(material.mu, material.longitudinal) * xi2):
            raise ConfigError("material: the spectral width max(mu, lam + 2 mu) max|xi|^2 "
                              "of the lattice overflows")
    # bs-check evaluates K(z) at the kept eigenvalues, which must stay off the ray
    tau = run["solver"]["tau_filter"] if command == "bs-check" else None
    if tau is not None and tau < DEFAULT_TAU_Z:
        raise ConfigError(f"solver.tau_filter must be >= {DEFAULT_TAU_Z} for bs-check, got {tau!r}")
    return SimpleNamespace(**run)


def lattice_from_config(cfg: dict) -> Lattice:
    return _value(*SCHEMA["lattice"], cfg.get("lattice"), "lattice", None)


def params_from_config(cfg: dict) -> LameParams:
    return _value(*SCHEMA["material"], cfg.get("material"), "material", None)


def potential_from_config(cfg: dict, lattice: Lattice) -> Potential:
    return _value(*SCHEMA["potential"], cfg.get("potential"), "potential", lattice)
