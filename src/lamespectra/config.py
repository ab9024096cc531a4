"""YAML run configuration: lattice, material constants, potential.

A config file looks like::

    lattice: {dim: 2, points: 32, period: 6.283185307179586}
    material: {lambda: 1.0, mu: 1.0}
    potential:
      family: gaussian
      amplitude: [-12.0, 3.0]     # complex numbers as [re, im]
      width: 0.6

The potential section accepts either a built-in family (``gaussian``,
``well``, ``inverse_power``) with its keyword arguments, or ``csv: path`` to
load previously exported samples.
"""

from __future__ import annotations

import yaml

from .lame import LameParams, Potential
from .lattice import Lattice
from . import potentials as _families

__all__ = [
    "ConfigError",
    "load_config",
    "lattice_from_config",
    "params_from_config",
    "potential_from_config",
]


class ConfigError(ValueError):
    """The configuration file is missing keys or holds bad values."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


def _section(cfg: dict, name: str) -> dict:
    try:
        sec = cfg[name]
    except KeyError:
        raise ConfigError(f"config is missing the {name!r} section") from None
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return sec


def _as_number(value, where: str, kind=float):
    """``kind(value)``, or a ConfigError naming ``where`` if that fails."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_number(value[0], where), _as_number(value[1], where))
    raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}")


def lattice_from_config(cfg: dict) -> Lattice:
    sec = _section(cfg, "lattice")
    if "dim" not in sec:
        raise ConfigError("lattice section needs 'dim'")
    dim = _as_number(sec["dim"], "lattice.dim", int)
    n = sec.get("points")
    period = _as_number(sec.get("period", 2.0 * 3.141592653589793), "lattice.period")
    try:
        if n is None:
            return Lattice.default(dim, period=period)
        return Lattice(dim, _as_number(n, "lattice.points", int), period)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def params_from_config(cfg: dict) -> LameParams:
    sec = _section(cfg, "material")
    if "lambda" not in sec or "mu" not in sec:
        raise ConfigError("material section needs 'lambda' and 'mu'")
    try:
        return LameParams(float(sec["lambda"]), float(sec["mu"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def potential_from_config(cfg: dict, lattice: Lattice) -> Potential:
    sec = _section(cfg, "potential")
    if "csv" in sec:
        from .serialize import scalar_from_csv

        field = scalar_from_csv(lattice, sec["csv"])
        return Potential(field)
    family = sec.get("family")
    kwargs = {k: v for k, v in sec.items() if k != "family"}
    if family == "gaussian":
        if "amplitude" not in kwargs:
            raise ConfigError("gaussian potential needs 'amplitude'")
        kwargs["amplitude"] = _as_complex(kwargs["amplitude"], "potential.amplitude")
        builder = _families.gaussian_bump
    elif family == "well":
        if "depth" not in kwargs:
            raise ConfigError("well potential needs 'depth'")
        kwargs["depth"] = _as_complex(kwargs["depth"], "potential.depth")
        builder = _families.square_well
    elif family == "inverse_power":
        if "amplitude" not in kwargs:
            raise ConfigError("inverse_power potential needs 'amplitude'")
        kwargs["amplitude"] = _as_complex(kwargs["amplitude"], "potential.amplitude")
        builder = _families.inverse_power
    else:
        raise ConfigError(
            f"potential family must be gaussian, well or inverse_power (or csv:), got {family!r}"
        )
    if "center" in kwargs and kwargs["center"] is not None:
        kwargs["center"] = tuple(float(c) for c in kwargs["center"])
    try:
        return builder(lattice, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments for {family} potential: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
