import numpy as np
import pytest

from lamespectra.config import (
    ConfigError,
    lattice_from_config,
    load_config,
    params_from_config,
    potential_from_config,
)
from lamespectra.lattice import Lattice, ScalarField
from lamespectra.serialize import scalar_to_csv


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("lattice: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(scalar)


def test_lattice_section():
    lat = lattice_from_config({"lattice": {"dim": 2, "points": 16, "period": 3.0}})
    assert (lat.dim, lat.n, lat.period) == (2, 16, 3.0)
    lat = lattice_from_config({"lattice": {"dim": 2}})
    assert lat.n == Lattice.default(2).n
    assert abs(lat.period - 2.0 * np.pi) < 1e-15
    with pytest.raises(ConfigError, match="needs 'dim'"):
        lattice_from_config({"lattice": {"points": 16}})
    with pytest.raises(ConfigError):
        lattice_from_config({"lattice": {"dim": 2, "points": 15}})
    with pytest.raises(ConfigError, match="missing the 'lattice'"):
        lattice_from_config({})


def test_material_section():
    p = params_from_config({"material": {"lambda": -0.5, "mu": 1.0}})
    assert p.longitudinal == 1.5
    with pytest.raises(ConfigError, match="'lambda' and 'mu'"):
        params_from_config({"material": {"mu": 1.0}})
    with pytest.raises(ConfigError):
        params_from_config({"material": {"lambda": 0.0, "mu": -1.0}})


def test_potential_families():
    lat = Lattice(1, 32, 8.0)
    V = potential_from_config(
        {"potential": {"family": "gaussian", "amplitude": [-3.0, 1.0], "width": 0.5}}, lat
    )
    assert abs(V.values[16] - (-3.0 + 1.0j)) < 1e-12
    W = potential_from_config(
        {"potential": {"family": "well", "depth": 2.0, "half_width": 1.0}}, lat
    )
    assert np.min(W.values.real) == -2.0
    U = potential_from_config(
        {"potential": {"family": "inverse_power", "amplitude": 1.0, "exponent": 1.0,
                       "center": [4.25]}}, lat
    )
    assert np.all(np.isfinite(U.values))


def test_potential_csv_route(tmp_path):
    lat = Lattice(1, 8, 2.0)
    rng = np.random.default_rng(0)
    f = ScalarField(lat, rng.normal(size=8) + 1j * rng.normal(size=8))
    path = tmp_path / "V.csv"
    scalar_to_csv(f, path)
    V = potential_from_config({"potential": {"csv": str(path)}}, lat)
    assert np.array_equal(V.values, f.values)


def test_potential_errors():
    lat = Lattice(1, 16)
    with pytest.raises(ConfigError, match="needs 'amplitude'"):
        potential_from_config({"potential": {"family": "gaussian", "width": 0.5}}, lat)
    with pytest.raises(ConfigError, match="needs 'depth'"):
        potential_from_config({"potential": {"family": "well", "half_width": 1.0}}, lat)
    with pytest.raises(ConfigError, match="family must be"):
        potential_from_config({"potential": {"family": "coulomb"}}, lat)
    with pytest.raises(ConfigError, match="must be a number or"):
        potential_from_config(
            {"potential": {"family": "gaussian", "amplitude": "big", "width": 0.5}}, lat
        )
    with pytest.raises(ConfigError, match="bad arguments"):
        potential_from_config(
            {"potential": {"family": "gaussian", "amplitude": 1.0, "widht": 0.5}}, lat
        )
