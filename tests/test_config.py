import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from lamespectra import config
from lamespectra.cli import main
from lamespectra.config import (
    POTENTIAL_FAMILIES,
    SCHEMA,
    ConfigError,
    check_config,
    lattice_from_config,
    load_config,
    params_from_config,
    potential_from_config,
)
from lamespectra.norms import NORM_PARAMS
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


ROOT = Path(__file__).resolve().parents[1]


def _config_texts():
    """Every YAML mapping the tests, demos and benchmark pools feed the loader.

    String literals of tests/*.py and demos/*.py that parse as a mapping (the
    configs and the pieces the tests splice into them), each benchmark pool
    config as the benchmark writes it, and YAML 1.1 corner cases.
    """
    texts = []
    for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    doc = yaml.load(node.value, Loader=yaml.SafeLoader)
                except yaml.YAMLError:
                    continue
                if isinstance(doc, dict):
                    texts.append(node.value)
    for pool in sorted(ROOT.glob("perfbench/reference/*.json")):
        sizes = json.loads(pool.read_text())["sizes"].values()
        texts += [yaml.safe_dump(e["config"], sort_keys=True)
                  for size in sizes for e in size["entries"].values() if "config" in e]
    texts.append("a: 1e-3\nb: 1.0e-3\nc: .inf\nd: -.Inf\ne: .nan\nf: 0x1F\ng: 0o17\n"
                 "h: 017\ni: 1_000\nj: 1:30\nk: no\nl: 'no'\nm: ~\nn: 2001-12-14\n"
                 "o: !!float 1\np: [1, -2.5, +3]\nq: {r: [re, 0.5]}\ns: Yes\n")
    return texts


def _same(a, b) -> bool:
    """==, but also for NaN, and with types and key order equal."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_loader_reads_every_config_alike(tmp_path):
    assert config._LOADER is yaml.CSafeLoader
    texts = _config_texts()
    assert len(texts) > 100
    for text in texts:
        want = yaml.load(text, Loader=yaml.SafeLoader)
        assert _same(yaml.load(text, Loader=yaml.CSafeLoader), want), text
        path = tmp_path / "run.yaml"
        path.write_text(text)
        assert _same(load_config(path), want), text


@pytest.mark.parametrize("norms, named", [
    ([{"name": "kerman_sayer", "alpha": 2.0}], "norms[0]: alpha must lie in (0, dim) = (0, 2)"),
    ([{"name": "lp", "p": 2.0}, {"name": "morrey_campanato", "alpha": 1.5, "p": 1.5}],
     "norms[1]: alpha must lie in (0, dim/p]"),
    ([{"name": "weighted_lq", "q": 2.0, "alpha": -0.5}], "norms[0]: alpha must be >= 0"),
    ([{"name": "muckenhoupt", "p": 1.0}], "norms[0]: p must be > 1"),
    ([{"name": "kerman_sayer", "alpha": 1.0, "eps_mass": -1.0}], "norms[0]: eps_mass must be"),
])
def test_check_config_checks_norm_windows(norms, named):
    cfg = {"lattice": {"dim": 2, "points": 8},
           "potential": {"family": "gaussian", "amplitude": 1.0, "width": 0.5}, "norms": norms}
    with pytest.raises(ConfigError) as err:
        check_config(cfg, "norms")
    assert str(err.value).startswith(named)


def test_only_resolvent_z_values_need_a_point():
    # a resolvent-check with no point would pass having checked nothing
    base = {"lattice": {"dim": 1, "points": 16}, "material": {"lambda": 0.0, "mu": 1.0}}
    with pytest.raises(ConfigError, match=r"resolvent\.z_values must be a non-empty list"):
        check_config({**base, "resolvent": {"z_values": []}}, "resolvent-check")
    well = {"family": "well", "depth": 1.0, "half_width": 1.0}
    run = check_config({**base, "potential": well, "bs": {"z_values": []}}, "bs-check")
    assert run.bs["z_values"] == []


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


def test_complex_keys_read_exponent_strings():
    # YAML 1.1 reads 1e-1 (no dot) as a string; a complex key reads it as a
    # real key does, as a number
    lat = Lattice(1, 32, 8.0)
    doc = yaml.safe_load("""
        gaussian: {family: gaussian, amplitude: 1e-1, width: 0.5}
        well: {family: well, depth: 2e3, half_width: 1.0}
        resolvent: {z_values: [-1e-2, [1e-1, 2E-1]]}
        """)
    assert doc["gaussian"]["amplitude"] == "1e-1"
    V = potential_from_config({"potential": doc["gaussian"]}, lat)
    assert np.array_equal(V.values, potential_from_config(
        {"potential": {"family": "gaussian", "amplitude": 0.1, "width": 0.5}}, lat).values)
    W = potential_from_config({"potential": doc["well"]}, lat)
    assert np.min(W.values.real) == -2000.0
    run = check_config({"lattice": {"dim": 1, "points": 16}, "material": {"lambda": 0.0, "mu": 1.0},
                        "resolvent": doc["resolvent"]}, "resolvent-check")
    assert run.resolvent["z_values"] == [-0.01, 0.1 + 0.2j]
    for text in ("1e-1x", "nan", ".", "1e"):
        with pytest.raises(ConfigError, match="must be a number or a \\[re, im\\] pair"):
            potential_from_config({"potential": {**doc["well"], "depth": text}}, lat)


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


def _section_keys(keys: dict, prefix: str = ""):
    for name, (kind, _) in keys.items():
        if isinstance(kind, dict):
            yield from _section_keys(kind, f"{prefix}{name}.")
        else:
            yield prefix + name


def test_docs_table_lists_every_config_key():
    # the schema and docs/file_formats.md "Config keys" name the same keys
    keys = set(_section_keys({k: v for k, v in SCHEMA.items() if k not in ("potential", "norms")}))
    keys |= {"potential.csv", "potential.family", "norms[].name"}
    keys |= {f"potential.{k}" for _, params in POTENTIAL_FAMILIES.values() for k in params}
    keys |= {f"norms[].{k}" for params in NORM_PARAMS.values() for k in params}
    docs = (Path(__file__).resolve().parents[1] / "docs" / "file_formats.md").read_text()
    table = docs.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `([^`]+)` \|", table, re.M)) == keys


def test_docs_table_lists_every_sidecar_key(tmp_path):
    # a success sidecar and a failure sidecar hold the keys docs/file_formats.md
    # lists in the first table under "Sidecars"
    base = ("lattice: {dim: 1, points: 16}\n"
            "potential: {family: gaussian, amplitude: 1.0, width: 0.7}\n")
    runs = {"ok": ("norms: [{name: lp, p: 2.0}]\n", 0),
            "failed": ("norms: [{name: kerman_sayer, alpha: 0.5}]\nsolver: {budget_bytes: 1}\n", 4)}
    keys = set()
    for name, (extra, code) in runs.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(base + extra)
        assert main(["norms", "-c", str(cfg), "-o", str(tmp_path / name)]) == code
        keys |= set(json.loads((tmp_path / name / "norms.json.meta.json").read_text()))
    assert {"error", "warnings"} <= keys
    docs = (Path(__file__).resolve().parents[1] / "docs" / "file_formats.md").read_text()
    section = docs.split("## Sidecars", 1)[1].split("\n## ", 1)[0]
    table = section[section.index("\n|"):].split("\n\n", 1)[0]
    assert set(re.findall(r"^\| `([^`]+)` \|", table, re.M)) == keys
