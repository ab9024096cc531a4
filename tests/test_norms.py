import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ap_constant_brute,
    dyadic_cubes_brute,
    ks_norm_brute,
    ks_norm_dense,
    ks_numerators_in_memory,
    mc_norm_brute,
    mc_norm_loop,
)
from lamespectra.config import lattice_from_config, potential_from_config
from lamespectra.lame import Potential
from lamespectra.lattice import BudgetExceeded, Lattice, ScalarField
from lamespectra.potentials import gaussian_bump
from lamespectra.norms import (
    _KS_LEAF,
    DyadicCube,
    _ks_bytes,
    _ks_numerators,
    _ks_windows,
    _level_blocks,
    _pairwise_sum,
    ap_cube_value,
    dyadic_cubes,
    dyadic_level_max,
    dyadic_radius_exponents,
    kerman_sayer_norm,
    ks_cube_value,
    lp_norm,
    mc_ball_value,
    morrey_campanato_norm,
    muckenhoupt_constant,
    norm_result,
    polynomial_weight,
    weighted_lq_norm,
)


def _random_potential(dim, n, seed, period=2.0):
    rng = np.random.default_rng(seed)
    lat = Lattice(dim, n, period)
    vals = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
    return Potential.from_array(lat, vals)


# -- dyadic machinery --------------------------------------------------------


def test_dyadic_level_max():
    assert dyadic_level_max(8) == 3
    assert dyadic_level_max(12) == 2
    assert dyadic_level_max(6) == 1
    assert dyadic_level_max(4) == 2


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 8), (2, 12), (3, 4)])
def test_dyadic_cubes_tile_each_level(dim, n):
    lat = Lattice(dim, n)
    by_level = {}
    for cube in dyadic_cubes(lat):
        by_level.setdefault(cube.level, []).append(cube)
    assert sorted(by_level) == list(range(dyadic_level_max(n) + 1))
    for level, cubes in by_level.items():
        side = n // 2**level
        assert all(c.side == side for c in cubes)
        assert len(cubes) == 2 ** (level * dim)
        hit = np.zeros(lat.shape, dtype=int)
        for c in cubes:
            hit[c.slices()] += 1
        assert np.all(hit == 1)


def test_dyadic_cubes_match_brute():
    for dim, n in [(1, 8), (2, 4)]:
        lat = Lattice(dim, n)
        got = {(c.level, c.corner, c.side) for c in dyadic_cubes(lat)}
        assert got == set(dyadic_cubes_brute(n, dim))


def test_dyadic_radius_exponents():
    assert dyadic_radius_exponents(Lattice(1, 8)) == [0, 1, 2]
    assert dyadic_radius_exponents(Lattice(2, 12)) == [0, 1, 2]
    assert dyadic_radius_exponents(Lattice(1, 4)) == [0, 1]


# -- Lebesgue norms ----------------------------------------------------------


def test_lp_norm_hand_value():
    lat = Lattice(1, 4, 2.0)
    V = Potential.from_array(lat, np.array([1.0, -2.0, 0.0, 2.0]))
    assert abs(lp_norm(V, 1.0) - 2.5) < 1e-15
    assert abs(lp_norm(V, 2.0) - np.sqrt(4.5)) < 1e-15
    with pytest.raises(ValueError):
        lp_norm(V, 0.5)


def test_weighted_norm_alpha_zero_is_plain():
    V = _random_potential(2, 8, 11)
    assert abs(weighted_lq_norm(V, 2.0, 0.0) - lp_norm(V, 2.0)) < 1e-14


def test_weighted_norm_direct_sum():
    V = _random_potential(1, 8, 12, period=4.0)
    lat = V.lattice
    x = np.arange(8) * lat.spacing - 2.0
    w = (1.0 + x**2) ** 1.5
    expected = (np.sum(np.abs(V.values) ** 3 * w) * lat.cell_volume) ** (1.0 / 3.0)
    assert abs(weighted_lq_norm(V, 3.0, 1.5) - expected) < 1e-14
    with pytest.raises(ValueError):
        weighted_lq_norm(V, 0.9, 1.0)
    with pytest.raises(ValueError):
        weighted_lq_norm(V, 2.0, -0.5)


def test_polynomial_weight_floor_and_symmetry():
    w = polynomial_weight(Lattice(2, 8), 0.75)
    assert np.all(w >= 1.0)
    # centering puts the minimum at the cell midpoint index n/2
    assert w[4, 4] == 1.0


# -- Morrey-Campanato --------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 4), (1, 8), (2, 4), (2, 8)])
@pytest.mark.parametrize("alpha,p", [(0.5, 1.0), (0.8, 1.2)])
def test_mc_norm_matches_brute_exactly(dim, n, alpha, p):
    V = _random_potential(dim, n, seed=100 * dim + n)
    assert morrey_campanato_norm(V, alpha, p) == mc_norm_brute(V, alpha, p)


def test_mc_witness_reproduces_value():
    V = _random_potential(2, 8, 13)
    value, witness = morrey_campanato_norm(V, 0.7, 1.0, return_witness=True)
    again = mc_ball_value(V, 0.7, 1.0, tuple(witness["center"]), witness["radius_exponent"])
    assert again == value


def test_mc_validation():
    V = _random_potential(1, 4, 14)
    with pytest.raises(ValueError):
        morrey_campanato_norm(V, 0.5, 0.9)
    with pytest.raises(ValueError):
        morrey_campanato_norm(V, 0.0, 1.0)
    with pytest.raises(ValueError):
        morrey_campanato_norm(V, 1.5, 1.0)  # alpha > dim/p in 1d


# -- Kerman-Sayer ------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4), (2, 8)])
@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_ks_norm_matches_brute(dim, n, alpha):
    # The library kernel is table-built: one vectorized power per offset,
    # gathered into the pairs; the oracle raises each pair separately as a
    # scalar.  Those libm paths may differ in the last ulp, so the
    # comparison allows rounding noise but nothing more.
    V = _random_potential(dim, n, seed=200 * dim + n)
    assert kerman_sayer_norm(V, alpha) == pytest.approx(
        ks_norm_brute(V, alpha), rel=1e-13, abs=0.0
    )


def test_ks_two_cell_hand_value():
    # Mass at cells 0 and 2 (distance 2h = 2), h = 1.  Only the full cube
    # holds both cells, so the norm is 2ab 2^(alpha-1) / (a + b).
    lat = Lattice(1, 4, 4.0)
    vals = np.zeros(4)
    vals[0] = 3.0
    vals[2] = 1.0
    V = Potential.from_array(lat, vals)
    expected = 2.0 * 3.0 * 1.0 * 2.0 ** (0.5 - 1.0) / 4.0
    assert abs(kerman_sayer_norm(V, 0.5) - expected) < 1e-15


def test_ks_single_cell_is_zero():
    lat = Lattice(2, 4)
    vals = np.zeros((4, 4))
    vals[1, 2] = 5.0
    V = Potential.from_array(lat, vals)
    assert kerman_sayer_norm(V, 0.5) == 0.0


def test_ks_eps_mass_skips_light_cubes():
    V = _random_potential(1, 8, 15)
    huge = 10.0 * lp_norm(V, 1.0)
    assert kerman_sayer_norm(V, 0.5, eps_mass=huge) == 0.0


def test_ks_witness_reproduces_value():
    V = _random_potential(2, 8, 16)
    value, witness = kerman_sayer_norm(V, 0.8, return_witness=True)
    cube = DyadicCube(witness["level"], tuple(witness["corner"]), witness["side"])
    assert ks_cube_value(V, 0.8, cube) == value


def test_ks_validation():
    V = _random_potential(1, 4, 17)
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            kerman_sayer_norm(V, bad)


def test_ks_budget_model_bounds_traced_peak():
    V = _random_potential(2, 32, 22)
    need = _ks_bytes(V.lattice)
    tracemalloc.start()
    try:
        kerman_sayer_norm(V, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the model bounds the real peak and is not loose: it is what the guard checks
    assert 0.8 * need <= peak <= need
    with pytest.raises(BudgetExceeded, match=r"N = 1024 cells needs"):
        kerman_sayer_norm(V, 0.5, budget_bytes=need - 1)


# -- the Kerman-Sayer summation tree -----------------------------------------


def _walk(x):
    """(tree sum, elements skipped) of a 1d run, leaves summed by np.sum."""
    nonzero = np.concatenate(([0], np.cumsum(x != 0)))
    skipped = []

    def is_zero(a, n):
        if nonzero[a + n] == nonzero[a]:
            skipped.append(n)
            return True
        return False

    return _pairwise_sum(0, x.size, lambda a, n: np.sum(x[a:a + n]), is_zero), sum(skipped)


def _zero_runs(rng, n, longest):
    # values spread over 1e-9..1e9, alternating with zero runs of up to `longest`
    x = 10.0 ** rng.uniform(-9.0, 9.0, n)
    edges = np.cumsum(rng.integers(1, longest, size=n // longest * 2 + 2))
    for lo, hi in zip(edges[0::2], edges[1::2]):
        x[lo:hi] = 0.0
    return x


@pytest.mark.parametrize("n", [1, 100, 129, _KS_LEAF, _KS_LEAF + 1, _KS_LEAF + 13,
                               200_003, 1 << 20, 3_000_017])
def test_pairwise_walk_matches_np_sum(n):
    # numpy's own tree (pairwise_sum, split at n//2 - (n//2) % 8), walked in
    # Python with np.sum leaves and +0.0 for all-zero nodes, is one np.sum:
    # this fails if numpy ever changes how it splits a run
    rng = np.random.default_rng(n)
    x = _zero_runs(rng, n, 400_000)
    got, skipped = _walk(x)
    assert got == np.sum(x)
    if n >= 1 << 20:
        assert skipped > 0


def test_pairwise_walk_matches_np_sum_on_2d_slab():
    # one np.sum over a C-contiguous 2d slab is the walk over its flat run
    rng = np.random.default_rng(4)
    slab = _zero_runs(rng, 1536 * 1536, 300_000).reshape(1536, 1536)
    slab[100:700] = 0.0
    got, skipped = _walk(slab.reshape(-1))
    assert skipped > 0
    assert got == np.sum(slab)


def _ks_potentials(dim, n):
    lat = Lattice(dim, n)
    rng = np.random.default_rng(10 * dim + n)
    spike = np.zeros(lat.shape)
    spike[(n // 3,) * dim] = 2.5
    pair = np.zeros(lat.shape)
    pair[(1,) * dim] = 3.0
    pair[(n - 2,) + (n // 2,) * (dim - 1)] = 0.5
    return {
        "random": rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape),
        "gaussian": gaussian_bump(lat, -4.0, 0.1 * lat.period).values,
        "spike": spike,
        "pair": pair,
        "zero": np.zeros(lat.shape),
    }


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 1024), (2, 48), (2, 64), (3, 12), (3, 16)])
def test_ks_numerators_match_in_memory_oracle(dim, n):
    # every cube of every level, against the former route that holds each
    # slab; the grids take the leaf walk (straddling rows at n = 48 and 12)
    # and the chunked small cubes
    lat = Lattice(dim, n)
    for name, values in _ks_potentials(dim, n).items():
        absV = np.abs(values)
        tree = skipped = 0
        for level in range(dyadic_level_max(n) + 1):
            side = n >> level
            W = _level_blocks(absV, side)
            counts = {"products_formed": 0, "products_skipped_zero": 0}
            got = _ks_numerators(lat, side, 0.5, W, counts)
            assert np.array_equal(got, ks_numerators_in_memory(lat, side, 0.5, W)), (name, side)
            assert sum(counts.values()) == W.size * side**dim
            tree += side ** (2 * dim) > _KS_LEAF
            skipped += counts["products_skipped_zero"]
        # compact supports skip whole subtrees; a full support skips nothing
        assert (skipped > 0) == (tree > 0 and name != "random"), name


def test_ks_rows_longer_than_a_leaf_skip_zero_columns():
    # 1d n = 2^17: each row of the whole cell splits into two single-row
    # leaves, and only the half holding both cells is formed; the slab
    # (1.7e10 products) has two nonzero entries, whose sum is exact
    n = 1 << 17
    lat = Lattice(1, n)
    a, b = 5, 60_000
    w = np.zeros((1, n))
    w[0, a], w[0, b] = 3.0, 0.25
    counts = {"products_formed": 0, "products_skipped_zero": 0}
    (got,) = _ks_numerators(lat, n, 0.5, w, counts)
    kern = _ks_windows(lat, n, 0.5)
    p = (kern[a, b] * (w[0, a] * w[0, b])) * lat.spacing**2
    assert got == 2.0 * p > 0.0
    assert counts == {"products_formed": 2 * n // 2, "products_skipped_zero": n * n - n}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_ks_nonfinite_weight_computes_every_product():
    # inf * 0 is NaN, so a zero row or column is no longer an exact zero
    lat = Lattice(1, 1024)
    w = np.zeros((1, 1024))
    w[0, 7] = np.inf
    counts = {"products_formed": 0, "products_skipped_zero": 0}
    got = _ks_numerators(lat, 1024, 0.5, w, counts)
    assert np.array_equal(got, ks_numerators_in_memory(lat, 1024, 0.5, w), equal_nan=True)
    assert counts == {"products_formed": 1024 * 1024, "products_skipped_zero": 0}


def test_ks_norm_reports_product_counts():
    lat = Lattice(2, 64)
    V = gaussian_bump(lat, -4.0, 0.4)
    counts = {}
    value = kerman_sayer_norm(V, 0.5, counts=counts)
    assert value == kerman_sayer_norm(V, 0.5)
    assert counts["products_skipped_zero"] > counts["products_formed"] > 0
    r = norm_result("kerman_sayer", V, alpha=0.5)
    assert r.scan == counts
    assert "scan" not in r.to_dict()


# -- scans against their loop oracles ----------------------------------------


def _centred_gaussian(dim, n):
    # Centred between grid points with exactly representable offsets, so
    # mirror-image balls and cubes hold the same values: the MC and A_p
    # maxima are reached by several candidates exactly.
    lat = Lattice(dim, n)
    r2 = np.sum((np.indices(lat.shape) - (n - 1) / 2) ** 2, axis=0)
    return Potential.from_array(lat, -3.0 * np.exp(-0.2 * r2))


def _square_well(dim, n, half_width, depth=-4.0):
    # At depth -4, |V|^p is an integer for p = 1 and 1.5, so equal balls tie
    # exactly; at other depths their sums round differently by position.
    lat = Lattice(dim, n)
    vals = np.zeros(lat.shape)
    vals[(slice(n // 2 - half_width, n // 2 + half_width),) * dim] = depth
    return Potential.from_array(lat, vals)


SCAN_FIXTURES = {
    "gaussian-2d-16": lambda: _centred_gaussian(2, 16),
    "gaussian-3d-8": lambda: _centred_gaussian(3, 8),
    "well-2d-16": lambda: _square_well(2, 16, 4),
    "well-2d-16-inexact": lambda: _square_well(2, 16, 4, depth=-3.7),
    "well-2d-16-narrow": lambda: _square_well(2, 16, 1),
    "zero-2d-8": lambda: Potential.from_array(Lattice(2, 8), np.zeros((8, 8))),
    "random-2d-32": lambda: _random_potential(2, 32, 23),
}


@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_mc_scan_matches_loop_oracle(name):
    # alpha = dim/p gives every ball that holds all of a compact V the same
    # exact value; a narrow well has such balls at several radii
    V = SCAN_FIXTURES[name]()
    d = V.lattice.dim
    for alpha, p in [(1.0, 1.5), (0.5, 1.0), (d / 1.5, 1.5), (d, 1.0)]:
        assert morrey_campanato_norm(V, alpha, p, return_witness=True) == mc_norm_loop(V, alpha, p)


def test_mc_scan_matches_loop_oracle_on_small_well():
    # at alpha = dim/p every ball holding the 2x2 well ties exactly, so
    # about 4000 of the 24576 candidates are re-evaluated from their boxes
    V = _square_well(2, 64, 1, depth=-5.0)
    assert morrey_campanato_norm(V, 1.0, 2.0, return_witness=True) == mc_norm_loop(V, 1.0, 2.0)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 4)])
def test_mc_ball_value_matches_whole_grid_mask(dim, n):
    # balls clipped by the grid's edges at every centre and radius
    V = _random_potential(dim, n, 5)
    W = (np.abs(V.values) ** 1.5).reshape(-1)
    idx = np.indices(V.lattice.shape).reshape(dim, -1).T
    h = V.lattice.spacing
    for c in np.ndindex(V.lattice.shape):
        m = np.sum((idx - c) ** 2, axis=1)
        for j in dyadic_radius_exponents(V.lattice):
            r = h * float(2**j)
            want = r**0.7 * (np.sum(W[m <= 4**j]) * h**dim / r**dim) ** (1.0 / 1.5)
            assert mc_ball_value(V, 0.7, 1.5, c, j) == want


@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_ks_scan_matches_dense_oracle(name):
    V = SCAN_FIXTURES[name]()
    for alpha in (0.5, 1.0):
        assert kerman_sayer_norm(V, alpha, return_witness=True) == ks_norm_dense(V, alpha)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_symmetric_gaussian_mc_maximum_is_tied(dim, n):
    # the fixture really exercises the witness tie-break
    V = _centred_gaussian(dim, n)
    value, witness = mc_norm_loop(V, 1.0, 1.5)
    tied = [
        (list(c), j)
        for c in np.ndindex(V.lattice.shape)
        for j in dyadic_radius_exponents(V.lattice)
        if mc_ball_value(V, 1.0, 1.5, c, j) == value
    ]
    assert len(tied) > 1
    assert tied[0] == (witness["center"], witness["radius_exponent"])


# -- full-size benchmark entries ---------------------------------------------

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "norm_scan.json"


@pytest.mark.filterwarnings("ignore:weight vanishes")
@pytest.mark.parametrize("key", ["norms-gaussian-2d-0", "norms-well-3d-0"])
def test_full_size_pool_entry_bitwise(key):
    # 2d n=64 and 3d n=16: the sizes where the MC screen and the KS table
    # do real work, against the values and witnesses recorded for them
    entry = json.loads(POOL.read_text())["sizes"]["full"]["entries"][key]
    cfg = entry["config"]
    V = potential_from_config(cfg, lattice_from_config(cfg))
    got = []
    for req in cfg["norms"]:
        kwargs = {k: float(v) for k, v in req.items() if k != "name"}
        got.append(norm_result(req["name"], V, **kwargs).to_dict())
    assert got == entry["expected"]["norms"]


# -- Muckenhoupt -------------------------------------------------------------


def test_ap_constant_weight_is_one():
    # Dyadic constants have exact reciprocals, so the product is exactly 1;
    # other constants are off by at most the rounding of 1/w.
    w = ScalarField(Lattice(2, 8), np.full((8, 8), 2.0, dtype=complex))
    assert muckenhoupt_constant(w, 2.0) == 1.0
    w = ScalarField(Lattice(2, 8), np.full((8, 8), 3.7, dtype=complex))
    assert abs(muckenhoupt_constant(w, 2.0) - 1.0) < 1e-15


def test_ap_step_weight_exact_value():
    w = ScalarField(Lattice(1, 4), np.array([1.0, 1.0, 4.0, 4.0], dtype=complex))
    assert muckenhoupt_constant(w, 2.0) == 25.0 / 16.0


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_matches_brute_exactly(dim, n, p):
    rng = np.random.default_rng(18)
    lat = Lattice(dim, n)
    vals = rng.uniform(0.1, 5.0, size=lat.shape)
    w = ScalarField(lat, vals.astype(complex))
    assert muckenhoupt_constant(w, p) == ap_constant_brute(vals, n, dim, p)


def test_ap_zero_cells_warn_and_floor():
    vals = np.array([1.0, 0.0, 2.0, 1.0], dtype=complex)
    w = ScalarField(Lattice(1, 4), vals)
    with pytest.warns(UserWarning, match="floor"):
        c = muckenhoupt_constant(w, 2.0)
    assert np.isfinite(c)
    assert c > 1.0


def test_ap_weight_validation():
    lat = Lattice(1, 4)
    with pytest.raises(ValueError, match="real"):
        muckenhoupt_constant(ScalarField(lat, np.array([1, 1j, 1, 1], dtype=complex)), 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        muckenhoupt_constant(ScalarField(lat, np.array([1.0, -1.0, 1.0, 1.0], dtype=complex)), 2.0)
    with pytest.raises(ValueError, match="p must be"):
        muckenhoupt_constant(ScalarField(lat, np.ones(4, dtype=complex)), 1.0)


def test_ap_witness_reproduces_value():
    rng = np.random.default_rng(19)
    lat = Lattice(2, 8)
    w = ScalarField(lat, rng.uniform(0.2, 4.0, size=(8, 8)).astype(complex))
    value, witness = muckenhoupt_constant(w, 2.0, return_witness=True)
    cube = DyadicCube(witness["level"], tuple(witness["corner"]), witness["side"])
    assert ap_cube_value(w, 2.0, cube) == value


def test_ap_witness_symmetric_weight_tie():
    # mirror-symmetric weight: the whole cell and its four quadrants tie, and
    # the witness is the first of them in coarse-to-fine, row-major order
    lat = Lattice(2, 8)
    r2 = np.sum((np.indices((8, 8)) - 3.5) ** 2, axis=0)
    w = ScalarField(lat, (1.0 + r2).astype(complex))
    value, witness = muckenhoupt_constant(w, 2.0, return_witness=True)
    cands = [(ap_cube_value(w, 2.0, cube), cube) for cube in dyadic_cubes(lat)]
    tied = [cube for v, cube in cands if v == value]
    assert value == max(v for v, _ in cands)
    assert len(tied) > 1
    assert witness == tied[0].to_dict()


# -- dispatcher --------------------------------------------------------------


def test_norm_result_dispatch():
    V = _random_potential(2, 8, 20)
    r = norm_result("lp", V, p=2.0)
    assert r.norm_name == "lp"
    assert r.value == lp_norm(V, 2.0)
    assert "argmax_index" in r.witness

    r = norm_result("weighted_lq", V, q=2.0, alpha=1.0)
    assert r.value == weighted_lq_norm(V, 2.0, 1.0)

    r = norm_result("morrey_campanato", V, alpha=0.5, p=1.0)
    assert r.value == morrey_campanato_norm(V, 0.5, 1.0)
    assert set(r.witness) == {"center", "radius_exponent"}

    r = norm_result("kerman_sayer", V, alpha=0.5)
    assert r.value == kerman_sayer_norm(V, 0.5)

    r = norm_result("muckenhoupt", V, p=2.0)
    w = ScalarField(V.lattice, np.abs(V.values))
    assert r.value == muckenhoupt_constant(w, 2.0)

    d = r.to_dict()
    assert d["norm_name"] == "muckenhoupt"
    assert d["value"] == r.value

    with pytest.raises(ValueError, match="unknown norm"):
        norm_result("sobolev", V, s=1.0)


# -- scaling properties ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0), seed=st.integers(0, 50))
def test_norm_homogeneity(c, seed):
    V = _random_potential(1, 8, seed)
    W = Potential.from_array(V.lattice, c * V.values)
    assert abs(lp_norm(W, 2.0) - c * lp_norm(V, 2.0)) < 1e-10 * max(1.0, c)
    mc_v = morrey_campanato_norm(V, 0.5, 1.0)
    mc_w = morrey_campanato_norm(W, 0.5, 1.0)
    assert abs(mc_w - c * mc_v) < 1e-10 * max(1.0, c)
    ks_v = kerman_sayer_norm(V, 0.5)
    ks_w = kerman_sayer_norm(W, 0.5)
    assert abs(ks_w - c * ks_v) < 1e-10 * max(1.0, c)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0), seed=st.integers(0, 50))
def test_ap_scale_invariance(c, seed):
    rng = np.random.default_rng(seed)
    lat = Lattice(1, 8)
    vals = rng.uniform(0.1, 3.0, size=8)
    a = muckenhoupt_constant(ScalarField(lat, vals.astype(complex)), 2.0)
    b = muckenhoupt_constant(ScalarField(lat, (c * vals).astype(complex)), 2.0)
    assert abs(a - b) < 1e-10 * a
