import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ap_candidates_brute,
    ap_constant_brute,
    ks_norm_brute,
    ks_norm_dense,
    ks_numerators_in_memory,
    mc_norm_brute,
    mc_norm_loop,
)
from lamespectra import trace
from lamespectra.config import lattice_from_config, potential_from_config
from lamespectra.lame import Potential
from lamespectra import norms
from lamespectra.lattice import DEFAULT_BUDGET_BYTES, BudgetExceeded, Lattice, ScalarField
from lamespectra.potentials import gaussian_bump
from lamespectra.serialize import plain
from lamespectra.norms import (
    _KS_LEAF,
    _KS_SPAN,
    _ks_bytes,
    _ks_numerators,
    _ks_windows,
    _level_blocks,
    _mc_ball,
    _mc_bytes,
    _mc_rows,
    _offset_norms,
    _PAIRWISE_BLOCK,
    _pairwise_census,
    _pairwise_combine,
    _pairwise_parts,
    check_norm,
    dyadic_level_max,
    dyadic_radius_exponents,
    kerman_sayer_norm,
    lp_norm,
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
    return Potential(lat, vals)


def _found(r):
    """(value, witness) of a scan's result, the pair the oracles return."""
    return r.value, r.witness


# -- dyadic machinery --------------------------------------------------------


def test_dyadic_level_max():
    assert dyadic_level_max(8) == 3
    assert dyadic_level_max(12) == 2
    assert dyadic_level_max(6) == 1
    assert dyadic_level_max(4) == 2


def test_dyadic_radius_exponents():
    assert dyadic_radius_exponents(Lattice(1, 8)) == [0, 1, 2]
    assert dyadic_radius_exponents(Lattice(2, 12)) == [0, 1, 2]
    assert dyadic_radius_exponents(Lattice(1, 4)) == [0, 1]


# -- Lebesgue norms ----------------------------------------------------------


def test_lp_norm_hand_value():
    lat = Lattice(1, 4, 2.0)
    V = Potential(lat, np.array([1.0, -2.0, 0.0, 2.0]))
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
    assert morrey_campanato_norm(V, alpha, p).value == mc_norm_brute(V, alpha, p)


def test_mc_witness_reproduces_value():
    V = _random_potential(2, 8, 13)
    assert _found(morrey_campanato_norm(V, 0.7, 1.0)) == mc_norm_loop(V, 0.7, 1.0)


def test_mc_validation():
    V = _random_potential(1, 4, 14)
    with pytest.raises(ValueError):
        morrey_campanato_norm(V, 0.5, 0.9)
    with pytest.raises(ValueError):
        morrey_campanato_norm(V, 0.0, 1.0)
    with pytest.raises(ValueError):
        morrey_campanato_norm(V, 1.5, 1.0)  # alpha > dim/p in 1d


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_mc_rows_tile_the_ball(dim, r):
    # the rows o x [-w, w] hold every integer point of the ball exactly once
    o, w = _mc_rows(r, dim)
    assert o.shape == (len(w), dim - 1)
    points = [tuple(a) + (b,) for a, half in zip(o.tolist(), w.tolist())
              for b in range(-half, half + 1)]
    ball = [q for q in np.ndindex((2 * r + 1,) * dim)
            if sum((c - r) ** 2 for c in q) <= r * r]
    assert sorted(points) == sorted(tuple(c - r for c in q) for q in ball)


def test_mc_budget_model_bounds_traced_peak():
    V = _random_potential(2, 64, 24)
    need = _mc_bytes(V.lattice)
    tracemalloc.start()
    try:
        morrey_campanato_norm(V, 0.5, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the model bounds the real peak and is not loose: it is what the guard checks
    assert 0.8 * need <= peak <= need
    with pytest.raises(BudgetExceeded, match=r"Morrey-Campanato scan over N = 4096 cells needs"):
        morrey_campanato_norm(V, 0.5, 1.5, budget_bytes=need - 1)


def test_mc_scan_reports_screen_counts():
    # 2d n=64: R = 32, so 64 adds grow the row-window sums and the six
    # radii add 3 + 5 + 9 + 17 + 33 + 65 rows; one shifted add per offset of
    # the largest ball would take 3209
    V = gaussian_bump(Lattice(2, 64), -4.0, 0.4)
    with trace.record() as stages:
        r = morrey_campanato_norm(V, 1.0, 1.5)
    assert r == morrey_campanato_norm(V, 1.0, 1.5)  # the same bits outside a record
    (screen,) = stages
    assert screen["stage"] == "norm.morrey_campanato"
    assert screen["slab_adds"] == 64 + 132
    assert screen["candidates_reevaluated"] >= 1
    assert norm_result("morrey_campanato", V, alpha=1.0, p=1.5) == r
    with pytest.raises(BudgetExceeded):
        norm_result("morrey_campanato", V, budget_bytes=1000, alpha=1.0, p=1.5)


@pytest.mark.parametrize("name, dim, params, match", [
    ("lp", 2, {"p": 0.5}, "p must be >= 1"),
    ("weighted_lq", 2, {"q": 0.5, "alpha": 1.0}, "q must be >= 1"),
    ("weighted_lq", 2, {"q": 2.0, "alpha": -1.0}, "alpha must be >= 0"),
    ("morrey_campanato", 2, {"alpha": 1.0, "p": 0.9}, "p must be >= 1"),
    ("morrey_campanato", 2, {"alpha": 1.5, "p": 1.5}, r"alpha must lie in \(0, dim/p\]"),
    ("morrey_campanato", 1, {"alpha": 0.0, "p": 1.0}, r"alpha must lie in \(0, dim/p\]"),
    ("kerman_sayer", 3, {"alpha": 3.0}, r"alpha must lie in \(0, dim\) = \(0, 3\)"),
    ("kerman_sayer", 1, {"alpha": 0.0, "eps_mass": 0.1}, r"alpha must lie in \(0, dim\)"),
    ("muckenhoupt", 2, {"p": 1.0}, "p must be > 1"),
    ("muckenhoupt", 2, {"p": 2.0, "eps_w": 0.0}, "eps_w must be > 0"),
    ("lp", 2, {}, "needs the parameter 'p'"),
    ("lp", 2, {"p": 2.0, "q": 1.0}, "takes no parameter 'q'"),
    ("coulomb", 2, {}, "unknown norm"),
    ("kerman_sayer", 2, {"alpha": 1.0, "eps_mass": -1.0}, "eps_mass must be finite and >= 0"),
    ("kerman_sayer", 2, {"alpha": 1.0, "eps_mass": np.nan}, "eps_mass must be finite and >= 0"),
])
def test_check_norm_rejects_outside_the_window(name, dim, params, match):
    with pytest.raises(ValueError, match=match):
        check_norm(name, dim, params)


def test_check_norm_fills_defaults_and_matches_the_scans():
    assert check_norm("kerman_sayer", 3, {"alpha": 2.9}) == {"alpha": 2.9, "eps_mass": 0.0}
    assert check_norm("morrey_campanato", 2, {"alpha": 2.0, "p": 1.0}) == {"alpha": 2.0, "p": 1.0}
    # each scan refuses what check_norm refuses, with the same message
    V = _random_potential(2, 4, 15)
    with pytest.raises(ValueError, match=r"\(0, 2\), got 2.0"):
        kerman_sayer_norm(V, 2.0)
    with pytest.raises(ValueError, match=r"\(0, 2\), got 2.0"):
        check_norm("kerman_sayer", 2, {"alpha": 2.0})
    for eps_mass in (-1.0, np.nan):
        with pytest.raises(ValueError, match="eps_mass must be finite and >= 0"):
            kerman_sayer_norm(V, 1.0, eps_mass=eps_mass)
    # and each scan's result carries the parameters check_norm fills in
    assert kerman_sayer_norm(V, 1.0).params == check_norm("kerman_sayer", 2, {"alpha": 1.0})
    mc = check_norm("morrey_campanato", 2, {"alpha": 0.5, "p": 1.0})
    assert morrey_campanato_norm(V, 0.5, 1.0).params == mc
    w = ScalarField(V.lattice, np.abs(V.values))
    assert muckenhoupt_constant(w, 2.0).params == check_norm("muckenhoupt", 2, {"p": 2.0})


# -- Kerman-Sayer ------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4), (2, 8)])
@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_ks_norm_matches_brute(dim, n, alpha):
    # The library kernel is table-built: one vectorized power per offset,
    # gathered into the pairs; the oracle raises each pair separately as a
    # scalar.  Those libm paths may differ in the last ulp, so the
    # comparison allows rounding noise but nothing more.
    V = _random_potential(dim, n, seed=200 * dim + n)
    assert kerman_sayer_norm(V, alpha).value == pytest.approx(
        ks_norm_brute(V, alpha), rel=1e-13, abs=0.0
    )


def test_ks_two_cell_hand_value():
    # Mass at cells 0 and 2 (distance 2h = 2), h = 1.  Only the full cube
    # holds both cells, so the norm is 2ab 2^(alpha-1) / (a + b).
    lat = Lattice(1, 4, 4.0)
    vals = np.zeros(4)
    vals[0] = 3.0
    vals[2] = 1.0
    V = Potential(lat, vals)
    expected = 2.0 * 3.0 * 1.0 * 2.0 ** (0.5 - 1.0) / 4.0
    assert abs(kerman_sayer_norm(V, 0.5).value - expected) < 1e-15


def test_ks_single_cell_is_zero():
    lat = Lattice(2, 4)
    vals = np.zeros((4, 4))
    vals[1, 2] = 5.0
    V = Potential(lat, vals)
    assert kerman_sayer_norm(V, 0.5).value == 0.0


def test_ks_eps_mass_skips_light_cubes():
    V = _random_potential(1, 8, 15)
    huge = 10.0 * lp_norm(V, 1.0)
    assert kerman_sayer_norm(V, 0.5, eps_mass=huge).value == 0.0


def test_ks_witness_reproduces_value():
    V = _random_potential(2, 8, 16)
    assert _found(kerman_sayer_norm(V, 0.8)) == ks_norm_dense(V, 0.8)
    # a cluster in the third level-1 cube wins, after a zero-mass cube is skipped
    vals = np.zeros((8, 8))
    vals[4:6, 2:4] = 5.0
    vals[0, 7] = 3.0
    V = Potential(Lattice(2, 8), vals)
    value, witness = _found(kerman_sayer_norm(V, 0.8))
    assert witness == {"level": 1, "corner": [4, 0], "side": 4}
    assert (value, witness) == ks_norm_dense(V, 0.8)


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


def test_ks_budget_model_is_arithmetic():
    # the guard counts the summation trees and allocates none: a grid far
    # over the default budget is refused from a small peak, and the model
    # grows with N as the scan's own memory does
    tracemalloc.start()
    try:
        need = _ks_bytes(Lattice(3, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need > DEFAULT_BUDGET_BYTES
    assert peak < 64 * 1024
    for dim, n in [(1, 1 << 20), (2, 1024), (3, 128)]:
        lat = Lattice(dim, n)
        assert _ks_bytes(lat) < min(DEFAULT_BUDGET_BYTES, 256 * lat.npoints)


# -- the Kerman-Sayer summation tree -----------------------------------------


def _walk(x):
    """(tree sum, elements skipped) of a 1d run, blocks summed by np.sum."""
    starts, sizes, steps = _pairwise_parts(x.size, _PAIRWISE_BLOCK)
    assert sizes.max() <= _PAIRWISE_BLOCK
    sums = np.zeros((1, starts.size))
    skipped = 0
    for i, (a, n) in enumerate(zip(starts.tolist(), sizes.tolist())):
        if np.any(x[a:a + n]):
            sums[0, i] = np.sum(x[a:a + n])
        else:
            skipped += n
    (total,) = _pairwise_combine(sums, steps)
    return total, skipped


def _zero_runs(rng, n, longest):
    # values of one magnitude, so that every add rounds and a sum in another
    # order differs; alternating with zero runs of up to `longest`
    x = rng.uniform(1.0, 2.0, n)
    edges = np.cumsum(rng.integers(1, longest, size=n // longest * 2 + 2))
    for lo, hi in zip(edges[0::2], edges[1::2]):
        x[lo:hi] = 0.0
    return x


@pytest.mark.parametrize("n", [1, 100, 129, _KS_LEAF, _KS_LEAF + 1, _KS_LEAF + 13,
                               200_003, 1 << 20, 3_000_017])
def test_pairwise_walk_matches_np_sum(n):
    # numpy's own tree (pairwise_sum: split at n//2 - (n//2) % 8 down to
    # blocks of at most 128), walked in Python with np.sum blocks and +0.0
    # for all-zero blocks, is one np.sum: this fails if numpy ever changes
    # how it splits a run or sums blocks longer than 128 (a shorter block
    # would split each of ours the way np.sum of it does)
    rng = np.random.default_rng(n)
    x = _zero_runs(rng, n, 2000)
    got, skipped = _walk(x)
    assert got == np.sum(x)
    if n > 200_000:
        assert skipped > 0


@pytest.mark.parametrize("n,limit", [(1, 128), (129, 128), (200_003, 128), (65_536, 128),
                                     (1 << 20, _KS_LEAF), (5_308_416, _KS_LEAF),
                                     (3_000_017, _KS_LEAF)])
def test_pairwise_census_counts_the_parts(n, limit):
    sizes, counts = np.unique(_pairwise_parts(n, limit)[1], return_counts=True)
    assert _pairwise_census(n, limit) == dict(zip(sizes.tolist(), counts.tolist()))


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
    # slab; the grids take the block walk (blocks straddle rows at n = 48 and 12)
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


@pytest.mark.parametrize("dim,n", [(1, 1024), (2, 48), (2, 64), (3, 12)])
def test_ks_numerators_split_into_spans_match_oracle(dim, n, monkeypatch):
    # slabs larger than a span are walked down to subtrees of at most
    # _KS_SPAN products; a small span takes that walk on these grids, with
    # subtrees that start inside rows at n = 48 and 12
    monkeypatch.setattr(norms, "_KS_SPAN", 1 << 18)
    lat = Lattice(dim, n)
    for name, values in _ks_potentials(dim, n).items():
        absV = np.abs(values)
        for level in range(2):
            side = n >> level
            W = _level_blocks(absV, side)
            counts = {"products_formed": 0, "products_skipped_zero": 0}
            got = _ks_numerators(lat, side, 0.5, W, counts)
            assert np.array_equal(got, ks_numerators_in_memory(lat, side, 0.5, W)), (name, side)
            assert sum(counts.values()) == W.size * side**dim


def test_ks_rows_longer_than_a_leaf_skip_zero_columns():
    # 1d n = 2^17: each row of the whole cell splits into two single-row
    # leaves, and only the 128-product blocks of the rows a and b that hold
    # column a or b are formed; the slab (1.7e10 products) has two nonzero
    # entries, whose sum is exact
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
    formed = 4 * _PAIRWISE_BLOCK
    assert counts == {"products_formed": formed, "products_skipped_zero": n * n - formed}


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
    with trace.record() as stages:
        r = kerman_sayer_norm(V, 0.5)
    assert r == kerman_sayer_norm(V, 0.5)  # the same bits outside a record
    (products,) = stages
    assert products["stage"] == "norm.kerman_sayer"
    assert products["products_skipped_zero"] > products["products_formed"] > 0
    assert norm_result("kerman_sayer", V, alpha=0.5) == r


# -- scans against their loop oracles ----------------------------------------


def _centred_gaussian(dim, n):
    # Centred between grid points with exactly representable offsets, so
    # mirror-image balls and cubes hold the same values: the MC and A_p
    # maxima are reached by several candidates exactly.
    lat = Lattice(dim, n)
    r2 = np.sum((np.indices(lat.shape) - (n - 1) / 2) ** 2, axis=0)
    return Potential(lat, -3.0 * np.exp(-0.2 * r2))


def _square_well(dim, n, half_width, depth=-4.0):
    # At depth -4, |V|^p is an integer for p = 1 and 1.5, so equal balls tie
    # exactly; at other depths their sums round differently by position.
    lat = Lattice(dim, n)
    vals = np.zeros(lat.shape)
    vals[(slice(n // 2 - half_width, n // 2 + half_width),) * dim] = depth
    return Potential(lat, vals)


SCAN_FIXTURES = {
    "gaussian-2d-16": lambda: _centred_gaussian(2, 16),
    "gaussian-3d-8": lambda: _centred_gaussian(3, 8),
    "well-2d-16": lambda: _square_well(2, 16, 4),
    "well-2d-16-inexact": lambda: _square_well(2, 16, 4, depth=-3.7),
    "well-2d-16-narrow": lambda: _square_well(2, 16, 1),
    "zero-2d-8": lambda: Potential(Lattice(2, 8), np.zeros((8, 8))),
    "random-2d-32": lambda: _random_potential(2, 32, 23),
}


@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_mc_scan_matches_loop_oracle(name):
    # alpha = dim/p gives every ball that holds all of a compact V the same
    # exact value; a narrow well has such balls at several radii
    V = SCAN_FIXTURES[name]()
    d = V.lattice.dim
    for alpha, p in [(1.0, 1.5), (0.5, 1.0), (d / 1.5, 1.5), (d, 1.0)]:
        assert _found(morrey_campanato_norm(V, alpha, p)) == mc_norm_loop(V, alpha, p)


def test_mc_scan_matches_loop_oracle_on_small_well():
    # at alpha = dim/p every ball holding the 2x2 well ties exactly, so
    # about 4000 of the 24576 candidates are re-evaluated from their boxes
    V = _square_well(2, 64, 1, depth=-5.0)
    assert _found(morrey_campanato_norm(V, 1.0, 2.0)) == mc_norm_loop(V, 1.0, 2.0)


def _mirror_wells(dim, n):
    # two wells, mirror images of each other in the cell's centre plane
    # along the last axis, so ball sums repeat at mirrored centres
    lat = Lattice(dim, n)
    vals = np.zeros(lat.shape)
    lo, hi = n // 4 - 1, n // 4 + 1
    inner = (slice(n // 2 - 1, n // 2 + 1),) * (dim - 1)
    vals[inner + (slice(lo, hi),)] = -4.0
    vals[inner + (slice(n - hi, n - lo),)] = -4.0
    return Potential(lat, vals)


DEGENERATE = {
    "constant": lambda dim, n: Potential(Lattice(dim, n), np.full((n,) * dim, -2.5)),
    "mirror-wells": _mirror_wells,
    "centred-gaussian": _centred_gaussian,
}


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 8), (2, 16), (3, 4), (3, 8)])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_mc_screen_on_degenerate_potentials(name, dim, n):
    # symmetric and tied potentials: many balls reach the maximum exactly,
    # and the witness is the first of them, center-major then radius
    V = DEGENERATE[name](dim, n)
    for p in (1.0, 1.5, 2.0):
        for alpha in (dim / p, dim / (2 * p)):
            got = _found(morrey_campanato_norm(V, alpha, p))
            assert got == mc_norm_loop(V, alpha, p), (p, alpha)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 4)])
def test_mc_ball_value_matches_whole_grid_mask(dim, n):
    # balls clipped by the grid's edges at every centre and radius
    V = _random_potential(dim, n, 5)
    W = (np.abs(V.values) ** 1.5).reshape(-1)
    idx = np.indices(V.lattice.shape).reshape(dim, -1).T
    h = V.lattice.spacing
    m_box = _offset_norms(dim, n // 2)
    for c in np.ndindex(V.lattice.shape):
        m = np.sum((idx - c) ** 2, axis=1)
        for j in dyadic_radius_exponents(V.lattice):
            r = h * float(2**j)
            want = r**0.7 * (np.sum(W[m <= 4**j]) * h**dim / r**dim) ** (1.0 / 1.5)
            assert _mc_ball(V.lattice, W.reshape(V.lattice.shape), m_box, 0.7, 1.5, c, j) == want


@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_ks_scan_matches_dense_oracle(name):
    V = SCAN_FIXTURES[name]()
    for alpha in (0.5, 1.0):
        assert _found(kerman_sayer_norm(V, alpha)) == ks_norm_dense(V, alpha)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_symmetric_gaussian_mc_maximum_is_tied(dim, n):
    # the fixture really exercises the witness tie-break
    V = _centred_gaussian(dim, n)
    value, witness = mc_norm_loop(V, 1.0, 1.5)
    W = np.abs(V.values) ** 1.5
    m = _offset_norms(dim, n // 2)
    tied = [
        (list(c), j)
        for c in np.ndindex(V.lattice.shape)
        for j in dyadic_radius_exponents(V.lattice)
        if _mc_ball(V.lattice, W, m, 1.0, 1.5, c, j) == value
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
        got.append(plain(norm_result(req["name"], V, **kwargs)))
    assert got == entry["expected"]["norms"]


# -- Muckenhoupt -------------------------------------------------------------


def test_ap_constant_weight_is_one():
    # Dyadic constants have exact reciprocals, so the product is exactly 1;
    # other constants are off by at most the rounding of 1/w.
    w = ScalarField(Lattice(2, 8), np.full((8, 8), 2.0, dtype=complex))
    assert muckenhoupt_constant(w, 2.0).value == 1.0
    w = ScalarField(Lattice(2, 8), np.full((8, 8), 3.7, dtype=complex))
    assert abs(muckenhoupt_constant(w, 2.0).value - 1.0) < 1e-15


def test_ap_step_weight_exact_value():
    w = ScalarField(Lattice(1, 4), np.array([1.0, 1.0, 4.0, 4.0], dtype=complex))
    assert muckenhoupt_constant(w, 2.0).value == 25.0 / 16.0


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_matches_brute_exactly(dim, n, p):
    rng = np.random.default_rng(18)
    lat = Lattice(dim, n)
    vals = rng.uniform(0.1, 5.0, size=lat.shape)
    w = ScalarField(lat, vals.astype(complex))
    assert muckenhoupt_constant(w, p).value == ap_constant_brute(vals, n, dim, p)


def test_ap_zero_cells_warn_and_floor():
    vals = np.array([1.0, 0.0, 2.0, 1.0], dtype=complex)
    w = ScalarField(Lattice(1, 4), vals)
    with pytest.warns(UserWarning, match="floor"):
        c = muckenhoupt_constant(w, 2.0).value
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
    vals = rng.uniform(0.2, 4.0, size=(8, 8))
    w = ScalarField(lat, vals.astype(complex))
    got = _found(muckenhoupt_constant(w, 2.0))
    # the first cube reaching the maximum, coarse to fine
    cands = ap_candidates_brute(vals, 8, 2, 2.0)
    assert got == next(c for c in cands if c[0] == max(v for v, _ in cands))


def test_ap_witness_symmetric_weight_tie():
    # mirror-symmetric weight: the whole cell and its four quadrants tie, and
    # the witness is the first of them in coarse-to-fine, row-major order
    lat = Lattice(2, 8)
    r2 = np.sum((np.indices((8, 8)) - 3.5) ** 2, axis=0)
    w = ScalarField(lat, (1.0 + r2).astype(complex))
    value, witness = _found(muckenhoupt_constant(w, 2.0))
    cands = ap_candidates_brute(1.0 + r2, 8, 2, 2.0)
    tied = [cube for v, cube in cands if v == value]
    assert value == max(v for v, _ in cands)
    assert len(tied) > 1
    assert witness == tied[0]


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
    assert r == morrey_campanato_norm(V, 0.5, 1.0)
    assert set(r.witness) == {"center", "radius_exponent"}

    r = norm_result("kerman_sayer", V, alpha=0.5)
    assert r == kerman_sayer_norm(V, 0.5)

    r = norm_result("muckenhoupt", V, p=2.0)
    w = ScalarField(V.lattice, np.abs(V.values))
    assert r == muckenhoupt_constant(w, 2.0)

    d = plain(r)
    assert d["norm_name"] == "muckenhoupt"
    assert d["value"] == r.value

    with pytest.raises(ValueError, match="unknown norm"):
        norm_result("sobolev", V, s=1.0)
    with pytest.raises(ValueError, match="needs the parameter 'p'"):
        norm_result("lp", V)
    with pytest.raises(ValueError, match="takes no parameter 'q'"):
        norm_result("lp", V, p=2.0, q=3.0)
    with pytest.raises(ValueError, match="needs the parameter 'alpha'"):
        norm_result("kerman_sayer", V, eps_mass=0.0)


# -- scaling properties ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0), seed=st.integers(0, 50))
def test_norm_homogeneity(c, seed):
    V = _random_potential(1, 8, seed)
    W = Potential(V.lattice, c * V.values)
    assert abs(lp_norm(W, 2.0) - c * lp_norm(V, 2.0)) < 1e-10 * max(1.0, c)
    mc_v = morrey_campanato_norm(V, 0.5, 1.0).value
    mc_w = morrey_campanato_norm(W, 0.5, 1.0).value
    assert abs(mc_w - c * mc_v) < 1e-10 * max(1.0, c)
    ks_v = kerman_sayer_norm(V, 0.5).value
    ks_w = kerman_sayer_norm(W, 0.5).value
    assert abs(ks_w - c * ks_v) < 1e-10 * max(1.0, c)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=20.0), seed=st.integers(0, 50))
def test_ap_scale_invariance(c, seed):
    rng = np.random.default_rng(seed)
    lat = Lattice(1, 8)
    vals = rng.uniform(0.1, 3.0, size=8)
    a = muckenhoupt_constant(ScalarField(lat, vals.astype(complex)), 2.0).value
    b = muckenhoupt_constant(ScalarField(lat, (c * vals).astype(complex)), 2.0).value
    assert abs(a - b) < 1e-10 * a
