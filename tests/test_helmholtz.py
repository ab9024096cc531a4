import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lamespectra.helmholtz import (
    divergence,
    gradient,
    helmholtz_decompose,
    leray_project,
    riesz_empirical_norm,
    riesz_norm_bound,
    riesz_transform,
    splitting_lp_bound,
)
from lamespectra.lattice import (
    Lattice,
    ScalarField,
    VectorField,
    forward_transform,
    l2_inner,
    random_scalar_field,
    random_vector_field,
    scalar_lp_norm,
    vector_lp_norm,
)


def _rand(dim, n, seed, period=2.0 * np.pi):
    rng = np.random.default_rng(seed)
    return random_vector_field(Lattice(dim, n, period), rng)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_decomposition_identities(dim, n):
    f = _rand(dim, n, 7)
    pair = helmholtz_decompose(f)
    assert vector_lp_norm(f - pair.total(), 2.0) < 1e-13
    # L2 orthogonality and the Pythagorean identity
    assert abs(l2_inner(pair.solenoidal, pair.potential)) < 1e-12
    total = vector_lp_norm(f, 2.0) ** 2
    parts = vector_lp_norm(pair.solenoidal, 2.0) ** 2 + vector_lp_norm(pair.potential, 2.0) ** 2
    assert abs(total - parts) / total < 1e-13
    # solenoidal part is divergence free
    assert scalar_lp_norm(divergence(pair.solenoidal), 2.0) < 1e-12


def test_leray_is_idempotent():
    f = _rand(2, 16, 8)
    once = leray_project(f)
    twice = leray_project(once)
    assert vector_lp_norm(once - twice, 2.0) < 1e-13


def test_gradient_fields_project_to_zero():
    lat = Lattice(2, 16)
    rng = np.random.default_rng(9)
    f = gradient(random_scalar_field(lat, rng))
    pair = helmholtz_decompose(f)
    assert vector_lp_norm(pair.solenoidal, 2.0) < 1e-12 * vector_lp_norm(f, 2.0)
    assert vector_lp_norm(pair.potential - f, 2.0) < 1e-12 * vector_lp_norm(f, 2.0)


def test_constant_fields_are_solenoidal():
    # the projector leaves the zero frequency untouched
    lat = Lattice(2, 8)
    c = np.zeros((2, 8, 8), dtype=complex)
    c[0] = 1.5
    c[1] = -2.0j
    f = VectorField(lat, c)
    pair = helmholtz_decompose(f)
    assert vector_lp_norm(pair.solenoidal - f, 2.0) < 1e-14
    assert vector_lp_norm(pair.potential, 2.0) < 1e-14


def test_potential_part_is_a_gradient():
    # coefficients of f_P are parallel to xi at every frequency
    f = _rand(2, 16, 10)
    fp = helmholtz_decompose(f).potential
    hat = forward_transform(fp).values
    grid = fp.lattice.frequency_grid
    cross = grid[0] * hat[1] - grid[1] * hat[0]
    assert np.max(np.abs(cross)) < 1e-12


def test_riesz_transform_single_mode():
    lat = Lattice(2, 16)
    phi = ScalarField.from_function(lat, lambda x: np.exp(1j * (3 * x[0] + 4 * x[1])))
    out = riesz_transform(0, phi)
    # symbol -i xi_0/|xi| = -3i/5 on this mode
    assert np.max(np.abs(out.values - (-0.6j) * phi.values)) < 1e-13


def test_riesz_transform_kills_constants():
    lat = Lattice(1, 8)
    phi = ScalarField(lat, np.full(lat.shape, 2.0 + 1.0j))
    assert scalar_lp_norm(riesz_transform(0, phi), 2.0) < 1e-14


def test_riesz_transform_axis_validation():
    lat = Lattice(2, 8)
    phi = ScalarField.zeros(lat)
    with pytest.raises(ValueError):
        riesz_transform(2, phi)
    with pytest.raises(ValueError):
        riesz_transform(-1, phi)


def test_riesz_transform_is_skew_adjoint():
    lat = Lattice(2, 16)
    rng = np.random.default_rng(11)
    phi, psi = random_scalar_field(lat, rng), random_scalar_field(lat, rng)
    lhs = l2_inner(riesz_transform(1, phi), psi)
    rhs = -l2_inner(phi, riesz_transform(1, psi))
    assert abs(lhs - rhs) < 1e-12


def test_riesz_norm_bound_values():
    # cot(pi/4) = 1 at the self-dual exponent
    assert_allclose(riesz_norm_bound(2.0), 1.0, rtol=1e-15)
    # p* = 4 for both p = 4 and p = 4/3, and cot(pi/8) = 1 + sqrt(2)
    assert_allclose(riesz_norm_bound(4.0), 1.0 + np.sqrt(2.0), rtol=1e-14)
    assert_allclose(riesz_norm_bound(4.0 / 3.0), 1.0 + np.sqrt(2.0), rtol=1e-14)
    # the constant blows up toward L^1
    assert riesz_norm_bound(1.01) > 60.0


def test_riesz_norm_bound_rejects_bad_p():
    with pytest.raises(ValueError):
        riesz_norm_bound(1.0)
    with pytest.raises(ValueError):
        riesz_norm_bound(0.5)
    with pytest.raises(ValueError):
        riesz_empirical_norm(Lattice(2, 8), 0, float("nan"))
    with pytest.raises(ValueError, match="n_iter must be >= 1"):
        riesz_empirical_norm(Lattice(2, 8), 0, 2.0, n_iter=0)


def test_splitting_bound_formula():
    c = riesz_norm_bound(4.0)
    assert_allclose(splitting_lp_bound(4.0, 2), 1.0 + 2.0 * c * c * 2, rtol=1e-14)
    assert_allclose(splitting_lp_bound(2.0, 3), 7.0, rtol=1e-15)


def test_riesz_empirical_at_p2_reaches_one():
    lat = Lattice(2, 16)
    est = riesz_empirical_norm(lat, 0, 2.0, samples=2, n_iter=10, seed=0)
    assert est <= 1.0 + 1e-10
    assert est >= 1.0 - 1e-9


def test_riesz_empirical_below_bound_quickly():
    lat = Lattice(2, 16)
    for p in (4.0 / 3.0, 4.0):
        est = riesz_empirical_norm(lat, 1, p, samples=2, n_iter=12, seed=1)
        assert 0.5 < est <= riesz_norm_bound(p) + 0.05


def test_divergence_gradient_adjoint():
    lat = Lattice(2, 16)
    rng = np.random.default_rng(12)
    phi = random_scalar_field(lat, rng)
    f = random_vector_field(lat, rng)
    lhs = l2_inner(gradient(phi), f)
    rhs = -l2_inner(phi, divergence(f))
    assert abs(lhs - rhs) < 1e-11


def test_divergence_of_gradient_is_laplacian():
    lat = Lattice(2, 16)
    phi = ScalarField.from_function(lat, lambda x: np.exp(1j * (2 * x[0] - x[1])))
    out = divergence(gradient(phi))
    assert np.max(np.abs(out.values - (-5.0) * phi.values)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decomposition_is_linear(seed):
    rng = np.random.default_rng(seed)
    lat = Lattice(2, 8)
    f, g = random_vector_field(lat, rng), random_vector_field(lat, rng)
    a = 1.3 - 0.4j
    combo = helmholtz_decompose(VectorField(lat, a * f.values + g.values))
    fs, gs = helmholtz_decompose(f), helmholtz_decompose(g)
    lhs = combo.solenoidal.values
    rhs = a * fs.solenoidal.values + gs.solenoidal.values
    assert np.max(np.abs(lhs - rhs)) < 1e-12
