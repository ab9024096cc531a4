import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lamespectra.lattice import (
    Lattice,
    ScalarField,
    VectorField,
    apply_multiplier,
    forward_transform,
    gradient_energy,
    inverse_transform,
    l2_inner,
    random_scalar_field,
    random_vector_field,
    scalar_lp_norm,
    vector_lp_norm,
)


def test_lattice_basic_geometry():
    lat = Lattice(2, 8, 4.0)
    assert lat.shape == (8, 8)
    assert lat.npoints == 64
    assert lat.spacing == 0.5
    assert lat.cell_volume == 0.25


def test_lattice_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Lattice(4, 8, 1.0)
    with pytest.raises(ValueError):
        Lattice(2, 7, 1.0)
    with pytest.raises(ValueError):
        Lattice(2, 2, 1.0)
    with pytest.raises(ValueError):
        Lattice(2, 8, 0.0)


def test_default_lattice_sizes_shrink_with_dimension():
    sizes = [Lattice.default(d).n for d in (1, 2, 3)]
    assert sizes == sorted(sizes, reverse=True)


def test_axis_frequencies_match_fftfreq():
    lat = Lattice(1, 16, 5.0)
    expected = 2.0 * np.pi * np.fft.fftfreq(16, d=5.0 / 16)
    assert_allclose(lat.axis_frequencies(), expected, rtol=0, atol=0)
    # spacing between adjacent frequencies is 2 pi / period
    assert_allclose(lat.axis_frequencies()[1], 2.0 * np.pi / 5.0, rtol=1e-15)


def test_frequency_grid_norm():
    lat = Lattice(2, 8, 2.0 * np.pi)
    # on a 2 pi cell the frequencies are the integers
    ints = np.fft.fftfreq(8, d=1.0 / 8)
    for a in range(8):
        for b in range(8):
            assert_allclose(lat.frequency_norm2[a, b], ints[a] ** 2 + ints[b] ** 2,
                            rtol=1e-13)


def test_transform_roundtrip():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3):
        lat = Lattice(dim, 8, 3.0)
        f = random_scalar_field(lat, rng)
        g = inverse_transform(forward_transform(f))
        assert np.max(np.abs(g.values - f.values)) < 1e-14


def test_transform_parseval_exact():
    rng = np.random.default_rng(1)
    lat = Lattice(2, 16, 2.5)
    f = random_scalar_field(lat, rng)
    coeffs = forward_transform(f)
    space = np.sum(np.abs(f.values) ** 2) * lat.cell_volume
    freq = np.sum(np.abs(coeffs.values) ** 2)
    assert_allclose(freq, space, rtol=1e-13)


def test_constant_field_transforms_to_dc_coefficient():
    lat = Lattice(2, 8, 3.0)
    c = 2.0 - 1.0j
    f = ScalarField(lat, np.full(lat.shape, c))
    coeffs = forward_transform(f).values
    # with the quadrature normalization the zero mode carries c * L^(d/2)
    assert_allclose(coeffs[0, 0], c * 3.0, rtol=1e-14)
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


def test_field_constructors_and_arithmetic():
    lat = Lattice(1, 8, 1.0)
    f = ScalarField.from_function(lat, lambda x: np.sin(2 * np.pi * x[0]))
    g = f + f
    assert_allclose(g.values, 2 * f.values)
    assert_allclose((g - f).values, f.values)
    assert_allclose((0.5 * g).values, f.values)
    with pytest.raises(ValueError):
        ScalarField(lat, np.zeros(7, dtype=complex))
    other = Lattice(1, 8, 2.0)
    with pytest.raises(ValueError):
        f + ScalarField.zeros(other)


def test_fields_are_read_only():
    lat = Lattice(1, 8, 1.0)
    f = ScalarField.zeros(lat)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_public_constructors_copy():
    lat = Lattice(2, 8, 1.0)
    arr = np.ones((2, 8, 8), dtype=complex)
    u = VectorField(lat, arr)
    f = ScalarField(lat, arr[0])
    arr[:] = 5.0
    assert np.all(u.values == 1.0) and np.all(f.values == 1.0)
    assert arr.flags.writeable


def test_transform_and_arithmetic_results_are_read_only():
    lat = Lattice(2, 8, 1.0)
    rng = np.random.default_rng(12)
    u = random_vector_field(lat, rng)
    f = random_scalar_field(lat, rng)
    results = [forward_transform(u), inverse_transform(u), forward_transform(f),
               inverse_transform(f), u + u, u - u, 2.0 * u, f + f, f - f, f * 3.0]
    for out in results:
        assert type(out) in (ScalarField, VectorField)
        assert out.values.dtype == np.complex128
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[(0,) * out.values.ndim] = 1.0


def test_vector_field_components():
    lat = Lattice(2, 8, 1.0)
    u = VectorField.from_components(
        [ScalarField.from_function(lat, lambda x: x[0]),
         ScalarField.from_function(lat, lambda x: x[1])]
    )
    assert u.values.shape == (2, 8, 8)
    assert_allclose(u.component(1).values, u.values[1])
    with pytest.raises(ValueError):
        VectorField(lat, np.zeros((3, 8, 8), dtype=complex))


def test_apply_multiplier_scalar_matches_manual():
    lat = Lattice(1, 16, 2.0 * np.pi)
    rng = np.random.default_rng(2)
    f = random_scalar_field(lat, rng)
    out = apply_multiplier(lambda xi: np.sum(xi * xi, axis=0), f)
    manual = inverse_transform(
        ScalarField(lat, lat.frequency_norm2 * forward_transform(f).values)
    )
    assert np.max(np.abs(out.values - manual.values)) < 1e-12


def test_apply_multiplier_accepts_precomputed_array():
    lat = Lattice(2, 8, 1.0)
    rng = np.random.default_rng(3)
    f = random_scalar_field(lat, rng)
    table = np.exp(-lat.frequency_norm2)
    a = apply_multiplier(table, f)
    b = apply_multiplier(lambda xi: np.exp(-np.sum(xi * xi, axis=0)), f)
    assert np.max(np.abs(a.values - b.values)) < 1e-13


def test_apply_multiplier_matrix_symbol_single_mode():
    lat = Lattice(2, 8, 2.0 * np.pi)
    u = VectorField.from_components(
        [ScalarField.from_function(lat, lambda x: np.exp(1j * x[0])),
         ScalarField.from_function(lat, lambda x: 0.5 * np.exp(1j * x[0]))]
    )
    # symbol xi xi^T picks out the first component on this mode
    out = apply_multiplier(lambda xi: np.einsum("i...,j...->ij...", xi, xi), u)
    expected = np.stack([u.values[0], np.zeros_like(u.values[1])])
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_apply_multiplier_rejects_nonfinite_symbol():
    lat = Lattice(1, 8, 1.0)
    f = ScalarField.zeros(lat)
    bad = np.full(lat.shape, np.nan)
    with pytest.raises(ValueError, match="frequency index"):
        apply_multiplier(bad, f)


def test_scalar_lp_norm_hand_value():
    lat = Lattice(1, 4, 2.0)  # h = 0.5
    f = ScalarField(lat, np.array([1.0, -2.0, 0.0, 2.0], dtype=complex))
    # sum |v|^3 h = (1 + 8 + 0 + 8) * 0.5 = 8.5
    assert_allclose(scalar_lp_norm(f, 3.0), 8.5 ** (1.0 / 3.0), rtol=1e-15)


def test_vector_lp_norm_is_component_sum():
    lat = Lattice(2, 8, 1.0)
    rng = np.random.default_rng(4)
    u = random_vector_field(lat, rng)
    p = 1.7
    manual = sum(scalar_lp_norm(u.component(j), p) ** p for j in range(2)) ** (1 / p)
    assert_allclose(vector_lp_norm(u, p), manual, rtol=1e-13)


def test_l2_inner_matches_norm():
    lat = Lattice(2, 8, 3.0)
    rng = np.random.default_rng(5)
    u = random_vector_field(lat, rng)
    assert_allclose(l2_inner(u, u).real, vector_lp_norm(u, 2.0) ** 2, rtol=1e-13)
    assert abs(l2_inner(u, u).imag) < 1e-13


def test_gradient_energy_single_mode():
    lat = Lattice(1, 16, 2.0 * np.pi)
    f = ScalarField.from_function(lat, lambda x: np.exp(3j * x[0]))
    # |xi|^2 |fhat|^2 = 9 * L for the unit-amplitude mode
    assert_allclose(gradient_energy(f), 9.0 * 2.0 * np.pi, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transform_is_linear(seed):
    rng = np.random.default_rng(seed)
    lat = Lattice(1, 8, 1.5)
    f = random_scalar_field(lat, rng)
    g = random_scalar_field(lat, rng)
    a = 0.3 - 1.2j
    lhs = forward_transform(ScalarField(lat, a * f.values + g.values))
    rhs = a * forward_transform(f) + forward_transform(g)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0, 6.0), st.integers(0, 2**32 - 1))
def test_lp_norm_homogeneous(p, seed):
    rng = np.random.default_rng(seed)
    lat = Lattice(2, 8, 2.0)
    f = random_scalar_field(lat, rng)
    c = 2.5 - 1.0j
    scaled = ScalarField(lat, c * f.values)
    assert_allclose(scalar_lp_norm(scaled, p), abs(c) * scalar_lp_norm(f, p),
                    rtol=1e-12)
