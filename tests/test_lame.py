import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lamespectra.lame import (
    LameParams,
    Potential,
    apply_lame,
    apply_perturbed,
    distance_to_ray,
    lame_symbol,
    resolvent_direct,
    resolvent_split,
    split_resolvent,
)
from lamespectra.helmholtz import potential_amplitude
from lamespectra.lattice import (
    Lattice,
    ScalarField,
    VectorField,
    forward_transform,
    inverse_transform,
    random_vector_field,
    vector_lp_norm,
)
from lamespectra.spectra import dense_resolvent_matrix

PAIRS = [LameParams(1.0, 1.0), LameParams(-0.5, 1.0), LameParams(2.0, 0.5)]


def test_params_validation():
    with pytest.raises(ValueError):
        LameParams(0.0, 0.0)
    with pytest.raises(ValueError):
        LameParams(1.0, -1.0)
    with pytest.raises(ValueError):
        LameParams(-3.0, 1.0)  # lam + 2 mu = -1
    p = LameParams(-0.5, 1.0)  # negative lam is fine while lam + 2 mu > 0
    assert p.longitudinal == 1.5


def test_symbol_eigenvalues():
    rng = np.random.default_rng(0)
    for params in PAIRS:
        for dim in (2, 3):
            xi = rng.normal(size=dim)
            ev = np.sort(np.linalg.eigvalsh(lame_symbol(params, xi)))
            s = float(xi @ xi)
            expected = np.sort([params.mu * s] * (dim - 1) + [params.longitudinal * s])
            assert_allclose(ev, expected, rtol=1e-12)
            # the grid form (d, *grid) gives the point form at every frequency
            grid = rng.normal(size=(dim, 3, 4))
            table = lame_symbol(params, grid)
            assert table.shape == (dim, dim, 3, 4)
            for idx in np.ndindex(3, 4):
                point = lame_symbol(params, grid[(slice(None),) + idx])
                assert_allclose(table[(slice(None), slice(None)) + idx], point, rtol=1e-14)


def test_apply_lame_polarizations():
    lat = Lattice(2, 16)
    params = LameParams(1.5, 0.5)
    k = np.array([2.0, 1.0])
    s = float(k @ k)
    wave = lambda x: np.exp(1j * (k[0] * x[0] + k[1] * x[1]))

    # longitudinal polarization (u parallel to xi) sees (lam + 2 mu) |xi|^2
    u_long = VectorField.from_components(
        [ScalarField.from_function(lat, lambda x: k[0] * wave(x)),
         ScalarField.from_function(lat, lambda x: k[1] * wave(x))]
    )
    out = apply_lame(params, u_long)
    assert np.max(np.abs(out.values - params.longitudinal * s * u_long.values)) < 1e-11

    # transverse polarization sees mu |xi|^2
    u_tr = VectorField.from_components(
        [ScalarField.from_function(lat, lambda x: -k[1] * wave(x)),
         ScalarField.from_function(lat, lambda x: k[0] * wave(x))]
    )
    out = apply_lame(params, u_tr)
    assert np.max(np.abs(out.values - params.mu * s * u_tr.values)) < 1e-11


def test_apply_lame_1d_is_scalar_second_derivative():
    lat = Lattice(1, 32)
    params = LameParams(0.5, 1.0)  # longitudinal 2.5
    u = VectorField.from_components([ScalarField.from_function(lat, lambda x: np.exp(4j * x[0]))])
    out = apply_lame(params, u)
    assert np.max(np.abs(out.values - 2.5 * 16.0 * u.values)) < 1e-11


def test_apply_lame_matches_symbol_multiplier():
    # the grid form of lame_symbol, applied to the coefficients frequency by
    # frequency, is the multiplier that apply_lame implements
    lat = Lattice(2, 8)
    params = LameParams(1.0, 2.0)
    rng = np.random.default_rng(1)
    u = random_vector_field(lat, rng)
    a = apply_lame(params, u)
    table = lame_symbol(params, lat.frequency_grid)
    uhat = forward_transform(u).values
    b = inverse_transform(VectorField(lat, np.einsum("ij...,j...->i...", table, uhat)))
    assert np.max(np.abs(a.values - b.values)) < 1e-11


def test_distance_to_ray_cases():
    assert distance_to_ray(-1.0) == 1.0
    assert distance_to_ray(1j) == 1.0
    assert distance_to_ray(3.0 + 4.0j) == 4.0
    assert distance_to_ray(-3.0 - 4.0j) == 5.0
    assert distance_to_ray(10.0) == 0.0


def _distance_to_ray_reference(z: complex) -> float:
    z = complex(z)
    return abs(z.imag) if z.real >= 0.0 else abs(z)


def test_distance_to_ray_array_equals_scalar():
    # hypot, not numpy's complex abs, gives Python's bits for every element
    rng = np.random.default_rng(4)
    size = 20000
    z = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.integers(
        -300, 300, size)
    z = np.concatenate([z, [0.0, -0.0, complex(-0.0, -2.0), -3.0 - 4.0j, complex(-np.inf, 1.0),
                            complex(np.nan, 1.0)]])
    d = distance_to_ray(z.reshape(-1, 2))
    assert d.shape == (len(z) // 2, 2)
    scalar = np.array([distance_to_ray(complex(x)) for x in z])
    reference = np.array([_distance_to_ray_reference(x) for x in z])
    assert np.array_equal(d.reshape(-1), reference, equal_nan=True)
    assert np.array_equal(scalar, reference, equal_nan=True)
    assert isinstance(distance_to_ray(-1.0 + 1.0j), float)


def _one_shot_split(params, z, g):
    """The split route as one function, building its multipliers on every call,
    in the library's order of operations: a built resolvent must keep its bits."""
    lat = g.lattice
    xi2 = lat.frequency_norm2
    ghat = forward_transform(g).values
    q = potential_amplitude(lat, ghat)
    shear = np.reciprocal(params.mu * xi2 - z)
    q *= np.reciprocal(params.longitudinal * xi2 - z) - shear
    out = ghat * shear
    for k, xi_k in enumerate(lat.frequency_grid):
        out[k] += xi_k * q
    return inverse_transform(VectorField(lat, out))


@pytest.mark.parametrize("params", PAIRS)
def test_resolvent_split_equals_direct(params):
    rng = np.random.default_rng(2)
    for lat in (Lattice(1, 16), Lattice(2, 16), Lattice(3, 8)):
        g = random_vector_field(lat, rng)
        # a large mean puts most of the weight on the xi = 0 mode
        offset = VectorField(lat, g.values + (3.0 - 2.0j))
        for field in (g, offset):
            for z in (0.3 + 0.5j, -1.0 + 0.2j, -4.0, 9.0 - 2.0j, 2.0 + 1e-3j):
                a = resolvent_split(params, z, field)
                assert np.array_equal(split_resolvent(params, z, lat)(field).values, a.values)
                assert np.array_equal(_one_shot_split(params, z, field).values, a.values)
                b = resolvent_direct(params, z, field)
                num = vector_lp_norm(a - b, 2.0)
                den = vector_lp_norm(b, 2.0)
                assert num / den < 1e-12, (lat, z)


def test_split_resolvent_applies_to_many_fields():
    lat = Lattice(2, 16)
    params = LameParams(-0.5, 1.0)
    rng = np.random.default_rng(10)
    fields = [random_vector_field(lat, rng) for _ in range(3)]
    before = [f.values.copy() for f in fields]
    built = split_resolvent(params, -1.0 + 0.5j, lat)
    for f in fields + fields[::-1]:  # a second pass in reverse order: no state carries over
        u = built(f)
        assert np.array_equal(u.values, resolvent_split(params, -1.0 + 0.5j, f).values)
        assert not u.values.flags.writeable
    assert all(np.array_equal(f.values, b) for f, b in zip(fields, before))


def test_split_resolvent_refuses_other_lattices():
    built = split_resolvent(LameParams(1.0, 1.0), -1.0, Lattice(2, 8))
    for lat in (Lattice(2, 16), Lattice(2, 8, 4.0)):
        with pytest.raises(ValueError, match="different lattices"):
            built(VectorField.zeros(lat))
    with pytest.raises(ValueError, match="essential spectrum"):
        split_resolvent(LameParams(1.0, 1.0), 2.0, Lattice(2, 8))


def test_resolvent_split_matches_dense_matrix():
    lat = Lattice(2, 8)
    g = random_vector_field(lat, np.random.default_rng(7))
    for params in PAIRS:
        for z in (0.3 + 0.5j, -4.0, 2.0 + 1e-3j):
            want = dense_resolvent_matrix(params, z, lat) @ g.values.reshape(-1)
            got = resolvent_split(params, z, g).values.reshape(-1)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12, (params, z)


def test_resolvent_split_leaves_input_and_returns_read_only():
    lat = Lattice(2, 16)
    g = random_vector_field(lat, np.random.default_rng(8))
    before = g.values.copy()
    u = resolvent_split(LameParams(1.0, 1.0), -1.0 + 0.5j, g)
    assert np.array_equal(g.values, before)
    assert not u.values.flags.writeable
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 1.0


def test_resolvent_split_peak_memory():
    # the parent of this check peaked at 7x the field's bytes: scaled
    # copies after each transform, a copy per field and full-size temporaries
    lat = Lattice(2, 64)
    params = LameParams(0.5, 1.0)
    g = random_vector_field(lat, np.random.default_rng(9))
    resolvent_split(params, -1.0 + 0.1j, g)  # builds the cached frequency grids
    tracemalloc.start()
    try:
        resolvent_split(params, -1.0 + 0.1j, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * g.values.nbytes


def test_split_resolvent_application_peak_memory():
    # building the multipliers on every application peaks at about 4.5x the
    # field's bytes; an application of a built resolvent at about 3.5x
    lat = Lattice(2, 64)
    g = random_vector_field(lat, np.random.default_rng(9))
    built = split_resolvent(LameParams(0.5, 1.0), -1.0 + 0.1j, lat)
    built(g)
    tracemalloc.start()
    try:
        built(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * g.values.nbytes


def test_resolvent_split_uses_one_transform_pair(monkeypatch):
    # the public transforms and the split resolvent all reach the FFT through
    # the two primitives, so counting them where they are bound counts every call
    import lamespectra.lame
    import lamespectra.lattice

    counts = {"forward": 0, "inverse": 0}

    def counted(kind, fn):
        def wrapper(*args):
            counts[kind] += 1
            return fn(*args)
        return wrapper

    forward = counted("forward", lamespectra.lattice._forward_into)
    inverse = counted("inverse", lamespectra.lattice._inverse_into)
    for module in (lamespectra.lattice, lamespectra.lame):
        monkeypatch.setattr(module, "_forward_into", forward)
        monkeypatch.setattr(module, "_inverse_into", inverse)
    g = random_vector_field(Lattice(2, 8), np.random.default_rng(6))
    resolvent_split(LameParams(1.0, 1.0), -1.0 + 0.5j, g)
    assert counts == {"forward": 1, "inverse": 1}
    # building transforms nothing; each application of the built map one pair
    built = split_resolvent(LameParams(1.0, 1.0), -1.0 + 0.5j, g.lattice)
    assert counts == {"forward": 1, "inverse": 1}
    for _ in range(3):
        built(g)
    assert counts == {"forward": 4, "inverse": 4}
    # the public transforms count through the same primitives
    inverse_transform(forward_transform(g))
    assert counts == {"forward": 5, "inverse": 5}


def test_resolvent_inverts_operator():
    lat = Lattice(3, 8)
    params = LameParams(-0.2, 0.8)
    rng = np.random.default_rng(3)
    g = random_vector_field(lat, rng)
    z = 1.5 + 2.0j
    for route in (resolvent_split, resolvent_direct):
        u = route(params, z, g)
        back = apply_lame(params, u) - z * u
        assert vector_lp_norm(back - g, 2.0) / vector_lp_norm(g, 2.0) < 1e-10


def test_resolvent_rejects_z_on_ray():
    lat = Lattice(1, 8)
    g = VectorField.zeros(lat)
    params = LameParams(1.0, 1.0)
    for route in (resolvent_split, resolvent_direct):
        with pytest.raises(ValueError, match="essential spectrum"):
            route(params, 4.0, g)
        with pytest.raises(ValueError, match="essential spectrum"):
            route(params, 2.0 + 1e-12j, g)


def test_resolvent_real_symmetry():
    # Real z below the spectrum with real data gives a real solution.  The
    # unpaired Nyquist mode of an even grid has no conjugate partner, so we
    # filter it out of the random data first; the guarantee applies to fields
    # resolved by the grid, not to white noise at the aliasing limit.
    lat = Lattice(2, 16)
    params = LameParams(1.0, 1.0)
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(2, 16, 16))
    coeff = np.fft.fftn(raw, axes=(1, 2))
    coeff[:, 8, :] = 0.0
    coeff[:, :, 8] = 0.0
    g = VectorField(lat, np.fft.ifftn(coeff, axes=(1, 2)).real.astype(complex))
    u = resolvent_split(params, -2.5, g)
    assert np.max(np.abs(u.values.imag)) < 1e-13
    assert vector_lp_norm(u, 2.0) > 0.01


def test_potential_wrapper():
    lat = Lattice(1, 8, 4.0)
    vals = np.zeros(8, dtype=complex)
    vals[2:5] = -3.0 + 1.0j
    V = Potential(lat, vals)
    assert isinstance(V, ScalarField)
    assert not V.is_real
    assert V.support_mask.sum() == 3
    W = Potential(lat, np.zeros(8))
    assert W.is_real
    with pytest.raises(ValueError):
        Potential(lat, np.full(8, np.nan))


def test_apply_perturbed_adds_multiplication():
    lat = Lattice(2, 8)
    params = LameParams(1.0, 1.0)
    rng = np.random.default_rng(5)
    u = random_vector_field(lat, rng)
    vals = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
    V = Potential(lat, vals)
    out = apply_perturbed(params, V, u)
    manual = apply_lame(params, u).values + vals[None] * u.values
    assert np.max(np.abs(out.values - manual)) < 1e-12
    other = Potential(Lattice(2, 8, 3.0), vals)
    with pytest.raises(ValueError):
        apply_perturbed(params, other, u)
