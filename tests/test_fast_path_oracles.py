"""Reciprocal products and in-place steps against their dividing slow paths, bit for bit.

The library multiplies complex arrays by real reciprocals and transforms in
one array it owns; ``oracles`` keeps each step's former form, which divides
and allocates a fresh array per step.  numpy divides complex by real as
(a_r + a_i 0) (1/s), so both give the same bits up to the sign of an exactly
zero part, which only the amplitude at xi = 0 and the duality map at 0 hold.
"""

import numpy as np
import pytest

from oracles import (
    duality_map_dividing,
    inverse_transform_dividing,
    potential_amplitude_dividing,
    split_resolvent_dividing,
)
from lamespectra.helmholtz import potential_amplitude
from lamespectra.lame import LameParams, _split_resolvent, split_resolvent
from lamespectra.lattice import (
    Lattice,
    VectorField,
    forward_transform,
    inverse_transform,
    random_vector_field,
)
from lamespectra.norms import polynomial_weight
from lamespectra.operator_norms import _duality_map

LATTICES = [Lattice(1, 16), Lattice(2, 12, 5.0), Lattice(3, 8)]
# near the ray (distance 1e-4, inside the band) and far from it
Z_VALUES = [1.3 + 1e-4j, -4.0 + 2.5j]
PARAMS = LameParams(0.5, 1.0)


def _field(lat, seed):
    return random_vector_field(lat, np.random.default_rng(seed))


def _same_bits(got, want, zero_sign_free=False):
    """Identical bits; with ``zero_sign_free`` an exactly zero part may differ in sign."""
    g, w = np.asarray(got).view(np.float64), np.asarray(want).view(np.float64)
    assert g.shape == w.shape
    same = g.view(np.uint64) == w.view(np.uint64)
    if zero_sign_free:
        same |= (g == 0.0) & (w == 0.0)
    return bool(same.all())


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: f"{lat.dim}d")
@pytest.mark.parametrize("z", Z_VALUES, ids=["near", "far"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_split_resolvent_matches_dividing_path(lat, z, weighted):
    g = _field(lat, 11)
    before = g.values.tobytes()
    if weighted:
        weight = polynomial_weight(lat, -0.5)
        apply = _split_resolvent(PARAMS, z, lat, weight=weight)
    else:
        weight, apply = None, split_resolvent(PARAMS, z, lat)
    first, second = apply(g), apply(g)
    want = split_resolvent_dividing(PARAMS, z, g, weight)
    assert _same_bits(first.values, want) and _same_bits(second.values, want)
    # g untouched, results read-only and not sharing memory
    assert g.values.tobytes() == before
    assert not first.values.flags.writeable and not second.values.flags.writeable
    assert not np.shares_memory(first.values, second.values)
    assert not np.shares_memory(first.values, g.values)


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: f"{lat.dim}d")
def test_inverse_transform_matches_dividing_path(lat):
    coefficients = _field(lat, 13)
    before = coefficients.values.tobytes()
    got = inverse_transform(coefficients)
    assert _same_bits(got.values, inverse_transform_dividing(lat, coefficients.values))
    assert coefficients.values.tobytes() == before and not got.values.flags.writeable
    # and of coefficients that are a transform's own output
    fhat = forward_transform(_field(lat, 14))
    assert _same_bits(inverse_transform(fhat).values, inverse_transform_dividing(lat, fhat.values))


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: f"{lat.dim}d")
def test_potential_amplitude_matches_dividing_path(lat):
    fhat = forward_transform(_field(lat, 15)).values
    want = potential_amplitude_dividing(lat, fhat)
    got = potential_amplitude(lat, fhat)
    assert _same_bits(got, want, zero_sign_free=True)
    assert got[(0,) * lat.dim] == 0.0
    # the away-from-zero modes carry their full bits
    assert _same_bits(got.ravel()[1:], want.ravel()[1:])


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: f"{lat.dim}d")
@pytest.mark.parametrize("s", [1.5, 3.0])
def test_duality_map_matches_dividing_path(lat, s):
    values = _field(lat, 16).values.copy()
    values[(0,) * (lat.dim + 1)] = 0.0  # the masked sample
    values[(0,) + (1,) * lat.dim] = -2.5  # a zero imaginary part
    got = _duality_map(values, s)
    assert _same_bits(got, duality_map_dividing(values, s), zero_sign_free=True)
    assert got[(0,) * (lat.dim + 1)] == 0.0


def test_split_resolvent_refuses_a_field_on_another_lattice():
    apply = _split_resolvent(PARAMS, -1.0 + 1.0j, Lattice(2, 12, 5.0))
    with pytest.raises(ValueError, match="different lattices"):
        apply(VectorField.zeros(Lattice(2, 12)))
