"""The Lame operator of elasticity, its resolvent, and potentials.

The unperturbed operator is -Delta* u = -mu Laplace u - (lam + mu) grad div u
with Fourier symbol M(xi) = mu |xi|^2 I + (lam + mu) xi xi^T.  Its resolvent
is computed two independent ways: per-frequency inversion of M(xi) - z, and
the Helmholtz splitting into two scalar Laplacian resolvents

    (-Delta* - z)^-1 g = (1/mu) (-Laplace - z/mu)^-1 g_S
                       + (1/(lam+2mu)) (-Laplace - z/(lam+2mu))^-1 g_P.

Build once per z, apply many: :func:`split_resolvent` forms the two scalar
multipliers of one z once, so an iteration that applies that z to many fields
pays only the transforms per application.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .helmholtz import _inverse_norm2, potential_amplitude
from .lattice import (
    Lattice,
    ScalarField,
    VectorField,
    _adopt,
    _forward_into,
    _frequency_dot,
    _inverse_into,
    forward_transform,
    inverse_transform,
)

__all__ = [
    "DEFAULT_TAU_Z",
    "LameParams",
    "Potential",
    "distance_to_ray",
    "lame_symbol",
    "apply_lame",
    "resolvent_direct",
    "resolvent_split",
    "split_resolvent",
    "apply_perturbed",
]

DEFAULT_TAU_Z = 1e-8


@dataclass(frozen=True)
class LameParams:
    """Lame moduli; ellipticity demands mu > 0 and lam + 2 mu > 0."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lam) and np.isfinite(self.mu)):
            raise ValueError("Lame moduli must be finite")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 < self.longitudinal < np.inf:
            raise ValueError(f"lam + 2 mu must be positive and finite, got {self.longitudinal}")

    @property
    def longitudinal(self) -> float:
        """Modulus lam + 2 mu seen by the gradient (P-wave) part."""
        return self.lam + 2.0 * self.mu


class Potential(ScalarField):
    """Complex potential samples with support bookkeeping; a finite :class:`ScalarField`.

    The support mask marks grid points where V is exactly nonzero; the
    Birman-Schwinger kernels are restricted to it.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential has non-finite samples")

    @cached_property
    def support_mask(self) -> np.ndarray:
        mask = self.values != 0.0
        mask.setflags(write=False)
        return mask

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))


def distance_to_ray(z):
    """Distance from z to the half line [0, infinity), elementwise on arrays.

    A scalar gives a float, an array an array of the same shape.  ``hypot``
    rounds as Python's complex ``abs`` does (numpy's complex ``abs`` does
    not always), so both forms give the same bits.
    """
    z = np.asarray(z, dtype=complex)
    out = np.where(z.real >= 0.0, np.abs(z.imag), np.hypot(z.real, z.imag))
    return float(out) if out.ndim == 0 else out


def _check_admissible(z: complex) -> None:
    if distance_to_ray(z) < DEFAULT_TAU_Z:
        raise ValueError(
            f"z = {z} is within {DEFAULT_TAU_Z} of the essential spectrum [0, inf)"
        )


def lame_symbol(params: LameParams, xi) -> np.ndarray:
    """Symbol M(xi) = mu |xi|^2 I + (lam + mu) xi xi^T.

    ``xi`` is one frequency of shape (d,), giving a (d, d) array, or a grid
    of frequencies of shape (d, *grid), giving a (d, d, *grid) array.
    """
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[0]
    xi2 = np.sum(xi**2, axis=0)
    eye = np.eye(d).reshape((d, d) + (1,) * (xi.ndim - 1))
    return (params.lam + params.mu) * (xi[:, None] * xi[None, :]) + params.mu * xi2 * eye


def _shifted_symbols(params: LameParams, lattice: Lattice, z: complex) -> np.ndarray:
    """M(xi) - z I at every lattice frequency, as a contiguous (npts, d, d) stack."""
    d = lattice.dim
    sym = lame_symbol(params, lattice.frequency_grid.reshape(d, -1))  # (d, d, npts)
    return np.ascontiguousarray(sym.transpose(2, 0, 1)) - z * np.eye(d)


def apply_lame(params: LameParams, u: VectorField) -> VectorField:
    """Apply -Delta* spectrally: mu |xi|^2 uhat + (lam+mu) xi (xi . uhat)."""
    lat = u.lattice
    uhat = forward_transform(u).values
    div = _frequency_dot(lat, uhat)
    out = params.mu * lat.frequency_norm2 * uhat
    for k, xi_k in enumerate(lat.frequency_grid):
        out[k] += (params.lam + params.mu) * xi_k * div
    return inverse_transform(_adopt(VectorField, lat, out))


def resolvent_direct(params: LameParams, z: complex, g: VectorField) -> VectorField:
    """Resolvent by per-frequency solves of (M(xi) - z) fhat = ghat."""
    _check_admissible(z)
    lat = g.lattice
    d = lat.dim
    ghat = forward_transform(g).values.reshape(d, -1).T  # (npts, d)
    fhat = np.linalg.solve(_shifted_symbols(params, lat, z), ghat[:, :, None])[:, :, 0]
    fhat = fhat.T.reshape((d,) + lat.shape)
    return inverse_transform(VectorField(lat, fhat))


def split_resolvent(params: LameParams, z: complex, lattice: Lattice):
    """The map g -> (-Delta* - z)^-1 g via the Helmholtz splitting, built for one z.

    With ghat = gs + gp (gp = xi q, the potential part) each application forms
    gs / (mu |xi|^2 - z) + gp / ((lam + 2 mu) |xi|^2 - z) in place, as
    ghat / (mu |xi|^2 - z) plus gp times the two resolvents' difference.  The
    multipliers and 1 / |xi|^2 are built here, once.  An application makes one
    forward and one inverse transform in one fresh array, which it returns
    read-only as the result; it leaves ``g`` untouched and shares no buffer
    with other applications, so the built map is reentrant.
    """
    _check_admissible(z)
    return _split_resolvent(params, z, lattice)


def _split_resolvent(params: LameParams, z: complex, lattice: Lattice, weight=None):
    """:func:`split_resolvent` at any z off the ray, with no check.

    A real ``weight`` of ``lattice.shape`` makes the map g -> w R(z) (w g).
    """
    xi2 = lattice.frequency_norm2
    inv_xi2 = _inverse_norm2(lattice)
    shear = np.reciprocal(params.mu * xi2 - z)
    diff = np.reciprocal(params.longitudinal * xi2 - z) - shear

    def apply(g: VectorField) -> VectorField:
        if g.lattice != lattice:
            raise ValueError("field and resolvent live on different lattices")
        out = np.empty_like(g.values)
        values = g.values if weight is None else np.multiply(g.values, weight, out=out)
        _forward_into(lattice, values, out)
        q = potential_amplitude(lattice, out, inv_xi2)
        q *= diff
        out *= shear
        for k, xi_k in enumerate(lattice.frequency_grid):
            out[k] += xi_k * q
        _inverse_into(lattice, out, out)
        if weight is not None:
            out *= weight
        return _adopt(VectorField, lattice, out)

    return apply


def resolvent_split(params: LameParams, z: complex, g: VectorField) -> VectorField:
    """Resolvent via the Helmholtz splitting: :func:`split_resolvent` applied once."""
    return split_resolvent(params, z, g.lattice)(g)


def apply_perturbed(params: LameParams, V: Potential, u: VectorField) -> VectorField:
    """Apply -Delta* + V with V acting componentwise by multiplication."""
    if V.lattice != u.lattice:
        raise ValueError("potential and field live on different lattices")
    out = apply_lame(params, u)
    return _adopt(VectorField, u.lattice, out.values + V.values[None] * u.values)
