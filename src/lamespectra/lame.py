"""The Lame operator of elasticity, its resolvent, and potentials.

The unperturbed operator is -Delta* u = -mu Laplace u - (lam + mu) grad div u
with Fourier symbol M(xi) = mu |xi|^2 I + (lam + mu) xi xi^T.  Its resolvent
is computed two independent ways: per-frequency inversion of M(xi) - z, and
the Helmholtz splitting into two scalar Laplacian resolvents

    (-Delta* - z)^-1 g = (1/mu) (-Laplace - z/mu)^-1 g_S
                       + (1/(lam+2mu)) (-Laplace - z/(lam+2mu))^-1 g_P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .helmholtz import potential_amplitude
from .lattice import (
    Lattice,
    ScalarField,
    VectorField,
    _adopt,
    _frequency_dot,
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
        if self.lam + 2.0 * self.mu <= 0.0:
            raise ValueError(f"lam + 2 mu must be positive, got {self.lam + 2.0 * self.mu}")

    @property
    def longitudinal(self) -> float:
        """Modulus lam + 2 mu seen by the gradient (P-wave) part."""
        return self.lam + 2.0 * self.mu


@dataclass(frozen=True)
class Potential:
    """Complex potential samples with support bookkeeping.

    The support mask marks grid points where V is exactly nonzero; the
    Birman-Schwinger kernels are restricted to it.
    """

    field: ScalarField

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.field.values)):
            raise ValueError("potential has non-finite samples")

    @classmethod
    def from_array(cls, lattice: Lattice, values) -> "Potential":
        return cls(ScalarField(lattice, values))

    @property
    def lattice(self) -> Lattice:
        return self.field.lattice

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @cached_property
    def support_mask(self) -> np.ndarray:
        mask = self.field.values != 0.0
        mask.setflags(write=False)
        return mask

    @cached_property
    def support_box(self):
        """Half-open index ranges ((lo, hi), ...) per axis, None if V == 0."""
        if not self.support_mask.any():
            return None
        idx = np.argwhere(self.support_mask)
        return tuple((int(lo), int(hi) + 1) for lo, hi in zip(idx.min(0), idx.max(0)))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.field.values.imag == 0.0))


def distance_to_ray(z: complex) -> float:
    """Distance from z to the half line [0, infinity)."""
    z = complex(z)
    if z.real >= 0.0:
        return abs(z.imag)
    return abs(z)


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


def resolvent_split(params: LameParams, z: complex, g: VectorField) -> VectorField:
    """Resolvent via the Helmholtz splitting into scalar resolvents.

    With ghat = gs + gp (gp = xi q, the potential part) it forms
    gs / (mu |xi|^2 - z) + gp / ((lam + 2 mu) |xi|^2 - z) in place, as
    ghat / (mu |xi|^2 - z) plus gp times the two resolvents' difference.  One
    forward and one inverse transform; ``g`` is untouched, the result read-only.
    """
    _check_admissible(z)
    lat = g.lattice
    xi2 = lat.frequency_norm2
    ghat = forward_transform(g).values
    q = potential_amplitude(lat, ghat)
    shear = np.reciprocal(params.mu * xi2 - z)
    q *= np.reciprocal(params.longitudinal * xi2 - z) - shear
    out = ghat * shear
    del ghat  # frees the coefficients before the inverse transform allocates
    for k, xi_k in enumerate(lat.frequency_grid):
        out[k] += xi_k * q
    return inverse_transform(_adopt(VectorField, lat, out))


def apply_perturbed(params: LameParams, V: Potential, u: VectorField) -> VectorField:
    """Apply -Delta* + V with V acting componentwise by multiplication."""
    if V.lattice != u.lattice:
        raise ValueError("potential and field live on different lattices")
    out = apply_lame(params, u)
    return _adopt(VectorField, u.lattice, out.values + V.values[None] * u.values)
