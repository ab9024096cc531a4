"""Helmholtz decomposition on the lattice via Riesz transforms.

The solenoidal part comes from the Leray projector, whose Fourier symbol is
I - xi xi^T / |xi|^2; the potential (gradient) part is the complement.  The
projector acts in coefficient space as fhat - xi (xi . fhat) / |xi|^2, with
no matrix symbol built.  The zero frequency is left in the solenoidal part
by convention: constants are divergence free and the potential part stays
mean free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .lattice import (
    Lattice,
    ScalarField,
    VectorField,
    _adopt,
    _frequency_dot,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    random_scalar_field,
)
from .operator_norms import lp_operator_norm

__all__ = [
    "HelmholtzPair",
    "riesz_transform",
    "potential_amplitude",
    "leray_coefficients",
    "leray_project",
    "helmholtz_decompose",
    "riesz_norm_bound",
    "splitting_lp_bound",
    "riesz_empirical_norm",
    "divergence",
    "gradient",
]


def _riesz_symbol(lattice: Lattice, axis: int) -> np.ndarray:
    """Symbol -i xi_axis / |xi|, set to 0 at xi = 0."""
    xi = lattice.frequency_grid[axis]
    norm = np.sqrt(lattice.frequency_norm2)
    with np.errstate(invalid="ignore", divide="ignore"):
        sym = np.where(norm > 0.0, -1j * xi / norm, 0.0)
    return sym.astype(np.complex128)


def riesz_transform(axis: int, phi: ScalarField) -> ScalarField:
    """Riesz transform R_axis phi (0-based axis)."""
    if not 0 <= axis < phi.lattice.dim:
        raise ValueError(f"axis {axis} out of range for dim {phi.lattice.dim}")
    return apply_multiplier(_riesz_symbol(phi.lattice, axis), phi)


def _inverse_norm2(lattice: Lattice) -> np.ndarray:
    """1 / |xi|^2 on the frequency grid, 0 at xi = 0; a fresh array."""
    xi2 = lattice.frequency_norm2
    return np.divide(1.0, xi2, out=np.zeros_like(xi2), where=xi2 > 0.0)


def potential_amplitude(lattice: Lattice, fhat: np.ndarray, inv_xi2=None) -> np.ndarray:
    """q = (xi . fhat) / |xi|^2, 0 at xi = 0; xi q is the potential part of fhat.

    ``inv_xi2`` is :func:`_inverse_norm2` of the lattice, built here when not
    given.  Multiplying by it has the bits of dividing by |xi|^2, up to the
    sign of an exactly zero part (see ``lattice._inverse_into``).
    """
    q = _frequency_dot(lattice, fhat)
    q *= _inverse_norm2(lattice) if inv_xi2 is None else inv_xi2
    return q


def leray_coefficients(lattice: Lattice, fhat: np.ndarray) -> np.ndarray:
    """Leray projection of Fourier coefficients (dim, *grid); identity at xi = 0."""
    out = np.multiply(lattice.frequency_grid, potential_amplitude(lattice, fhat))
    return np.subtract(fhat, out, out=out)


def leray_project(f: VectorField) -> VectorField:
    """Solenoidal projection of f; equals f_j + sum_k R_j R_k f_k.

    Projects the coefficients between one forward and one inverse transform.
    """
    fhat = leray_coefficients(f.lattice, forward_transform(f).values)
    return inverse_transform(_adopt(VectorField, f.lattice, fhat))


@dataclass(frozen=True)
class HelmholtzPair:
    """Solenoidal and potential parts of a vector field."""

    solenoidal: VectorField
    potential: VectorField

    def total(self) -> VectorField:
        return self.solenoidal + self.potential


def helmholtz_decompose(f: VectorField) -> HelmholtzPair:
    f_s = leray_project(f)
    return HelmholtzPair(solenoidal=f_s, potential=f - f_s)


def riesz_norm_bound(p: float) -> float:
    """Sharp L^p bound cot(pi / (2 p*)) with p* = max(p, p/(p-1))."""
    if not (np.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and > 1, got {p}")
    p_star = max(p, p / (p - 1.0))
    return 1.0 / math.tan(math.pi / (2.0 * p_star))


def splitting_lp_bound(p: float, dim: int) -> float:
    """Constant 1 + 2 c_p^2 d controlling ||u_S||_p + ||u_P||_p <= C ||u||_p."""
    c = riesz_norm_bound(p)
    return 1.0 + 2.0 * c * c * dim


def _axis_mode(lattice: Lattice, axis: int) -> ScalarField:
    """Pure oscillation along one axis at the largest positive mode."""
    k = np.zeros(lattice.dim)
    k[axis] = 2.0 * np.pi / lattice.period * (lattice.n // 2 - 1)
    x = lattice.coordinates()
    phase = np.tensordot(k, x, axes=(0, 0))
    return ScalarField(lattice, np.exp(1j * phase))


def riesz_empirical_norm(lattice: Lattice, axis: int, p: float, samples: int = 8,
                         n_iter: int = 30, seed: int = 0) -> float:
    """Empirical L^p -> L^p norm of R_axis on this lattice.

    Maximizes ||R_axis phi||_p / ||phi||_p over random starts refined by the
    nonlinear power method, plus a pure single-mode witness along the axis
    (which is extremal at p = 2).  A lower estimate by construction.
    """
    if not 0 <= axis < lattice.dim:
        raise ValueError(f"axis {axis} out of range for dim {lattice.dim}")
    sym = _riesz_symbol(lattice, axis)
    op = partial(apply_multiplier, sym)
    op_adj = partial(apply_multiplier, np.conj(sym))
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        start = random_scalar_field(lattice, rng)
        best = max(best, lp_operator_norm(op, op_adj, start, p, p, n_iter=n_iter))
    return max(best, lp_operator_norm(op, op_adj, _axis_mode(lattice, axis), p, p, n_iter=2))


def divergence(f: VectorField) -> ScalarField:
    """Spectral divergence sum_j d_j f_j."""
    xi = f.lattice.frequency_grid
    fhat = forward_transform(f).values
    div_hat = np.sum(1j * xi * fhat, axis=0)
    return inverse_transform(_adopt(ScalarField, f.lattice, div_hat))


def gradient(phi: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    xi = phi.lattice.frequency_grid
    phat = forward_transform(phi).values
    return inverse_transform(_adopt(VectorField, phi.lattice, 1j * xi * phat[None]))
