"""Compactly supported potential families and random ensembles.

All families vanish identically outside a sub-box of the cell no larger
than half the period, so the zero-extension conventions of the norm scans
and the support restriction of the Birman-Schwinger kernels apply cleanly.
Random ensembles draw every parameter from a seeded Generator.
"""

from __future__ import annotations

import numpy as np

from .lame import Potential
from .lattice import Lattice

__all__ = [
    "gaussian_bump",
    "square_well",
    "inverse_power",
    "random_ensemble",
    "ENSEMBLE_FAMILIES",
]


def _centered_radii(lattice: Lattice, center) -> tuple:
    """(r, r_inf): Euclidean and sup distance to the center on the grid."""
    x = lattice.coordinates()
    if center is None:
        center = (lattice.period / 2.0,) * lattice.dim
    center = np.asarray(center, dtype=float).reshape((lattice.dim,) + (1,) * lattice.dim)
    diff = x - center
    return np.sqrt(np.sum(diff**2, axis=0)), np.max(np.abs(diff), axis=0)


def gaussian_bump(lattice: Lattice, amplitude: complex, width: float,
                  center=None, support_radius: float | None = None) -> Potential:
    """A exp(-|x-c|^2 / 2 w^2), cut to zero outside |x-c| > support_radius.

    The default support radius is period/4, keeping the support inside the
    central half for a centered bump; widths of period/16 or less make the
    cut discontinuity negligible.
    """
    if support_radius is None:
        support_radius = lattice.period / 4.0
    r, _ = _centered_radii(lattice, center)
    values = amplitude * np.exp(-(r**2) / (2.0 * width**2))
    values[r > support_radius] = 0.0
    return Potential(lattice, values)


def square_well(lattice: Lattice, depth: complex, half_width: float,
                center=None) -> Potential:
    """V = -depth on the box |x-c|_inf <= half_width, zero outside."""
    _, r_inf = _centered_radii(lattice, center)
    values = np.where(r_inf <= half_width, -depth, 0.0).astype(complex)
    return Potential(lattice, values)


def inverse_power(lattice: Lattice, amplitude: complex, exponent: float,
                  cutoff_radius: float | None = None, core: float | None = None,
                  center=None) -> Potential:
    """A (|x-c|^2 + core^2)^(-exponent/2), cut to zero beyond cutoff_radius.

    The core (default one grid spacing) regularizes the on-grid singularity.
    """
    if cutoff_radius is None:
        cutoff_radius = lattice.period / 4.0
    if core is None:
        core = lattice.spacing
    r, _ = _centered_radii(lattice, center)
    values = amplitude * (r**2 + core**2) ** (-exponent / 2.0)
    values[r > cutoff_radius] = 0.0
    return Potential(lattice, values)


def _random_center(lattice: Lattice, rng: np.random.Generator, jitter: float):
    mid = lattice.period / 2.0
    return mid + rng.uniform(-jitter, jitter, size=lattice.dim)


def random_ensemble(lattice: Lattice, family: str, size: int, seed: int,
                    magnitude_range: tuple = (5.0, 40.0),
                    real_only: bool = False) -> list:
    """Deterministic list of random potentials of one family.

    Families: ``gaussian`` (complex Gaussian bumps), ``well`` (square wells
    with complex depth), ``inverse_power`` (cut |x|^-a profiles).  Phases are
    uniform on the circle unless ``real_only`` forces positive depths.
    """
    if family not in ENSEMBLE_FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {sorted(ENSEMBLE_FAMILIES)}")
    rng = np.random.default_rng(seed)
    L = lattice.period
    out = []
    for _ in range(size):
        mag = rng.uniform(*magnitude_range)
        phase = rng.uniform(-np.pi, np.pi)
        jitter = L / 16.0
        center = _random_center(lattice, rng, jitter)
        if family == "well":
            # the well convention already negates the depth
            amp = mag if real_only else mag * np.exp(1j * phase)
            half_width = rng.uniform(L / 16.0, L / 8.0)
            out.append(square_well(lattice, amp, half_width, center=center))
            continue
        amp = -mag if real_only else mag * np.exp(1j * phase)
        if family == "gaussian":
            width = rng.uniform(L / 16.0, L / 10.0)
            out.append(gaussian_bump(lattice, amp, width, center=center))
        else:
            exponent = rng.uniform(0.5, 1.5)
            out.append(inverse_power(lattice, amp, exponent, center=center))
    return out


ENSEMBLE_FAMILIES = ("gaussian", "well", "inverse_power")
