"""Periodic lattices, sampled fields, and scalar Fourier multipliers.

Everything downstream works on a uniform lattice over the periodic cell
[0, L)^dim.  Frequencies are the integer modes 2*pi*k/L with k in
[-n/2, n/2); the Nyquist mode -n/2 is kept.  Transforms are normalized so
that Parseval holds exactly in the quadrature norms:

    sum |values|^2 * h^dim  ==  sum |coefficients|^2

which fixes the coefficient of the constant field c at c * L^(dim/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "BudgetExceeded",
    "Lattice",
    "ScalarField",
    "VectorField",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "scalar_lp_norm",
    "vector_lp_norm",
    "l2_inner",
    "l2_norm",
    "random_scalar_field",
    "random_vector_field",
]

DEFAULT_POINTS = {1: 128, 2: 64, 3: 32}
DEFAULT_BUDGET_BYTES = 512 * 1024**2


class BudgetExceeded(RuntimeError):
    """A dense matrix or an N x N scan would blow the memory budget."""


def _format_bytes(count: float) -> str:
    """A byte count in the largest decimal unit it reaches, B up to GB."""
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if count >= scale:
            value = count / scale
            return f"{value:.0f} {unit}" if value >= 10 else f"{value:.1f} {unit}"
    return f"{count:.0f} B"


@dataclass(frozen=True)
class Lattice:
    """Uniform periodic lattice on the cell [0, period)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    n : int
        Points per axis; even and at least 4.  Powers of two keep the
        dyadic cube machinery at full depth.
    period : float
        Side length L of the periodic cell.
    """

    dim: int
    n: int
    period: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if self.dim * self.n**self.dim > np.iinfo(np.intp).max:
            raise ValueError(f"n must keep dim * n**dim <= {np.iinfo(np.intp).max}, "
                             f"the most numpy can index")
        # the transform scales h^dim and L^(dim/2) must be nonzero and finite, and
        # the largest |xi|^2 finite; a |xi|^2 that underflows to 0 is allowed
        with np.errstate(over="ignore", under="ignore"):
            scales = np.float64(self.spacing) ** self.dim, np.float64(self.period) ** (self.dim / 2)
            xi2 = self.dim * np.float64(np.pi * self.n / self.period) ** 2
        if not all(0.0 < s < np.inf for s in scales) or not np.isfinite(xi2):
            raise ValueError(f"period {self.period} leaves h^dim, L^(dim/2) or the largest |xi|^2 "
                             f"outside the floating-point range at {self.dim}d n = {self.n}")

    @classmethod
    def default(cls, dim: int, period: float = 2.0 * np.pi) -> "Lattice":
        """Lattice with the stock resolution for the given dimension."""
        return cls(dim, DEFAULT_POINTS.get(dim, 0), period)  # a bad dim fails the dim check

    @property
    def spacing(self) -> float:
        return self.period / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies 2*pi*k/L along one axis, in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.period / self.n)

    def axis_integers(self) -> np.ndarray:
        """Integer mode numbers k in FFT order (Nyquist as -n/2)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    @cached_property
    def frequency_grid(self) -> np.ndarray:
        """Array of shape (dim, n, ..., n) with the frequency components."""
        axes = np.meshgrid(*([self.axis_frequencies()] * self.dim), indexing="ij")
        out = np.stack(axes)
        out.setflags(write=False)
        return out

    @cached_property
    def frequency_norm2(self) -> np.ndarray:
        """|xi|^2 on the frequency grid."""
        out = np.sum(self.frequency_grid**2, axis=0)
        out.setflags(write=False)
        return out

    def coordinates(self, centered: bool = False) -> np.ndarray:
        """Grid coordinates, shape (dim, n, ..., n).

        With ``centered=True`` the cell midpoint L/2 maps to the origin, so
        positions run over [-L/2, L/2); weight functions use this frame.
        """
        x = np.arange(self.n) * self.spacing
        if centered:
            x = x - self.period / 2.0
        axes = np.meshgrid(*([x] * self.dim), indexing="ij")
        return np.stack(axes)


def _as_field_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"values have shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _adopt(cls, lattice: Lattice, values: np.ndarray):
    """Wrap a complex array the library has just allocated, without a copy; freezes it."""
    shape = cls._shape(lattice)
    if values.shape != shape or values.dtype != np.complex128:
        raise ValueError(f"values are {values.dtype} {values.shape}, expected complex128 {shape}")
    values.setflags(write=False)
    field = object.__new__(cls)
    object.__setattr__(field, "lattice", lattice)
    object.__setattr__(field, "values", values)
    return field


class _Field:
    """Construction and arithmetic shared by the two field types."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_field_array(self.values, self._shape(self.lattice)))

    @classmethod
    def zeros(cls, lattice: Lattice):
        return cls(lattice, np.zeros(cls._shape(lattice)))

    def __add__(self, other):
        _check_same_lattice(self, other)
        return _adopt(type(self), self.lattice, self.values + other.values)

    def __sub__(self, other):
        _check_same_lattice(self, other)
        return _adopt(type(self), self.lattice, self.values - other.values)

    def __mul__(self, c):
        return _adopt(type(self), self.lattice, self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ScalarField(_Field):
    """Complex scalar samples on a lattice; copied and read-only as in :class:`VectorField`."""

    lattice: Lattice
    values: np.ndarray

    @staticmethod
    def _shape(lattice: Lattice) -> tuple:
        return lattice.shape

    @classmethod
    def from_function(cls, lattice: Lattice, fn, centered: bool = False) -> "ScalarField":
        """Sample ``fn`` on the grid; fn takes the (dim, ...) coordinate array."""
        return cls(lattice, fn(lattice.coordinates(centered=centered)))


@dataclass(frozen=True)
class VectorField(_Field):
    """Complex vector samples, one component per spatial axis.

    Stored as a single array of shape (dim, n, ..., n); ``component`` views
    single components as ScalarFields on the shared lattice.  The constructor
    copies ``values`` into a read-only complex array, so later writes to the
    caller's array never reach the field.  Arithmetic results and transforms
    wrap the arrays they compute without a second copy, also read-only.
    """

    lattice: Lattice
    values: np.ndarray

    @staticmethod
    def _shape(lattice: Lattice) -> tuple:
        return (lattice.dim,) + lattice.shape

    @classmethod
    def from_components(cls, components) -> "VectorField":
        components = list(components)
        lattice = components[0].lattice
        for c in components[1:]:
            if c.lattice != lattice:
                raise ValueError("components live on different lattices")
        if len(components) != lattice.dim:
            raise ValueError(f"need {lattice.dim} components, got {len(components)}")
        return _adopt(cls, lattice, np.stack([c.values for c in components]))

    def component(self, axis: int) -> ScalarField:
        return ScalarField(self.lattice, self.values[axis])

    @property
    def components(self) -> tuple:
        return tuple(self.component(j) for j in range(self.lattice.dim))


def _check_same_lattice(a, b) -> None:
    if a.lattice != b.lattice:
        raise ValueError("fields live on different lattices")


# -- transforms ---------------------------------------------------------------


def _forward_scale(lattice: Lattice) -> float:
    # h^d / L^(d/2): makes values -> coefficients unitary in the specced sense.
    return lattice.cell_volume / lattice.period ** (lattice.dim / 2.0)


def _forward_into(lattice: Lattice, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Coefficients of ``values`` written into ``out`` (which may be ``values``): FFT, then scale."""
    np.fft.fftn(values, axes=tuple(range(-lattice.dim, 0)), out=out)
    out *= _forward_scale(lattice)
    return out


def _inverse_into(lattice: Lattice, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Samples of the coefficients ``values`` written into ``out`` (which may be
    ``values``): multiply by the reciprocal scale, then inverse FFT in place.

    numpy divides complex by real as (a_r + a_i 0) (1/s), so the product has
    the bits of the quotient, up to the sign of an exactly zero part.
    """
    np.multiply(values, 1.0 / _forward_scale(lattice), out=out)
    np.fft.ifftn(out, axes=tuple(range(-lattice.dim, 0)), out=out)
    return out


def forward_transform(field):
    """Fourier coefficients of a field, as a field-shaped object.

    The returned object has the same type as the input; its ``values`` hold
    the coefficients indexed by FFT-ordered frequency, in one fresh array.
    """
    out = _forward_into(field.lattice, field.values, np.empty_like(field.values))
    return _adopt(type(field), field.lattice, out)


def inverse_transform(field):
    """Inverse of :func:`forward_transform`; round trip is identity to roundoff."""
    out = _inverse_into(field.lattice, field.values, np.empty_like(field.values))
    return _adopt(type(field), field.lattice, out)


def _frequency_dot(lattice: Lattice, fhat: np.ndarray) -> np.ndarray:
    """xi . fhat on the grid for coefficients (dim, *grid), summed axis by axis."""
    xi = lattice.frequency_grid
    out = xi[0] * fhat[0]
    for k in range(1, lattice.dim):
        out += xi[k] * fhat[k]
    return out


def apply_multiplier(sym, field):
    """Apply a Fourier multiplier: transform, multiply the symbol, invert.

    ``sym`` is the scalar symbol at every frequency, an array of
    ``lattice.shape`` in FFT order, cast to complex128; a VectorField takes
    it componentwise.  Raises ValueError for any other shape, or for a
    non-finite entry, naming the first one's integer frequency index.
    """
    if not isinstance(field, (ScalarField, VectorField)):
        raise TypeError(f"expected ScalarField or VectorField, got {type(field).__name__}")
    lattice = field.lattice
    if np.shape(sym) != lattice.shape:  # a callable has shape ()
        raise ValueError(f"symbol array has shape {np.shape(sym)}, expected {lattice.shape}")
    sym = np.asarray(sym, dtype=np.complex128)
    bad = ~np.isfinite(sym)
    if bad.any():
        k = lattice.axis_integers()[np.argwhere(bad)[0]]
        raise ValueError(f"multiplier is not finite at frequency index {tuple(k)}")
    fhat = forward_transform(field).values
    return inverse_transform(_adopt(type(field), lattice, fhat * sym))


# -- quadrature norms ---------------------------------------------------------


def _check_p(p: float) -> None:
    # the sum's formula at p = inf reads 1 for any field, not the sup norm
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")


def scalar_lp_norm(field, p: float) -> float:
    """Discrete L^p norm (sum |f|^p h^dim)^(1/p) of any field's values; finite p >= 1.

    A vector field's components enter one sum together, which rounds
    differently from :func:`vector_lp_norm`'s per-component sums.
    """
    _check_p(p)
    w = np.abs(field.values) ** p
    return float(np.sum(w) * field.lattice.cell_volume) ** (1.0 / p)


def vector_lp_norm(field: VectorField, p: float) -> float:
    """Vector L^p norm (sum_j ||u_j||_p^p)^(1/p)."""
    _check_p(p)
    total = sum(scalar_lp_norm(c, p) ** p for c in field.components)
    return float(total) ** (1.0 / p)


def l2_inner(a, b) -> complex:
    """Quadrature L^2 inner product <a, b> with the h^dim weight."""
    _check_same_lattice(a, b)
    return complex(np.vdot(a.values, b.values) * a.lattice.cell_volume)


def l2_norm(field) -> float:
    """Quadrature L^2 norm sqrt(<f, f>)."""
    return float(np.sqrt(l2_inner(field, field).real))


# -- random fields (deterministic under a seeded Generator) -------------------


def random_scalar_field(lattice: Lattice, rng: np.random.Generator) -> ScalarField:
    re = rng.standard_normal(lattice.shape)
    im = rng.standard_normal(lattice.shape)
    return ScalarField(lattice, re + 1j * im)


def random_vector_field(lattice: Lattice, rng: np.random.Generator) -> VectorField:
    shape = (lattice.dim,) + lattice.shape
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return VectorField(lattice, re + 1j * im)
