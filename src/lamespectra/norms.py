"""Potential norms: L^p, weighted L^q, Morrey-Campanato, Kerman-Sayer, A_p.

All integrals are lattice quadrature sums with weight h^dim.  Balls and
kernel distances use plain Euclidean distance with the potential extended by
zero outside the cell (no periodic wrapping); ball membership is decided in
exact integer arithmetic so independent scans agree bit for bit.  Dyadic
cubes run from the whole cell down to single cells when n is a power of two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import DEFAULT_BUDGET_BYTES, BudgetExceeded, Lattice, ScalarField, scalar_lp_norm
from .lame import Potential

__all__ = [
    "DyadicCube",
    "NormResult",
    "dyadic_level_max",
    "dyadic_cubes",
    "dyadic_radius_exponents",
    "polynomial_weight",
    "lp_norm",
    "weighted_lq_norm",
    "morrey_campanato_norm",
    "kerman_sayer_norm",
    "muckenhoupt_constant",
    "mc_ball_value",
    "ks_cube_value",
    "ap_cube_value",
    "norm_result",
]

EPS_MASS = 0.0
EPS_WEIGHT = 1e-12


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic sub-cube: level 0 is the whole cell, each level halves the side."""

    level: int
    corner: tuple
    side: int  # in grid cells

    def slices(self) -> tuple:
        return tuple(slice(c, c + self.side) for c in self.corner)

    def to_dict(self) -> dict:
        return {"level": self.level, "corner": list(self.corner), "side": self.side}


@dataclass(frozen=True)
class NormResult:
    """A computed norm with the argmax witness that reproduces it."""

    norm_name: str
    params: dict
    value: float
    witness: dict | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "norm_name": self.norm_name,
            "params": self.params,
            "value": float(self.value),
            "witness": self.witness,
        }


def dyadic_level_max(n: int) -> int:
    """Number of exact halvings of n (equals log2 n for powers of two)."""
    level = 0
    while n % 2 == 0:
        n //= 2
        level += 1
    return level


def dyadic_cubes(lattice: Lattice):
    """Yield every dyadic cube of the cell, coarse to fine, row-major corners."""
    n = lattice.n
    for level in range(dyadic_level_max(n) + 1):
        side = n >> level
        starts = range(0, n, side)
        for corner in np.ndindex(*((len(starts),) * lattice.dim)):
            yield DyadicCube(level, tuple(c * side for c in corner), side)


def dyadic_radius_exponents(lattice: Lattice) -> list:
    """Exponents j with radius h * 2^j <= L/2, i.e. 2^j <= n/2."""
    out = []
    j = 0
    while 2**j <= lattice.n // 2:
        out.append(j)
        j += 1
    return out


def polynomial_weight(lattice: Lattice, alpha: float) -> np.ndarray:
    """Weight <x>^(2 alpha) = (1 + |x|^2)^alpha at cell-centered coordinates."""
    x = lattice.coordinates(centered=True)
    return (1.0 + np.sum(x**2, axis=0)) ** alpha


# -- plain and weighted Lebesgue norms ---------------------------------------


def lp_norm(V: Potential, p: float) -> float:
    """Quadrature L^p norm of the potential, p >= 1."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return scalar_lp_norm(V.field, p)


def weighted_lq_norm(V: Potential, q: float, alpha: float) -> float:
    """Norm of V in L^q with weight <x>^(2 alpha), cell-centered."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    lat = V.lattice
    w = polynomial_weight(lat, alpha)
    total = np.sum(np.abs(V.values) ** q * w) * lat.cell_volume
    return float(total) ** (1.0 / q)


# -- Morrey-Campanato --------------------------------------------------------


def mc_ball_value(V: Potential, alpha: float, p: float, center: tuple, j: int) -> float:
    """Candidate r^alpha (r^-dim Int_{B_r(x)} |V|^p)^(1/p) for one ball.

    ``center`` is a grid multi-index and the radius is h * 2^j; membership is
    the exact integer test |offset|^2 <= 4^j.
    """
    lat = V.lattice
    d = lat.dim
    h = lat.spacing
    W = (np.abs(V.values) ** p).reshape(-1)
    idx = np.indices(lat.shape).reshape(d, -1).T
    diff = idx - np.asarray(center, dtype=idx.dtype)
    m = np.sum(diff * diff, axis=1)
    mask = m <= 4**j
    integral = np.sum(W[mask]) * h**d
    r = h * float(2**j)
    return r**alpha * (integral / r**d) ** (1.0 / p)


# A screened ball sum and mc_ball_value's np.sum each add at most N
# nonnegative terms, so each lies within (N-1)u of the exact ball sum
# (u = 2^-53); the candidate formula adds a few ulps.  The true maximum's
# screened candidate is thus at least (1 - 4(N+8)u) times the screened top,
# and this slack keeps it (and every exact tie) while N < 2e6.
_MC_SLACK = 1e-9


def morrey_campanato_norm(V: Potential, alpha: float, p: float,
                          return_witness: bool = False):
    """Discrete Morrey-Campanato norm over grid centers and dyadic radii.

    sup over centers x and radii r in {h, 2h, ..., L/2} of
    r^alpha (r^-dim sum_{|y-x| <= r} |V(y)|^p h^dim)^(1/p).

    All ball sums are screened at once by shifted adds of the zero-padded
    |V|^p; every candidate within ``_MC_SLACK`` of the screened top is then
    re-evaluated by :func:`mc_ball_value`, center-major then radius order,
    so value and witness are those of the exhaustive scan.
    """
    lat = V.lattice
    d = lat.dim
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0.0 < alpha <= d / p:
        raise ValueError(f"alpha must lie in (0, dim/p] = (0, {d / p}], got {alpha}")
    h = lat.spacing
    n = lat.n
    exponents = dyadic_radius_exponents(lat)
    R = 2 ** exponents[-1]
    padded = np.pad(np.abs(V.values) ** p, R)
    offsets = np.indices((2 * R + 1,) * d).reshape(d, -1).T - R
    m = np.sum(offsets * offsets, axis=1)
    sums = np.zeros(lat.shape)
    cands = np.empty(lat.shape + (len(exponents),))
    inner = -1
    for j in exponents:
        for off in offsets[(m > inner) & (m <= 4**j)]:
            sums += padded[tuple(slice(R + o, R + o + n) for o in off)]
        inner = 4**j
        r = h * float(2**j)
        cands[..., j] = r**alpha * (sums * h**d / r**d) ** (1.0 / p)
    top = cands.max()
    best = 0.0
    best_witness = None
    if top > 0.0:
        for *center, j in np.argwhere(cands >= top * (1.0 - _MC_SLACK)).tolist():
            cand = mc_ball_value(V, alpha, p, tuple(center), j)
            if cand > best:
                best = cand
                best_witness = {"center": center, "radius_exponent": j}
    if return_witness:
        return best, best_witness
    return best


# -- dyadic levels -----------------------------------------------------------


def _cube_block(values: np.ndarray, cube: DyadicCube) -> np.ndarray:
    return values[cube.slices()].flatten()


def _level_blocks(values: np.ndarray, side: int) -> np.ndarray:
    """One dyadic level as a contiguous (cubes, side^dim) array.

    Rows follow :func:`dyadic_cubes` (row-major corners) and hold each cube's
    cells in row-major order, as ``_cube_block`` lays them out.
    """
    d = values.ndim
    k = values.shape[0] // side
    split = values.reshape((k, side) * d)
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
    return np.ascontiguousarray(split.transpose(order)).reshape(k**d, side**d)


def _level_cube(level: int, side: int, index: int, dim: int) -> DyadicCube:
    corner = np.unravel_index(index, (2**level,) * dim)
    return DyadicCube(level, tuple(int(c) * side for c in corner), side)


def _first_above(cand: np.ndarray, best: float):
    """Index of the first maximal entry of ``cand`` above ``best``, or None.

    The same pick as a scan in index order that updates on strict ``>``.
    """
    i = int(np.argmax(np.where(cand > best, cand, -np.inf)))
    return i if cand[i] > best else None


# -- Kerman-Sayer ------------------------------------------------------------

# products per block when filling a numerator buffer; keeps the block
# temporaries small next to the N x N buffer
_KS_BLOCK = 1 << 16


def _ks_kernel(lattice: Lattice, side: int, alpha: float) -> np.ndarray:
    """Pairwise |x-y|^(alpha-dim) inside one cube, zero on the diagonal.

    The power is evaluated once per nonnegative offset, on its integer
    squared length, and reflected to the offsets -(side-1)..side-1 per
    axis; kernel row x is the window of that table starting at offset -x.
    """
    d = lattice.dim
    m = sum(np.ix_(*(np.arange(side) ** 2,) * d)).reshape(-1)
    table = np.zeros(m.shape)
    table[1:] = (lattice.spacing * np.sqrt(m[1:])) ** (alpha - d)
    fold = np.abs(np.arange(1 - side, side))
    offsets = table.reshape((side,) * d)[np.ix_(*(fold,) * d)]
    kern = np.empty((side,) * (2 * d))
    kern[...] = sliding_window_view(offsets, (side,) * d)[(slice(None, None, -1),) * d]
    return kern.reshape(side**d, side**d)


def _ks_numerators(lattice: Lattice, side: int, alpha: float, W: np.ndarray) -> np.ndarray:
    """IntInt_{QxQ, x!=y} |V(x)||V(y)| |x-y|^(alpha-dim) for each row of W.

    Rows of W hold the cells of cubes of one side.  The products fill one
    buffer block by block (the kernel's own buffer for a single cube), and
    one np.sum per cube over its contiguous slab keeps the pairwise-summation
    tree, and so every bit, of the dense expression
    np.sum((w[:, None] * w[None, :]) * kern * h**(2 dim)).
    """
    cubes, K = W.shape
    kern = _ks_kernel(lattice, side, alpha)[None]
    P = kern if cubes == 1 else np.empty((cubes, K, K))
    per_chunk = max(1, _KS_BLOCK // K**2)
    per_rows = min(K, max(1, _KS_BLOCK // K))
    for c in range(0, cubes, per_chunk):
        ch = slice(c, c + per_chunk)
        for r in range(0, K, per_rows):
            rows = slice(r, r + per_rows)
            np.multiply(kern[:, rows], W[ch, rows, None] * W[ch, None, :], out=P[ch, rows])
    P *= lattice.spacing ** (2 * lattice.dim)
    return np.sum(P.reshape(cubes, K * K), axis=1)


def _ks_bytes(lattice: Lattice) -> int:
    """Modelled peak of the KS scan: the whole-cell N x N buffer, the
    row-block temporaries and a few length-N arrays."""
    npts = lattice.npoints
    return 8 * (npts**2 + 2 * max(_KS_BLOCK, npts) + 4 * npts)


def ks_cube_value(V: Potential, alpha: float, cube: DyadicCube,
                  eps_mass: float = EPS_MASS) -> float:
    """Ratio (Int_Q |V|)^-1 IntInt_{QxQ, x!=y} |V(x)||V(y)| |x-y|^(alpha-dim)."""
    lat = V.lattice
    w = _cube_block(np.abs(V.values), cube)
    mass = np.sum(w) * lat.spacing**lat.dim
    if not mass > eps_mass:
        return 0.0
    return float(_ks_numerators(lat, cube.side, alpha, w[None])[0] / mass)


def kerman_sayer_norm(V: Potential, alpha: float, eps_mass: float = EPS_MASS,
                      return_witness: bool = False,
                      budget_bytes: int = DEFAULT_BUDGET_BYTES):
    """Discrete Kerman-Sayer norm over the dyadic cube family.

    Cubes with quadrature mass <= eps_mass are skipped; single-cell cubes
    contribute zero because the diagonal is excluded.  Raises
    :class:`BudgetExceeded`, before allocating, when the N x N scan would
    not fit ``budget_bytes``.
    """
    lat = V.lattice
    d = lat.dim
    if not 0.0 < alpha < d:
        raise ValueError(f"alpha must lie in (0, dim) = (0, {d}), got {alpha}")
    need = _ks_bytes(lat)
    if need > budget_bytes:
        raise BudgetExceeded(
            f"Kerman-Sayer scan over N = {lat.npoints} cells needs {need / 1e6:.0f} MB, "
            f"budget is {budget_bytes / 1e6:.0f} MB"
        )
    h = lat.spacing
    absV = np.abs(V.values)
    best = 0.0
    best_witness = None
    for level in range(dyadic_level_max(lat.n) + 1):
        side = lat.n >> level
        W = _level_blocks(absV, side)
        mass = np.sum(W, axis=1) * h**d
        kept = np.flatnonzero(mass > eps_mass)
        if kept.size == 0:
            continue
        cand = _ks_numerators(lat, side, alpha, W[kept]) / mass[kept]
        i = _first_above(cand, best)
        if i is not None:
            best = float(cand[i])
            best_witness = _level_cube(level, side, int(kept[i]), d).to_dict()
    if return_witness:
        return best, best_witness
    return best


# -- Muckenhoupt -------------------------------------------------------------


def _checked_weight(w: ScalarField, eps_w: float) -> np.ndarray:
    values = w.values
    if np.any(values.imag != 0.0):
        raise ValueError("weight must be real")
    values = values.real
    if np.any(values < 0.0):
        raise ValueError("weight must be nonnegative")
    if np.any(values == 0.0):
        warnings.warn(
            f"weight vanishes on {int(np.sum(values == 0.0))} cells; flooring at {eps_w}",
            stacklevel=3,
        )
        values = np.maximum(values, eps_w)
    return values


def ap_cube_value(w: ScalarField, p: float, cube: DyadicCube,
                  eps_w: float = EPS_WEIGHT) -> float:
    """Candidate (avg_Q w) (avg_Q w^(-1/(p-1)))^(p-1) for one cube."""
    values = _checked_weight(w, eps_w)
    block = _cube_block(values, cube)
    m1 = np.mean(block)
    m2 = np.mean(block ** (-1.0 / (p - 1.0)))
    return float(m1 * m2 ** (p - 1.0))


def muckenhoupt_constant(w: ScalarField, p: float, eps_w: float = EPS_WEIGHT,
                         return_witness: bool = False):
    """A_p characteristic over the dyadic cube family.

    Zero cells are floored at eps_w (reported through a warning); p <= 1 is
    rejected.  Constant weights give 1 up to rounding of the reciprocal.
    """
    if p <= 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    values = np.ascontiguousarray(_checked_weight(w, eps_w))
    dual = values ** (-1.0 / (p - 1.0))
    n = w.lattice.n
    best = 0.0
    best_witness = None
    for level in range(dyadic_level_max(n) + 1):
        side = n >> level
        m1 = np.mean(_level_blocks(values, side), axis=1).tolist()
        m2 = np.mean(_level_blocks(dual, side), axis=1).tolist()
        # scalar powers: numpy's vectorised power rounds differently from libm's
        cand = np.array([a * b ** (p - 1.0) for a, b in zip(m1, m2)])
        i = _first_above(cand, best)
        if i is not None:
            best = float(cand[i])
            best_witness = _level_cube(level, side, i, values.ndim).to_dict()
    if return_witness:
        return best, best_witness
    return best


# -- reporting ---------------------------------------------------------------


def norm_result(name: str, V: Potential, budget_bytes: int = DEFAULT_BUDGET_BYTES,
                **params) -> NormResult:
    """Compute a named norm with its witness, packaged for serialization.

    ``budget_bytes`` bounds the memory of the Kerman-Sayer scan.
    """
    if name == "lp":
        p = params["p"]
        value = lp_norm(V, p)
        flat = int(np.argmax(np.abs(V.values)))
        witness = {"argmax_index": [int(i) for i in np.unravel_index(flat, V.lattice.shape)]}
        return NormResult("lp", {"p": p}, value, witness)
    if name == "weighted_lq":
        q, alpha = params["q"], params["alpha"]
        value = weighted_lq_norm(V, q, alpha)
        w = polynomial_weight(V.lattice, alpha)
        flat = int(np.argmax(np.abs(V.values) ** q * w))
        witness = {"argmax_index": [int(i) for i in np.unravel_index(flat, V.lattice.shape)]}
        return NormResult("weighted_lq", {"q": q, "alpha": alpha}, value, witness)
    if name == "morrey_campanato":
        alpha, p = params["alpha"], params["p"]
        value, witness = morrey_campanato_norm(V, alpha, p, return_witness=True)
        return NormResult("morrey_campanato", {"alpha": alpha, "p": p}, value, witness)
    if name == "kerman_sayer":
        alpha = params["alpha"]
        eps_mass = params.get("eps_mass", EPS_MASS)
        value, witness = kerman_sayer_norm(V, alpha, eps_mass=eps_mass, return_witness=True,
                                           budget_bytes=budget_bytes)
        return NormResult("kerman_sayer", {"alpha": alpha, "eps_mass": eps_mass}, value, witness)
    if name == "muckenhoupt":
        p = params["p"]
        eps_w = params.get("eps_w", EPS_WEIGHT)
        w = ScalarField(V.lattice, np.abs(V.values))
        value, witness = muckenhoupt_constant(w, p, eps_w=eps_w, return_witness=True)
        return NormResult("muckenhoupt", {"p": p, "eps_w": eps_w}, value, witness)
    raise ValueError(f"unknown norm {name!r}")
