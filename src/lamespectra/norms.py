"""Potential norms: L^p, weighted L^q, Morrey-Campanato, Kerman-Sayer, A_p.

All integrals are lattice quadrature sums with weight h^dim.  Balls and
kernel distances use plain Euclidean distance with the potential extended by
zero outside the cell (no periodic wrapping); ball membership is decided in
exact integer arithmetic so independent scans agree bit for bit.  Dyadic
cubes run from the whole cell down to single cells when n is a power of two.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import (
    DEFAULT_BUDGET_BYTES,
    BudgetExceeded,
    Lattice,
    ScalarField,
    _format_bytes,
    scalar_lp_norm,
)
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
    # what the scan computed (the KS product counts); run metadata, kept out
    # of to_dict so the report stays byte-stable
    scan: dict = field(default_factory=dict)

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
    return _mc_ball(V.lattice, np.abs(V.values) ** p, _offset_norms(V.lattice.dim, 2**j),
                    alpha, p, center, j)


def _offset_norms(dim: int, R: int) -> np.ndarray:
    """|offset|^2 of the integer offsets in [-R, R]^dim, as a (2R+1,)*dim grid."""
    return sum(a * a for a in np.ogrid[(slice(-R, R + 1),) * dim])


def _mc_ball(lat: Lattice, W: np.ndarray, m: np.ndarray, alpha: float, p: float,
             center, j: int) -> float:
    # mc_ball_value from W = |V|^p and m = _offset_norms(dim, R >= 2^j): the ball's
    # clipped box yields, in row-major order, the sequence a whole-grid mask picks.
    h = lat.spacing
    rad = 2**j
    R = m.shape[0] // 2
    box = tuple(slice(max(c - rad, 0), min(c + rad + 1, lat.n)) for c in center)
    cut = tuple(slice(b.start - c + R, b.stop - c + R) for b, c in zip(box, center))
    integral = np.sum(W[box][m[cut] <= 4**j]) * h**lat.dim
    r = h * float(rad)
    return r**alpha * (integral / r**lat.dim) ** (1.0 / p)


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
    re-evaluated as :func:`mc_ball_value` does, center-major then radius order,
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
    W = np.abs(V.values) ** p
    padded = np.pad(W, R)
    offsets = np.indices((2 * R + 1,) * d).reshape(d, -1).T - R
    m = _offset_norms(d, R)
    sums = np.zeros(lat.shape)
    cands = np.empty(lat.shape + (len(exponents),))
    inner = -1
    for j in exponents:
        for off in offsets[((m > inner) & (m <= 4**j)).reshape(-1)]:
            sums += padded[tuple(slice(R + o, R + o + n) for o in off)]
        inner = 4**j
        r = h * float(2**j)
        cands[..., j] = r**alpha * (sums * h**d / r**d) ** (1.0 / p)
    top = cands.max()
    best = 0.0
    best_witness = None
    if top > 0.0:
        for *center, j in np.argwhere(cands >= top * (1.0 - _MC_SLACK)).tolist():
            cand = _mc_ball(lat, W, m, alpha, p, center, j)
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

# Products formed at once: one leaf of a cube's summation walk, or one chunk
# of small cubes.  The scan holds two buffers of this size besides O(N).
_KS_LEAF = 1 << 16


def _ks_windows(lattice: Lattice, side: int, alpha: float) -> np.ndarray:
    """Pairwise |x-y|^(alpha-dim) inside one cube as a (side,)*2dim view.

    The power is evaluated once per nonnegative offset, on its integer
    squared length, and reflected to the offsets -(side-1)..side-1 per
    axis; entry [x][y] (multi-indices) reads the window of that table
    starting at offset -x, so it is zero at x == y.
    """
    d = lattice.dim
    m = sum(np.ix_(*(np.arange(side) ** 2,) * d)).reshape(-1)
    table = np.zeros(m.shape)
    table[1:] = (lattice.spacing * np.sqrt(m[1:])) ** (alpha - d)
    fold = np.abs(np.arange(1 - side, side))
    offsets = table.reshape((side,) * d)[np.ix_(*(fold,) * d)]
    return sliding_window_view(offsets, (side,) * d)[(slice(None, None, -1),) * d]


def _row_boxes(start: int, stop: int, shape: tuple):
    """Boxes (tuples of slices) covering flat indices start..stop-1 of ``shape``.

    Row-major order; at most 2 len(shape) - 1 boxes.
    """
    if len(shape) == 1:
        yield (slice(start, stop),)
        return
    inner = math.prod(shape[1:])
    i0, r0 = divmod(start, inner)
    i1, r1 = divmod(stop, inner)
    if i0 == i1:
        for box in _row_boxes(r0, r1, shape[1:]):
            yield (slice(i0, i0 + 1),) + box
        return
    if r0:
        for box in _row_boxes(r0, inner, shape[1:]):
            yield (slice(i0, i0 + 1),) + box
        i0 += 1
    if i1 > i0:
        yield (slice(i0, i1),) + (slice(None),) * (len(shape) - 1)
    if r1:
        for box in _row_boxes(0, r1, shape[1:]):
            yield (slice(i1, i1 + 1),) + box


def _ks_rows_times(win: np.ndarray, start: int, rows: np.ndarray) -> None:
    """rows *= kernel rows of the cells start, start+1, ... (row-major)."""
    d = win.ndim // 2
    r = 0
    for box in _row_boxes(start, start + len(rows), win.shape[:d]):
        kern = win[box]
        m = math.prod(kern.shape[:d])
        seg = rows[r:r + m].reshape(kern.shape)
        np.multiply(kern, seg, out=seg)
        r += m


def _pairwise_sum(a: int, n: int, leaf, is_zero) -> float:
    """np.sum of elements a..a+n-1 of a run that is never built.

    Walks numpy's pairwise-summation tree (``pairwise_sum`` in
    numpy/_core/src/umath/loops_utils.h.src): a node of n > 128 elements is
    the sum of its halves split at n//2 - (n//2) % 8.  A node of at most
    ``_KS_LEAF`` elements is ``leaf(a, n)``, which must be np.sum of those
    elements; a node where ``is_zero(a, n)`` holds is +0.0.  For elements
    >= +0.0 the result is that of one np.sum over the run, bit for bit.
    """
    if is_zero(a, n):
        return 0.0
    if n <= _KS_LEAF:
        return leaf(a, n)
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, n2, leaf, is_zero) + _pairwise_sum(a + n2, n - n2, leaf, is_zero)


def _ks_slab_sum(win: np.ndarray, w: np.ndarray, scale: float, exact: bool,
                 buf: np.ndarray, counts: dict) -> float:
    """np.sum of one cube's products (kern * (w_x * w_y)) * scale, x-major.

    Leaves form their rows of products in ``buf`` (at least _KS_LEAF + 2K
    long).  A node whose rows, or whose columns within one row, all have
    w == 0 is skipped when ``exact`` says such products are +0.0 (finite w,
    kernel and scale).
    """
    K = w.size
    nonzero = np.concatenate(([0], np.cumsum(w != 0)))

    def is_zero(a, n):
        x0, x1 = a // K, (a + n - 1) // K + 1
        y0 = a - x0 * K
        zero = exact and (nonzero[x1] == nonzero[x0]
                          or (x1 - x0 == 1 and nonzero[y0 + n] == nonzero[y0]))
        if zero:
            counts["products_skipped_zero"] += n
        return zero

    def leaf(a, n):
        x0, x1 = a // K, (a + n - 1) // K + 1
        rows = buf[:(x1 - x0) * K].reshape(x1 - x0, K)
        np.multiply(w[x0:x1, None], w, out=rows)
        _ks_rows_times(win, x0, rows)
        y0 = a - x0 * K
        products = buf[y0:y0 + n]
        products *= scale
        counts["products_formed"] += n
        return np.sum(products)

    return _pairwise_sum(0, K * K, leaf, is_zero)


def _ks_numerators(lattice: Lattice, side: int, alpha: float, W: np.ndarray,
                   counts: dict) -> np.ndarray:
    """IntInt_{QxQ, x!=y} |V(x)||V(y)| |x-y|^(alpha-dim) for each row of W.

    Rows of W hold the cells of cubes of one side.  Each value is the bits
    of the dense expression np.sum((kern * (w[:, None] * w[None, :])) *
    h**(2 dim)): small cubes are summed in chunks of whole slabs, large ones
    along numpy's summation tree without forming their slab.  ``counts``
    gains the products formed and those skipped as exact zeros.
    """
    cubes, K = W.shape
    d = lattice.dim
    win = _ks_windows(lattice, side, alpha)
    scale = lattice.spacing ** (2 * d)
    if K * K > _KS_LEAF:
        # a zero weight gives +0.0 products only next to finite factors;
        # kernel row 0 holds the value of every offset
        finite = bool(np.isfinite(scale)) and bool(np.all(np.isfinite(win[(0,) * d])))
        buf = np.empty(_KS_LEAF + 2 * K)
        return np.array([_ks_slab_sum(win, w, scale, finite and bool(np.all(np.isfinite(w))),
                                      buf, counts) for w in W])
    kern = np.empty(win.shape)
    kern[...] = win
    kern = kern.reshape(K, K)
    per_chunk = _KS_LEAF // (K * K)
    buf = np.empty(min(cubes, per_chunk) * K * K)
    out = np.empty(cubes)
    for c in range(0, cubes, per_chunk):
        chunk = W[c:c + per_chunk]
        P = buf[:len(chunk) * K * K].reshape(len(chunk), K, K)
        np.multiply(chunk[:, :, None], chunk[:, None, :], out=P)
        P *= kern
        P *= scale
        out[c:c + per_chunk] = np.sum(P.reshape(len(chunk), K * K), axis=1)
    counts["products_formed"] += cubes * K * K
    return out


def _ks_bytes(lattice: Lattice) -> int:
    """Modelled peak of the KS scan, in bytes.

    Held throughout: |V|, one level's blocks and its kept blocks (3N
    floats).  Per level: the reflected offset table, (2 side - 1)^dim
    floats, and either one leaf buffer plus a cube's prefix counts (large
    cubes) or the cube kernel plus one chunk of slabs (small cubes).  Plus
    the buffers numpy's ufunc loops may take for strided operands, and 16 kB
    for index arrays and per-cube scalars.
    """
    npts = lattice.npoints
    d = lattice.dim
    worst = 0
    for level in range(dyadic_level_max(lattice.n) + 1):
        side = lattice.n >> level
        K = side**d
        if K * K > _KS_LEAF:
            work = _KS_LEAF + 4 * K
        else:
            work = K * K * (1 + min(npts // K, _KS_LEAF // (K * K)))
        worst = max(worst, (2 * side - 1) ** d + work)
    return 8 * (3 * npts + worst + 2 * np.getbufsize() + 2048)


def ks_cube_value(V: Potential, alpha: float, cube: DyadicCube,
                  eps_mass: float = EPS_MASS) -> float:
    """Ratio (Int_Q |V|)^-1 IntInt_{QxQ, x!=y} |V(x)||V(y)| |x-y|^(alpha-dim)."""
    lat = V.lattice
    w = _cube_block(np.abs(V.values), cube)
    mass = np.sum(w) * lat.spacing**lat.dim
    if not mass > eps_mass:
        return 0.0
    counts = {"products_formed": 0, "products_skipped_zero": 0}
    return float(_ks_numerators(lat, cube.side, alpha, w[None], counts)[0] / mass)


def kerman_sayer_norm(V: Potential, alpha: float, eps_mass: float = EPS_MASS,
                      return_witness: bool = False,
                      budget_bytes: int = DEFAULT_BUDGET_BYTES,
                      counts: dict | None = None):
    """Discrete Kerman-Sayer norm over the dyadic cube family.

    Cubes with quadrature mass <= eps_mass are skipped; single-cell cubes
    contribute zero because the diagonal is excluded.  Raises
    :class:`BudgetExceeded`, before any work, when the scan's chunk memory
    would not fit ``budget_bytes``.  A ``counts`` dict, if given, receives
    ``products_formed`` and ``products_skipped_zero`` over the cubes scanned.
    """
    lat = V.lattice
    d = lat.dim
    if not 0.0 < alpha < d:
        raise ValueError(f"alpha must lie in (0, dim) = (0, {d}), got {alpha}")
    need = _ks_bytes(lat)
    if need > budget_bytes:
        raise BudgetExceeded(
            f"Kerman-Sayer scan over N = {lat.npoints} cells needs {_format_bytes(need)}, "
            f"budget is {_format_bytes(budget_bytes)}"
        )
    if counts is None:
        counts = {}
    counts.update(products_formed=0, products_skipped_zero=0)
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
        cand = _ks_numerators(lat, side, alpha, W[kept], counts) / mass[kept]
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
        counts = {}
        value, witness = kerman_sayer_norm(V, alpha, eps_mass=eps_mass, return_witness=True,
                                           budget_bytes=budget_bytes, counts=counts)
        return NormResult("kerman_sayer", {"alpha": alpha, "eps_mass": eps_mass}, value, witness,
                          counts)
    if name == "muckenhoupt":
        p = params["p"]
        eps_w = params.get("eps_w", EPS_WEIGHT)
        w = ScalarField(V.lattice, np.abs(V.values))
        value, witness = muckenhoupt_constant(w, p, eps_w=eps_w, return_witness=True)
        return NormResult("muckenhoupt", {"p": p, "eps_w": eps_w}, value, witness)
    raise ValueError(f"unknown norm {name!r}")
