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

from . import trace
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
    "NormResult",
    "dyadic_level_max",
    "dyadic_radius_exponents",
    "polynomial_weight",
    "lp_norm",
    "weighted_lq_norm",
    "morrey_campanato_norm",
    "kerman_sayer_norm",
    "muckenhoupt_constant",
    "norm_result",
    "check_norm",
    "NORM_PARAMS",
]

EPS_MASS = 0.0
EPS_WEIGHT = 1e-12


@dataclass(frozen=True)
class NormResult:
    """A computed norm with the witness naming its winning ball, cube or sample."""

    norm_name: str
    params: dict
    value: float
    witness: dict | None = field(default=None)


def dyadic_level_max(n: int) -> int:
    """Number of exact halvings of n (equals log2 n for powers of two)."""
    level = 0
    while n % 2 == 0:
        n //= 2
        level += 1
    return level


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


# -- parameter windows: one check per norm, callable without a scan ------------


def _check_lp(dim: int, p: float) -> None:
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")


def _check_weighted_lq(dim: int, q: float, alpha: float) -> None:
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")


def _check_morrey_campanato(dim: int, alpha: float, p: float) -> None:
    _check_lp(dim, p)
    if not 0.0 < alpha <= dim / p:
        raise ValueError(f"alpha must lie in (0, dim/p] = (0, {dim / p}], got {alpha}")


def _check_kerman_sayer(dim: int, alpha: float, eps_mass: float = EPS_MASS) -> None:
    if not 0.0 < alpha < dim:
        raise ValueError(f"alpha must lie in (0, dim) = (0, {dim}), got {alpha}")
    if not 0.0 <= eps_mass < math.inf:  # a negative floor divides zero-mass cubes by zero
        raise ValueError(f"eps_mass must be finite and >= 0, got {eps_mass}")


def _check_muckenhoupt(dim: int, p: float, eps_w: float = EPS_WEIGHT) -> None:
    if not p > 1.0:
        raise ValueError(f"p must be > 1, got {p}")
    if not eps_w > 0.0:  # a floor at 0 leaves the dual weight w^(-1/(p-1)) infinite
        raise ValueError(f"eps_w must be > 0, got {eps_w}")


def _check_scan_budget(scan: str, lattice: Lattice, need: int, budget_bytes: int) -> None:
    """Raise :class:`BudgetExceeded` when a scan's modelled peak ``need`` exceeds the budget."""
    if need > budget_bytes:
        raise BudgetExceeded(
            f"{scan} scan over N = {lattice.npoints} cells needs {_format_bytes(need)}, "
            f"budget is {_format_bytes(budget_bytes)}"
        )


# -- plain and weighted Lebesgue norms ---------------------------------------


def lp_norm(V: Potential, p: float) -> float:
    """Quadrature L^p norm of the potential, p >= 1."""
    _check_lp(V.lattice.dim, p)
    with trace.stage("norm.lp"):
        return scalar_lp_norm(V, p)


def weighted_lq_norm(V: Potential, q: float, alpha: float) -> float:
    """Norm of V in L^q with weight <x>^(2 alpha), cell-centered."""
    _check_weighted_lq(V.lattice.dim, q, alpha)
    lat = V.lattice
    with trace.stage("norm.weighted_lq"):
        w = polynomial_weight(lat, alpha)
        total = np.sum(np.abs(V.values) ** q * w) * lat.cell_volume
        return float(total) ** (1.0 / q)


# -- Morrey-Campanato --------------------------------------------------------


def _offset_norms(dim: int, R: int) -> np.ndarray:
    """|offset|^2 of the integer offsets in [-R, R]^dim, as a (2R+1,)*dim grid."""
    return sum(a * a for a in np.ogrid[(slice(-R, R + 1),) * dim])


def _mc_ball(lat: Lattice, W: np.ndarray, m: np.ndarray, alpha: float, p: float,
             center, j: int) -> float:
    # r^alpha (r^-dim Int_{B_r(center)} |V|^p)^(1/p), r = h 2^j, from W = |V|^p and
    # m = _offset_norms(dim, R >= 2^j); membership is |offset|^2 <= 4^j in integers,
    # and the ball's clipped box yields, in row-major order, what a whole-grid mask picks.
    h = lat.spacing
    rad = 2**j
    R = m.shape[0] // 2
    box = tuple(slice(max(c - rad, 0), min(c + rad + 1, lat.n)) for c in center)
    cut = tuple(slice(b.start - c + R, b.stop - c + R) for b, c in zip(box, center))
    integral = np.sum(W[box][m[cut] <= 4**j]) * h**lat.dim
    r = h * float(rad)
    return r**alpha * (integral / r**lat.dim) ** (1.0 / p)


def _mc_rows(r: int, dim: int) -> tuple:
    """The rows along the last axis that make up a ball of radius r.

    Returns (o, w): o, of shape (rows, dim-1), holds the offsets in the first
    dim-1 axes with |o|^2 <= r^2, and w = isqrt(r^2 - |o|^2), so the ball is
    the union of the rows o x [-w, w].  In 1d that is one row, () x [-r, r].
    """
    side = 2 * r + 1
    o = np.indices((side,) * (dim - 1)).reshape(dim - 1, side ** (dim - 1)).T - r
    k = r * r - np.sum(o * o, axis=1)
    o = o[k >= 0]
    return o, np.array([math.isqrt(x) for x in k[k >= 0].tolist()], dtype=int)


# A screened ball sum is a tree of adds over the ball's terms and padded
# zeros (each row window, then the rows), and _mc_ball's np.sum adds
# the same terms in another order; adding +0.0 is exact, so each adds at most
# N nonnegative terms and lies within (N-1)u of the exact ball sum (u =
# 2^-53).  The candidate formula adds a few ulps.  The true maximum's
# screened candidate is thus at least (1 - 4(N+8)u) times the screened top,
# and this slack keeps it (and every exact tie) while N < 2e6.
_MC_SLACK = 1e-9

# Centers whose screened candidates are compared at once; bounds the index
# arrays of the re-evaluation whatever the number of ties.
_MC_CHUNK = 256


def _mc_bytes(lattice: Lattice) -> int:
    """Modelled peak of the Morrey-Campanato scan, in bytes.

    Held throughout: |V|^p and one ball sum per center and radius, turned
    into the candidates in place ((1 + radii) N floats).  The screen adds
    the copy of |V|^p zero-padded by R = 2^jmax on every side ((n + 2R)^dim),
    the row-window sums S_w ((n + 2R)^(dim-1) n) and the rows of every
    radius (dim integers each, at most (2r + 1)^(dim-1) of radius r).  The
    re-evaluation adds the squared offset norms ((2R + 1)^dim), one chunk's
    mask and indices (17 bytes per candidate) and the box, mask and picked
    terms of one ball (at most N each).  Plus the buffers numpy's ufunc
    loops may take for strided operands, and 16 kB for index arrays and
    scalars.
    """
    npts = lattice.npoints
    n, d = lattice.n, lattice.dim
    radii = len(dyadic_radius_exponents(lattice))
    R = 2 ** (radii - 1)
    rows = d * sum((2 * 2**j + 1) ** (d - 1) for j in range(radii))
    screen = (n + 2 * R) ** d + (n + 2 * R) ** (d - 1) * n + rows
    chunk = _MC_CHUNK * radii * 17 // 8
    reevaluate = (2 * R + 1) ** d + chunk + 2 * npts + npts // 8
    return 8 * ((1 + radii) * npts + max(screen, reevaluate) + 2 * np.getbufsize() + 2048)


def morrey_campanato_norm(V: Potential, alpha: float, p: float,
                          budget_bytes: int = DEFAULT_BUDGET_BYTES) -> NormResult:
    """Discrete Morrey-Campanato norm over grid centers and dyadic radii.

    sup over centers x and radii r in {h, 2h, ..., L/2} of
    r^alpha (r^-dim sum_{|y-x| <= r} |V(y)|^p h^dim)^(1/p).

    All ball sums are screened at once from window sums along the last axis:
    S_w, the sum of the zero-padded |V|^p over x_last - w .. x_last + w,
    grows by two shifted adds per w, and a ball of radius r is the sum of
    S_w shifted by o over its rows (o, w) (:func:`_mc_rows`).  Every
    candidate within ``_MC_SLACK`` of the screened top is then re-evaluated
    by :func:`_mc_ball`, center-major then radius order, so value
    and witness are those of the exhaustive scan.  Raises
    :class:`BudgetExceeded`, before any work, when the modelled peak
    (:func:`_mc_bytes`) would not fit ``budget_bytes``.  The call logs
    trace stage ``norm.morrey_campanato`` with ``slab_adds`` (whole-grid adds
    of the screen) and ``candidates_reevaluated``.
    """
    lat = V.lattice
    d = lat.dim
    _check_morrey_campanato(d, alpha, p)
    _check_scan_budget("Morrey-Campanato", lat, _mc_bytes(lat), budget_bytes)
    with trace.stage("norm.morrey_campanato") as counts:
        h = lat.spacing
        n = lat.n
        exponents = dyadic_radius_exponents(lat)
        R = 2 ** exponents[-1]
        W = np.abs(V.values) ** p
        padded = np.zeros((n + 2 * R,) * d)
        padded[(slice(R, R + n),) * d] = W
        rows = [_mc_rows(2**j, d) for j in exponents]
        cands = np.zeros((len(exponents),) + lat.shape)
        S = padded[..., R:R + n].copy()
        for w in range(R + 1):
            if w:
                S += padded[..., R - w:R - w + n]
                S += padded[..., R + w:R + w + n]
            for j, (o, half) in zip(exponents, rows):
                for a in o[half == w].tolist():
                    cands[j] += S[tuple(slice(R + x, R + x + n) for x in a)]
        counts["slab_adds"] = 2 * R + sum(len(half) for _, half in rows)
        del padded, S, rows
        for j in exponents:
            r = h * float(2**j)
            cands[j] = r**alpha * (cands[j] * h**d / r**d) ** (1.0 / p)
        top = cands.max()
        best = 0.0
        best_witness = None
        counts["candidates_reevaluated"] = 0
        if top > 0.0:
            m = _offset_norms(d, R)
            flat = cands.reshape(len(exponents), -1)
            for lo in range(0, lat.npoints, _MC_CHUNK):
                at, radius = np.nonzero(flat[:, lo:lo + _MC_CHUNK].T >= top * (1.0 - _MC_SLACK))
                centers = np.unravel_index(lo + at, lat.shape)
                for *center, j in zip(*(c.tolist() for c in centers), radius.tolist()):
                    cand = _mc_ball(lat, W, m, alpha, p, center, j)
                    if cand > best:
                        best = cand
                        best_witness = {"center": center, "radius_exponent": j}
                counts["candidates_reevaluated"] += len(at)
        return NormResult("morrey_campanato", {"alpha": alpha, "p": p}, best, best_witness)


# -- dyadic levels -----------------------------------------------------------


def _level_blocks(values: np.ndarray, side: int) -> np.ndarray:
    """One dyadic level as a contiguous (cubes, side^dim) array.

    Rows follow the cubes' corners in row-major order and hold each cube's
    cells in row-major order.
    """
    d = values.ndim
    k = values.shape[0] // side
    split = values.reshape((k, side) * d)
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
    return np.ascontiguousarray(split.transpose(order)).reshape(k**d, side**d)


def _cube_witness(level: int, side: int, index: int, dim: int) -> dict:
    """Witness of the cube in row ``index`` of :func:`_level_blocks` at ``level``."""
    corner = np.unravel_index(index, (2**level,) * dim)
    return {"level": level, "corner": [int(c) * side for c in corner], "side": side}


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


def kerman_sayer_norm(V: Potential, alpha: float, eps_mass: float = EPS_MASS,
                      budget_bytes: int = DEFAULT_BUDGET_BYTES) -> NormResult:
    """Discrete Kerman-Sayer norm over the dyadic cube family.

    Cubes with quadrature mass <= eps_mass are skipped; single-cell cubes
    contribute zero because the diagonal is excluded.  Raises
    :class:`BudgetExceeded`, before any work, when the scan's chunk memory
    would not fit ``budget_bytes``.  The call logs trace stage
    ``norm.kerman_sayer`` with ``products_formed`` and
    ``products_skipped_zero`` over the cubes scanned.
    """
    lat = V.lattice
    d = lat.dim
    _check_kerman_sayer(d, alpha, eps_mass)
    _check_scan_budget("Kerman-Sayer", lat, _ks_bytes(lat), budget_bytes)
    with trace.stage("norm.kerman_sayer") as counts:
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
                best_witness = _cube_witness(level, side, int(kept[i]), d)
        return NormResult("kerman_sayer", {"alpha": alpha, "eps_mass": eps_mass}, best,
                          best_witness)


# -- Muckenhoupt -------------------------------------------------------------


def muckenhoupt_constant(w: ScalarField, p: float, eps_w: float = EPS_WEIGHT) -> NormResult:
    """A_p characteristic over the dyadic cube family.

    Zero cells are floored at eps_w > 0 (reported through a warning); p <= 1
    is rejected.  Constant weights give 1 up to rounding of the reciprocal.
    """
    _check_muckenhoupt(w.lattice.dim, p, eps_w)
    if np.any(w.values.imag != 0.0):
        raise ValueError("weight must be real")
    values = np.ascontiguousarray(w.values.real)
    if np.any(values < 0.0):
        raise ValueError("weight must be nonnegative")
    with trace.stage("norm.muckenhoupt"):
        if np.any(values == 0.0):
            warnings.warn(
                f"weight vanishes on {int(np.sum(values == 0.0))} cells; flooring at {eps_w}",
                stacklevel=2,
            )
            values = np.maximum(values, eps_w)
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
                best_witness = _cube_witness(level, side, i, values.ndim)
        return NormResult("muckenhoupt", {"p": p, "eps_w": eps_w}, best, best_witness)


# -- reporting ---------------------------------------------------------------


# the parameters of each named norm and their defaults; None marks a required one
NORM_PARAMS = {
    "lp": {"p": None},
    "weighted_lq": {"q": None, "alpha": None},
    "morrey_campanato": {"alpha": None, "p": None},
    "kerman_sayer": {"alpha": None, "eps_mass": EPS_MASS},
    "muckenhoupt": {"p": None, "eps_w": EPS_WEIGHT},
}

# the window check of each named norm: check(dim, **params) raises ValueError
_NORM_CHECKS = {
    "lp": _check_lp,
    "weighted_lq": _check_weighted_lq,
    "morrey_campanato": _check_morrey_campanato,
    "kerman_sayer": _check_kerman_sayer,
    "muckenhoupt": _check_muckenhoupt,
}


def check_norm(name: str, dim: int, params: dict) -> dict:
    """The parameters of the norm ``name`` with defaults filled in.

    Raises ValueError for an unknown norm, a missing or unexpected parameter
    (see :data:`NORM_PARAMS`), or a value outside the norm's window on a
    ``dim``-dimensional lattice, the check each scan makes before its work.
    """
    if name not in NORM_PARAMS:
        raise ValueError(f"unknown norm {name!r}")
    params = dict(params)
    for key, default in NORM_PARAMS[name].items():
        if key not in params and default is None:
            raise ValueError(f"norm {name!r} needs the parameter {key!r}")
        params.setdefault(key, default)
    unexpected = sorted(set(params) - set(NORM_PARAMS[name]))
    if unexpected:
        raise ValueError(f"norm {name!r} takes no parameter {unexpected[0]!r}")
    _NORM_CHECKS[name](dim, **params)
    return params


def norm_result(name: str, V: Potential, budget_bytes: int = DEFAULT_BUDGET_BYTES,
                **params) -> NormResult:
    """Compute a named norm with its witness, packaged for serialization.

    ``params`` are checked by :func:`check_norm`.  The scans return their own
    result; ``budget_bytes`` bounds the Morrey-Campanato and Kerman-Sayer
    scans.  The A_p constant is that of the weight |V|.
    """
    params = check_norm(name, V.lattice.dim, params)
    if name == "morrey_campanato":
        return morrey_campanato_norm(V, budget_bytes=budget_bytes, **params)
    if name == "kerman_sayer":
        return kerman_sayer_norm(V, budget_bytes=budget_bytes, **params)
    if name == "muckenhoupt":
        return muckenhoupt_constant(ScalarField(V.lattice, np.abs(V.values)), **params)
    if name == "lp":
        value = lp_norm(V, **params)
        weights = np.abs(V.values)
    else:
        value = weighted_lq_norm(V, **params)
        weights = np.abs(V.values) ** params["q"] * polynomial_weight(V.lattice, params["alpha"])
    flat = int(np.argmax(weights))
    witness = {"argmax_index": [int(i) for i in np.unravel_index(flat, V.lattice.shape)]}
    return NormResult(name, params, value, witness)
