"""Potential norms: L^p, weighted L^q, Morrey-Campanato, Kerman-Sayer, A_p.

All integrals are lattice quadrature sums with weight h^dim.  Balls and
kernel distances use plain Euclidean distance with the potential extended by
zero outside the cell (no periodic wrapping); ball membership is decided in
exact integer arithmetic so independent scans agree bit for bit.  Dyadic
cubes run from the whole cell down to single cells when n is a power of two.
"""

from __future__ import annotations

import functools
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

# numpy sums a contiguous run along a pairwise tree (pairwise_sum in
# numpy/_core/src/umath/loops_utils.h.src): a node of more than
# _PAIRWISE_BLOCK elements is the sum of its halves split at
# n//2 - (n//2) % 8, and a node of at most that many is one block.
_PAIRWISE_BLOCK = 128

# Products formed at once: one chunk of small cubes.  A larger cube's
# summation tree is cut into leaves of at most this many products, and its
# blocks are formed at most this many products at a time.
_KS_LEAF = 1 << 16

# Products of one cube's summation tree whose leaves are found at once: a
# larger slab is walked down to subtrees of at most this many, and smaller
# slabs are taken this many products' worth of cubes at a time.
_KS_SPAN = 1 << 30

# Blocks, live or not, whose liveness is decided at once.
_KS_BATCH = 1 << 14


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


@functools.lru_cache(maxsize=16)
def _pairwise_parts(n: int, limit: int):
    """numpy's summation tree over a run of n elements, cut at nodes of <= limit.

    Returns (starts, sizes, steps): the parts (nodes of at most ``limit``
    elements whose parent has more) in run order, and per depth, deepest
    first, which nodes split and which part each other node is.
    """
    starts, sizes = np.zeros(1, np.int64), np.array([n], np.int64)
    depths = []
    while True:
        split = sizes > limit
        depths.append((starts[~split], split))
        if not split.any():
            break
        half = sizes[split] // 2
        half -= half % 8
        starts = np.stack([starts[split], starts[split] + half], axis=1).reshape(-1)
        sizes = np.stack([half, sizes[split] - half], axis=1).reshape(-1)
    part_starts = np.sort(np.concatenate([s for s, _ in depths]))
    part_sizes = np.diff(part_starts, append=n)
    steps = tuple((split, np.searchsorted(part_starts, s)) for s, split in reversed(depths))
    for a in (part_starts, part_sizes, *(a for step in steps for a in step)):
        a.flags.writeable = False  # every caller shares the cached arrays
    return part_starts, part_sizes, steps


@functools.lru_cache(maxsize=64)
def _pairwise_census(n: int, limit: int) -> dict:
    """{size: count} of the parts of :func:`_pairwise_parts`, without listing them.

    The nodes of one depth have at most three distinct sizes, so this takes
    O(log n) steps and no arrays.  Callers share the cached dict and only
    read it.
    """
    parts, nodes = {}, {n: 1}
    while nodes:
        split = {}
        for size, count in nodes.items():
            if size <= limit:
                parts[size] = parts.get(size, 0) + count
                continue
            half = size // 2 - (size // 2) % 8
            for s in (half, size - half):
                split[s] = split.get(s, 0) + count
        nodes = split
    return parts


def _pairwise_combine(sums: np.ndarray, steps) -> np.ndarray:
    """The root of each row of part sums, added up the tree of ``steps``.

    For sums >= +0.0 that are each np.sum of a part's elements, and +0.0
    for a part that is all +0.0, the result is that of one np.sum over the
    whole run, bit for bit: x + 0.0 == x, and a + b == b + a.
    """
    vals = None
    for split, parts in steps:
        pairs = None if vals is None else vals[:, 0::2] + vals[:, 1::2]
        if not parts.size:
            vals = pairs
        elif pairs is None:
            vals = sums[:, parts]
        else:
            vals = np.empty((len(sums), split.size))
            vals[:, split] = pairs
            vals[:, ~split] = sums[:, parts]
    return vals[:, 0]


def _ks_form(win: np.ndarray, w: np.ndarray, x: np.ndarray, y: int, cells: list,
             out: np.ndarray) -> None:
    """out = (w_x w_y) k(x, y) for the rows x (ascending) and the cells y, y+1, ...

    ``cells`` holds the boxes (:func:`_row_boxes`) that cover the row-major
    cells from y on, as many as ``out`` has columns.  The kernel multiplies
    in from views of ``win``, one per run of consecutive rows along the
    last axis and box of cells.
    """
    d = win.ndim // 2
    side = win.shape[0]
    np.einsum("i,j->ij", w[x], w[y:y + out.shape[1]], out=out)
    cut = (np.flatnonzero((np.diff(x) != 1) | (x[1:] % side == 0)) + 1).tolist()
    for r0, r1 in zip([0] + cut, cut + [len(x)]):
        line, x1 = divmod(int(x[r0]), side)
        rows = tuple(int(i) for i in np.unravel_index(line, (side,) * (d - 1)))
        rows += (slice(x1, x1 + r1 - r0),)
        o = 0
        for box in cells:
            kern = win[rows + box]
            size = math.prod(kern.shape[1:])
            seg = out[r0:r1, o:o + size].reshape(kern.shape)
            np.multiply(seg, kern, out=seg)
            o += size


def _ks_geometry(K: int, y: int, n: int) -> tuple:
    """Where the blocks of a leaf of n products from column y on lie.

    Returns the blocks' sizes, their row offsets from the leaf's first row,
    first columns and products in their first row; the blocks that run on
    into the next row; the leaf's summation steps over its blocks
    (:func:`_pairwise_parts`); and the blocks in order of column, size and
    row, with each one's group (one column and size) in that order.
    """
    start, size, steps = _pairwise_parts(n, _PAIRWISE_BLOCK)
    dr, col = np.divmod(y + start, K)
    head = np.minimum(size, K - col)
    order = np.lexsort((dr, size, col))
    group = np.cumsum(np.r_[0, (np.diff(col[order]) != 0) | (np.diff(size[order]) != 0)])
    # at most 1024 groups; numpy sorts int16 keys stably by radix
    return (size, dr, col, head, np.flatnonzero(head < size), steps, order,
            group.astype(np.int16))


def _ks_blocks(win: np.ndarray, W: np.ndarray, scale: float, first: np.ndarray,
               M: np.ndarray, geometry: tuple, buf: np.ndarray) -> np.ndarray:
    """Block sums (leaves x blocks) of leaves that start in the flat rows ``first``.

    ``first`` holds rows c K + x, ascending, of leaves whose blocks lie as
    ``geometry`` (:func:`_ks_geometry`) says; ``M`` marks the live blocks,
    the only ones formed; the others hold +0.0.  Blocks of one size at
    consecutive columns whose live rows agree are formed as one run in
    ``buf``, and each block is summed by np.sum along the run's last axis.
    """
    K = W.shape[1]
    size, dr, col, head, _, _, order, group = geometry
    # a stable sort of the live blocks by group keeps them by leaf and row,
    # which is by flat row
    leaf, k = np.nonzero(M[:, order])
    g = group[k]
    srt = np.argsort(g, kind="stable")
    edges = np.searchsorted(g[srt], np.arange(int(group[-1]) + 2))
    leaf, block = leaf[srt], order[k[srt]]
    del g, k, srt
    r = first[leaf] + dr[block]
    runs = []
    for e in map(slice, edges[:-1].tolist(), edges[1:].tolist()):
        if e.start == e.stop:
            continue
        b = block[e.start]
        if runs:
            p = runs[-1][-1]
            bp = block[p.start]
            if (head[b] == size[b] == size[bp] == head[bp] and col[b] == col[bp] + size[bp]
                    and np.array_equal(r[e], r[p])):
                runs[-1].append(e)
                continue
        runs.append([e])
    sums = np.zeros(M.shape)
    shape = win.shape[win.ndim // 2:]
    for run in runs:
        b = block[run[0].start]
        m, n = int(size[b]), len(run) * int(size[b])
        pieces = [(0, int(col[b]), n - m + int(head[b]))]
        if head[b] < m:
            pieces.append((1, 0, m - int(head[b])))
        pieces = [(dx, yp, length, list(_row_boxes(yp, yp + length, shape)))
                  for dx, yp, length in pieces]
        rows = r[run[0]]
        run_sums = np.empty((len(rows), len(run)))
        step = max(1, _KS_LEAF // n)
        for seg in np.split(np.arange(len(rows)), np.flatnonzero(np.diff(rows // K)) + 1):
            cube = int(rows[seg[0]]) // K
            for i in range(seg[0], seg[-1] + 1, step):
                at = slice(i, min(i + step, seg[-1] + 1))
                P = buf[:(at.stop - i) * n].reshape(-1, n)
                o = 0
                for dx, yp, length, cells in pieces:
                    _ks_form(win, W[cube], rows[at] - cube * K + dx, yp, cells,
                             P[:, o:o + length])
                    o += length
                P *= scale
                np.sum(P.reshape(len(P), -1, m), axis=-1, out=run_sums[at])
        for j, e in enumerate(run):
            sums[leaf[e], block[e]] = run_sums[:, j]
    return sums


def _ks_leaves(win: np.ndarray, W: np.ndarray, live: np.ndarray, cnt: np.ndarray,
               scale: float, first: np.ndarray, y: int, n: int, geometry: tuple,
               buf: np.ndarray, counts: dict) -> np.ndarray:
    """np.sum of the n products from column y of each flat row ``first`` on.

    ``first`` holds rows c K + x, ascending, and ``geometry`` is
    :func:`_ks_geometry` (K, y, n); ``cnt[c, i]`` counts the live cells of
    cube c before cell i.  A block is live where it pairs a live cell x
    with a live cell y.  A leaf all of whose blocks are live, as when V is
    nonzero everywhere, is formed whole from its rows and summed by one
    np.sum; the others are summed block by block (:func:`_ks_blocks`) and
    up their tree.  Both give the bits of np.sum over the leaf.
    """
    K = W.shape[1]
    size, dr, col, head, on, steps = geometry[:6]
    # the cubes of the leaves, and each leaf's among them
    c = first // K
    cubes = c[np.flatnonzero(np.diff(c, prepend=-1))]
    at = np.searchsorted(cubes, c)
    rows = (y + n - 1) // K + 1
    row_live = live.reshape(-1)[first[:, None] + np.arange(rows)]
    M = row_live[:, dr] & (cnt[cubes[:, None], col + head] > cnt[cubes[:, None], col])[at]
    if on.size:
        M[:, on] |= row_live[:, dr[on] + 1] & (cnt[cubes[:, None], size[on] - head[on]] > 0)[at]
    live_blocks = np.count_nonzero(M, axis=0)
    counts["products_formed"] += int(live_blocks @ size)
    counts["products_skipped_zero"] += int((len(first) - live_blocks) @ size)
    whole = M.all(axis=1)
    out = np.empty(len(first))
    if not whole.all():
        out[~whole] = _pairwise_combine(
            _ks_blocks(win, W, scale, first[~whole], M[~whole], geometry, buf), steps)
    if whole.any():
        cells = list(_row_boxes(0, K, win.shape[:win.ndim // 2]))
        P = buf[:rows * K].reshape(rows, K)
        for i in np.flatnonzero(whole).tolist():
            cube, x = divmod(int(first[i]), K)
            _ks_form(win, W[cube], np.arange(x, x + rows), 0, cells, P)
            run = buf[y:y + n]
            run *= scale
            out[i] = np.sum(run)
    return out


def _ks_span_sums(win: np.ndarray, W: np.ndarray, live: np.ndarray, cnt: np.ndarray,
                  scale: float, cubes: np.ndarray, a: int, n: int, buf: np.ndarray,
                  counts: dict) -> np.ndarray:
    """np.sum of products a..a+n-1 of the slab of each cube in ``cubes``.

    The run is cut into leaves of at most _KS_LEAF products along numpy's
    tree; a leaf none of whose rows is live is +0.0, and the others are
    summed by :func:`_ks_leaves`, a batch of leaves that start at one
    column and hold as many products at a time.
    """
    K = W.shape[1]
    start, size, steps = _pairwise_parts(n, _KS_LEAF)
    start = a + start
    x0 = start // K
    alive = cnt[cubes[:, None], (start + size - 1) // K + 1] > cnt[cubes[:, None], x0]
    counts["products_skipped_zero"] += int(np.count_nonzero(~alive, axis=0) @ size)
    i, j = np.nonzero(alive)
    sums = np.zeros(alive.shape)
    kind = size[j] * K + start[j] % K
    for k in sorted(set(kind.tolist())):
        m, y = divmod(k, K)
        of_kind = np.flatnonzero(kind == k)
        geometry = _ks_geometry(K, y, m)
        per = max(1, _KS_BATCH // geometry[0].size)
        for b in range(0, of_kind.size, per):
            ii, jj = i[of_kind[b:b + per]], j[of_kind[b:b + per]]
            sums[ii, jj] = _ks_leaves(win, W, live, cnt, scale, cubes[ii] * K + x0[jj],
                                      y, m, geometry, buf, counts)
    return _pairwise_combine(sums, steps)


def _ks_tree_sums(win: np.ndarray, W: np.ndarray, scale: float, exact: np.ndarray,
                  counts: dict) -> np.ndarray:
    """np.sum of each cube's products (kern * (w_x * w_y)) * scale, x-major.

    Walks numpy's summation tree over each K x K slab without forming it:
    subtrees of at most _KS_SPAN products, their leaves of at most _KS_LEAF,
    and the leaves' blocks of at most _PAIRWISE_BLOCK.  Only blocks that
    pair two cells with w != 0 are formed; every other product is +0.0 when
    ``exact`` holds for the cube (finite w, kernel and scale), and every
    cell counts as live where it does not.
    """
    cubes, K = W.shape
    live = (W != 0) | ~exact[:, None]
    cnt = np.zeros((cubes, K + 1), np.int64)
    np.cumsum(live, axis=1, out=cnt[:, 1:])
    buf = np.empty(_KS_LEAF + 2 * K)

    def span(c, a, n):
        return _ks_span_sums(win, W, live, cnt, scale, c, a, n, buf, counts)

    if K * K <= _KS_SPAN:
        per = _KS_SPAN // (K * K)
        return np.concatenate([span(np.arange(c, min(c + per, cubes)), 0, K * K)
                               for c in range(0, cubes, per)])
    return np.array([_ks_walk(functools.partial(span, np.array([c])), cnt[c], 0, K * K, counts)
                     for c in range(cubes)])


def _ks_walk(span, cnt: np.ndarray, a: int, n: int, counts: dict) -> float:
    """np.sum of products a..a+n-1 of a slab, down numpy's tree to ``span``.

    ``cnt[i]`` counts the slab's live cells before cell i, and ``span(a,
    n)`` sums a subtree of at most _KS_SPAN products; a subtree none of
    whose rows is live is +0.0.
    """
    K = cnt.size - 1
    if cnt[(a + n - 1) // K + 1] == cnt[a // K]:
        counts["products_skipped_zero"] += n
        return 0.0
    if n <= _KS_SPAN:
        return span(a, n)[0]
    half = n // 2 - (n // 2) % 8
    return _ks_walk(span, cnt, a, half, counts) + _ks_walk(span, cnt, a + half, n - half, counts)


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
        return _ks_tree_sums(win, W, scale, finite & np.all(np.isfinite(W), axis=1), counts)
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
    floats), and the summation trees cached for large cubes (4 words per
    part, 256 per tree).  Per level: the reflected offset table, (2 side -
    1)^dim floats, and for small cubes the cube kernel plus one chunk of
    slabs.  Large cubes hold the live cells and their prefix counts (9N/8
    words), a buffer of _KS_LEAF + 2K products, 6 words per leaf of the
    cubes whose leaves are found at once, 8 words per block of a leaf for
    its layout, and 7 words per block of one batch of leaves while its live
    blocks are found and sorted.  The trees are counted
    (:func:`_pairwise_census`), not built.  Plus the buffers numpy's ufunc
    loops may take for strided operands, and 16 kB for index arrays and
    per-cube scalars.
    """
    npts = lattice.npoints
    d = lattice.dim
    worst = cached = 0
    for level in range(dyadic_level_max(lattice.n) + 1):
        side = lattice.n >> level
        K = side**d
        if K * K > _KS_LEAF:
            leaves = [sum(_pairwise_census(s, _KS_LEAF).values())
                      for s in _pairwise_census(K * K, _KS_SPAN)]
            blocks = [sum(_pairwise_census(m, _PAIRWISE_BLOCK).values())
                      for s in _pairwise_census(K * K, _KS_SPAN)
                      for m in _pairwise_census(s, _KS_LEAF)]
            cached += sum(4 * parts + 256 for parts in leaves + blocks)
            at_once = min(npts // K, max(1, _KS_SPAN // (K * K))) * max(leaves)
            work = (_KS_LEAF + 2 * K + 9 * npts // 8 + 6 * at_once + 8 * max(blocks)
                    + 7 * min(_KS_BATCH, at_once * max(blocks)))
        else:
            work = K * K * (1 + min(npts // K, _KS_LEAF // (K * K)))
        worst = max(worst, (2 * side - 1) ** d + work)
    return 8 * (3 * npts + cached + worst + 2 * np.getbufsize() + 2048)


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
