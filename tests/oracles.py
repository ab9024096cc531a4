"""Independent reference computations for the test suite.

The norm scans here walk every candidate with explicit Python loops and
rebuild each reduction from scratch; they share nothing with the library
implementations except the defining formulas, evaluated with the same
floating-point operation order so agreement can be checked bit for bit.
The in-memory Kerman-Sayer numerators keep the scan's former route, which
holds each cube's whole K x K slab of products.
The square-well solver works on the continuum line problem via the standard
transcendental matching conditions, nothing spectral or grid-based.  The
full-eig spectrum is the slow dense route: every eigenvector from one
``numpy.linalg.eig``, then the library's own filters.
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

from lamespectra import spectra


def mc_norm_brute(V, alpha, p):
    """Morrey-Campanato sup by triple loop over centers, radii, points."""
    lat = V.lattice
    d, h, n = lat.dim, lat.spacing, lat.n
    W = np.abs(np.asarray(V.values)) ** p
    exponents = []
    j = 0
    while 2**j <= n // 2:
        exponents.append(j)
        j += 1
    best = 0.0
    for center in np.ndindex(lat.shape):
        for j in exponents:
            picked = []
            for point in np.ndindex(lat.shape):
                m = 0
                for a in range(d):
                    m += (point[a] - center[a]) ** 2
                if m <= 4**j:
                    picked.append(W[point])
            integral = np.sum(np.array(picked)) * h**d
            r = h * float(2**j)
            cand = r**alpha * (integral / r**d) ** (1.0 / p)
            if cand > best:
                best = cand
    return best


def mc_norm_loop(V, alpha, p):
    """Morrey-Campanato (value, witness) by a loop over centers, radii inner.

    Each ball sum is np.sum of the masked |V|^p in row-major order, and the
    witness is the first candidate reaching the maximum.
    """
    lat = V.lattice
    d, h = lat.dim, lat.spacing
    W = (np.abs(V.values) ** p).reshape(-1)
    idx = np.indices(lat.shape).reshape(d, -1).T
    exponents = []
    j = 0
    while 2**j <= lat.n // 2:
        exponents.append(j)
        j += 1
    best = 0.0
    best_witness = None
    for c in range(idx.shape[0]):
        diff = idx - idx[c]
        m = np.sum(diff * diff, axis=1)
        for j in exponents:
            integral = np.sum(W[m <= 4**j]) * h**d
            r = h * float(2**j)
            cand = r**alpha * (integral / r**d) ** (1.0 / p)
            if cand > best:
                best = cand
                best_witness = {"center": [int(v) for v in idx[c]], "radius_exponent": j}
    return best, best_witness


def ks_norm_dense(V, alpha, eps_mass=0.0):
    """Kerman-Sayer (value, witness) with a dense kernel matrix per cube.

    The kernel comes from the full (N, N, dim) array of index differences
    with one vectorized power; the numerator is the dense product summed
    by one np.sum.
    """
    lat = V.lattice
    d, h = lat.dim, lat.spacing
    absV = np.abs(np.asarray(V.values))
    best = 0.0
    best_witness = None
    for level, corner, side in dyadic_cubes_brute(lat.n, d):
        w = absV[tuple(slice(c, c + side) for c in corner)].flatten()
        mass = np.sum(w) * h**d
        if not mass > eps_mass:
            continue
        idx = np.indices((side,) * d).reshape(d, -1).T
        diff = idx[:, None, :] - idx[None, :, :]
        m = np.sum(diff * diff, axis=2)
        kern = np.zeros(m.shape)
        off = m > 0
        kern[off] = (h * np.sqrt(m[off])) ** (alpha - d)
        num = np.sum((w[:, None] * w[None, :]) * kern * h ** (2 * d))
        cand = float(num / mass)
        if cand > best:
            best = cand
            best_witness = {"level": level, "corner": list(corner), "side": side}
    return best, best_witness


def ks_numerators_in_memory(lattice, side, alpha, W):
    """Kerman-Sayer numerators of the cubes in the rows of W, slab in memory.

    The scan's former route: the cube kernel is materialised as a K x K
    array from one power per offset (reflected and windowed as the library
    does), multiplied in place by w_x w_y block by block, scaled by
    h**(2 dim), and reduced by one np.sum over the whole slab.
    """
    d = lattice.dim
    K = side**d
    m = sum(np.ix_(*(np.arange(side) ** 2,) * d)).reshape(-1)
    table = np.zeros(m.shape)
    table[1:] = (lattice.spacing * np.sqrt(m[1:])) ** (alpha - d)
    fold = np.abs(np.arange(1 - side, side))
    offsets = table.reshape((side,) * d)[np.ix_(*(fold,) * d)]
    windows = sliding_window_view(offsets, (side,) * d)[(slice(None, None, -1),) * d]
    out = []
    for w in W:
        P = np.empty((side,) * (2 * d))
        P[...] = windows
        P = P.reshape(K, K)
        for r in range(0, K, 256):
            P[r:r + 256] *= w[r:r + 256, None] * w[None, :]
        P *= lattice.spacing ** (2 * d)
        out.append(np.sum(P.reshape(-1)))
    return np.array(out)


def dyadic_cubes_brute(n, dim):
    """(level, corner, side) triples: whole cell halved while sides stay even."""
    levels = [0]
    m = n
    while m % 2 == 0:
        m //= 2
        levels.append(levels[-1] + 1)
    out = []
    for level in levels:
        side = n >> level
        for corner in itertools.product(range(0, n, side), repeat=dim):
            out.append((level, corner, side))
    return out


def _cube_cells(corner, side, dim):
    return list(itertools.product(*[range(c, c + side) for c in corner]))


def ks_norm_brute(V, alpha, eps_mass=0.0):
    """Kerman-Sayer sup with per-pair kernel entries built one by one."""
    lat = V.lattice
    d, h = lat.dim, lat.spacing
    absV = np.abs(np.asarray(V.values))
    best = 0.0
    for _, corner, side in dyadic_cubes_brute(lat.n, d):
        cells = _cube_cells(corner, side, d)
        w = np.array([absV[c] for c in cells])
        mass = np.sum(w) * h**d
        if not mass > eps_mass:
            continue
        kern = np.zeros((len(cells), len(cells)))
        for i1, c1 in enumerate(cells):
            for i2, c2 in enumerate(cells):
                if c1 == c2:
                    continue
                m = sum((a - b) ** 2 for a, b in zip(c1, c2))
                kern[i1, i2] = (h * np.sqrt(m)) ** (alpha - d)
        num = np.sum((w[:, None] * w[None, :]) * kern * h ** (2 * d))
        cand = float(num / mass)
        if cand > best:
            best = cand
    return best


def ap_constant_brute(values, n, dim, p):
    """A_p sup over dyadic cubes for an everywhere-positive weight array."""
    inv_pow = -1.0 / (p - 1.0)
    best = 0.0
    for _, corner, side in dyadic_cubes_brute(n, dim):
        cells = _cube_cells(corner, side, dim)
        block = np.array([values[c] for c in cells])
        m1 = np.mean(block)
        m2 = np.mean(block**inv_pow)
        cand = float(m1 * m2 ** (p - 1.0))
        if cand > best:
            best = cand
    return best


def well_bound_states(depth, half_width, c):
    """Negative eigenvalues of -c u'' - depth on [-a, a] (zero outside), on the line.

    Even states solve k tan(k a) = kappa, odd states -k cot(k a) = kappa,
    with k = sqrt((z + depth)/c), kappa = sqrt(-z/c).  Returns a sorted
    array of eigenvalues z in (-depth, 0).
    """
    a = float(half_width)
    v = float(depth) / float(c)  # kappa^2 + k^2 = v
    kmax = np.sqrt(v)

    def kappa(k):
        return np.sqrt(max(v - k * k, 0.0))

    def even_gap(k):
        return k * np.tan(k * a) - kappa(k)

    def odd_gap(k):
        return -k / np.tan(k * a) - kappa(k)

    eps = 1e-12 * max(1.0, kmax)
    roots = []
    # even branches live between tangent poles k a = (m + 1/2) pi
    poles = [0.0]
    m = 0
    while (m + 0.5) * np.pi / a < kmax:
        poles.append((m + 0.5) * np.pi / a)
        m += 1
    poles.append(kmax)
    for lo, hi in zip(poles[:-1], poles[1:]):
        lo, hi = lo + eps, hi - eps
        if lo >= hi:
            continue
        if even_gap(lo) * even_gap(hi) <= 0.0:
            roots.append(brentq(even_gap, lo, hi, xtol=1e-14, rtol=1e-15))
    # odd branches live between cotangent poles k a = m pi
    poles = [0.0]
    m = 1
    while m * np.pi / a < kmax:
        poles.append(m * np.pi / a)
        m += 1
    poles.append(kmax)
    for lo, hi in zip(poles[:-1], poles[1:]):
        lo, hi = lo + eps, hi - eps
        if lo >= hi:
            continue
        if odd_gap(lo) * odd_gap(hi) <= 0.0:
            roots.append(brentq(odd_gap, lo, hi, xtol=1e-14, rtol=1e-15))
    z = np.sort(np.array([c * k * k - depth for k in roots]))
    return z[z < 0.0]


def eigenvalues_by_full_eig(params, V, tau_filter=None, tau_res=None):
    """``discrete_eigenvalues`` through ``numpy.linalg.eig`` of the whole matrix.

    Every eigenpair goes to the library's distance and residual filters
    (``spectra._package``): the slow reference for the library's route,
    which builds eigenvectors only for eigenvalues past the distance filter.
    """
    lat = V.lattice
    if tau_filter is None:
        tau_filter = spectra.default_tau_filter(params, lat)
    if tau_res is None:
        tau_res = spectra.default_tau_res(params, lat)
    A = spectra.dense_operator_matrix(params, V)
    w, vecs = np.linalg.eig(A)
    pairs = ((w[i], spectra._vector_from_flat(lat, vecs[:, i])) for i in range(len(w)))
    info = {"method": "dense", "matrix_order": A.shape[0]}
    return spectra._package(params, V, lat, pairs, tau_filter, tau_res, info)
