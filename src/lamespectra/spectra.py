"""Discrete spectra of -Delta* + V and Birman-Schwinger checks.

Dense matrices are assembled from circulant kernel tables: the inverse FFT
of a Fourier symbol gives the translation kernel, gathered by integer index
differences.  Flat vectors use the component-major layout (component, then
row-major grid).  Eigenvalues are filtered by their distance to the
essential-spectrum ray [0, inf) and accepted only with a matrix-free
residual below tolerance.

The dense eigensolve computes eigenvalues first and eigenvectors only for
the few that pass the distance filter, each from the Birman-Schwinger kernel
on the support of V: one LU of ``I + V R0(z)``, similar to ``I + K(z)``,
whose order is the dimension times the support size.  Its memory model,
:func:`_dense_peak_bytes`, counts what assembly plus solve really hold: the
operator matrix and one copy of the same size, which LAPACK overwrites,
plus workspace and BLAS scratch.  It is skipped when the numerical range
shows that no eigenvalue can pass the distance filter (:func:`_ray_reach`).

All dense linear algebra runs through ``numpy.linalg``, whose LAPACK is
loaded with numpy; the package does not import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import trace
from .lame import (
    LameParams,
    Potential,
    _check_admissible,
    _shifted_symbols,
    _split_resolvent,
    apply_perturbed,
    distance_to_ray,
    split_resolvent,
)
from .lattice import (
    DEFAULT_BUDGET_BYTES,
    BudgetExceeded,
    Lattice,
    VectorField,
    _format_bytes,
    l2_norm,
    random_vector_field,
)
from .norms import polynomial_weight
from .operator_norms import lp_operator_norm, singular_norm

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "BudgetExceeded",
    "SpectralResult",
    "spectral_width",
    "default_tau_filter",
    "default_tau_res",
    "dense_lame_matrix",
    "dense_operator_matrix",
    "dense_resolvent_matrix",
    "discrete_eigenvalues",
    "bs_kernel",
    "bs_norm",
    "bs_check",
    "resolvent_norm_estimate",
]


def spectral_width(params: LameParams, lattice: Lattice) -> float:
    """||-Delta*||_2, the largest symbol eigenvalue: max(mu, lam + 2 mu) max |xi|^2."""
    return max(params.mu, params.longitudinal) * float(lattice.frequency_norm2.max())


def default_tau_filter(params: LameParams, lattice: Lattice) -> float:
    """Distance filter separating discrete eigenvalues from ray artifacts."""
    return 1e-3 * spectral_width(params, lattice)


def default_tau_res(params: LameParams, lattice: Lattice) -> float:
    """Residual acceptance threshold scaled to the operator norm."""
    return 1e-8 * max(1.0, spectral_width(params, lattice))


def _blas_scratch_bytes(order: int) -> int:
    """Resident memory a dense solve holds beyond its arrays, with one BLAS thread.

    OpenBLAS's packing buffers: an LU touches about 2 KB of them per row plus
    0.5 MB, ``zgeev`` for eigenvalues alone less.  Measured in fresh
    interpreters after a tiny warm-up, as the growth of the peak resident set
    across a solve whose vector phase factors I + V R0(z) of the full order:
    1.3 to 5.5 MB above the rest of the model at orders 256 to 3072.  Each
    further BLAS thread adds about 0.5 MB.
    """
    return 2560 * order + 800_000


def _zgeev_lwork(order: int) -> int:
    """Complex entries of ``zgeev``'s workspace for eigenvalues alone.

    The size the linked LAPACK asks for, stated in closed form so that the
    budget check loads no LAPACK.
    """
    return max(33 * order, 4523)


def _dense_peak_bytes(order: int) -> int:
    """Modelled peak of a dense assembly plus solve of the given order.

    Two complex order^2 matrices: the assembled operator and
    ``numpy.linalg``'s copy that ``zgeev`` overwrites, or later ``I + V R0(z)``
    (order at most ``order``) and the copy its LU overwrites.  On top come
    ``zgeev``'s workspace (:func:`_zgeev_lwork`), 256 bytes per row for the
    eigenvalues, ``rwork`` and the vectors in flight, and the BLAS scratch
    (:func:`_blas_scratch_bytes`).  Assembly alone holds one matrix, a band
    of its index table and the tiled kernel tables, and stays below this.
    """
    return (32 * order * order + 16 * _zgeev_lwork(order) + 256 * order
            + _blas_scratch_bytes(order))


def _check_budget(order: int, budget_bytes: int, dim: int) -> None:
    need = _dense_peak_bytes(order)
    if need <= budget_bytes:
        return
    n = 4
    while _dense_peak_bytes(dim * (n + 2) ** dim) <= budget_bytes:
        n += 2
    smallest = _dense_peak_bytes(dim * 4**dim)
    if smallest > budget_bytes:
        hint = f"even n = 4 needs {_format_bytes(smallest)} in dimension {dim}"
    else:
        hint = f"try n <= {n} in dimension {dim}"
    raise BudgetExceeded(
        f"dense matrix of order {order} needs {_format_bytes(need)}, budget is "
        f"{_format_bytes(budget_bytes)}; {hint}"
    )


# Entries of the int64 index table a gather holds at once: 256 kB, small beside its matrix
_GATHER_ENTRIES = 1 << 15


def _gather_blocks(tables: np.ndarray, lattice: Lattice, points: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Assemble the dense block matrix from kernel tables (d, d, *grid), on flat grid points.

    Entry (a, b) of block (j, k) is table (j, k) at the offset (a - b) mod n.
    The tables are tiled to period 2n, where that offset is a - b + n on
    every axis: one addition of flat keys per entry, no modulo, no index to
    clip.  Each band of rows is gathered straight into its place in ``out``,
    a new array unless given, one contiguous ``take`` per block row.
    """
    tiled = np.tile(tables, (1, 1) + (2,) * lattice.dim)
    d, period, grid = tables.shape[0], tiled[0, 0].size, tiled.shape[2:]
    key = np.ravel_multi_index(np.indices(lattice.shape), grid).reshape(-1)
    if points is not None:
        key = key[points]
    size, shift = len(key), np.ravel_multi_index((lattice.n,) * lattice.dim, grid)
    cols = (np.arange(d)[:, None] * period + shift - key).reshape(-1)  # block k: table (j, k)
    if out is None:
        out = np.empty((d * size, d * size), dtype=tables.dtype)
    rows = out.reshape(d, size, d * size)
    flat = tiled.reshape(d, -1)
    step = max(1, _GATHER_ENTRIES // max(d * size, 1))
    for lo in range(0, size, step):
        band = slice(lo, lo + step)
        flat_off = np.add.outer(key[band], cols)
        for j in range(d):
            np.take(flat[j], flat_off, out=rows[j, band], mode="clip")  # "raise" buffers
    return out


def _kernel_tables(lattice: Lattice, symbols: np.ndarray) -> np.ndarray:
    """Kernel tables (d, d, *grid) of a symbol stack (npts, d, d) over the frequencies."""
    d = lattice.dim
    tables = np.moveaxis(symbols, 0, 2).reshape((d, d) + lattice.shape)
    return np.fft.ifftn(np.ascontiguousarray(tables), axes=tuple(range(2, 2 + d)))


def dense_lame_matrix(params: LameParams, lattice: Lattice,
                      budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
    """Dense matrix of -Delta* in the component-major flat layout."""
    _check_budget(lattice.dim * lattice.npoints, budget_bytes, lattice.dim)
    tables = _kernel_tables(lattice, _shifted_symbols(params, lattice, 0.0))
    return _gather_blocks(tables, lattice)


def dense_operator_matrix(params: LameParams, V: Potential,
                          budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
    """Dense matrix of -Delta* + V."""
    lat = V.lattice
    A = dense_lame_matrix(params, lat, budget_bytes=budget_bytes)
    npts = lat.npoints
    vflat = V.values.reshape(-1)
    diag = np.arange(npts)
    for j in range(lat.dim):
        A[j * npts + diag, j * npts + diag] += vflat
    return A


def dense_resolvent_matrix(params: LameParams, z: complex, lattice: Lattice,
                           points: np.ndarray | None = None,
                           budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
    """Dense resolvent of -Delta*, optionally restricted to flat grid points; Fortran-ordered."""
    _check_admissible(z)
    npts = lattice.npoints if points is None else len(points)
    _check_budget(lattice.dim * npts, budget_bytes, lattice.dim)
    return _resolvent_matrix(_shifted_symbols(params, lattice, z), lattice, points)


def _resolvent_matrix(shifted: np.ndarray, lattice: Lattice, points: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """:func:`dense_resolvent_matrix` from the symbols M(xi) - z I, with no check on z.

    Fortran-ordered for the LUs: ``out`` (new unless given) takes the transpose,
    gathered from the transposed tables (block (j, k) at x is block (k, j) at -x).
    """
    tables = _kernel_tables(lattice, np.linalg.inv(shifted))
    grid = tuple(range(2, 2 + lattice.dim))
    transposed = np.roll(np.flip(tables.swapaxes(0, 1), grid), 1, grid)
    return _gather_blocks(transposed, lattice, points, out).T


# -- eigenvalues -------------------------------------------------------------


@dataclass(frozen=True)
class SpectralResult:
    """Filtered discrete eigenvalues with residuals and provenance."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    distances: np.ndarray
    solver_info: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _vector_from_flat(lattice: Lattice, vec: np.ndarray) -> VectorField:
    return VectorField(lattice, vec.reshape((lattice.dim,) + lattice.shape))


def _operator_residual(params: LameParams, V: Potential, z: complex, u: VectorField) -> float:
    norm = l2_norm(u)  # 0 when V = 0 leaves no kernel to take a vector from
    r = apply_perturbed(params, V, u) - z * u
    return l2_norm(r) / norm if norm else float("nan")


def _ray_reach(params: LameParams, V: Potential) -> float:
    """No computed eigenvalue of -Delta* + V lies farther than this from [0, inf).

    -Delta* is Hermitian and >= 0, so the numerical range of A = -Delta* + V,
    which holds the eigenvalues, lies in [0, inf) + conv{V(x)}: no farther
    from the convex ray than max_x distance_to_ray(V(x)).  Computed
    eigenvalues are exact for some A + E, whose numerical range lies within
    ||E||_2 <~ n eps ||A||_F <= n^1.5 eps ||A||_2 of A's (``zgeev`` is backward
    stable); n^1.5 eps < 1e-10 up to order 4000, past the default budget.
    The margin 1e-8 ||A||_2 covers that and the rounding of the assembled
    -Delta*, with ||-Delta*||_2 the spectral width.
    """
    margin = 1e-8 * (spectral_width(params, V.lattice) + float(np.abs(V.values).max()))
    return float(distance_to_ray(V.values).max()) + margin


def _package(params, V, pairs, tau_filter, tau_res, info, unsolved=0) -> SpectralResult:
    """Filter (z, u) pairs by residual; ``unsolved`` eigenvalues count as rejected by distance."""
    kept = []
    by_residual = 0
    with trace.stage("filter.residual") as note:
        for z, u in pairs:
            res = _operator_residual(params, V, z, u)
            if not res < tau_res:  # a NaN residual fails too
                by_residual += 1
                continue
            kept.append((z, res))
        note.update(checked=len(kept) + by_residual, rejected=by_residual)
    kept.sort(key=lambda t: (t[0].real, t[0].imag))
    eigenvalues = np.array([z for z, _ in kept], dtype=complex)
    residuals = np.array([r for _, r in kept], dtype=float)
    distances = distance_to_ray(eigenvalues)
    info = dict(info)
    info.update(
        {
            "tau_filter": tau_filter,
            "tau_res": tau_res,
            "dim": V.lattice.dim,
            "n": V.lattice.n,
            "period": V.lattice.period,
            "rejected_by_distance": unsolved,
            "rejected_by_residual": by_residual,
        }
    )
    return SpectralResult(eigenvalues, residuals, distances, info)


def _eigenvector_step(params: LameParams, V: Potential):
    """The map z -> eigenvector of -Delta* + V at z, and the order of its LU.

    By the Birman-Schwinger principle z is an eigenvalue exactly when -1 is
    one of K(z) = V_1/2 R0(z) |V|^1/2 on the support of V, so when I + V R0(z),
    similar to I + K(z) by |V|^1/2 and one scaling cheaper, is singular.  One
    inverse-iteration step: (I + V R0(z)) psi = start (fixed-seed random, as
    eigenvectors of symmetric potentials can be orthogonal to constants),
    then u = -R0(z) psi, so (-Delta* + V - z) u = -start.  An exactly zero
    pivot moves the diagonal by eps ||I + V R0(z)||_1, as LAPACK's zhsein
    does, or by eps when that norm is below 1 (it is 0 when the matrix is),
    and the vector stays finite.  One work array holds every matrix.
    """
    lat = V.lattice
    points = np.flatnonzero(V.support_mask.reshape(-1))
    order = lat.dim * len(points)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(order) + 1j * rng.standard_normal(order)
    symbols = _shifted_symbols(params, lat, 0.0)
    scale = np.tile(V.values.reshape(-1)[points], lat.dim)[:, None]
    work = np.empty((order, order), dtype=complex)

    def vector(z: complex) -> VectorField:
        T = _resolvent_matrix(symbols - z * np.eye(lat.dim), lat, points, work)
        T *= scale
        diagonal = np.einsum("ii->i", T)  # a writable view
        diagonal += 1.0
        try:
            psi = np.linalg.solve(T, start)
        except np.linalg.LinAlgError:
            norm = max(np.abs(column).sum() for column in T.T)
            diagonal -= np.finfo(float).eps * max(norm, 1.0)
            psi = np.linalg.solve(T, start)
        g = np.zeros((lat.dim, lat.npoints), dtype=complex)
        g[:, points] = -psi.reshape(lat.dim, -1)
        return _split_resolvent(params, z, lat)(_vector_from_flat(lat, g))

    return vector, order


def discrete_eigenvalues(params: LameParams, V: Potential,
                         tau_filter: float | None = None,
                         tau_res: float | None = None,
                         budget_bytes: int = DEFAULT_BUDGET_BYTES) -> SpectralResult:
    """All eigenvalues of the assembled operator away from the ray [0, inf).

    When ``tau_filter`` is at least :func:`_ray_reach`, the filter must
    reject every eigenvalue: nothing is assembled or solved (route
    ``numerical_range``).  Otherwise dense assembly, then LAPACK ``zgeev``
    through ``numpy.linalg.eigvals`` for the eigenvalues alone, and the
    operator is freed.  Each eigenvalue farther than ``tau_filter`` from the ray
    gets its vector from one LU on the support of V (:func:`_eigenvector_step`).
    Raises :class:`BudgetExceeded` when the solve would not fit, skipped or
    not.  Every reported eigenvalue carries a matrix-free residual below
    ``tau_res``.  A NaN or negative ``tau_filter`` or a ``tau_res`` that is
    not positive raises ValueError.  The call logs trace stage ``dense.eig``
    with its ``route``, the number of ``lu_solves`` and, on the
    ``inverse_iteration`` route, the ``kernel_order``; nested in it and
    logged before it come
    ``dense.assemble`` with the ``matrix_order`` (not on the
    ``numerical_range`` route) and ``filter.residual`` with the residuals
    ``checked`` and ``rejected``.
    """
    lat = V.lattice
    if tau_filter is None:
        tau_filter = default_tau_filter(params, lat)
    if tau_res is None:
        tau_res = default_tau_res(params, lat)
    if not (tau_filter >= 0.0 and tau_res > 0.0):
        raise ValueError(f"need tau_filter >= 0 and tau_res > 0, got {tau_filter}, {tau_res}")
    order = lat.dim * lat.npoints
    _check_budget(order, budget_bytes, lat.dim)
    info = {"method": "dense", "matrix_order": order}
    with trace.stage("dense.eig") as note:
        if tau_filter >= _ray_reach(params, V):
            note.update(route="numerical_range", lu_solves=0)
            return _package(params, V, (), tau_filter, tau_res, info, unsolved=order)
        with trace.stage("dense.assemble") as assembled:
            A = dense_operator_matrix(params, V, budget_bytes=budget_bytes)
            assembled.update(matrix_order=order)
        # of A^T, not A: the eigenvalue bits the reports were recorded with
        w = np.linalg.eigvals(A.T)
        del A
        survivors = w[distance_to_ray(w) > tau_filter]  # the distance filter
        vector, kernel_order = _eigenvector_step(params, V)
        pairs = ((z, vector(z)) for z in survivors)  # lazily: one vector held at a time
        note.update(route="inverse_iteration", lu_solves=len(survivors),
                    kernel_order=kernel_order)
        return _package(params, V, pairs, tau_filter, tau_res, info,
                        unsolved=order - len(survivors))


# -- Birman-Schwinger --------------------------------------------------------


def bs_kernel(params: LameParams, V: Potential, z: complex,
              budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
    """Birman-Schwinger kernel K = V_1/2 (-Delta* - z)^-1 |V|^1/2, dense on the support of V.

    ``V_1/2 = |V|^1/2 sgn(V)`` with the complex signum; both factors act
    componentwise and vanish off the support, so K restricted to the support
    points (component-major layout) holds all of its nonzero spectrum and
    singular values.  Shape (0, 0) for the zero potential.
    """
    _check_admissible(z)
    pts = np.flatnonzero(V.support_mask.reshape(-1))
    if len(pts) == 0:
        return np.zeros((0, 0), dtype=complex)
    K = dense_resolvent_matrix(params, z, V.lattice, points=pts, budget_bytes=budget_bytes)
    v = V.values.reshape(-1)[pts]
    mag = np.abs(v)
    abs_half = np.sqrt(mag)
    K *= np.tile(abs_half * (v / mag), V.lattice.dim)[:, None]
    K *= np.tile(abs_half, V.lattice.dim)[None, :]
    return K


def bs_norm(K: np.ndarray) -> float:
    """Largest singular value of a Birman-Schwinger kernel from :func:`bs_kernel`.

    The exact 2-norm of K(z); 0 for the zero potential.  At any eigenvalue z
    of the discretized -Delta* + V the value is at least 1, since -1 then
    lies in the spectrum of K(z).
    """
    if K.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(K, 2))


def bs_check(K: np.ndarray) -> float:
    """Residual min |sigma + 1| over the spectrum of a kernel from :func:`bs_kernel`.

    Near zero exactly when z is an eigenvalue of the discretized -Delta* + V;
    1 for the zero potential (K is the zero operator).
    """
    if K.shape[0] == 0:
        return 1.0
    sigma = np.linalg.eigvals(K)
    return float(np.min(np.abs(sigma + 1.0)))


# -- resolvent norm estimates ------------------------------------------------


def resolvent_norm_estimate(params: LameParams, z: complex, norm_pair, lattice: Lattice,
                            samples: int = 6, n_iter: int = 40, seed: int = 0,
                            tol: float = 1e-6) -> float:
    """Empirical lower estimate of a resolvent operator norm.

    ``norm_pair`` selects the pairing: ``("lp_dual", p)`` estimates
    L^p -> L^p' by random starts refined with the nonlinear power method;
    ``("weighted_l2", alpha)`` estimates L^2(<x>^2a) -> L^2(<x>^-2a) by plain
    power iteration on the weight-conjugated operator, stopping at relative
    change ``tol``.  Each pairing builds the split resolvent of z and of
    conj(z) once and applies them throughout.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    _check_admissible(z)
    kind, value = norm_pair
    rng = np.random.default_rng(seed)

    if kind == "lp_dual":
        p = float(value)
        if not 1.0 < p <= 2.0:
            raise ValueError(f"lp_dual pairing needs 1 < p <= 2, got {p}")
        q = p / (p - 1.0)

        op = split_resolvent(params, z, lattice)
        op_adj = split_resolvent(params, np.conj(z), lattice)
        best = 0.0
        for _ in range(samples):
            start = random_vector_field(lattice, rng)
            best = max(best, lp_operator_norm(op, op_adj, start, p, q, n_iter=n_iter))
        return best

    if kind == "weighted_l2":
        alpha = float(value)
        if not 0.0 <= alpha < np.inf:
            raise ValueError(f"weight exponent must be >= 0 and finite, got {alpha}")
        inv_half = polynomial_weight(lattice, -alpha / 2.0)  # <x>^-alpha
        # z was checked above, and conj(z) lies as far from the ray
        op = _split_resolvent(params, z, lattice, weight=inv_half)
        op_adj = _split_resolvent(params, np.conj(z), lattice, weight=inv_half)
        return singular_norm(op, op_adj, random_vector_field(lattice, rng), tol=tol, max_iter=5000)

    raise ValueError(f"unknown norm pairing {kind!r}")
