"""Discrete spectra of -Delta* + V and Birman-Schwinger checks.

Dense matrices are assembled from circulant kernel tables: the inverse FFT
of a Fourier symbol gives the translation kernel, gathered by integer index
differences.  Flat vectors use the component-major layout (component, then
row-major grid).  Eigenvalues are filtered by their distance to the
essential-spectrum ray [0, inf) and accepted only with a matrix-free
residual below tolerance.

The dense eigensolve computes eigenvalues first and eigenvectors only for
the few that pass the distance filter, one LU of ``A - z`` each.  Its memory
model, :func:`_dense_peak_bytes`, counts what assembly plus solve really
hold: the operator matrix and one Fortran-ordered work matrix of the same
size, which LAPACK overwrites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .lame import (
    LameParams,
    Potential,
    _check_admissible,
    _shifted_symbols,
    apply_perturbed,
    distance_to_ray,
    lame_symbol,
    resolvent_split,
)
from .lattice import (
    DEFAULT_BUDGET_BYTES,
    BudgetExceeded,
    Lattice,
    VectorField,
    _adopt,
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
    "BSOperator",
    "spectral_width",
    "default_tau_filter",
    "default_tau_res",
    "dense_lame_matrix",
    "dense_operator_matrix",
    "dense_resolvent_matrix",
    "discrete_eigenvalues",
    "shift_invert_eigenvalues",
    "bs_norm",
    "bs_check",
    "resolvent_norm_estimate",
]


def spectral_width(params: LameParams, lattice: Lattice) -> float:
    """Largest unperturbed symbol eigenvalue, (lam + 2 mu) max |xi|^2."""
    return params.longitudinal * float(lattice.frequency_norm2.max())


def default_tau_filter(params: LameParams, lattice: Lattice) -> float:
    """Distance filter separating discrete eigenvalues from ray artifacts."""
    return 1e-3 * spectral_width(params, lattice)


def default_tau_res(params: LameParams, lattice: Lattice) -> float:
    """Residual acceptance threshold scaled to the operator norm."""
    return 1e-8 * max(1.0, spectral_width(params, lattice))


def _dense_peak_bytes(order: int) -> int:
    """Modelled peak of a dense assembly plus solve of the given order.

    Two complex order^2 matrices: the assembled operator and the
    Fortran-ordered work copy that LAPACK overwrites (with the eigenvalues,
    an LU, or beside the eigenvectors of the ``eig`` route, which frees the
    operator first).  On top come ``zgeev``'s workspace with eigenvectors,
    as the linked LAPACK sizes it, and 256 bytes per row for the
    eigenvalues, ``rwork`` and the vectors in flight.  Assembly alone holds
    one matrix plus the int64 offset table and stays below this.
    """
    geev_lwork = scipy.linalg.get_lapack_funcs("geev_lwork", dtype=np.complex128)
    lwork, _ = geev_lwork(order, compute_vl=1, compute_vr=0)
    return 32 * order * order + 16 * int(lwork.real) + 256 * order


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


def _offset_matrix(lattice: Lattice, points: np.ndarray | None = None) -> np.ndarray:
    """Flat index of (a - b) mod n for all point pairs; points are flat indices."""
    idx = np.indices(lattice.shape).reshape(lattice.dim, -1)
    if points is not None:
        idx = idx[:, points]
    flat = np.zeros((idx.shape[1], idx.shape[1]), dtype=np.int64)
    for axis in range(lattice.dim):
        o = np.subtract.outer(idx[axis], idx[axis])
        o %= lattice.n
        flat *= lattice.n
        flat += o
    return flat


def _gather_blocks(tables: np.ndarray, flat_off: np.ndarray) -> np.ndarray:
    """Assemble the dense block matrix from kernel tables (d, d, *grid).

    Each block is gathered straight into its place in the output.
    """
    d, size = tables.shape[0], flat_off.shape[0]
    out = np.empty((d * size, d * size), dtype=tables.dtype)
    blocks = out.reshape(d, size, d, size)
    for j in range(d):
        for k in range(d):
            np.take(tables[j, k].reshape(-1), flat_off, out=blocks[j, :, k, :], mode="wrap")
    return out


def dense_lame_matrix(params: LameParams, lattice: Lattice,
                      budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
    """Dense matrix of -Delta* in the component-major flat layout."""
    _check_budget(lattice.dim * lattice.npoints, budget_bytes, lattice.dim)
    sym = lame_symbol(params, lattice.frequency_grid).astype(np.complex128)
    axes = tuple(range(2, 2 + lattice.dim))
    tables = np.fft.ifftn(sym, axes=axes)
    return _gather_blocks(tables, _offset_matrix(lattice))


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


def _inverse_symbol_tables(params: LameParams, z: complex, lattice: Lattice) -> np.ndarray:
    """Kernel tables of (M(xi) - z)^-1, shape (dim, dim) + grid."""
    d = lattice.dim
    inv = np.linalg.inv(_shifted_symbols(params, lattice, z))  # (npts, d, d)
    inv = np.moveaxis(inv, 0, 2).reshape((d, d) + lattice.shape)
    axes = tuple(range(2, 2 + lattice.dim))
    return np.fft.ifftn(np.ascontiguousarray(inv), axes=axes)


def dense_resolvent_matrix(params: LameParams, z: complex, lattice: Lattice,
                           points: np.ndarray | None = None,
                           budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
    """Dense resolvent of -Delta*, optionally restricted to flat grid points."""
    _check_admissible(z)
    npts = lattice.npoints if points is None else len(points)
    _check_budget(lattice.dim * npts, budget_bytes, lattice.dim)
    tables = _inverse_symbol_tables(params, z, lattice)
    return _gather_blocks(tables, _offset_matrix(lattice, points))


# -- eigenvalues -------------------------------------------------------------


@dataclass(frozen=True)
class SpectralResult:
    """Filtered discrete eigenvalues with residuals and provenance."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    distances: np.ndarray
    solver_info: dict = field(default_factory=dict)
    # how the eigenvectors were found and at what cost; run metadata, kept
    # out of to_dict so the report stays byte-stable
    eigensolve: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "distances": [float(d) for d in self.distances],
            "solver_info": self.solver_info,
        }


def _vector_from_flat(lattice: Lattice, vec: np.ndarray) -> VectorField:
    return VectorField(lattice, vec.reshape((lattice.dim,) + lattice.shape))


def _operator_residual(params: LameParams, V: Potential, z: complex, u: VectorField) -> float:
    r = apply_perturbed(params, V, u) - z * u
    return l2_norm(r) / l2_norm(u)


def _package(params, V, lattice, pairs, tau_filter, tau_res, info) -> SpectralResult:
    kept = []
    by_distance = by_residual = 0
    for z, u in pairs:
        if distance_to_ray(z) <= tau_filter:
            by_distance += 1
            continue
        res = _operator_residual(params, V, z, u)
        if not res < tau_res:  # a NaN residual fails too
            by_residual += 1
            continue
        kept.append((z, res))
    kept.sort(key=lambda t: (t[0].real, t[0].imag))
    eigenvalues = np.array([z for z, _ in kept], dtype=complex)
    residuals = np.array([r for _, r in kept], dtype=float)
    distances = np.array([distance_to_ray(z) for z in eigenvalues], dtype=float)
    info = dict(info)
    info.update(
        {
            "tau_filter": tau_filter,
            "tau_res": tau_res,
            "dim": lattice.dim,
            "n": lattice.n,
            "period": lattice.period,
            "rejected_by_distance": by_distance,
            "rejected_by_residual": by_residual,
        }
    )
    return SpectralResult(eigenvalues, residuals, distances, info)


def _inverse_iteration(A: np.ndarray, z: complex, work: np.ndarray,
                       start: np.ndarray) -> np.ndarray:
    """One inverse-iteration step: solve (A - z) u = start through an LU.

    ``A`` is C-ordered; ``work`` is a Fortran-ordered buffer of its shape.
    It receives A^T (the same bytes), its diagonal is shifted in place, and
    LAPACK factors it where it lies; the transposed solve then gives
    (A - z) u = start.  An exactly zero pivot becomes eps ||A||_1, as in
    LAPACK's zhsein, so the vector stays finite when z is an exact
    eigenvalue.
    """
    work[...] = A.T
    work.T.reshape(-1)[:: A.shape[0] + 1] -= z
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (work,))
    lu, piv, info = getrf(work, overwrite_a=True)
    if info > 0:
        pivots = lu.T.reshape(-1)[:: A.shape[0] + 1]
        pivots[pivots == 0.0] = np.finfo(float).eps * scipy.linalg.norm(A, 1)
    u, _ = getrs(lu, piv, start, trans=1)
    return u


# More survivors of the distance filter than this, and one full ``eig`` is
# cheaper than an LU per survivor.
_EIG_FALLBACK = 40


def discrete_eigenvalues(params: LameParams, V: Potential,
                         tau_filter: float | None = None,
                         tau_res: float | None = None,
                         budget_bytes: int = DEFAULT_BUDGET_BYTES) -> SpectralResult:
    """All eigenvalues of the assembled operator away from the ray [0, inf).

    Dense assembly, then LAPACK ``zgeev`` for the eigenvalues alone.  Each
    eigenvalue farther than ``tau_filter`` from the ray gets its vector from
    one inverse-iteration step through an LU of ``A - z``, started from a
    fixed-seed random vector (eigenvectors of symmetric potentials can be
    orthogonal to constants).  When more than 40 survive, one ``eig`` with
    all eigenvectors replaces the LUs: an LU costs 1/32 to 1/60 of an
    ``eig`` at orders 192 to 2048 with one BLAS thread.  Raises
    :class:`BudgetExceeded` when the solve would not fit the budget.  Every
    reported eigenvalue carries a matrix-free residual below ``tau_res``.
    """
    lat = V.lattice
    if tau_filter is None:
        tau_filter = default_tau_filter(params, lat)
    if tau_res is None:
        tau_res = default_tau_res(params, lat)
    A = dense_operator_matrix(params, V, budget_bytes=budget_bytes)
    order = A.shape[0]
    start_time = time.perf_counter()
    work = np.empty((order, order), dtype=complex, order="F")
    work[...] = A.T
    w = scipy.linalg.eigvals(work, overwrite_a=True, check_finite=False)
    far = [distance_to_ray(z) > tau_filter for z in w]
    if sum(far) > _EIG_FALLBACK:
        work[...] = A.T
        del A  # the eigenvectors take the operator's place in the memory model
        w, vl = scipy.linalg.eig(work, left=True, right=False, overwrite_a=True,
                                 check_finite=False)
        # a left eigenvector of A^T is the conjugate of a right one of A
        pairs = ((w[i], _vector_from_flat(lat, vl[:, i].conj())) for i in range(order))
        route, lu_solves = "eig", 0
    else:
        rng = np.random.default_rng(0)
        start = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        vectors = {i: _vector_from_flat(lat, _inverse_iteration(A, w[i], work, start))
                   for i in np.flatnonzero(far)}
        pairs = ((z, vectors.get(i)) for i, z in enumerate(w))
        route, lu_solves = "inverse_iteration", len(vectors)
    seconds = time.perf_counter() - start_time
    info = {"method": "dense", "matrix_order": order}
    result = _package(params, V, lat, pairs, tau_filter, tau_res, info)
    return replace(result, eigensolve={
        "eigenvector_route": route, "lu_solves": lu_solves, "eigensolve_seconds": seconds})


def shift_invert_eigenvalues(params: LameParams, V: Potential, sigma: complex,
                             k: int = 6, tol: float = 1e-10,
                             gmres_tol: float = 1e-12,
                             tau_filter: float = 0.0,
                             tau_res: float | None = None) -> SpectralResult:
    """Matrix-free eigenvalues near ``sigma`` beyond the dense budget.

    Arnoldi on (A - sigma)^-1, applied through GMRES with the unperturbed
    resolvent as preconditioner; acceptance is purely residual based.
    """
    lat = V.lattice
    if tau_res is None:
        tau_res = default_tau_res(params, lat)
    d = lat.dim
    nflat = d * lat.npoints

    def shifted(vec: np.ndarray) -> np.ndarray:
        u = _vector_from_flat(lat, vec)
        out = apply_perturbed(params, V, u) - sigma * u
        # field buffers are frozen; solvers need a writable array back
        return out.values.reshape(-1).copy()

    def precondition(vec: np.ndarray) -> np.ndarray:
        g = _vector_from_flat(lat, vec)
        return resolvent_split(params, sigma, g).values.reshape(-1).copy()

    A_op = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=shifted, dtype=complex)
    M_op = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=precondition, dtype=complex)

    def solve(vec: np.ndarray) -> np.ndarray:
        sol, code = scipy.sparse.linalg.gmres(A_op, vec, M=M_op, rtol=gmres_tol, atol=0.0)
        if code != 0:
            raise RuntimeError(f"inner GMRES failed to converge (code {code})")
        return sol

    OP = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=solve, dtype=complex)
    theta, vecs = scipy.sparse.linalg.eigs(OP, k=k, which="LM", tol=tol)
    pairs = []
    for i in range(len(theta)):
        if theta[i] == 0.0:
            continue
        pairs.append((sigma + 1.0 / theta[i], _vector_from_flat(lat, vecs[:, i])))
    info = {"method": "shift_invert", "sigma": [sigma.real, sigma.imag], "k": k}
    return _package(params, V, lat, pairs, tau_filter, tau_res, info)


# -- Birman-Schwinger --------------------------------------------------------


class BSOperator:
    """Birman-Schwinger operator K = V_1/2 (-Delta* - z)^-1 |V|^1/2.

    ``V_1/2 = |V|^1/2 sgn(V)`` with the complex signum (0 at 0); both factors
    act componentwise and vanish off the support of V.
    """

    def __init__(self, params: LameParams, V: Potential, z: complex):
        _check_admissible(z)
        self.params = params
        self.V = V
        self.z = complex(z)
        mag = np.abs(V.values)
        sgn = np.zeros_like(V.values)
        nz = mag > 0
        sgn[nz] = V.values[nz] / mag[nz]
        self.abs_half = np.sqrt(mag)
        self.v_half = self.abs_half * sgn

    @property
    def lattice(self) -> Lattice:
        return self.V.lattice

    def apply(self, g: VectorField) -> VectorField:
        cut = _adopt(VectorField, g.lattice, self.abs_half[None] * g.values)
        out = resolvent_split(self.params, self.z, cut)
        return _adopt(VectorField, g.lattice, self.v_half[None] * out.values)

    def support_points(self) -> np.ndarray:
        return np.flatnonzero(self.V.support_mask.reshape(-1))

    def dense_matrix(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> np.ndarray:
        """K restricted to the support of V, in the component-major layout."""
        pts = self.support_points()
        if len(pts) == 0:
            return np.zeros((0, 0), dtype=complex)
        R = dense_resolvent_matrix(self.params, self.z, self.lattice, points=pts,
                                   budget_bytes=budget_bytes)
        left = np.concatenate([self.v_half.reshape(-1)[pts]] * self.lattice.dim)
        right = np.concatenate([self.abs_half.reshape(-1)[pts]] * self.lattice.dim)
        R *= left[:, None]
        R *= right[None, :]
        return R


def bs_norm(params: LameParams, V: Potential, z: complex,
            budget_bytes: int = DEFAULT_BUDGET_BYTES) -> float:
    """Largest singular value of the Birman-Schwinger operator at z.

    Both factors of K vanish off the support of V, so this is the exact
    2-norm of the dense restricted kernel; 0 for the zero potential.  At any
    eigenvalue of the discretized -Delta* + V the value is at least 1, since
    -1 then lies in the spectrum of K.
    """
    mat = BSOperator(params, V, z).dense_matrix(budget_bytes=budget_bytes)
    if mat.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def bs_check(params: LameParams, V: Potential, z: complex,
             budget_bytes: int = DEFAULT_BUDGET_BYTES) -> float:
    """Residual min |sigma + 1| over the spectrum of the dense restricted K.

    Near zero exactly when z is an eigenvalue of the discretized -Delta* + V;
    returns 1 for the zero potential (K is the zero operator).
    """
    mat = BSOperator(params, V, z).dense_matrix(budget_bytes=budget_bytes)
    if mat.shape[0] == 0:
        return 1.0
    sigma = np.linalg.eigvals(mat)
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
    change ``tol``.
    """
    _check_admissible(z)
    kind, value = norm_pair
    rng = np.random.default_rng(seed)

    if kind == "lp_dual":
        p = float(value)
        if not 1.0 < p <= 2.0:
            raise ValueError(f"lp_dual pairing needs 1 < p <= 2, got {p}")
        q = p / (p - 1.0)

        op = partial(resolvent_split, params, z)
        op_adj = partial(resolvent_split, params, np.conj(z))
        best = 0.0
        for _ in range(samples):
            start = random_vector_field(lattice, rng)
            best = max(best, lp_operator_norm(op, op_adj, start, p, q, n_iter=n_iter))
        return best

    if kind == "weighted_l2":
        alpha = float(value)
        if alpha < 0.0:
            raise ValueError(f"weight exponent must be >= 0, got {alpha}")
        inv_half = polynomial_weight(lattice, -alpha / 2.0)  # <x>^-alpha

        def conjugated(w):
            def op(g):
                out = resolvent_split(params, w, _adopt(VectorField, lattice, g.values * inv_half))
                return _adopt(VectorField, lattice, out.values * inv_half)
            return op

        return singular_norm(conjugated(z), conjugated(np.conj(z)),
                             random_vector_field(lattice, rng), tol=tol, max_iter=5000)

    raise ValueError(f"unknown norm pairing {kind!r}")
