import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import svdvals

from oracles import eigenvalues_by_full_eig, well_bound_states
from test_acceptance import _bs_fixtures
from lamespectra.lame import LameParams, Potential, apply_lame, apply_perturbed
from lamespectra.lattice import Lattice, VectorField, random_vector_field
from lamespectra.norms import polynomial_weight
from lamespectra.potentials import gaussian_bump, random_ensemble, square_well
from lamespectra.spectra import (
    _EIG_FALLBACK,
    _dense_peak_bytes,
    _inverse_iteration,
    _package,
    BSOperator,
    BudgetExceeded,
    bs_check,
    bs_norm,
    default_tau_filter,
    default_tau_res,
    dense_lame_matrix,
    dense_operator_matrix,
    dense_resolvent_matrix,
    discrete_eigenvalues,
    resolvent_norm_estimate,
    shift_invert_eigenvalues,
    spectral_width,
)

WELL_PARAMS = LameParams(-1.0, 1.0)  # longitudinal speed 1


def _well_fixture(n, L=30.0, depth=5.0):
    """Square well with its edge on a half-cell offset, plus line oracle."""
    lat = Lattice(1, n, L)
    h = lat.spacing
    m = int(round(1.0 / h - 0.5))
    hw = (m + 0.5) * h
    return square_well(lat, depth, hw), well_bound_states(depth, hw, 1.0)


# -- dense assembly ----------------------------------------------------------


def test_dense_lame_matrix_action():
    lat = Lattice(2, 8)
    params = LameParams(1.0, 0.5)
    A = dense_lame_matrix(params, lat)
    rng = np.random.default_rng(0)
    u = random_vector_field(lat, rng)
    direct = apply_lame(params, u).values.reshape(-1)
    assert np.max(np.abs(A @ u.values.reshape(-1) - direct)) < 1e-10


def test_dense_operator_matrix_action():
    lat = Lattice(1, 32, 5.0)
    params = LameParams(0.5, 1.0)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=32) + 1j * rng.normal(size=32)
    V = Potential.from_array(lat, vals)
    A = dense_operator_matrix(params, V)
    u = random_vector_field(lat, rng)
    direct = apply_perturbed(params, V, u).values.reshape(-1)
    assert np.max(np.abs(A @ u.values.reshape(-1) - direct)) < 1e-10


def test_dense_resolvent_inverts_dense_operator():
    lat = Lattice(1, 16, 3.0)
    params = LameParams(1.0, 1.0)
    z = -0.7 + 0.4j
    A = dense_lame_matrix(params, lat)
    R = dense_resolvent_matrix(params, z, lat)
    eye = np.eye(A.shape[0])
    assert np.max(np.abs(R @ (A - z * eye) - eye)) < 1e-10


def test_dense_resolvent_rejects_ray():
    lat = Lattice(1, 8)
    with pytest.raises(ValueError, match="within"):
        dense_resolvent_matrix(LameParams(1.0, 1.0), 2.0, lat)


def test_budget_exceeded_suggests_size():
    params = LameParams(1.0, 1.0)
    budget = 10 * 1024**2
    with pytest.raises(BudgetExceeded) as err:
        dense_lame_matrix(params, Lattice(2, 64), budget_bytes=budget)
    assert "budget is 10 MB" in str(err.value)
    # the hint comes from the model the check uses: n fits, n + 2 does not
    n = int(re.search(r"try n <= (\d+) in dimension 2", str(err.value)).group(1))
    dense_lame_matrix(params, Lattice(2, n), budget_bytes=budget)
    with pytest.raises(BudgetExceeded):
        dense_lame_matrix(params, Lattice(2, n + 2), budget_bytes=budget)


def test_budget_exceeded_when_no_lattice_fits():
    # 3d n=4 is order 192; nothing smaller exists, so no size is suggested
    with pytest.raises(BudgetExceeded) as err:
        dense_lame_matrix(LameParams(1.0, 1.0), Lattice(3, 4), budget_bytes=100_000)
    text = str(err.value)
    assert "try n" not in text
    assert "budget is 100 kB" in text
    need = _dense_peak_bytes(192)
    assert f"even n = 4 needs {need / 1e6:.1f} MB in dimension 3" in text


def test_dense_peak_matches_model():
    # tracemalloc sees every buffer of the solve: the matrices are numpy
    # arrays and scipy's LAPACK wrappers allocate their workspace through
    # numpy (numpy.linalg's own gufuncs would not be traced).  The buffers
    # held do not depend on the values, so the cell is made so large that
    # the symbol of -Delta* underflows to 0: A = diag(V), which LAPACK
    # splits at once, and every shift A - z is exactly singular.
    params = LameParams(0.0, 1.0)
    for order, tau_filter, route in ((512, 509.5, "inverse_iteration"),
                                     (1152, 1149.5, "inverse_iteration"),
                                     (512, 0.5, "eig")):
        V = Potential.from_array(Lattice(1, order, 1e200), -1.0 - np.arange(order))
        tracemalloc.start()
        try:
            res = discrete_eigenvalues(params, V, tau_filter=tau_filter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.eigensolve["eigenvector_route"] == route
        assert len(res) == order - res.solver_info["rejected_by_distance"]
        assert np.all(np.isfinite(res.residuals))
        model = _dense_peak_bytes(order)
        assert 0.9 * model <= peak <= model, (order, route, peak, model)


def test_width_and_default_thresholds():
    lat = Lattice(1, 8)  # period 2 pi, max frequency 4
    params = LameParams(1.0, 1.0)
    assert abs(spectral_width(params, lat) - 3.0 * 16.0) < 1e-12
    assert abs(default_tau_filter(params, lat) - 1e-3 * 48.0) < 1e-15
    assert abs(default_tau_res(params, lat) - 1e-8 * 48.0) < 1e-18


# -- discrete eigenvalues ----------------------------------------------------


def test_free_operator_has_no_discrete_eigenvalues():
    lat = Lattice(1, 32, 5.0)
    V = Potential.from_array(lat, np.zeros(32))
    res = discrete_eigenvalues(LameParams(1.0, 1.0), V)
    assert len(res) == 0
    info = res.solver_info
    assert info["method"] == "dense"
    assert info["rejected_by_distance"] + info["rejected_by_residual"] == info["matrix_order"]


def test_well_eigenvalues_match_shooting_oracle():
    # Rates frozen from the measured h^2 convergence of this family:
    # deepest 2.98e-3 / 8.69e-4 / 2.07e-4, excited 1.52e-2 / 4.55e-3 / 1.09e-3.
    errors = {}
    for n in (128, 256, 512):
        V, oracle = _well_fixture(n)
        res = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=0.5)
        assert len(res) == len(oracle) == 2
        eigs = np.sort(res.eigenvalues.real)
        errors[n] = np.abs(eigs - np.array(oracle)) / np.abs(np.array(oracle))
    assert errors[512][0] < 5e-4
    assert errors[512][1] < 3e-3
    for k in range(2):
        assert errors[128][k] / errors[256][k] > 2.5
        assert errors[256][k] / errors[512][k] > 2.5


def test_real_potential_gives_real_spectrum():
    lat = Lattice(1, 128, 20.0)
    V = gaussian_bump(lat, -12.0, 1.5)
    res = discrete_eigenvalues(LameParams(0.0, 0.5), V, tau_filter=0.1)
    assert len(res) > 0
    assert np.max(np.abs(res.eigenvalues.imag)) < 1e-10


def test_result_invariants_and_dict():
    V, _ = _well_fixture(128)
    tau_filter, tau_res = 0.5, 1e-6
    res = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=tau_filter, tau_res=tau_res)
    assert np.all(res.residuals < tau_res)
    assert np.all(res.distances > tau_filter)
    assert np.all(np.diff(res.eigenvalues.real) >= 0)
    d = res.to_dict()
    assert len(d["eigenvalues"]) == len(res)
    info = d["solver_info"]
    assert info["tau_filter"] == tau_filter
    assert info["n"] == 128
    # every candidate is kept or rejected by exactly one filter
    rejected = info["rejected_by_distance"] + info["rejected_by_residual"]
    assert len(res) + rejected == info["matrix_order"]


def _fast_route_cases():
    lu = "inverse_iteration"
    cases = [pytest.param(params, V, tau, lu, id=f"bs-fixture-{i}")
             for i, (params, V, tau) in enumerate(_bs_fixtures())]
    V, _ = _well_fixture(128)
    cases.append(pytest.param(WELL_PARAMS, V, 0.5, lu, id="well-128"))
    zero = Potential.from_array(Lattice(1, 32, 5.0), np.zeros(32))
    cases.append(pytest.param(LameParams(1.0, 1.0), zero, None, lu, id="zero"))
    cases.append(pytest.param(LameParams(0.0, 0.5), gaussian_bump(Lattice(1, 128, 20.0), -12.0, 1.5),
                              0.1, lu, id="real-gaussian"))
    # a calibrate member at order 512 with 22 eigenvalues past the filter
    member = random_ensemble(Lattice(2, 16), "gaussian", 1, seed=9)[0]
    cases.append(pytest.param(LameParams(0.5, 1.0), member, 4.3, lu, id="calibrate-member"))
    # 56 bound states: more than _EIG_FALLBACK
    well = square_well(Lattice(1, 192, 30.0), 300.0, 5.0)
    cases.append(pytest.param(WELL_PARAMS, well, 0.5, "eig", id="many-survivors"))
    return cases


@pytest.mark.parametrize("params, V, tau_filter, route", _fast_route_cases())
def test_fast_route_matches_full_eig(params, V, tau_filter, route):
    fast = discrete_eigenvalues(params, V, tau_filter=tau_filter)
    slow = eigenvalues_by_full_eig(params, V, tau_filter=tau_filter)
    assert len(fast) == len(slow)
    for key in ("rejected_by_distance", "rejected_by_residual"):
        assert fast.solver_info[key] == slow.solver_info[key]
    gap = np.abs(fast.eigenvalues - slow.eigenvalues)
    assert np.all(gap <= 1e-10 * np.abs(slow.eigenvalues))
    survivors = fast.solver_info["matrix_order"] - fast.solver_info["rejected_by_distance"]
    assert (survivors > _EIG_FALLBACK) == (route == "eig")
    assert fast.eigensolve["eigenvector_route"] == route
    assert fast.eigensolve["lu_solves"] == (survivors if route == "inverse_iteration" else 0)


def test_inverse_iteration_at_an_exact_eigenvalue():
    # A - 2 has an exactly zero pivot; it must not turn the vector into NaN
    A = np.diag([1.0, 2.0, 3.0, 5.0]).astype(complex)
    work = np.empty_like(A, order="F")
    u = _inverse_iteration(A, 2.0, work, np.ones(4, dtype=complex))
    assert np.all(np.isfinite(u))
    assert np.linalg.norm(A @ u - 2.0 * u) <= 1e-12 * np.linalg.norm(u)


def test_package_rejects_nan_residual():
    # a non-finite vector has a NaN residual, which must count as a rejection
    V, _ = _well_fixture(32)
    lat = V.lattice
    bad = VectorField(lat, np.full((1,) + lat.shape, np.nan, dtype=complex))
    res = _package(WELL_PARAMS, V, lat, [(-2.0 + 0.0j, bad)], 0.5, 1e-6, {"method": "test"})
    assert len(res) == 0
    assert res.solver_info["rejected_by_residual"] == 1
    assert res.solver_info["rejected_by_distance"] == 0


def test_shift_invert_matches_dense():
    V, oracle = _well_fixture(128)
    dense = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=0.5)
    target = float(np.min(dense.eigenvalues.real))
    res = shift_invert_eigenvalues(WELL_PARAMS, V, sigma=-4.5 + 0.0j, k=4,
                                   tau_filter=0.5)
    assert len(res) > 0
    nearest = res.eigenvalues[np.argmin(np.abs(res.eigenvalues - target))]
    assert abs(nearest - target) < 1e-8
    assert res.solver_info["method"] == "shift_invert"


# -- Birman-Schwinger --------------------------------------------------------


def test_bs_operator_rejects_ray():
    V, _ = _well_fixture(128)
    with pytest.raises(ValueError, match="within"):
        BSOperator(WELL_PARAMS, V, 1.0)


def test_bs_bilinearity_in_potential():
    V, _ = _well_fixture(128)
    W = Potential.from_array(V.lattice, 2.0 * V.values)
    z = -2.0 + 0.5j
    K1 = BSOperator(WELL_PARAMS, V, z)
    K2 = BSOperator(WELL_PARAMS, W, z)
    rng = np.random.default_rng(2)
    g = random_vector_field(V.lattice, rng)
    a = K2.apply(g).values
    b = 2.0 * K1.apply(g).values
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-12
    assert np.max(np.abs(K2.dense_matrix() - 2.0 * K1.dense_matrix())) < 1e-12


def test_bs_dense_matches_matrix_free():
    V, _ = _well_fixture(64)
    z = -1.5 + 0.3j
    K = BSOperator(WELL_PARAMS, V, z)
    pts = K.support_points()
    mat = K.dense_matrix()
    rng = np.random.default_rng(3)
    g = random_vector_field(V.lattice, rng)
    gflat = np.concatenate([g.values[c].reshape(-1)[pts] for c in range(1)])
    out = K.apply(g)
    oflat = np.concatenate([out.values[c].reshape(-1)[pts] for c in range(1)])
    assert np.max(np.abs(mat @ gflat - oflat)) < 1e-11


def test_bs_check_flags_eigenvalues():
    V, _ = _well_fixture(128)
    res = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=0.5)
    for z in res.eigenvalues:
        assert bs_check(WELL_PARAMS, V, complex(z)) < 1e-8
    assert bs_check(WELL_PARAMS, V, -2.2 + 0.7j) > 1e-3


def test_bs_norm_at_least_one_at_eigenvalue():
    V, _ = _well_fixture(128)
    res = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=0.5)
    z = complex(res.eigenvalues[0])
    assert bs_norm(WELL_PARAMS, V, z) >= 1.0 - 1e-12


def _bs_columns(K):
    """K applied matrix-free to each unit vector on the support, restricted to it."""
    lat = K.lattice
    pts = K.support_points()
    cols = []
    for c in range(lat.dim):
        for p in pts:
            e = np.zeros((lat.dim, lat.npoints), dtype=complex)
            e[c, p] = 1.0
            out = K.apply(VectorField(lat, e.reshape((lat.dim,) + lat.shape)))
            cols.append(out.values.reshape(lat.dim, -1)[:, pts].reshape(-1))
    return np.array(cols).T


def test_bs_norm_is_top_singular_value_for_symmetric_potential():
    # a centred radial bump: the top singular pair of K(z) is degenerate,
    # which a power iteration on K*K resolves slowly or not at all
    params = LameParams(0.5, 1.0)
    V = gaussian_bump(Lattice(2, 12), -35.0, 0.55)
    res = discrete_eigenvalues(params, V, tau_filter=3.0)
    assert len(res) == 5

    def checked_norm(z):
        K = BSOperator(params, V, z)
        norm = bs_norm(params, V, z)
        assert abs(norm - svdvals(K.dense_matrix())[0]) <= 1e-13 * norm
        assert abs(norm - svdvals(_bs_columns(K))[0]) <= 1e-12 * norm
        return norm

    for z in res.eigenvalues:
        assert checked_norm(complex(z)) >= 1.0 - 1e-12
    # off the real axis K(z) is not normal, so its norm exceeds its spectral radius
    checked_norm(-9.0 + 2.0j)


def test_bs_zero_potential():
    lat = Lattice(1, 16, 3.0)
    V = Potential.from_array(lat, np.zeros(16))
    assert bs_norm(WELL_PARAMS, V, -1.0) == 0.0
    assert bs_check(WELL_PARAMS, V, -1.0) == 1.0
    assert BSOperator(WELL_PARAMS, V, -1.0).dense_matrix().shape == (0, 0)


# -- resolvent norm estimates ------------------------------------------------


def _free_resolvent_top_sv(params, z, lat):
    # The symbol is a real symmetric matrix at each frequency, so the
    # resolvent is normal and its norm is 1 / dist(z, symbol eigenvalues).
    xi2 = lat.frequency_norm2.reshape(-1)
    gaps = [np.abs(params.mu * xi2 - z), np.abs(params.longitudinal * xi2 - z)]
    return float(1.0 / np.min(np.concatenate(gaps)))


def test_lp_dual_estimate_p2_matches_closed_form():
    lat = Lattice(1, 64, 10.0)
    params = LameParams(0.0, 1.0)
    z = -1.0 + 0.5j
    exact = _free_resolvent_top_sv(params, z, lat)
    est = resolvent_norm_estimate(params, z, ("lp_dual", 2.0), lat, samples=3)
    assert est <= exact * (1.0 + 1e-9)
    assert est > 0.99 * exact


def test_lp_dual_estimate_below_interpolation_bound():
    # Lower estimate against an independent upper bound: interpolating the
    # L^2 -> L^2 norm with the kernel sup bound L^1 -> L^inf controls
    # L^p -> L^p' in between.
    lat = Lattice(1, 64, 10.0)
    params = LameParams(0.0, 1.0)
    z = -1.0 + 0.5j
    p = 1.2
    q = p / (p - 1.0)
    theta = 2.0 / q
    norm_22 = _free_resolvent_top_sv(params, z, lat)
    R = dense_resolvent_matrix(params, z, lat)
    norm_1inf = float(np.max(np.abs(R)) / lat.cell_volume)
    upper = norm_22**theta * norm_1inf ** (1.0 - theta)
    est = resolvent_norm_estimate(params, z, ("lp_dual", p), lat, samples=3)
    assert 0.0 < est <= upper * (1.0 + 1e-9)


def test_weighted_estimate_matches_dense_svd():
    lat = Lattice(1, 64, 10.0)
    params = LameParams(0.0, 1.0)
    z = -1.0 + 0.5j
    alpha = 1.0
    R = dense_resolvent_matrix(params, z, lat)
    half = polynomial_weight(lat, alpha / 2.0).reshape(-1)
    conj = R / half[:, None] / half[None, :]
    exact = svdvals(conj)[0]
    est = resolvent_norm_estimate(params, z, ("weighted_l2", alpha), lat, tol=1e-10)
    assert abs(est - exact) < 1e-6 * exact


def test_estimate_validation():
    lat = Lattice(1, 16)
    params = LameParams(1.0, 1.0)
    with pytest.raises(ValueError, match="within"):
        resolvent_norm_estimate(params, 1.0, ("lp_dual", 2.0), lat)
    with pytest.raises(ValueError, match="needs 1 < p"):
        resolvent_norm_estimate(params, -1.0, ("lp_dual", 3.0), lat)
    with pytest.raises(ValueError, match="unknown norm pairing"):
        resolvent_norm_estimate(params, -1.0, ("hilbert_schmidt", 2.0), lat)
