import re

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, svdvals

from oracles import (
    bs_apply,
    eigenvalues_by_full_eig,
    resolvent_norm_estimate_rebuilding,
    well_bound_states,
)
from test_acceptance import _bs_fixtures
from test_api import _fresh_python
from lamespectra import trace
from lamespectra.lame import LameParams, Potential, apply_lame, apply_perturbed
from lamespectra.lattice import Lattice, VectorField, random_vector_field
from lamespectra.norms import polynomial_weight
from lamespectra.potentials import gaussian_bump, random_ensemble, square_well
from lamespectra.serialize import plain
from lamespectra.spectra import (
    _dense_peak_bytes,
    _eigenvector_step,
    _package,
    _ray_reach,
    _zgeev_lwork,
    BudgetExceeded,
    bs_check,
    bs_kernel,
    bs_norm,
    default_tau_filter,
    default_tau_res,
    dense_lame_matrix,
    dense_operator_matrix,
    dense_resolvent_matrix,
    discrete_eigenvalues,
    resolvent_norm_estimate,
    spectral_width,
)

WELL_PARAMS = LameParams(-1.0, 1.0)  # longitudinal speed 1


def _solve(params, V, **kwargs):
    """discrete_eigenvalues and the one ``dense.eig`` trace note it logs.

    Its nested stages finish first: assembly (unless the numerical range
    skips the solve), then the residual filter, whose counts agree with the
    result's.
    """
    with trace.record() as stages:
        res = discrete_eigenvalues(params, V, **kwargs)
    *nested, note = stages
    assert note["stage"] == "dense.eig"
    info = res.solver_info
    if note["route"] == "numerical_range":
        (residual,) = nested
    else:
        assembled, residual = nested
        assert assembled["stage"] == "dense.assemble"
        assert assembled["matrix_order"] == info["matrix_order"]
    assert residual["stage"] == "filter.residual"
    assert residual["rejected"] == info["rejected_by_residual"]
    assert residual["checked"] == len(res) + info["rejected_by_residual"]
    assert sum(s["seconds"] for s in nested) <= note["seconds"]
    return res, note


def _well_fixture(n, L=30.0, depth=5.0):
    """Square well with its edge on a half-cell offset, plus line oracle."""
    lat = Lattice(1, n, L)
    h = lat.spacing
    m = int(round(1.0 / h - 0.5))
    hw = (m + 0.5) * h
    return square_well(lat, depth, hw), well_bound_states(depth, hw, 1.0)


# -- dense assembly ----------------------------------------------------------


def test_dense_lame_matrix_action():
    # dense_lame_matrix is built from lame_symbol, so this also checks apply_lame
    # against the symbol
    lat = Lattice(2, 8)
    cases = [(LameParams(1.0, 0.5), 0, 1e-10), (LameParams(1.0, 2.0), 1, 1e-11)]
    for params, seed, bound in cases:
        A = dense_lame_matrix(params, lat)
        u = random_vector_field(lat, np.random.default_rng(seed))
        direct = apply_lame(params, u).values.reshape(-1)
        assert np.max(np.abs(A @ u.values.reshape(-1) - direct)) < bound


def test_dense_operator_matrix_action():
    lat = Lattice(1, 32, 5.0)
    params = LameParams(0.5, 1.0)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=32) + 1j * rng.normal(size=32)
    V = Potential(lat, vals)
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


PEAK_RUN = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import re
import numpy as np
from lamespectra import trace
from lamespectra.lame import LameParams, Potential
from lamespectra.lattice import Lattice
from lamespectra.spectra import discrete_eigenvalues

order, tau_filter = {order}, {tau_filter}
a = np.eye(4, dtype=complex) + 1j
np.linalg.solve(a, a[0])
np.linalg.eigvals(a)
np.random.default_rng(0)


def status(key):
    with open("/proc/self/status") as lines:
        return 1024 * int(re.search(key + r":\\s*(\\d+) kB", lines.read()).group(1))


V = Potential(Lattice(1, order, 1e200), -1.0 - np.arange(order))
resident, peak_before = status("VmRSS"), status("VmHWM")
with trace.record() as stages:
    res = discrete_eigenvalues(LameParams(0.0, 1.0), V, tau_filter=tau_filter)
peak_after = status("VmHWM")
print(stages[-1]["route"], stages[-1]["kernel_order"], len(res),
      res.solver_info["rejected_by_distance"],
      bool(np.all(np.isfinite(res.residuals))), peak_after > peak_before,
      peak_after - resident)
"""


def test_dense_peak_matches_model():
    # real memory: the growth of the peak resident set (VmHWM) over the
    # resident set (VmRSS) just before one solve, in a fresh interpreter with
    # one BLAS thread.  The warm-up runs a tiny solve and loads what a
    # process pays for once: numpy.random, which draws the start vector of
    # the inverse iteration (1.8 MB resident).  ru_maxrss would not do: a
    # child's starts at its parent's peak.  The buffers held do not depend
    # on the values, so the cell is made so large that the symbol of
    # -Delta* underflows to 0: A = diag(V), which LAPACK splits at once.  V
    # is nonzero on every cell, so the vector phase factors I + V R0(z) of
    # the full order, three times.
    for order, tau_filter in ((512, 509.5), (1152, 1149.5)):
        run = PEAK_RUN.format(order=order, tau_filter=tau_filter)
        route, kernel_order, kept, rejected, finite, new_peak, peak = _fresh_python(run).split()
        assert (route, int(kernel_order)) == ("inverse_iteration", order)
        assert int(kept) == order - int(rejected) == 3
        assert finite == "True"
        assert new_peak == "True"  # the solve set the peak, not the warm-up
        model = _dense_peak_bytes(order)
        assert 0.9 * model <= int(peak) <= model, (order, int(peak), model)


def test_zgeev_workspace_bound():
    # the model states zgeev's workspace for eigenvalues alone in closed
    # form; it must cover what the linked LAPACK asks for
    geev_lwork = get_lapack_funcs("geev_lwork", dtype=np.complex128)
    for order in [*range(1, 257), 512, 1152, 2048, 4096]:
        lwork, _ = geev_lwork(order, compute_vl=0, compute_vr=0)
        assert _zgeev_lwork(order) >= int(lwork.real), order


def test_width_and_default_thresholds():
    lat = Lattice(1, 8)  # period 2 pi, max frequency 4
    params = LameParams(1.0, 1.0)
    # lam < -mu: the shear modulus mu is the larger one, so the width is
    # mu max |xi|^2 = 32, not (lam + 2 mu) max |xi|^2 = 16
    soft, lat2 = LameParams(-1.5, 1.0), Lattice(2, 8)
    for p, grid, width in ((params, lat, 48.0), (soft, lat2, 32.0)):
        top = np.linalg.eigvalsh(dense_lame_matrix(p, grid)).max()
        assert abs(top - width) < 1e-12 * width
        assert spectral_width(p, grid) == width
        assert abs(default_tau_filter(p, grid) - 1e-3 * width) < 1e-15
        assert abs(default_tau_res(p, grid) - 1e-8 * width) < 1e-18


# -- discrete eigenvalues ----------------------------------------------------


def test_free_operator_has_no_discrete_eigenvalues():
    lat = Lattice(1, 32, 5.0)
    V = Potential(lat, np.zeros(32))
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
    d = plain(res)
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
    zero = Potential(Lattice(1, 32, 5.0), np.zeros(32))
    # every eigenvalue of -Delta* lies on the ray: the numerical range skips the solve
    cases.append(pytest.param(LameParams(1.0, 1.0), zero, None, "numerical_range", id="zero"))
    cases.append(pytest.param(LameParams(0.0, 0.5), gaussian_bump(Lattice(1, 128, 20.0), -12.0, 1.5),
                              0.1, lu, id="real-gaussian"))
    # a calibrate member at order 512 with 22 eigenvalues past the filter
    member = random_ensemble(Lattice(2, 16), "gaussian", 1, seed=9)[0]
    cases.append(pytest.param(LameParams(0.5, 1.0), member, 4.3, lu, id="calibrate-member"))
    # 56 bound states
    well = square_well(Lattice(1, 192, 30.0), 300.0, 5.0)
    cases.append(pytest.param(WELL_PARAMS, well, 0.5, lu, id="many-survivors"))
    # complex and nonzero on every cell: I + K(z) has the order of A
    lat = Lattice(2, 8, 3.0)
    rng = np.random.default_rng(3)
    values = 20.0 * (rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))
    cases.append(pytest.param(LameParams(0.5, 1.0), Potential(lat, values), 0.5, lu,
                              id="full-support"))
    # with no distance filter every eigenvalue gets a vector, also those within
    # 1e-8 of the ray, where bs_kernel refuses z
    cases.append(pytest.param(LameParams(0.5, 1.0), Potential(lat, values), 0.0, lu,
                              id="full-support-at-the-ray"))
    cases.append(pytest.param(WELL_PARAMS, V, 0.0, lu, id="well-128-at-the-ray"))
    corner = np.where(np.add.outer(np.arange(8), np.arange(8)) < 6, values, 0.0)
    cases.append(pytest.param(LameParams(0.5, 1.0), Potential(lat, corner), 0.0, lu,
                              id="compact-2d-at-the-ray"))
    return cases


@pytest.mark.parametrize("params, V, tau_filter, route", _fast_route_cases())
def test_fast_route_matches_full_eig(params, V, tau_filter, route):
    fast, note = _solve(params, V, tau_filter=tau_filter)
    slow = eigenvalues_by_full_eig(params, V, tau_filter=tau_filter)
    assert len(fast) == len(slow)
    for key in ("rejected_by_distance", "rejected_by_residual"):
        assert fast.solver_info[key] == slow.solver_info[key]
    gap = np.abs(fast.eigenvalues - slow.eigenvalues)
    assert np.all(gap <= 1e-10 * np.abs(slow.eigenvalues))
    survivors = fast.solver_info["matrix_order"] - fast.solver_info["rejected_by_distance"]
    assert note["route"] == route
    if route == "inverse_iteration":
        assert note["lu_solves"] == survivors
        assert note["kernel_order"] == V.lattice.dim * np.count_nonzero(V.values)
    else:
        assert note["lu_solves"] == 0 and survivors == 0


def _range_cases():
    """Random complex potentials in 1d, 2d and 3d, and the criterion-04 fixtures."""
    rng = np.random.default_rng(11)
    cases = []
    # lam < -mu makes mu, not lam + 2 mu, the larger modulus
    for lat, params in ((Lattice(1, 48, 9.0), LameParams(0.5, 1.0)),
                        (Lattice(2, 6, 3.0), LameParams(-1.5, 1.0)),
                        (Lattice(3, 4), LameParams(1.0, 0.5))):
        values = 20.0 * (rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))
        cases.append(pytest.param(params, Potential(lat, values),
                                  id=f"random-{lat.dim}d"))
    cases += [pytest.param(params, V, id=f"bs-fixture-{i}")
              for i, (params, V, _) in enumerate(_bs_fixtures())]
    return cases


@pytest.mark.parametrize("params, V", _range_cases())
def test_numerical_range_bounds_every_eigenvalue(params, V):
    reach = _ray_reach(params, V)
    full = eigenvalues_by_full_eig(params, V, tau_filter=0.0, tau_res=np.inf)
    assert len(full) > 0
    assert np.all(full.distances <= reach)
    # at the reach the solve is skipped, and the report is the full path's
    skipped, note = _solve(params, V, tau_filter=reach)
    assert (note["route"], note["lu_solves"]) == ("numerical_range", 0)
    assert plain(skipped) == plain(eigenvalues_by_full_eig(params, V, tau_filter=reach))
    assert skipped.solver_info["rejected_by_distance"] == skipped.solver_info["matrix_order"]
    # just below it the solve runs
    below = np.nextafter(reach, 0.0)
    solved, note = _solve(params, V, tau_filter=below)
    assert note["route"] == "inverse_iteration"
    assert plain(solved) == plain(eigenvalues_by_full_eig(params, V, tau_filter=below))


def test_skipped_solve_still_checks_the_budget():
    V = Potential(Lattice(2, 16), np.zeros((16, 16)))
    with pytest.raises(BudgetExceeded):
        discrete_eigenvalues(LameParams(1.0, 1.0), V, tau_filter=1.0, budget_bytes=1_000_000)
    assert _solve(LameParams(1.0, 1.0), V, tau_filter=1.0)[1]["route"] == "numerical_range"


def test_inverse_iteration_at_an_exact_eigenvalue():
    # the cell is so large that the symbol of -Delta* underflows to 0:
    # A = diag(V), R0(z) = I / (-z) and K(z) = diag(V) / (-z).  The square
    # roots of |V| are exact, so at z = -4 the pivot of I + K(z), and of the
    # similar I + V R0(z) that the solver factors, is exactly zero; it must
    # not turn the vector into NaN
    params = LameParams(0.0, 1.0)
    V = Potential(Lattice(1, 4, 1e200), np.array([-9.0, -4.0, -1.0, -16.0]))
    A = dense_operator_matrix(params, V)
    assert np.array_equal(A, np.diag(V.values))
    assert bs_kernel(params, V, -4.0)[1, 1] == -1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(4) + bs_kernel(params, V, -4.0), np.ones(4))
    vector, kernel_order = _eigenvector_step(params, V)
    assert kernel_order == 4
    u = vector(-4.0).values[0]
    assert np.all(np.isfinite(u))
    assert np.linalg.norm(A @ u + 4.0 * u) <= 1e-12 * np.linalg.norm(u)
    # through the solver, every eigenvalue past the filter keeps its vector
    res = discrete_eigenvalues(params, V, tau_filter=3.0)
    assert res.eigenvalues.tolist() == [-16.0, -9.0, -4.0]
    assert np.all(res.residuals <= 1e-12)
    # a well over the whole cell: I + V R0(-4) is exactly the zero matrix, so
    # the pivot guard has no norm to scale and moves the diagonal by eps
    V = Potential(Lattice(1, 4, 1e200), np.full(4, -4.0))
    res = discrete_eigenvalues(params, V, tau_filter=3.0)
    assert res.eigenvalues.tolist() == [-4.0] * 4
    assert np.all(res.residuals == 0.0)


def test_zero_potential_below_the_margin_keeps_nothing():
    # a filter below the numerical range's rounding margin lets the rounding
    # noise of the ray through; V = 0 has no Birman-Schwinger kernel, so no
    # such eigenvalue gets a vector and each is rejected by its residual
    lat = Lattice(1, 32, 5.0)
    res, note = _solve(LameParams(1.0, 1.0), Potential(lat, np.zeros(32)), tau_filter=0.0)
    assert (note["route"], note["kernel_order"]) == ("inverse_iteration", 0)
    assert len(res) == 0
    assert res.solver_info["rejected_by_residual"] == note["lu_solves"] > 0


def test_package_rejects_nan_residual():
    # a non-finite vector has a NaN residual, which must count as a rejection;
    # the eigenvalues the distance filter rejected come only as a count
    V, _ = _well_fixture(32)
    lat = V.lattice
    bad = VectorField(lat, np.full((1,) + lat.shape, np.nan, dtype=complex))
    res = _package(WELL_PARAMS, V, [(-2.0 + 0.0j, bad)], 0.5, 1e-6, {"method": "test"},
                   unsolved=31)
    assert len(res) == 0
    assert res.solver_info["rejected_by_residual"] == 1
    assert res.solver_info["rejected_by_distance"] == 31


@pytest.mark.parametrize("tau_filter, tau_res", [
    (np.nan, None), (-0.5, None), (0.5, 0.0), (0.5, np.nan), (0.5, -1e-9),
])
def test_discrete_eigenvalues_rejects_bad_filters(tau_filter, tau_res):
    # a NaN tau_filter fails every comparison, so it would pass eigenvalues to
    # the residual filter without vectors; bad filters are refused up front
    V, _ = _well_fixture(32)
    with pytest.raises(ValueError, match="tau_filter >= 0 and tau_res > 0"):
        discrete_eigenvalues(WELL_PARAMS, V, tau_filter=tau_filter, tau_res=tau_res)


# -- Birman-Schwinger --------------------------------------------------------


def test_bs_operator_rejects_ray():
    V, _ = _well_fixture(128)
    with pytest.raises(ValueError, match="within"):
        bs_kernel(WELL_PARAMS, V, 1.0)


def test_bs_bilinearity_in_potential():
    V, _ = _well_fixture(128)
    W = Potential(V.lattice, 2.0 * V.values)
    z = -2.0 + 0.5j
    rng = np.random.default_rng(2)
    g = random_vector_field(V.lattice, rng)
    a = bs_apply(WELL_PARAMS, W, z, g).values
    b = 2.0 * bs_apply(WELL_PARAMS, V, z, g).values
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-12
    K1, K2 = bs_kernel(WELL_PARAMS, V, z), bs_kernel(WELL_PARAMS, W, z)
    assert np.max(np.abs(K2 - 2.0 * K1)) < 1e-12


def test_bs_dense_matches_matrix_free():
    V, _ = _well_fixture(64)
    z = -1.5 + 0.3j
    pts = np.flatnonzero(V.support_mask.reshape(-1))
    mat = bs_kernel(WELL_PARAMS, V, z)
    rng = np.random.default_rng(3)
    g = random_vector_field(V.lattice, rng)
    gflat = np.concatenate([g.values[c].reshape(-1)[pts] for c in range(1)])
    out = bs_apply(WELL_PARAMS, V, z, g)
    oflat = np.concatenate([out.values[c].reshape(-1)[pts] for c in range(1)])
    assert np.max(np.abs(mat @ gflat - oflat)) < 1e-11


def test_bs_check_flags_eigenvalues():
    V, _ = _well_fixture(128)
    res = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=0.5)
    for z in res.eigenvalues:
        assert bs_check(bs_kernel(WELL_PARAMS, V, complex(z))) < 1e-8
    assert bs_check(bs_kernel(WELL_PARAMS, V, -2.2 + 0.7j)) > 1e-3


def test_bs_norm_at_least_one_at_eigenvalue():
    V, _ = _well_fixture(128)
    res = discrete_eigenvalues(WELL_PARAMS, V, tau_filter=0.5)
    z = complex(res.eigenvalues[0])
    assert bs_norm(bs_kernel(WELL_PARAMS, V, z)) >= 1.0 - 1e-12


def _bs_columns(params, V, z):
    """K applied matrix-free to each unit vector on the support, restricted to it."""
    lat = V.lattice
    pts = np.flatnonzero(V.support_mask.reshape(-1))
    cols = []
    for c in range(lat.dim):
        for p in pts:
            e = np.zeros((lat.dim, lat.npoints), dtype=complex)
            e[c, p] = 1.0
            out = bs_apply(params, V, z, VectorField(lat, e.reshape((lat.dim,) + lat.shape)))
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
        K = bs_kernel(params, V, z)
        norm = bs_norm(K)
        assert abs(norm - svdvals(K)[0]) <= 1e-13 * norm
        assert abs(norm - svdvals(_bs_columns(params, V, z))[0]) <= 1e-12 * norm
        return norm

    for z in res.eigenvalues:
        assert checked_norm(complex(z)) >= 1.0 - 1e-12
    # off the real axis K(z) is not normal, so its norm exceeds its spectral radius
    checked_norm(-9.0 + 2.0j)


def test_bs_zero_potential():
    lat = Lattice(1, 16, 3.0)
    V = Potential(lat, np.zeros(16))
    K = bs_kernel(WELL_PARAMS, V, -1.0)
    assert K.shape == (0, 0)
    assert bs_norm(K) == 0.0
    assert bs_check(K) == 1.0


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
    # a NaN exponent fails every comparison; it is refused before any iteration
    for alpha in (-0.5, np.nan):
        with pytest.raises(ValueError, match="weight exponent must be >= 0"):
            resolvent_norm_estimate(params, -1.0, ("weighted_l2", alpha), lat)


@pytest.mark.parametrize("pair", [("lp_dual", 1.5), ("weighted_l2", 1.0)])
def test_estimate_equals_rebuilding_oracle(pair):
    # the estimator builds each split resolvent once per z; rebuilding it on
    # every application must give the same bits
    lat = Lattice(2, 16)
    params = LameParams(0.5, 1.0)
    for z in (-1.0 + 0.5j, 2.0 + 0.3j):
        kwargs = {"samples": 2, "n_iter": 15, "seed": 3, "tol": 1e-8}
        est = resolvent_norm_estimate(params, z, pair, lat, **kwargs)
        assert est == resolvent_norm_estimate_rebuilding(params, z, pair, lat, **kwargs), z


@pytest.mark.parametrize("alpha", [float("inf"), float("nan"), -0.5])
def test_weighted_estimate_refuses_bad_alpha(alpha, monkeypatch):
    # alpha = inf passed the old `alpha >= 0` test and returned 0.106 here, from
    # a weight that is 1 at the centre and 0 elsewhere; no step runs before the refusal
    import lamespectra.spectra

    def no_step(*args, **kwargs):
        raise AssertionError("an estimator ran")

    monkeypatch.setattr(lamespectra.spectra, "singular_norm", no_step)
    with pytest.raises(ValueError, match="weight exponent must be >= 0 and finite"):
        resolvent_norm_estimate(LameParams(1.0, 1.0), -1.0 + 0.5j, ("weighted_l2", alpha),
                                Lattice(2, 8))


@pytest.mark.parametrize("pair, controls, named", [
    (("lp_dual", 2.0), {"samples": 0}, "samples must be >= 1"),
    (("weighted_l2", 1.0), {"samples": 0}, "samples must be >= 1"),
    (("lp_dual", 2.0), {"n_iter": 0}, "n_iter must be >= 1"),
    (("weighted_l2", 1.0), {"tol": float("nan")}, "tol must be > 0"),
    (("weighted_l2", 1.0), {"tol": -1e-6}, "tol must be > 0"),
])
def test_estimate_refuses_bad_iteration_controls(pair, controls, named):
    # samples=0 and n_iter=0 once returned 0.0 as if it were a lower estimate,
    # and tol=nan ran 5000 power steps before a ConvergenceError
    with pytest.raises(ValueError, match=named):
        resolvent_norm_estimate(LameParams(1.0, 1.0), -1.0, pair, Lattice(2, 8), **controls)
