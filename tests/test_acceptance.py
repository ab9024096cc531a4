"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so the suite doubles as a sign-off report.
Tolerances are frozen; the heavier eigenvalue sweeps keep their empirical
margins noted inline.
"""

import numpy as np
import pytest

from lamespectra.enclosure import (
    BoundSpec,
    HypothesisViolation,
    bound_rhs,
    calibrate_constant,
    default_gamma_grid,
    default_mc_p,
    scaling_exponent_test,
)
from lamespectra.helmholtz import (
    divergence,
    helmholtz_decompose,
    leray_project,
    riesz_empirical_norm,
    riesz_norm_bound,
    splitting_lp_bound,
)
from lamespectra.lame import LameParams, Potential, resolvent_direct, resolvent_split
from lamespectra.lattice import (
    Lattice,
    ScalarField,
    random_vector_field,
    scalar_lp_norm,
    vector_lp_norm,
)
from lamespectra.norms import (
    dyadic_radius_exponents,
    kerman_sayer_norm,
    lp_norm,
    morrey_campanato_norm,
    muckenhoupt_constant,
)
from lamespectra.potentials import gaussian_bump, random_ensemble, square_well
from lamespectra.spectra import bs_check, bs_kernel, bs_norm, discrete_eigenvalues

from oracles import ap_constant_brute, ks_norm_brute, mc_norm_brute


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# -- 1: exact Helmholtz splitting ---------------------------------------------


def test_criterion_01_helmholtz_exactness():
    lat = Lattice(2, 64)
    rng = np.random.default_rng(11)
    worst_pyth = worst_div = worst_idem = 0.0
    for _ in range(100):
        f = random_vector_field(lat, rng)
        total = vector_lp_norm(f, 2.0)
        pair = helmholtz_decompose(f)
        pyth = abs(
            total**2
            - vector_lp_norm(pair.solenoidal, 2.0) ** 2
            - vector_lp_norm(pair.potential, 2.0) ** 2
        )
        worst_pyth = max(worst_pyth, pyth / total**2)
        worst_div = max(worst_div, scalar_lp_norm(divergence(pair.solenoidal), 2.0))
        again = leray_project(pair.solenoidal)
        worst_idem = max(
            worst_idem, vector_lp_norm(again - pair.solenoidal, 2.0) / total
        )
    ok = worst_pyth < 1e-12 and worst_div < 1e-12 and worst_idem < 1e-12
    _report(
        1,
        "helmholtz splitting is exact",
        ok,
        f"pythagoras {worst_pyth:.2e}, div {worst_div:.2e}, idempotence {worst_idem:.2e} over 100 fields",
    )


# -- 2: resolvent route agreement ---------------------------------------------


def test_criterion_02_resolvent_routes_agree():
    lat = Lattice(2, 32)
    rng = np.random.default_rng(23)
    param_set = [LameParams(-1.0, 1.0), LameParams(0.5, 1.0), LameParams(2.0, 0.25)]
    angles = (0.4, np.pi / 2, 2.6, -1.2)
    worst = 0.0
    for params in param_set:
        for r in (0.1, 1.0, 10.0):
            for theta in angles:
                z = r * np.exp(1j * theta)
                g = random_vector_field(lat, rng)
                u_split = resolvent_split(params, z, g)
                u_direct = resolvent_direct(params, z, g)
                rel = vector_lp_norm(u_split - u_direct, 2.0) / vector_lp_norm(
                    u_split, 2.0
                )
                worst = max(worst, rel)
    ok = worst < 1e-12
    _report(
        2,
        "split and direct resolvents agree",
        ok,
        f"worst relative gap {worst:.2e} over 36 (params, z) pairs",
    )


# -- 3: one-dimensional enclosure over a random ensemble ----------------------


def test_criterion_03_one_dimensional_enclosure():
    lat = Lattice(1, 192, 30.0)
    param_cycle = [LameParams(-1.0, 1.0), LameParams(0.0, 1.0), LameParams(3.0, 1.0)]
    spec = BoundSpec("T1d", 0.5)
    contributing = 0
    total_eigs = 0
    worst = 0.0
    for family, seed in (("gaussian", 101), ("well", 202)):
        for i, V in enumerate(random_ensemble(lat, family, 100, seed=seed)):
            params = param_cycle[i % 3]
            # drop the continuum cluster, which detaches by about ||V||_1 / L
            tau = 5.0 * lp_norm(V, 1.0) / lat.period
            res = discrete_eigenvalues(params, V, tau_filter=tau)
            if len(res) == 0:
                continue
            contributing += 1
            total_eigs += len(res)
            rhs = bound_rhs(spec, params, V)
            worst = max(worst, max(abs(z) ** 0.5 / rhs for z in res.eigenvalues))
    # measured: 52 contributing members, 144 eigenvalues, worst ratio 0.324
    ok = worst <= 1.01 and contributing >= 40 and total_eigs >= 100
    _report(
        3,
        "1d enclosure holds on 200 random potentials",
        ok,
        f"worst ratio {worst:.3f} (limit 1.01), {total_eigs} eigenvalues from {contributing} members",
    )


# -- 4: Birman-Schwinger consistency at computed eigenvalues ------------------


def _bs_fixtures():
    lat1 = Lattice(1, 192, 30.0)
    h = lat1.spacing
    m = int(round(1.0 / h - 0.5))
    well = square_well(lat1, 5.0, (m + 0.5) * h)

    lat2 = Lattice(1, 64, 16.0)
    gauss = gaussian_bump(lat2, -30.0 - 10.0j, 1.1)

    lat3 = Lattice(2, 12)
    L = lat3.period
    g1 = gaussian_bump(lat3, -35.0, 0.55, center=(L / 2 - 0.4, L / 2))
    g2 = gaussian_bump(lat3, -18.0, 0.75, center=(L / 2 + 0.7, L / 2 + 0.3))
    lopsided = Potential(lat3, g1.values + g2.values)

    # centred radial bump: degenerate eigenvalues and singular values of K
    symmetric = gaussian_bump(lat3, -35.0, 0.55)

    return (
        (LameParams(-1.0, 1.0), well, 0.5),
        (LameParams(0.0, 1.0), gauss, 3.0),
        (LameParams(0.5, 1.0), lopsided, 3.0),
        (LameParams(0.5, 1.0), symmetric, 3.0),
    )


def test_criterion_04_birman_schwinger_consistency():
    worst_gap = 0.0
    lowest_norm = np.inf
    count = 0
    for params, V, tau in _bs_fixtures():
        res = discrete_eigenvalues(params, V, tau_filter=tau)
        assert len(res) > 0
        for z in res.eigenvalues:
            K = bs_kernel(params, V, complex(z))
            worst_gap = max(worst_gap, bs_check(K))
            lowest_norm = min(lowest_norm, bs_norm(K))
            count += 1
    ok = worst_gap < 1e-6 and lowest_norm >= 1.0 - 1e-6
    _report(
        4,
        "K(z) has eigenvalue -1 and norm >= 1 at discrete eigenvalues",
        ok,
        f"worst |sigma + 1| gap {worst_gap:.2e}, lowest norm {lowest_norm:.9f} over {count} eigenvalues",
    )


# -- 5: scaling covariance with a negative control ----------------------------


def test_criterion_05_scaling_covariance():
    V = gaussian_bump(Lattice(1, 64, 16.0), -30.0 - 10.0j, 1.1)
    params = LameParams(0.0, 1.0)
    spec = BoundSpec("T1d", 0.5)

    rep = scaling_exponent_test(params, V, spec, scales=(0.5, 2.0), tau_filter=3.0)
    track = rep.max_eigenvalue_error()
    drift = rep.max_ratio_deviation()

    # wrong norm exponent: the ratio must move by a^(2 gamma + d - 2 p)
    ctrl = scaling_exponent_test(
        params, V, spec, scales=(0.5, 2.0), tau_filter=3.0, exponent_override=2.0
    )
    ctrl_dev = ctrl.max_ratio_deviation()
    ctrl_moves = min(
        abs(e["ratio"] / ctrl.base_ratio - 1.0) for e in ctrl.entries
    )
    ok = (
        track < 1e-6
        and drift < 1e-4
        and ctrl_dev < 1e-6
        and ctrl_moves > 0.1
    )
    _report(
        5,
        "a^2 V(a x) maps z to a^2 z and keeps the bound ratio",
        ok,
        f"tracking {track:.2e}, ratio drift {drift:.2e}; control follows a^-2 to {ctrl_dev:.2e} "
        f"while moving {ctrl_moves:.2f} from 1",
    )


# -- 6: Riesz transform constants ---------------------------------------------


def test_criterion_06_riesz_constants():
    lat = Lattice(2, 32)
    details = []
    ok = True
    for p in (4.0 / 3.0, 2.0, 4.0):
        bound = riesz_norm_bound(p)
        for axis in (0, 1):
            est = riesz_empirical_norm(lat, axis, p, seed=axis + 7)
            ok = ok and est <= bound + 0.05
            if p == 2.0:
                ok = ok and est >= 0.999
        details.append(f"p={p:.3g}: est {est:.4f} vs cot bound {bound:.4f}")
    _report(6, "empirical Riesz norms sit at the cotangent constants", ok, "; ".join(details))


# -- 7: L^p splitting bound ----------------------------------------------------


def test_criterion_07_lp_splitting_bound():
    lat = Lattice(2, 32)
    rng = np.random.default_rng(31)
    details = []
    ok = True
    for p in (4.0 / 3.0, 2.0, 4.0):
        allowed = splitting_lp_bound(p, 2)
        worst = 0.0
        for _ in range(100):
            f = random_vector_field(lat, rng)
            pair = helmholtz_decompose(f)
            lhs = vector_lp_norm(pair.solenoidal, p) + vector_lp_norm(pair.potential, p)
            worst = max(worst, lhs / vector_lp_norm(f, p))
        ok = ok and worst <= allowed
        details.append(f"p={p:.3g}: worst {worst:.3f} <= {allowed:.3f}")
    _report(7, "component norms obey (1 + 2 c_p^2 d)", ok, "; ".join(details))


# -- 8: norm scans against brute force, plus the Lebesgue embedding -----------


def _integer_ball_count(j, dim):
    """Points of Z^dim with |m|^2 <= 4^j, not truncated to any grid."""
    r = 2**j
    axes = np.arange(-r, r + 1)
    grids = np.meshgrid(*([axes] * dim), indexing="ij")
    m2 = sum(g * g for g in grids)
    return int(np.count_nonzero(m2 <= 4**j))


def _grid_embedding_constant(lattice, alpha, p):
    c = 0.0
    h = lattice.spacing
    d = lattice.dim
    for j in dyadic_radius_exponents(lattice):
        count = _integer_ball_count(j, d)
        r = h * 2.0**j
        c = max(c, (count * h**d / r**d) ** (1.0 / p - alpha / d))
    return c


def test_criterion_08_norm_scans_match_brute_force():
    rng = np.random.default_rng(47)
    mc_exact = ap_exact = True
    ks_worst = 0.0
    for dim, n in ((1, 4), (1, 8), (2, 4), (2, 8)):
        lat = Lattice(dim, n, float(n))
        shape = lat.shape
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        V = Potential(lat, vals)
        # keep the raw real array: the oracle must see float64, not the
        # complex field storage, or the pow kernels diverge in the last ulp
        w_vals = np.abs(rng.normal(size=shape)) + 0.2
        w = ScalarField(lat, w_vals)
        for alpha, p in ((0.5, 1.0), (0.8, 1.2)):
            mc_exact = mc_exact and (
                morrey_campanato_norm(V, alpha, p).value == mc_norm_brute(V, alpha, p)
            )
        for alpha in (0.5, 0.75 * dim):
            lib = kerman_sayer_norm(V, alpha).value
            brute = ks_norm_brute(V, alpha)
            ks_worst = max(ks_worst, abs(lib - brute) / brute)
        for p in (1.5, 2.0, 3.0):
            ap_exact = ap_exact and (
                muckenhoupt_constant(w, p).value == ap_constant_brute(w_vals, n, dim, p)
            )

    # grid-uniform embedding M_{alpha,p} <= c_grid ||V||_{d/alpha}
    embed_ok = True
    worst_util = 0.0
    cases = ((Lattice(1, 16, 8.0), 0.5, 1.5), (Lattice(2, 16), 1.0, 1.2))
    for lat, alpha, p in cases:
        c_grid = _grid_embedding_constant(lat, alpha, p)
        members = []
        for fam, seed in (("gaussian", 3), ("well", 5), ("inverse_power", 9)):
            members.extend(random_ensemble(lat, fam, 2, seed=seed))
        for V in members:
            mc = morrey_campanato_norm(V, alpha, p).value
            cap = c_grid * lp_norm(V, lat.dim / alpha)
            worst_util = max(worst_util, mc / cap)
            embed_ok = embed_ok and mc <= cap * (1.0 + 1e-12)
    ok = mc_exact and ap_exact and ks_worst < 1e-13 and embed_ok
    _report(
        8,
        "norm scans are exact and the embedding constant holds",
        ok,
        f"MC bitwise {mc_exact}, A_p bitwise {ap_exact}, KS within {ks_worst:.1e}, "
        f"embedding utilization {worst_util:.4f}",
    )


# -- 9: compensated resolvent growth near the essential ray -------------------


def test_criterion_09_compensated_resolvent_growth():
    from lamespectra.spectra import resolvent_norm_estimate

    lat = Lattice(2, 256, 64.0)
    params = LameParams(0.5, 1.0)
    theta = 0.1
    comp_p = []
    comp_w = []
    for r in (0.1, 1.0, 10.0, 100.0):
        z = r * np.exp(1j * theta)
        est_p = resolvent_norm_estimate(
            params, z, ("lp_dual", 1.2), lat, samples=3, n_iter=25, seed=0
        )
        comp_p.append(abs(z) ** (1.0 / 3.0) * est_p)
        est_w = resolvent_norm_estimate(
            params, z, ("weighted_l2", 1.0), lat, samples=3, tol=1e-5, seed=0
        )
        comp_w.append(abs(z) ** 0.5 * est_w)
    factor_p = max(comp_p) / min(comp_p)
    factor_w = max(comp_w) / min(comp_w)
    # measured 1.39 and 1.64 across |z| in [0.1, 100]
    ok = factor_p < 3.0 and factor_w < 3.0 and min(comp_p) > 0 and min(comp_w) > 0
    _report(
        9,
        "|z|^(1/3) and |z|^(1/2) compensate the resolvent along a near ray",
        ok,
        f"spread {factor_p:.2f} (dual pair), {factor_w:.2f} (weighted) over 4 decades",
    )


# -- 10: calibration stability across resolutions -----------------------------

CAL_PARAMS = LameParams(0.5, 1.0)
CAL_TAU = 4.3


def _dipole_member(lat, k):
    """Smooth complex potential: real well plus an odd imaginary dipole."""
    B, w, kap, delta, axis = [
        (22.0, 0.85, 5.0, 0.45, 0),
        (28.0, 0.80, 6.0, 0.40, 1),
        (25.0, 0.90, 4.0, 0.50, 0),
    ][k]
    L = lat.period
    c = np.array([L / 2.0, L / 2.0])
    e = np.zeros(2)
    e[axis] = 1.0
    sr = 0.49 * L
    real = gaussian_bump(lat, -B, w, center=c, support_radius=sr)
    plus = gaussian_bump(lat, kap, w, center=c + delta * e, support_radius=sr)
    minus = gaussian_bump(lat, kap, w, center=c - delta * e, support_radius=sr)
    return Potential(lat, real.values + 1j * (plus.values - minus.values))


def _calibration_specs():
    specs = []
    for gamma in default_gamma_grid("T_Lp", 2):
        specs.append(BoundSpec("T_Lp", gamma))
    for gamma in default_gamma_grid("T_MC", 2):
        specs.append(BoundSpec("T_MC", gamma, p=default_mc_p(gamma, 2)))
    for gamma in default_gamma_grid("T_KS", 2):
        specs.append(BoundSpec("T_KS", gamma))
    for gamma in default_gamma_grid("T_W", 2):
        specs.append(BoundSpec("T_W", gamma, alpha=gamma))
    return specs


def test_criterion_10_calibration_stability():
    specs = _calibration_specs()
    assert len(specs) == 11

    spectra = {}
    for n in (16, 32):
        lat = Lattice(2, n)
        for k in range(3):
            V = _dipole_member(lat, k)
            spectra[(n, k)] = (V, discrete_eigenvalues(CAL_PARAMS, V, tau_filter=CAL_TAU))

    worst_drift = 0.0
    constants = {}
    for spec in specs:
        C = {}
        for n in (16, 32):
            best = 0.0
            for k in range(3):
                V, res = spectra[(n, k)]
                rhs = bound_rhs(spec, CAL_PARAMS, V)
                best = max(best, max(abs(z) ** spec.gamma for z in res.eigenvalues) / rhs)
            C[n] = best
        constants[(spec.theorem, spec.gamma)] = C
        worst_drift = max(worst_drift, abs(C[32] / C[16] - 1.0))
    finite = all(
        0.0 < C[16] < np.inf and 0.0 < C[32] < np.inf for C in constants.values()
    )

    # the homogeneous families keep C under a^2 V(a x) (binary scale, exact)
    scaling_specs = (
        BoundSpec("T_Lp", 0.25),
        BoundSpec("T_MC", 0.25, p=default_mc_p(0.25, 2)),
        BoundSpec("T_KS", 0.4),
    )
    V0 = spectra[(16, 0)][0]
    worst_scaling = 0.0
    for spec in scaling_specs:
        rep = scaling_exponent_test(
            CAL_PARAMS, V0, spec, scales=(0.5, 2.0), tau_filter=CAL_TAU
        )
        worst_scaling = max(
            worst_scaling, rep.max_ratio_deviation(), rep.max_eigenvalue_error()
        )

    # hypothesis boundaries stay rejected
    with pytest.raises(HypothesisViolation):
        default_mc_p(0.5, 2)
    with pytest.raises(HypothesisViolation):
        BoundSpec("T_KS", 0.5).validate(2, V0)
    with pytest.raises(HypothesisViolation):
        BoundSpec("T_Lp", 0.0).validate(2, V0)
    with pytest.raises(HypothesisViolation):
        BoundSpec("T_W", 0.75, alpha=0.2).validate(2, V0)

    # the packaged calibrator agrees with the by-hand constant
    spec = BoundSpec("T_Lp", 0.25)
    cal = calibrate_constant(
        spec,
        [(CAL_PARAMS, spectra[(16, k)][0]) for k in range(3)],
        tau_filter=CAL_TAU,
    )
    manual = constants[("T_Lp", 0.25)][16]
    cal_match = abs(cal.value - manual) / manual < 1e-12 and len(cal.fingerprint) == 16

    # measured worst drift 4.7e-2 (T_KS gamma=1/3); scan families refine with n
    ok = worst_drift <= 0.05 and finite and worst_scaling < 1e-10 and cal_match
    _report(
        10,
        "empirical constants are stable in n and scale invariant",
        ok,
        f"worst drift {worst_drift:.3f} over 11 bounds, scaling deviation {worst_scaling:.1e}, "
        f"calibrator matches by-hand value",
    )
