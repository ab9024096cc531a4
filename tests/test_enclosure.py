import numpy as np
import pytest

from lamespectra.enclosure import (
    BoundSpec,
    CalibrationResult,
    EmptyEnsemble,
    HypothesisViolation,
    bound_rhs,
    calibrate_constant,
    default_gamma_grid,
    default_mc_p,
    enclosure_report,
    scaling_exponent_test,
)
from lamespectra.lame import LameParams, Potential
from lamespectra.lattice import Lattice
from lamespectra.norms import kerman_sayer_norm, lp_norm, weighted_lq_norm
from lamespectra.potentials import gaussian_bump, square_well
from lamespectra.serialize import plain
from lamespectra.spectra import BudgetExceeded, SpectralResult, discrete_eigenvalues

PARAMS = LameParams(0.5, 1.0)


def _complex_gaussian_1d(n=64, L=16.0, amp=-30.0 - 10.0j):
    return gaussian_bump(Lattice(1, n, L), amp, 1.0)


def _real_potential_2d(n=12, amp=-40.0):
    return gaussian_bump(Lattice(2, n), amp, 0.55)


# -- validators ---------------------------------------------------------------


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError, match="unknown theorem"):
        BoundSpec("T_XY", 0.5)


def test_t1d_validator():
    BoundSpec("T1d", 0.5).validate(1)
    with pytest.raises(HypothesisViolation, match="d = 1"):
        BoundSpec("T1d", 0.5).validate(2)
    with pytest.raises(HypothesisViolation, match="gamma must be 1/2"):
        BoundSpec("T1d", 0.4).validate(1)


def test_tlp_validator():
    BoundSpec("T_Lp", 0.5).validate(2)
    BoundSpec("T_Lp", 0.0).validate(3)
    with pytest.raises(HypothesisViolation, match="0 < gamma"):
        BoundSpec("T_Lp", 0.0).validate(2)
    with pytest.raises(HypothesisViolation, match="gamma <= 1/2"):
        BoundSpec("T_Lp", 0.6).validate(3)
    with pytest.raises(HypothesisViolation, match="d >= 2"):
        BoundSpec("T_Lp", 0.5).validate(1)


def test_tmc_validator():
    spec = BoundSpec("T_MC", 0.25, p=1.1)
    spec.validate(2)
    with pytest.raises(HypothesisViolation, match="needs the Morrey-Campanato"):
        BoundSpec("T_MC", 0.25).validate(2)
    with pytest.raises(HypothesisViolation, match="p in"):
        BoundSpec("T_MC", 0.25, p=2.0).validate(2)
    # at gamma = 1/2 in d = 2 the window closes completely
    lower, upper = BoundSpec("T_MC", 0.5).mc_p_window(2)
    assert lower == upper == 1.5
    with pytest.raises(HypothesisViolation, match="p in"):
        BoundSpec("T_MC", 0.5, p=1.5).validate(2)


def test_tks_validator():
    BoundSpec("T_KS", 1.0 / 3.0).validate(2)
    BoundSpec("T_KS", 0.0).validate(3)
    with pytest.raises(HypothesisViolation, match="0.3333"):
        BoundSpec("T_KS", 0.3).validate(2)
    with pytest.raises(HypothesisViolation, match="gamma < 1/2"):
        BoundSpec("T_KS", 0.5).validate(2)


def test_tw_validator():
    BoundSpec("T_W", 0.75, alpha=0.5).validate(2)
    with pytest.raises(HypothesisViolation, match="gamma > 1/2"):
        BoundSpec("T_W", 0.5, alpha=1.0).validate(2)
    with pytest.raises(HypothesisViolation, match="needs the weight exponent"):
        BoundSpec("T_W", 0.75).validate(2)
    with pytest.raises(HypothesisViolation, match="alpha > gamma - 1/2"):
        BoundSpec("T_W", 0.75, alpha=0.25).validate(2)


def test_tsa_validator():
    BoundSpec("T_SA", 0.5).validate(1)
    BoundSpec("T_SA", 0.1).validate(2)
    BoundSpec("T_SA", 0.0).validate(3)
    with pytest.raises(HypothesisViolation, match="gamma >= 1/2 when d = 1"):
        BoundSpec("T_SA", 0.4).validate(1)
    with pytest.raises(HypothesisViolation, match="gamma > 0 when d = 2"):
        BoundSpec("T_SA", 0.0).validate(2)
    V = _complex_gaussian_1d()
    with pytest.raises(HypothesisViolation, match="real-valued"):
        BoundSpec("T_SA", 0.5).validate(1, V)
    W = Potential(V.lattice, V.values.real)
    BoundSpec("T_SA", 0.5).validate(1, W)


# -- derived exponents --------------------------------------------------------


def test_exponent_formulas():
    spec = BoundSpec("T_Lp", 0.25)
    assert spec.sobolev_exponent(2) == 1.25
    assert abs(spec.mc_alpha(2) - 1.6) < 1e-15
    lower, upper = BoundSpec("T_MC", 0.25).mc_p_window(2)
    assert abs(lower - 2.5 / 3.0) < 1e-15
    assert upper == 1.25
    ks = BoundSpec("T_KS", 0.4)
    assert abs(ks.ks_beta(2) - 7.0 / 6.0) < 1e-15
    assert abs(ks.ks_alpha(2) - 5.0 / 3.0) < 1e-15
    assert BoundSpec("T_W", 0.75, alpha=1.0).weighted_q(2) == 2.0


def test_default_mc_p():
    p = default_mc_p(0.25, 2)
    BoundSpec("T_MC", 0.25, p=p).validate(2)
    assert p == 1.125
    with pytest.raises(HypothesisViolation, match="no p >= 1"):
        default_mc_p(0.5, 2)


def test_default_gamma_grids_validate():
    cases = [("T1d", [1]), ("T_SA", [1, 2, 3]), ("T_Lp", [2, 3]),
             ("T_MC", [2, 3]), ("T_KS", [2, 3]), ("T_W", [2, 3])]
    for theorem, dims in cases:
        for dim in dims:
            grid = default_gamma_grid(theorem, dim)
            assert len(grid) > 0
            for g in grid:
                if theorem == "T_MC":
                    spec = BoundSpec(theorem, g, p=default_mc_p(g, dim))
                elif theorem == "T_W":
                    spec = BoundSpec(theorem, g, alpha=g)
                else:
                    spec = BoundSpec(theorem, g)
                spec.validate(dim)
    with pytest.raises(ValueError, match="unknown theorem"):
        default_gamma_grid("T_XY", 2)


# -- right-hand sides ---------------------------------------------------------


def test_t1d_rhs_and_radius():
    V = _complex_gaussian_1d()
    rhs = bound_rhs(BoundSpec("T1d", 0.5), PARAMS, V)
    expected = lp_norm(V, 1.0) / (2.0 * np.sqrt(2.5))
    assert abs(rhs - expected) < 1e-12
    with pytest.raises(HypothesisViolation, match="T1d requires d = 1"):
        bound_rhs(BoundSpec("T1d", 0.5), PARAMS, _real_potential_2d())


def test_tlp_rhs():
    V = _real_potential_2d()
    q = 0.25 + 1.0
    rhs = bound_rhs(BoundSpec("T_Lp", 0.25), PARAMS, V)
    assert abs(rhs - lp_norm(V, q) ** q) < 1e-12


def test_tks_rhs_uses_beta_power():
    V = _real_potential_2d()
    spec = BoundSpec("T_KS", 0.4)
    beta = spec.ks_beta(2)
    Vb = Potential(V.lattice, np.abs(V.values) ** beta)
    expected = kerman_sayer_norm(Vb, spec.ks_alpha(2)).value ** (spec.sobolev_exponent(2) / beta)
    assert bound_rhs(spec, PARAMS, V) == expected


def test_tks_rhs_of_an_overflowing_weight_is_inf():
    # |V|^beta overflows although V is finite: the right-hand side is inf, as
    # for T_Lp, and the Kerman-Sayer scan never sees a non-finite weight
    V = gaussian_bump(Lattice(2, 8), -1e300, 0.7)
    with np.errstate(over="ignore"):
        assert bound_rhs(BoundSpec("T_KS", 0.4), PARAMS, V) == np.inf
        assert bound_rhs(BoundSpec("T_Lp", 0.4), PARAMS, V) == np.inf


def test_tw_rhs():
    V = _real_potential_2d()
    spec = BoundSpec("T_W", 0.75, alpha=0.6)
    qw = spec.weighted_q(2)
    assert bound_rhs(spec, PARAMS, V) == weighted_lq_norm(V, qw, 0.6) ** qw


def test_tsa_rhs_negative_part():
    lat = Lattice(1, 16, 4.0)
    vals = np.array([0.0] * 6 + [-3.0, 2.0, -1.0] + [0.0] * 7)
    V = Potential(lat, vals)
    spec = BoundSpec("T_SA", 0.5)
    q = 1.0
    expected = (3.0 + 1.0) * lat.cell_volume  # ||V_-||_1^1
    assert abs(bound_rhs(spec, PARAMS, V) - expected) < 1e-13
    # repulsive potentials have vanishing negative part
    W = Potential(lat, np.abs(vals))
    assert bound_rhs(spec, PARAMS, W) == 0.0


# -- reports ------------------------------------------------------------------


def test_enclosure_report_t1d_well():
    lat = Lattice(1, 192, 30.0)
    V = square_well(lat, 5.0, 1.0)
    res = discrete_eigenvalues(LameParams(-1.0, 1.0), V, tau_filter=0.5)
    report = enclosure_report(BoundSpec("T1d", 0.5), LameParams(-1.0, 1.0), V, res)
    assert len(report.verdicts) == len(res) > 0
    assert all(v == "inside" for v in report.verdicts)
    assert all(r <= 1.0 for r in report.ratios)
    d = plain(report)
    assert d["bound_spec"] == {"theorem": "T1d", "gamma": 0.5}
    assert len(d["eigenvalues_tested"]) == len(res)


def test_enclosure_report_margin_and_outside():
    lat = Lattice(1, 32, 8.0)
    V = square_well(lat, 2.0, 1.0)
    spec = BoundSpec("T1d", 0.5)
    radius = bound_rhs(spec, LameParams(-1.0, 1.0), V) ** 2
    inside = SpectralResult(np.array([-radius + 0j]), np.zeros(1), np.array([radius]), {})
    outside = SpectralResult(np.array([-1.1 * radius + 0j]), np.zeros(1), np.array([1.1 * radius]), {})
    rep_in = enclosure_report(spec, LameParams(-1.0, 1.0), V, inside, margin=1e-2)
    rep_out = enclosure_report(spec, LameParams(-1.0, 1.0), V, outside, margin=1e-2)
    assert rep_in.verdicts == ("inside",)
    assert rep_out.verdicts == ("outside",)


def test_enclosure_report_vanishing_rhs_gives_inf():
    lat = Lattice(1, 16, 4.0)
    V = Potential(lat, np.full(16, 2.0))  # repulsive, V_- = 0
    fake = SpectralResult(np.array([-1.0 + 0j]), np.zeros(1), np.ones(1), {})
    report = enclosure_report(BoundSpec("T_SA", 0.5), PARAMS, V, fake)
    assert report.rhs_value == 0.0
    assert report.ratios == (float("inf"),)
    assert report.verdicts == ("recorded",)


def test_enclosure_report_ks_records_a2():
    V = _real_potential_2d()
    res = discrete_eigenvalues(PARAMS, V)
    # |V| vanishes outside its support, so the A_2 scan floors those cells
    with pytest.warns(UserWarning, match="floor"):
        report = enclosure_report(BoundSpec("T_KS", 0.4), PARAMS, V, res)
    assert report.extras["a2_constant"] >= 1.0
    assert all(v == "recorded" for v in report.verdicts)


@pytest.mark.parametrize("spec", [BoundSpec("T_MC", 0.25, p=1.1), BoundSpec("T_KS", 0.4)],
                         ids=["T_MC", "T_KS"])
def test_norm_scans_of_the_bound_keep_the_budget(monkeypatch, spec):
    # the scan guards refuse a tiny budget in the report and in the scaling
    # test; the solve is faked, so only the right-hand side sees the budget
    V = _real_potential_2d()
    fake = SpectralResult(np.array([-1.0 + 0j]), np.zeros(1), np.ones(1), {})
    with pytest.raises(BudgetExceeded, match="budget is 1.0 kB"):
        enclosure_report(spec, PARAMS, V, fake, budget_bytes=1000)
    monkeypatch.setattr("lamespectra.enclosure.discrete_eigenvalues", lambda *a, **k: fake)
    with pytest.raises(BudgetExceeded, match="budget is 1.0 kB"):
        scaling_exponent_test(PARAMS, V, spec, scales=(2.0,), budget_bytes=1000)


# -- scaling ------------------------------------------------------------------


def test_scaling_invariance_t1d_exact():
    V = _complex_gaussian_1d()
    report = scaling_exponent_test(PARAMS, V, BoundSpec("T1d", 0.5), scales=(0.5, 2.0))
    assert report.max_eigenvalue_error() < 1e-13
    assert report.max_ratio_deviation() < 1e-13
    assert all(e["predicted_factor"] == 1.0 for e in report.entries)
    assert all(e["n_eigenvalues"] > 0 for e in report.entries)


def test_scaling_invariance_tlp_2d():
    V = _real_potential_2d()
    report = scaling_exponent_test(PARAMS, V, BoundSpec("T_Lp", 0.25), scales=(2.0,))
    assert report.max_eigenvalue_error() < 1e-13
    assert report.max_ratio_deviation() < 1e-13


def test_scaling_negative_control_detects_wrong_exponent():
    # Replacing the theorem exponent by p = 2 in d = 1 must break invariance
    # by exactly a^(2 gamma + d - 2p) = a^-2.
    V = _complex_gaussian_1d()
    report = scaling_exponent_test(PARAMS, V, BoundSpec("T1d", 0.5), scales=(0.5, 2.0),
                                   exponent_override=2.0)
    assert report.max_ratio_deviation() < 1e-12
    for e in report.entries:
        assert e["predicted_factor"] == e["scale"] ** (-2.0)
        drift = abs(e["ratio"] / report.base_ratio - 1.0)
        assert drift > 0.1


def test_scaling_requires_base_eigenvalues():
    lat = Lattice(1, 32, 8.0)
    V = gaussian_bump(lat, -1e-4, 0.5)  # far too weak to bind at this filter
    with pytest.raises(EmptyEnsemble):
        scaling_exponent_test(PARAMS, V, BoundSpec("T1d", 0.5), tau_filter=0.5)


# -- calibration --------------------------------------------------------------


def test_calibrate_scaling_closure():
    # Adding exactly scaled copies must not move the empirical constant.
    V = _complex_gaussian_1d()
    spec = BoundSpec("T1d", 0.5)
    base = calibrate_constant(spec, [(PARAMS, V)])
    scaled = []
    for a in (0.5, 2.0):
        lat_a = Lattice(1, V.lattice.n, V.lattice.period / a)
        scaled.append((PARAMS, Potential(lat_a, a * a * V.values)))
    both = calibrate_constant(spec, [(PARAMS, V)] + scaled)
    assert abs(both.value - base.value) < 1e-13 * base.value
    assert float(base) == base.value


def test_calibrate_records_members():
    V = _complex_gaussian_1d()
    W = _complex_gaussian_1d(amp=-20.0 + 5.0j)
    result = calibrate_constant(BoundSpec("T1d", 0.5), [(PARAMS, V), (PARAMS, W)])
    assert isinstance(result, CalibrationResult)
    assert len(result.members) == 2
    for m in result.members:
        assert m["rhs"] > 0.0
        assert m["n_eigenvalues"] > 0
        assert m["best_ratio"] is not None
    assert result.value == max(m["best_ratio"] for m in result.members)
    assert len(result.fingerprint) == 16
    d = plain(result)
    assert d["bound_spec"] == {"theorem": "T1d", "gamma": 0.5}


def test_calibrate_record_a2():
    V = _real_potential_2d()
    with pytest.warns(UserWarning, match="floor"):
        result = calibrate_constant(BoundSpec("T_KS", 0.4), [(PARAMS, V)])
    assert result.members[0]["a2_constant"] >= 1.0


def test_calibrate_fingerprint_sensitivity():
    V = _complex_gaussian_1d()
    W = _complex_gaussian_1d(amp=-29.0 - 10.0j)
    spec = BoundSpec("T1d", 0.5)
    a = calibrate_constant(spec, [(PARAMS, V)])
    b = calibrate_constant(spec, [(PARAMS, V)])
    c = calibrate_constant(spec, [(PARAMS, W)])
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_calibrate_empty_paths():
    with pytest.raises(EmptyEnsemble, match="at least one"):
        calibrate_constant(BoundSpec("T1d", 0.5), [])
    lat = Lattice(1, 16, 4.0)
    zero = Potential(lat, np.zeros(16))
    with pytest.raises(EmptyEnsemble, match="no ensemble member"):
        calibrate_constant(BoundSpec("T1d", 0.5), [(PARAMS, zero)])


def test_calibrate_validates_members():
    V = _complex_gaussian_1d()
    with pytest.raises(HypothesisViolation, match="real-valued"):
        calibrate_constant(BoundSpec("T_SA", 0.5), [(PARAMS, V)])
