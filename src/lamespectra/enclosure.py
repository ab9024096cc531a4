"""Eigenvalue enclosures: |z|^gamma against potential norms.

Six bound families are supported, each with its hypothesis validator:

===== ========================================== =============================
id    right-hand side                            gamma / parameter ranges
===== ========================================== =============================
T1d   ||V||_1 / (2 sqrt(lam+2mu))                d = 1, gamma = 1/2 (explicit)
T_Lp  ||V||_q^q, q = gamma + d/2                 d>=2; (0,1/2] d=2, [0,1/2] d>=3
T_MC  MC norm ^q, alpha = 2d/(2 gamma + d)       as T_Lp plus a p window
T_KS  KS norm of |V|^beta ^(q/beta)              [1/3,1/2) d=2, [0,1/2) d>=3
T_W   weighted L^qw ^qw, qw = 2 gamma + (d-1)/2  d>=2, gamma>1/2, a>gamma-1/2
T_SA  ||V_-||_q^q, V real                        1/2+ d=1, >0 d=2, >=0 d=3
===== ========================================== =============================

Only T1d carries an explicit constant; the others hold with an unknown
C(gamma, ..., lam, mu), estimated empirically by ensemble calibration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .lame import LameParams, Potential
from .lattice import Lattice, ScalarField
from .norms import (
    kerman_sayer_norm,
    lp_norm,
    morrey_campanato_norm,
    muckenhoupt_constant,
    weighted_lq_norm,
)
from .spectra import (
    DEFAULT_BUDGET_BYTES,
    SpectralResult,
    default_tau_filter,
    discrete_eigenvalues,
)

__all__ = [
    "THEOREM_IDS",
    "HypothesisViolation",
    "EmptyEnsemble",
    "BoundSpec",
    "EnclosureReport",
    "ScalingReport",
    "CalibrationResult",
    "bound_rhs",
    "enclosure_report",
    "scaling_exponent_test",
    "calibrate_constant",
    "default_gamma_grid",
    "default_mc_p",
]

THEOREM_IDS = ("T1d", "T_Lp", "T_MC", "T_KS", "T_W", "T_SA")


class HypothesisViolation(ValueError):
    """A bound was requested outside its hypotheses; the message names them."""


class EmptyEnsemble(RuntimeError):
    """Calibration over an empty ensemble or one without usable eigenvalues."""


@dataclass(frozen=True)
class BoundSpec:
    """One requested bound: theorem id, gamma, and theorem-specific knobs.

    ``p`` is the Morrey-Campanato integrability for T_MC; ``alpha`` is the
    weight exponent for T_W.  Both are ignored by the other theorems.
    """

    theorem: str
    gamma: float
    p: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem!r}; pick from {THEOREM_IDS}")

    def sobolev_exponent(self, dim: int) -> float:
        return self.gamma + dim / 2.0

    def mc_alpha(self, dim: int) -> float:
        return 2.0 * dim / (2.0 * self.gamma + dim)

    def mc_p_window(self, dim: int) -> tuple:
        lower = (dim - 1) * (2.0 * self.gamma + dim) / (2.0 * (dim - 2.0 * self.gamma))
        return lower, self.sobolev_exponent(dim)

    def ks_beta(self, dim: int) -> float:
        return (dim + 2.0 * self.gamma) * (dim - 1) / (2.0 * (dim - 2.0 * self.gamma))

    def ks_alpha(self, dim: int) -> float:
        return 2.0 * dim / (2.0 * self.gamma + dim) * self.ks_beta(dim)

    def weighted_q(self, dim: int) -> float:
        return 2.0 * self.gamma + (dim - 1) / 2.0

    def validate(self, dim: int, V: Potential | None = None) -> None:
        """Raise HypothesisViolation naming the first failed condition."""
        g = self.gamma
        t = self.theorem
        if t == "T1d":
            if dim != 1:
                raise HypothesisViolation(f"T1d requires d = 1, got d = {dim}")
            if g != 0.5:
                raise HypothesisViolation(f"T1d is the |z|^(1/2) bound; gamma must be 1/2, got {g}")
            return
        if t == "T_SA":
            if dim not in (1, 2, 3):
                raise HypothesisViolation(f"T_SA is stated for d in {{1, 2, 3}}, got d = {dim}")
            if dim == 1 and not g >= 0.5:
                raise HypothesisViolation(f"T_SA requires gamma >= 1/2 when d = 1, got {g}")
            if dim == 2 and not g > 0.0:
                raise HypothesisViolation(f"T_SA requires gamma > 0 when d = 2, got {g}")
            if dim == 3 and not g >= 0.0:
                raise HypothesisViolation(f"T_SA requires gamma >= 0 when d = 3, got {g}")
            if V is not None and not V.is_real:
                raise HypothesisViolation("T_SA requires a real-valued potential")
            return
        if dim < 2:
            raise HypothesisViolation(f"{t} requires d >= 2, got d = {dim}")
        if t == "T_W":
            if not g > 0.5:
                raise HypothesisViolation(f"T_W requires gamma > 1/2, got {g}")
            if self.alpha is None:
                raise HypothesisViolation("T_W needs the weight exponent alpha")
            if not self.alpha > g - 0.5:
                raise HypothesisViolation(
                    f"T_W requires alpha > gamma - 1/2 = {g - 0.5}, got alpha = {self.alpha}"
                )
            return
        # the three gamma <= 1/2 families
        if t == "T_KS":
            lo = 1.0 / 3.0 if dim == 2 else 0.0
            if not (lo <= g < 0.5):
                raise HypothesisViolation(
                    f"T_KS requires {lo} <= gamma < 1/2 for d = {dim}, got {g}"
                )
        else:
            if dim == 2 and not (0.0 < g <= 0.5):
                raise HypothesisViolation(f"{t} requires 0 < gamma <= 1/2 when d = 2, got {g}")
            if dim >= 3 and not (0.0 <= g <= 0.5):
                raise HypothesisViolation(f"{t} requires 0 <= gamma <= 1/2 when d >= 3, got {g}")
        if t == "T_MC":
            if self.p is None:
                raise HypothesisViolation("T_MC needs the Morrey-Campanato exponent p")
            lower, upper = self.mc_p_window(dim)
            if not (lower < self.p <= upper):
                raise HypothesisViolation(
                    f"T_MC requires (d-1)(2 gamma + d)/(2(d - 2 gamma)) < p <= gamma + d/2, "
                    f"i.e. p in ({lower}, {upper}], got p = {self.p}"
                )
            if self.p < 1.0:
                raise HypothesisViolation(
                    f"the Morrey-Campanato norm needs p >= 1, got p = {self.p}"
                )

    def to_dict(self) -> dict:
        out = {"theorem": self.theorem, "gamma": self.gamma}
        if self.p is not None:
            out["p"] = self.p
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


def default_mc_p(gamma: float, dim: int) -> float:
    """A p inside the T_MC window (midpoint of its intersection with p >= 1)."""
    spec = BoundSpec("T_MC", gamma, p=None)
    lower, upper = spec.mc_p_window(dim)
    lo = max(lower, 1.0)
    if not lo < upper:
        raise HypothesisViolation(
            f"T_MC admits no p >= 1 at gamma = {gamma}, d = {dim}: window ({lower}, {upper}]"
        )
    return (lo + upper) / 2.0


def default_gamma_grid(theorem: str, dim: int) -> tuple:
    """Stock gamma values per theorem, inside the validated ranges."""
    if theorem == "T1d":
        return (0.5,)
    if theorem == "T_W":
        return (0.75, 1.0)
    if theorem == "T_SA":
        return {1: (0.5, 0.75, 1.0), 2: (0.1, 0.25, 0.5), 3: (0.0, 0.25, 0.5)}[dim]
    if theorem == "T_KS":
        return (1.0 / 3.0, 0.4, 0.45) if dim == 2 else (0.0, 0.1, 0.25, 0.45)
    if theorem == "T_MC":
        return (0.1, 0.25, 0.45) if dim == 2 else (0.0, 0.1, 0.25, 0.45)
    if theorem == "T_Lp":
        return (0.1, 0.25, 0.5) if dim == 2 else (0.0, 0.1, 0.25, 0.5)
    raise ValueError(f"unknown theorem id {theorem!r}")


# -- right-hand sides ---------------------------------------------------------


def bound_rhs(spec: BoundSpec, params: LameParams, V: Potential,
              budget_bytes: int = DEFAULT_BUDGET_BYTES) -> float:
    """Right-hand side of |z|^gamma <= C * rhs for the requested bound.

    T1d includes its explicit constant (so C = 1 there); the others return
    the bare norm power.  ``budget_bytes`` bounds the Morrey-Campanato and
    Kerman-Sayer scans.
    """
    dim = V.lattice.dim
    spec.validate(dim, V)
    q = spec.sobolev_exponent(dim)
    if spec.theorem == "T1d":
        return lp_norm(V, 1.0) / (2.0 * np.sqrt(params.longitudinal))
    if spec.theorem == "T_Lp":
        return lp_norm(V, q) ** q
    if spec.theorem == "T_MC":
        return morrey_campanato_norm(V, spec.mc_alpha(dim), spec.p,
                                     budget_bytes=budget_bytes).value ** q
    if spec.theorem == "T_KS":
        beta = spec.ks_beta(dim)
        weight = np.abs(V.values) ** beta
        if not np.all(np.isfinite(weight)):  # the scan takes finite weights only
            return np.inf
        ks = kerman_sayer_norm(Potential(V.lattice, weight), spec.ks_alpha(dim),
                               budget_bytes=budget_bytes)
        return ks.value ** (q / beta)
    if spec.theorem == "T_W":
        qw = spec.weighted_q(dim)
        return weighted_lq_norm(V, qw, spec.alpha) ** qw
    # T_SA
    neg = np.maximum(-V.values.real, 0.0)
    return lp_norm(Potential(V.lattice, neg), q) ** q


def _a2_constant(V: Potential) -> float:
    """A_2 constant of |V|, recorded beside every T_KS right-hand side."""
    return muckenhoupt_constant(ScalarField(V.lattice, np.abs(V.values)), 2.0).value


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class EnclosureReport:
    """Eigenvalues against one bound: ratios |z|^gamma / rhs and verdicts."""

    bound_spec: dict
    rhs_value: float
    eigenvalues_tested: tuple
    ratios: tuple
    verdicts: tuple
    extras: dict = field(default_factory=dict)


def enclosure_report(spec: BoundSpec, params: LameParams, V: Potential,
                     result: SpectralResult, margin: float = 1e-2,
                     budget_bytes: int = DEFAULT_BUDGET_BYTES) -> EnclosureReport:
    """Test every filtered eigenvalue against the bound.

    For T1d (explicit constant) the verdict is inside/outside the disc of
    radius rhs^2 times (1 + margin); otherwise the ratio is recorded and the
    verdict says so.  ``budget_bytes`` goes to :func:`bound_rhs`.
    """
    rhs = bound_rhs(spec, params, V, budget_bytes=budget_bytes)
    ratios = []
    verdicts = []
    for z in result.eigenvalues:
        z = complex(z)
        ratio = float(abs(z) ** spec.gamma / rhs) if rhs > 0.0 else float("inf")
        ratios.append(ratio)
        if spec.theorem == "T1d":
            inside = abs(z) <= (1.0 + margin) * rhs**2
            verdicts.append("inside" if inside else "outside")
        else:
            verdicts.append("recorded")
    extras = {}
    if spec.theorem == "T_KS":
        extras["a2_constant"] = _a2_constant(V)
    return EnclosureReport(
        bound_spec=spec.to_dict(),
        rhs_value=float(rhs),
        eigenvalues_tested=tuple(complex(z) for z in result.eigenvalues),
        ratios=tuple(ratios),
        verdicts=tuple(verdicts),
        extras=extras,
    )


# -- scaling covariance --------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    """Ratio behavior under V_a(x) = a^2 V(a x), which maps z to a^2 z.

    With the theorem exponent the ratio is scale invariant; with an override
    exponent p it changes by the predicted factor a^(2 gamma + d - 2 p).
    """

    theorem: str
    gamma: float
    exponent: float | None
    base_ratio: float
    entries: tuple

    def max_ratio_deviation(self) -> float:
        """Largest relative gap between measured and predicted ratios."""
        out = 0.0
        for e in self.entries:
            predicted = self.base_ratio * e["predicted_factor"]
            out = max(out, abs(e["ratio"] - predicted) / abs(predicted))
        return out

    def max_eigenvalue_error(self) -> float:
        return max(e["max_rel_eigenvalue_error"] for e in self.entries)


def scaling_exponent_test(params: LameParams, V: Potential, spec: BoundSpec,
                          scales=(0.5, 2.0), tau_filter: float | None = None,
                          tau_res: float | None = None,
                          exponent_override: float | None = None,
                          budget_bytes: int = DEFAULT_BUDGET_BYTES) -> ScalingReport:
    """Run the scaling family and report eigenvalue tracking and ratios.

    The scaled problem keeps the sample array (times a^2) on a lattice of
    period L/a, which realizes V_a exactly on the grid.  ``tau_filter``
    scales along (by a^2) so the same eigenvalues survive the filter.
    ``budget_bytes`` bounds the dense solves and the bound's norm scans.
    """
    lat = V.lattice
    dim = lat.dim
    spec.validate(dim, V)
    if tau_filter is None:
        tau_filter = default_tau_filter(params, lat)

    def rhs_of(pot: Potential) -> float:
        if exponent_override is None:
            return bound_rhs(spec, params, pot, budget_bytes=budget_bytes)
        p = exponent_override
        return lp_norm(pot, p) ** p

    base = discrete_eigenvalues(params, V, tau_filter=tau_filter, tau_res=tau_res,
                                budget_bytes=budget_bytes)
    if len(base) == 0:
        raise EmptyEnsemble("no filtered eigenvalues for the base potential")
    base_rhs = rhs_of(V)
    base_ratio = float(max(abs(z) ** spec.gamma for z in base.eigenvalues) / base_rhs)
    entries = []
    for a in scales:
        a = float(a)
        lat_a = Lattice(dim, lat.n, lat.period / a)
        V_a = Potential(lat_a, a * a * V.values)
        res_a = discrete_eigenvalues(params, V_a, tau_filter=a * a * tau_filter,
                                     tau_res=tau_res, budget_bytes=budget_bytes)
        errs = []
        for z in base.eigenvalues:
            target = a * a * complex(z)
            if len(res_a) == 0:
                errs.append(float("inf"))
                continue
            hit = res_a.eigenvalues[np.argmin(np.abs(res_a.eigenvalues - target))]
            errs.append(float(abs(hit - target) / abs(target)))
        if len(res_a) > 0:
            ratio = float(max(abs(z) ** spec.gamma for z in res_a.eigenvalues) / rhs_of(V_a))
        else:
            ratio = float("nan")
        if exponent_override is None:
            predicted = 1.0
        else:
            predicted = a ** (2.0 * spec.gamma + dim - 2.0 * exponent_override)
        entries.append(
            {
                "scale": a,
                "n_eigenvalues": len(res_a),
                "max_rel_eigenvalue_error": max(errs) if errs else float("inf"),
                "ratio": ratio,
                "predicted_factor": predicted,
            }
        )
    return ScalingReport(
        theorem=spec.theorem,
        gamma=spec.gamma,
        exponent=exponent_override,
        base_ratio=base_ratio,
        entries=tuple(entries),
    )


# -- ensemble calibration ------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Empirical constant C_emp = max |z|^gamma / rhs over an ensemble."""

    value: float
    fingerprint: str
    bound_spec: dict
    members: tuple

    def __float__(self) -> float:
        return self.value


def _ensemble_fingerprint(spec: BoundSpec, ensemble) -> str:
    hasher = hashlib.sha256()
    hasher.update(repr(sorted(spec.to_dict().items())).encode())
    for params, V in ensemble:
        lat = V.lattice
        head = np.array([params.lam, params.mu, lat.dim, lat.n, lat.period], dtype=float)
        hasher.update(head.tobytes())
        hasher.update(np.ascontiguousarray(V.values).tobytes())
    return hasher.hexdigest()[:16]


def calibrate_constant(spec: BoundSpec, ensemble, tau_filter: float | None = None,
                       tau_res: float | None = None,
                       budget_bytes: int = DEFAULT_BUDGET_BYTES) -> CalibrationResult:
    """Calibrate the unknown constant of a bound over (params, V) pairs.

    Every member contributes max |z|^gamma / rhs over its filtered discrete
    eigenvalues; members whose rhs vanishes or that show no eigenvalue are
    recorded but contribute nothing.  Raises :class:`EmptyEnsemble` when the
    ensemble is empty or no member yields a usable ratio.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise EmptyEnsemble("calibration needs at least one (params, V) member")
    members = []
    best = None
    for i, (params, V) in enumerate(ensemble):
        rhs = bound_rhs(spec, params, V, budget_bytes=budget_bytes)
        entry = {"index": i, "rhs": float(rhs), "n_eigenvalues": 0, "best_ratio": None}
        if spec.theorem == "T_KS":
            entry["a2_constant"] = _a2_constant(V)
        if rhs > 0.0:
            res = discrete_eigenvalues(params, V, tau_filter=tau_filter, tau_res=tau_res,
                                       budget_bytes=budget_bytes)
            entry["n_eigenvalues"] = len(res)
            if len(res) > 0:
                ratio = float(max(abs(z) ** spec.gamma for z in res.eigenvalues) / rhs)
                entry["best_ratio"] = ratio
                best = ratio if best is None else max(best, ratio)
        members.append(entry)
    if best is None:
        raise EmptyEnsemble("no ensemble member produced a filtered eigenvalue")
    return CalibrationResult(
        value=best,
        fingerprint=_ensemble_fingerprint(spec, ensemble),
        bound_spec=spec.to_dict(),
        members=tuple(members),
    )
