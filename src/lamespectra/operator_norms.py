"""Matrix-free operator norm estimation on lattice fields.

Two estimators: classical power iteration on K*K for the largest singular
value, and the nonlinear power method of Boyd for L^p -> L^q norms.  Both
work on ScalarField/VectorField closures and report lower estimates that
increase toward the extremal ratio.
"""

from __future__ import annotations

import numpy as np

from . import trace
from .lattice import _adopt, l2_norm, scalar_lp_norm

__all__ = ["ConvergenceError", "singular_norm", "lp_operator_norm"]

_MIN_ITER = 10  # steps taken before the stopping test may end the power iteration


def _check_tol(tol: float) -> None:
    if not tol > 0.0:  # NaN fails too
        raise ValueError(f"tol must be > 0, got {tol!r}")


class ConvergenceError(RuntimeError):
    """Iteration failed to settle; ``bracket`` holds the last two estimates."""

    def __init__(self, message: str, bracket: tuple):
        super().__init__(message)
        self.bracket = bracket


def singular_norm(apply_op, apply_adjoint, start, tol: float = 1e-10,
                  max_iter: int = 5000) -> float:
    """Largest singular value of K via power iteration on K*K.

    Parameters
    ----------
    apply_op, apply_adjoint : callable
        Field -> field closures for K and its L^2 adjoint.
    start : ScalarField or VectorField
        Nonzero starting iterate.
    tol : float
        Relative change in the estimate below which iteration stops.

    Raises
    ------
    ConvergenceError
        After ``max_iter`` steps without settling; the exception carries the
        last two estimates as a bracket.
    ValueError
        Before any step, when ``max_iter < 1`` or ``tol`` is not positive.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    _check_tol(tol)
    v = start
    nv = l2_norm(v)
    if nv == 0.0:
        raise ValueError("starting iterate is zero")
    v = v * (1.0 / nv)
    sigma_prev = sigma = 0.0
    with trace.stage("iter.singular") as note:
        note["iterations"], note["converged"] = 0, True
        for it in range(1, max_iter + 1):
            kv = apply_op(v)
            sigma_new = l2_norm(kv)
            if sigma_new == 0.0:
                return 0.0
            w = apply_adjoint(kv)
            note["iterations"] = it
            nw = l2_norm(w)
            if nw == 0.0:
                return sigma_new
            v = w * (1.0 / nw)
            sigma_prev, sigma = sigma, sigma_new
            if it >= _MIN_ITER and abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
                return sigma
        note["converged"] = False
    raise ConvergenceError(
        f"power iteration did not settle in {max_iter} steps", (sigma_prev, sigma)
    )


def _duality_map(values: np.ndarray, s: float) -> np.ndarray:
    """Pointwise |v|^(s-1) sgn(v) with the complex signum, 0 at 0."""
    mag = np.abs(values)
    # times the real reciprocal: the bits of values / mag, up to the sign of a zero part
    out = values * np.divide(1.0, mag, out=np.zeros_like(mag), where=mag > 0)
    out *= mag ** (s - 1.0)  # s > 1, so 0 stays 0
    return out


def lp_operator_norm(apply_op, apply_adjoint, start, p: float, q: float,
                     n_iter: int = 40, tol: float = 1e-8) -> float:
    """Lower estimate of the L^p -> L^q operator norm by Boyd's iteration.

    Each step maps the current iterate through K, the L^q duality map, the
    adjoint, and the dual L^p' duality map; tracked ratios ||Kx||_q with
    ||x||_p = 1 are monotone in practice and the best one is returned.
    ``n_iter < 1`` or a ``tol`` that is not positive raises ValueError.
    """
    if not (p > 1.0 and q > 1.0):
        raise ValueError("p and q must exceed 1")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter!r}")
    _check_tol(tol)
    p_dual = p / (p - 1.0)
    cls = type(start)
    lattice = start.lattice
    x = start
    nx = scalar_lp_norm(x, p)
    if nx == 0.0:
        raise ValueError("starting iterate is zero")
    x = x * (1.0 / nx)
    best = 0.0
    with trace.stage("iter.lp") as note:
        note["iterations"], note["converged"] = 0, True
        for it in range(1, n_iter + 1):
            y = apply_op(x)
            gamma = scalar_lp_norm(y, q)
            if gamma == 0.0:
                break
            best = max(best, gamma)
            z = apply_adjoint(_adopt(cls, lattice, _duality_map(y.values, q)))
            note["iterations"] = it
            x_new = _adopt(cls, lattice, _duality_map(z.values, p_dual))
            nx = scalar_lp_norm(x_new, p)
            if nx == 0.0:
                break
            x_new = x_new * (1.0 / nx)
            if scalar_lp_norm(x_new - x, p) <= tol:
                x = x_new
                best = max(best, scalar_lp_norm(apply_op(x), q))
                break
            x = x_new
        else:
            note["converged"] = False
    return best
