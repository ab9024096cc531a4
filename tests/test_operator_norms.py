import numpy as np
import pytest
from scipy.linalg import svdvals

from lamespectra.lattice import Lattice, ScalarField
from lamespectra.operator_norms import ConvergenceError, lp_operator_norm, singular_norm


def _matrix_closures(lat, mat):
    """Wrap a dense matrix acting on flattened scalar fields."""

    def fwd(f):
        return ScalarField(lat, (mat @ f.values.ravel()).reshape(lat.shape))

    def adj(f):
        return ScalarField(lat, (mat.conj().T @ f.values.ravel()).reshape(lat.shape))

    return fwd, adj


def test_singular_norm_matches_svd():
    lat = Lattice(1, 16)
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    fwd, adj = _matrix_closures(lat, mat)
    start = ScalarField(lat, rng.normal(size=16).astype(complex))
    est = singular_norm(fwd, adj, start, tol=1e-12)
    assert abs(est - svdvals(mat)[0]) < 1e-8


def test_singular_norm_diagonal_exact():
    lat = Lattice(1, 8)
    diag = np.array([3.0, -1.0, 0.5, 2.0, 0.1, 1.5, 2.5, 0.7])

    def mul(f):
        return ScalarField(lat, diag * f.values)

    start = ScalarField(lat, np.ones(8, dtype=complex))
    assert abs(singular_norm(mul, mul, start, tol=1e-13) - 3.0) < 1e-10


def test_singular_norm_zero_start_rejected():
    lat = Lattice(1, 8)
    ident = lambda f: f
    with pytest.raises(ValueError):
        singular_norm(ident, ident, ScalarField.zeros(lat))


def test_convergence_error_carries_bracket():
    # A nearly degenerate top singular pair keeps the iteration from settling
    # in few steps, which is exactly when the bracket matters.
    lat = Lattice(1, 8)
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    sigma = np.array([1.0, 1.0 - 1e-5, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
    mat = u @ np.diag(sigma) @ v.T
    fwd, adj = _matrix_closures(lat, mat)
    start = ScalarField(lat, rng.normal(size=8).astype(complex))
    with pytest.raises(ConvergenceError) as err:
        singular_norm(fwd, adj, start, tol=1e-13, max_iter=60)
    lo, hi = err.value.bracket
    assert 0.5 < hi <= 1.0 + 1e-10
    assert lo <= hi + 1e-12


def test_lp_norm_multiplication_operator():
    # A multiplication operator m from L^p to L^q with q >= p attains its norm
    # on a single-cell indicator, giving max|m| * h^(d/q - d/p) exactly.
    lat = Lattice(1, 16, 2.0)
    rng = np.random.default_rng(9)
    m = rng.normal(size=16)
    m[5] = 4.0  # clear maximum

    def mul(f):
        return ScalarField(lat, m * f.values)

    p, q = 2.0, 4.0
    h = lat.spacing
    expected = np.max(np.abs(m)) * h ** (1.0 / q - 1.0 / p)
    # A constant start locks onto the dominant atom after one sweep.
    start = ScalarField(lat, np.ones(16, dtype=complex))
    est = lp_operator_norm(mul, mul, start, p, q, n_iter=80)
    assert abs(est - expected) < 1e-9

    # A generic start may settle on a lesser atom, but never exceeds the norm.
    other = ScalarField(lat, rng.normal(size=16).astype(complex))
    est_low = lp_operator_norm(mul, mul, other, p, q, n_iter=80)
    assert est_low <= expected + 1e-10
    atoms = np.abs(m) * h ** (1.0 / q - 1.0 / p)
    assert np.min(np.abs(atoms - est_low)) < 1e-9


def test_lp_norm_p2_matches_svd():
    lat = Lattice(1, 12)
    rng = np.random.default_rng(10)
    mat = rng.normal(size=(12, 12))
    fwd, adj = _matrix_closures(lat, mat)
    start = ScalarField(lat, rng.normal(size=12).astype(complex))
    est = lp_operator_norm(fwd, adj, start, 2.0, 2.0, n_iter=200, tol=1e-12)
    assert abs(est - svdvals(mat)[0]) < 1e-6


def test_lp_norm_rejects_bad_exponents():
    lat = Lattice(1, 8)
    ident = lambda f: f
    start = ScalarField(lat, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        lp_operator_norm(ident, ident, start, 1.0, 2.0)
    with pytest.raises(ValueError):
        lp_operator_norm(ident, ident, start, 2.0, 0.5)
    with pytest.raises(ValueError):
        lp_operator_norm(ident, ident, start, float("nan"), 2.0)
    with pytest.raises(ValueError):
        lp_operator_norm(ident, ident, start, 2.0, float("nan"))


def _refused(*args, **kwargs):
    raise AssertionError("the operator was applied before the controls were checked")


@pytest.mark.parametrize("controls, named", [
    ({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
    ({"tol": 0.0}, "tol"), ({"tol": -1e-8}, "tol"), ({"tol": float("nan")}, "tol"),
])
def test_singular_norm_refuses_bad_controls_before_any_step(controls, named):
    # max_iter=0 once returned 0.0, and tol=nan ran every step before raising
    start = ScalarField(Lattice(1, 8), np.ones(8, dtype=complex))
    with pytest.raises(ValueError, match=named):
        singular_norm(_refused, _refused, start, **controls)


@pytest.mark.parametrize("controls, named", [
    ({"n_iter": 0}, "n_iter"), ({"n_iter": -1}, "n_iter"),
    ({"tol": 0.0}, "tol"), ({"tol": -1e-8}, "tol"), ({"tol": float("nan")}, "tol"),
])
def test_lp_norm_refuses_bad_controls_before_any_step(controls, named):
    # n_iter=0 once returned 0.0 as if it were a lower estimate
    start = ScalarField(Lattice(1, 8), np.ones(8, dtype=complex))
    with pytest.raises(ValueError, match=named):
        lp_operator_norm(_refused, _refused, start, 2.0, 2.0, **controls)
