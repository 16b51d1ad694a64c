import numpy as np
import pytest

from manifold_descent.linalg import (
    RELATIVE_EIG_TOL,
    NonFinite,
    SingularMatrix,
    SymMatrix,
    _clears_gate,
    _kernel_tol,
    spectral_split,
    sym_eig,
)
from manifold_descent.manifold import Euclidean
from manifold_descent.objective import Objective
from manifold_descent.optim import (
    NewQNewtonParams,
    _new_q_newton_step,
    _newton_step,
)


def test_sym_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        SymMatrix([1.0, 2.0])


def test_sym_matrix_rejects_nonfinite():
    with pytest.raises(NonFinite):
        SymMatrix([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(NonFinite):
        SymMatrix([[np.nan]])


def test_sym_matrix_rejects_asymmetry_beyond_gate():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 1e-9], [0.0, 1.0]])


def test_sym_matrix_symmetrizes_small_asymmetry():
    M = SymMatrix([[1.0, 2.0 + 1e-13], [2.0, 1.0]])
    assert M.entries[0, 1] == M.entries[1, 0]
    assert M.dim == 2


def test_sym_matrix_entries_write_protected():
    M = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        M.entries[0, 0] = 5.0


@pytest.mark.parametrize("seed", range(5))
def test_sym_eig_reconstructs_matrix(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    B = rng.standard_normal((m, m))
    M = SymMatrix(B + B.T)
    lam, U = sym_eig(M)
    # ascending order and A v = lambda v
    assert np.all(np.diff(lam) >= 0)
    for k in range(m):
        assert np.allclose(M.entries @ U[:, k], lam[k] * U[:, k], atol=1e-10)
    # orthonormal columns
    assert np.allclose(U.T @ U, np.eye(m), atol=1e-12)


@pytest.mark.parametrize("a", [-2.5, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
                               5e-324, 7.0])
def test_one_by_one_sym_eig_is_eigh_bit_for_bit(a):
    # The 1x1 case skips LAPACK; its result must be eigh's to the bit,
    # sign of zero included, and writable like eigh's.
    want_lam, want_U = np.linalg.eigh(np.array([[a]]))
    lam, U = sym_eig(SymMatrix([[a]]))
    for got, want in ((lam, want_lam), (U, want_U)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable


def test_kernel_tol_is_relative():
    assert _kernel_tol(np.abs([1.0, -1e9])) == RELATIVE_EIG_TOL * (1.0 + 1e9)


def _is_invertible(entries):
    return _clears_gate(np.abs(sym_eig(SymMatrix(entries))[0]))


def test_is_invertible_scales_with_spectrum():
    assert _is_invertible(np.eye(3))
    assert not _is_invertible(np.zeros((2, 2)))
    # 1e-11 would pass an absolute 1e-12 test but fails the relative one
    assert not _is_invertible(np.diag([1e-11, 1.0]))
    assert _is_invertible(np.diag([1.0, 1e9]))


def test_spectral_split_signs():
    M = SymMatrix(np.diag([2.0, -3.0]))
    E = sym_eig(M)
    w_plus, w_minus = spectral_split(E, [1.0, 1.0])
    assert np.allclose(w_plus, [1.0, 0.0])
    assert np.allclose(w_minus, [0.0, 1.0])


def test_spectral_split_drops_kernel():
    M = SymMatrix(np.diag([1.0, 0.0, -1.0]))
    E = sym_eig(M)
    w_plus, w_minus = spectral_split(E, [1.0, 1.0, 1.0])
    assert np.allclose(w_plus + w_minus, [1.0, 0.0, 1.0])


def test_spectral_split_rejects_wrong_length():
    E = sym_eig(SymMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        spectral_split(E, [1.0, 2.0, 3.0])


def _constant_hessian(H, g):
    # An objective whose Hessian is H everywhere on flat space; the
    # steppers take the gradient g as an argument.
    obj = Objective(lambda x: 0.0, lambda x: g, lambda x: SymMatrix(H),
                    Euclidean(len(g)))
    return obj, np.zeros(len(g)), np.linalg.norm(g)


@pytest.mark.parametrize("seed", range(5))
def test_solve_sym_matches_reference(seed):
    # The Newton step from 0 with gradient b is -M^-1 b, formed as
    # U (U^T b / lambda) behind the gate.
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 8))
    B = rng.standard_normal((m, m))
    M = SymMatrix(B @ B.T + np.eye(m))
    b = rng.standard_normal(m)
    assert _clears_gate(np.abs(sym_eig(M)[0]))
    obj, x0, bn = _constant_hessian(M.entries, b)
    x = -_newton_step(obj.domain, obj, x0, 0.0, b, bn, np.inf, 1.0, obj.grad)[0]
    assert np.allclose(M.entries @ x, b, atol=1e-9)
    assert np.allclose(x, np.linalg.solve(M.entries, b))


def test_solve_sym_rejects_singular():
    # Both Newton steps raise SingularMatrix behind the same gate.
    assert not _is_invertible(np.diag([1.0, 0.0]))
    obj, x0, gn = _constant_hessian(np.diag([1.0, 0.0]), np.array([1e-6, 0.0]))
    with pytest.raises(SingularMatrix):
        _newton_step(obj.domain, obj, x0, 0.0, obj.grad(x0), gn, np.inf, 1.0,
                     obj.grad)
    # rho = 1e-12 cannot lift the zero eigenvalue over the gate either.
    with pytest.raises(SingularMatrix):
        _new_q_newton_step(obj.domain, obj, x0, 0.0, obj.grad(x0), gn, np.inf,
                           NewQNewtonParams(), obj.grad)
