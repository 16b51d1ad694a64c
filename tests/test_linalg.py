import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manifold_descent.optim as optim
from manifold_descent.linalg import (
    RELATIVE_EIG_TOL,
    NonFinite,
    SingularMatrix,
    SymMatrix,
    _clears_gate,
    _kernel_tol,
    _pd_solve,
    spectral_split,
    sym_eig,
)
from manifold_descent.manifold import Euclidean
from manifold_descent.objective import Objective
from manifold_descent.optim import (
    CHOLESKY_MIN_DIM,
    NewQNewtonParams,
    _new_q_newton_step,
    _newton_step,
    _tangent_solve,
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


def test_sym_matrix_averages_as_before_wherever_that_was_finite():
    # 0.5 * (a + a^T) bit for bit, signed zeros and subnormals included,
    # on every matrix whose average does not overflow.
    rng = np.random.default_rng(8)
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 2.2e-308, 1e300])
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.choice(tiny, size=(n, n)) * rng.choice([1.0, 3.0], size=(n, n))
        a = a + a.T + rng.standard_normal((n, n)) * rng.choice([0.0, 1e-13])
        want = 0.5 * (a + a.T)
        assert SymMatrix(a).entries.tobytes() == want.tobytes()


def test_sym_matrix_near_the_top_of_the_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = SymMatrix([[1e308, 0.0], [0.0, 1.0]])
        assert M.entries.tolist() == [[1e308, 0.0], [0.0, 1.0]]
        M = SymMatrix([[-1.7e308, 1.7e308], [1.7e308, 1.7e308]])
        assert M.entries.tolist() == [[-1.7e308, 1.7e308], [1.7e308, 1.7e308]]
        # A difference that overflows is asymmetry past the gate.
        with pytest.raises(ValueError, match="asymmetric"):
            SymMatrix([[0.0, 1e308], [-1e308, 0.0]])


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
    # sign of zero included.  The eigenvalues are a fresh writable copy;
    # the eigenvectors are one shared read-only [[1.0]].
    want_lam, want_U = np.linalg.eigh(np.array([[a]]))
    lam, U = sym_eig(SymMatrix([[a]]))
    for got, want in ((lam, want_lam), (U, want_U)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert lam.flags.writeable
    assert not U.flags.writeable
    assert sym_eig(SymMatrix([[2.0 * a]]))[1] is U


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
    x = -_newton_step(obj.domain, obj, x0, 0.0, b, bn, np.inf, 1.0, obj.grad,
                       sym_eig)[0]
    assert np.allclose(M.entries @ x, b, atol=1e-9)
    assert np.allclose(x, np.linalg.solve(M.entries, b))


def test_solve_sym_rejects_singular():
    # Both Newton steps raise SingularMatrix behind the same gate.
    assert not _is_invertible(np.diag([1.0, 0.0]))
    obj, x0, gn = _constant_hessian(np.diag([1.0, 0.0]), np.array([1e-6, 0.0]))
    with pytest.raises(SingularMatrix):
        _newton_step(obj.domain, obj, x0, 0.0, obj.grad(x0), gn, np.inf, 1.0,
                     obj.grad, sym_eig)
    # rho = 1e-12 cannot lift the zero eigenvalue over the gate either.
    with pytest.raises(SingularMatrix):
        _new_q_newton_step(obj.domain, obj, x0, 0.0, obj.grad(x0), gn, np.inf,
                           NewQNewtonParams(), obj.grad, sym_eig)


def test_pd_solve_certifies_only_past_the_gate():
    # K = diag(lam) with tr K about 2e9 puts tau = RELATIVE_EIG_TOL * (1
    # + tr K) at about 0.2: the certificate needs lambda_min(K) > tau,
    # which is stricter than the gate's 1e-10 * (1 + 1e9), about 0.1.
    b = np.ones(3)
    tau = RELATIVE_EIG_TOL * (2.0 + 2e9)
    assert np.allclose(_pd_solve(np.diag([1.0, 1e9, 1e9]), 0.0, b),
                       [1.0, 1e-9, 1e-9])
    lam = np.array([0.75 * tau, 1e9, 1e9])
    assert _clears_gate(lam)
    assert _pd_solve(np.diag(lam), 0.0, b) is None
    assert _pd_solve(np.diag([-1.0, 1e9, 1e9]), 0.0, b) is None
    # The shift is added before the test, and a non-finite one, or a
    # trace that is not positive, rules K out.
    assert np.allclose(_pd_solve(np.diag([-1.0, 1e9, 1e9]), 2.0, b),
                       [1.0, 1.0 / (1e9 + 2.0), 1.0 / (1e9 + 2.0)])
    for shift in (np.inf, np.nan):
        assert _pd_solve(np.eye(3), shift, b) is None
    assert _pd_solve(np.zeros((3, 3)), 0.0, b) is None


def _spectrum_problem(lam, seed, shift):
    # A constant Hessian H on flat space whose candidate K = H + shift*I
    # has the spectrum lam, and a gradient g.
    rng = np.random.default_rng([seed, len(lam)])
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    H = (Q * (lam - shift)) @ Q.T
    obj, x0, _ = _constant_hessian(0.5 * (H + H.T), rng.standard_normal(len(lam)))
    return obj, x0


@st.composite
def _candidate_spectra(draw):
    # The first candidate's spectrum, of dimension CHOLESKY_MIN_DIM to 40:
    # positive definite, indefinite, or positive with lambda_min at the
    # gate's tolerance times 1 +- 1e-3.
    m = draw(st.integers(CHOLESKY_MIN_DIM, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pd", "indefinite", "gate_above", "gate_below"]))
    lam = rng.uniform(0.1, 5.0, m)
    if kind == "indefinite":
        lam[: 1 + m // 3] *= -1.0
    elif kind != "pd":
        lam[0] = _kernel_tol(lam) * (1.0 + (1e-3 if kind == "gate_above" else -1e-3))
    return lam


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_candidate_spectra(), st.integers(0, 3), st.sampled_from([0.0, 0.25]))
def test_cholesky_path_picks_the_delta_and_direction_of_eigh(lam, seed, rho):
    # The same step with the certificate tried (the default) and with it
    # off: the same delta, the same direction to 1e-10, and where the
    # certificate fails, the eigh path itself.  rho = 0 is plain Newton.
    deltas, reflect = ((2.0, 0.0), True) if rho else ((0.0,), False)
    obj, x = _spectrum_problem(lam, seed, deltas[0] * rho)
    g = obj.grad(x)
    decomposed = []
    inner = optim.sym_eig

    def solve(cutoff):
        optim.CHOLESKY_MIN_DIM = cutoff
        optim.sym_eig = lambda M: decomposed.append(cutoff) or inner(M)
        try:
            return _tangent_solve(obj.domain, obj, x, g, obj.grad, deltas, rho,
                                  reflect, optim.sym_eig)
        except SingularMatrix as exc:
            return type(exc)
        finally:
            optim.CHOLESKY_MIN_DIM, optim.sym_eig = CHOLESKY_MIN_DIM, inner

    fast, ref = solve(CHOLESKY_MIN_DIM), solve(len(lam) + 1)
    if CHOLESKY_MIN_DIM in decomposed:
        assert fast is ref or fast.tobytes() == ref.tobytes()
    else:
        H_lam = np.linalg.eigvalsh(obj.hess(x).entries)
        picked = [d for d in deltas if _clears_gate(np.abs(H_lam + d * rho))]
        assert picked[0] == deltas[0]
        assert np.linalg.norm(fast - ref) <= 1e-10 * np.linalg.norm(ref)


def test_indefinite_first_candidate_is_decomposed_and_reflected(monkeypatch):
    # Past the cutoff, an indefinite H + delta_1 rho I fails the
    # certificate; the step decomposes H once and reflects the
    # negative-eigenspace part of the solve.
    m = CHOLESKY_MIN_DIM + 4
    lam = np.linspace(-2.0, 3.0, m)
    lam[np.abs(lam) < 0.1] = 0.5
    obj, x0 = _spectrum_problem(lam, 0, 0.0)
    calls = []
    monkeypatch.setattr(optim, "sym_eig", lambda M: calls.append(M.dim) or sym_eig(M))
    g = obj.grad(x0)
    v = -_new_q_newton_step(obj.domain, obj, x0, 0.0, g, np.linalg.norm(g), np.inf,
                            NewQNewtonParams(), obj.grad, optim.sym_eig)[0]
    assert calls == [m]
    H = SymMatrix(obj.hess(x0).entries)
    w_plus, w_minus = spectral_split(sym_eig(H), np.linalg.solve(H.entries, g))
    assert np.linalg.norm(w_minus) > 0.1 * np.linalg.norm(w_plus)
    assert np.allclose(v, w_plus - w_minus, rtol=0.0, atol=1e-12 * np.linalg.norm(v))
