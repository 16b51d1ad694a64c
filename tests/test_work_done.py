"""How much work each step does, and the stall rule that ends runs
whose steps can no longer move the iterate."""

import numpy as np
import pytest

import manifold_descent.bench as bench
import manifold_descent.optim as optim
from manifold_descent.bench import METHOD_ORDER, _cell_seed, run_scenario
from manifold_descent.linalg import SymMatrix, spectral_split
from manifold_descent.manifold import Euclidean, Sphere, open_ball
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    builtin_problems,
    riemannian_grad,
    riemannian_hess,
)
from manifold_descent.optim import (
    NewQNewtonParams,
    StopCriteria,
    Termination,
    _new_q_newton_step,
    run,
)


def _random_symmetric(m, seed):
    B = np.random.default_rng(seed).standard_normal((m, m))
    return SymMatrix(0.5 * (B + B.T))


def _rayleigh(m, seed=0):
    obj = QuadraticForm(_random_symmetric(m, seed)).to_objective(Sphere(m))
    x0 = np.random.default_rng(seed + 1).standard_normal(m)
    return obj, x0 / np.linalg.norm(x0)


def _linear(m):
    # Zero Hessian, so the unregularized candidate (delta = 0) is singular.
    c = np.arange(1.0, m + 1.0)
    obj = Objective(lambda x: float(c @ x), lambda x: c.copy(),
                    lambda x: SymMatrix(np.zeros((m, m))), Euclidean(m))
    return obj, np.zeros(m)


def _counting_sym_eig(monkeypatch):
    calls = []
    inner = optim.sym_eig

    def counted(M):
        calls.append(M.dim)
        return inner(M)

    monkeypatch.setattr(optim, "sym_eig", counted)
    return calls


@pytest.mark.parametrize("problem", [lambda: _rayleigh(6), lambda: _linear(3)],
                         ids=["sphere_rayleigh", "zero_hessian"])
def test_new_q_newton_decomposes_once_per_step(monkeypatch, problem):
    obj, x0 = problem()
    calls = _counting_sym_eig(monkeypatch)
    tr = run(obj.domain, obj, x0, "new_q_newton",
             stop=StopCriteria(max_iters=4, grad_tol=0.0))
    assert tr.termination is Termination.MAX_ITERATIONS
    assert len(calls) == tr.steps == 4


def test_new_q_newton_nan_gradient_diverges():
    # A NaN regularizer scale must not read as a singular Hessian.
    obj = Objective(lambda x: float(x @ x), lambda x: np.array([np.nan, 0.0]),
                    lambda x: SymMatrix(np.eye(2)), Euclidean(2))
    tr = run(obj.domain, obj, np.array([1.0, 1.0]), "new_q_newton")
    assert tr.termination is Termination.DIVERGED


def _reference_new_q_newton_direction(M, obj, x, g, params):
    # One eigendecomposition per candidate H + delta*rho*I.
    H = riemannian_hess(obj, x)
    rho = min(float(np.linalg.norm(g)) ** params.exponent_a, 1.0)
    for d in params.deltas:
        E = optim.sym_eig(SymMatrix(H.entries + d * rho * np.eye(H.dim)))
        if E.is_invertible():
            break
    w = optim._solve_eig(E, g)
    w_plus, w_minus = spectral_split(E, w)
    return M.tangent_project(x, w_plus - w_minus)


@pytest.mark.parametrize("m", [2, 3, 8])
def test_shifted_decomposition_matches_one_decomposition_per_candidate(m):
    params = NewQNewtonParams(deltas=(0.0, 0.3, 1.0))
    for seed in range(5):
        obj, x = _rayleigh(m, seed)
        g = riemannian_grad(obj, x)
        x_new, lam, _, _ = _new_q_newton_step(obj.domain, obj, x, obj.value(x), g,
                                              params)
        v_ref = _reference_new_q_newton_direction(obj.domain, obj, x, g, params)
        x_ref = obj.domain.retract(x, -lam * v_ref)
        assert np.allclose(x_new, x_ref, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 50])
def test_sphere_hessian_matches_dense_projection(m):
    M = Sphere(m)
    for seed in range(3):
        obj, x = _rayleigh(m, seed)
        H = obj.hess(x).entries
        P = np.eye(m) - np.outer(x, x)
        dense = P @ (H - (obj.grad(x) @ x) * np.eye(m)) @ P
        fast = M.ehess2rhess(x, obj.hess(x), obj.grad).entries
        assert np.max(np.abs(fast - dense)) <= 1e-12 * (1.0 + np.linalg.norm(H, 2))


def test_boundary_creep_ends_stalled_inside_the_ball():
    res = run_scenario("example8", "r_new_q_newton",
                       seed=_cell_seed(42, "example8", "r_new_q_newton"))
    assert res.termination is Termination.STALLED
    assert res.steps == 68
    assert open_ball(3).contains(res.final_point)


def test_step_below_a_few_ulps_stalls():
    obj = QuadraticForm(SymMatrix(np.eye(2))).to_objective(Euclidean(2))
    x0 = np.array([1.0, 1.0])
    tr = run(obj.domain, obj, x0, "standard_gd", lr=1e-17)
    assert tr.termination is Termination.STALLED
    assert tr.steps == 1
    tr = run(obj.domain, obj, x0, "standard_gd", lr=1e-14,
             stop=StopCriteria(max_iters=3))
    assert tr.termination is Termination.MAX_ITERATIONS


def test_underflowing_norms_do_not_stall():
    # The iterate heads for the kink at 0 and moves by about 1.4 times
    # its size per step; past |x| ~ 1e-162 both the step norm and |x|
    # round to 0, which must not read as a stall.
    res = run_scenario("example2", "new_q_newton",
                       seed=_cell_seed(42, "example2", "new_q_newton"))
    assert res.termination is Termination.DIVERGED
    assert res.steps == 493


def test_spectral_norm_bound_is_computed_on_first_use():
    A = _random_symmetric(5, 0)
    q = QuadraticForm(A)
    obj = q.to_objective(Sphere(5))
    assert "_spectral_norm" not in vars(q)
    x = np.eye(5)[0]
    assert obj.lipschitz_fn(x) == float(np.linalg.norm(A.entries, 2))
    assert vars(q)["_spectral_norm"] == obj.lipschitz_fn(x)


def test_corpus_builds_the_catalog_once(monkeypatch):
    catalogs = []

    def counted():
        catalogs.append(builtin_problems())
        return catalogs[-1]

    monkeypatch.setattr(bench, "builtin_problems", counted)
    assert len(bench.corpus(seed=1)) == len(builtin_problems()) * len(METHOD_ORDER)
    assert len(catalogs) == 1
    with pytest.raises(ValueError):
        catalogs[0]["example1"].x0[0] = 2.0
