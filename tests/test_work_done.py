"""How much work each step does, and the stall rule that ends runs
whose steps can no longer move the iterate."""

import dataclasses

import numpy as np
import pytest

import manifold_descent.bench as bench
import manifold_descent.optim as optim
from manifold_descent.bench import METHOD_ORDER, _cell_seed, run_scenario
from manifold_descent.linalg import SymMatrix, spectral_split
from manifold_descent.manifold import Euclidean, Sphere, open_ball
from manifold_descent.objective import (
    LIPSCHITZ_FLOOR,
    LIPSCHITZ_SAFETY,
    LIPSCHITZ_SAMPLES,
    Objective,
    QuadraticForm,
    builtin_problems,
    default_lipschitz,
    riemannian_grad,
    riemannian_hess,
)
from manifold_descent.optim import (
    METHODS,
    NewQNewtonParams,
    StopCriteria,
    Termination,
    _new_q_newton_step,
    _safe_norm,
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
                                              np.pi, params)
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


def _counting_method(monkeypatch, cls, name):
    calls = []
    inner = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _indefinite(domain):
    # Invertible, so every Newton-type step is defined; the sampled
    # Lipschitz bound makes local backtracking read r(x) publicly.
    A = SymMatrix([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
    obj = QuadraticForm(A).to_objective(domain)
    return dataclasses.replace(obj, lipschitz_fn=default_lipschitz(obj.hess, domain))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "domain, x0",
    [(open_ball(3), [0.2, 0.1, -0.3]),
     (Sphere(3), np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))],
    ids=["open_ball", "sphere"],
)
def test_membership_and_radius_once_per_iterate(monkeypatch, method, domain, x0):
    cls = type(domain)
    contains = _counting_method(monkeypatch, cls, "contains")
    public_radius = _counting_method(monkeypatch, cls, "radius")
    radius = _counting_method(monkeypatch, cls, "_radius")
    tr = run(domain, _indefinite(domain), x0, method,
             stop=StopCriteria(max_iters=3, grad_tol=0.0))
    # Three steps, before Newton-type steps reach an eigenvector of the
    # sphere and stop for another reason.
    assert tr.termination is Termination.MAX_ITERATIONS
    # Only local backtracking reads r(x) through the public radius (in
    # its sampled Lipschitz bound), once per step; that call tests
    # membership and evaluates r(x) once more.
    assert len(public_radius) == (tr.steps if method == "local_backtracking" else 0)
    # Two membership tests for x0 (run's own and riemannian_grad's, which
    # tests it against the objective's domain) and one per landed step.
    assert len(contains) == 2 + tr.steps + len(public_radius)
    # r(x) once per point stepped from.
    assert len(radius) == tr.steps + len(public_radius)


def _reference_lipschitz(hess_fn, domain, x):
    # One norm(H, 2) per sample, the samples sliced from all 4m + 1.
    x = np.asarray(x, dtype=float)
    d = min(domain.radius(x), 1.0)
    pts = [x]
    for scale in (0.45, 0.9):
        for i in range(x.size):
            for sign in (1.0, -1.0):
                e = np.zeros(x.size)
                e[i] = 1.0
                pts.append(x + sign * scale * d * e)
    pts = pts[:LIPSCHITZ_SAMPLES]
    if isinstance(domain, Sphere):
        pts = [p / np.linalg.norm(p) for p in pts if np.linalg.norm(p) > 0]
    best = LIPSCHITZ_FLOOR
    for p in pts:
        best = max(best, float(np.linalg.norm(hess_fn(p).entries, 2)))
    return LIPSCHITZ_SAFETY * best


@pytest.mark.parametrize("name", sorted(builtin_problems()))
def test_batched_lipschitz_bound_matches_per_sample_norms(name):
    problem = builtin_problems()[name]
    obj = problem.objective
    L = default_lipschitz(obj.hess, obj.domain)
    rng = np.random.default_rng(0)
    for x in [problem.x0] + [problem.sample_point(rng) for _ in range(5)]:
        assert L(x) == _reference_lipschitz(obj.hess, obj.domain, x)


def test_sphere_new_q_newton_nan_gradient_diverges():
    # The sphere Hessian skips the symmetry scan but not the finiteness
    # check, so a NaN gradient still ends the run as Diverged.
    obj = Objective(lambda x: float(x[0]), lambda x: np.array([np.nan, 0.0, 0.0]),
                    lambda x: SymMatrix(np.eye(3)), Sphere(3))
    tr = run(obj.domain, obj, np.array([0.0, 0.6, 0.8]), "new_q_newton")
    assert tr.termination is Termination.DIVERGED
    assert tr.steps == 0


def test_tiny_steps_record_positive_norms():
    # Steps 442-493 of this cell are between about 1e-163 and 1e-182,
    # where the square of the step underflows.
    res, tr = run_scenario("example2", "new_q_newton",
                           seed=_cell_seed(42, "example2", "new_q_newton"),
                           return_trace=True)
    assert res.termination is Termination.DIVERGED
    assert res.steps == 493
    for prev, rec in zip(tr.records[441:], tr.records[442:]):
        assert rec.step_norm > 0.0
        assert rec.step_norm == pytest.approx(abs(rec.point[0] - prev.point[0]),
                                              rel=1e-9)


def test_safe_norm_is_the_plain_norm_unless_it_underflows():
    v = np.array([3.0, -4.0, 12.0])
    for s in (1e150, 1.0, 1e-100, 1e-149):
        assert _safe_norm(s * v) == float(np.linalg.norm(s * v))
    for s in (1e-160, 1e-200, 1e-300):
        assert _safe_norm(s * v) == pytest.approx(13.0 * s, rel=1e-15)
    assert _safe_norm(np.zeros(3)) == 0.0
