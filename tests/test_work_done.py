"""How much work each step does, and the stall rule that ends runs
whose steps can no longer move the iterate."""

import dataclasses

import numpy as np
import pytest

import manifold_descent.bench as bench
import manifold_descent.optim as optim
from manifold_descent.bench import METHOD_ORDER, _cell_seed, run_scenario
from manifold_descent.linalg import NonFinite, SymMatrix, spectral_split, sym_eig
from manifold_descent.manifold import Euclidean, Sphere, open_ball
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    builtin_problems,
    riemannian_grad,
    riemannian_hess,
)
from manifold_descent.optim import (
    METHODS,
    NewQNewtonParams,
    StandardGDParams,
    StopCriteria,
    Termination,
    _new_q_newton_step,
    _norm,
    run,
)
from oracles import (cholesky_callers, first_invertible_inverse, lift_matrix,
                     sphere_tangent_basis)


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


@pytest.mark.parametrize("problem, decompositions",
                         [(lambda: _rayleigh(6), 4), (lambda: _linear(3), 1)],
                         ids=["sphere_rayleigh", "zero_hessian"])
def test_new_q_newton_decomposes_once_per_step(monkeypatch, problem,
                                               decompositions):
    # At most one decomposition a step serves every candidate.  The
    # Rayleigh quotient's tangent Hessian changes at every step; the zero
    # Hessian never does, so its one decomposition serves the whole run.
    obj, x0 = problem()
    calls = _counting_sym_eig(monkeypatch)
    tr = run(obj, x0, "new_q_newton",
             stop=StopCriteria(max_iters=4, grad_tol=0.0))
    assert tr.termination is Termination.MAX_ITERATIONS
    assert tr.steps == 4
    assert len(calls) == decompositions


@pytest.mark.parametrize("scenario", ["example1", "example3", "example7p"])
@pytest.mark.parametrize("method", ["new_q_newton", "newton", "random_newton"])
def test_tangent_dimension_one_makes_no_decomposition(monkeypatch, scenario,
                                                      method):
    # On the punctured line and the circle the tangent Hessian is 1x1, its
    # own eigenvalue: no step of a Newton run decomposes it.
    calls = _counting_sym_eig(monkeypatch)
    problem = builtin_problems()[scenario]
    tr = run(problem.objective, problem.x0, method,
             stop=StopCriteria(max_iters=20))
    assert tr.steps > 0
    assert calls == []


def test_repeated_hessians_are_decomposed_once(monkeypatch):
    # example5's Hessian depends only on sign(x): its seed-42 flat New
    # Q-Newton cell makes as many decompositions as its run has distinct
    # tangent-Hessian byte strings.
    calls = _counting_sym_eig(monkeypatch)
    keys = []
    inner = optim._tangent_solve

    def solve(M, obj, x, g, egrad, *rest):
        H = M.tangent_hessian(x, obj.hess(x), g, egrad)[0]
        keys.append(H.entries.tobytes())
        return inner(M, obj, x, g, egrad, *rest)

    monkeypatch.setattr(optim, "_tangent_solve", solve)
    res = run_scenario("example5", "new_q_newton",
                       seed=_cell_seed(42, "example5", "new_q_newton"))
    assert len(keys) == res.steps == 500
    assert len(calls) == len(set(keys))


def test_positive_definite_steps_make_no_decomposition(monkeypatch):
    # A seeded n = 50 eigen solve: its New Q-Newton steps run on tangent
    # dimension 49, past CHOLESKY_MIN_DIM.  A step whose first candidate
    # H + 2 rho I is positive definite solves it after one Cholesky
    # certificate; only the indefinite first step decomposes.
    calls = _counting_sym_eig(monkeypatch)
    inner = optim._new_q_newton_step
    steps = []

    def step(M, obj, x, fx, g, gn, r, params, egrad, eig):
        H = M.tangent_hessian(x, obj.hess(x), g, egrad)[0].entries
        shift = params.deltas[0] * min(gn, 1.0) ** params.exponent_a
        before = len(calls)
        out = inner(M, obj, x, fx, g, gn, r, params, egrad, eig)
        steps.append((len(calls) - before, np.linalg.eigvalsh(H)[0] + shift))
        return out

    monkeypatch.setattr(optim, "_new_q_newton_step", step)
    B = np.random.default_rng([0, 50]).standard_normal((50, 50))
    bench.smallest_eigenvalue(0.5 * (B + B.T), seed=0)
    assert [n for n, _ in steps] == [1, 0, 0, 0]
    assert all((n == 0) == (lam_min > 0.0) for n, lam_min in steps)


def test_the_last_newton_step_certifies_the_eigenvalue(monkeypatch):
    # The seeded n = 50 solve above: each of its New Q-Newton steps tries
    # one Cholesky certificate of its first candidate (three pass, and the
    # indefinite first step decomposes), and the value is certified from
    # the last step's solve, with no factorization of its own.  An
    # r_backtracking solve makes no Newton step: one Cholesky per start.
    calls = cholesky_callers(monkeypatch)
    decompositions = _counting_sym_eig(monkeypatch)
    traces = []
    inner = bench._run_branch

    def kept(*args, **kwargs):
        trace = inner(*args, **kwargs)
        traces.append(trace)
        return trace

    monkeypatch.setattr(bench, "_run_branch", kept)
    B = np.random.default_rng([0, 50]).standard_normal((50, 50))
    A = 0.5 * (B + B.T)
    bench.smallest_eigenvalue(A, seed=0)
    assert len(traces) == 1 and traces[0].steps == 4
    assert len(decompositions) == 1
    assert calls == ["_pd_solve"] * 4
    calls.clear()
    traces.clear()
    bench.smallest_eigenvalue(A, method="r_backtracking", seed=0)
    assert len(traces) >= 1
    assert calls == ["_certified"] * len(traces)


def test_warm_up_line_searches_start_near_the_accepted_step(monkeypatch):
    # Each search starts at the grid index accepted two steps earlier,
    # since steepest descent alternates long and short steps, so a
    # seeded n = 150 warm-up reads f about 2.8 times a step (once per
    # trial, through the form's restriction, plus x0's value call); a
    # search from delta0 reads it 5.8 times here.
    counts = []
    inner = bench.run

    def spy(obj, x0, method, **kwargs):
        if method != "backtracking":
            return inner(obj, x0, method, **kwargs)
        calls = [0]
        f, restriction = obj.value_fn, obj.restriction_fn

        def value(x):
            calls[0] += 1
            return f(x)

        def restricted(x, d):
            phi = restriction(x, d)

            def trial(a, b, y=None):
                calls[0] += y is None
                return phi(a, b, y)

            return trial

        trace = inner(dataclasses.replace(obj, value_fn=value, restriction_fn=restricted),
                      x0, method, **kwargs)
        counts.append((calls[0], trace.steps))
        return trace

    monkeypatch.setattr(bench, "run", spy)
    for seed in range(3):
        B = np.random.default_rng([seed, 150]).standard_normal((150, 150))
        bench.smallest_eigenvalue(0.5 * (B + B.T), seed=seed)
    calls, steps = map(sum, zip(*counts))
    assert steps == 3 * bench._warm_up_steps(150)
    assert calls <= 3.5 * steps


def test_backtracking_reuses_the_accepted_trial_value():
    # Without a restriction the line search evaluates f at each trial
    # point; run records the accepted trial's value instead of evaluating
    # f there again, so a run makes one value call per trial plus x0's.
    obj, x0 = _rayleigh(6)
    obj = dataclasses.replace(obj, restriction_fn=None)
    values, trials = [], []
    inner_value = obj.value_fn
    M = obj.domain

    def value(x):
        values.append(x)
        return inner_value(x)

    def retract(x, v, r):
        trials.append(v)
        return type(M)._retract(M, x, v, r)

    obj = dataclasses.replace(obj, value_fn=value)
    M._retract = retract
    tr = run(obj, x0, "backtracking", stop=StopCriteria(max_iters=8, grad_tol=0.0))
    assert tr.steps == 8 and len(trials) > tr.steps
    assert len(values) == len(trials) + 1
    # The recorded values are f at the recorded points, bit for bit.
    assert all(rec.f_value == inner_value(rec.point) for rec in tr.records)


class _CountingEntries(np.ndarray):
    """A view of A's entries that counts its products with a vector, as
    A @ x, A.dot(x) or x @ A, in the list ``log`` it is given."""

    def __matmul__(self, other):
        self.log.append(1)
        return np.asarray(self) @ other

    def dot(self, other):
        # A 1-d view is SymMatrix's finiteness check, v.v over the entries.
        if self.ndim == 2:
            self.log.append(1)
        return np.asarray(self).dot(other)

    def __rmatmul__(self, other):
        self.log.append(1)
        return other @ np.asarray(self)


class _CountingForm(QuadraticForm):
    """A QuadraticForm whose f and gradient read a counting view of A,
    and that keeps the bytes of every point they are asked about.  Its
    Hessian is A itself, so the tangent Hessian's product is not counted."""

    def __init__(self, A):
        super().__init__(A)
        self.products, self.points = [], set()
        self.hessian = self.A
        view = self.A.entries.view(_CountingEntries)
        view.log = self.products
        self.A = SymMatrix._from_symmetric(view)

    def value(self, x):
        self.points.add(np.asarray(x, dtype=float).tobytes())
        return super().value(x)

    def grad(self, x):
        self.points.add(np.asarray(x, dtype=float).tobytes())
        return super().grad(x)

    def hess(self, x):
        return self.hessian


def test_rayleigh_solve_makes_one_product_per_warm_up_step_and_newton_point(
        monkeypatch):
    # A seeded n = 50 solve (8 warm-up steps, then New Q-Newton) multiplies
    # by A at the warm-up's x0, once per warm-up step (A d, from which the
    # landed point's product is formed), and, as f and its gradient share
    # A x, once for each point New Q-Newton asks about after its first,
    # the warm-up's last: one product per warm-up step plus one per New
    # Q-Newton point.
    forms, warm_up_steps, newton_points = [], [], []

    def form(A):
        forms.append(_CountingForm(A))
        return forms[-1]

    inner_run, inner_branch = bench.run, bench._run_branch

    def warm_up(obj, x0, method, **kwargs):
        trace = inner_run(obj, x0, method, **kwargs)
        if method == "backtracking":
            warm_up_steps.append(trace.steps)
        return trace

    def branch(*args, **kwargs):
        forms[0].points = set()
        trace = inner_branch(*args, **kwargs)
        newton_points.append(len(forms[0].points))
        return trace

    monkeypatch.setattr(bench, "QuadraticForm", form)
    monkeypatch.setattr(bench, "run", warm_up)
    monkeypatch.setattr(bench, "_run_branch", branch)
    B = np.random.default_rng([0, 50]).standard_normal((50, 50))
    bench.smallest_eigenvalue(0.5 * (B + B.T), seed=0)
    (q,) = forms
    assert warm_up_steps == [bench._warm_up_steps(50)] * len(newton_points)
    assert len(newton_points) == 1 and newton_points[0] > 1
    assert len(q.products) == sum(warm_up_steps) + sum(newton_points)


@pytest.mark.parametrize("kind", ["euclidean", "open_ball", "projective", "geodesic"])
def test_a_backtracking_step_on_a_form_makes_one_product_and_no_trial_retraction(
        kind):
    # The line search reads each trial from the form's restriction: one
    # product with A a step, besides x0's, and one retraction, at the
    # accepted step; the landed point's f and gradient make none.
    m = 6
    M = {"euclidean": Euclidean(m), "open_ball": open_ball(m),
         "projective": Sphere(m), "geodesic": Sphere(m, "geodesic")}[kind]
    A = _random_symmetric(m, 3).entries
    if not isinstance(M, Sphere):
        # Positive definite, so that delta0 fails Armijo near the origin.
        A = A @ A + np.eye(m)
    q = _CountingForm(A)
    obj = q.to_objective(M)
    x0 = np.random.default_rng(4).standard_normal(m)
    x0 /= np.linalg.norm(x0) if isinstance(M, Sphere) else 100.0 * np.linalg.norm(x0)
    restriction, trials, retracts = obj.restriction_fn, [], []

    def restricted(x, d):
        phi = restriction(x, d)

        def trial(a, b, y=None):
            trials.append(y is None)
            return phi(a, b, y)

        return trial

    def retract(x, v, r):
        retracts.append(v)
        return type(M)._retract(M, x, v, r)

    M._retract = retract
    obj = dataclasses.replace(obj, restriction_fn=restricted)
    tr = run(obj, x0, "backtracking", stop=StopCriteria(max_iters=8, grad_tol=0.0))
    assert tr.steps == 8
    assert sum(trials) > tr.steps and len(trials) - sum(trials) == tr.steps
    assert len(retracts) == tr.steps
    assert len(q.products) == 1 + tr.steps


def test_quadratic_form_products_follow_the_point():
    A = SymMatrix([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
    q = _CountingForm(A.entries)
    x, y = np.array([0.3, -0.2, 0.9]), np.array([1.0, 2.0, -1.0])
    g = q.grad(x)
    assert g.tobytes() == (A.entries @ x).tobytes()
    assert q.value(x) == 0.5 * float(x @ (A.entries @ x))
    assert len(q.products) == 1
    # The product handed out is read-only.
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0] = 1.0
    # y's product does not leak into the gradient at x.
    q.value(y)
    assert q.grad(x).tobytes() == (A.entries @ x).tobytes()
    assert len(q.products) == 2
    # A point mutated in place is a new point.
    x[0] = 0.7
    assert q.grad(x).tobytes() == (A.entries @ x).tobytes()
    assert q.value(x) == 0.5 * float(x @ (A.entries @ x))
    assert len(q.products) == 3
    # A list is a point too, the same as its float array.
    assert q.grad([0.7, -0.2, 0.9]).tobytes() == (A.entries @ x).tobytes()
    assert q.value([0.7, -0.2, 0.9]) == 0.5 * float(x @ (A.entries @ x))
    assert len(q.products) == 3
    # Two points are kept: the third distinct one evicts the oldest, y.
    assert q.grad([1, 2, -1]).tobytes() == (A.entries @ y).tobytes()
    assert len(q.products) == 4


@pytest.mark.parametrize("method", ["new_q_newton", "newton", "random_newton"])
def test_sphere_newton_steps_evaluate_the_gradient_once_per_iterate(method):
    # The sphere's tangent Hessian reads the ambient gradient that run
    # already has; only x0's is evaluated twice, because riemannian_grad,
    # its membership test, does not return it.
    obj, x0 = _rayleigh(10)
    calls = []
    inner = obj.grad_fn

    def counted(x):
        calls.append(x)
        return inner(x)

    obj = dataclasses.replace(obj, grad_fn=counted)
    tr = run(obj, x0, method, stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert tr.steps == 5
    assert len(calls) == tr.steps + 2


def test_new_q_newton_nan_gradient_diverges():
    # run ends a NaN |g| Diverged before any step; the stepper itself
    # must not read a NaN regularizer scale as a singular Hessian either.
    obj = Objective(lambda x: float(x @ x), lambda x: np.array([np.nan, 0.0]),
                    lambda x: SymMatrix(np.eye(2)), Euclidean(2))
    x = np.array([1.0, 1.0])
    tr = run(obj, x, "new_q_newton")
    assert tr.termination is Termination.DIVERGED
    with pytest.raises(NonFinite):
        _new_q_newton_step(obj.domain, obj, x, obj.value(x), obj.grad(x), np.nan,
                           np.inf, NewQNewtonParams(), obj.grad, sym_eig)


def _reference_new_q_newton_direction(M, obj, x, g, params):
    # One eigendecomposition per candidate H + delta*rho*I, in the
    # coordinates of an SVD basis B of T_x on a sphere: B^T H B is the
    # Hessian as an operator on T_x, with no normal direction.
    H = riemannian_hess(obj, x)
    B = sphere_tangent_basis(x) if isinstance(M, Sphere) else np.eye(len(x))
    Ht = B.T @ H.entries @ B
    rho = min(float(np.linalg.norm(g)) ** params.exponent_a, 1.0)
    E, w = first_invertible_inverse(SymMatrix(0.5 * (Ht + Ht.T)), B.T @ g, rho,
                                    params.deltas)
    w_plus, w_minus = spectral_split(E, w)
    return B @ (w_plus - w_minus)


def _indefinite_flat(m, seed):
    # An indefinite H (negative at m = 1) and a fixed gradient on R^m.
    # Odd seeds put an exact zero in H's spectrum, so the delta = 0
    # candidate fails the gate and a positive one is taken.
    rng = np.random.default_rng([seed, m])
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(0.5, 3.0, m) * np.where(np.arange(m) % 2, -1.0, 1.0)
    if m == 1:
        lam = -lam
    if seed % 2 and m > 1:
        lam[-1] = 0.0
    H = (Q * lam) @ Q.T
    H = SymMatrix(0.5 * (H + H.T))
    c = rng.standard_normal(m)
    obj = Objective(lambda x: float(c @ x), lambda x: c.copy(), lambda x: H,
                    Euclidean(m))
    return obj, np.zeros(m)


def _new_q_newton_step_taken(obj, x, params):
    # The step vector New Q-Newton hands to the retraction, and its
    # gamma cap lam (the step is -lam * v).
    M = obj.domain
    steps = []

    def retract(x, v, r):
        steps.append(v)
        return type(M)._retract(M, x, v, r)

    M._retract = retract
    g = riemannian_grad(obj, x)
    r = M.radius(x)
    _, lam, _, _, _ = _new_q_newton_step(M, obj, x, obj.value(x), g, _norm(g), r,
                                         params, obj.grad, sym_eig)
    del M._retract
    return steps[0], lam, g


@pytest.mark.parametrize(
    "problem",
    [lambda s, m=m: _rayleigh(m, s) for m in (2, 3, 8)]
    + [lambda s, m=m: _indefinite_flat(m, s) for m in (1, 2, 3, 10, 50)],
    ids=["2", "3", "8", "flat1", "flat2", "flat3", "flat10", "flat50"],
)
def test_shifted_decomposition_matches_one_decomposition_per_candidate(problem):
    # The one-pass direction U (U^T g / |mu|) against the inverse of the
    # first invertible candidate, decomposed on its own, with
    # spectral_split's reflection.
    for deltas in ((0.0, 1.0), (0.0, 0.3, 1.0)):
        params = NewQNewtonParams(deltas=deltas)
        for seed in range(5):
            obj, x = problem(seed)
            step, lam, g = _new_q_newton_step_taken(obj, x, params)
            v_ref = _reference_new_q_newton_direction(obj.domain, obj, x, g, params)
            err = np.linalg.norm(step + lam * v_ref)
            assert err <= 1e-12 * lam * np.linalg.norm(v_ref)


@pytest.mark.parametrize("seed", range(8))
def test_sphere_new_q_newton_step_descends(seed):
    obj, x = _rayleigh(5, seed)
    step, _, g = _new_q_newton_step_taken(obj, x, NewQNewtonParams())
    assert float(step @ g) < 0.0


@pytest.mark.parametrize("m", [2, 3, 50])
def test_sphere_hessian_matches_dense_projection(m):
    # The reduced matrix is B^T A B, A = H - <grad f, x>I, for an
    # independent SVD basis B of T_x, written in the lift's basis L
    # (R = B^T L is orthogonal); lifted to both sides it is P A P.
    M = Sphere(m)
    for seed in range(3):
        obj, x = _rayleigh(m, seed)
        H = obj.hess(x).entries
        A = H - (obj.grad(x) @ x) * np.eye(m)
        g = riemannian_grad(obj, x)
        Ht, gt, lift = M.tangent_hessian(x, obj.hess(x), g, obj.grad)
        L = lift_matrix(lift, m - 1)
        B = sphere_tangent_basis(x)
        R = B.T @ L
        tol = 1e-12 * (1.0 + np.linalg.norm(H, 2))
        assert np.max(np.abs(Ht.entries - R.T @ (B.T @ A @ B) @ R)) <= tol
        assert np.max(np.abs(gt - R.T @ (B.T @ g))) <= 1e-12 * np.linalg.norm(g)
        P = np.eye(m) - np.outer(x, x)
        assert np.max(np.abs(L @ Ht.entries @ L.T - P @ A @ P)) <= tol
        assert np.max(np.abs(riemannian_hess(obj, x).entries - P @ A @ P)) <= tol


@pytest.mark.parametrize("m", [2, 3, 10, 300])
def test_sphere_hessian_is_exactly_symmetric_and_leaves_H_alone(m):
    obj, x = _rayleigh(m)
    H = obj.hess(x)
    before = H.entries.tobytes()
    R = Sphere(m).tangent_hessian(x, H, obj.grad(x), obj.grad)[0].entries
    assert R.shape == (m - 1, m - 1)
    assert R.tobytes() == np.ascontiguousarray(R.T).tobytes()
    assert H.entries.tobytes() == before


def test_deterministic_steppers_build_no_generator(monkeypatch):
    problems = builtin_problems()
    built = []
    inner = np.random.default_rng

    def counted(*args):
        built.append(args)
        return inner(*args)

    monkeypatch.setattr(np.random, "default_rng", counted)
    run_scenario("example8", "r_new_q_newton", _problems=problems)
    assert built == []
    # A stepper that draws builds one Generator from the cell's seed.
    run_scenario("example8", "r_random_newton", seed=5, _problems=problems)
    assert built == [(5,)]


def test_boundary_creep_ends_stalled_inside_the_ball():
    res = run_scenario("example8", "r_new_q_newton",
                       seed=_cell_seed(42, "example8", "r_new_q_newton"))
    assert res.termination is Termination.STALLED
    assert res.steps == 68
    assert open_ball(3).contains(res.final_point)


def test_step_below_a_few_ulps_stalls():
    obj = QuadraticForm(SymMatrix(np.eye(2))).to_objective(Euclidean(2))
    x0 = np.array([1.0, 1.0])
    tr = run(obj, x0, "standard_gd", StandardGDParams(lr=1e-17))
    assert tr.termination is Termination.STALLED
    assert tr.steps == 1
    tr = run(obj, x0, "standard_gd", StandardGDParams(lr=1e-14),
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


def test_spectral_norm_bound_is_computed_on_first_use(monkeypatch):
    # Neither to_objective nor a default smallest_eigenvalue solve, which
    # never reads L(x), decomposes A for the bound; the first L(x)
    # decomposes it once, and later ones reuse its eigenvalues.
    calls = []
    inner = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a)
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    A = _random_symmetric(5, 0)
    q = QuadraticForm(A)
    obj = q.to_objective(Sphere(5))
    flat = q.to_objective(Euclidean(5))
    bench.smallest_eigenvalue(A.entries, seed=0)
    assert calls == []
    assert "_eigenvalue_range" not in vars(q)
    x = np.eye(5)[0]
    lam = inner(A.entries)
    assert obj.lipschitz_fn(x) == lam[-1] - lam[0]
    assert flat.lipschitz_fn(x) == max(-lam[0], lam[-1])
    assert len(calls) == 1
    assert vars(q)["_eigenvalue_range"] == (lam[0], lam[-1])


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
    # Invertible, so every Newton-type step is defined.
    A = SymMatrix([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
    return QuadraticForm(A).to_objective(domain)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "domain, x0",
    [(open_ball(3), [0.2, 0.1, -0.3]),
     (Sphere(3), np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))],
    ids=["open_ball", "sphere"],
)
def test_membership_and_radius_once_per_iterate(monkeypatch, method, domain, x0):
    cls = type(domain)
    # Every membership test, public or run's own, reads _radius once.
    contains = _counting_method(monkeypatch, cls, "contains")
    public_radius = _counting_method(monkeypatch, cls, "radius")
    radius = _counting_method(monkeypatch, cls, "_radius")
    tr = run(_indefinite(domain), x0, method,
             stop=StopCriteria(max_iters=3, grad_tol=0.0))
    # Three steps, before Newton-type steps reach an eigenvector of the
    # sphere and stop for another reason.
    assert tr.termination is Termination.MAX_ITERATIONS
    # No method reads r(x) through the public radius: run hands each
    # stepper the r(x) it computed, and the quadratic's L(x) reads no
    # point at all.
    assert public_radius == []
    # One public membership test, x0's (riemannian_grad's).
    assert len(contains) == 1
    # _radius for x0's membership test, x0's r, and once per landed point,
    # whose r is its membership test too.
    assert len(radius) == 2 + tr.steps


def test_sphere_new_q_newton_nan_gradient_diverges():
    # The sphere Hessian skips the symmetry scan but not the finiteness
    # check; run ends a NaN gradient Diverged before it builds one.
    obj = Objective(lambda x: float(x[0]), lambda x: np.array([np.nan, 0.0, 0.0]),
                    lambda x: SymMatrix(np.eye(3)), Sphere(3))
    x = np.array([0.0, 0.6, 0.8])
    tr = run(obj, x, "new_q_newton")
    assert tr.termination is Termination.DIVERGED
    assert tr.steps == 0
    with pytest.raises(NonFinite):
        obj.domain.tangent_hessian(x, obj.hess(x), obj.grad(x), obj.grad)


def test_tiny_steps_record_positive_norms():
    # Steps 442-493 of this cell are between about 1e-163 and 1e-182,
    # where the square of the step underflows.
    tr = run_scenario("example2", "new_q_newton",
                      seed=_cell_seed(42, "example2", "new_q_newton"))
    assert tr.termination is Termination.DIVERGED
    assert tr.steps == 493
    for prev, rec in zip(tr.records[441:], tr.records[442:]):
        assert rec.step_norm > 0.0
        assert rec.step_norm == pytest.approx(abs(rec.point[0] - prev.point[0]),
                                              rel=1e-9)


def test_safe_norm_is_the_plain_norm_unless_it_underflows():
    v = np.array([3.0, -4.0, 12.0])
    for s in (1e150, 1.0, 1e-100, 1e-149):
        assert _norm(s * v) == float(np.linalg.norm(s * v))
    for s in (1e-160, 1e-200, 1e-300):
        assert _norm(s * v) == pytest.approx(13.0 * s, rel=1e-15)
    assert _norm(np.zeros(3)) == 0.0
    # Squares that overflow: the plain norm is inf, the rescaled one is
    # not.  run calls _norm with fp warnings off, as here.
    with np.errstate(over="ignore"):
        for s in (1e160, 1e200, 1e300):
            assert float(np.linalg.norm(s * v)) == np.inf
            assert _norm(s * v) == pytest.approx(13.0 * s, rel=1e-15)
    # A vector that is itself not finite keeps the plain norm.
    assert _norm(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(_norm(np.array([np.nan, 1.0])))
    # sqrt(v.v) is how np.linalg.norm computes a 1-d norm: same bits.
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 10, 300):
        for s in (1e-100, 1.0, 1e100):
            for _ in range(50):
                v = s * rng.standard_normal(m)
                assert _norm(v) == float(np.linalg.norm(v))
    # Sphere.contains has no finiteness scan: a non-finite entry makes
    # the norm nan or inf, which fails the tolerance test.
    for x in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [-np.inf, np.inf, 0.0]):
        assert not Sphere(3).contains(np.array(x))


@pytest.mark.parametrize("name", sorted(builtin_problems()))
def test_catalog_hessians_are_exactly_symmetric(name):
    # They skip SymMatrix's asymmetry scan and averaging, so they must
    # be symmetric bit for bit.
    problem = builtin_problems()[name]
    rng = np.random.default_rng(0)
    for x in [problem.x0] + [problem.sample_point(rng) for _ in range(5)]:
        H = problem.objective.hess(x).entries
        assert H.tobytes() == np.ascontiguousarray(H.T).tobytes()


def test_catalog_new_q_newton_builds_no_validated_matrix(monkeypatch):
    # The catalog is built first: its two quadratic forms validate their
    # matrices once per catalog, not per step.
    problems = builtin_problems()
    builds = _counting_method(monkeypatch, SymMatrix, "__init__")
    res = run_scenario("example5", "new_q_newton", _problems=problems)
    assert res.steps > 0
    assert builds == []
