"""The contracts of ``run`` on generated problems: quadratic forms on flat
space, the open ball and the sphere, and powers |t|^p on the punctured
line, each from a generated member starting point.

- ``run`` never raises on a member x0, whatever the method;
- every recorded point lies on the domain;
- every accepted backtracking step passes ``armijo_rhs`` exactly, as
  read back from the records' step size and gradient norm, its step
  size is delta0 or one whose delta/beta fails the radius gate or
  Armijo, and on Rayleigh quotients, where Armijo holds on an interval
  of step sizes, whole runs are those of the top-down scan; every
  local-backtracking step passes it up to the rounding of f, for any
  alpha in (0, 1), on the generated problems and on seeded sphere
  quadratics;
- ``riemannian_grad`` is the tangent projection of the central
  difference gradient;
- the backend's ``tangent_hessian`` is the projected central difference
  of ``riemannian_grad`` along the retraction;
- Newton-family runs that reuse a repeated Hessian's decomposition are,
  record for record and bit for bit, the runs that decompose it afresh
  at every step, on flat quartics of dimension 2 to 40.

Examples are derandomized and few, so the suite stays fast and
reproducible.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import manifold_descent.optim as optim
from manifold_descent.linalg import SymMatrix
from manifold_descent.manifold import Euclidean, Sphere, open_ball
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    _abs_power,
    _punctured_line,
    riemannian_grad,
)
from manifold_descent.optim import (
    METHODS,
    BacktrackingParams,
    NewQNewtonParams,
    StopCriteria,
    Termination,
    armijo_rhs,
    run,
)
from oracles import (
    armijo_trial,
    backtracking_grid,
    decomposing_eig,
    fd_gradient,
    quartic,
    tangent_project,
    top_down_line_search,
)

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                             database=None)

_entries = st.floats(-5.0, 5.0, allow_nan=False)


def _direction(m):
    # A vector with norm at least 1e-3, returned as a unit vector.
    return (st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=m, max_size=m)
            .map(np.array).filter(lambda u: np.linalg.norm(u) >= 1e-3)
            .map(lambda u: u / np.linalg.norm(u)))


@st.composite
def quadratic_problems(draw):
    kind = draw(st.sampled_from(["euclidean", "ball", "sphere"]))
    m = draw(st.integers(2 if kind == "sphere" else 1, 4))
    B = np.array(draw(st.lists(_entries, min_size=m * m, max_size=m * m)))
    B = B.reshape(m, m)
    A = SymMatrix(0.5 * (B + B.T))
    if kind == "euclidean":
        domain = Euclidean(m)
        x0 = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=m,
                           max_size=m).map(np.array))
    elif kind == "ball":
        domain = open_ball(m)
        x0 = draw(st.floats(0.0, 0.95)) * draw(_direction(m))
    else:
        domain = Sphere(m)
        x0 = draw(_direction(m))
    return QuadraticForm(A).to_objective(domain), x0


@st.composite
def power_problems(draw):
    p = draw(st.floats(1.1, 3.0))
    value, grad, hess, lipschitz = _abs_power(p)
    obj = Objective(value, grad, hess, _punctured_line(), lipschitz)
    t = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return obj, np.array([t])


problems = st.one_of(quadratic_problems(), power_problems())


@PROPERTY_SETTINGS
@given(problems, st.floats(0.05, 0.95), st.floats(0.1, 0.9))
def test_runs_stay_on_the_domain_and_pass_armijo(problem, alpha, beta):
    obj, x0 = problem
    assert obj.domain.contains(x0)
    stop = StopCriteria(max_iters=20)
    for method in METHODS:
        params = None
        if method in ("backtracking", "local_backtracking"):
            params = BacktrackingParams(alpha=alpha, beta=beta)
        tr = run(obj, x0, method, params=params, stop=stop)
        assert isinstance(tr.termination, Termination)
        assert all(obj.domain.contains(rec.point) for rec in tr.records)
        if method in ("backtracking", "local_backtracking"):
            for prev, rec in zip(tr.records, tr.records[1:]):
                assert (rec.f_value - prev.f_value
                        <= armijo_rhs(alpha, rec.step_size, prev.rgrad_norm)
                        + _f_slack(method, prev, rec))


def _f_slack(method, prev, rec):
    # The line search accepts a step on f's own values, so it passes
    # Armijo exactly; local backtracking never evaluates f, so f's
    # rounding is allowed: 8 ulps of the larger |f|.
    if method == "backtracking":
        return 0.0
    return 8.0 * np.finfo(float).eps * max(abs(prev.f_value), abs(rec.f_value))


@PROPERTY_SETTINGS
@given(problems, st.floats(0.05, 0.95), st.floats(0.1, 0.9))
def test_backtracking_steps_are_delta0_or_the_next_larger_fails(problem, alpha,
                                                                beta):
    # The convergence argument for Armijo backtracking needs only this:
    # each accepted delta is delta0, or delta/beta, the grid point above
    # it, fails the radius gate or Armijo.  The trial above is made right
    # after each search, so a quadratic form's restriction reads the
    # product A x that the search read.
    obj, x0 = problem
    params = BacktrackingParams(alpha=alpha, beta=beta)
    grid = backtracking_grid(params)
    search, larger = optim._line_search, []

    def checked(M, obj, x, fx, g, gn, r, alpha, grid, s):
        j, step = search(M, obj, x, fx, g, gn, r, alpha, grid, s)
        if j > 0:
            larger.append(armijo_trial(M, obj, x, fx, g, gn, r, alpha, grid[j - 1]))
        return j, step

    with mock.patch.object(optim, "_line_search", checked):
        tr = run(obj, x0, "backtracking", params=params,
                 stop=StopCriteria(max_iters=20))
    assert all(rec.step_size in grid for rec in tr.records[1:])
    assert larger == [None] * len(larger)


def _records(trace):
    return ([(r.iter, r.point.tobytes(), r.f_value, r.rgrad_norm, r.step_size,
              r.step_norm) for r in trace.records], trace.termination)


@PROPERTY_SETTINGS
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(-1.0, 2.0),
       st.floats(0.05, 0.95), st.floats(0.1, 0.9))
def test_backtracking_runs_are_the_top_down_scans_on_rayleigh_quotients(
        m, seed, log_scale, alpha, beta):
    # On the projective sphere, Armijo for f = <Ax, x>/2 reduces to a
    # quadratic inequality in delta that holds on an interval (0, delta*],
    # so wherever the search starts it accepts the index the scan from
    # delta0 accepts, and whole runs match bit for bit.  The runs stop at
    # |g| = 1e-5 |A|: below that the Armijo decrease nears the rounding
    # of f, which can pass a trial and fail a shorter one.
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, m)) * 10.0 ** log_scale
    A = 0.5 * (B + B.T)
    obj = QuadraticForm(SymMatrix(A)).to_objective(Sphere(m))
    x0 = rng.standard_normal(m)
    x0 /= np.linalg.norm(x0)
    params = BacktrackingParams(alpha=alpha, beta=beta)
    stop = StopCriteria(grad_tol=1e-5 * np.linalg.norm(A, 2), max_iters=100)
    got = run(obj, x0, "backtracking", params=params, stop=stop)
    with mock.patch.object(optim, "_line_search", top_down_line_search):
        want = run(obj, x0, "backtracking", params=params, stop=stop)
    assert _records(got) == _records(want)


def test_local_backtracking_steps_pass_armijo_on_the_sphere():
    # With L(x) a bound on the curvature along the retraction, the
    # descent lemma gives a decrease of at least delta |g|^2 (1 - L
    # delta/2), which passes Armijo for delta < min(alpha, 2(1 - alpha))/L.
    # Local backtracking never evaluates f, so f's own rounding is
    # allowed: 8 ulps of the larger |f|.
    alpha = 0.65
    violations = []
    for s in range(60):
        rng = np.random.default_rng([s, 17])
        m = int(rng.integers(2, 5))
        B = rng.standard_normal((m, m))
        x0 = rng.standard_normal(m)
        x0 /= np.linalg.norm(x0)
        for retraction in Sphere.MODES:
            obj = QuadraticForm(SymMatrix(0.5 * (B + B.T))).to_objective(
                Sphere(m, retraction))
            tr = run(obj, x0, "local_backtracking",
                     params=BacktrackingParams(alpha=alpha),
                     stop=StopCriteria(max_iters=20))
            for prev, rec in zip(tr.records, tr.records[1:]):
                ulps = 8.0 * np.finfo(float).eps * max(abs(prev.f_value),
                                                       abs(rec.f_value))
                if (rec.f_value - prev.f_value
                        > armijo_rhs(alpha, rec.step_size, prev.rgrad_norm) + ulps):
                    violations.append((s, retraction, rec.iter))
    assert violations == []


@PROPERTY_SETTINGS
@given(problems)
def test_riemannian_grad_is_the_projected_difference_gradient(problem):
    obj, x = problem
    want = tangent_project(obj.domain, x, fd_gradient(obj, x))
    got = riemannian_grad(obj, x)
    assert np.linalg.norm(got - want) <= 1e-5 * (1.0 + np.linalg.norm(want))


@PROPERTY_SETTINGS
@given(problems, st.data())
def test_tangent_hessian_is_the_difference_of_the_riemannian_gradient(problem,
                                                                      data):
    # For a unit y in the backend's coordinates of T_x and v = lift(y),
    # P(grad_R f(R_x(sv)) - grad_R f(R_x(-sv)))/(2s) is lift(H y) up to
    # O(s^2), whatever the retraction, as R_x(sv) = x + sv + O(s^2).
    obj, x = problem
    M = obj.domain
    H, _, lift = M.tangent_hessian(x, obj.hess(x), riemannian_grad(obj, x),
                                   obj.grad)
    y = data.draw(_direction(H.dim))
    v = lift(y)
    s = min(1e-5, M.radius(x) / 10.0)
    diff = (riemannian_grad(obj, M.retract(x, s * v))
            - riemannian_grad(obj, M.retract(x, -s * v)))
    got = tangent_project(M, x, diff) / (2.0 * s)
    want = lift(H.entries @ y)
    assert (np.linalg.norm(got - want)
            <= 1e-6 * (1.0 + np.linalg.norm(H.entries, 2)))


def _bits(trace):
    # Every field of every record as bytes, so nan compares as itself.
    return ([np.array([r.iter, r.f_value, r.rgrad_norm, r.step_size,
                       r.step_norm]).tobytes() + r.point.tobytes()
             for r in trace.records], trace.termination)


@PROPERTY_SETTINGS
@given(st.integers(2, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.05, 1.0]), st.sampled_from(["euclidean", "ball"]),
       st.sampled_from([("newton", None), ("random_newton", None),
                        ("new_q_newton", NewQNewtonParams()),
                        ("new_q_newton", NewQNewtonParams(random_deltas=True))]))
def test_newton_runs_reuse_decompositions_without_moving_a_bit(m, seed, c, kind,
                                                               method):
    # f = x^T A x/2 + b^T x + c sum x_i^4 with an indefinite A: with c = 0
    # the Hessian A is the same at every step, with c > 0 it changes at
    # every step.  Past CHOLESKY_MIN_DIM a certified step decomposes
    # nothing, with or without reuse.
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, m))
    A = 0.5 * (B + B.T)
    b = rng.standard_normal(m)
    obj = quartic(A, b, c, Euclidean(m) if kind == "euclidean" else open_ball(m))
    x0 = rng.standard_normal(m)
    if kind == "ball":
        x0 *= rng.uniform(0.0, 0.9) / np.linalg.norm(x0)
    name, params = method
    stop = StopCriteria(max_iters=30)
    pairs = []
    inner = optim.sym_eig

    def kept(H):
        pairs.append(inner(H))
        return pairs[-1]

    with mock.patch.object(optim, "sym_eig", kept):
        got = run(obj, x0, name, params=params, stop=stop, rng=seed)
    with mock.patch.object(optim, "_reusing_eig", decomposing_eig):
        want = run(obj, x0, name, params=params, stop=stop, rng=seed)
    assert _bits(got) == _bits(want)
    assert not any(a.flags.writeable for pair in pairs for a in pair)
    if c == 0.0:
        assert len(pairs) <= 1
