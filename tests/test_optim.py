import numpy as np
import pytest

from manifold_descent.linalg import SymMatrix
from manifold_descent.manifold import Euclidean, NotOnManifold, OpenSubset, open_ball
from manifold_descent.objective import Objective, QuadraticForm
from manifold_descent.optim import (
    CLAMP_MARGIN,
    METHODS,
    BacktrackingParams,
    LineSearchExhausted,
    MissingLipschitz,
    NewQNewtonParams,
    StopCriteria,
    Termination,
    _gamma_cap,
    _new_q_newton_step,
    armijo_delta,
    armijo_rhs,
    local_bgd_delta,
    run,
)


def _quadratic(diag, domain=None):
    A = SymMatrix(np.diag(diag))
    return QuadraticForm(A).to_objective(domain or Euclidean(len(diag)))


def _counting(obj):
    """Wrap value_fn and grad_fn so evaluations can be counted."""
    calls = {"value": 0, "grad": 0}

    def counted(key, inner):
        def call(x):
            calls[key] += 1
            return inner(x)
        return call

    import dataclasses

    return dataclasses.replace(obj, value_fn=counted("value", obj.value_fn),
                               grad_fn=counted("grad", obj.grad_fn)), calls


# ---------------------------------------------------------------- params


def test_backtracking_params_validation():
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(beta=0.0),
                dict(beta=1.0), dict(delta0=0.0), dict(delta0=-1.0)):
        with pytest.raises(ValueError):
            BacktrackingParams(**bad)


def test_new_q_newton_params_validation():
    with pytest.raises(ValueError):
        NewQNewtonParams(exponent_a=1.0)
    with pytest.raises(ValueError):
        NewQNewtonParams(deltas=())
    with pytest.raises(ValueError):
        NewQNewtonParams(deltas=(0.5, 0.5))
    with pytest.raises(ValueError):
        NewQNewtonParams(gamma=lambda j: j + 1.0)
    # a valid custom sequence passes
    NewQNewtonParams(gamma=lambda j: float(j * j))


def test_stop_criteria_validation():
    with pytest.raises(ValueError):
        StopCriteria(grad_tol=-1.0)
    with pytest.raises(ValueError):
        StopCriteria(max_iters=-1)
    with pytest.raises(ValueError):
        StopCriteria(divergence_norm=0.0)
    assert StopCriteria(max_iters=0).max_iters == 0


# ----------------------------------------------------------- line search


def test_armijo_rhs_formula():
    assert armijo_rhs(0.5, 0.25, 2.0) == -(0.5 * 0.25 * 2.0 * 2.0)


def test_armijo_delta_exact_chain():
    # f(t) = t^2 from t=1: delta=1 and 0.7 fail the decrease test,
    # 0.7*0.7 passes.  The candidate must be the product chain float,
    # not 0.49 computed some other way.
    obj = _quadratic([2.0], Euclidean(1))  # f = t^2
    delta = armijo_delta(Euclidean(1), obj, np.array([1.0]))
    assert delta == 0.7 * 0.7
    assert delta == 0.48999999999999994


def test_armijo_delta_respects_radius_gate():
    obj = _quadratic([2.0], None)
    M = OpenSubset(1, radius_fn=lambda t: abs(t[0]), member_fn=lambda t: t[0] != 0)
    import dataclasses

    obj = dataclasses.replace(obj, domain=M)
    x = np.array([0.001])
    delta = armijo_delta(M, obj, x)
    gn = 2.0 * 0.001
    assert delta * gn < 0.5 * M.radius(x)


def test_line_search_exhausts_on_impossible_radius():
    obj = _quadratic([2.0], None)
    M = OpenSubset(1, radius_fn=lambda t: 1e-300, member_fn=lambda t: t[0] != 0)
    import dataclasses

    obj = dataclasses.replace(obj, domain=M)
    with pytest.raises(LineSearchExhausted):
        armijo_delta(M, obj, np.array([1.0]))


def test_local_bgd_delta_gates():
    obj = _quadratic([2.0], Euclidean(1))  # L = 2 exactly
    x = np.array([1.0])
    delta = local_bgd_delta(Euclidean(1), obj, x)
    bound = 0.5 / 2.0
    assert delta < bound
    # the next-larger candidate in the chain violates the bound
    assert delta / 0.7 >= bound * (1.0 - 1e-12)


def test_local_bgd_delta_needs_lipschitz():
    obj = Objective(
        lambda t: float(t[0] ** 2),
        lambda t: np.array([2.0 * t[0]]),
        lambda t: SymMatrix([[2.0]]),
        Euclidean(1),
    )
    with pytest.raises(MissingLipschitz):
        local_bgd_delta(Euclidean(1), obj, np.array([1.0]))


def test_local_backtracking_is_evaluation_free():
    obj, calls = _counting(_quadratic([2.0, 4.0]))
    tr = run(obj.domain, obj, [1.0, 1.0], "local_backtracking",
             stop=StopCriteria(max_iters=5, grad_tol=0.0))
    # one evaluation per recorded iterate, none inside the step choice
    assert calls["value"] == len(tr.records)

    obj2, calls2 = _counting(_quadratic([2.0, 4.0]))
    run(obj2.domain, obj2, [1.0, 1.0], "backtracking",
        stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert calls2["value"] > calls["value"]


@pytest.mark.parametrize("method", METHODS)
def test_each_iterate_is_evaluated_once(method):
    # run evaluates f and the gradient once per recorded iterate and
    # hands both to the stepper; only the Armijo trials evaluate more.
    obj, calls = _counting(_quadratic([2.0, 4.0]))
    tr = run(obj.domain, obj, [1.0, 1.0], method,
             stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert calls["grad"] == len(tr.records)
    if method != "backtracking":
        assert calls["value"] == len(tr.records)


def test_backtracking_descends_monotonically():
    obj = _quadratic([2.0, 20.0])
    tr = run(obj.domain, obj, [1.0, 1.0], "backtracking",
             stop=StopCriteria(max_iters=40))
    values = [r.f_value for r in tr.records]
    assert all(b < a for a, b in zip(values, values[1:]))


# ----------------------------------------------------- new q newton step


def test_new_q_newton_exact_on_pd_quadratic():
    obj = _quadratic([2.0, 8.0])
    tr = run(obj.domain, obj, [3.0, -1.0], "new_q_newton",
             stop=StopCriteria(max_iters=10))
    assert tr.termination is Termination.GRADIENT_TOLERANCE
    assert tr.steps == 1
    assert np.allclose(tr.final_point, [0.0, 0.0], atol=1e-14)


def test_new_q_newton_reflects_negative_space():
    # H = diag(2, -2), g = (2, -2) at (1, 1): w = (1, 1), reflection
    # gives v = (1, -1), so the step lands at (0, 2).
    obj = _quadratic([2.0, -2.0])
    x = np.array([1.0, 1.0])
    y = _new_q_newton_step(Euclidean(2), obj, x, obj.value(x), obj.grad(x),
                           np.inf, NewQNewtonParams())[0]
    assert np.allclose(y, [0.0, 2.0], atol=1e-14)
    # the step is taken against an ascent direction
    v = x - y
    assert v @ obj.grad(x) > 0.0


@pytest.mark.parametrize("seed", range(8))
def test_new_q_newton_direction_ascends_f(seed):
    # <v, grad f> > 0 must survive regularization and reflection.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    B = rng.standard_normal((m, m))
    q = QuadraticForm(SymMatrix(B + B.T))
    obj = q.to_objective(Euclidean(m))
    x = rng.standard_normal(m)
    if np.linalg.norm(q.grad(x)) < 1e-8:
        return
    y = _new_q_newton_step(Euclidean(m), obj, x, obj.value(x), obj.grad(x),
                           np.inf, NewQNewtonParams())[0]
    assert (x - y) @ q.grad(x) > 0.0


def test_new_q_newton_regularizes_singular_hessian():
    # H = 0 forces delta=0 to fail; delta=1 gives A = rho I with
    # rho = |g|^2, so the step is -g/rho.
    g0 = np.array([0.3, 0.4])  # |g| = 0.5, rho = 0.25
    obj = Objective(
        lambda z: float(g0 @ z),
        lambda z: g0.copy(),
        lambda z: SymMatrix(np.zeros((2, 2))),
        Euclidean(2),
    )
    x = np.zeros(2)
    y = _new_q_newton_step(Euclidean(2), obj, x, obj.value(x), obj.grad(x),
                           np.inf, NewQNewtonParams())[0]
    assert np.allclose(y, -g0 / 0.25)


def test_new_q_newton_regularizer_starvation():
    # With |g| = 1e-6 and a = 2, rho = 1e-12 cannot clear the relative
    # invertibility gate, so the run reports a singular matrix.
    g0 = np.array([1e-6, 0.0])
    obj = Objective(
        lambda z: float(g0 @ z),
        lambda z: g0.copy(),
        lambda z: SymMatrix(np.zeros((2, 2))),
        Euclidean(2),
    )
    tr = run(Euclidean(2), obj, np.zeros(2), "new_q_newton",
             stop=StopCriteria(max_iters=5))
    assert tr.termination is Termination.SINGULAR_MATRIX
    assert tr.steps == 0


def test_gamma_cap_default_sequence():
    assert _gamma_cap(None, 0.4, 1.0) == 1.0
    assert _gamma_cap(None, 0.5, 1.0) == 0.5  # bracket is half-open
    assert _gamma_cap(None, 0.99, 1.0) == 0.5
    assert _gamma_cap(None, 1.7, 1.0) == pytest.approx(1.0 / 4.0)


def test_gamma_cap_custom_sequence():
    gamma = lambda j: float(j * j)
    # |v| = 0.6, r = 1: bracket [0.5, 2.0) belongs to j=1, cap 1/gamma(2)
    assert _gamma_cap(gamma, 0.6, 1.0) == 0.25


def test_new_q_newton_caps_step_on_bounded_radius():
    obj = _quadratic([2.0, -2.0], open_ball(2))
    x = np.array([0.3, 0.3])
    tr = run(obj.domain, obj, x, "new_q_newton", stop=StopCriteria(max_iters=1))
    assert tr.records[1].step_norm < obj.domain.radius(x)


# ------------------------------------------------- newton and relatives


def test_newton_reaches_pd_minimum_in_one_step():
    obj = _quadratic([2.0, 8.0])
    tr = run(obj.domain, obj, [5.0, 5.0], "newton", stop=StopCriteria(max_iters=10))
    assert tr.steps == 1
    assert np.allclose(tr.final_point, [0.0, 0.0], atol=1e-14)


def test_newton_clamps_to_half_radius():
    # f = |t|^1.3 on the punctured line: the Newton direction t/0.3 is
    # much longer than the radius |t|.
    p = 1.3
    obj = Objective(
        lambda t: abs(t[0]) ** p,
        lambda t: np.array([p * np.sign(t[0]) * abs(t[0]) ** (p - 1.0)]),
        lambda t: SymMatrix([[p * (p - 1.0) * abs(t[0]) ** (p - 2.0)]]),
        OpenSubset(1, radius_fn=lambda t: abs(t[0]), member_fn=lambda t: t[0] != 0),
    )
    tr = run(obj.domain, obj, [0.3], "newton", stop=StopCriteria(max_iters=1))
    assert "clamped" in tr.flags
    assert tr.records[1].step_norm == pytest.approx(0.5 * 0.3 * CLAMP_MARGIN)


def test_newton_raises_on_singular_hessian():
    obj = Objective(
        lambda z: float(z[0]),
        lambda z: np.array([1.0, 0.0]),
        lambda z: SymMatrix(np.zeros((2, 2))),
        Euclidean(2),
    )
    tr = run(Euclidean(2), obj, np.zeros(2), "newton", stop=StopCriteria(max_iters=3))
    assert tr.termination is Termination.SINGULAR_MATRIX


def test_random_newton_scales_by_drawn_kappa():
    obj = _quadratic([2.0, 2.0])
    x0 = np.array([1.0, -1.0])
    rng = np.random.default_rng(0)
    kappa = float(np.random.default_rng(0).uniform(0.0, 2.0))
    tr = run(obj.domain, obj, x0, "random_newton",
             stop=StopCriteria(max_iters=1), rng=rng)
    assert np.allclose(tr.final_point, (1.0 - kappa) * x0)


def test_random_newton_reproducible_for_seed():
    obj = _quadratic([2.0, -4.0])
    runs = []
    for _ in range(2):
        tr = run(obj.domain, obj, [1.0, 1.0], "random_newton",
                 stop=StopCriteria(max_iters=20), rng=np.random.default_rng(5))
        runs.append([tuple(r.point) for r in tr.records])
    assert runs[0] == runs[1]


def test_standard_gd_step_and_clamp():
    obj = _quadratic([2.0, 2.0], open_ball(2))
    x0 = np.array([0.998, 0.0])
    tr = run(obj.domain, obj, x0, "standard_gd",
             stop=StopCriteria(max_iters=1), lr=0.5)
    # lr |g| = 0.998 far exceeds half the boundary distance
    assert "clamped" in tr.flags
    r = 1.0 - 0.998
    assert tr.records[1].step_norm == pytest.approx(0.5 * r * CLAMP_MARGIN)


# ------------------------------------------------------------ run driver


def test_run_rejects_bad_start_and_method():
    obj = _quadratic([2.0], open_ball(1))
    with pytest.raises(NotOnManifold):
        run(obj.domain, obj, [2.0], "backtracking")
    with pytest.raises(ValueError):
        run(Euclidean(1), _quadratic([2.0]), [1.0], "quasi_newton")


def test_run_non_finite_step_on_flat_space_diverges():
    # The infinite radius admits a non-finite step instead of raising
    # StepTooLarge, so the driver reports the run as divergent.
    obj = Objective(
        lambda t: float(t[0]),
        lambda t: np.array([np.inf]),
        lambda t: SymMatrix([[0.0]]),
        Euclidean(1),
    )
    tr = run(Euclidean(1), obj, [1.0], "standard_gd")
    assert tr.termination is Termination.DIVERGED


def test_run_detects_initial_critical_point():
    obj = _quadratic([2.0, 2.0])
    tr = run(obj.domain, obj, [0.0, 0.0], "backtracking")
    assert tr.termination is Termination.STOPPED_AT_CRITICAL_POINT
    assert tr.steps == 0
    assert len(tr.records) == 1


def test_run_zero_iteration_budget():
    obj = _quadratic([2.0])
    tr = run(obj.domain, obj, [1.0], "backtracking", stop=StopCriteria(max_iters=0))
    assert tr.termination is Termination.MAX_ITERATIONS
    assert len(tr.records) == 1
    assert tr.records[0].iter == 0
    assert tr.records[0].step_size == 0.0


def test_run_diverges_on_norm():
    # Constant value with an outward gradient: only the norm rule can
    # fire, never the value rule.
    obj = Objective(
        lambda z: 0.0,
        lambda z: np.array([-1.0]),
        lambda z: SymMatrix(np.zeros((1, 1))),
        Euclidean(1),
    )
    tr = run(Euclidean(1), obj, [0.0], "new_q_newton",
             stop=StopCriteria(max_iters=200, divergence_norm=100.0))
    assert tr.termination is Termination.DIVERGED
    assert np.linalg.norm(tr.final_point) > 100.0
    assert tr.final_value == 0.0


def test_run_diverges_on_unbounded_value():
    g0 = np.array([-10.0])
    obj = Objective(
        lambda z: float(g0 @ z),
        lambda z: g0.copy(),
        lambda z: SymMatrix(np.zeros((1, 1))),
        Euclidean(1),
    )
    tr = run(Euclidean(1), obj, [0.0], "new_q_newton",
             stop=StopCriteria(max_iters=100, divergence_norm=500.0))
    assert tr.termination is Termination.DIVERGED
    assert tr.final_value < -500.0


def test_run_reports_left_domain():
    # member set x < 1 with a deliberately wrong radius bound: the
    # stepper can cross the boundary, run() refuses the point.
    M = OpenSubset(1, radius_fn=lambda t: 10.0, member_fn=lambda t: t[0] < 1.0)
    obj = Objective(
        lambda t: -float(t[0]),
        lambda t: np.array([-1.0]),
        lambda t: SymMatrix([[0.0]]),
        M,
    )
    tr = run(M, obj, [0.95], "standard_gd", stop=StopCriteria(max_iters=5), lr=0.1)
    assert tr.termination is Termination.LEFT_DOMAIN
    # only points inside the set are recorded
    assert all(M.contains(r.point) for r in tr.records)
    assert tr.final_point[0] == 0.95


def test_run_step_tolerance():
    obj = _quadratic([2.0])
    tr = run(obj.domain, obj, [1.0], "standard_gd",
             stop=StopCriteria(max_iters=50, grad_tol=0.0, step_tol=1e-3),
             lr=1e-6)
    assert tr.termination is Termination.STOPPED_AT_CRITICAL_POINT
    assert tr.steps == 1


def test_run_random_deltas_reproducible_and_distinct():
    g0 = np.array([0.3, 0.4])
    obj = Objective(
        lambda z: float(g0 @ z),
        lambda z: g0.copy(),
        lambda z: SymMatrix(np.zeros((2, 2))),
        Euclidean(2),
    )
    tr_a = run(Euclidean(2), obj, np.zeros(2), "new_q_newton",
               stop=StopCriteria(max_iters=1), rng=np.random.default_rng(1),
               random_deltas=True)
    tr_b = run(Euclidean(2), obj, np.zeros(2), "new_q_newton",
               stop=StopCriteria(max_iters=1), rng=np.random.default_rng(1),
               random_deltas=True)
    tr_c = run(Euclidean(2), obj, np.zeros(2), "new_q_newton",
               stop=StopCriteria(max_iters=1))
    assert np.array_equal(tr_a.final_point, tr_b.final_point)
    # the drawn coefficient differs from the deterministic delta = 1
    assert not np.allclose(tr_a.final_point, tr_c.final_point)


def test_trace_properties():
    obj = _quadratic([2.0, 4.0])
    tr = run(obj.domain, obj, [1.0, 1.0], "backtracking",
             stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert tr.steps == 5
    assert np.array_equal(tr.final_point, tr.records[-1].point)
    assert tr.final_value == tr.records[-1].f_value
    assert [r.iter for r in tr.records] == list(range(6))
