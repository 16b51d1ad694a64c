import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import manifold_descent.optim as optim
from manifold_descent.linalg import SymMatrix, sym_eig
from manifold_descent.manifold import (
    Euclidean,
    NotOnManifold,
    NotTangent,
    OpenSubset,
    Sphere,
    StepTooLarge,
    open_ball,
)
from manifold_descent.objective import Objective, QuadraticForm, builtin_problems
from manifold_descent.optim import (
    CLAMP_MARGIN,
    MAX_LINE_SEARCH,
    METHODS,
    BacktrackingParams,
    LineSearchExhausted,
    MissingLipschitz,
    NewQNewtonParams,
    StandardGDParams,
    StopCriteria,
    Termination,
    _gamma_cap,
    _new_q_newton_step,
    armijo_rhs,
    run,
)
from oracles import backtracking_grid, top_down_line_search


def _quadratic(diag, domain=None):
    A = SymMatrix(np.diag(diag))
    return QuadraticForm(A).to_objective(domain or Euclidean(len(diag)))


def _counting(obj):
    """Wrap value_fn and grad_fn so evaluations can be counted.  The
    restriction goes, so the line search evaluates the counted f."""
    calls = {"value": 0, "grad": 0}

    def counted(key, inner):
        def call(x):
            calls[key] += 1
            return inner(x)
        return call

    import dataclasses

    return dataclasses.replace(obj, value_fn=counted("value", obj.value_fn),
                               grad_fn=counted("grad", obj.grad_fn),
                               restriction_fn=None), calls


# ---------------------------------------------------------------- params


def test_backtracking_params_validation():
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(beta=0.0),
                dict(beta=1.0), dict(delta0=0.0), dict(delta0=-1.0)):
        with pytest.raises(ValueError):
            BacktrackingParams(**bad)


@pytest.mark.parametrize("cls, field, value", [
    (BacktrackingParams, "alpha", "0.5"),
    (BacktrackingParams, "beta", np.nan),
    (BacktrackingParams, "delta0", np.inf),
    (BacktrackingParams, "delta0", np.nan),
    (BacktrackingParams, "delta0", "1"),
    (BacktrackingParams, "delta0", True),
    (NewQNewtonParams, "exponent_a", np.inf),
    (NewQNewtonParams, "exponent_a", np.nan),
    (NewQNewtonParams, "exponent_a", "3"),
    (NewQNewtonParams, "deltas", (np.nan, 1.0)),
    (NewQNewtonParams, "deltas", (0.0, -np.inf)),
    (NewQNewtonParams, "deltas", ("1",)),
])
def test_params_refuse_a_field_that_is_not_a_finite_real(cls, field, value):
    # A ValueError naming the field, which the CLI reports with exit 2;
    # a string once raised TypeError, and inf or nan passed.
    with pytest.raises(ValueError, match="^%s must be a real number in" % field):
        cls(**{field: value})


def test_params_take_numpy_floats():
    p = BacktrackingParams(alpha=np.float32(0.25), delta0=np.float64(2.0))
    assert p.delta0 == 2.0 and type(p.delta0) is np.float64
    q = NewQNewtonParams(exponent_a=np.float64(3.0),
                         deltas=(np.float32(0.5), np.float64(1.0)))
    assert q.exponent_a == 3.0 and q.deltas == (0.5, 1.0)


def test_new_q_newton_params_validation():
    with pytest.raises(ValueError):
        NewQNewtonParams(exponent_a=1.0)
    with pytest.raises(ValueError):
        NewQNewtonParams(deltas=())
    with pytest.raises(ValueError):
        NewQNewtonParams(deltas=(0.5, 0.5))
    # Refused by name rather than misread: a truthy "no" would draw
    # random deltas.
    for value in ("no", 1, 0, None, np.True_):
        with pytest.raises(ValueError, match="random_deltas must be True or False, got"):
            NewQNewtonParams(random_deltas=value)


def test_stop_criteria_validation():
    with pytest.raises(ValueError):
        StopCriteria(grad_tol=-1.0)
    with pytest.raises(ValueError):
        StopCriteria(max_iters=-1)
    with pytest.raises(ValueError):
        StopCriteria(divergence_norm=0.0)
    assert StopCriteria(max_iters=0).max_iters == 0
    # The closed ends: inf stops at x0, and a divergence_norm of inf never fires.
    assert StopCriteria(grad_tol=math.inf).grad_tol == math.inf
    assert StopCriteria(divergence_norm=math.inf).divergence_norm == math.inf


@pytest.mark.parametrize("field, value", [
    ("grad_tol", float("nan")),  # would turn the gradient stop off
    ("max_iters", 2.5),          # range() would raise TypeError in run
    ("max_iters", True),         # would run one step
    ("max_iters", "3"),
    ("divergence_norm", float("nan")),
    ("grad_tol", "0.1"),         # would raise TypeError from a comparison
    ("grad_tol", True),          # would pass for 1
    ("divergence_norm", "1"),
    ("divergence_norm", True),
])
def test_stop_criteria_refuses_what_run_cannot_honour(field, value):
    with pytest.raises(ValueError, match=field):
        StopCriteria(**{field: value})


def test_stop_criteria_takes_numpy_integers():
    stop = StopCriteria(max_iters=np.int64(3), grad_tol=np.float64(0.0))
    obj = _quadratic([2.0, 2.0], Euclidean(2))
    tr = run(obj, [1.0, 1.0], "standard_gd", stop=stop)
    assert tr.termination is Termination.MAX_ITERATIONS
    assert tr.steps == 3


# ----------------------------------------------------------- line search


def test_armijo_rhs_formula():
    assert armijo_rhs(0.5, 0.25, 2.0) == -(0.5 * 0.25 * 2.0 * 2.0)


def _first_step(obj, x, method):
    """The record of one step of ``method`` from x; its step_size is the
    accepted delta."""
    tr = run(obj, x, method, stop=StopCriteria(max_iters=1, grad_tol=0.0))
    assert tr.steps == 1
    return tr.records[1]


def test_armijo_delta_exact_chain():
    # f(t) = t^2 from t=1: delta=1 and 0.7 fail the decrease test,
    # 0.7*0.7 passes.  The candidate must be the product chain float,
    # not 0.49 computed some other way.
    obj = _quadratic([2.0], Euclidean(1))  # f = t^2
    delta = _first_step(obj, [1.0], "backtracking").step_size
    assert delta == 0.7 * 0.7
    assert delta == 0.48999999999999994


def test_armijo_delta_respects_radius_gate():
    obj = _quadratic([2.0], None)
    M = OpenSubset(1, radius_fn=lambda t: abs(t[0]))
    import dataclasses

    obj = dataclasses.replace(obj, domain=M)
    x = np.array([0.001])
    delta = _first_step(obj, x, "backtracking").step_size
    gn = 2.0 * 0.001
    assert delta * gn < 0.5 * M.radius(x)
    # the radius gate, not the decrease test, decided: delta/beta fails it
    assert delta / 0.7 * gn >= 0.5 * M.radius(x) * (1.0 - 1e-12)


def test_line_search_exhausts_on_impossible_radius():
    obj = _quadratic([2.0], None)
    M = OpenSubset(1, radius_fn=lambda t: 1e-300 if t[0] != 0 else 0.0)
    import dataclasses

    obj = dataclasses.replace(obj, domain=M)
    tr = run(obj, [1.0], "backtracking", stop=StopCriteria(max_iters=1))
    assert tr.termination is Termination.LINE_SEARCH_EXHAUSTED
    assert tr.steps == 0


def test_line_search_exhausts_on_the_same_step_after_the_whole_grid():
    # f is a flat quadratic until the gradient is evaluated at the fourth
    # step's point; from then on every trial reads a huge f and fails
    # Armijo.  The fifth step's search evaluates f once at every grid
    # point (the radius is infinite) before the run ends as the top-down
    # scan's does.
    base = _quadratic([2.0, 20.0])
    x0 = np.array([1.0, 1.0])
    traces = []
    for search in (optim._line_search, top_down_line_search):
        calls = {"grad": 0, "frozen": 0}

        def grad(x):
            calls["grad"] += 1
            return base.grad_fn(x)

        def value(x):
            if calls["grad"] < 5:
                return base.value_fn(x)
            calls["frozen"] += 1
            return 1e300

        obj = dataclasses.replace(base, value_fn=value, grad_fn=grad,
                                  restriction_fn=None)
        with mock.patch.object(optim, "_line_search", search):
            tr = run(obj, x0, "backtracking", stop=StopCriteria(max_iters=20))
        assert tr.termination is Termination.LINE_SEARCH_EXHAUSTED
        assert tr.steps == 4
        assert calls["frozen"] == MAX_LINE_SEARCH + 1
        traces.append([(r.point.tobytes(), r.f_value, r.step_size)
                       for r in tr.records])
    assert traces[0] == traces[1]
    assert tr.records[3].step_size < BacktrackingParams().delta0


@pytest.mark.parametrize("start", [1, 13, 27])
def test_backtracking_in_the_rounding_band_is_the_top_down_scan(start):
    # x^T diag(-2, -1, 1, 3) x/2 on Sphere(4) with the default params and
    # stop rule: near the minimum Armijo's decrease nears the rounding of
    # f, where a trial can pass and a shorter one fail, so a search that
    # does not scan from delta0 parts from Armijo's rule there.  From
    # these starts a search that began at the index accepted two steps
    # earlier parted at steps 33-37; whole runs, to LineSearchExhausted,
    # are the top-down scan's bit for bit.
    obj = _quadratic([-2.0, -1.0, 1.0, 3.0], Sphere(4))
    x0 = np.random.default_rng(start).standard_normal(4)
    x0 /= np.linalg.norm(x0)
    traces = [run(obj, x0, "backtracking")]
    with mock.patch.object(optim, "_line_search", top_down_line_search):
        traces.append(run(obj, x0, "backtracking"))
    got, want = ([(r.iter, r.point.tobytes(), r.f_value, r.rgrad_norm, r.step_size,
                   r.step_norm) for r in tr.records] for tr in traces)
    assert got == want
    assert [tr.termination for tr in traces] == [Termination.LINE_SEARCH_EXHAUSTED] * 2


def test_local_bgd_delta_gates():
    obj = _quadratic([2.0], Euclidean(1))  # L = 2 exactly
    delta = _first_step(obj, [1.0], "local_backtracking").step_size
    bound = 0.5 / 2.0
    assert delta < bound
    # the next-larger candidate in the chain violates the bound
    assert delta / 0.7 >= bound * (1.0 - 1e-12)


def test_local_bgd_delta_needs_lipschitz():
    obj, calls = _counting(Objective(
        lambda t: float(t[0] ** 2),
        lambda t: np.array([2.0 * t[0]]),
        lambda t: SymMatrix([[2.0]]),
        Euclidean(1),
    ))
    with pytest.raises(MissingLipschitz):
        run(obj, [1.0], "local_backtracking")
    # rejected before any evaluation
    assert calls == {"value": 0, "grad": 0}


def test_local_backtracking_is_evaluation_free():
    obj, calls = _counting(_quadratic([2.0, 4.0]))
    tr = run(obj, [1.0, 1.0], "local_backtracking",
             stop=StopCriteria(max_iters=5, grad_tol=0.0))
    # one evaluation per recorded iterate, none inside the step choice
    assert calls["value"] == len(tr.records)

    obj2, calls2 = _counting(_quadratic([2.0, 4.0]))
    run(obj2, [1.0, 1.0], "backtracking",
        stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert calls2["value"] > calls["value"]


def _exp10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# Steps of (L, |g|, r) in random order, so the accepted index rises and
# falls: L is 0 (no limit) or 1e-3 to 1e40 (past about 1e31 the whole
# grid fails the bound at the default beta), |g| 1e-8 to 1e8, and r inf
# or 1e-6 to 1e2.
_LOCAL_STEPS = st.lists(
    st.tuples(st.just(0.0) | _exp10(-3, 40), _exp10(-8, 8),
              st.just(math.inf) | _exp10(-6, 2)),
    min_size=1, max_size=12)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_LOCAL_STEPS, st.sampled_from([0.3, 0.5, 0.9]),
       st.sampled_from([0.5, 0.7, 0.95]), st.sampled_from([1.0, 1e-3, 50.0]))
@example([(1.0, 1.0, math.inf), (1e6, 1.0, math.inf), (1.0, 1.0, math.inf),
          (0.0, 1.0, 1e-4), (0.0, 1.0, 1.0), (1e40, 1.0, 1.0)], 0.5, 0.7, 1.0)
# Grid deltas exactly at a gate, which both gates refuse: 0.5/L = 2^-1
# and r/2 = 2^-3 on the grid 2^-j.
@example([(1.0, 1.0, math.inf), (0.0, 1.0, 0.25)], 0.5, 0.5, 1.0)
def test_local_backtracking_takes_the_largest_grid_delta_that_passes(steps, alpha,
                                                                     beta, delta0):
    # Each step of one stepper takes the largest delta0 beta^j, j <=
    # MAX_LINE_SEARCH, with delta < min(alpha, 2(1 - alpha))/L and
    # delta |g| < r/2, whatever the steps before it took, and gives up
    # (LineSearchExhausted) exactly when no delta of the grid passes.
    params = BacktrackingParams(alpha=alpha, beta=beta, delta0=delta0)
    grid = backtracking_grid(params)
    M = Euclidean(1)
    now = {}
    obj = Objective(lambda t: 0.0, lambda t: t, lambda t: [[0.0]], M,
                    lipschitz_fn=lambda t: now["L"])
    stepper = optim._make_stepper(M, obj, "local_backtracking", params, 0, None, None)
    x = np.array([0.25])
    for L, gn, r in steps:
        now["L"] = L
        g = np.array([gn])
        bound = min(alpha, 2.0 * (1.0 - alpha)) / L if L else math.inf
        passing = [d for d in grid if d < bound and d * gn < 0.5 * r]
        if not passing:
            with pytest.raises(LineSearchExhausted):
                stepper(x, 0.0, g, gn, r)
            return
        delta = max(passing)
        got = stepper(x, 0.0, g, gn, r)
        assert got[1] == delta
        assert got[0].tobytes() == M._retract(x, -delta * g, r).tobytes()


def test_local_backtracking_reaches_the_last_delta_of_the_grid():
    # The last delta of the grid is still a step: with |g| = 1 and r/2
    # between delta0 beta^200 and delta0 beta^199 the step is
    # delta0 beta^200; a smaller r fails the whole grid and only then
    # LineSearchExhausted.
    grid = backtracking_grid(BacktrackingParams())
    M = Euclidean(1)
    obj = Objective(lambda t: 0.0, lambda t: t, lambda t: [[0.0]], M,
                    lipschitz_fn=lambda t: 0.0)
    stepper = optim._make_stepper(M, obj, "local_backtracking", None, 0, None, None)
    x, g = np.zeros(1), np.ones(1)
    for r, j in ((grid[3] + grid[4], 4), (grid[199] + grid[200], 200), (1.0, 2)):
        assert stepper(x, 0.0, g, 1.0, r)[1] == grid[j]
    with pytest.raises(LineSearchExhausted):
        stepper(x, 0.0, g, 1.0, 2.0 * grid[200])


@pytest.mark.parametrize("method", METHODS)
def test_each_iterate_is_evaluated_once(method):
    # run evaluates f and the gradient once per recorded iterate and
    # hands both to the stepper; only the Armijo trials evaluate more.
    obj, calls = _counting(_quadratic([2.0, 4.0]))
    tr = run(obj, [1.0, 1.0], method,
             stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert calls["grad"] == len(tr.records)
    if method != "backtracking":
        assert calls["value"] == len(tr.records)


def test_backtracking_descends_monotonically():
    obj = _quadratic([2.0, 20.0])
    tr = run(obj, [1.0, 1.0], "backtracking",
             stop=StopCriteria(max_iters=40))
    values = [r.f_value for r in tr.records]
    assert all(b < a for a, b in zip(values, values[1:]))


# ----------------------------------------------------- new q newton step


def test_new_q_newton_exact_on_pd_quadratic():
    obj = _quadratic([2.0, 8.0])
    tr = run(obj, [3.0, -1.0], "new_q_newton",
             stop=StopCriteria(max_iters=10))
    assert tr.termination is Termination.GRADIENT_TOLERANCE
    assert tr.steps == 1
    assert np.allclose(tr.final_point, [0.0, 0.0], atol=1e-14)


def test_new_q_newton_reflects_negative_space():
    # H = diag(2, -2), g = (2, -2) at (1, 1): w = (1, 1), reflection
    # gives v = (1, -1), so the step lands at (0, 2).
    obj = _quadratic([2.0, -2.0])
    x = np.array([1.0, 1.0])
    g = obj.grad(x)
    y = _new_q_newton_step(Euclidean(2), obj, x, obj.value(x), g, np.linalg.norm(g),
                           np.inf, NewQNewtonParams(), obj.grad, sym_eig)[0]
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
    g = obj.grad(x)
    y = _new_q_newton_step(Euclidean(m), obj, x, obj.value(x), g, np.linalg.norm(g),
                           np.inf, NewQNewtonParams(), obj.grad, sym_eig)[0]
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
    g = obj.grad(x)
    y = _new_q_newton_step(Euclidean(2), obj, x, obj.value(x), g, np.linalg.norm(g),
                           np.inf, NewQNewtonParams(), obj.grad, sym_eig)[0]
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
    tr = run(obj, np.zeros(2), "new_q_newton",
             stop=StopCriteria(max_iters=5))
    assert tr.termination is Termination.SINGULAR_MATRIX
    assert tr.steps == 0


def test_gamma_cap_default_sequence():
    assert _gamma_cap(0.4, 1.0) == 1.0
    assert _gamma_cap(0.5, 1.0) == 0.5  # bracket is half-open
    assert _gamma_cap(0.99, 1.0) == 0.5
    assert _gamma_cap(1.7, 1.0) == pytest.approx(1.0 / 4.0)
    # 2|v|/r overflows: the clamp's factor, a step of 0.5 r CLAMP_MARGIN.
    assert _gamma_cap(1e10, 1e-300) == 0.5 * 1e-300 * CLAMP_MARGIN / 1e10


@pytest.mark.parametrize("method", ["new_q_newton", "newton", "random_newton",
                                    "standard_gd"])
def test_a_step_cap_whose_quotient_overflows_keeps_the_run(method):
    # |v| = 1e10 over r = 1e-300: 2|v|/r overflows.  new_q_newton's gamma
    # cap floored inf and ended ObjectiveFailed at step 0, blaming a
    # finite objective.  Now each step is cut below r/2 as the other
    # methods' clamp cuts it: every step halves the distance to the
    # boundary 0, which no step reaches, until x is so small a subnormal
    # that the cut step rounds to 0 and the run ends Stalled.
    M = OpenSubset(1, radius_fn=lambda t: abs(t[0]))
    obj = Objective(lambda t: 1e10 * t[0] + 0.5 * t[0] ** 2,
                    lambda t: np.array([1e10 + t[0]]), lambda t: [[1.0]], M)
    tr = run(obj, [1e-300], method)
    assert tr.termination is Termination.STALLED and tr.error is None
    assert 0.0 < tr.records[1].step_norm < 0.5e-300


def test_new_q_newton_caps_step_on_bounded_radius():
    obj = _quadratic([2.0, -2.0], open_ball(2))
    x = np.array([0.3, 0.3])
    tr = run(obj, x, "new_q_newton", stop=StopCriteria(max_iters=1))
    assert tr.records[1].step_norm < obj.domain.radius(x)


# ------------------------------------------------- newton and relatives


def test_newton_reaches_pd_minimum_in_one_step():
    obj = _quadratic([2.0, 8.0])
    tr = run(obj, [5.0, 5.0], "newton", stop=StopCriteria(max_iters=10))
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
        OpenSubset(1, radius_fn=lambda t: abs(t[0])),
    )
    tr = run(obj, [0.3], "newton", stop=StopCriteria(max_iters=1))
    assert "clamped" in tr.flags
    assert tr.records[1].step_norm == pytest.approx(0.5 * 0.3 * CLAMP_MARGIN)


def test_newton_raises_on_singular_hessian():
    obj = Objective(
        lambda z: float(z[0]),
        lambda z: np.array([1.0, 0.0]),
        lambda z: SymMatrix(np.zeros((2, 2))),
        Euclidean(2),
    )
    tr = run(obj, np.zeros(2), "newton", stop=StopCriteria(max_iters=3))
    assert tr.termination is Termination.SINGULAR_MATRIX


def test_random_newton_scales_by_drawn_kappa():
    obj = _quadratic([2.0, 2.0])
    x0 = np.array([1.0, -1.0])
    rng = np.random.default_rng(0)
    kappa = float(np.random.default_rng(0).uniform(0.0, 2.0))
    tr = run(obj, x0, "random_newton",
             stop=StopCriteria(max_iters=1), rng=rng)
    assert np.allclose(tr.final_point, (1.0 - kappa) * x0)


def test_random_newton_reproducible_for_seed():
    obj = _quadratic([2.0, -4.0])
    runs = []
    for _ in range(2):
        tr = run(obj, [1.0, 1.0], "random_newton",
                 stop=StopCriteria(max_iters=20), rng=np.random.default_rng(5))
        runs.append([tuple(r.point) for r in tr.records])
    assert runs[0] == runs[1]


def test_standard_gd_step_and_clamp():
    obj = _quadratic([2.0, 2.0], open_ball(2))
    x0 = np.array([0.998, 0.0])
    tr = run(obj, x0, "standard_gd", StandardGDParams(lr=0.5),
             stop=StopCriteria(max_iters=1))
    # lr |g| = 0.998 far exceeds half the boundary distance
    assert "clamped" in tr.flags
    r = 1.0 - 0.998
    assert tr.records[1].step_norm == pytest.approx(0.5 * r * CLAMP_MARGIN)


# ------------------------------------------------------------ run driver


def test_run_rejects_bad_start_and_method():
    obj = _quadratic([2.0], open_ball(1))
    with pytest.raises(NotOnManifold):
        run(obj, [2.0], "backtracking")
    with pytest.raises(ValueError):
        run(_quadratic([2.0]), [1.0], "quasi_newton")


def test_run_refuses_a_complex_x0():
    # Not cast to its real part, which would run from another point with
    # only a ComplexWarning.
    with pytest.raises(ValueError, match="real entries"):
        run(_quadratic([2.0, 1.0]), np.array([0.5 + 0.5j, 0.1]), "backtracking")


# A params object of each class, keyed by what its readers run with (a
# NumPy float lr is a real number, and random_deltas draws the deltas),
# and the methods that read it; every other method refuses it.
SETTINGS = {
    "BacktrackingParams": (BacktrackingParams(),
                           ("backtracking", "local_backtracking")),
    "NewQNewtonParams": (NewQNewtonParams(), ("new_q_newton",)),
    "lr": (StandardGDParams(lr=np.float32(0.01)), ("standard_gd",)),
    "random_deltas": (NewQNewtonParams(random_deltas=True), ("new_q_newton",)),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("method", METHODS)
def test_run_rejects_settings_the_method_does_not_read(method, setting):
    # Ignoring an unread setting would run the same bytes as a run
    # without it, so run names its class before any evaluation.
    params, readers = SETTINGS[setting]
    obj, calls = _counting(_quadratic([2.0, 4.0]))
    if method in readers:
        tr = run(obj, [1.0, 1.0], method, params, stop=StopCriteria(max_iters=2))
        assert tr.steps >= 1
        return
    with pytest.raises(ValueError, match="method %s does not read %s$"
                       % (method, type(params).__name__)):
        run(obj, [1.0, 1.0], method, params)
    assert calls == {"value": 0, "grad": 0}


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0, 0.0, "0.1", True])
def test_run_rejects_a_bad_lr_before_evaluating(lr):
    problem = builtin_problems()["example7"]
    obj, calls = _counting(problem.objective)
    with pytest.raises(ValueError, match="lr must be a real number in"):
        run(obj, problem.x0, "standard_gd", StandardGDParams(lr=lr))
    assert calls == {"value": 0, "grad": 0}


@pytest.mark.parametrize("method", ["new_q_newton", "newton", "random_newton",
                                    "standard_gd"])
def test_a_step_whose_squared_length_overflows_still_moves(method):
    # |v|^2 overflows for a gradient of 1e160 on the unit ball.  Taken as
    # sqrt(v.v) the length was inf: new_q_newton's step cap raised
    # OverflowError (ObjectiveFailed, blaming a finite objective) and the
    # clamp scaled the step to 0 (Stalled).  The rescaled norm caps it.
    obj = Objective(lambda x: 1e160 * x[0] + 0.5e-5 * float(x @ x),
                    lambda x: np.array([1e160, 0.0]) + 1e-5 * x,
                    lambda x: SymMatrix(1e-5 * np.eye(2)), open_ball(2))
    tr = run(obj, [0.1, 0.2], method)
    assert tr.steps == 1 and tr.error is None
    assert tr.termination is Termination.DIVERGED
    assert 0.0 < tr.records[1].step_norm < 0.5 * (1.0 - np.hypot(0.1, 0.2))
    assert tr.records[1].point[0] < 0.1 and tr.records[1].point[1] == 0.2


@pytest.mark.parametrize("domain", [open_ball(2), Euclidean(2)],
                         ids=["open_ball", "euclidean"])
@pytest.mark.parametrize("method", ["new_q_newton", "newton", "random_newton"])
def test_a_newton_direction_that_overflows_ends_diverged(method, domain):
    # A finite gradient of 1e300 over the eigenvalue 1e-9 overflows the
    # direction.  On the ball the clamp scaled inf by 0 to nan (newton and
    # random_newton raised StepTooLarge) and the step cap floored nan
    # (new_q_newton ended ObjectiveFailed); now every run ends Diverged,
    # as it already did on flat space, and blames no callable.
    obj = Objective(lambda x: 1e300 * x[0], lambda x: np.array([1e300, 0.0]),
                    lambda x: SymMatrix(1e-9 * np.eye(2)), domain)
    tr = run(obj, [0.1, 0.2], method)
    assert tr.termination is Termination.DIVERGED
    assert tr.steps == 0 and tr.error is None


@pytest.mark.parametrize("method", ["new_q_newton", "newton"])
def test_a_finite_direction_whose_norm_overflows_on_flat_space_diverges(method):
    # 1.5e300 over the eigenvalue 1e-8 gives finite entries of 1.5e308,
    # whose norm overflows.  Both Newton steps end the run Diverged at x0,
    # before a step to a point of infinite norm is recorded.
    obj = Objective(lambda x: 1.0, lambda x: np.array([1.5e300, 1.5e300]),
                    lambda x: 1e-8 * np.eye(2), Euclidean(2))
    tr = run(obj, [0.0, 0.0], method)
    assert tr.termination is Termination.DIVERGED
    assert len(tr.records) == 1 and tr.error is None


def test_run_non_finite_step_on_flat_space_diverges():
    # The infinite radius admits a step that overflows instead of raising
    # StepTooLarge, so the driver reports the run as divergent.
    obj = Objective(
        lambda t: float(t[0]),
        lambda t: np.array([1e300]),
        lambda t: SymMatrix([[0.0]]),
        Euclidean(1),
    )
    tr = run(obj, [1.0], "standard_gd", StandardGDParams(lr=1e10))
    assert tr.termination is Termination.DIVERGED
    assert tr.steps == 0


@pytest.mark.parametrize("method", METHODS)
def test_run_keeps_a_huge_gradient_norm_finite(method):
    # |g| is about 1.7e200 at x0, so its squares overflow; the norm is
    # rescaled instead, and no overflow warning escapes run.
    B = np.random.default_rng([0, 6]).standard_normal((6, 6))
    obj = QuadraticForm(SymMatrix(0.5 * (B + B.T) * 1e200)).to_objective(Sphere(6))
    tr = run(obj, np.ones(6) / np.sqrt(6.0), method)
    g = obj.domain.egrad2rgrad(tr.records[0].point, obj.grad(tr.records[0].point))
    s = np.max(np.abs(g))
    assert tr.records[0].rgrad_norm == s * np.linalg.norm(g / s)
    assert isinstance(tr.termination, Termination)


def test_run_detects_initial_critical_point():
    obj = _quadratic([2.0, 2.0])
    tr = run(obj, [0.0, 0.0], "backtracking")
    assert tr.termination is Termination.STOPPED_AT_CRITICAL_POINT
    assert tr.steps == 0
    assert len(tr.records) == 1


def test_run_zero_iteration_budget():
    obj = _quadratic([2.0])
    tr = run(obj, [1.0], "backtracking", stop=StopCriteria(max_iters=0))
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
    tr = run(obj, [0.0], "new_q_newton",
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
    tr = run(obj, [0.0], "new_q_newton",
             stop=StopCriteria(max_iters=100, divergence_norm=500.0))
    assert tr.termination is Termination.DIVERGED
    assert tr.final_value < -500.0


def test_run_reports_left_domain():
    # member set x < 1 with a deliberately wrong radius bound (10 inside,
    # far past the distance to the boundary): the stepper can cross the
    # boundary, run() refuses the point.
    M = OpenSubset(1, radius_fn=lambda t: 10.0 if t[0] < 1.0 else 0.0)
    obj = Objective(
        lambda t: -float(t[0]),
        lambda t: np.array([-1.0]),
        lambda t: SymMatrix([[0.0]]),
        M,
    )
    tr = run(obj, [0.95], "standard_gd", StandardGDParams(lr=0.1),
             stop=StopCriteria(max_iters=5))
    assert tr.termination is Termination.LEFT_DOMAIN
    # only points inside the set are recorded
    assert all(M.contains(r.point) for r in tr.records)
    assert tr.final_point[0] == 0.95


def test_run_ends_objective_failed_when_radius_fn_raises_at_a_landed_point():
    def radius(t):
        if t[0] >= 1.0:
            raise ZeroDivisionError("radius undefined past 1")
        return 10.0

    obj = Objective(lambda t: -float(t[0]), lambda t: np.array([-1.0]),
                    lambda t: SymMatrix([[0.0]]), OpenSubset(1, radius))
    tr = run(obj, [0.95], "standard_gd", StandardGDParams(lr=0.1),
             stop=StopCriteria(max_iters=5))
    assert tr.termination is Termination.OBJECTIVE_FAILED
    assert isinstance(tr.error, ZeroDivisionError)
    assert tr.steps == 0


def test_run_random_deltas_reproducible_and_distinct():
    g0 = np.array([0.3, 0.4])
    obj = Objective(
        lambda z: float(g0 @ z),
        lambda z: g0.copy(),
        lambda z: SymMatrix(np.zeros((2, 2))),
        Euclidean(2),
    )
    drawn = NewQNewtonParams(random_deltas=True)
    tr_a = run(obj, np.zeros(2), "new_q_newton", drawn,
               stop=StopCriteria(max_iters=1), rng=np.random.default_rng(1))
    tr_b = run(obj, np.zeros(2), "new_q_newton", drawn,
               stop=StopCriteria(max_iters=1), rng=np.random.default_rng(1))
    tr_c = run(obj, np.zeros(2), "new_q_newton",
               stop=StopCriteria(max_iters=1))
    assert np.array_equal(tr_a.final_point, tr_b.final_point)
    # the drawn coefficient differs from the deterministic delta = 1
    assert not np.allclose(tr_a.final_point, tr_c.final_point)


def test_trace_properties():
    obj = _quadratic([2.0, 4.0])
    tr = run(obj, [1.0, 1.0], "backtracking",
             stop=StopCriteria(max_iters=5, grad_tol=0.0))
    assert tr.steps == 5
    assert np.array_equal(tr.final_point, tr.records[-1].point)
    assert tr.final_value == tr.records[-1].f_value
    assert [r.iter for r in tr.records] == list(range(6))


@pytest.mark.parametrize("L", [0.0, np.nan, -1.0, np.inf])
def test_local_backtracking_reads_any_lipschitz_value(L):
    # L(x) = 0 sets no curvature limit, so only the radius gate applies;
    # an L(x) that is nan, negative or infinite bounds nothing and ends
    # the run Diverged before any trial step.
    obj = dataclasses.replace(_quadratic([1.0, 1.0], open_ball(2)),
                              lipschitz_fn=lambda x: L)
    tr = run(obj, [0.5, 0.0], "local_backtracking", stop=StopCriteria(max_iters=1))
    if L == 0.0:
        # |g| = 0.5 and r = 0.5: delta |g| < r/2 first holds at 0.7^2.
        assert tr.termination is Termination.MAX_ITERATIONS
        assert tr.records[1].step_size == 1.0 * 0.7 * 0.7
    else:
        assert tr.termination is Termination.DIVERGED
        assert tr.steps == 0


def _non_finite(value, grad, after_first_step=False):
    # f = value and grad = (grad, 0) everywhere, or only away from the
    # start (1, 1) when after_first_step; f = x.x and g = 2x elsewhere.
    def pick(x, bad, good):
        at_start = x[0] == 1.0 and x[1] == 1.0
        return good if at_start == after_first_step else bad

    return Objective(
        lambda x: pick(x, value, float(x @ x)),
        lambda x: pick(x, np.array([grad, 0.0]), 2.0 * x),
        lambda x: SymMatrix(2.0 * np.eye(2)),
        Euclidean(2),
        lipschitz_fn=lambda x: 2.0,
    )


NON_FINITE = [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
              (1.0, np.inf)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("value, grad", NON_FINITE)
def test_non_finite_start_diverges_at_step_zero(method, value, grad):
    tr = run(_non_finite(value, grad), [1.0, 1.0], method)
    assert tr.termination is Termination.DIVERGED
    assert tr.steps == 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("value, grad", NON_FINITE)
def test_non_finite_landed_point_diverges(method, value, grad):
    tr = run(_non_finite(value, grad, after_first_step=True), [1.0, 1.0], method)
    if method == "backtracking" and not np.isfinite(value):
        # Armijo rejects every trial point, and none is recorded.
        assert tr.termination is Termination.LINE_SEARCH_EXHAUSTED
        assert tr.steps == 0
    else:
        assert tr.termination is Termination.DIVERGED
        assert tr.steps == 1


# ------------------------------------------------ objective failures


def _failing_on_call(which, n, exc=ZeroDivisionError):
    """f = x.x on Euclidean(2) whose ``which`` callable ("value", "grad",
    "hess" or "lipschitz") raises ``exc`` on its n-th call.  It has no
    restriction, so the line search evaluates value_fn at each trial."""
    obj = dataclasses.replace(_quadratic([2.0, 2.0]), restriction_fn=None)
    inner = getattr(obj, which + "_fn")
    calls = [0]

    def call(x):
        calls[0] += 1
        if calls[0] == n:
            raise exc("call %d" % n)
        return inner(x)

    return dataclasses.replace(obj, **{which + "_fn": call})


@pytest.mark.parametrize("method", METHODS)
def test_objective_failure_after_x0_ends_the_run(method):
    # The gradient's second call is at the first step's point.
    tr = run(_failing_on_call("grad", 2), [1.0, 1.0], method)
    assert tr.termination is Termination.OBJECTIVE_FAILED
    assert tr.termination.value == "ObjectiveFailed"
    assert tr.steps == 0
    assert isinstance(tr.error, ZeroDivisionError)
    assert str(tr.error) == "call 2"


@pytest.mark.parametrize("method",
                         ["backtracking", "local_backtracking", "random_newton",
                          "standard_gd"])
def test_gradient_failing_on_its_fourth_call_ends_the_run(method):
    tr = run(_failing_on_call("grad", 4), [1.0, 1.0], method,
             stop=StopCriteria(max_iters=10))
    assert tr.termination is Termination.OBJECTIVE_FAILED
    assert tr.steps == 2
    assert str(tr.error) == "call 4"


@pytest.mark.parametrize("method, which, n", [
    ("backtracking", "value", 2),
    ("local_backtracking", "lipschitz", 1),
    ("new_q_newton", "hess", 1),
    ("newton", "hess", 1),
    ("random_newton", "hess", 1),
])
def test_a_failing_callable_inside_a_step_ends_the_run(method, which, n):
    tr = run(_failing_on_call(which, n), [1.0, 1.0], method)
    assert tr.termination is Termination.OBJECTIVE_FAILED
    assert tr.steps == 0
    assert isinstance(tr.error, ZeroDivisionError)


def test_a_run_that_does_not_fail_has_no_error():
    tr = run(_quadratic([2.0, 2.0]), [1.0, 1.0], "backtracking")
    assert tr.termination is Termination.GRADIENT_TOLERANCE
    assert tr.error is None


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("which", ["value", "grad"])
def test_objective_failure_at_x0_raises(method, which):
    with pytest.raises(ZeroDivisionError):
        run(_failing_on_call(which, 1), [1.0, 1.0], method)


def _smooth_problem(domain):
    # A problem on which every method takes at least two steps from x0:
    # f = sum(x^4)/4 on the open unit ball and on the punctured line, the
    # Rayleigh quotient of diag(1, 2, 3) on Sphere(3).
    if domain == "sphere":
        obj = _quadratic([1.0, 2.0, 3.0], Sphere(3))
        return obj, np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    if domain == "ball":
        # f'' = 3 x_i^2 < 3 inside the ball.
        M, x0, lipschitz = open_ball(2), [0.1, 0.2], lambda x: 3.0
    else:
        # |s| <= 3|t|/2 on the ball B(t, |t|/2).
        M, x0 = OpenSubset(1, radius_fn=lambda t: abs(t[0])), [0.5]
        lipschitz = lambda t: 6.75 * t[0] ** 2  # noqa: E731
    obj = Objective(lambda x: 0.25 * float(np.sum(x ** 4)), lambda x: x ** 3,
                    lambda x: SymMatrix(np.diag(3.0 * x ** 2)), M, lipschitz)
    return obj, np.array(x0)


_BAD_GRADIENTS = {
    "none": lambda g: None,
    "0-d": lambda g: g[0],
    "2-d": lambda g: g[None, :],
    "one_longer": lambda g: np.append(g, 1.0),
    "empty": lambda g: np.zeros(0),
}
_BAD_HESSIANS = {
    "1x1": lambda m: [[1.0]],
    "one_larger": lambda m: np.eye(m + 1),
}
_DOMAINS = ("ball", "sphere", "line")
_BAD_RETURNS = (
    [(d, "grad", bad, method)
     for d in _DOMAINS for bad in _BAD_GRADIENTS for method in METHODS]
    # A 1x1 Hessian is the right shape on the line.
    + [(d, "hess", bad, method)
       for d in _DOMAINS for bad in _BAD_HESSIANS if (d, bad) != ("line", "1x1")
       for method in ("new_q_newton", "newton", "random_newton")])


@pytest.mark.parametrize("at_x0", [True, False], ids=["at_x0", "after_x0"])
@pytest.mark.parametrize("domain, which, bad, method", _BAD_RETURNS)
def test_an_oracle_return_of_the_wrong_shape_is_refused(domain, which, bad,
                                                        method, at_x0):
    # A gradient whose shape is not x's, or a Hessian whose dimension is
    # not len(x), raises ValueError where it enters the library.  Before,
    # some broadcast into steps, some ended LineSearchExhausted or
    # MaxIterations, and a None gradient raised TypeError out of run.  A
    # bad gradient at x0 raises out of run; after x0 the run ends
    # ObjectiveFailed.  The Hessian is first evaluated inside the first
    # step, so a bad one ends the run ObjectiveFailed, at x0 as after it.
    obj, x0 = _smooth_problem(domain)
    m = len(x0)
    good = getattr(obj, which + "_fn")

    def oracle(x):
        if not at_x0 and np.array_equal(x, x0):
            return good(x)
        if which == "grad":
            return _BAD_GRADIENTS[bad](good(x))
        return _BAD_HESSIANS[bad](m)

    obj = dataclasses.replace(obj, **{which + "_fn": oracle})
    if at_x0 and which == "grad":
        with pytest.raises(ValueError, match="gradient of shape"):
            run(obj, x0, method)
        return
    tr = run(obj, x0, method)
    assert tr.termination is Termination.OBJECTIVE_FAILED
    assert isinstance(tr.error, ValueError)
    assert str(tr.error).startswith("gradient of shape" if which == "grad"
                                    else "Hessian of dimension")
    # A bad Hessian after x0 comes from the second step.
    assert tr.steps == (which == "hess" and not at_x0)


@pytest.mark.parametrize("exc", [NotOnManifold, StepTooLarge, NotTangent])
def test_backend_errors_after_x0_still_raise(exc):
    with pytest.raises(exc):
        run(_failing_on_call("grad", 2, exc), [1.0, 1.0], "backtracking")
