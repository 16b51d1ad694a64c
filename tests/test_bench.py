import numpy as np
import pytest

from manifold_descent.bench import (
    DIVERGENCE_NORM,
    METHOD_ORDER,
    UnknownMethod,
    UnknownScenario,
    _cell_seed,
    ball_minimize,
    corpus,
    default_iters,
    run_scenario,
    smallest_eigenvalue,
)
from manifold_descent.linalg import SymMatrix
from manifold_descent.manifold import Euclidean
from manifold_descent.objective import QuadraticForm, builtin_problems
from manifold_descent.optim import Termination

A8 = [[-23.0, -61.0, 40.0], [-61.0, -39.5, 155.0], [40.0, 155.0, -50.0]]


def test_method_order_prefixes():
    assert len(METHOD_ORDER) == 9
    assert METHOD_ORDER[0] == "newton"
    assert all(m.startswith("r_") for m in METHOD_ORDER[3:])


def test_default_iters_rules():
    assert default_iters("example7p", "r_backtracking") == 10
    assert default_iters("example9p", "newton") == 10
    assert default_iters("example1", "r_newton") == 500
    assert default_iters("example1", "new_q_newton") == 500
    assert default_iters("example1", "r_backtracking") == 50
    assert default_iters("example5", "r_standard_gd") == 50


def test_cell_seed_depends_on_all_inputs():
    s = _cell_seed(42, "example1", "newton")
    assert s == _cell_seed(42, "example1", "newton")
    assert s != _cell_seed(43, "example1", "newton")
    assert s != _cell_seed(42, "example2", "newton")
    assert s != _cell_seed(42, "example1", "r_newton")
    assert 0 <= s < 2**63


def test_unknown_ids_raise():
    with pytest.raises(UnknownScenario):
        run_scenario("example99", "newton")
    with pytest.raises(UnknownMethod):
        run_scenario("example1", "bfgs")


def test_run_scenario_result_shape():
    res = run_scenario("example7", "r_newton")
    assert res.scenario_id == "example7"
    assert res.method == "r_newton"
    assert res.steps == 1
    assert res.termination is Termination.GRADIENT_TOLERANCE
    d = res.to_dict()
    assert list(d) == ["scenario_id", "method", "final_point", "final_value",
                       "steps", "termination", "flags"]
    assert d["termination"] == "GradientTolerance"
    assert isinstance(d["flags"], list)


def test_flat_methods_drop_the_domain():
    # the bare-tag baseline walks straight through the sphere
    res = run_scenario("example7p", "newton")
    assert "left_domain_would" in res.flags
    # while the r_ variant never leaves it
    res_r = run_scenario("example7p", "r_newton")
    assert "left_domain_would" not in res_r.flags


def test_run_scenario_trace_mode():
    res, tr = run_scenario("example1", "r_standard_gd", iters=5, return_trace=True)
    assert res.steps == tr.records[-1].iter
    assert len(tr.records) == 6
    assert np.array_equal(res.final_point, tr.final_point)


def test_run_scenario_retraction_override():
    res_p = run_scenario("example9p", "r_backtracking", iters=10)
    res_g = run_scenario("example9p", "r_backtracking", iters=10,
                         retraction="geodesic")
    assert not np.allclose(res_p.final_point, res_g.final_point, atol=1e-12)


def test_corpus_shape_and_order():
    results = corpus(seed=42)
    assert len(results) == len(builtin_problems()) * len(METHOD_ORDER)
    sids = list(builtin_problems())
    for i, res in enumerate(results):
        assert res.scenario_id == sids[i // len(METHOD_ORDER)]
        assert res.method == METHOD_ORDER[i % len(METHOD_ORDER)]


def test_divergence_norm_tight_enough():
    # the flat saddle baseline must be reported divergent, not truncated
    res = run_scenario("example6", "new_q_newton", iters=500)
    assert res.termination is Termination.DIVERGED
    assert abs(res.final_point[1]) > DIVERGENCE_NORM - 5.0


def test_ball_minimize_two_branches():
    obj = QuadraticForm(SymMatrix(A8)).to_objective(Euclidean(3), name="q8")
    out = ball_minimize(obj, methods="r_backtracking", iters=50, seed=3)
    assert out.interior_result.scenario_id == "ball[q8]:interior"
    assert out.sphere_result.scenario_id == "ball[q8]:sphere"
    assert out.best in (out.interior_result, out.sphere_result)
    # the infimum -112.5 lives on the boundary
    assert out.best.final_value == pytest.approx(-112.5, abs=0.5)


def test_ball_minimize_multiple_methods():
    obj = QuadraticForm(SymMatrix([[2.0, 4.0], [4.0, 2.0]])).to_objective(
        Euclidean(2), name="q7"
    )
    out = ball_minimize(obj, methods=("r_backtracking", "r_new_q_newton"),
                        iters=60, seed=0)
    assert out.best.final_value == pytest.approx(-1.0, abs=1e-3)
    with pytest.raises(UnknownMethod):
        ball_minimize(obj, methods="sgd")


def test_smallest_eigenvalue_known_matrix():
    lam, vec = smallest_eigenvalue(SymMatrix(A8), seed=0)
    assert lam == pytest.approx(-225.0, abs=1e-6)
    # the returned vector is a unit eigenvector for lam
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
    res = np.asarray(A8) @ vec - lam * vec
    assert np.linalg.norm(res) <= 1e-5


def test_smallest_eigenvalue_identity_is_trivial():
    lam, _ = smallest_eigenvalue(SymMatrix(np.eye(3)), method="r_backtracking")
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_smallest_eigenvalue_rejects_flat_methods():
    with pytest.raises(UnknownMethod):
        smallest_eigenvalue(SymMatrix(np.eye(2)), method="newton")
    with pytest.raises(UnknownMethod):
        smallest_eigenvalue(SymMatrix(np.eye(2)), method="nonsense")


def test_smallest_eigenvalue_accepts_plain_arrays():
    lam, _ = smallest_eigenvalue(np.diag([4.0, -1.0, 2.0]), seed=1)
    assert lam == pytest.approx(-1.0, abs=1e-6)
