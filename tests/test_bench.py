import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from manifold_descent import bench
from manifold_descent.bench import (
    DIVERGENCE_NORM,
    METHOD_ORDER,
    UnknownMethod,
    UnknownScenario,
    _cell_seed,
    _certified,
    _row,
    ball_minimize,
    corpus,
    default_iters,
    run_scenario,
    smallest_eigenvalue,
)
from manifold_descent.cli import _report_json
from manifold_descent.linalg import NonFinite, SymMatrix
from manifold_descent.manifold import Euclidean, Sphere, open_ball
from manifold_descent.objective import Objective, QuadraticForm, builtin_problems
from manifold_descent.optim import (
    BacktrackingParams,
    IterateTrace,
    NewQNewtonParams,
    Termination,
    armijo_rhs,
)
from oracles import (GRADIENT_TAGS, blas_threads, certified_on_A, cholesky_callers,
                     core_note, generated_geodesic_report, generated_report,
                     moved_cells, moved_message)

A8 = [[-23.0, -61.0, 40.0], [-61.0, -39.5, 155.0], [40.0, 155.0, -50.0]]

# Recorded smallest_eigenvalue bits; a change meant to move them
# re-records the file and lists the cases that moved.
EIG_BITS = pathlib.Path(__file__).with_name("eig_seed_bits.json")

# Recorded outputs of ``manifold-descent corpus --format json --seed S``
# at seeds 1, 3 and 7, and at seed 1 with ``--retraction geodesic``: with
# tests/corpus_seed42.json, the whole byte yardstick.
CORPUS_RECORDINGS = {
    (1, "projective"): "corpus_seed1.json",
    (3, "projective"): "corpus_seed3.json",
    (7, "projective"): "corpus_seed7.json",
    (1, "geodesic"): "corpus_seed1_geodesic.json",
}


def _eig_matrix(n, seed, scale=1.0):
    B = np.random.default_rng([seed, n]).standard_normal((n, n))
    return 0.5 * (B + B.T) * scale


def _fro(S):
    # ||S||_F, which smallest_eigenvalue hands _certified once per solve.
    return float(np.linalg.norm(S.entries))


def _counting_runs(monkeypatch, first_trace=None):
    """The traces of the runs smallest_eigenvalue makes; ``first_trace``
    may rewrite the first one in place."""
    calls = []
    inner = bench._run_branch

    def counted(*args, **kwargs):
        trace = inner(*args, **kwargs)
        if first_trace is not None and not calls:
            first_trace(trace)
        calls.append(trace)
        return trace

    monkeypatch.setattr(bench, "_run_branch", counted)
    return calls


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


def test_report_row_shape():
    # run_scenario returns the run's trace; the report row reads the
    # cell's labels and how the trace ended.
    tr = run_scenario("example7", "r_newton")
    assert isinstance(tr, IterateTrace)
    assert tr.steps == 1
    assert tr.termination is Termination.GRADIENT_TOLERANCE
    d = _row("example7", "r_newton", tr)
    assert list(d) == ["scenario_id", "method", "final_point", "final_value",
                       "steps", "termination", "flags"]
    assert d["scenario_id"] == "example7"
    assert d["method"] == "r_newton"
    assert d["final_point"] == [float(c) for c in tr.final_point]
    assert d["final_value"] == tr.final_value and d["steps"] == 1
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
    tr = run_scenario("example1", "r_standard_gd", iters=5)
    assert tr.steps == tr.records[-1].iter == 5
    assert len(tr.records) == 6
    assert np.array_equal(tr.final_point, tr.records[-1].point)


def test_run_scenario_retraction_override():
    res_p = run_scenario("example9p", "r_backtracking", iters=10)
    res_g = run_scenario("example9p", "r_backtracking", iters=10,
                         retraction="geodesic")
    assert not np.allclose(res_p.final_point, res_g.final_point, atol=1e-12)


def test_corpus_shape_and_order():
    rows = corpus(seed=42)
    assert len(rows) == len(builtin_problems()) * len(METHOD_ORDER)
    sids = list(builtin_problems())
    for i, row in enumerate(rows):
        assert row["scenario_id"] == sids[i // len(METHOD_ORDER)]
        assert row["method"] == METHOD_ORDER[i % len(METHOD_ORDER)]


@pytest.mark.parametrize("seed,retraction", sorted(CORPUS_RECORDINGS))
def test_corpus_matches_its_recording(seed, retraction):
    _assert_matches_recording(_report_json(corpus(seed=seed, retraction=retraction))
                              + "\n", CORPUS_RECORDINGS[seed, retraction])


def _assert_matches_recording(report, name):
    # Name the moved cells and fields first, and the OpenBLAS kernels;
    # the bytes must still match.
    recording = pathlib.Path(__file__).with_name(name).read_text()
    moved = moved_cells(report, recording)
    assert not moved, "%s (%s)" % (moved_message(moved), core_note())
    assert report == recording, core_note()


def test_moved_cells_names_the_fields_that_moved():
    cell = {"scenario_id": "example9", "method": "new_q_newton",
            "final_point": [0.5, 0.25], "final_value": -1.5, "steps": 7,
            "termination": "GradientTolerance", "flags": []}
    other = dict(cell, scenario_id="example1")
    recording = json.dumps([cell, other])
    assert moved_cells(recording, recording) == []
    bits = dict(cell, final_value=-1.5000000000000002)
    moved = moved_cells(json.dumps([bits, other]), recording)
    assert moved == ["example9/new_q_newton[final_value]"]
    assert moved_message(moved).startswith("only bits moved")
    run = dict(cell, final_point=[0.5, 0.3], steps=8, flags=["clamped"])
    moved = moved_cells(json.dumps([run]), recording)
    assert moved == ["example9/new_q_newton[final_point,steps,flags]",
                     "example1/new_q_newton[absent]"]
    assert moved_message(moved).startswith("outcomes moved in 2 of them")


def test_generated_newton_cells_match_their_recording():
    # Dimensions 5-60, where the Newton gate sees positive, negative and
    # straddling spectra and the Cholesky certificate runs: the bits
    # tests/generated_newton.json recorded must not move.
    _assert_matches_recording(generated_report() + "\n", "generated_newton.json")


def test_generated_gradient_cells_match_their_recording():
    # The three gradient tags on the same problems, where both line
    # searches move their step index up and down between steps: the bits
    # tests/generated_gradient.json recorded must not move.
    _assert_matches_recording(generated_report(GRADIENT_TAGS) + "\n",
                              "generated_gradient.json")


def test_generated_geodesic_cells_match_their_recording():
    # The geodesic retraction above dimension 3: the two sphere problems
    # with all nine tags, the flat ones on R^m as in the corpus.  The bits
    # tests/generated_geodesic.json recorded must not move.
    _assert_matches_recording(generated_geodesic_report() + "\n",
                              "generated_geodesic.json")


def test_divergence_norm_tight_enough():
    # the flat saddle baseline must be reported divergent, not truncated
    res = run_scenario("example6", "new_q_newton", iters=500)
    assert res.termination is Termination.DIVERGED
    assert abs(res.final_point[1]) > DIVERGENCE_NORM - 5.0


def test_ball_minimize_two_branches():
    obj = QuadraticForm(SymMatrix(A8)).to_objective(Euclidean(3), name="q8")
    out = ball_minimize(obj, methods="r_backtracking", iters=50, seed=3)
    # Each branch's trace stays on its own domain.
    assert all(open_ball(3).contains(rec.point) for rec in out.interior_result.records)
    assert all(Sphere(3).contains(rec.point) for rec in out.sphere_result.records)
    # the infimum -112.5 lives on the boundary
    assert out.best is out.sphere_result
    assert out.best.final_value == pytest.approx(-112.5, abs=0.5)


def test_ball_minimize_multiple_methods():
    obj = QuadraticForm(SymMatrix([[2.0, 4.0], [4.0, 2.0]])).to_objective(
        Euclidean(2), name="q7"
    )
    out = ball_minimize(obj, methods=("r_backtracking", "r_new_q_newton"),
                        iters=60, seed=0)
    assert out.best.final_value == pytest.approx(-1.0, abs=1e-3)
    # Unknown tags, and bare tags, which would run on flat space under
    # the ball's labels, are refused; so is an empty list.
    for methods in ("sgd", "newton", ("r_backtracking", "new_q_newton")):
        with pytest.raises(UnknownMethod):
            ball_minimize(obj, methods=methods)
    with pytest.raises(ValueError, match="empty"):
        ball_minimize(obj, methods=[])


def _line_form(a):
    return QuadraticForm(SymMatrix([[a]])).to_objective(Euclidean(1))


@pytest.mark.parametrize("methods", ["r_backtracking", ("r_standard_gd", "r_new_q_newton")])
def test_ball_minimize_on_the_line_reads_f_at_the_two_boundary_points(methods):
    # In R^1 the ball's boundary is S^0 = {-1, 1}, whose tangent spaces are
    # {0}: the sphere branch is f at the two points, -1 on a tie.  For
    # f = -x^2 the minimum -1 lies there, and the interior never reaches it.
    out = ball_minimize(_line_form(-2.0), methods=methods)
    (rec,) = out.sphere_result.records
    assert rec.point.tolist() == [-1.0] and rec.f_value == -1.0
    assert rec.rgrad_norm == 0.0 and out.sphere_result.steps == 0
    assert out.sphere_result.termination is Termination.STOPPED_AT_CRITICAL_POINT
    assert out.best is out.sphere_result
    assert out.interior_result.final_value > -1.0


def test_ball_minimize_on_the_line_keeps_an_interior_minimum():
    # For f = x^2 the minimum 0 is the interior's; the boundary reads 1.
    out = ball_minimize(_line_form(2.0), methods="r_backtracking")
    assert out.sphere_result.final_value == 1.0
    assert out.best is out.interior_result
    assert abs(out.best.final_point[0]) < 1e-6
    # f(1) < f(-1) puts the boundary point at 1; a bogus retraction is
    # refused by name, with no sphere to refuse it.
    tilted = Objective(value_fn=lambda x: float(x[0] * (x[0] - 1.0)),
                       grad_fn=lambda x: 2.0 * x - 1.0, hess_fn=lambda x: [[2.0]],
                       domain=Euclidean(1))
    assert ball_minimize(tilted).sphere_result.final_point.tolist() == [1.0]
    with pytest.raises(ValueError, match="unknown retraction 'bogus'"):
        ball_minimize(_line_form(2.0), retraction="bogus")


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


def test_smallest_eigenvalue_near_the_top_of_the_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, vec = smallest_eigenvalue(np.diag([1e308, 1.0]))
        # The solve sees A/2^1023, so lam is exact only to a few ulps of
        # the scaled problem: within 1e-6 max(1, |A|_2) of the answer 1.
        assert abs(lam - 1.0) <= 1e-6 * 1e308
        assert abs(vec[1]) == pytest.approx(1.0)
        # lambda_min is about -2.03e308, past the largest double.
        with pytest.raises(NonFinite, match="double range"):
            smallest_eigenvalue([[-1.7e308, 1e308, 0.0], [1e308, 1e308, 3.0],
                                 [0.0, 3.0, 1.0]])


def test_smallest_eigenvalue_rejects_flat_methods():
    with pytest.raises(UnknownMethod):
        smallest_eigenvalue(SymMatrix(np.eye(2)), method="newton")
    with pytest.raises(UnknownMethod):
        smallest_eigenvalue(SymMatrix(np.eye(2)), method="nonsense")


@pytest.mark.parametrize("a11", [3.0, -2.5, 0.0, 1e308])
def test_smallest_eigenvalue_of_a_1x1_matrix_is_its_entry(a11, monkeypatch):
    # S^0 is the two points +-1, and the Rayleigh quotient is a11 at both:
    # the answer needs no run.  Method and retraction checks still come
    # first, as for every other dimension.
    calls = _counting_runs(monkeypatch)
    lam, vec = smallest_eigenvalue([[a11]])
    assert lam == a11 and type(lam) is float
    assert vec.tolist() == [1.0]
    assert smallest_eigenvalue([[a11]], retraction="geodesic")[0] == a11
    assert calls == []
    for method in ("newton", "nonsense"):
        with pytest.raises(UnknownMethod):
            smallest_eigenvalue([[a11]], method=method)
    for A in ([[a11]], np.eye(2)):
        with pytest.raises(ValueError, match="unknown retraction 'bogus'"):
            smallest_eigenvalue(A, retraction="bogus")


def test_smallest_eigenvalue_refuses_a_complex_matrix():
    # [[2, i], [-i, 2]] has eigenvalues 1 and 3; cast to real it read as
    # 2I and answered 2.0.
    with pytest.raises(ValueError, match="real entries"):
        smallest_eigenvalue(np.array([[2, 1j], [-1j, 2]]))


def test_smallest_eigenvalue_refuses_a_0x0_matrix_by_name():
    # It has no eigenvalue; NumPy's own error named a reduction instead.
    with pytest.raises(ValueError, match="0x0"):
        smallest_eigenvalue(np.zeros((0, 0)))


def test_smallest_eigenvalue_accepts_plain_arrays():
    lam, _ = smallest_eigenvalue(np.diag([4.0, -1.0, 2.0]), seed=1)
    assert lam == pytest.approx(-1.0, abs=1e-6)


def test_smallest_eigenvalue_certifies_the_first_run(monkeypatch):
    calls = _counting_runs(monkeypatch)
    rng = np.random.default_rng(5)
    for seed in range(50):
        n = int(rng.integers(2, 11))
        A = _eig_matrix(n, seed)
        lam, _ = smallest_eigenvalue(A, seed=seed)
        assert len(calls) == seed + 1
        assert lam == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-9)


def test_smallest_eigenvalue_falls_back_to_restarts(monkeypatch):
    # The first run is made to stall on the eigenvector of 2, which the
    # certificate rejects, so the search goes on and finds -1.
    def stalled(trace):
        trace.records[-1] = trace.records[-1]._replace(point=np.array([0.0, 1.0, 0.0]),
                                                       f_value=1.0)

    calls = _counting_runs(monkeypatch, first_trace=stalled)
    lam, vec = smallest_eigenvalue(np.diag([-1.0, 2.0, 3.0]))
    assert len(calls) == 2
    assert lam == pytest.approx(-1.0, abs=1e-9)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-6)


def test_smallest_eigenvalue_keeps_the_lowest_of_five_uncertified_runs(monkeypatch):
    # A certificate that rejects every value makes the search try all
    # RESTARTS starts and keep the lowest value found.  One step per run
    # keeps the five values apart; runs to convergence would all reach
    # lambda_min and differ only in their last bits.
    monkeypatch.setattr(bench, "_certified", lambda S, lam, fro, solve: False)
    calls = _counting_runs(monkeypatch)
    A = _eig_matrix(6, 0, 8.0)
    lam, vec = smallest_eigenvalue(A, iters=1)
    assert len(calls) == bench.RESTARTS == 5
    values = [r.final_value for r in calls]
    best = int(np.argmin(values))
    assert best != len(calls) - 1  # the lowest, not the last
    # The runs see A/2^k, whose largest entry lies in [1, 2).
    k = math.frexp(np.max(np.abs(A)))[1] - 1
    assert k == 3
    assert lam == math.ldexp(2.0 * values[best], k)
    assert np.array_equal(vec, calls[best].final_point)


@pytest.mark.parametrize("exponent", range(-200, 201, 20))
def test_smallest_eigenvalue_is_right_at_any_scale(exponent):
    # grad_tol is absolute and delta*rho <= 2, so runs on A itself would
    # stop at their start at 1e-200 and lose the regularizer under the
    # relative gate at 1e150; the runs see A/2^k instead.
    S = _eig_matrix(6, 0)
    c = 10.0 ** exponent
    lam, vec = smallest_eigenvalue(S * c)
    lam_s = np.linalg.eigvalsh(S)[0]
    assert lam / c == pytest.approx(lam_s, rel=1e-8)
    assert np.linalg.norm(S @ vec - lam_s * vec) <= 1e-9 * np.linalg.norm(S, 2)


@pytest.mark.parametrize("n, count", [(10, 100), (150, 3)])
def test_smallest_eigenvalue_runs_stop_at_the_gradient_tolerance(monkeypatch, n, count):
    # New Q-Newton works on the tangent space, so the sphere's normal
    # direction never reads as a singular Hessian: no run ends
    # SingularMatrix, and the vector is an eigenvector to working accuracy.
    calls = _counting_runs(monkeypatch)
    for seed in range(count):
        A = _eig_matrix(n, seed)
        lam, vec = smallest_eigenvalue(A, seed=seed)
        assert np.linalg.norm(A @ vec - lam * vec) <= 1e-9 * np.linalg.norm(A, 2)
    assert len(calls) >= count
    assert not [r for r in calls if r.termination is Termination.SINGULAR_MATRIX]


def test_eig_delta_order_saves_steps(monkeypatch):
    # smallest_eigenvalue's delta order against trying delta = 1 first.
    # A cold start (n = 10 takes no warm-up) must take at most 0.95 times
    # the steps on a seeded set.  After the warm-up (n = 50) the order
    # hardly matters, and delta = 2 first may cost at most 1.1 times the
    # steps.  Every run ends GradientTolerance.
    calls = _counting_runs(monkeypatch)
    for n, count in ((10, 100), (50, 10)):
        assert (bench._warm_up_steps(n) == 0) == (n == 10)
        for params in (bench._EIG_NQN_PARAMS, NewQNewtonParams(deltas=(1.0, 0.0))):
            monkeypatch.setattr(bench, "_EIG_NQN_PARAMS", params)
            for seed in range(count):
                smallest_eigenvalue(_eig_matrix(n, seed), seed=seed)
    assert len(calls) == 220
    assert all(r.termination is Termination.GRADIENT_TOLERANCE for r in calls)
    steps = [sum(r.steps for r in calls[a:b])
             for a, b in ((0, 100), (100, 200), (200, 210), (210, 220))]
    assert steps[0] <= 0.95 * steps[1]
    assert steps[2] <= 1.1 * steps[3]


def test_warm_up_saves_new_q_newton_steps(monkeypatch):
    # At n = 150 the backtracking warm-up leaves New Q-Newton at most half
    # the steps a cold start takes from the same x0 (29% on these seeds),
    # and every run still ends GradientTolerance at an eigenvector.
    calls = _counting_runs(monkeypatch)
    for warm_up in (bench._warm_up_steps, lambda n: 0):
        monkeypatch.setattr(bench, "_warm_up_steps", warm_up)
        for seed in range(5):
            A = _eig_matrix(150, seed)
            lam, vec = smallest_eigenvalue(A, seed=seed)
            assert np.linalg.norm(A @ vec - lam * vec) <= 1e-9 * np.linalg.norm(A, 2)
    assert len(calls) == 10
    assert all(r.termination is Termination.GRADIENT_TOLERANCE for r in calls)
    assert sum(r.steps for r in calls[:5]) <= 0.5 * sum(r.steps for r in calls[5:])


def test_warm_up_takes_armijo_steps_on_the_sphere(monkeypatch):
    # Each start of the default method is one backtracking warm-up of
    # _warm_up_steps(n) Armijo steps, all on the sphere, then one New
    # Q-Newton run from its last point; the warm-up does not count
    # against iters, and other methods take none.
    runs = []
    inner = bench.run

    def spy(obj, x0, method, **kwargs):
        trace = inner(obj, x0, method, **kwargs)
        runs.append((method, np.array(x0), trace))
        return trace

    monkeypatch.setattr(bench, "run", spy)
    n = 60
    A = _eig_matrix(n, 0)
    smallest_eigenvalue(A, iters=1)
    assert [m for m, _, _ in runs] == ["backtracking", "new_q_newton"] * bench.RESTARTS
    alpha = BacktrackingParams().alpha
    sphere = Sphere(n)
    for (_, _, warm), (_, x0, cold) in zip(runs[::2], runs[1::2]):
        assert warm.steps == bench._warm_up_steps(n) == 10
        assert np.array_equal(x0, warm.final_point)
        assert cold.steps == 1
        for prev, rec in zip(warm.records, warm.records[1:]):
            assert sphere.contains(rec.point)
            assert rec.f_value - prev.f_value <= armijo_rhs(alpha, rec.step_size,
                                                              prev.rgrad_norm)
    runs.clear()
    smallest_eigenvalue(A, method="r_newton")
    assert {m for m, _, _ in runs} == {"newton"}


def test_certificate_on_a_known_spectrum():
    A = SymMatrix(np.diag([-1.0, 2.0, 3.0]))
    tau = 1e-8 * math.sqrt(14.0)  # 1e-8 * s * ||A/s||_F with s = 3
    assert _certified(A, -1.0, _fro(A))
    assert _certified(A, -1.0 + 0.5 * tau, _fro(A))
    assert not _certified(A, 2.0, _fro(A))
    assert not _certified(A, -1.0 + 10.0 * tau, _fro(A))
    for lam in (math.nan, math.inf, -math.inf):
        assert not _certified(A, lam, _fro(A))
    assert not _certified(SymMatrix(np.zeros((3, 3))), 0.0, 0.0)


def _scaled_copy(A):
    # A/2^k with its largest entry in [1, 2), as smallest_eigenvalue's runs
    # see it, and k.
    k = math.frexp(float(np.max(np.abs(A))))[1] - 1
    return SymMatrix(np.ldexp(A, -k)), k


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_certificate_tolerance_scales_with_the_matrix(scale):
    # The certificate sees the scaled copy A/2^k the runs see: at 1e-200 an
    # absolute floor on tau would certify any Rayleigh quotient, and at
    # 1e200 a shift of A itself could overflow.
    A = _eig_matrix(6, 0, scale)
    lo, hi = np.linalg.eigvalsh(A)[[0, -1]]
    S, k = _scaled_copy(A)
    assert _certified(S, math.ldexp(lo, -k), _fro(S))
    assert not _certified(S, math.ldexp(lo + 1e-3 * (hi - lo), -k), _fro(S))


def _graded(s):
    # A = Q diag(logspace(0, 12, 8)) Q^T: a condition number of 1e12.
    Q, _ = np.linalg.qr(np.random.default_rng(s).standard_normal((8, 8)))
    A = Q @ np.diag(np.logspace(0, 12, 8)) @ Q.T
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("A", [_graded(s) for s in range(10)]
                         + [_eig_matrix(n, 7) for n in range(2, 51)])
def test_certificate_on_the_scaled_copy_decides_as_on_A(A):
    # lambda_min + m tau in A's units, tau = 1e-8 s ||A/s||_F, decided by
    # the certificate of A/2^k and by the reference that read A itself.
    S, k = _scaled_copy(A)
    lo = np.linalg.eigvalsh(A)[0]
    s = float(np.max(np.abs(A)))
    tau = 1e-8 * s * float(np.linalg.norm(A / s))
    for m in (0.0, 0.5, 2.0, 10.0):
        lam = lo + m * tau
        assert _certified(S, math.ldexp(lam, -k), _fro(S)) == certified_on_A(SymMatrix(A), lam) \
            == (m < 1.0)


def _proof_spy(monkeypatch, cholesky):
    # Wraps bench._certified.  For each decision made with a Newton solve,
    # at lam and at lambda_min + m tau for m around 1, records whether the
    # step proof alone certified (no Cholesky call) and what the Cholesky
    # alone (no solve) decides.
    inner = bench._certified
    seen = []

    def spy(S, lam, fro, solve):
        if solve is not None:
            lo = float(np.linalg.eigvalsh(S.entries)[0])
            tau = 1e-8 * fro
            for probe in [lam] + [lo + m * tau for m in (-1.0, 0.0, 0.5, 0.99, 1.01, 2.0)]:
                before = len(cholesky)
                proved = inner(S, probe, fro, solve) and len(cholesky) == before
                seen.append((proved, inner(S, probe, fro, None), probe < lo + tau))
        return inner(S, lam, fro, solve)

    monkeypatch.setattr(bench, "_certified", spy)
    return seen


def test_step_proof_never_certifies_what_the_cholesky_rejects(monkeypatch):
    # The Schur-complement proof from a run's last positive-definite
    # Newton solve, against the Cholesky factorization of S - tI, on
    # perfbench's generator, F1's graded set, diag(big, 1, 2), a spectral
    # gap of 1e-12 and low-rank matrices, for the three Newton-family
    # tags.  Probes at lambda_min + m tau on both sides of the bound
    # check the proof where it must refuse, not only at the run's value.
    rng = np.random.default_rng(29)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    d = np.sort(rng.uniform(-1.0, 1.0, 12))
    d[1] = d[0] + 1e-12
    B = rng.standard_normal((20, 2))
    matrices = ([_eig_matrix(n, seed) for n in (3, 5, 10, 20, 40)
                 for seed in (3, 5, 11, 21, 22, 23)]
                + [_graded(2), np.diag([1e6, 1.0, 2.0]), Q @ np.diag(d) @ Q.T,
                   B @ B.T, -(B @ B.T)])
    cholesky = cholesky_callers(monkeypatch)
    seen = _proof_spy(monkeypatch, cholesky)
    for A in matrices:
        A = 0.5 * (A + A.T)
        for method in ("r_new_q_newton", "r_newton", "r_random_newton"):
            smallest_eigenvalue(A, method=method, seed=1)
    assert len(seen) > 300 and sum(proved for proved, _, _ in seen) > 150
    assert [s for s in seen if s[0] and not s[1]] == []
    assert [s for s in seen if s[0] and not s[2]] == []


def test_zero_step_and_gradient_runs_leave_the_certificate_to_the_cholesky(monkeypatch):
    # The first start is placed exactly on the second eigenvector: its run
    # takes no step, leaves no solve, and the Cholesky refuses its value,
    # so a second start finds the minimum.  An r_backtracking solve makes
    # no Newton step at all: every decision is one Cholesky.
    A = np.diag([-1.0, 2.0, 3.0])
    traces = []
    starts = [np.array([0.0, 1.0, 0.0])]
    inner = bench._run_branch

    def placed(obj, method, iters, seed, x0, **kwargs):
        if starts:
            x0 = starts.pop()
        trace = inner(obj, method, iters, seed, x0, **kwargs)
        traces.append(trace)
        return trace

    monkeypatch.setattr(bench, "_run_branch", placed)
    cholesky = cholesky_callers(monkeypatch)
    lam, vec = smallest_eigenvalue(A)
    assert lam == pytest.approx(-1.0, abs=1e-12)
    assert traces[0].steps == 0 and traces[0].pd_solve is None
    assert len(traces) == 2 and traces[1].pd_solve is not None
    assert cholesky == ["_certified"]
    traces.clear()
    cholesky.clear()
    lam, _ = smallest_eigenvalue(_eig_matrix(6, 0), method="r_backtracking")
    assert lam == pytest.approx(np.linalg.eigvalsh(_eig_matrix(6, 0))[0], abs=1e-8)
    assert [t.pd_solve for t in traces] == [None] * len(traces)
    assert cholesky == ["_certified"] * len(traces)


def test_step_proof_falls_back_when_the_shift_exceeds_rho_minus_t(monkeypatch):
    # S = diag(0, 1, 2) at x = e2, a run stalled on the second eigenvector:
    # rho = 1, g~ = 0 and H = diag(-1, 1) on T_x.  A shift s = 2 makes K = H
    # + 2I positive definite, and the Schur test alone, g~.w = 0 < rho - t
    # = tau, would certify lam = 1, but C - tI = K + (tau - 2)I is not
    # positive definite: s > rho - t, so the proof falls back and the
    # Cholesky refuses.  With lam = lambda_min = 0 from the same point,
    # s > rho - t again, and the Cholesky certifies.
    S = SymMatrix(np.diag([0.0, 1.0, 2.0]))
    x = np.array([0.0, 1.0, 0.0])
    H, gt, _ = Sphere(3).tangent_hessian(x, S, S.entries @ x, lambda p: S.entries @ p)
    s = 2.0
    w = np.linalg.solve(H.entries + s * np.eye(2), gt)
    assert np.linalg.eigvalsh(H.entries + s * np.eye(2))[0] > 0.0
    assert gt.dot(w) == 0.0
    cholesky = cholesky_callers(monkeypatch)
    assert not _certified(S, 1.0, _fro(S), (x, gt, w, s))
    assert _certified(S, 0.0, _fro(S), (x, gt, w, s))
    assert cholesky == ["_certified", "_certified"]
    # Without the shift, K = H is indefinite and is no solve to prove from;
    # a zero shift at x = e1 proves lam = 0 with no factorization.
    e1 = np.array([1.0, 0.0, 0.0])
    H1, gt1, _ = Sphere(3).tangent_hessian(e1, S, S.entries @ e1,
                                           lambda p: S.entries @ p)
    assert _certified(S, 0.0, _fro(S), (e1, gt1, np.linalg.solve(H1.entries, gt1), 0.0))
    assert len(cholesky) == 2


# OpenBLAS splits work by its thread count above n = 100: probed at 1 and
# 2 threads, smallest_eigenvalue moves bits at every n from 101 on and at
# none up to 100 (4 threads gave the bits of 2).  A case this large keeps
# its recorded bits only at the recorded thread count; at another, its
# value and residual must each be within 1e-9 ||A||_2.
BLAS_THREADED_N = 101


def test_smallest_eigenvalue_bits_are_pinned():
    recording = json.loads(EIG_BITS.read_text())
    threads = blas_threads()
    same_threads = threads == recording["about"]["blas_threads"]
    moved, by_accuracy = [], []
    for case in recording["cases"]:
        A = _eig_matrix(case["n"], case["seed"], case["scale"])
        lam, vec = smallest_eigenvalue(A, method=case["method"], seed=case["seed"])
        if same_threads or case["n"] < BLAS_THREADED_N:
            digest = hashlib.sha256(np.asarray(vec).tobytes()).hexdigest()
            if float(lam).hex() != case["lam"] or digest != case["v_sha256"]:
                moved.append(case)
            continue
        bound = 1e-9 * np.linalg.norm(A, 2)
        err = float(abs(lam - np.linalg.eigvalsh(A)[0]))
        resid = float(np.linalg.norm(A @ vec - lam * vec))
        by_accuracy.append((case["method"], case["n"], case["seed"], err, resid,
                            bool(err <= bound and resid <= bound)))
    assert moved == [], core_note()
    assert all(ok for *_, ok in by_accuracy), (
        "at %s BLAS threads (recorded at %s), compared by |lam - lambda_min| and"
        " ||Av - lam v|| against 1e-9 ||A||_2: %s"
        % (threads, recording["about"]["blas_threads"], by_accuracy))
