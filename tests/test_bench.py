import dataclasses
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
    ball_minimize,
    corpus,
    default_iters,
    run_scenario,
    smallest_eigenvalue,
)
from manifold_descent.cli import _report_json
from manifold_descent.linalg import NonFinite, SymMatrix
from manifold_descent.manifold import Euclidean, Sphere
from manifold_descent.objective import QuadraticForm, builtin_problems
from manifold_descent.optim import (
    BacktrackingParams,
    NewQNewtonParams,
    Termination,
    armijo_rhs,
)
from oracles import (GRADIENT_TAGS, blas_threads, certified_on_A, generated_report,
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


def _counting_runs(monkeypatch, first_result=None):
    """Count the runs smallest_eigenvalue makes; ``first_result`` may
    rewrite the result of the first one."""
    calls = []
    inner = bench._run_branch

    def counted(*args, **kwargs):
        res, trace = inner(*args, **kwargs)
        if first_result is not None and not calls:
            res = first_result(res)
        calls.append(res)
        return res, trace

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


@pytest.mark.parametrize("seed,retraction", sorted(CORPUS_RECORDINGS))
def test_corpus_matches_its_recording(seed, retraction):
    report = _report_json(corpus(seed=seed, retraction=retraction)) + "\n"
    path = pathlib.Path(__file__).with_name(CORPUS_RECORDINGS[seed, retraction])
    recording = path.read_text()
    # Name the moved cells and fields first; the bytes must still match.
    moved = moved_cells(report, recording)
    assert not moved, moved_message(moved)
    assert report == recording


def _assert_matches_recording(report, name):
    recording = pathlib.Path(__file__).with_name(name).read_text()
    moved = moved_cells(report, recording)
    assert not moved, moved_message(moved)
    assert report == recording


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
    # Unknown tags, and bare tags, which would run on flat space under
    # the ball's labels, are refused; so is an empty list.
    for methods in ("sgd", "newton", ("r_backtracking", "new_q_newton")):
        with pytest.raises(UnknownMethod):
            ball_minimize(obj, methods=methods)
    with pytest.raises(ValueError, match="empty"):
        ball_minimize(obj, methods=[])


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
    def stalled(res):
        return dataclasses.replace(res, final_point=np.array([0.0, 1.0, 0.0]),
                                   final_value=1.0)

    calls = _counting_runs(monkeypatch, first_result=stalled)
    lam, vec = smallest_eigenvalue(np.diag([-1.0, 2.0, 3.0]))
    assert len(calls) == 2
    assert lam == pytest.approx(-1.0, abs=1e-9)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-6)


def test_smallest_eigenvalue_keeps_the_lowest_of_five_uncertified_runs(monkeypatch):
    # A certificate that rejects every value makes the search try all
    # RESTARTS starts and keep the lowest value found.  One step per run
    # keeps the five values apart; runs to convergence would all reach
    # lambda_min and differ only in their last bits.
    monkeypatch.setattr(bench, "_certified", lambda A, lam: False)
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
    assert _certified(A, -1.0)
    assert _certified(A, -1.0 + 0.5 * tau)
    assert not _certified(A, 2.0)
    assert not _certified(A, -1.0 + 10.0 * tau)
    for lam in (math.nan, math.inf, -math.inf):
        assert not _certified(A, lam)
    assert not _certified(SymMatrix(np.zeros((3, 3))), 0.0)


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
    assert _certified(S, math.ldexp(lo, -k))
    assert not _certified(S, math.ldexp(lo + 1e-3 * (hi - lo), -k))


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
        assert _certified(S, math.ldexp(lam, -k)) == certified_on_A(SymMatrix(A), lam) \
            == (m < 1.0)


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
    assert moved == []
    assert all(ok for *_, ok in by_accuracy), (
        "at %s BLAS threads (recorded at %s), compared by |lam - lambda_min| and"
        " ||Av - lam v|| against 1e-9 ||A||_2: %s"
        % (threads, recording["about"]["blas_threads"], by_accuracy))
