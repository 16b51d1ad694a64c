"""Acceptance suite: the contract the package must keep.

One test per criterion.  Each prints a single PASS/FAIL line with the
measured quantity so a plain ``pytest -s`` run reads as a checklist.
Traces for the full benchmark corpus are produced once per session and
shared by the criteria that audit every run.
"""

import pathlib

import numpy as np
import pytest

from manifold_descent.bench import (
    METHOD_ORDER,
    _cell_seed,
    _prepare,
    corpus,
    run_scenario,
    smallest_eigenvalue,
)
from manifold_descent.cli import _report_json
from manifold_descent.linalg import SymMatrix, sym_eig
from manifold_descent.manifold import Euclidean, Sphere
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    builtin_problems,
    riemannian_grad,
    riemannian_hess,
)
from manifold_descent.optim import (
    BacktrackingParams,
    NewQNewtonParams,
    StopCriteria,
    Termination,
    armijo_rhs,
    run,
)
from oracles import fd_gradient, moved_cells, moved_message, tangent_project

CORPUS_SEED = 42

# Recorded output of ``manifold-descent corpus --format json --seed 42``.
# A change meant to move bits re-records it and lists the changed cells.
CORPUS_REFERENCE = pathlib.Path(__file__).with_name("corpus_seed42.json")

# Reference trajectory points the sphere runs must reproduce: the
# backtracking iterate after three steps on the 2-sphere scenario and
# after ten steps on the 3-sphere one.
REF_SPHERE2_BT = np.array([-0.70691347, 0.70730003])
REF_SPHERE3_BT = np.array([-0.33333105, -0.66666699, 0.66666748])

EX8_MATRIX = [
    [-23.0, -61.0, 40.0],
    [-61.0, -39.5, 155.0],
    [40.0, 155.0, -50.0],
]


def _verdict(num, ok, detail):
    print("criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


@pytest.fixture(scope="session")
def corpus_traces():
    """Every corpus cell rerun with its corpus seed, trace kept, along
    with the domain the run actually used (flat methods swap in ambient
    space) and the underlying stepper name."""
    problems = builtin_problems()
    cells = {}
    for sid, problem in problems.items():
        for method in METHOD_ORDER:
            result, trace = run_scenario(
                sid,
                method,
                seed=_cell_seed(CORPUS_SEED, sid, method),
                return_trace=True,
            )
            obj, stepper, _ = _prepare(problem, method, "projective")
            cells[(sid, method)] = (result, trace, obj.domain, stepper)
    return cells


def _sign_error(point, target):
    p = np.asarray(point, dtype=float)
    return min(np.max(np.abs(p - target)), np.max(np.abs(p + target)))


def test_criterion_01_ball_quadratic_new_q_newton():
    res = run_scenario("example7", "r_new_q_newton", iters=50)
    target = np.array([-0.70710678, 0.70710678])
    err = _sign_error(res.final_point, target)
    _verdict(1, err <= 1e-6,
             "ball quadratic optimum reached, max coord err %.3g" % err)


def test_criterion_02_ball_backtracking_values():
    v8 = run_scenario("example8", "r_backtracking", iters=50).final_value
    v9 = run_scenario("example9", "r_backtracking", iters=50).final_value
    ok = v8 <= -112.0 and v9 <= -50.0
    _verdict(2, ok, "final values %.6f (<= -112) and %.6f (<= -50)" % (v8, v9))


def test_criterion_03_sphere_reference_points(corpus_traces):
    def first_match(trace, target, tol=1e-3, within=10):
        for rec in trace.records:
            if rec.iter > within:
                break
            if _sign_error(rec.point, target) <= tol:
                return rec.iter
        return None

    t7 = corpus_traces[("example7p", "r_backtracking")][1]
    t8 = corpus_traces[("example8p", "r_backtracking")][1]
    hit7 = first_match(t7, REF_SPHERE2_BT)
    hit8 = first_match(t8, REF_SPHERE3_BT)
    f7 = corpus_traces[("example7p", "r_new_q_newton")][0].final_value
    ok = hit7 is not None and hit8 is not None and abs(f7 - (-1.0)) <= 1e-5
    _verdict(3, ok,
             "backtracking hits at steps %s/%s, new-q-newton value %.12f" %
             (hit7, hit8, f7))


def test_criterion_04_smallest_eigenvalue_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(50):
        m = int(rng.integers(2, 11))
        B = rng.standard_normal((m, m))
        A = SymMatrix(0.5 * (B + B.T))
        ref = sym_eig(A)[0][0]
        lam, _ = smallest_eigenvalue(A, seed=k)
        worst = max(worst, abs(lam - ref) / max(1.0, abs(ref)))
    lam8, _ = smallest_eigenvalue(SymMatrix(EX8_MATRIX))
    ok = worst <= 1e-3 and abs(lam8 - (-225.0)) <= 0.1
    _verdict(4, ok,
             "worst relative error %.3g over 50 matrices, "
             "known matrix gives %.6f" % (worst, lam8))


def test_criterion_05_armijo_descent(corpus_traces):
    alpha = BacktrackingParams().alpha
    checked = violations = 0
    for (sid, method), (_, trace, _, stepper) in corpus_traces.items():
        if stepper not in ("backtracking", "local_backtracking"):
            continue
        recs = trace.records
        for prev, cur in zip(recs, recs[1:]):
            checked += 1
            drop = cur.f_value - prev.f_value
            if not drop <= armijo_rhs(alpha, cur.step_size, prev.rgrad_norm):
                violations += 1
    ok = violations == 0 and checked > 0
    _verdict(5, ok, "%d steps checked, %d violations" % (checked, violations))


def test_criterion_06_containment(corpus_traces):
    points = steps = violations = 0
    for (_, trace, domain, _) in corpus_traces.values():
        recs = trace.records
        for rec in recs:
            points += 1
            if not domain.contains(rec.point):
                violations += 1
        for prev, cur in zip(recs, recs[1:]):
            steps += 1
            if not cur.step_norm < domain.radius(prev.point):
                violations += 1
    ok = violations == 0 and points > 0
    _verdict(6, ok, "%d iterates and %d steps checked, %d violations" %
             (points, steps, violations))


def test_criterion_07_quadratic_convergence_rate():
    def value(z):
        return float(z[0] ** 4 + z[1] ** 4 + z[0] ** 2 + 10.0 * z[1] ** 2)

    def grad(z):
        return np.array([4.0 * z[0] ** 3 + 2.0 * z[0],
                         4.0 * z[1] ** 3 + 20.0 * z[1]])

    def hess(z):
        return SymMatrix(np.diag([12.0 * z[0] ** 2 + 2.0,
                                  12.0 * z[1] ** 2 + 20.0]))

    obj = Objective(value, grad, hess, Euclidean(2), name="quartic")
    trace = run(obj, np.array([0.3, 0.3]), "new_q_newton",
                params=NewQNewtonParams(),
                stop=StopCriteria(grad_tol=1e-10, max_iters=100))
    errs = [float(np.linalg.norm(rec.point)) for rec in trace.records]
    errs = [e for e in errs if e > 0.0]
    logs = np.log(errs)
    slope = np.polyfit(logs[-4:-1], logs[-3:], 1)[0]

    # Any strictly convex quadratic must be solved by the first step.
    rng = np.random.default_rng(7)
    one_step = True
    for _ in range(3):
        m = int(rng.integers(2, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        A = Q @ np.diag(rng.uniform(0.5, 3.0, m)) @ Q.T
        qobj = QuadraticForm(SymMatrix(0.5 * (A + A.T))).to_objective(
            Euclidean(m), name="pd_quadratic")
        tr = run(qobj, rng.uniform(0.5, 1.0, m), "new_q_newton",
                 params=NewQNewtonParams(),
                 stop=StopCriteria(grad_tol=1e-10, max_iters=10))
        if tr.steps != 1 or tr.termination != Termination.GRADIENT_TOLERANCE:
            one_step = False
    ok = slope >= 1.9 and one_step
    _verdict(7, ok, "log-error slope %.3f, strictly convex quadratics "
             "one-step: %s" % (slope, one_step))


def test_criterion_08_saddle_avoidance():
    saddle = QuadraticForm(SymMatrix([[2.0, 0.0], [0.0, -2.0]])).to_objective(
        Euclidean(2), name="saddle")
    rng = np.random.default_rng(123)
    starts = rng.uniform(-1.0, 1.0, size=(1000, 2))
    params = NewQNewtonParams(deltas=(0.0, 1.0))
    stop = StopCriteria(grad_tol=1e-10, max_iters=200)
    trapped = 0
    for x0 in starts:
        tr = run(saddle, x0, "new_q_newton",
                 params=params, stop=stop)
        if (tr.termination == Termination.GRADIENT_TOLERANCE
                and np.linalg.norm(tr.final_point) <= 1e-4):
            trapped += 1

    _, tr_newton = run_scenario("example7", "r_newton", return_trace=True)
    newton_at_saddle = (tr_newton.steps == 1
                        and np.linalg.norm(tr_newton.final_point) <= 1e-8)
    escaped = run_scenario("example7", "r_new_q_newton").final_value < -0.9
    ok = trapped == 0 and newton_at_saddle and escaped
    _verdict(8, ok, "%d/1000 starts trapped at the saddle; newton lands on "
             "it in one step: %s; new-q-newton escapes: %s" %
             (trapped, newton_at_saddle, escaped))


def test_criterion_09_derivative_correctness():
    rng = np.random.default_rng(5)
    h = 1e-5
    worst_g = worst_h = worst_t = 0.0
    for problem in builtin_problems().values():
        obj = problem.objective
        domain = obj.domain
        on_sphere = isinstance(domain, Sphere)
        for _ in range(20):
            x = problem.sample_point(rng)
            g = obj.grad(x)
            rel = np.linalg.norm(fd_gradient(obj, x) - g)
            worst_g = max(worst_g, rel / max(1.0, np.linalg.norm(g)))

            B = riemannian_hess(obj, x)
            if on_sphere:
                v = tangent_project(domain, x, rng.standard_normal(len(x)))
                v /= np.linalg.norm(v)
                gp = riemannian_grad(obj, domain.retract(x, h * v))
                gm = riemannian_grad(obj, domain.retract(x, -h * v))
                action = tangent_project(domain, x, (gp - gm) / (2.0 * h))
                worst_t = max(worst_t, abs(riemannian_grad(obj, x) @ x))
            else:
                v = rng.standard_normal(len(x))
                v /= np.linalg.norm(v)
                gp = riemannian_grad(obj, x + h * v)
                gm = riemannian_grad(obj, x - h * v)
                action = (gp - gm) / (2.0 * h)
            want = B.entries @ v
            rel = np.linalg.norm(action - want)
            worst_h = max(worst_h, rel / max(1.0, np.linalg.norm(want)))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4 and worst_t <= 1e-10
    _verdict(9, ok, "worst gradient rel %.3g, hessian action rel %.3g, "
             "sphere tangency %.3g" % (worst_g, worst_h, worst_t))


def test_criterion_10_baseline_fidelity(corpus_traces):
    sing_ok = all(
        corpus_traces[("example5", m)][0].termination
        == Termination.SINGULAR_MATRIX
        for m in ("newton", "random_newton")
    )

    res6, tr6 = corpus_traces[("example6", "new_q_newton")][:2]
    vals = [rec.f_value for rec in tr6.records]
    # The kink makes f oscillate step to step while the linear term
    # falls by one per step, so sample wider than the swing.
    sampled = vals[::31]
    div_ok = (res6.termination == Termination.DIVERGED
              and vals[-1] <= -250.0
              and all(b < a for a, b in zip(sampled, sampled[1:])))

    first = _report_json(corpus(seed=CORPUS_SEED))
    second = _report_json(corpus(seed=CORPUS_SEED))
    det_ok = first == second
    recording = CORPUS_REFERENCE.read_text()
    moved = moved_cells(first + "\n", recording)
    ref_ok = first + "\n" == recording
    _verdict(10, sing_ok and div_ok and det_ok and ref_ok,
             "singular-hessian cells report SingularMatrix: %s; kinked "
             "slope diverges (final %.5f): %s; corpus JSON byte-identical: "
             "%s; matches %s: %s (%s)"
             % (sing_ok, vals[-1], div_ok, det_ok, CORPUS_REFERENCE.name,
                ref_ok, moved_message(moved) if moved else "no cell moved"))
