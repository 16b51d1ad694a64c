"""Benchmark scenarios, ball-constrained minimization, and the
smallest-eigenvalue application.

A scenario is a catalog problem plus a method tag.  Methods with an
``r_`` prefix run on the problem's own manifold; the bare tags run the
same update rule on flat ambient space, which is how the unconstrained
baselines in the comparison tables are produced.
"""

import dataclasses
import math

import numpy as np

from .linalg import NonFinite, SymMatrix, _norm, _positive_definite
from .manifold import Euclidean, Sphere
from .objective import QuadraticForm, builtin_problems, open_ball
from .optim import NewQNewtonParams, StopCriteria, Termination, run

# Iterates this far out are runaway for every catalog problem (their
# domains all sit inside the unit ball or start within a few units of
# the origin), so the corpus flags divergence long before the norms
# overflow.
DIVERGENCE_NORM = 300.0

# Seeded starts smallest_eigenvalue tries before it returns an
# uncertified value.
RESTARTS = 5

_EPS = float(np.finfo(float).eps)

# smallest_eigenvalue's New Q-Newton tries delta = 2 first: near the
# bottom of the spectrum H + 2*rho*I stays positive definite longer, so a
# step is a damped Newton step, not a long reflection that the gamma cap
# cuts short.  That pays on a cold start: against delta = 1 first it
# saves 8% of the steps (each one eigendecomposition) at n = 10, where
# no warm-up runs.  After the warm-up the order hardly matters (within 5%
# either way at n = 20-300), but the library default (0, 1) still takes
# 17-24% more steps at n = 20-50 (README, BENCH_two_phase_eig.json).
_EIG_NQN_PARAMS = NewQNewtonParams(deltas=(2.0, 0.0))


def _warm_up_steps(n):
    """Backtracking steps smallest_eigenvalue's default method takes
    from each start before New Q-Newton: max(0, n // 5 - 2), so one per
    five coordinates less two, and none below n = 15.

    A backtracking step costs matrix-vector products, a New Q-Newton
    step an eigendecomposition of size n - 1.  Chosen on held-out random
    symmetric sets (seeds 100-104): at n <= 10 no warm-up of 1-4 steps
    was faster than none, and at n = 20-300 the rule sits on the flat
    bottom of solve time against k.  Confirmed on seeds 105-109: mean
    time per solve 1.69 -> 1.57 ms at n = 20, 4.54 -> 3.49 ms at n = 50,
    37.7 -> 16.2 ms at n = 150 and 198 -> 58 ms at n = 300, with New
    Q-Newton steps 12.8 -> 2.3 at n = 300 (BENCH_two_phase_eig.json).
    """
    return max(0, n // 5 - 2)


METHOD_ORDER = (
    "newton",
    "new_q_newton",
    "random_newton",
    "r_newton",
    "r_new_q_newton",
    "r_random_newton",
    "r_backtracking",
    "r_local_backtracking",
    "r_standard_gd",
)


class UnknownScenario(KeyError):
    pass


class UnknownMethod(KeyError):
    pass


def _parse_method(method, flat_ok=True):
    """(optim stepper name, runs on flat ambient space?) for a method
    tag: an ``r_`` tag runs the stepper of the same name on the
    problem's manifold, a bare one on flat space.  An unknown tag, or a
    flat one where ``flat_ok`` is False, raises UnknownMethod."""
    flat = not method.startswith("r_")
    if method not in METHOD_ORDER or (flat and not flat_ok):
        raise UnknownMethod(method)
    return method.removeprefix("r_"), flat


@dataclasses.dataclass
class ScenarioResult:
    scenario_id: str
    method: str
    final_point: np.ndarray
    final_value: float
    steps: int
    termination: Termination
    flags: set

    def to_dict(self):
        return {
            "scenario_id": self.scenario_id,
            "method": self.method,
            "final_point": [float(c) for c in self.final_point],
            "final_value": float(self.final_value),
            "steps": int(self.steps),
            "termination": self.termination.value,
            "flags": sorted(self.flags),
        }


@dataclasses.dataclass
class BallMinResult:
    interior_result: ScenarioResult
    sphere_result: ScenarioResult
    best: ScenarioResult


def default_iters(scenario_id, method):
    """Iteration budgets mirroring the comparison tables: short runs on
    the sphere scenarios, long runs for the Newton family elsewhere."""
    if scenario_id.endswith("p"):
        return 10
    return 500 if method in METHOD_ORDER and method.endswith("newton") else 50


def _cell_seed(seed, scenario_id, method):
    # Imported here: hashlib is a few ms of the package's import, and only
    # a corpus seed needs it.
    import hashlib

    digest = hashlib.sha256(("%s:%s" % (scenario_id, method)).encode()).hexdigest()
    return (int(digest[:16], 16) ^ int(seed)) & (2**63 - 1)


def _prepare(problem, method, retraction):
    optim_method, flat = _parse_method(method)
    obj = problem.objective
    if flat:
        obj = dataclasses.replace(obj, domain=Euclidean(len(problem.x0)))
    elif isinstance(obj.domain, Sphere) and obj.domain.retraction != retraction:
        obj = dataclasses.replace(
            obj, domain=Sphere(obj.domain.ambient_dim, retraction)
        )
    return obj, optim_method, flat


def run_scenario(scenario_id, method, iters=None, seed=0, retraction="projective",
                 params=None, grad_tol=1e-10, return_trace=False, *,
                 _problems=None):
    """One (scenario, method) cell, deterministic for a given seed.
    ``params``, the stepper's settings, goes to ``optim.run`` unchanged,
    and ``run`` refuses a params class the method does not read.
    ``_problems`` lets ``corpus`` share one catalog between its cells."""
    problems = builtin_problems() if _problems is None else _problems
    if scenario_id not in problems:
        raise UnknownScenario(scenario_id)
    problem = problems[scenario_id]
    obj, _, flat = _prepare(problem, method, retraction)
    if iters is None:
        iters = default_iters(scenario_id, method)
    result, trace = _run_branch(obj, scenario_id, method, iters, seed, problem.x0,
                                grad_tol=grad_tol, params=params)
    if flat:
        # One errstate for the loop: a diverged point's squared norm may overflow.
        radius = problem.objective.domain._radius
        with np.errstate(over="ignore", invalid="ignore"):
            for rec in trace.records:
                if not radius(rec.point) > 0.0 and np.isfinite(rec.point).all():
                    result.flags.add("left_domain_would")
                    break
    if return_trace:
        return result, trace
    return result


def corpus(seed=42, retraction="projective"):
    """Every catalog scenario crossed with every method, run serially in
    a fixed order, with per-cell seeds derived from the corpus seed."""
    problems = builtin_problems()
    return [
        run_scenario(sid, method, seed=_cell_seed(seed, sid, method),
                     retraction=retraction, _problems=problems)
        for sid in problems
        for method in METHOD_ORDER
    ]


def _comparison_value(result):
    # Failed or diverged branches compare as +inf.
    v = result.final_value
    return v if math.isfinite(v) else math.inf


def _run_branch(obj, label, method, iters, seed, x0, grad_tol=1e-10, params=None):
    """One run of the tag ``method``'s stepper on ``obj.domain``, seeded
    by ``seed``; ``params`` goes to ``optim.run`` as it is.  Returns
    (result, trace)."""
    stop = StopCriteria(grad_tol=grad_tol, max_iters=iters,
                        divergence_norm=DIVERGENCE_NORM)
    trace = run(obj, x0, _parse_method(method)[0], params=params, stop=stop,
                rng=seed)
    result = ScenarioResult(
        scenario_id=label,
        method=method,
        final_point=trace.final_point,
        final_value=trace.final_value,
        steps=trace.steps,
        termination=trace.termination,
        flags=set(trace.flags),
    )
    return result, trace


def ball_minimize(obj, methods="r_backtracking", iters=100, seed=0,
                  retraction="projective"):
    """Minimize over the closed unit ball in two runs: one on the open
    ball interior, one on the boundary sphere, keeping the better.

    ``obj`` supplies the ambient callables; its domain field is
    replaced per branch.  ``methods`` may be a single ``r_`` tag or a
    nonempty iterable of them (a bare, flat-space tag raises
    UnknownMethod); each branch keeps its best result across the tags.
    """
    methods = (methods,) if isinstance(methods, str) else tuple(methods)
    if not methods:
        raise ValueError("methods is empty")
    for m in methods:
        _parse_method(m, flat_ok=False)
    m_dim = obj.domain.ambient_dim
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m_dim)
    u /= np.linalg.norm(u)
    interior_obj = dataclasses.replace(obj, domain=open_ball(m_dim))
    sphere_obj = dataclasses.replace(obj, domain=Sphere(m_dim, retraction))
    name = obj.name or "objective"

    interior = sphere = None
    for i, method in enumerate(methods):
        res_i, _ = _run_branch(interior_obj, "ball[%s]:interior" % name, method,
                               iters, seed + 2 * i, 0.5 * u)
        res_s, _ = _run_branch(sphere_obj, "ball[%s]:sphere" % name, method,
                               iters, seed + 2 * i + 1, u)
        if interior is None or _comparison_value(res_i) < _comparison_value(interior):
            interior = res_i
        if sphere is None or _comparison_value(res_s) < _comparison_value(sphere):
            sphere = res_s
    best = interior if _comparison_value(interior) <= _comparison_value(sphere) else sphere
    return BallMinResult(interior_result=interior, sphere_result=sphere, best=best)


def _certified(S, lam, fro, solve=None):
    """True when lam is proved to lie within tau = 1e-8 * ||S||_F of the
    smallest eigenvalue of the SymMatrix S: by the Newton solve a run left
    (``IterateTrace.pd_solve``) when it suffices, else by
    ``_positive_definite``.  ``fro`` is ||S||_F, computed once per solve.

    lam is a Rayleigh quotient, so lam >= lambda_min, and lam - lambda_min
    < tau exactly when S - tI is positive definite, t = lam - tau.

    The step proof.  Let x be the unit point the solve was made at, rho =
    x.Sx, C the compression of S to the complement of x, g~ the gradient
    in those coordinates, K = H + sI = C - (rho - s)I the positive-definite
    matrix the step solved, and w = K^-1 g~, so g~.w is the step's Newton
    decrement.  In the basis [x-perp, x], S - tI is [[C - tI, g~], [g~^T,
    rho - t]] (up to the sign of g~).  When s <= rho - t, C - tI = K +
    (rho - t - s)I >= K > 0, so (C - tI)^-1 <= K^-1 and the Schur
    complement (rho - t) - g~^T (C - tI)^-1 g~ is at least (rho - t) -
    g~.w; when that is positive, S - tI is positive definite.  The test
    costs a product with S and three dot products, against an n x n
    factorization.

    Its rounding allowance is eta = (64 n eps + 8|1 - x.x|) ||S||_F, taken
    off rho - t and charged on g~.w as eta w.w.  The computed blocks (C,
    g~, rho) are within a small multiple of n eps ||S|| of those of S in
    an exactly orthogonal basis, and a point off the unit sphere by
    |1 - x.x| moves the corner and g~ by at most about 5|1 - x.x| ||S||,
    so the proof holds for a t raised by eta.  A backward-stable w is (K +
    dK)^-1 g~ with ||dK|| a small multiple of n eps ||K||, and ||K|| <=
    4||S||_F (||C||, |rho| <= ||S||_2 and s <= rho - t), so g~^T K^-1 g~
    exceeds g~.w by at most about ||dK|| w.w.  At n = 300, 64 n eps is
    4.3e-12, far below tau's 1e-8.

    With no solve (a gradient method, a run that took no Newton step or
    whose last one reflected) or when an inequality fails, the package's
    one Cholesky test decides on S - tI.  S is the copy A/2^k that
    smallest_eigenvalue's runs see, with entries in (-2, 2), and |lam|
    <= ||S||_2, so the shifted matrix and its factor are finite; tau
    scales with S, so an absolute floor cannot certify any lam of a tiny
    matrix, and a zero S fails the factorization.
    """
    if not math.isfinite(lam):
        return False
    t = lam - 1e-8 * fro
    if solve is not None:
        x, gt, w, s = solve
        eta = (64 * S.dim * _EPS + 8.0 * abs(1.0 - x.dot(x))) * fro
        margin = float(x.dot(S.entries @ x)) - t - eta
        if s <= margin and float(gt.dot(w)) + eta * float(w.dot(w)) < margin:
            return True
    return _positive_definite(S.entries, -t)


def smallest_eigenvalue(A, method="r_new_q_newton", iters=100, seed=0,
                        retraction="projective"):
    """Smallest eigenvalue of a symmetric A and a unit vector achieving
    it, found by minimizing <Ax,x>/2 over the sphere.

    Critical points of that objective are exactly the unit eigenvectors,
    and its minimum is half the smallest eigenvalue.  After each seeded
    start, the lowest value found so far is certified against S = A/2^k
    (see ``_certified``): near a non-degenerate minimum the start's last
    Newton step solved a positive-definite regularized tangent Hessian,
    and its Newton decrement proves the bound through a Schur complement
    at the cost of a few dot products; otherwise one Cholesky
    factorization of a shifted S decides.  tau = 1e-8 * ||S||_F is
    computed once per solve.  A certified value ends the search, so a run
    that reaches the minimum is the only run.
    A run can still stall on a non-minimal eigenvector; then up to
    RESTARTS starts are tried and the lowest value found is returned.
    With the default method each start has two phases: from the seeded
    x0, ``_warm_up_steps(n)`` steps of Armijo backtracking walk toward
    the basin of the minimum without any decomposition, and New Q-Newton
    runs from where they end, where its rate is quadratic.  The warm-up
    is part of its start, not a run of its own, and its steps do not
    count against ``iters``; the other methods run from x0 itself.  The
    runs and the certificate see A/2^k, whose largest entry lies in
    [1, 2), because grad_tol is absolute; the division is exact, so the
    best value, scaled back by 2^k once at the end, is still a Rayleigh
    quotient of A, or NonFinite past the double range.
    A 1x1 A needs no run: its entry is the answer, attained at the
    points +-1 of S^0, and (a11, [1.0]) is returned.
    """
    if not isinstance(A, SymMatrix):
        A = SymMatrix(A)
    _parse_method(method, flat_ok=False)
    if retraction not in Sphere.MODES:
        # Sphere refuses it too, but a 1x1 A makes no sphere.
        raise ValueError("unknown retraction %r" % (retraction,))
    if A.dim == 0:
        raise ValueError("smallest_eigenvalue needs a matrix of dimension >= 1, got 0x0")
    if A.dim == 1:
        return float(A.entries[0, 0]), np.array([1.0])
    k = math.frexp(float(np.max(np.abs(A.entries))))[1] - 1
    scaled = SymMatrix._from_symmetric(np.ldexp(A.entries, -k))
    fro = float(np.linalg.norm(scaled.entries))
    obj = QuadraticForm(scaled).to_objective(Sphere(A.dim, retraction),
                                             name="rayleigh")
    params, warm_up = None, 0
    if method == "r_new_q_newton":
        params, warm_up = _EIG_NQN_PARAMS, _warm_up_steps(A.dim)
    rng = np.random.default_rng(seed)
    best_value = math.inf
    best_point = None
    for attempt in range(RESTARTS):
        x0 = rng.standard_normal(A.dim)
        # _norm is np.linalg.norm bit for bit on these vectors.
        while (x0n := _norm(x0)) < 1e-6:
            x0 = rng.standard_normal(A.dim)
        x0 /= x0n
        if warm_up:
            x0 = run(obj, x0, "backtracking",
                     stop=StopCriteria(max_iters=warm_up)).final_point
        res, trace = _run_branch(obj, "eig[%d]" % A.dim, method, iters,
                                 seed + 1000 + attempt, x0, params=params)
        v = _comparison_value(res)
        if best_point is None or v < best_value:
            best_value, best_point = v, res.final_point
        if _certified(scaled, 2.0 * best_value, fro, trace.pd_solve):
            break
    return _unscaled(best_value, k), best_point


def _unscaled(value, k):
    try:
        return math.ldexp(2.0 * value, k)
    except OverflowError:
        raise NonFinite("the smallest eigenvalue lies outside the double range")
