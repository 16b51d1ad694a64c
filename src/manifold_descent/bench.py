"""Benchmark scenarios, ball-constrained minimization, and the
smallest-eigenvalue application.

A scenario is a catalog problem plus a method tag.  Methods with an
``r_`` prefix run on the problem's own manifold; the bare tags run the
same update rule on flat ambient space, which is how the unconstrained
baselines in the comparison tables are produced.
"""

import dataclasses
import hashlib
import math

import numpy as np

from .linalg import SymMatrix
from .manifold import Euclidean, Sphere
from .objective import QuadraticForm, builtin_problems, open_ball
from .optim import StopCriteria, Termination, run

# Iterates this far out are runaway for every catalog problem (their
# domains all sit inside the unit ball or start within a few units of
# the origin), so the corpus flags divergence long before the norms
# overflow.
DIVERGENCE_NORM = 300.0

DEFAULT_LR = 0.001

_NEWTON_FAMILY = (
    "newton",
    "new_q_newton",
    "random_newton",
    "r_newton",
    "r_new_q_newton",
    "r_random_newton",
)

METHOD_ORDER = _NEWTON_FAMILY + (
    "r_backtracking",
    "r_local_backtracking",
    "r_standard_gd",
)

# method tag -> (optim stepper name, runs on flat ambient space?)
_METHOD_MAP = {
    "newton": ("newton", True),
    "new_q_newton": ("new_q_newton", True),
    "random_newton": ("random_newton", True),
    "r_newton": ("newton", False),
    "r_new_q_newton": ("new_q_newton", False),
    "r_random_newton": ("random_newton", False),
    "r_backtracking": ("backtracking", False),
    "r_local_backtracking": ("local_backtracking", False),
    "r_standard_gd": ("standard_gd", False),
}


class UnknownScenario(KeyError):
    pass


class UnknownMethod(KeyError):
    pass


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
    return 500 if method in _NEWTON_FAMILY else 50


def _cell_seed(seed, scenario_id, method):
    digest = hashlib.sha256(("%s:%s" % (scenario_id, method)).encode()).hexdigest()
    return (int(digest[:16], 16) ^ int(seed)) & (2**63 - 1)


def _prepare(problem, method, retraction):
    try:
        optim_method, flat = _METHOD_MAP[method]
    except KeyError:
        raise UnknownMethod(method)
    obj = problem.objective
    if flat:
        obj = dataclasses.replace(obj, domain=Euclidean(len(problem.x0)))
    elif isinstance(obj.domain, Sphere) and obj.domain.retraction != retraction:
        obj = dataclasses.replace(
            obj, domain=Sphere(obj.domain.ambient_dim, retraction)
        )
    return obj, optim_method, flat


def run_scenario(scenario_id, method, iters=None, seed=0, retraction="projective",
                 bt_params=None, nq_params=None, lr=DEFAULT_LR, grad_tol=1e-10,
                 random_deltas=False, return_trace=False):
    """One (scenario, method) cell, deterministic for a given seed."""
    problems = builtin_problems()
    if scenario_id not in problems:
        raise UnknownScenario(scenario_id)
    problem = problems[scenario_id]
    obj, optim_method, flat = _prepare(problem, method, retraction)
    if iters is None:
        iters = default_iters(scenario_id, method)
    # Steppers without parameters ignore them.
    params = nq_params if optim_method == "new_q_newton" else bt_params
    result, trace = _run_branch(obj, scenario_id, method, iters, seed, problem.x0,
                                lr=lr, params=params, grad_tol=grad_tol,
                                random_deltas=random_deltas)
    if flat:
        true_domain = problem.objective.domain
        for rec in trace.records:
            if np.all(np.isfinite(rec.point)) and not true_domain.contains(rec.point):
                result.flags.add("left_domain_would")
                break
    if return_trace:
        return result, trace
    return result


def corpus(seed=42, retraction="projective"):
    """Every catalog scenario crossed with every method, run serially in
    a fixed order, with per-cell seeds derived from the corpus seed."""
    return [
        run_scenario(sid, method, seed=_cell_seed(seed, sid, method),
                     retraction=retraction)
        for sid in builtin_problems()
        for method in METHOD_ORDER
    ]


def _comparison_value(result):
    # Failed or diverged branches compare as +inf.
    v = result.final_value
    return v if math.isfinite(v) else math.inf


def _run_branch(obj, label, method, iters, seed, x0, lr=DEFAULT_LR, params=None,
                grad_tol=1e-10, random_deltas=False):
    """One run of ``method`` on ``obj.domain``; returns (result, trace)."""
    stop = StopCriteria(grad_tol=grad_tol, max_iters=iters,
                        divergence_norm=DIVERGENCE_NORM)
    trace = run(obj.domain, obj, x0, _METHOD_MAP[method][0], params=params,
                stop=stop, rng=np.random.default_rng(seed), lr=lr,
                random_deltas=random_deltas)
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
    replaced per branch.  ``methods`` may be a single tag or an
    iterable; each branch keeps its best result across the tags.
    """
    if isinstance(methods, str):
        methods = (methods,)
    for m in methods:
        if m not in _METHOD_MAP:
            raise UnknownMethod(m)
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


def smallest_eigenvalue(A, method="r_new_q_newton", iters=100, seed=0,
                        restarts=5, retraction="projective"):
    """Smallest eigenvalue of a symmetric A and a unit vector achieving
    it, found by minimizing <Ax,x>/2 over the sphere.

    Critical points of that objective are exactly the unit eigenvectors,
    and its minimum is half the smallest eigenvalue.  A deterministic
    run can still stall on a non-minimal eigenvector, so up to
    ``restarts`` seeded starts are tried; once two starts agree on the
    lowest value found, the search stops early.
    """
    if not isinstance(A, SymMatrix):
        A = SymMatrix(A)
    if method not in _METHOD_MAP or _METHOD_MAP[method][1]:
        raise UnknownMethod(method)
    obj = QuadraticForm(A).to_objective(Sphere(A.dim, retraction), name="rayleigh")
    rng = np.random.default_rng(seed)
    best_value = math.inf
    best_point = None
    confirmations = 0
    for attempt in range(max(1, int(restarts))):
        x0 = rng.standard_normal(A.dim)
        while np.linalg.norm(x0) < 1e-6:
            x0 = rng.standard_normal(A.dim)
        x0 /= np.linalg.norm(x0)
        res, _ = _run_branch(obj, "eig[%d]" % A.dim, method, iters,
                             seed + 1000 + attempt, x0)
        v = _comparison_value(res)
        if v < best_value - 1e-6 * (1.0 + abs(best_value)):
            best_value, best_point = v, res.final_point
            confirmations = 0
        elif v <= best_value + 1e-6 * (1.0 + abs(best_value)):
            confirmations += 1
            if best_point is None:
                best_value, best_point = v, res.final_point
        if confirmations >= 1 and attempt >= 1:
            break
    return 2.0 * best_value, best_point
