#!/usr/bin/env python3
"""
Why the reflected Newton step matters near saddle points.

Plain Newton solves H w = grad f and steps to x - w.  When H has a
negative eigenvalue that step walks INTO the saddle: on f = <Ax, x>/2
it lands exactly on the critical point in one step, from anywhere.
The regularized variant flips the step's component along the negative
eigenspace, so the same quadratic model pushes the iterate away from
the saddle instead.

Two experiments: a single run pair on an indefinite quadratic over the
open unit ball, then 200 random starts on the unconstrained saddle
f = x^2 - y^2 counting how many runs each method leaves stuck.
"""
import numpy as np

from manifold_descent import (
    Euclidean,
    NewQNewtonParams,
    QuadraticForm,
    StopCriteria,
    Termination,
    run,
    run_scenario,
)
from manifold_descent.linalg import SymMatrix

# A = [[2, 4], [4, 2]] has eigenvalues 6 and -2: the origin is a
# saddle of f = <Ax, x>/2 and the ball infimum -1 sits on the boundary.
for method in ("r_newton", "r_new_q_newton"):
    res, trace = run_scenario("example7", method, iters=50, return_trace=True)
    print("%-16s from (0.1, 0.2):" % method)
    for rec in trace.records[:4]:
        print("    iter %2d   x = (%11.8f, %11.8f)   f = %.8f" %
              (rec.iter, rec.point[0], rec.point[1], rec.f_value))
    if trace.steps > 3:
        print("    ... %d more steps ..." % (trace.steps - 3))
    print("    ends at (%.8f, %.8f), f = %.8f, %s\n" %
          (res.final_point[0], res.final_point[1], res.final_value,
           res.termination.value))

saddle = QuadraticForm(SymMatrix([[2.0, 0.0], [0.0, -2.0]])).to_objective(
    Euclidean(2), name="saddle")
rng = np.random.default_rng(0)
starts = rng.uniform(-1.0, 1.0, size=(200, 2))
stop = StopCriteria(grad_tol=1e-10, max_iters=100)

counts = {}
for method in ("newton", "new_q_newton"):
    params = NewQNewtonParams(deltas=(0.0, 1.0)) if method == "new_q_newton" else None
    trapped = 0
    for x0 in starts:
        tr = run(saddle, x0, method, params=params, stop=stop)
        if (tr.termination == Termination.GRADIENT_TOLERANCE
                and np.linalg.norm(tr.final_point) <= 1e-4):
            trapped += 1
    counts[method] = trapped
    print("%-14s trapped at the saddle of x^2 - y^2: %3d / 200 starts"
          % (method, trapped))

assert counts["newton"] == 200
assert counts["new_q_newton"] == 0
print("\nreflection turns a certain trap into a certain escape")
