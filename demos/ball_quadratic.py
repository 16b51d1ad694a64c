#!/usr/bin/env python3
"""
Minimizing an indefinite quadratic over the closed unit ball.

The closed ball is not a manifold, but it splits into two pieces that
are: the open interior and the boundary sphere.  ball_minimize runs a
descent branch on each piece and keeps the better endpoint.  For a
quadratic f(x) = <Ax, x>/2 with a negative eigenvalue the infimum over
the ball sits on the boundary at half the smallest eigenvalue, so the
sphere branch should win; a positive definite A flips the story and
the interior branch walks to the origin.
"""
import numpy as np

from manifold_descent import Euclidean, QuadraticForm, ball_minimize
from manifold_descent.linalg import SymMatrix, sym_eig


def report(tag, out):
    rows = [
        ("interior", out.interior_result),
        ("sphere", out.sphere_result),
        ("best", out.best),
    ]
    print(tag)
    for label, r in rows:
        print("  %-8s  f = %14.8f  after %3d steps  (%s)  at %s" %
              (label, r.final_value, r.steps, r.termination.value,
               np.array2string(np.asarray(r.final_point), precision=5)))


# Indefinite: eigenvalues -225, 0, 112.5.  The ball infimum is -112.5
# on the boundary.
A = SymMatrix([
    [-23.0, -61.0, 40.0],
    [-61.0, -39.5, 155.0],
    [40.0, 155.0, -50.0],
])
obj = QuadraticForm(A).to_objective(Euclidean(3), name="indefinite")
out = ball_minimize(obj, methods=("r_backtracking", "r_new_q_newton"),
                    iters=200, seed=0)
report("indefinite quadratic (infimum on the boundary, -112.5):", out)
lam_min = sym_eig(A)[0][0]
assert abs(out.best.final_value - lam_min / 2.0) < 1e-6
assert out.best.scenario_id.endswith(":sphere")

# Positive definite: the unconstrained minimum 0 is inside the ball,
# so the interior branch wins and the sphere branch is stuck at the
# smallest eigenvalue over unit vectors.
B = SymMatrix(np.diag([1.0, 3.0, 7.0]))
obj = QuadraticForm(B).to_objective(Euclidean(3), name="definite")
out = ball_minimize(obj, methods=("r_backtracking", "r_new_q_newton"),
                    iters=200, seed=0)
print()
report("positive definite quadratic (minimum at the origin):", out)
assert out.best.scenario_id.endswith(":interior")
assert abs(out.best.final_value) < 1e-12
assert abs(out.sphere_result.final_value - 0.5) < 1e-6

print("\nboth branch winners as expected")
