#!/usr/bin/env python3
"""
Smallest eigenvalue of a symmetric matrix by descent on the sphere.

The Rayleigh quotient trick: critical points of f(x) = <Ax, x>/2 on the
unit sphere are exactly the unit eigenvectors of A, and the global
minimum value is half the smallest eigenvalue.  So a descent method
that provably avoids saddle points doubles as an eigenvalue solver.
This script walks one indefinite 3x3 matrix through three solvers and
checks them against a dense eigendecomposition.
"""
import numpy as np

from manifold_descent import (
    QuadraticForm,
    Sphere,
    smallest_eigenvalue,
    run,
)
from manifold_descent.linalg import SymMatrix

A = SymMatrix([
    [-23.0, -61.0, 40.0],
    [-61.0, -39.5, 155.0],
    [40.0, 155.0, -50.0],
])

print("matrix:")
for row in A.entries:
    print("   [%8.1f %8.1f %8.1f]" % tuple(row))

eigenvalues = np.linalg.eigvalsh(A.entries)
print("\ndense eigendecomposition: eigenvalues %s" %
      np.array2string(eigenvalues, precision=6))

# The application entry point: one seeded run whose value is certified
# from its last Newton step (a Schur complement of the shifted matrix,
# with one Cholesky factorization as the fallback); restarts only when
# the certificate fails.
for method in ("r_new_q_newton", "r_backtracking"):
    lam, vec = smallest_eigenvalue(A, method=method, seed=0)
    print("%-18s lambda_min = %.10f   vector = %s" %
          (method, lam, np.array2string(vec, precision=6)))

# The same computation by hand, to show what the iterates do.  Descent
# runs on the 2-sphere with the geodesic (great-circle) retraction.
obj = QuadraticForm(A).to_objective(Sphere(3, "geodesic"), name="rayleigh")
x0 = np.array([1.0, 0.0, 0.0])
trace = run(obj, x0, "new_q_newton")

print("\nby-hand run from (1, 0, 0), geodesic retraction:")
print("  %4s  %16s  %12s" % ("iter", "f", "|rgrad|"))
for rec in trace.records:
    print("  %4d  %16.10f  %12.3e" % (rec.iter, rec.f_value, rec.rgrad_norm))
print("terminated: %s after %d steps" % (trace.termination.value, trace.steps))
print("2 * final value = %.10f  (smallest eigenvalue is %.10f)" %
      (2.0 * trace.final_value, eigenvalues[0]))

err = abs(2.0 * trace.final_value - eigenvalues[0])
assert err < 1e-8, "descent disagrees with the dense solver by %.3g" % err
print("\nagreement to %.1e" % max(err, 1e-16))
