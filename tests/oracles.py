"""Test oracles shared by the test modules."""

import json

import numpy as np

from manifold_descent.linalg import RELATIVE_EIG_TOL, SymMatrix, sym_eig


def fd_gradient(obj, x, h=1e-6):
    """Central-difference gradient of obj.value at x."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return g


def sphere_tangent_basis(x):
    """An orthonormal basis of the sphere's T_x as columns, from the SVD
    of x: a reference independent of the backend's Householder basis."""
    _, _, vt = np.linalg.svd(np.asarray(x, dtype=float).reshape(1, -1))
    return vt[1:].T


def lift_matrix(lift, k):
    """The m x k matrix whose columns are the lifts of the k coordinate
    vectors: the tangent basis a backend's lift stands for."""
    return np.column_stack([lift(e) for e in np.eye(k)])


def first_invertible_inverse(H, g, rho, deltas):
    """Decompose each candidate H + d*rho*I on its own, in the order of
    ``deltas``, and solve the first one that clears the relative gate
    min|lambda| > RELATIVE_EIG_TOL * (1 + max|lambda|) against g.
    Returns the candidate's ``(eigenvalues, eigenvectors)`` pair, as
    ``sym_eig`` gives it, and the solution."""
    for d in deltas:
        lam, U = sym_eig(SymMatrix(H.entries + d * rho * np.eye(H.dim)))
        a = np.abs(lam)
        if a.min() > RELATIVE_EIG_TOL * (1.0 + a.max()):
            break
    return (lam, U), U @ ((U.T @ g) / lam)


def moved_cells(report, recording):
    """The "scenario/method" cells whose records differ between two corpus
    JSON reports, or that only one of them has, in report order."""
    old, new = ({(c["scenario_id"], c["method"]): c for c in json.loads(text)}
                for text in (recording, report))
    return ["%s/%s" % key for key in {**new, **old}
            if old.get(key) != new.get(key)]
