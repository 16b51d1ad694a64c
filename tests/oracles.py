"""Test oracles shared by the test modules."""

import json
import math

import numpy as np

from manifold_descent.linalg import RELATIVE_EIG_TOL, SymMatrix, sym_eig
from manifold_descent.optim import (
    MAX_LINE_SEARCH,
    LineSearchExhausted,
    _norm,
    armijo_rhs,
)


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


def decomposing_eig():
    """A drop-in for ``optim._reusing_eig`` that keeps nothing: the eig it
    returns is ``sym_eig`` itself, so a run makes a fresh decomposition at
    every step that needs one."""
    return sym_eig


def moved_cells(report, recording):
    """The "scenario/method" cells whose records differ between two corpus
    JSON reports, or that only one of them has, in report order."""
    old, new = ({(c["scenario_id"], c["method"]): c for c in json.loads(text)}
                for text in (recording, report))
    return ["%s/%s" % key for key in {**new, **old}
            if old.get(key) != new.get(key)]


def armijo_trial(M, obj, x, fx, g, gn, r, alpha, delta):
    """One backtracking trial at step size delta: None when delta |g|
    fails the radius gate (nothing is evaluated) or the trial point fails
    Armijo, else the trial point and f there."""
    if delta * gn < 0.5 * r:
        x_new = M._retract(x, -delta * g, r)
        f_new = obj.value(x_new)
        if f_new - fx <= armijo_rhs(alpha, delta, gn):
            return x_new, f_new
    return None


def top_down_line_search(M, obj, x, fx, g, gn, r, alpha, grid, s):
    """The reference line search: scan the grid from delta0 down and
    accept the first trial that passes.  A drop-in for
    ``optim._line_search`` that ignores the start index s."""
    for j, delta in enumerate(grid):
        hit = armijo_trial(M, obj, x, fx, g, gn, r, alpha, delta)
        if hit is not None:
            x_new, f_new = hit
            return j, (x_new, delta, _norm(delta * g), False, f_new)
    raise LineSearchExhausted("no step accepted (|grad| = %g)" % gn)


def backtracking_grid(params):
    """The line search's step sizes delta0 beta^j, j = 0..MAX_LINE_SEARCH,
    by the same repeated products."""
    grid = [params.delta0]
    for _ in range(MAX_LINE_SEARCH):
        grid.append(grid[-1] * params.beta)
    return grid


# The membership predicates the OpenSubset domains once took beside their
# radius_fn, verbatim, keyed by the domain they belonged to.  A point is
# now on its domain exactly when r(x) > 0; these are the reference that
# ``contains`` must still agree with.
MEMBER_FNS = {
    "Euclidean": lambda x: True,
    "open_ball": lambda x: math.sqrt(x.dot(x)) < 1.0,
    "punctured_line": lambda t: t[0] != 0.0,
    "example4": lambda z: z[0] != 0.0 and z[1] != 0.0,
    "example5": lambda z: z[0] != 0.0 and z[0] != 1.0,
    "example6": lambda z: z[0] != 0.0,
}


def member_fn_contains(m, member_fn, x):
    """OpenSubset's membership test when it took a member_fn."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if x.shape[0] != m or not np.isfinite(x).all():
            return False
        return bool(member_fn(x))


def sphere_contains(m, x, atol=1e-10):
    """The sphere's membership test before it was r(x) > 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return x.shape[0] == m and abs(math.sqrt(x.dot(x)) - 1.0) <= atol
