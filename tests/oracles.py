"""Test oracles shared by the test modules."""

import ctypes
import glob
import json
import math
import os
import pathlib
import sys

import numpy as np

from manifold_descent.bench import METHOD_ORDER, _cell_seed, run_scenario
from manifold_descent.cli import _report_json
from manifold_descent.linalg import (RELATIVE_EIG_TOL, SYMMETRY_RTOL, TINY_NORM, NonFinite,
                                     SymMatrix, sym_eig)
from manifold_descent.manifold import (GEODESIC_ZERO_NORM, SPHERE_TANGENCY_RTOL,
                                       Euclidean, NotTangent, Sphere, StepTooLarge,
                                       open_ball)
from manifold_descent.objective import Objective, Problem, QuadraticForm, negate
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


def tangent_project(M, x, u):
    """The orthogonal projection of u onto T_x, as the backends' removed
    ``_tangent_project`` computed it, verbatim: a copy of u on an open
    subset, and on the sphere the twice-projected formula that
    ``Sphere.egrad2rgrad`` now carries.  The reference that
    ``egrad2rgrad`` must match, and the projection the derivative checks
    apply to finite differences."""
    if not isinstance(M, Sphere):
        return np.asarray(u, dtype=float).copy()
    u = np.asarray(u, dtype=float)
    # Projected twice: one pass leaves a normal residue on the order
    # of eps*|u|, which fails the tangency gate once the tangent part
    # is much smaller than u itself.
    w = u - (u @ x) * x
    return w - (w @ x) * x


def sphere_tangent_hessian(x, H, g, egrad):
    """``Sphere.tangent_hessian`` as it built its rank-two update as C + C.T
    with C = u w^T, verbatim.  The reference for the update built in one
    buffer, which must give the same bits."""
    u = x.copy()
    u[-1] += 1.0 if x[-1] >= 0.0 else -1.0
    tau = 2.0 / (u @ u)
    p = tau * (H.entries @ u)
    w = p - (0.5 * tau * (u @ p)) * u
    ut = u[:-1]
    C = ut[:, None] * w[:-1]
    B = H.entries[:-1, :-1] - (C + C.T)
    B.reshape(-1)[::len(ut) + 1] -= egrad(x) @ x

    def lift(y):
        v = (-tau * (ut @ y)) * u
        v[:-1] += y
        return v

    return SymMatrix._from_symmetric(B), g[:-1] - (tau * (u @ g)) * ut, lift


def sphere_retract(M, x, v, r):
    """``Sphere._retract`` as it took |v| from ``_norm(v)`` at every step,
    verbatim (M is the Sphere).  The reference for the retraction that
    reuses v.v for |v| wherever _norm would return sqrt(v.v)."""
    vv = v.dot(v)
    # Not sqrt(vv): below about 1e-154 the squares underflow to 0
    # while v @ x does not, and a tangent step would fail the gate.
    vn = _norm(v)
    if abs(v @ x) > SPHERE_TANGENCY_RTOL * vn:
        raise NotTangent("vector has a normal component: <v,x> = %g" % (v @ x))
    if not vn < r:
        raise StepTooLarge("step norm %g reaches the radius pi" % vn)
    if M.retraction == "projective":
        return (x + v) / math.sqrt(1.0 + vv)
    if vn < GEODESIC_ZERO_NORM:
        return x.copy()
    return np.cos(vn) * x + (np.sin(vn) / vn) * v


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


def abs_gate(abs_eigenvalues):
    """The Newton gate as it read |mu|, verbatim: True when min|mu| >
    RELATIVE_EIG_TOL * (1 + max|mu|), NonFinite when max|mu| is inf or
    nan.  The reference for ``linalg._clears_gate``, which reads the
    ends of the signed ascending spectrum instead."""
    # One max for the tolerance and the finiteness test (it propagates nan).
    top = abs_eigenvalues.max()
    if not top < math.inf:
        raise NonFinite("regularized eigenvalues are not finite")
    return bool(abs_eigenvalues.min() > RELATIVE_EIG_TOL * (1.0 + top))


def shifted_gate(lam, shift):
    """The gate as the Newton core called it, verbatim: the shifted
    spectrum mu = lam + shift is built first (lam itself for a shift of
    0) and the gate decides on |mu|.  Returns |mu| or None; NonFinite as
    ``abs_gate``.  The reference for ``linalg._clears_gate(lam, shift)``."""
    mu = lam + shift if shift else lam
    a = np.abs(mu)
    return a if abs_gate(a) else None


def norm_reference(v):
    """``linalg._norm`` before its 1-vector case, verbatim: sqrt(v.v),
    rescaled by max|v| when the squares of a finite v overflow or
    underflow."""
    n = math.sqrt(v.dot(v))
    if (n < TINY_NORM or n == math.inf) and np.isfinite(v).all():
        s = float(np.abs(v).max())
        if s > 0.0:
            v = v / s
            return s * math.sqrt(v.dot(v))
    return n


def sym_matrix_entries(entries):
    """The entries ``SymMatrix(entries)`` froze when it averaged every
    matrix, verbatim from its ``__init__``: the reference for the
    constructor's bytes and for the inputs it refuses."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    if not np.isfinite(a).all():
        raise NonFinite("matrix entries must be finite")
    with np.errstate(over="ignore"):
        # M - M^T is antisymmetric bit for bit (rounding to nearest is
        # odd), so its largest entry is max|M - M^T|, without the pass
        # that takes |.|.
        asym = (a - a.T).max() if a.size else 0.0
        s = 0.5 * (a + a.T)
    if asym > 0.0:
        tol = SYMMETRY_RTOL * np.abs(a).max()
        if asym > tol:
            raise ValueError(
                "matrix is asymmetric beyond %g (max |M - M^T| = %g)"
                % (tol, asym)
            )
    # A sum that overflows is of two equal entries, which passed the gate.
    np.copyto(s, a, where=np.isinf(s))
    return s


def cholesky_callers(monkeypatch):
    """Wrap np.linalg.cholesky for one test and return the list that
    records, per call, the name of the function that asked for it: the
    caller of ``linalg._positive_definite``, the one function that
    factors, or the function that called np.linalg.cholesky itself."""
    calls = []
    inner = np.linalg.cholesky

    def counted(a):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_positive_definite":
            frame = frame.f_back
        calls.append(frame.f_code.co_name)
        return inner(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def decomposing_eig():
    """A drop-in for ``optim._reusing_eig`` that keeps no decomposition:
    the eig it returns calls ``sym_eig`` at every step that needs one.  It
    is a fresh function per run, so the solve a step leaves on it
    (``pd_solve``) stays with that run."""
    def eig(H):
        return sym_eig(H)

    eig.pd_solve = None
    return eig


def certified_on_A(A, lam):
    """``bench._certified`` as it read A itself, verbatim: True when one
    Cholesky factorization proves that lam lies within tau = 1e-8 * s *
    ||A/s||_F (s = max|a_ij|) of the smallest eigenvalue of the SymMatrix
    A.  The reference for the certificate on the scaled copy A/2^k."""
    if not math.isfinite(lam):
        return False
    s = float(np.max(np.abs(A.entries)))
    if s == 0.0:
        return False
    S = A.entries / s
    S.reshape(-1)[::A.dim + 1] -= lam / s - 1e-8 * float(np.linalg.norm(S))
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(L)))


def _openblas_call(symbols, restype):
    # The first of ``symbols`` that the OpenBLAS NumPy's wheel bundles
    # exports, called with no arguments; None when there is none to ask.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def blas_threads():
    """The thread count of the OpenBLAS that NumPy's wheel bundles, or
    None when there is none to ask (as perfbench/record.py reads it)."""
    return _openblas_call(("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"),
                          ctypes.c_int)


def blas_core():
    """The name of the CPU kernel that OpenBLAS picked when it loaded (a
    DYNAMIC_ARCH build picks by CPU, and OPENBLAS_CORETYPE overrides it),
    or None when there is none to ask.  Kernels round differently, so
    the bit recordings under tests/ hold on the kernel they were made
    with."""
    name = _openblas_call(("scipy_openblas_get_corename64_",
                           "openblas_get_corename64_", "openblas_get_corename"),
                          ctypes.c_char_p)
    return None if name is None else name.decode()


# The OpenBLAS kernel the bit recordings under tests/ were made with.
RECORDED_CORE = json.loads(pathlib.Path(__file__).with_name("eig_seed_bits.json")
                           .read_text())["about"]["blas_core"]


def core_note():
    """For a bit test's failure message: the kernel running and the one
    the recordings were made with."""
    return "OpenBLAS core %s, recorded under %s" % (blas_core(), RECORDED_CORE)


# The fields of a corpus record that are a run's outcome; the others,
# final_point and final_value, can move in their last bits alone.
OUTCOME_FIELDS = ("steps", "termination", "flags")


def moved_cells(report, recording):
    """The cells whose records differ between two corpus JSON reports, in
    report order, each as "scenario/method[field,...]" naming the fields
    that moved, or "scenario/method[absent]" for a cell that only one of
    them has."""
    old, new = ({(c["scenario_id"], c["method"]): c for c in json.loads(text)}
                for text in (recording, report))
    moved = []
    for key in {**new, **old}:
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            fields = ["absent"]
        else:
            fields = [f for f in {**b, **a} if a.get(f) != b.get(f)]
        if fields:
            moved.append("%s/%s[%s]" % (key + (",".join(fields),)))
    return moved


def moved_message(moved):
    """The assertion message for moved cells: whether an outcome moved
    (steps, termination, flags, or a cell gone or added) or only bits."""
    outcome = [c for c in moved if set(c[c.rindex("[") + 1:-1].split(","))
               & set(OUTCOME_FIELDS + ("absent",))]
    return "%s; cells moved: %s" % (
        "outcomes moved in %d of them" % len(outcome) if outcome
        else "only bits moved", ", ".join(moved))


def armijo_trial(M, obj, x, fx, g, gn, r, alpha, delta):
    """One backtracking trial at step size delta: None when delta |g|
    fails the radius gate (nothing is evaluated) or the trial point fails
    Armijo, else the trial point and f there.  f is the objective's
    restriction to span{x, -g} at M's coefficients when it has one (and
    the trial that passes is retracted and handed to it as the landed
    point), else f at the retracted point, as the line search reads it."""
    if delta * gn < 0.5 * r:
        phi = obj.restriction_fn and obj.restriction_fn(x, -g)
        if phi is None:
            x_new = M._retract(x, -delta * g, r)
            f_new = obj.value(x_new)
        else:
            a, b = M._span_coefficients(delta, gn)
            f_new = phi(a, b)
        if f_new - fx <= armijo_rhs(alpha, delta, gn):
            if phi is not None:
                x_new = M._retract(x, -delta * g, r)
                phi(a, b, x_new)
            return x_new, f_new
    return None


def top_down_line_search(M, obj, x, fx, g, gn, r, alpha, grid, s):
    """The reference line search: scan the grid from delta0 down and
    accept the first trial that passes.  A drop-in for
    ``optim._line_search`` that ignores the start index s, and that asks
    the objective for its restriction at each trial."""
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


# Generated problems above the catalog's dimension 3, run with the six
# Newton-family tags and recorded by the corpus JSON writer in
# tests/generated_newton.json, and with the three gradient tags in
# tests/generated_gradient.json; the two sphere problems, run with all
# nine tags and the geodesic retraction, in tests/generated_geodesic.json.
# Re-record (only for a change meant to move bits, listing the cells that
# moved) with
#   PYTHONPATH=src:tests python -c "import oracles; print(oracles.generated_report())" \
#       > tests/generated_newton.json
#   PYTHONPATH=src:tests python -c \
#       "import oracles; print(oracles.generated_report(oracles.GRADIENT_TAGS))" \
#       > tests/generated_gradient.json
#   PYTHONPATH=src:tests python -c \
#       "import oracles; print(oracles.generated_geodesic_report())" \
#       > tests/generated_geodesic.json
GENERATED_ITERS = 12
GENERATED_SEED = 24
NEWTON_TAGS = METHOD_ORDER[:6]
GRADIENT_TAGS = METHOD_ORDER[6:]
GENERATED_SPHERES = ("rayleigh_S20", "rayleigh_S60")


def quartic(A, b, c, domain, name=""):
    """f = x^T A x/2 + b^T x + c sum x_i^4 on domain, for an exactly
    symmetric A and c >= 0.  Its lipschitz_fn is |A|_2 + 12c (|x| +
    r/2)^2, r the domain's radius at x: the Hessian is A + 12c diag(y^2),
    and |y| <= |x| + r/2 on the ball B(x, r/2).  On Euclidean(m), where
    r is inf, the bound is inf."""
    norm_A = float(np.linalg.norm(A, 2))

    def value(x):
        return 0.5 * float(x @ A @ x) + float(b @ x) + c * float(np.sum(x ** 4))

    def grad(x):
        return A @ x + b + 4.0 * c * x ** 3

    def hess(x):
        return SymMatrix._from_symmetric(A + np.diag(12.0 * c * x ** 2))

    def lipschitz(x):
        return norm_A + 12.0 * c * (math.sqrt(x.dot(x)) + 0.5 * domain.radius(x)) ** 2

    return Objective(value, grad, hess, domain, lipschitz, name=name)


def generated_problems():
    """Seeded problems of dimension 5-60 as catalog entries (no sampler):
    the quartic x^T A x/2 + b^T x + c sum x_i^4 with an indefinite A on
    Euclidean(m) and open_ball(m) for m = 5, 20, 40; the Rayleigh
    quotient x^T A x/2 on Sphere(m) for m = 20, 60; and the negated,
    concave quartic with A positive definite on open_ball(5).  Their
    Newton candidates take every branch of the gate: positive, negative
    and straddling spectra, and from dimension 16 the Cholesky path."""
    problems = {}
    for m in (5, 20, 40):
        rng = np.random.default_rng([GENERATED_SEED, m])
        B = rng.standard_normal((m, m))
        A = 0.5 * (B + B.T)
        b = 0.1 * rng.standard_normal(m)
        u = rng.standard_normal(m)
        x0 = 0.5 * u / np.linalg.norm(u)
        for tag, domain in (("R", Euclidean(m)), ("B", open_ball(m))):
            sid = "quartic_%s%d" % (tag, m)
            problems[sid] = Problem(quartic(A, b, 0.25, domain, sid), x0, None)
    for m in (20, 60):
        rng = np.random.default_rng([GENERATED_SEED, m, 1])
        B = rng.standard_normal((m, m))
        u = rng.standard_normal(m)
        sid = "rayleigh_S%d" % m
        problems[sid] = Problem(
            QuadraticForm(0.5 * (B + B.T)).to_objective(Sphere(m), name=sid),
            u / np.linalg.norm(u), None)
    rng = np.random.default_rng([GENERATED_SEED, 5, 2])
    B = rng.standard_normal((5, 5))
    P = B @ B.T / 5.0 + np.eye(5)
    u = rng.standard_normal(5)
    sid = "concave_B5"
    problems[sid] = Problem(
        negate(quartic(0.5 * (P + P.T), 0.1 * rng.standard_normal(5), 0.25,
                        open_ball(5), sid), name=sid),
        0.5 * u / np.linalg.norm(u), None)
    for p in problems.values():
        p.x0.setflags(write=False)
    return problems


def generated_report(tags=NEWTON_TAGS, sids=None, retraction="projective"):
    """The corpus JSON report of the generated problems ``sids`` (all of
    them by default) crossed with ``tags``, GENERATED_ITERS steps each,
    the sphere problems with ``retraction``.  r_local_backtracking runs
    only where the problem's lipschitz_fn is finite at x0: not on
    Euclidean(m), whose quartic has no finite bound."""
    problems = generated_problems()
    return _report_json([
        run_scenario(sid, method, iters=GENERATED_ITERS,
                     seed=_cell_seed(GENERATED_SEED, sid, method),
                     retraction=retraction, _problems=problems)
        for sid, p in problems.items() if sids is None or sid in sids
        for method in tags
        if method != "r_local_backtracking"
        or math.isfinite(p.objective.lipschitz_fn(p.x0))
    ])


def generated_geodesic_report():
    """The sphere problems of ``generated_problems`` crossed with all nine
    tags under the geodesic retraction (the flat tags run on R^m as in
    the corpus)."""
    return generated_report(METHOD_ORDER, GENERATED_SPHERES, "geodesic")
