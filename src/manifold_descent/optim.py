"""Steppers and the iteration driver.

Six update rules share one driver: backtracking gradient descent, its
evaluation-free local variant, the regularized reflected Newton update,
plain Newton, Newton with a random relaxation factor, and fixed-rate
gradient descent.  Every stepper maps x to (new point, step scalar,
step norm, clamped?), and the new point is reached through the
manifold's retraction with a tangent step strictly shorter than the
retraction radius, so iterates can never leave the manifold.
"""

import dataclasses
import enum
import math

import numpy as np

from .linalg import (
    NonFinite,
    SingularMatrix,
    SymMatrix,
    _solve_eig,
    spectral_split,
    sym_eig,
)
from .manifold import NotOnManifold
from .objective import riemannian_grad, riemannian_hess

MAX_LINE_SEARCH = 200
# Keeps clamped steps strictly inside the retraction ball after rounding.
CLAMP_MARGIN = 1.0 - 1e-9


class MissingLipschitz(ValueError):
    """local_bgd_delta needs obj.lipschitz_fn and none was supplied."""


class LineSearchExhausted(RuntimeError):
    """No step size satisfied the line-search gates within 200 halvings.

    For a continuously differentiable objective some step always works,
    so hitting this means non-finite arithmetic, a bad objective, or
    function differences too small for the floating-point format.
    """


class NoInvertibleRegularizer(RuntimeError):
    """Every candidate regularization left the matrix inside the
    invertibility tolerance."""


class Termination(enum.Enum):
    GRADIENT_TOLERANCE = "GradientTolerance"
    MAX_ITERATIONS = "MaxIterations"
    DIVERGED = "Diverged"
    STOPPED_AT_CRITICAL_POINT = "StoppedAtCriticalPoint"
    LINE_SEARCH_EXHAUSTED = "LineSearchExhausted"
    LEFT_DOMAIN = "LeftDomain"
    SINGULAR_MATRIX = "SingularMatrix"


@dataclasses.dataclass(frozen=True)
class BacktrackingParams:
    alpha: float = 0.5
    beta: float = 0.7
    delta0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not self.delta0 > 0.0:
            raise ValueError("delta0 must be positive")


@dataclasses.dataclass(frozen=True)
class NewQNewtonParams:
    """Knobs for the regularized reflected Newton update.

    ``exponent_a`` is the power in the regularizer scale |grad|^a,
    ``deltas`` the candidate coefficients tried in order, ``gamma``
    an optional strictly increasing sequence (as a callable on j) used
    to cap steps on bounded-radius manifolds; None means gamma_j = j.
    ``clamp_grad_power`` caps the regularizer scale at 1.
    """

    exponent_a: float = 2.0
    deltas: tuple = (0.0, 1.0)
    gamma: object = None
    clamp_grad_power: bool = True

    def __post_init__(self):
        if not self.exponent_a > 1.0:
            raise ValueError("exponent_a must exceed 1")
        ds = tuple(float(d) for d in self.deltas)
        if len(ds) == 0 or len(set(ds)) != len(ds):
            raise ValueError("deltas must be nonempty and pairwise distinct")
        object.__setattr__(self, "deltas", ds)
        if self.gamma is not None:
            if self.gamma(0) != 0.0 or self.gamma(1) != 1.0:
                raise ValueError("gamma must satisfy gamma(0)=0 and gamma(1)=1")
            if not self.gamma(2) > self.gamma(1):
                raise ValueError("gamma must be strictly increasing")


@dataclasses.dataclass(frozen=True)
class StopCriteria:
    grad_tol: float = 1e-10
    max_iters: int = 500
    divergence_norm: float = 1e12
    step_tol: float = 0.0

    def __post_init__(self):
        if self.grad_tol < 0 or self.step_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.divergence_norm > 0:
            raise ValueError("divergence_norm must be positive")


@dataclasses.dataclass(frozen=True)
class IterateRecord:
    iter: int
    point: np.ndarray
    f_value: float
    rgrad_norm: float
    step_size: float
    step_norm: float


@dataclasses.dataclass
class IterateTrace:
    records: list
    termination: Termination
    flags: set

    @property
    def final_point(self):
        return self.records[-1].point

    @property
    def final_value(self):
        return self.records[-1].f_value

    @property
    def steps(self):
        return self.records[-1].iter


def armijo_rhs(alpha, delta, grad_norm):
    """Right-hand side of the sufficient-decrease test, kept in one
    place so checks outside the line search reproduce it bit for bit."""
    return -alpha * delta * grad_norm * grad_norm


def _line_search(M, obj, x, params):
    g = riemannian_grad(obj, x)
    gn = float(np.linalg.norm(g))
    fx = obj.value(x)
    r = M.radius(x)
    delta = params.delta0
    for _ in range(MAX_LINE_SEARCH + 1):
        if delta * gn < 0.5 * r:
            x_new = M.retract(x, -delta * g)
            if obj.value(x_new) - fx <= armijo_rhs(params.alpha, delta, gn):
                return delta, g, gn, x_new
        delta *= params.beta
    raise LineSearchExhausted(
        "no step accepted after %d reductions (|grad| = %g)" % (MAX_LINE_SEARCH, gn)
    )


def armijo_delta(M, obj, x, params=None):
    """Largest delta in {beta^j delta0} passing both the radius gate
    delta |g| < r(x)/2 and the sufficient-decrease test."""
    params = params or BacktrackingParams()
    delta, _, _, _ = _line_search(M, obj, x, params)
    return delta


def _backtracking_step(M, obj, x, params):
    delta, g, gn, x_new = _line_search(M, obj, x, params)
    return x_new, delta, float(np.linalg.norm(delta * g)), False


def _local_bgd_search(M, obj, x, params):
    if obj.lipschitz_fn is None:
        raise MissingLipschitz("objective has no lipschitz_fn")
    bound = params.alpha / float(obj.lipschitz_fn(x))
    g = riemannian_grad(obj, x)
    gn = float(np.linalg.norm(g))
    r = M.radius(x)
    delta = params.delta0
    for _ in range(MAX_LINE_SEARCH + 1):
        if delta < bound and delta * gn < 0.5 * r:
            return delta, g
        delta *= params.beta
    raise LineSearchExhausted(
        "no step satisfied the Lipschitz and radius gates (L bound %g)" % bound
    )


def local_bgd_delta(M, obj, x, params=None):
    """Largest delta in {beta^j delta0} with delta < alpha/L(x) and
    delta |g| < r(x)/2.  Needs no objective evaluations."""
    params = params or BacktrackingParams()
    delta, _ = _local_bgd_search(M, obj, x, params)
    return delta


def _local_bgd_step(M, obj, x, params):
    delta, g = _local_bgd_search(M, obj, x, params)
    step = -delta * g
    return M.retract(x, step), delta, float(np.linalg.norm(step)), False


def _gamma_cap(gamma, vn, r):
    # Find j with gamma_j * r/2 <= |v| < gamma_{j+1} * r/2, return
    # 1/gamma_{j+1}.  The default sequence gamma_j = j admits a direct
    # formula; a user-supplied sequence is scanned.
    if gamma is None:
        return 1.0 / (math.floor(2.0 * vn / r) + 1.0)
    j = 0
    while not (gamma(j) * 0.5 * r <= vn < gamma(j + 1) * 0.5 * r):
        j += 1
        if j > 10**6:
            raise ValueError("gamma sequence never brackets step norm %g" % vn)
    return 1.0 / gamma(j + 1)


def _new_q_newton_step(M, obj, x, params):
    g = riemannian_grad(obj, x)
    gn = float(np.linalg.norm(g))
    H = riemannian_hess(obj, x)
    rho = gn**params.exponent_a
    if params.clamp_grad_power:
        rho = min(rho, 1.0)
    E = None
    for d in params.deltas:
        cand = SymMatrix(H.entries + (d * rho) * np.eye(H.dim))
        Ec = sym_eig(cand)
        if Ec.is_invertible():
            E = Ec
            break
    if E is None:
        raise NoInvertibleRegularizer(
            "all %d regularizers stayed singular (|grad| = %g)"
            % (len(params.deltas), gn)
        )
    w = _solve_eig(E, g)
    w_plus, w_minus = spectral_split(E, w)
    # Reflecting the negative-eigenspace part makes v an ascent
    # direction, so -v descends and walks away from saddles.
    v = w_plus - w_minus
    # Rounding can leave a normal component whose solve amplification
    # grows like 1/(delta*rho) near critical points; project it out.
    v = M.tangent_project(x, v)
    r = M.radius(x)
    if np.isinf(r):
        lam = 1.0
    else:
        lam = _gamma_cap(params.gamma, float(np.linalg.norm(v)), r)
    step = -lam * v
    return M.retract(x, step), lam, float(np.linalg.norm(step)), False


def _newton_direction(M, obj, x):
    g = riemannian_grad(obj, x)
    H = riemannian_hess(obj, x)
    Q = M.tangent_basis(x)
    if Q is not None:
        # The ambient extension keeps the normal directions in its
        # kernel, so solve inside the tangent space instead.
        Ht = Q.T @ H.entries @ Q
        H, g = SymMatrix(0.5 * (Ht + Ht.T)), Q.T @ g
    E = sym_eig(H)
    if not E.is_invertible():
        raise SingularMatrix("Hessian is numerically singular")
    w = _solve_eig(E, g)
    return w if Q is None else Q @ w


def _clamp_to_ball(w, r, limit=None):
    # Scale w to half the radius when its norm reaches ``limit`` (the
    # radius by default); returns (vector, scale, clamped?).
    wn = float(np.linalg.norm(w))
    if np.isfinite(r) and wn >= (r if limit is None else limit):
        scale = 0.5 * r * CLAMP_MARGIN / wn
        return w * scale, scale, True
    return w, 1.0, False


def _newton_step(M, obj, x):
    w = _newton_direction(M, obj, x)
    w, scale, clamped = _clamp_to_ball(w, M.radius(x))
    step = -w
    return M.retract(x, step), scale, float(np.linalg.norm(step)), clamped


def _random_newton_step(M, obj, x, rng):
    kappa = float(rng.uniform(0.0, 2.0))
    w = kappa * _newton_direction(M, obj, x)
    w, scale, clamped = _clamp_to_ball(w, M.radius(x))
    step = -w
    return M.retract(x, step), kappa * scale, float(np.linalg.norm(step)), clamped


def _standard_gd_step(M, obj, x, lr):
    g = riemannian_grad(obj, x)
    r = M.radius(x)
    v, scale, clamped = _clamp_to_ball(-lr * g, r, limit=0.5 * r)
    return M.retract(x, v), lr * scale, float(np.linalg.norm(v)), clamped


METHODS = (
    "backtracking",
    "local_backtracking",
    "new_q_newton",
    "newton",
    "random_newton",
    "standard_gd",
)


def _make_stepper(M, obj, method, params, rng, lr, random_deltas):
    if method in ("backtracking", "local_backtracking"):
        params = params or BacktrackingParams()
        if method == "backtracking":
            return lambda x: _backtracking_step(M, obj, x, params)
        return lambda x: _local_bgd_step(M, obj, x, params)
    if method == "new_q_newton":
        params = params or NewQNewtonParams()
        if random_deltas:
            # Draw the regularizer coefficients once per run from (0, 1].
            drawn = tuple(1.0 - rng.uniform(0.0, 1.0) for _ in params.deltas)
            params = dataclasses.replace(params, deltas=drawn)
        return lambda x: _new_q_newton_step(M, obj, x, params)
    if method == "newton":
        return lambda x: _newton_step(M, obj, x)
    if method == "random_newton":
        return lambda x: _random_newton_step(M, obj, x, rng)
    if method == "standard_gd":
        return lambda x: _standard_gd_step(M, obj, x, lr)
    raise ValueError("unknown method %r" % (method,))


def run(M, obj, x0, method, params=None, stop=None, rng=None, lr=0.001,
        random_deltas=False):
    """Iterate one stepper from x0 until a stopping rule fires.

    Returns an IterateTrace whose first record is the initial point.
    Stepper failures are not raised; they terminate the trace with the
    matching reason (LineSearchExhausted, SingularMatrix).
    """
    stop = stop or StopCriteria()
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x0, dtype=float)
    if not M.contains(x):
        raise NotOnManifold("initial point is not on the manifold")
    stepper = _make_stepper(M, obj, method, params, rng, lr, random_deltas)

    gn0 = float(np.linalg.norm(riemannian_grad(obj, x)))
    records = [IterateRecord(0, x.copy(), obj.value(x), gn0, 0.0, 0.0)]
    flags = set()
    if gn0 <= stop.grad_tol:
        return IterateTrace(records, Termination.STOPPED_AT_CRITICAL_POINT, flags)

    termination = Termination.MAX_ITERATIONS
    # Divergent runs are allowed to saturate to inf/nan; the checks
    # below catch that, so the fp warnings are pure noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(1, stop.max_iters + 1):
            try:
                x_new, scalar, step_norm, clamped = stepper(x)
            except LineSearchExhausted:
                termination = Termination.LINE_SEARCH_EXHAUSTED
                break
            except (SingularMatrix, NoInvertibleRegularizer):
                termination = Termination.SINGULAR_MATRIX
                break
            except NonFinite:
                # Derivative values left the representable range (for
                # instance a power-law Hessian blowing up near a kink).
                termination = Termination.DIVERGED
                break
            if clamped:
                flags.add("clamped")
            # Only points on the manifold enter the trace; a step that
            # lands off it (rounding at an open boundary) ends the run
            # with the reason recorded rather than a bogus row.
            if not np.all(np.isfinite(x_new)):
                termination = Termination.DIVERGED
                break
            if not M.contains(x_new):
                termination = Termination.LEFT_DOMAIN
                break
            f_new = obj.value(x_new)
            gn_new = float(np.linalg.norm(riemannian_grad(obj, x_new)))
            records.append(IterateRecord(n, x_new, f_new, gn_new, scalar,
                                         step_norm))
            if (np.linalg.norm(x_new) > stop.divergence_norm
                    or f_new < -stop.divergence_norm or not np.isfinite(f_new)):
                termination = Termination.DIVERGED
                break
            if gn_new <= stop.grad_tol:
                termination = Termination.GRADIENT_TOLERANCE
                break
            if stop.step_tol > 0.0 and step_norm <= stop.step_tol:
                termination = Termination.STOPPED_AT_CRITICAL_POINT
                break
            x = x_new
    return IterateTrace(records, termination, flags)
