"""Steppers and the iteration driver.

Six update rules share one driver: backtracking gradient descent, its
evaluation-free local variant, the regularized reflected Newton update,
plain Newton, Newton with a random relaxation factor, and fixed-rate
gradient descent.  ``run`` is the only place an iterate is evaluated:
it computes f(x), the Riemannian gradient g and the retraction radius
r(x) once per point, records them, and hands them to the stepper, which
maps (x, f(x), g, r) to (new point, step scalar, step norm, clamped?).
The new point is reached through the manifold's retraction with a
tangent step strictly shorter than r, so iterates can never leave the
manifold.  ``run`` tests membership when x0 enters (against M, and
against the objective's domain through ``riemannian_grad``) and when a
step lands; the steppers call M's unchecked private forms and convert
derivatives with M's ``egrad2rgrad``/``ehess2rhess``.
"""

import dataclasses
import enum
import math

import numpy as np

from .linalg import (
    EigenDecomposition,
    NonFinite,
    SingularMatrix,
    SymMatrix,
    _solve_eig,
    spectral_split,
    sym_eig,
)
from .manifold import NotOnManifold
from .objective import riemannian_grad

MAX_LINE_SEARCH = 200
# Keeps clamped steps strictly inside the retraction ball after rounding.
CLAMP_MARGIN = 1.0 - 1e-9
# A step shorter than this many ulps of |x| cannot move x any more;
# the run ends Stalled instead of creeping on rounding.
STALL_ULPS = 4
# Below this the 2-norm may have lost bits to squares that underflowed.
TINY_NORM = 1e-150


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
    STALLED = "Stalled"


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
    """

    exponent_a: float = 2.0
    deltas: tuple = (0.0, 1.0)
    gamma: object = None

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


def _safe_norm(v):
    """The 2-norm of v, rescaled by max|v| when it is tiny, so a nonzero
    vector whose squared entries underflow keeps a positive norm.  Above
    TINY_NORM it is np.linalg.norm(v) bit for bit."""
    n = float(np.linalg.norm(v))
    if n < TINY_NORM:
        s = float(np.max(np.abs(v)))
        if s > 0.0:
            return s * float(np.linalg.norm(v / s))
    return n


# The backtracking stepper; armijo_delta keeps only its step size.
def _line_search(M, obj, x, fx, g, r, params):
    gn = float(np.linalg.norm(g))
    delta = params.delta0
    for _ in range(MAX_LINE_SEARCH + 1):
        if delta * gn < 0.5 * r:
            x_new = M._retract(x, -delta * g, r)
            if obj.value(x_new) - fx <= armijo_rhs(params.alpha, delta, gn):
                return x_new, delta, _safe_norm(delta * g), False
        delta *= params.beta
    raise LineSearchExhausted(
        "no step accepted after %d reductions (|grad| = %g)" % (MAX_LINE_SEARCH, gn)
    )


def armijo_delta(M, obj, x, params=None):
    """Largest delta in {beta^j delta0} passing both the radius gate
    delta |g| < r(x)/2 and the sufficient-decrease test."""
    params = params or BacktrackingParams()
    x = np.asarray(x, dtype=float)
    g = riemannian_grad(obj, x)
    return _line_search(M, obj, x, obj.value(x), g, M.radius(x), params)[1]


def _local_bgd_search(M, obj, x, g, r, params):
    if obj.lipschitz_fn is None:
        raise MissingLipschitz("objective has no lipschitz_fn")
    bound = params.alpha / float(obj.lipschitz_fn(x))
    gn = float(np.linalg.norm(g))
    delta = params.delta0
    for _ in range(MAX_LINE_SEARCH + 1):
        if delta < bound and delta * gn < 0.5 * r:
            return delta
        delta *= params.beta
    raise LineSearchExhausted(
        "no step satisfied the Lipschitz and radius gates (L bound %g)" % bound
    )


def local_bgd_delta(M, obj, x, params=None):
    """Largest delta in {beta^j delta0} with delta < alpha/L(x) and
    delta |g| < r(x)/2.  Needs no objective evaluations."""
    params = params or BacktrackingParams()
    x = np.asarray(x, dtype=float)
    g = riemannian_grad(obj, x)
    return _local_bgd_search(M, obj, x, g, M.radius(x), params)


def _local_bgd_step(M, obj, x, fx, g, r, params):
    delta = _local_bgd_search(M, obj, x, g, r, params)
    step = -delta * g
    return M._retract(x, step, r), delta, _safe_norm(step), False


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


def _new_q_newton_step(M, obj, x, fx, g, r, params):
    gn = float(np.linalg.norm(g))
    rho = min(gn**params.exponent_a, 1.0)
    # Every candidate H + delta*rho*I shares H's eigenvectors, so one
    # decomposition serves them all; a uniform shift keeps the
    # eigenvalues ascending.
    EH = sym_eig(M.ehess2rhess(x, obj.hess(x), obj.grad))
    E = None
    for d in params.deltas:
        shifted = EH.eigenvalues + d * rho
        if not np.all(np.isfinite(shifted)):
            raise NonFinite("regularized eigenvalues are not finite")
        Ec = EigenDecomposition(shifted, EH.eigenvectors)
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
    v = M._tangent_project(x, v)
    if np.isinf(r):
        lam = 1.0
    else:
        lam = _gamma_cap(params.gamma, float(np.linalg.norm(v)), r)
    step = -lam * v
    return M._retract(x, step, r), lam, _safe_norm(step), False


def _clamp_to_ball(w, r, limit=None):
    # Scale w to half the radius when its norm reaches ``limit`` (the
    # radius by default); returns (vector, scale, clamped?).
    wn = float(np.linalg.norm(w))
    if np.isfinite(r) and wn >= (r if limit is None else limit):
        scale = 0.5 * r * CLAMP_MARGIN / wn
        return w * scale, scale, True
    return w, 1.0, False


def _newton_step(M, obj, x, fx, g, r, kappa):
    # Newton direction scaled by the relaxation factor kappa (1 for
    # plain Newton, drawn from U(0, 2) per step for random Newton).
    H = M.ehess2rhess(x, obj.hess(x), obj.grad)
    Q = M.tangent_basis(x)
    if Q is not None:
        # The ambient extension keeps the normal directions in its
        # kernel, so solve inside the tangent space instead.
        Ht = Q.T @ H.entries @ Q
        H, g = SymMatrix._from_symmetric(0.5 * (Ht + Ht.T)), Q.T @ g
    E = sym_eig(H)
    if not E.is_invertible():
        raise SingularMatrix("Hessian is numerically singular")
    w = _solve_eig(E, g)
    w = kappa * (w if Q is None else Q @ w)
    w, scale, clamped = _clamp_to_ball(w, r)
    step = -w
    return M._retract(x, step, r), kappa * scale, _safe_norm(step), clamped


def _standard_gd_step(M, obj, x, fx, g, r, lr):
    v, scale, clamped = _clamp_to_ball(-lr * g, r, limit=0.5 * r)
    return M._retract(x, v, r), lr * scale, _safe_norm(v), clamped


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
            return lambda x, fx, g, r: _line_search(M, obj, x, fx, g, r, params)
        return lambda x, fx, g, r: _local_bgd_step(M, obj, x, fx, g, r, params)
    if method == "new_q_newton":
        params = params or NewQNewtonParams()
        if random_deltas:
            # Draw the regularizer coefficients once per run from (0, 1].
            drawn = tuple(1.0 - rng.uniform(0.0, 1.0) for _ in params.deltas)
            params = dataclasses.replace(params, deltas=drawn)
        return lambda x, fx, g, r: _new_q_newton_step(M, obj, x, fx, g, r, params)
    if method == "newton":
        return lambda x, fx, g, r: _newton_step(M, obj, x, fx, g, r, 1.0)
    if method == "random_newton":
        # The relaxation factor is drawn before the solve.
        return lambda x, fx, g, r: _newton_step(M, obj, x, fx, g, r,
                                                float(rng.uniform(0.0, 2.0)))
    if method == "standard_gd":
        return lambda x, fx, g, r: _standard_gd_step(M, obj, x, fx, g, r, lr)
    raise ValueError("unknown method %r" % (method,))


def run(M, obj, x0, method, params=None, stop=None, rng=None, lr=0.001,
        random_deltas=False):
    """Iterate one stepper from x0 until a stopping rule fires.

    Returns an IterateTrace whose first record is the initial point.
    Stepper failures are not raised; they terminate the trace with the
    matching reason (LineSearchExhausted, SingularMatrix).  A step shorter
    than STALL_ULPS ulps of the point it left ends the run Stalled.

    M is the objective's domain or a backend with the same geometry: x0
    is tested against both, its gradient is converted by the domain
    (through riemannian_grad) and every later derivative by M.
    """
    stop = stop or StopCriteria()
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x0, dtype=float)
    if not M.contains(x):
        raise NotOnManifold("initial point is not on the manifold")
    stepper = _make_stepper(M, obj, method, params, rng, lr, random_deltas)

    g = riemannian_grad(obj, x)
    fx = obj.value(x)
    gn = float(np.linalg.norm(g))
    records = [IterateRecord(0, x.copy(), fx, gn, 0.0, 0.0)]
    flags = set()
    if gn <= stop.grad_tol:
        return IterateTrace(records, Termination.STOPPED_AT_CRITICAL_POINT, flags)

    termination = Termination.MAX_ITERATIONS
    # Divergent runs are allowed to saturate to inf/nan; the checks
    # below catch that, so the fp warnings are pure noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(1, stop.max_iters + 1):
            r = M._radius(x)
            try:
                x_new, scalar, step_norm, clamped = stepper(x, fx, g, r)
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
            x_old, x = x, x_new
            fx = obj.value(x)
            g = M.egrad2rgrad(x, obj.grad(x))
            gn = float(np.linalg.norm(g))
            records.append(IterateRecord(n, x, fx, gn, scalar, step_norm))
            if (np.linalg.norm(x) > stop.divergence_norm
                    or fx < -stop.divergence_norm or not np.isfinite(fx)):
                termination = Termination.DIVERGED
                break
            if gn <= stop.grad_tol:
                termination = Termination.GRADIENT_TOLERANCE
                break
            if stop.step_tol > 0.0 and step_norm <= stop.step_tol:
                termination = Termination.STOPPED_AT_CRITICAL_POINT
                break
            # Strict, so a run at x = 0 never stalls.
            if step_norm < STALL_ULPS * np.finfo(float).eps * _safe_norm(x_old):
                termination = Termination.STALLED
                break
    return IterateTrace(records, termination, flags)
