"""Steppers and the iteration driver.

Six update rules share one driver: backtracking gradient descent, its
evaluation-free local variant, the regularized reflected Newton update,
plain Newton, Newton with a random relaxation factor, and fixed-rate
gradient descent.  ``run`` evaluates each iterate: it computes f(x), the
Riemannian gradient g and the retraction radius r(x) once per point,
records them, and hands them to the stepper, which maps (x, f(x), g,
|g|, r) to (new point, step scalar, step norm, clamped?, f(new point) or
None).  Only the backtracking line search evaluates f at the point it
accepts, and ``run`` takes that value instead of evaluating f there
again; for an objective with a ``restriction_fn`` it reads each
trial's f on span{x, g} instead (a quadratic form's, in closed form from
one matrix-vector product per step) and retracts only the step it
accepts.  Its search is Armijo's rule: it tries delta0, delta0 beta, ...
in turn and accepts the first step that passes (see ``_line_search``).
The new point is reached through the manifold's retraction with a
tangent step strictly shorter than r, so iterates can never leave the
manifold.  M is the objective's domain: x0 is tested for
membership once, by ``riemannian_grad``; a point is on M exactly when
r > 0, so the r(x) that ``run`` computes for each landed point is its
membership test too.  The steppers call M's unchecked
private forms and convert derivatives with M's ``egrad2rgrad`` and
``tangent_hessian``.  Both Newton steps are U (U^T g / mu) in
coordinates of T_x, lifted back, with mu = lambda or |lambda + delta_j
rho| for the first candidate that clears one gate, which adds delta_j
rho to the two ends of the ascending lambda and builds |mu| only for the
candidate it accepts, without a scan unless the spectrum has both signs;
a direction whose norm is not finite ends the run Diverged.  Each
iterate is recorded as one IterateRecord, a named tuple.
``_tangent_solve`` alone chooses how the tangent Hessian H is solved.  A
1x1 H, in tangent dimension one, is its own eigenvalue: U = [[1]], and
the direction is g / mu with no decomposition.  When the tangent
dimension is at least CHOLESKY_MIN_DIM and one Cholesky factorization
certifies the first candidate positive definite past the gate, that is
the plain solve of H + delta_1 rho I, and no eigendecomposition is made;
otherwise one eigendecomposition H = U diag(lambda) U^T serves every
candidate, and every later step of the run whose tangent Hessian has the
same bits.  The step-length rules read an unbounded radius themselves:
at r = inf the gamma cap is 1 and no clamp fires.
"""

import dataclasses
import enum
import math
import numbers
import typing

import numpy as np

from .linalg import (NonFinite, SingularMatrix, _clears_gate, _norm, _pd_solve,
                     _real_array, sym_eig)
from .manifold import NotOnManifold, NotTangent, StepTooLarge
from .objective import riemannian_grad

MAX_LINE_SEARCH = 200
# Keeps clamped steps strictly inside the retraction ball after rounding.
CLAMP_MARGIN = 1.0 - 1e-9
# A step shorter than this many ulps of |x| cannot move x any more;
# the run ends Stalled instead of creeping on rounding.
STALL_ULPS = 4
STALL_TOL = float(STALL_ULPS * np.finfo(float).eps)
# The least tangent dimension at which a Newton step first tries the
# Cholesky certificate of its first candidate; below it, the certificate
# and solve cost about as much as eigh, and a failed one is pure loss.
CHOLESKY_MIN_DIM = 16


class MissingLipschitz(ValueError):
    """local_backtracking needs obj.lipschitz_fn and none was supplied."""


class LineSearchExhausted(RuntimeError):
    """No step size delta0 beta^j, j = 0..MAX_LINE_SEARCH, passed the
    line-search gates.

    For a continuously differentiable objective some step always works,
    so hitting this means non-finite arithmetic, a bad objective, or
    function differences too small for the floating-point format.
    """


class Termination(enum.Enum):
    GRADIENT_TOLERANCE = "GradientTolerance"
    MAX_ITERATIONS = "MaxIterations"
    DIVERGED = "Diverged"
    STOPPED_AT_CRITICAL_POINT = "StoppedAtCriticalPoint"
    LINE_SEARCH_EXHAUSTED = "LineSearchExhausted"
    LEFT_DOMAIN = "LeftDomain"
    SINGULAR_MATRIX = "SingularMatrix"
    STALLED = "Stalled"
    OBJECTIVE_FAILED = "ObjectiveFailed"


def _is_real(value):
    # A real number that is not a bool: True would pass for 1.
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _real_in(name, value, low, high):
    # value when it is a real number, not a bool, in (low, high); nan and
    # inf fall outside.  The range check of every numeric params field.
    if not (_is_real(value) and low < value < high):
        raise ValueError("%s must be a real number in (%g, %g), got %r"
                         % (name, low, high, value))
    return value


@dataclasses.dataclass(frozen=True)
class BacktrackingParams:
    alpha: float = 0.5
    beta: float = 0.7
    delta0: float = 1.0

    def __post_init__(self):
        _real_in("alpha", self.alpha, 0.0, 1.0)
        _real_in("beta", self.beta, 0.0, 1.0)
        _real_in("delta0", self.delta0, 0.0, math.inf)


@dataclasses.dataclass(frozen=True)
class NewQNewtonParams:
    """Knobs for the regularized reflected Newton update.

    ``exponent_a`` is the power in the regularizer scale |grad|^a and
    ``deltas`` the candidate coefficients tried in order.  With
    ``random_deltas`` (True or False) run replaces them, once per run,
    by as many coefficients drawn from (0, 1] with its ``rng``.
    """

    exponent_a: float = 2.0
    deltas: tuple = (0.0, 1.0)
    random_deltas: bool = False

    def __post_init__(self):
        _real_in("exponent_a", self.exponent_a, 1.0, math.inf)
        ds = tuple(float(_real_in("deltas", d, -math.inf, math.inf))
                   for d in self.deltas)
        if len(ds) == 0 or len(set(ds)) != len(ds):
            raise ValueError("deltas must be nonempty and pairwise distinct")
        object.__setattr__(self, "deltas", ds)
        if not isinstance(self.random_deltas, bool):
            raise ValueError("random_deltas must be True or False, got %r"
                             % (self.random_deltas,))


@dataclasses.dataclass(frozen=True)
class StandardGDParams:
    """The fixed step size of standard_gd, a real number in (0, inf),
    used as given (a NumPy float keeps its type)."""

    lr: float = 0.001

    def __post_init__(self):
        _real_in("lr", self.lr, 0.0, math.inf)


@dataclasses.dataclass(frozen=True)
class StopCriteria:
    grad_tol: float = 1e-10
    max_iters: int = 500
    divergence_norm: float = 1e12

    def __post_init__(self):
        # Not _real_in: 0 and inf are valid grad_tols, inf a valid
        # divergence_norm.  Not grad_tol < 0: nan would pass it.
        if not (_is_real(self.grad_tol) and self.grad_tol >= 0):
            raise ValueError("grad_tol must be a real number >= 0, got %r"
                             % (self.grad_tol,))
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError("max_iters must be a nonnegative integer, got %r" % (n,))
        if not (_is_real(self.divergence_norm) and self.divergence_norm > 0):
            raise ValueError("divergence_norm must be a real number > 0, got %r"
                             % (self.divergence_norm,))


class IterateRecord(typing.NamedTuple):
    """One row of a trace: the point reached at step ``iter`` (0 for x0),
    f and |grad f| there, and the step scalar and step norm that reached
    it (0 at x0).  A named tuple, immutable like a frozen dataclass, at
    about a third of its construction cost: a run builds one per step."""

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
    # The exception that ended an ObjectiveFailed run, else None.
    error: Exception = None
    # The run's last positive-definite Newton solve, (x, g~, w, s): at x,
    # w = (H + sI)^-1 g~ with H the tangent Hessian and g~ the gradient in
    # its coordinates, and H + sI positive definite.  None when the last
    # Newton solve reflected or was 1x1, or the run made none.
    pd_solve: tuple = dataclasses.field(default=None, compare=False, repr=False)

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


# The backtracking stepper, Armijo's rule: the largest delta on the grid
# delta0 beta^j, j = 0..MAX_LINE_SEARCH, with delta |g| < r/2 and Armijo
# at R_x(-delta g), found by trying delta0, delta0 beta, ... in turn; a
# trial that fails the radius gate evaluates nothing, and the accepted
# trial is the last point the search evaluates.  LineSearchExhausted
# after all the grid fails.  With obj.restriction_fn, f along the curve
# is read on span{x, -g}: one call per step (a quadratic form's one
# product with its matrix), a trial is phi(a, b) with M's coefficients
# for R_x(-delta g), and only the accepted delta is retracted, so the
# step-length and tangency gates still see it, and handed to phi as the
# landed point.
def _line_search(M, obj, x, fx, g, gn, r, alpha, grid):
    phi = obj.restriction_fn and obj.restriction_fn(x, -g)
    for delta in grid:
        if delta * gn < 0.5 * r:
            if phi is None:
                x_new = M._retract(x, -delta * g, r)
                f_new = obj.value(x_new)
            else:
                ab = M._span_coefficients(delta, gn)
                f_new = phi(*ab)
            if f_new - fx <= armijo_rhs(alpha, delta, gn):
                if phi is not None:
                    x_new = M._retract(x, -delta * g, r)
                    phi(*ab, x_new)
                return x_new, delta, _norm(delta * g), False, f_new
    raise LineSearchExhausted("no step accepted after %d reductions (|grad| = %g)"
                              % (MAX_LINE_SEARCH, gn))


# The evaluation-free variant: the largest delta in {beta^j delta0} with
# delta < min(alpha, 2(1 - alpha))/L(x) and delta |g| < r(x)/2.  L(x) = 0
# sets no limit on delta; an L(x) that is not a finite number >= 0 bounds
# nothing, so the run ends Diverged before any trial.  The descent lemma
# gives a decrease of at least delta |g|^2 (1 - L delta/2), which passes
# Armijo when delta <= 2(1 - alpha)/L; the paper's alpha/L is the
# tighter bound for alpha <= 2/3, so the default alpha = 0.5 keeps it.
def _local_bgd_step(M, obj, x, fx, g, gn, r, alpha, grid):
    L = float(obj.lipschitz_fn(x))
    if not 0.0 <= L < math.inf:
        raise NonFinite("lipschitz_fn gave %r, not a finite bound >= 0" % L)
    bound = min(alpha, 2.0 * (1.0 - alpha)) / L if L else math.inf
    for delta in grid:
        if delta < bound and delta * gn < 0.5 * r:
            step = -delta * g
            return M._retract(x, step, r), delta, _norm(step), False, None
    raise LineSearchExhausted(
        "no step satisfied the Lipschitz and radius gates (L bound %g)" % bound
    )


def _gamma_cap(vn, r):
    # 1/gamma_{j+1} for the j with gamma_j * r/2 <= |v| < gamma_{j+1} * r/2,
    # where gamma_j = j.  When 2|v|/r overflows (a finite direction over a
    # tiny radius) no such j is a float, and the factor is the clamp's,
    # which keeps the step below r/2.  An unbounded r gives q = 0 and 1.0:
    # the whole step.
    q = 2.0 * vn / r
    if q < math.inf:
        return 1.0 / (math.floor(q) + 1.0)
    return 0.5 * r * CLAMP_MARGIN / vn


def _reusing_eig():
    # sym_eig for one run, keeping its last (frozen) decomposition keyed on
    # the matrix's exact bytes, not its identity: eigh maps the same bits to
    # the same bits, and a catalog Hessian is a fresh array at every call.
    # It also carries the run's last positive-definite Newton solve
    # (``eig.pd_solve``, see _tangent_solve), which run hands to the trace.
    last = [None, None]

    def eig(H):
        key = H.entries.tobytes()
        if key != last[0]:
            pair = sym_eig(H)
            for a in pair:
                a.setflags(write=False)
            last[:] = key, pair
        return last[1]

    eig.pd_solve = None
    return eig


def _tangent_solve(M, obj, x, g, egrad, deltas, rho, reflect, eig):
    # The one Newton core, and the one place that chooses how the tangent
    # Hessian H is solved: decompose H = U diag(lambda) U^T once with eig,
    # take mu = lambda + delta*rho for the first delta whose mu clears the
    # gate, and lift U (U^T g / mu) back to T_x; with reflect, the |mu| the
    # gate returns is the divisor.  Plain Newton is rho = 0, which leaves
    # lambda as it is.  A 1x1 H is its own eigenvalue, with U = [[1]] as
    # eigh gives it, and a product with 1.0 is exact: its direction is
    # g / mu, with no decomposition.  A first candidate certified positive
    # definite past the gate is the one the decomposition would pick, with
    # |mu| = mu, so its solve is the step and no decomposition is made.
    # A solve whose K = H + delta*rho*I is positive definite (certified, or
    # with no eigenvalue reflected) is left as eig.pd_solve = (x, g~, w =
    # K^-1 g~, delta*rho), a reflected one as None, and a 1x1 one not at
    # all; for a quadratic form on the sphere it proves a lower bound on
    # the smallest eigenvalue (bench._certified).
    H, gt, lift = M.tangent_hessian(x, obj.hess(x), g, egrad)
    if H.dim >= CHOLESKY_MIN_DIM:
        s = deltas[0] * rho if rho else 0.0
        w = _pd_solve(H.entries, s, gt)
        if w is not None:
            eig.pd_solve = x, gt, w, s
            return lift(w)
    lam, U = (H.entries[0], None) if H.dim == 1 else eig(H)
    for d in deltas:
        s = d * rho
        a = _clears_gate(lam, s)
        if a is not None:
            mu = a if reflect else lam
            if U is None:
                return lift(gt / mu)
            w = U @ ((U.T @ gt) / mu)
            # lam[0] + s is the gate's lower end: positive, nothing reflected.
            eig.pd_solve = (x, gt, w, s) if lam.item(0) + s > 0.0 else None
            return lift(w)
    raise SingularMatrix("no candidate cleared the gate (|grad| = %g)" % _norm(g))


def _new_q_newton_step(M, obj, x, fx, g, gn, r, params, egrad, eig):
    # min(|g|, 1)^a is min(|g|^a, 1) for a > 1, and a Python float power
    # of a huge |g| would raise OverflowError.
    rho = min(gn, 1.0) ** params.exponent_a
    # Every candidate H + delta*rho*I shares H's eigenvectors U, so one
    # decomposition serves them all.  No mu = |lambda + delta*rho| is
    # within the gate of zero, so U diag(1/mu) U^T g is the solve with
    # its negative-eigenspace part reflected: an ascent direction, so -v
    # descends and walks away from saddles.
    v = _tangent_solve(M, obj, x, g, egrad, params.deltas, rho, True, eig)
    lam = _gamma_cap(_finite_norm(v), r)
    step = -lam * v
    return M._retract(x, step, r), lam, _norm(step), False, None


def _finite_norm(v):
    # |v| for a step direction; a direction that overflowed (a finite
    # gradient over a tiny eigenvalue) ends the run Diverged.
    vn = _norm(v)
    if not vn < math.inf:
        raise NonFinite("step direction norm %g is not finite" % vn)
    return vn


def _clamp_to_ball(w, r, limit=None):
    # Scale w to half the radius when its norm reaches ``limit`` (the
    # radius by default); returns (vector, scale, clamped?).
    wn = _finite_norm(w)
    if wn >= (r if limit is None else limit):
        scale = 0.5 * r * CLAMP_MARGIN / wn
        return w * scale, scale, True
    return w, 1.0, False


def _newton_step(M, obj, x, fx, g, gn, r, kappa, egrad, eig):
    # Newton direction scaled by the relaxation factor kappa (1 for
    # plain Newton, drawn from U(0, 2) per step for random Newton).
    w = kappa * _tangent_solve(M, obj, x, g, egrad, (0.0,), 0.0, False, eig)
    w, scale, clamped = _clamp_to_ball(w, r)
    step = -w
    return M._retract(x, step, r), kappa * scale, _norm(step), clamped, None


def _standard_gd_step(M, obj, x, fx, g, gn, r, lr):
    v, scale, clamped = _clamp_to_ball(-lr * g, r, limit=0.5 * r)
    return M._retract(x, v, r), lr * scale, _norm(v), clamped, None


METHODS = (
    "backtracking",
    "local_backtracking",
    "new_q_newton",
    "newton",
    "random_newton",
    "standard_gd",
)


# The params class each method reads, the one place that says so; the
# other methods read none.
_PARAMS = {"backtracking": BacktrackingParams, "local_backtracking": BacktrackingParams,
           "new_q_newton": NewQNewtonParams, "standard_gd": StandardGDParams}


def _make_stepper(M, obj, method, params, rng, egrad, eig):
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    cls = _PARAMS.get(method)
    if params is not None and not isinstance(params, cls or ()):
        raise ValueError("method %s does not read %s"
                         % (method, type(params).__name__))
    params = params or (cls and cls())
    if cls is BacktrackingParams:
        # delta0 beta^j, j = 0..MAX_LINE_SEARCH, for both backtracking methods.
        grid = [params.delta0]
        for _ in range(MAX_LINE_SEARCH):
            grid.append(grid[-1] * params.beta)
    if method == "backtracking":
        return lambda x, fx, g, gn, r: _line_search(M, obj, x, fx, g, gn, r,
                                                    params.alpha, grid)
    if method == "local_backtracking":
        if obj.lipschitz_fn is None:
            raise MissingLipschitz("objective has no lipschitz_fn")
        return lambda x, fx, g, gn, r: _local_bgd_step(M, obj, x, fx, g, gn, r,
                                                       params.alpha, grid)
    if method == "new_q_newton":
        if params.random_deltas:
            # Draw the regularizer coefficients once per run from (0, 1].
            rng = np.random.default_rng(rng)
            drawn = tuple(1.0 - rng.uniform(0.0, 1.0) for _ in params.deltas)
            params = dataclasses.replace(params, deltas=drawn)
        return lambda x, fx, g, gn, r: _new_q_newton_step(M, obj, x, fx, g, gn,
                                                          r, params, egrad, eig)
    if method == "newton":
        return lambda x, fx, g, gn, r: _newton_step(M, obj, x, fx, g, gn, r, 1.0,
                                                    egrad, eig)
    if method == "random_newton":
        # The relaxation factor is drawn before the solve.
        rng = np.random.default_rng(rng)
        return lambda x, fx, g, gn, r: _newton_step(M, obj, x, fx, g, gn, r,
                                                    float(rng.uniform(0.0, 2.0)),
                                                    egrad, eig)
    return lambda x, fx, g, gn, r: _standard_gd_step(M, obj, x, fx, g, gn, r,
                                                     params.lr)


def run(obj, x0, method, params=None, stop=None, rng=None):
    """Iterate one stepper on obj.domain from x0 until a rule fires.

    Returns an IterateTrace whose first record is the initial point.
    Stepper failures are not raised; they terminate the trace with the
    matching reason (LineSearchExhausted, SingularMatrix).  After x0, an
    exception from the objective's callables or the domain's radius_fn
    ends the run ObjectiveFailed with the exception kept as
    ``trace.error``; the backends' own NotOnManifold, StepTooLarge and
    NotTangent still raise.  A step landing where r(x) is not positive
    ends the run LeftDomain (Diverged if the point is not finite), and a
    non-finite f or |g| at any recorded point, x0 included, Diverged.
    A gradient whose shape is not x's, or a Hessian whose dimension is
    not len(x), is an objective failure like any other: it raises out of
    run at x0 and ends the run ObjectiveFailed after it (the Hessian is
    first evaluated inside the first step, so a bad one always ends the
    run ObjectiveFailed).  A step shorter than
    STALL_ULPS ulps of the point it left, or of length 0 from a point
    x != 0, ends the run Stalled, and a lipschitz_fn value that is nan,
    negative or infinite ends a local_backtracking run Diverged (0 means
    no curvature limit).
    Every setting of a stepper is a field of the one params class its
    method reads (``_PARAMS``): (local_)backtracking reads a
    BacktrackingParams, new_q_newton a NewQNewtonParams, standard_gd a
    StandardGDParams, and newton and random_newton read none; None means
    the class's defaults.  A params object of another class, an unknown
    method, or local_backtracking on an objective without lipschitz_fn
    (MissingLipschitz) raises ValueError before any evaluation; an x0 off
    obj.domain raises NotOnManifold.  ``rng`` is a numpy Generator or a
    seed (None: seed 0); only random_newton and new_q_newton with
    random_deltas draw from it.
    """
    M = obj.domain
    stop = stop or StopCriteria()
    rng = 0 if rng is None else rng
    x = _real_array(x0)
    flags = set()
    termination = Termination.MAX_ITERATIONS
    error = None
    # The ambient gradient at x, for the sphere's tangent Hessian.
    # riemannian_grad, x0's membership test, does not return it, so only
    # x0's is evaluated a second time.
    eg = None

    def egrad(p):
        return obj.grad(p) if eg is None else eg

    # Divergent runs are allowed to saturate to inf/nan, and the plain
    # norm of a huge gradient (or of a far-off x0) overflows; the checks
    # below catch that, so the fp warnings are pure noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eig = _reusing_eig()
        stepper = _make_stepper(M, obj, method, params, rng, egrad, eig)
        # riemannian_grad is x0's membership test.
        g = riemannian_grad(obj, x)
        fx = obj.value(x)
        gn = _norm(g)
        xn = _norm(x)
        records = [IterateRecord(0, x.copy(), fx, gn, 0.0, 0.0)]
        if not (math.isfinite(fx) and math.isfinite(gn)):
            return IterateTrace(records, Termination.DIVERGED, flags)
        if gn <= stop.grad_tol:
            return IterateTrace(records, Termination.STOPPED_AT_CRITICAL_POINT, flags)
        r = M._radius(x)
        for n in range(1, stop.max_iters + 1):
            try:
                x_new, scalar, step_norm, clamped, f_new = stepper(x, fx, g, gn, r)
                if clamped:
                    flags.add("clamped")
                # Only points on the manifold, where r > 0, enter the trace;
                # a step that lands off it (rounding at an open boundary)
                # ends the run with the reason recorded rather than a bogus
                # row.  Every backend's r is 0 at a non-finite point.
                r = M._radius(x_new)
                if not r > 0.0:
                    termination = (Termination.LEFT_DOMAIN
                                   if np.isfinite(x_new).all()
                                   else Termination.DIVERGED)
                    break
                fx = obj.value(x_new) if f_new is None else f_new
                eg = obj.grad(x_new)
                g = M.egrad2rgrad(x_new, eg)
            except LineSearchExhausted:
                termination = Termination.LINE_SEARCH_EXHAUSTED
                break
            except SingularMatrix:
                termination = Termination.SINGULAR_MATRIX
                break
            except NonFinite:
                # Derivative values left the representable range (for
                # instance a power-law Hessian blowing up near a kink).
                termination = Termination.DIVERGED
                break
            except (NotOnManifold, StepTooLarge, NotTangent):
                raise
            except Exception as exc:
                # Raised by the objective's own value, grad, hess or
                # lipschitz function (or by a check of what it returned).
                termination, error = Termination.OBJECTIVE_FAILED, exc
                break
            x, xn_old = x_new, xn
            gn = _norm(g)
            xn = _norm(x)
            records.append(IterateRecord(n, x, fx, gn, scalar, step_norm))
            if (xn > stop.divergence_norm or fx < -stop.divergence_norm
                    or not (math.isfinite(fx) and math.isfinite(gn))):
                termination = Termination.DIVERGED
                break
            if gn <= stop.grad_tol:
                termination = Termination.GRADIENT_TOLERANCE
                break
            # Strict, so a run at x = 0 never stalls; the second test
            # catches a zero step once STALL_TOL * |x| underflows to 0.
            if step_norm < STALL_TOL * xn_old or step_norm == 0.0 < xn_old:
                termination = Termination.STALLED
                break
    return IterateTrace(records, termination, flags, error, eig.pd_solve)
