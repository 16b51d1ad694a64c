"""Objective bundles, Riemannian derivative conversions, and the builtin
problem catalog.

An Objective carries the ambient value/gradient/Hessian callables plus
the manifold it lives on.  ``riemannian_grad`` and ``riemannian_hess``
check the point against the domain and let the domain's backend convert
the ambient derivatives to the manifold ones.
"""

import dataclasses
import functools
import math

import numpy as np

from .linalg import SymMatrix
from .manifold import NotOnManifold, OpenSubset, Sphere, open_ball

# The roots u = (9 -+ sqrt(33))/4 of 2u^2 - 9u + 6, where example3's
# Hessian, as a function of u = 1/t^2, has its extrema.
_FLAT_CRITICAL = ((9.0 - math.sqrt(33.0)) / 4.0, (9.0 + math.sqrt(33.0)) / 4.0)


@dataclasses.dataclass(frozen=True)
class Objective:
    """Callable bundle for one optimization problem.

    value_fn, grad_fn and hess_fn take an ambient point and return the
    scalar value, the ambient gradient and the ambient Hessian (as a
    SymMatrix or anything SymMatrix accepts).  lipschitz_fn, when
    present, returns L(x), a finite upper bound for |d^2/dt^2 f(R_x(td))|
    over every unit tangent d at x and 0 <= t <= r(x)/2, r(x) the
    domain's retraction radius: every step of the evaluation-free line
    search, which needs it, is such a t.  On an open subset, where
    R_x(td) = x + td, that is the spectral norm of the ambient Hessian
    over the closed ball B(x, r(x)/2).  L(x) = 0 claims no curvature
    there.  ``grad`` refuses a gradient whose shape is not x's, and
    ``hess`` a Hessian whose dimension is not len(x), with ValueError.

    restriction_fn, when present, reads f on the plane span{x, d}:
    restriction_fn(x, d), for a point x and a vector d, returns None or
    a callable phi with phi(a, b) = f(a x + b d) up to rounding, and
    phi(a, b, y), y the point a x + b d as a retraction rounded it, the
    same value, after which value_fn and grad_fn at y may reuse what phi
    computed.  Every backend's retraction keeps R_x(t d) in span{x, d},
    with (a, b) from its ``_span_coefficients``, so the backtracking
    line search calls restriction_fn once per step and reads each trial
    as phi(a, b) instead of retracting and calling value_fn; None sends
    that step down the evaluating path.  ``QuadraticForm`` supplies it,
    ``negate`` drops it, and a ``dataclasses.replace`` of value_fn must
    set it too (None, or the new f's restriction).
    """

    value_fn: object
    grad_fn: object
    hess_fn: object
    domain: object
    lipschitz_fn: object = None
    name: str = ""
    restriction_fn: object = None

    def value(self, x):
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.grad_fn(x), dtype=float)
        if g.shape != x.shape:
            raise ValueError("gradient of shape %s at a point of shape %s"
                             % (g.shape, x.shape))
        return g

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        H = self.hess_fn(x)
        if not isinstance(H, SymMatrix):
            H = SymMatrix(H)
        if H.dim != len(x):
            raise ValueError("Hessian of dimension %d at a point of length %d"
                             % (H.dim, len(x)))
        return H


class QuadraticForm:
    """f(x) = x.(Ax)/2 for a symmetric A, with gradient Ax and Hessian A;
    derivatives are exact.

    f and its gradient share one matrix-vector product per point: the
    form keeps Ax for the last two distinct points it was asked about,
    keyed on the shape and bytes of x as a float array (not on its
    identity, so a point mutated in place gets a fresh product).  Two
    are enough because the line search accepts one of the last two
    points it evaluates, or stores the accepted point's product through
    restriction_fn, so run's gradient at a landed point, and New
    Q-Newton's f and gradient at one point, reuse the product.  ``grad``
    hands out the cached product itself, which is read-only; copy it to
    write to it.

    Its objectives' restriction_fn makes one product, A d, per call.
    With p = x.Ax, q = d.Ax and s = d.Ad (Ax cached), phi(a, b) is
    (a^2 p + 2ab q + b^2 s)/2, and phi(a, b, y) stores a Ax + b Ad as
    the product at y, so a landed point's f and gradient make none.
    That product's error is the last one's times |a| <= 1 (every
    backend's a is) plus this step's rounding, so errors add up from
    step to step but are never amplified.  When p, q or s is not finite
    restriction_fn returns None: an infinite entry of Ax or Ad makes its
    dot with x or d inf or nan, zero entries too.
    """

    def __init__(self, A):
        if not isinstance(A, SymMatrix):
            A = SymMatrix(A)
        self.A = A
        # (key, Ax) for the last point asked about, then the one before.
        # Replaced whole, never edited, so calls from two threads each
        # still get their own point's product.
        self._products = ()

    def _product(self, x):
        # x as a float array and the read-only Ax.  Since A is square, Ax
        # has x's shape, so a cached product whose shape is not x's was
        # made for other bytes of the same length.
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        last = self._products
        for entry in last:
            if entry[0] == key and entry[1].shape == x.shape:
                if entry is not last[0]:
                    self._products = last[::-1]
                return x, entry[1]
        Ax = self.A.entries @ x
        Ax.setflags(write=False)
        self._products = ((key, Ax),) + last[:1]
        return x, Ax

    def value(self, x):
        # x.dot(Ax) is x @ Ax bit for bit from length 2 on, and cheaper.
        x, Ax = self._product(x)
        return 0.5 * float(x.dot(Ax))

    def grad(self, x):
        return self._product(x)[1]

    def hess(self, x):
        return self.A

    def _restriction(self, x, d):
        x, Ax = self._product(x)
        Ad = self.A.entries @ d
        p, q, s = float(x.dot(Ax)), float(d.dot(Ax)), float(d.dot(Ad))
        if not math.isfinite(p + q + s):
            return None

        def phi(a, b, y=None):
            if y is not None:
                Ay = a * Ax + b * Ad
                Ay.setflags(write=False)
                self._products = ((y.tobytes(), Ay),) + self._products[:1]
            return 0.5 * (a * a * p + 2.0 * a * b * q + b * b * s)

        return phi

    @functools.cached_property
    def _eigenvalue_range(self):
        lam = np.linalg.eigvalsh(self.A.entries)
        return float(lam[0]), float(lam[-1])

    def to_objective(self, domain, name=""):
        # L(x) is exact and the same at every x.  On an open subset the
        # Hessian is A, and L = |A|_2 = max(-lam_min, lam_max).  On the
        # sphere, both retractions send a unit tangent d at x to
        # R_x(td) = cos(th) x + sin(th) d, th = t (geodesic) or arctan t
        # (projective).  phi(th) = f(R_x(td)) = C + rho cos(2 th - psi),
        # where 4 rho is the eigenvalue spread of A compressed to
        # span{x, d}, at most lam_max - lam_min by interlacing.  Geodesic:
        # |phi''| <= 4 rho.  Projective: h(t) = phi(arctan t) has
        # h'' = (phi'' - 2t phi') / (1 + t^2)^2, so
        # |h''| <= 4 rho / (1 + t^2)^(3/2) <= 4 rho.  Only the
        # evaluation-free line search reads L, so eigvalsh runs on its
        # first call.
        if getattr(domain, "ambient_dim", None) != self.A.dim:
            raise ValueError("a QuadraticForm of dimension %d on %r, whose ambient"
                             " dimension is not %d" % (self.A.dim, domain, self.A.dim))
        sphere = isinstance(domain, Sphere)

        def lipschitz(x):
            lo, hi = self._eigenvalue_range
            return hi - lo if sphere else max(-lo, hi)

        return Objective(
            value_fn=self.value,
            grad_fn=self.grad,
            hess_fn=self.hess,
            domain=domain,
            lipschitz_fn=lipschitz,
            name=name,
            restriction_fn=self._restriction,
        )


def negate(obj, name=""):
    """The objective -f on the same domain, with no restriction_fn."""
    return Objective(
        value_fn=lambda x: -obj.value(x),
        grad_fn=lambda x: -obj.grad(x),
        hess_fn=lambda x: SymMatrix._from_symmetric(-obj.hess(x).entries),
        domain=obj.domain,
        lipschitz_fn=obj.lipschitz_fn,
        name=name or ("neg_" + obj.name),
    )


def riemannian_grad(obj, x):
    """Gradient in the manifold metric, as an ambient tangent vector."""
    x = np.asarray(x, dtype=float)
    if not obj.domain.contains(x):
        raise NotOnManifold("point is outside the objective's domain")
    return obj.domain.egrad2rgrad(x, obj.grad(x))


def riemannian_hess(obj, x):
    """Hessian in the manifold metric as a symmetric ambient matrix,
    L H L^T for the tangent Hessian H and the basis L of its lift."""
    x = np.asarray(x, dtype=float)
    if not obj.domain.contains(x):
        raise NotOnManifold("point is outside the objective's domain")
    # x stands in for the gradient, whose coordinates are not needed.
    H, _, lift = obj.domain.tangent_hessian(x, obj.hess(x), x, obj.grad)
    L = np.array([lift(e) for e in np.eye(H.dim)]).T
    A = L @ H.entries @ L.T
    return SymMatrix._from_symmetric(0.5 * (A + A.T))


@dataclasses.dataclass(frozen=True)
class Problem:
    """Catalog entry: objective with its initial point and a sampler of
    derivative-check points that keeps clear of the singular set."""

    objective: object
    x0: np.ndarray
    sample_point: object


def _punctured_line():
    return OpenSubset(1, radius_fn=lambda t: abs(t[0]))


def _abs_power(p):
    # f(t) = |t|^p on the punctured line, derivatives piecewise exact.
    def value(t):
        return abs(t[0]) ** p

    def grad(t):
        return np.array([p * np.sign(t[0]) * abs(t[0]) ** (p - 1.0)])

    def hess(t):
        return SymMatrix._from_symmetric(
            np.array([[p * (p - 1.0) * abs(t[0]) ** (p - 2.0)]]))

    def lipschitz(t):
        # |f''(s)| is monotone in |s|, which lies in [|t|/2, 3|t|/2] on
        # the ball B(t, |t|/2): falling for p < 2, rising for p > 2.
        s = (0.5 if p < 2.0 else 1.5) * abs(t[0])
        return abs(p * (p - 1.0)) * s ** (p - 2.0)

    return value, grad, hess, lipschitz


def _sample_line(rng, lo=0.5, hi=3.0):
    t = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
    return np.array([t])


def _sample_ball(m, rng, rmax=0.7):
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    return rng.uniform(0.1, rmax) * u


def _sample_sphere(m, rng):
    u = rng.standard_normal(m)
    return u / np.linalg.norm(u)


def builtin_problems():
    """The twelve benchmark configurations addressable by string id."""
    problems = {}

    def add(name, objective, x0, sample_point):
        # Read-only, so a catalog shared between cells cannot be mutated.
        x0 = np.array(x0, dtype=float)
        x0.setflags(write=False)
        problems[name] = Problem(
            objective=objective,
            x0=x0,
            sample_point=sample_point,
        )

    # 1-d power kinks on the punctured line.
    for name, p in (("example1", 1.3), ("example2", 0.3)):
        value, grad, hess, lipschitz = _abs_power(p)
        add(
            name,
            Objective(value, grad, hess, _punctured_line(), lipschitz, name=name),
            [1.00001188],
            _sample_line,
        )

    # Infinitely flat wall at the origin.
    def flat_value(t):
        return float(np.exp(-1.0 / t[0] ** 2))

    def flat_grad(t):
        return np.array([np.exp(-1.0 / t[0] ** 2) * 2.0 / t[0] ** 3])

    def flat_hess(t):
        w = np.exp(-1.0 / t[0] ** 2)
        return SymMatrix._from_symmetric(
            np.array([[w * (4.0 / t[0] ** 6 - 6.0 / t[0] ** 4)]]))

    def flat_lipschitz(t):
        # f''(s) = h(u) = e^-u (4u^3 - 6u^2) with u = 1/s^2, and |s| in
        # [|t|/2, 3|t|/2] on the ball.  h' = -2u e^-u (2u^2 - 9u + 6), so
        # |h| peaks at an end of the u interval or at a root of h' inside.
        # Left to right, e^-u u^k never overflows.
        lo, hi = (2.0 / (3.0 * abs(t[0]))) ** 2, (2.0 / abs(t[0])) ** 2
        return max(math.exp(-u) * u * u * abs(4.0 * u - 6.0)
                   for u in (lo, hi, *(c for c in _FLAT_CRITICAL if lo < c < hi)))

    add(
        "example3",
        Objective(flat_value, flat_grad, flat_hess, _punctured_line(),
                  flat_lipschitz, name="example3"),
        [3.0],
        lambda rng: _sample_line(rng, 0.6, 3.0),
    )

    # Oscillatory product with critical points accumulating at the axes.
    def osc_value(z):
        x, y = z
        return float(x**3 * np.sin(1.0 / x) + y**3 * np.sin(1.0 / y))

    def osc_grad(z):
        x, y = z
        return np.array(
            [
                3.0 * x**2 * np.sin(1.0 / x) - x * np.cos(1.0 / x),
                3.0 * y**2 * np.sin(1.0 / y) - y * np.cos(1.0 / y),
            ]
        )

    def osc_hess(z):
        x, y = z
        dxx = 6.0 * x * np.sin(1.0 / x) - 4.0 * np.cos(1.0 / x) - np.sin(1.0 / x) / x
        dyy = 6.0 * y * np.sin(1.0 / y) - 4.0 * np.cos(1.0 / y) - np.sin(1.0 / y) / y
        return SymMatrix._from_symmetric(np.diag([dxx, dyy]))

    def osc_lipschitz(z):
        # Each diagonal entry is at most 6|c| + 4 + 1/|c| in size, and on
        # the ball each coordinate c stays within r/2 of its value.
        h = 0.5 * min(abs(z[0]), abs(z[1]))
        return max(6.0 * (abs(c) + h) + 4.0 + 1.0 / (abs(c) - h) for c in z)

    add(
        "example4",
        Objective(
            osc_value,
            osc_grad,
            osc_hess,
            OpenSubset(2, radius_fn=lambda z: min(abs(z[0]), abs(z[1]))),
            osc_lipschitz,
            name="example4",
        ),
        [-0.99998925, 2.00001188],
        lambda rng: np.array(
            [
                rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
            ]
        ),
    )

    # Kinked valley; the Hessian is exactly singular wherever it exists.
    def valley_value(z):
        x, y = z
        return float(100.0 * (y - abs(x)) ** 2 + abs(1.0 - x))

    def valley_grad(z):
        x, y = z
        return np.array(
            [
                -200.0 * (y - abs(x)) * np.sign(x) - np.sign(1.0 - x),
                200.0 * (y - abs(x)),
            ]
        )

    def valley_hess(z):
        s = np.sign(z[0])
        return SymMatrix._from_symmetric(
            np.array([[200.0, -200.0 * s], [-200.0 * s, 200.0]]))

    add(
        "example5",
        Objective(
            valley_value,
            valley_grad,
            valley_hess,
            OpenSubset(2, radius_fn=lambda z: min(abs(z[0]), abs(1.0 - z[0]))),
            # The Hessian's eigenvalues are 0 and 400 on either side.
            lambda z: 400.0,
            name="example5",
        ),
        [0.55134554, -0.75134554],
        lambda rng: np.array(
            [
                rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9),
                rng.uniform(-1.0, 1.0),
            ]
        ),
    )

    # Piecewise-linear slope with no critical point at all.
    add(
        "example6",
        Objective(
            lambda z: float(5.0 * abs(z[0]) + z[1]),
            lambda z: np.array([5.0 * np.sign(z[0]), 1.0]),
            lambda z: SymMatrix._from_symmetric(np.zeros((2, 2))),
            OpenSubset(2, radius_fn=lambda z: abs(z[0])),
            lambda z: 0.0,
            name="example6",
        ),
        [-0.99998925, 2.00001188],
        lambda rng: np.array(
            [
                rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                rng.uniform(-2.0, 2.0),
            ]
        ),
    )

    # Indefinite quadratics on the open unit ball and the sphere.
    A7 = SymMatrix([[2.0, 4.0], [4.0, 2.0]])
    A8 = SymMatrix(
        [
            [-23.0, -61.0, 40.0],
            [-61.0, -39.5, 155.0],
            [40.0, 155.0, -50.0],
        ]
    )

    q7 = QuadraticForm(A7)
    q8 = QuadraticForm(A8)

    add(
        "example7",
        q7.to_objective(open_ball(2), name="example7"),
        [0.1, 0.2],
        lambda rng: _sample_ball(2, rng),
    )
    add(
        "example8",
        q8.to_objective(open_ball(3), name="example8"),
        [1.188e-05, 2.188e-05, 3.188e-05],
        lambda rng: _sample_ball(3, rng),
    )
    add(
        "example9",
        negate(problems["example8"].objective, name="example9"),
        [1.188e-05, 2.188e-05, 3.188e-05],
        lambda rng: _sample_ball(3, rng),
    )

    # Printed to eight digits, so renormalize to pass sphere membership.
    def _unit(v):
        v = np.asarray(v, dtype=float)
        return v / np.linalg.norm(v)

    sphere_x0_2 = _unit([0.4472136, 0.89442719])
    sphere_x0_3 = _unit([0.29369586, 0.54091459, 0.78813333])
    add(
        "example7p",
        q7.to_objective(Sphere(2), name="example7p"),
        sphere_x0_2,
        lambda rng: _sample_sphere(2, rng),
    )
    add(
        "example8p",
        q8.to_objective(Sphere(3), name="example8p"),
        sphere_x0_3,
        lambda rng: _sample_sphere(3, rng),
    )
    add(
        "example9p",
        negate(problems["example8p"].objective, name="example9p"),
        sphere_x0_3,
        lambda rng: _sample_sphere(3, rng),
    )

    return problems
