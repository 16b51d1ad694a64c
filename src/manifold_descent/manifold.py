"""Manifold backends with locally defined retractions.

A backend writes four methods, all unchecked, for a 1-d float array x
that the caller vouches for:

- ``_radius(x)``: the retraction radius r(x), in (0, inf] on the
  manifold and 0.0 anywhere else, so a point is on a backend exactly
  when its radius is positive.
- ``_retract(x, v, r)``: the retraction R_x, defined on the tangent ball
  of radius r = r(x); a step of length r or more raises StepTooLarge.
- ``egrad2rgrad(x, g)``: the Riemannian gradient from the ambient one,
  the orthogonal projection of g onto T_x.
- ``tangent_hessian(x, H, g, egrad)``: the Riemannian Hessian and g in
  orthonormal coordinates of T_x, and the ``lift`` from coordinates to
  tangent vectors; ``egrad`` is the ambient gradient as a callable, so
  flat backends never evaluate it, and ``optim.run`` passes one that
  returns the value it already has at x.

and binds the three checked forms this module defines once for all of
them: ``contains(x)``, the membership test r(x) > 0, quiet when |x|^2
overflows; ``radius(x)``, r(x); and ``retract(x, v)``, R_x(v).  Each
coerces x to a 1-d float array and evaluates ``_radius`` once; the
latter two raise NotOnManifold, naming the backend, when r(x) <= 0.

Optimizers only ever step through the retraction with vectors shorter
than the radius; the backends enforce that contract with exceptions
rather than silently extrapolating.

Which calls validate membership: ``optim.run`` tests x0 once, through
``riemannian_grad`` and so the public ``contains``, and reads r once for
x0 and once for each point a step lands on, as that point's membership
test.  The steppers call only ``_retract(x, v, r)``, with run's r and a
float array v; it keeps the strict step-length gate and the sphere's
tangency gate.  ``egrad2rgrad`` and ``tangent_hessian`` neither test
membership nor coerce their arguments: ``run``, ``riemannian_grad`` and
``riemannian_hess`` pass them float arrays that ``contains`` or ``run``
has already validated.
"""

import math

import numpy as np

from .linalg import TINY_NORM, SymMatrix, _all_finite, _norm

SPHERE_MEMBERSHIP_ATOL = 1e-10
# Relative tangency slack for vectors handed to the sphere retraction.
SPHERE_TANGENCY_RTOL = 1e-8
# Below this norm the geodesic formula is 0/0; the exact limit is x.
GEODESIC_ZERO_NORM = 1e-14


class NotOnManifold(ValueError):
    """The supplied point is not a member of the manifold."""


class StepTooLarge(ValueError):
    """A tangent vector reached or exceeded the retraction radius."""


class NotTangent(ValueError):
    """A vector handed to the sphere retraction is not tangent."""


def _as_point(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("points must be 1-d arrays, got shape %s" % (x.shape,))
    return x


# The checked forms every backend binds as its public methods; run reads
# M._radius instead.
def contains(M, x):
    x = _as_point(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return M._radius(x) > 0.0


def _checked(M, x):
    # x as a point, and its radius, which must be positive.
    x = _as_point(x)
    with np.errstate(over="ignore", invalid="ignore"):
        r = M._radius(x)
    if not r > 0.0:
        raise NotOnManifold("point is not on %r" % (M,))
    return x, r


def radius(M, x):
    return _checked(M, x)[1]


def retract(M, x, v):
    x, r = _checked(M, x)
    return M._retract(x, np.asarray(v, dtype=float), r)


def _identity(y):
    return y


class OpenSubset:
    """An open subset of R^m with the identity retraction.

    The subset is {x : radius_fn(x) > 0}.  ``radius_fn`` must be defined
    at every finite point of length m.  On the subset it returns a
    positive lower bound on the distance to the complement (in the
    examples shipped with this package the exact distance, inf for all
    of R^m); off it, a value <= 0 or nan.  A point of another length or
    with a non-finite entry is outside without a call.  radius_fn must
    be pure; the library cannot verify that it really bounds the
    boundary distance, that is the caller's obligation.  An exception it
    raises at a point a step lands on ends the run ObjectiveFailed.
    """

    def __init__(self, ambient_dim, radius_fn):
        self.ambient_dim = int(ambient_dim)
        self.radius_fn = radius_fn

    contains = contains
    radius = radius
    retract = retract

    def _radius(self, x):
        # A point with a nan or inf entry is outside: such an entry makes
        # x.x nan or inf, so only a point whose x.x is not finite, a finite
        # one whose squares overflow among them, has its entries scanned.
        if x.shape[0] != self.ambient_dim or not _all_finite(x):
            return 0.0
        r = float(self.radius_fn(x))
        return r if r > 0.0 else 0.0

    def _retract(self, x, v, r):
        # An infinite radius admits every step, a non-finite one too:
        # the driver then ends the run as Diverged.
        if r < np.inf and not math.sqrt(v.dot(v)) < r:
            raise StepTooLarge(
                "step norm %g reaches the radius %g" % (math.sqrt(v.dot(v)), r)
            )
        return x + v

    def egrad2rgrad(self, x, g):
        return g

    def tangent_hessian(self, x, H, g, egrad):
        return H, g, _identity

    def __repr__(self):
        return "OpenSubset(%d)" % self.ambient_dim


def Euclidean(ambient_dim):
    """All of R^m: the open subset with infinite radius."""
    return OpenSubset(ambient_dim, radius_fn=lambda x: np.inf)


def open_ball(ambient_dim):
    """The open unit ball with the exact distance-to-boundary radius."""
    return OpenSubset(
        ambient_dim,
        radius_fn=lambda x: 1.0 - math.sqrt(x.dot(x)),
    )


class Sphere:
    """The unit sphere S^{m-1} embedded in R^m, radius pi everywhere.

    Two retractions are available.  "projective" sends v to
    (x + v)/sqrt(1 + |v|^2); it is cheap and defined by the same formula
    for every v.  "geodesic" follows the great circle
    cos(|v|) x + sin(|v|) v/|v| and is exact for the round metric.  The
    two agree to third order at v = 0.
    """

    MODES = ("projective", "geodesic")

    def __init__(self, ambient_dim, retraction="projective"):
        if int(ambient_dim) < 2:
            raise ValueError("sphere needs ambient dimension >= 2")
        if retraction not in self.MODES:
            raise ValueError("unknown retraction %r" % (retraction,))
        self.ambient_dim = int(ambient_dim)
        self.retraction = retraction

    contains = contains
    radius = radius
    retract = retract

    def _radius(self, x):
        # No finiteness scan: an inf or nan entry makes the norm inf or
        # nan, which fails the tolerance test.
        if (x.shape[0] == self.ambient_dim
                and abs(math.sqrt(x.dot(x)) - 1.0) <= SPHERE_MEMBERSHIP_ATOL):
            return np.pi
        return 0.0

    def _retract(self, x, v, r):
        vv = v.dot(v)
        vn = math.sqrt(vv)
        # |v| as _norm gives it, which is this sqrt(v.v) wherever that lies
        # in [TINY_NORM, inf); elsewhere _norm rescales, since below about
        # 1e-154 the squares underflow to 0 while v @ x does not, and a
        # tangent step would fail the gate.
        if not TINY_NORM <= vn < math.inf:
            vn = _norm(v)
        vx = v.dot(x)
        if abs(vx) > SPHERE_TANGENCY_RTOL * vn:
            raise NotTangent("vector has a normal component: <v,x> = %g" % vx)
        if not vn < r:
            raise StepTooLarge("step norm %g reaches the radius pi" % vn)
        if self.retraction == "projective":
            return (x + v) / math.sqrt(1.0 + vv)
        if vn < GEODESIC_ZERO_NORM:
            return x.copy()
        return np.cos(vn) * x + (np.sin(vn) / vn) * v

    def egrad2rgrad(self, x, g):
        # Projected twice: one pass leaves a normal residue on the order
        # of eps*|g|, which fails the tangency gate once the tangent part
        # is much smaller than g itself.
        w = g - g.dot(x) * x
        return w - w.dot(x) * x

    def tangent_hessian(self, x, H, g, egrad):
        """H[v] = P(grad^2 f)v - <grad f, x>v on T_x in the basis of the
        first m - 1 columns of Q = I - tau u u^T, u = x + sign(x_m)e_m,
        tau = 2/|u|^2: Q x = -sign(x_m)e_m, and |u|^2 >= 2 needs no pivot.
        Q(H - <grad f, x>I)Q = H - (u w^T + w u^T) - <grad f, x>I with
        w = tau Hu - (tau^2 u^T H u/2)u, in O(m^2) and symmetric bit for
        bit; the reduced g is (Q g)[:-1] and the lift is y -> Q[y; 0]."""
        # u.dot(v) is u @ v bit for bit from length 2 on, and cheaper; the
        # lift keeps u[:-1] @ y, whose length is 1 on S^1.
        u = x.copy()
        u[-1] += 1.0 if x[-1] >= 0.0 else -1.0
        tau = 2.0 / u.dot(u)
        p = tau * H.entries.dot(u)
        w = p - (0.5 * tau * u.dot(p)) * u
        ut, wt = u[:-1], w[:-1]
        # B holds u w^T + w u^T, then H's block minus that, in place.
        # (w u^T)_ij is (u w^T)_ji bit for bit, so B is symmetric.
        B = ut[:, None] * wt
        B += wt[:, None] * ut
        np.subtract(H.entries[:-1, :-1], B, out=B)
        B.reshape(-1)[::len(ut) + 1] -= egrad(x).dot(x)

        def lift(y):
            v = (-tau * (ut @ y)) * u
            v[:-1] += y
            return v

        return SymMatrix._from_symmetric(B), g[:-1] - (tau * u.dot(g)) * ut, lift

    def __repr__(self):
        return "Sphere(%d, %r)" % (self.ambient_dim, self.retraction)
