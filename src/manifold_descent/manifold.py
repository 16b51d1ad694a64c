"""Manifold backends with locally defined retractions.

Every backend implements one protocol:

- ``contains(x)``: the membership test, r(x) > 0, quiet when |x|^2
  overflows.
- ``radius(x)``: the retraction radius r(x), with values in (0, inf].
- ``retract(x, v)``: the retraction R_x, defined on the tangent ball of
  radius r(x).
- ``tangent_project(x, u)``: the orthogonal projection onto T_x.
- ``egrad2rgrad(x, g)``: the Riemannian gradient from the ambient one.
- ``tangent_hessian(x, H, g, egrad)``: the Riemannian Hessian and g in
  orthonormal coordinates of T_x, and the ``lift`` from coordinates to
  tangent vectors; ``egrad`` is the ambient gradient as a callable, so
  flat backends never evaluate it, and ``optim.run`` passes one that
  returns the value it already has at x.

Optimizers only ever step through the retraction with vectors shorter
than the radius; the backends enforce that contract with exceptions
rather than silently extrapolating.

Which calls validate membership: a point is on a backend exactly when
its radius is positive.  ``_radius(x)`` takes a 1-d float array as it
is and returns r(x) > 0 on the manifold and 0.0 anywhere else; the
public ``contains`` coerces x and tests ``_radius(x) > 0``.
``optim.run`` tests x0 once, through ``riemannian_grad``, and reads r
once for x0 and once for each point a step lands on, as that point's
membership test.  The public ``radius``, ``retract`` and
``tangent_project`` test their input point too, then call their private
forms, which assume a member point given as a 1-d float array; the
steppers call only ``_retract(x, v, r)`` and ``_tangent_project(x, u)``,
with run's r.  The private forms keep the strict step-length gate and
the sphere's tangency gate.  ``egrad2rgrad`` and ``tangent_hessian``
never test membership.
"""

import math

import numpy as np

from .linalg import SymMatrix, _norm

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


def _is_member(M, x):
    # Every backend's public contains; run reads M._radius instead.
    x = _as_point(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return M._radius(x) > 0.0


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

    contains = _is_member

    def _check(self, x):
        if not self.contains(x):
            raise NotOnManifold("point is outside the open subset")
        return _as_point(x)

    def radius(self, x):
        return self._radius(self._check(x))

    def _radius(self, x):
        if x.shape[0] != self.ambient_dim or not np.isfinite(x).all():
            return 0.0
        r = float(self.radius_fn(x))
        return r if r > 0.0 else 0.0

    def tangent_project(self, x, u):
        return self._tangent_project(self._check(x), u)

    def _tangent_project(self, x, u):
        return np.asarray(u, dtype=float).copy()

    def retract(self, x, v):
        x = self._check(x)
        return self._retract(x, v, self._radius(x))

    def _retract(self, x, v, r):
        v = np.asarray(v, dtype=float)
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

    contains = _is_member

    def _check(self, x):
        if not self.contains(x):
            raise NotOnManifold("point is not on the unit sphere")
        return _as_point(x)

    def radius(self, x):
        return self._radius(self._check(x))

    def _radius(self, x):
        # No finiteness scan: an inf or nan entry makes the norm inf or
        # nan, which fails the tolerance test.
        if (x.shape[0] == self.ambient_dim
                and abs(math.sqrt(x.dot(x)) - 1.0) <= SPHERE_MEMBERSHIP_ATOL):
            return np.pi
        return 0.0

    def tangent_project(self, x, u):
        return self._tangent_project(self._check(x), u)

    def _tangent_project(self, x, u):
        u = np.asarray(u, dtype=float)
        # Projected twice: one pass leaves a normal residue on the order
        # of eps*|u|, which fails the tangency gate once the tangent part
        # is much smaller than u itself.
        w = u - (u @ x) * x
        return w - (w @ x) * x

    def retract(self, x, v):
        x = self._check(x)
        return self._retract(x, v, self._radius(x))

    def _retract(self, x, v, r):
        v = np.asarray(v, dtype=float)
        vv = v.dot(v)
        # Not sqrt(vv): below about 1e-154 the squares underflow to 0
        # while v @ x does not, and a tangent step would fail the gate.
        vn = _norm(v)
        if abs(v @ x) > SPHERE_TANGENCY_RTOL * vn:
            raise NotTangent("vector has a normal component: <v,x> = %g" % (v @ x))
        if not vn < r:
            raise StepTooLarge("step norm %g reaches the radius pi" % vn)
        if self.retraction == "projective":
            return (x + v) / math.sqrt(1.0 + vv)
        if vn < GEODESIC_ZERO_NORM:
            return x.copy()
        return np.cos(vn) * x + (np.sin(vn) / vn) * v

    def egrad2rgrad(self, x, g):
        return self._tangent_project(_as_point(x), g)

    def tangent_hessian(self, x, H, g, egrad):
        """H[v] = P(grad^2 f)v - <grad f, x>v on T_x in the basis of the
        first m - 1 columns of Q = I - tau u u^T, u = x + sign(x_m)e_m,
        tau = 2/|u|^2: Q x = -sign(x_m)e_m, and |u|^2 >= 2 needs no pivot.
        Q(H - <grad f, x>I)Q = H - (u w^T + w u^T) - <grad f, x>I with
        w = tau Hu - (tau^2 u^T H u/2)u, in O(m^2) and symmetric bit for
        bit; the reduced g is (Q g)[:-1] and the lift is y -> Q[y; 0]."""
        x = _as_point(x)
        u = x.copy()
        u[-1] += 1.0 if x[-1] >= 0.0 else -1.0
        tau = 2.0 / (u @ u)
        p = tau * (H.entries @ u)
        w = p - (0.5 * tau * (u @ p)) * u
        ut = u[:-1]
        C = ut[:, None] * w[:-1]
        B = H.entries[:-1, :-1] - (C + C.T)
        B.flat[::len(ut) + 1] -= egrad(x) @ x

        def lift(y):
            v = (-tau * (ut @ y)) * u
            v[:-1] += y
            return v

        return SymMatrix._from_symmetric(B), g[:-1] - (tau * (u @ g)) * ut, lift

    def __repr__(self):
        return "Sphere(%d, %r)" % (self.ambient_dim, self.retraction)
