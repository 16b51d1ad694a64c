"""Manifold backends with locally defined retractions.

Every backend implements one protocol:

- ``contains(x)``: the membership test.
- ``radius(x)``: the retraction radius r(x), with values in (0, inf].
- ``retract(x, v)``: the retraction R_x, defined on the tangent ball of
  radius r(x).
- ``tangent_project(x, u)``: the orthogonal projection onto T_x.
- ``egrad2rgrad(x, g)`` and ``ehess2rhess(x, H, egrad)``: the Riemannian
  gradient and Hessian from the ambient ones; ``egrad`` is the ambient
  gradient as a callable, so flat backends never evaluate it.
- ``tangent_basis(x)``: an orthonormal basis of T_x as columns, or None
  when T_x is all of R^m.

Optimizers only ever step through the retraction with vectors shorter
than the radius; the backends enforce that contract with exceptions
rather than silently extrapolating.

Which calls validate membership: ``optim.run`` tests a point when it
enters (x0, against the manifold and, through ``riemannian_grad``, the
objective's domain) and when a step lands, and nowhere else.  The public
``radius``, ``retract`` and ``tangent_project`` test their input point
too, then call their private forms ``_radius(x)``, ``_retract(x, v, r)``
and ``_tangent_project(x, u)``, which assume a member point given as a
1-d float array.  The steppers call only the private forms, with the r
that ``run`` computed once for the iterate.  The private forms keep
every check that is not a membership test: ``radius_fn(x) > 0``, the
strict step-length gate and the sphere's tangency gate.  The derivative
conversions ``egrad2rgrad`` and ``ehess2rhess`` never test membership.
"""

import numpy as np

from .linalg import SymMatrix

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


class OpenSubset:
    """An open subset of R^m with the identity retraction.

    ``radius_fn`` must return, for every member point, a positive lower
    bound on the distance to the complement (in the examples shipped
    with this package it is the exact distance, inf for all of R^m).
    ``member_fn`` is the membership predicate for the subset.  Both must
    be pure; the library cannot verify that radius_fn really bounds the
    boundary distance, that is the caller's obligation.
    """

    def __init__(self, ambient_dim, radius_fn, member_fn):
        self.ambient_dim = int(ambient_dim)
        self.radius_fn = radius_fn
        self.member_fn = member_fn

    def contains(self, x):
        x = _as_point(x)
        if x.shape[0] != self.ambient_dim or not np.all(np.isfinite(x)):
            return False
        return bool(self.member_fn(x))

    def _check(self, x):
        if not self.contains(x):
            raise NotOnManifold("point is outside the open subset")
        return _as_point(x)

    def radius(self, x):
        return self._radius(self._check(x))

    def _radius(self, x):
        r = float(self.radius_fn(x))
        if not r > 0.0:
            raise NotOnManifold("radius function returned %g at a member point" % r)
        return r

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
        if r < np.inf and not np.linalg.norm(v) < r:
            raise StepTooLarge(
                "step norm %g reaches the radius %g" % (np.linalg.norm(v), r)
            )
        return x + v

    def egrad2rgrad(self, x, g):
        return g

    def ehess2rhess(self, x, H, egrad):
        return H

    def tangent_basis(self, x):
        return None

    def __repr__(self):
        return "OpenSubset(%d)" % self.ambient_dim


def Euclidean(ambient_dim):
    """All of R^m: the open subset with infinite radius."""
    return OpenSubset(
        ambient_dim, radius_fn=lambda x: np.inf, member_fn=lambda x: True
    )


def open_ball(ambient_dim):
    """The open unit ball with the exact distance-to-boundary radius."""
    return OpenSubset(
        ambient_dim,
        radius_fn=lambda x: 1.0 - np.linalg.norm(x),
        member_fn=lambda x: np.linalg.norm(x) < 1.0,
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

    def contains(self, x):
        x = _as_point(x)
        if x.shape[0] != self.ambient_dim or not np.all(np.isfinite(x)):
            return False
        return bool(abs(np.linalg.norm(x) - 1.0) <= SPHERE_MEMBERSHIP_ATOL)

    def _check(self, x):
        if not self.contains(x):
            raise NotOnManifold("point is not on the unit sphere")
        return _as_point(x)

    def radius(self, x):
        return self._radius(self._check(x))

    def _radius(self, x):
        return np.pi

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
        vn = np.linalg.norm(v)
        if abs(v @ x) > SPHERE_TANGENCY_RTOL * vn:
            raise NotTangent("vector has a normal component: <v,x> = %g" % (v @ x))
        if not vn < r:
            raise StepTooLarge("step norm %g reaches the radius pi" % vn)
        if self.retraction == "projective":
            return (x + v) / np.sqrt(1.0 + v @ v)
        if vn < GEODESIC_ZERO_NORM:
            return x.copy()
        return np.cos(vn) * x + (np.sin(vn) / vn) * v

    def egrad2rgrad(self, x, g):
        return self._tangent_project(_as_point(x), g)

    def ehess2rhess(self, x, H, egrad):
        """The tangent Hessian H[v] = P(grad^2 f)v - <grad f, x>v,
        extended to ambient vectors as P A P with A = H - <grad f, x>I
        and the tangent projection P = I - x x^T.  That keeps the matrix
        symmetric and puts the normal direction in its kernel.  P A P is
        formed as the rank-two update A - x(Ax)^T - (Ax)x^T +
        (x^T A x)x x^T = A - x w^T - w x^T with w = Ax - (x^T A x/2)x,
        in O(m^2) instead of two O(m^3) products."""
        x = _as_point(x)
        G = egrad(x)
        A = H.entries - (G @ x) * np.eye(len(x))
        u = A @ x
        w = u - (0.5 * (x @ u)) * x
        B = A - np.outer(x, w) - np.outer(w, x)
        return SymMatrix._from_symmetric(0.5 * (B + B.T))

    def tangent_basis(self, x):
        # The hyperplane orthogonal to x, deterministic for a given x.
        _, _, vt = np.linalg.svd(_as_point(x).reshape(1, -1))
        return vt[1:].T

    def __repr__(self):
        return "Sphere(%d, %r)" % (self.ambient_dim, self.retraction)
