import dataclasses

import numpy as np
import pytest

from manifold_descent.linalg import SymMatrix, sym_eig
from manifold_descent.manifold import (GEODESIC_ZERO_NORM, Euclidean, NotOnManifold,
                                       Sphere, open_ball)
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    _punctured_line,
    builtin_problems,
    negate,
    riemannian_grad,
    riemannian_hess,
)
from manifold_descent.optim import StopCriteria, Termination, run
from oracles import fd_gradient, tangent_project

EPS = float(np.finfo(float).eps)


def _poly_objective():
    def value(z):
        return float(z[0] ** 2 + 3.0 * z[0] * z[1] + z[1] ** 4)

    def grad(z):
        return np.array([2.0 * z[0] + 3.0 * z[1], 3.0 * z[0] + 4.0 * z[1] ** 3])

    def hess(z):
        return [[2.0, 3.0], [3.0, 12.0 * z[1] ** 2]]

    return Objective(value, grad, hess, Euclidean(2), name="poly")


def test_hess_wraps_plain_arrays():
    obj = _poly_objective()
    H = obj.hess([1.0, 2.0])
    assert isinstance(H, SymMatrix)
    assert H.entries[1, 1] == 48.0


def test_quadratic_form_derivatives():
    A = SymMatrix([[2.0, 1.0], [1.0, 4.0]])
    q = QuadraticForm(A)
    x = np.array([1.0, -1.0])
    assert q.value(x) == pytest.approx(0.5 * (x @ A.entries @ x))
    assert np.allclose(q.grad(x), A.entries @ x)
    assert q.hess(x) is A


def test_to_objective_attaches_spectral_norm_bound():
    A = SymMatrix([[2.0, 4.0], [4.0, 2.0]])
    q = QuadraticForm(A)
    # eigenvalues -2 and 6: |A|_2 on flat space, the spread on the sphere
    assert q.to_objective(Euclidean(2)).lipschitz_fn(np.zeros(2)) == pytest.approx(6.0)
    assert q.to_objective(Sphere(2)).lipschitz_fn(np.array([1.0, 0.0])) == \
        pytest.approx(8.0)


def test_negate_flips_everything():
    obj = QuadraticForm(SymMatrix([[2.0, 0.0], [0.0, 4.0]])).to_objective(
        Euclidean(2), name="q"
    )
    neg = negate(obj)
    x = np.array([1.0, 2.0])
    assert neg.value(x) == -obj.value(x)
    assert np.allclose(neg.grad(x), -obj.grad(x))
    assert np.allclose(neg.hess(x).entries, -obj.hess(x).entries)
    assert neg.domain is obj.domain
    assert neg.lipschitz_fn(x) == obj.lipschitz_fn(x)
    assert neg.name == "neg_q"


def test_fd_gradient_matches_analytic():
    obj = _poly_objective()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        assert np.allclose(fd_gradient(obj, x), obj.grad(x), rtol=1e-6, atol=1e-7)


def test_riemannian_grad_flat_is_ambient():
    obj = _poly_objective()
    x = np.array([0.5, -0.25])
    assert np.array_equal(riemannian_grad(obj, x), obj.grad(x))


def test_riemannian_grad_rejects_outside_domain():
    obj = QuadraticForm(SymMatrix(np.eye(2))).to_objective(open_ball(2))
    with pytest.raises(NotOnManifold):
        riemannian_grad(obj, [2.0, 0.0])


def test_riemannian_grad_sphere_is_tangent():
    A = SymMatrix([[-23.0, -61.0, 40.0], [-61.0, -39.5, 155.0], [40.0, 155.0, -50.0]])
    obj = QuadraticForm(A).to_objective(Sphere(3))
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        g = riemannian_grad(obj, x)
        assert abs(g @ x) <= 1e-12


def test_riemannian_hess_sphere_symmetric_with_normal_kernel():
    A = SymMatrix([[2.0, 4.0], [4.0, 2.0]])
    obj = QuadraticForm(A).to_objective(Sphere(2))
    x = np.array([0.6, 0.8])
    B = riemannian_hess(obj, x)
    assert np.array_equal(B.entries, B.entries.T)
    # the normal direction is a structural kernel vector
    assert np.linalg.norm(B.entries @ x) <= 1e-12


def test_riemannian_hess_flat_passthrough():
    obj = _poly_objective()
    x = np.array([1.0, 1.0])
    assert np.array_equal(riemannian_hess(obj, x).entries, obj.hess(x).entries)


def test_builtin_problems_catalog():
    problems = builtin_problems()
    expected = {
        "example1", "example2", "example3", "example4", "example5", "example6",
        "example7", "example8", "example9", "example7p", "example8p", "example9p",
    }
    assert set(problems) == expected
    for sid, prob in problems.items():
        obj = prob.objective
        assert obj.domain.contains(prob.x0), sid
        # the evaluation-free line search must be runnable on every entry;
        # example6's Hessian is zero, and so is its bound
        assert obj.lipschitz_fn is not None, sid
        assert obj.lipschitz_fn(prob.x0) >= 0.0, sid


def _ball_offsets(m, rng):
    """Offsets of norm at most 1: a grid of [-1, 1] for m = 1; otherwise
    both ends of each axis and 30 seeded directions, each at 9 radii from
    0 to 1."""
    if m == 1:
        return np.linspace(-1.0, 1.0, 801)[:, None]
    u = rng.standard_normal((30, m))
    dirs = np.vstack([np.eye(m), -np.eye(m), u / np.linalg.norm(u, axis=1)[:, None]])
    return (np.linspace(0.0, 1.0, 9)[:, None, None] * dirs).reshape(-1, m)


def _retraction_curvature(H, x, d, t, retraction):
    """h''(t) for h(t) = f(R_x(td)), f(y) = <Hy, y>/2 on the sphere, in
    closed form.  Both retractions give R_x(td) = cos(th) x + sin(th) d,
    with th = t (geodesic) or arctan t (projective), and phi(th) =
    f(cos(th) x + sin(th) d) is a trigonometric polynomial in 2 th."""
    a, b, c = x @ H @ x, x @ H @ d, d @ H @ d
    th = t if retraction == "geodesic" else np.arctan(t)
    d1 = 0.5 * (c - a) * np.sin(2.0 * th) + b * np.cos(2.0 * th)
    d2 = (c - a) * np.cos(2.0 * th) - 2.0 * b * np.sin(2.0 * th)
    if retraction == "geodesic":
        return d2
    return (d2 - 2.0 * t * d1) / (1.0 + t * t) ** 2


@pytest.mark.parametrize("sid", sorted(builtin_problems()))
def test_catalog_lipschitz_bounds_the_hessian_on_the_half_radius_ball(sid):
    # L(x) must bound the curvature of every local-backtracking step from
    # x, of length at most r(x)/2; the 1e-12 covers rounding.  On an open
    # subset a step stays in the closed ball B(x, r(x)/2), so L(x) bounds
    # |hess f|_2 all over it.  On the sphere (radius pi) a step follows
    # the retraction, so L(x) bounds |d^2/dt^2 f(R_x(td))| for unit
    # tangents d, t <= pi/2 and both retractions; its quadratics' Hessians
    # are the same everywhere.  Member points ten times the sampler's
    # reach test the bounds away from the origin too.
    prob = builtin_problems()[sid]
    obj = prob.objective
    sphere = isinstance(obj.domain, Sphere)
    rng = np.random.default_rng(3)
    offsets = _ball_offsets(prob.x0.size, rng)
    samples = [prob.sample_point(rng) for _ in range(5)]
    cases = []
    for x in [prob.x0] + samples + [10.0 * p for p in samples]:
        if not obj.domain.contains(x):
            continue
        half = 0.5 * obj.domain.radius(x)
        if sphere:
            H = obj.hess(x).entries
            # The unit offsets, projected to T_x.
            ds = [tangent_project(obj.domain, x, u) for u in offsets[-len(offsets) // 9:]]
            ds = [d / np.linalg.norm(d) for d in ds if np.linalg.norm(d) > 1e-3]
            ts = np.linspace(0.0, half, 41)
            top = max(abs(_retraction_curvature(H, x, d, ts, retraction)).max()
                      for retraction in Sphere.MODES for d in ds)
        else:
            ys = x + half * offsets
            top = np.linalg.norm(np.stack([obj.hess(y).entries for y in ys]), 2,
                                 axis=(1, 2)).max()
        cases.append((x, top, obj.lipschitz_fn(x)))
    assert cases
    assert [c for c in cases if not c[1] <= c[2] * (1.0 + 1e-12)] == []
    if prob.x0.size == 1:
        # On the punctured line the bound is the supremum itself.
        assert [c for c in cases if not c[1] >= c[2] * (1.0 - 1e-4)] == []


@pytest.mark.parametrize("sid", sorted(builtin_problems()))
def test_builtin_samplers_stay_in_domain(sid):
    prob = builtin_problems()[sid]
    rng = np.random.default_rng(99)
    for _ in range(50):
        x = prob.sample_point(rng)
        assert prob.objective.domain.contains(x)


def test_sphere_scenarios_share_ball_matrices():
    problems = builtin_problems()
    # the sphere variants restrict the same quadratics as the ball ones
    x = problems["example8p"].x0
    f_ball = problems["example8"].objective
    f_sph = problems["example8p"].objective
    assert f_sph.value(x) == pytest.approx(f_ball.value(x))
    lam, _ = sym_eig(f_sph.hess(x))
    assert lam[0] == pytest.approx(-225.0)


def test_quadratic_form_refuses_a_domain_of_another_dimension():
    with pytest.raises(ValueError, match=r"QuadraticForm of dimension 3 on OpenSubset\(2\)"):
        QuadraticForm(np.eye(3)).to_objective(Euclidean(2))


def test_quadratic_form_of_dimension_zero_has_no_domain():
    with pytest.raises(ValueError, match=r"QuadraticForm of dimension 0 on OpenSubset\(1\)"):
        QuadraticForm(np.zeros((0, 0))).to_objective(Euclidean(1))


def _restriction_case(kind, rng):
    # A random form with a point x on the domain ``kind`` and a direction
    # d, tangent on the sphere, of norm 1e-3 to 10.
    m = 1 if kind == "punctured_line" else int(rng.integers(2, 7))
    M = {"euclidean": lambda: Euclidean(m), "open_ball": lambda: open_ball(m),
         "punctured_line": _punctured_line, "projective": lambda: Sphere(m),
         "geodesic": lambda: Sphere(m, "geodesic")}[kind]()
    B = rng.standard_normal((m, m))
    x = rng.standard_normal(m)
    if isinstance(M, Sphere):
        x /= np.linalg.norm(x)
    elif kind == "open_ball":
        x *= rng.uniform(0.0, 0.9) / np.linalg.norm(x)
    elif kind == "punctured_line":
        x = np.array([rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])])
    d = rng.standard_normal(m) * 10.0 ** rng.uniform(-3.0, 1.0)
    if isinstance(M, Sphere):
        d = tangent_project(M, x, d)
    return QuadraticForm(0.5 * (B + B.T)), M, x, d


@pytest.mark.parametrize("kind", ["euclidean", "open_ball", "punctured_line",
                                  "projective", "geodesic"])
def test_restriction_is_f_along_the_retraction(kind):
    # phi(a, b) with the domain's coefficients for R_x(t d) is f there
    # within 8 ulps of (|A|_2/2) max|y|^2, the largest |f| on the sphere of
    # radius max|y| over the points y checked; t runs from 0 through
    # steps below GEODESIC_ZERO_NORM to most of the radius.
    rng = np.random.default_rng(31)
    for _ in range(40):
        q, M, x, d = _restriction_case(kind, rng)
        obj = q.to_objective(M)
        r, dn = M._radius(x), float(np.linalg.norm(d))
        phi = obj.restriction_fn(x, d)
        ts = [0.0, 1e-16 / dn, 0.5 * GEODESIC_ZERO_NORM / dn,
              *rng.uniform(0.0, min(r, 10.0) / dn, 5)]
        got, want, ys = [], [], []
        for t in ts:
            if t * dn < r:
                y = M._retract(x, t * d, r)
                ys.append(y)
                want.append(obj.value(y))
                got.append(phi(*M._span_coefficients(t, dn)))
        scale = 0.5 * np.linalg.norm(q.A.entries, 2) * max(y.dot(y) for y in ys)
        assert np.abs(np.subtract(got, want)).max() <= 8.0 * EPS * scale


def test_restriction_follows_the_domain_the_objective_is_moved_to():
    # bench._prepare and ball_minimize move an objective with
    # dataclasses.replace(obj, domain=...).  The line search reads the
    # run's domain's coefficients, so each recorded f is f at the recorded
    # point on the sphere; a restriction of the straight line x - t g, the
    # domain to_objective saw, would record values off the sphere.
    B = np.random.default_rng([4, 31]).standard_normal((5, 5))
    base = QuadraticForm(0.5 * (B + B.T)).to_objective(Euclidean(5))
    x0 = np.full(5, 1.0 / np.sqrt(5.0))
    for M in (Sphere(5), Sphere(5, "geodesic"), open_ball(5)):
        obj = dataclasses.replace(base, domain=M)
        start = x0 if isinstance(M, Sphere) else 0.5 * x0
        tr = run(obj, start, "backtracking", stop=StopCriteria(max_iters=10))
        assert tr.steps == 10
        tol = 8.0 * EPS * np.linalg.norm(B, 2)
        for rec in tr.records:
            assert M.contains(rec.point)
            assert abs(rec.f_value - obj.value(rec.point)) <= tol


def test_formed_products_stay_near_the_product_over_500_steps():
    # The landed point's product is a Ax + b Ad, the last product carried
    # with |a| <= 1, so the k-th has the rounding of k steps: the error in
    # Ad (n eps |A||d|), in forming a Ax + b Ad, and in the retraction's
    # rounding of y against a x + b d, each of order n eps |A|_2 with
    # |a| + |b||d| <= sqrt(2) on the sphere.  Rounding errors of
    # independent steps add in quadrature, so the error after k steps is
    # of order sqrt(k) n eps |A|_2 (k n eps |A|_2 at worst), checked here
    # against A @ y at every landed point y of 500 steps of a slow descent
    # (the bottom two eigenvalues 1e-3 apart).  It reads about 0.03 of
    # the bound.
    n = 30
    rng = np.random.default_rng([0, 500])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.concatenate([[1.0, 1.001], np.linspace(1.5, 3.0, n - 2)])) @ Q.T
    A = 0.5 * (A + A.T)
    bound = n * EPS * np.linalg.norm(A, 2)
    x0 = rng.standard_normal(n)
    for mode in Sphere.MODES:
        q = QuadraticForm(A)
        obj = q.to_objective(Sphere(n, mode))
        restriction, errors = obj.restriction_fn, []

        def landing(x, d):
            phi = restriction(x, d)

            def spy(a, b, y=None):
                value = phi(a, b, y)
                if y is not None:
                    errors.append(np.linalg.norm(q.grad(y) - A @ y))
                return value

            return spy

        tr = run(dataclasses.replace(obj, restriction_fn=landing),
                 x0 / np.linalg.norm(x0), "backtracking",
                 stop=StopCriteria(grad_tol=0.0, max_iters=500))
        assert tr.termination is Termination.MAX_ITERATIONS and len(errors) == 500
        assert all(e <= np.sqrt(k) * bound for k, e in enumerate(errors, 1))


@pytest.mark.parametrize("domain", [Sphere(6), Euclidean(6)])
def test_a_non_finite_product_ends_the_run_as_without_the_restriction(domain):
    # With |A| about 1e200 the product A d overflows on the sphere (d is
    # the gradient, of norm about |A|), and in flat space, from a point of
    # norm 1e-110, A g does while A x does not.  The restriction gives
    # None for such a step, and the run is the one without it, bit for bit.
    B = np.random.default_rng([0, 6]).standard_normal((6, 6))
    q = QuadraticForm(0.5 * (B + B.T) * 1e200)
    obj = q.to_objective(domain)
    x0 = np.ones(6) / np.sqrt(6.0)
    if not isinstance(domain, Sphere):
        x0 *= 1e-110
    with np.errstate(over="ignore", invalid="ignore"):
        assert obj.restriction_fn(x0, -obj.grad(x0)) is None
    traces = [run(o, x0, "backtracking", stop=StopCriteria(max_iters=5))
              for o in (obj, dataclasses.replace(obj, restriction_fn=None))]
    assert [(rec.point.tobytes(), rec.f_value, rec.step_size) for rec in traces[0].records] \
        == [(rec.point.tobytes(), rec.f_value, rec.step_size) for rec in traces[1].records]
    assert traces[0].termination is traces[1].termination


def test_a_non_finite_point_product_gives_no_restriction():
    # An infinite entry of A x makes x.Ax inf or nan, even where x is 0.
    restriction = QuadraticForm(np.diag([1e300, 1.0])).to_objective(
        Euclidean(2)).restriction_fn
    with np.errstate(over="ignore", invalid="ignore"):
        assert restriction(np.array([1e10, 0.0]), np.array([0.0, 1.0])) is None
        assert restriction(np.array([0.0, 1.0]), np.array([1e10, 0.0])) is None


def test_negate_drops_the_restriction():
    obj = QuadraticForm(np.eye(2)).to_objective(Euclidean(2))
    assert obj.restriction_fn is not None
    assert negate(obj).restriction_fn is None
