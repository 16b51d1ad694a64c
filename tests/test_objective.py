import numpy as np
import pytest

from manifold_descent.linalg import SymMatrix, sym_eig
from manifold_descent.manifold import Euclidean, NotOnManifold, Sphere, open_ball
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    builtin_problems,
    negate,
    riemannian_grad,
    riemannian_hess,
)
from oracles import fd_gradient, tangent_project


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
