import numpy as np
import pytest

from manifold_descent.manifold import (
    Euclidean,
    NotOnManifold,
    NotTangent,
    OpenSubset,
    Sphere,
    StepTooLarge,
    open_ball,
)


def test_euclidean_basics():
    M = Euclidean(3)
    x = np.array([1.0, -2.0, 0.5])
    assert M.contains(x)
    assert not M.contains([1.0, 2.0])
    assert not M.contains([1.0, np.nan, 0.0])
    assert M.radius(x) == np.inf
    assert np.array_equal(M.retract(x, [1.0, 1.0, 1.0]), x + 1.0)
    u = np.array([3.0, 4.0, 5.0])
    p = M.tangent_project(x, u)
    assert np.array_equal(p, u)
    p[0] = 0.0
    assert u[0] == 3.0  # projection returns a copy


def test_euclidean_rejects_outside_point():
    M = Euclidean(2)
    with pytest.raises(NotOnManifold):
        M.radius([1.0, 2.0, 3.0])
    with pytest.raises(NotOnManifold):
        M.retract([np.inf, 0.0], [0.0, 0.0])


def test_flat_backends_leave_derivatives_alone():
    M = Euclidean(2)
    x = np.array([0.5, -1.0])
    g = np.array([1.0, 2.0])
    assert M.egrad2rgrad(x, g) is g
    H = object()
    # the gradient callable is never evaluated on flat space
    assert M.ehess2rhess(x, H, egrad=None) is H
    assert M.tangent_basis(x) is None


@pytest.mark.parametrize("m", [2, 3, 6])
def test_sphere_tangent_basis_is_orthonormal(m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    Q = Sphere(m).tangent_basis(x)
    assert Q.shape == (m, m - 1)
    assert np.allclose(Q.T @ Q, np.eye(m - 1), atol=1e-12)
    assert np.allclose(x @ Q, 0.0, atol=1e-12)


def test_open_ball_membership_and_radius():
    B = open_ball(2)
    assert B.contains([0.3, 0.4])
    assert not B.contains([0.6, 0.8])  # norm exactly 1
    assert not B.contains([2.0, 0.0])
    x = np.array([0.3, 0.4])
    assert B.radius(x) == pytest.approx(0.5)


def test_open_ball_retract_gates_on_radius():
    B = open_ball(2)
    x = np.array([0.5, 0.0])
    y = B.retract(x, [0.25, 0.0])
    assert np.allclose(y, [0.75, 0.0])
    # the gate is strict: a step of exactly the radius is rejected
    with pytest.raises(StepTooLarge):
        B.retract(x, [0.5, 0.0])
    with pytest.raises(StepTooLarge):
        B.retract(x, [0.0, 0.7])
    with pytest.raises(NotOnManifold):
        B.retract([1.5, 0.0], [0.0, 0.0])


def test_open_subset_rejects_bad_radius_fn():
    M = OpenSubset(1, radius_fn=lambda x: 0.0, member_fn=lambda x: True)
    with pytest.raises(NotOnManifold):
        M.radius([0.5])


def test_punctured_line_subset():
    M = OpenSubset(1, radius_fn=lambda t: abs(t[0]), member_fn=lambda t: t[0] != 0.0)
    assert M.contains([2.0])
    assert not M.contains([0.0])
    assert M.radius([-0.25]) == 0.25
    with pytest.raises(StepTooLarge):
        M.retract([0.1], [0.1])


def test_sphere_membership_atol():
    S = Sphere(3)
    assert S.contains([1.0, 0.0, 0.0])
    assert S.contains([1.0 + 5e-11, 0.0, 0.0])
    assert not S.contains([1.0 + 1e-9, 0.0, 0.0])
    assert not S.contains([0.0, 0.0])
    assert S.radius([0.0, 0.0, 1.0]) == np.pi


def test_sphere_rejects_bad_construction():
    with pytest.raises(ValueError):
        Sphere(1)
    with pytest.raises(ValueError):
        Sphere(3, retraction="parallel")


def test_sphere_tangent_project_is_clean():
    S = Sphere(3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        u = rng.standard_normal(3) * 100.0
        w = S.tangent_project(x, u)
        # residual normal component stays near eps relative to the
        # tangent part, not relative to u
        assert abs(w @ x) <= 1e-12 * (1.0 + np.linalg.norm(w))


def test_sphere_retract_rejects_normal_component():
    S = Sphere(2)
    x = np.array([1.0, 0.0])
    with pytest.raises(NotTangent):
        S.retract(x, [0.1, 0.1])


def test_sphere_retract_rejects_long_steps():
    S = Sphere(2)
    x = np.array([1.0, 0.0])
    with pytest.raises(StepTooLarge):
        S.retract(x, [0.0, np.pi])


def test_projective_retract_formula():
    S = Sphere(2)
    x = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    y = S.retract(x, v)
    assert np.allclose(y, np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_geodesic_retract_formula():
    S = Sphere(2, retraction="geodesic")
    x = np.array([1.0, 0.0])
    v = np.array([0.0, np.pi / 2.0])
    y = S.retract(x, v)
    # quarter turn along the great circle
    assert np.allclose(y, [0.0, 1.0], atol=1e-15)


def test_geodesic_retract_zero_vector_limit():
    S = Sphere(3, retraction="geodesic")
    x = np.array([0.0, 1.0, 0.0])
    y = S.retract(x, np.zeros(3))
    assert np.array_equal(y, x)
    assert y is not x


@pytest.mark.parametrize("mode", Sphere.MODES)
def test_retract_lands_on_sphere(mode):
    rng = np.random.default_rng(17)
    S = Sphere(4, retraction=mode)
    for _ in range(50):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        v = S.tangent_project(x, rng.standard_normal(4))
        v *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(v), 1e-12)
        y = S.retract(x, v)
        assert S.contains(y)


@pytest.mark.parametrize("mode", Sphere.MODES)
def test_retract_fixes_origin(mode):
    S = Sphere(3, retraction=mode)
    x = np.array([0.6, 0.0, 0.8])
    assert np.allclose(S.retract(x, np.zeros(3)), x, atol=1e-15)


@pytest.mark.parametrize(
    "M, outside",
    [(open_ball(2), [1.5, 0.0]), (Sphere(2), [0.6, 0.6])],
    ids=["open_ball", "sphere"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda M, x: M.radius(x),
        lambda M, x: M.retract(x, [0.0, 0.0]),
        lambda M, x: M.tangent_project(x, [0.0, 1.0]),
    ],
    ids=["radius", "retract", "tangent_project"],
)
def test_public_backend_methods_reject_non_members(M, outside, call):
    # The private forms the steppers use skip this test; the public
    # methods must not.
    with pytest.raises(NotOnManifold):
        call(M, outside)
