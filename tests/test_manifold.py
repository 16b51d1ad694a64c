import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import manifold_descent.manifold as manifold
from manifold_descent.linalg import SymMatrix
from manifold_descent.manifold import (
    Euclidean,
    NotOnManifold,
    NotTangent,
    OpenSubset,
    Sphere,
    StepTooLarge,
    open_ball,
)
from manifold_descent.objective import (
    Objective,
    QuadraticForm,
    builtin_problems,
    riemannian_grad,
    _punctured_line,
    riemannian_hess,
)
from manifold_descent.optim import BacktrackingParams, StopCriteria, Termination, run
from oracles import (MEMBER_FNS, lift_matrix, member_fn_contains, sphere_contains,
                     sphere_retract, sphere_tangent_hessian, tangent_project)


def test_euclidean_basics():
    M = Euclidean(3)
    x = np.array([1.0, -2.0, 0.5])
    assert M.contains(x)
    assert not M.contains([1.0, 2.0])
    assert not M.contains([1.0, np.nan, 0.0])
    assert M.radius(x) == np.inf
    assert np.array_equal(M.retract(x, [1.0, 1.0, 1.0]), x + 1.0)


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
    # the gradient callable is never evaluated on flat space, and the
    # tangent coordinates are the ambient ones
    Hr, gr, lift = M.tangent_hessian(x, H, g, egrad=None)
    assert Hr is H and gr is g
    assert lift(g) is g


def _sphere_points(m, seed):
    # Random points plus the poles and a point with x_m = 0, where the
    # Householder vector's sign choice switches.
    rng = np.random.default_rng([seed, m])
    pts = [p / np.linalg.norm(p) for p in rng.standard_normal((4, m))]
    e = np.eye(m)
    return pts + [e[-1], -e[-1], e[0]]


@pytest.mark.parametrize("m", [2, 3, 6])
def test_sphere_tangent_basis_is_orthonormal(m):
    # The lift maps coordinates onto T_x isometrically: its columns are
    # an orthonormal basis of the hyperplane orthogonal to x.
    S = Sphere(m)
    rng = np.random.default_rng(m)
    for x in _sphere_points(m, 0):
        _, _, lift = S.tangent_hessian(x, SymMatrix(np.eye(m)), x, lambda p: p)
        Q = lift_matrix(lift, m - 1)
        assert Q.shape == (m, m - 1)
        assert np.allclose(Q.T @ Q, np.eye(m - 1), atol=1e-15)
        assert np.allclose(x @ Q, 0.0, atol=1e-15)
        for y in rng.standard_normal((5, m - 1)):
            v = lift(y)
            assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(y), rel=1e-15)
            assert abs(x @ v) <= 1e-15 * np.linalg.norm(y)


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
    # r = 0 everywhere: the subset is empty.
    M = OpenSubset(1, radius_fn=lambda x: 0.0)
    with pytest.raises(NotOnManifold):
        M.radius([0.5])


def test_punctured_line_subset():
    M = OpenSubset(1, radius_fn=lambda t: abs(t[0]))
    assert M.contains([2.0])
    assert not M.contains([0.0])
    assert M.radius([-0.25]) == 0.25
    with pytest.raises(StepTooLarge):
        M.retract([0.1], [0.1])


def _membership_probes(m):
    # Points on both sides of every boundary the catalog's domains have:
    # the punctured coordinate hyperplanes (0 and +-5e-324), the line
    # x_0 = 1 and the unit sphere (one ulp either side), plus interior and
    # exterior points, overflowing squares, non-finite entries and points
    # of the wrong length.
    rng = np.random.default_rng(m)
    up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    special = [0.0, -0.0, 5e-324, -5e-324, 1.0, up, down, -1.0, -up, -down,
               0.5, -2.0, 1e200, np.nan, np.inf, -np.inf]
    probes = [np.array(rng.choice(special, size=m)) for _ in range(200)]
    for i in range(m):
        for c in special:
            for fill in (0.0, 0.25):
                e = np.full(m, fill)
                e[i] = c
                probes.append(e)
    for scale in (1e-3, 0.5, down, 1.0, up, 2.0, 1e3):
        for u in rng.standard_normal((20, m)):
            probes.append(u / np.linalg.norm(u) * scale)
    probes += [np.zeros(m + 1), np.full(m + 1, 0.1)]
    if m > 1:
        probes.append(np.full(m - 1, 0.1))
    return probes


def _catalog_domains():
    problems = builtin_problems()
    named = {"example1": "punctured_line", "example2": "punctured_line",
             "example3": "punctured_line", "example4": "example4",
             "example5": "example5", "example6": "example6",
             "example7": "open_ball", "example8": "open_ball",
             "example9": "open_ball"}
    cases = [(sid, problems[sid].objective.domain, MEMBER_FNS[key])
             for sid, key in named.items()]
    for m in (1, 2, 3):
        cases += [("Euclidean(%d)" % m, Euclidean(m), MEMBER_FNS["Euclidean"]),
                  ("open_ball(%d)" % m, open_ball(m), MEMBER_FNS["open_ball"])]
    return cases


@pytest.mark.parametrize("label, M, member_fn", _catalog_domains(),
                         ids=[c[0] for c in _catalog_domains()])
def test_membership_is_the_removed_member_predicate(label, M, member_fn):
    # r(x) > 0 decides membership exactly where the removed predicate did,
    # and r is 0.0 off the domain and radius_fn's value on it.
    m = M.ambient_dim
    seen = set()
    for x in _membership_probes(m):
        want = member_fn_contains(m, member_fn, x)
        assert M.contains(x) is want, (label, x)
        with np.errstate(over="ignore", invalid="ignore"):
            r = M._radius(x)
        assert r == (float(M.radius_fn(x)) if want else 0.0), (label, x)
        seen.add(want)
    assert seen == {True, False} or label.startswith("Euclidean")


@pytest.mark.parametrize("m", [2, 3, 5])
def test_sphere_membership_is_the_removed_tolerance_test(m):
    rng = np.random.default_rng(m)
    directions = [np.eye(m)[0]] + [u / np.linalg.norm(u)
                                   for u in rng.standard_normal((5, m))]
    seen = set()
    S = Sphere(m)
    for d in directions:
        for edge in (1.0 + 1e-10, 1.0 - 1e-10):
            c = edge
            for _ in range(4):
                c = np.nextafter(c, 0.0)
            for _ in range(9):
                x = d * c
                want = sphere_contains(m, x)
                assert S.contains(x) is want, x
                assert S._radius(x) == (np.pi if want else 0.0)
                seen.add(want)
                c = np.nextafter(c, 2.0)
    for x in _membership_probes(m):
        assert S.contains(x) is sphere_contains(m, x), x
    assert seen == {True, False}


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


# Each backend maker and the least dimension it takes.
DIMENSION_MAKERS = {"OpenSubset": (lambda m: OpenSubset(m, lambda x: 1.0), 1),
                    "Euclidean": (Euclidean, 1), "open_ball": (open_ball, 1),
                    "Sphere": (Sphere, 2)}


@pytest.mark.parametrize("name", sorted(DIMENSION_MAKERS))
def test_backends_refuse_a_dimension_that_is_not_an_integer_of_their_size(name):
    # The check StopCriteria makes of max_iters: a float, even a whole
    # one, or a bool is refused rather than truncated, and so is a
    # dimension below 1 (2 for the sphere); a NumPy integer is an integer.
    make, least = DIMENSION_MAKERS[name]
    for bad in (2.5, 2.7, 3.0, True, "3", None, least - 1, -1):
        with pytest.raises(ValueError, match="ambient dimension"):
            make(bad)
    for good in (least, np.int64(least + 1), np.int32(5)):
        M = make(good)
        assert M.ambient_dim == good and type(M.ambient_dim) is int


def test_points_with_complex_entries_are_refused_not_cast():
    # A cast would keep the real part with only a ComplexWarning, so
    # (0.6, 0.8j) would be tested as (0.6, 0).
    for M in (Euclidean(2), open_ball(2), Sphere(2)):
        for check in (M.contains, M.radius):
            with pytest.raises(ValueError, match="real entries"):
                check(np.array([0.6, 0.8j]))
        with pytest.raises(ValueError, match="real entries"):
            M.retract([0.6 + 0j, 0.0], np.zeros(2))


def test_sphere_tangent_project_is_clean():
    S = Sphere(3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        u = rng.standard_normal(3) * 100.0
        w = S.egrad2rgrad(x, u)
        # residual normal component stays near eps relative to the
        # tangent part, not relative to u
        assert abs(w @ x) <= 1e-12 * (1.0 + np.linalg.norm(w))


def test_sphere_retract_rejects_normal_component():
    S = Sphere(2)
    x = np.array([1.0, 0.0])
    with pytest.raises(NotTangent):
        S.retract(x, [0.1, 0.1])


@pytest.mark.parametrize("mode", Sphere.MODES)
def test_sphere_retract_takes_a_tangent_step_whose_squares_underflow(mode):
    # |v|^2 = 1e-340 underflows to 0 while <v, x> ~ 1e-186 does not; the
    # tangency gate reads |v| through the rescaled norm, not sqrt(v.v).
    S = Sphere(5, mode)
    x = np.random.default_rng(0).standard_normal(5)
    x /= np.linalg.norm(x)
    v = S.egrad2rgrad(x, np.random.default_rng(1).standard_normal(5))
    v *= 1e-170 / np.linalg.norm(v)
    assert v.dot(v) == 0.0 and v @ x != 0.0
    assert np.array_equal(S._retract(x, v, S._radius(x)), x)


def test_backtracking_down_to_underflowing_steps_ends_with_a_reason():
    # A random Rayleigh quotient with beta = 0.14: the line search walks
    # far enough down the grid that its trial steps' squares underflow,
    # which once raised NotTangent out of run.
    rng = np.random.default_rng(1)
    m = int(rng.integers(2, 40))
    B = rng.uniform(0.5, 2) * rng.standard_normal((m, m))
    x0 = rng.standard_normal(m)
    x0 /= np.linalg.norm(x0)
    params = BacktrackingParams(alpha=rng.uniform(0.05, 0.95),
                                beta=rng.uniform(0.05, 0.95))
    obj = QuadraticForm(SymMatrix(0.5 * (B + B.T))).to_objective(Sphere(m))
    tr = run(obj, x0, "backtracking", params, StopCriteria(grad_tol=0, max_iters=200))
    assert tr.termination is Termination.LINE_SEARCH_EXHAUSTED
    assert all(obj.domain.contains(rec.point) for rec in tr.records)


def _sphere_case(m, seed, kind):
    # A point of S^{m-1} of the given kind, a symmetric H and an ambient g.
    rng = np.random.default_rng([m, seed])
    if kind in ("e_m", "-e_m"):
        x = np.zeros(m)
        x[-1] = 1.0 if kind == "e_m" else -1.0
    else:
        x = rng.standard_normal(m)
        if kind == "x_m = 0":
            x[-1] = 0.0
        x /= np.linalg.norm(x)
    B = rng.standard_normal((m, m))
    return x, SymMatrix(0.5 * (B + B.T)), rng.standard_normal(m), rng


def _outcome(f, *args):
    try:
        return f(*args).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


_SPHERE_KINDS = st.sampled_from(["random", "x_m = 0", "e_m", "-e_m"])


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 300), st.integers(0, 2**16), _SPHERE_KINDS,
       st.floats(-170.0, math.log10(0.999 * math.pi)),
       st.sampled_from(Sphere.MODES))
@example(300, 0, "random", math.log10(0.999 * math.pi), "geodesic")
@example(300, 1, "x_m = 0", -170.0, "projective")
@example(2, 2, "e_m", -160.0, "geodesic")
@example(3, 3, "-e_m", 0.0, "projective")
@example(7, 4, "random", -14.5, "geodesic")
def test_sphere_rewrites_keep_every_bit(m, seed, kind, log_vn, mode):
    # The tangent Hessian's one-buffer update and the retraction's reuse of
    # v.v give the bits of the code they replaced (tests/oracles.py).
    M = Sphere(m, mode)
    x, H, g, rng = _sphere_case(m, seed, kind)
    got = M.tangent_hessian(x, H, g, lambda p: g)
    want = sphere_tangent_hessian(x, H, g, lambda p: g)
    y = rng.standard_normal(m - 1)
    assert got[0].entries.tobytes() == want[0].entries.tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2](y).tobytes() == want[2](y).tobytes()
    t = M.egrad2rgrad(x, rng.standard_normal(m))
    v = t * (10.0 ** log_vn / np.linalg.norm(t))
    for step in (v, v + 1e-6 * x):
        assert (_outcome(M._retract, x, step, np.pi)
                == _outcome(sphere_retract, M, x, step, np.pi))


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
        v = S.egrad2rgrad(x, rng.standard_normal(4))
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
    ],
    ids=["radius", "retract"],
)
def test_public_backend_methods_reject_non_members(M, outside, call):
    # The private forms the steppers use skip this test; the public
    # methods must not.
    with pytest.raises(NotOnManifold):
        call(M, outside)


@pytest.mark.parametrize("M", [open_ball(2), Sphere(2)], ids=["open_ball", "sphere"])
def test_far_off_point_is_not_a_member(M):
    # The squared norm of this point overflows.  That must read as "not
    # on the manifold", not as a RuntimeWarning (an error in this suite).
    far = np.array([1e200, 1e200])
    assert not M.contains(far)
    obj = QuadraticForm(SymMatrix(np.eye(2))).to_objective(M)
    for call in (lambda: M.radius(far),
                 lambda: M.retract(far, [0.0, 0.0]),
                 lambda: riemannian_grad(obj, far),
                 lambda: riemannian_hess(obj, far),
                 lambda: run(obj, far, "backtracking")):
        with pytest.raises(NotOnManifold):
            call()


@pytest.mark.parametrize("retraction", Sphere.MODES)
def test_sphere_tangent_hessian_matches_finite_differences(retraction):
    # f = sum x^4 + x^T A x/2 on S^4: along v = lift(y) the difference
    # P(grad f(R_x(tv)) - grad f(x))/t of Riemannian gradients meets
    # lift(H y) to first order in t, so the error falls by about 10 per
    # decade of t.
    rng = np.random.default_rng(4)
    B = rng.standard_normal((5, 5))
    A = 0.5 * (B + B.T)
    S = Sphere(5, retraction)
    obj = Objective(lambda x: float(np.sum(x**4) + 0.5 * x @ A @ x),
                    lambda x: 4.0 * x**3 + A @ x,
                    lambda x: SymMatrix(np.diag(12.0 * x**2) + A), S)
    for _ in range(3):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        g = riemannian_grad(obj, x)
        H, _, lift = S.tangent_hessian(x, obj.hess(x), g, obj.grad)
        y = rng.standard_normal(4)
        y /= np.linalg.norm(y)
        v, want = lift(y), lift(H.entries @ y)
        errs = [np.linalg.norm(want - tangent_project(
                    S, x, (riemannian_grad(obj, S.retract(x, t * v)) - g) / t))
                for t in (1e-3, 1e-4, 1e-5)]
        for big, small in zip(errs, errs[1:]):
            assert 5.0 <= big / small <= 20.0


@pytest.mark.parametrize("M, member", [(open_ball(2), [0.3, 0.4]),
                                       (Sphere(2), [0.6, 0.8])],
                         ids=["open_subset", "sphere"])
def test_public_contains_coerces_its_point(M, member):
    # The public contains turns a list into a 1-d float array and refuses
    # any other shape; the private _radius takes such an array as it is.
    assert M.contains(member)
    assert M.contains(tuple(member))
    assert M._radius(np.array(member)) > 0.0
    with pytest.raises(ValueError):
        M.contains(np.array([member]))
    with pytest.raises(ValueError):
        M.contains(np.array(member).reshape(2, 1))


# A backend writes these five, unchecked, and binds the checked public
# forms that manifold.py defines once.
WRITTEN = {"_radius", "_retract", "_span_coefficients", "egrad2rgrad",
           "tangent_hessian"}
SHARED = ("contains", "radius", "retract")


@pytest.mark.parametrize("cls", [OpenSubset, Sphere])
def test_backend_writes_five_methods_and_binds_the_checked_forms(cls):
    methods = {name for name, value in vars(cls).items()
               if callable(value) and not name.startswith("__")}
    assert methods == WRITTEN | set(SHARED)
    for name in SHARED:
        # Bound in the class's own dict, where the benchmark's tracer
        # wraps and restores it.
        assert vars(cls)[name] is getattr(manifold, name)


def _projection_cases():
    rng = np.random.default_rng(23)
    ball = rng.standard_normal(2)
    cases = [(Euclidean(3), rng.standard_normal(3) * 1e3),
             (open_ball(2), 0.9 * ball / np.linalg.norm(ball)),
             (_punctured_line(), np.array([-0.3]))]
    for mode in Sphere.MODES:
        x = rng.standard_normal(5)
        cases.append((Sphere(5, mode), x / np.linalg.norm(x)))
    return cases


@pytest.mark.parametrize("M, x", _projection_cases(),
                         ids=["euclidean", "open_ball", "punctured_line",
                              "sphere_projective", "sphere_geodesic"])
def test_egrad2rgrad_is_the_removed_tangent_projection(M, x):
    # Bit for bit, at scales whose squares underflow or overflow too.
    rng = np.random.default_rng(29)
    for scale in (1e-170, 1e-5, 1.0, 1e5, 1e160):
        for _ in range(10):
            g = scale * rng.standard_normal(x.size)
            want = tangent_project(M, x, g)
            got = M.egrad2rgrad(x, g)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("M, member, outside",
                         [(open_ball(2), [0.3, 0.4], [1.5, 0.0]),
                          (Sphere(2), [0.6, 0.8], [0.6, 0.6]),
                          (Sphere(3, "geodesic"), [0.0, 0.6, 0.8], [0.0, 0.0, 0.0])],
                         ids=["open_ball", "sphere", "sphere_geodesic"])
def test_checked_forms_read_the_radius_once_and_name_the_backend(M, member,
                                                                 outside):
    cls = type(M)
    r = cls._radius(M, np.array(member, dtype=float))
    with mock.patch.object(cls, "_radius", autospec=True,
                           side_effect=cls._radius) as spy:
        assert M.radius(member) == r
        assert spy.call_count == 1
        M.retract(member, np.zeros(len(member)))
        assert spy.call_count == 2
        assert M.contains(member)
        assert spy.call_count == 3
        for call in (lambda: M.radius(outside),
                     lambda: M.retract(outside, np.zeros(len(outside)))):
            with pytest.raises(NotOnManifold,
                               match="^point is not on %s$" % re.escape(repr(M))):
                call()
        assert spy.call_count == 5
