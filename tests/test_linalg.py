import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import manifold_descent.optim as optim
from manifold_descent.bench import smallest_eigenvalue
from manifold_descent.linalg import (
    RELATIVE_EIG_TOL,
    NonFinite,
    SingularMatrix,
    SymMatrix,
    _clears_gate,
    _gate_tol,
    _norm,
    _pd_solve,
    _positive_definite,
    spectral_split,
    sym_eig,
)
from manifold_descent.manifold import Euclidean, OpenSubset, Sphere
from manifold_descent.objective import Objective, QuadraticForm
from manifold_descent.optim import (
    CHOLESKY_MIN_DIM,
    NewQNewtonParams,
    _new_q_newton_step,
    _newton_step,
    _tangent_solve,
)
from oracles import abs_gate, norm_reference, shifted_gate, sym_matrix_entries


def test_complex_entries_are_refused_not_cast():
    # A cast keeps the real part with only a ComplexWarning: [[2, i], [-i,
    # 2]], whose eigenvalues are 1 and 3, would read as 2I.
    for entries in (np.array([[2, 1j], [-1j, 2]]), [[2.0, 1j], [-1j, 2.0]],
                    np.eye(2, dtype=np.complex64)):
        with pytest.raises(ValueError, match="real entries"):
            SymMatrix(entries)
    with pytest.raises(ValueError, match="real entries"):
        QuadraticForm(np.array([[2, 1j], [-1j, 2]]))


def test_sym_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        SymMatrix([1.0, 2.0])


def test_sym_matrix_rejects_nonfinite():
    with pytest.raises(NonFinite):
        SymMatrix([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(NonFinite):
        SymMatrix([[np.nan]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_symmetric_reads_finiteness_from_the_squared_norm(bad):
    # A finite matrix passes even when the sum of its squares overflows;
    # a nan or inf entry is refused wherever it sits, beside huge ones too.
    with np.errstate(over="ignore"):
        assert SymMatrix._from_symmetric(np.full((3, 3), 1e200)).dim == 3
        for scale in (1.0, 1e200):
            for i in range(3):
                a = np.full((3, 3), scale)
                a[i, 2 - i] = bad
                with pytest.raises(NonFinite):
                    SymMatrix._from_symmetric(a)


def test_sym_matrix_rejects_asymmetry_beyond_gate():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 1e-9], [0.0, 1.0]])


def _qdq(seed, scale):
    # Q diag(d) Q^T with d in [1, 2) * scale, not symmetrized: its mirrored
    # entries differ by rounding.
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    return Q @ np.diag(rng.uniform(1.0, 2.0, 20) * scale) @ Q.T


def _accepted(a):
    try:
        SymMatrix(a)
    except ValueError:
        return False
    return True


def test_sym_matrix_symmetry_gate_reads_the_same_at_every_scale():
    # A power of two scales M - M^T and max|M_ij| exactly, so the relative
    # gate decides alike for 2^k M.  An absolute 1e-12 refused every matrix
    # here at scales 1e4 and 1e8, and accepted a 1e-10 skew at 2^-60.
    for seed in range(20):
        skew = np.triu(np.random.default_rng([seed, 1]).standard_normal((20, 20)), 1)
        for scale in (1.0, 1e4, 1e8):
            M = _qdq(seed, scale)
            bad = M + 1e-10 * float(np.abs(M).max()) * skew
            assert _accepted(M) and not _accepted(bad)
            for k in range(-60, 61):
                assert _accepted(np.ldexp(M, k))
                assert not _accepted(np.ldexp(bad, k))


def test_smallest_eigenvalue_of_a_rescaled_unsymmetrized_matrix():
    M = _qdq(0, 1.0)
    lam = smallest_eigenvalue(M)[0]
    assert math.isclose(smallest_eigenvalue(1e4 * M)[0], 1e4 * lam, rel_tol=1e-12)


def test_sym_matrix_symmetrizes_small_asymmetry():
    M = SymMatrix([[1.0, 2.0 + 1e-13], [2.0, 1.0]])
    assert M.entries[0, 1] == M.entries[1, 0]
    assert M.dim == 2


def test_sym_matrix_averages_as_before_wherever_that_was_finite():
    # 0.5 * (a + a^T) bit for bit, signed zeros and subnormals included,
    # on every matrix whose average does not overflow.  The asymmetric
    # noise is 1e-13 of the largest entry, inside the relative gate.
    rng = np.random.default_rng(8)
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 2.2e-308, 1e300])
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.choice(tiny, size=(n, n)) * rng.choice([1.0, 3.0], size=(n, n))
        a = a + a.T
        a = a + rng.standard_normal((n, n)) * rng.choice([0.0, 1e-13]) * np.abs(a).max()
        want = 0.5 * (a + a.T)
        assert SymMatrix(a).entries.tobytes() == want.tobytes()


def _outcome(build, entries):
    # The frozen entries' dtype, shape, layout and bytes, or the exception.
    try:
        a = build(entries)
    except (ValueError, NonFinite) as exc:
        return type(exc), str(exc)
    return a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()


def test_sym_matrix_gives_the_bytes_and_refusals_of_the_averaging_constructor():
    # An exactly symmetric matrix is copied, not averaged: the same
    # frozen bytes as the constructor that averaged every matrix
    # (oracles.sym_matrix_entries), and the same exception where that
    # refused.  Signed zeros mirrored by the other sign, subnormals,
    # entries near the top of the double range (whose sums overflow),
    # asymmetry inside and past the gate, non-finite entries, lists,
    # transposed views and non-square shapes.
    rng = np.random.default_rng(29)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -3.5, 1e300,
                     1.7e308, -1.7e308])
    cases = [[], [[]], [1.0, 2.0], np.zeros((2, 3)), np.zeros((0, 0)),
             [[0.0, -0.0], [0.0, 0.0]], [[-0.0, -0.0], [-0.0, 1.0]],
             [[1.7e308, 1.7e308], [1.7e308, -1.7e308]],
             [[0.0, 1e308], [-1e308, 0.0]], [[1.0, np.nan], [np.nan, 1.0]],
             [[np.inf, 0.0], [0.0, 1.0]]]
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = rng.choice(pool, size=(n, n))
        kind = rng.integers(5)
        if kind == 0:
            a = np.triu(a) + np.triu(a, 1).T  # mirrored bits
        elif kind == 1:
            a = np.where(a == 0.0, a, np.triu(a) + np.triu(a, 1).T)  # zeros unmirrored
        elif kind == 2:
            b = rng.standard_normal((n, n))
            a = b + b.T
            a = a + rng.choice([1e-14, 1e-9], size=(n, n)) * np.abs(a).max()
        elif kind == 3:
            a = a.T  # a transposed view
        else:
            a = a.tolist()
        cases.append(a)
    for n in (3, 10, 300):
        b = rng.standard_normal((n, n))
        cases += [0.5 * (b + b.T), b, np.asfortranarray(0.5 * (b + b.T))]
    for entries in cases:
        assert _outcome(lambda e: SymMatrix(e).entries, entries) \
            == _outcome(sym_matrix_entries, entries)


def test_sym_matrix_near_the_top_of_the_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = SymMatrix([[1e308, 0.0], [0.0, 1.0]])
        assert M.entries.tolist() == [[1e308, 0.0], [0.0, 1.0]]
        M = SymMatrix([[-1.7e308, 1.7e308], [1.7e308, 1.7e308]])
        assert M.entries.tolist() == [[-1.7e308, 1.7e308], [1.7e308, 1.7e308]]
        # A difference that overflows is asymmetry past the gate.
        with pytest.raises(ValueError, match="asymmetric"):
            SymMatrix([[0.0, 1e308], [-1e308, 0.0]])


def test_sym_matrix_entries_write_protected():
    M = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        M.entries[0, 0] = 5.0


@pytest.mark.parametrize("seed", range(5))
def test_sym_eig_reconstructs_matrix(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    B = rng.standard_normal((m, m))
    M = SymMatrix(B + B.T)
    lam, U = sym_eig(M)
    # ascending order and A v = lambda v
    assert np.all(np.diff(lam) >= 0)
    for k in range(m):
        assert np.allclose(M.entries @ U[:, k], lam[k] * U[:, k], atol=1e-10)
    # orthonormal columns
    assert np.allclose(U.T @ U, np.eye(m), atol=1e-12)


def test_gate_tol_is_relative():
    assert _gate_tol(np.abs([1.0, -1e9]).max()) == RELATIVE_EIG_TOL * (1.0 + 1e9)


def _is_invertible(entries):
    return _clears_gate(sym_eig(SymMatrix(entries))[0]) is not None


def test_is_invertible_scales_with_spectrum():
    assert _is_invertible(np.eye(3))
    assert not _is_invertible(np.zeros((2, 2)))
    # 1e-11 would pass an absolute 1e-12 test but fails the relative one
    assert not _is_invertible(np.diag([1e-11, 1.0]))
    assert _is_invertible(np.diag([1.0, 1e9]))


@st.composite
def _ascending_spectra(draw):
    # Sorted spectra of length 1-40, with magnitudes within a factor 10
    # of 1 or from 1e-12 to 1e12: all positive, all negative or of both
    # signs, each possibly with an exact zero, an end at the gate's
    # tolerance times 1 +- 1e-3, an infinite end, or a nan (np.sort puts
    # it last).
    n = draw(st.integers(1, 3) | st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = draw(st.sampled_from(["positive", "negative", "both"]))
    edit = draw(st.sampled_from(["none", "none", "zero", "gate_above",
                                 "gate_below", "inf", "nan"]))
    width = draw(st.sampled_from([2.3, 27.6]))
    mu = np.exp(rng.uniform(-width, width, n))
    if sign == "negative":
        mu = -mu
    elif sign == "both":
        # Both signs from length 2 on.
        mu *= np.concatenate(([-1.0, 1.0], rng.choice([-1.0, 1.0], n)))[:n]
    mu = np.sort(mu)
    k = draw(st.sampled_from([0, -1]))
    if edit == "zero":
        mu[rng.integers(n)] = draw(st.sampled_from([0.0, -0.0]))
    elif edit.startswith("gate"):
        # The end nearer zero, so max|mu| and with it the tolerance stay.
        k = 0 if abs(mu[0]) <= abs(mu[-1]) else -1
        tol = _gate_tol(np.abs(mu).max())
        mu[k] = np.copysign(tol * (1.0 + (1e-3 if edit == "gate_above" else -1e-3)),
                            mu[k])
    elif edit == "inf":
        mu[k] = np.inf if k else -np.inf
    elif edit == "nan":
        mu[rng.integers(n)] = np.nan
    return np.sort(mu)


@st.composite
def _shifted_spectra(draw):
    # (lam, shift): lam = mu - shift for an ascending mu from
    # _ascending_spectra and a shift of 0 or of +-1e-12 to 1e12.  lam is
    # ascending too, and lam + shift is mu up to the rounding of the two
    # additions, so an end placed at the tolerance mostly stays there; a
    # large shift makes mu a sum that cancels.
    mu = draw(_ascending_spectra())
    shift = draw(st.just(0.0) | st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
                 .flatmap(lambda m: st.sampled_from([m, -m])))
    with np.errstate(invalid="ignore"):
        return mu - shift, shift


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_shifted_spectra())
@example((np.array([-1.0, 2.0]), 0.0))
@example((np.array([-2.0, 0.5, 3.0]), 0.0))
@example((np.array([-2.0, 1e-12, 3.0]), 0.0))
@example((np.array([-2.0, -1e-10, 3.0]), 0.0))
@example((np.array([-1.0, 1e-12]), 0.0))
@example((np.array([-1e-12, 1.0]), 0.0))
@example((np.array([RELATIVE_EIG_TOL * 2.0, 1.0]), 0.0))
@example((np.array([-1.0, -RELATIVE_EIG_TOL * 2.0]), 0.0))
@example((np.array([-1.0]), 1.0))
@example((np.array([-3.0, -2.0]), 1.0))
@example((np.array([-3.0, -2.0, 5.0]), 2.0))
@example((np.array([-1.0, 2.0]), 1.0 + 1e-12))
@example((np.array([1.0, 2.0]), -np.inf))
@example((np.array([-0.5]), -0.0))
def test_gate_on_the_ends_decides_as_the_gate_on_abs_mu(lam_shift):
    # The same decision as min|mu| > tol over the whole of |mu| for
    # mu = lam + shift built first, the same divisor bits |mu| when it
    # passes, and NonFinite for an inf or nan.
    lam, shift = lam_shift
    try:
        want = shifted_gate(lam, shift)
    except NonFinite:
        with pytest.raises(NonFinite):
            _clears_gate(lam, shift)
        return
    got = _clears_gate(lam, shift)
    if want is not None:
        assert got is not None and got.tobytes() == want.tobytes()
    else:
        assert got is None


def _float_bits(draw_bits):
    return struct.unpack("<d", struct.pack("<Q", draw_bits))[0]


# Every class of double: zeros, subnormals, normals from 1e-320 to 1e308
# with squares that underflow, fit or overflow, infinities, nan, and raw
# bit patterns.
_ANY_DOUBLE = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
               | st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)
               | st.integers(0, 2**64 - 1).map(_float_bits))


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(_ANY_DOUBLE)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e-154)
@example(1.4916681462400413e-154)
@example(1.3407807929942596e+154)
@example(1.7976931348623157e+308)
@example(-np.inf)
@example(np.nan)
def test_norm_of_a_1_vector_is_its_absolute_value(x):
    # |x0| against sqrt(v.v) with its rescaling, bit for bit; a nan gives
    # nan, whose sign bit abs clears and sqrt(nan * nan) may keep.
    v = np.array([x])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = norm_reference(v)
    got = _norm(v)
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


def _one_dim_problem(domain, h, g):
    # Tangent dimension one: the punctured line at 0.5 with Hessian [[h]]
    # and gradient [g], or the unit circle at angle 0.7 with ambient
    # Hessian diag(h, -h / 3) and an ambient gradient whose tangent part
    # scales with g.
    if domain == "line":
        M = OpenSubset(1, radius_fn=lambda t: abs(t[0]))
        x, H, eg = np.array([0.5]), [[h]], np.array([g])
    else:
        M = Sphere(2)
        x = np.array([math.cos(0.7), math.sin(0.7)])
        H, eg = np.diag([h, -h / 3.0]), g * np.array([1.0, -0.5])
    obj = Objective(lambda y: 0.0, lambda y: eg, lambda y: H, M)
    return obj, x, M.egrad2rgrad(x, eg)


def _one_by_one_examples(test):
    # Signed zeros, the least subnormal, both ends of the range and plain
    # entries, each under plain Newton and under the New Q-Newton
    # candidates, whose second one shifts past a first that fails.
    for h in (0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, -2.5, 7.0):
        for candidates in (((0.0,), 0.0, False), ((0.0, 1.0), 1e-3, True)):
            test = example("line", h, 2.0, candidates)(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(["line", "circle"]),
       st.just(0.0) | st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
       .flatmap(lambda m: st.sampled_from([m, -m])),
       st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
       .flatmap(lambda m: st.sampled_from([m, -m])),
       st.sampled_from([((0.0,), 0.0, False), ((0.0, 1.0), 0.0, True),
                        ((0.0, 1.0), 1e-3, True), ((2.0, 0.0), 0.5, True),
                        ((0.3, 0.9), 1.0, True)]))
@example("line", 1.0, 2.0, ((0.0,), 0.0, False))
@example("line", -1.0, 2.0, ((0.0, 1.0), 1.0, True))
@example("line", -1.0, 2.0, ((0.0, 1.0), 1e-30, True))
@_one_by_one_examples
def test_a_1x1_newton_direction_is_the_division(domain, h, g, candidates):
    # A 1x1 tangent Hessian is its own eigenvalue: the Newton core divides
    # the reduced gradient by mu, with no decomposition, where eigh gives
    # U = [[1.0]] and the general path forms U (U^T g / mu): the same
    # bits, and the same SingularMatrix where no candidate clears the
    # gate.  A zero gradient, where the two differ in the sign of a zero
    # direction, stops a run before any step, so g is nonzero here.
    deltas, rho, reflect = candidates
    obj, x, rg = _one_dim_problem(domain, h, g)
    H, gt, lift = obj.domain.tangent_hessian(x, obj.hess(x), rg, obj.grad)
    lam, U = sym_eig(H)
    want = SingularMatrix
    for d in deltas:
        a = shifted_gate(lam, d * rho)
        if a is not None:
            want = lift(U @ ((U.T @ gt) / (a if reflect else lam)))
            break

    def no_eig(H):
        raise AssertionError("a 1x1 tangent Hessian was decomposed")

    try:
        got = _tangent_solve(obj.domain, obj, x, rg, obj.grad, deltas, rho,
                             reflect, no_eig)
    except SingularMatrix as exc:
        got = type(exc)
    assert H.dim == 1
    assert got is want or got.tobytes() == want.tobytes()


def test_spectral_split_signs():
    M = SymMatrix(np.diag([2.0, -3.0]))
    E = sym_eig(M)
    w_plus, w_minus = spectral_split(E, [1.0, 1.0])
    assert np.allclose(w_plus, [1.0, 0.0])
    assert np.allclose(w_minus, [0.0, 1.0])


def test_spectral_split_drops_kernel():
    M = SymMatrix(np.diag([1.0, 0.0, -1.0]))
    E = sym_eig(M)
    w_plus, w_minus = spectral_split(E, [1.0, 1.0, 1.0])
    assert np.allclose(w_plus + w_minus, [1.0, 0.0, 1.0])


def test_spectral_split_rejects_wrong_length():
    E = sym_eig(SymMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        spectral_split(E, [1.0, 2.0, 3.0])


def _constant_hessian(H, g):
    # An objective whose Hessian is H everywhere on flat space; the
    # steppers take the gradient g as an argument.
    obj = Objective(lambda x: 0.0, lambda x: g, lambda x: SymMatrix(H),
                    Euclidean(len(g)))
    return obj, np.zeros(len(g)), np.linalg.norm(g)


@pytest.mark.parametrize("seed", range(5))
def test_solve_sym_matches_reference(seed):
    # The Newton step from 0 with gradient b is -M^-1 b, formed as
    # U (U^T b / lambda) behind the gate.
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 8))
    B = rng.standard_normal((m, m))
    M = SymMatrix(B @ B.T + np.eye(m))
    b = rng.standard_normal(m)
    assert _clears_gate(sym_eig(M)[0]) is not None
    obj, x0, bn = _constant_hessian(M.entries, b)
    x = -_newton_step(obj.domain, obj, x0, 0.0, b, bn, np.inf, 1.0, obj.grad,
                       sym_eig)[0]
    assert np.allclose(M.entries @ x, b, atol=1e-9)
    assert np.allclose(x, np.linalg.solve(M.entries, b))


def test_solve_sym_rejects_singular():
    # Both Newton steps raise SingularMatrix behind the same gate.
    assert not _is_invertible(np.diag([1.0, 0.0]))
    obj, x0, gn = _constant_hessian(np.diag([1.0, 0.0]), np.array([1e-6, 0.0]))
    with pytest.raises(SingularMatrix):
        _newton_step(obj.domain, obj, x0, 0.0, obj.grad(x0), gn, np.inf, 1.0,
                     obj.grad, sym_eig)
    # rho = 1e-12 cannot lift the zero eigenvalue over the gate either.
    with pytest.raises(SingularMatrix):
        _new_q_newton_step(obj.domain, obj, x0, 0.0, obj.grad(x0), gn, np.inf,
                           NewQNewtonParams(), obj.grad, sym_eig)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(-8.0, 1.0),
       st.sampled_from([-1.0, 1.0]), st.sampled_from([1e-6, 1.0, 1e6]))
def test_positive_definite_decides_as_the_smallest_eigenvalue(n, seed, digits, side,
                                                             scale):
    # a + shift*I for a random symmetric a, with lambda_min + shift placed
    # 10^digits ||a||_F above or below zero: never within 1e-8 ||a||_F,
    # far outside the factorization's rounding.  a is left as it was.
    B = np.random.default_rng(seed).standard_normal((n, n))
    a = 0.5 * (B + B.T) * scale
    before = a.copy()
    lo = np.linalg.eigvalsh(a)[0]
    shift = side * 10.0 ** digits * float(np.linalg.norm(a)) - lo
    assert _positive_definite(a, shift) == (lo + shift > 0.0)
    assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_positive_definite_is_false_on_a_nan_or_inf(bad):
    # LAPACK refuses some of these and returns a non-finite factor for
    # others; either way the answer is False, for an entry on the diagonal
    # or mirrored off it, before and past the blocked sizes, and for a
    # non-finite shift.
    for n in (1, 3, 40):
        for i, j in ((0, 0), (n - 1, n - 1), (n - 1, 0), (n // 2, 0)):
            a = 2.0 * np.eye(n)
            a[i, j] = a[j, i] = bad
            assert not _positive_definite(a, 1.0)
        assert not _positive_definite(np.eye(n), bad)


def test_pd_solve_certifies_only_past_the_gate():
    # K = diag(lam) with tr K about 2e9 puts tau = RELATIVE_EIG_TOL * (1
    # + tr K) at about 0.2: the certificate needs lambda_min(K) > tau,
    # which is stricter than the gate's 1e-10 * (1 + 1e9), about 0.1.
    b = np.ones(3)
    tau = RELATIVE_EIG_TOL * (2.0 + 2e9)
    assert np.allclose(_pd_solve(np.diag([1.0, 1e9, 1e9]), 0.0, b),
                       [1.0, 1e-9, 1e-9])
    lam = np.array([0.75 * tau, 1e9, 1e9])
    assert _clears_gate(lam) is lam
    assert _pd_solve(np.diag(lam), 0.0, b) is None
    assert _pd_solve(np.diag([-1.0, 1e9, 1e9]), 0.0, b) is None
    # The shift is added before the test, and a non-finite one, or a
    # trace that is not positive, rules K out.
    assert np.allclose(_pd_solve(np.diag([-1.0, 1e9, 1e9]), 2.0, b),
                       [1.0, 1.0 / (1e9 + 2.0), 1.0 / (1e9 + 2.0)])
    for shift in (np.inf, np.nan):
        assert _pd_solve(np.eye(3), shift, b) is None
    assert _pd_solve(np.zeros((3, 3)), 0.0, b) is None


def _spectrum_problem(lam, seed, shift):
    # A constant Hessian H on flat space whose candidate K = H + shift*I
    # has the spectrum lam, and a gradient g.
    rng = np.random.default_rng([seed, len(lam)])
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    H = (Q * (lam - shift)) @ Q.T
    obj, x0, _ = _constant_hessian(0.5 * (H + H.T), rng.standard_normal(len(lam)))
    return obj, x0


@st.composite
def _candidate_spectra(draw):
    # The first candidate's spectrum, of dimension CHOLESKY_MIN_DIM to 40:
    # positive definite, indefinite, or positive with lambda_min at the
    # gate's tolerance times 1 +- 1e-3.
    m = draw(st.integers(CHOLESKY_MIN_DIM, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pd", "indefinite", "gate_above", "gate_below"]))
    lam = rng.uniform(0.1, 5.0, m)
    if kind == "indefinite":
        lam[: 1 + m // 3] *= -1.0
    elif kind != "pd":
        lam[0] = _gate_tol(lam.max()) * (1.0 + (1e-3 if kind == "gate_above" else -1e-3))
    return lam


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_candidate_spectra(), st.integers(0, 3), st.sampled_from([0.0, 0.25]))
def test_cholesky_path_picks_the_delta_and_direction_of_eigh(lam, seed, rho):
    # The same step with the certificate tried (the default) and with it
    # off: the same delta, the same direction to 1e-10, and where the
    # certificate fails, the eigh path itself.  rho = 0 is plain Newton.
    deltas, reflect = ((2.0, 0.0), True) if rho else ((0.0,), False)
    obj, x = _spectrum_problem(lam, seed, deltas[0] * rho)
    g = obj.grad(x)
    decomposed = []
    inner = optim.sym_eig

    def solve(cutoff):
        optim.CHOLESKY_MIN_DIM = cutoff
        optim.sym_eig = lambda M: decomposed.append(cutoff) or inner(M)
        try:
            return _tangent_solve(obj.domain, obj, x, g, obj.grad, deltas, rho,
                                  reflect, optim.sym_eig)
        except SingularMatrix as exc:
            return type(exc)
        finally:
            optim.CHOLESKY_MIN_DIM, optim.sym_eig = CHOLESKY_MIN_DIM, inner

    fast, ref = solve(CHOLESKY_MIN_DIM), solve(len(lam) + 1)
    if CHOLESKY_MIN_DIM in decomposed:
        assert fast is ref or fast.tobytes() == ref.tobytes()
    else:
        H_lam = np.linalg.eigvalsh(obj.hess(x).entries)
        picked = [d for d in deltas if _clears_gate(H_lam + d * rho) is not None]
        assert picked[0] == deltas[0]
        assert np.linalg.norm(fast - ref) <= 1e-10 * np.linalg.norm(ref)


def test_indefinite_first_candidate_is_decomposed_and_reflected(monkeypatch):
    # Past the cutoff, an indefinite H + delta_1 rho I fails the
    # certificate; the step decomposes H once and reflects the
    # negative-eigenspace part of the solve.
    m = CHOLESKY_MIN_DIM + 4
    lam = np.linspace(-2.0, 3.0, m)
    lam[np.abs(lam) < 0.1] = 0.5
    obj, x0 = _spectrum_problem(lam, 0, 0.0)
    calls = []
    monkeypatch.setattr(optim, "sym_eig", lambda M: calls.append(M.dim) or sym_eig(M))
    g = obj.grad(x0)
    v = -_new_q_newton_step(obj.domain, obj, x0, 0.0, g, np.linalg.norm(g), np.inf,
                            NewQNewtonParams(), obj.grad, optim.sym_eig)[0]
    assert calls == [m]
    H = SymMatrix(obj.hess(x0).entries)
    w_plus, w_minus = spectral_split(sym_eig(H), np.linalg.solve(H.entries, g))
    assert np.linalg.norm(w_minus) > 0.1 * np.linalg.norm(w_plus)
    assert np.allclose(v, w_plus - w_minus, rtol=0.0, atol=1e-12 * np.linalg.norm(v))
