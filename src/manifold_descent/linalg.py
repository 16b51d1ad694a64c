"""Dense symmetric linear algebra for small problems.

Everything here is sized for matrices of dimension up to a few hundred:
``_norm`` (the 2-norm that survives underflow and overflow), the
SymMatrix validator, the zero-eigenvalue gate (which refuses a
non-finite spectrum), ``sym_eig`` (the ``eigh`` call) and ``_pd_solve``,
the gate's Cholesky certificate for a positive-definite matrix.
``spectral_split`` reads eigenvalues through the gate's tolerance, so
the two agree on what counts as a zero eigenvalue; it is kept as the
test reference for the reflected Newton step.
"""

import math

import numpy as np

# An eigenvalue counts as zero when |lambda| <= RELATIVE_EIG_TOL *
# (1 + max|lambda|) (_kernel_tol); _clears_gate, the invertibility test
# of both Newton steps, is the one definition of "singular".
RELATIVE_EIG_TOL = 1e-10

SYMMETRY_ATOL = 1e-12

# Below this the 2-norm may have lost bits to squares that underflowed.
TINY_NORM = 1e-150


class NonFinite(ValueError):
    """A matrix or vector contained NaN or infinity."""


class SingularMatrix(RuntimeError):
    """A linear solve was requested on a numerically singular matrix."""


class SymMatrix:
    """Real symmetric matrix, validated and symmetrized at construction.

    Asymmetry beyond ``SYMMETRY_ATOL`` is treated as a caller bug and
    rejected; anything smaller is averaged away so downstream code can
    rely on exact symmetry of ``entries``.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
        if not np.isfinite(a).all():
            raise NonFinite("matrix entries must be finite")
        with np.errstate(over="ignore"):
            asym = np.abs(a - a.T).max() if a.size else 0.0
            s = 0.5 * (a + a.T)
        if asym > SYMMETRY_ATOL:
            raise ValueError(
                "matrix is asymmetric beyond %g (max |M - M^T| = %g)"
                % (SYMMETRY_ATOL, asym)
            )
        # A sum that overflows is of two equal entries, which passed the gate.
        np.copyto(s, a, where=np.isinf(s))
        self._freeze(s)

    @classmethod
    def _from_symmetric(cls, a):
        """Wrap a square float array that is exactly symmetric by
        construction: made so by the caller (as 0.5 * (B + B.T), or as -H
        of a SymMatrix H) or written with mirrored entries, as the
        catalog's Hessians are.  Only finiteness is checked: the asymmetry
        scan would find nothing, and the averaging of ``__init__`` gives
        the same bits back.  The array is frozen in place."""
        if not np.isfinite(a).all():
            raise NonFinite("matrix entries must be finite")
        M = cls.__new__(cls)
        M._freeze(a)
        return M

    def _freeze(self, a):
        self.entries = a
        self.entries.setflags(write=False)
        self.dim = a.shape[0]

    def __repr__(self):
        return "SymMatrix(dim=%d)" % self.dim


def _norm(v):
    """The 2-norm of a 1-d float v as sqrt(v.v), which is how
    np.linalg.norm computes it, so the bits are the same.  When the
    squares of a finite v overflow or underflow it is rescaled by max|v|,
    so a huge vector keeps a finite norm and a tiny nonzero one a
    positive norm.  Between TINY_NORM and overflow, and for a v holding
    inf or nan, it is np.linalg.norm(v) bit for bit."""
    n = math.sqrt(v.dot(v))
    if (n < TINY_NORM or n == math.inf) and np.isfinite(v).all():
        s = float(np.abs(v).max())
        if s > 0.0:
            v = v / s
            return s * math.sqrt(v.dot(v))
    return n


def _kernel_tol(abs_eigenvalues):
    return RELATIVE_EIG_TOL * (1.0 + abs_eigenvalues.max())


def _clears_gate(abs_eigenvalues):
    # One max for the tolerance and the finiteness test (it propagates nan).
    top = abs_eigenvalues.max()
    if not top < math.inf:
        raise NonFinite("regularized eigenvalues are not finite")
    return bool(abs_eigenvalues.min() > RELATIVE_EIG_TOL * (1.0 + top))


def _pd_solve(a, shift, b):
    """K^-1 b for K = a + shift*I, with a a symmetric float array, when
    one Cholesky factorization certifies that K clears the gate; None
    when it does not.

    The factorization is of K - tau*I, tau = RELATIVE_EIG_TOL * (1 +
    tr K).  Its success means lambda_min(K) > tau > 0, so K is positive
    definite, tr K >= max|lambda| and tau >= _kernel_tol: every
    eigenvalue of K clears the gate, and U diag(1/|lambda|) U^T b is the
    solve.  A trace that is not a positive finite number rules K out
    before any factorization (a non-finite shift among them)."""
    n = a.shape[0]
    K = a.copy()
    K.flat[::n + 1] += shift
    tr = float(K.trace())
    if not 0.0 < tr < math.inf:
        return None
    S = K.copy()
    S.flat[::n + 1] -= RELATIVE_EIG_TOL * (1.0 + tr)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(K, b)


_UNIT = np.ones((1, 1))
_UNIT.setflags(write=False)


def sym_eig(M):
    """The pair ``(eigenvalues, eigenvectors)`` of a SymMatrix, from
    ``np.linalg.eigh``: eigenvalues ascending, column k belonging to
    eigenvalue k.  Both constructors reject non-finite entries and freeze
    them, so they are not scanned again here.  A 1x1 matrix skips LAPACK,
    whose n = 1 case sets w = a and z = 1: the same bits, without the
    call's overhead, and z is one shared read-only [[1.0]]."""
    a = M.entries
    if a.shape[0] == 1:
        return a[0].copy(), _UNIT
    return np.linalg.eigh(a)


def spectral_split(E, w):
    """Split w into its positive- and negative-eigenspace components.

    ``E`` is the pair ``sym_eig`` returns; returns ``(w_plus, w_minus)``.
    Components along eigenvalues within the kernel tolerance belong to
    neither part, so ``w_plus + w_minus + kernel part == w``.  Only tests
    call it, as the reference for New Q-Newton's w_plus - w_minus for
    w = E^-1 g, which the stepper forms as U (U^T g / |eigenvalues|).
    """
    lam, U = E
    w = np.asarray(w, dtype=float)
    if w.shape != lam.shape:
        raise ValueError("vector length %d does not match dim %d" % (w.size, lam.size))
    tol = _kernel_tol(np.abs(lam))
    coeff = U.T @ w
    w_plus = U @ np.where(lam > tol, coeff, 0.0)
    w_minus = U @ np.where(lam < -tol, coeff, 0.0)
    return w_plus, w_minus
