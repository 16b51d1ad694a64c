"""Dense symmetric linear algebra for small problems.

Everything here is sized for matrices of dimension up to a few hundred:
``_norm`` (the 2-norm that survives underflow and overflow), the
SymMatrix validator, the zero-eigenvalue gate (which reads the ends of
the ascending spectrum ``sym_eig`` returns, shifted, and refuses a
non-finite one), ``sym_eig`` (the ``eigh`` call) and ``_pd_solve``, the
gate's Cholesky certificate for a positive-definite matrix.  The gate's
tolerance (``_gate_tol``) and the Cholesky test (``_positive_definite``,
which ``_pd_solve`` and ``bench._certified`` ask) each exist once.  These
run inside every Newton step, on spectra of one to three eigenvalues in
the corpus, so a decision is made from floats the step already holds,
not from NumPy reductions: finiteness from the squared norm v.v
(``_all_finite``), the gate from two shifted ends, which builds the
shifted spectrum only for a candidate it accepts.  In dimension one,
where a third of the corpus runs, a 1-vector's norm is |v0|.
``spectral_split``, the test reference for the reflected Newton step,
reads eigenvalues through the gate's tolerance too.
"""

import math

import numpy as np

# An eigenvalue counts as zero when |lambda| <= _gate_tol(max|lambda|), the
# one expression that reads this; _clears_gate, the invertibility test of
# both Newton steps, is the one definition of "singular".
RELATIVE_EIG_TOL = 1e-10

# SymMatrix refuses max|M - M^T| > SYMMETRY_RTOL * max|M_ij|, a test that
# reads the same at every scale: multiplying M by 2^k scales both sides
# exactly.  It is set from the rounding of the symmetric matrices callers
# compute.  Mirrored entries of, say, Q diag(d) Q^T are two sums of n
# products in different orders; each lies within gamma_n = n eps/(1 - n
# eps) of the exact common value, relative to the sum of the products'
# sizes, so the two differ by at most about 2 n eps times that sum.  With
# the sum near max|M_ij|, as for the well-scaled factors this package is
# sized for, 2^12 eps = 2^-40 (about 9.1e-13) covers n up to 2048.
SYMMETRY_RTOL = 2.0 ** 12 * float(np.finfo(float).eps)

# Below this the 2-norm may have lost bits to squares that underflowed.
TINY_NORM = 1e-150


class NonFinite(ValueError):
    """A matrix or vector contained NaN or infinity."""


class SingularMatrix(RuntimeError):
    """A linear solve was requested on a numerically singular matrix."""


class SymMatrix:
    """Real symmetric matrix, validated and symmetrized at construction.

    Asymmetry beyond ``SYMMETRY_RTOL`` times the largest entry is treated
    as a caller bug and rejected; anything smaller is averaged away so
    downstream code can rely on exact symmetry of ``entries``.
    Finiteness is read from v.v (``_all_finite``), and a matrix whose
    mirrored entries have the same bits is copied, since that is what the
    average gives; only another matrix is differenced, averaged and has
    its largest entry read.
    """

    def __init__(self, entries):
        a = _real_array(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
        with np.errstate(over="ignore"):
            if not _all_finite(a.reshape(-1)):
                raise NonFinite("matrix entries must be finite")
            bits = a.view(np.int64)
            if np.equal(bits, bits.T).all():
                # Mirrored entries with the same bits average to themselves
                # (a + a is exact, or inf and repaired below), so the
                # average is a copy.
                self._freeze(a.copy())
                return
            # M - M^T is antisymmetric bit for bit (rounding to nearest is
            # odd), so its largest entry is max|M - M^T|, without the pass
            # that takes |.|.
            asym = (a - a.T).max()
            s = 0.5 * (a + a.T)
        if asym > 0.0:
            tol = SYMMETRY_RTOL * np.abs(a).max()
            if asym > tol:
                raise ValueError(
                    "matrix is asymmetric beyond %g (max |M - M^T| = %g)"
                    % (tol, asym)
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
        if not _all_finite(a.reshape(-1)):
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


def _real_array(x):
    """x as a float array.  A complex x is refused: the cast would drop
    its imaginary part with only a ComplexWarning."""
    a = np.asarray(x)
    if a.dtype.kind == "c":
        raise ValueError("expected real entries, got dtype %s" % a.dtype)
    return np.asarray(a, dtype=float)


def _norm(v):
    """The 2-norm of a 1-d float v as sqrt(v.v), which is how
    np.linalg.norm computes it, so the bits are the same.  When the
    squares of a finite v overflow or underflow it is rescaled by max|v|,
    so a huge vector keeps a finite norm and a tiny nonzero one a
    positive norm.  Between TINY_NORM and overflow, and for a v holding
    inf or nan, it is np.linalg.norm(v) bit for bit.

    A 1-vector's norm is |v0|: in binary64, rounding to nearest,
    sqrt(fl(x^2)) = |x| whenever x^2 neither overflows nor underflows,
    and the rescaled path gives |x| in the other cases."""
    if len(v) == 1:
        return abs(v.item())
    n = math.sqrt(v.dot(v))
    if (n < TINY_NORM or n == math.inf) and np.isfinite(v).all():
        s = float(np.abs(v).max())
        if s > 0.0:
            v = v / s
            return s * math.sqrt(v.dot(v))
    return n


def _gate_tol(m):
    """The gate's tolerance for a spectrum whose largest |lambda| is m."""
    return RELATIVE_EIG_TOL * (1.0 + m)


def _all_finite(v):
    # A nan or inf entry makes v.v nan or inf, so a finite v.v proves every
    # entry finite without a scan; only when the squares overflow (or an
    # entry is not finite) are the entries tested one by one.  NumPy
    # reports such an overflow unless the caller's errstate ignores it,
    # as run's does.
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def _clears_gate(lam, shift=0.0):
    """|mu| for mu = lam + shift when it clears the gate min|mu| >
    _gate_tol(max|mu|), else None; NonFinite when an entry of mu is inf
    or nan.  lam is ascending, as ``sym_eig`` returns it, and a shift of
    0 leaves it as it is.

    The decision reads the ends of mu, lam[0] + shift and lam[-1] +
    shift: the same IEEE additions as lam + shift, which is built only
    for a candidate that passes or a spectrum that must be scanned.  An
    ascending finite spectrum plus a constant is still ascending, since
    rounding is monotone, and a nan entry cannot lie between finite ends,
    so finite ends bound every entry: max|mu| is max(-mu[0], mu[-1]),
    min|mu| is mu[0] when that clears the tolerance (mu is |mu| then),
    -mu[-1] when -mu[-1] does (-mu is |mu|, bit for bit), and at most
    |end| when an end is within it.  Only a spectrum of both signs with
    entries between its ends scans |mu|."""
    lo = lam.item(0) + shift
    hi = lam.item(-1) + shift
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFinite("regularized eigenvalues are not finite")
    tol = _gate_tol(max(-lo, hi))
    if lo > tol:
        return lam + shift if shift else lam
    if hi < -tol:
        # -(lam + shift) bit for bit: rounding to nearest is odd.
        return -shift - lam
    if lo >= -tol or hi <= tol:
        return None
    a = np.abs(lam + shift)
    return a if len(a) < 3 or a.min() > tol else None


def _positive_definite(a, shift):
    """Whether a + shift*I, for a symmetric float array a, is positive
    definite: the package's one Cholesky test.  LAPACK does not refuse
    every nan or inf, but one in the lower triangle it reads leaves a nan
    or inf on the factor's positive diagonal, so their sum is tested."""
    K = a.copy()
    K.reshape(-1)[::a.shape[0] + 1] += shift
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return False
    return math.isfinite(L.trace())


def _pd_solve(a, shift, b):
    """K^-1 b for K = a + shift*I, a a symmetric float array, when
    ``_positive_definite`` certifies K - tau*I, tau = _gate_tol(tr K);
    None otherwise.  Then lambda_min(K) > tau > 0, so K is positive
    definite, tr K >= max|lambda| and tau >= _gate_tol(max|lambda|):
    every eigenvalue of K clears the gate, and U diag(1/|lambda|) U^T b
    is the solve.  A trace that is not a positive finite number (a
    non-finite shift among them) rules K out before any factorization."""
    K = a.copy()
    K.reshape(-1)[::a.shape[0] + 1] += shift
    tr = float(K.trace())
    if 0.0 < tr < math.inf and _positive_definite(K, -_gate_tol(tr)):
        return np.linalg.solve(K, b)
    return None


def sym_eig(M):
    """The pair ``(eigenvalues, eigenvectors)`` of a SymMatrix, from
    ``np.linalg.eigh``: eigenvalues ascending, column k belonging to
    eigenvalue k.  Both constructors reject non-finite entries and freeze
    them, so they are not scanned again here."""
    return np.linalg.eigh(M.entries)


def spectral_split(E, w):
    """Split w into its positive- and negative-eigenspace components.

    ``E`` is the pair ``sym_eig`` returns; returns ``(w_plus, w_minus)``.
    Components along eigenvalues within the gate's tolerance belong to
    neither part, so ``w_plus + w_minus + kernel part == w``.  Only tests
    call it, as the reference for New Q-Newton's w_plus - w_minus for
    w = E^-1 g, which the stepper forms as U (U^T g / |eigenvalues|).
    """
    lam, U = E
    w = np.asarray(w, dtype=float)
    if w.shape != lam.shape:
        raise ValueError("vector length %d does not match dim %d" % (w.size, lam.size))
    tol = _gate_tol(np.abs(lam).max())
    coeff = U.T @ w
    w_plus = U @ np.where(lam > tol, coeff, 0.0)
    w_minus = U @ np.where(lam < -tol, coeff, 0.0)
    return w_plus, w_minus
