"""Dense symmetric linear algebra for small problems.

Everything here is sized for matrices of dimension up to a few hundred;
eigendecomposition is the workhorse and every other operation (solve,
spectral projection, invertibility test) is derived from it so that they
all agree on what counts as a zero eigenvalue.
"""

import numpy as np

# Relative spectral gate shared by is_invertible, solve_sym and
# spectral_split.  An eigenvalue lambda counts as zero when
# |lambda| <= RELATIVE_EIG_TOL * (1 + max|eigenvalue|).
RELATIVE_EIG_TOL = 1e-10

SYMMETRY_ATOL = 1e-12


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
        if not np.all(np.isfinite(a)):
            raise NonFinite("matrix entries must be finite")
        asym = np.max(np.abs(a - a.T)) if a.size else 0.0
        if asym > SYMMETRY_ATOL:
            raise ValueError(
                "matrix is asymmetric beyond %g (max |M - M^T| = %g)"
                % (SYMMETRY_ATOL, asym)
            )
        self._freeze(0.5 * (a + a.T))

    @classmethod
    def _from_symmetric(cls, a):
        """Wrap a square float array the caller has just made exactly
        symmetric (for instance as 0.5 * (B + B.T), or as -H of a
        SymMatrix H).  Only finiteness is checked: the asymmetry scan
        would find nothing, and the averaging of ``__init__`` gives the
        same bits back unless 2*a overflows.  The array is frozen in
        place."""
        if not np.all(np.isfinite(a)):
            raise NonFinite("matrix entries must be finite")
        M = cls.__new__(cls)
        M._freeze(a)
        return M

    def _freeze(self, a):
        self.entries = a
        self.entries.setflags(write=False)
        self.dim = a.shape[0]

    def apply(self, v):
        return self.entries @ np.asarray(v, dtype=float)

    def __repr__(self):
        return "SymMatrix(dim=%d)" % self.dim


class EigenDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.
    """

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=float)
        self.dim = self.eigenvalues.shape[0]

    def kernel_tol(self):
        # Shared zero test: relative to the spectral radius.
        return RELATIVE_EIG_TOL * (1.0 + np.max(np.abs(self.eigenvalues)))

    def is_invertible(self):
        """True when the smallest |eigenvalue| clears the relative gate
        min|lambda| > RELATIVE_EIG_TOL * (1 + max|lambda|), so a matrix
        with an exact kernel is rejected regardless of scale."""
        return bool(np.min(np.abs(self.eigenvalues)) > self.kernel_tol())


def sym_eig(M):
    """Eigendecomposition of a SymMatrix via the standard symmetric solver."""
    if not np.all(np.isfinite(M.entries)):
        raise NonFinite("matrix entries must be finite")
    evals, evecs = np.linalg.eigh(M.entries)
    return EigenDecomposition(evals, evecs)


def is_invertible(M):
    """The gate of ``EigenDecomposition.is_invertible`` applied to M."""
    return sym_eig(M).is_invertible()


def spectral_split(E, w):
    """Split w into its positive- and negative-eigenspace components.

    Returns ``(w_plus, w_minus)``.  Components along eigenvalues within
    the kernel tolerance belong to neither part, so
    ``w_plus + w_minus + kernel part == w``.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (E.dim,):
        raise ValueError("vector length %d does not match dim %d" % (w.size, E.dim))
    tol = E.kernel_tol()
    coeff = E.eigenvectors.T @ w
    w_plus = E.eigenvectors @ np.where(E.eigenvalues > tol, coeff, 0.0)
    w_minus = E.eigenvectors @ np.where(E.eigenvalues < -tol, coeff, 0.0)
    return w_plus, w_minus


def solve_sym(M, b):
    """Solve M x = b through the eigendecomposition.

    Raises SingularMatrix when M fails the invertibility gate, so solve
    and spectral_split can never disagree about which matrices are
    usable.
    """
    E = sym_eig(M)
    if not E.is_invertible():
        raise SingularMatrix("matrix has an eigenvalue inside the kernel tolerance")
    b = np.asarray(b, dtype=float)
    return _solve_eig(E, b)


def _solve_eig(E, b):
    return E.eigenvectors @ ((E.eigenvectors.T @ b) / E.eigenvalues)
