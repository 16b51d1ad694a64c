"""Dense symmetric linear algebra for small problems.

Everything here is sized for matrices of dimension up to a few hundred;
eigendecomposition is the workhorse, and the spectral split and the
invertibility gate both read its eigenvalues through one tolerance, so
they agree on what counts as a zero eigenvalue.
"""

import numpy as np

# An eigenvalue counts as zero when |lambda| <= RELATIVE_EIG_TOL *
# (1 + max|lambda|) (_kernel_tol); _clears_gate, the invertibility test
# of both Newton steps, is the one definition of "singular".
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
        if not np.isfinite(a).all():
            raise NonFinite("matrix entries must be finite")
        asym = np.abs(a - a.T).max() if a.size else 0.0
        if asym > SYMMETRY_ATOL:
            raise ValueError(
                "matrix is asymmetric beyond %g (max |M - M^T| = %g)"
                % (SYMMETRY_ATOL, asym)
            )
        self._freeze(0.5 * (a + a.T))

    @classmethod
    def _from_symmetric(cls, a):
        """Wrap a square float array that is exactly symmetric by
        construction: made so by the caller (as 0.5 * (B + B.T), or as -H
        of a SymMatrix H) or written with mirrored entries, as the
        catalog's Hessians are.  Only finiteness is checked: the asymmetry
        scan would find nothing, and the averaging of ``__init__`` gives
        the same bits back unless 2*a overflows.  The array is frozen in
        place."""
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


class EigenDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.
    """

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=float)
        self.dim = self.eigenvalues.shape[0]


def _kernel_tol(abs_eigenvalues):
    return RELATIVE_EIG_TOL * (1.0 + abs_eigenvalues.max())


def _clears_gate(abs_eigenvalues):
    return bool(abs_eigenvalues.min() > _kernel_tol(abs_eigenvalues))


def sym_eig(M):
    """Eigendecomposition of a SymMatrix via the standard symmetric solver.
    Both constructors reject non-finite entries and freeze them, so they
    are not scanned again here."""
    evals, evecs = np.linalg.eigh(M.entries)
    return EigenDecomposition(evals, evecs)


def spectral_split(E, w):
    """Split w into its positive- and negative-eigenspace components.

    Returns ``(w_plus, w_minus)``.  Components along eigenvalues within
    the kernel tolerance belong to neither part, so
    ``w_plus + w_minus + kernel part == w``.  The steppers do not call
    it: New Q-Newton forms w_plus - w_minus for w = E^-1 g directly, as
    U (U^T g / |eigenvalues|).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (E.dim,):
        raise ValueError("vector length %d does not match dim %d" % (w.size, E.dim))
    tol = _kernel_tol(np.abs(E.eigenvalues))
    coeff = E.eigenvectors.T @ w
    w_plus = E.eigenvectors @ np.where(E.eigenvalues > tol, coeff, 0.0)
    w_minus = E.eigenvectors @ np.where(E.eigenvalues < -tol, coeff, 0.0)
    return w_plus, w_minus

