"""Dense symmetric-matrix primitives used by the solvers.

Everything here is a pure function of small (task-count sized) matrices,
so plain eigendecompositions are used throughout; no sparse or iterative
paths.

Every matrix function of a PSD matrix goes through spectral_map (or
EigenDecomposition.map), under one rule: negative eigenvalues are noise
and are clipped to 0 before f is applied, and with rel_cutoff an
eigenvalue at or below rel_cutoff * lambda_max maps to 0 without f seeing
it. Refusing a matrix as not PSD is a separate check against
PSD_EIG_FLOOR. The cutoffs: 0 for the coupling (a null direction of the
covariance gets zero coupling, even with lam2 = 0); 1e-14 for the
covariance update (the square root would amplify rank noise by seven
orders of magnitude); 1e-12 for pseudo-inverses (1/lambda would blow up
roundoff).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTaskVariance, NotPSD, NotSymmetric, Singular, SingularSystem

SYM_ATOL = 1e-8
# An eigenvalue below this is not noise: the matrix is refused as not PSD.
PSD_EIG_FLOOR = -1e-8


def _check_symmetric(a, what="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"{what} must be square")
    if a.size and np.max(np.abs(a - a.T)) > SYM_ATOL * max(1.0, np.max(np.abs(a))):
        raise NotSymmetric(f"{what} is not symmetric")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and the matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self):
        return (self.vectors * self.values) @ self.vectors.T

    def map(self, f, rel_cutoff=None):
        """V f(values) V^T, symmetrised, under the module's rule."""
        vals = np.clip(self.values, 0.0, None)
        kept = slice(None) if rel_cutoff is None else self._kept(rel_cutoff)
        mapped = np.zeros_like(vals)
        mapped[kept] = f(vals[kept])
        out = (self.vectors * mapped) @ self.vectors.T
        return (out + out.T) / 2.0

    def _kept(self, rel_cutoff):
        """Mask of the eigenvalues above rel_cutoff * max(lambda_max, 0)."""
        top = max(self.values[0], 0.0) if self.values.size else 0.0
        return self.values > rel_cutoff * top


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Raises NotSymmetric if the input is asymmetric beyond 1e-8.
    """
    a = _check_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


def spectral_map(a, f, rel_cutoff=None):
    """f of the symmetric PSD matrix a, under the module's rule."""
    return sym_eig(a).map(f, rel_cutoff)


def psd_sqrt(a):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-8, 0] are treated as numerical noise and clipped
    to zero; anything below that raises NotPSD.
    """
    dec = sym_eig(a)
    if dec.values.size and dec.values[-1] < PSD_EIG_FLOOR:
        raise NotPSD(f"matrix has eigenvalue {dec.values[-1]:.3e}")
    return dec.map(np.sqrt)


def psd_inverse(a, ridge=0.0):
    """Inverse of (a + ridge*I) through the eigendecomposition of PSD a.

    With ridge = 0 the smallest eigenvalue must exceed 1e-10, otherwise
    Singular is raised.
    """
    dec = sym_eig(a)
    if ridge == 0.0 and (not dec.values.size or dec.values[-1] <= 1e-10):
        raise Singular("matrix is singular and no ridge was given")
    return dec.map(lambda v: 1.0 / (v + ridge))


def trace_pinv_product(a, g, rel_cutoff=1e-12):
    """tr(pinv(a) @ g) for symmetric PSD a, dropping near-null directions.

    Used for the relationship term of the objective, where the row space
    of the weight matrix is aligned with the range of the covariance, so
    discarded directions carry no mass.
    """
    dec = sym_eig(a)
    total = 0.0
    for k in np.flatnonzero(dec._kept(rel_cutoff)):
        u = dec.vectors[:, k]
        total += (u @ g @ u) / dec.values[k]
    return total


def solve_linear(a, rhs):
    """Solve a @ x = rhs with a pivoted dense factorization.

    The solution is residual-checked (||a x - rhs|| <= 1e-8 max(1, ||rhs||));
    failure of either the factorization or the check raises SingularSystem.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != rhs.shape[0]:
        raise SingularSystem("system dimensions do not match")
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    _check_residual(a @ x - rhs, rhs)
    return x


def _check_residual(residual, rhs):
    """The solve gate: raise SingularSystem unless
    ||residual|| <= 1e-8 max(1, ||rhs||)."""
    norm = np.linalg.norm(residual)
    if not np.isfinite(norm) or norm > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise SingularSystem(f"solve residual {norm:.3e} too large")


def correlation_from_covariance(omega):
    """Normalize a task covariance into a task correlation matrix.

    C_ij = omega_ij / sqrt(omega_ii * omega_jj), with an exactly unit
    diagonal. Raises DegenerateTaskVariance when a task's own variance
    is at or below 1e-12.
    """
    a = omega.matrix if hasattr(omega, "matrix") else _check_symmetric(omega)
    d = np.diag(a)
    if np.any(d <= 1e-12):
        k = int(np.argmin(d))
        raise DegenerateTaskVariance(f"task {k} has variance {d[k]:.3e}")
    scale = 1.0 / np.sqrt(d)
    c = a * np.outer(scale, scale)
    np.fill_diagonal(c, 1.0)
    return c
