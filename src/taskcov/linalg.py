"""Dense symmetric-matrix primitives used by the solvers.

Everything here is a pure function of small (task-count sized) matrices,
so plain eigendecompositions are used throughout; no sparse or iterative
paths.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTaskVariance, NotPSD, NotSymmetric, Singular, SingularSystem

SYM_ATOL = 1e-8
EIG_CLAMP = -1e-8


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


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Raises NotSymmetric if the input is asymmetric beyond 1e-8.
    """
    a = _check_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


def psd_sqrt(a):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-8, 0] are treated as numerical noise and clamped
    to zero; anything below that raises NotPSD.
    """
    dec = sym_eig(a)
    if dec.values.size and dec.values[-1] < EIG_CLAMP:
        raise NotPSD(f"matrix has eigenvalue {dec.values[-1]:.3e}")
    vals = np.clip(dec.values, 0.0, None)
    root = (dec.vectors * np.sqrt(vals)) @ dec.vectors.T
    return (root + root.T) / 2.0


def psd_inverse(a, ridge=0.0):
    """Inverse of (a + ridge*I) through the eigendecomposition of a.

    With ridge = 0 the smallest eigenvalue must exceed 1e-10, otherwise
    Singular is raised.
    """
    dec = sym_eig(a)
    vals = dec.values + ridge
    if ridge == 0.0 and (not vals.size or vals[-1] <= 1e-10):
        raise Singular("matrix is singular and no ridge was given")
    inv = (dec.vectors / vals) @ dec.vectors.T
    return (inv + inv.T) / 2.0


def trace_pinv_product(a, g, rel_cutoff=1e-12):
    """tr(pinv(a) @ g) for symmetric PSD a, dropping near-null directions.

    Used for the relationship term of the objective, where the row space
    of the weight matrix is aligned with the range of the covariance, so
    discarded directions carry no mass.
    """
    dec = sym_eig(a)
    cutoff = rel_cutoff * max(dec.values[0], 0.0) if dec.values.size else 0.0
    total = 0.0
    for k in range(dec.values.size):
        if dec.values[k] > cutoff:
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
