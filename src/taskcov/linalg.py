"""Dense symmetric-matrix primitives used by the solvers.

Everything here but _top_eigenvalues is a pure function of small
(task-count sized) matrices, so plain eigendecompositions are used; the
one iterative path is _top_eigenvalues' Lanczos bound on the top
eigenvalue of large centred kernel blocks.

Every matrix function of a PSD matrix goes through spectral_map (or
EigenDecomposition.map), under one rule: negative eigenvalues are noise
and are clipped to 0 before f is applied, and with rel_cutoff an
eigenvalue at or below rel_cutoff * lambda_max maps to 0 without f seeing
it. A pseudo-inverse cuts at 1e-12 (its map jumps at 0, and 1/lambda
would blow up roundoff). The package's rounding rules each live here
once, scaled with their input: _check_symmetric, _require_psd, _centre
and the solve gate, _check_residual.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTaskVariance, NotPSD, NotSymmetric, SingularSystem

SYM_ATOL = 1e-8
# An eigenvalue below this times max(1, lambda_max) is not noise (_require_psd).
PSD_EIG_FLOOR = -1e-8
# Lanczos steps of _top_eigenvalues, the steps between its convergence
# checks (each an eigensolve of the tridiagonal), and its tolerance.
_LANCZOS_STEPS = 48
_LANCZOS_CHECK = 4
_LANCZOS_RTOL = 1e-11


def _check_symmetric(a, what="matrix", rtol=SYM_ATOL, error=NotSymmetric):
    """(a + a^T) / 2; raises error unless a is square, max |a - a^T| <= rtol max(1, max |a|)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise error(f"{what} must be square")
    if a.size and np.max(np.abs(a - a.T)) > rtol * max(1.0, np.max(np.abs(a))):
        raise error(f"{what} is not symmetric")
    return (a + a.T) / 2.0


def _require_psd(values, what, error=NotPSD):
    """Raise error unless the eigenvalues values are at least PSD_EIG_FLOOR max(1, lambda_max)."""
    if values.size and values.min() < PSD_EIG_FLOOR * max(1.0, values.max()):
        raise error(f"{what} has eigenvalue {values.min():.3e}")


def _centre(values):
    """(mean, values - mean), the centred values exactly 0 where they are
    constant to rounding (centred norm at most 1e-13 of their norm), whatever their units."""
    mean = values.mean()
    centred = values - mean
    return mean, np.zeros_like(centred) if np.linalg.norm(centred) <= 1e-13 * np.linalg.norm(values) else centred


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
    c = _correlation(a)
    if np.isnan(c.diagonal()).any():
        k = int(np.argmin(np.diag(a)))
        raise DegenerateTaskVariance(f"task {k} has variance {a[k, k]:.3e}")
    return c


def _correlation(a):
    """correlation_from_covariance of the symmetric a, nan in the row and
    column of each task whose variance is at or below 1e-12."""
    dead = np.diag(a) <= 1e-12
    scale = np.where(dead, np.nan, 1.0 / np.sqrt(np.where(dead, 1.0, np.diag(a))))
    c = a * np.outer(scale, scale)
    np.fill_diagonal(c, np.where(dead, np.nan, 1.0))
    return c


def _top_eigenvalues(blocks):
    """Upper bounds on lambda_max(P A P), each within about _LANCZOS_RTOL
    relative, for symmetric square blocks A, P the centring; None for a
    block that _LANCZOS_STEPS Lanczos steps do not bring there (Lanczos
    1950; the bound as in Zhou & Li 2011). The blocks run in lockstep,
    zero-padded to the largest, each from a centred start drawn from a
    fixed seed.

    Each step multiplies by A itself, reorthogonalises fully (two
    classical Gram-Schmidt passes), then centres the new vector: centring
    before the passes lets the rounding along the constant vector, P A
    P's 0 eigenvector, grow by about theta / beta per step. At step k the
    top Ritz value theta of the tridiagonal T_k has residual
    beta_k |s_k|, s its eigenvector, and lambda_max <= theta + beta_k |s_k|
    once theta has converged to it. A block stops when beta_k |s_k| is at
    most _LANCZOS_RTOL theta plus a rounding margin, 16 n eps max_p A_pp
    (the products' rounding), and its bound is theta + beta_k |s_k| plus
    that margin. That is checked every _LANCZOS_CHECK steps, and at once
    where beta_k falls to the margin: its basis spans an invariant
    subspace to rounding, and the next vector would be rounding noise."""
    sizes = np.array([b.shape[0] for b in blocks])
    count, width, steps = len(blocks), int(sizes.max()), _LANCZOS_STEPS
    inside = np.arange(width) < sizes[:, None]
    margins = 16.0 * sizes * np.finfo(float).eps * np.array([np.max(b.diagonal()) for b in blocks])
    start = np.random.default_rng(0).standard_normal((count, width)) * inside
    start -= start.sum(axis=1, keepdims=True) / sizes[:, None] * inside
    # basis[j] is written when step j is reached, each row zero beyond its
    # block, so the steps never reached leave the end of it untouched
    basis, diagonal, off = np.empty((steps + 1, count, width)), np.zeros((count, steps)), np.zeros((count, steps))
    basis[0] = start / np.linalg.norm(start, axis=1, keepdims=True)
    bounds, w = [None] * count, np.zeros((count, width))
    for j in range(steps):
        for t, block in enumerate(blocks):
            if bounds[t] is None:
                np.matmul(block, basis[j, t, :sizes[t]], out=w[t, :sizes[t]])
        kept = basis[:j + 1].transpose(1, 0, 2)
        for _ in range(2):
            coefs = kept @ w[:, :, None]
            w -= (coefs.transpose(0, 2, 1) @ kept)[:, 0]
            diagonal[:, j] += coefs[:, j, 0]
        w -= w.sum(axis=1, keepdims=True) / sizes[:, None] * inside
        beta = np.linalg.norm(w, axis=1)
        if (j + 1) % _LANCZOS_CHECK == 0 or any(b is None and r <= m for b, r, m in zip(bounds, beta, margins)):
            tri, k = np.zeros((count, j + 1, j + 1)), np.arange(j + 1)
            tri[:, k, k] = diagonal[:, :j + 1]
            tri[:, k[1:], k[:-1]] = tri[:, k[:-1], k[1:]] = off[:, :j]
            values, vectors = np.linalg.eigh(tri)
            theta, residual = values[:, -1], beta * np.abs(vectors[:, -1, -1])
            for t in range(count):
                if bounds[t] is None and residual[t] <= _LANCZOS_RTOL * theta[t] + margins[t]:
                    bounds[t], w[t] = float(theta[t] + residual[t] + margins[t]), 0.0
            if all(b is not None for b in bounds):
                break
        basis[j + 1] = w / np.where(beta > 0.0, beta, 1.0)[:, None]
        off[:, j] = beta
    return bounds
