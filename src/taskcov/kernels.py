"""Base kernels, the task-coupling matrix and the combined kernel.

The coupling matrix C = Omega (lam1 Omega + lam2 I)^{-1} shares the
covariance's eigenvectors; an eigenvalue mu maps to mu / (lam1 mu + lam2).
The combined kernel between point x1 of task i1 and point x2 of task i2
is C[i1, i2] * k(x1, x2).
"""

import numpy as np

from .errors import DimensionMismatch, TaskIndexOutOfRange
from .linalg import spectral_map


def base_kernel(kernel, x, z):
    """Evaluate the base kernel between two input vectors."""
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if x.shape != z.shape:
        raise DimensionMismatch(f"kernel inputs of dimension {x.size} vs {z.size}")
    if kernel.kind == "linear":
        return float(x @ z)
    diff = x - z
    return float(np.exp(-(diff @ diff) / (2.0 * kernel.width**2)))


def base_kernel_matrix(kernel, xa, xb=None):
    """Base-kernel Gram block between two stacked input sets."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = xa if xb is None else np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"kernel inputs of dimension {xa.shape[1]} vs {xb.shape[1]}"
        )
    if kernel.kind == "linear":
        return xa @ xb.T
    sq = (
        np.sum(xa**2, axis=1)[:, None]
        + np.sum(xb**2, axis=1)[None, :]
        - 2.0 * (xa @ xb.T)
    )
    return np.exp(-np.clip(sq, 0.0, None) / (2.0 * kernel.width**2))


def coupling_matrix(omega, hp):
    """Task-coupling matrix C = Omega (lam1 Omega + lam2 I)^{-1}.

    Computed spectrally: negative noise eigenvalues of the covariance are
    clipped to zero, and a null direction maps to zero coupling (the
    pseudo-inverse limit), which keeps the weight matrix confined to the
    covariance's range in degenerate iterations. With lam2 > 0 the map is
    continuous at 0, so the cutoff is 0. With lam2 = 0 it jumps from
    1/lam1 to 0 there, so the pseudo-inverse cutoff 1e-12 keeps a
    roundoff-level eigenvalue from counting as a direction of the range.
    """
    if hp.lam1 <= 0 and hp.lam2 <= 0:
        raise ValueError("coupling needs lam1 > 0 or lam2 > 0")
    a = omega.matrix if hasattr(omega, "matrix") else omega
    cutoff = 1e-12 if hp.lam2 == 0 else 0.0
    return spectral_map(a, lambda mu: mu / (hp.lam1 * mu + hp.lam2), rel_cutoff=cutoff)


def multitask_kernel(kernel, coupling, i1, x1, i2, x2):
    """Combined kernel value: coupling[i1, i2] * k(x1, x2)."""
    m = coupling.shape[0]
    if not (0 <= i1 < m and 0 <= i2 < m):
        raise TaskIndexOutOfRange(f"task indices ({i1}, {i2}) outside 0..{m - 1}")
    return float(coupling[i1, i2] * base_kernel(kernel, x1, x2))


def assemble_kernel_matrix(ds, kernel, coupling):
    """N x N combined-kernel Gram over all points of all tasks.

    Entry (p, q) couples the tasks of flat points p and q and multiplies
    by the base kernel of their inputs.
    """
    return _combined_kernel(ds, base_kernel_matrix(kernel, ds.inputs), coupling)


def _combined_kernel(ds, base, coupling):
    """assemble_kernel_matrix from an already built base Gram, so that a
    fit can build the base Gram once and re-couple it every iteration.
    Built in place, so that at most two N x N arrays besides the base Gram
    are alive at once (numpy copies the overlapping transpose first)."""
    k = coupling[np.ix_(ds.point_task, ds.point_task)]
    k *= base
    k += k.T
    k /= 2.0
    return k

