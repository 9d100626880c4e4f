"""Base kernels, the task-coupling matrix and the combined kernel.

The coupling matrix C = Omega (lam1 Omega + lam2 I)^{-1} shares the
covariance's eigenvectors; an eigenvalue mu maps to mu / (lam1 mu + lam2).
The combined kernel between point x1 of task i1 and point x2 of task i2
is C[i1, i2] * k(x1, x2). RBF blocks are built about the inputs' median,
from one product and one exp (base_kernel_matrix).
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
    with np.errstate(over="ignore"):  # far inputs: kernel 0
        diff = x - z
        return float(np.exp(-(diff @ diff) / (2.0 * kernel.width**2)))


def base_kernel_matrix(kernel, xa, xb=None):
    """Base-kernel block between two stacked input sets; the Gram of xa
    when xb is None.

    The RBF block is one matrix product and one exp. Both sets are
    centred on a coordinatewise median of xa and scaled by 1 / width,
    which is exact (the Gaussian depends only on differences) and makes
    the block independent of where the inputs sit; unlike a mean, a
    median is not dragged off the bulk by one far input. With
    h = |u|^2 / 2 per scaled row u, the exponent -|u - v|^2 / 2 of a
    cross block is the product of rows [u, -h_u, 1] and [v, 1, -h_v], so
    no N x Q temporary is made. The Gram's u u^T is a symmetric product
    and h_i + h_j commutes, so the Gram is bit-symmetric, with a diagonal
    of exactly 1. Inputs so far apart that the product could overflow
    are summed from their differences instead, without a warning.
    """
    gram = xb is None
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = xa if gram else np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"kernel inputs of dimension {xa.shape[1]} vs {xb.shape[1]}"
        )
    if kernel.kind == "linear":
        return xa @ xb.T
    if not gram:
        return _rbf_cross(kernel, _rbf_rows(kernel, xa), xb)
    with np.errstate(over="ignore", invalid="ignore"):
        _, u, hu = _rbf_scaled(kernel, xa)
        t = u @ u.T
        step = max(1, (1 << 15) // max(1, hu.size))  # h_i + h_j in 256 kB blocks
        for lo in range(0, hu.size, step):
            t[lo:lo + step] -= np.add.outer(hu[lo:lo + step], hu)
        _exp_block(kernel, t, hu, hu, xa, xa)
    np.fill_diagonal(t, 1.0)
    return t


def _rbf_scaled(kernel, xa):
    """The centre of an RBF block (a coordinatewise median of xa), the
    scaled rows u = (xa - centre) / width and h = |u|^2 / 2 per row."""
    mid = (xa.shape[0] - 1) // 2
    centre = np.partition(xa, mid, axis=0)[mid] if xa.shape[0] else 0.0
    u = (xa - centre) / kernel.width
    return centre, u, 0.5 * np.einsum("ij,ij->i", u, u)


def _rbf_rows(kernel, xa):
    """The xa side of RBF cross blocks, for a caller that serves many
    query blocks against the same xa to prepare once: (xa, centre, the
    rows [u, -h_u, 1], h_u)."""
    with np.errstate(over="ignore", invalid="ignore"):
        centre, u, hu = _rbf_scaled(kernel, xa)
        return xa, centre, np.column_stack([u, -hu, np.ones_like(hu)]), hu


def _rbf_cross(kernel, rows, xb):
    """The RBF block between the xa of prepared rows (_rbf_rows) and xb,
    with the bits of base_kernel_matrix(kernel, xa, xb)."""
    xa, centre, stacked, hu = rows
    with np.errstate(over="ignore", invalid="ignore"):
        v = (xb - centre) / kernel.width
        hv = 0.5 * np.einsum("ij,ij->i", v, v)
        t = stacked @ np.column_stack([v, np.ones_like(hv), -hv]).T
        _exp_block(kernel, t, hu, hv, xa, xb)
    return t


def _exp_block(kernel, t, hu, hv, xa, xb):
    """exp of the exponents t, in place. Below h = 1e307 no partial sum of
    the product overflows; the rows and columns of farther inputs are
    summed from their differences."""
    for i in np.flatnonzero(hu >= 1e307):
        t[i] = -0.5 * np.sum(((xa[i] - xb) / kernel.width) ** 2, axis=1)
    for j in np.flatnonzero(hv >= 1e307):
        t[:, j] = -0.5 * np.sum(((xa - xb[j]) / kernel.width) ** 2, axis=1)
    np.minimum(t, 0.0, out=t)
    np.exp(t, out=t)


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
    by the base kernel of their inputs. It is written over the base Gram,
    so the call holds one N x N array."""
    base = base_kernel_matrix(kernel, ds.inputs)
    return _combined_kernel(ds, base, coupling, out=base)


def _spans(ds):
    """(first, end) of each task's points in flat order."""
    ends = np.cumsum(ds.counts)
    return [(int(hi - n), int(hi)) for n, hi in zip(ds.counts, ends)]


def _combined_kernel(ds, base, coupling, out=None):
    """assemble_kernel_matrix from an already built base Gram, so that a
    fit can build the base Gram once and re-couple it every iteration,
    into out when given (an N x N array, or base itself).
    The coupling is symmetrised, so that with the exactly symmetric base
    Gram of base_kernel_matrix the product is exactly symmetric, and the
    result is written per task row band, elementwise: base rows times the
    task's coupling row."""
    coupling = (coupling + coupling.T) / 2.0
    k = np.empty_like(base) if out is None else out
    for t, (lo, hi) in enumerate(_spans(ds)):
        np.multiply(base[lo:hi], coupling[t, ds.point_task], out=k[lo:hi])
    return k
