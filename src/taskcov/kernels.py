"""Base kernel blocks.

The combined kernel between point x1 of task i1 and point x2 of task i2
is C[i1, i2] * k(x1, x2), C the task-coupling matrix; no fit forms it
(solver._cg_solve). RBF blocks are built about the inputs' median, from
one product and one exp (base_kernel_matrix).
"""

import numpy as np

from .errors import DimensionMismatch


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
