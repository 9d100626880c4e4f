"""Fixed task-relationship matrices and fitting against them.

Each constructor returns a symmetric PSD matrix L that plays the role of
the inverse task covariance; tr(W L W^T) then reproduces a classical
multi-task penalty (pull to the mean, similarity-graph smoothness, task
network smoothness, or cluster structure). Fitting holds L fixed: only
the dual solve runs, with the coupling (lam1 I + lam2 L)^{-1}, as fit's
final coefficient step: the low-rank solve on the moments, or CG to
1e-10 on the base Gram, gated on its saddle residual. L is decomposed
once per fit, and that one decomposition gives the PSD check, the
coupling, its factor and the reported covariance.
"""

import numpy as np

from .data import validate_dataset
from .errors import (
    AsymmetricSimilarity,
    EmptyCluster,
    IndexOutOfRange,
    NegativeSimilarity,
    NotPSD,
    SelfEdge,
)
from .linalg import PSD_EIG_FLOOR, sym_eig
from .solver import _coefficient_step, _fitted_state, _model


def laplacian_mean_regularization(m):
    """Centering matrix I - ones/m: tr(W L W^T) is the summed squared
    deviation of each task's weights from the average weights."""
    if m < 1:
        raise ValueError("need at least one task")
    return np.eye(m) - np.full((m, m), 1.0 / m)


def laplacian_from_similarity(similarity):
    """Graph Laplacian scaled for the ordered double sum.

    L = 2 (D - S) so that tr(W L W^T) equals
    sum_{i,j} s_ij ||w_i - w_j||^2 over ordered pairs. The similarity
    matrix must be symmetric with nonnegative entries and zero diagonal.
    """
    s = np.asarray(similarity, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise AsymmetricSimilarity("similarity matrix must be square")
    if np.max(np.abs(s - s.T)) > 1e-12 * max(1.0, np.max(np.abs(s)) if s.size else 1.0):
        raise AsymmetricSimilarity("similarity matrix must be symmetric")
    if np.any(s < 0):
        raise NegativeSimilarity("similarities must be nonnegative")
    s = s.copy()
    np.fill_diagonal(s, 0.0)
    degrees = s.sum(axis=1)
    return 2.0 * (np.diag(degrees) - s)


def laplacian_from_task_network(m, edges):
    """Laplacian of an undirected 0/1 task network, each edge counted once.

    tr(W L W^T) = sum over listed edges (p, q) of ||w_p - w_q||^2.
    """
    graph = np.zeros((m, m))
    for p, q in edges:
        if not (0 <= p < m and 0 <= q < m):
            raise IndexOutOfRange(f"edge ({p}, {q}) outside 0..{m - 1}")
        if p == q:
            raise SelfEdge(f"self edge on task {p}")
        graph[p, q] = 1.0
        graph[q, p] = 1.0
    return np.diag(graph.sum(axis=1)) - graph


def clustered_inverse_covariance(m, cluster_assignment, alpha, beta, gamma):
    """Cluster-structured inverse covariance
    alpha*H + beta*(M - H) + gamma*(I - M), with H the centering matrix
    and M the orthogonal projector onto the cluster indicator columns.

    cluster_assignment maps task index -> cluster label; every cluster
    must be nonempty over tasks 0..m-1. Raises NotPSD if the weight
    combination produces a negative eigenvalue.
    """
    if not all(0 < v < np.inf for v in (alpha, beta, gamma)):
        raise ValueError("cluster penalty weights must be positive and finite")
    labels = [cluster_assignment[i] for i in range(m)]
    clusters = sorted(set(labels), key=str)
    indicator = np.zeros((m, len(clusters)))
    for i, lab in enumerate(labels):
        indicator[i, clusters.index(lab)] = 1.0
    sizes = indicator.sum(axis=0)
    if np.any(sizes == 0):
        raise EmptyCluster("every cluster must contain at least one task")
    projector = indicator @ np.diag(1.0 / sizes) @ indicator.T
    centering = laplacian_mean_regularization(m)
    combo = alpha * centering + beta * (projector - centering) + gamma * (np.eye(m) - projector)
    combo = (combo + combo.T) / 2.0
    eigvals = np.linalg.eigvalsh(combo)
    if eigvals[0] < PSD_EIG_FLOOR:
        raise NotPSD(
            f"weights (alpha={alpha}, beta={beta}, gamma={gamma}) give eigenvalue {eigvals[0]:.3e}"
        )
    return combo


def fit_with_fixed_inverse(ds, kernel, hp, inverse):
    """One dual solve with the relationship structure held fixed.

    The solve is fit's final coefficient step. No covariance update runs;
    the model reports the trace-normalized pseudo-inverse of L (cutoff
    1e-12; I/m when L is zero) as its covariance (for inspection only -
    the stored coupling is what predictions use). One
    decomposition L = V diag(v) V^T gives the PSD check, the coupling
    (lam1 I + lam2 L)^{-1} = V diag(1 / (lam1 + lam2 v)) V^T, well-defined
    for singular L because lam1 > 0, its factor F = V diag(1 / (lam1 +
    lam2 v))^{1/2}, and the pseudo-inverse.
    """
    validate_dataset(ds)
    if hp.lam1 <= 0:
        raise ValueError("fitting requires lam1 > 0")
    inverse = np.asarray(inverse, dtype=float)
    if inverse.shape != (ds.m, ds.m):
        raise ValueError(f"fixed inverse must be {ds.m} x {ds.m}")
    dec = sym_eig(inverse)  # also rejects asymmetric input
    if dec.values.size and dec.values[-1] < PSD_EIG_FLOOR:
        raise NotPSD(f"fixed inverse has eigenvalue {dec.values[-1]:.3e}")
    coupling = dec.map(lambda v: 1.0 / (hp.lam1 + hp.lam2 * v))
    pinv = dec.map(np.reciprocal, rel_cutoff=1e-12)
    total = float(np.trace(pinv))
    omega = pinv / total if total > 1e-12 else np.eye(ds.m) / ds.m
    factor = dec.vectors / np.sqrt(hp.lam1 + hp.lam2 * np.clip(dec.values, 0.0, None))
    alpha, b, product = _coefficient_step(ds, kernel)(coupling, factor)
    objective, _ = _fitted_state(ds, coupling, alpha, b, product)
    return _model(ds, kernel, hp, alpha, b, omega, coupling, (objective,))
