"""The paper's steps in their textbook forms. No fit, incorporation,
cross-validation or serving call runs these; tests compare the steps a
fit does run against them.

- update_omega, Omega = (W^T W)^{1/2} / tr(.), on the gram_wtw of dual
  coefficients, and coupling_matrix, C = Omega (lam1 Omega + lam2 I)^{-1}:
  a fit reads both off its weights' singular structure (solver._svd_coupling).
- objective_value: the objective of a state, which a fit reads off its own
  (solver._fitted_state).
- solve_alpha_b_direct (the saddle system's LU) and solve_alpha_b_smo
  (pairwise coordinate descent), from zero at a fixed coupling: a fit's
  coefficient step is a low-rank solve or projected CG
  (solver._coefficient_step).
- assemble_kernel_matrix, multitask_kernel and base_kernel: the combined
  kernel as a Gram, one entry and one base pair; a fit never forms it, but
  multiplies through its base Gram with the coupling (solver._cg_solve).
- psd_sqrt and psd_inverse: matrix functions through the eigendecomposition.
- solve_wb_newtask (the weight step at a fixed augmented covariance),
  socp_instance and solve_omega_sigma (the cone step on the covariance
  column), schur_feasible and newtask_objective: the alternating form of
  the problem incorporate_new_task solves exactly.
"""

from dataclasses import dataclass

import numpy as np

from .data import TaskCovariance
from .errors import DegenerateGram, DimensionMismatch, MaxIterationsExceeded, Singular, TaskIndexOutOfRange
from .kernels import base_kernel_matrix
from .linalg import _require_psd, solve_linear, spectral_map, sym_eig
from .newtask import SIGMA_MIN_DEFAULT, _newtask_value, _ridged
from .solver import _centred_moments, _fitted_state, _loss_weights, _spread, _times_base

SMO_DEFAULT_TOL = 1e-6
SMO_MAX_ROUNDS = 200_000


def psd_sqrt(a):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-8 max(1, lambda_max), 0] are treated as numerical
    noise and clipped to zero; anything below that raises NotPSD
    (linalg._require_psd).
    """
    dec = sym_eig(a)
    _require_psd(dec.values, "matrix")
    return dec.map(np.sqrt)


def psd_inverse(a, ridge=0.0):
    """Inverse of (a + ridge*I) through the eigendecomposition of PSD a.

    With ridge = 0 the smallest eigenvalue must exceed 1e-10 min(1,
    lambda_max), otherwise Singular is raised.
    """
    dec = sym_eig(a)
    if ridge == 0.0 and (not dec.values.size or dec.values[-1] <= 1e-10 * min(1.0, dec.values[0])):
        raise Singular("matrix is singular and no ridge was given")
    return dec.map(lambda v: 1.0 / (v + ridge))


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


def multitask_kernel(kernel, coupling, i1, x1, i2, x2):
    """Combined kernel value: coupling[i1, i2] * k(x1, x2)."""
    m = coupling.shape[0]
    if not (0 <= i1 < m and 0 <= i2 < m):
        raise TaskIndexOutOfRange(f"task indices ({i1}, {i2}) outside 0..{m - 1}")
    return float(coupling[i1, i2] * base_kernel(kernel, x1, x2))


def assemble_kernel_matrix(ds, kernel, coupling):
    """N x N combined-kernel Gram over all points of all tasks.

    Entry (p, q) couples the tasks of flat points p and q and multiplies
    by the base kernel of their inputs: the base Gram's rows, scaled in
    place by the symmetrised coupling's, so the call holds one N x N array."""
    base, coupling = base_kernel_matrix(kernel, ds.inputs), (coupling + coupling.T) / 2.0
    for t, (lo, hi) in enumerate(ds._spans):
        base[lo:hi] *= coupling[t, ds.point_task]
    return base


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


def update_omega(gram):
    """Analytic covariance update: sqrt of the weight Gram, trace-normalized.

    The Gram is first scaled to a largest diagonal entry of 1 (Omega does
    not depend on its scale), so that a Gram in any units has the same
    covariance. Its eigenvalues at or below 1e-14 of the largest are rank
    noise and are zeroed before rooting (the square root would otherwise
    amplify them by seven orders of magnitude and destabilize the
    objective). Raises DegenerateGram when the Gram is zero.
    """
    gram = np.asarray(gram, dtype=float)
    scale = float(np.max(np.diag(gram)))
    if not scale > 0.0:
        raise DegenerateGram("weight Gram is zero; covariance update undefined")
    root = spectral_map(gram / scale, np.sqrt, rel_cutoff=1e-14)
    return TaskCovariance(root / float(np.trace(root)))


def gram_wtw(alpha, ds, kernel, omega, hp):
    """m x m weight Gram matrix W^T W implied by the dual coefficients.

    With C the coupling of the given covariance and S the task-blocked
    quadratic form of alpha against the base Gram, W^T W = C S C. For a
    linear kernel this equals the explicit-feature product.
    """
    spread = _spread(ds.point_task, ds.m, alpha)
    coupling = coupling_matrix(omega, hp)
    g = coupling @ (spread.T @ base_kernel_matrix(kernel, ds.inputs) @ spread) @ coupling
    return (g + g.T) / 2.0


def objective_value(ds, alpha, b, omega, kernel, hp):
    """Objective at a self-consistent state (weights implied by alpha
    through the coupling C of the given covariance), as the loss plus
    1/2 <S, C> (solver._fitted_state): the penalties lam1/2 tr(W^T W) +
    lam2/2 tr(Omega^+ W^T W), the pseudo-inverse on the covariance's range.
    """
    alpha = np.asarray(alpha, dtype=float)
    # W = 0 carries no penalty, even where lam1 = lam2 = 0 leaves C undefined
    coupling = coupling_matrix(omega, hp) if np.any(alpha) else np.zeros((ds.m, ds.m))
    product = _times_base(ds, base_kernel_matrix(kernel, ds.inputs), alpha).T
    return _fitted_state(ds, coupling, alpha, np.asarray(b, dtype=float), product)[0]


def solve_alpha_b_direct(ds, kernel, coupling):
    """Exact dual coefficients and biases for a fixed coupling matrix.

    Solves the saddle system
        [K + diag(n_i)/2   E] [alpha]   [y]
        [E^T               0] [b    ] = [0]
    where K is the combined-kernel Gram and E holds per-task indicator
    columns. Raises SingularSystem if the factorization fails.
    """
    n, ind = ds.total, _spread(ds.point_task, ds.m, 1.0)
    block = np.zeros((n + ds.m, n + ds.m))
    block[:n, :n], block[:n, n:], block[n:, :n] = assemble_kernel_matrix(ds, kernel, coupling), ind, ind.T
    block[np.arange(n), np.arange(n)] += _loss_weights(ds) / 2.0
    sol = solve_linear(block, np.concatenate([ds.targets, np.zeros(ds.m)]))
    return sol[:n], sol[n:]


def solve_alpha_b_smo(ds, kernel, coupling, kkt_tol=SMO_DEFAULT_TOL, max_rounds=SMO_MAX_ROUNDS):
    """Dual coefficients by pairwise coordinate descent on the dual.

    Minimizes h(alpha) = alpha^T K~ alpha / 2 - alpha^T y subject to the
    per-task zero-sum constraints, with K~ = K + diag(n_i)/2. Working
    pairs are always drawn within one task (the equality constraints
    forbid cross-task moves); each visit takes the task's maximal
    violating pair, and tasks are visited round-robin. Biases come from
    per-task stationarity of the gradient. The solve starts at alpha = 0.

    The stop rule is scaled to the targets: the KKT spread must fall to
    kkt_tol * min(1, max |y|), so targets in small units are solved to the
    same relative accuracy, and the rule is never looser than kkt_tol.

    Raises ValueError unless kkt_tol is finite and positive and
    max_rounds is at least 1, and MaxIterationsExceeded (carrying the
    best iterate) if the KKT spread does not fall to that bound in time.
    """
    if not (np.isfinite(kkt_tol) and kkt_tol > 0):
        raise ValueError(f"kkt_tol must be finite and positive, got {kkt_tol!r}")
    if not (isinstance(max_rounds, (int, np.integer)) and max_rounds >= 1):
        raise ValueError(f"max_rounds must be an integer of at least 1, got {max_rounds!r}")
    return _smo_solve(ds, assemble_kernel_matrix(ds, kernel, coupling), kkt_tol, max_rounds)


def _smo_solve(ds, k, kkt_tol=SMO_DEFAULT_TOL, max_rounds=SMO_MAX_ROUNDS):
    """solve_alpha_b_smo for the combined-kernel Gram k, from alpha = 0. k
    is shifted to K~ in place (every caller builds it for this call), which
    saves a copy of it.

    A round visits every task once and stops the loop when no task moves,
    which happens exactly when the KKT spread at its start is at most
    kkt_tol * min(1, max |y|). Gradient updates read rows of K~, which
    equal its columns because k is exactly symmetric. A visit takes an
    argmax and argmin of its task's gradient view, arithmetic on Python
    floats, then buf = row_hi - row_lo, buf *= step, grad -= buf in place:
    the operations of the tests' two_pass_smo, in its order.
    """
    n = ds.total
    tol = kkt_tol * min(1.0, float(np.max(np.abs(ds.targets))))
    k[np.diag_indices(n)] += _loss_weights(ds) / 2.0  # k is now K~
    grad = -ds.targets  # gradient of h at alpha = 0
    task_slices = [slice(lo, hi) for lo, hi in ds._spans]
    # single-point tasks: zero-sum pins alpha at 0
    paired = [(grad[sl], sl.start) for sl in task_slices if sl.stop - sl.start >= 2]
    alpha, diag, rows, buf = [0.0] * n, k.diagonal().tolist(), list(k), np.empty(n)
    subtract, multiply = np.subtract, np.multiply

    for _ in range(max_rounds):
        moved = False
        for g, first in paired:
            hi, lo = int(g.argmax()) + first, int(g.argmin()) + first
            viol = grad.item(hi) - grad.item(lo)
            if viol <= tol:
                continue
            # curvature >= min task size thanks to the diag(n_i)/2 shift
            step = viol / (diag[hi] + diag[lo] - 2.0 * rows[hi].item(lo))
            alpha[hi] -= step
            alpha[lo] += step
            subtract(rows[hi], rows[lo], buf)
            multiply(buf, step, buf)
            subtract(grad, buf, grad)
            moved = True
        if not moved:
            break
    alpha, b = np.array(alpha), np.array([-grad[sl].mean() for sl in task_slices])
    spread = max([0.0] + [float(g.max() - g.min()) for g, _ in paired])
    if spread > tol:
        raise MaxIterationsExceeded(
            f"KKT spread {spread:.3e} above {tol:.1e} after {max_rounds} rounds",
            alpha=alpha,
            b=b,
        )
    return alpha, b


def schur_feasible(omega, omega_col, sigma, tol=1e-10):
    """Whether the augmented covariance is PSD, via the Schur condition.

    True iff omega_col^T Omega^{-1} omega_col <= sigma - sigma^2 (+tol);
    a ridge is applied when the covariance is not positive definite.
    """
    (inv,) = _ridged(omega, np.reciprocal)
    col = np.asarray(omega_col, dtype=float).ravel()
    return float(col @ inv @ col) <= sigma - sigma**2 + tol


@dataclass(frozen=True)
class SocpInstance:
    """The pieces of the covariance-column cone program that its solution
    reads: the eigenvalues (descending) of the whitened existing-weight
    Gram Omega^{-1/2} Psi11 Omega^{-1/2}, and the cross and own blocks
    psi12 and psi22 of the augmented weight Gram. The eigenvalues and
    psi22 share one PSD floor at the scale of the largest of them
    (linalg._require_psd); one below it raises ValueError.
    """

    eigvals: np.ndarray
    psi12: np.ndarray
    psi22: float

    def __post_init__(self):
        _require_psd(np.append(self.eigvals, self.psi22), "whitened Gram with own Gram block", ValueError)


def socp_instance(psi11, psi12, psi22, omega):
    """Build the cone-program data from weight-Gram blocks and the
    existing covariance (ridged if semidefinite)."""
    (inv_sqrt,) = _ridged(omega, lambda v: 1.0 / np.sqrt(v))
    return SocpInstance(
        eigvals=np.clip(sym_eig(inv_sqrt @ psi11 @ inv_sqrt).values, 0.0, None),
        psi12=np.asarray(psi12, dtype=float).ravel(),
        psi22=float(psi22),
    )


def solve_omega_sigma(socp, omega):
    """Covariance column and variance for the new task: the exact maximiser
    of t subject to Om~(col, sigma) >= t Psi~ and sigma in
    [sigma_min, 1 - sigma_min], sigma_min = SIGMA_MIN_DEFAULT.

    The diagonal blocks of any feasible point give (1 - sigma) Omega >=
    t Psi11 and sigma >= t psi22, so t <= min((1 - sigma) / lam,
    sigma / psi22) with lam the top eigenvalue of the whitened Psi11 (a
    term is +inf where its denominator is 0). col = t psi12 zeroes the
    off-diagonal block of Om~ - t Psi~ and so attains the bound, which is
    largest at sigma = psi22 / (lam + psi22), clipped to the interval.
    Where the clip binds at sigma_min, other columns reach the same t;
    this one, t psi12, is returned. omega is not read: the instance
    already holds its whitening. Raises DegenerateGram when
    lam + psi22 is not positive (t is then unbounded).
    Returns (omega_col, sigma, t).
    """
    lam = float(socp.eigvals[0]) if socp.eigvals.size else 0.0
    psi22 = max(socp.psi22, 0.0)
    if lam + psi22 <= 0.0:
        raise DegenerateGram("all weight-Gram blocks are zero; t is unbounded")
    sigma = min(max(psi22 / (lam + psi22), SIGMA_MIN_DEFAULT), 1.0 - SIGMA_MIN_DEFAULT)
    t = min((1.0 - sigma) / lam if lam > 0.0 else np.inf, sigma / psi22 if psi22 > 0.0 else np.inf)
    return t * socp.psi12, sigma, t


def _input_block(inputs):
    arr = np.asarray(inputs, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def newtask_objective(inputs, targets, w, b, weights_existing, omega, omega_col, sigma, hp):
    """Objective of the incorporation problem at an explicit point:
    task-averaged squared loss plus the weight-norm and relationship
    penalties of the augmented model.

    The relationship trace tr(W~ Om~^{-1} W~^T) takes the stable block form
    tr(Wm B^{-1} Wm^T) + ||w - Wm B^{-1} col||^2 / s, with B = (1 - sigma)
    Omega the scaled existing block and s the Schur slack (floored at 1e-14,
    so an infeasible point evaluates huge rather than negative).
    """
    (inv,) = _ridged(omega, np.reciprocal)
    return _newtask_value(_input_block(inputs), targets, w, b, weights_existing, inv, omega_col, sigma, hp)


def solve_wb_newtask(inputs, targets, weights_existing, omega_tilde, hp):
    """New-task weights and bias with the augmented covariance fixed.

    A d-square ridge solve on the task's centred moments, with effective
    ridge lam1 + lam2 (Om~^{-1})_{new,new} and a linear pull toward the
    combination of existing weights selected by the covariance column;
    the bias is then y_mean - x_mean . w.
    """
    inputs = _input_block(inputs)
    targets = np.ravel(targets)
    d = inputs.shape[1]
    if weights_existing.shape[0] != d:
        raise DimensionMismatch(
            f"existing weights have dimension {weights_existing.shape[0]}, data has {d}"
        )
    m = omega_tilde.shape[0] - 1
    sigma = float(omega_tilde[m, m])
    col = omega_tilde[:m, m]
    binv_col = _ridged(omega_tilde[:m, :m], np.reciprocal)[0] @ col  # B = (1 - sigma) Omega
    slack = max(sigma - float(col @ binv_col), 1e-14)
    x_mean, y_mean, _, _, gram, cross = _centred_moments(inputs, targets)
    pull = hp.lam2 / slack
    target = cross + pull * (weights_existing @ binv_col)
    w = solve_linear(gram + (hp.lam1 + pull) * np.eye(d), target)
    return w, float(y_mean - x_mean @ w)
