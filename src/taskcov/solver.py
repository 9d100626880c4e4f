"""Alternating optimizer for the joint regression / task-covariance fit.

One outer iteration solves the dual coefficients and biases exactly with
the covariance held fixed, then updates the covariance analytically from
the weight Gram matrix: Omega = (W^T W)^{1/2} / tr((W^T W)^{1/2}). Both
substeps minimize a jointly convex objective, so the recorded objective
never increases.

The coefficient step is chosen once per fit. With solver='auto' and a
linear kernel on data where m*d < N, the combined kernel has rank at most
m*d and the saddle system is solved exactly in that low-rank form, with
no N x N array. Otherwise the base Gram is built once per fit and the
saddle system is solved densely: directly up to 2000 points, by SMO
beyond (or as the solver argument says).
"""

import numpy as np

from .data import TaskCovariance, TrainedModel, validate_dataset
from .errors import (
    DegenerateGram,
    DimensionMismatch,
    MaxIterationsExceeded,
    NonDecreaseDetected,
    NonFiniteValue,
    SingularSystem,
)
from .kernels import (
    _combined_kernel,
    assemble_kernel_matrix,
    base_kernel_matrix,
    coupling_matrix,
    cross_kernel_matrix,
)
from .linalg import _check_residual, solve_linear, spectral_map, sym_eig, trace_pinv_product

# Dense direct saddle solve up to this many points; SMO beyond.
DIRECT_SOLVE_LIMIT = 2000
SMO_DEFAULT_TOL = 1e-6
SMO_MAX_ROUNDS = 200_000
# Relative rise in the objective treated as a bug rather than noise.
NONDECREASE_RTOL = 1e-8


def _loss_weights(ds):
    """Diagonal of the task-imbalance matrix: n_i for each point of task i."""
    return ds.counts[ds.point_task].astype(float)


def _spread(ds, alpha):
    """N x m matrix holding each dual coefficient in its task's column;
    alpha = 1 gives the per-task indicator columns E of the saddle system."""
    spread = np.zeros((ds.total, ds.m))
    spread[np.arange(ds.total), ds.point_task] = alpha
    return spread


def solve_alpha_b_direct(ds, kernel, coupling):
    """Exact dual coefficients and biases for a fixed coupling matrix.

    Solves the saddle system
        [K + diag(n_i)/2   E] [alpha]   [y]
        [E^T               0] [b    ] = [0]
    where K is the combined-kernel Gram and E holds per-task indicator
    columns. Raises SingularSystem if the factorization fails.
    """
    return _saddle_solve(ds, assemble_kernel_matrix(ds, kernel, coupling))


def _saddle_solve(ds, k):
    """solve_alpha_b_direct for the combined-kernel Gram k."""
    n, m = ds.total, ds.m
    ind = _spread(ds, 1.0)
    block = np.zeros((n + m, n + m))
    block[:n, :n] = k + np.diag(_loss_weights(ds) / 2.0)
    block[:n, n:] = ind
    block[n:, :n] = ind.T
    rhs = np.concatenate([ds.targets, np.zeros(m)])
    sol = solve_linear(block, rhs)
    return sol[:n], sol[n:]


def solve_alpha_b_smo(ds, kernel, coupling, kkt_tol=SMO_DEFAULT_TOL, max_rounds=SMO_MAX_ROUNDS):
    """Dual coefficients by pairwise coordinate descent on the dual.

    Minimizes h(alpha) = alpha^T K~ alpha / 2 - alpha^T y subject to the
    per-task zero-sum constraints, with K~ = K + diag(n_i)/2. Working
    pairs are always drawn within one task (the equality constraints
    forbid cross-task moves); each visit takes the task's maximal
    violating pair, and tasks are visited round-robin. Biases come from
    per-task stationarity of the gradient.

    Raises MaxIterationsExceeded (carrying the best iterate) if the KKT
    spread does not fall below kkt_tol in time.
    """
    return _smo_solve(ds, assemble_kernel_matrix(ds, kernel, coupling), kkt_tol, max_rounds)


def _smo_solve(ds, k, kkt_tol=SMO_DEFAULT_TOL, max_rounds=SMO_MAX_ROUNDS):
    """solve_alpha_b_smo for the combined-kernel Gram k (left unchanged)."""
    n = ds.total
    kt = k.copy()
    kt[np.diag_indices(n)] += _loss_weights(ds) / 2.0
    alpha = np.zeros(n)
    grad = -ds.targets.copy()  # gradient of h at alpha = 0
    task_slices = []
    start = 0
    for c in ds.counts:
        task_slices.append(slice(start, start + int(c)))
        start += int(c)

    def kkt_spread():
        worst = 0.0
        for sl in task_slices:
            if sl.stop - sl.start >= 2:
                g = grad[sl]
                worst = max(worst, float(g.max() - g.min()))
        return worst

    for _ in range(max_rounds):
        if kkt_spread() <= kkt_tol:
            break
        for sl in task_slices:
            if sl.stop - sl.start < 2:
                continue  # single-point task: zero-sum pins alpha at 0
            g = grad[sl]
            hi = int(np.argmax(g)) + sl.start
            lo = int(np.argmin(g)) + sl.start
            viol = grad[hi] - grad[lo]
            if viol <= kkt_tol:
                continue
            # curvature >= min task size thanks to the diag(n_i)/2 shift
            curv = kt[hi, hi] + kt[lo, lo] - 2.0 * kt[hi, lo]
            step = viol / curv
            alpha[hi] -= step
            alpha[lo] += step
            grad -= step * (kt[:, hi] - kt[:, lo])
    b = np.array([-grad[sl].mean() for sl in task_slices])
    spread = kkt_spread()
    if spread > kkt_tol:
        raise MaxIterationsExceeded(
            f"KKT spread {spread:.3e} above {kkt_tol:.1e} after {max_rounds} rounds",
            alpha=alpha,
            b=b,
        )
    return alpha, b


def gram_wtw(alpha, ds, kernel, omega, hp):
    """m x m weight Gram matrix W^T W implied by the dual coefficients.

    With C the coupling of the given covariance and S the task-blocked
    quadratic form of alpha against the base Gram, W^T W = C S C. For a
    linear kernel this equals the explicit-feature product.
    """
    base = base_kernel_matrix(kernel, ds.inputs)
    return _weight_gram(coupling_matrix(omega, hp), _blocked(ds, base, alpha))


def _blocked(ds, base, alpha):
    """Task-blocked quadratic form S of alpha against the base Gram:
    S[i, j] = sum of alpha_p alpha_q k(x_p, x_q) over p in task i, q in j."""
    spread = _spread(ds, alpha)
    return spread.T @ base @ spread


def _weight_gram(coupling, blocked):
    """W^T W = C S C from the task-blocked form S of the coefficients."""
    g = coupling @ blocked @ coupling
    return (g + g.T) / 2.0


def _coefficient_step(ds, kernel, solver):
    """The coefficient step of one fit, its path chosen once.

    Returns a function of the coupling matrix C giving (alpha, b, K alpha,
    S): the exact saddle solution, the fitted values without biases, and
    the task-blocked quadratic form of alpha against the base Gram, so
    that W^T W = C S C.
    """
    if solver not in ("direct", "smo", "auto"):
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "auto" and kernel.kind == "linear" and ds.m * ds.dim < ds.total:
        return lambda coupling: _low_rank_solve(ds, coupling)
    use_smo = solver == "smo" or (solver == "auto" and ds.total > DIRECT_SOLVE_LIMIT)
    solve = _smo_solve if use_smo else _saddle_solve
    base = base_kernel_matrix(kernel, ds.inputs)

    def dense_step(coupling):
        k = _combined_kernel(ds, base, coupling)
        alpha, b = solve(ds, k)
        return alpha, b, k @ alpha, _blocked(ds, base, alpha)

    return dense_step


def _low_rank_solve(ds, coupling):
    """Exact saddle solve for the linear kernel in m*d dimensions.

    alpha has zero sum over each task, so moving a task's inputs by a
    constant leaves alpha unchanged and only shifts that task's bias: the
    solve runs on task-centred inputs, which keeps large input offsets
    from cancelling in the Schur complement. With C = L L^T the centred
    combined kernel is K = Z Z^T for the N x (m*d) matrix Z whose row p is
    L[t_p] (x) x_p. Writing D = diag(n_i)/2 and F = D^{-1/2} Z, Woodbury
    with the Cholesky factor R R^T = I + F^T F gives
    (K + D)^{-1} = D^{-1/2} (I - Q Q^T) D^{-1/2} with Q = F R^{-T}; the
    biases solve the m x m Schur complement E^T (K + D)^{-1} E.

    K alpha is formed in the primal, x_p . (U C)[:, t_p] with
    U[:, i] = sum over task i of alpha_p x_p, so the residual gate of
    solve_linear applies to the full saddle system at C itself. S = U^T U.
    """
    x = ds.inputs
    ind = _spread(ds, 1.0)
    half = _loss_weights(ds) / 2.0
    root = 1.0 / np.sqrt(half)[:, None]
    means = (ind.T @ x) / ds.counts[:, None]
    centred = x - means[ds.point_task]
    dec = sym_eig(coupling)
    keep = dec.values > 0.0
    factor = dec.vectors[:, keep] * np.sqrt(dec.values[keep])
    f = (factor[ds.point_task][:, :, None] * centred[:, None, :]).reshape(ds.total, -1) * root
    try:
        chol = np.linalg.cholesky(np.eye(f.shape[1]) + f.T @ f)
        q_t = np.linalg.solve(chol, f.T)
        rhs = np.column_stack([ds.targets, ind]) * root
        solved = (rhs - q_t.T @ (q_t @ rhs)) * root
        centred_b = np.linalg.solve(ind.T @ solved[:, 1:], ind.T @ solved[:, 0])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    alpha = solved[:, 0] - solved[:, 1:] @ centred_b
    u = centred.T @ _spread(ds, alpha)
    weights = u @ coupling
    b = centred_b - np.einsum("ij,ji->i", means, weights)
    fitted = np.einsum("pj,pj->p", x, weights.T[ds.point_task])
    residual = np.concatenate([fitted + half * alpha + b[ds.point_task] - ds.targets, ind.T @ alpha])
    _check_residual(residual, ds.targets)
    return alpha, b, fitted, u.T @ u


def _fitted_state(ds, step, coupling):
    """alpha, b, the loss residuals and the weight Gram at one coupling."""
    alpha, b, fitted, blocked = step(coupling)
    residuals = ds.targets - (fitted + b[ds.point_task])
    return alpha, b, residuals, _weight_gram(coupling, blocked)


def update_omega(gram):
    """Analytic covariance update: sqrt of the weight Gram, trace-normalized.

    Gram eigenvalues at or below 1e-14 of the largest are rank noise and
    are zeroed before rooting (the square root would otherwise amplify
    them by seven orders of magnitude and destabilize the objective).
    Raises DegenerateGram when the Gram is (numerically) zero; the caller
    keeps the previous covariance in that case.
    """
    root = spectral_map(gram, np.sqrt, rel_cutoff=1e-14)
    total = float(np.trace(root))
    if total <= 1e-12:
        raise DegenerateGram("weight Gram is zero; covariance update undefined")
    return TaskCovariance(root / total)


def _loss_and_norm_terms(ds, loss_residuals, gram, hp):
    """Objective without its relationship term."""
    weights = 1.0 / ds.counts[ds.point_task]
    loss = float(np.sum(weights * loss_residuals**2))
    return loss + 0.5 * hp.lam1 * float(np.trace(gram))


def _objective_terms(ds, loss_residuals, gram, omega, hp):
    rel_term = 0.5 * hp.lam2 * trace_pinv_product(omega.matrix, gram)
    return _loss_and_norm_terms(ds, loss_residuals, gram, hp) + rel_term


def objective_value(ds, alpha, b, omega, kernel, hp):
    """Objective at a self-consistent state (weights implied by alpha
    through the coupling of the given covariance).

    The relationship term is evaluated against the covariance's range
    (pseudo-inverse), which is exact for states produced by the solver.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.any(alpha):
        residuals = ds.targets - b[ds.point_task]
        gram = np.zeros((ds.m, ds.m))
    else:
        c = coupling_matrix(omega, hp)
        base = base_kernel_matrix(kernel, ds.inputs)
        residuals = ds.targets - (_combined_kernel(ds, base, c) @ alpha + b[ds.point_task])
        gram = _weight_gram(c, _blocked(ds, base, alpha))
    return _objective_terms(ds, residuals, gram, omega, hp)


def fit(ds, kernel, hp, solver="auto"):
    """Alternate the dual solve and the covariance update to convergence.

    Parameters
    ----------
    ds : MultiTaskDataset
    kernel : KernelSpec
    hp : Hyperparams (lam1 must be positive)
    solver : 'direct', 'smo' or 'auto'. 'auto' solves the linear kernel
        exactly in low-rank form when m*d < N; otherwise it takes the
        direct saddle solve up to 2000 points and SMO beyond.

    Returns a TrainedModel whose objective trace is non-increasing; a rise
    beyond 1e-8 relative raises NonDecreaseDetected. Stops when the
    relative objective change falls below hp.tol or after hp.max_iters
    outer iterations. On a degenerate weight Gram (all-zero targets) the
    previous covariance is kept and the run terminates converged.
    """
    validate_dataset(ds)
    if hp.lam1 <= 0:
        raise ValueError("fitting requires lam1 > 0")
    step = _coefficient_step(ds, kernel, solver)

    omega = TaskCovariance.unrelated(ds.m)
    trace = [objective_value(ds, np.zeros(ds.total), np.zeros(ds.m), omega, kernel, hp)]

    for _ in range(hp.max_iters):
        coupling = coupling_matrix(omega, hp)
        alpha, b, residuals, gram = _fitted_state(ds, step, coupling)
        try:
            omega = update_omega(gram)
        except DegenerateGram:
            trace.append(_objective_terms(ds, residuals, gram, omega, hp))
            break
        value = _objective_terms(ds, residuals, gram, omega, hp)
        previous = trace[-1]
        if value > previous + NONDECREASE_RTOL * max(1.0, abs(previous)):
            raise NonDecreaseDetected(
                f"objective rose from {previous!r} to {value!r}"
            )
        trace.append(value)
        if abs(value - previous) < hp.tol * max(abs(previous), 1e-12):
            break

    # Final refresh so the stored coefficients, coupling and covariance are
    # mutually consistent (the loop updates the covariance after the dual
    # solve). Can only lower the objective further.
    coupling = coupling_matrix(omega, hp)
    alpha, b, residuals, gram = _fitted_state(ds, step, coupling)
    final = _objective_terms(ds, residuals, gram, omega, hp)
    if final > trace[-1] + NONDECREASE_RTOL * max(1.0, abs(trace[-1])):
        raise NonDecreaseDetected(
            f"objective rose from {trace[-1]!r} to {final!r} in the final refresh"
        )
    trace.append(final)

    return TrainedModel(
        task_ids=ds.task_ids,
        dual_coefs=alpha,
        biases=b,
        covariance=omega,
        coupling=coupling,
        kernel=kernel,
        support_inputs=ds.inputs,
        support_tasks=ds.point_task,
        counts=ds.counts,
        hyperparams=hp,
        objective_trace=trace,
    )


def predict(model, task_id, x):
    """Predict the output of one task at a new input.

    Evaluates the combined-kernel expansion over all stored support points
    plus the task bias. Raises UnknownTask / DimensionMismatch /
    NonFiniteValue on bad queries.
    """
    i, x = _query(model, task_id, x)
    _require_finite(x[None, :])
    return _predict(model, i, x)


def predict_batch(model, task_ids, xs):
    """Vector of predictions for parallel lists of task ids and inputs.

    Raises as predict does; the inputs are tested for finiteness together,
    after every query has passed its other checks.
    """
    queries = [_query(model, t, x) for t, x in zip(task_ids, xs)]
    if queries:
        _require_finite(np.array([x for _, x in queries]))
    return np.array([_predict(model, i, x) for i, x in queries])


def _query(model, task_id, x):
    """Task index and flat input of one query, checked against the model."""
    i = model.task_index(task_id)
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.dim:
        raise DimensionMismatch(f"input has dimension {x.size}, model expects {model.dim}")
    return i, x


def _require_finite(queries):
    """Raise NonFiniteValue naming the first row holding NaN or inf."""
    bad = ~np.isfinite(queries).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteValue(f"query {k} {queries[k].tolist()} is not finite")


def _predict(model, i, x):
    column = cross_kernel_matrix(
        model.kernel, model.coupling, model.support_inputs, model.support_tasks, i, x
    )
    return float(model.dual_coefs @ column + model.biases[i])


def reconstruct_weights(model):
    """Explicit per-task weight vectors for a linear-kernel model.

    Column i is w_i = sum_{p,q} alpha_q^p x_q^p coupling[p, i]; predictions
    then equal w_i^T x + b_i exactly.
    """
    if model.kernel.kind != "linear":
        raise ValueError("explicit weights exist only for the linear kernel")
    weighted = model.support_inputs * model.dual_coefs[:, None]
    spread = np.zeros((model.support_inputs.shape[0], model.m))
    spread[np.arange(model.support_inputs.shape[0]), model.support_tasks] = 1.0
    return weighted.T @ spread @ model.coupling
