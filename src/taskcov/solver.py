"""Alternating optimizer for the joint regression / task-covariance fit.

One outer iteration solves the dual coefficients and biases exactly with
the covariance held fixed, then updates the covariance analytically from
the weight Gram matrix: Omega = (W^T W)^{1/2} / tr((W^T W)^{1/2}). Both
substeps minimize a jointly convex objective, so the recorded objective
never increases.

The coefficient step is chosen once per fit. With solver='auto' and a
linear kernel on data where m*d < N, the combined kernel has rank at most
m*d and the saddle system is solved exactly in m*d dimensions from
per-task centred moments formed once per fit. Otherwise the base Gram is
built once per fit and the saddle system is solved densely: directly up
to 2000 points, by SMO beyond (or as the solver argument says). Within a
fit, SMO starts each outer iteration from the last one's coefficients,
which are close to the next solution once the covariance settles; the
first iteration, and the public solve_alpha_b_smo, start at alpha = 0.

Serving is batched: predict_batch checks a whole batch in bulk and
computes it with a few array operations, and predict is a batch of one.
A linear model is served from its primal weights with a row-wise sum per
query, so a query's prediction has the same bits in any batch. Other
kernels sum the dual expansion per task over blocks of queries, each
support x block array kept under 4 MB.
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
)
from .linalg import _check_residual, solve_linear, spectral_map, trace_pinv_product

# Dense direct saddle solve up to this many points; SMO beyond.
DIRECT_SOLVE_LIMIT = 2000
SMO_DEFAULT_TOL = 1e-6
SMO_MAX_ROUNDS = 200_000
# Relative rise in the objective treated as a bug rather than noise.
NONDECREASE_RTOL = 1e-8
# Bytes of one support x query-block array when serving a non-linear
# kernel: under 4 MiB, where numpy starts asking for huge pages.
_SERVE_BLOCK_BYTES = 4_000_000


def _loss_weights(ds):
    """Diagonal of the task-imbalance matrix: n_i for each point of task i."""
    return ds.counts[ds.point_task].astype(float)


def _spread(tasks, m, alpha):
    """len(tasks) x m matrix holding each dual coefficient in its task's
    column; alpha = 1 gives the per-task indicator columns E of the
    saddle system."""
    spread = np.zeros((len(tasks), m))
    spread[np.arange(len(tasks)), tasks] = alpha
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
    ind = _spread(ds.point_task, ds.m, 1.0)
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

    This call starts at alpha = 0. Within fit, SMO instead starts each
    outer iteration from the previous iteration's coefficients.

    The stop rule is scaled to the targets: the KKT spread must fall to
    kkt_tol * min(1, max |y|), so targets in small units are solved to the
    same relative accuracy, and the rule is never looser than kkt_tol.

    Raises ValueError unless kkt_tol is finite and positive and
    max_rounds is at least 1, and MaxIterationsExceeded (carrying the
    best iterate) if the KKT spread does not fall to that bound in time.
    """
    if not (np.isfinite(kkt_tol) and kkt_tol > 0):
        raise ValueError(f"kkt_tol must be finite and positive, got {kkt_tol!r}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds!r}")
    return _smo_solve(ds, assemble_kernel_matrix(ds, kernel, coupling), kkt_tol, max_rounds)


def _smo_solve(ds, k, kkt_tol=SMO_DEFAULT_TOL, max_rounds=SMO_MAX_ROUNDS, start=None):
    """solve_alpha_b_smo for the combined-kernel Gram k (left unchanged),
    from alpha = 0 or from a copy of the feasible point start.

    A round visits every task once and stops the loop when no task moves,
    which happens exactly when the KKT spread at its start is at most
    kkt_tol * min(1, max |y|). Gradient updates read rows of K~, which
    equal its columns because k is exactly symmetric.
    """
    n = ds.total
    tol = kkt_tol * min(1.0, float(np.max(np.abs(ds.targets))))
    kt = k.copy()
    kt[np.diag_indices(n)] += _loss_weights(ds) / 2.0
    if start is None:
        alpha = np.zeros(n)
        grad = -ds.targets.copy()  # gradient of h at alpha = 0
    else:
        alpha = np.array(start, dtype=float)
        grad = kt @ alpha - ds.targets
    task_slices = []
    first = 0
    for c in ds.counts:
        task_slices.append(slice(first, first + int(c)))
        first += int(c)
    # single-point tasks: zero-sum pins alpha at 0
    paired = [sl for sl in task_slices if sl.stop - sl.start >= 2]

    for _ in range(max_rounds):
        moved = False
        for sl in paired:
            g = grad[sl]
            hi = int(g.argmax()) + sl.start
            lo = int(g.argmin()) + sl.start
            viol = grad[hi] - grad[lo]
            if viol <= tol:
                continue
            # curvature >= min task size thanks to the diag(n_i)/2 shift
            curv = kt[hi, hi] + kt[lo, lo] - 2.0 * kt[hi, lo]
            step = viol / curv
            alpha[hi] -= step
            alpha[lo] += step
            grad -= step * (kt[hi] - kt[lo])
            moved = True
        if not moved:
            break
    b = np.array([-grad[sl].mean() for sl in task_slices])
    spread = max([0.0] + [float(grad[sl].max() - grad[sl].min()) for sl in paired])
    if spread > tol:
        raise MaxIterationsExceeded(
            f"KKT spread {spread:.3e} above {tol:.1e} after {max_rounds} rounds",
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
    spread = _spread(ds.point_task, ds.m, alpha)
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
        per_task = [_centred_moments(t.inputs, t.targets) for t in ds.tasks]
        x_mean, y_mean, x, y, gram, cross = zip(*per_task)
        moments = (np.array(x_mean), np.array(y_mean), np.concatenate(x), np.concatenate(y),
                   np.array(gram), np.array(cross))
        return lambda coupling: _low_rank_solve(ds, moments, coupling)
    use_smo = solver == "smo" or (solver == "auto" and ds.total > DIRECT_SOLVE_LIMIT)
    base = base_kernel_matrix(kernel, ds.inputs)
    previous = None  # SMO starts each call after the first from the last alpha

    def dense_step(coupling):
        nonlocal previous
        k = _combined_kernel(ds, base, coupling)
        if use_smo:
            alpha, b = _smo_solve(ds, k, start=previous)
            previous = alpha
        else:
            alpha, b = _saddle_solve(ds, k)
        return alpha, b, k @ alpha, _blocked(ds, base, alpha)

    return dense_step


def _centred_moments(inputs, targets):
    """One task's squared loss (1/n) ||y - X w - b||^2 with b eliminated: it
    is least at b = y_mean - x_mean . w, where it is (1/n) ||y~ - X~ w||^2 on
    the centred rows. Returns (x_mean, y_mean, X~, y~, G, c) with
    G = (2/n) X~^T X~ and c = (2/n) X~^T y~; the gradient in w is G w - c."""
    x_mean = inputs.mean(axis=0)
    y_mean = targets.mean()
    x = inputs - x_mean
    y = targets - y_mean
    scale = 2.0 / inputs.shape[0]
    return x_mean, y_mean, x, y, scale * (x.T @ x), scale * (x.T @ y)


def _low_rank_solve(ds, moments, coupling):
    """Exact saddle solve for the linear kernel in m*d dimensions.

    moments stacks the tasks' _centred_moments. Centring decouples the
    biases (alpha sums to 0 over each task), and task t's saddle rows give
    alpha_p = 2 (y~_p - x~_p . w_t) / n_t with w = C z, z_t = X~_t^T alpha_t.
    So z solves (I + G (C (x) I)) z = c, block (t, s) delta_ts I + G_t C[t, s]:
    Woodbury with C as the middle factor, needing no inverse or factor of C.
    The weights are U C with U = X~^T spread(alpha), b = y_mean - x_mean . w,
    and K alpha is formed from the uncentred inputs, so the residual gate
    applies to the full saddle system at C itself. S = U^T U.
    """
    x_mean, y_mean, x, y, gram, cross = moments
    half = _loss_weights(ds) / 2.0
    system = np.eye(cross.size) + np.einsum("tij,ts->tisj", gram, coupling).reshape(cross.size, -1)
    try:
        z = np.linalg.solve(system, cross.ravel()).reshape(cross.shape)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    alpha = (y - np.einsum("pj,pj->p", x, (coupling @ z)[ds.point_task])) / half
    spread = _spread(ds.point_task, ds.m, alpha)
    u = x.T @ spread
    weights = u @ coupling
    b = y_mean - np.einsum("ij,ji->i", x_mean, weights)
    fitted = np.einsum("pj,pj->p", ds.inputs, weights.T[ds.point_task])
    residual = fitted + half * alpha + b[ds.point_task] - ds.targets
    _check_residual(np.concatenate([residual, spread.sum(axis=0)]), ds.targets)
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


def _converged(trace, tol):
    """fit's stop test on the last step of an objective trace: the change
    is below tol relative to the previous value, floored at 1e-12 of the
    first value so that the test follows the objective's own scale."""
    return abs(trace[-1] - trace[-2]) < tol * max(abs(trace[-2]), 1e-12 * trace[0])


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
    relative objective change (against |previous| floored at 1e-12 of the
    first value) falls below hp.tol or after hp.max_iters outer iterations.
    On a degenerate weight Gram (all-zero targets) the previous covariance
    is kept and the run terminates converged.
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
        if _converged(trace, hp.tol):
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

    A batch of one through predict_batch, so it returns the same bits as
    that query's entry in any batch of a linear model. Raises UnknownTask
    / DimensionMismatch / NonFiniteValue on bad queries.
    """
    return float(predict_batch(model, [task_id], [x])[0])


def predict_batch(model, task_ids, xs):
    """Vector of predictions for parallel sequences of task ids and inputs.

    The batch is checked in bulk: a DimensionMismatch if the two lengths
    differ, then per query, in order, UnknownTask or DimensionMismatch for
    the first bad query, then NonFiniteValue for the first query holding
    NaN or inf. A linear model is served from its primal weights
    (reconstruct_weights) with one row-wise sum per query and no BLAS
    product, so a query's bits do not depend on the other queries of the
    call. Other kernels sum the dual expansion per task over blocks of
    queries, through a matrix product whose last bits may depend on the
    block.
    """
    task_ids = list(task_ids)
    xs = xs if isinstance(xs, np.ndarray) else list(xs)
    if len(task_ids) != len(xs):
        raise DimensionMismatch(f"{len(task_ids)} task ids but {len(xs)} inputs")
    index, x = _queries(model, task_ids, xs)
    _require_finite(x)
    if model.kernel.kind == "linear":
        weights = reconstruct_weights(model).T
        return np.sum(x * weights[index], axis=1) + model.biases[index]
    return _dual_predictions(model, index, x)


def _queries(model, task_ids, xs):
    """Task indices and the (Q, d) inputs of a batch.

    One dict lookup per id and one array conversion for all inputs; if
    either fails or the shapes do not fit, the per-query checks run in
    order, so that the error names the first bad query.
    """
    lookup = {t: i for i, t in enumerate(model.task_ids)}
    q = len(task_ids)
    try:
        index = np.fromiter(map(lookup.__getitem__, task_ids), dtype=np.intp, count=q)
        x = np.asarray(xs, dtype=float)
        if x.size == q * model.dim:
            return index, x.reshape(q, model.dim)
    except (KeyError, TypeError, ValueError):
        pass
    checked = [_query(model, t, row) for t, row in zip(task_ids, xs)]
    return (
        np.array([i for i, _ in checked], dtype=np.intp),
        np.array([row for _, row in checked]).reshape(q, model.dim),
    )


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


def _dual_predictions(model, index, x):
    """sum_j C[j, i_q] A[j, q] + b[i_q] with A = spread(alpha)^T K(support, x),
    taking queries in blocks so that each N x block array stays under
    _SERVE_BLOCK_BYTES."""
    n = model.support_inputs.shape[0]
    spread_t = _spread(model.support_tasks, model.m, model.dual_coefs).T
    block = max(1, _SERVE_BLOCK_BYTES // (8 * n))
    sums = np.empty((model.m, x.shape[0]))
    for lo in range(0, x.shape[0], block):
        base = base_kernel_matrix(model.kernel, model.support_inputs, x[lo:lo + block])
        sums[:, lo:lo + block] = spread_t @ base
    return np.einsum("jq,jq->q", model.coupling[:, index], sums) + model.biases[index]


def reconstruct_weights(model):
    """Explicit per-task weight vectors for a linear-kernel model.

    Column i is w_i = sum_{p,q} alpha_q^p x_q^p coupling[p, i]; predictions
    then equal w_i^T x + b_i exactly. Computed once per model and returned
    read-only.
    """
    if model.kernel.kind != "linear":
        raise ValueError("explicit weights exist only for the linear kernel")
    return model._weights
