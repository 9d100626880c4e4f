"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct. The oracles use numpy and the model's public fields only, never
the library's own kernel or solver code, so a defect there cannot hide
itself. Large products are formed in blocks of rows so that the checks do
not raise the process's peak memory above what the library itself uses.
"""

import numpy as np

TRACE_RTOL = 1e-10  # the suite's monotonicity slack
COVARIANCE_ATOL = 1e-8
BACKWARD_ERROR_MAX = 1e-8  # exact saddle solve
SMO_KKT_TOL = 1e-6  # the SMO solver's stopping tolerance
PREDICT_RTOL = 1e-9
BLOCK = 256


def base_gram(kind, width, xa, xb):
    """Base-kernel block between row sets, from explicit differences."""
    if kind == "linear":
        return xa @ xb.T
    sq = ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * width**2))


def check_trace(trace, what="objective trace"):
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0 or not np.all(np.isfinite(trace)):
        return [f"{what} is empty or not finite"]
    rises = trace[1:] - trace[:-1] - TRACE_RTOL * np.maximum(1.0, np.abs(trace[:-1]))
    if np.any(rises > 0):
        k = int(np.argmax(rises))
        return [f"{what} rises from {trace[k]!r} to {trace[k + 1]!r}"]
    return []


def check_covariance(matrix, what="covariance"):
    a = np.asarray(matrix, dtype=float)
    problems = []
    if not np.all(np.isfinite(a)):
        return [f"{what} is not finite"]
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > COVARIANCE_ATOL:
        problems.append(f"{what} asymmetric by {asym:.2e}")
    low = float(np.linalg.eigvalsh((a + a.T) / 2.0)[0])
    if low < -COVARIANCE_ATOL:
        problems.append(f"{what} has eigenvalue {low:.2e}")
    if abs(float(np.trace(a)) - 1.0) > COVARIANCE_ATOL:
        problems.append(f"{what} has trace {float(np.trace(a))!r}")
    return problems


def saddle_residual(model, targets):
    """Residual of the saddle system at the model's coefficients, for the
    coupling stored in the model.

    Returns (r, e, a_frob): r = (K + diag(n_i)/2) alpha + b_task - y over
    the points, e = the per-task sums of alpha, and the Frobenius norm of
    the saddle matrix.
    """
    x = model.support_inputs
    tasks = model.support_tasks
    alpha = model.dual_coefs
    n = x.shape[0]
    shift = model.counts[tasks] / 2.0
    r = np.empty(n)
    frob_sq = 2.0 * n  # the two indicator blocks
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        k = base_gram(model.kernel.kind, model.kernel.width, x[lo:hi], x)
        k *= model.coupling[tasks[lo:hi]][:, tasks]
        k[np.arange(hi - lo), np.arange(lo, hi)] += shift[lo:hi]
        r[lo:hi] = k @ alpha
        frob_sq += float(np.sum(k * k))
    r += model.biases[tasks] - np.asarray(targets, dtype=float)
    e = np.bincount(tasks, weights=alpha, minlength=model.m)
    return r, e, float(np.sqrt(frob_sq))


def check_saddle(model, targets, solver):
    """The coefficients solve the saddle system within the solver's
    promise: normwise backward error for an exact solve, the KKT
    tolerance for SMO."""
    r, e, a_frob = saddle_residual(model, targets)
    if solver == "smo":
        worst = float(np.max(np.abs(r)))
        if not worst <= SMO_KKT_TOL:
            return [f"SMO stationarity residual {worst:.2e} above {SMO_KKT_TOL:.0e}"]
        return []
    sol = np.concatenate([model.dual_coefs, model.biases])
    rhs_norm = float(np.linalg.norm(targets))
    err = float(np.sqrt(r @ r + e @ e)) / (a_frob * float(np.linalg.norm(sol)) + rhs_norm)
    if not err <= BACKWARD_ERROR_MAX:
        return [f"saddle backward error {err:.2e} above {BACKWARD_ERROR_MAX:.0e}"]
    return []


def check_model(model, targets, solver):
    """Every check a fitted model must pass."""
    return (
        check_trace(model.objective_trace)
        + check_covariance(model.covariance.matrix)
        + check_saddle(model, targets, solver)
    )


def check_predictions(model, task_index, xs, preds):
    """predict_batch output against a vectorised oracle built from the
    model's dual coefficients, coupling, support points and biases.

    The tolerance is relative to the sum of the magnitudes of the terms,
    the scale at which two summation orders may differ."""
    preds = np.asarray(preds, dtype=float)
    if preds.shape != (len(task_index),):
        return [f"{preds.shape} predictions for {len(task_index)} queries"]
    worst = 0.0
    for lo in range(0, len(task_index), BLOCK):
        hi = min(lo + BLOCK, len(task_index))
        idx = task_index[lo:hi]
        g = base_gram(model.kernel.kind, model.kernel.width, model.support_inputs, xs[lo:hi])
        terms = (model.dual_coefs[:, None] * model.coupling[model.support_tasks][:, idx]) * g
        bias = model.biases[idx]
        oracle = terms.sum(axis=0) + bias
        scale = np.abs(terms).sum(axis=0) + np.abs(bias) + np.finfo(float).tiny
        worst = max(worst, float(np.max(np.abs(preds[lo:hi] - oracle) / scale)))
    if not worst <= PREDICT_RTOL:
        return [f"predictions differ from the oracle by {worst:.2e} relative"]
    return []


def check_identical(preds, again):
    if not np.array_equal(np.asarray(preds), np.asarray(again)):
        return ["loaded-model predictions differ from the in-memory model's"]
    return []


def check_new_task(solution):
    return (
        check_trace(solution.objective_trace, "incorporation trace")
        + check_covariance(solution.augmented_covariance.matrix, "augmented covariance")
    )


def check_cv(result, grid_size, folds):
    table = result.table
    if len(table) != grid_size:
        return [f"cross-validation table has {len(table)} rows, expected {grid_size}"]
    problems = []
    means = []
    for lam1, lam2, width, scores, mean in table:
        if len(scores) != folds or not np.all(np.isfinite(scores)):
            problems.append(f"grid point ({lam1}, {lam2}) has fold scores {scores}")
        elif abs(mean - float(np.mean(scores))) > 1e-12 * max(1.0, abs(mean)):
            problems.append(f"grid point ({lam1}, {lam2}) mean {mean} is not its fold mean")
        means.append(mean)
    best = table[int(np.argmin(means))]
    if (result.lam1, result.lam2, result.mean_score) != (best[0], best[1], best[4]):
        problems.append("chosen grid point is not the lowest mean score")
    return problems
