"""Grafting one new task onto a trained model without refitting it.

The frozen quantities are the existing tasks' weight matrix and their
covariance. The new task's weights and bias alternate with its covariance
column and own variance; the column/variance step is a small cone program
(maximize t subject to the augmented covariance dominating t times the
augmented weight Gram) solved with a log-barrier interior method. Linear
kernel only.
"""

from dataclasses import dataclass

import numpy as np

from .data import NewTaskSolution, TaskCovariance, TaskData, _require_finite_task
from .errors import DegenerateGram, DimensionMismatch, Infeasible, SigmaOutOfRange, SolverStalled
from .linalg import PSD_EIG_FLOOR, solve_linear, sym_eig
from .solver import reconstruct_weights

OMEGA_RIDGE = 1e-8
SIGMA_MIN_DEFAULT = 1e-4
BARRIER_MU_FINAL = 1e-8
NEWTON_TOL = 1e-10


def augmented_covariance(omega, omega_col, sigma):
    """(m+1) x (m+1) covariance joining a new task to an existing one.

    The existing block is scaled by (1 - sigma) so the result keeps unit
    trace. Raises SigmaOutOfRange unless sigma is strictly inside (0, 1).
    """
    if not 0.0 < sigma < 1.0:
        raise SigmaOutOfRange(f"new-task variance {sigma!r} not in (0, 1)")
    base = omega.matrix if hasattr(omega, "matrix") else np.asarray(omega, dtype=float)
    col = np.asarray(omega_col, dtype=float).ravel()
    m = base.shape[0]
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = (1.0 - sigma) * base
    out[:m, m] = col
    out[m, :m] = col
    out[m, m] = sigma
    return out


def _ridged(omega, *fs):
    """The maps fs of one decomposition of the covariance, its spectrum
    shifted by OMEGA_RIDGE when the smallest eigenvalue is at most 1e-10."""
    dec = sym_eig(omega.matrix if hasattr(omega, "matrix") else omega)
    shift = OMEGA_RIDGE if dec.values.size and dec.values[-1] <= 1e-10 else 0.0
    return tuple(dec.map(lambda v, f=f: f(v + shift)) for f in fs)


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
    """Precomputed pieces of the covariance-column cone program.

    eigvals/eigvecs decompose the whitened existing-weight Gram
    Omega^{-1/2} Psi11 Omega^{-1/2}; psi12 and psi22 are the cross and
    own blocks of the augmented weight Gram.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    psi12: np.ndarray
    psi22: float
    omega_inv_sqrt: np.ndarray
    omega_sqrt: np.ndarray

    def __post_init__(self):
        if self.eigvals.size and self.eigvals[-1] < PSD_EIG_FLOOR:
            raise ValueError(f"whitened Gram eigenvalue {self.eigvals[-1]:.3e}")
        if self.psi22 < -1e-10:
            raise ValueError(f"negative own Gram block {self.psi22!r}")


def socp_instance(psi11, psi12, psi22, omega):
    """Build the cone-program data from weight-Gram blocks and the
    existing covariance (ridged if semidefinite)."""
    inv_sqrt, root = _ridged(omega, lambda v: 1.0 / np.sqrt(v), np.sqrt)
    whitened = inv_sqrt @ psi11 @ inv_sqrt
    dec = sym_eig(whitened)
    return SocpInstance(
        eigvals=np.clip(dec.values, 0.0, None),
        eigvecs=dec.vectors,
        psi12=np.asarray(psi12, dtype=float).ravel(),
        psi22=float(psi22),
        omega_inv_sqrt=inv_sqrt,
        omega_sqrt=root,
    )


def solve_omega_sigma(socp, omega, sigma_min=SIGMA_MIN_DEFAULT):
    """Covariance column and variance for the new task: maximize t under
    the rotated-cone constraints.

    Constraints (after whitening the column as nu = Omega^{-1/2} column):
        1 - sigma >= t * lam_j                     for each eigenvalue
        sum_j f_j^2 / (1 - sigma - t lam_j) <= sigma - t psi22,
            f = U^T (nu - t Omega^{-1/2} psi12)
        ||nu||^2 <= sigma - sigma^2
        sigma in [sigma_min, 1 - sigma_min], t > 0

    Solved by a log-barrier interior method (mu halved from 1 to 1e-8,
    Newton tolerance 1e-10). Returns (omega_col, sigma, t).
    """
    if not 0.0 < sigma_min < 0.5:
        raise ValueError("sigma_min must lie in (0, 0.5)")
    m = socp.psi12.shape[0]
    lam_raw = socp.eigvals
    q = socp.omega_inv_sqrt @ socp.psi12
    p_raw = socp.eigvecs.T @ q
    scale = max(float(lam_raw[0]) if m else 0.0, socp.psi22)
    if scale <= 1e-14:
        raise DegenerateGram("all weight-Gram blocks are zero; t is unbounded")
    lam = lam_raw / scale
    p = p_raw / scale
    psi22 = socp.psi22 / scale
    ut = socp.eigvecs.T

    k = m + 2  # variables: nu (m), sigma, t  (t in scaled units)
    e_sigma = np.zeros(k); e_sigma[m] = 1.0
    e_t = np.zeros(k); e_t[m + 1] = 1.0
    # Jacobians of the linear maps f(z) and r(z)
    jac_f = np.zeros((m, k)); jac_f[:, :m] = ut; jac_f[:, m + 1] = -p
    jac_r = np.zeros((m, k)); jac_r[:, m] = -1.0; jac_r[:, m + 1] = -lam

    def pieces(z):
        nu, sigma, t = z[:m], z[m], z[m + 1]
        f = ut @ nu - t * p
        r = 1.0 - sigma - t * lam
        g1 = sigma - t * psi22 - float(np.sum(f**2 / r)) if np.all(r > 0) else -1.0
        g2 = sigma - sigma**2 - float(nu @ nu)
        return nu, sigma, t, f, r, g1, g2

    def feasible(z):
        nu, sigma, t, f, r, g1, g2 = pieces(z)
        return (
            t > 0
            and sigma_min < sigma < 1.0 - sigma_min
            and np.all(r > 0)
            and g1 > 0
            and g2 > 0
        )

    def barrier(z):
        nu, sigma, t, f, r, g1, g2 = pieces(z)
        return -(
            np.sum(np.log(r))
            + np.log(g1)
            + np.log(g2)
            + np.log(t)
            + np.log(sigma - sigma_min)
            + np.log(1.0 - sigma_min - sigma)
        )

    def gradient_hessian(z):
        nu, sigma, t, f, r, g1, g2 = pieces(z)
        fr = f / r
        # sum_j f_j^2 / r_j : gradient and Hessian
        grad_q = 2.0 * jac_f.T @ fr - jac_r.T @ fr**2
        hess_q = (
            2.0 * (jac_f.T * (1.0 / r)) @ jac_f
            - 2.0 * (jac_f.T * (fr / r)) @ jac_r
            - 2.0 * (jac_r.T * (fr / r)) @ jac_f
            + 2.0 * (jac_r.T * (fr**2 / r)) @ jac_r
        )
        grad_g1 = e_sigma - psi22 * e_t - grad_q
        hess_g1 = -hess_q
        grad_g2 = np.concatenate([-2.0 * nu, [1.0 - 2.0 * sigma, 0.0]])
        hess_g2 = np.zeros((k, k))
        hess_g2[:m, :m] = -2.0 * np.eye(m)
        hess_g2[m, m] = -2.0

        # -sum log c terms: grad = -sum grad_c/c, hess = sum (gg^T/c^2 - Hc/c)
        grad = -(jac_r.T @ (1.0 / r)) - grad_g1 / g1 - grad_g2 / g2
        grad -= e_t / t
        grad -= e_sigma / (sigma - sigma_min)
        grad += e_sigma / (1.0 - sigma_min - sigma)
        hess = (jac_r.T * (1.0 / r**2)) @ jac_r
        hess += np.outer(grad_g1, grad_g1) / g1**2 - hess_g1 / g1
        hess += np.outer(grad_g2, grad_g2) / g2**2 - hess_g2 / g2
        hess += np.outer(e_t, e_t) / t**2
        hess += np.outer(e_sigma, e_sigma) / (sigma - sigma_min) ** 2
        hess += np.outer(e_sigma, e_sigma) / (1.0 - sigma_min - sigma) ** 2
        return grad, hess

    # strictly feasible start: centered sigma, zero column, small t
    z = np.zeros(k)
    z[m] = 0.5
    t0 = 0.1 / (1.0 + psi22 + float(p @ p))
    for _ in range(200):
        z[m + 1] = t0
        if feasible(z):
            break
        t0 /= 2.0
    else:
        raise Infeasible("no strictly feasible starting point with t > 0")

    mu = 1.0
    last_mu = mu
    while mu >= BARRIER_MU_FINAL:
        for _ in range(100):
            grad_b, hess_b = gradient_hessian(z)
            grad = -e_t + mu * grad_b
            hess = mu * hess_b + 1e-12 * np.eye(k)
            try:
                direction = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                raise SolverStalled("barrier Hessian is singular") from None
            decrement = float(-grad @ direction)
            if decrement / 2.0 <= NEWTON_TOL:
                break
            phi0 = -z[m + 1] + mu * barrier(z)
            step = 1.0
            while step > 1e-14:
                trial = z + step * direction
                if feasible(trial):
                    phi1 = -trial[m + 1] + mu * barrier(trial)
                    if phi1 <= phi0 + 0.25 * step * float(grad @ direction):
                        break
                step /= 2.0
            else:
                break  # no productive step at this centering; tighten mu
            z = z + step * direction
        last_mu = mu
        mu /= 2.0

    if not feasible(z):
        raise SolverStalled("barrier method left the feasible region")
    # KKT quality: complementarity is bounded by last_mu per constraint and
    # stationarity by the Newton decrement of the final centering.
    grad_b, hess_b = gradient_hessian(z)
    grad = -e_t + last_mu * grad_b
    hess = last_mu * hess_b + 1e-12 * np.eye(k)
    decrement = float(-grad @ np.linalg.solve(hess, -grad))
    if max(abs(decrement) / 2.0, last_mu * (m + 5)) > 1e-6:
        raise SolverStalled(f"KKT residual {max(abs(decrement) / 2.0, last_mu * (m + 5)):.3e}")

    nu, sigma, t_scaled = z[:m], float(z[m]), float(z[m + 1])
    omega_col = socp.omega_sqrt @ nu
    return omega_col, sigma, t_scaled / scale


def _input_block(inputs):
    arr = np.asarray(inputs, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def newtask_objective(inputs, targets, w, b, weights_existing, omega, omega_col, sigma, hp):
    """Objective of the incorporation problem at an explicit point:
    task-averaged squared loss plus the weight-norm and relationship
    penalties of the augmented model."""
    objective = _objective(_input_block(inputs), np.ravel(targets), weights_existing, omega, hp)
    w = np.asarray(w, dtype=float).ravel()
    return objective(w, b, np.asarray(omega_col, dtype=float).ravel(), sigma)


def _objective(inputs, targets, weights_existing, omega, hp):
    """newtask_objective as a function of (w, b, column, variance), with
    the frozen covariance's inverse and fixed trace piece computed once.

    The relationship trace tr(W~ Om~^{-1} W~^T) takes the stable block form
    tr(Wm B^{-1} Wm^T) + ||w - Wm B^{-1} col||^2 / s, with B = (1 - sigma)
    Omega the scaled existing block and s the Schur slack (floored to act
    as a wall).
    """
    (inv,) = _ridged(omega, np.reciprocal)
    fixed_trace = float(np.trace(weights_existing @ inv @ weights_existing.T))

    def value(w, b, col, sigma):
        inv_col = inv @ col
        slack = max(sigma - float(col @ inv_col) / (1.0 - sigma), 1e-14)
        diff = w - (weights_existing @ inv_col) / (1.0 - sigma)
        rel = fixed_trace / (1.0 - sigma) + float(diff @ diff) / slack
        residuals = targets - inputs @ w - b
        loss = float(residuals @ residuals) / inputs.shape[0]
        return loss + 0.5 * hp.lam1 * float(w @ w) + 0.5 * hp.lam2 * rel

    return value


def solve_wb_newtask(inputs, targets, weights_existing, omega_tilde, hp):
    """New-task weights and bias with the augmented covariance fixed.

    A ridge solve with effective ridge lam1 + lam2 (Om~^{-1})_{new,new}
    and a linear pull toward the combination of existing weights selected
    by the covariance column.
    """
    inputs = _input_block(inputs)
    targets = np.ravel(targets)
    n, d = inputs.shape
    if weights_existing.shape[0] != d:
        raise DimensionMismatch(
            f"existing weights have dimension {weights_existing.shape[0]}, data has {d}"
        )
    m = omega_tilde.shape[0] - 1
    sigma = float(omega_tilde[m, m])
    col = omega_tilde[:m, m]
    binv_col = _ridged(omega_tilde[:m, :m], np.reciprocal)[0] @ col  # B = (1 - sigma) Omega
    slack = max(sigma - float(col @ binv_col), 1e-14)
    center = weights_existing @ binv_col

    ridge = hp.lam1 + hp.lam2 / slack
    system = np.zeros((d + 1, d + 1))
    system[:d, :d] = (2.0 / n) * inputs.T @ inputs + ridge * np.eye(d)
    system[:d, d] = (2.0 / n) * inputs.sum(axis=0)
    system[d, :d] = (2.0 / n) * inputs.sum(axis=0)
    system[d, d] = 2.0
    rhs = np.concatenate([(2.0 / n) * inputs.T @ targets + (hp.lam2 / slack) * center,
                          [(2.0 / n) * targets.sum()]])
    sol = solve_linear(system, rhs)
    return sol[:d], float(sol[d])


def _ternary_min(fun, lo, hi, iters=36):
    for _ in range(iters):
        third = (hi - lo) / 3.0
        a, c = lo + third, hi - third
        if fun(a) <= fun(c):
            hi = c
        else:
            lo = a
    return (lo + hi) / 2.0


def _descend_relationship(objective, col, sigma, col_cone, sigma_cone, sigma_min,
                          omega_sqrt, omega_inv_sqrt):
    """Minimize the objective over (column, variance) with the weights fixed.

    The cone step maximizes t, a largest-eigenvalue surrogate of the
    relationship trace, so its point only seeds the search: a ternary line
    search along the segment (feasible by convexity) is followed by
    coordinate descent in the whitened column basis, where the feasibility
    region is a ball and the objective is smooth and convex, so the sweeps
    converge to the conditional optimum. Infeasible probes evaluate huge
    through the slack floor and are stepped over naturally.
    """
    theta = _ternary_min(
        lambda t: objective(col + t * (col_cone - col), sigma + t * (sigma_cone - sigma)),
        0.0,
        1.0,
    )
    nu = omega_inv_sqrt @ (col + theta * (col_cone - col))
    best_sigma = sigma + theta * (sigma_cone - sigma)

    def at(nu_, sigma_):
        return objective(omega_sqrt @ nu_, sigma_)

    value = at(nu, best_sigma)
    for _ in range(15):
        radius = np.sqrt(max(best_sigma - best_sigma**2, 0.0)) + 1e-12
        for j in range(nu.shape[0]):
            nu = _with(nu, j, _ternary_min(lambda v: at(_with(nu, j, v), best_sigma),
                                           -radius, radius))
        best_sigma = _ternary_min(lambda s: at(nu, s), sigma_min, 1.0 - sigma_min)
        improved = at(nu, best_sigma)
        if improved > value - 1e-12 * max(1.0, abs(value)):
            value = improved
            break
        value = improved
    return omega_sqrt @ nu, best_sigma


def _with(vec, j, value):
    out = vec.copy()
    out[j] = value
    return out


def incorporate_new_task(model, new_data, hp, sigma_min=SIGMA_MIN_DEFAULT):
    """Fit one new task against a frozen model.

    Alternates the weight/bias ridge solve with the covariance-column cone
    step until the relative change of the incorporation objective falls
    below hp.tol or hp.max_iters is reached. The cone step maximizes t (a
    largest-eigenvalue surrogate of the relationship trace), so a descent
    guard keeps the recorded objective non-increasing: a cone step that
    would raise the objective is rejected and the alternation stops.

    Returns a NewTaskSolution; the input model is not modified.
    """
    if model.kernel.kind != "linear":
        raise ValueError("new-task incorporation supports only the linear kernel")
    record = new_data if isinstance(new_data, TaskData) else TaskData(*new_data)
    if record.n < 1:
        raise DegenerateGram("new task has no points")
    if record.inputs.shape[1] != model.dim:
        raise DimensionMismatch(
            f"new task inputs have dimension {record.inputs.shape[1]}, model expects {model.dim}"
        )
    _require_finite_task(record)

    weights_existing = reconstruct_weights(model)
    omega = model.covariance
    m = model.m
    psi11 = weights_existing.T @ weights_existing

    sigma = min(max(1.0 / (m + 1), sigma_min), 1.0 - sigma_min)
    col = np.zeros(m)
    trace = []
    objective_at = _objective(record.inputs, record.targets, weights_existing, omega, hp)

    for _ in range(hp.max_iters):
        omega_tilde = augmented_covariance(omega, col, sigma)
        w, b = solve_wb_newtask(record.inputs, record.targets, weights_existing, omega_tilde, hp)
        value = objective_at(w, b, col, sigma)
        psi12 = weights_existing.T @ w
        psi22 = float(w @ w)
        if float(np.trace(psi11)) + psi22 <= 1e-14:
            trace.append(value)
            break  # nothing to relate: keep the zero column
        instance = socp_instance(psi11, psi12, psi22, omega)
        col_cone, sigma_cone, _t = solve_omega_sigma(instance, omega, sigma_min)
        col_next, sigma_next = _descend_relationship(
            lambda c_, s_: objective_at(w, b, c_, s_),
            col, sigma, col_cone, sigma_cone, sigma_min,
            instance.omega_sqrt, instance.omega_inv_sqrt,
        )
        value_next = objective_at(w, b, col_next, sigma_next)
        if value_next > value + 1e-12 * max(1.0, abs(value)):
            trace.append(value)  # no descent along the cone direction; stop
            break
        col, sigma = col_next, sigma_next
        trace.append(value_next)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < hp.tol * max(abs(trace[-2]), 1e-12):
            break

    # final refresh so the reported weights match the final column/variance
    omega_tilde = augmented_covariance(omega, col, sigma)
    w, b = solve_wb_newtask(record.inputs, record.targets, weights_existing, omega_tilde, hp)
    trace.append(objective_at(w, b, col, sigma))
    return NewTaskSolution(
        weights=w,
        bias=b,
        cov_column=col,
        variance=sigma,
        augmented_covariance=TaskCovariance(omega_tilde),
        objective_trace=trace,
    )
