"""Grafting one new task onto a trained model without refitting it.

With the existing tasks' weights and covariance frozen, the problem in the
new task's weights, bias, covariance column and own variance is convex;
incorporate_new_task solves it exactly (one linear solve per value of the
Schur slack, and a golden-section search over the slack). The cone program
solve_omega_sigma (maximize t subject to the augmented covariance
dominating t times the augmented weight Gram, by a log-barrier interior
method) and the weight step solve_wb_newtask remain standalone steps.
Linear kernel only.
"""

from dataclasses import dataclass

import numpy as np

from .data import NewTaskSolution, TaskCovariance, TaskData, _require_finite_task
from .errors import DegenerateGram, DimensionMismatch, Infeasible, SigmaOutOfRange, SolverStalled
from .linalg import PSD_EIG_FLOOR, solve_linear, sym_eig
from .solver import _centred_moments, reconstruct_weights

OMEGA_RIDGE = 1e-8
SIGMA_MIN_DEFAULT = 1e-4
BARRIER_MU_FINAL = 1e-8
NEWTON_TOL = 1e-10
SEARCH_ITERS = 60  # golden-section steps over s; bisection steps on the bound's multiplier
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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
    penalties of the augmented model.

    The relationship trace tr(W~ Om~^{-1} W~^T) takes the stable block form
    tr(Wm B^{-1} Wm^T) + ||w - Wm B^{-1} col||^2 / s, with B = (1 - sigma)
    Omega the scaled existing block and s the Schur slack (floored at 1e-14,
    so an infeasible point evaluates huge rather than negative).
    """
    inputs = _input_block(inputs)
    w = np.asarray(w, dtype=float).ravel()
    col = np.asarray(omega_col, dtype=float).ravel()
    (inv,) = _ridged(omega, np.reciprocal)
    fixed_trace = float(np.trace(weights_existing @ inv @ weights_existing.T))
    residuals = np.ravel(targets) - inputs @ w - b
    fixed = float(residuals @ residuals) / inputs.shape[0] + 0.5 * hp.lam1 * float(w @ w)
    inv_col = inv @ col
    slack = max(sigma - float(col @ inv_col) / (1.0 - sigma), 1e-14)
    diff = w - (weights_existing @ inv_col) / (1.0 - sigma)
    rel = fixed_trace / (1.0 - sigma) + float(diff @ diff) / slack
    return fixed + 0.5 * hp.lam2 * rel


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


def incorporate_new_task(model, new_data, hp, sigma_min=SIGMA_MIN_DEFAULT):
    """Fit one new task against a frozen model, exactly.

    With the existing weights W, the ridged covariance Omega_r and
    F = tr(W Omega_r^{-1} W^T) frozen, write the column as
    col = (1 - sigma) Omega_r u, let q = u^T Omega_r u and let
    s = sigma - (1 - sigma) q be the Schur slack, so that
    sigma = (s + q) / (1 + q). The objective becomes

        ||r||^2 / n + lam1/2 ||w||^2 + lam2/2 [F (1 + q) / (1 - s) + ||w - W u||^2 / s],

    jointly convex in (w, b, u, s). With b = y_mean - x_mean . w eliminated
    by centring (solver._centred_moments), its minimiser at a fixed s is
    one (d+m)-square linear solve, and that minimum is convex in s, so a
    golden-section search of SEARCH_ITERS steps over s in
    [sigma_min, 1 - sigma_min] finishes the problem. sigma_min floors the
    Schur slack as well as sigma (sigma >= s). The bound
    sigma <= 1 - sigma_min reads q <= (1 - s) / sigma_min - 1; where a
    solve breaks it, a multiple mu Omega_r of the bound's gradient joins
    the u block and mu is bisected until q meets the bound. With lam2 = 0
    or W = 0 there is nothing to relate and the column stays zero.

    objective_trace holds newtask_objective at the start point (zero
    column, sigma = 1/(m+1) clipped to the bounds, its ridge solve) and at
    the returned point. hp.tol and hp.max_iters are not read. Returns a
    NewTaskSolution; the input model is not modified.
    """
    if model.kernel.kind != "linear":
        raise ValueError("new-task incorporation supports only the linear kernel")
    if not 0.0 < sigma_min < 0.5:
        raise ValueError("sigma_min must lie in (0, 0.5)")
    record = new_data if isinstance(new_data, TaskData) else TaskData(*new_data)
    if record.n < 1:
        raise DegenerateGram("new task has no points")
    if record.inputs.shape[1] != model.dim:
        raise DimensionMismatch(
            f"new task inputs have dimension {record.inputs.shape[1]}, model expects {model.dim}"
        )
    _require_finite_task(record)

    x, y = record.inputs, record.targets
    weights_existing = reconstruct_weights(model)
    omega = model.covariance
    (n, d), m = x.shape, model.m

    sigma0 = min(max(1.0 / (m + 1), sigma_min), 1.0 - sigma_min)
    col0 = np.zeros(m)
    w0, b0 = solve_wb_newtask(x, y, weights_existing, augmented_covariance(omega, col0, sigma0), hp)

    # u is solved in units of 1/sqrt(F), so the u block is of order lam2
    # whatever the scale of the existing weights
    omega_r, inv = _ridged(omega, lambda v: v, np.reciprocal)
    fixed_trace = float(np.trace(weights_existing @ inv @ weights_existing.T))
    k = m if hp.lam2 > 0.0 and fixed_trace > 0.0 else 0
    scale = np.sqrt(fixed_trace) if k else 1.0
    basis = weights_existing[:, :k] / scale
    metric = omega_r[:k, :k]
    x_mean, y_mean, x_c, y_c, gram, loss_rhs = _centred_moments(x, y)
    rhs = np.concatenate([loss_rhs, np.zeros(k)])

    def at_slack(s):
        """(objective, s, solution (w, u), F q) of the minimiser at slack s."""
        top = gram + (hp.lam1 + hp.lam2 / s) * np.eye(d)
        cross = -(hp.lam2 / s) * basis
        u_block = (hp.lam2 / (1.0 - s)) * metric + (hp.lam2 / s) * basis.T @ basis
        limit = fixed_trace * ((1.0 - s) / sigma_min - 1.0)  # the upper bound as F q <= limit

        def solve(mu):
            sol = solve_linear(np.block([[top, cross], [cross.T, u_block + mu * metric]]), rhs)
            return sol, float(sol[d:] @ metric @ sol[d:])

        sol, fq = solve(0.0)
        if fq > limit:
            lo, hi = 0.0, hp.lam2
            while solve(hi)[1] > limit:
                lo, hi = hi, 2.0 * hi
            for _ in range(SEARCH_ITERS):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if solve(mid)[1] > limit else (lo, mid)
            sol, fq = solve(hi)
        w = sol[:d]
        residuals = y_c - x_c @ w
        diff = w - basis @ sol[d:]
        rel = (fixed_trace + fq) / (1.0 - s) + float(diff @ diff) / s
        value = float(residuals @ residuals) / n + 0.5 * hp.lam1 * float(w @ w) + 0.5 * hp.lam2 * rel
        return value, s, sol, fq

    lo, hi = sigma_min, 1.0 - sigma_min
    inner = [at_slack(hi - _GOLDEN * (hi - lo)), at_slack(lo + _GOLDEN * (hi - lo))]
    for _ in range(SEARCH_ITERS):
        if inner[0][0] <= inner[1][0]:
            hi = inner[1][1]
            inner = [at_slack(hi - _GOLDEN * (hi - lo)), inner[0]]
        else:
            lo = inner[0][1]
            inner = [inner[1], at_slack(lo + _GOLDEN * (hi - lo))]
    _, s, sol, fq = min(inner, key=lambda point: point[0])

    q = fq / fixed_trace if k else 0.0
    sigma = min(max((s + q) / (1.0 + q), sigma_min), 1.0 - sigma_min)
    col = np.zeros(m)
    col[:k] = (1.0 - sigma) * (metric @ sol[d:]) / scale
    w = sol[:d]
    b = float(y_mean - x_mean @ w)
    trace = [
        newtask_objective(x, y, w_, b_, weights_existing, omega, col_, sigma_, hp)
        for w_, b_, col_, sigma_ in ((w0, b0, col0, sigma0), (w, b, col, sigma))
    ]
    return NewTaskSolution(
        weights=w,
        bias=b,
        cov_column=col,
        variance=sigma,
        augmented_covariance=TaskCovariance(augmented_covariance(omega, col, sigma)),
        objective_trace=trace,
    )
