"""Grafting one new task onto a trained model without refitting it.

With the existing tasks' weights and covariance frozen, the problem in the
new task's weights, bias, covariance column and own variance is convex;
incorporate_new_task solves it exactly: the column in closed form, one
d-square solve per value of the Schur slack, and bracketed Newton steps on
the slack. Linear kernel only.
"""

from collections import namedtuple

import numpy as np

from .data import NewTaskSolution, TaskCovariance, TaskData, _require_finite_task, _SlackReport
from .errors import DegenerateGram, DimensionMismatch, SigmaOutOfRange
from .linalg import solve_linear, sym_eig
from .solver import _centred_moments, reconstruct_weights

OMEGA_RIDGE = 1e-8
SIGMA_MIN_DEFAULT = 1e-4  # floors the new task's variance and Schur slack
SEARCH_ITERS = 60  # bisection steps on the multiplier of the bound sigma <= 1 - sigma_min
# incorporate_new_task's minimiser at slack s: t = log(s / (1 - s)), g = 2 V'(s), mu,
# a = 1 / (1 / (1 - s) + mu), the spectrum s + a beta of M, the system, z, z / spectrum, q
_Slack = namedtuple("_Slack", "s t g mu a spectrum system z zm q")


def augmented_covariance(omega, omega_col, sigma):
    """(m+1) x (m+1) covariance joining a new task to an existing one.

    The existing block is scaled by (1 - sigma) so the result keeps unit
    trace. Raises SigmaOutOfRange unless sigma is strictly inside (0, 1).
    """
    if not 0.0 < sigma < 1.0:
        raise SigmaOutOfRange(f"new-task variance {sigma!r} not in (0, 1)")
    base = omega.matrix if hasattr(omega, "matrix") else np.asarray(omega, dtype=float)
    col = np.asarray(omega_col, dtype=float).ravel()
    return np.block([[(1.0 - sigma) * base, col[:, None]], [col, sigma]])


def _ridged(omega, *fs):
    """The maps fs of one decomposition of the covariance, its spectrum
    shifted by OMEGA_RIDGE when the smallest eigenvalue is at most 1e-10."""
    dec = sym_eig(omega.matrix if hasattr(omega, "matrix") else omega)
    shift = OMEGA_RIDGE if dec.values.size and dec.values[-1] <= 1e-10 else 0.0
    return tuple(dec.map(lambda v, f=f: f(v + shift)) for f in fs)


def _newtask_value(inputs, targets, w, b, weights_existing, inv, omega_col, sigma, hp):
    """The incorporation objective at an explicit point
    (reference.newtask_objective) on (n, d) inputs, given the ridged
    inverse of Omega."""
    w = np.asarray(w, dtype=float).ravel()
    col = np.asarray(omega_col, dtype=float).ravel()
    fixed_trace = float(np.trace(weights_existing @ inv @ weights_existing.T))
    residuals = np.ravel(targets) - inputs @ w - b
    fixed = float(residuals @ residuals) / inputs.shape[0] + 0.5 * hp.lam1 * float(w @ w)
    inv_col = inv @ col
    slack = max(sigma - float(col @ inv_col) / (1.0 - sigma), 1e-14)
    diff = w - (weights_existing @ inv_col) / (1.0 - sigma)
    rel = fixed_trace / (1.0 - sigma) + float(diff @ diff) / slack
    return fixed + 0.5 * hp.lam2 * rel


def incorporate_new_task(model, new_data, hp):
    """Fit one new task against a frozen model, exactly.

    With the existing weights W, the ridged covariance Omega_r and
    F = tr(W Omega_r^{-1} W^T) frozen, write the column as
    col = (1 - sigma) Omega_r u, let q = u^T Omega_r u and let
    s = sigma - (1 - sigma) q be the Schur slack, so that
    sigma = (s + q) / (1 + q). The objective becomes

        ||r||^2 / n + lam1/2 ||w||^2 + lam2/2 [F (1 + q) / (1 - s) + ||w - W u||^2 / s],

    jointly convex in (w, b, u, s). Centring (solver._centred_moments)
    eliminates b, and u goes in closed form: with P = W Omega_r^{-1} W^T / F
    = U diag(beta) U^T and M = s I + (1 - s) P, the bracket's minimum over u
    is F / (1 - s) + w^T M^{-1} w, at q = (1 - s)^2 (M^{-1} w)^T P (M^{-1} w) / F
    and col = (1 - sigma) (1 - s) W^T M^{-1} w / F. At a fixed s, w = U z is
    one d-square solve, (U^T (G + lam1 I) U + lam2 diag(1 / (s + (1 - s) beta))) z
    = U^T c, and the minimum V(s) is convex, with V'(s) = lam2/2 [F / (1 - s)^2
    - sum_i (1 - beta_i) z_i^2 / (s + (1 - s) beta_i)^2]. On [sigma_min,
    1 - sigma_min], sigma_min = SIGMA_MIN_DEFAULT, an end is the answer where
    V' does not point inwards; otherwise bracketed Newton steps on V' in
    t = log(s / (1 - s)) find its root to 1e-13 relative in s. Where a solve
    breaks sigma <= 1 - sigma_min, i.e. q <= (1 - s) / sigma_min - 1, its
    multiplier mu is bisected until q meets the bound, 1 / (1 / (1 - s) + mu)
    standing for 1 - s; lam2/2 mu F / sigma_min then joins V' and the step is
    a secant one. With lam2 = 0 or W = 0, P is 0 and the column stays zero.

    objective_trace holds the objective (_newtask_value) at the start
    point (zero column, sigma = 1/(m+1) clipped to the bounds, its ridge
    solve) and at the returned point; report gives the final slack, the
    bound binding there and the number of slack values solved at. hp.tol
    and hp.max_iters are not read; the input model is not modified;
    lam1 = lam2 = 0 raises ValueError.
    """
    if model.kernel.kind != "linear":
        raise ValueError("new-task incorporation supports only the linear kernel")
    if hp.lam1 <= 0 and hp.lam2 <= 0:
        raise ValueError("new-task incorporation needs lam1 > 0 or lam2 > 0")
    record = new_data if isinstance(new_data, TaskData) else TaskData(*new_data)
    if record.n < 1:
        raise DegenerateGram("new task has no points")
    if record.inputs.shape[1] != model.dim:
        raise DimensionMismatch(
            f"new task inputs have dimension {record.inputs.shape[1]}, model expects {model.dim}")
    _require_finite_task(record)

    x, y, d, m = record.inputs, record.targets, model.dim, model.m
    weights_existing = reconstruct_weights(model)

    x_mean, y_mean, _, _, gram, loss_rhs = _centred_moments(x, y)
    # the start point: zero column, so the ridge is lam1 + lam2 / sigma0
    sigma0 = min(max(1.0 / (m + 1), SIGMA_MIN_DEFAULT), 1.0 - SIGMA_MIN_DEFAULT)
    w0 = solve_linear(gram + (hp.lam1 + hp.lam2 / sigma0) * np.eye(d), loss_rhs)
    b0 = float(y_mean - x_mean @ w0)

    (inv,) = _ridged(model.covariance, np.reciprocal)
    related = weights_existing @ inv @ weights_existing.T
    fixed_trace = float(np.trace(related))
    relate = hp.lam2 > 0.0 and fixed_trace > 0.0
    dec = sym_eig(related / fixed_trace if relate else np.zeros((d, d)))
    beta, vectors = np.clip(dec.values, 0.0, None), dec.vectors
    weight = beta / fixed_trace if relate else beta  # q = a^2 sum_i weight_i zm_i^2
    hess, rhs = vectors.T @ (gram + hp.lam1 * np.eye(d)) @ vectors, vectors.T @ loss_rhs
    lo, hi, solved = SIGMA_MIN_DEFAULT, 1.0 - SIGMA_MIN_DEFAULT, []

    def at_slack(s):
        solved.append(s)
        limit = (hi - s) / SIGMA_MIN_DEFAULT  # sigma <= 1 - sigma_min as q <= limit

        def solve(mu):
            a = 1.0 / (1.0 / (1.0 - s) + mu)
            spectrum = s + a * beta  # of M
            system = hess + np.diag(hp.lam2 / spectrum)
            z = solve_linear(system, rhs)
            zm = z / spectrum
            q = a * a * float(weight @ zm**2)
            g = hp.lam2 * (fixed_trace * ((1.0 + q) / (1.0 - s) ** 2 + mu / SIGMA_MIN_DEFAULT) - float(zm @ zm))
            return _Slack(s, np.log(s / (1.0 - s)), g, mu, a, spectrum, system, z, zm, q)

        point = solve(0.0)
        if point.q > limit:
            if s == hi:  # only q = 0 is feasible at the ceiling, and V' is +inf there
                return point._replace(g=np.inf)
            mu_lo, mu_hi = 0.0, 1.0
            while solve(mu_hi).q > limit:
                mu_lo, mu_hi = mu_hi, 2.0 * mu_hi
            for _ in range(SEARCH_ITERS):
                mid = 0.5 * (mu_lo + mu_hi)
                mu_lo, mu_hi = (mid, mu_hi) if solve(mid).q > limit else (mu_lo, mid)
            point = solve(mu_hi)
        return point

    point = at_slack(lo)
    if point.g < 0.0:
        left, point = point, at_slack(hi)
        if point.g > 0.0:
            right, prev, step, point = point, None, point.t - left.t, at_slack(np.sqrt(lo * hi))
            while point.g != 0.0:
                left, right = (point, right) if point.g < 0.0 else (left, point)
                s = point.s
                if point.mu > 0.0:  # a secant, as mu moves with s
                    slope = (point.g - prev.g) / (point.t - prev.t) if prev else 0.0
                else:  # dg/dt, with dz/ds = lam2 system^{-1} h
                    h = (1.0 - beta) * point.zm / point.spectrum
                    slope = 2.0 * hp.lam2 * s * (1.0 - s) * (fixed_trace / (1.0 - s) ** 3 + float(
                        h @ ((1.0 - beta) * point.zm)) - hp.lam2 * float(h @ solve_linear(point.system, h)))
                newton = -point.g / slope if slope > 0.0 else np.inf
                if right.s - left.s <= 1e-13 * right.s or abs(newton) * (1.0 - s) <= 1e-13:
                    break
                if not left.t < point.t + newton < right.t or abs(2.0 * newton) > abs(step):
                    newton = 0.5 * (left.t + right.t) - point.t
                step = newton
                prev, point = point, at_slack(1.0 / (1.0 + np.exp(-point.t - step)))

    sigma = min(max((point.s + point.q) / (1.0 + point.q), lo), hi)
    col = ((1.0 - sigma) * point.a / fixed_trace * (weights_existing.T @ (vectors @ point.zm))
           if relate else np.zeros(m))
    w = vectors @ point.z
    b = float(y_mean - x_mean @ w)
    trace = [_newtask_value(x, y, w_, b_, weights_existing, inv, col_, sigma_, hp)
             for w_, b_, col_, sigma_ in ((w0, b0, np.zeros(m), sigma0), (w, b, col, sigma))]
    bound = "slack floor" if point.s == lo else "variance ceiling" if point.s == hi or point.mu > 0.0 else "none"
    return NewTaskSolution(
        weights=w, bias=b, cov_column=col, variance=sigma, objective_trace=trace,
        augmented_covariance=TaskCovariance(augmented_covariance(model.covariance, col, sigma)),
        report=_SlackReport(float(point.s), bound, len(solved)))
