"""Optimizer for the joint regression / task-covariance fit.

The covariance step has a closed form: for fixed weights W the best
unit-trace covariance is Omega = (W^T W)^{1/2} / tr((W^T W)^{1/2}), where
the relationship penalty equals the squared trace norm ||W||_*^2. So the
fit minimises the convex

    P(W) = sum_t (1/n_t) ||y~_t - X~_t w_t||^2 + lam1/2 ||W||_F^2
           + lam2/2 ||W||_*^2

over the weights alone (biases eliminated by per-task centring), and
any alpha summing to 0 per task gives the lower bound

    D(alpha) = alpha^T y - sum_p n_p alpha_p^2 / 4 - h*(z),

with z the singular values of the feature-space matrix whose column t is
sum over task t's points of alpha_p phi(x_p), and h* the conjugate of
lam1/2 ||s||^2 + lam2/2 (sum s)^2 over s >= 0.

Every fit runs one loop (_certify). Each iteration takes one accelerated
proximal-gradient step on P (the prox of the squared trace norm shrinks
singular values by a common amount), then the covariance step from that
point: Omega from W, and the weights minimising the objective at that
Omega, which can only lower P. That point is kept unless P rises above
the kept one, when the momentum restarts, so the trace never increases,
even where a covariance step is inexact. It stops when the relative
duality gap (P - D) / |P| falls to hp.tol, D taken at alpha_p =
2 r_p / n_p (or within CG tolerance of it). A model's alpha, b and
coupling come from one more coefficient step at the final covariance.
Every Omega, C and factor F (C = F F^T) of a fit, a model's included,
is read off its weights' m-side singular vectors and values, the ones
the prox step takes, by one map (_svd_factor, _svd_coupling).
A linear kernel with m*d < N holds W as (m, d) rows over per-task
centred moments formed once (_moment_form), and solves each covariance
step at F, a rank*d system (_range_solve); every other fit holds it as
N x m coefficients against the base Gram K, built once, and solves each
covariance step by projected CG on K itself (_gram_form, _cg_solve),
stopped at a residual tied to hp.tol (_loop_cg_rtol): the loop keeps a
step only on its exact P, whose error is second order in the residual.
Its points carry a dual vector's image under K, so an iteration forms
one product with K beyond its CG's, each one task band at a time
(_times_base), and its step size comes from a Lanczos bound.

fit is the one-point path of one dataset through _fit_path, the hook
that cross-validation fits its folds along its grid with: each
dataset's moments or base Gram are built once for the whole path, and
moment-form fits run stacked, each from the lowest P of zero, its
per-task ridge rows and its point before (_fit_path). The
path yields each fit's certified point, which cross-validation scores
as it is; only fit asks for its model, and with it the final refresh.

The final coefficient step of a linear fit with m*d < N is the exact
rank*d solve on the coupling's range from the centred moments, at the F
that map gave (_low_rank_solve); on the base Gram it is one more CG
solve, to 1e-10. Either is gated on its saddle residual (_checked_saddle)
and also returns K spread(alpha), K the base Gram, off which
_fitted_state reads the fitted values and the objective.

Serving checks a batch in one flat pass (predict_batch; predict is a
batch of one): ids through the model's id map and one bulk finiteness
test. A linear model sums each query's row of a C-order product with its
weight row (a take), the same bits in any batch; other kernels the dual
expansion per task over query blocks, each support x block array < 4 MB.
"""

from collections import namedtuple
from dataclasses import replace
from functools import partial

import numpy as np

from .data import FitReport, TaskCovariance, TrainedModel, validate_dataset
from .errors import DimensionMismatch, NonDecreaseDetected, NonFiniteValue, SingularSystem
from .kernels import _rbf_cross, base_kernel_matrix
from .linalg import _LANCZOS_STEPS, _centre, _check_residual, _top_eigenvalues

SOLVERS = ("direct", "smo", "auto")  # the values fit accepts for solver, all one path
# Relative rise in the objective treated as a bug rather than noise.
NONDECREASE_RTOL = 1e-8
# Relative CG residual of a solve whose alpha is stored: the final
# refresh and a fixed structure's solve (_cg_solve).
_CG_RTOL = 1e-10
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


def _times_base(ds, base, alpha):
    """(K spread(alpha))^T for the symmetric base Gram K, as spread(alpha)^T
    K one task band at a time: row t is alpha_t K[band t], N^2 flops in
    all where the product with the N x m spread(alpha) takes m N^2. Every
    product of a Gram-form fit with K is one call: one per CG iteration
    (_cg_solve), one per covariance step, one for its zero point
    (_gram_point) and one in the final refresh."""
    out = np.empty((ds.m, ds.total))
    for t, (lo, hi) in enumerate(ds._spans):
        np.matmul(alpha[lo:hi], base[lo:hi], out=out[t])
    return out


def _cg_solve(ds, base, coupling, start, rtol=_CG_RTOL, cap=None):
    """The saddle system at coupling C by projected CG (Hestenes & Stiefel;
    Gould, Hribar & Nocedal): CG on P K~ P, P the per-task centring, from
    start, which sums to 0 per task, as every iterate then does; a product
    K~ v = (K spread(v) C)[p, t_p] + n_p v_p / 2 reads the base Gram K once
    (_times_base). Stops at ||P (y - K~ alpha)|| <= rtol ||P y|| (the
    recurred residual), 1e-10 for a stored solve and _loop_cg_rtol for a
    covariance step of the certified loop, or after cap iterations (N,
    CG's finite-termination bound, by default). Returns alpha, the biases
    and the number of products with K~: one per iteration and one for the
    start's residual."""
    tasks, n, means = ds.point_task, ds.total, _spread(ds.point_task, ds.m, 1.0) / ds.counts
    columns, shift = ((coupling + coupling.T) / 2.0)[:, tasks], _loss_weights(ds) / 2.0

    def times(v):
        return np.einsum("tp,tp->p", _times_base(ds, base, v), columns) + shift * v

    alpha = np.array(start, dtype=float)
    rest = ds.targets - times(alpha)  # y - K~ alpha
    residual = rest - (rest @ means)[tasks]
    stop = rtol * np.linalg.norm(ds.targets - (ds.targets @ means)[tasks])
    direction, size, products = residual, residual @ residual, 1
    for _ in range(n if cap is None else cap):
        if np.sqrt(size) <= stop:
            break
        image = times(direction)
        products += 1
        step = size / (direction @ image)
        alpha += step * direction
        rest -= step * image
        residual = rest - (rest @ means)[tasks]
        size, previous = residual @ residual, size
        direction = residual + (size / previous) * direction
    return alpha, rest @ means, products


def _loop_cg_rtol(tol):
    """The relative CG residual e at which a covariance step of the
    certified loop stops, for a fit's gap tolerance tol:
    min(1e-6, max(1e-10, 1e-3 sqrt(tol))). The step only proposes a
    candidate, which the loop keeps or drops on its exactly evaluated P,
    and P's error is second order in the residual: for tol >= 1e-14,
    e^2 <= 1e-6 tol, a millionth of the gap the fit must close (a forcing
    term of inexact Newton, Dembo, Eisenstat & Steihaug 1982). Solves
    whose alpha is stored run to _CG_RTOL."""
    return min(1e-6, max(_CG_RTOL, 1e-3 * tol ** 0.5))


def _coefficient_step(ds, kernel, moments=None, base=None):
    """The coefficient step of one fit, its path chosen once.

    Returns a function of the coupling C, its factor F and an optional
    start giving (alpha, b, K spread(alpha)): the saddle solution and the
    base Gram K times alpha's task columns. moments and base, the
    dataset's _task_moments and base Gram, save forming them again. A
    linear kernel with m*d < N takes _low_rank_solve. Every other fit
    solves by CG on the base Gram (_cg_solve) from start (0 by default) to
    rtol and forms one more _times_base product. Given a list products,
    the call appends its product count: a covariance step of the loop.
    Without one, it is a stored solve, gated on its saddle residual.
    """
    if _moment_fit(kernel, ds):
        moments = _task_moments(ds) if moments is None else moments
        return lambda coupling, factor, start=None: _low_rank_solve(ds, moments, coupling, factor)
    base = base_kernel_matrix(kernel, ds.inputs) if base is None else base

    def dense_step(coupling, factor, start=None, products=None, rtol=_CG_RTOL):
        alpha, b, count = _cg_solve(ds, base, coupling, np.zeros(ds.total) if start is None else start, rtol)
        product = _times_base(ds, base, alpha).T
        if products is None:
            return _checked_saddle(ds, coupling, alpha, b, product)
        products.append(count)
        return alpha, b, product

    return dense_step


def _centred(inputs, targets):
    """One task's squared loss (1/n) ||y - X w - b||^2 with b eliminated: it
    is least at b = y_mean - x_mean . w, where it is (1/n) ||y~ - X~ w||^2 on
    the centred rows. Returns (x_mean, y_mean, X~, y~).

    Targets that are constant to rounding (linalg._centre) centre to
    exactly 0, so that such a task has w = 0 and not a fit to the rounding
    of its mean, whatever the targets' units.
    """
    x_mean = inputs.mean(axis=0)
    y_mean, y = _centre(targets)
    return x_mean, y_mean, inputs - x_mean, y


def _centred_targets(ds):
    """Every task's centred targets (_centred), in flat point order."""
    return np.concatenate([_centred(t.inputs, t.targets)[3] for t in ds.tasks])


def _centred_moments(inputs, targets):
    """_centred with the moments of the centred loss: (x_mean, y_mean, X~,
    y~, G, c) with G = (2/n) X~^T X~ and c = (2/n) X~^T y~; the gradient
    in w is G w - c."""
    x_mean, y_mean, x, y = _centred(inputs, targets)
    scale = 2.0 / inputs.shape[0]
    return x_mean, y_mean, x, y, scale * (x.T @ x), scale * (x.T @ y)


def _task_moments(ds):
    """Every task's _centred_moments, stacked: the means as (m, d) and
    (m,) arrays, the centred rows and targets concatenated in flat point
    order, G as (m, d, d) and c as (m, d)."""
    x_mean, y_mean, x, y, gram, cross = zip(*(_centred_moments(t.inputs, t.targets) for t in ds.tasks))
    return (np.array(x_mean), np.array(y_mean), np.concatenate(x), np.concatenate(y),
            np.array(gram), np.array(cross))


def _range_solve(gram, cross, factor):
    """The linear coefficient step's weights at the coupling C = F F^T, F
    m x r: W = F V, V (r x d) solving the SPD r*d system (I + sum_t
    F_t^T F_t (x) G_t) vec V = vec(F^T c), F_t row t of F, minimise the
    centred loss plus 1/2 tr(W^T C^+ W) (lam1/2 ||W||^2 + lam2/2
    tr(W^T Omega^+ W)) on range(C). They are w = C z, z = c - G w (rows),
    as from the m*d system I + G (C (x) I) in z, which r <= m never
    exceeds. A zero column of F gives I and a zero row of V. Leading axes
    hold independent systems."""
    lead, (m, d), r = cross.shape[:-2], cross.shape[-2:], factor.shape[-1]
    pairs = (factor[..., None] * factor[..., None, :]).reshape(lead + (m, r * r))
    system = (pairs.swapaxes(-1, -2) @ gram.reshape(lead + (m, d * d))).reshape(lead + (r, r, d, d))
    system = system.swapaxes(-2, -3).reshape(lead + (r * d, r * d)) + np.eye(r * d)
    try:
        v = np.linalg.solve(system, (factor.swapaxes(-1, -2) @ cross).reshape(lead + (r * d, 1)))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    return factor @ v.reshape(lead + (r, d))


def _low_rank_solve(ds, moments, coupling, factor):
    """Exact saddle solve for the linear kernel, on the rank*d system of
    the coupling's range.

    moments is the dataset's _task_moments. Centring decouples the biases
    (alpha sums to 0 over each task), and task t's saddle rows make alpha
    the dual point (_moment_dual_point) of w = C z, z_t = X~_t^T alpha_t:
    the weights of _range_solve at factor, the F with C = F F^T from the
    decomposition that built C. The weights are U C with
    U = X~^T spread(alpha), which equals X^T spread(alpha) for such alpha,
    so K spread(alpha) = X U and b = y_mean - x_mean . w; X U is read off
    the uncentred inputs, so the gate checks the full saddle system at C.
    """
    x_mean, y_mean, x, _, gram, cross = moments
    alpha = _moment_dual_point(ds, moments, _range_solve(gram, cross, factor))
    u = x.T @ _spread(ds.point_task, ds.m, alpha)
    b = y_mean - np.einsum("ij,ji->i", x_mean, u @ coupling)
    return _checked_saddle(ds, coupling, alpha, b, ds.inputs @ u)


def _checked_saddle(ds, coupling, alpha, b, product):
    """alpha, b, product once the full saddle system at C passes _check_residual."""
    residual = (_fitted_values(ds, product, coupling) + _loss_weights(ds) / 2.0 * alpha
                + b[ds.point_task] - ds.targets)
    _check_residual(np.concatenate([residual, np.bincount(ds.point_task, alpha, ds.m)]), ds.targets)
    return alpha, b, product


def _fitted_values(ds, product, coupling):
    """Fitted values without biases, (K spread(alpha) C)[p, task of p],
    from the product K spread(alpha)."""
    return np.einsum("pj,jp->p", product, coupling[:, ds.point_task])


def _fitted_state(ds, coupling, alpha, b, product):
    """The objective and the task-blocked form S = spread(alpha)^T K
    spread(alpha) of the state alpha, b at coupling C, given K spread(alpha).

    W = Phi^T spread(alpha) C gives W^T W = C S C, and since
    lam1 I + lam2 Omega^+ inverts C on its range (lam1 I + lam2 L inverts
    a fixed inverse's coupling), the two penalties are 1/2 <S, C>: the
    multi-task kernel's norm, with no decomposition of the covariance.
    """
    residuals = ds.targets - (_fitted_values(ds, product, coupling) + b[ds.point_task])
    blocked = _spread(ds.point_task, ds.m, alpha).T @ product
    loss = float(np.sum(residuals**2 / _loss_weights(ds)))
    return loss + 0.5 * float(np.sum(coupling * blocked)), blocked


def _require_descent(previous, value, where=""):
    """Raise NonDecreaseDetected if the objective rose from previous to
    value by more than NONDECREASE_RTOL relative."""
    if value > previous + NONDECREASE_RTOL * max(1.0, abs(previous)):
        raise NonDecreaseDetected(
            f"objective rose from {float(previous)!r} to {float(value)!r}{where}"
        )


def _shrink(v, a):
    """argmin over s >= 0 of ||s - v||^2 / 2 + a/2 (sum s)^2, for v sorted
    descending along its last axis (leading axes hold independent
    problems; a is a scalar or shaped as v[..., :1]): s = max(v - a T, 0)
    with T = sum s. On the k entries left active, a prefix of v,
    T = T_k = (v_1 + ... + v_k) / (1 + k a). T_{k+1} lies between T_k and
    v_{k+1} / a, so T_k rises while v_{k+1} > a T_k, which is exactly
    along the prefix, and falls after it: T is the largest T_k."""
    totals = np.add.accumulate(v, axis=-1) / (1.0 + a * np.arange(1, v.shape[-1] + 1))
    return np.maximum(v - a * np.maximum.reduce(totals, axis=-1, keepdims=True), 0.0)


def _penalty_conjugate(z, hp):
    """h*(z) = max over s >= 0 of z.s - lam1/2 ||s||^2 - lam2/2 (sum s)^2,
    for z sorted descending along its last axis: the maximiser is
    _shrink(z / lam1, lam2 / lam1), so on the top-k active set
    s_i = (z_i - lam2 T) / lam1 with T = (z_1 + ... + z_k) / (lam1 + k lam2)."""
    s = _shrink(z / hp.lam1, hp.lam2 / hp.lam1)
    total = np.add.reduce(s, axis=-1)
    return np.add.reduce(s * (z - 0.5 * hp.lam1 * s), axis=-1) - 0.5 * hp.lam2 * total * total


def _dual_value(ds, y, alpha, blocked, hp):
    """D(alpha) for coefficients alpha summing to 0 per task, whose
    task-blocked form against the base Gram is S: z^2 are the eigenvalues
    of S. y is the fit's per-task centred targets (_centred), on which
    alpha^T y is the same as on the targets for such alpha."""
    z = np.sqrt(np.clip(np.linalg.eigvalsh(blocked)[::-1], 0.0, None))
    loss = float(alpha @ y) - 0.25 * float(np.sum(_loss_weights(ds) * alpha**2))
    return float(loss - _penalty_conjugate(z, hp))


def _relative_gap(value, bound, scale):
    """(P - D) / |P|, with a rounding-level negative gap read as 0, and |P|
    floored at the rounding of the problem's scale (its objective at
    W = 0, b = 0), so that the rounding of a zero optimum reads as no gap;
    0 when both are 0 and D reaches P."""
    gap = max(value - bound, 0.0)
    floor = max(abs(value), np.finfo(float).eps * scale)
    return gap / floor if floor else (0.0 if gap == 0.0 else float("inf"))


def _svd_factor(left, values, hp):
    """(left, mu, gain, F) of weights W with m-side singular vectors left
    (m x k) and singular values values, descending: Omega = (W^T W)^{1/2} /
    tr((W^T W)^{1/2}) has eigenvalues mu = values / sum(values) on left, C
    = Omega (lam1 Omega + lam2 I)^{-1} maps each to its gain
    mu / (lam1 mu + lam2), and C = F F^T for F = left diag(sqrt(gain)) on
    the kept columns. Values at or below 1e-7 of the largest are cut, as
    reference.update_omega cuts W^T W's eigenvalues at 1e-14. Leading axes
    hold independent problems: a stack keeps its largest kept rank, a cut
    column of F is 0, and zero weights read as Omega = I/m on left = I
    (a stack holding them pads every member's left to m columns). The
    moment-form step reads F alone."""
    kept = values > 1e-7 * values[..., :1]
    values = values * kept
    total = np.add.reduce(values, axis=-1, keepdims=True)
    zero = total == 0.0
    mu = values / (total + zero)
    # a cut value's mu = 0 maps to 0, also where lam2 = 0 would make it 0/0
    gain = mu / (hp.lam1 * mu + (hp.lam2 if hp.lam2 > 0.0 else ~kept))
    rank = int(kept.sum(axis=-1).max())
    if zero.any():
        rank = m = left.shape[-2]
        pad = [(0, 0)] * (left.ndim - 1) + [(0, m - left.shape[-1])]
        left = np.where(zero[..., None], np.eye(m), np.pad(left, pad))
        mu = np.where(zero, 1.0 / m, np.pad(mu, pad[1:]))
        gain = np.where(zero, (1.0 / m) / (hp.lam1 * (1.0 / m) + hp.lam2), np.pad(gain, pad[1:]))
    return left, mu, gain, (left * np.sqrt(gain)[..., None, :])[..., :rank]


def _svd_coupling(left, values, hp):
    """(Omega, C, F) of weights with m-side singular vectors left and
    singular values values, read off with no decomposition (_svd_factor)."""
    left, mu, gain, factor = _svd_factor(left, values, hp)
    right = left.swapaxes(-1, -2)
    return (left * mu[..., None, :]) @ right, (left * gain[..., None, :]) @ right, factor


# The certified loop's view of one fit's weights (_certify).
_Form = namedtuple("_Form", "zero lipschitz convexity gradient singular bounds dual_point solve products")


def _moment_curvature(gram):
    """Bounds (mu, L) on the curvature of the centred loss of each problem
    whose task moments G are gram: min_t lambda_min(G_t), floored at 0,
    and max_t lambda_max(G_t)."""
    spectra = np.linalg.eigvalsh(gram)
    return np.maximum(spectra[..., 0].min(axis=-1), 0.0), spectra[..., -1].max(axis=-1)


def _moment_dual_point(ds, moments, weights):
    """alpha_p = 2 r_p / n_p at the (m, d) weight rows of a moment-form fit,
    made to sum to 0 per task, not only to rounding, which K spread(alpha)
    would multiply by the inputs' offset from the origin."""
    _, _, x, y, _, _ = moments
    alpha = 2.0 * (y - np.einsum("pj,pj->p", x, weights[ds.point_task])) / _loss_weights(ds)
    return alpha - (np.bincount(ds.point_task, alpha, ds.m) / ds.counts)[ds.point_task]


def _moment_form(datasets, moments, hp, curvature=None):
    """Linear fits with m*d < N on (m, d) weight rows, from the centred
    moments: G_t w_t in O(m d^2), and the covariance step (solve) is the
    rank*d system on the coupling's range (_range_solve) at C's factor
    from _svd_coupling; it does not read C. The smooth part's curvature
    lies between min_t lambda_min(G_t) + lam1 and max_t lambda_max(G_t) +
    lam1 (_moment_curvature, or curvature if the caller holds it). Its
    final step takes no start: dual_point is None.

    datasets is a tuple of datasets sharing (m, d) and moments their
    _task_moments: the form holds one independent problem per dataset
    along a leading axis of every array and value, a fit of one dataset
    a stack of one.
    """
    gram, cross = np.array([mo[4] for mo in moments]), np.array([mo[5] for mo in moments])
    constant = np.array([np.sum(mo[3] ** 2 / _loss_weights(ds)) for ds, mo in zip(datasets, moments)])
    convexity, lipschitz = _moment_curvature(gram) if curvature is None else curvature

    def times(weights):
        return np.einsum("...tij,...tj->...ti", gram, weights)

    def singular(weights):
        left, values, right = np.linalg.svd(weights, full_matrices=False)
        return left, values, lambda shrunk: (left * shrunk[..., None, :]) @ right

    def bounds(weights, norm=None):
        # one G w and one SVD of [W, z] give P and D: z_t = X~_t^T alpha_t = c_t - G_t w_t
        # at the dual point, and sum_p (alpha_p y~_p - n_p alpha_p^2 / 4) = constant - w.Gw / 2
        gw = times(weights)
        spectra = np.linalg.svd(np.stack([weights, cross - gw]), compute_uv=False)
        norm = spectra[0].sum(axis=-1) if norm is None else norm
        smooth = (weights * (0.5 * gw - cross + 0.5 * hp.lam1 * weights)).sum(axis=(-2, -1))
        return (constant + smooth + 0.5 * hp.lam2 * norm * norm,
                constant - 0.5 * (weights * gw).sum(axis=(-2, -1)) - _penalty_conjugate(spectra[1], hp))

    return _Form(
        zero=np.zeros_like(cross), lipschitz=lipschitz + hp.lam1, convexity=convexity + hp.lam1,
        gradient=lambda weights: times(weights) - cross + hp.lam1 * weights,
        singular=singular, bounds=bounds, dual_point=None,
        solve=lambda left, values, weights: _range_solve(gram, cross, _svd_factor(left, values, hp)[-1]), products=(),
    )


def _gram_curvature(ds, base):
    """Bounds (0, L) on the curvature of the centred loss against the base
    Gram: L = max_t (2/n_t) lambda_max(K~_tt), K~_tt task t's centred
    block: the Lanczos bound _top_eigenvalues on the views of the blocks
    of more than _LANCZOS_STEPS + 1 points, and a full eigensolve of the
    others (whose Krylov basis would span their range within those steps)
    and where Lanczos does not converge."""
    large = [(lo, hi) for lo, hi in ds._spans if hi - lo > _LANCZOS_STEPS + 1]
    tops = dict(zip(large, _top_eigenvalues([base[lo:hi, lo:hi] for lo, hi in large]))) if large else {}
    high = 0.0
    for lo, hi in ds._spans:
        top = tops.get((lo, hi))
        if top is None:
            k = base[lo:hi, lo:hi]
            k = k - k.mean(axis=0) - k.mean(axis=1)[:, None] + k.mean()
            top = float(np.linalg.eigvalsh(k)[-1])
        high = max(high, 2.0 / (hi - lo) * top)
    return 0.0, high


def _gram_dual_point(ds, y, kb):
    """alpha_p = 2 r_p / n_p at coefficients B given K B, N x m: the
    centred fitted value at p is (K B)[p, t_p] centred over p's task. y is
    the per-task centred targets."""
    fitted = kb[np.arange(ds.total), ds.point_task]
    return 2.0 * (y - fitted + (np.bincount(ds.point_task, fitted) / ds.counts)[ds.point_task]) / _loss_weights(ds)


def _gram_point(ds, base, y, pair):
    """The _gram_form point of coefficients B given as the flat pair
    (B, K B), carrying the exact image of its dual point: one product with
    K (_times_base)."""
    alpha = _gram_dual_point(ds, y, pair[ds.total * ds.m:].reshape(-1, ds.m))
    return np.concatenate([pair, _times_base(ds, base, alpha).T.ravel(), alpha])


def _gram_form(ds, base, step, hp, curvature=None, zero=None):
    """Every other fit (a non-linear kernel, or m*d >= N) on N x m
    coefficients B: W = Phi~^T B, Phi~ the per-task centred features.

    A point is one flat array of B, K B (K the base Gram) and the image
    K spread(a) of a dual vector a, each N x m, then a (parts): the loop's
    affine combinations carry all four along. Every B the loop forms sums
    to 0 per task (alpha does, and the prox keeps B's columns' span:
    B <- B U diag(s'/s) U^T), so B^T K B = W^T W, and the centred fitted
    value at point p is (K B)[p, t_p] centred over p's task: the exact
    dual point (dual_point) and P read it. The gradient, lam1 (B, K B) -
    (spread(a), K spread(a)), and D, taken at a, read the carried image,
    so neither forms a product with K. A covariance step gives
    B = spread(alpha) C by CG from the dual point (step, counting into
    products), stopped at the relative residual _loop_cg_rtol(hp.tol), K B
    read off its own K spread(alpha), the step's one product with K; the
    candidate carries alpha and that product, alpha differing from its
    exact dual point alpha + 2 P r / n (r the CG residual, P the per-task
    centring) at that tolerance. zero is W = 0 with its dual point 2 y~ / n
    and that point's image (_gram_point), one product that a path builds
    once. A prox point is only (B, K B), or zero. W's singular values and
    m-side vectors come from the m x m eigenproblem of B^T K B
    (eigenvalues at or below 1e-14 of the largest, rank noise, read as 0,
    as in reference.update_omega). The smooth part's
    curvature is at most max_t (2/n_t) lambda_max(K~_tt) + lam1
    (_gram_curvature, or curvature if the caller holds it), and some G_t
    is singular here, so lam1 is its least.
    """
    m, tasks, rows, n = ds.m, ds.point_task, np.arange(ds.total), _loss_weights(ds)
    y, size = _centred_targets(ds), ds.total * m
    zero = _gram_point(ds, base, y, np.zeros(2 * size)) if zero is None else zero

    def parts(point):
        """B, K B and K spread(a), N x m views, and a; a pair has the first two."""
        return [point[k * size:(k + 1) * size].reshape(-1, m) for k in range(3)] + [point[3 * size:]]

    def dual_point(point):
        return _gram_dual_point(ds, y, parts(point)[1])

    def gradient(point):
        out = hp.lam1 * point
        coefs, product = parts(out)[:2]
        product -= parts(point)[2]
        coefs[rows, tasks] -= point[3 * size:]
        out[2 * size:] = 0.0
        return out

    def singular(point):
        coefs, product = parts(point)[:2]
        gram = coefs.T @ product
        values, vectors = np.linalg.eigh((gram + gram.T) / 2.0)
        values, vectors = values[::-1], vectors[:, ::-1]
        values = np.sqrt(np.where(values > 1e-14 * max(values[0], 0.0), values, 0.0))

        def rebuild(shrunk):
            if not shrunk.any():
                return zero
            ratio = np.divide(shrunk, values, out=np.zeros_like(values), where=values > 0.0)
            return (point[:2 * size].reshape(2, -1, m) @ ((vectors * ratio) @ vectors.T)).ravel()

        return vectors, values, rebuild

    def bounds(point, norm=None):
        coefs, product, image, alpha = parts(point)
        norm = float(singular(point)[1].sum()) if norm is None else norm
        loss = 0.25 * float(np.sum(n * dual_point(point) ** 2))
        return (loss + 0.5 * hp.lam1 * float(np.sum(coefs * product)) + 0.5 * hp.lam2 * norm * norm,
                _dual_value(ds, y, alpha, _spread(tasks, m, alpha).T @ image, hp))

    def covariance_step(left, values, point):
        _, coupling, factor = _svd_coupling(left, values, hp)
        alpha, _, product = step(coupling, factor, dual_point(point), products=products, rtol=rtol)
        out = np.empty_like(zero)
        coefs, carried, image, carried_alpha = parts(out)
        image[:], carried_alpha[:] = product, alpha
        np.multiply(alpha[:, None], coupling[tasks], out=coefs)  # spread(alpha) C
        np.matmul(image, coupling, out=carried)
        return out

    convexity, lipschitz = _gram_curvature(ds, base) if curvature is None else curvature
    products, rtol = [], _loop_cg_rtol(hp.tol)
    return _Form(
        zero=zero, lipschitz=lipschitz + hp.lam1, convexity=convexity + hp.lam1, gradient=gradient,
        singular=singular, bounds=bounds, dual_point=dual_point,
        solve=covariance_step, products=products,
    )


def _certify(form, hp, traces, starts=()):
    """Minimise P over the weights W of one fit, held as form (a _Form):
    W = 0, bounds L >= mu on the curvature of P's smooth part (the loss
    plus lam1/2 ||W||_F^2), and functions of W: that part's gradient;
    (left, values, rebuild), W's m-side singular vectors and values
    (descending) and the map from new values to weights; P and D, given
    the trace norm when known, D at a dual vector summing to 0 per task;
    the dual point alpha_p = 2 r_p / n_p; and the weights minimising the
    objective at the coupling of W's covariance, given W's left and
    values. A _moment_form holds independent problems along a leading
    axis; each then runs the loop below on its own, and traces holds one
    list per problem (one for a _gram_form). Points are combined only
    affinely, so a point may carry values affine in W (_gram_form).

    The loop starts at the lowest P among W = 0 and the candidates starts
    (the first of a tie), with the best D among them. Each iteration
    takes an accelerated proximal-gradient step from the extrapolated
    point, with step 1/L and momentum (sqrt L - sqrt mu) / (sqrt L +
    sqrt mu): the prox of the squared trace norm shrinks the singular
    values (_shrink). Then, unless the prox point W is 0, the exact
    covariance step from it, W' solving at the coupling of W's covariance
    (_svd_factor): P(W') <= P(W), since that step is optimal at the
    covariance it is given, so W' (W where W is 0) is the one candidate.
    It is kept if its P is below the kept one, and appended to the trace;
    otherwise the momentum restarts from the kept point (a restart). Each
    kept point gives a dual bound, and the best one is kept. A problem
    stops on P - D <= hp.tol |P|, and is frozen from then on; the loop
    ends when every problem has stopped or after hp.max_iters iterations.
    Returns the weights, and per problem whether it stopped on the gap,
    its bound D and its restarts, as lists.
    """
    zero = form.zero
    lead = np.shape(form.lipschitz)
    axes = lead + (1,) * (zero.ndim - len(lead))  # a per-problem value against the weights

    def pick(mask, new, old):
        """new for the problems where mask holds, else old."""
        if all(mask):
            return new
        return np.where(np.reshape(mask, axes), new, old) if any(mask) else old

    lipschitz, convexity = np.sqrt(form.lipschitz), np.sqrt(form.convexity)
    momentum = np.reshape((lipschitz - convexity) / (lipschitz + convexity), axes)
    step = np.reshape(1.0 / np.asarray(form.lipschitz), axes)
    weights, shrink = zero, np.reshape(step * hp.lam2, lead + (1,))
    value, bound = map(_floats, form.bounds(zero, 0.0))
    for start in starts:
        start_value, start_bound = map(_floats, form.bounds(start))
        better = [s < v for s, v in zip(start_value, value)]
        weights, value = pick(better, start, weights), [min(s, v) for s, v in zip(start_value, value)]
        bound = [max(b, d) for b, d in zip(bound, start_bound)]
    ahead, active, restarts = weights, [True] * len(value), [0] * len(value)
    for _ in range(hp.max_iters):
        prox = form.gradient(ahead)  # ahead - step * gradient, in place
        prox *= -step
        prox += ahead
        left, values, rebuild = form.singular(prox)
        values = _shrink(values, shrink)
        best, norm, prox, rebuild = rebuild(values), values.sum(axis=-1), None, None  # drops the prox input
        nonzero = [z > 0.0 for z in _floats(values[..., 0])]
        if any(nonzero):
            best, norm = pick(nonzero, form.solve(left, values, best), best), None
        best_value, best_bound = map(_floats, form.bounds(best, norm))
        kept = [on and b < v for on, b, v in zip(active, best_value, value)]
        restarts = [r + (on and not k) for r, on, k in zip(restarts, active, kept)]
        best = pick(kept, best, weights)
        ahead = best - weights  # best + momentum (best - weights): the kept point on a restart
        ahead *= momentum
        ahead += best
        weights, value = best, [b if k else v for k, b, v in zip(kept, best_value, value)]
        bound = [max(b, d) if k else b for k, b, d in zip(kept, bound, best_bound)]
        for trace, v, on in zip(traces, value, active):
            if on:
                trace.append(v)
        active = [on and not v - b <= hp.tol * abs(v) for on, v, b in zip(active, value, bound)]
        if not any(active):
            break
    return weights, [not on for on in active], bound, restarts


def _floats(x):
    """One Python float per problem of a form's per-problem value."""
    return np.asarray(x).reshape(-1).tolist()


def fit(ds, kernel, hp, solver="auto"):
    """Fit the task weights and the task covariance jointly.

    Parameters
    ----------
    ds : MultiTaskDataset
    kernel : KernelSpec
    hp : Hyperparams (lam1 must be positive)
    solver : 'direct', 'smo' or 'auto', checked against SOLVERS and
        otherwise unused: every value gives the same model. It stays only
        because the benchmark (bench/workloads.py) still passes it.

    Every kernel minimises P by proximal-gradient and covariance steps
    (module docstring). The fit stops when the relative duality gap
    (P - D) / |P| is at most hp.tol or after hp.max_iters iterations. One
    coefficient step at the final covariance then gives the stored
    coefficients, biases and coupling; all-zero or constant targets end at
    Omega = I/m.

    Returns a TrainedModel whose objective trace holds the starting value,
    one value per iteration and the final state's, non-increasing; a rise
    beyond 1e-8 relative raises NonDecreaseDetected. Its report gives the
    stop reason and the final relative duality gap, against the best dual
    bound found, and the number of CG products its covariance steps took.
    """
    validate_dataset(ds)
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    _, _, fitted = next(_fit_path([ds], kernel, [hp]))
    return fitted.model()


def _moment_fit(kernel, ds):
    """Whether a fit of ds runs on the centred moments (_moment_form)."""
    return kernel.kind == "linear" and ds.m * ds.dim < ds.total


def _fit_path(datasets, kernel, hps):
    """Fit every dataset at every hyperparameter point of a path, yielding
    (i, j, fitted), the fit of datasets[j] at hps[i] (a _Fitted, _path), as
    each is certified: group by group (below), each group point by point,
    so a caller that drops each fit on arrival holds one at a time. The
    datasets are taken as valid.

    Each dataset's hp-free parts are built once: its centred moments and
    their spectra, or its base Gram, curvature bound and coefficient step.
    Linear datasets with m*d < N that share (m, d) run as one stacked
    _moment_form, a lone one as a stack of one; every other dataset runs
    alone, so at most one base Gram is alive at a time. A moment-form
    problem starts at the lowest P (_certify) among W = 0, its per-task
    ridge rows w_t = (G_t + (lam1 + lam2) I)^{-1} c_t, which minimise P
    where W has rank 1 (all of d = 1) and a lower bound of P otherwise
    (||W||_*^2 >= ||W||_F^2), and, after the first point, its certified
    weights at the point before; a Gram-form fit starts cold at every
    point, because there a warm start was seen to cost iterations. Only a
    caller that asks for a fit's model runs its final refresh (_refreshed).
    """
    if any(hp.lam1 <= 0 for hp in hps):
        raise ValueError("fitting requires lam1 > 0")
    groups = {}
    for j, ds in enumerate(datasets):
        groups.setdefault((ds.m, ds.dim) if _moment_fit(kernel, ds) else j, []).append(j)
    for members in groups.values():
        for i, k, fitted in _path(tuple(datasets[j] for j in members), kernel, hps):
            yield i, members[k], fitted


# One fit's certified point, as _path yields it.
_Fitted = namedtuple("_Fitted", "weights biases report model")


def _path(group, kernel, hps):
    """Yields (i, k, fitted), the fit of group[k] at hps[i], point by point,
    each as soon as its certified loop has stopped; group is a tuple, a
    moment-form stack or one dataset, warm-started as _fit_path says.

    fitted is a _Fitted holding the certified point: a moment-form fit's
    (m, d) weight rows w_t and biases y_mean - x_mean . w, or a Gram-form
    fit's N x m coefficients B and biases y_mean_t - the mean over task t
    of (K B)[p, t]; the loop's FitReport, its gap that of the last trace
    value against the best bound; and model, a function of no arguments
    that runs the final refresh and returns the TrainedModel (_refreshed).
    """
    warm = _moment_fit(kernel, group[0])  # only moment-form fits start warm (_fit_path)
    if warm:
        moments = tuple(_task_moments(ds) for ds in group)
        steps = [_coefficient_step(ds, kernel, mo) for ds, mo in zip(group, moments)]
        gram, cross = (np.array([mo[k] for mo in moments]) for k in (4, 5))
        curvature = _moment_curvature(gram)
        targets = [mo[3] for mo in moments]

        def form_at(hp):
            return _moment_form(group, moments, hp, curvature)

        def starts(hp, previous):
            ridge = np.linalg.solve(gram + (hp.lam1 + hp.lam2) * np.eye(gram.shape[-1]), cross[..., None])[..., 0]
            return [ridge] if previous is None else [ridge, previous]

        def certified(weights, k):
            return weights, moments[k][1] - np.einsum("ij,ij->i", moments[k][0], weights)
    else:
        ds, = group
        base = base_kernel_matrix(kernel, ds.inputs)
        steps = [_coefficient_step(ds, kernel, base=base)]
        curvature = _gram_curvature(ds, base)
        targets = [_centred_targets(ds)]
        zero = _gram_point(ds, base, targets[0], np.zeros(2 * ds.total * ds.m))
        means = np.array([t.targets.mean() for t in ds.tasks])

        def form_at(hp):
            return _gram_form(ds, base, steps[0], hp, curvature, zero)

        def certified(point, k):
            coefs, product = point[:2 * ds.total * ds.m].reshape(2, -1, ds.m)
            values = product[np.arange(ds.total), ds.point_task]  # fitted, without biases
            return coefs, means - np.bincount(ds.point_task, values, ds.m) / ds.counts
    weights = None
    for i, hp in enumerate(hps):
        form = form_at(hp)
        traces = [[float(np.sum(ds.targets**2 / _loss_weights(ds)))] for ds in group]  # at W = 0, b = 0
        weights, gapped, bounds, restarts = _certify(form, hp, traces, starts(hp, weights) if warm else ())
        for k, (ds, own, y, step, trace, stopped, bound, restart) in enumerate(zip(
                group, weights if warm else [weights], targets, steps, traces, gapped, bounds, restarts)):
            report = FitReport("gap" if stopped else "iteration cap", _relative_gap(trace[-1], bound, trace[0]),
                               sum(form.products), len(trace) - 1, restart)
            refresh = partial(_refreshed, ds, kernel, hp, form, own, step, y, trace, bound, report)
            yield i, k, _Fitted(*certified(own, k), report, refresh)


def _refreshed(ds, kernel, hp, form, weights, step, y, trace, bound, report):
    """The TrainedModel of a fit that _path certified at weights (one
    problem of form), after the final refresh: the coefficient step at the
    certified weights' coupling and factor (_svd_coupling), a Gram-form
    fit's CG from the certified point's dual (_coefficient_step). At a
    fixed covariance that step can only lower the objective; its value
    ends the trace, and the report's gap is taken against it."""
    omega, coupling, factor = _svd_coupling(*form.singular(weights)[:2], hp)
    start = None if form.dual_point is None else form.dual_point(weights)
    alpha, b, product = step(coupling, factor, start)
    final, blocked = _fitted_state(ds, coupling, alpha, b, product)
    _require_descent(trace[-1], final, " in the final refresh")
    bound = max(bound, _dual_value(ds, y, alpha, blocked, hp))
    report = replace(report, gap=_relative_gap(final, bound, trace[0]))
    return _model(ds, kernel, hp, alpha, b, omega, coupling, trace + [final], report)


def _model(ds, kernel, hp, alpha, b, omega, coupling, trace, report=None):
    """The TrainedModel of a fit to ds: the state alpha, b at coupling C,
    the covariance matrix omega it reports and its objective trace."""
    return TrainedModel(
        task_ids=ds.task_ids, dual_coefs=alpha, biases=b, covariance=TaskCovariance(omega), coupling=coupling,
        kernel=kernel, support_inputs=ds.inputs, support_tasks=ds.point_task, counts=ds.counts,
        hyperparams=hp, objective_trace=trace, report=report,
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
    NaN or inf. The predictions are _predictions'.
    """
    task_ids = task_ids if isinstance(task_ids, (list, tuple)) else list(task_ids)
    xs = xs if isinstance(xs, np.ndarray) else list(xs)
    if len(task_ids) != len(xs):
        raise DimensionMismatch(f"{len(task_ids)} task ids but {len(xs)} inputs")
    index, x = _queries(model, task_ids, xs)
    _require_finite(x)
    return _predictions(model, index, x)


def _predictions(model, index, x):
    """predict_batch at checked task indices and (Q, d) inputs. A linear
    model sums each query's row of a C-order product with its primal weights,
    with no BLAS, so a query's bits do not depend on the batch; others' may."""
    if model.kernel.kind == "linear":
        rows = model._weights.T.take(index, axis=0)
        return np.add.reduce(np.multiply(x, rows, out=rows), axis=1) + model.biases[index]
    return _dual_predictions(model, index, x)


def _queries(model, task_ids, xs):
    """Task indices and the (Q, d) inputs of a batch.

    One lookup per id in the model's id map and one array conversion for
    all inputs; if either fails or the shapes do not fit, the per-query
    checks run in order, so that the error names the first bad query.
    """
    q = len(task_ids)
    try:
        index = np.fromiter(map(model._task_lookup.__getitem__, task_ids), dtype=np.intp, count=q)
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
    """Raise NonFiniteValue naming the first row holding NaN or inf, searched
    row by row only once one bulk test over all inputs has failed."""
    if not np.isfinite(queries).all():
        k = int(np.argmax(~np.isfinite(queries).all(axis=1)))
        raise NonFiniteValue(f"query {k} {queries[k].tolist()} is not finite")


def _dual_predictions(model, index, x):
    """sum_j C[j, i_q] A[j, q] + b[i_q] with A = spread(alpha)^T K(support, x),
    taking queries in blocks so that each N x block array stays under
    _SERVE_BLOCK_BYTES, against support rows prepared once per model."""
    n = model.support_inputs.shape[0]
    spread_t = _spread(model.support_tasks, model.m, model.dual_coefs).T
    block = max(1, _SERVE_BLOCK_BYTES // (8 * n))
    sums = np.empty((model.m, x.shape[0]))
    for lo in range(0, x.shape[0], block):
        base = _rbf_cross(model.kernel, model._support_rows, x[lo:lo + block])
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
