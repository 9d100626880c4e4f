import numpy as np
import pytest

import taskcov as tc
from taskcov import errors, newtask


def unit_trace_psd(rng, m, floor=0.05):
    b = rng.normal(size=(m, m))
    omega = b.T @ b + floor * np.eye(m)
    return tc.TaskCovariance(omega / np.trace(omega))


def grid_trace_objective(psi11, psi12, psi22, cols, sigmas):
    """Relationship trace over an (omega, sigma) grid for one base task,
    via a lightly regularized explicit 2x2 inverse."""
    det = (1.0 - sigmas) * sigmas - cols**2
    eps = 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (sigmas * psi11 - 2.0 * cols * psi12 + (1.0 - sigmas) * psi22) / (det + eps)
    return np.where(det > 0, value, np.inf)


def refine_grid(psi11, psi12, psi22, sigma_min=1e-4):
    lo_c, hi_c = -0.5, 0.5
    lo_s, hi_s = sigma_min, 1.0 - sigma_min
    best = None
    for _ in range(3):
        cols = np.linspace(lo_c, hi_c, 401)
        sigmas = np.linspace(lo_s, hi_s, 401)
        cg, sg = np.meshgrid(cols, sigmas)
        values = grid_trace_objective(psi11, psi12, psi22, cg, sg)
        k = np.unravel_index(np.argmin(values), values.shape)
        best = (float(cg[k]), float(sg[k]))
        dc = (hi_c - lo_c) / 100.0
        ds = (hi_s - lo_s) / 100.0
        lo_c, hi_c = best[0] - dc, best[0] + dc
        lo_s, hi_s = max(sigma_min, best[1] - ds), min(1.0 - sigma_min, best[1] + ds)
    return best


class TestAugmentedCovariance:
    def test_block_diagonal(self):
        omega = tc.TaskCovariance.unrelated(2)
        out = tc.augmented_covariance(omega, np.zeros(2), 0.5)
        np.testing.assert_allclose(out, np.diag([0.25, 0.25, 0.5]))

    def test_unit_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            omega = unit_trace_psd(rng, 3)
            sigma = float(rng.uniform(0.05, 0.95))
            out = tc.augmented_covariance(omega, rng.normal(size=3) * 0.1, sigma)
            np.testing.assert_allclose(np.trace(out), 1.0, atol=1e-12)
            np.testing.assert_allclose(out, out.T)

    def test_scalar_case(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        out = tc.augmented_covariance(omega, np.array([0.3]), 0.4)
        np.testing.assert_allclose(out, [[0.6, 0.3], [0.3, 0.4]])

    def test_sigma_out_of_range(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        with pytest.raises(errors.SigmaOutOfRange):
            tc.augmented_covariance(omega, np.array([0.0]), 1.0)


class TestSchurFeasible:
    def test_zero_column(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        assert tc.schur_feasible(omega, np.array([0.0]), 0.5)

    def test_degenerate_sigma(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        assert not tc.schur_feasible(omega, np.array([0.1]), 1.0)

    def test_matches_eigenvalue_test(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            m = int(rng.integers(1, 5))
            omega = unit_trace_psd(rng, m)
            sigma = float(rng.uniform(0.02, 0.98))
            col = rng.normal(size=m) * rng.uniform(0.0, 0.6)
            aug = tc.augmented_covariance(omega, col, sigma)
            by_eig = np.min(np.linalg.eigvalsh(aug)) >= -1e-9
            assert tc.schur_feasible(omega, col, sigma) == by_eig


class TestSolveWb:
    def test_block_diagonal_reduces_to_ridge(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.3 + 0.05 * rng.normal(size=12)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        omega = tc.TaskCovariance.unrelated(2)
        sigma = 0.4
        tilde = tc.augmented_covariance(omega, np.zeros(2), sigma)
        w, b = tc.solve_wb_newtask(x, y, np.zeros((3, 2)), tilde, hp)
        ridge = hp.lam1 + hp.lam2 / sigma
        n = 12
        system = np.zeros((4, 4))
        system[:3, :3] = 2.0 / n * x.T @ x + ridge * np.eye(3)
        system[:3, 3] = 2.0 / n * x.sum(axis=0)
        system[3, :3] = 2.0 / n * x.sum(axis=0)
        system[3, 3] = 2.0
        sol = np.linalg.solve(system, np.concatenate([2.0 / n * x.T @ y, [2.0 / n * y.sum()]]))
        np.testing.assert_allclose(w, sol[:3], atol=1e-10)
        np.testing.assert_allclose(b, sol[3], atol=1e-10)

    def test_lam2_zero_is_plain_ridge(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 2))
        y = x @ np.array([2.0, 1.0]) + 0.1 * rng.normal(size=9)
        hp = tc.Hyperparams(lam1=0.3, lam2=0.0)
        omega = tc.TaskCovariance(np.array([[1.0]]))
        w1, b1 = tc.solve_wb_newtask(
            x, y, np.ones((2, 1)), tc.augmented_covariance(omega, np.array([0.2]), 0.3), hp
        )
        w2, b2 = tc.solve_wb_newtask(
            x, y, np.ones((2, 1)), tc.augmented_covariance(omega, np.array([0.0]), 0.7), hp
        )
        np.testing.assert_allclose(w1, w2, atol=1e-10)
        np.testing.assert_allclose(b1, b2, atol=1e-10)

    def test_coupled_case_matches_dense_quadratic_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 2))
        y = x @ np.array([1.0, 1.0]) + 0.05 * rng.normal(size=10)
        hp = tc.Hyperparams(lam1=0.4, lam2=0.2)
        omega = tc.TaskCovariance(np.array([[1.0]]))
        w_old = np.array([[1.2], [0.8]])
        tilde = tc.augmented_covariance(omega, np.array([0.25]), 0.35)
        w, b = tc.solve_wb_newtask(x, y, w_old, tilde, hp)
        # oracle: assemble the quadratic in (w, b) from the explicit inverse
        inv = np.linalg.inv(tilde)
        n = 10
        h = np.zeros((3, 3))
        h[:2, :2] = 2.0 / n * x.T @ x + (hp.lam1 + hp.lam2 * inv[1, 1]) * np.eye(2)
        h[:2, 2] = 2.0 / n * x.sum(axis=0)
        h[2, :2] = 2.0 / n * x.sum(axis=0)
        h[2, 2] = 2.0
        rhs = np.concatenate([
            2.0 / n * x.T @ y - hp.lam2 * inv[0, 1] * w_old[:, 0],
            [2.0 / n * y.sum()],
        ])
        sol = np.linalg.solve(h, rhs)
        np.testing.assert_allclose(w, sol[:2], atol=1e-8)
        np.testing.assert_allclose(b, sol[2], atol=1e-8)


class TestConeStep:
    def test_rejects_all_zero_blocks(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        inst = tc.socp_instance(np.zeros((1, 1)), np.zeros(1), 0.0, omega)
        with pytest.raises(errors.DegenerateGram):
            tc.solve_omega_sigma(inst, omega)

    def test_aligned_weights_match_grid(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        w_old = np.array([[1.0], [0.0]])
        w_new = np.array([1.0, 0.0])
        inst = tc.socp_instance(w_old.T @ w_old, w_old.T @ w_new, w_new @ w_new, omega)
        col, sigma, t = tc.solve_omega_sigma(inst, omega)
        ref = refine_grid(1.0, 1.0, 1.0)
        assert abs(col[0] - ref[0]) <= 1e-3
        assert abs(sigma - ref[1]) <= 1e-3
        assert t > 0

    def test_opposed_weights_flip_sign(self):
        omega = tc.TaskCovariance(np.array([[1.0]]))
        w_old = np.array([[1.0], [0.0]])
        w_new = np.array([-1.0, 0.0])
        inst = tc.socp_instance(w_old.T @ w_old, w_old.T @ w_new, w_new @ w_new, omega)
        col, sigma, _ = tc.solve_omega_sigma(inst, omega)
        ref = refine_grid(1.0, -1.0, 1.0)
        assert col[0] < 0
        assert abs(col[0] - ref[0]) <= 1e-3
        assert abs(sigma - ref[1]) <= 1e-3

    @staticmethod
    def largest_t(aug, gram):
        """Largest t with aug - t gram PSD, by bisection on eigvalsh (0 when
        aug itself is not PSD). The diagonal bounds t from above."""
        def feasible(t):
            return np.min(np.linalg.eigvalsh(aug - t * gram)) >= 0.0

        if not feasible(0.0):
            return 0.0
        diag = np.diag(gram) > 0.0
        lo, hi = 0.0, float(np.min(np.diag(aug)[diag] / np.diag(gram)[diag]))
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
        return lo

    def test_solution_satisfies_matrix_inequality(self):
        rng = np.random.default_rng(5)
        cases = []  # (omega, existing weights, new weights, the clipped sigma or None)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            omega = unit_trace_psd(rng, m)
            cases.append((omega, rng.normal(size=(3, m)), rng.normal(size=3), None))
        # new-task weights near zero clip sigma at sigma_min; existing
        # weights W = 0 clip it at 1 - sigma_min with a zero column
        for m in (1, 3):
            omega = unit_trace_psd(rng, m)
            cases.append((omega, rng.normal(size=(3, m)), 1e-4 * rng.normal(size=3), 1e-4))
            cases.append((omega, np.zeros((3, m)), rng.normal(size=3), 1.0 - 1e-4))
        for omega, w_old, w_new, clipped in cases:
            m = w_old.shape[1]
            inst = tc.socp_instance(w_old.T @ w_old, w_old.T @ w_new, w_new @ w_new, omega)
            col, sigma, t = tc.solve_omega_sigma(inst, omega)
            aug = tc.augmented_covariance(omega, col, sigma)
            full = np.column_stack([w_old, w_new])
            gram = full.T @ full
            assert np.min(np.linalg.eigvalsh(aug - t * gram)) >= -1e-7
            if clipped is not None:
                assert sigma == clipped
            if not np.any(w_old):
                assert not np.any(col)
            # no sampled (col, sigma) reaches a larger t: col near the
            # solution's, sigma near it or anywhere in its interval
            for k in range(60):
                step = 10.0 ** rng.uniform(-6, -1)
                s = sigma + step * rng.normal() if k % 2 else rng.uniform(1e-4, 1.0 - 1e-4)
                s = min(max(s, 1e-4), 1.0 - 1e-4)
                c = col + step * rng.normal(size=m)
                best = self.largest_t(tc.augmented_covariance(omega, c, s), gram)
                assert best <= t * (1.0 + 1e-9)

    def test_trace_equals_inverse_t_when_tight(self):
        # rank-one stacked weights make the trace equal the top eigenvalue;
        # the optimum (col = sigma = 1/2) is singular, so the trace is the
        # library's relationship term over the covariance's range
        omega = tc.TaskCovariance(np.array([[1.0]]))
        w_old = np.array([[2.0]])
        w_new = np.array([2.0])
        inst = tc.socp_instance(w_old.T @ w_old, w_old.T @ w_new, w_new @ w_new, omega)
        col, sigma, t = tc.solve_omega_sigma(inst, omega)
        aug = tc.augmented_covariance(omega, col, sigma)
        full = np.column_stack([w_old, w_new])
        trace = tc.trace_pinv_product(aug, full.T @ full)
        np.testing.assert_allclose(trace, 1.0 / t, rtol=1e-12)


def criterion_7_instances(count=20):
    """The criterion-7 generator: a linear fit of m = 1..4 existing tasks
    and a new task near one of them."""
    kernel = tc.KernelSpec("linear")
    hp = tc.Hyperparams(lam1=0.03, lam2=0.03)
    rng = np.random.default_rng(20260811)
    for k in range(count):
        m = (1, 2, 3, 4)[k % 4]
        d = 3
        base = rng.normal(size=(d, 2)) @ rng.normal(size=(2, m))
        tasks = []
        for i in range(m):
            x = rng.normal(size=(100, d))
            tasks.append((f"t{i}", x, x @ base[:, i] + 0.2 + 0.3 * rng.normal(size=100)))
        model = tc.fit(tc.MultiTaskDataset(tasks), kernel, hp)
        w_new = base[:, int(rng.integers(m))] + 0.05 * rng.normal(size=d)
        xn = rng.normal(size=(40, d))
        yn = xn @ w_new + 0.2 + 0.3 * rng.normal(size=40)
        yield model, ("new", xn, yn), hp


def from_scratch_objective(inputs, targets, weights_existing, omega, hp, w, b, col, sigma):
    """The incorporation objective at an explicit point, recomputed from
    scratch: loss, weight norm and the block form of the relationship
    trace, with no floor on the Schur slack."""
    (inv,) = newtask._ridged(omega, np.reciprocal)
    fixed_trace = float(np.trace(weights_existing @ inv @ weights_existing.T))
    inv_col = inv @ col
    slack = sigma - float(col @ inv_col) / (1.0 - sigma)
    diff = w - (weights_existing @ inv_col) / (1.0 - sigma)
    rel = fixed_trace / (1.0 - sigma) + float(diff @ diff) / slack
    residuals = targets - inputs @ w - b
    loss = float(residuals @ residuals) / inputs.shape[0]
    return loss + 0.5 * hp.lam1 * float(w @ w) + 0.5 * hp.lam2 * rel


# incorporate_new_task's final objective on the 20 criterion-7 instances
# under the earlier alternation of a ridge solve with the cone step and a
# search polish; the exact step must never end above these
ALTERNATION_OBJECTIVES = (
    0.13085579384912593, 0.8431958092238546, 0.5165183273350825, 0.9322532541722737,
    0.27141211936241, 1.3951674007047719, 0.6409244433003292, 0.23418449073138856,
    0.17649022022253047, 0.2859244418013202, 1.2560111615886551, 0.9094872618936277,
    0.41082445386241967, 0.11950740185148524, 1.016036429314, 1.2877972379996196,
    0.5196540288512405, 0.6880363615009333, 0.29230023286801426, 0.3461892948007001,
)
# the same on TestIncorporate.big_new_targets, where sigma <= 1 - sigma_min binds
ALTERNATION_BIG_TARGETS_OBJECTIVE = 283872297210.2445


def assert_within_bounds(model, solution, sigma_min=newtask.SIGMA_MIN_DEFAULT):
    assert sigma_min <= solution.variance <= 1.0 - sigma_min
    assert tc.schur_feasible(model.covariance, solution.cov_column, solution.variance)
    trace = solution.objective_trace
    assert len(trace) == 2 and trace[1] <= trace[0]


class TestIncorporate:
    def fit_base(self, rng, m=2, d=3, n=25):
        base = rng.normal(size=(d, m))
        tasks = []
        for i in range(m):
            x = rng.normal(size=(n, d))
            tasks.append((f"t{i}", x, x @ base[:, i] + 0.2 + 0.05 * rng.normal(size=n)))
        ds = tc.MultiTaskDataset(tasks)
        hp = tc.Hyperparams(lam1=0.05, lam2=0.05)
        return ds, tc.fit(ds, tc.KernelSpec("linear"), hp), hp, base

    def test_replica_task_strongly_correlated(self):
        rng = np.random.default_rng(6)
        ds, model, hp, base = self.fit_base(rng)
        x = rng.normal(size=(25, 3))
        y = x @ base[:, 0] + 0.2 + 0.05 * rng.normal(size=25)
        solution = tc.incorporate_new_task(model, ("new", x, y), hp)
        corr = tc.correlation_from_covariance(solution.augmented_covariance)
        assert corr[-1, 0] >= 0.8

    def test_zero_targets_give_zero_solution(self):
        rng = np.random.default_rng(7)
        ds, model, hp, _ = self.fit_base(rng)
        solution = tc.incorporate_new_task(model, ("new", rng.normal(size=(10, 3)), np.zeros(10)), hp)
        np.testing.assert_allclose(solution.weights, 0.0, atol=1e-6)
        np.testing.assert_allclose(solution.cov_column, 0.0, atol=1e-6)
        # nothing to explain: the Schur slack, and so sigma, sits on sigma_min
        sigma_min = newtask.SIGMA_MIN_DEFAULT
        assert sigma_min <= solution.variance <= sigma_min * (1.0 + 1e-6)

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(8)
        ds, model, hp, base = self.fit_base(rng, m=3)
        x = rng.normal(size=(20, 3))
        y = x @ (0.5 * base[:, 0] + 0.5 * base[:, 1]) + 0.1 * rng.normal(size=20)
        solution = tc.incorporate_new_task(model, ("new", x, y), hp)
        trace = solution.objective_trace
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-10 * max(1.0, abs(a))

    def test_solution_satisfies_schur(self):
        rng = np.random.default_rng(9)
        ds, model, hp, base = self.fit_base(rng)
        x = rng.normal(size=(15, 3))
        y = x @ base[:, 1] + 0.05 * rng.normal(size=15)
        solution = tc.incorporate_new_task(model, ("new", x, y), hp)
        assert tc.schur_feasible(
            model.covariance, solution.cov_column, solution.variance, tol=1e-8
        )

    def test_matches_from_scratch_objective(self):
        # the first four instances hold one of each m = 1..4
        rng = np.random.default_rng(12)
        sigma_min = newtask.SIGMA_MIN_DEFAULT
        for model, (_, x, y), hp in criterion_7_instances(count=4):
            solution = tc.incorporate_new_task(model, ("new", x, y), hp)
            weights_existing = tc.reconstruct_weights(model)
            omega = model.covariance

            def objective(w, b, col, sigma):
                return from_scratch_objective(x, y, weights_existing, omega, hp, w, b, col, sigma)

            w, b = solution.weights, solution.bias
            col, sigma = solution.cov_column, solution.variance
            value = objective(w, b, col, sigma)
            assert abs(solution.objective_trace[-1] - value) <= 1e-12 * abs(value)
            # no feasible point nearby is lower: sigma in its bounds and a
            # Schur slack of at least sigma_min
            checked = 0
            for eps in (1e-3, 1e-4):
                for _ in range(100):
                    w_p = w + eps * np.linalg.norm(w) * rng.normal(size=w.shape) / np.sqrt(w.size)
                    b_p = b + eps * (abs(b) + 1.0) * rng.normal()
                    col_p = col + eps * np.linalg.norm(col) * (omega.matrix @ rng.normal(size=col.size))
                    sigma_p = sigma * (1.0 + eps * rng.normal())
                    if not (sigma_min <= sigma_p <= 1.0 - sigma_min and tc.schur_feasible(
                            omega, col_p, sigma_p, tol=-sigma_min * (1.0 - sigma_p))):
                        continue
                    checked += 1
                    assert objective(w_p, b_p, col_p, sigma_p) >= value - 1e-12 * abs(value)
            assert checked >= 100

    def test_never_above_the_alternation(self):
        for k, (model, new_task, hp) in enumerate(criterion_7_instances()):
            solution = tc.incorporate_new_task(model, new_task, hp)
            assert_within_bounds(model, solution)
            assert solution.objective_trace[-1] <= ALTERNATION_OBJECTIVES[k] * (1.0 + 1e-12)
            # the last trace entry is the library objective at the returned point
            _, x, y = new_task
            assert solution.objective_trace[-1] == tc.newtask_objective(
                x, y, solution.weights, solution.bias, tc.reconstruct_weights(model),
                model.covariance, solution.cov_column, solution.variance, hp,
            )

    def big_new_targets(self):
        """New-task targets a million times the existing tasks' targets."""
        rng = np.random.default_rng(13)
        ds, model, hp, base = self.fit_base(rng)
        x = rng.normal(size=(20, 3))
        y = 1e6 * (x @ base[:, 0] + 0.2 + 0.05 * rng.normal(size=20))
        return model, ("new", x, y), hp

    def test_upper_bound_binds_on_large_new_targets(self):
        model, new_task, hp = self.big_new_targets()
        solution = tc.incorporate_new_task(model, new_task, hp)
        assert_within_bounds(model, solution)
        assert solution.variance >= 1.0 - 2.0 * newtask.SIGMA_MIN_DEFAULT
        assert solution.objective_trace[-1] <= ALTERNATION_BIG_TARGETS_OBJECTIVE

    @pytest.mark.parametrize("level", [1e-6, 1.0, 1e6])
    def test_constant_existing_targets(self, level):
        # the existing weights vanish (exactly, or to rounding at this level)
        rng = np.random.default_rng(14)
        hp = tc.Hyperparams(lam1=0.05, lam2=0.05)
        tasks = [(f"t{i}", rng.normal(size=(25, 3)), np.full(25, level)) for i in range(2)]
        model = tc.fit(tc.MultiTaskDataset(tasks), tc.KernelSpec("linear"), hp)
        x = rng.normal(size=(20, 3))
        y = x @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.normal(size=20)
        solution = tc.incorporate_new_task(model, ("new", x, y), hp)
        assert_within_bounds(model, solution)
        # nothing to relate: the new task takes all the variance it may
        assert solution.variance >= 1.0 - 2.0 * newtask.SIGMA_MIN_DEFAULT
        np.testing.assert_allclose(solution.cov_column, 0.0, atol=1e-6)

    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_scaling_all_targets(self, factor):
        def solve(c):
            rng = np.random.default_rng(15)
            base = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3))
            tasks = []
            for i in range(3):
                x = rng.normal(size=(40, 3))
                tasks.append((f"t{i}", x, c * (x @ base[:, i] + 0.2 + 0.3 * rng.normal(size=40))))
            hp = tc.Hyperparams(lam1=0.03, lam2=0.03)
            model = tc.fit(tc.MultiTaskDataset(tasks), tc.KernelSpec("linear"), hp)
            x = rng.normal(size=(30, 3))
            y = c * (x @ base[:, 1] + 0.2 + 0.3 * rng.normal(size=30))
            return tc.incorporate_new_task(model, ("new", x, y), hp)

        ref, scaled = solve(1.0), solve(factor)
        assert abs(scaled.variance - ref.variance) <= 1e-5
        np.testing.assert_allclose(scaled.cov_column, ref.cov_column, rtol=0.0, atol=1e-5)
        np.testing.assert_allclose(
            scaled.objective_trace[-1], factor**2 * ref.objective_trace[-1], rtol=1e-5
        )

    def test_model_untouched(self):
        rng = np.random.default_rng(10)
        ds, model, hp, base = self.fit_base(rng)
        before = model.covariance.matrix.copy()
        x = rng.normal(size=(15, 3))
        tc.incorporate_new_task(model, ("new", x, x @ base[:, 0]), hp)
        np.testing.assert_array_equal(model.covariance.matrix, before)

    def test_rejects_rbf_model(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
        with pytest.raises(ValueError):
            tc.incorporate_new_task(model, ("new", [[1.0]], [1.0]), toy_hp)

    @pytest.mark.parametrize("inputs,targets", [
        ([[1.0], [np.nan], [3.0]], [1.0, 2.0, 3.0]),
        ([[1.0], [2.0], [3.0]], [1.0, np.inf, 3.0]),
    ])
    def test_rejects_non_finite_data(self, toy, toy_hp, monkeypatch, inputs, targets):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)

        def no_solve(*args):
            raise AssertionError("a solve ran on non-finite data")

        monkeypatch.setattr(newtask, "solve_linear", no_solve)
        with pytest.raises(errors.NonFiniteValue, match="'new'"):
            tc.incorporate_new_task(model, ("new", inputs, targets), toy_hp)

    def test_rejects_wrong_dimension(self):
        rng = np.random.default_rng(11)
        ds, model, hp, _ = self.fit_base(rng)
        with pytest.raises(errors.DimensionMismatch):
            tc.incorporate_new_task(model, ("new", rng.normal(size=(4, 2)), np.zeros(4)), hp)
