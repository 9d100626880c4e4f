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

    def test_solution_satisfies_matrix_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            omega = unit_trace_psd(rng, m)
            w_old = rng.normal(size=(3, m))
            w_new = rng.normal(size=3)
            inst = tc.socp_instance(w_old.T @ w_old, w_old.T @ w_new, w_new @ w_new, omega)
            col, sigma, t = tc.solve_omega_sigma(inst, omega)
            aug = tc.augmented_covariance(omega, col, sigma)
            full = np.column_stack([w_old, w_new])
            gap = aug - t * (full.T @ full)
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-7

    def test_trace_equals_inverse_t_when_tight(self):
        # rank-one stacked weights make the trace equal the top eigenvalue
        omega = tc.TaskCovariance(np.array([[1.0]]))
        w_old = np.array([[2.0]])
        w_new = np.array([2.0])
        inst = tc.socp_instance(w_old.T @ w_old, w_old.T @ w_new, w_new @ w_new, omega)
        col, sigma, t = tc.solve_omega_sigma(inst, omega)
        aug = tc.augmented_covariance(omega, col, sigma)
        full = np.column_stack([w_old, w_new])
        trace = float(np.trace(full @ np.linalg.inv(aug) @ full.T))
        np.testing.assert_allclose(trace, 1.0 / t, rtol=1e-5)


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


def from_scratch_objective(inputs, targets, weights_existing, omega, hp):
    """The incorporation objective with the same call shape as
    newtask._objective, recomputing the loss and weight norm on every
    evaluation."""
    (inv,) = newtask._ridged(omega, np.reciprocal)
    fixed_trace = float(np.trace(weights_existing @ inv @ weights_existing.T))

    def at_weights(w, b):
        def value(col, sigma):
            inv_col = inv @ col
            slack = max(sigma - float(col @ inv_col) / (1.0 - sigma), 1e-14)
            diff = w - (weights_existing @ inv_col) / (1.0 - sigma)
            rel = fixed_trace / (1.0 - sigma) + float(diff @ diff) / slack
            residuals = targets - inputs @ w - b
            loss = float(residuals @ residuals) / inputs.shape[0]
            return loss + 0.5 * hp.lam1 * float(w @ w) + 0.5 * hp.lam2 * rel

        return value

    return at_weights


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

    def test_matches_from_scratch_objective(self, monkeypatch):
        # the first four instances hold one of each m = 1..4
        for model, new_task, hp in criterion_7_instances(count=4):
            solution = tc.incorporate_new_task(model, new_task, hp)
            with monkeypatch.context() as patch:
                patch.setattr(newtask, "_objective", from_scratch_objective)
                reference = tc.incorporate_new_task(model, new_task, hp)
            assert solution.objective_trace == reference.objective_trace
            assert np.array_equal(solution.weights, reference.weights)
            assert solution.bias == reference.bias
            assert np.array_equal(solution.cov_column, reference.cov_column)
            assert solution.variance == reference.variance

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

        monkeypatch.setattr(newtask, "solve_wb_newtask", no_solve)
        with pytest.raises(errors.NonFiniteValue, match="'new'"):
            tc.incorporate_new_task(model, ("new", inputs, targets), toy_hp)

    def test_rejects_wrong_dimension(self):
        rng = np.random.default_rng(11)
        ds, model, hp, _ = self.fit_base(rng)
        with pytest.raises(errors.DimensionMismatch):
            tc.incorporate_new_task(model, ("new", rng.normal(size=(4, 2)), np.zeros(4)), hp)
