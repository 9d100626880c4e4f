import numpy as np
import pytest

import taskcov as tc
from taskcov import errors
from taskcov import solver
from taskcov.solver import DIRECT_SOLVE_LIMIT
from conftest import random_dataset


def unit_trace_psd(rng, m):
    b = rng.normal(size=(m, m))
    omega = b.T @ b
    return tc.TaskCovariance(omega / np.trace(omega))


def saddle_system_oracle(ds, kernel, coupling):
    """Assemble the dual saddle system entry by entry from definitions."""
    n, m = ds.total, ds.m
    block = np.zeros((n + m, n + m))
    for p in range(n):
        for q in range(n):
            block[p, q] = coupling[ds.point_task[p], ds.point_task[q]] * tc.base_kernel(
                kernel, ds.inputs[p], ds.inputs[q]
            )
        block[p, p] += ds.counts[ds.point_task[p]] / 2.0
        block[p, n + ds.point_task[p]] = 1.0
        block[n + ds.point_task[p], p] = 1.0
    sol = np.linalg.solve(block, np.concatenate([ds.targets, np.zeros(m)]))
    return sol[:n], sol[n:]


def two_pass_smo(ds, k, kkt_tol=solver.SMO_DEFAULT_TOL, max_rounds=solver.SMO_MAX_ROUNDS):
    """Reference SMO loop: a KKT-spread scan against kkt_tol * min(1, max |y|)
    before each round, then the round's updates from columns of K~, from
    alpha = 0."""
    n = ds.total
    kkt_tol *= min(1.0, float(np.max(np.abs(ds.targets))))
    kt = k.copy()
    kt[np.diag_indices(n)] += ds.counts[ds.point_task] / 2.0
    alpha = np.zeros(n)
    grad = -ds.targets.copy()
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
                continue
            g = grad[sl]
            hi = int(np.argmax(g)) + sl.start
            lo = int(np.argmin(g)) + sl.start
            viol = grad[hi] - grad[lo]
            if viol <= kkt_tol:
                continue
            curv = kt[hi, hi] + kt[lo, lo] - 2.0 * kt[hi, lo]
            step = viol / curv
            alpha[hi] -= step
            alpha[lo] += step
            grad -= step * (kt[:, hi] - kt[:, lo])
    b = np.array([-grad[sl].mean() for sl in task_slices])
    spread = kkt_spread()
    if spread > kkt_tol:
        raise errors.MaxIterationsExceeded(
            f"KKT spread {spread:.3e} above {kkt_tol:.1e} after {max_rounds} rounds",
            alpha=alpha,
            b=b,
        )
    return alpha, b


def smo_instances(count=20, seed=41):
    """Random linear and RBF problems, some with single-point tasks, each
    with its kernel and a fixed coupling."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m = int(rng.integers(1, 5))
        ds = random_dataset(rng, m=m, d=int(rng.integers(1, 4)), n_lo=1, n_hi=20)
        hp = tc.Hyperparams(lam1=float(10 ** rng.uniform(-2, 0)), lam2=float(rng.uniform(0, 0.5)))
        kernel = tc.KernelSpec("rbf", float(rng.uniform(0.5, 2.0))) if trial % 2 else tc.KernelSpec("linear")
        yield ds, kernel, tc.coupling_matrix(unit_trace_psd(rng, m), hp)


class TestDirectSolve:
    def test_single_point_forces_zero_dual(self):
        ds = tc.MultiTaskDataset([("a", [[3.0]], [7.0])])
        hp = tc.Hyperparams(lam1=0.1, lam2=0.1)
        c = tc.coupling_matrix(tc.TaskCovariance(np.array([[1.0]])), hp)
        alpha, b = tc.solve_alpha_b_direct(ds, tc.KernelSpec("linear"), c)
        np.testing.assert_allclose(alpha, [0.0], atol=1e-12)
        np.testing.assert_allclose(b, [7.0])

    def test_antisymmetric_pair(self):
        ds = tc.MultiTaskDataset([("a", [[1.0], [-1.0]], [1.0, -1.0])])
        hp = tc.Hyperparams(lam1=0.1, lam2=0.1)
        c = tc.coupling_matrix(tc.TaskCovariance(np.array([[1.0]])), hp)
        alpha, b = tc.solve_alpha_b_direct(ds, tc.KernelSpec("linear"), c)
        np.testing.assert_allclose(alpha[0], -alpha[1], atol=1e-12)
        np.testing.assert_allclose(b, [0.0], atol=1e-12)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, m=2, d=2, n_lo=4, n_hi=4)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        omega = unit_trace_psd(rng, 2)
        c = tc.coupling_matrix(omega, hp)
        for kernel in (tc.KernelSpec("linear"), tc.KernelSpec("rbf", 1.2)):
            alpha, b = tc.solve_alpha_b_direct(ds, kernel, c)
            alpha_ref, b_ref = saddle_system_oracle(ds, kernel, c)
            np.testing.assert_allclose(alpha, alpha_ref, atol=1e-9)
            np.testing.assert_allclose(b, b_ref, atol=1e-9)


class TestSmo:
    def test_zero_targets(self):
        ds = tc.MultiTaskDataset([("a", [[1.0], [2.0]], [0.0, 0.0])])
        hp = tc.Hyperparams(lam1=0.1, lam2=0.1)
        c = tc.coupling_matrix(tc.TaskCovariance(np.array([[1.0]])), hp)
        alpha, b = tc.solve_alpha_b_smo(ds, tc.KernelSpec("linear"), c)
        np.testing.assert_allclose(alpha, 0.0, atol=1e-12)
        np.testing.assert_allclose(b, 0.0, atol=1e-12)

    def test_agrees_with_direct(self):
        rng = np.random.default_rng(11)
        hp = tc.Hyperparams(lam1=0.3, lam2=0.1)
        for trial in range(10):
            m = int(rng.integers(1, 4))
            ds = random_dataset(rng, m=m, d=2, n_lo=2, n_hi=9)
            omega = unit_trace_psd(rng, m)
            c = tc.coupling_matrix(omega, hp)
            kernel = tc.KernelSpec("rbf", 1.5) if trial % 2 else tc.KernelSpec("linear")
            a1, b1 = tc.solve_alpha_b_direct(ds, kernel, c)
            a2, b2 = tc.solve_alpha_b_smo(ds, kernel, c)
            scale = max(1.0, np.max(np.abs(a1)))
            assert np.max(np.abs(a1 - a2)) <= 1e-4 * scale
            assert np.max(np.abs(b1 - b2)) <= 1e-4 * max(1.0, np.max(np.abs(b1)))

    def test_toy_dual_objective_matches_direct(self, toy, toy_hp):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        kernel = tc.KernelSpec("linear")
        kt = tc.assemble_kernel_matrix(toy, kernel, c)
        kt = kt + np.diag(toy.counts[toy.point_task] / 2.0)

        def dual(alpha):
            return 0.5 * alpha @ kt @ alpha - alpha @ toy.targets

        a1, _ = tc.solve_alpha_b_direct(toy, kernel, c)
        a2, _ = tc.solve_alpha_b_smo(toy, kernel, c)
        assert abs(dual(a1) - dual(a2)) <= 1e-6 * max(1.0, abs(dual(a1)))

    def test_iteration_cap_carries_best_iterate(self, toy, toy_hp):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        with pytest.raises(errors.MaxIterationsExceeded) as info:
            tc.solve_alpha_b_smo(toy, tc.KernelSpec("linear"), c, max_rounds=1)
        assert info.value.alpha is not None and info.value.b is not None

    def test_matches_two_pass_reference(self):
        single = 0
        for ds, kernel, c in smo_instances():
            single += int(np.any(ds.counts == 1))
            alpha, b = tc.solve_alpha_b_smo(ds, kernel, c)
            alpha_ref, b_ref = two_pass_smo(ds, tc.assemble_kernel_matrix(ds, kernel, c))
            assert np.array_equal(alpha, alpha_ref) and np.array_equal(b, b_ref)
        assert single >= 3

    def test_iteration_cap_matches_two_pass_reference(self, toy, toy_hp):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        kernel = tc.KernelSpec("linear")
        with pytest.raises(errors.MaxIterationsExceeded) as info:
            tc.solve_alpha_b_smo(toy, kernel, c, max_rounds=1)
        with pytest.raises(errors.MaxIterationsExceeded) as ref:
            two_pass_smo(toy, tc.assemble_kernel_matrix(toy, kernel, c), max_rounds=1)
        assert str(info.value) == str(ref.value)
        assert np.array_equal(info.value.alpha, ref.value.alpha)
        assert np.array_equal(info.value.b, ref.value.b)

    def test_start_at_own_output_does_not_move(self):
        for ds, kernel, c in smo_instances(count=10, seed=42):
            k = tc.assemble_kernel_matrix(ds, kernel, c)
            cold, _ = solver._smo_solve(ds, k)
            alpha, b = solver._smo_solve(ds, k, start=cold)
            assert np.array_equal(alpha, cold)
            again, b_again = solver._smo_solve(ds, k, start=alpha)
            assert np.array_equal(again, alpha) and np.array_equal(b_again, b)

    def test_start_is_not_modified(self):
        ds, kernel, c = next(smo_instances(count=1, seed=43))
        k = tc.assemble_kernel_matrix(ds, kernel, c)
        start = np.zeros(ds.total)
        alpha, _ = solver._smo_solve(ds, k, start=start)
        assert not np.any(start) and np.any(alpha)

    @pytest.mark.parametrize("kkt_tol", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_rejects_bad_tolerance(self, toy, toy_hp, kkt_tol):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        with pytest.raises(ValueError, match="kkt_tol"):
            tc.solve_alpha_b_smo(toy, tc.KernelSpec("linear"), c, kkt_tol=kkt_tol)

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_rejects_bad_round_cap(self, toy, toy_hp, max_rounds):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        with pytest.raises(ValueError, match="max_rounds"):
            tc.solve_alpha_b_smo(toy, tc.KernelSpec("linear"), c, max_rounds=max_rounds)

    def test_warm_started_fits_match_direct(self):
        rng = np.random.default_rng(51)
        for trial in range(40):
            m = int(rng.integers(1, 5))
            ds = random_dataset(rng, m=m, d=int(rng.integers(1, 4)), n_lo=1, n_hi=25)
            lam1 = float(10 ** rng.uniform(-2, 0))
            lam2 = 0.0 if trial % 5 == 0 else lam1 * float(10 ** rng.uniform(-1, 1))
            hp = tc.Hyperparams(lam1=lam1, lam2=lam2)
            if trial % 2:
                kernel = tc.KernelSpec("rbf", float(rng.uniform(0.5, 2.0)))
            else:
                kernel = tc.KernelSpec("linear")
            smo = tc.fit(ds, kernel, hp, solver="smo")
            direct = tc.fit(ds, kernel, hp, solver="direct")
            ids = [ds.task_ids[i] for i in ds.point_task]
            xs = rng.normal(size=(ds.total, ds.dim))
            gap = tc.predict_batch(smo, ids, xs) - tc.predict_batch(direct, ids, xs)
            assert np.max(np.abs(gap)) <= 1e-6
            trace = smo.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a + solver.NONDECREASE_RTOL * max(1.0, abs(a))

    def test_small_targets_match_direct(self, toy, toy_hp):
        # the KKT stop scales with the targets, so targets times 1e-6 are
        # solved to the direct path's relative accuracy
        small = tc.MultiTaskDataset([(t.task_id, t.inputs, 1e-6 * t.targets) for t in toy.tasks])
        ids = [small.task_ids[i] for i in small.point_task]
        for kernel in (tc.KernelSpec("linear"), tc.KernelSpec("rbf", 1.0)):
            smo, direct = (tc.fit(small, kernel, toy_hp, solver=s) for s in ("smo", "direct"))
            want = tc.predict_batch(direct, ids, small.inputs)
            gap = tc.predict_batch(smo, ids, small.inputs) - want
            assert np.max(np.abs(gap)) <= 1e-4 * np.max(np.abs(want))

    def test_fit_warm_starts_after_the_first_solve(self, toy, toy_hp, monkeypatch):
        starts = []
        smo_solve = solver._smo_solve

        def recording(ds, k, kkt_tol=solver.SMO_DEFAULT_TOL, max_rounds=solver.SMO_MAX_ROUNDS,
                      start=None):
            starts.append(start)
            alpha, b = smo_solve(ds, k, kkt_tol, max_rounds, start)
            starts.append(alpha)
            return alpha, b

        monkeypatch.setattr(solver, "_smo_solve", recording)
        tc.fit(toy, tc.KernelSpec("linear"), toy_hp, solver="smo")
        assert starts[0] is None and len(starts) >= 4
        for returned, start in zip(starts[1::2], starts[2::2]):
            assert start is returned

    def test_fixed_inverse_fit_matches_public_solve(self):
        rng = np.random.default_rng(52)
        for trial in range(6):
            m = int(rng.integers(1, 4))
            ds = random_dataset(rng, m=m, d=2, n_lo=2, n_hi=12)
            hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
            kernel = tc.KernelSpec("rbf", 1.0) if trial % 2 else tc.KernelSpec("linear")
            b = rng.normal(size=(m, m))
            model = tc.fit_with_fixed_inverse(ds, kernel, hp, b @ b.T, solver="smo")
            alpha, biases = tc.solve_alpha_b_smo(ds, kernel, model.coupling)
            assert np.array_equal(model.dual_coefs, alpha)
            assert np.array_equal(model.biases, biases)


def low_rank_instances(count=50, seed=30):
    """Random linear problems with m*d < N, half of them with inputs far
    from the origin, each with random weights and a fixed covariance."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        ds = random_dataset(rng, m=m, d=d, n_lo=d + 1, n_hi=d + 15)
        if trial % 2:
            shift = rng.normal(scale=5.0, size=d)
            ds = tc.MultiTaskDataset([(t.task_id, t.inputs + shift, t.targets) for t in ds.tasks])
        lam1 = float(10 ** rng.uniform(-2, 0))
        hp = tc.Hyperparams(lam1=lam1, lam2=lam1 * float(10 ** rng.uniform(-1.5, 0.5)))
        assert ds.m * ds.dim < ds.total
        yield ds, hp, unit_trace_psd(rng, m)


def rescaled(instances):
    """Each instance under unit changes: inputs times a with both penalties
    times a^2 (the combined kernel is unchanged), and targets times c."""
    for ds, hp, omega in instances:
        for a in (1e-3, 1.0, 1e3):
            for c in (1e-6, 1.0, 1e6):
                tasks = [(t.task_id, a * t.inputs, c * t.targets) for t in ds.tasks]
                yield tc.MultiTaskDataset(tasks), tc.Hyperparams(a * a * hp.lam1, a * a * hp.lam2), omega


class TestLowRankStep:
    kernel = tc.KernelSpec("linear")

    def test_matches_dense_direct_solve(self):
        for ds, hp, omega in rescaled(low_rank_instances()):
            c = tc.coupling_matrix(omega, hp)
            alpha, b, fitted, blocked = solver._coefficient_step(ds, self.kernel, "auto")(c)
            a_ref, b_ref = tc.solve_alpha_b_direct(ds, self.kernel, c)
            np.testing.assert_allclose(alpha, a_ref, rtol=0, atol=1e-8 * np.max(np.abs(a_ref)))
            np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-8 * np.max(np.abs(b_ref)))
            k = tc.assemble_kernel_matrix(ds, self.kernel, c)
            np.testing.assert_allclose(fitted, k @ alpha, rtol=0,
                                       atol=1e-8 * max(1.0, np.max(np.abs(k @ alpha))))
            np.testing.assert_allclose(
                solver._weight_gram(c, blocked), tc.gram_wtw(alpha, ds, self.kernel, omega, hp),
                rtol=1e-8, atol=1e-10,
            )

    def test_auto_fit_matches_direct_fit(self):
        rng = np.random.default_rng(31)
        for ds, hp, _ in low_rank_instances():
            auto = tc.fit(ds, self.kernel, hp)
            direct = tc.fit(ds, self.kernel, hp, solver="direct")
            trace = auto.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-10 * abs(a)
            ids = [ds.task_ids[i] for i in rng.integers(ds.m, size=10)]
            xs = ds.inputs[rng.integers(ds.total, size=10)] + rng.normal(size=(10, ds.dim))
            np.testing.assert_allclose(
                tc.predict_batch(auto, ids, xs), tc.predict_batch(direct, ids, xs), rtol=0, atol=1e-6
            )

    def test_auto_builds_no_dense_system(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense path ran")

        for name in ("assemble_kernel_matrix", "base_kernel_matrix", "solve_linear", "_combined_kernel"):
            monkeypatch.setattr(solver, name, refuse)
        ds, hp, _ = next(low_rank_instances(count=1))
        model = tc.fit(ds, self.kernel, hp)
        assert len(model.objective_trace) >= 3
        tc.fit_with_fixed_inverse(ds, self.kernel, hp, tc.laplacian_mean_regularization(ds.m))

    def test_wide_linear_data_takes_dense_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the low-rank path ran")

        calls = []
        solve = solver.solve_linear
        monkeypatch.setattr(solver, "_low_rank_solve", refuse)
        monkeypatch.setattr(solver, "solve_linear", lambda a, rhs: calls.append(1) or solve(a, rhs))
        rng = np.random.default_rng(32)
        ds = random_dataset(rng, m=2, d=5, n_lo=3, n_hi=5)
        assert ds.m * ds.dim >= ds.total
        model = tc.fit(ds, self.kernel, tc.Hyperparams(lam1=0.2, lam2=0.1))
        assert len(calls) == len(model.objective_trace) - 1


class TestGram:
    def test_zero_dual(self, toy, toy_hp):
        g = tc.gram_wtw(np.zeros(toy.total), toy, tc.KernelSpec("linear"),
                        tc.TaskCovariance.unrelated(3), toy_hp)
        np.testing.assert_allclose(g, np.zeros((3, 3)))

    def test_single_task_explicit_norm(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, m=1, d=3, n_lo=5, n_hi=5)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        model = tc.fit(ds, tc.KernelSpec("linear"), hp)
        g = tc.gram_wtw(model.dual_coefs, ds, model.kernel, model.covariance, hp)
        w = tc.reconstruct_weights(model)
        np.testing.assert_allclose(g[0, 0], w[:, 0] @ w[:, 0], rtol=1e-10)

    def test_matches_explicit_features(self):
        rng = np.random.default_rng(13)
        hp = tc.Hyperparams(lam1=0.3, lam2=0.15)
        ds = random_dataset(rng, m=3, d=2, n_lo=3, n_hi=6)
        omega = unit_trace_psd(rng, 3)
        c = tc.coupling_matrix(omega, hp)
        alpha, _ = tc.solve_alpha_b_direct(ds, tc.KernelSpec("linear"), c)
        weighted = ds.inputs * alpha[:, None]
        spread = np.zeros((ds.total, 3))
        spread[np.arange(ds.total), ds.point_task] = 1.0
        w = weighted.T @ spread @ c
        g = tc.gram_wtw(alpha, ds, tc.KernelSpec("linear"), omega, hp)
        np.testing.assert_allclose(g, w.T @ w, atol=1e-8)


class TestUpdateOmega:
    def test_diagonal_gram(self):
        omega = tc.update_omega(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(omega.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]))

    def test_zero_gram(self):
        with pytest.raises(errors.DegenerateGram):
            tc.update_omega(np.zeros((2, 2)))

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(14)
        b = rng.normal(size=(3, 3))
        gram = b.T @ b
        omega = tc.update_omega(gram)
        achieved = float(np.trace(tc.psd_inverse(omega.matrix) @ gram))
        target = float(np.trace(tc.psd_sqrt(gram))) ** 2
        np.testing.assert_allclose(achieved, target, rtol=1e-8)
        for _ in range(1000):
            c = rng.normal(size=(3, 3))
            cand = c.T @ c + 1e-10 * np.eye(3)
            cand /= np.trace(cand)
            value = float(np.trace(np.linalg.inv(cand) @ gram))
            assert value >= achieved - 1e-8 * abs(achieved)


class TestObjective:
    def test_zero_state(self, toy, toy_hp):
        value = tc.objective_value(
            toy, np.zeros(toy.total), np.zeros(3), tc.TaskCovariance.unrelated(3),
            tc.KernelSpec("linear"), toy_hp,
        )
        expected = sum((t.targets**2).sum() / t.n for t in toy.tasks)
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_perfect_fit_without_penalties(self):
        ds = tc.MultiTaskDataset([("a", [[1.0], [2.0]], [3.0, 3.0])])
        hp = tc.Hyperparams(lam1=0.0, lam2=0.0)
        value = tc.objective_value(
            ds, np.zeros(2), np.array([3.0]), tc.TaskCovariance(np.array([[1.0]])),
            tc.KernelSpec("linear"), hp,
        )
        assert value == 0.0

    def test_final_state_matches_trace(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        value = tc.objective_value(
            toy, model.dual_coefs, model.biases, model.covariance, model.kernel, toy_hp
        )
        np.testing.assert_allclose(value, model.objective_trace[-1], rtol=1e-9)


class TestFit:
    def test_toy_first_pair_anticorrelated(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        corr = tc.correlation_from_covariance(model.covariance)
        assert corr[0, 1] <= -0.95
        assert len(model.objective_trace) - 2 <= 20

    def test_toy_recovers_lines(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        w = tc.reconstruct_weights(model)[0]
        b = model.biases
        for i, (slope, intercept) in enumerate([(3, 10), (-3, -5), (0, 1)]):
            assert abs(w[i] - slope) <= 0.2
            assert abs(b[i] - intercept) <= 0.2

    def test_single_task_reduces_to_kernel_ridge(self):
        rng = np.random.default_rng(15)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.3)
        ds = random_dataset(rng, m=1, d=2, n_lo=7, n_hi=7)
        for kernel in (tc.KernelSpec("linear"), tc.KernelSpec("rbf", 1.3)):
            model = tc.fit(ds, kernel, hp)
            rho = hp.lam1 + hp.lam2
            n = ds.total
            k0 = tc.base_kernel_matrix(kernel, ds.inputs)
            block = np.zeros((n + 1, n + 1))
            block[:n, :n] = k0 / rho + (n / 2.0) * np.eye(n)
            block[:n, n] = 1.0
            block[n, :n] = 1.0
            sol = np.linalg.solve(block, np.concatenate([ds.targets, [0.0]]))
            for x in rng.normal(size=(5, 2)):
                oracle = sol[:n] @ tc.base_kernel_matrix(kernel, ds.inputs, x[None]).ravel() / rho + sol[n]
                np.testing.assert_allclose(tc.predict(model, "t0", x), oracle, atol=1e-6)

    def test_duplicated_task_strongly_positive(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(8, 2))
        y = x @ np.array([1.0, -1.0]) + 0.05 * rng.normal(size=8)
        ds = tc.MultiTaskDataset([("a", x, y), ("b", x, y)])
        model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.1, lam2=0.05))
        corr = tc.correlation_from_covariance(model.covariance)
        assert corr[0, 1] >= 0.9

    def test_monotone_trace(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            ds = random_dataset(rng, m=m, d=3, n_lo=3, n_hi=10)
            hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
            model = tc.fit(ds, tc.KernelSpec("linear"), hp)
            trace = model.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-10 * abs(a)

    def test_stop_is_scale_invariant(self):
        # the stop rule's floor follows the fit's own scale, so targets
        # times 1e-10 run the unscaled fit's iterations
        ds = random_dataset(np.random.default_rng(0), m=3, d=3, n_lo=8, n_hi=12)
        small = tc.MultiTaskDataset([(t.task_id, t.inputs, 1e-10 * t.targets) for t in ds.tasks])
        hp = tc.Hyperparams(lam1=0.1, lam2=0.1)
        ref, got = (tc.fit(data, tc.KernelSpec("linear"), hp) for data in (ds, small))
        assert len(got.objective_trace) == len(ref.objective_trace)
        np.testing.assert_allclose(got.covariance.matrix, ref.covariance.matrix, rtol=0, atol=1e-6)

    def test_zero_targets_terminate_converged(self):
        ds = tc.MultiTaskDataset([("a", [[1.0], [2.0]], [0.0, 0.0]),
                                  ("b", [[3.0], [4.0]], [0.0, 0.0])])
        model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.1, lam2=0.1))
        np.testing.assert_allclose(model.dual_coefs, 0.0, atol=1e-12)
        np.testing.assert_allclose(model.covariance.matrix, np.eye(2) / 2)

    def test_smo_path_matches_direct_path(self, toy, toy_hp):
        direct = tc.fit(toy, tc.KernelSpec("linear"), toy_hp, solver="direct")
        smo = tc.fit(toy, tc.KernelSpec("linear"), toy_hp, solver="smo")
        scale = max(1.0, np.max(np.abs(direct.dual_coefs)))
        assert np.max(np.abs(direct.dual_coefs - smo.dual_coefs)) <= 1e-4 * scale
        assert np.max(np.abs(direct.biases - smo.biases)) <= 1e-4
        np.testing.assert_allclose(
            direct.objective_trace[-1], smo.objective_trace[-1], rtol=1e-4
        )

    def test_auto_threshold_constant(self):
        assert DIRECT_SOLVE_LIMIT == 2000

    def test_requires_positive_lam1(self, toy):
        with pytest.raises(ValueError):
            tc.fit(toy, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.0, lam2=0.1))


def dual_oracle(model, ids, xs):
    """Predictions from the dual expansion, term by term from the
    definitions, and the sum of the terms' magnitudes per query."""
    preds, scales = [], []
    for tid, x in zip(ids, xs):
        i = model.task_index(tid)
        k = np.array([tc.base_kernel(model.kernel, s, x) for s in model.support_inputs])
        terms = model.dual_coefs * model.coupling[model.support_tasks, i] * k
        preds.append(terms.sum() + model.biases[i])
        scales.append(np.abs(terms).sum() + abs(model.biases[i]))
    return np.array(preds), np.array(scales)


class TestPredict:
    def test_zero_dual_returns_bias(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        zero = tc.TrainedModel(
            task_ids=model.task_ids,
            dual_coefs=np.zeros(toy.total),
            biases=np.array([1.0, 2.0, 3.0]),
            covariance=model.covariance,
            coupling=model.coupling,
            kernel=model.kernel,
            support_inputs=model.support_inputs,
            support_tasks=model.support_tasks,
            counts=model.counts,
            hyperparams=toy_hp,
        )
        assert tc.predict(zero, "task2", [123.0]) == 2.0

    def test_kkt_residual_identity(self, toy, toy_hp):
        # at the stationary point, y - prediction = n_i alpha / 2 per point
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        for p in range(toy.total):
            tid = toy.task_ids[toy.point_task[p]]
            pred = tc.predict(model, tid, toy.inputs[p])
            residual = toy.targets[p] - pred
            expected = toy.counts[toy.point_task[p]] * model.dual_coefs[p] / 2.0
            np.testing.assert_allclose(residual, expected, atol=1e-8)

    def test_dual_matches_primal_for_linear(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, m=3, d=2, n_lo=4, n_hi=7)
        model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.2, lam2=0.1))
        w = tc.reconstruct_weights(model)
        for i, tid in enumerate(ds.task_ids):
            for x in rng.normal(size=(4, 2)):
                np.testing.assert_allclose(
                    tc.predict(model, tid, x), w[:, i] @ x + model.biases[i], atol=1e-8
                )

    def test_batch_matches_scalar(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        ids = ["task1", "task3", "task2"]
        xs = [[0.0], [2.0], [-1.0]]
        batch = tc.predict_batch(model, ids, xs)
        for tid, x, value in zip(ids, xs, batch):
            assert value == tc.predict(model, tid, x)

    def test_unknown_task(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        with pytest.raises(errors.UnknownTask):
            tc.predict(model, "nope", [1.0])

    def test_dimension_mismatch(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        with pytest.raises(errors.DimensionMismatch):
            tc.predict(model, "task1", [1.0, 2.0])

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query(self, toy, toy_hp, kind, bad):
        model = tc.fit(toy, tc.KernelSpec(kind, 2.0 if kind == "rbf" else None), toy_hp)
        with pytest.raises(errors.NonFiniteValue):
            tc.predict(model, "task1", [bad])

    def test_non_finite_query_in_batch(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        with pytest.raises(errors.NonFiniteValue):
            tc.predict_batch(model, ["task1", "task2"], [[1.0], [np.nan]])

    def test_batch_length_mismatch_refused(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        with pytest.raises(errors.DimensionMismatch, match="3 task ids but 1 inputs"):
            tc.predict_batch(model, ["task1", "task2", "task3"], [[1.0]])
        with pytest.raises(errors.DimensionMismatch, match="1 task ids but 2 inputs"):
            tc.predict_batch(model, ["task1"], np.zeros((2, 1)))

    def linear_models(self, tmp_path):
        rng = np.random.default_rng(40)
        ds = random_dataset(rng, m=3, d=12, n_lo=10, n_hi=20)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        fitted = tc.fit(ds, tc.KernelSpec("linear"), hp)
        prior = tc.fit_with_fixed_inverse(
            ds, tc.KernelSpec("linear"), hp, tc.laplacian_mean_regularization(3)
        )
        path = tmp_path / "model.txt"
        tc.save_model(fitted, path)
        return ds, (fitted, prior, tc.load_model(path))

    def test_linear_batch_is_bit_stable(self, tmp_path):
        ds, models = self.linear_models(tmp_path)
        rng = np.random.default_rng(41)
        xs = rng.normal(scale=3.0, size=(101, ds.dim))
        ids = [ds.task_ids[i] for i in rng.integers(0, ds.m, size=len(xs))]
        for model in models:
            batch = tc.predict_batch(model, ids, xs)
            single = np.array([tc.predict(model, t, x) for t, x in zip(ids, xs)])
            np.testing.assert_array_equal(batch, single)
            np.testing.assert_array_equal(tc.predict_batch(model, ids, np.asfortranarray(xs)), batch)
            for cut in (0, 1, 37, len(xs)):
                halves = np.concatenate([
                    tc.predict_batch(model, ids[:cut], xs[:cut]),
                    tc.predict_batch(model, ids[cut:], xs[cut:]),
                ])
                np.testing.assert_array_equal(batch, halves)
            oracle, scale = dual_oracle(model, ids, xs)
            assert np.max(np.abs(batch - oracle) / scale) <= 1e-12

    def test_linear_weights_are_cached_read_only(self, toy, toy_hp):
        model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
        weights = tc.reconstruct_weights(model)
        assert tc.reconstruct_weights(model) is weights
        assert not weights.flags.writeable
        spread = solver._spread(model.support_tasks, model.m, 1.0)
        expected = (model.support_inputs * model.dual_coefs[:, None]).T @ spread @ model.coupling
        np.testing.assert_array_equal(weights, expected)

    def test_rbf_matches_dual_oracle_across_blocks(self, toy, toy_hp, monkeypatch):
        model = tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
        block = 7
        monkeypatch.setattr(solver, "_SERVE_BLOCK_BYTES", 8 * toy.total * block)
        blocks = []
        base = solver.base_kernel_matrix

        def counted(kernel, xa, xb=None):
            blocks.append(len(xb))
            return base(kernel, xa, xb)

        monkeypatch.setattr(solver, "base_kernel_matrix", counted)
        rng = np.random.default_rng(42)
        xs = rng.uniform(-5.0, 15.0, size=(40, 1))
        ids = [toy.task_ids[i] for i in rng.integers(0, toy.m, size=len(xs))]
        preds = tc.predict_batch(model, ids, xs)
        assert blocks == [block] * 5 + [5]
        oracle, scale = dual_oracle(model, ids, xs)
        assert np.max(np.abs(preds - oracle) / scale) <= 1e-12

    @pytest.mark.parametrize("ids, xs, error, message", [
        (["task1", "nope", "task2"], [[np.nan], [1.0], [1.0, 2.0]],
         errors.UnknownTask, "task 'nope' not in model"),
        (["task1", "task2", "nope"], [[np.nan], [1.0, 2.0], [1.0]],
         errors.DimensionMismatch, "input has dimension 2, model expects 1"),
        (["task1", "task2", "task3"], [[1.0], [2.0, 3.0], [np.inf]],
         errors.DimensionMismatch, "input has dimension 2, model expects 1"),
        (["task1", "task2", "task3"], [[1.0], [-np.inf], [np.nan]],
         errors.NonFiniteValue, "query 1 [-inf] is not finite"),
        (["task1", "task2"], np.array([[1.0], [np.nan]]),
         errors.NonFiniteValue, "query 1 [nan] is not finite"),
    ])
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_error_precedence(self, toy, toy_hp, kind, ids, xs, error, message):
        model = tc.fit(toy, tc.KernelSpec(kind, 2.0 if kind == "rbf" else None), toy_hp)
        with pytest.raises(error) as info:
            tc.predict_batch(model, ids, xs)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_empty_batch(self, toy, toy_hp, kind):
        model = tc.fit(toy, tc.KernelSpec(kind, 2.0 if kind == "rbf" else None), toy_hp)
        for xs in ([], np.zeros((0, 1))):
            out = tc.predict_batch(model, [], xs)
            assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_query_row_shapes(self, kind):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, m=2, d=2, n_lo=5, n_hi=8)
        kernel = tc.KernelSpec(kind, 1.5 if kind == "rbf" else None)
        model = tc.fit(ds, kernel, tc.Hyperparams(lam1=0.2, lam2=0.1))
        ids = ["t0", "t1", "t0"]
        xs = rng.normal(size=(3, 2))
        expected = tc.predict_batch(model, ids, xs)
        for rows in (
            xs.tolist(),
            tuple(tuple(r) for r in xs),
            [r[None, :] for r in xs],
            xs[:, None, :],
            [xs[0], xs[1][None, :], xs[2].tolist()],
        ):
            np.testing.assert_array_equal(tc.predict_batch(model, tuple(ids), rows), expected)
        assert tc.predict(model, "t1", xs[1][None, :]) == tc.predict(model, "t1", xs[1])
