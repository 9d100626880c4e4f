import dataclasses
import re

import numpy as np
import pytest

import taskcov as tc
from taskcov import data, errors, linalg
from taskcov import solver
from conftest import planted_dataset, random_dataset, smooth_dataset, traced_peak
from test_acceptance import _convergence_instance


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
    """Reference SMO loop from alpha = 0: a KKT-spread scan against
    kkt_tol * min(1, max |y|) before each round, then the round's updates
    from columns of K~."""
    n = ds.total
    kkt_tol *= min(1.0, float(np.max(np.abs(ds.targets))))
    kt = k.copy()
    kt[np.diag_indices(n)] += ds.counts[ds.point_task] / 2.0
    alpha = np.zeros(n)
    grad = -ds.targets.copy()
    task_slices = []
    first = 0
    for c in ds.counts:
        task_slices.append(slice(first, first + int(c)))
        first += int(c)

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


def assert_same_fit(got, want):
    """Two models bit for bit: alpha, b, coupling, covariance, objective
    trace and report."""
    for name in ("dual_coefs", "biases", "coupling"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.covariance.matrix, want.covariance.matrix)
    assert got.objective_trace == want.objective_trace and got.report == want.report


def wide_linear_dataset():
    """Linear data with m*d >= N (4 tasks x 20 points, d = 100), whose fits
    run on the base Gram."""
    ds = planted_dataset(3, tasks=4, points=20, dim=100, rank=3)
    assert ds.m * ds.dim >= ds.total
    return ds


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


def zero_sum_start(rng, ds):
    """A random start summing to 0 per task, so 0 on single-point tasks."""
    start = rng.normal(size=ds.total)
    return start - (np.bincount(ds.point_task, weights=start) / ds.counts)[ds.point_task]


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
    """The public SMO solve, a reference that no fit runs, and fits checked
    against the public reference solves."""

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

    @pytest.mark.parametrize("kkt_tol", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_rejects_bad_tolerance(self, toy, toy_hp, kkt_tol):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        with pytest.raises(ValueError, match="kkt_tol"):
            tc.solve_alpha_b_smo(toy, tc.KernelSpec("linear"), c, kkt_tol=kkt_tol)

    @pytest.mark.parametrize("max_rounds", [0, -1, 2.5, float("nan"), "3"])
    def test_rejects_bad_round_cap(self, toy, toy_hp, max_rounds):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        with pytest.raises(ValueError, match="max_rounds"):
            tc.solve_alpha_b_smo(toy, tc.KernelSpec("linear"), c, max_rounds=max_rounds)

    def test_small_targets_match_direct(self, toy, toy_hp):
        # the final refresh's CG stop scales with the targets, so targets
        # times 1e-6 are solved to the public direct solve's relative
        # accuracy, on wide linear data and on the toy RBF fit
        for data, kernel in ((wide_linear_dataset(), tc.KernelSpec("linear")), (toy, tc.KernelSpec("rbf", 1.0))):
            small = tc.MultiTaskDataset([(t.task_id, t.inputs, 1e-6 * t.targets) for t in data.tasks])
            ids = [small.task_ids[i] for i in small.point_task]
            model = tc.fit(small, kernel, toy_hp)
            alpha, b = tc.solve_alpha_b_direct(small, kernel, model.coupling)
            want = tc.predict_batch(dataclasses.replace(model, dual_coefs=alpha, biases=b), ids, small.inputs)
            gap = tc.predict_batch(model, ids, small.inputs) - want
            assert np.max(np.abs(gap)) <= 1e-8 * np.max(np.abs(want))

    def test_fit_warm_starts_after_the_first_solve(self, toy, toy_hp, monkeypatch):
        # each covariance step of the loop is one CG solve from the prox
        # point's dual point, which sums to 0 per task; the fit's last CG
        # solve is the final refresh, to 1e-10 from the certified point's
        # dual point, and its products are not counted in the report
        cg_starts, cg_products, cg_rtols, steps, seen = [], [], [], [], []
        cg_solve, certify, gram_form = solver._cg_solve, solver._certify, solver._gram_form

        def cg_recording(ds, k, start, rtol):
            cg_starts.append(start)
            cg_rtols.append(rtol)
            alpha, b, products = cg_solve(ds, k, start, rtol)
            cg_products.append(products)
            return alpha, b, products

        def counted(*args):
            form = gram_form(*args)
            seen.append(form)
            return form._replace(solve=lambda coupling, factor, point: steps.append(1) or form.solve(coupling, factor, point))

        monkeypatch.setattr(solver, "_cg_solve", cg_recording)
        monkeypatch.setattr(solver, "_gram_form", counted)
        monkeypatch.setattr(solver, "_certify", lambda *args: seen.append(certify(*args)) or seen[-1])
        model = tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
        assert len(steps) >= 2 and len(cg_starts) == len(steps) + 1
        assert cg_rtols[-1] == solver._CG_RTOL and model.report.products == sum(cg_products[:-1])
        for start in cg_starts:
            sums = np.bincount(toy.point_task, weights=start)
            assert np.max(np.abs(sums)) <= 1e-12 * np.max(np.abs(start))
        form, (weights, *_) = seen
        np.testing.assert_array_equal(cg_starts[-1], form.dual_point(weights))

    def test_fixed_inverse_fit_matches_public_solve(self):
        # the low-rank solve, or CG to 1e-10 from 0 (there is no certified
        # point), against the public direct solve at the same coupling
        rng = np.random.default_rng(52)
        moment = 0
        for trial in range(6):
            m = int(rng.integers(1, 4))
            ds = random_dataset(rng, m=m, d=2, n_lo=2, n_hi=12)
            hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
            kernel = tc.KernelSpec("rbf", 1.0) if trial % 2 else tc.KernelSpec("linear")
            b = rng.normal(size=(m, m))
            model = tc.fit_with_fixed_inverse(ds, kernel, hp, b @ b.T)
            moment += solver._moment_fit(kernel, ds)
            alpha, biases = tc.solve_alpha_b_direct(ds, kernel, model.coupling)
            scale = max(1.0, np.max(np.abs(alpha)), np.max(np.abs(biases)))
            np.testing.assert_allclose(model.dual_coefs, alpha, rtol=0, atol=1e-8 * scale)
            np.testing.assert_allclose(model.biases, biases, rtol=0, atol=1e-8 * scale)
        assert moment == 3


class TestCgStep:
    """The certified loop's covariance step: projected CG (_cg_solve)."""

    def test_matches_saddle_oracle(self):
        # from 0 and from a random feasible start
        rng = np.random.default_rng(49)
        single = 0
        for ds, kernel, c in smo_instances():
            single += int(np.any(ds.counts == 1))
            alpha_ref, b_ref = saddle_system_oracle(ds, kernel, c)
            scale = max(1.0, np.max(np.abs(alpha_ref)), np.max(np.abs(b_ref)))
            k = tc.assemble_kernel_matrix(ds, kernel, c)
            for start in (np.zeros(ds.total), zero_sum_start(rng, ds)):
                alpha, b, products = solver._cg_solve(ds, k.copy(), start)
                np.testing.assert_allclose(alpha, alpha_ref, rtol=0, atol=1e-9 * scale)
                np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-9 * scale)
                assert 1 <= products <= ds.total + 1
                assert not np.any(alpha[ds.counts[ds.point_task] == 1])
        assert single >= 3

    def test_capped_solve_stays_feasible(self):
        rng = np.random.default_rng(50)
        for ds, kernel, c in smo_instances(count=10, seed=44):
            start = zero_sum_start(rng, ds)
            alpha, _, products = solver._cg_solve(ds, tc.assemble_kernel_matrix(ds, kernel, c), start, cap=1)
            sums = np.bincount(ds.point_task, weights=alpha)
            assert np.max(np.abs(sums)) <= 1e-12 * np.max(np.abs(alpha)) and products <= 2

    def test_capped_steps_keep_the_trace_non_increasing(self, monkeypatch):
        # _certify keeps a candidate only where it lowers P, so a covariance
        # step of one CG iteration slows a fit but cannot make its trace rise;
        # the final refresh capped the same way is refused by its gate
        cg_solve, capped, refresh = solver._cg_solve, [], {"cap": None}

        def capped_loop(ds, k, start, rtol):
            capped.append(rtol)
            return cg_solve(ds, k, start, rtol, cap=1 if rtol > solver._CG_RTOL else refresh["cap"])

        monkeypatch.setattr(solver, "_cg_solve", capped_loop)
        rng = np.random.default_rng(20260811)
        fits = [_convergence_instance(rng) for _ in range(12)]
        fits = [(ds, kernel, hp) for ds, kernel, hp in fits if kernel.kind == "rbf"]
        fits.append((planted_dataset(3, 4, 20, 100, 3), tc.KernelSpec("linear"), tc.Hyperparams(0.03, 0.03)))
        for ds, kernel, hp in fits:
            refresh["cap"] = None
            trace = tc.fit(ds, kernel, hp).objective_trace
            assert all(b <= a + 1e-10 * abs(a) for a, b in zip(trace, trace[1:]))
            refresh["cap"] = 1
            with pytest.raises(errors.SingularSystem, match="solve residual"):
                tc.fit(ds, kernel, hp)
        assert len(fits) >= 4 and solver._CG_RTOL < max(capped)

    def test_loop_tolerance_follows_the_fit_tolerance(self):
        # min(1e-6, max(1e-10, 1e-3 sqrt(tol))): its square is 1e-6 tol
        # between tol 1e-14 and 1
        for tol, want in ((10.0, 1e-6), (1e-6, 1e-6), (1e-8, 1e-7), (1e-10, 1e-8), (1e-14, 1e-10), (1e-20, 1e-10)):
            assert solver._loop_cg_rtol(tol) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_loop_steps_stop_at_the_loop_tolerance(self, tol, monkeypatch):
        # every covariance step's CG stops at _loop_cg_rtol(tol); the
        # final refresh and a fixed structure's solve at 1e-10
        cg_solve, tolerances, steps = solver._cg_solve, [], []
        gram_form = solver._gram_form

        def counted(*args):
            form = gram_form(*args)
            return form._replace(solve=lambda coupling, factor, point: steps.append(1) or form.solve(coupling, factor, point))

        def recording(ds, k, start, rtol):
            tolerances.append(rtol)
            return cg_solve(ds, k, start, rtol)

        monkeypatch.setattr(solver, "_cg_solve", recording)
        monkeypatch.setattr(solver, "_gram_form", counted)
        ds, kernel = smooth_dataset(54321, 6, 150, 4), tc.KernelSpec("rbf", 1.0)
        hp, loop = tc.Hyperparams(0.03, 0.03, tol=tol), solver._loop_cg_rtol(tol)
        assert tc.fit(ds, kernel, hp).report.stop_reason == "gap"
        assert len(steps) >= 2 and tolerances == [loop] * len(steps) + [solver._CG_RTOL]
        tolerances.clear()
        tc.fit_with_fixed_inverse(ds, kernel, hp, tc.laplacian_mean_regularization(ds.m))
        assert tolerances == [solver._CG_RTOL]

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_loop_tolerance_keeps_the_exact_steps_fits(self, tol, monkeypatch):
        # against fits whose covariance steps run CG to 1e-10, on criterion
        # 2's RBF instances and the rbf-smo shape: the same iterations and
        # stop reasons, the same objectives within 1e-9 relative and the
        # same predictions within 1e-6
        fits = [(ds, kernel, tc.Hyperparams(hp.lam1, hp.lam2, tol=tol))
                for ds, kernel, hp in rbf_certificate_instances()]
        fits.append((smooth_dataset(54321, 6, 150, 4), tc.KernelSpec("rbf", 1.0), tc.Hyperparams(0.03, 0.03, tol=tol)))
        models = [tc.fit(ds, kernel, hp) for ds, kernel, hp in fits]
        monkeypatch.setattr(solver, "_loop_cg_rtol", lambda tol: solver._CG_RTOL)
        products = [0, 0]
        for (ds, kernel, hp), model in zip(fits, models):
            exact = tc.fit(ds, kernel, hp)
            assert len(model.objective_trace) == len(exact.objective_trace)
            assert model.report.stop_reason == exact.report.stop_reason
            final = exact.objective_trace[-1]
            assert abs(model.objective_trace[-1] - final) <= 1e-9 * abs(final)
            ids = [ds.task_ids[i] for i in ds.point_task]
            want = tc.predict_batch(exact, ids, ds.inputs)
            np.testing.assert_allclose(tc.predict_batch(model, ids, ds.inputs), want, rtol=0, atol=1e-6)
            products[0] += model.report.products
            products[1] += exact.report.products
        assert len(fits) > 100 and products[0] < products[1]


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


def coupled_oracle(gram, cross, coupling):
    """The m*d form of the linear coefficient step: z solves
    (I + G (C (x) I)) z = c, block (t, s) delta_ts I + G_t C[t, s], and the
    weights are w = C z (rows)."""
    m, d = cross.shape
    system = np.eye(m * d) + np.einsum("tij,ts->tisj", gram, coupling).reshape(m * d, m * d)
    return coupling @ np.linalg.solve(system, cross.ravel()).reshape(m, d)


def eigh_factor(coupling):
    """F (m x r) with C = F F^T for a dense coupling C, by one eigh, its
    eigenvalues at or below 1e-12 of the largest cut: an oracle for the
    factors a fit takes from the decomposition that built C."""
    values, vectors = np.linalg.eigh(coupling)
    kept = values > 1e-12 * values[-1]
    return vectors[:, kept] * np.sqrt(values[kept])


def assert_weights_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(want))))


class TestLowRankStep:
    kernel = tc.KernelSpec("linear")

    def test_singular_coupled_system_is_refused(self):
        # I + F^T F (x) G = 0 at G = -I and C = F F^T = I: LAPACK's
        # LinAlgError comes out as SingularSystem, for one system and for a stack
        gram, cross, factor = -np.eye(2)[None], np.ones((1, 2)), np.eye(1)
        with pytest.raises(errors.SingularSystem, match="Singular matrix"):
            solver._range_solve(gram, cross, factor)
        with pytest.raises(errors.SingularSystem, match="Singular matrix"):
            solver._range_solve(np.stack([gram, -gram]), np.stack([cross, cross]), np.stack([factor] * 2))

    def test_range_solve_matches_the_m_d_system(self):
        # weights of every rank, lam2 > 0 and lam2 = 0 (C a scaled projection)
        rng = np.random.default_rng(33)
        for trial in range(60):
            m, d = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            gram, cross = solver._task_moments(random_dataset(rng, m=m, d=d, n_lo=1, n_hi=2 * d + 3))[4:]
            rank = int(rng.integers(1, min(m, d) + 1))
            w = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, d))
            lam1 = float(10 ** rng.uniform(-2, 0))
            hp = tc.Hyperparams(lam1, 0.0 if trial % 3 == 0 else lam1 * float(10 ** rng.uniform(-1.5, 0.5)))
            left, values, _ = np.linalg.svd(w, full_matrices=False)
            _, coupling, factor = solver._svd_coupling(left, values, hp)
            assert factor.shape == (m, rank)
            np.testing.assert_allclose(factor @ factor.T, coupling, rtol=0, atol=1e-12 * np.max(np.abs(coupling)))
            want = coupled_oracle(gram, cross, coupling)
            assert_weights_close(solver._range_solve(gram, cross, factor), want)
            assert_weights_close(solver._range_solve(gram, cross, eigh_factor(coupling)), want)

    def test_stacked_range_solve_pads_to_the_largest_rank(self):
        # a stack of members of mixed rank, one of them with zero weights:
        # each member's weights are its own m*d solution
        rng = np.random.default_rng(34)
        m, d = 4, 3
        for lam2 in (0.0, 0.05):
            hp = tc.Hyperparams(0.1, lam2)
            for ranks in ((1, 3, 2), (2, 0, 1), (0, 0), (3, 3)):
                moments = [solver._task_moments(random_dataset(rng, m=m, d=d, n_lo=2, n_hi=9)) for _ in ranks]
                gram, cross = np.array([mo[4] for mo in moments]), np.array([mo[5] for mo in moments])
                w = np.array([rng.normal(size=(m, r)) @ rng.normal(size=(r, d)) for r in ranks])
                left, values, _ = np.linalg.svd(w, full_matrices=False)
                _, coupling, factor = solver._svd_coupling(left, values, hp)
                assert factor.shape[-1] == (m if 0 in ranks else max(ranks))
                solved = solver._range_solve(gram, cross, factor)
                for k in range(len(ranks)):
                    np.testing.assert_allclose(factor[k] @ factor[k].T, coupling[k], rtol=0, atol=1e-12)
                    assert_weights_close(solved[k], coupled_oracle(gram[k], cross[k], coupling[k]))

    def test_range_solve_on_fixed_inverse_couplings(self):
        # (lam1 I + lam2 L)^{-1} has full rank: the factor keeps all m columns
        rng = np.random.default_rng(35)
        for trial in range(30):
            m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            ds = random_dataset(rng, m=m, d=d, n_lo=1, n_hi=2 * d + 3)
            gram, cross = solver._task_moments(ds)[4:]
            b = rng.normal(size=(m, m))
            inverse = b @ b.T if trial % 2 else tc.laplacian_mean_regularization(m)
            coupling = np.linalg.inv(0.1 * np.eye(m) + 0.5 * inverse)
            factor = eigh_factor(coupling)
            assert factor.shape == (m, m)
            assert_weights_close(solver._range_solve(gram, cross, factor), coupled_oracle(gram, cross, coupling))

    def test_linear_2k_fit_solves_on_the_weights_rank(self, monkeypatch):
        # the benchmark's linear-2k data has rank-3 weights: the systems have
        # side rank*d (30 at the certified weights), never m*d = 100
        ds = planted_dataset(12345, tasks=10, points=200, dim=10, rank=3)
        sides, ranks, range_solve = [], [], solver._range_solve

        def spy(gram, cross, factor):
            ranks.append(factor.shape[-1])
            return range_solve(gram, cross, factor)

        def solve(system, rhs):
            sides.append(system.shape[-1])
            return np.linalg.inv(system) @ rhs

        monkeypatch.setattr(solver, "_range_solve", spy)
        monkeypatch.setattr(solver.np.linalg, "solve", solve)
        model = tc.fit(ds, self.kernel, tc.Hyperparams(0.03, 0.03))
        assert model.report.stop_reason == "gap" and len(model.objective_trace) == 9
        assert sides == [10 * r for r in ranks] and len(sides) == 8
        assert 100 not in sides and sides[-3:] == [30, 30, 30]

    def test_stacked_refreshes_solve_on_each_problems_rank(self, monkeypatch):
        # the benchmark's cv-grid data: its 5 folds run as one stack, whose
        # factors are padded to the stack's largest rank; each fold's final
        # refresh drops its zero columns and solves at its own rank * d
        ds = planted_dataset(777, tasks=8, points=40, dim=5, rank=2)
        factors, low_rank_solve = [], solver._low_rank_solve

        def spy(fold, moments, coupling, factor):
            factors.append(factor)
            np.testing.assert_allclose(factor @ factor.T, coupling, rtol=0, atol=1e-12 * np.max(np.abs(coupling)))
            return low_rank_solve(fold, moments, coupling, factor)

        monkeypatch.setattr(solver, "_low_rank_solve", spy)
        grid = (0.01, 0.03, 0.1)
        result = tc.cross_validate(tc.ExperimentConfig("linear", grid, grid, folds=5, seed=1), ds)
        assert len(factors) == 45 and all(f.any(axis=0).all() for f in factors)
        ranks = [f.shape[1] for f in factors]
        assert any(len(set(ranks[k:k + 5])) > 1 for k in range(0, 45, 5))  # mixed ranks in one stack
        assert (result.lam1, result.lam2) == (0.01, 0.01)  # the point chosen with padded refreshes

    def test_no_fit_eigendecomposes_its_coupling(self, monkeypatch):
        # C's factor comes from the decomposition that built C: the SVD of
        # the weights, or a fixed inverse's one sym_eig of L
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: shapes.append(a.shape) or eigh(a, *args))
        ds = planted_dataset(12345, tasks=10, points=200, dim=10, rank=3)
        assert tc.fit(ds, self.kernel, tc.Hyperparams(0.03, 0.03)).report.stop_reason == "gap"
        assert shapes == []
        folds = planted_dataset(777, tasks=8, points=40, dim=5, rank=2)
        result = tc.cross_validate(tc.ExperimentConfig("linear", (0.01, 0.1), (0.01,), folds=5), folds)
        assert len(result.reports) == 10 and shapes == []
        tc.fit_with_fixed_inverse(ds, self.kernel, tc.Hyperparams(0.03, 0.03), tc.laplacian_mean_regularization(10))
        assert shapes == [(10, 10)]

    def test_matches_dense_direct_solve(self):
        for ds, hp, omega in rescaled(low_rank_instances()):
            c = tc.coupling_matrix(omega, hp)
            alpha, b, product = solver._coefficient_step(ds, self.kernel)(c, eigh_factor(c))
            a_ref, b_ref = tc.solve_alpha_b_direct(ds, self.kernel, c)
            np.testing.assert_allclose(alpha, a_ref, rtol=0, atol=1e-8 * np.max(np.abs(a_ref)))
            np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-8 * np.max(np.abs(b_ref)))
            k = tc.assemble_kernel_matrix(ds, self.kernel, c)
            np.testing.assert_allclose(solver._fitted_values(ds, product, c), k @ alpha, rtol=0,
                                       atol=1e-8 * max(1.0, np.max(np.abs(k @ alpha))))
            blocked = solver._spread(ds.point_task, ds.m, alpha).T @ product
            np.testing.assert_allclose(
                c @ blocked @ c, tc.gram_wtw(alpha, ds, self.kernel, omega, hp),
                rtol=1e-8, atol=1e-10,
            )

    def test_auto_fit_matches_direct_fit(self):
        # the low-rank refresh against the dense direct solve at its coupling
        rng = np.random.default_rng(31)
        for ds, hp, _ in low_rank_instances():
            auto = tc.fit(ds, self.kernel, hp)
            alpha, b = tc.solve_alpha_b_direct(ds, self.kernel, auto.coupling)
            direct = dataclasses.replace(auto, dual_coefs=alpha, biases=b)
            trace = auto.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-10 * abs(a)
            ids = [ds.task_ids[i] for i in rng.integers(ds.m, size=10)]
            xs = ds.inputs[rng.integers(ds.total, size=10)] + rng.normal(size=(10, ds.dim))
            np.testing.assert_allclose(
                tc.predict_batch(auto, ids, xs), tc.predict_batch(direct, ids, xs), rtol=0, atol=1e-6
            )

    @pytest.mark.parametrize("name", ["direct", "smo"])
    def test_every_solver_takes_the_low_rank_refresh(self, name, toy, toy_hp, monkeypatch):
        # on the toy and linear-2k: auto's model bit for bit, and no base Gram
        ds, hp = planted_dataset(12345, tasks=10, points=200, dim=10, rank=3), tc.Hyperparams(0.03, 0.03)
        fits = [lambda s: tc.fit(toy, self.kernel, toy_hp, solver=s),
                lambda s: tc.fit(ds, self.kernel, hp, solver=s)]
        want = [f("auto") for f in fits]

        def refuse(*args, **kwargs):
            raise AssertionError("a base Gram was built")

        monkeypatch.setattr(solver, "base_kernel_matrix", refuse)
        for f, model in zip(fits, want):
            assert_same_fit(f(name), model)

    @pytest.mark.parametrize("shift", [1e3, 1e4, 1e6])
    def test_fits_far_from_the_origin(self, shift, tmp_path):
        # the linear-2k data with shift added to every input: the fit under
        # each solver value stops on the gap and predicts the unmoved fit's
        # values, and the model's file round trip is bit for bit
        ds, hp = planted_dataset(12345, tasks=10, points=200, dim=10, rank=3), tc.Hyperparams(0.03, 0.03)
        ids = [ds.task_ids[i] for i in ds.point_task]
        want = tc.predict_batch(tc.fit(ds, self.kernel, hp), ids, ds.inputs)
        moved = tc.MultiTaskDataset([(t.task_id, t.inputs + shift, t.targets) for t in ds.tasks])
        for name in solver.SOLVERS:
            model = tc.fit(moved, self.kernel, hp, solver=name)
            assert model.report.stop_reason == "gap"
            got = tc.predict_batch(model, ids, moved.inputs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * np.max(np.abs(want)))
        tc.save_model(model, tmp_path / "model.txt")
        loaded = tc.load_model(tmp_path / "model.txt")
        for name in ("dual_coefs", "biases", "coupling", "support_inputs"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        assert loaded.objective_trace == model.objective_trace
        np.testing.assert_array_equal(tc.predict_batch(loaded, ids, moved.inputs), got)

    @pytest.mark.xfail(
        strict=True,
        raises=errors.SingularSystem,
        reason="ROADMAP item 5: wide linear data fits on the uncentred base Gram, whose entries grow "
        "as shift^2 d, so at a shift of 1e4 the final refresh's saddle residual fails its gate",
    )
    def test_wide_fit_far_from_the_origin(self):
        # the wide planted data (m*d >= N, so the Gram form) with 1e4 added to
        # every input: at the shifted queries, the unshifted fit's predictions
        # within 1e-6 relative
        ds, hp = planted_dataset(3, 10, 30, 200, 3), tc.Hyperparams(0.03, 0.03)
        ids = [ds.task_ids[i] for i in ds.point_task]
        want = tc.predict_batch(tc.fit(ds, self.kernel, hp), ids, ds.inputs)
        moved = tc.MultiTaskDataset([(t.task_id, t.inputs + 1e4, t.targets) for t in ds.tasks])
        got = tc.predict_batch(tc.fit(moved, self.kernel, hp), ids, moved.inputs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.max(np.abs(want)))

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
            raise AssertionError("a path other than projected CG ran")

        steps, cg = [], []
        gram_form, cg_solve = solver._gram_form, solver._cg_solve

        def counted(*args):
            form = gram_form(*args)
            return form._replace(solve=lambda coupling, factor, point: steps.append(1) or form.solve(coupling, factor, point))

        for name in ("_low_rank_solve", "solve_linear", "_smo_solve"):
            monkeypatch.setattr(solver, name, refuse)
        monkeypatch.setattr(solver, "_gram_form", counted)
        monkeypatch.setattr(solver, "_cg_solve", lambda *args: cg.append(1) or cg_solve(*args))
        rng = np.random.default_rng(32)
        ds = random_dataset(rng, m=2, d=5, n_lo=3, n_hi=5)
        assert ds.m * ds.dim >= ds.total
        tc.fit(ds, self.kernel, tc.Hyperparams(lam1=0.2, lam2=0.1))
        # one CG solve per covariance step, and one more, the final refresh
        assert len(steps) >= 1 and len(cg) == len(steps) + 1


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

    def test_penalties_are_half_s_dot_c(self):
        # at any state, not only the solver's, the objective equals the loss
        # plus lam1/2 tr G + lam2/2 tr(Omega^+ G) with G = W^T W, also for a
        # rank-deficient Omega and for lam2 = 0
        rng = np.random.default_rng(12)
        for trial in range(300):
            m, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            ds = random_dataset(rng, m=m, d=d, n_lo=1, n_hi=8)
            kernel = tc.KernelSpec("rbf", float(rng.uniform(0.5, 2.0))) if trial % 2 else tc.KernelSpec("linear")
            lam1 = float(10 ** rng.uniform(-2, 0))
            hp = tc.Hyperparams(lam1, 0.0 if trial % 3 == 0 else lam1 * float(10 ** rng.uniform(-1, 1)))
            factor = rng.normal(size=(m, int(rng.integers(1, m + 1))))
            omega = factor @ factor.T
            omega = tc.TaskCovariance(omega / np.trace(omega))
            alpha, b = rng.normal(size=ds.total), rng.normal(size=m)
            fitted = tc.assemble_kernel_matrix(ds, kernel, tc.coupling_matrix(omega, hp)) @ alpha
            loss = float(np.sum((ds.targets - fitted - b[ds.point_task]) ** 2 / ds.counts[ds.point_task]))
            gram = tc.gram_wtw(alpha, ds, kernel, omega, hp)
            want = loss + 0.5 * hp.lam1 * np.trace(gram) + 0.5 * hp.lam2 * tc.trace_pinv_product(omega.matrix, gram)
            np.testing.assert_allclose(tc.objective_value(ds, alpha, b, omega, kernel, hp), want, rtol=1e-12)

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
        # the relative gap stop follows the fit's own scale, so small
        # targets run the unscaled fit's iterations, and the covariance is
        # formed from the weight Gram scaled to a unit largest diagonal
        ds = random_dataset(np.random.default_rng(0), m=3, d=3, n_lo=8, n_hi=12)
        hp = tc.Hyperparams(lam1=0.1, lam2=0.1)
        for kernel, atol in ((tc.KernelSpec("linear"), 1e-6), (tc.KernelSpec("rbf", 1.0), 1e-8)):
            ref = tc.fit(ds, kernel, hp)
            assert np.max(np.abs(ref.covariance.matrix - np.eye(3) / 3)) > 0.01
            for factor in (1e-10, 1e-13):
                small = tc.MultiTaskDataset([(t.task_id, t.inputs, factor * t.targets) for t in ds.tasks])
                got = tc.fit(small, kernel, hp)
                assert len(got.objective_trace) == len(ref.objective_trace)
                assert got.report.stop_reason == ref.report.stop_reason == "gap"
                np.testing.assert_allclose(got.covariance.matrix, ref.covariance.matrix, rtol=0, atol=atol)

    def test_zero_targets_terminate_converged(self):
        ds = tc.MultiTaskDataset([("a", [[1.0], [2.0]], [0.0, 0.0]),
                                  ("b", [[3.0], [4.0]], [0.0, 0.0])])
        model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.1, lam2=0.1))
        np.testing.assert_allclose(model.dual_coefs, 0.0, atol=1e-12)
        np.testing.assert_allclose(model.covariance.matrix, np.eye(2) / 2)
        assert model.report == tc.FitReport("gap", 0.0, 0, 1, restarts=1)  # W = 0 is not below P(0)

    @pytest.mark.parametrize("level", [1e-13, 1e-6, 0.1, 1.0, 1e6])
    def test_constant_targets_end_unrelated(self, level):
        # each task's targets are constant, so the weights are 0, not a fit
        # to the rounding of the per-task means
        rng = np.random.default_rng(19)
        tasks = [(f"t{i}", rng.normal(size=(n, 3)), np.full(n, level * (i + 1)))
                 for i, n in enumerate((7, 25, 13))]
        ds = tc.MultiTaskDataset(tasks)
        model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.1, lam2=0.1))
        np.testing.assert_array_equal(model.covariance.matrix, np.eye(3) / 3)
        np.testing.assert_array_equal(tc.reconstruct_weights(model), 0.0)
        assert model.report.stop_reason == "gap"

    def test_smo_path_matches_direct_path(self, toy_hp):
        # linear data with m*d >= N ends on the base Gram: the two give one
        # model, bit for bit
        ds = wide_linear_dataset()
        direct = tc.fit(ds, tc.KernelSpec("linear"), toy_hp, solver="direct")
        assert_same_fit(tc.fit(ds, tc.KernelSpec("linear"), toy_hp, solver="smo"), direct)

    @pytest.mark.parametrize("problem", ["rbf-smo", "wide-planted", "toy-rbf", "uneven-toy-rbf"])
    def test_every_solver_gives_the_same_model(self, problem, toy):
        # solver is checked and otherwise unused: every accepted value runs
        # the one final step
        uneven = tc.MultiTaskDataset([(t.task_id, t.inputs[1:], t.targets[1:]) if t.task_id == "task2"
                                      else (t.task_id, t.inputs, t.targets) for t in toy.tasks])
        ds, kernel = {
            "rbf-smo": (smooth_dataset(54321, 6, 150, 4), tc.KernelSpec("rbf", 1.0)),
            "wide-planted": (planted_dataset(3, 10, 30, 200, 3), tc.KernelSpec("linear")),
            "toy-rbf": (toy, tc.KernelSpec("rbf", 1.0)),
            "uneven-toy-rbf": (uneven, tc.KernelSpec("rbf", 1.0)),
        }[problem]
        hp = tc.Hyperparams(0.03, 0.03)
        auto = tc.fit(ds, kernel, hp)
        for name in ("auto", "direct", "smo"):
            assert_same_fit(tc.fit(ds, kernel, hp, solver=name), auto)

    def test_restarts_count_the_repeated_trace_values(self, toy):
        # each iteration of a cold fit appends the kept value: a lower one
        # where it keeps the candidate, the last one again on a restart
        def repeats(model):
            trace = model.objective_trace[:model.report.iterations + 1]
            return sum(a == b for a, b in zip(trace, trace[1:]))

        wide, rbf, linear = wide_linear_dataset(), tc.KernelSpec("rbf", 1.0), tc.KernelSpec("linear")
        stack = [planted_dataset(seed, 4, 12, 2, 1) for seed in range(4)]  # four moment-form problems
        counts = []
        for lam1, lam2, tol in [(0.01, 0.005, 1e-10), (0.03, 0.3, 1e-6), (0.01, 1.0, 1e-8)]:
            for max_iters in (50, 3):
                hp = tc.Hyperparams(lam1, lam2, tol=tol, max_iters=max_iters)
                models = [tc.fit(toy, rbf, hp), tc.fit(wide, linear, hp)]
                # the first point of a path is cold, and the stack runs as one
                models += [model for _, _, model in solver._fit_path(stack, linear, [hp])]
                for model in models:
                    assert model.report.restarts == repeats(model)
                    counts.append(model.report.restarts)
        assert max(counts) >= 2 and counts.count(0) >= 1

    def test_report_types_and_products(self, toy, toy_hp):
        # gap is a Python float on every path; products counts the CG
        # products of a Gram-form fit's covariance steps, 0 on the moments
        linear, rbf = (tc.fit(toy, kernel, toy_hp) for kernel in (tc.KernelSpec("linear"), tc.KernelSpec("rbf", 2.0)))
        for model in (linear, rbf):
            assert type(model.report.gap) is float and type(model.report.products) is int
        assert linear.report.products == 0 and rbf.report.products > 0

    @pytest.mark.parametrize("kernel", [tc.KernelSpec("linear"), tc.KernelSpec("rbf", 1.0)])
    def test_unknown_solver_is_refused(self, kernel, toy, toy_hp):
        # on the moments (the toy's linear fit) and on the base Gram alike
        with pytest.raises(ValueError, match="unknown solver 'lu'"):
            tc.fit(toy, kernel, toy_hp, solver="lu")

    def test_requires_positive_lam1(self, toy):
        with pytest.raises(ValueError):
            tc.fit(toy, tc.KernelSpec("linear"), tc.Hyperparams(lam1=0.0, lam2=0.1))


def certificate_instances():
    """Linear problems for the duality-gap stop, each at tol 1e-8: ten
    random ones with more tasks than input dimensions (where the first
    covariance of the old alternation has rank at most d < m and its null
    space froze), then the cv-grid-shaped data at its nine grid points."""
    rng = np.random.default_rng(60)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        ds = random_dataset(rng, m=int(rng.integers(d + 1, 7)), d=d, n_lo=4, n_hi=15)
        lam1 = float(10 ** rng.uniform(-2, 0))
        yield ds, tc.Hyperparams(lam1, lam1 * float(10 ** rng.uniform(-1, 0.5)), tol=1e-8)
    ds = planted_dataset(777, tasks=8, points=40, dim=5, rank=2)
    for lam1 in (0.01, 0.03, 0.1):
        for lam2 in (0.01, 0.03, 0.1):
            yield ds, tc.Hyperparams(lam1, lam2, tol=1e-8)


# The final objective of the alternation that fit ran before the gap stop,
# on certificate_instances: at tol 1e-8, or at the default tol 1e-6 on the
# three instances (lam2 = 0.1) where at 1e-8 it raised NonDecreaseDetected.
ALTERNATION_FIT_OBJECTIVES = (
    0.103223897572616, 0.01622617712202409, 4.444672654572266, 0.07141561685439152,
    2.04553029427373, 0.7318820923748719, 0.12254231361110828, 0.10827051767449511,
    1.7690405180394713, 1.4449386784734315, 1.5125541794115782, 2.5327616766552676,
    5.765433023151995, 2.051545870300925, 3.0559972207436448, 6.233398705036714,
    3.8605603051866377, 4.815853122933104, 7.813172325990195,
)


def rbf_certificate_instances():
    """Criterion 2's RBF instances, each at tol 1e-8."""
    rng = np.random.default_rng(20260811)
    for _ in range(200):
        ds, kernel, hp = _convergence_instance(rng)
        if kernel.kind == "rbf":
            yield ds, kernel, tc.Hyperparams(hp.lam1, hp.lam2, tol=1e-8)


# The final objective of the alternation that fit ran on non-linear kernels
# before the Gram form, on rbf_certificate_instances (at tol 1e-8).
ALTERNATION_RBF_FIT_OBJECTIVES = (
    9.335109557788464, 5.715301563428904, 0.21860841192993463, 0.840618360440944,
    0.1072826715806772, 0.14065257655076657, 6.51068094928491, 2.25957048739392,
    12.343477059921105, 2.3447304224641146, 1.5909712760656545, 3.5646736220491375,
    0.16928857236841757, 1.5159138216502597, 0.6661704423338328, 2.7002154160054155,
    0.19741427337560885, 4.63216472970084, 0.3978645700725945, 2.790849778772368,
    0.8669595516732684, 1.6259016474911459, 0.32170165478666884, 2.658452393833651,
    3.600167823877071, 4.0690935705497635, 8.072773290231355, 3.0622592167211837,
    0.08641034196890204, 2.278578546618832, 4.122128027450302, 1.68525205779154,
    6.16420245327992, 0.8848096311444826, 0.3195243719131128, 9.982527788453709,
    1.8548578781036542, 7.6787584116470065, 1.998465245874537, 0.6799484505422004,
    5.21206178167703, 1.9733071161566098, 4.140061745544446, 0.8766922209949374,
    1.2946308801930246, 2.2519823765562808, 0.4468228446280443, 0.12891476760677872,
    0.374937083855608, 4.791772330599342, 3.818052061168725, 3.3511308697694524,
    2.179138815353048, 0.2424256968564251, 4.757449292532915, 0.43925175188487875,
    1.7158999809761788, 1.1734499367380684, 3.122505934158739, 0.9572173125640397,
    4.1830746517005375, 2.384519636069725, 0.6736592398857798, 1.6417910576300512,
    4.495090149460182, 2.4750358406407966, 3.1746751413971346, 0.6733112842650235,
    1.1230086495606495, 2.9615596967582754, 0.1336528340018497, 7.010948020177996,
    4.889614998336912, 0.5530181487999715, 2.43529606281101, 3.1933152017113584,
    1.674469101422424, 8.349509233334096, 1.0234939494472568, 3.4895875086656467,
    16.714766914196446, 0.22048001625605335, 2.344233806230468, 13.786747800971721,
    1.1549336056693862, 2.8714149177649086, 1.524838453495017, 2.6645951653269955,
    0.44342248980637294, 3.2639662540869607, 3.1630395300890846, 3.2576916182863838,
    1.8857644239701843, 6.296835320171839, 9.632570341950368, 6.264887966738681,
    6.383680984661279, 3.2391645651285286, 6.96221380635601, 2.7517620552779065,
    0.16482978061329076, 2.9649531446560675, 0.4236434434007261, 6.058423113441066,
    3.5348532734445652, 0.9694191325838583, 0.9036243562112427, 1.4337234844299567,
    0.12829560054916125, 5.739476997207104, 3.9832590014797096, 1.1430758584906726,
    3.6497635817541147, 1.3088019243238447, 2.3280500623449476, 4.949356083649609,
    0.2284328319604603, 3.8403885575498995, 14.769824105415287, 5.852757021152398,
)


def primal_objective(ds, hp, w, biases=None):
    """P at explicit (d, m) weights and biases, from the definition: mean
    squared loss per task, lam1/2 ||W||_F^2 and lam2/2 ||W||_*^2. Without
    biases, each task takes its best one."""
    loss = 0.0
    for i, t in enumerate(ds.tasks):
        residuals = t.targets - t.inputs @ w[:, i]
        residuals -= residuals.mean() if biases is None else biases[i]
        loss += float(np.mean(residuals**2))
    norm = float(np.linalg.svd(w, compute_uv=False).sum())
    return loss + 0.5 * hp.lam1 * float(np.sum(w**2)) + 0.5 * hp.lam2 * norm**2


class TestCertificate:
    kernel = tc.KernelSpec("linear")

    def test_gap_closes_below_the_alternation(self):
        for k, (ds, hp) in enumerate(certificate_instances()):
            model = tc.fit(ds, self.kernel, hp)
            assert model.report.stop_reason == "gap"
            assert 0.0 <= model.report.gap <= 1e-8
            value = primal_objective(ds, hp, tc.reconstruct_weights(model), model.biases)
            assert value <= ALTERNATION_FIT_OBJECTIVES[k]
            # the last trace entry is P at the stored model
            assert abs(model.objective_trace[-1] - value) <= 1e-8 * value
            trace = model.objective_trace
            assert all(b <= a + 1e-10 * abs(a) for a, b in zip(trace, trace[1:]))

    def test_kernel_gap_closes_at_the_alternation(self):
        # the alternation ends within 2e-9 relative of the optimum on these
        # instances (the covariance stays full rank), so the certified fit
        # may end above it, by no more than its tol. The final refresh, a
        # CG solve, agrees with the public LU solve at its coupling, also at
        # N = 2000
        instances = list(rbf_certificate_instances())
        assert len(instances) == len(ALTERNATION_RBF_FIT_OBJECTIVES)
        large = (smooth_dataset(7, 8, 250, 4), tc.KernelSpec("rbf", 1.0),
                 tc.Hyperparams(0.03, 0.03, tol=1e-8))
        for k, (ds, kernel, hp) in enumerate(instances + [large]):
            model = tc.fit(ds, kernel, hp)
            alpha, b = tc.solve_alpha_b_direct(ds, kernel, model.coupling)
            direct = dataclasses.replace(model, dual_coefs=alpha, biases=b)
            assert model.report.stop_reason == "gap"
            assert 0.0 <= model.report.gap <= hp.tol
            if k < len(instances):
                assert model.objective_trace[-1] <= ALTERNATION_RBF_FIT_OBJECTIVES[k] * (1.0 + hp.tol)
            ids = [ds.task_ids[i] for i in ds.point_task]
            want = tc.predict_batch(direct, ids, ds.inputs)
            gap = tc.predict_batch(model, ids, ds.inputs) - want
            assert np.max(np.abs(gap)) <= 1e-8 * np.max(np.abs(want))

    def test_gap_bounds_the_distance_to_any_point(self):
        # P - gap |P| is the dual bound: no weights nearby go below it
        rng = np.random.default_rng(61)
        for ds, hp in list(certificate_instances())[::3]:
            model = tc.fit(ds, self.kernel, hp)
            value = model.objective_trace[-1]
            bound = value - model.report.gap * abs(value)
            w = tc.reconstruct_weights(model)
            for eps in (1e-1, 1e-2, 1e-3):
                for _ in range(20):
                    probe = w + eps * np.abs(w).max() * rng.normal(size=w.shape)
                    assert primal_objective(ds, hp, probe) >= bound

    def test_shrink_matches_brute_force(self):
        # argmin over s >= 0 of ||s - v||^2 / 2 + a/2 (sum s)^2, by trying
        # every active prefix with its stationary point and keeping the best
        rng = np.random.default_rng(62)
        for _ in range(200):
            v = np.sort(rng.normal(size=int(rng.integers(1, 7))) * rng.uniform(0.1, 3.0))[::-1]
            a = float(10 ** rng.uniform(-2, 1))

            def objective(s):
                return 0.5 * float(np.sum((s - v) ** 2)) + 0.5 * a * float(s.sum()) ** 2

            best = np.zeros_like(v)
            for k in range(1, v.size + 1):
                s = np.zeros_like(v)
                s[:k] = v[:k] - a * v[:k].sum() / (1.0 + k * a)
                if np.all(s >= 0) and objective(s) < objective(best):
                    best = s
            got = solver._shrink(v, a)
            assert np.all(got >= 0)
            np.testing.assert_allclose(got, best, rtol=0, atol=1e-12)

    def test_prox_and_conjugate_match_their_definitions(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            point = rng.normal(size=(m, d))
            a = float(10 ** rng.uniform(-2, 0.5))

            def prox_objective(x):
                norm = float(np.linalg.svd(x, compute_uv=False).sum())
                return 0.5 * float(np.sum((x - point) ** 2)) + 0.5 * a * norm**2

            left, values, right = np.linalg.svd(point, full_matrices=False)
            prox = (left * solver._shrink(values, a)) @ right
            for eps in (1e-1, 1e-3, 1e-5):
                for _ in range(20):
                    probe = prox + eps * rng.normal(size=prox.shape)
                    assert prox_objective(probe) >= prox_objective(prox) - 1e-12

            hp = tc.Hyperparams(float(10 ** rng.uniform(-2, 0)), float(10 ** rng.uniform(-2, 0)))
            z = np.sort(np.abs(rng.normal(size=min(m, d))))[::-1]

            def conjugate_term(s):
                return float(z @ s) - 0.5 * hp.lam1 * float(s @ s) - 0.5 * hp.lam2 * float(s.sum()) ** 2

            s_star = solver._shrink(z / hp.lam1, hp.lam2 / hp.lam1)
            value = solver._penalty_conjugate(z, hp)
            assert abs(value - conjugate_term(s_star)) <= 1e-12 * max(1.0, abs(value))
            for eps in (1e-1, 1e-3, 1e-5):
                for _ in range(20):
                    probe = np.clip(s_star + eps * rng.normal(size=z.size), 0.0, None)
                    assert conjugate_term(probe) <= value + 1e-12 * max(1.0, abs(value))

    def test_svd_coupling_is_the_covariance_steps_coupling(self):
        rng = np.random.default_rng(64)
        for trial in range(40):
            m, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            w = rng.normal(size=(m, min(m, d))) @ rng.normal(size=(min(m, d), d))
            if trial % 4 == 0 and m > 1:
                w[0] = 0.0  # rank deficient: a task with zero weights
            hp = tc.Hyperparams(0.1, 0.0 if trial % 5 == 0 else 0.05)
            left, values, _ = np.linalg.svd(w, full_matrices=False)
            omega, coupling, _ = solver._svd_coupling(left, values, hp)
            want = tc.update_omega(w @ w.T)
            np.testing.assert_allclose(omega, want.matrix, rtol=0, atol=1e-12)
            want = tc.coupling_matrix(want, hp)
            np.testing.assert_allclose(coupling, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
        # zero weights: the unrelated covariance
        omega, coupling, _ = solver._svd_coupling(np.eye(2), np.zeros(2), hp)
        unrelated = tc.TaskCovariance.unrelated(2)
        assert np.array_equal(omega, unrelated.matrix)
        assert np.array_equal(coupling, tc.coupling_matrix(unrelated, hp))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_linear_2k_data_fits_at_tight_tolerances(self, tol):
        # the alternation raised NonDecreaseDetected here at tol 1e-9
        ds = planted_dataset(12345, tasks=10, points=200, dim=10, rank=3)
        model = tc.fit(ds, self.kernel, tc.Hyperparams(0.03, 0.03, tol=tol))
        assert model.report.stop_reason in ("gap", "iteration cap")
        trace = model.objective_trace
        assert all(b <= a for a, b in zip(trace[:-1], trace[1:-1]))

    def test_wide_data_closes_the_gap(self):
        # m*d = 400 > N = 80: the covariance step solves the N-point system
        ds = planted_dataset(3, tasks=4, points=20, dim=100, rank=3)
        model = tc.fit(ds, self.kernel, tc.Hyperparams(0.03, 0.03))
        assert model.report.stop_reason == "gap" and model.report.gap <= 1e-6

    def test_centred_loss_forms_agree(self, monkeypatch):
        # the moment form of a linear fit (m*d < N) and the Gram form
        # (otherwise) with K = X X^T, on the same data: W = B~^T X~ for the
        # centred coefficients B~ and centred rows X~, the Gram form's point
        # holding B~ and K B~, K uncentred, and the exact image of its dual
        # point. The covariance steps agree where the Gram form's CG runs
        # to the refresh's 1e-10; at the loop's own tolerance its CG
        # residual meets _loop_cg_rtol(tol) ||P y||
        rng = np.random.default_rng(65)
        for trial in range(20):
            m, d = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            ds = random_dataset(rng, m=m, d=d, n_lo=1, n_hi=2 * d + 2)
            hp = tc.Hyperparams(0.1, 0.05)
            moments = solver._task_moments(ds)
            x = moments[2]
            base = tc.base_kernel_matrix(self.kernel, ds.inputs)
            moment_form = solver._moment_form(ds, moments, hp)
            with monkeypatch.context() as dense:  # the Gram form's step, also where m*d < N
                dense.setattr(solver, "_moment_fit", lambda kernel, ds: False)
                step = solver._coefficient_step(ds, self.kernel, base=base)
            gram_form = solver._gram_form(ds, base, step, hp)
            with monkeypatch.context() as exact:
                exact.setattr(solver, "_loop_cg_rtol", lambda tol: solver._CG_RTOL)
                exact_form = solver._gram_form(ds, base, step, hp)
            b = rng.normal(size=(ds.total, m))
            b -= (solver._spread(ds.point_task, m, 1.0).T @ b / ds.counts[:, None])[ds.point_task]
            point = solver._gram_point(ds, base, solver._centred_targets(ds), np.concatenate([b.ravel(), (base @ b).ravel()]))
            weights = (x.T @ b).T
            coupling = tc.coupling_matrix(unit_trace_psd(rng, m), hp)
            factor = eigh_factor(coupling)

            def features(p):
                return (x.T @ p[:b.size].reshape(b.shape)).T

            pairs = [
                (moment_form.primal(weights), gram_form.primal(point)),
                (moment_form.dual(weights), gram_form.dual(point)),
                (solver._moment_dual_point(ds, moments, weights), gram_form.dual_point(point)),
                (moment_form.gradient(weights), features(gram_form.gradient(point))),
                (moment_form.solve(coupling, factor, weights), features(exact_form.solve(coupling, factor, point))),
                (solver._svd_coupling(*moment_form.singular(weights)[:2], hp)[0],
                 solver._svd_coupling(*gram_form.singular(point)[:2], hp)[0]),
                (moment_form.lipschitz, gram_form.lipschitz),
            ]
            _, values, rebuild = moment_form.singular(weights)
            _, gram_values, gram_rebuild = gram_form.singular(point)
            shrunk = solver._shrink(values, 0.3)
            pairs += [
                (values, gram_values[:values.size]),
                (np.zeros(m - values.size), gram_values[values.size:]),
                (rebuild(shrunk), features(gram_rebuild(np.concatenate([shrunk, np.zeros(m - values.size)])))),
            ]
            for want, got in pairs:
                scale = max(1.0, np.max(np.abs(want), initial=0.0))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)

            def centred(v):
                return v - (np.bincount(ds.point_task, v) / ds.counts)[ds.point_task]

            alpha = gram_form.solve(coupling, factor, point)[3 * b.size:]
            k = tc.assemble_kernel_matrix(ds, self.kernel, coupling) + np.diag(ds.counts[ds.point_task] / 2.0)
            residual = np.linalg.norm(centred(ds.targets - k @ alpha))
            assert residual <= solver._loop_cg_rtol(hp.tol) * np.linalg.norm(centred(ds.targets))

    def test_non_decrease_message_prints_plain_floats(self, toy, toy_hp, monkeypatch):
        # _fitted_state gives each fit's final refresh's value
        values = iter([100.0, 4.0])
        monkeypatch.setattr(solver, "_fitted_state", lambda *args: (np.float64(next(values)), None))
        with pytest.raises(errors.NonDecreaseDetected) as info:
            tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
        message = str(info.value)
        assert re.fullmatch(r"objective rose from \S+ to 100\.0 in the final refresh", message), message
        float(message.split()[3])
        with pytest.raises(errors.NonDecreaseDetected) as info:
            tc.fit(toy, self.kernel, toy_hp)
        message = str(info.value)
        assert re.fullmatch(r"objective rose from \S+ to 4\.0 in the final refresh", message), message
        float(message.split()[3])


def centred_top(block):
    """lambda_max of the centred block, by a full eigensolve."""
    return float(np.linalg.eigvalsh(block - block.mean(axis=0) - block.mean(axis=1)[:, None] + block.mean())[-1])


def task_spans(ds):
    """(first, end) of each task's points in flat order."""
    ends = np.cumsum(ds.counts)
    return [(int(hi - n), int(hi)) for n, hi in zip(ds.counts, ends)]


class TestGramSteps:
    """The Gram form's fixed costs: the step size and the products with
    the base Gram."""

    @staticmethod
    def tasks(rng, sizes, dim, shift=0.0):
        return tc.MultiTaskDataset([
            (f"t{i}", rng.uniform(-1.5, 1.5, size=(n, dim)) + shift, rng.normal(size=n))
            for i, n in enumerate(sizes)])

    def test_step_size_bounds_every_task_eigensolve(self):
        # L, and each Lanczos-sized block's bound (which L can hide behind a
        # small task's), lies at or above the eigensolve's value and within
        # 1e-10 of it, relative but floored at the base Gram's largest
        # diagonal entry, so that a zero block reads against the kernel's
        # scale; two calls give the same float
        rng = np.random.default_rng(66)
        mixed = (1, 2, 3, 31, 150, 400)
        same = tc.MultiTaskDataset([("same", np.tile([[0.3, -0.2, 1.1]], (150, 1)), rng.normal(size=150))])
        with_same = tc.MultiTaskDataset([(t.task_id, t.inputs, t.targets) for t in self.tasks(rng, mixed, 3).tasks]
                                        + [(t.task_id + "s", t.inputs, t.targets) for t in same.tasks])
        cases = [
            (self.tasks(rng, mixed, 3), tc.KernelSpec("rbf", 1.0)),
            (self.tasks(rng, mixed, 3), tc.KernelSpec("rbf", 0.05)),  # K = I to rounding
            # the spectrum away from 0 in [0.97, 1.03]: with the centring before
            # the reorthogonalisation this block's bound fell 2.9e-7 short
            (self.tasks(np.random.default_rng(0), (150,), 10), tc.KernelSpec("rbf", 0.5)),
            (self.tasks(rng, mixed, 3), tc.KernelSpec("linear")),
            (self.tasks(rng, mixed, 10), tc.KernelSpec("linear")),
            (with_same, tc.KernelSpec("rbf", 1.0)),
            (same, tc.KernelSpec("rbf", 1.0)),  # a zero centred block
            (same, tc.KernelSpec("linear")),
            (self.tasks(rng, (150, 400), 1), tc.KernelSpec("linear")),  # rank-one blocks
        ]
        for ds, kernel in cases:
            base = tc.base_kernel_matrix(kernel, ds.inputs)
            scale = float(np.max(np.diag(base)))
            large = [(lo, hi) for lo, hi in task_spans(ds) if hi - lo > linalg._LANCZOS_STEPS + 1]
            for (lo, hi), top in zip(large, linalg._top_eigenvalues([base[lo:hi, lo:hi] for lo, hi in large])):
                want = centred_top(base[lo:hi, lo:hi])
                assert top is not None and want <= top <= want + 1e-10 * max(want, scale)
            _, high = solver._gram_curvature(ds, base)
            want = max(2.0 / (hi - lo) * centred_top(base[lo:hi, lo:hi]) for lo, hi in task_spans(ds))
            assert type(high) is float and solver._gram_curvature(ds, base) == (0.0, high)
            assert want <= high <= want + 1e-10 * max(want, scale)

    def test_step_size_stays_above_far_from_the_origin(self):
        # a linear Gram far from the origin rounds its products at the scale
        # of its uncentred diagonal, and so does the margin: L stays above
        rng = np.random.default_rng(67)
        for shift in (1e2, 1e3):
            ds = self.tasks(rng, (150, 400), 4, shift)
            base = tc.base_kernel_matrix(tc.KernelSpec("linear"), ds.inputs)
            truth = max(2.0 / n * float(np.linalg.svd(x - x.mean(axis=0), compute_uv=False)[0] ** 2)
                        for n, x in ((t.n, t.inputs) for t in ds.tasks))
            _, high = solver._gram_curvature(ds, base)
            assert truth <= high <= truth * (1.0 + 1e-6)

    def test_band_product_matches_the_spread_product(self):
        # spread(alpha)^T K one task band at a time, tasks of one point
        # included: each entry within 1e-12 of the sum of its terms' magnitudes
        rng, single = np.random.default_rng(68), 0
        for trial in range(30):
            ds = random_dataset(rng, m=int(rng.integers(1, 6)), d=3, n_lo=1, n_hi=40 if trial % 3 else 3)
            single += int(np.any(ds.counts == 1))
            kernel = tc.KernelSpec("rbf", 1.0) if trial % 2 else tc.KernelSpec("linear")
            base = tc.base_kernel_matrix(kernel, ds.inputs)
            alpha = rng.normal(size=ds.total)
            spread = solver._spread(ds.point_task, ds.m, alpha)
            got = solver._times_base(ds, base, alpha)
            assert got.shape == (ds.m, ds.total)
            assert np.all(np.abs(got - spread.T @ base) <= 1e-12 * (np.abs(spread).T @ np.abs(base)))
        assert single >= 3

    @pytest.mark.parametrize("name", ["smo", "auto", "direct"])
    def test_fit_forms_two_products_beyond_its_covariance_steps(self, name, monkeypatch):
        # one product with K per covariance step, one for the zero point's
        # dual image and one in the final refresh: 8 on the rbf-smo shape,
        # whose fit here takes 6 covariance steps, and on wide linear data
        products, steps = [], []
        times_base, gram_form = solver._times_base, solver._gram_form

        def counted(*args):
            form = gram_form(*args)
            return form._replace(solve=lambda coupling, factor, point: steps.append(1) or form.solve(coupling, factor, point))

        monkeypatch.setattr(solver, "_times_base", lambda *args: products.append(1) or times_base(*args))
        monkeypatch.setattr(solver, "_gram_form", counted)
        fits = [(smooth_dataset(54321, 6, 150, 4), tc.KernelSpec("rbf", 1.0), tc.Hyperparams(0.03, 0.03)),
                (planted_dataset(3, 4, 20, 100, 3), tc.KernelSpec("linear"), tc.Hyperparams(0.03, 0.03))]
        for k, (ds, kernel, hp) in enumerate(fits):
            products.clear(), steps.clear()
            model = tc.fit(ds, kernel, hp, solver=name)
            assert model.report.stop_reason == "gap"
            assert len(products) == len(steps) + 2 == len(model.objective_trace)
            if k == 0:
                assert len(products) == 8


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
        # X^T spread(alpha) C with each task's inputs taken about their mean
        x, tasks = model.support_inputs, model.support_tasks
        centred = x - np.array([x[tasks == t].mean(axis=0) for t in range(model.m)])[tasks]
        spread = solver._spread(tasks, model.m, 1.0)
        expected = (centred * model.dual_coefs[:, None]).T @ spread @ model.coupling
        np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))

    def test_rbf_matches_dual_oracle_across_blocks(self, toy, toy_hp, monkeypatch):
        model = tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
        block = 7
        monkeypatch.setattr(solver, "_SERVE_BLOCK_BYTES", 8 * toy.total * block)
        blocks = []
        cross = solver._rbf_cross

        def counted(kernel, rows, xb):
            blocks.append(len(xb))
            return cross(kernel, rows, xb)

        monkeypatch.setattr(solver, "_rbf_cross", counted)
        rng = np.random.default_rng(42)
        xs = rng.uniform(-5.0, 15.0, size=(40, 1))
        ids = [toy.task_ids[i] for i in rng.integers(0, toy.m, size=len(xs))]
        preds = tc.predict_batch(model, ids, xs)
        assert blocks == [block] * 5 + [5]
        oracle, scale = dual_oracle(model, ids, xs)
        assert np.max(np.abs(preds - oracle) / scale) <= 1e-12

    def test_rbf_serving_matches_a_per_call_gram(self, tmp_path, monkeypatch):
        # the support rows a model holds give the bits of a base Gram built
        # per call and per block, on fitted and loaded models, whole and in
        # blocks of 7 queries
        rng = np.random.default_rng(43)
        ds = smooth_dataset(44, 3, 40, 3)
        fitted = tc.fit(ds, tc.KernelSpec("rbf", 0.8), tc.Hyperparams(0.05, 0.05))
        tc.save_model(fitted, tmp_path / "model.txt")
        xs = rng.uniform(-2.0, 2.0, size=(30, 3))
        xs[3] = 1e200  # far: summed from differences
        ids = [ds.task_ids[i] for i in rng.integers(0, ds.m, size=len(xs))]

        def per_call(model, block):
            index = np.array([model.task_index(t) for t in ids])
            spread_t = solver._spread(model.support_tasks, model.m, model.dual_coefs).T
            sums = np.concatenate([
                spread_t @ tc.base_kernel_matrix(model.kernel, model.support_inputs, xs[lo:lo + block])
                for lo in range(0, len(xs), block)], axis=1)
            return np.einsum("jq,jq->q", model.coupling[:, index], sums) + model.biases[index]

        for model in (fitted, tc.load_model(tmp_path / "model.txt")):
            np.testing.assert_array_equal(tc.predict_batch(model, ids, xs), per_call(model, len(xs)))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_SERVE_BLOCK_BYTES", 8 * ds.total * 7)
                np.testing.assert_array_equal(tc.predict_batch(model, ids, xs), per_call(model, 7))

    def test_rbf_support_rows_are_prepared_once(self, toy, toy_hp, monkeypatch):
        model = tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
        prepared, rows = [], data._rbf_rows
        monkeypatch.setattr(data, "_rbf_rows", lambda *args: prepared.append(1) or rows(*args))
        for _ in range(3):
            tc.predict_batch(model, ["task1", "task2"], [[0.5], [1.5]])
        tc.predict(model, "task3", [2.0])
        assert len(prepared) == 1

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


class TestRbfInputs:
    @pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
    def test_far_queries_return_the_bias(self, width):
        # every support input is beyond the double range from these: kernel 0, no warning
        rng = np.random.default_rng(44)
        ds = random_dataset(rng, m=2, d=1, n_lo=5, n_hi=8)
        model = tc.fit(ds, tc.KernelSpec("rbf", width), tc.Hyperparams(lam1=0.1, lam2=0.05))
        ids = ["t0", "t1"] * 3
        xs = [[1e155], [-1e155], [1e200], [-1e250], [1e308], [-1e308]]
        preds = tc.predict_batch(model, ids, xs)
        np.testing.assert_array_equal(preds, model.biases[[0, 1] * 3])
        np.testing.assert_array_equal(preds, dual_oracle(model, ids, xs)[0])

    def test_fit_with_a_far_input(self):
        # |x|^2 overflows for the far input: its Gram row must still be finite
        rng = np.random.default_rng(45)
        tasks = [(f"t{i}", rng.normal(size=(7, 2)), rng.normal(size=7)) for i in range(2)]
        tasks[0][1][2, 0] = 1e200
        ds = tc.MultiTaskDataset(tasks)
        model = tc.fit(ds, tc.KernelSpec("rbf", 1.0), tc.Hyperparams(lam1=0.1, lam2=0.05))
        assert model.report.stop_reason == "gap"
        ids = [ds.task_ids[i] for i in ds.point_task]
        preds = tc.predict_batch(model, ids, ds.inputs)
        oracle, scale = dual_oracle(model, ids, ds.inputs)
        assert np.max(np.abs(preds - oracle) / scale) <= 1e-12

    def test_fit_does_not_depend_on_the_origin(self):
        # the Gaussian depends only on differences, so a shift may move only roundoff
        kernel, hp = tc.KernelSpec("rbf", 1.0), tc.Hyperparams(lam1=0.03, lam2=0.03)
        rng = np.random.default_rng(46)
        xs = rng.uniform(-1.5, 1.5, size=(50, 4))
        ids = [f"t{i % 4}" for i in range(50)]
        base = tc.fit(smooth_dataset(5, 4, 60, 4), kernel, hp, solver="smo")
        expected = tc.predict_batch(base, ids, xs)
        for shift in (1e4, 1e6):
            model = tc.fit(smooth_dataset(5, 4, 60, 4, shift), kernel, hp, solver="smo")
            np.testing.assert_allclose(model.dual_coefs, base.dual_coefs, rtol=0, atol=1e-9)
            np.testing.assert_allclose(model.biases, base.biases, rtol=0, atol=1e-9)
            np.testing.assert_allclose(tc.predict_batch(model, ids, xs + shift), expected, rtol=0, atol=1e-9)


class TestRbfMemory:
    """tracemalloc peaks on the benchmark's rbf-smo shape, N = 900: the
    base Gram's build must not set any of them."""

    @pytest.fixture(scope="class")
    def problem(self):
        ds = smooth_dataset(54321, 6, 150, 4)
        return ds, tc.KernelSpec("rbf", 1.0), tc.Hyperparams(lam1=0.03, lam2=0.03)

    @pytest.fixture(scope="class")
    def fitted(self, problem):
        return traced_peak(tc.fit, *problem)

    def test_auto_fit_peak(self, fitted):
        # the base Gram and the combined kernel CG works on: 2 N x N
        model, peak = fitted
        assert peak <= 2.2 * 8 * model.support_inputs.shape[0] ** 2

    def test_direct_solve_peak(self, problem, fitted):
        # the public LU solve at the fit's coupling holds its kernel and the
        # saddle block: 2 N x N, and little else
        ds, kernel, _ = problem
        model, _ = fitted
        _, peak = traced_peak(tc.solve_alpha_b_direct, ds, kernel, model.coupling)
        assert peak <= 2.2 * 8 * ds.total ** 2

    def test_smo_solve_allocates_little(self, problem, fitted):
        # beyond the kernel it is given, the SMO loop allocates no N x N
        ds, kernel, _ = problem
        model, _ = fitted
        k = tc.assemble_kernel_matrix(ds, kernel, model.coupling)
        _, peak = traced_peak(solver._smo_solve, ds, k)
        assert peak <= 0.05 * 8 * ds.total ** 2

    def test_serving_peak(self, fitted):
        model, _ = fitted
        rng = np.random.default_rng(47)
        xs = rng.uniform(-1.5, 1.5, size=(500, 4))
        ids = [model.task_ids[i] for i in rng.integers(0, model.m, size=500)]
        _, peak = traced_peak(tc.predict_batch, model, ids, xs)
        assert peak <= 1.3 * 8 * model.support_inputs.shape[0] * 500
