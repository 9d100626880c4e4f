import math

import numpy as np
import pytest

import taskcov as tc
from taskcov import errors
from taskcov.linalg import spectral_map
from conftest import random_dataset, smooth_dataset, traced_peak


class TestBaseKernel:
    def test_linear(self):
        assert tc.base_kernel(tc.KernelSpec("linear"), [1.0, 2.0], [1.0, 2.0]) == 5.0

    def test_rbf_zero_distance(self):
        assert tc.base_kernel(tc.KernelSpec("rbf", 1.7), [0.3, -1.0], [0.3, -1.0]) == 1.0

    def test_rbf_value(self):
        value = tc.base_kernel(tc.KernelSpec("rbf", 1.0), [0.0], [2.0])
        np.testing.assert_allclose(value, math.exp(-2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            tc.base_kernel(tc.KernelSpec("linear"), [1.0], [1.0, 2.0])

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        for shift in (0.0, 1e4):  # |x|^2 ~ 3e8 here: no expansion about the origin
            xa = rng.normal(size=(4, 3)) + shift
            xb = rng.normal(size=(5, 3)) + shift
            for kernel in (tc.KernelSpec("linear"), tc.KernelSpec("rbf", 1.3)):
                full = tc.base_kernel_matrix(kernel, xa, xb)
                for i in range(4):
                    for j in range(5):
                        np.testing.assert_allclose(
                            full[i, j], tc.base_kernel(kernel, xa[i], xb[j]), rtol=1e-12
                        )


class TestRbfBlock:
    def test_gram_is_bit_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(6)
        for shift in (0.0, 1e6):
            x = rng.normal(size=(301, 4)) + shift
            for width in (0.5, 2.0):
                k = tc.base_kernel_matrix(tc.KernelSpec("rbf", width), x)
                assert np.array_equal(k, k.T)
                assert np.all(np.diag(k) == 1.0)
                assert np.all((k >= 0.0) & (k <= 1.0))

    def test_gram_matches_explicit_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(301, 4))
        for width in (0.5, 0.8, 2.0):
            k = tc.base_kernel_matrix(tc.KernelSpec("rbf", width), x)
            exact = np.exp(-np.sum((x[:, None] - x[None]) ** 2, axis=2) / (2.0 * width**2))
            np.testing.assert_allclose(k, exact, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("xb", [None, 500])
    def test_build_holds_one_block(self, xb):
        # one N x Q result and no temporary of its size
        rng = np.random.default_rng(8)
        xa = rng.uniform(-1.5, 1.5, size=(900, 4))
        xb = None if xb is None else rng.uniform(-1.5, 1.5, size=(xb, 4))
        k, peak = traced_peak(tc.base_kernel_matrix, tc.KernelSpec("rbf", 1.0), xa, xb)
        assert peak <= 1.2 * k.nbytes

    def test_one_outlier_leaves_the_others_exact(self):
        # a mean would move 1e6 towards the outlier: |u|^2 ~ 1e12 and 1e-4 errors
        kernel = tc.KernelSpec("rbf", 1.0)
        x = np.random.default_rng(10).normal(size=(100, 3))
        x[0] = 1e8
        k = tc.base_kernel_matrix(kernel, x)
        scalar = np.array([[tc.base_kernel(kernel, a, b) for b in x] for a in x])
        np.testing.assert_allclose(k, scalar, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
    def test_far_inputs_agree_with_scalar(self, width):
        # warnings are errors in this suite: no overflow may be reported
        kernel = tc.KernelSpec("rbf", width)
        rng = np.random.default_rng(9)
        xa = rng.normal(size=(7, 2))
        xa[3, 0] = 1e200
        xb = np.array([[1e155, 0.0], xa[3], [1e308, 1.0], [-1e308, 1e308], [0.1, -0.2]])
        for full, rows in ((tc.base_kernel_matrix(kernel, xa), xa),
                           (tc.base_kernel_matrix(kernel, xa, xb), xb)):
            scalar = np.array([[tc.base_kernel(kernel, a, b) for b in rows] for a in xa])
            np.testing.assert_allclose(full, scalar, rtol=1e-12, atol=0)
        far = tc.base_kernel_matrix(kernel, xa, xb)[:, :4]
        assert far[3, 1] == 1.0  # the far input with itself
        far[3, 1] = 0.0
        assert np.all(far == 0.0)


class TestCoupling:
    def test_unrelated_covariance(self):
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(4), hp)
        np.testing.assert_allclose(c, np.eye(4) / (0.2 + 4 * 0.1), atol=1e-12)

    def test_single_task(self):
        hp = tc.Hyperparams(lam1=0.3, lam2=0.2)
        c = tc.coupling_matrix(tc.TaskCovariance(np.array([[1.0]])), hp)
        np.testing.assert_allclose(c, [[1.0 / 0.5]])

    def test_matches_direct_product(self):
        rng = np.random.default_rng(1)
        hp = tc.Hyperparams(lam1=0.4, lam2=0.15)
        b = rng.normal(size=(3, 3))
        omega = b.T @ b
        omega /= np.trace(omega)
        direct = omega @ np.linalg.inv(hp.lam1 * omega + hp.lam2 * np.eye(3))
        c = tc.coupling_matrix(tc.TaskCovariance(omega), hp)
        np.testing.assert_allclose(c, direct, atol=1e-8)

    def test_eigenvalues_in_range(self):
        rng = np.random.default_rng(2)
        hp = tc.Hyperparams(lam1=0.5, lam2=0.05)
        for _ in range(20):
            b = rng.normal(size=(4, 4))
            omega = b.T @ b
            omega /= np.trace(omega)
            c = tc.coupling_matrix(tc.TaskCovariance(omega), hp)
            eigs = np.linalg.eigvalsh(c)
            assert eigs[0] >= -1e-12 and eigs[-1] < 1.0 / hp.lam1

    def test_rank_one_covariance_without_lam2(self):
        # the null eigenvalue of outer(v, v) comes out of eigh as roundoff
        # (about 1e-17); it must map to zero coupling, not to 1 / lam1
        v = np.array([0.6, 0.8])
        c = tc.coupling_matrix(tc.TaskCovariance(np.outer(v, v)), tc.Hyperparams(0.5, 0.0))
        np.testing.assert_allclose(c, np.outer(v, v) / 0.5, rtol=0, atol=1e-12)

    def test_lam2_positive_keeps_cutoff_zero(self):
        rng = np.random.default_rng(3)
        hp = tc.Hyperparams(lam1=0.4, lam2=0.1)
        for _ in range(10):
            b = rng.normal(size=(2, 4))  # rank 2: roundoff null eigenvalues
            omega = b.T @ b / np.trace(b.T @ b)
            c = tc.coupling_matrix(tc.TaskCovariance(omega), hp)
            f = lambda mu: mu / (hp.lam1 * mu + hp.lam2)
            np.testing.assert_array_equal(c, spectral_map(omega, f, rel_cutoff=0.0))


class TestMultitaskKernel:
    def test_unrelated_cross_task_is_zero(self):
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), hp)
        k = tc.multitask_kernel(tc.KernelSpec("linear"), c, 0, [5.0], 2, [7.0])
        assert k == 0.0

    def test_unrelated_same_task(self):
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), hp)
        x1, x2 = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        k = tc.multitask_kernel(tc.KernelSpec("linear"), c, 1, x1, 1, x2)
        np.testing.assert_allclose(k, (x1 @ x2) / (0.2 + 3 * 0.1))

    def test_componentwise_oracle(self):
        rng = np.random.default_rng(3)
        hp = tc.Hyperparams(lam1=0.3, lam2=0.1)
        b = rng.normal(size=(2, 2))
        omega = b.T @ b
        omega /= np.trace(omega)
        c = tc.coupling_matrix(tc.TaskCovariance(omega), hp)
        kernel = tc.KernelSpec("rbf", 1.1)
        x1, x2 = rng.normal(size=2), rng.normal(size=2)
        for i in range(2):
            for j in range(2):
                expected = c[i, j] * tc.base_kernel(kernel, x1, x2)
                np.testing.assert_allclose(
                    tc.multitask_kernel(kernel, c, i, x1, j, x2), expected, rtol=1e-12
                )

    def test_index_out_of_range(self):
        c = np.eye(2)
        with pytest.raises(errors.TaskIndexOutOfRange):
            tc.multitask_kernel(tc.KernelSpec("linear"), c, 0, [1.0], 2, [1.0])


class TestAssembly:
    def test_single_point(self):
        hp = tc.Hyperparams(lam1=0.3, lam2=0.2)
        ds = tc.MultiTaskDataset([("a", [[1.0]], [1.0])])
        c = tc.coupling_matrix(tc.TaskCovariance(np.array([[1.0]])), hp)
        k = tc.assemble_kernel_matrix(ds, tc.KernelSpec("linear"), c)
        np.testing.assert_allclose(k, [[1.0 / 0.5]])

    def test_block_diagonal_for_unrelated(self):
        hp = tc.Hyperparams(lam1=0.3, lam2=0.2)
        ds = tc.MultiTaskDataset([("a", [[1.0]], [1.0]), ("b", [[2.0]], [2.0])])
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(2), hp)
        k = tc.assemble_kernel_matrix(ds, tc.KernelSpec("linear"), c)
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0

    def test_toy_gram_is_psd(self, toy, toy_hp):
        c = tc.coupling_matrix(tc.TaskCovariance.unrelated(3), toy_hp)
        k = tc.assemble_kernel_matrix(toy, tc.KernelSpec("linear"), c)
        assert np.min(np.linalg.eigvalsh(k)) >= -1e-7

    def test_linear_assembly_matches_explicit_features(self):
        # feature map x (x) (C^{1/2} e_i) reproduces the combined kernel
        rng = np.random.default_rng(4)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        ds = random_dataset(rng, m=3, d=4, n_lo=2, n_hi=6)
        b = rng.normal(size=(3, 3))
        omega = b.T @ b
        omega /= np.trace(omega)
        c = tc.coupling_matrix(tc.TaskCovariance(omega), hp)
        half = tc.psd_sqrt(c)
        features = np.stack([
            np.kron(ds.inputs[p], half[:, ds.point_task[p]]) for p in range(ds.total)
        ])
        k = tc.assemble_kernel_matrix(ds, tc.KernelSpec("linear"), c)
        np.testing.assert_allclose(k, features @ features.T, atol=1e-10)

    def test_random_grams_stay_psd(self):
        rng = np.random.default_rng(5)
        for kind in ("linear", "rbf"):
            kernel = tc.KernelSpec(kind, 1.4 if kind == "rbf" else None)
            for _ in range(10):
                m = int(rng.integers(1, 5))
                ds = random_dataset(rng, m=m, d=2, n_lo=2, n_hi=10)
                b = rng.normal(size=(m, m))
                omega = b.T @ b
                omega /= np.trace(omega)
                hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
                c = tc.coupling_matrix(tc.TaskCovariance(omega), hp)
                k = tc.assemble_kernel_matrix(ds, kernel, c)
                assert k.shape[0] <= 40
                assert np.min(np.linalg.eigvalsh(k)) >= -1e-7

    def test_assembly_holds_one_n_by_n(self):
        # the combined kernel is written over the base Gram, with the bits
        # of the base Gram times the symmetrised coupling at the points' tasks
        rng = np.random.default_rng(9)
        ds = smooth_dataset(54321, 6, 150, 4)
        b = rng.normal(size=(6, 6))
        omega = b.T @ b
        c = tc.coupling_matrix(tc.TaskCovariance(omega / np.trace(omega)), tc.Hyperparams(0.03, 0.03))
        kernel = tc.KernelSpec("rbf", 1.0)
        k, peak = traced_peak(tc.assemble_kernel_matrix, ds, kernel, c)
        assert peak <= 1.1 * 8 * ds.total**2
        tasks, symmetric = ds.point_task, (c + c.T) / 2.0
        assert np.array_equal(k, tc.base_kernel_matrix(kernel, ds.inputs) * symmetric[np.ix_(tasks, tasks)])
