import warnings

import numpy as np
import pytest

import taskcov as tc
from taskcov import errors, linalg
from taskcov.linalg import spectral_map


def random_psd(rng, k):
    b = rng.normal(size=(k, k))
    return b.T @ b


class TestSymEig:
    def test_diagonal(self):
        dec = tc.sym_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(dec.values, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.vectors), np.eye(2), atol=1e-12)

    def test_exchange_matrix(self):
        dec = tc.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.values, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(dec.vectors), [[s, s], [s, s]], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = random_psd(rng, 5) - 2.0 * np.eye(5)
            dec = tc.sym_eig(a)
            err = np.linalg.norm(dec.reconstruct() - a)
            assert err <= 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(5)) <= 1e-8
            assert np.all(np.diff(dec.values) <= 1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(errors.NotSymmetric):
            tc.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetry_check_scales_with_the_largest_entry(self):
        # the one symmetry check, at each caller's tolerance and error class
        a = np.array([[1e9, 5.0], [5.0 + 1e-3, 1e9]])
        np.testing.assert_array_equal(tc.sym_eig(a).reconstruct(), tc.sym_eig((a + a.T) / 2).reconstruct())
        with pytest.raises(errors.NotSymmetric):
            tc.sym_eig(a * [[1.0, 1.0], [100.0, 1.0]])
        with pytest.raises(errors.AsymmetricSimilarity, match="similarity matrix is not symmetric"):
            tc.laplacian_from_similarity(np.array([[0.0, 1e9], [1e9 + 1e-2, 0.0]]))


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(tc.psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))
        # negative noise is clipped before the root is taken
        np.testing.assert_allclose(tc.psd_sqrt(np.diag([4.0, -1e-9])), np.diag([2.0, 0.0]))

    def test_zero(self):
        np.testing.assert_allclose(tc.psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_squaring_recovers_input(self):
        rng = np.random.default_rng(1)
        a = random_psd(rng, 3)
        r = tc.psd_sqrt(a)
        np.testing.assert_allclose(r @ r, a, atol=1e-6 * max(1.0, np.linalg.norm(a)))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(errors.NotPSD):
            tc.psd_sqrt(np.diag([1.0, -0.5]))

    def test_noise_floor_scales_with_the_largest_eigenvalue(self):
        # -1e-8 max(1, lambda_max): unchanged below unit scale
        np.testing.assert_array_equal(tc.psd_sqrt(np.diag([1e10, -10.0])), np.diag([1e5, 0.0]))
        with pytest.raises(errors.NotPSD, match="matrix has eigenvalue -1.000e\\+03"):
            tc.psd_sqrt(np.diag([1e10, -1e3]))
        with pytest.raises(errors.NotPSD):
            tc.psd_sqrt(np.diag([0.5, -2e-8]))

    def test_random_psd_sweep(self):
        # squaring oracle over many sizes, the module-level property
        rng = np.random.default_rng(2)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            a = random_psd(rng, k)
            r = tc.psd_sqrt(a)
            err = np.linalg.norm(r @ r - a) / max(1.0, np.linalg.norm(a))
            assert err <= 1e-6
            assert np.min(np.linalg.eigvalsh(r)) >= -1e-10
            assert np.array_equal(r, r.T)


class TestPsdInverse:
    def test_identity(self):
        np.testing.assert_allclose(tc.psd_inverse(np.eye(3)), np.eye(3))

    def test_ridged_diagonal(self):
        inv = tc.psd_inverse(np.diag([2.0, 0.0]), ridge=1e-8)
        np.testing.assert_allclose(inv[0, 0], 0.5, rtol=1e-6)
        np.testing.assert_allclose(inv[1, 1], 1e8, rtol=1e-6)

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_psd(rng, 4) + 0.5 * np.eye(4)
            np.testing.assert_allclose(tc.psd_inverse(a) @ a, np.eye(4), atol=1e-6)

    def test_singular_without_ridge(self):
        with pytest.raises(errors.Singular):
            tc.psd_inverse(np.diag([1.0, 0.0]))

    def test_singular_test_scales_with_the_largest_eigenvalue(self):
        # lambda_min <= 1e-10 min(1, lambda_max): unchanged above unit scale
        np.testing.assert_allclose(tc.psd_inverse(np.eye(2) * 1e-11), np.eye(2) * 1e11, rtol=1e-15)
        np.testing.assert_allclose(tc.psd_inverse(np.diag([1e-3, 1e-12])), np.diag([1e3, 1e12]), rtol=1e-15)
        for singular in (np.zeros((2, 2)), np.diag([1e-5, 0.0]), np.ones((3, 3)) * 1e-6, np.diag([1e3, 1e-10])):
            with pytest.raises(errors.Singular):
                tc.psd_inverse(singular)


class TestSpectralMap:
    def test_cutoff_boundary(self):
        # lambda_max = 1, so the cutoff is 1e-12 itself: an eigenvalue at it
        # maps to 0 and the next float above it is inverted
        above = np.nextafter(1e-12, 1.0)
        out = spectral_map(np.diag([1.0, 1e-12, above]), np.reciprocal, rel_cutoff=1e-12)
        np.testing.assert_array_equal(np.diag(out), [1.0, 0.0, 1.0 / above])
        np.testing.assert_array_equal(out - np.diag(np.diag(out)), 0.0)

    def test_reciprocal_on_singular_matrix_is_pseudo_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            b = rng.normal(size=(2, 4))
            a = b.T @ b  # rank 2: two null eigenvalues, possibly slightly negative
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pinv = spectral_map(a, np.reciprocal, rel_cutoff=1e-12)
            np.testing.assert_allclose(pinv, np.linalg.pinv(a, hermitian=True), atol=1e-8)
            assert np.array_equal(pinv, pinv.T)

    def test_coupling_of_null_direction_is_zero_without_lam2(self):
        # the cutoff keeps mu / (lam1 mu + 0) from being evaluated at mu = 0
        hp = tc.Hyperparams(lam1=0.5, lam2=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = tc.coupling_matrix(tc.TaskCovariance(np.diag([0.7, 0.0, 0.3])), hp)
        np.testing.assert_array_equal(c, np.diag([2.0, 0.0, 2.0]))


class TestSolveLinear:
    def test_identity(self):
        np.testing.assert_allclose(tc.solve_linear(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_requires_pivoting(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(tc.solve_linear(a, [3.0, 5.0]), [5.0, 3.0])

    def test_residual_on_random_systems(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
            rhs = rng.normal(size=10)
            x = tc.solve_linear(a, rhs)
            assert np.linalg.norm(a @ x - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_singular_system(self):
        with pytest.raises(errors.SingularSystem):
            tc.solve_linear(np.zeros((2, 2)), [1.0, 0.0])

    def test_residual_gate_refuses_a_numerically_singular_system(self):
        # the factorization succeeds, but its answer does not solve the system
        rng = np.random.default_rng(3)
        left, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        right, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = (left * np.logspace(0, -17, 6)) @ right.T
        with pytest.raises(errors.SingularSystem, match="solve residual .* too large"):
            tc.solve_linear(a, rng.normal(size=6))


class TestCorrelation:
    def test_diagonal_covariance(self):
        np.testing.assert_allclose(
            tc.correlation_from_covariance(tc.TaskCovariance.unrelated(3)), np.eye(3)
        )

    def test_two_task_value(self):
        omega = np.array([[0.5, -0.499], [-0.499, 0.5]])
        corr = tc.correlation_from_covariance(tc.TaskCovariance(omega))
        np.testing.assert_allclose(corr[0, 1], -0.998)
        np.testing.assert_allclose(np.diag(corr), 1.0)

    def test_degenerate_variance(self):
        with pytest.raises(errors.DegenerateTaskVariance):
            tc.correlation_from_covariance(np.diag([1.0, 0.0]))

    def test_degenerate_task_reads_nan_in_the_printed_form(self):
        # the CLI prints the other tasks' correlations, and nan for a task of zero variance
        omega = np.array([[0.5, -0.4, 0.0], [-0.4, 0.5, 0.0], [0.0, 0.0, 0.0]])
        corr = linalg._correlation(omega)
        np.testing.assert_array_equal(corr[:2, :2], tc.correlation_from_covariance(omega[:2, :2]))
        assert np.isnan(corr[2]).all() and np.isnan(corr[:, 2]).all()

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 4) + 0.1 * np.eye(4)
        np.testing.assert_allclose(
            tc.correlation_from_covariance(a),
            tc.correlation_from_covariance(3.7 * a),
            atol=1e-12,
        )

    def test_entries_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = random_psd(rng, 3) + 0.05 * np.eye(3)
            corr = tc.correlation_from_covariance(a)
            assert np.max(np.abs(corr)) <= 1.0 + 1e-8


def test_trace_pinv_matches_inverse_on_pd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_psd(rng, 4) + 0.2 * np.eye(4)
        g = random_psd(rng, 4)
        direct = float(np.trace(np.linalg.inv(a) @ g))
        np.testing.assert_allclose(tc.trace_pinv_product(a, g), direct, rtol=1e-9)
