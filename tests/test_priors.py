import numpy as np
import pytest

import taskcov as tc
from taskcov import errors
from conftest import random_dataset


def trace_form(w, matrix):
    return float(np.trace(w @ matrix @ w.T))


class TestMeanRegularization:
    def test_two_tasks(self):
        np.testing.assert_allclose(
            tc.laplacian_mean_regularization(2), [[0.5, -0.5], [-0.5, 0.5]]
        )

    def test_single_task(self):
        np.testing.assert_allclose(tc.laplacian_mean_regularization(1), [[0.0]])

    def test_reproduces_mean_deviation_sum(self):
        rng = np.random.default_rng(0)
        laplacian = tc.laplacian_mean_regularization(4)
        for _ in range(100):
            w = rng.normal(size=(3, 4))
            mean = w.mean(axis=1, keepdims=True)
            direct = float(np.sum((w - mean) ** 2))
            np.testing.assert_allclose(trace_form(w, laplacian), direct, atol=1e-10)


class TestSimilarityLaplacian:
    def test_zero_similarity(self):
        np.testing.assert_allclose(
            tc.laplacian_from_similarity(np.zeros((3, 3))), np.zeros((3, 3))
        )

    def test_two_tasks(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(tc.laplacian_from_similarity(s), [[2.0, -2.0], [-2.0, 2.0]])

    def test_reproduces_double_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            s = np.abs(rng.normal(size=(m, m)))
            s = (s + s.T) / 2.0
            np.fill_diagonal(s, 0.0)
            laplacian = tc.laplacian_from_similarity(s)
            w = rng.normal(size=(int(rng.integers(1, 5)), m))
            direct = sum(
                s[i, j] * np.sum((w[:, i] - w[:, j]) ** 2)
                for i in range(m)
                for j in range(m)
            )
            np.testing.assert_allclose(trace_form(w, laplacian), direct, atol=1e-10)

    def test_rejects_negative_entries(self):
        with pytest.raises(errors.NegativeSimilarity):
            tc.laplacian_from_similarity(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(errors.AsymmetricSimilarity):
            tc.laplacian_from_similarity(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestTaskNetwork:
    def test_no_edges(self):
        np.testing.assert_allclose(tc.laplacian_from_task_network(3, []), np.zeros((3, 3)))

    def test_single_edge(self):
        np.testing.assert_allclose(
            tc.laplacian_from_task_network(2, [(0, 1)]), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_path_graph_sum(self):
        rng = np.random.default_rng(2)
        laplacian = tc.laplacian_from_task_network(3, [(0, 1), (1, 2)])
        for _ in range(100):
            w = rng.normal(size=(4, 3))
            direct = float(np.sum((w[:, 0] - w[:, 1]) ** 2) + np.sum((w[:, 1] - w[:, 2]) ** 2))
            np.testing.assert_allclose(trace_form(w, laplacian), direct, atol=1e-10)

    def test_rejects_bad_edges(self):
        with pytest.raises(errors.IndexOutOfRange):
            tc.laplacian_from_task_network(2, [(0, 2)])
        with pytest.raises(errors.SelfEdge):
            tc.laplacian_from_task_network(2, [(1, 1)])


class TestClustered:
    def componentwise(self, m, labels, alpha, beta, gamma):
        clusters = sorted(set(labels), key=str)
        e = np.zeros((m, len(clusters)))
        for i, lab in enumerate(labels):
            e[i, clusters.index(lab)] = 1.0
        proj = e @ np.linalg.inv(e.T @ e) @ e.T
        centering = np.eye(m) - np.full((m, m), 1.0 / m)
        return alpha * centering + beta * (proj - centering) + gamma * (np.eye(m) - proj)

    def test_single_cluster(self):
        labels = ["c", "c", "c"]
        got = tc.clustered_inverse_covariance(3, dict(enumerate(labels)), 1.0, 0.5, 0.7)
        np.testing.assert_allclose(got, self.componentwise(3, labels, 1.0, 0.5, 0.7), atol=1e-12)

    def test_singleton_clusters(self):
        labels = ["a", "b", "c"]
        got = tc.clustered_inverse_covariance(3, dict(enumerate(labels)), 1.0, 0.5, 0.7)
        np.testing.assert_allclose(got, self.componentwise(3, labels, 1.0, 0.5, 0.7), atol=1e-12)

    def test_single_task(self):
        got = tc.clustered_inverse_covariance(1, {0: "only"}, 2.0, 0.9, 0.4)
        np.testing.assert_allclose(got, [[0.9]], atol=1e-12)

    def test_rejects_indefinite_combination(self):
        # beta exceeding alpha + gamma flips an eigenvalue negative
        with pytest.raises(errors.NotPSD):
            tc.clustered_inverse_covariance(4, {0: "a", 1: "a", 2: "b", 3: "b"}, 0.1, 1.0, 0.1)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            tc.clustered_inverse_covariance(2, {0: "a", 1: "a"}, 0.0, 1.0, 1.0)


def primal_quadratic_oracle(ds, hp, inverse):
    """Minimize the fixed-structure objective directly over stacked
    weights and biases (normal equations)."""
    m, d = ds.m, ds.dim
    size = m * d + m
    h = np.zeros((size, size))
    rhs = np.zeros(size)
    for i, t in enumerate(ds.tasks):
        sl = slice(i * d, (i + 1) * d)
        h[sl, sl] += 2.0 / t.n * t.inputs.T @ t.inputs
        h[sl, m * d + i] += 2.0 / t.n * t.inputs.sum(axis=0)
        h[m * d + i, sl] += 2.0 / t.n * t.inputs.sum(axis=0)
        h[m * d + i, m * d + i] = 2.0
        rhs[sl] += 2.0 / t.n * t.inputs.T @ t.targets
        rhs[m * d + i] = 2.0 / t.n * t.targets.sum()
    for i in range(m):
        for j in range(m):
            reg = hp.lam1 * (i == j) + hp.lam2 * inverse[i, j]
            h[i * d:(i + 1) * d, j * d:(j + 1) * d] += reg * np.eye(d)
    sol = np.linalg.solve(h, rhs)
    return sol[: m * d].reshape(m, d).T, sol[m * d:]


class TestFixedInverseFit:
    @pytest.mark.parametrize("kernel", [tc.KernelSpec("linear"), tc.KernelSpec("rbf", 1.0)], ids=["linear", "rbf"])
    def test_similarity_units_move_into_lam2(self, kernel):
        # the Laplacian of S times a is a L(S), so lam2 / a fits the same
        # model: the PSD check scales with the Laplacian's largest
        # eigenvalue and does not read its rounding at 1e9 as a negative one
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, m=5, d=3)
        queries = [ds.task_ids[i] for i in ds.point_task], ds.inputs
        for _ in range(20):
            s = rng.uniform(size=(5, 5))
            s += s.T
            want = tc.predict_batch(tc.fit_with_fixed_inverse(
                ds, kernel, tc.Hyperparams(0.1, 0.05), tc.laplacian_from_similarity(s)), *queries)
            got = tc.predict_batch(tc.fit_with_fixed_inverse(
                ds, kernel, tc.Hyperparams(0.1, 0.05 / 1e9), tc.laplacian_from_similarity(s * 1e9)), *queries)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_zero_structure_is_independent_ridge(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, m=3, d=2, n_lo=5, n_hi=8)
        hp = tc.Hyperparams(lam1=0.3, lam2=0.4)
        model = tc.fit_with_fixed_inverse(ds, tc.KernelSpec("linear"), hp, np.zeros((3, 3)))
        w, b = primal_quadratic_oracle(ds, tc.Hyperparams(lam1=0.3, lam2=0.0), np.zeros((3, 3)))
        got = tc.reconstruct_weights(model)
        np.testing.assert_allclose(got, w, atol=1e-8)
        np.testing.assert_allclose(model.biases, b, atol=1e-8)
        # L = 0 has no pseudo-inverse to normalise: the unrelated covariance
        np.testing.assert_array_equal(model.covariance.matrix, np.eye(3) / 3.0)

    def test_scaled_identity_decouples(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, m=3, d=2, n_lo=5, n_hi=8)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        model = tc.fit_with_fixed_inverse(
            ds, tc.KernelSpec("linear"), hp, 3.0 * np.eye(3)
        )
        ridge = tc.Hyperparams(lam1=0.2 + 3 * 0.1, lam2=0.0)
        w, b = primal_quadratic_oracle(ds, ridge, np.zeros((3, 3)))
        np.testing.assert_allclose(tc.reconstruct_weights(model), w, atol=1e-8)
        np.testing.assert_allclose(model.biases, b, atol=1e-8)

    @pytest.mark.parametrize("which", ["mean", "similarity", "network", "clustered"])
    def test_matches_primal_oracle(self, which):
        rng = np.random.default_rng(5)
        m = 4
        ds = random_dataset(rng, m=m, d=2, n_lo=4, n_hi=9)
        hp = tc.Hyperparams(lam1=0.25, lam2=0.15)
        if which == "mean":
            inverse = tc.laplacian_mean_regularization(m)
        elif which == "similarity":
            s = np.abs(rng.normal(size=(m, m)))
            s = (s + s.T) / 2.0
            np.fill_diagonal(s, 0.0)
            inverse = tc.laplacian_from_similarity(s)
        elif which == "network":
            inverse = tc.laplacian_from_task_network(m, [(0, 1), (1, 2), (2, 3)])
        else:
            inverse = tc.clustered_inverse_covariance(
                m, {0: "a", 1: "a", 2: "b", 3: "b"}, 1.0, 0.6, 0.8
            )
        model = tc.fit_with_fixed_inverse(ds, tc.KernelSpec("linear"), hp, inverse)
        # the coupling and the reported covariance, from L's one decomposition
        np.testing.assert_allclose(
            model.coupling, np.linalg.inv(hp.lam1 * np.eye(m) + hp.lam2 * inverse), rtol=1e-12
        )
        pinv = np.linalg.pinv(inverse, hermitian=True)
        np.testing.assert_allclose(model.covariance.matrix, pinv / np.trace(pinv), rtol=0, atol=1e-12)
        w, b = primal_quadratic_oracle(ds, hp, inverse)
        np.testing.assert_allclose(tc.reconstruct_weights(model), w, atol=1e-6)
        np.testing.assert_allclose(model.biases, b, atol=1e-6)
        # the objective is the loss plus lam1/2 tr G + lam2/2 tr(L G), G = W^T W
        weights = tc.reconstruct_weights(model)
        residuals = ds.targets - tc.predict_batch(model, [ds.task_ids[i] for i in ds.point_task], ds.inputs)
        loss = float(np.sum(residuals**2 / ds.counts[ds.point_task]))
        penalty = 0.5 * hp.lam1 * trace_form(weights, np.eye(m)) + 0.5 * hp.lam2 * trace_form(weights, inverse)
        np.testing.assert_allclose(model.objective_trace, [loss + penalty], rtol=1e-12)
        for i, tid in enumerate(ds.task_ids):
            x = rng.normal(size=2)
            np.testing.assert_allclose(
                tc.predict(model, tid, x), w[:, i] @ x + b[i], atol=1e-6
            )

    def test_rejects_indefinite_structure(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, m=2, d=2)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        with pytest.raises(errors.NotPSD):
            tc.fit_with_fixed_inverse(
                ds, tc.KernelSpec("linear"), hp, np.diag([1.0, -1.0])
            )

    def test_reported_covariance_of_mean_prior(self):
        # pseudo-inverse of the centering projector is itself
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, m=3, d=2)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        model = tc.fit_with_fixed_inverse(
            ds, tc.KernelSpec("linear"), hp, tc.laplacian_mean_regularization(3)
        )
        centering = tc.laplacian_mean_regularization(3)
        np.testing.assert_allclose(model.covariance.matrix, centering / 2.0, atol=1e-10)
