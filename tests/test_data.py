import numpy as np
import pytest

import taskcov as tc
from taskcov import errors


def test_toy_layout_is_valid(toy):
    tc.validate_dataset(toy)
    assert toy.m == 3
    assert list(toy.counts) == [5, 5, 5]
    assert toy.dim == 1


def test_minimal_dataset_is_valid():
    ds = tc.MultiTaskDataset([("only", [[1.0]], [2.0])])
    tc.validate_dataset(ds)
    assert ds.total == 1


def test_flat_inputs_read_as_scalar_points():
    ds = tc.MultiTaskDataset([("a", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])])
    tc.validate_dataset(ds)
    assert ds.tasks[0].inputs.shape == (3, 1)


def test_mixed_dimensions_rejected():
    a = tc.TaskData("a", np.zeros((2, 2)), np.zeros(2))
    b = tc.TaskData("b", np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(errors.DimensionMismatch):
        tc.validate_dataset(tc.MultiTaskDataset([a, b]))


def test_empty_task_rejected():
    ds = tc.MultiTaskDataset([tc.TaskData("a", np.zeros((0, 2)), np.zeros(0))])
    with pytest.raises(errors.EmptyTask):
        tc.validate_dataset(ds)


def test_duplicate_task_id_rejected():
    tasks = [("a", [[1.0]], [1.0]), ("a", [[2.0]], [2.0])]
    with pytest.raises(errors.DuplicateTaskId):
        tc.validate_dataset(tc.MultiTaskDataset(tasks))


@pytest.mark.parametrize("tid", ["a,b", "a\nb", "a\rb"])
def test_task_id_the_model_file_cannot_hold_rejected(tid):
    # the model file stores the ids comma-joined on one line
    ds = tc.MultiTaskDataset([(tid, [[1.0], [2.0]], [1.0, 2.0]), ("ok", [[0.0]], [0.0])])
    hp = tc.Hyperparams(lam1=0.1, lam2=0.1)
    config = tc.ExperimentConfig("linear", (0.1,), (0.1,), folds=2, seed=0)
    for call in (
        lambda: tc.validate_dataset(ds),
        lambda: tc.fit(ds, tc.KernelSpec("linear"), hp),
        lambda: tc.fit_with_fixed_inverse(ds, tc.KernelSpec("linear"), hp, np.eye(2)),
        lambda: tc.cross_validate(config, ds),
    ):
        with pytest.raises(errors.InvalidTaskId):
            call()


@pytest.mark.parametrize("inputs,targets", [
    ([[1.0], [np.nan]], [1.0, 2.0]),
    ([[1.0], [2.0]], [1.0, np.inf]),
])
def test_non_finite_values_rejected(inputs, targets):
    ds = tc.MultiTaskDataset([("ok", [[0.0]], [0.0]), ("bad", inputs, targets)])
    with pytest.raises(errors.NonFiniteValue, match="'bad'"):
        tc.validate_dataset(ds)


def test_flat_order_is_task_concatenation():
    tasks = [("a", [[1.0], [2.0]], [1.0, 2.0]), ("b", [[3.0]], [3.0])]
    ds = tc.MultiTaskDataset(tasks)
    assert list(ds.point_task) == [0, 0, 1]
    np.testing.assert_array_equal(ds.inputs.ravel(), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.targets, [1.0, 2.0, 3.0])


class TestTaskCovariance:
    def test_unrelated_initialization(self):
        cov = tc.TaskCovariance.unrelated(4)
        np.testing.assert_allclose(cov.matrix, np.eye(4) / 4)

    def test_rejects_asymmetric(self):
        with pytest.raises(errors.NotSymmetric):
            tc.TaskCovariance(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_indefinite(self):
        with pytest.raises(errors.NotPSD):
            tc.TaskCovariance(np.array([[0.0, 0.5], [0.5, 1.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            tc.TaskCovariance(np.eye(2))

    def test_matrix_is_readonly(self):
        cov = tc.TaskCovariance.unrelated(2)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 3.0


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        tc.Hyperparams(lam1=-1.0, lam2=0.0)
    with pytest.raises(ValueError):
        tc.Hyperparams(lam1=1.0, lam2=1.0, tol=0.0)
    with pytest.raises(ValueError):
        tc.Hyperparams(lam1=1.0, lam2=1.0, max_iters=0)
    hp = tc.Hyperparams(lam1=0.0, lam2=0.0)  # allowed for evaluation-only use
    assert hp.tol == 1e-6


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        tc.KernelSpec("poly")
    with pytest.raises(ValueError):
        tc.KernelSpec("rbf")
    assert tc.KernelSpec("rbf", 2.0).width == 2.0


def test_trained_model_rejects_unbalanced_duals(toy, toy_hp):
    model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
    bad = model.dual_coefs.copy()
    bad[0] += 1.0
    with pytest.raises(ValueError):
        tc.TrainedModel(
            task_ids=model.task_ids,
            dual_coefs=bad,
            biases=model.biases,
            covariance=model.covariance,
            coupling=model.coupling,
            kernel=model.kernel,
            support_inputs=model.support_inputs,
            support_tasks=model.support_tasks,
            counts=model.counts,
            hyperparams=model.hyperparams,
        )


def test_new_task_solution_rejects_bad_variance():
    with pytest.raises(errors.SigmaOutOfRange):
        tc.NewTaskSolution(
            weights=np.zeros(1),
            bias=0.0,
            cov_column=np.zeros(1),
            variance=1.5,
            augmented_covariance=tc.TaskCovariance.unrelated(2),
        )
