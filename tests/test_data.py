import dataclasses

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


@pytest.mark.parametrize("tid", ["a,b", "a\nb", "a\rb", "\ud800", " a", "a\t"])
def test_task_id_the_model_file_cannot_hold_rejected(tid):
    # the model file stores the ids comma-joined on one line, as UTF-8,
    # and the CSV reader strips each id
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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: tc.Hyperparams(np.nan, 0.1), "finite and nonnegative", id="lam1-nan"),
    pytest.param(lambda: tc.Hyperparams(np.inf, 0.1), "finite and nonnegative", id="lam1-inf"),
    pytest.param(lambda: tc.Hyperparams(0.1, np.nan), "finite and nonnegative", id="lam2-nan"),
    pytest.param(lambda: tc.Hyperparams(0.1, np.inf), "finite and nonnegative", id="lam2-inf"),
    pytest.param(lambda: tc.Hyperparams(0.1, 0.1, tol=np.nan), "tol must be positive and finite", id="tol-nan"),
    pytest.param(lambda: tc.Hyperparams(0.1, 0.1, max_iters=2.5), "max_iters must be an integer",
                 id="max-iters-fraction"),
    pytest.param(lambda: tc.KernelSpec("rbf", np.nan), "finite positive width", id="width-nan"),
    pytest.param(lambda: tc.KernelSpec("rbf", np.inf), "finite positive width", id="width-inf"),
    pytest.param(lambda: tc.ExperimentConfig("linear", (0.1,), (0.1,), folds=2.5), "folds must be an integer",
                 id="folds-fraction"),
])
def test_constructors_refuse_values_that_would_fail_later(build, message):
    # each once failed only inside a fit: in LAPACK, at the iteration cap or
    # with a TypeError in the loop or the fold split
    with pytest.raises(ValueError, match=message):
        build()


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        tc.KernelSpec("poly")
    with pytest.raises(ValueError):
        tc.KernelSpec("rbf")
    assert tc.KernelSpec("rbf", 2.0).width == 2.0


@pytest.mark.parametrize("width", [1.0, 0, np.float64(2.0)])
def test_linear_kernel_refuses_a_width(width, tmp_path, toy, toy_hp):
    # a model file writes no width for the linear kernel, so a loaded
    # model's kernel would differ from the one it was fitted with
    with pytest.raises(ValueError, match="the linear kernel takes no width"):
        tc.KernelSpec("linear", width)
    model = tc.fit(toy, tc.KernelSpec("linear", None), toy_hp)
    tc.save_model(model, tmp_path / "model.txt")
    assert tc.load_model(tmp_path / "model.txt").kernel == model.kernel == tc.KernelSpec("linear")


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


def test_trained_model_rejects_support_out_of_task_order(toy, toy_hp):
    # support points come in task order, counts[t] for task t, as a model
    # file holds them: interleaved tasks, or counts that do not match, are
    # refused (an interleaved model could be saved but not loaded)
    model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
    order = np.argsort(np.arange(toy.total) % 7, kind="stable")
    with pytest.raises(ValueError, match="task order"):
        dataclasses.replace(model, dual_coefs=model.dual_coefs[order], support_inputs=model.support_inputs[order],
                            support_tasks=model.support_tasks[order])
    with pytest.raises(ValueError, match="task order"):
        dataclasses.replace(model, counts=model.counts + np.array([1, -1, 0]))


def test_unbalanced_duals_name_the_first_offending_task():
    # the per-task sums come from one bincount; the error still names the
    # first task whose coefficients do not sum to 0, and its sum
    ds = tc.MultiTaskDataset([(f"t{i}", np.arange(4.0)[:, None] + i, np.arange(4.0) * (i + 1)) for i in range(4)])
    model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(0.1, 0.1))
    for first, later in ((1, 3), (0, 2)):
        bad = model.dual_coefs.copy()
        bad[4 * first] += 0.5
        bad[4 * later + 1] -= 0.25
        with pytest.raises(ValueError, match=f"of task 't{first}' sum to 5.000e-01"):
            dataclasses.replace(model, dual_coefs=bad)
    bad = model.dual_coefs.copy()
    bad[5] += 1e-7  # within the 1e-6 tolerance
    assert dataclasses.replace(model, dual_coefs=bad).dual_coefs[5] == bad[5]


def test_new_task_solution_rejects_bad_variance():
    with pytest.raises(errors.SigmaOutOfRange):
        tc.NewTaskSolution(
            weights=np.zeros(1),
            bias=0.0,
            cov_column=np.zeros(1),
            variance=1.5,
            augmented_covariance=tc.TaskCovariance.unrelated(2),
        )


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: tc.Hyperparams(True, 0.1), "lam1 must be a real number", id="lam1"),
    pytest.param(lambda: tc.Hyperparams(0.1, np.bool_(False)), "lam2 must be a real number", id="lam2"),
    pytest.param(lambda: tc.Hyperparams(0.1, 0.1, tol=True), "tol must be a real number", id="tol"),
    pytest.param(lambda: tc.Hyperparams(0.1, 0.1, max_iters=True), "max_iters must be an integer", id="max-iters"),
    pytest.param(lambda: tc.KernelSpec("rbf", True), "kernel width must be a real number", id="width"),
    pytest.param(lambda: tc.ExperimentConfig("linear", (0.1, True), (0.1,)), "lam1_grid entry", id="grid"),
    pytest.param(lambda: tc.ExperimentConfig("rbf", (0.1,), (0.1,), width_grid=[True]), "width_grid entry",
                 id="width-grid"),
    pytest.param(lambda: tc.ExperimentConfig("linear", (0.1,), (0.1,), folds=True), "folds must be an integer",
                 id="folds"),
    pytest.param(lambda: tc.ExperimentConfig("linear", (0.1,), (0.1,), seed=True), "seed must be a non-negative",
                 id="seed"),
    pytest.param(lambda: tc.ExperimentConfig("linear", (0.1,), (0.1,), seed=False), "seed must be a non-negative",
                 id="seed-false"),
])
def test_constructors_refuse_bools(build, message):
    # a bool reads as 0 or 1 in arithmetic, and a model file once wrote it as 'True'
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("tid", [5, None, b"a"])
def test_task_id_that_is_not_a_string_rejected(tid):
    ds = tc.MultiTaskDataset([(tid, [[1.0], [2.0]], [1.0, 2.0]), ("ok", [[0.0], [1.0]], [0.0, 1.0])])
    with pytest.raises(errors.InvalidTaskId, match="not a string"):
        tc.validate_dataset(ds)
    with pytest.raises(errors.InvalidTaskId):
        tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(0.1, 0.1))


@pytest.mark.parametrize("task_ids, error, message", [
    (("task1", "task2", "task1"), errors.DuplicateTaskId, "'task1' appears more than once"),
    (("task1", "a,b", "task3"), errors.InvalidTaskId, "holds a comma"),
    ((1, 2, 3), errors.InvalidTaskId, "not a string"),
    (("task1", " task2", "task3"), errors.InvalidTaskId, "whitespace"),
])
def test_trained_model_refuses_task_ids_a_dataset_refuses(toy, toy_hp, task_ids, error, message):
    # a repeated id once served the last task of that id, an id with a
    # comma saved a file that failed to load, and integer ids loaded back
    # as strings
    model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
    with pytest.raises(error, match=message):
        dataclasses.replace(model, task_ids=task_ids)


def test_numpy_string_task_ids_fit():
    ds = tc.MultiTaskDataset([(np.str_("a"), [[1.0], [2.0]], [1.0, 2.0]), (np.str_("b"), [[0.0], [1.0]], [0.0, 1.0])])
    model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(0.1, 0.1))
    assert model.task_ids == ("a", "b")


@pytest.mark.parametrize("field, cut", [
    pytest.param("biases", lambda b: b[:2], id="short-biases"),
    pytest.param("biases", lambda b: b[:, None], id="column-biases"),
    pytest.param("coupling", lambda c: c[:2], id="short-coupling"),
    pytest.param("coupling", np.ravel, id="flat-coupling"),
])
def test_trained_model_refuses_biases_or_coupling_of_the_wrong_shape(field, cut, toy, toy_hp):
    # a model that held them would fail only later, indexing them in predict
    model = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
    with pytest.raises(ValueError, match="do not fit 3 tasks"):
        dataclasses.replace(model, **{field: cut(getattr(model, field))})


def test_duals_sum_to_zero_within_rounding_of_their_size():
    # the zero-sum gate scales with the coefficients' absolute sum, as the
    # solve gate scales with the targets: the same duals times 1e12 pass
    ds = tc.MultiTaskDataset([(f"t{i}", np.arange(4.0)[:, None] + i, np.arange(4.0) * (i + 1)) for i in range(2)])
    model = tc.fit(ds, tc.KernelSpec("linear"), tc.Hyperparams(0.1, 0.1))
    big = model.dual_coefs * 1e12
    big[0] += 1e-2  # 7e-14 of the task's absolute sum, 1.5e11
    dataclasses.replace(model, dual_coefs=big)
    big[0] += 1e7  # 7e-5 of it
    with pytest.raises(ValueError, match="of task 't0' sum to"):
        dataclasses.replace(model, dual_coefs=big)


def test_equality_compares_arrays_by_value(tmp_path, toy, toy_hp):
    # == on a type holding arrays is a bool, field by field, and a
    # compare=False field (a model's or a solution's report) takes no part
    linear = tc.fit(toy, tc.KernelSpec("linear"), toy_hp)
    rbf = tc.fit(toy, tc.KernelSpec("rbf", 2.0), toy_hp)
    tc.save_model(linear, tmp_path / "model.txt")
    loaded = tc.load_model(tmp_path / "model.txt")
    assert loaded.report is None and loaded == linear
    assert (linear == rbf) is False and linear != rbf
    assert linear != dataclasses.replace(linear, biases=linear.biases + 1.0)
    assert linear != "a model"
    assert tc.TaskCovariance(np.eye(2) / 2) == tc.TaskCovariance.unrelated(2) != tc.TaskCovariance.unrelated(3)
    task = tc.TaskData("a", [1.0, 2.0], [3.0, 4.0])
    assert task == tc.TaskData("a", [[1.0], [2.0]], [3.0, 4.0])
    assert task != tc.TaskData("a", [[1.0, 2.0]], [3.0]) and task != tc.TaskData("b", [1.0, 2.0], [3.0, 4.0])
    solution = tc.NewTaskSolution(np.ones(1), 0.5, np.zeros(2), 0.25, tc.TaskCovariance.unrelated(3))
    assert solution == dataclasses.replace(solution, report="another report")
    assert solution != dataclasses.replace(solution, cov_column=np.ones(2) * 1e-3)
