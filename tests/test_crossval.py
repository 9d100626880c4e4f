import numpy as np
import pytest

import taskcov as tc
from taskcov import errors
from conftest import random_dataset


def test_fold_assignment_is_partition(toy):
    assignment = tc.assign_folds(toy, 5, seed=3)
    assert assignment.shape == (toy.total,)
    assert set(assignment) <= set(range(5))
    for i in range(toy.m):
        task_folds = assignment[toy.point_task == i]
        # five points spread over five folds, one each
        assert sorted(task_folds) == [0, 1, 2, 3, 4]


def test_small_tasks_spread_best_effort():
    ds = tc.MultiTaskDataset([
        ("a", np.arange(2.0)[:, None], [0.0, 1.0]),
        ("b", np.arange(7.0)[:, None], np.arange(7.0)),
    ])
    assignment = tc.assign_folds(ds, 5, seed=0)
    short = assignment[ds.point_task == 0]
    assert len(set(short)) == 2  # two points, two distinct folds
    long = assignment[ds.point_task == 1]
    assert set(long) == set(range(5))


def test_singleton_grid_selected(toy):
    config = tc.ExperimentConfig(
        kernel_kind="linear", lam1_grid=(0.01,), lam2_grid=(0.005,), folds=5, seed=1
    )
    result = tc.cross_validate(config, toy)
    assert (result.lam1, result.lam2) == (0.01, 0.005)


def test_planted_dominance():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, m=2, d=2, n_lo=20, n_hi=20, noise=0.05)
    config = tc.ExperimentConfig(
        kernel_kind="linear",
        lam1_grid=(0.01, 1e6),  # the huge ridge collapses predictions to a constant
        lam2_grid=(0.01,),
        folds=4,
        seed=2,
    )
    result = tc.cross_validate(config, ds)
    assert result.lam1 == 0.01
    means = {row[0]: row[4] for row in result.table}
    assert means[0.01] < means[1e6]


def test_deterministic_under_seed(toy):
    config = tc.ExperimentConfig(
        kernel_kind="linear", lam1_grid=(0.01, 0.1), lam2_grid=(0.005,), folds=5, seed=9
    )
    a = tc.cross_validate(config, toy)
    b = tc.cross_validate(config, toy)
    assert a == b


def test_rbf_grid_includes_width():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, m=2, d=1, n_lo=10, n_hi=10)
    config = tc.ExperimentConfig(
        kernel_kind="rbf",
        lam1_grid=(0.1,),
        lam2_grid=(0.05,),
        width_grid=(0.5, 2.0),
        folds=3,
        seed=4,
    )
    result = tc.cross_validate(config, ds)
    assert result.width in (0.5, 2.0)
    assert len(result.table) == 2


def test_empty_grid_rejected():
    with pytest.raises(errors.GridEmpty):
        tc.ExperimentConfig(kernel_kind="linear", lam1_grid=(), lam2_grid=(0.1,))


def test_folds_minimum():
    with pytest.raises(ValueError):
        tc.ExperimentConfig(
            kernel_kind="linear", lam1_grid=(0.1,), lam2_grid=(0.1,), folds=1
        )


def per_point_fold_scores(ds, config, lam1, lam2, width):
    """Fold scores with one predict per validation point, grouped by task."""
    assignment = tc.assign_folds(ds, config.folds, config.seed)
    kernel = tc.KernelSpec(config.kernel_kind, width)
    hp = tc.Hyperparams(lam1=lam1, lam2=lam2, tol=config.tol, max_iters=config.max_iters)
    scores = []
    for fold in range(config.folds):
        masks = [assignment[ds.point_task == i] == fold for i in range(ds.m)]
        kept = [(t, mask) for t, mask in zip(ds.tasks, masks) if not mask.all()]
        train = tc.MultiTaskDataset(
            [(t.task_id, t.inputs[~mask], t.targets[~mask]) for t, mask in kept]
        )
        model = tc.fit(train, kernel, hp, solver=config.solver)
        per_task = []
        for t, mask in kept:
            if not mask.any():
                continue
            preds = np.array([tc.predict(model, t.task_id, x) for x in t.inputs[mask]])
            if config.task_type == "classification":
                per_task.append(np.mean(np.where(preds >= 0, 1.0, -1.0) != t.targets[mask]))
            else:
                per_task.append(np.mean((preds - t.targets[mask]) ** 2) / np.var(t.targets))
        scores.append(np.mean(per_task))
    return np.array(scores)


@pytest.mark.parametrize("kind, task_type", [
    ("linear", "regression"), ("linear", "classification"), ("rbf", "regression"),
])
def test_batched_fold_scores_match_per_point_scoring(kind, task_type):
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, m=3, d=2, n_lo=6, n_hi=11)
    if task_type == "classification":
        ds = tc.MultiTaskDataset(
            [(t.task_id, t.inputs, np.where(t.targets >= 0, 1.0, -1.0)) for t in ds.tasks]
        )
    config = tc.ExperimentConfig(
        kernel_kind=kind, lam1_grid=(0.05,), lam2_grid=(0.02,), width_grid=(1.5,),
        folds=3, seed=8, task_type=task_type,
    )
    (lam1, lam2, width, scores, _), = tc.cross_validate(config, ds).table
    np.testing.assert_allclose(
        scores, per_point_fold_scores(ds, config, lam1, lam2, width), rtol=1e-12, atol=0
    )
