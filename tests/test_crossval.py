import numpy as np
import pytest

import taskcov as tc
from taskcov import crossval, errors, solver
from conftest import planted_dataset, random_dataset


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


@pytest.mark.parametrize("change, message", [
    ({"task_type": "classfication"}, "unknown task_type"),
    ({"max_iters": 0}, "max_iters must be an integer of at least 1"),
    ({"kernel_kind": "poly"}, "unknown kernel kind"),
    ({"lam1_grid": (0.1, 0.0)}, "lam1 > 0"),
    ({"lam2_grid": (0.1, -1.0)}, "nonnegative"),
    ({"kernel_kind": "rbf", "width_grid": (1.0, 0.0)}, "positive width"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"seed": 2.5}, "seed must be a non-negative integer"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"seed": "0"}, "seed must be a non-negative integer"),
])
def test_config_refuses_bad_settings_at_construction(change, message):
    settings = {"kernel_kind": "linear", "lam1_grid": (0.1,), "lam2_grid": (0.1,), **change}
    with pytest.raises(ValueError, match=message):
        tc.ExperimentConfig(**settings)


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
        model = tc.fit(train, kernel, hp)
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


def fold_kinds(ds, folds, seed):
    """(m, whether the fit runs on the centred moments) of each fold's
    training set, for the folds holding validation points."""
    assignment = tc.assign_folds(ds, folds, seed)
    kinds = []
    for fold in range(folds):
        masks = [assignment[ds.point_task == i] == fold for i in range(ds.m)]
        kept = [mask for mask in masks if not mask.all()]
        if any(mask.any() for mask in kept):
            total = sum(int((~mask).sum()) for mask in kept)
            kinds.append((len(kept), len(kept) * ds.dim < total))
    return kinds


def counted_dataset(rng, counts):
    """Linear data in d = 3 with counts[i] points in task i."""
    tasks = []
    for i, n in enumerate(counts):
        x = rng.normal(size=(n, 3))
        tasks.append((f"t{i}", x, x @ rng.normal(size=3) + 0.1 * rng.normal(size=n)))
    return tc.MultiTaskDataset(tasks)


@pytest.mark.parametrize("kind, task_type, counts", [
    pytest.param("linear", "regression", None, id="linear-regression"),
    pytest.param("linear", "classification", None, id="linear-classification"),
    pytest.param("rbf", "regression", None, id="rbf-regression"),
    # a one-point task trains in 3 of the 4 folds, and m*d = 9 sits at the
    # training sizes: one m = 2 moment-form fold alone, one Gram-form fold
    # and two m = 3 moment-form folds stacked
    pytest.param("linear", "regression", (1, 5, 6), id="linear-mixed-stacks"),
])
def test_batched_fold_scores_match_per_point_scoring(kind, task_type, counts):
    rng = np.random.default_rng(7)
    if counts is None:
        ds = random_dataset(rng, m=3, d=2, n_lo=6, n_hi=11)
    else:
        ds = counted_dataset(rng, counts)
        assert sorted(fold_kinds(ds, 4, 8)) == [(2, True), (3, False), (3, True), (3, True)]
    if task_type == "classification":
        ds = tc.MultiTaskDataset(
            [(t.task_id, t.inputs, np.where(t.targets >= 0, 1.0, -1.0)) for t in ds.tasks]
        )
    config = tc.ExperimentConfig(
        kernel_kind=kind, lam1_grid=(0.05,), lam2_grid=(0.02,), width_grid=(1.5,),
        folds=3 if counts is None else 4, seed=8, task_type=task_type,
    )
    (lam1, lam2, width, scores, _), = tc.cross_validate(config, ds).table
    np.testing.assert_allclose(
        scores, per_point_fold_scores(ds, config, lam1, lam2, width), rtol=1e-12, atol=0
    )


def fold_training_sets(ds, folds, seed):
    """Training sets of the folds holding validation points, in fold order."""
    assignment = tc.assign_folds(ds, folds, seed)
    trains = []
    for fold in range(folds):
        masks = [assignment[ds.point_task == i] == fold for i in range(ds.m)]
        kept = [(t, mask) for t, mask in zip(ds.tasks, masks) if not mask.all()]
        if any(mask.any() for _, mask in kept):
            trains.append(tc.MultiTaskDataset(
                [(t.task_id, t.inputs[~mask], t.targets[~mask]) for t, mask in kept]))
    return trains


def test_fit_path_yields_models_group_by_group_point_by_point():
    # the mixed-stacks folds: one m = 2 moment-form fold, one Gram-form
    # fold and two m = 3 moment-form folds, which run as one stack
    trains = fold_training_sets(counted_dataset(np.random.default_rng(7), (1, 5, 6)), 4, 8)
    groups = {}
    for j, t in enumerate(trains):
        groups.setdefault((t.m, t.dim) if t.m * t.dim < t.total else j, []).append(j)
    assert sorted(len(members) for members in groups.values()) == [1, 1, 2]
    hps = [tc.Hyperparams(0.05, lam2) for lam2 in (0.02, 0.01, 0.05)]
    order = [(i, j) for i, j, _ in solver._fit_path(trains, tc.KernelSpec("linear"), hps)]
    assert order == [(i, j) for members in groups.values() for i in range(len(hps)) for j in members]


WARM_GRIDS = {
    # the benchmark's cv-grid data: every fold a moment-form fit, stacked
    "moment-stack": (lambda: planted_dataset(777, 8, 40, 5, 2), "linear", (1.0,), 5, True),
    # m*d = 60 against 24 training points: every fold a Gram-form fit
    "gram-form": (lambda: planted_dataset(3, 3, 12, 20, 2), "linear", (1.0,), 3, False),
    "rbf-two-widths": (lambda: random_dataset(np.random.default_rng(9), m=3, d=2, n_lo=12, n_hi=16),
                       "rbf", (0.5, 2.0), 3, False),  # every fold a Gram-form fit
}


@pytest.mark.parametrize("name", list(WARM_GRIDS))
def test_warm_started_fold_fits_are_certified(name):
    make, kind, widths, folds, moments = WARM_GRIDS[name]
    ds = make()
    config = tc.ExperimentConfig(  # the default max_iters
        kernel_kind=kind, lam1_grid=(0.03, 0.01, 0.1), lam2_grid=(0.1, 0.003, 0.03),
        width_grid=widths, folds=folds, seed=1,
    )
    result = tc.cross_validate(config, ds)
    assert [row[:3] for row in result.table] == list(config.grid())
    trains = fold_training_sets(ds, folds, config.seed)
    assert all((kind == "linear" and t.m * t.dim < t.total) == moments for t in trains)
    assert len(result.reports) == len(config.grid()) * len(trains)
    assert all(r.stop_reason == "gap" and r.gap <= config.tol for r in result.reports)
    # the same report types on every path; only Gram-form fits take CG products
    assert all(type(r.gap) is float and type(r.products) is int for r in result.reports)
    assert all((r.products == 0) == moments for r in result.reports)

    # the same fits along each width's path: (lam1, lam2) in snake order,
    # a moment-form fit warm-started from the point before, a Gram-form
    # fit cold
    reports = {}
    for width in (widths if kind == "rbf" else (None,)):
        kernel = tc.KernelSpec(kind, width)
        path = [(lam1, lam2) for a, lam1 in enumerate(config.lam1_grid)
                for lam2 in (config.lam2_grid if a % 2 == 0 else config.lam2_grid[::-1])]
        hps = [tc.Hyperparams(lam1, lam2, tol=config.tol, max_iters=config.max_iters)
               for lam1, lam2 in path]
        for i, j, model in solver._fit_path(trains, kernel, hps):
            reports.setdefault(path[i] + (width,), [None] * len(trains))[j] = model.report
            cold = tc.fit(trains[j], kernel, hps[i])
            if moments:  # both lie within tol |P| above the optimum
                warm, final = model.objective_trace[-1], cold.objective_trace[-1]
                assert abs(warm - final) <= config.tol * max(abs(warm), abs(final))
            else:
                assert model.objective_trace == cold.objective_trace
                np.testing.assert_array_equal(model.dual_coefs, cold.dual_coefs)
    assert list(result.reports) == [r for point in config.grid() for r in reports[point]]


# the make-toy data's cross-validation grids, as CI runs them
TOY_GRIDS = {
    "linear": tc.ExperimentConfig("linear", (0.01, 0.1), (0.005, 0.05), folds=2),
    "rbf": tc.ExperimentConfig("rbf", (0.01, 0.1), (0.005, 0.05), width_grid=(0.5, 2.0), folds=2),
}


@pytest.mark.parametrize("kind", list(TOY_GRIDS))
def test_fold_scores_come_from_the_prediction_kernel_without_predict_batch(kind, monkeypatch):
    config, toy, calls = TOY_GRIDS[kind], tc.generate_toy(0), []
    predictions = solver._predictions

    def refused(*args):
        raise AssertionError("cross_validate called predict_batch")

    monkeypatch.setattr(solver, "predict_batch", refused)
    monkeypatch.setattr(tc, "predict_batch", refused)
    monkeypatch.setattr(crossval, "_predictions", lambda *args: calls.append(args) or predictions(*args))
    tc.cross_validate(config, toy)
    monkeypatch.undo()
    assert not hasattr(crossval, "predict_batch")
    assert len(calls) == len(config.grid()) * config.folds  # one per fold model
    for model, index, x in calls:
        ids = [model.task_ids[i] for i in index]
        np.testing.assert_array_equal(predictions(model, index, x), tc.predict_batch(model, ids, x))


def scaled(ds, factor):
    return tc.MultiTaskDataset([(t.task_id, t.inputs, factor * t.targets) for t in ds.tasks])


@pytest.mark.parametrize("kind", list(TOY_GRIDS))
def test_fold_scores_do_not_depend_on_target_units(kind):
    # a task's MSE is normalised by its variance unless its targets are
    # constant to rounding: at 1e-7 the toy's task3 varies, with variance
    # 2e-16, and is normalised; the flat task is constant at every scale,
    # and its MSE (about 0) is taken as it is
    config, toy = TOY_GRIDS[kind], tc.generate_toy(0)
    flat = tc.MultiTaskDataset(list(toy.tasks) + [("flat", toy.tasks[0].inputs, np.full(toy.counts[0], 0.1))])
    for ds in (toy, flat):
        want = tc.cross_validate(config, ds)
        for factor in (1e-7, 1e-6, 1e6):
            got = tc.cross_validate(config, scaled(ds, factor))
            assert (got.lam1, got.lam2, got.width) == (want.lam1, want.lam2, want.width)
            assert [row[:3] for row in got.table] == [row[:3] for row in want.table]
            np.testing.assert_allclose([row[3] + (row[4],) for row in got.table],
                                       [row[3] + (row[4],) for row in want.table], rtol=1e-9, atol=0)
