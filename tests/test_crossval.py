import dataclasses
import functools

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
    """Fold scores with one predict per validation point of a model fitted
    to each fold's training set, grouped by task."""
    kernel = tc.KernelSpec(config.kernel_kind, width)
    hp = tc.Hyperparams(lam1=lam1, lam2=lam2, tol=config.tol, max_iters=config.max_iters)
    return per_point_scores(ds, config, lambda train, j: functools.partial(tc.predict, tc.fit(train, kernel, hp)))


def per_point_scores(ds, config, predictor):
    """Fold scores of the folds holding validation points, with one query
    per validation point, grouped by task: predictor(train, j) gives the
    prediction function (task id, x) of fold j, train its training set."""
    assignment = tc.assign_folds(ds, config.folds, config.seed)
    scores = []
    for fold in range(config.folds):
        masks = [assignment[ds.point_task == i] == fold for i in range(ds.m)]
        kept = [(t, mask) for t, mask in zip(ds.tasks, masks) if not mask.all()]
        if not any(mask.any() for _, mask in kept):
            continue
        train = tc.MultiTaskDataset(
            [(t.task_id, t.inputs[~mask], t.targets[~mask]) for t, mask in kept]
        )
        predict = predictor(train, len(scores))
        per_task = []
        for t, mask in kept:
            if not mask.any():
                continue
            preds = np.array([predict(t.task_id, x) for x in t.inputs[mask]])
            if config.task_type == "classification":
                per_task.append(np.mean(np.where(preds >= 0, 1.0, -1.0) != t.targets[mask]))
            else:
                per_task.append(np.mean((preds - t.targets[mask]) ** 2) / np.var(t.targets))
        scores.append(np.mean(per_task))
    return np.array(scores)


def certified_predictor(fitted, train, kernel):
    """The prediction function (task id, x) of a fold fit's certified point,
    one query at a time: a linear fit's primal weights (the moment form's
    rows, or B^T X~ with X~ the training inputs centred per task) against
    x, an rbf fit's sum over training points of B[p, t] k(x_p, x), plus the
    task's bias."""
    coefs = fitted.weights
    if kernel.kind == "linear" and not solver._moment_fit(kernel, train):
        centred = np.concatenate([t.inputs - t.inputs.mean(axis=0) for t in train.tasks])
        coefs = coefs.T @ centred

    def predict(tid, x):
        i = train.task_index(tid)
        if kernel.kind == "linear":
            return float(x @ coefs[i]) + fitted.biases[i]
        return float(tc.base_kernel_matrix(kernel, train.inputs, x[None])[:, 0] @ coefs[:, i]) + fitted.biases[i]

    return predict


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


BATCHED_CASES = [
    pytest.param("linear", "regression", None, id="linear-regression"),
    pytest.param("linear", "classification", None, id="linear-classification"),
    pytest.param("rbf", "regression", None, id="rbf-regression"),
    # a one-point task trains in 3 of the 4 folds, and m*d = 9 sits at the
    # training sizes: one m = 2 moment-form fold alone, one Gram-form fold
    # and two m = 3 moment-form folds stacked
    pytest.param("linear", "regression", (1, 5, 6), id="linear-mixed-stacks"),
]


def batched_case(kind, task_type, counts):
    """The data and one-point configuration of a BATCHED_CASES case."""
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
    return ds, config


@pytest.mark.parametrize("kind, task_type, counts", BATCHED_CASES)
def test_batched_fold_scores_match_per_point_scoring(kind, task_type, counts):
    ds, config = batched_case(kind, task_type, counts)
    (lam1, lam2, width, scores, _), = tc.cross_validate(config, ds).table
    # the same certified points, fitted along the same path (stacked where
    # cross_validate stacks), scored one query at a time
    kernel = tc.KernelSpec(kind, width if kind == "rbf" else None)
    hp = tc.Hyperparams(lam1=lam1, lam2=lam2, tol=config.tol, max_iters=config.max_iters)
    trains = fold_training_sets(ds, config.folds, config.seed)
    points = {j: fitted for _, j, fitted in solver._fit_path(trains, kernel, [hp])}
    want = per_point_scores(ds, config, lambda train, j: certified_predictor(points[j], train, kernel))
    np.testing.assert_allclose(scores, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind, task_type, counts", BATCHED_CASES)
def test_fold_scores_lie_near_those_of_fitted_models(kind, task_type, counts):
    # a fold score is read off the certified point, not off the model that
    # fit makes with one more coefficient step: both lie within tol of the
    # optimum, and their scores within 1e-4 on the moments and 1e-3 on the
    # base Gram. The mixed stacks' training tasks hold 0 to 4 points in
    # d = 3, so only lam1 makes P strongly convex there, and two points
    # within the gap lie farther apart: their moment-form scores moved by
    # up to 6.8e-4 when this was written, and every fold there is held to 1e-3
    ds, config = batched_case(kind, task_type, counts)
    (lam1, lam2, width, scores, _), = tc.cross_validate(config, ds).table
    want = per_point_fold_scores(ds, config, lam1, lam2, width)
    moments = [kind == "linear" and moment for _, moment in fold_kinds(ds, config.folds, config.seed)]
    assert len(moments) == len(scores)
    for score, reference, moment in zip(scores, want, moments):
        assert abs(score - reference) <= (1e-4 if moment and counts is None else 1e-3) * abs(reference)


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
        for i, j, fitted in solver._fit_path(trains, kernel, hps):
            reports.setdefault(path[i] + (width,), [None] * len(trains))[j] = fitted.report
            model, cold = fitted.model(), tc.fit(trains[j], kernel, hps[i])
            # the model's final refresh keeps the loop's stop, iterations and
            # restarts, and can only lower P and raise the bound: the
            # certified gap is the larger
            assert dataclasses.replace(model.report, gap=fitted.report.gap) == fitted.report
            assert 0.0 < model.report.gap <= fitted.report.gap
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
def test_fold_scores_build_no_model_and_run_no_refresh(kind, monkeypatch):
    # every fold fit is scored at its certified point: no TrainedModel, no
    # predict_batch and no final refresh, whose solves are gated by
    # _checked_saddle (on the moments through _low_rank_solve)
    config, toy, calls = TOY_GRIDS[kind], tc.generate_toy(0), []
    for owner, name in [(tc.TrainedModel, "__post_init__"), (solver, "predict_batch"),
                        (solver, "_low_rank_solve"), (solver, "_checked_saddle")]:
        spied = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, spied=spied: calls.append(name) or spied(*args))
    result = tc.cross_validate(config, toy)
    assert calls == [] and len(result.reports) == len(config.grid()) * config.folds
    assert not hasattr(crossval, "predict_batch") and not hasattr(crossval, "TrainedModel")
    # the same spies see a fit's refresh and model
    tc.fit(toy, tc.KernelSpec(config.kernel_kind, config.width_grid[0] if kind == "rbf" else None),
           tc.Hyperparams(result.lam1, result.lam2))
    assert calls.count("__post_init__") == 1 and calls.count("_checked_saddle") == 1
    assert calls.count("_low_rank_solve") == (kind == "linear")


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
