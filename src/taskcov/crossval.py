"""Grid search over regularization weights (and kernel width) by k-fold
cross-validation, stratified by task."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .data import Hyperparams, KernelSpec, MultiTaskDataset, TaskData, validate_dataset
from .errors import GridEmpty
from .solver import fit, predict_batch


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a cross-validation run needs.

    Grids are lists of candidate values; width_grid is ignored for the
    linear kernel. Tasks with fewer points than folds simply appear in
    fewer validation folds (each point still lands in exactly one fold).
    """

    kernel_kind: str
    lam1_grid: tuple
    lam2_grid: tuple
    width_grid: tuple = (1.0,)
    folds: int = 5
    seed: int = 0
    solver: str = "auto"
    task_type: str = "regression"
    tol: float = 1e-6
    max_iters: int = 50

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not self.lam1_grid or not self.lam2_grid:
            raise GridEmpty("regularization grids must be nonempty")
        if self.kernel_kind == "rbf" and not self.width_grid:
            raise GridEmpty("width grid must be nonempty for the rbf kernel")

    def grid(self):
        widths = tuple(self.width_grid) if self.kernel_kind == "rbf" else (None,)
        return tuple(itertools.product(self.lam1_grid, self.lam2_grid, widths))


@dataclass(frozen=True)
class CvResult:
    lam1: float
    lam2: float
    width: float | None
    mean_score: float
    table: tuple = field(default=())  # (lam1, lam2, width, fold scores, mean)


def assign_folds(ds, folds, seed):
    """Fold index per flat point, stratified by task.

    Points of each task are shuffled (seeded) and dealt round-robin, so
    every point lands in exactly one fold and each task spreads across as
    many folds as it has points.
    """
    rng = np.random.default_rng(seed)
    assignment = np.zeros(ds.total, dtype=int)
    start = 0
    for c in ds.counts:
        order = rng.permutation(int(c))
        assignment[start + order] = np.arange(int(c)) % folds
        start += int(c)
    return assignment


def _split(ds, assignment, fold):
    """Training set of one fold and its validation points, as (task id,
    inputs, targets) per task that keeps training points."""
    train_tasks, val_tasks = [], []
    for i, t in enumerate(ds.tasks):
        mask = assignment[ds.point_task == i] == fold
        if np.any(~mask):
            train_tasks.append(TaskData(t.task_id, t.inputs[~mask], t.targets[~mask]))
            if np.any(mask):
                val_tasks.append((t.task_id, t.inputs[mask], t.targets[mask]))
        # a task fully inside the validation fold cannot be scored there
    return MultiTaskDataset(train_tasks), val_tasks


def _fold_score(train, val_tasks, kernel, hp, config, variances):
    """Mean per-task validation metric of one fold (_split) fitted at
    kernel and hp; variances maps each task id to its overall target
    variance."""
    model = fit(train, kernel, hp, solver=config.solver)
    ids = [tid for tid, _, y in val_tasks for _ in y]
    preds = predict_batch(model, ids, np.concatenate([x for _, x, _ in val_tasks]))
    bounds = np.cumsum([len(y) for _, _, y in val_tasks])[:-1]
    scores = []
    for (tid, _, y), pred in zip(val_tasks, np.split(preds, bounds)):
        if config.task_type == "classification":
            scores.append(float(np.mean(np.where(pred >= 0, 1.0, -1.0) != y)))
            continue
        # normalize each task's validation MSE by the task's overall target
        # variance (validation slices can be too small to carry a variance)
        mse = float(np.mean((pred - y) ** 2))
        var = variances[tid]
        scores.append(mse / var if var > 1e-12 else mse)
    return float(np.mean(scores))


def cross_validate(config, ds):
    """Exhaustive grid search; returns the best point and the full table.

    The score of a grid point is the mean over folds of the mean per-task
    validation metric (normalized MSE for regression, error rate for
    classification); ties keep the earliest grid point. Deterministic
    under config.seed.
    """
    validate_dataset(ds)
    grid = config.grid()
    if not grid:
        raise GridEmpty("hyperparameter grid is empty")
    assignment = assign_folds(ds, config.folds, config.seed)
    # every grid point fits the same folds: split each once, keeping those
    # with validation points (a fold's validation tasks also train)
    splits = [_split(ds, assignment, fold) for fold in range(config.folds)]
    splits = [(train, val_tasks) for train, val_tasks in splits if val_tasks]
    variances = {t.task_id: float(np.var(t.targets)) for t in ds.tasks}
    table = []
    best = None
    for lam1, lam2, width in grid:
        kernel = KernelSpec(config.kernel_kind, width)
        hp = Hyperparams(lam1=lam1, lam2=lam2, tol=config.tol, max_iters=config.max_iters)
        fold_scores = [_fold_score(train, val_tasks, kernel, hp, config, variances)
                       for train, val_tasks in splits]
        mean = float(np.mean(fold_scores)) if fold_scores else np.inf
        table.append((lam1, lam2, width, tuple(fold_scores), mean))
        if best is None or mean < best[3]:
            best = (lam1, lam2, width, mean)
    return CvResult(
        lam1=best[0], lam2=best[1], width=best[2], mean_score=best[3], table=tuple(table)
    )
