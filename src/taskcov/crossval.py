"""Grid search over regularization weights (and kernel width) by k-fold
cross-validation, stratified by task.

Each fold is split once. The grid is fitted one kernel width at a time
along a path through its (lam1, lam2) points in snake order: lam1 by
lam1, with the lam2 grid reversed on every other lam1, so that each point
follows a neighbour. The path runs through solver's one hook for it
(_fit_path). Under a linear kernel, the folds whose training sets have
m*d < N are fitted on their centred moments, under every solver: each
such fold fit at a point starts from that fold's certified weights at
the point before, and the folds that share (m, d) run as one stacked
certified loop. Every other fold fit (an rbf kernel, or wide linear
data) starts cold at each point, as fit does. Each fit stops on
its own duality gap, so a fold score moves from a cold fit's only as far
as two fits within tol of the optimum differ. Each fold's score is taken
as its model arrives, and the model is then dropped. The table keeps
config.grid() order.
"""

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import Hyperparams, KernelSpec, MultiTaskDataset, TaskData, validate_dataset
from .errors import GridEmpty
from .solver import SOLVERS, _fit_path, predict_batch


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a cross-validation run needs.

    Grids are lists of candidate values; width_grid is ignored for the
    linear kernel. Tasks with fewer points than folds simply appear in
    fewer validation folds (each point still lands in exactly one fold).
    solver is fit's: it picks only the final step of a fold fit on the
    base Gram (an rbf kernel, or linear folds with m*d >= N).
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
        if not (isinstance(self.folds, numbers.Integral) and self.folds >= 2):
            raise ValueError(f"folds must be an integer of at least 2, got {self.folds!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.task_type not in ("regression", "classification"):
            raise ValueError(f"unknown task_type {self.task_type!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not self.lam1_grid or not self.lam2_grid:
            raise GridEmpty("regularization grids must be nonempty")
        if self.kernel_kind == "rbf" and not self.width_grid:
            raise GridEmpty("width grid must be nonempty for the rbf kernel")
        _paths(self)  # every grid point's KernelSpec and Hyperparams checks
        if any(lam1 <= 0 for lam1 in self.lam1_grid):
            raise ValueError("fitting requires lam1 > 0")

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
    reports: tuple = field(default=())  # FitReport per fold fit, in table order


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


def _paths(config):
    """Per kernel width, its KernelSpec and the path through the grid's
    (lam1, lam2) points in snake order, as (table row, Hyperparams) pairs;
    rows follow config.grid(). Builds every point's KernelSpec and
    Hyperparams, so their checks raise here."""
    widths = tuple(config.width_grid) if config.kernel_kind == "rbf" else (None,)
    count = len(config.lam2_grid)
    paths = []
    for w, width in enumerate(widths):
        path = []
        for a, lam1 in enumerate(config.lam1_grid):
            for b in (range(count) if a % 2 == 0 else reversed(range(count))):
                hp = Hyperparams(lam1=lam1, lam2=config.lam2_grid[b], tol=config.tol, max_iters=config.max_iters)
                path.append(((a * count + b) * len(widths) + w, hp))
        paths.append((KernelSpec(config.kernel_kind, width), path))
    return paths


def _fold_score(model, val_tasks, config, variances):
    """Mean per-task validation metric of one fold's model (_split);
    variances maps each task id to its overall target variance."""
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
    """Exhaustive grid search; returns the best point, the full table and
    one FitReport per fold fit (grid point by grid point, in table order).

    The score of a grid point is the mean over folds of the mean per-task
    validation metric (normalized MSE for regression, error rate for
    classification); ties keep the earliest grid point. Deterministic
    under config.seed. The grid is fitted along paths that, on the centred
    moments, warm-start each fold fit from the point before and stack the
    folds of a point (module docstring); every fit stops on its own
    duality gap at tol, so a score moves from a cold fit's only within it.
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
    scores = [[None] * len(splits) for _ in grid]
    reports = [[None] * len(splits) for _ in grid]
    for kernel, path in _paths(config):
        rows, hps = zip(*path)
        for i, j, model in _fit_path([train for train, _ in splits], kernel, hps, config.solver):
            scores[rows[i]][j] = _fold_score(model, splits[j][1], config, variances)
            reports[rows[i]][j] = model.report
    table = []
    best = None
    for (lam1, lam2, width), fold_scores in zip(grid, scores):
        mean = float(np.mean(fold_scores)) if fold_scores else np.inf
        table.append((lam1, lam2, width, tuple(fold_scores), mean))
        if best is None or mean < best[3]:
            best = (lam1, lam2, width, mean)
    return CvResult(
        lam1=best[0], lam2=best[1], width=best[2], mean_score=best[3], table=tuple(table),
        reports=tuple(report for row in reports for report in row),
    )
