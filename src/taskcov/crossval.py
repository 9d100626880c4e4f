"""Grid search over regularization weights (and kernel width) by k-fold
cross-validation, stratified by task.

Each fold is split once. The grid is fitted one kernel width at a time
along a path through its (lam1, lam2) points in snake order: lam1 by
lam1, with the lam2 grid reversed on every other lam1, so that each point
follows a neighbour. The path runs through solver's one hook for it
(_fit_path), whose fits take fit's steps. Under a linear kernel, the
folds whose training sets have m*d < N are fitted on their centred
moments: each such fold fit at a point starts from that fold's certified
weights at the point before, and the folds that share (m, d) run as one
stacked certified loop. Every other fold fit (an rbf kernel, or wide
linear data) starts cold at each point, as fit does. Each fit stops on
its own duality gap, and is scored at the point its loop certified, as
it arrives, with no final refresh and no model: a fold score moves from
a fitted model's only as far as two points within tol of the optimum
differ, and a fold fit's report gives its loop's gap. The table keeps
config.grid() order.

Each fold's validation points are laid out once, right after the split
(_layout), and what its scores read of its training set once per kernel
width (_basis): the cross block K(train, val) under an rbf kernel, and
a linear fit on the base Gram's centred inputs, whose primal weight rows
B^T X~ then score it as a moment-form fit's rows do. A task's validation
MSE is divided by its overall target variance, unless its targets are
constant to rounding by linalg._centre's rule, so the scores and the
chosen point do not depend on the targets' units.
"""

import itertools
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .data import Hyperparams, KernelSpec, MultiTaskDataset, TaskData, _real, validate_dataset
from .errors import GridEmpty
from .kernels import base_kernel_matrix
from .linalg import _centre
from .solver import _fit_path, _moment_fit


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a cross-validation run needs.

    Grids are sequences of candidate values, stored as tuples of Python
    floats; width_grid is ignored for the linear kernel. Tasks with fewer
    points than folds simply appear in fewer validation folds (each point
    still lands in exactly one fold).
    """

    kernel_kind: str
    lam1_grid: tuple
    lam2_grid: tuple
    width_grid: tuple = (1.0,)
    folds: int = 5
    seed: int = 0
    task_type: str = "regression"
    tol: float = 1e-6
    max_iters: int = 50

    def __post_init__(self):
        if isinstance(self.folds, bool) or not (isinstance(self.folds, numbers.Integral) and self.folds >= 2):
            raise ValueError(f"folds must be an integer of at least 2, got {self.folds!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.task_type not in ("regression", "classification"):
            raise ValueError(f"unknown task_type {self.task_type!r}")
        for name in ("lam1_grid", "lam2_grid", "width_grid"):
            object.__setattr__(self, name, tuple(_real(v, f"{name} entry") for v in getattr(self, name)))
        if not self.lam1_grid or not self.lam2_grid:
            raise GridEmpty("regularization grids must be nonempty")
        if self.kernel_kind == "rbf" and not self.width_grid:
            raise GridEmpty("width grid must be nonempty for the rbf kernel")
        _paths(self)  # every grid point's KernelSpec and Hyperparams checks
        if any(lam1 <= 0 for lam1 in self.lam1_grid):
            raise ValueError("fitting requires lam1 > 0")

    def grid(self):
        widths = self.width_grid if self.kernel_kind == "rbf" else (None,)
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
    held, start = assignment == fold, 0
    for t in ds.tasks:
        mask, start = held[start:start + t.n], start + t.n  # the task's points, in flat order
        if not mask.all():
            keep = ~mask
            train_tasks.append(TaskData(t.task_id, t.inputs[keep], t.targets[keep]))
            if mask.any():
                val_tasks.append((t.task_id, t.inputs[mask], t.targets[mask]))
        # a task fully inside the validation fold cannot be scored there
    return MultiTaskDataset(train_tasks), val_tasks


def _paths(config):
    """Per kernel width, its KernelSpec and the path through the grid's
    (lam1, lam2) points in snake order, as (table row, Hyperparams) pairs;
    rows follow config.grid(). Builds every point's KernelSpec and
    Hyperparams, so their checks raise here."""
    widths = config.width_grid if config.kernel_kind == "rbf" else (None,)
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


_Layout = namedtuple("_Layout", "index x y segment weights")


def _layout(train, val_tasks, scales):
    """One fold's validation points (_split) as _fold_score reads them: each
    point's task index in train, the inputs and targets concatenated, each
    point's position among val_tasks, and per validation task the weight
    1/(count * scale * len(val_tasks)) of its summed loss, so that the
    weighted sum is the mean over tasks; scales maps task ids."""
    counts = np.array([len(y) for _, _, y in val_tasks])
    return _Layout(
        index=np.repeat([train.task_index(tid) for tid, _, _ in val_tasks], counts),
        x=np.concatenate([x for _, x, _ in val_tasks]),
        y=np.concatenate([y for _, _, y in val_tasks]),
        segment=np.repeat(np.arange(len(val_tasks)), counts),
        weights=1.0 / (counts * np.array([scales[tid] for tid, _, _ in val_tasks]) * len(val_tasks)),
    )


def _basis(kernel, train, layout):
    """What _fold_score reads the fits of one fold through, built once per
    fold and kernel width: for an rbf kernel the cross block K(train, val);
    for a linear fit on the base Gram the training inputs centred per task,
    as TrainedModel._weights centres them; None for a moment-form fit."""
    if kernel.kind == "rbf":
        return base_kernel_matrix(kernel, train.inputs, layout.x)
    if _moment_fit(kernel, train):
        return None
    return np.concatenate([t.inputs - t.inputs.mean(axis=0) for t in train.tasks])


def _fold_score(fitted, layout, kernel, basis, task_type):
    """Mean per-task validation metric of one fold's fit, read off its
    certified point (solver._path) and the fold's _layout and _basis: an rbf
    fit predicts (K(train, val)^T B)[q, task of q], a linear one sums each
    query's row against its primal weight rows, the moment form's own or
    B^T X~, as predict_batch does; each adds its task's bias."""
    coefs, index = fitted.weights, layout.index
    if kernel.kind == "rbf":
        pred = (coefs.T @ basis)[index, np.arange(index.size)]
    else:
        rows = coefs if basis is None else coefs.T @ basis
        pred = np.sum(layout.x * rows[index], axis=1)
    pred += fitted.biases[index]
    if task_type == "classification":
        losses = np.where(pred >= 0, 1.0, -1.0) != layout.y
    else:
        losses = (pred - layout.y) ** 2
    return float(np.bincount(layout.segment, losses) @ layout.weights)


def cross_validate(config, ds):
    """Exhaustive grid search; returns the best point, the full table and
    one FitReport per fold fit (grid point by grid point, in table order).

    The score of a grid point is the mean over folds of the mean per-task
    validation metric (MSE over the task's target variance for regression,
    the plain MSE where its targets are constant, error rate for
    classification); ties keep the earliest grid point. Deterministic
    under config.seed. The grid is fitted along paths that, on the centred
    moments, warm-start each fold fit from the point before and stack the
    folds of a point (module docstring); every fit stops on its own
    duality gap at tol and is scored at its certified point, so a score
    moves from a fitted model's only within that gap.
    """
    validate_dataset(ds)
    grid = config.grid()
    assignment = assign_folds(ds, config.folds, config.seed)
    # every grid point fits the same folds: split each once, keeping those
    # with validation points (a fold's validation tasks also train)
    splits = [_split(ds, assignment, fold) for fold in range(config.folds)]
    scales = {t.task_id: 1.0 for t in ds.tasks}
    if config.task_type == "regression":
        # a task's MSE is divided by its overall target variance, unless its
        # targets are constant to rounding (linalg._centre, whatever their
        # units), where that variance is 0 and the MSE is taken as it is
        for t in ds.tasks:
            scales[t.task_id] = float(np.mean(_centre(t.targets)[1] ** 2)) or 1.0
    splits = [(train, _layout(train, val_tasks, scales)) for train, val_tasks in splits if val_tasks]
    scores = [[None] * len(splits) for _ in grid]
    reports = [[None] * len(splits) for _ in grid]
    for kernel, path in _paths(config):
        rows, hps = zip(*path)
        held = None
        for i, j, fitted in _fit_path([train for train, _ in splits], kernel, hps):
            if j != held:  # a fold fitted on the base Gram comes point after point
                held, basis = j, _basis(kernel, *splits[j])
            scores[rows[i]][j] = _fold_score(fitted, splits[j][1], kernel, basis, config.task_type)
            reports[rows[i]][j] = fitted.report
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
