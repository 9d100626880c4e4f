"""Core containers: datasets, hyperparameters, covariance and model types.

All types are immutable after construction and safe to share across
concurrent workers. Flat point indexing everywhere follows task
concatenation order: task 1's points first, then task 2's, and so on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateTaskId,
    EmptyTask,
    InvalidTaskId,
    NonFiniteValue,
    NotPSD,
    NotSymmetric,
    SigmaOutOfRange,
    UnknownTask,
)
from .linalg import PSD_EIG_FLOOR


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TaskData:
    """One task's training set: an (n_i, d) input block and n_i targets."""

    task_id: str
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.inputs, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]  # a flat sequence means n scalar inputs
        object.__setattr__(self, "inputs", _readonly(arr))
        object.__setattr__(self, "targets", _readonly(np.ravel(self.targets)))

    @property
    def n(self):
        return self.inputs.shape[0]


class MultiTaskDataset:
    """Ordered collection of tasks with a shared input dimension.

    Parameters
    ----------
    tasks : sequence of TaskData (or (task_id, inputs, targets) tuples)

    Attributes
    ----------
    m : number of tasks
    dim : shared input dimension d
    counts : (m,) int array of per-task point counts n_i
    total : N = sum of counts
    inputs : (N, d) all inputs stacked in task-concatenation order
    targets : (N,) all targets stacked in the same order
    point_task : (N,) int array mapping each flat index to its task index
    """

    def __init__(self, tasks):
        records = []
        for t in tasks:
            records.append(t if isinstance(t, TaskData) else TaskData(*t))
        self.tasks = tuple(records)
        self.task_ids = tuple(t.task_id for t in self.tasks)
        self.m = len(self.tasks)
        self.dim = self.tasks[0].inputs.shape[1] if self.tasks else 0
        self.counts = _readonly([t.n for t in self.tasks], dtype=int)
        self.total = int(self.counts.sum()) if self.m else 0
        ragged = len({t.inputs.shape[1] for t in self.tasks}) > 1
        if self.m and not ragged:
            self.inputs = _readonly(np.vstack([t.inputs for t in self.tasks]))
            self.targets = _readonly(np.concatenate([t.targets for t in self.tasks]))
            self.point_task = _readonly(
                np.repeat(np.arange(self.m), self.counts), dtype=int
            )
        else:
            # ragged dimensions: leave the flat views empty so that
            # validate_dataset can report the offending task
            self.inputs = _readonly(np.zeros((0, 0)))
            self.targets = _readonly(np.zeros(0))
            self.point_task = _readonly(np.zeros(0), dtype=int)
        self._index = {tid: i for i, tid in enumerate(self.task_ids)}

    def task_index(self, task_id):
        try:
            return self._index[task_id]
        except KeyError:
            raise UnknownTask(f"task {task_id!r} not in dataset") from None

    def __len__(self):
        return self.m

    def __eq__(self, other):
        if not isinstance(other, MultiTaskDataset):
            return NotImplemented
        return (
            self.task_ids == other.task_ids
            and all(
                a.inputs.shape == b.inputs.shape
                and np.array_equal(a.inputs, b.inputs)
                and np.array_equal(a.targets, b.targets)
                for a, b in zip(self.tasks, other.tasks)
            )
        )


def validate_dataset(ds):
    """Check the dataset invariants, raising on the first violation.

    Raises
    ------
    EmptyTask : some task has no points (or there are no tasks)
    DimensionMismatch : input vectors do not share one dimension d >= 1
    DuplicateTaskId : two tasks carry the same id
    InvalidTaskId : a task id holds a comma or a line break
    NonFiniteValue : some input or target is NaN or infinite
    """
    if ds.m < 1:
        raise EmptyTask("dataset has no tasks")
    seen = set()
    for tid in ds.task_ids:
        if tid in seen:
            raise DuplicateTaskId(f"task id {tid!r} appears more than once")
        if set(tid) & set(",\r\n"):
            raise InvalidTaskId(f"task id {tid!r} holds a comma or a line break")
        seen.add(tid)
    for t in ds.tasks:
        if t.n < 1:
            raise EmptyTask(f"task {t.task_id!r} has no points")
        if t.inputs.ndim != 2 or t.inputs.shape[1] != ds.dim or ds.dim < 1:
            raise DimensionMismatch(
                f"task {t.task_id!r} has inputs of dimension {t.inputs.shape[1]}, "
                f"expected {ds.dim}"
            )
        if t.targets.shape[0] != t.n:
            raise DimensionMismatch(
                f"task {t.task_id!r} has {t.targets.shape[0]} targets for {t.n} points"
            )
        _require_finite_task(t)


def _require_finite_task(task):
    """Raise NonFiniteValue if an input or target of the task is NaN or inf."""
    for what, values in (("inputs", task.inputs), ("targets", task.targets)):
        if not np.isfinite(values).all():
            raise NonFiniteValue(f"task {task.task_id!r} has non-finite {what}")


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights and outer-loop stopping rule.

    lam1 weights the plain squared-norm penalty on the task weights and
    must be positive for fitting (strict convexity of the weight step);
    lam2 weights the relationship penalty.
    """

    lam1: float
    lam2: float
    tol: float = 1e-6
    max_iters: int = 50

    def __post_init__(self):
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class KernelSpec:
    """Base kernel choice: 'linear' or 'rbf' with a positive width."""

    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and (self.width is None or self.width <= 0):
            raise ValueError("rbf kernel needs a positive width")


SYMMETRY_RTOL = 1e-10
TRACE_ATOL = 1e-8


@dataclass(frozen=True)
class TaskCovariance:
    """Symmetric PSD unit-trace matrix of pairwise task covariances."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSymmetric("task covariance must be a square matrix")
        asym = np.abs(a - a.T)
        limit = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
        if np.any(asym > limit):
            raise NotSymmetric("task covariance is not symmetric")
        eigvals = np.linalg.eigvalsh((a + a.T) / 2.0)
        if eigvals.size and eigvals[0] < PSD_EIG_FLOOR:
            raise NotPSD(f"task covariance has eigenvalue {eigvals[0]:.3e}")
        if abs(np.trace(a) - 1.0) > TRACE_ATOL:
            raise ValueError(f"task covariance trace is {np.trace(a)!r}, expected 1")
        object.__setattr__(self, "matrix", _readonly((a + a.T) / 2.0))

    @property
    def m(self):
        return self.matrix.shape[0]

    @staticmethod
    def unrelated(m):
        """Diagonal covariance I/m: all tasks initially unrelated."""
        return TaskCovariance(np.eye(m) / m)


@dataclass(frozen=True)
class TrainedModel:
    """Fitted multi-task model in dual form.

    dual_coefs are indexed by flat point order; biases by task order.
    coupling is the task-coupling matrix the dual expansion was solved
    with, retained so predictions are exactly reproducible (for models
    trained against a fixed relationship prior it is not derivable from
    the reported covariance).
    """

    task_ids: tuple
    dual_coefs: np.ndarray
    biases: np.ndarray
    covariance: TaskCovariance
    coupling: np.ndarray
    kernel: KernelSpec
    support_inputs: np.ndarray
    support_tasks: np.ndarray
    counts: np.ndarray
    hyperparams: Hyperparams
    objective_trace: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "task_ids", tuple(self.task_ids))
        object.__setattr__(self, "dual_coefs", _readonly(self.dual_coefs))
        object.__setattr__(self, "biases", _readonly(self.biases))
        object.__setattr__(self, "coupling", _readonly(self.coupling))
        object.__setattr__(self, "support_inputs", _readonly(np.atleast_2d(self.support_inputs)))
        object.__setattr__(self, "support_tasks", _readonly(self.support_tasks, dtype=int))
        object.__setattr__(self, "counts", _readonly(self.counts, dtype=int))
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))
        for i in range(len(self.task_ids)):
            s = self.dual_coefs[self.support_tasks == i].sum()
            if abs(s) > 1e-6:
                raise ValueError(
                    f"dual coefficients of task {self.task_ids[i]!r} sum to {s:.3e}"
                )

    @property
    def m(self):
        return len(self.task_ids)

    @property
    def dim(self):
        return self.support_inputs.shape[1]

    def task_index(self, task_id):
        try:
            return self.task_ids.index(task_id)
        except ValueError:
            raise UnknownTask(f"task {task_id!r} not in model") from None


@dataclass(frozen=True)
class NewTaskSolution:
    """Result of grafting one new task onto a trained model."""

    weights: np.ndarray
    bias: float
    cov_column: np.ndarray
    variance: float
    augmented_covariance: TaskCovariance
    objective_trace: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "cov_column", _readonly(self.cov_column))
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))
        if not 0.0 < self.variance < 1.0:
            raise SigmaOutOfRange(f"new-task variance {self.variance!r} not in (0, 1)")
