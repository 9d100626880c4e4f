"""Core containers: datasets, hyperparameters, covariance and model types.

All types are immutable after construction and safe to share across
concurrent workers. Flat point indexing everywhere follows task
concatenation order: task 1's points first, then task 2's, and so on.
"""

import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateTaskId,
    EmptyTask,
    InvalidTaskId,
    NonFiniteValue,
    SigmaOutOfRange,
    UnknownTask,
)
from .kernels import _rbf_rows
from .linalg import _check_symmetric, _require_psd


def _real(value, what):
    """value as a Python float, so that a model file writes it as one; a
    bool, which float() would read as 0 or 1, is refused with ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class _ByValue:
    """== of a frozen dataclass holding arrays: field by field, arrays by
    value, the fields declared compare=False skipped."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class TaskData(_ByValue):
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

    @cached_property
    def _spans(self):
        """(first, end) of each task's points in flat order, built once:
        every product of a Gram-form fit with the base Gram reads them."""
        ends = np.cumsum(self.counts)
        return tuple((int(hi - n), int(hi)) for n, hi in zip(self.counts, ends))

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
        return self.tasks == other.tasks


def validate_dataset(ds):
    """Check the dataset invariants, raising on the first violation.

    Raises
    ------
    EmptyTask : some task has no points (or there are no tasks)
    DimensionMismatch : input vectors do not share one dimension d >= 1
    DuplicateTaskId : two tasks carry the same id
    InvalidTaskId : a task id is not a str, holds a comma, a line break or
        a surrogate, or begins or ends with whitespace (the CSV reader
        strips ids)
    NonFiniteValue : some input or target is NaN or infinite
    """
    if ds.m < 1:
        raise EmptyTask("dataset has no tasks")
    _check_task_ids(ds.task_ids)
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


def _check_task_ids(task_ids):
    """Raise DuplicateTaskId or InvalidTaskId on the first task id that a
    dataset (validate_dataset) or a model may not hold."""
    seen = set()
    for tid in task_ids:
        if not isinstance(tid, str):
            raise InvalidTaskId(f"task id {tid!r} is not a string")
        if tid in seen:
            raise DuplicateTaskId(f"task id {tid!r} appears more than once")
        if set(tid) & set(",\r\n") or any("\ud800" <= c <= "\udfff" for c in tid):
            raise InvalidTaskId(f"task id {tid!r} holds a comma, a line break or a surrogate")
        if tid != tid.strip():
            raise InvalidTaskId(f"task id {tid!r} begins or ends with whitespace")
        seen.add(tid)


def _require_finite_task(task):
    """Raise NonFiniteValue if an input or target of the task is NaN or inf."""
    for what, values in (("inputs", task.inputs), ("targets", task.targets)):
        if not np.isfinite(values).all():
            raise NonFiniteValue(f"task {task.task_id!r} has non-finite {what}")


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights and the fit's stopping rule.

    lam1 weights the plain squared-norm penalty on the task weights and
    must be positive for fitting (strict convexity of the weight step);
    lam2 weights the relationship penalty. A fit, whatever its kernel,
    stops when its relative duality gap is at most tol or after max_iters
    iterations. lam1, lam2 and tol are stored as Python floats and
    max_iters as an int.
    """

    lam1: float
    lam2: float
    tol: float = 1e-6
    max_iters: int = 50

    def __post_init__(self):
        for name in ("lam1", "lam2", "tol"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (0 <= self.lam1 < np.inf and 0 <= self.lam2 < np.inf):
            raise ValueError(f"regularization weights must be finite and nonnegative, "
                             f"got {self.lam1!r}, {self.lam2!r}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        object.__setattr__(self, "max_iters", int(iters))


@dataclass(frozen=True)
class KernelSpec:
    """Base kernel choice: 'linear', which takes no width, or 'rbf' with a
    positive width, stored as a Python float."""

    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.width is not None:
            object.__setattr__(self, "width", _real(self.width, "kernel width"))
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "linear" and self.width is not None:
            raise ValueError(f"the linear kernel takes no width, got {self.width!r}")
        if self.kind == "rbf" and (self.width is None or not 0 < self.width < np.inf):
            raise ValueError(f"rbf kernel needs a finite positive width, got {self.width!r}")


SYMMETRY_RTOL = 1e-10
TRACE_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class TaskCovariance(_ByValue):
    """Symmetric PSD unit-trace matrix of pairwise task covariances."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _check_symmetric(self.matrix, "task covariance", SYMMETRY_RTOL)
        _require_psd(np.linalg.eigvalsh(a), "task covariance")
        if abs(np.trace(a) - 1.0) > TRACE_ATOL:
            raise ValueError(f"task covariance trace is {np.trace(a)!r}, expected 1")
        object.__setattr__(self, "matrix", _readonly(a))

    @property
    def m(self):
        return self.matrix.shape[0]

    @staticmethod
    def unrelated(m):
        """Diagonal covariance I/m: all tasks initially unrelated."""
        return TaskCovariance(np.eye(m) / m)


@dataclass(frozen=True)
class FitReport:
    """How a fit ended.

    stop_reason is 'gap' (relative duality gap at most tol) or 'iteration
    cap' (max_iters reached), for every kernel. gap is the final relative
    duality gap (P - D) / |P| against the best dual bound the fit found,
    of a model's stored state, after its final refresh, or of the point
    that a cross-validation fold fit's loop certified and its fold score
    reads (CvResult.reports): that P lies at most gap * |P| above the
    optimum. products counts the CG covariance steps' products with K~,
    each taken on the base Gram (0 on a moment-form fit, which has none).
    iterations counts the fit's proximal-gradient iterations, one value
    each in the objective trace. restarts counts those iterations whose
    candidate was not kept, so the momentum restarted and the trace
    repeated its last value.
    """

    stop_reason: str
    gap: float
    products: int = 0
    iterations: int = 0
    restarts: int = 0


@dataclass(frozen=True, eq=False)
class TrainedModel(_ByValue):
    """Fitted multi-task model in dual form.

    Support points and dual_coefs come in task order, counts[t] for task
    t, as a model file holds them, and each task's coefficients sum to 0
    within 1e-6 max(1, the sum of their absolute values); biases are (m,),
    by task order, and coupling is (m, m). coupling is the
    task-coupling matrix the dual expansion was solved with, retained so
    predictions are exactly reproducible (for models trained against a
    fixed relationship prior it is not derivable from the reported
    covariance). Task ids follow validate_dataset's rules. report is the
    FitReport of the fit that made the model; it is not saved and takes
    no part in comparisons, so a loaded or hand-built model has None.
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
    report: FitReport | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "task_ids", tuple(self.task_ids))
        _check_task_ids(self.task_ids)
        object.__setattr__(self, "dual_coefs", _readonly(self.dual_coefs))
        object.__setattr__(self, "biases", _readonly(self.biases))
        object.__setattr__(self, "coupling", _readonly(self.coupling))
        object.__setattr__(self, "support_inputs", _readonly(np.atleast_2d(self.support_inputs)))
        object.__setattr__(self, "support_tasks", _readonly(self.support_tasks, dtype=int))
        object.__setattr__(self, "counts", _readonly(self.counts, dtype=int))
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))
        m = len(self.task_ids)
        if self.biases.shape != (m,) or self.coupling.shape != (m, m):
            raise ValueError(f"biases {self.biases.shape} and coupling {self.coupling.shape} do not fit {m} tasks")
        if not np.array_equal(self.support_tasks, np.repeat(np.arange(m), self.counts)):
            raise ValueError("support points must come in task order, counts[t] of them for task t")
        sums = np.bincount(self.support_tasks, self.dual_coefs, m)[:m]
        bad = np.abs(sums) > 1e-6 * np.maximum(1.0, np.bincount(self.support_tasks, np.abs(self.dual_coefs), m)[:m])
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"dual coefficients of task {self.task_ids[i]!r} sum to {sums[i]:.3e}")

    @property
    def m(self):
        return len(self.task_ids)

    @property
    def dim(self):
        return self.support_inputs.shape[1]

    def task_index(self, task_id):
        try:
            return self._task_lookup[task_id]
        except (KeyError, TypeError):
            raise UnknownTask(f"task {task_id!r} not in model") from None

    @cached_property
    def _task_lookup(self):
        """Task id -> index, built once per model (task_index, serving)."""
        return {t: i for i, t in enumerate(self.task_ids)}

    @cached_property
    def _weights(self):
        """Read-only primal weights of a linear model (solver.reconstruct_weights),
        X^T spread(alpha) C from each task's inputs about their mean (one
        reduceat), exact as its coefficients sum to 0: far inputs lose no digits."""
        x, counts = self.support_inputs, self.counts
        held = np.flatnonzero(counts)  # tasks with support points
        first, sizes = (np.cumsum(counts) - counts)[held], counts[held]
        centred = x - np.repeat(np.add.reduceat(x, first) / sizes[:, None], sizes, axis=0)
        sums = np.zeros((self.m, self.dim))
        sums[held] = np.add.reduceat(centred * self.dual_coefs[:, None], first)
        return _readonly(sums.T @ self.coupling)

    @cached_property
    def _support_rows(self):
        """The support side of an RBF model's serving blocks
        (kernels._rbf_rows), prepared once per model."""
        return _rbf_rows(self.kernel, self.support_inputs)


@dataclass(frozen=True)
class _SlackReport:
    """How incorporate_new_task ended: the final Schur slack, the bound
    that binds there ('slack floor', 'variance ceiling' or 'none') and
    the number of slack values solved at."""

    slack: float
    bound: str
    slack_values: int


@dataclass(frozen=True, eq=False)
class NewTaskSolution(_ByValue):
    """Result of grafting one new task onto a trained model. report is
    how the incorporation ended; it takes no part in comparisons, and a
    hand-built solution has None."""

    weights: np.ndarray
    bias: float
    cov_column: np.ndarray
    variance: float
    augmented_covariance: TaskCovariance
    objective_trace: tuple = field(default=())
    report: _SlackReport | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "cov_column", _readonly(self.cov_column))
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))
        if not 0.0 < self.variance < 1.0:
            raise SigmaOutOfRange(f"new-task variance {self.variance!r} not in (0, 1)")
