"""Evaluation metrics: normalized MSE, classification error, explained variance."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroVarianceTruth
from .linalg import _centre


@dataclass(frozen=True)
class Metrics:
    """Per-task scores plus the pooled explained-variance percentage.

    For regression: nmse maps task id to MSE divided by the variance of
    that task's true targets, and explained_variance is 100 * (1 - pooled
    nMSE). For classification: error maps task id to the fraction of sign
    mismatches. Fields not applicable to the task type are None.
    """

    nmse: dict | None
    error: dict | None
    explained_variance: float | None


def compute_metrics(truth_by_task, predicted_by_task, task_type="regression"):
    """Score predictions task by task.

    Parameters
    ----------
    truth_by_task, predicted_by_task : dict mapping task id to 1-d arrays
        of equal length per task.
    task_type : 'regression' or 'classification' (targets coded +/-1).

    Raises ZeroVarianceTruth when a regression task's true targets are
    constant to rounding (linalg._centre), whatever their units.
    """
    if task_type not in ("regression", "classification"):
        raise ValueError(f"unknown task type {task_type!r}")
    if set(truth_by_task) != set(predicted_by_task):
        raise DimensionMismatch("truth and prediction tasks differ")
    all_truth, all_pred, nmse, error = [], [], {}, {}
    for tid in truth_by_task:
        y = np.ravel(np.asarray(truth_by_task[tid], dtype=float))
        p = np.ravel(np.asarray(predicted_by_task[tid], dtype=float))
        if y.shape != p.shape:
            raise DimensionMismatch(f"task {tid!r}: {y.size} truths vs {p.size} predictions")
        if task_type == "regression":
            var = float(np.mean(_centre(y)[1] ** 2))
            if var == 0.0:
                raise ZeroVarianceTruth(f"task {tid!r} targets are constant to rounding")
            nmse[tid] = float(np.mean((y - p) ** 2)) / var
            all_truth.append(y)
            all_pred.append(p)
        else:
            labels = np.where(p >= 0, 1.0, -1.0)
            error[tid] = float(np.mean(labels != y))
    if task_type == "classification":
        return Metrics(nmse=None, error=error, explained_variance=None)
    truth = np.concatenate(all_truth)
    pred = np.concatenate(all_pred)
    pooled = float(np.mean((truth - pred) ** 2)) / float(np.var(truth))
    return Metrics(nmse=nmse, error=None, explained_variance=100.0 * (1.0 - pooled))
