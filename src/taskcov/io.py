"""Data and model serialization plus the toy data generator.

Dataset CSV format: header row ``task,y,x1,...,xd``; rows may be grouped
by task or interleaved (order within a task is preserved, tasks are
ordered by first appearance). Numbers are written as full-precision
decimal text so round-trips are exact.

Model files are line-oriented text with a version header and a checksum
over the payload.
"""

import csv
import hashlib
import io
import math

import numpy as np

from .data import Hyperparams, KernelSpec, MultiTaskDataset, TaskCovariance, TaskData, TrainedModel, validate_dataset
from .errors import CorruptModel, DuplicateTaskId, EmptyFile, InvalidTaskId, NonFiniteValue, ParseError, VersionMismatch

MODEL_FORMAT = "taskcov-model 1"


def _read_text(path, error):
    """A file's text as UTF-8; error (a TaskcovError class) names a non-UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def load_csv(path):
    """Read a multi-task dataset from CSV; returns a validated dataset.

    Raises ParseError on malformed or non-UTF-8 text and NonFiniteValue on
    a NaN or infinite number, naming the line.
    """
    with io.StringIO(_read_text(path, ParseError)) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "task" or header[1] != "y":
            raise ParseError(f"{path}: header must be task,y,x1,...,xd")
        rows = {}  # by task, in order of first appearance
        for tid, values in _csv_rows(path, reader, len(header), 1):
            rows.setdefault(tid, []).append(values)
    if not rows:
        raise EmptyFile(f"{path} has no data rows")
    tasks = []
    for tid, task_rows in rows.items():
        block = np.array(task_rows)
        tasks.append(TaskData(task_id=tid, inputs=block[:, 1:], targets=block[:, 0]))
    ds = MultiTaskDataset(tasks)
    validate_dataset(ds)
    return ds


def _csv_rows(path, reader, width, first):
    """(task id, the floats of columns first onward) of each non-blank row
    after the header, whose width every row must have. Raises ParseError
    for a row of another width or a field that is not a number, and
    NonFiniteValue for NaN or inf, naming the file and line."""
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            values = [float(c) for c in row[first:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        for token, value in zip(row[first:], values):
            if not math.isfinite(value):
                raise NonFiniteValue(f"{path}:{lineno}: non-finite value {token.strip()!r}")
        yield row[0].strip(), values


def save_csv(ds, path):
    """Write a dataset in the load_csv format (exact decimal text)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "y"] + [f"x{j + 1}" for j in range(ds.dim)])
        for t in ds.tasks:
            for x, y in zip(t.inputs, t.targets):
                writer.writerow([t.task_id, repr(float(y))] + [repr(float(v)) for v in x])


TOY_COEFFICIENTS = ((3.0, 10.0), (-3.0, -5.0), (0.0, 1.0))
TOY_POINTS_PER_TASK = 5


def generate_toy(seed, noise_var=0.1):
    """Three 1-d regression tasks of TOY_POINTS_PER_TASK points each:
    y = 3x+10, y = -3x-5 and y = 1.

    Inputs are sampled uniformly from [0, 10]; Gaussian noise with the
    given variance, finite and nonnegative (else ValueError), corrupts the
    outputs. Deterministic under the seed.
    """
    if not 0 <= noise_var < np.inf:
        raise ValueError(f"noise_var must be finite and nonnegative, got {noise_var!r}")
    rng = np.random.default_rng(seed)
    tasks = []
    for k, (slope, intercept) in enumerate(TOY_COEFFICIENTS, start=1):
        x = rng.uniform(0.0, 10.0, size=TOY_POINTS_PER_TASK)
        y = slope * x + intercept
        if noise_var > 0:
            y = y + rng.normal(0.0, np.sqrt(noise_var), size=TOY_POINTS_PER_TASK)
        tasks.append(TaskData(task_id=f"task{k}", inputs=x[:, None], targets=y))
    ds = MultiTaskDataset(tasks)
    validate_dataset(ds)
    return ds


def _vector_line(name, values):
    return f"{name}: " + " ".join(repr(float(v)) for v in np.ravel(values))


def _parse_floats(text):
    return np.array([float(v) for v in text.split()]) if text.strip() else np.zeros(0)


def save_model(model, path):
    """Serialize a trained model as checksummed, versioned text."""
    lines = []
    lines.append("tasks: " + ",".join(model.task_ids))
    lines.append("counts: " + " ".join(str(int(c)) for c in model.counts))
    if model.kernel.kind == "rbf":
        lines.append(f"kernel: rbf {model.kernel.width!r}")
    else:
        lines.append("kernel: linear")
    lines.append(f"lam1: {model.hyperparams.lam1!r}")
    lines.append(f"lam2: {model.hyperparams.lam2!r}")
    lines.append(f"tol: {model.hyperparams.tol!r}")
    lines.append(f"max_iters: {model.hyperparams.max_iters}")
    lines.append(f"dim: {model.dim}")
    lines.append(_vector_line("alpha", model.dual_coefs))
    lines.append(_vector_line("b", model.biases))
    lines.append(_vector_line("omega", model.covariance.matrix))
    lines.append(_vector_line("coupling", model.coupling))
    lines.append(_vector_line("trace", model.objective_trace))
    for x in model.support_inputs:
        lines.append("x: " + " ".join(repr(float(v)) for v in x))
    payload = "\n".join(lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_FORMAT + "\n")
        fh.write(f"checksum: {digest}\n")
        fh.write(payload)


def load_model(path):
    """Load a model saved by save_model.

    Raises VersionMismatch on an unknown format line and CorruptModel on
    checksum or structural damage, bad task ids included, or non-UTF-8
    text. Predictions of the loaded model match the original bit for bit.
    """
    lines = _read_text(path, CorruptModel).split("\n")
    if not lines or not lines[0].startswith("taskcov-model"):
        raise CorruptModel(f"{path}: missing format header")
    if lines[0] != MODEL_FORMAT:
        raise VersionMismatch(f"{path}: format {lines[0]!r}, expected {MODEL_FORMAT!r}")
    if len(lines) < 2 or not lines[1].startswith("checksum: "):
        raise CorruptModel(f"{path}: missing checksum line")
    stated = lines[1][len("checksum: "):].strip()
    payload = "\n".join(lines[2:])
    if hashlib.sha256(payload.encode()).hexdigest() != stated:
        raise CorruptModel(f"{path}: checksum mismatch")

    fields = {}
    support = []
    for line in lines[2:]:
        if not line:
            continue
        key, _, value = line.partition(": ")
        if key == "x":
            support.append(_parse_floats(value))
        else:
            fields[key] = value
    try:
        task_ids = tuple(fields["tasks"].split(","))
        counts = np.array([int(v) for v in fields["counts"].split()])
        kernel_parts = fields["kernel"].split()
        kernel = (
            KernelSpec("rbf", float(kernel_parts[1]))
            if kernel_parts[0] == "rbf"
            else KernelSpec("linear")
        )
        hp = Hyperparams(
            lam1=float(fields["lam1"]),
            lam2=float(fields["lam2"]),
            tol=float(fields["tol"]),
            max_iters=int(fields["max_iters"]),
        )
        dim = int(fields["dim"])
        m = len(task_ids)
        alpha = _parse_floats(fields["alpha"])
        b = _parse_floats(fields["b"])
        omega = _parse_floats(fields["omega"]).reshape(m, m)
        coupling = _parse_floats(fields["coupling"]).reshape(m, m)
        trace = tuple(_parse_floats(fields.get("trace", "")))
        inputs = np.vstack(support) if support else np.zeros((0, dim))
        if inputs.shape != (int(counts.sum()), dim) or alpha.shape[0] != int(counts.sum()):
            raise CorruptModel(f"{path}: support block does not match counts")
        point_task = np.repeat(np.arange(m), counts)
        return TrainedModel(
            task_ids=task_ids,
            dual_coefs=alpha,
            biases=b,
            covariance=TaskCovariance(omega),
            coupling=coupling,
            kernel=kernel,
            support_inputs=inputs,
            support_tasks=point_task,
            counts=counts,
            hyperparams=hp,
            objective_trace=trace,
        )
    except CorruptModel:
        raise
    except (KeyError, ValueError, IndexError, DuplicateTaskId, InvalidTaskId) as exc:
        raise CorruptModel(f"{path}: {exc}") from None
