"""Command-line interface.

Subcommands: make-toy, train, predict, eval, cv, new-task, prior-train.
Errors are reported as a single machine-parseable line on stderr
(``error: <Kind>: <detail>``) with a nonzero exit code.
"""

import argparse
import csv
import io
import sys

import numpy as np

from .crossval import ExperimentConfig, cross_validate
from .data import Hyperparams, KernelSpec, TaskData
from .errors import DuplicateTaskId, ParseError, TaskcovError
from .io import _read_text, generate_toy, load_csv, load_model, save_csv, save_model
from .linalg import correlation_from_covariance
from .metrics import compute_metrics
from .newtask import incorporate_new_task
from .priors import (
    clustered_inverse_covariance,
    fit_with_fixed_inverse,
    laplacian_from_similarity,
    laplacian_from_task_network,
    laplacian_mean_regularization,
)
from .solver import fit, predict_batch, reconstruct_weights


class _UsageError(TaskcovError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_penalties(parser):
    parser.add_argument("--l1", type=float, default=0.01)
    parser.add_argument("--l2", type=float, default=0.005)


def _add_common(parser):
    _add_penalties(parser)
    parser.add_argument("--kernel", choices=["linear", "rbf"], default="linear")
    parser.add_argument("--rbf-width", type=float, default=1.0)


def build_parser():
    parser = _Parser(prog="taskcov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-toy", help="write the three-line toy dataset as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-var", type=float, default=0.1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fit a model and print the task correlations")
    p.add_argument("dataset")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--out", help="path to save the fitted model")

    p = sub.add_parser("predict", help="predict outputs for task,x rows")
    p.add_argument("--model", required=True)
    p.add_argument("inputs", help="CSV with header task,x1,...,xd (a y column is ignored)")

    p = sub.add_parser("eval", help="score a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("dataset")
    p.add_argument("--task-type", choices=["regression", "classification"], default="regression")

    p = sub.add_parser("cv", help="grid-search hyperparameters by cross-validation")
    p.add_argument("dataset")
    p.add_argument("--l1", default="0.01", help="comma-separated candidates")
    p.add_argument("--l2", default="0.005", help="comma-separated candidates")
    p.add_argument("--kernel", choices=["linear", "rbf"], default="linear")
    p.add_argument("--rbf-width", default="1.0", help="comma-separated candidates")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--task-type", choices=["regression", "classification"], default="regression")

    p = sub.add_parser("new-task", help="incorporate one new task into a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("dataset", help="CSV holding exactly one (new) task")
    _add_penalties(p)

    p = sub.add_parser("prior-train", help="fit with a fixed relationship prior")
    p.add_argument("dataset")
    p.add_argument("--prior", required=True, help="prior-spec file (kind=... lines)")
    _add_common(p)
    p.add_argument("--out", help="path to save the fitted model")
    return parser


def _kernel_from_args(args):
    if args.kernel == "rbf":
        return KernelSpec("rbf", args.rbf_width)
    return KernelSpec("linear")


def _print_correlations(task_ids, covariance):
    print("task correlation matrix:")
    corr = correlation_from_covariance(covariance)
    width = max(len(t) for t in task_ids)
    for tid, row in zip(task_ids, corr):
        cells = " ".join(f"{v: .4f}" for v in row)
        print(f"  {tid:<{width}} {cells}")


def _read_prior_spec(path, task_count):
    """The fixed inverse structure a prior-spec file selects. A missing key
    or a malformed value raises ParseError naming the file and the key."""
    fields = {}
    for lineno, raw in enumerate(io.StringIO(_read_text(path, ParseError)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()

    def field(key, parse):
        if key not in fields:
            raise ParseError(f"{path}: missing key {key!r}")
        try:
            return parse(fields[key])
        except ValueError as exc:
            raise ParseError(f"{path}: bad {key!r} value {fields[key]!r}: {exc}") from None

    kind = fields.get("kind")
    if kind == "mean":
        return laplacian_mean_regularization(task_count)
    if kind == "similarity":
        return laplacian_from_similarity(field("matrix", lambda text: np.array(
            [[float(v) for v in r.split(",")] for r in text.split(";") if r.strip()])))
    if kind == "network":
        return laplacian_from_task_network(task_count, field("edges", _edges) if "edges" in fields else [])
    if kind == "clustered":
        labels = field("clusters", lambda text: [v.strip() for v in text.split(",")])
        if len(labels) != task_count:
            raise ParseError(f"{path}: {len(labels)} cluster labels for {task_count} tasks")
        weights = (field(key, float) for key in ("alpha", "beta", "gamma"))
        return clustered_inverse_covariance(task_count, dict(enumerate(labels)), *weights)
    raise ParseError(f"{path}: unknown prior kind {kind!r}")


def _edges(text):
    """'0-1,1-2' as the index pairs [(0, 1), (1, 2)]; no text as no pairs."""
    return [(int(p), int(q)) for p, _, q in (token.partition("-") for token in text.split(","))] if text else []


def _load_query_rows(path):
    with io.StringIO(_read_text(path, ParseError)) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path} is empty") from None
        if not header or header[0] != "task":
            raise ParseError(f"{path}: header must start with 'task'")
        skip_y = len(header) > 1 and header[1] == "y"
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(c) for c in row[2:]] if skip_y else [float(c) for c in row[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            rows.append((row[0].strip(), np.array(values)))
    return rows


def _cmd_make_toy(args):
    ds = generate_toy(args.seed, noise_var=args.noise_var)
    save_csv(ds, args.out)
    print(f"wrote {ds.m} tasks x {int(ds.counts[0])} points to {args.out}")
    return 0


def _train_status(model):
    """One line from the fit's report: how it stopped, after how many
    iterations, its final relative duality gap, objective and CG products."""
    report = model.report
    capped = report.stop_reason == "iteration cap"
    label = "hit the iteration cap at" if capped else "converged after"
    return (f"{label} {report.iterations} iterations, stop: {report.stop_reason}, relative gap "
            f"{report.gap:.3g}, objective {model.objective_trace[-1]!r}, CG products {report.products}")


def _cmd_train(args):
    ds = load_csv(args.dataset)
    hp = Hyperparams(lam1=args.l1, lam2=args.l2, tol=args.tol, max_iters=args.max_iters)
    model = fit(ds, _kernel_from_args(args), hp)
    print(_train_status(model))
    print("objective trace: " + " ".join(f"{v:.6g}" for v in model.objective_trace))
    _print_correlations(model.task_ids, model.covariance)
    if model.kernel.kind == "linear":
        weights = reconstruct_weights(model)
        print("per-task weights and biases:")
        for i, tid in enumerate(model.task_ids):
            coeffs = " ".join(f"{v:.4f}" for v in weights[:, i])
            print(f"  {tid}: w = [{coeffs}], b = {model.biases[i]:.4f}")
    if args.out:
        save_model(model, args.out)
        print(f"model saved to {args.out}")
    return 0


def _cmd_predict(args):
    model = load_model(args.model)
    rows = _load_query_rows(args.inputs)
    values = predict_batch(model, [tid for tid, _ in rows], [x for _, x in rows])
    for (tid, _), value in zip(rows, values.tolist()):
        print(f"{tid},{value!r}")
    return 0


def _cmd_eval(args):
    model = load_model(args.model)
    ds = load_csv(args.dataset)
    truth = {}
    predicted = {}
    for t in ds.tasks:
        truth[t.task_id] = t.targets
        predicted[t.task_id] = predict_batch(model, [t.task_id] * t.n, t.inputs)
    metrics = compute_metrics(truth, predicted, task_type=args.task_type)
    if args.task_type == "regression":
        for tid in ds.task_ids:
            print(f"nmse[{tid}] = {metrics.nmse[tid]:.6f}")
        print(f"explained variance = {metrics.explained_variance:.2f}%")
    else:
        for tid in ds.task_ids:
            print(f"error[{tid}] = {metrics.error[tid]:.6f}")
    return 0


def _parse_grid(text):
    return tuple(float(v) for v in str(text).split(",") if v.strip())


def _cmd_cv(args):
    ds = load_csv(args.dataset)
    config = ExperimentConfig(
        kernel_kind=args.kernel,
        lam1_grid=_parse_grid(args.l1),
        lam2_grid=_parse_grid(args.l2),
        width_grid=_parse_grid(args.rbf_width),
        folds=args.folds,
        seed=args.seed,
        task_type=args.task_type,
    )
    result = cross_validate(config, ds)
    for lam1, lam2, width, scores, mean in result.table:
        tag = f" width={width!r}" if config.kernel_kind == "rbf" else ""
        folds = " ".join(f"{s:.6f}" for s in scores)
        print(f"l1={lam1!r} l2={lam2!r}{tag}: folds [{folds}] mean {mean:.6f}")
    stops = [r.stop_reason for r in result.reports]
    largest = max((r.gap for r in result.reports), default=0.0)
    print(f"fold fits: {len(stops)}, stop: gap {stops.count('gap')}, "
          f"iteration cap {stops.count('iteration cap')}, largest relative gap {largest:.3e}")
    chosen = f"chosen: l1={result.lam1!r} l2={result.lam2!r}"
    if config.kernel_kind == "rbf":
        chosen += f" width={result.width!r}"
    print(chosen)
    return 0


def _cmd_new_task(args):
    model = load_model(args.model)
    ds = load_csv(args.dataset)
    if ds.m != 1:
        raise ParseError(f"{args.dataset}: new-task data must hold exactly one task")
    record = ds.tasks[0]
    if record.task_id in model.task_ids:
        raise DuplicateTaskId(f"task {record.task_id!r} already exists in the model")
    solution = incorporate_new_task(
        model, TaskData(record.task_id, record.inputs, record.targets),
        Hyperparams(lam1=args.l1, lam2=args.l2),
    )
    coeffs = " ".join(f"{v:.4f}" for v in solution.weights)
    print(f"new task {record.task_id!r}: w = [{coeffs}], b = {solution.bias:.4f}")
    print("covariance column: " + " ".join(f"{v:.6g}" for v in solution.cov_column))
    print(f"new-task variance: {solution.variance:.6g}")
    report = solution.report
    print(f"slack: {report.slack:.6g}, bound: {report.bound}, slack values solved at: {report.slack_values}")
    _print_correlations(
        tuple(model.task_ids) + (record.task_id,), solution.augmented_covariance
    )
    return 0


def _cmd_prior_train(args):
    ds = load_csv(args.dataset)
    inverse = _read_prior_spec(args.prior, ds.m)
    model = fit_with_fixed_inverse(ds, _kernel_from_args(args), Hyperparams(args.l1, args.l2), inverse)
    print(f"objective {model.objective_trace[-1]!r}")
    _print_correlations(model.task_ids, model.covariance)
    if args.out:
        save_model(model, args.out)
        print(f"model saved to {args.out}")
    return 0


_COMMANDS = {
    "make-toy": _cmd_make_toy,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "new-task": _cmd_new_task,
    "prior-train": _cmd_prior_train,
}


def cli_main(argv):
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (TaskcovError, OSError, ValueError) as exc:  # ValueError: a refused flag value
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
