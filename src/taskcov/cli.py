"""Command-line interface.

Subcommands: make-toy, train, predict, eval, cv, new-task, prior-train.
Errors are reported as a single machine-parseable line on stderr
(``error: <Kind>: <detail>``) with a nonzero exit code.
"""

import argparse
import csv
import sys

import numpy as np

from .crossval import ExperimentConfig, cross_validate
from .data import Hyperparams, KernelSpec, TaskData
from .errors import DuplicateTaskId, ParseError, TaskcovError
from .io import generate_toy, load_csv, load_model, save_csv, save_model
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
from .solver import _converged, fit, predict, predict_batch, reconstruct_weights


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
    parser.add_argument("--solver", choices=["direct", "smo", "auto"], default="auto")


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
    p.add_argument("--solver", choices=["direct", "smo", "auto"], default="auto")
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
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    kind = fields.get("kind")
    if kind == "mean":
        return laplacian_mean_regularization(task_count)
    if kind == "similarity":
        rows = [r for r in fields.get("matrix", "").split(";") if r.strip()]
        matrix = np.array([[float(v) for v in r.split(",")] for r in rows])
        return laplacian_from_similarity(matrix)
    if kind == "network":
        edges = []
        text = fields.get("edges", "").strip()
        if text:
            for token in text.split(","):
                p, _, q = token.partition("-")
                edges.append((int(p), int(q)))
        return laplacian_from_task_network(task_count, edges)
    if kind == "clustered":
        labels = [v.strip() for v in fields["clusters"].split(",")]
        if len(labels) != task_count:
            raise ParseError(f"{path}: {len(labels)} cluster labels for {task_count} tasks")
        return clustered_inverse_covariance(
            task_count,
            dict(enumerate(labels)),
            float(fields["alpha"]),
            float(fields["beta"]),
            float(fields["gamma"]),
        )
    raise ParseError(f"{path}: unknown prior kind {kind!r}")


def _load_query_rows(path):
    with open(path, newline="") as fh:
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
    trace = model.objective_trace
    iterations = len(trace) - 2  # trace also holds the initial value and final refresh
    hp = model.hyperparams
    converged = iterations < hp.max_iters or _converged(trace[:-1], hp.tol)
    label = "converged after" if converged else "hit the iteration cap at"
    return f"{label} {iterations} iterations, objective {trace[-1]!r}"


def _cmd_train(args):
    ds = load_csv(args.dataset)
    hp = Hyperparams(lam1=args.l1, lam2=args.l2, tol=args.tol, max_iters=args.max_iters)
    model = fit(ds, _kernel_from_args(args), hp, solver=args.solver)
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
    for tid, x in _load_query_rows(args.inputs):
        value = predict(model, tid, x)
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
        solver=args.solver,
        task_type=args.task_type,
    )
    result = cross_validate(config, ds)
    for lam1, lam2, width, scores, mean in result.table:
        tag = f" width={width!r}" if config.kernel_kind == "rbf" else ""
        folds = " ".join(f"{s:.6f}" for s in scores)
        print(f"l1={lam1!r} l2={lam2!r}{tag}: folds [{folds}] mean {mean:.6f}")
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
    _print_correlations(
        tuple(model.task_ids) + (record.task_id,), solution.augmented_covariance
    )
    return 0


def _cmd_prior_train(args):
    ds = load_csv(args.dataset)
    inverse = _read_prior_spec(args.prior, ds.m)
    model = fit_with_fixed_inverse(
        ds, _kernel_from_args(args), Hyperparams(args.l1, args.l2), inverse, solver=args.solver
    )
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
    except TaskcovError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
