import dataclasses
import re

import numpy as np
import pytest

import taskcov as tc
from taskcov.cli import _train_status, cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_correlations(out):
    lines = out.splitlines()
    start = lines.index("task correlation matrix:") + 1
    rows = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        rows.append([float(v) for v in line.split()[1:]])
    return np.array(rows)


def test_make_toy_then_train(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    code, out, err = run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    assert code == 0 and "3 tasks" in out
    code, out, err = run(
        capsys, "train", str(data), "--l1", "0.01", "--l2", "0.005", "--kernel", "linear"
    )
    assert code == 0, err
    corr = parse_correlations(out)
    assert corr.shape == (3, 3)
    assert corr[0, 1] <= -0.95
    assert "objective trace:" in out


def test_make_toy_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "make-toy", "--seed", "11", "--out", str(a))
    run(capsys, "make-toy", "--seed", "11", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_train_save_predict_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model_path = tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    code, out, _ = run(capsys, "train", str(data), "--out", str(model_path))
    assert code == 0 and model_path.exists()

    queries = tmp_path / "queries.csv"
    queries.write_text("task,x1\ntask1,0.0\ntask2,1.0\n")
    code, out, _ = run(capsys, "predict", "--model", str(model_path), str(queries))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("task1,")

    code, out_eval, _ = run(capsys, "eval", "--model", str(model_path), str(data))
    assert code == 0
    assert "explained variance" in out_eval

    # a saved-then-loaded model evaluates identically
    reloaded = tmp_path / "model2.txt"
    tc.save_model(tc.load_model(model_path), reloaded)
    code, out_eval2, _ = run(capsys, "eval", "--model", str(reloaded), str(data))
    assert out_eval2 == out_eval


def test_predict_unknown_task_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model_path = tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    run(capsys, "train", str(data), "--out", str(model_path))
    queries = tmp_path / "queries.csv"
    queries.write_text("task,x1\nnope,0.0\n")
    code, out, err = run(capsys, "predict", "--model", str(model_path), str(queries))
    assert code != 0
    assert err.count("\n") == 1
    assert re.match(r"error: UnknownTask: ", err)


def test_predict_is_all_or_nothing(tmp_path, capsys):
    # the file is served as one batch: an unknown task on its last row
    # fails it before any row's prediction is printed
    data = tmp_path / "toy.csv"
    model_path = tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    run(capsys, "train", str(data), "--out", str(model_path))
    queries = tmp_path / "queries.csv"
    queries.write_text("task,x1\ntask1,0.0\ntask2,1.0\nnope,2.0\n")
    code, out, err = run(capsys, "predict", "--model", str(model_path), str(queries))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: UnknownTask: ")


def test_predict_serves_rows_as_predict_does(tmp_path, capsys):
    # each printed value is the row's own predict, bit for bit for a
    # linear model, in file order, an empty file printing nothing
    data = tmp_path / "toy.csv"
    model_path = tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    run(capsys, "train", str(data), "--out", str(model_path))
    model = tc.load_model(model_path)
    rows = [("task3", 0.25), ("task1", -1.5), ("task2", 2.0), ("task1", 0.0)]
    queries = tmp_path / "queries.csv"
    queries.write_text("task,x1\n" + "".join(f"{t},{x!r}\n" for t, x in rows))
    code, out, _ = run(capsys, "predict", "--model", str(model_path), str(queries))
    assert code == 0
    assert out.splitlines() == [f"{t},{tc.predict(model, t, [x])!r}" for t, x in rows]
    queries.write_text("task,x1\n")
    assert run(capsys, "predict", "--model", str(model_path), str(queries)) == (0, "", "")


def test_cv_singleton_grid(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    code, out, _ = run(
        capsys, "cv", str(data), "--l1", "0.01", "--l2", "0.005", "--folds", "5", "--seed", "3"
    )
    assert code == 0
    assert "chosen: l1=0.01 l2=0.005" in out


def test_cv_reports_its_fold_fits(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    code, out, _ = run(capsys, "cv", str(data), "--l1", "0.01,0.1", "--l2", "0.05,0.005", "--folds", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("chosen: ")
    match = re.fullmatch(
        r"fold fits: (\d+), stop: gap (\d+), iteration cap (\d+), largest relative gap (\S+)", lines[-2]
    )
    assert match, lines[-2]
    fits, gap, cap, largest = match.groups()
    assert int(fits) == 4 * 5 and int(gap) + int(cap) == int(fits)
    assert int(gap) == int(fits) and 0.0 <= float(largest) <= 1e-6


def test_cv_deterministic_reports(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    args = ["cv", str(data), "--l1", "0.01,0.1", "--l2", "0.005", "--seed", "8"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_new_task_command(tmp_path, capsys):
    rng = np.random.default_rng(12)
    base = tmp_path / "base.csv"
    rows = ["task,y,x1,x2"]
    w = {"a": np.array([1.0, -1.0]), "b": np.array([0.8, -1.2])}
    for tid, wt in w.items():
        for _ in range(15):
            x = rng.normal(size=2)
            rows.append(f"{tid},{float(wt @ x + 0.05 * rng.normal())!r},{float(x[0])!r},{float(x[1])!r}")
    base.write_text("\n".join(rows) + "\n")
    model_path = tmp_path / "model.txt"
    code, _, err = run(capsys, "train", str(base), "--l1", "0.05", "--l2", "0.05",
                       "--out", str(model_path))
    assert code == 0, err

    new = tmp_path / "new.csv"
    rows = ["task,y,x1,x2"]
    for _ in range(15):
        x = rng.normal(size=2)
        rows.append(f"c,{float(w['a'] @ x + 0.05 * rng.normal())!r},{float(x[0])!r},{float(x[1])!r}")
    new.write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "new-task", "--model", str(model_path), str(new),
                         "--l1", "0.05", "--l2", "0.05")
    assert code == 0, err
    assert "new-task variance:" in out
    assert "covariance column:" in out
    slack = [line for line in out.splitlines() if line.startswith("slack: ")]
    assert len(slack) == 1
    assert re.fullmatch(
        r"slack: \S+, bound: (slack floor|variance ceiling|none), slack values solved at: [1-9]\d*", slack[0]
    ), slack[0]


def test_new_task_refuses_fit_flags(tmp_path, capsys):
    # incorporation reads only the penalties; the fit's flags are usage errors
    data = tmp_path / "toy.csv"
    model_path = tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    run(capsys, "train", str(data), "--out", str(model_path))
    new = tmp_path / "new.csv"
    new.write_text("task,y,x1\nfresh,1.0,2.0\nfresh,2.0,3.0\n")
    for flag in (["--solver", "smo"], ["--kernel", "rbf"], ["--rbf-width", "2.0"],
                 ["--tol", "1e-3"], ["--max-iters", "5"]):
        code, out, err = run(capsys, "new-task", "--model", str(model_path), str(new), *flag)
        assert code == 2 and err.startswith("error: usage:"), flag
        assert out == ""


def test_new_task_rejects_existing_id(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    model_path = tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    run(capsys, "train", str(data), "--out", str(model_path))
    clash = tmp_path / "clash.csv"
    clash.write_text("task,y,x1\ntask1,1.0,2.0\ntask1,2.0,3.0\n")
    code, _, err = run(capsys, "new-task", "--model", str(model_path), str(clash))
    assert code == 1 and err.startswith("error: DuplicateTaskId:")


def test_train_reports_iteration_cap(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    code, out, _ = run(capsys, "train", str(data), "--max-iters", "1")
    assert code == 0
    assert out.startswith("hit the iteration cap at 1 iterations")


def test_train_status_is_scale_invariant():
    # a fit that hits the cap is reported so whatever the units of its targets
    ds = tc.generate_toy(35)
    small = tc.MultiTaskDataset([(t.task_id, t.inputs, 1e-10 * t.targets) for t in ds.tasks])
    hp = tc.Hyperparams(lam1=0.01, lam2=0.005, max_iters=2)
    for data in (ds, small):
        model = tc.fit(data, tc.KernelSpec("linear"), hp)
        assert _train_status(model).startswith("hit the iteration cap at 2 iterations")


def test_train_reports_stop_reason_and_gap(tmp_path, capsys):
    status_line = (r"converged after \d+ iterations, stop: gap, relative gap (\S+), "
                   r"objective \S+, CG products (\d+)")
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    code, out, _ = run(capsys, "train", str(data), "--tol", "1e-10")
    assert code == 0
    status = out.splitlines()[0]
    hit = re.fullmatch(status_line, status)
    assert hit and 0.0 <= float(hit.group(1)) <= 1e-10 and hit.group(2) == "0", status  # moment form
    code, out, _ = run(capsys, "train", str(data), "--kernel", "rbf", "--rbf-width", "2.0")
    assert code == 0
    status = out.splitlines()[0]
    hit = re.fullmatch(status_line, status)
    assert hit and 0.0 <= float(hit.group(1)) <= 1e-6 and int(hit.group(2)) > 0, status  # the default tol


def test_train_status_reads_the_report():
    # the status line says what the fit's report says; it does not re-derive
    # convergence from the objective trace
    model = tc.fit(tc.generate_toy(35), tc.KernelSpec("linear"), tc.Hyperparams(0.01, 0.005))
    assert _train_status(model).startswith("converged after ")
    capped = dataclasses.replace(model, report=tc.FitReport("iteration cap", 0.25, 17, 40))
    assert _train_status(capped) == (
        "hit the iteration cap at 40 iterations, stop: iteration cap, "
        f"relative gap 0.25, objective {model.objective_trace[-1]!r}, CG products 17"
    )


@pytest.mark.parametrize("kernel", [tc.KernelSpec("linear"), tc.KernelSpec("rbf", 2.0)])
def test_report_counts_iterations(kernel):
    # the report counts the fit's iterations, one trace value each between
    # the starting value and the final refresh, and the status line says so
    ds = tc.generate_toy(35)
    model = tc.fit(ds, kernel, tc.Hyperparams(0.01, 0.005))
    iterations = model.report.iterations
    assert model.report.stop_reason == "gap" and iterations == len(model.objective_trace) - 2 >= 1
    assert _train_status(model).startswith(f"converged after {iterations} iterations, stop: gap, ")
    capped = tc.fit(ds, kernel, tc.Hyperparams(0.01, 0.005, tol=1e-15, max_iters=2))
    assert capped.report.stop_reason == "iteration cap" and capped.report.iterations == 2
    assert len(capped.objective_trace) == 4
    assert _train_status(capped).startswith("hit the iteration cap at 2 iterations, stop: iteration cap, ")


def test_prior_train_refuses_stop_flags(tmp_path, capsys):
    # prior-train runs one solve with the prior fixed; there is no loop to stop
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    spec = tmp_path / "prior.spec"
    spec.write_text("kind=mean\n")
    for flag in (["--tol", "1e-3"], ["--max-iters", "5"]):
        code, out, err = run(capsys, "prior-train", str(data), "--prior", str(spec), *flag)
        assert code == 2 and err.startswith("error: usage:"), flag
        assert out == ""


def test_prior_train(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    spec = tmp_path / "prior.spec"
    spec.write_text("kind=mean\n")
    code, out, err = run(capsys, "prior-train", str(data), "--prior", str(spec))
    assert code == 0, err
    assert "task correlation matrix:" in out

    spec.write_text("kind=network\nedges=0-1,1-2\n")
    code, out, _ = run(capsys, "prior-train", str(data), "--prior", str(spec))
    assert code == 0

    spec.write_text("kind=clustered\nclusters=a,a,b\nalpha=1.0\nbeta=0.5\ngamma=0.7\n")
    code, out, _ = run(capsys, "prior-train", str(data), "--prior", str(spec))
    assert code == 0

    spec.write_text("kind=unknown\n")
    code, _, err = run(capsys, "prior-train", str(data), "--prior", str(spec))
    assert code == 1 and err.startswith("error: ParseError:")


def test_missing_file_fails_cleanly(capsys):
    code, _, err = run(capsys, "train", "/nonexistent/data.csv")
    assert code == 1
    assert err.startswith("error: FileNotFoundError:")


def test_non_utf8_files_fail_cleanly(tmp_path, capsys):
    # a latin-1 e-acute in each kind of file the CLI reads
    data, model = tmp_path / "toy.csv", tmp_path / "model.txt"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    run(capsys, "train", str(data), "--out", str(model))
    cases = (
        ("task,y,x1\ncaf\u00e9,1.0,2.0\n", "ParseError", lambda bad: ["train", bad]),
        (model.read_text().replace("task2", "t\u00e2sk2"), "CorruptModel",
         lambda bad: ["predict", "--model", bad, str(data)]),
        ("task,x1\ntask1,1.0\ncaf\u00e9,2.0\n", "ParseError",
         lambda bad: ["predict", "--model", str(model), bad]),
        ("kind=mean # \u00e9\n", "ParseError", lambda bad: ["prior-train", str(data), "--prior", bad]),
    )
    for k, (text, kind, argv) in enumerate(cases):
        bad = tmp_path / f"latin1-{k}"
        bad.write_bytes(text.encode("latin-1"))
        code, _, err = run(capsys, *argv(str(bad)))
        assert code == 1 and err.count("\n") == 1, err
        assert err.startswith(f"error: {kind}: {bad}: not UTF-8 text: "), err


@pytest.mark.parametrize("argv, spec", [
    (["train", "--l1", "0"], None),
    (["train", "--kernel", "rbf", "--rbf-width", "-1"], None),
    (["train", "--max-iters", "0"], None),
    (["cv", "--folds", "1"], None),
    (["prior-train"], "kind=clustered\nclusters=a,a,b\nalpha=-1\nbeta=0.5\ngamma=0.7\n"),
    (["prior-train"], "kind=clustered\nclusters=a,a,b\nalpha=x\nbeta=0.5\ngamma=0.7\n"),
    (["prior-train"], "kind=clustered\nclusters=a,a,b\nbeta=0.5\ngamma=0.7\n"),
    (["prior-train"], "kind=network\nedges=0-x\n"),
    (["prior-train"], "kind=similarity\nmatrix=0,1;1\n"),
])
def test_refused_flag_or_prior_spec_prints_one_error_line(tmp_path, capsys, argv, spec):
    data, prior = tmp_path / "toy.csv", tmp_path / "prior.spec"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    command, *flags = argv
    if spec is not None:
        prior.write_text(spec)
        flags += ["--prior", str(prior)]
    code, out, err = run(capsys, command, str(data), *flags)
    assert code != 0 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err
    if spec is not None and "alpha=-1" not in spec:
        assert err.startswith(f"error: ParseError: {prior}: ") and re.search("'(alpha|edges|matrix)'", err), err


def test_usage_error_single_line(capsys):
    code, _, err = run(capsys, "train")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: usage:")


def test_fit_commands_refuse_the_solver_flag(tmp_path, capsys):
    # every fit ends with one final step, so no command takes --solver
    data = tmp_path / "toy.csv"
    run(capsys, "make-toy", "--seed", "35", "--out", str(data))
    for command in (["train", str(data)], ["cv", str(data)], ["prior-train", str(data), "--prior", "spec"]):
        code, out, err = run(capsys, *command, "--solver", "smo")
        assert code == 2 and err.startswith("error: usage:") and err.count("\n") == 1, command
        assert out == ""
