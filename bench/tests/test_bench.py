"""The benchmark's own tests, at toy size.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import run
import taskcov
import tracer
import workloads
from tracer import Span, layer_totals, self_times

REPO = os.path.dirname(run.BENCH)

# The named end-to-end metrics each workload defines.
NAMED_BY_WORKLOAD = {
    "linear-2k": {"fit_s", "predict_qps", "model_io_s"},
    "rbf-smo": {"fit_s", "predict_qps"},
    "newtask": {"fit_s", "predict_qps", "incorporate_s"},
    "cv-grid": {"fit_s", "predict_qps", "cv_s"},
}
EVERYWHERE = {"setup_s", "op_s", "pass_s", "peak_rss_mb", "failed_frac"}


def toy(name, trace=False, probes=0):
    return run.measure(name, seed=3, seconds=0, trace=trace, toy=True,
                       started=run.perf_counter(), probes=probes)


def bindings():
    """Every attribute of every loaded taskcov module, by identity."""
    return {
        (mod_name, attr): id(value)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "taskcov" or mod_name.startswith("taskcov."))
        for attr, value in vars(mod).items()
    }


# -- metrics ---------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_appears_with_its_unit(name):
    record = toy(name, probes=1 if name == "linear-2k" else 0)
    assert record["failed"] == 0, record["problems"]
    assert set(record["named"]) == NAMED_BY_WORKLOAD[name] | EVERYWHERE
    assert record["named"]["failed_frac"] == 0
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    for key, metric in line["metrics"].items():
        assert metric["unit"] == run.END_TO_END[key]
        assert metric["value"] > 0


def test_setup_probe_counts_in_setup_median():
    record = toy("rbf-smo", probes=2)
    assert len(record["samples"]["setup_s"]) == 3
    assert record["named"]["setup_s"] == np.median(record["samples"]["setup_s"])


@pytest.mark.parametrize("name", ["linear-2k", "cv-grid"])
def test_traced_run_reports_every_layer_metric(name):
    record = toy(name, trace=True)
    line = run.result_line(record)
    assert set(line["metrics"]) == set(run.PER_LAYER)
    assert all(m["unit"] == run.PER_LAYER[k] for k, m in line["metrics"].items())
    layers = record["layers"]
    assert layers["solver.fit.calls"] >= 1
    # a fit builds the base Gram three times in each outer iteration and
    # in its final refresh
    per_fit = layers["kernels.base_kernel_matrix.calls_per_fit"]
    iters = layers["solver.fit.outer_iters"] / layers["solver.fit.calls"]
    assert per_fit == pytest.approx(3 * (iters + 1))
    assert layers["io.load_csv.calls"] == 1
    if name == "cv-grid":
        # crossval reaches fit through its own binding
        assert layers["crossval.fit.calls"] == 4 * 2  # toy grid: 2 x 2 points, 2 folds
        assert layers["solver.fit.calls"] == layers["crossval.fit.calls"] + 1
    else:
        assert layers["io.model_bytes"] > 0
        assert layers["crossval.fit.calls"] == 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- tracer ----------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span(0, "a.root", "taskcov", 0.0, 10.0, None, "1:x"),
        Span(1, "a.left", "a", 1.0, 4.0, 0, "1:x"),
        Span(2, "a.leaf", "a", 2.0, 3.0, 1, "1:x"),
        Span(3, "a.right", "a", 5.0, 9.0, 0, "1:x"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "a.root", "taskcov", 0.0, 10.0, None, None),
        Span(1, "a.one", "a", 2.0, 6.0, 0, None),
        Span(2, "a.two", "a", 4.0, 12.0, 0, None),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_layer_totals_by_function_site_and_counter():
    spans = [
        Span(0, "crossval.cross_validate", "taskcov", 0.0, 5.0, None, "1"),
        Span(1, "solver.fit", "crossval", 1.0, 2.0, 0, "1", {"outer_iters": 3}),
        Span(2, "solver.fit", "crossval", 2.0, 4.0, 0, "1", {"outer_iters": 4}),
        Span(3, "io.save_model", "taskcov", 6.0, 7.0, None, "2", {"model_bytes": 100.0}),
    ]
    totals = layer_totals(spans)
    assert totals["crossval.cross_validate.self_s"] == pytest.approx(2.0)
    assert totals["solver.fit.calls"] == 2
    assert totals["crossval.fit.calls"] == 2
    assert totals["solver.fit.outer_iters"] == 7
    assert totals["io.model_bytes"] == 100.0


def test_tracer_wraps_every_binding_and_restores_them():
    before = bindings()
    probe = tracer.Tracer()
    with probe:
        wrapped = {
            (name, attr)
            for name, mod in sys.modules.items()
            if name == "taskcov" or name.startswith("taskcov.")
            for attr, value in vars(mod).items()
            if getattr(value, "bench_traced", False)
        }
        taskcov.fit(
            taskcov.MultiTaskDataset([("a", np.eye(3), [1.0, 2.0, 3.0])]),
            taskcov.KernelSpec("linear"), taskcov.Hyperparams(0.1, 0.1),
        )
    for site in ("taskcov.kernels", "taskcov.solver", "taskcov.priors", "taskcov"):
        assert (site, "assemble_kernel_matrix") in wrapped
    for site in ("taskcov.linalg", "taskcov.kernels", "taskcov.solver",
                 "taskcov.newtask", "taskcov.priors"):
        assert (site, "sym_eig") in wrapped
    assert ("taskcov.crossval", "fit") in wrapped
    assert bindings() == before
    names = {s.name for s in probe.spans}
    assert {"solver.fit", "kernels.assemble_kernel_matrix", "linalg.solve_linear"} <= names
    fit_span = next(s for s in probe.spans if s.name == "solver.fit")
    inner = [s for s in probe.spans if s.parent == fit_span.id]
    assert inner and all(s.site == "solver" for s in inner if s.name.startswith("kernels."))


def test_traced_run_restores_every_binding():
    before = bindings()
    toy("cv-grid", trace=True)
    assert bindings() == before


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    record = toy("linear-2k")
    assert record["failed"] == 0


# -- output checks -----------------------------------------------------------


def test_corrupted_prediction_is_counted(monkeypatch):
    original = taskcov.predict_batch

    def corrupted(model, task_ids, xs):
        out = original(model, task_ids, xs)
        out[0] += 1e-6 * max(1.0, abs(out[0]))
        return out

    monkeypatch.setattr(taskcov, "predict_batch", corrupted)
    record = toy("rbf-smo")
    assert record["failed"] >= 1
    assert record["named"]["failed_frac"] > 0
    assert not run.result_line(record)["correct"]


def test_corrupted_covariance_is_counted(monkeypatch):
    original = taskcov.fit

    def corrupted(*args, **kwargs):
        model = original(*args, **kwargs)
        bad = model.covariance.matrix.copy()
        bad[0, 0] += 1e-6  # trace is no longer 1
        return dataclasses.replace(model, covariance=types.SimpleNamespace(matrix=bad))

    monkeypatch.setattr(taskcov, "fit", corrupted)
    record = toy("cv-grid")
    assert record["failed"] >= 1
    assert record["named"]["failed_frac"] > 0


def test_corrupted_new_task_covariance_is_counted(monkeypatch):
    original = taskcov.incorporate_new_task

    def corrupted(*args, **kwargs):
        solution = original(*args, **kwargs)
        bad = solution.augmented_covariance.matrix.copy()
        bad[-1, 0] += 1e-3  # no longer symmetric
        return dataclasses.replace(
            solution, augmented_covariance=types.SimpleNamespace(matrix=bad))

    monkeypatch.setattr(taskcov, "incorporate_new_task", corrupted)
    record = toy("newtask")
    assert record["failed"] == len(workloads.NewTask(0, "", toy=True).instances())


def test_raising_operation_is_counted_and_run_continues(monkeypatch):
    def broken(*args, **kwargs):
        raise taskcov.errors.SingularSystem("injected")

    monkeypatch.setattr(taskcov, "load_model", broken)
    record = toy("linear-2k")
    assert record["failed"] == 1
    assert any("injected" in p for p in record["problems"])


def _model(kind="linear", solver="direct"):
    rng = np.random.default_rng(0)
    tasks = [(f"t{i}", rng.normal(size=(15, 2)), rng.normal(size=15)) for i in range(2)]
    ds = taskcov.MultiTaskDataset(tasks)
    kernel = taskcov.KernelSpec(kind, 1.0 if kind == "rbf" else None)
    return ds, taskcov.fit(ds, kernel, taskcov.Hyperparams(0.1, 0.1), solver=solver)


@pytest.mark.parametrize("kind,solver", [("linear", "direct"), ("rbf", "smo")])
def test_checks_accept_a_fitted_model_and_reject_a_perturbed_one(kind, solver):
    ds, model = _model(kind, solver)
    assert checks.check_model(model, ds.targets, solver) == []
    alpha = model.dual_coefs.copy()
    alpha[0] += 1e-3
    alpha[1] -= 1e-3  # keeps the zero sums
    bent = dataclasses.replace(model, dual_coefs=alpha)
    assert checks.check_saddle(bent, ds.targets, solver)


def test_prediction_check_catches_a_small_error():
    ds, model = _model()
    xs = np.random.default_rng(1).normal(size=(7, 2))
    idx = np.array([0, 1, 0, 1, 0, 1, 1])
    preds = taskcov.predict_batch(model, [model.task_ids[i] for i in idx], xs)
    assert checks.check_predictions(model, idx, xs, preds) == []
    preds[3] *= 1 + 1e-7
    assert checks.check_predictions(model, idx, xs, preds)
    assert checks.check_identical(preds, preds.copy()) == []
    assert checks.check_identical(preds, np.nextafter(preds, np.inf))


@pytest.mark.parametrize("matrix", [
    [[0.5, 0.1], [0.0, 0.5]],  # asymmetric
    [[1.1, 0.0], [0.0, -0.1]],  # not PSD
    [[0.5, 0.0], [0.0, 0.6]],  # trace 1.1
])
def test_covariance_check_rejects(matrix):
    assert checks.check_covariance(np.array(matrix))


def test_trace_check():
    assert checks.check_trace([3.0, 2.0, 2.0, 1.0]) == []
    assert checks.check_trace([3.0, 2.0, 2.0 + 1e-6])


# -- the command line -----------------------------------------------------------


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "linear-2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
