"""Properties of fit on small random linear and RBF problems, drawn by
hypothesis (skipped when it is not installed)."""

import os
import tempfile
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# hypothesis writes a failing example's patch with libcst when that is
# installed, and some libcst versions warn on import; the suite turns
# warnings into errors, which would turn a failure into an internal error
# that stops the run. Importing it here first, with warnings ignored,
# keeps a failure an ordinary test failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

import taskcov as tc  # noqa: E402
from conftest import random_dataset  # noqa: E402

problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "m": st.integers(1, 4),
    "d": st.integers(1, 3),
    "n_hi": st.integers(1, 12),
    "width": st.none() | st.floats(0.3, 3.0),
    "lam1": st.floats(1e-3, 1.0),
    "lam2": st.floats(0.0, 1.0),
    "tol": st.sampled_from([1e-4, 1e-6, 1e-8]),
    "solver": st.sampled_from(["auto", "smo"]),
})


def fitted(problem):
    """The problem's dataset, and its fit (an RBF kernel when it has a
    width, else linear)."""
    rng = np.random.default_rng(problem["seed"])
    ds = random_dataset(rng, m=problem["m"], d=problem["d"], n_lo=1, n_hi=problem["n_hi"])
    width = problem["width"]
    kernel = tc.KernelSpec("linear") if width is None else tc.KernelSpec("rbf", width)
    hp = tc.Hyperparams(problem["lam1"], problem["lam2"], tol=problem["tol"])
    return ds, tc.fit(ds, kernel, hp, solver=problem["solver"])


def same_model(a, b):
    for name in ("dual_coefs", "biases", "coupling", "support_inputs", "support_tasks", "counts"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return (a.task_ids == b.task_ids and a.kernel == b.kernel and a.hyperparams == b.hyperparams
            and a.objective_trace == b.objective_trace
            and np.array_equal(a.covariance.matrix, b.covariance.matrix))


@settings(max_examples=40, deadline=None)
@given(problems)
# one point per task: the optimum is 0, and the stored state's objective
# is the rounding of the final solve
@example({"seed": 1, "m": 1, "d": 1, "n_hi": 1, "width": None, "lam1": 1e-3, "lam2": 0.0,
          "tol": 1e-4, "solver": "auto"})
@example({"seed": 1, "m": 2, "d": 1, "n_hi": 1, "width": 1.0, "lam1": 1e-3, "lam2": 0.1,
          "tol": 1e-8, "solver": "smo"})
def test_fit_properties(problem):
    ds, model = fitted(problem)
    omega = model.covariance.matrix
    assert abs(np.trace(omega) - 1.0) <= 1e-8
    assert np.linalg.eigvalsh(omega)[0] >= -1e-10
    trace = model.objective_trace
    # rounding may lift a zero objective, so the slack is relative to the
    # starting objective, the problem's scale
    assert all(b <= a + 1e-10 * max(abs(a), trace[0]) for a, b in zip(trace, trace[1:]))
    assert model.report.stop_reason in ("gap", "iteration cap")
    if model.report.stop_reason == "gap":
        assert 0.0 <= model.report.gap <= model.hyperparams.tol

    rng = np.random.default_rng(problem["seed"] + 1)
    ids = [ds.task_ids[i] for i in rng.integers(ds.m, size=7)]
    xs = rng.normal(size=(7, ds.dim))
    batch = tc.predict_batch(model, ids, xs)
    single = np.array([tc.predict(model, t, x) for t, x in zip(ids, xs)])
    if model.kernel.kind == "linear":
        np.testing.assert_array_equal(batch, single)
    else:
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(batch))))

    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "model.txt")
        tc.save_model(model, path)
        loaded = tc.load_model(path)
    assert same_model(loaded, model)
    np.testing.assert_array_equal(tc.predict_batch(loaded, ids, xs), batch)
