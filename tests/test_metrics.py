import numpy as np
import pytest

import taskcov as tc
from taskcov import errors


def test_perfect_predictions():
    truth = {"a": [1.0, 2.0, 3.0], "b": [0.0, 4.0]}
    m = tc.compute_metrics(truth, truth)
    assert m.nmse == {"a": 0.0, "b": 0.0}
    assert m.explained_variance == 100.0


def test_mean_prediction_scores_one():
    truth = {"a": np.array([1.0, 2.0, 3.0, 6.0])}
    pred = {"a": np.full(4, np.mean(truth["a"]))}
    m = tc.compute_metrics(truth, pred)
    np.testing.assert_allclose(m.nmse["a"], 1.0)
    np.testing.assert_allclose(m.explained_variance, 0.0, atol=1e-12)


def test_hand_computed_case():
    truth = {"a": np.array([0.0, 2.0]), "b": np.array([1.0, 3.0, 5.0])}
    pred = {"a": np.array([0.5, 1.5]), "b": np.array([1.0, 2.0, 6.0])}
    m = tc.compute_metrics(truth, pred)
    np.testing.assert_allclose(m.nmse["a"], (0.25 + 0.25) / 2.0 / 1.0)
    np.testing.assert_allclose(m.nmse["b"], (0.0 + 1.0 + 1.0) / 3.0 / np.var([1.0, 3.0, 5.0]))
    pooled_truth = np.array([0.0, 2.0, 1.0, 3.0, 5.0])
    pooled_mse = (0.25 + 0.25 + 0.0 + 1.0 + 1.0) / 5.0
    expected = 100.0 * (1.0 - pooled_mse / np.var(pooled_truth))
    np.testing.assert_allclose(m.explained_variance, expected)


def test_classification_error():
    truth = {"a": np.array([1.0, -1.0, 1.0, -1.0])}
    pred = {"a": np.array([0.5, 0.5, -2.0, -0.1])}
    m = tc.compute_metrics(truth, pred, task_type="classification")
    np.testing.assert_allclose(m.error["a"], 0.5)
    assert m.nmse is None and m.explained_variance is None


def test_zero_variance_truth():
    with pytest.raises(errors.ZeroVarianceTruth):
        tc.compute_metrics({"a": [2.0, 2.0]}, {"a": [2.0, 2.0]})


def test_nmse_does_not_depend_on_the_targets_units():
    # the variance gate is the test of values constant to rounding, which
    # a task's targets far below unit scale do not fail
    rng = np.random.default_rng(4)
    truth = {t: rng.normal(size=30) for t in "ab"}
    predicted = {t: v + 0.3 * rng.normal(size=30) for t, v in truth.items()}
    want = tc.compute_metrics(truth, predicted)
    got = tc.compute_metrics({t: v * 1e-7 for t, v in truth.items()}, {t: v * 1e-7 for t, v in predicted.items()})
    for t in "ab":
        assert abs(got.nmse[t] - want.nmse[t]) <= 1e-12 * want.nmse[t]
    assert abs(got.explained_variance - want.explained_variance) <= 1e-12 * abs(want.explained_variance)
    # targets constant to rounding are refused at any offset
    for constant in ([1e-7, 1e-7], [1e12, 1e12 + 0.01]):
        with pytest.raises(errors.ZeroVarianceTruth):
            tc.compute_metrics({"a": constant}, {"a": [0.0, 0.0]})


def test_mismatched_tasks():
    with pytest.raises(errors.DimensionMismatch):
        tc.compute_metrics({"a": [1.0, 2.0]}, {"b": [1.0, 2.0]})


def test_invariants_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        truth = {"a": rng.normal(size=6), "b": rng.normal(size=4)}
        pred = {"a": rng.normal(size=6), "b": rng.normal(size=4)}
        m = tc.compute_metrics(truth, pred)
        assert all(v >= 0 for v in m.nmse.values())
        assert m.explained_variance <= 100.0
        labels = {k: np.sign(v) + (v == 0) for k, v in truth.items()}
        c = tc.compute_metrics(labels, pred, task_type="classification")
        assert all(0.0 <= v <= 1.0 for v in c.error.values())
