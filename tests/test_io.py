import dataclasses
import hashlib

import numpy as np
import pytest

import taskcov as tc
from taskcov import errors


class TestCsv:
    def test_round_trip(self, tmp_path, toy):
        path = tmp_path / "toy.csv"
        tc.save_csv(toy, path)
        loaded = tc.load_csv(path)
        assert loaded == toy

    def test_interleaved_rows_group_by_first_appearance(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("task,y,x1\nb,1.0,2.0\na,3.0,4.0\nb,5.0,6.0\n")
        ds = tc.load_csv(path)
        assert ds.task_ids == ("b", "a")
        np.testing.assert_allclose(ds.tasks[0].targets, [1.0, 5.0])

    def test_two_row_single_task(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("task,y,x1\na,1.5,0.25\na,-2.0,1.75\n")
        ds = tc.load_csv(path)
        assert ds.m == 1 and ds.total == 2

    def test_parse_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task,y,x1\na,1.0,2.0\na,oops,3.0\n")
        with pytest.raises(errors.ParseError, match=":3"):
            tc.load_csv(path)

    def test_non_finite_token_names_row(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("task,y,x1\na,1.0,2.0\na,2.0,inf\n")
        with pytest.raises(errors.NonFiniteValue, match=":3.*'inf'"):
            tc.load_csv(path)

    def test_quoted_task_id_with_comma_rejected(self, tmp_path):
        path = tmp_path / "comma.csv"
        path.write_text('task,y,x1\n"a,b",1.0,2.0\nc,2.0,3.0\n')
        with pytest.raises(errors.InvalidTaskId, match="'a,b'"):
            tc.load_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("task,x1,y\na,1.0,2.0\n", "header must be task,y,x1"),
        ("task,y\na,1.0\n", "header must be task,y,x1"),
        ("task,y,x1\na,1.0,2.0\na,2.0\n", ":3: expected 3 columns, got 2"),
    ])
    def test_bad_header_or_column_count(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(errors.ParseError, match=message):
            tc.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(errors.EmptyFile):
            tc.load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("task,y,x1\n")
        with pytest.raises(errors.EmptyFile):
            tc.load_csv(path)


class TestToyGenerator:
    def test_layout(self):
        ds = tc.generate_toy(123)
        assert ds.m == 3 and list(ds.counts) == [5, 5, 5] and ds.dim == 1
        assert all(0.0 <= x <= 10.0 for x in ds.inputs.ravel())

    def test_deterministic(self):
        assert tc.generate_toy(9) == tc.generate_toy(9)

    @pytest.mark.parametrize("noise_var", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_bad_noise_variance_refused(self, noise_var):
        # such a variance once wrote noiseless targets without a word
        with pytest.raises(ValueError, match="noise_var must be finite and nonnegative"):
            tc.generate_toy(3, noise_var=noise_var)

    def test_noiseless_fit_recovers_coefficients(self):
        ds = tc.generate_toy(3, noise_var=0.0)
        hp = tc.Hyperparams(lam1=1e-6, lam2=5e-7)
        model = tc.fit(ds, tc.KernelSpec("linear"), hp)
        w = tc.reconstruct_weights(model)[0]
        b = model.biases
        for i, (slope, intercept) in enumerate([(3, 10), (-3, -5), (0, 1)]):
            assert abs(w[i] - slope) <= 1e-3
            assert abs(b[i] - intercept) <= 1e-3


class TestModelFile:
    def fitted(self, toy, toy_hp, kernel=None):
        return tc.fit(toy, kernel or tc.KernelSpec("linear"), toy_hp)

    def test_round_trip_predictions_identical(self, tmp_path, toy, toy_hp):
        for kernel in (tc.KernelSpec("linear"), tc.KernelSpec("rbf", 2.5)):
            model = self.fitted(toy, toy_hp, kernel)
            path = tmp_path / f"model-{kernel.kind}.txt"
            tc.save_model(model, path)
            loaded = tc.load_model(path)
            for tid in toy.task_ids:
                for x in np.linspace(-5, 15, 7):
                    a = tc.predict(model, tid, [x])
                    b = tc.predict(loaded, tid, [x])
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_round_trip_fields(self, tmp_path, toy, toy_hp):
        model = self.fitted(toy, toy_hp)
        path = tmp_path / "model.txt"
        tc.save_model(model, path)
        loaded = tc.load_model(path)
        assert loaded.task_ids == model.task_ids
        np.testing.assert_array_equal(loaded.dual_coefs, model.dual_coefs)
        np.testing.assert_array_equal(loaded.covariance.matrix, model.covariance.matrix)
        np.testing.assert_array_equal(loaded.coupling, model.coupling)
        assert loaded.objective_trace == model.objective_trace
        assert loaded.hyperparams == model.hyperparams

    def test_truncated_file_is_corrupt(self, tmp_path, toy, toy_hp):
        model = self.fitted(toy, toy_hp)
        path = tmp_path / "model.txt"
        tc.save_model(model, path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.7)])
        with pytest.raises(errors.CorruptModel):
            tc.load_model(path)

    def test_support_block_must_match_counts(self, tmp_path, toy, toy_hp):
        # one support row dropped, under a checksum that matches the damage
        tc.save_model(self.fitted(toy, toy_hp), tmp_path / "model.txt")
        header, checksum, *payload = (tmp_path / "model.txt").read_text().split("\n")
        payload.remove(next(line for line in payload if line.startswith("x: ")))
        payload = "\n".join(payload)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        (tmp_path / "model.txt").write_text(f"{header}\nchecksum: {digest}\n{payload}")
        with pytest.raises(errors.CorruptModel, match="support block does not match counts"):
            tc.load_model(tmp_path / "model.txt")

    def test_short_bias_line_is_corrupt(self, tmp_path, toy, toy_hp):
        # one bias dropped, under a checksum that matches the damage: refused
        # at load, not when predict indexes the missing bias
        tc.save_model(self.fitted(toy, toy_hp), tmp_path / "model.txt")
        header, checksum, *payload = (tmp_path / "model.txt").read_text().split("\n")
        k = next(i for i, line in enumerate(payload) if line.startswith("b: "))
        payload[k] = payload[k].rsplit(" ", 1)[0]
        payload = "\n".join(payload)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        (tmp_path / "model.txt").write_text(f"{header}\nchecksum: {digest}\n{payload}")
        with pytest.raises(errors.CorruptModel, match=r"biases \(2,\) and coupling \(3, 3\) do not fit 3 tasks"):
            tc.load_model(tmp_path / "model.txt")

    def test_repeated_task_id_is_corrupt(self, tmp_path, toy, toy_hp):
        # a hand-written tasks line that repeats an id, under a checksum
        # that matches it: refused at load, naming the file, not served as
        # the last task of that id
        tc.save_model(self.fitted(toy, toy_hp), tmp_path / "model.txt")
        header, checksum, *payload = (tmp_path / "model.txt").read_text().split("\n")
        assert payload[0] == "tasks: task1,task2,task3"
        payload = "\n".join(["tasks: task1,task2,task1"] + payload[1:])
        digest = hashlib.sha256(payload.encode()).hexdigest()
        (tmp_path / "model.txt").write_text(f"{header}\nchecksum: {digest}\n{payload}")
        with pytest.raises(errors.CorruptModel, match=r"model\.txt: task id 'task1' appears more than once"):
            tc.load_model(tmp_path / "model.txt")

    def test_version_bump_detected(self, tmp_path, toy, toy_hp):
        model = self.fitted(toy, toy_hp)
        path = tmp_path / "model.txt"
        tc.save_model(model, path)
        text = path.read_text().replace("taskcov-model 1", "taskcov-model 2", 1)
        path.write_text(text)
        with pytest.raises(errors.VersionMismatch):
            tc.load_model(path)

    def test_prior_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        tasks = [(f"t{i}", rng.normal(size=(5, 2)), rng.normal(size=5)) for i in range(3)]
        ds = tc.MultiTaskDataset(tasks)
        hp = tc.Hyperparams(lam1=0.2, lam2=0.1)
        model = tc.fit_with_fixed_inverse(
            ds, tc.KernelSpec("linear"), hp, tc.laplacian_mean_regularization(3)
        )
        path = tmp_path / "prior.txt"
        tc.save_model(model, path)
        loaded = tc.load_model(path)
        x = rng.normal(size=2)
        for tid in ds.task_ids:
            assert tc.predict(loaded, tid, x) == tc.predict(model, tid, x)


def round_trip(model, path):
    """The model as load_model reads it back after save_model, checked
    equal to the original, field by field, with its predictions bit for
    bit."""
    tc.save_model(model, path)
    loaded = tc.load_model(path)
    for field in dataclasses.fields(model):
        if field.compare:
            got, want = getattr(loaded, field.name), getattr(model, field.name)
            if isinstance(want, tc.TaskCovariance):
                got, want = got.matrix, want.matrix
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, field.name
    ids = [model.task_ids[i] for i in model.support_tasks]
    np.testing.assert_array_equal(tc.predict_batch(loaded, ids, model.support_inputs),
                                  tc.predict_batch(model, ids, model.support_inputs))
    return loaded


@pytest.mark.parametrize("kernel", [
    pytest.param(tc.KernelSpec("linear"), id="linear"),
    pytest.param(tc.KernelSpec("rbf", np.float64(2.0)), id="rbf"),
])
def test_numpy_scalar_hyperparameters_round_trip(tmp_path, toy, kernel):
    # numpy 2 writes repr(np.float64(0.1)) as 'np.float64(0.1)', which the
    # model file once stored and could not read back
    hp = tc.Hyperparams(np.float64(0.1), np.float64(0.05), tol=np.float32(1e-6), max_iters=np.int64(50))
    assert type(hp.lam1) is type(hp.tol) is float and type(hp.max_iters) is int
    model = tc.fit(toy, kernel, hp)
    assert round_trip(model, tmp_path / "model.txt").hyperparams == hp


def test_cross_validated_point_round_trips(tmp_path, toy):
    grid = np.logspace(-2, -1, 2)
    config = tc.ExperimentConfig("linear", grid, grid, folds=2)
    assert config.lam1_grid == tuple(float(v) for v in grid)
    result = tc.cross_validate(config, toy)
    model = tc.fit(toy, tc.KernelSpec("linear"), tc.Hyperparams(result.lam1, result.lam2))
    round_trip(model, tmp_path / "model.txt")
