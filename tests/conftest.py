import tracemalloc

import numpy as np
import pytest

import taskcov as tc


@pytest.fixture
def toy():
    return tc.generate_toy(35)


@pytest.fixture
def toy_hp():
    return tc.Hyperparams(lam1=0.01, lam2=0.005)


def random_dataset(rng, m=3, d=2, n_lo=3, n_hi=8, noise=0.1):
    """Small regression dataset with i.i.d. task weights."""
    tasks = []
    for i in range(m):
        n = int(rng.integers(n_lo, n_hi + 1))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = x @ w + rng.normal() + noise * rng.normal(size=n)
        tasks.append((f"t{i}", x, y))
    return tc.MultiTaskDataset(tasks)


def planted_dataset(seed, tasks, points, dim, rank):
    """Tasks whose weights share a rank-`rank` structure, an offset of 0.5
    and noise of standard deviation 0.3: with (12345, 10, 200, 10, 3) the
    benchmark's linear-2k data, with (777, 8, 40, 5, 2) its cv-grid data."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(dim, rank)) @ rng.normal(size=(rank, tasks)) / np.sqrt(rank)
    out = []
    for i in range(tasks):
        x = rng.normal(size=(points, dim))
        out.append((f"t{i}", x, x @ weights[:, i] + 0.5 + 0.3 * rng.normal(size=points)))
    return tc.MultiTaskDataset(out)


def smooth_dataset(seed, tasks, points, dim, shift=0.0):
    """Tasks that mix two sine features of inputs drawn uniformly from
    [-1.5, 1.5]^dim, all inputs then moved by shift: the shape of the
    benchmark's rbf-smo data (6 tasks x 150 points, dim 4)."""
    rng = np.random.default_rng(seed)
    directions, mix = rng.normal(size=(dim, 2)), rng.normal(size=(2, tasks))
    out = []
    for i in range(tasks):
        x = rng.uniform(-1.5, 1.5, size=(points, dim))
        y = np.sin(x @ directions) @ mix[:, i] + 0.1 * rng.normal(size=points)
        out.append((f"t{i}", x + shift, y))
    return tc.MultiTaskDataset(out)


def traced_peak(f, *args, **kwargs):
    """f's result and the peak of the memory tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return f(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
