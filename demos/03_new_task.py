"""Adding a task to a fitted model without refitting it.

Two base tasks are fitted jointly; a third arrives later. The
incorporation step learns the newcomer's weights together with its
covariance column against the frozen base model in one exact step; the
objective at its start point and at the solution is printed.
"""

import numpy as np

import taskcov as tc

rng = np.random.default_rng(11)
d, n = 3, 40
w_base = {"alpha": rng.normal(size=d), "beta": rng.normal(size=d)}

tasks = []
for tid, w in w_base.items():
    x = rng.normal(size=(n, d))
    tasks.append((tid, x, x @ w + 0.3 + 0.1 * rng.normal(size=n)))
ds = tc.MultiTaskDataset(tasks)
hp = tc.Hyperparams(lam1=0.05, lam2=0.05)
model = tc.fit(ds, tc.KernelSpec("linear"), hp)
print("base model covariance:")
print(np.array_str(np.asarray(model.covariance.matrix), precision=4))

# the newcomer tracks task 'alpha' closely
w_new = w_base["alpha"] + 0.1 * rng.normal(size=d)
xn = rng.normal(size=(25, d))
yn = xn @ w_new + 0.3 + 0.1 * rng.normal(size=25)

solution = tc.incorporate_new_task(model, ("gamma", xn, yn), hp)
print("\nincorporation objective, start point -> solution:")
print("  " + " -> ".join(f"{v:.5f}" for v in solution.objective_trace))

print(f"\nnew-task variance share: {solution.variance:.4f}")
print("covariance column vs base tasks:", np.round(solution.cov_column, 4))
corr = tc.correlation_from_covariance(solution.augmented_covariance)
print("augmented correlations (last row = newcomer):")
for tid, row in zip(list(model.task_ids) + ["gamma"], corr):
    print(f"  {tid:>6}  " + " ".join(f"{v: .3f}" for v in row))

print("\nweight recovery for the newcomer:")
print("  true:   ", np.round(w_new, 3))
print("  learned:", np.round(solution.weights, 3))
print(
    "\nThe base model's coefficients and covariance are untouched; only the"
    "\nnewcomer's weights, bias, covariance column and variance were learned."
)
