"""Three 1-d regression tasks with opposite and unrelated trends.

Two of the generating functions (y = 3x + 10 and y = -3x - 5) mirror each
other; the third is flat (y = 1). The solver recovers each line from five
noisy points and learns a strongly negative covariance between the first
two tasks.
"""

import taskcov as tc

ds = tc.generate_toy(seed=35)
print("dataset: 3 tasks x 5 points, inputs uniform on [0, 10], noise var 0.1")

hp = tc.Hyperparams(lam1=0.01, lam2=0.005)
model = tc.fit(ds, tc.KernelSpec("linear"), hp)

print(
    f"\n{len(model.objective_trace) - 2} iterations, stopped on: {model.report.stop_reason},"
    f" relative duality gap {model.report.gap:.1e}"
)
print("objective trace:", " ".join(f"{v:.4f}" for v in model.objective_trace))

weights = tc.reconstruct_weights(model)
print("\nrecovered lines (true: y = 3x + 10, y = -3x - 5, y = 1):")
for i, tid in enumerate(model.task_ids):
    print(f"  {tid}: y = {weights[0, i]:+.4f} x {model.biases[i]:+.4f}")

corr = tc.correlation_from_covariance(model.covariance)
print("\ntask correlation matrix:")
for tid, row in zip(model.task_ids, corr):
    print(f"  {tid}  " + " ".join(f"{v: .4f}" for v in row))

print(
    "\nThe mirrored tasks come out perfectly anticorrelated. With a single"
    "\ninput dimension the learned covariance has rank one, so off-diagonal"
    "\nentries are pinned to +/-1; richer inputs (see the other demos) give"
    "\ngraded correlations."
)

print("\npredictions at x = 0 (intercepts):")
for tid in model.task_ids:
    print(f"  {tid}: {tc.predict(model, tid, [0.0]):+.4f}")
