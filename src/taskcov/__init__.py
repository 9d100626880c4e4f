"""Multi-task regression with a jointly learned task covariance matrix.

The library fits per-task linear or kernel regressors together with a
symmetric, unit-trace PSD matrix of pairwise task covariances, by
alternating an exact dual solve with an analytic covariance update.
Negative and near-zero task relationships are captured alongside positive
ones; a new task can later be grafted onto a fitted model without
touching it, and classical fixed relationship penalties (mean pull,
similarity graphs, task networks, clusters) run through the same solver
with the covariance held fixed.
"""

from . import errors
from .crossval import CvResult, ExperimentConfig, assign_folds, cross_validate
from .data import (
    Hyperparams,
    KernelSpec,
    MultiTaskDataset,
    NewTaskSolution,
    TaskCovariance,
    TaskData,
    TrainedModel,
    validate_dataset,
)
from .io import generate_toy, load_csv, load_model, save_csv, save_model
from .kernels import (
    assemble_kernel_matrix,
    base_kernel,
    base_kernel_matrix,
    coupling_matrix,
    multitask_kernel,
)
from .linalg import (
    EigenDecomposition,
    correlation_from_covariance,
    psd_inverse,
    psd_sqrt,
    solve_linear,
    sym_eig,
    trace_pinv_product,
)
from .metrics import Metrics, compute_metrics
from .newtask import (
    SocpInstance,
    augmented_covariance,
    incorporate_new_task,
    newtask_objective,
    schur_feasible,
    socp_instance,
    solve_omega_sigma,
    solve_wb_newtask,
)
from .priors import (
    clustered_inverse_covariance,
    fit_with_fixed_inverse,
    laplacian_from_similarity,
    laplacian_from_task_network,
    laplacian_mean_regularization,
)
from .solver import (
    fit,
    gram_wtw,
    objective_value,
    predict,
    predict_batch,
    reconstruct_weights,
    solve_alpha_b_direct,
    solve_alpha_b_smo,
    update_omega,
)

__version__ = "0.1.0"
