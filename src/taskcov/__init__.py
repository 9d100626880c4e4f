"""Multi-task regression with a jointly learned task covariance matrix.

The library fits per-task linear or kernel regressors together with a
symmetric, unit-trace PSD matrix of pairwise task covariances, by
proximal-gradient steps combined with the exact covariance step, stopped
on a certified duality gap.
Negative and near-zero task relationships are captured alongside positive
ones; a new task can later be grafted onto a fitted model without
touching it, and classical fixed relationship penalties (mean pull,
similarity graphs, task networks, clusters) run through the same solver
with the covariance held fixed.
"""

from . import errors
from .crossval import CvResult, ExperimentConfig, assign_folds, cross_validate
from .data import (
    FitReport,
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
from .kernels import base_kernel_matrix
from .linalg import EigenDecomposition, correlation_from_covariance, solve_linear, sym_eig, trace_pinv_product
from .metrics import Metrics, compute_metrics
from .newtask import augmented_covariance, incorporate_new_task
from .priors import (
    clustered_inverse_covariance,
    fit_with_fixed_inverse,
    laplacian_from_similarity,
    laplacian_from_task_network,
    laplacian_mean_regularization,
)
from .reference import (
    SocpInstance,
    assemble_kernel_matrix,
    base_kernel,
    coupling_matrix,
    gram_wtw,
    multitask_kernel,
    newtask_objective,
    objective_value,
    psd_inverse,
    psd_sqrt,
    schur_feasible,
    socp_instance,
    solve_alpha_b_direct,
    solve_alpha_b_smo,
    solve_omega_sigma,
    solve_wb_newtask,
    update_omega,
)
from .solver import fit, predict, predict_batch, reconstruct_weights

__version__ = "0.1.0"
