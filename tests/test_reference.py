import ast
import pathlib
import types

import taskcov as tc
from taskcov import reference, solver

PACKAGE = pathlib.Path(tc.__file__).parent

# The public names of taskcov, submodules aside, before the reference
# forms moved to taskcov.reference.
PUBLIC = {
    "CvResult", "EigenDecomposition", "ExperimentConfig", "FitReport", "Hyperparams", "KernelSpec",
    "Metrics", "MultiTaskDataset", "NewTaskSolution", "SocpInstance", "TaskCovariance", "TaskData",
    "TrainedModel", "assemble_kernel_matrix", "assign_folds", "augmented_covariance", "base_kernel",
    "base_kernel_matrix", "clustered_inverse_covariance", "compute_metrics", "correlation_from_covariance",
    "coupling_matrix", "cross_validate", "fit", "fit_with_fixed_inverse", "generate_toy", "gram_wtw",
    "incorporate_new_task", "laplacian_from_similarity", "laplacian_from_task_network",
    "laplacian_mean_regularization", "load_csv", "load_model", "multitask_kernel", "newtask_objective",
    "objective_value", "predict", "predict_batch", "psd_inverse", "psd_sqrt", "reconstruct_weights",
    "save_csv", "save_model", "schur_feasible", "socp_instance", "solve_alpha_b_direct", "solve_alpha_b_smo",
    "solve_linear", "solve_omega_sigma", "solve_wb_newtask", "sym_eig", "trace_pinv_product", "update_omega",
    "validate_dataset",
}
MOVED = {
    "update_omega", "objective_value", "gram_wtw", "solve_alpha_b_direct", "solve_alpha_b_smo",
    "SocpInstance", "socp_instance", "solve_omega_sigma", "solve_wb_newtask", "newtask_objective",
    "schur_feasible", "base_kernel", "multitask_kernel", "assemble_kernel_matrix", "coupling_matrix",
    "psd_sqrt", "psd_inverse",
}


def imports_reference(node):
    """Whether an import statement brings in taskcov.reference or a name of it."""
    if isinstance(node, ast.Import):
        return any(alias.name == "taskcov.reference" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module in ("reference", "taskcov.reference"):
            return True
        if module in ("", "taskcov"):
            return any(alias.name == "reference" for alias in node.names)
    return False


def test_fit_path_modules_never_import_the_references():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "reference"))
    assert {p.stem for p in modules} >= {"solver", "newtask", "kernels", "linalg", "crossval", "priors"}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        bad = [node.lineno for node in ast.walk(tree) if imports_reference(node)]
        assert not bad, f"{path.name} imports taskcov.reference at lines {bad}"
    # the names the solver tests no longer patch there
    for name in ("assemble_kernel_matrix", "solve_linear", "_smo_solve", "SMO_DEFAULT_TOL"):
        assert not hasattr(solver, name)


def test_the_check_sees_every_import_form():
    for text in ("import taskcov.reference", "from . import reference", "from .reference import psd_sqrt",
                 "from taskcov import reference", "from taskcov.reference import update_omega",
                 "def f():\n    from .reference import gram_wtw"):
        assert any(imports_reference(node) for node in ast.walk(ast.parse(text))), text
    for text in ("from .solver import fit", "import taskcov", "from . import solver"):
        assert not any(imports_reference(node) for node in ast.walk(ast.parse(text))), text


def test_public_surface_is_unchanged():
    names = {n for n, v in vars(tc).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
    for name in MOVED:
        assert getattr(tc, name) is getattr(reference, name)
        assert getattr(tc, name).__module__ == "taskcov.reference"
