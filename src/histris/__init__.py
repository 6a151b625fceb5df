"""Solvers for history-dependent rate-independent evolutions.

The state minimizes a uniformly convex stored energy against a rate-1-
homogeneous dissipation whose strength is modulated by the accumulated
history of the state itself.  The package provides the implicit viscous
integrator, its explicit projection twin, the vanishing-viscosity sweep
with a posteriori limit certificates, dual complementarity checks, and
quantitative stability experiments, all behind one YAML-driven CLI.
"""

from .control import (
    ControlProblem,
    ObjectiveReport,
    OptimizeResult,
    evaluate_objective,
    load_from_coefficients,
    optimize,
    sine_basis,
)
from .dissipation import (
    ABS_INTERP_CONST,
    Dissipation,
    Fatigue,
    WeightedL1,
    check_homogeneity,
    check_lipschitz_axiom,
    conjugate_check,
    potential,
    project_subdiff_zero,
    prox_rate,
    subdiff_zero_contains,
    threshold_dual,
)
from .errors import NumericalFailure
from .expressions import Expression, ExpressionError
from .history import (
    HistoryAccumulator,
    KernelSpec,
    convolution_kernel,
    identity_kernel,
)
from .qp import KKT_TOL, solve_box_qp, solve_l1_qp
from .spatial import (
    Mesh,
    assemble_dual,
    build_mesh,
    dual_norm,
    dual_pair,
    h1_inner,
    h1_norm,
    interpolate,
    l2_inner,
    l2_norm,
)
from .trajectory import Trajectory, c_norm, c_norm_diff, h1_time_norm
from .verify import (
    ExperimentConfig,
    compatibility_check,
    dual_equivalence,
    dual_equivalence_slope,
    history_lipschitz_check,
    lipschitz_experiment,
    random_load,
    smooth_fatigue,
    uniform_bound_experiment,
    uniqueness_probe,
)
from .viscous import (
    BALANCE_TOL,
    Load,
    LoadTerm,
    Scenario,
    SolveReport,
    constant_in_space_load,
    driving_force,
    energy,
    expression_load,
    solve_levels,
    solve_viscous,
    viscous_step,
)
from .vv import (
    DEFAULT_EPS_LEVELS,
    LimitCertificate,
    VVResult,
    certify_limit,
    check_rate_independence,
    vv_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ABS_INTERP_CONST",
    "BALANCE_TOL",
    "ControlProblem",
    "DEFAULT_EPS_LEVELS",
    "Dissipation",
    "ExperimentConfig",
    "Expression",
    "ExpressionError",
    "Fatigue",
    "HistoryAccumulator",
    "KKT_TOL",
    "KernelSpec",
    "LimitCertificate",
    "Load",
    "LoadTerm",
    "Mesh",
    "NumericalFailure",
    "ObjectiveReport",
    "OptimizeResult",
    "Scenario",
    "SolveReport",
    "Trajectory",
    "VVResult",
    "WeightedL1",
    "assemble_dual",
    "build_mesh",
    "c_norm",
    "c_norm_diff",
    "certify_limit",
    "check_homogeneity",
    "check_lipschitz_axiom",
    "check_rate_independence",
    "compatibility_check",
    "conjugate_check",
    "constant_in_space_load",
    "convolution_kernel",
    "driving_force",
    "dual_equivalence",
    "dual_equivalence_slope",
    "dual_norm",
    "dual_pair",
    "energy",
    "evaluate_objective",
    "expression_load",
    "h1_inner",
    "h1_norm",
    "h1_time_norm",
    "history_lipschitz_check",
    "identity_kernel",
    "interpolate",
    "l2_inner",
    "l2_norm",
    "lipschitz_experiment",
    "load_from_coefficients",
    "optimize",
    "potential",
    "project_subdiff_zero",
    "prox_rate",
    "random_load",
    "sine_basis",
    "smooth_fatigue",
    "solve_box_qp",
    "solve_l1_qp",
    "solve_levels",
    "solve_viscous",
    "subdiff_zero_contains",
    "threshold_dual",
    "uniform_bound_experiment",
    "uniqueness_probe",
    "viscous_step",
    "vv_sweep",
]
