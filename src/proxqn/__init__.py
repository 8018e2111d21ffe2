"""Composite convex optimization with proximal quasi-Newton methods.

F(x) = f(x) + lambda ||x||_1 solved by proximal gradient, FISTA, and
(accelerated) proximal quasi-Newton drivers over compact L-BFGS
Hessian models, with a randomized coordinate-descent subproblem solver.
"""

from .dataset import (
    Dataset,
    SyntheticQuadratic,
    read_libsvm,
    synthesize_quadratic,
    write_libsvm,
)
from .hessian import (
    CorrectionPairs,
    HessianModel,
    compile_compact,
    enforce_domination,
    extreme_eigenvalues,
    model_value,
)
from .optimizers import (
    ALGORITHMS,
    OptimizerConfig,
    Trace,
    TraceRecord,
    momentum_point,
    run_apga,
    run_apqna,
    run_apqna_fh,
    run_pga,
    run_pqna,
    t_next,
    theoretical_linear_rate,
)
from .problem import (
    CompositeProblem,
    l1_value,
    logistic_gradient,
    logistic_problem,
    logistic_value,
    min_norm_subgradient,
    prox_l1_scaled_identity,
    quadratic_problem,
)
from .subsolver import (
    SubproblemBudget,
    budget_for_iteration,
    cd_minimize,
    exact_solve_oracle,
    phi_constant,
)

__version__ = "0.1.0"
