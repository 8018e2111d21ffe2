"""Composite convex optimization with proximal quasi-Newton methods.

F(x) = f(x) + lambda ||x||_1 solved by proximal gradient, FISTA, and
(accelerated) proximal quasi-Newton drivers over compact L-BFGS
Hessian models, with a randomized coordinate-descent subproblem solver.

The package exports the data sets, the problems, and the drivers by
name through ``ALGORITHMS``; the submodules keep the rest.
"""

from .dataset import (
    Dataset,
    SyntheticQuadratic,
    read_libsvm,
    synthesize_quadratic,
    write_libsvm,
)
from .optimizers import ALGORITHMS, OptimizerConfig
from .problem import CompositeProblem, logistic_problem, quadratic_problem

__all__ = [
    "Dataset",
    "SyntheticQuadratic",
    "read_libsvm",
    "write_libsvm",
    "synthesize_quadratic",
    "CompositeProblem",
    "logistic_problem",
    "quadratic_problem",
    "ALGORITHMS",
    "OptimizerConfig",
]
