"""Iterative reproducing-kernel collocation for the time-fractional Burgers equation.

The solver represents the solution of

    D_eta^alpha y + k1 y_xixi + k2 y + k3 y_xi + k4 y y_xi = f

on the unit square, with homogeneous initial and boundary data, as a
finite expansion over orthonormalized images of a product reproducing
kernel under the linear part of the operator.  The nonlinear term is
handled by a single sequential pass that lags it behind the growing
partial sum.

Typical use:

    >>> from rkburgers import CollocationGrid, build_example51, solve, error_report
    >>> sol = solve(build_example51(0.9), CollocationGrid.uniform(5, 5))
    >>> report = error_report(sol, [(0.1 * i, 0.1 * j) for i in range(1, 7) for j in range(1, 7)])
    >>> report.max_abs_error < 1e-3
    True
"""

__version__ = "0.1.0"

from .fracmath import (
    DEFAULT_QUADRATURE_NODES,
    caputo_power,
    gamma,
    jacobi_rule,
    weighted_moment,
)
from .kernels import r2, r3
from .operator import (
    BasisFunction,
    CollocationGrid,
    GramMatrix,
    Problem,
    assemble_gram,
    build_basis,
    psi_eval,
)
from .orthonormalize import GramAsymmetryError, NotPositiveDefiniteError, OrthonormalBasis, compute_beta
from .problems import (
    SeparableSolution,
    build_example51,
    build_example52,
    build_problem,
    verify_forcing,
)
from .solver import (
    ApproximateSolution,
    ErrorReport,
    convergence_study,
    error_report,
    evaluate,
    norm_recursion_defect,
    residual,
    solve,
)

__all__ = [
    "__version__",
    "DEFAULT_QUADRATURE_NODES",
    "caputo_power",
    "gamma",
    "jacobi_rule",
    "weighted_moment",
    "r2",
    "r3",
    "BasisFunction",
    "CollocationGrid",
    "GramMatrix",
    "Problem",
    "assemble_gram",
    "build_basis",
    "psi_eval",
    "NotPositiveDefiniteError",
    "GramAsymmetryError",
    "OrthonormalBasis",
    "compute_beta",
    "SeparableSolution",
    "build_example51",
    "build_example52",
    "build_problem",
    "verify_forcing",
    "ApproximateSolution",
    "ErrorReport",
    "convergence_study",
    "error_report",
    "evaluate",
    "norm_recursion_defect",
    "residual",
    "solve",
]
