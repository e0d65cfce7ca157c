"""Sequential iterative solver and evaluation of the approximate solution.

The n-term approximation is y_n = sum_i B_i psibar_i over the orthonormal
basis.  The coefficients are produced by one sequential sweep over the
collocation points: step k evaluates the previous partial sum y_{k-1} and
its xi-derivative at point k, forms the lagged right-hand side

    F_k = f(xi_k, eta_k) - k4(xi_k, eta_k) * y_{k-1} * d_xi y_{k-1},

and sets B_i = sum_{k<=i} beta_ik F_k.  The sweep starts from y_0 = 0,
consistent with the homogeneous initial and boundary data.  An optional
fixed-point polish, ``picard_iters`` passes, re-evaluates every F_k at
the full previous solution; it is off by default.  A solve takes a
problem, a grid and that pass count, nothing else.

Step k needs psi_l(x_k) and d_xi psi_l(x_k) for l < k: row k of the
matrices Psi0 and Psi1, so y_{k-1}(x_k) is the dot product of the
raw-coefficient prefix with that row.  The Gram assembly forms these
values when it applies L to psi_l at the collocation points and keeps
them below each block's last row (``GramMatrix.sweep_rows``); the sweep
reads them there and drops them, so they are gathered once per solve.
Evaluation anywhere else builds tables at its own points, with
``evaluate`` taking whole arrays of points and gathering one block of
points by one block of basis functions at a time, so its memory does not
grow with points x functions.  Each gather forms a factor once per
distinct xi or eta value among its points (on a 51 x 51 surface, a block
of 256 points holds about 6 distinct xi and 51 distinct eta values) and
scales and sums the block's terms in place.  A Picard pass needs y and
d_xi y of the previous iterate at every collocation point, which is what
``evaluate`` computes, so a solve with Picard passes builds one set of
psi tables at the collocation points and each pass reads each order
from ``evaluate``'s loop (``_values``): each F_k is f - k4 * y * d_xi y
with y and d_xi y bit-identical to ``evaluate``'s.

Where L is applied, in the Gram assembly and in ``residual`` (both
through ``BasisTables`` with ``with_operator``), the double Caputo
transform takes one rule: Gauss-Jacobi with ``DEFAULT_QUADRATURE_NODES``
(64) nodes.  A solve has no node setting.
"""

import math
import time
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .fracmath import _check_count, _worst
from .operator import (
    BasisTables,
    CollocationGrid,
    Problem,
    assemble_gram,
    build_basis,
)

# Not called here.  bench/tracer.py wraps rkburgers.solver.psi_eval to count
# scalar basis evaluations during a solve; keeping the name makes that count
# read 0 instead of missing.
from .operator import psi_eval  # noqa: F401
from .orthonormalize import OrthonormalBasis, compute_beta, norm_recursion_defect

__all__ = [
    "ApproximateSolution",
    "ErrorReport",
    "ConvergenceRow",
    "solve",
    "evaluate",
    "residual",
    "error_report",
    "convergence_study",
    "norm_recursion_defect",
]

_BLOCK = 64  # basis functions per gathered block
_POINT_BLOCK = 256  # evaluation points per gathered block


class ApproximateSolution(NamedTuple):
    """Result of a solve: coefficients B over the orthonormal basis.

    ``raw_coeffs`` caches beta' B, the expansion over the unorthonormalized
    basis functions, so evaluation sums raw_coeffs[l] psi_l over the
    nonzero coefficients and never touches beta.  ``picard_iters`` is the
    number of fixed-point passes the solve ran after its sweep.
    """

    B: np.ndarray
    basis: OrthonormalBasis
    basis_functions: list
    problem: Problem
    grid: CollocationGrid
    F_values: np.ndarray
    raw_coeffs: np.ndarray
    picard_iters: int = 0

    @property
    def n(self) -> int:
        return len(self.B)


def solve(problem: Problem, grid: CollocationGrid, picard_iters: int = 0) -> ApproximateSolution:
    """Run the sequential collocation sweep on the given grid, then ``picard_iters`` fixed-point passes.

    Samples each problem callable once per point: k1, k2, k3 in
    ``build_basis``, f and k4 for the sweep and every Picard pass.  A pass
    count that is not an integer >= 0 (a bool, a float, a negative) raises
    ValueError before any work; numpy integers pass.
    """
    _check_count("picard_iters", picard_iters, 0)
    basis = build_basis(grid, problem)
    gram = assemble_gram(basis)
    onb = compute_beta(gram)
    beta = onb.beta
    n = grid.n
    # Python floats: an overflow gives inf, which the checks below name, rather than a numpy warning.
    f, k4 = np.array([(problem.f(xi, eta), problem.k4(xi, eta)) for xi, eta in grid.points], dtype=float).T.tolist()

    F = np.zeros(n)
    B = np.zeros(n)
    cum = np.zeros(n)  # prefix of beta' B, coefficients over the raw basis
    rows = (pair for block in gram.sweep_rows for pair in zip(*block))
    for k, (row0, row1) in enumerate(rows):
        yv = float(np.dot(cum[:k], row0[:k]))  # +0.0 at k = 0, an empty sum
        dyv = float(np.dot(cum[:k], row1[:k]))
        F[k] = _finite(f[k] - k4[k] * yv * dyv, k)
        b = beta[k, : k + 1]
        B[k] = float(np.dot(b, F[: k + 1]))
        cum[: k + 1] += B[k] * b
    del gram, rows  # the sweep rows, about one n x n array; the solution keeps G through onb

    if picard_iters:
        tables = BasisTables(basis, [x for x, _ in grid.points], [e for _, e in grid.points])
        for _ in range(picard_iters):
            y, dy = (_values(cum, tables, order).tolist() for order in (0, 1))
            for k in range(n):
                F[k] = _finite(f[k] - k4[k] * y[k] * dy[k], k)
            B = beta @ F
            cum = beta.T @ B

    return ApproximateSolution(
        B=B,
        basis=onb,
        basis_functions=basis,
        problem=problem,
        grid=grid,
        F_values=F,
        raw_coeffs=cum,
        picard_iters=picard_iters,
    )


def _finite(value: float, k: int) -> float:
    """The right-hand side F_k, a Python float, or ArithmeticError naming collocation index k if it is not finite."""
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite right-hand side at collocation index {k}")
    return value


def evaluate(s: ApproximateSolution, xi, eta, dxi_order: int = 0):
    """y_n (or its first xi-derivative) anywhere on [0, 1]^2.

    ``xi`` and ``eta`` may be arrays, broadcast together; the result is
    then an array of their shape, each element bit-identical to the scalar
    call at that point.  The first point outside the square raises
    ValueError naming it.
    """
    xs, es = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))
    outside = ~((0.0 <= xs) & (xs <= 1.0) & (0.0 <= es) & (es <= 1.0))
    if outside.any():
        k = int(np.flatnonzero(outside)[0])
        raise ValueError(f"evaluation point ({xs.flat[k]}, {es.flat[k]}) outside [0, 1]^2")
    values = _values(s.raw_coeffs, BasisTables(s.basis_functions, xs.ravel(), es.ravel()), dxi_order)
    if xs.ndim == 0:
        return float(values[0])
    return values.reshape(xs.shape)


def _values(coeffs: np.ndarray, tables: BasisTables, dxi_order: int) -> np.ndarray:
    """sum_l coeffs[l] psi_l (or its xi-derivative) at every point of ``tables``, in their order.

    The sum runs over the nonzero coefficients, added in index order.  It
    is gathered a block of points by a block of basis functions at a
    time, which keeps the temporaries small, in ``assemble_gram``'s
    layout: points down a column, functions across.  Each block of points
    takes one ``at`` for all its blocks of functions, and each gathered
    block is scaled by its coefficients in place and summed over its last
    axis.
    """
    _check_count("dxi_order", dxi_order, 0, 1)  # psi checks it too, but is not called when every coefficient is zero
    fns = np.flatnonzero(coeffs != 0.0)
    scale = coeffs[fns]
    size = tables._point_x.size
    values = np.zeros(size)
    for start in range(0, size, _POINT_BLOCK):
        at = tables.at(np.arange(start, min(start + _POINT_BLOCK, size))[:, None])
        total = values[start : start + _POINT_BLOCK]
        for block in range(0, fns.size, _BLOCK):
            fn = slice(block, block + _BLOCK)
            terms = tables.psi(at, fns[fn], dxi_order)
            terms *= scale[fn]
            for term in terms.T:
                total += term
    return values


def residual(s: ApproximateSolution, xi: float, eta: float) -> float:
    """(L y_n)(xi, eta) minus the right-hand side evaluated with y_n itself.

    At collocation point k this reduces to the lag defect
    k4 * (y_n d_xi y_n - y_{k-1} d_xi y_{k-1}).  L y_n, y_n and d_xi y_n
    come from one ``operator`` gather at the point, each summed over the
    nonzero coefficients in index order, as ``_values`` sums.
    """
    p = s.problem
    tables = BasisTables(s.basis_functions, [xi], [eta], with_operator=True)
    rows = np.concatenate(tables.operator(tables.at([0]), slice(None), p.k1(xi, eta), p.k2(xi, eta), p.k3(xi, eta)))
    fns = np.flatnonzero(s.raw_coeffs != 0.0)
    sums = np.zeros(3)
    for terms in (rows[:, fns] * s.raw_coeffs[fns]).T:
        sums += terms
    ly, yv, dyv = sums.tolist()
    return ly - (p.f(xi, eta) - p.k4(xi, eta) * yv * dyv)


class ErrorReport(NamedTuple):
    errors: List[float]
    max_abs_error: float
    mean_abs_error: float


def error_report(s: ApproximateSolution, eval_points: Sequence[Tuple[float, float]]) -> ErrorReport:
    """Absolute errors |y_n - y|, ``errors[k]`` at ``eval_points[k]``; requires problem.exact."""
    if s.problem.exact is None:
        raise ValueError("error report requires a problem with an exact solution")
    eval_points = list(eval_points)
    approx = evaluate(s, [x for x, _ in eval_points], [e for _, e in eval_points]).tolist()
    errs = [abs(value - s.problem.exact(xi, eta)) for (xi, eta), value in zip(eval_points, approx)]
    return ErrorReport(
        errors=errs,
        max_abs_error=_worst(errs),
        mean_abs_error=sum(errs) / len(errs) if errs else 0.0,
    )


class ConvergenceRow(NamedTuple):
    n: int
    max_abs_error: float
    wall_seconds: float


def convergence_study(
    problem: Problem,
    sizes: Sequence[Tuple[int, int]],
    eval_mesh: Sequence[Tuple[float, float]],
    picard_iters: int = 0,
) -> List[ConvergenceRow]:
    """Solve once per (p, q) size, with ``picard_iters`` passes, and report the max mesh error for each.

    The pass count is checked as ``solve`` checks it, before the first
    size, so a bad count raises ValueError even when ``sizes`` is empty.
    """
    _check_count("picard_iters", picard_iters, 0)
    rows = []
    for p, q in sizes:
        t0 = time.perf_counter()
        sol = solve(problem, CollocationGrid.uniform(p, q), picard_iters)
        report = error_report(sol, eval_mesh)
        rows.append(ConvergenceRow(n=p * q, max_abs_error=report.max_abs_error, wall_seconds=time.perf_counter() - t0))
    return rows
