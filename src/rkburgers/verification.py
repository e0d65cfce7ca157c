"""Self-contained invariant checks, runnable before trusting any solve.

Each check returns a CheckResult with the measured figure of merit, so the
command-line front end can print one pass/fail line per check and tests
can run the same functions against deliberately broken fixtures.  A
measure is the largest of its parts by ``fracmath._worst``, so a NaN part
makes the measure NaN and fails the check.
"""

import math
import random
from typing import List, NamedTuple, Optional

import numpy as np

from . import fracmath, kernels
from .fracmath import DEFAULT_QUADRATURE_NODES, _check_count, _worst, gamma, jacobi_rule, weighted_moment
from .operator import CollocationGrid, Problem, _ctk_table, _dc_table, assemble_gram, build_basis
from .orthonormalize import GramAsymmetryError, NotPositiveDefiniteError, compute_beta
from .problems import build_example51, build_example52, verify_forcing

__all__ = [
    "CheckResult",
    "check_gamma_reflection",
    "check_quadrature_vs_moments",
    "check_caputo_power_identity",
    "check_reproducing_properties",
    "check_time_kernel_oracle",
    "check_double_caputo",
    "check_gram",
    "check_forcing",
    "run_default_checks",
    "time_kernel_oracle",
    "double_caputo_oracle",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measure: float
    tol: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: measure {self.measure:.3e} (tol {self.tol:.0e})"


def check_gamma_reflection(tol: float = 1e-10) -> CheckResult:
    """pi / (sin(pi a) gamma(-1 - a)) must equal gamma(2 + a), relatively."""
    errors = []
    for a in (0.7, 0.8, 0.9):
        target = gamma(2.0 + a)
        lhs = math.pi / (math.sin(math.pi * a) * gamma(-1.0 - a))
        errors.append(abs(lhs - target) / target)
    worst = _worst(errors)
    return CheckResult("gamma reflection identity", worst <= tol, worst, tol)


def check_quadrature_vs_moments(tol: float = 1e-12) -> CheckResult:
    """16-node rules must reproduce the closed-form weighted moments, m <= 6."""
    errors = []
    for a in (0.3, 0.5, 0.7, 0.9):
        u, w = jacobi_rule(-a, 16)
        for m in range(7):
            q = float(w @ u**m)
            errors.append(abs(q - weighted_moment(m, a, 0.0, 1.0, 1.0)))
    worst = _worst(errors)
    return CheckResult("gauss-jacobi vs weighted moments", worst <= tol, worst, tol)


def check_caputo_power_identity(tol: float = 1e-11) -> CheckResult:
    """caputo_power must match its weighted-moment expansion for k in 1..3."""
    errors = []
    for k in (1, 2, 3):
        for a in (0.3, 0.5, 0.9):
            for t in (0.25, 0.5, 1.0):
                via_moment = k * weighted_moment(k - 1, a, 0.0, t, t) / gamma(1.0 - a)
                errors.append(abs(fracmath.caputo_power(k, a, t) - via_moment))
    worst = _worst(errors)
    return CheckResult("caputo power vs moment expansion", worst <= tol, worst, tol)


def _gauss_legendre_piece(f, lo, hi, rule):
    """The Gauss-Legendre ``rule`` for f on [lo, hi]; f is called once, on the array of nodes."""
    x, w = rule
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * float(w @ f(mid + half * x))


def check_reproducing_properties(tol: float = 1e-10) -> CheckResult:
    """Inner products with kernel sections must reproduce point values."""
    errors = []
    rule = np.polynomial.legendre.leggauss(32)
    # second-order kernel: <g, f> = g(0) f(0) + g'(0) f'(0) + int g'' f''
    time_tests = [
        (lambda e: e, lambda e: 1.0, lambda e: 0.0),
        (lambda e: e**3, lambda e: 3 * e * e, lambda e: 6 * e),
    ]
    for t in (0.2, 0.5, 0.8):
        for g, g1, g2 in time_tests:
            fpp = lambda e: kernels.r2(t, e, 0, 2)
            ip = (
                g(0.0) * kernels.r2(t, 0.0)
                + g1(0.0) * kernels.r2(t, 0.0, 0, 1)
                + _gauss_legendre_piece(lambda e: g2(e) * fpp(e), 0.0, t, rule)
                + _gauss_legendre_piece(lambda e: g2(e) * fpp(e), t, 1.0, rule)
            )
            errors.append(abs(ip - g(t)))
    # third-order kernel: <g, f> = g(0) f(0) + g'(0) f'(0) + g(1) f(1) + int g''' f'''
    space_tests = [
        (lambda s: s * (1 - s), lambda s: 1.0 - 2 * s, lambda s: 0.0),
        (lambda s: s * s * (1 - s), lambda s: 2 * s - 3 * s * s, lambda s: -6.0),
    ]
    for x in (0.2, 0.5, 0.8):
        for g, g1, g3 in space_tests:
            fppp = lambda s: kernels.r3(x, s, 0, 3)
            ip = (
                g(0.0) * kernels.r3(x, 0.0)
                + g1(0.0) * kernels.r3(x, 0.0, 0, 1)
                + g(1.0) * kernels.r3(x, 1.0)
                + _gauss_legendre_piece(lambda s: g3(s) * fppp(s), 0.0, x, rule)
                + _gauss_legendre_piece(lambda s: g3(s) * fppp(s), x, 1.0, rule)
            )
            errors.append(abs(ip - g(x)))
    worst = _worst(errors)
    return CheckResult("kernel reproducing properties", worst <= tol, worst, tol)


def time_kernel_oracle(eta: float, t: float, alpha: float, cells: int = 100_000) -> float:
    """Product-integration oracle for the single Caputo transform.

    Piecewise-linear interpolation of the smooth factor on a fine mesh split
    at r = eta, against exact moments of the singular weight on every cell.
    """
    _check_count("cells", cells)
    if t <= 0.0:
        return 0.0
    pts = np.linspace(0.0, t, cells + 1)
    at = np.searchsorted(pts, eta)
    if 0.0 < eta < t and pts[at] != eta:
        pts = np.insert(pts, at, eta)
    lo, hi = pts[:-1], pts[1:]
    phi = lambda r: np.where(r < eta, -0.5 * r * r + eta * r + eta, eta + 0.5 * eta * eta)
    # each power of t - r at every mesh point once; a cell's is its two ends' difference
    w1, w2 = (t - pts) ** (1 - alpha), (t - pts) ** (2 - alpha)
    p0 = (w1[:-1] - w1[1:]) / (1 - alpha)
    p1 = t * p0 - (w2[:-1] - w2[1:]) / (2 - alpha)
    f_lo, f_hi = phi(lo), phi(hi)
    slope = (f_hi - f_lo) / (hi - lo)
    return float(np.sum(f_lo * p0 + slope * (p1 - lo * p0)) / gamma(1.0 - alpha))


def double_caputo_oracle(t_i: float, t_j: float, alpha: float, cells: int = 4000) -> float:
    """Independent route to the double transform through its symmetric 2-D form.

    The mixed derivative of the time kernel is 1 + min(r, s), so the 2-D
    weakly singular integral reduces exactly, via min(r, s) as an integral
    of indicators, to

        [ t_i^(1-a) t_j^(1-a) + int_0^min (t_i-u)^(1-a) (t_j-u)^(1-a) du ]
            / ((1-a)^2 gamma(1-a)^2),

    and the remaining one-dimensional integral is done by composite
    Gauss-Legendre on a mesh graded toward u = min(t_i, t_j).
    """
    _check_count("cells", cells)
    if t_i <= 0.0 or t_j <= 0.0:
        return 0.0
    a = alpha
    m = min(t_i, t_j)
    grading = np.geomspace(1e-14, 1.0, cells)
    pts = np.sort(np.concatenate([[0.0], m - m * grading[::-1], [m]]))
    pts = pts[np.append(True, pts[1:] != pts[:-1])]  # np.unique's values, without its import of numpy.ma
    xg, wg = np.polynomial.legendre.leggauss(12)
    lo, hi = pts[:-1], pts[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = mid[:, None] + half[:, None] * xg[None, :]
    vals = (t_i - u) ** (1 - a) * (t_j - u) ** (1 - a)
    integral = float(np.sum((vals @ wg) * half))
    g1 = gamma(1.0 - a)
    return (t_i ** (1 - a) * t_j ** (1 - a) + integral) / ((1 - a) ** 2 * g1 * g1)


def check_time_kernel_oracle(tol: float = 1e-8) -> CheckResult:
    """The solver's single-transform table, one 0-d call per random (eta, t, alpha), 12 of them, against the oracle."""
    rng = random.Random(7)  # not numpy.random, which verify would import for 36 numbers
    errors = []
    for _ in range(12):
        eta = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.05, 1.0)
        a = rng.uniform(0.15, 0.95)
        errors.append(abs(float(_ctk_table(eta, t, a)) - time_kernel_oracle(eta, t, a)))
    worst = _worst(errors)
    return CheckResult("single caputo transform vs oracle", worst <= tol, worst, tol)


def check_double_caputo(tol_oracle: float = 1e-8, tol_nodes: float = 1e-10) -> CheckResult:
    """The solver's double-transform table against the oracle at ``DEFAULT_QUADRATURE_NODES`` nodes
    and against itself at twice that many.

    The measure is the larger of the two halves', against ``tol_oracle``,
    unless only the node half fails: then it is that half's, against
    ``tol_nodes``.
    """
    pairs = ((0.2, 0.2), (0.2, 0.4), (0.4, 0.2), (0.9, 1.0), (1.0, 0.3))
    t_i, t_j = np.array(pairs).T
    oracle, nodes = [], []
    for a in (0.7, 0.8, 0.9):
        values = _dc_table(t_i, t_j, a, DEFAULT_QUADRATURE_NODES)
        nodes.extend(np.abs(values - _dc_table(t_i, t_j, a, 2 * DEFAULT_QUADRATURE_NODES)).tolist())
        oracle.extend(abs(v - double_caputo_oracle(*pair, a)) for v, pair in zip(values.tolist(), pairs))
    worst_oracle, worst_nodes = _worst(oracle), _worst(nodes)
    name = "double caputo transform vs oracle"
    if worst_oracle <= tol_oracle and worst_nodes > tol_nodes:
        return CheckResult(name, False, worst_nodes, tol_nodes)
    passed = worst_oracle <= tol_oracle and worst_nodes <= tol_nodes
    return CheckResult(name, passed, _worst((worst_oracle, worst_nodes)), tol_oracle)


def check_gram(problem: Problem, grid: CollocationGrid, tol: float = 1e-8) -> CheckResult:
    """Symmetry, positive definiteness, and orthonormalization residual in one pass.

    The measure is ``compute_beta``'s asymmetry if it rejects G, else the residual.
    """
    g = assemble_gram(build_basis(grid, problem))[0]  # the sweep rows, about one n x n, go at once
    try:
        beta = compute_beta(g)
    except GramAsymmetryError as exc:
        return CheckResult("gram symmetry / orthonormality", False, exc.asymmetry, tol)
    except NotPositiveDefiniteError:
        return CheckResult("gram symmetry / positive definiteness", False, math.inf, tol)
    resid = float(np.max(np.abs(beta @ g @ beta.T - np.eye(grid.n))))
    return CheckResult("gram symmetry / orthonormality", resid <= tol, resid, tol)


def check_forcing(problems: Optional[list] = None, tol: float = 1e-10) -> CheckResult:
    if problems is None:
        problems = [build_example51(a) for a in (0.7, 0.8, 0.9)]
        problems += [build_example52(a) for a in (0.7, 0.8, 0.9)]
    worst = _worst(verify_forcing(pr, tol=tol).max_discrepancy for pr in problems)
    return CheckResult("forcing consistency", worst <= tol, worst, tol)


def run_default_checks() -> List[CheckResult]:
    """The standard verification battery; the Gram check takes example 5.1 at alpha = 0.9 on a 4 x 4 grid."""
    return [
        check_gamma_reflection(),
        check_quadrature_vs_moments(),
        check_caputo_power_identity(),
        check_reproducing_properties(),
        check_time_kernel_oracle(),
        check_double_caputo(),
        check_gram(build_example51(0.9), CollocationGrid.uniform(4, 4)),
        check_forcing(),
    ]
