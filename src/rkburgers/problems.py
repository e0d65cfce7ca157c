"""Examples 5.1 and 5.2 as ``Problem`` instances, and the forcing consistency oracle.

Both benchmarks have separable exact solutions, a function of xi times a
pure power of eta, which lets ``verify_forcing`` substitute the exact
solution into the equation analytically (Caputo derivative of the power
in closed form, hand derivatives in space) and certify the transcription
of the forcing term before any solver run.
"""

import math
from typing import Callable, NamedTuple

from .fracmath import _worst, caputo_power, gamma, order_value
from .operator import Problem

__all__ = [
    "SeparableSolution",
    "ForcingReport",
    "build_example51",
    "build_example52",
    "build_problem",
    "verify_forcing",
    "PROBLEM_IDS",
]


class SeparableSolution(NamedTuple):
    """Exact solution of the form space(xi) * eta**time_power, with space derivatives."""

    space: Callable[[float], float]
    space_d1: Callable[[float], float]
    space_d2: Callable[[float], float]
    time_power: float

    def __call__(self, xi: float, eta: float) -> float:
        return self.space(xi) * eta**self.time_power


def build_example51(alpha) -> Problem:
    """First benchmark: fully variable coefficients, exact y = (xi^2 - xi) eta^(1+alpha).

    The forcing's fractional term is written with gamma(2 + alpha), which
    equals the reflection form pi / (sin(pi alpha) gamma(-1 - alpha)) and
    avoids evaluating gamma near its negative poles.
    """
    a = order_value(alpha)
    g2a = gamma(2.0 + a)

    def f(xi, eta):
        return (
            (xi * xi - xi) * eta * g2a
            + 2.0 * (eta * xi + 1.0) * eta ** (1.0 + a)
            + (xi**4 - xi**3) * eta ** (1.0 + a)
            + (1.0 + xi) * (2.0 * xi - 1.0) * eta ** (1.0 + a)
            - eta * math.sin(xi) * (xi * xi - xi) * (2.0 * xi - 1.0) * eta ** (2.0 + 2.0 * a)
        )

    return Problem(
        alpha=a,
        k1=lambda xi, eta: 1.0 + xi * eta,
        k2=lambda xi, eta: xi * xi,
        k3=lambda xi, eta: xi + 1.0,
        k4=lambda xi, eta: -eta * math.sin(xi),
        f=f,
        exact=SeparableSolution(
            space=lambda xi: xi * xi - xi,
            space_d1=lambda xi: 2.0 * xi - 1.0,
            space_d2=lambda xi: 2.0,
            time_power=1.0 + a,
        ),
        name="example51",
    )


def build_example52(alpha) -> Problem:
    """Second benchmark: constant coefficients, exact y = sin(pi xi) eta^(2 alpha).

    Requires alpha > 1/2.  The fractional forcing term 4^alpha eta^alpha
    gamma(alpha + 1/2) / sqrt(pi) equals gamma(2 alpha + 1) / gamma(alpha + 1)
    times eta^alpha by the Legendre duplication formula.
    """
    a = order_value(alpha)
    if a <= 0.5:
        raise ValueError(f"this problem requires 1/2 < alpha <= 1, got {a}")
    c0 = 4.0**a * gamma(a + 0.5) / math.sqrt(math.pi)

    def f(xi, eta):
        s = math.sin(math.pi * xi)
        return (
            c0 * eta**a * s
            + s * math.pi**2 * eta ** (2.0 * a)
            - s * math.cos(math.pi * xi) * math.pi * eta ** (4.0 * a)
        )

    return Problem(
        alpha=a,
        k1=lambda xi, eta: -1.0,
        k2=lambda xi, eta: 0.0,
        k3=lambda xi, eta: 0.0,
        k4=lambda xi, eta: -1.0,
        f=f,
        exact=SeparableSolution(
            space=lambda xi: math.sin(math.pi * xi),
            space_d1=lambda xi: math.pi * math.cos(math.pi * xi),
            space_d2=lambda xi: -math.pi * math.pi * math.sin(math.pi * xi),
            time_power=2.0 * a,
        ),
        name="example52",
    )


PROBLEM_IDS = {
    "1": build_example51,
    "2": build_example52,
    "example51": build_example51,
    "example52": build_example52,
}


def build_problem(identifier: str, alpha) -> Problem:
    """Look a benchmark up by identifier ('1', '2', 'example51', 'example52')."""
    key = str(identifier).strip().lower()
    if key not in PROBLEM_IDS:
        raise ValueError(f"unknown problem identifier {identifier!r}; known: {', '.join(PROBLEM_IDS)}")
    return PROBLEM_IDS[key](alpha)


class ForcingReport(NamedTuple):
    max_discrepancy: float
    passed: bool


def verify_forcing(problem: Problem, tol: float = 1e-10) -> ForcingReport:
    """Substitute the exact solution into the equation and report max |LHS - f|
    over the 11 x 11 mesh of spacing 0.1 on [0, 1]^2.

    Report-only: detects transcription errors in the forcing term without
    touching the solver.  Requires a separable exact solution.
    """
    if problem.exact is None:
        raise ValueError("forcing verification requires a problem with an exact solution")
    if not isinstance(problem.exact, SeparableSolution):
        raise ValueError("forcing verification needs a separable exact solution with space derivatives")
    exact = problem.exact
    s = exact.time_power
    pts = [i / 10.0 for i in range(11)]
    discrepancies = []
    for xi, eta in ((x, e) for x in pts for e in pts):
        xv = exact.space(xi)
        x1 = exact.space_d1(xi)
        x2 = exact.space_d2(xi)
        ep = eta**s
        lhs = (
            xv * caputo_power(s, problem.alpha, eta)
            + problem.k1(xi, eta) * x2 * ep
            + problem.k2(xi, eta) * xv * ep
            + problem.k3(xi, eta) * x1 * ep
            + problem.k4(xi, eta) * (xv * ep) * (x1 * ep)
        )
        discrepancies.append(abs(lhs - problem.f(xi, eta)))
    worst = _worst(discrepancies)
    return ForcingReport(max_discrepancy=worst, passed=worst <= tol)
