import functools
import tracemalloc

import numpy as np
import pytest

from rkburgers import CollocationGrid, build_problem, solve
from rkburgers.operator import Problem
from rkburgers.problems import build_example51

TABLE_MESH = [round(0.1 * i, 12) for i in range(1, 7)]
TABLE_POINTS = [(x, e) for x in TABLE_MESH for e in TABLE_MESH]


@functools.lru_cache(maxsize=None)
def _cached_solve(example: str, alpha: float, p: int, q: int, picard: int = 0):
    problem = build_problem(example, alpha)
    return solve(problem, CollocationGrid.uniform(p, q), picard_iters=picard)


def peak_bytes(fn, *args):
    """Peak memory traced while fn(*args) runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def solution_factory():
    """Session-wide memo of solver runs; solutions are immutable so sharing is safe."""
    return _cached_solve


def overflowing_example51():
    """Example 5.1's k1-k3 with f = 1e150 and k4 = 1e300 at (0.5, 0.5), else 0.

    The sweep's F stays 1e150 on a 2 x 2 grid, where (0.5, 0.5) is point
    0; a Picard pass then takes F_0 past the float range.
    """
    base = build_example51(0.9)
    return Problem(
        alpha=base.alpha,
        k1=base.k1,
        k2=base.k2,
        k3=base.k3,
        k4=lambda xi, eta: 1e300 if (xi, eta) == (0.5, 0.5) else 0.0,
        f=lambda xi, eta: 1e150,
        name="example51-overflowing",
    )


def defect_rounding_bound(s):
    """How far a float64 ``norm_recursion_defect`` of s may sit from its exact value.

    Each u_m' G u_m is a product U G and a dot product of at most n terms
    each, so it rounds by at most gamma_2n |u_m|' |G| |u_m|; the running
    sum of B_i^2 rounds by at most gamma_n of itself, which the same form
    bounds, as ||y_m||^2 <= |u_m|' |G| |u_m|.  gamma_k = k u / (1 - k u)
    for u = 2**-53 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).  The defect and its references all build the
    prefixes u_m in the sweep's order, so they share them bit for bit.
    """
    u = np.cumsum(s.B[:, None] * s.basis.beta, axis=0)
    form = np.einsum("ij,ij->i", np.abs(u) @ np.abs(s.basis.source.entries), np.abs(u))
    k = 3 * s.n * 2.0**-53
    return k / (1.0 - k) * float(np.max(form / (1.0 + np.cumsum(s.B * s.B))))
