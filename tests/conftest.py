import functools
import tracemalloc

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
