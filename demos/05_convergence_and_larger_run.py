"""
Grid refinement and a hundred-point run
=======================================

Two closing experiments: the error on a fixed evaluation mesh drops
monotonically as the collocation grid is refined, and the second
benchmark (constant coefficients, exact solution sin(pi xi) eta**(2 alpha))
runs at one hundred points in well under a second.
"""

import time

from rkburgers import (
    CollocationGrid,
    build_example51,
    build_example52,
    convergence_study,
    error_report,
    norm_recursion_defect,
    solve,
)

mesh = [(0.1 * i, 0.1 * j) for i in range(1, 7) for j in range(1, 7)]

print("grid refinement, first benchmark, alpha = 0.9:")
rows = convergence_study(build_example51(0.9), [(3, 3), (5, 5), (7, 7)], mesh)
print(f"{'n':>5} {'max abs error':>15} {'seconds':>9}")
for row in rows:
    print(f"{row.n:>5} {row.max_abs_error:>15.3e} {row.wall_seconds:>9.2f}")

print("\nsecond benchmark, alpha = 0.8, n = 100:")
problem = build_example52(0.8)
t0 = time.perf_counter()
sol = solve(problem, CollocationGrid.uniform(10, 10))
report = error_report(sol, mesh)
print(f"  solved in {time.perf_counter() - t0:.2f} s")
print(f"  max abs error  {report.max_abs_error:.3e}")
print(f"  mean abs error {report.mean_abs_error:.3e}")

# The squared norm of every partial sum matches the running sum of
# squared coefficients; the defect below is scaled by that sum.
print(f"  norm recursion defect {norm_recursion_defect(sol):.3e}")
