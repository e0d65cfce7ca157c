import math

import numpy as np
import pytest

from rkburgers.operator import CollocationGrid, Problem
from rkburgers.problems import build_example51, build_example52
from rkburgers.solver import (
    convergence_study,
    error_report,
    evaluate,
    norm_recursion_defect,
    residual,
    solve,
)
from tests.conftest import TABLE_POINTS, overflowing_example51, peak_bytes


def _zero_data_problem():
    zero = lambda xi, eta: 0.0
    return Problem(
        alpha=0.9,
        k1=lambda xi, eta: 1.0 + xi * eta,
        k2=lambda xi, eta: xi * xi,
        k3=lambda xi, eta: xi + 1.0,
        k4=zero,
        f=zero,
        exact=zero,
    )


def _linear_example51(alpha=0.9):
    base = build_example51(alpha)
    return Problem(
        alpha=base.alpha,
        k1=base.k1,
        k2=base.k2,
        k3=base.k3,
        k4=lambda xi, eta: 0.0,
        f=base.f,
        name="example51-linearized",
    )


def _example51_forced(f, k4):
    """Example 5.1's k1-k3 at alpha = 0.9 with the given f and k4."""
    base = build_example51(0.9)
    return Problem(alpha=base.alpha, k1=base.k1, k2=base.k2, k3=base.k3, k4=k4, f=f)


_POINT_3 = CollocationGrid.uniform(3, 3).points[3]


def _raising_at_point_3(xi, eta):
    if (xi, eta) == _POINT_3:
        raise ValueError("boom")
    return 0.0


def _complex_at_point_3(xi, eta):
    return 1j if (xi, eta) == _POINT_3 else 0.0


class TestSolveBasics:
    def test_zero_data_gives_zero_solution(self):
        sol = solve(_zero_data_problem(), CollocationGrid.uniform(3, 3))
        assert np.all(sol.B == 0.0)
        assert np.all(sol.F_values == 0.0)
        for pt in ((0.3, 0.3), (0.7, 0.9)):
            assert evaluate(sol, *pt) == 0.0

    def test_deterministic_bit_identical(self):
        problem = build_example51(0.9)
        grid = CollocationGrid.uniform(4, 4)
        first = solve(problem, grid)
        second = solve(build_example51(0.9), CollocationGrid.uniform(4, 4))
        assert np.array_equal(first.B, second.B)

    def test_peak_memory_holds_the_sweep_rows_once(self):
        # G, the rows the Gram assembly keeps for the sweep (about one n x n
        # array, live through compute_beta), and compute_beta's own peak:
        # 6.40 n x n here.  Gathering the rows again after compute_beta
        # traced 5.25; keeping whole rows would pass 7.
        n = 400
        assert peak_bytes(solve, build_example52(0.8), CollocationGrid.uniform(20, 20)) < 6.75 * 8 * n**2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CollocationGrid.uniform(0, 0)

    def test_nonfinite_forcing_reported_with_index(self):
        zero = lambda xi, eta: 0.0
        problem = Problem(
            alpha=0.9, k1=zero, k2=zero, k3=zero, k4=zero,
            f=lambda xi, eta: float("nan") if (xi, eta) == (0.5, 1.0) else 0.0,
        )
        grid = CollocationGrid.from_points([(0.25, 0.5), (0.25, 1.0), (0.5, 0.5), (0.5, 1.0)])
        with pytest.raises(ArithmeticError, match="index 3"):
            solve(problem, grid)

    def test_nonfinite_picard_pass_reported_with_index(self):
        grid = CollocationGrid.uniform(2, 2)
        assert np.all(np.isfinite(solve(overflowing_example51(), grid).raw_coeffs))
        with pytest.raises(ArithmeticError, match="index 0"):
            solve(overflowing_example51(), grid, picard_iters=1)

    @pytest.mark.parametrize(
        "name, fn, cause", [("f", _raising_at_point_3, ValueError), ("k4", _complex_at_point_3, TypeError)]
    )
    def test_failing_f_or_k4_names_itself_and_its_index(self, name, fn, cause):
        zero = lambda xi, eta: 0.0
        problem = _example51_forced(**{"f": zero, "k4": zero, name: fn})
        with pytest.raises(ArithmeticError, match=f"^{name} failed at collocation index 3: ") as err:
            solve(problem, CollocationGrid.uniform(3, 3))
        assert type(err.value.__cause__) is cause

    def test_each_problem_callable_sampled_once_per_point(self):
        base = build_example51(0.9)
        calls = {name: 0 for name in ("k1", "k2", "k3", "k4", "f")}

        def counted(name):
            def fn(xi, eta):
                calls[name] += 1
                return getattr(base, name)(xi, eta)

            return fn

        problem = Problem(alpha=base.alpha, **{name: counted(name) for name in calls})
        solve(problem, CollocationGrid.uniform(3, 3), picard_iters=2)
        assert calls == {name: 9 for name in calls}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCoefficientOverflow:
    """A coefficient past the float range raises ArithmeticError naming its index, and no warning.

    The checks read values, not the floating-point flags, which a threaded
    BLAS sets in its own threads; so these tests also run on one BLAS thread.
    """

    @pytest.mark.parametrize(
        "points, index", [([(0.5, 0.5), (0.25, 0.5)], 1), ([(0.25, 0.5), (0.5, 0.5)], 0)], ids=["B_1", "B_0"]
    )
    def test_sweep_names_the_step_that_overflows(self, points, index):
        # every F_k is 1e308, finite; beta_00 = 1.45 at (0.25, 0.5) takes B_0
        # past the float range, and after (0.5, 0.5) B_1 goes there
        problem = _example51_forced(f=lambda xi, eta: 1e308, k4=lambda xi, eta: 0.0)
        with pytest.raises(ArithmeticError, match=f"coefficient at collocation index {index}$"):
            solve(problem, CollocationGrid.from_points(points))

    def test_picard_pass_names_the_first_non_finite_coefficient(self):
        # the sweep and the pass's B are finite; its raw coefficients beta' B are not
        problem = _example51_forced(f=lambda xi, eta: 1e300, k4=lambda xi, eta: -1e-295)
        grid = CollocationGrid.from_points([(0.25, 0.5), (0.5, 0.5)])
        assert np.all(np.isfinite(solve(problem, grid).raw_coeffs))
        with pytest.raises(ArithmeticError, match="coefficient at collocation index 0 after a Picard pass"):
            solve(problem, grid, picard_iters=1)


class TestCollocationExactness:
    def test_linear_problem_residual_at_collocation_points(self):
        problem = _linear_example51(0.9)
        grid = CollocationGrid.uniform(4, 4)
        sol = solve(problem, grid)
        f_scale = 1.0 + max(abs(problem.f(x, e)) for x, e in grid.points)
        for pt in grid.points:
            assert abs(residual(sol, *pt)) <= 1e-7 * f_scale

    def test_lag_defect_identity_nonlinear(self, solution_factory):
        # at collocation point k the residual equals
        # k4 * (y_n dxi y_n - y_{k-1} dxi y_{k-1})
        sol = solution_factory("1", 0.9, 4, 4)
        problem = sol.problem
        beta = sol.basis.beta
        for k in (3, 9, 14):
            xi, eta = sol.grid.points[k]
            prefix = beta[:k, :].T @ sol.B[:k]
            yk = sum(c * _psi(sol, l, xi, eta, 0) for l, c in enumerate(prefix) if c != 0.0)
            dyk = sum(c * _psi(sol, l, xi, eta, 1) for l, c in enumerate(prefix) if c != 0.0)
            lag = problem.k4(xi, eta) * (
                evaluate(sol, xi, eta) * evaluate(sol, xi, eta, 1) - yk * dyk
            )
            assert residual(sol, xi, eta) == pytest.approx(lag, abs=1e-7)


def _psi(sol, index, xi, eta, order):
    from rkburgers.operator import psi_eval

    return psi_eval(sol.basis_functions[index], xi, eta, order)


class TestEvaluate:
    def test_boundary_values_exactly_zero(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        assert evaluate(sol, 0.0, 0.7) == 0.0
        assert evaluate(sol, 1.0, 0.3) == 0.0
        assert evaluate(sol, 0.5, 0.0) == 0.0

    def test_outside_domain_rejected(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        with pytest.raises(ValueError):
            evaluate(sol, 1.5, 0.5)

    def test_second_benchmark_peak(self, solution_factory):
        sol = solution_factory("2", 0.9, 10, 10)
        assert abs(evaluate(sol, 0.5, 1.0) - 1.0) <= 7.67e-2

    def test_surface_memory_stays_blocked(self, solution_factory):
        # a 51 x 51 surface of 400 basis functions: one points x functions
        # gather would take 8.3 MB per temporary
        sol = solution_factory("2", 0.8, 20, 20)
        pts = np.linspace(0.0, 1.0, 51)
        assert peak_bytes(evaluate, sol, pts[:, None], pts[None, :]) < 2e6


class TestResidual:
    def test_zero_solution_zero_residual(self):
        sol = solve(_zero_data_problem(), CollocationGrid.uniform(2, 2))
        assert residual(sol, 0.4, 0.6) == pytest.approx(0.0, abs=1e-14)


class TestNormRecursion:
    def test_prefix_identity_small_grid(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        assert norm_recursion_defect(sol) <= 1e-8

    def test_memory_stays_below_three_matrices(self, solution_factory):
        # The prefixes U are the one n x n array; G's leading blocks are read
        # in place.
        sol = solution_factory("2", 0.8, 20, 20)
        assert peak_bytes(norm_recursion_defect, sol) < 2.75 * 8 * sol.n**2

    def test_partial_sum_norms_nondecreasing(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        norms = np.sqrt(np.cumsum(sol.B**2))
        assert np.all(np.diff(norms) >= 0.0)


class TestErrorReport:
    def test_requires_exact(self):
        zero = lambda xi, eta: 0.0
        problem = Problem(alpha=0.9, k1=zero, k2=zero, k3=zero, k4=zero, f=zero)
        grid = CollocationGrid.from_points([(0.25, 0.5), (0.5, 1.0)])
        sol = solve(problem, grid)
        with pytest.raises(ValueError):
            error_report(sol, [(0.5, 0.5)])

    def test_errors_are_the_pointwise_absolute_errors(self, solution_factory):
        sol = solution_factory("2", 0.8, 4, 4)
        points = TABLE_POINTS + [(0.0, 0.0), (1.0, 1.0), (0.37, 0.91)]
        report = error_report(sol, points)
        assert len(report.errors) == len(points)
        for (xi, eta), err in zip(points, report.errors):
            assert err == abs(evaluate(sol, xi, eta) - sol.problem.exact(xi, eta))  # bit for bit
        assert report.max_abs_error == max(report.errors)

    def test_zero_data_errors_all_zero(self):
        sol = solve(_zero_data_problem(), CollocationGrid.uniform(2, 2))
        report = error_report(sol, [(0.25, 0.25), (0.5, 0.75)])
        assert report.max_abs_error == 0.0
        assert report.mean_abs_error == 0.0

    def test_nan_error_after_the_first_point_is_the_maximum(self, solution_factory):
        # max(errs) kept the errors before a NaN, unless the NaN came first
        sol = solution_factory("1", 0.9, 3, 3)
        exact = sol.problem.exact
        nan_at_midpoint = Problem(
            alpha=sol.problem.alpha, k1=sol.problem.k1, k2=sol.problem.k2, k3=sol.problem.k3,
            k4=sol.problem.k4, f=sol.problem.f,
            exact=lambda xi, eta: math.nan if (xi, eta) == (0.5, 0.5) else exact(xi, eta),
        )
        report = error_report(sol._replace(problem=nan_at_midpoint), [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75)])
        assert math.isnan(report.errors[1]) and not math.isnan(report.errors[0])
        assert math.isnan(report.max_abs_error)
        assert math.isnan(report.mean_abs_error)

    def test_benchmark_accuracy_table_mesh(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        report = error_report(sol, TABLE_POINTS)
        assert report.max_abs_error <= 6.62e-3
        assert report.errors[0] <= 2.39e-3  # point (0.1, 0.1)


@pytest.mark.parametrize(
    "example, alpha, p, expected",
    [
        ("1", 0.7, 5, 7.527086759178177e-4),
        ("1", 0.8, 5, 6.915808914195985e-4),
        ("1", 0.9, 5, 6.624118543440906e-4),
        ("2", 0.7, 10, 7.355408854548162e-3),
        ("2", 0.8, 10, 7.514814614881515e-3),
        ("2", 0.9, 10, 7.626376516145714e-3),
        ("2", 0.8, 14, 7.365255333860843e-3),
        ("1", 0.9, 7, 2.046631772893992e-4),
    ],
)
def test_table_error_is_pinned(solution_factory, example, alpha, p, expected):
    # the solves behind the acceptance tables and the benchmark workloads, pinned far
    # tighter than the acceptance bounds; one BLAS thread moves them by under 1e-9
    sol = solution_factory(example, alpha, p, p)
    assert error_report(sol, TABLE_POINTS).max_abs_error == pytest.approx(expected, rel=1e-8)


class TestCustomProblemWithoutExact:
    """A problem with no exact solution solves and evaluates; only the error paths need one."""

    @pytest.fixture(scope="class")
    def sol(self):
        zero = lambda xi, eta: 0.0
        problem = Problem(alpha=0.9, k1=lambda xi, eta: 1.0, k2=zero, k3=zero, k4=zero, f=lambda xi, eta: math.sin(math.pi * xi))
        assert problem.exact is None
        return solve(problem, CollocationGrid.uniform(3, 3))

    def test_surface_is_finite(self, sol):
        pts = np.linspace(0.0, 1.0, 51)
        values = evaluate(sol, pts[:, None], pts[None, :])
        assert values.shape == (51, 51) and np.isfinite(values).all()

    def test_error_report_names_the_missing_exact_solution(self, sol):
        with pytest.raises(ValueError, match="requires a problem with an exact solution"):
            error_report(sol, TABLE_POINTS)

    def test_convergence_study_names_the_missing_exact_solution(self, sol):
        with pytest.raises(ValueError, match="requires a problem with an exact solution"):
            convergence_study(sol.problem, [(3, 3)], TABLE_POINTS)


class TestTimeMajorSweep:
    """The paper's tables under the time-major sweep: for each eta, every xi.

    ``CollocationGrid.uniform`` orders its points time-fastest; the same
    points in time-major order, through ``from_points``, reproduce the
    paper's example 5.2 maxima (7.67e-3, 6.29e-3, 4.39e-3) and its
    example 5.1 ones.
    """

    @pytest.mark.parametrize(
        "build, p, alpha, expected",
        [
            (build_example52, 10, 0.9, 7.676e-3),
            (build_example52, 10, 0.8, 6.294e-3),
            (build_example52, 10, 0.7, 4.398e-3),
            (build_example51, 5, 0.9, 6.626e-4),
            (build_example51, 5, 0.8, 6.914e-4),
            (build_example51, 5, 0.7, 7.525e-4),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_table_maxima(self, build, p, alpha, expected):
        grid = CollocationGrid.from_points([(i / p, j / p) for j in range(1, p + 1) for i in range(1, p + 1)])
        report = error_report(solve(build(alpha), grid), TABLE_POINTS)
        assert report.max_abs_error == pytest.approx(expected, rel=1e-2)


class TestConvergenceStudy:
    def test_single_size(self):
        rows = convergence_study(build_example51(0.9), [(3, 3)], TABLE_POINTS)
        assert len(rows) == 1
        assert rows[0].n == 9

    def test_empty_sizes(self):
        assert convergence_study(build_example51(0.9), [], TABLE_POINTS) == []


class TestClassicalOrderLimit:
    def test_solve_at_order_one(self):
        sol = solve(build_example51(1.0), CollocationGrid.uniform(4, 4))
        report = error_report(sol, TABLE_POINTS)
        assert report.max_abs_error < 5e-3


class TestPicardCount:
    @pytest.mark.parametrize("value", [True, -1, 2.5])
    def test_bad_count_rejected(self, value):
        problem, grid = build_example51(0.9), CollocationGrid.uniform(2, 2)
        with pytest.raises(ValueError, match="picard_iters must be an integer >= 0"):
            solve(problem, grid, picard_iters=value)
        # checked before the first size, so an empty study rejects it too
        for sizes in ([(2, 2)], []):
            with pytest.raises(ValueError, match="picard_iters must be an integer >= 0"):
                convergence_study(problem, sizes, TABLE_POINTS, picard_iters=value)

    def test_numpy_integers_accepted_and_recorded(self):
        problem, grid = build_example51(0.9), CollocationGrid.uniform(2, 2)
        assert solve(problem, grid).picard_iters == 0
        sol = solve(problem, grid, picard_iters=np.int32(2))
        assert sol.picard_iters == 2
        assert np.array_equal(sol.B, solve(problem, grid, picard_iters=2).B)
        [row] = convergence_study(problem, [(2, 2)], TABLE_POINTS, picard_iters=np.int32(2))
        assert row.max_abs_error == error_report(sol, TABLE_POINTS).max_abs_error


class TestPicardOption:
    def test_polish_preserves_accuracy(self):
        problem = build_example51(0.9)
        grid = CollocationGrid.uniform(4, 4)
        plain = solve(problem, grid)
        polished = solve(problem, grid, picard_iters=2)
        r_plain = error_report(plain, TABLE_POINTS).max_abs_error
        r_polished = error_report(polished, TABLE_POINTS).max_abs_error
        assert r_polished <= 5.0 * r_plain
        assert np.all(np.isfinite(polished.B))
