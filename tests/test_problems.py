import math

import pytest

from rkburgers.fracmath import caputo_power, gamma
from rkburgers.operator import Problem
from rkburgers.problems import (
    SeparableSolution,
    build_example51,
    build_example52,
    build_problem,
    verify_forcing,
)


class TestExample51:
    def test_exact_midpoint_value(self):
        problem = build_example51(0.9)
        assert problem.exact(0.5, 0.5) == pytest.approx(-0.06698584140851832, rel=1e-14)

    def test_exact_initial_condition(self):
        problem = build_example51(0.8)
        for xi in (0.0, 0.3, 0.7, 1.0):
            assert problem.exact(xi, 0.0) == 0.0

    def test_forcing_at_left_boundary(self):
        # at xi = 0 only the diffusion and convection terms survive and
        # collapse to eta**(1 + alpha)
        problem = build_example51(0.9)
        for eta in (0.1, 0.5, 1.0):
            assert problem.f(0.0, eta) == pytest.approx(eta**1.9, rel=1e-13)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            build_example51(1.2)
        with pytest.raises(ValueError):
            build_example51(0.0)

    def test_classical_order_still_consistent(self):
        report = verify_forcing(build_example51(1.0))
        assert report.max_discrepancy <= 1e-10

    def test_coefficients(self):
        problem = build_example51(0.9)
        assert problem.k1(0.5, 0.4) == pytest.approx(1.2)
        assert problem.k2(0.5, 0.4) == pytest.approx(0.25)
        assert problem.k3(0.5, 0.4) == pytest.approx(1.5)
        assert problem.k4(0.5, 0.4) == pytest.approx(-0.4 * math.sin(0.5))


class TestExample52:
    def test_exact_peak_value(self):
        problem = build_example52(0.9)
        assert problem.exact(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_exact_boundary_conditions(self):
        problem = build_example52(0.8)
        for eta in (0.0, 0.4, 1.0):
            assert abs(problem.exact(0.0, eta)) < 1e-15
            assert abs(problem.exact(1.0, eta)) < 1e-15

    def test_caputo_of_time_factor_and_duplication_formula(self):
        # D^alpha eta**(2 alpha) at alpha = 0.8, eta = 1 is gamma(2.6)/gamma(1.8);
        # the forcing writes the same number as 4**a gamma(a + 1/2) / sqrt(pi)
        value = caputo_power(1.6, 0.8, 1.0)
        assert value == pytest.approx(1.5349468214973123, rel=1e-13)
        duplication = 4.0**0.8 * gamma(1.3) / math.sqrt(math.pi)
        assert value == pytest.approx(duplication, rel=1e-13)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            build_example52(0.5)
        with pytest.raises(ValueError):
            build_example52(0.4)
        build_example52(0.51)  # admissible

    def test_signs_match_operator_convention(self):
        problem = build_example52(0.8)
        assert problem.k1(0.3, 0.3) == -1.0
        assert problem.k2(0.3, 0.3) == 0.0
        assert problem.k3(0.3, 0.3) == 0.0
        assert problem.k4(0.3, 0.3) == -1.0


class TestBuildProblem:
    def test_identifier_lookup(self):
        assert build_problem("1", 0.9).name == "example51"
        assert build_problem("example52", 0.8).name == "example52"

    def test_unknown_identifier(self):
        with pytest.raises(ValueError, match=r"known: 1, 2, example51, example52$"):
            build_problem("3", 0.9)


class TestVerifyForcing:
    @pytest.mark.parametrize("alpha", [0.7, 0.8, 0.9])
    def test_example51_consistent(self, alpha):
        report = verify_forcing(build_example51(alpha))
        assert report.passed
        assert report.max_discrepancy <= 1e-10

    @pytest.mark.parametrize("alpha", [0.7, 0.8, 0.9])
    def test_example52_consistent(self, alpha):
        report = verify_forcing(build_example52(alpha))
        assert report.passed
        assert report.max_discrepancy <= 1e-10

    def test_nan_discrepancy_after_the_first_point_fails(self):
        base = build_example51(0.9)
        nan_at_midpoint = Problem(
            alpha=base.alpha, k1=base.k1, k2=base.k2, k3=base.k3, k4=base.k4,
            f=lambda xi, eta: math.nan if (xi, eta) == (0.5, 0.5) else base.f(xi, eta), exact=base.exact,
        )
        report = verify_forcing(nan_at_midpoint)  # (0.5, 0.5) is on the mesh, not its first point
        assert not report.passed
        assert math.isnan(report.max_discrepancy)

    def test_detects_injected_perturbation(self):
        base = build_example51(0.9)
        perturbed = Problem(
            alpha=base.alpha,
            k1=base.k1,
            k2=base.k2,
            k3=base.k3,
            k4=base.k4,
            f=lambda xi, eta: base.f(xi, eta) + 1e-3,
            exact=base.exact,
            name="perturbed",
        )
        report = verify_forcing(perturbed)
        assert not report.passed
        assert report.max_discrepancy == pytest.approx(1e-3, rel=1e-6)

    def test_requires_exact_solution(self):
        zero = lambda xi, eta: 0.0
        plain = Problem(alpha=0.5, k1=zero, k2=zero, k3=zero, k4=zero, f=zero)
        with pytest.raises(ValueError):
            verify_forcing(plain)


class TestProblemValidation:
    def test_exact_must_satisfy_homogeneous_conditions(self):
        zero = lambda xi, eta: 0.0
        with pytest.raises(ValueError):
            Problem(
                alpha=0.5,
                k1=zero,
                k2=zero,
                k3=zero,
                k4=zero,
                f=zero,
                exact=lambda xi, eta: 1.0 + xi,
            )

    def test_nan_on_the_boundary_is_a_violation(self):
        # abs(nan) > tol is False, so the check has to be written to fail on NaN
        zero = lambda xi, eta: 0.0
        with pytest.raises(ValueError, match=r"initial/boundary conditions at \(1\.0, 0\.5\)$"):
            Problem(
                alpha=0.5,
                k1=zero,
                k2=zero,
                k3=zero,
                k4=zero,
                f=zero,
                exact=lambda xi, eta: math.nan if (xi, eta) == (1.0, 0.5) else 0.0,
            )


class TestCustomProblems:
    def test_separable_solution_evaluates(self):
        exact = SeparableSolution(
            space=lambda xi: xi * xi - xi, space_d1=lambda xi: 2.0 * xi - 1.0, space_d2=lambda xi: 2.0, time_power=1.9
        )
        assert exact(0.5, 0.5) == pytest.approx(-0.25 * 0.5**1.9, rel=1e-15)
