import numpy as np
import pytest

from rkburgers.kernels import r2, r3
from rkburgers.verification import check_reproducing_properties


class TestR2:
    def test_value_lower_branch(self):
        assert r2(0.5, 0.3) == pytest.approx(0.168, abs=1e-15)

    def test_value_upper_branch_symmetry(self):
        assert r2(0.3, 0.5) == pytest.approx(0.168, abs=1e-15)

    def test_vanishes_at_time_origin(self):
        assert r2(0.7, 0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            r2(0.5, -0.1)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            r2(0.5, 0.5, 3, 0)


class TestR3:
    def test_diagonal_value(self):
        assert r3(0.5, 0.5) == pytest.approx(0.06315104166666667, abs=1e-16)

    def test_boundary_zeros(self):
        assert r3(0.4, 0.0) == 0.0
        assert r3(0.4, 1.0) == 0.0

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            r3(0.5, 0.5, 4, 0)


class TestSymmetry:
    def test_exact_branch_swap_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, xi = rng.uniform(0.0, 1.0, 2)
            assert r3(x, xi) - r3(xi, x) == 0.0
            assert r2(x, xi) - r2(xi, x) == 0.0


class TestReproducingProperties:
    def test_all_three_kernels(self):
        result = check_reproducing_properties(tol=1e-10)
        assert result.passed, result.line()

    def test_point_evaluation_spot_check(self):
        # <g, r2(t, .)> in the second-order inner product must give g(t);
        # for g(eta) = eta the integral term drops and the value is the
        # first eta-derivative of the kernel at eta = 0
        for t in (0.25, 0.75):
            assert r2(t, 0.0, 0, 1) == pytest.approx(t, abs=1e-14)


class TestDerivativesAgainstFiniteDifferences:
    def test_first_derivatives(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        checked = 0
        while checked < 100:
            x, s = rng.uniform(0.05, 0.95, 2)
            if abs(x - s) < 0.02:
                continue
            checked += 1
            assert r3(x, s, 1, 0) == pytest.approx((r3(x + h, s) - r3(x - h, s)) / (2 * h), abs=1e-7)
            assert r3(x, s, 0, 1) == pytest.approx((r3(x, s + h) - r3(x, s - h)) / (2 * h), abs=1e-7)
            assert r2(x, s, 1, 0) == pytest.approx((r2(x + h, s) - r2(x - h, s)) / (2 * h), abs=1e-7)
            assert r2(x, s, 0, 1) == pytest.approx((r2(x, s + h) - r2(x, s - h)) / (2 * h), abs=1e-7)

    def test_higher_space_derivative_against_fd_of_first(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            x, s = rng.uniform(0.05, 0.95, 2)
            if abs(x - s) < 0.02:
                continue
            fd = (r3(x, s + h, 0, 1) - r3(x, s - h, 0, 1)) / (2 * h)
            assert r3(x, s, 0, 2) == pytest.approx(fd, abs=1e-6)
