import math

import numpy as np
import pytest

from rkburgers.fracmath import (
    caputo_power,
    gamma,
    jacobi_rule,
    order_value,
    weighted_moment,
)

SQRT_PI = 1.7724538509055160273


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_gamma_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_gamma_two_point_five(self):
        # recurrence from gamma(1/2): 1.5 * 0.5 * sqrt(pi)
        assert gamma(2.5) == pytest.approx(1.3293403881791370, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, x):
        with pytest.raises(ValueError):
            gamma(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_argument_as_the_stdlib(self, x):
        # math.gamma gives inf at inf, NaN at NaN and a ValueError at -inf
        if x == -math.inf:
            with pytest.raises(ValueError):
                math.gamma(x)
            with pytest.raises(ValueError, match=r"x = -inf$"):
                gamma(x)
        else:
            assert repr(gamma(x)) == repr(math.gamma(x))

    def test_against_stdlib_positive_axis(self):
        for x in np.linspace(0.02, 30.0, 700):
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13)

    def test_against_stdlib_negative_noninteger(self):
        for x in (-0.3, -1.7, -2.5, -3.9, -6.25):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("a", [0.7, 0.8, 0.9])
    def test_reflection_identity(self, a):
        target = gamma(2.0 + a)
        lhs = math.pi / (math.sin(math.pi * a) * gamma(-1.0 - a))
        assert abs(lhs - target) <= 1e-10 * target


class TestCaputoPower:
    def test_constant_maps_to_zero(self):
        assert caputo_power(0, 0.5, 0.7) == 0.0

    def test_linear_at_one(self):
        # 1 / gamma(1.5) = 2 / sqrt(pi)
        assert caputo_power(1, 0.5, 1.0) == pytest.approx(1.1283791670955126, rel=1e-14)

    def test_fractional_exponent(self):
        # gamma(2.9) / gamma(2.0) * 0.5, with gamma(2.9) = 1.9 * gamma(1.9)
        assert caputo_power(1.9, 0.9, 0.5) == pytest.approx(0.9136775403120176, rel=1e-13)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            caputo_power(1.0, 0.5, -0.1)

    def test_exponent_below_order_rejected(self):
        with pytest.raises(ValueError):
            caputo_power(0.3, 0.5, 0.5)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="t >= 0, got nan"):
            caputo_power(2, 0.5, math.nan)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, k):
        with pytest.raises(ValueError, match=f"finite exponent, got {k}"):
            caputo_power(k, 0.5, 0.5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
    def test_matches_weighted_moment_expansion(self, k, t, a):
        # the definition integrates k r**(k-1) against the singular weight
        via_moment = k * weighted_moment(k - 1, a, 0.0, t, t) / gamma(1.0 - a)
        assert caputo_power(k, a, t) == pytest.approx(via_moment, abs=1e-11)

    def test_against_product_integration_oracle(self):
        # high-resolution product-trapezoid quadrature of the defining integral
        k, a, t = 1.9, 0.9, 0.5
        r = np.linspace(0.0, t, 200_001)
        lo, hi = r[:-1], r[1:]
        p0 = ((t - lo) ** (1 - a) - (t - hi) ** (1 - a)) / (1 - a)
        p1 = t * p0 - ((t - lo) ** (2 - a) - (t - hi) ** (2 - a)) / (2 - a)
        phi = k * r ** (k - 1)
        slope = (phi[1:] - phi[:-1]) / (hi - lo)
        oracle = float(np.sum(phi[:-1] * p0 + slope * (p1 - lo * p0))) / gamma(1 - a)
        assert caputo_power(k, a, t) == pytest.approx(oracle, abs=1e-9)


class TestWeightedMoment:
    def test_constant_moment(self):
        # antiderivative c**(1-a) / (1-a)
        assert weighted_moment(0, 0.5, 0.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_first_moment_is_beta_function(self):
        # Beta(2, 1/2) = gamma(2) gamma(0.5) / gamma(2.5) = 4/3
        assert weighted_moment(1, 0.5, 0.0, 1.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_empty_interval(self):
        assert weighted_moment(2, 0.3, 0.0, 0.0, 1.0) == 0.0

    def test_singularity_inside_range_rejected(self):
        with pytest.raises(ValueError):
            weighted_moment(0, 0.5, 0.0, 1.0, 0.9)

    def test_disordered_limits_rejected(self):
        with pytest.raises(ValueError):
            weighted_moment(0, 0.5, 0.5, 0.2, 1.0)

    @pytest.mark.parametrize("orders", [[], (), np.array([], dtype=int)])
    def test_empty_order_sequence_rejected(self, orders):
        with pytest.raises(ValueError, match="moment order sequence must not be empty"):
            weighted_moment(orders, 0.5, 0.0, 0.5, 1.0)

    @pytest.mark.parametrize("limits", [(0.0, 0.5, math.nan), (0.0, math.nan, 0.5), (math.nan, 0.2, 0.5)])
    def test_nan_limit_rejected(self, limits):
        with pytest.raises(ValueError):
            weighted_moment(0, 0.5, *limits)

    def test_array_limits_name_the_first_bad_element(self):
        b = np.array([[0.1, 0.2], [math.nan, 0.3]])
        with pytest.raises(ValueError, match=r"b = nan > c = 0\.5 at index \(1, 0\)"):
            weighted_moment(1, 0.5, 0.0, b, 0.5)
        with pytest.raises(ValueError, match=r"a = 0\.4, b = 0\.3 at index \(2,\)"):
            weighted_moment(1, 0.5, np.array([0.0, 0.1, 0.4]), np.array([0.2, 0.2, 0.3]), 0.5)

    def test_arrays_broadcast_and_scalars_give_floats(self):
        b = np.array([0.0, 0.25, 0.5])
        values = weighted_moment(2, 0.4, 0.0, b[:, None], np.array([0.5, 1.0]))
        assert values.shape == (3, 2)
        assert values[1, 1] == weighted_moment(2, 0.4, 0.0, 0.25, 1.0)
        assert type(weighted_moment(2, 0.4, 0.0, 0.25, 1.0)) is float

    def test_stable_near_singular_endpoint(self):
        # b close to c: compare against a two-piece split of the same integral
        a, c = 0.5, 1.0
        whole = weighted_moment(3, a, 0.0, c - 1e-9, c)
        split = weighted_moment(3, a, 0.0, 0.5, c) + weighted_moment(3, a, 0.5, c - 1e-9, c)
        assert whole == pytest.approx(split, rel=1e-12)


class TestGaussJacobi:
    def test_weight_sum_is_weighted_measure(self):
        u, w = jacobi_rule(-0.3, 1)
        assert float(np.sum(w)) == pytest.approx(1.0 / 0.7, rel=1e-14)

    def test_integrates_constant(self):
        u, w = jacobi_rule(-0.5, 8)
        assert float(w @ np.ones(8)) == pytest.approx(2.0, rel=1e-13)

    def test_integrates_linear(self):
        # first weighted moment Beta(2, 1/2) = 4/3
        u, w = jacobi_rule(-0.5, 8)
        assert float(w @ u) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_weights_positive_nodes_interior(self):
        u, w = jacobi_rule(-0.7, 32)
        assert np.all(w > 0)
        assert np.all((u > 0) & (u < 1))

    def test_polynomial_exactness_degree_2n_minus_1(self):
        u, w = jacobi_rule(-0.4, 3)
        for m in range(6):
            q = float(w @ u**m)
            assert q == pytest.approx(weighted_moment(m, 0.4, 0.0, 1.0, 1.0), abs=1e-14)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.9])
    def test_matches_closed_form_moments(self, a):
        u, w = jacobi_rule(-a, 16)
        for m in range(7):
            q = float(w @ u**m)
            assert q == pytest.approx(weighted_moment(m, a, 0.0, 1.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("a", [1.0, 1.7])
    def test_exponent_out_of_range_rejected(self, a):
        # a singularity (1 - u)**(-a) with a >= 1 is not integrable
        with pytest.raises(ValueError):
            jacobi_rule(-a, 8)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, exponent):
        # before the eigensolver, which would fail to converge on NaN or warn on inf
        with pytest.raises(ValueError, match=f"weight exponent must be finite and exceed -1, got {exponent}"):
            jacobi_rule(exponent, 8)

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            jacobi_rule(-0.5, 0)

    def test_positive_exponent_rule(self):
        # companion rules with smooth weight (1-u)**b are used internally
        u, w = jacobi_rule(1.3, 12)
        assert float(np.sum(w)) == pytest.approx(1.0 / 2.3, rel=1e-13)


class TestFractionalOrder:
    @pytest.mark.parametrize("a", [0.0, -0.1, 1.0001, 2.0])
    def test_out_of_range_rejected(self, a):
        with pytest.raises(ValueError):
            order_value(a)

    def test_boundary_value_accepted(self):
        assert order_value(1.0) == 1.0
