import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import apply_operator
from rkburgers.fracmath import gamma, jacobi_rule
from rkburgers.kernels import r2, r3
from rkburgers.operator import (
    BasisFunction,
    BasisTables,
    CollocationGrid,
    GramAssemblyError,
    Problem,
    _ctk_table,
    _dc_table,
    assemble_gram,
    build_basis,
    psi_eval,
)
from rkburgers.problems import build_example51
from rkburgers.solver import solve
from rkburgers.verification import double_caputo_oracle, time_kernel_oracle


def _pure_fractional_problem(alpha=0.5):
    zero = lambda xi, eta: 0.0
    return Problem(alpha=alpha, k1=zero, k2=zero, k3=zero, k4=zero, f=zero)


def _single(eta, t_i, a):
    """One value of the single Caputo transform table."""
    return float(_ctk_table(eta, t_i, a))


def _double(t_i, t_j, a, nodes):
    """One value of the double Caputo transform table."""
    return float(_dc_table(t_i, t_j, a, nodes))


def _time_tables(t_basis, t_point, with_operator=False):
    """Tables of one basis function centred at time t_basis, at one point at time t_point."""
    b = BasisFunction(xi=0.5, eta=t_basis, k1=0.0, k2=0.0, k3=0.0, alpha=0.5)
    return BasisTables([b], [0.5], [t_point], with_operator)


class TestCollocationGrid:
    def test_uniform_construction_and_ordering(self):
        grid = CollocationGrid.uniform(2, 3)
        assert grid.n == 6
        # time index advances fastest
        assert grid.points[0] == (0.5, 1.0 / 3.0)
        assert grid.points[1] == (0.5, 2.0 / 3.0)
        assert grid.points[3] == (1.0, 1.0 / 3.0)

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            CollocationGrid.from_points([(0.0, 0.5)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CollocationGrid.from_points([(0.5, 0.5), (0.5, 0.5)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CollocationGrid.uniform(0, 3)
        with pytest.raises(ValueError, match="at least one point"):
            CollocationGrid.from_points([])

    @pytest.mark.parametrize("p", [True, 2.5])
    def test_uniform_rejects_a_count_that_is_not_an_integer(self, p):
        # True would build a 1 x 2 grid and 2.5 fail inside range()
        with pytest.raises(ValueError, match="uniform grid p must be an integer >= 1"):
            CollocationGrid.uniform(p, 2)


class TestCaputoTimeKernel:
    """The single Caputo transform of r2, ``_ctk_table``, one value at a time."""

    def test_zero_evaluation_point(self):
        assert _single(0.5, 0.0, 0.7) == 0.0

    def test_whole_range_below_breakpoint(self):
        # evaluation point below eta, single weighted-moment piece
        value = _single(0.4, 0.2, 0.5)
        assert value == pytest.approx(0.22338133261618484, rel=1e-12)
        assert value == pytest.approx(time_kernel_oracle(0.4, 0.2, 0.5), abs=1e-10)

    def test_split_range(self):
        value = _single(0.2, 0.4, 0.5)
        assert value == pytest.approx(0.15572487490144987, rel=1e-12)
        assert value == pytest.approx(time_kernel_oracle(0.2, 0.4, 0.5), abs=1e-10)

    def test_continuous_across_the_breakpoint(self):
        # the single- and split-range formulas must agree where they meet
        eta, a = 0.35, 0.8
        below = _single(eta, eta - 1e-12, a)
        above = _single(eta, eta + 1e-12, a)
        at = _single(eta, eta, a)
        assert below == pytest.approx(at, abs=1e-10)
        assert above == pytest.approx(at, abs=1e-10)

    def test_classical_limit_at_order_one(self):
        # at order one the transform is the plain kernel derivative, and
        # the weakly singular formulas approach it continuously
        assert _single(0.5, 0.4, 1.0) == r2(0.4, 0.5, 1, 0)
        assert _single(0.5, 0.4, 0.9999) == pytest.approx(_single(0.5, 0.4, 1.0), abs=1e-3)

    # a time outside [0, 1] reaches users through the tables' r2 call: the
    # point's time is the transform's eta, the basis function's its t_i
    def test_domain_validation(self):
        with pytest.raises(ValueError, match="outside"):
            _time_tables(0.5, 1.3)

    @pytest.mark.parametrize("args", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_rejected(self, args):
        eta, t_i = args
        with pytest.raises(ValueError, match="outside"):
            _time_tables(t_i, eta)

    def test_against_oracle_at_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            eta = float(rng.uniform(0.02, 1.0))
            t = float(rng.uniform(0.02, 1.0))
            a = float(rng.uniform(0.1, 0.95))
            assert _single(eta, t, a) == pytest.approx(time_kernel_oracle(eta, t, a), abs=1e-8)


class TestDoubleCaputoTimeKernel:
    """The double Caputo transform of r2, ``_dc_table``, one value at a time."""

    def test_diagonal_closed_form(self):
        # for equal time slots the whole transform is elementary:
        # (t + t**2/(3-2a)) adjusted by the measure constants; at
        # t = 0.2, a = 0.5 the value is 0.88 / pi
        value = _double(0.2, 0.2, 0.5, 64)
        assert value == pytest.approx(0.88 / math.pi, rel=1e-13)

    def test_symmetry_of_the_two_quadrature_routes(self):
        ab = _double(0.2, 0.4, 0.5, 64)
        ba = _double(0.4, 0.2, 0.5, 64)
        assert ab == pytest.approx(ba, rel=1e-12)
        assert ab == pytest.approx(double_caputo_oracle(0.2, 0.4, 0.5), abs=1e-10)

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.9])
    def test_against_two_dimensional_oracle(self, a):
        for t_i, t_j in ((0.2, 0.2), (0.15, 0.6), (0.6, 0.15), (0.9, 1.0), (1.0, 1.0)):
            assert _double(t_i, t_j, a, 64) == pytest.approx(double_caputo_oracle(t_i, t_j, a), abs=1e-8)

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.9])
    def test_node_count_convergence(self, a):
        for t_i, t_j in ((0.2, 0.2), (0.15, 0.6), (0.6, 0.15), (0.9, 1.0)):
            v64 = _double(t_i, t_j, a, 64)
            v128 = _double(t_i, t_j, a, 128)
            assert abs(v64 - v128) <= 1e-10

    @pytest.mark.parametrize("args", [(1.3, 0.5), (0.5, -0.1), (math.nan, 0.5), (0.5, math.nan)])
    def test_domain_validation(self, args):
        # t_i is the basis function's time, t_j the point's
        with pytest.raises(ValueError, match="outside"):
            _time_tables(*args, with_operator=True)

    def test_failing_rule_raises_its_own_error(self):
        # t_i < t_j needs a rule; no nodes is the rule's ValueError, not a private one
        with pytest.raises(ValueError, match="node count"):
            _double(0.2, 0.4, 0.5, 0)

    def test_degenerate_time_slot(self):
        assert _double(0.5, 0.0, 0.5, 64) == 0.0
        assert _double(0.0, 0.5, 0.5, 64) == 0.0

    def test_classical_limit_at_order_one(self):
        # the doubly transformed kernel degenerates to 1 + min(r, s)
        assert _double(0.3, 0.7, 1.0, 64) == 1.3
        near = _double(0.3, 0.7, 0.9999, 64)
        assert near == pytest.approx(double_caputo_oracle(0.3, 0.7, 0.9999), abs=1e-8)
        assert near == pytest.approx(1.3, abs=1e-3)

    def test_outer_quadrature_reduces_to_single_caputo_on_powers(self):
        # the mapped rule applied to the defining integrand of a pure power
        # must reproduce the closed-form Caputo derivative
        from rkburgers.fracmath import caputo_power

        a, t, k = 0.6, 0.7, 2
        u, w = jacobi_rule(-a, 64)
        quad = t ** (1 - a) * float(w @ (k * (t * u) ** (k - 1))) / gamma(1 - a)
        assert quad == pytest.approx(caputo_power(k, a, t), rel=1e-13)


class TestPsiEval:
    def test_vanishes_on_space_boundaries(self):
        problem = build_example51(0.9)
        basis = build_basis(CollocationGrid.uniform(3, 3), problem)
        for b in basis:
            for s in np.linspace(0.0, 1.0, 21):
                assert psi_eval(b, 0.0, float(s)) == 0.0
                assert psi_eval(b, 1.0, float(s)) == 0.0
                assert psi_eval(b, float(s), 0.0) == 0.0

    def test_pure_fractional_center_factorizes(self):
        problem = _pure_fractional_problem(0.5)
        b = BasisFunction(xi=0.2, eta=0.2, k1=0.0, k2=0.0, k3=0.0, alpha=0.5)
        expected = _single(0.4, 0.2, 0.5) * r3(0.2, 0.5)
        assert psi_eval(b, 0.5, 0.4) == pytest.approx(expected, rel=1e-14)

    def test_xi_derivative_against_finite_differences(self):
        problem = build_example51(0.8)
        basis = build_basis(CollocationGrid.uniform(3, 3), problem)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(30):
            xi, eta = rng.uniform(0.05, 0.95, 2)
            b = basis[int(rng.integers(len(basis)))]
            fd = (psi_eval(b, xi + h, eta) - psi_eval(b, xi - h, eta)) / (2 * h)
            assert psi_eval(b, xi, eta, 1) == pytest.approx(fd, abs=1e-6)

    def test_derivative_order_validated(self):
        b = BasisFunction(xi=0.5, eta=0.5, k1=0.0, k2=0.0, k3=0.0, alpha=0.5)
        with pytest.raises(ValueError):
            psi_eval(b, 0.5, 0.5, 2)


class TestGramEntry:
    def test_single_point_pure_fractional(self):
        problem = _pure_fractional_problem(0.5)
        grid = CollocationGrid.from_points([(0.5, 0.5)])
        basis = build_basis(grid, problem)
        expected = _double(0.5, 0.5, 0.5, 64) * 0.06315104166666667
        assert apply_operator(basis[0], problem, 0.5, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_adjoint_symmetry_small_grid(self):
        problem = build_example51(0.9)
        grid = CollocationGrid.uniform(2, 2)
        g = assemble_gram(build_basis(grid, problem)).entries
        for i in range(4):
            for j in range(4):
                assert abs(g[i, j] - g[j, i]) <= 1e-8 * (1.0 + abs(g[i, j]))


class TestAssembleGram:
    def test_single_point_positive(self):
        problem = build_example51(0.9)
        grid = CollocationGrid.from_points([(0.4, 0.6)])
        g = assemble_gram(build_basis(grid, problem))
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] > 0.0

    def test_adjoint_symmetry_acceptance_grid(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        g = sol.basis.source.entries
        n = g.shape[0]
        for i in range(n):
            for j in range(n):
                assert abs(g[i, j] - g[j, i]) <= 1e-8 * (1.0 + abs(g[i, j]))

    @pytest.mark.parametrize(
        "grid",
        [
            CollocationGrid.uniform(2, 2),
            CollocationGrid.from_points([(0.3, 0.6), (0.35, 1.0), (1.0, 0.45), (1.0, 1.0)]),
        ],
        ids=["uniform", "from_points"],
    )
    def test_coefficient_failure_carries_indices(self, grid):
        # build_basis samples the coefficients, so solve names the entry build_basis names
        def bad_k1(xi, eta):
            if xi == 1.0 and eta == 1.0:
                raise FloatingPointError("synthetic coefficient failure")
            return 1.0

        zero = lambda xi, eta: 0.0
        bad = Problem(alpha=0.5, k1=bad_k1, k2=zero, k3=zero, k4=zero, f=zero)
        for call in (lambda: solve(bad, grid), lambda: build_basis(grid, bad)):
            with pytest.raises(GramAssemblyError, match=r"gram entry \(3, 0\) failed: synthetic") as err:
                call()
            assert (err.value.row, err.value.col) == (3, 0)
            assert isinstance(err.value.__cause__, FloatingPointError)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["k1", "k2", "k3"])
    def test_nonfinite_coefficient_carries_indices(self, name, value):
        # a non-finite k1, k2 or k3 is named where build_basis samples it, not
        # as a non-positive pivot after it has spread through the Gram matrix
        grid = CollocationGrid.uniform(4, 4)
        index = grid.points.index((0.5, 0.5))
        coeffs = dict.fromkeys(("k1", "k2", "k3", "k4", "f"), lambda xi, eta: 1.0)
        coeffs[name] = lambda xi, eta: value if (xi, eta) == (0.5, 0.5) else 1.0
        bad = Problem(alpha=0.8, **coeffs)
        pattern = rf"gram entry \({index}, 0\) failed: non-finite {name} = {value} at collocation point \(0.5, 0.5\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: solve(bad, grid), lambda: build_basis(grid, bad)):
                with pytest.raises(GramAssemblyError, match=pattern) as err:
                    call()
                assert (err.value.row, err.value.col) == (index, 0)
                assert isinstance(err.value.__cause__, ArithmeticError)

    def test_bad_node_count_is_a_value_error(self):
        # one check for every order and pair of times, including order 1 and
        # the equal times, which use no rule
        jacobi_rule(-0.5, 1)  # a cached rule for 1 must not answer for True
        for nodes in (0, -1, 2.5, True):
            for a, t_i, t_j in itertools.product((0.8, 1.0), (0.5, 0.3), (0.5,)):
                with pytest.raises(ValueError, match="node count must be an integer >= 1"):
                    _dc_table(t_i, t_j, a, nodes)
            with pytest.raises(ValueError, match="node count must be an integer >= 1"):
                jacobi_rule(-0.5, nodes)
