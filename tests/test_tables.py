"""The table path against the scalar functions it replaces, bit for bit.

Every reference below is built from one-value-at-a-time calls to the
frozen ``r2``, ``r3``, ``apply_operator`` and ``psi_eval`` of
``oracles``, in the loops the solver ran before the tables existed.  The
table path performs the same floating-point operations in the same
order, so the comparisons are ``np.array_equal``, not approximate.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
import rkburgers.operator as operator_module
from oracles import _ctk, _dc, apply_operator, psi_eval
from rkburgers.fracmath import weighted_moment
from rkburgers.kernels import r2, r3
from rkburgers.operator import (
    BasisTables,
    CollocationGrid,
    GramMatrix,
    _ctk_table,
    _dc_table,
    assemble_gram,
    build_basis,
)
from rkburgers.orthonormalize import compute_beta
from rkburgers.problems import build_example51, build_example52
from rkburgers.solver import _values, error_report, evaluate, residual, solve
from tests.conftest import peak_bytes


def _jittered(p, q):
    """A p x q grid with every coordinate moved off the lattice, so no two
    points share a xi or an eta value."""
    points = [
        (round((i + 0.23 * math.sin(7 * i + 3 * j)) / p, 12), round((j + 0.21 * math.cos(5 * i + 2 * j)) / q, 12))
        for i in range(1, p + 1)
        for j in range(1, q + 1)
    ]
    return [(2.0 - x if x > 1.0 else x, 2.0 - e if e > 1.0 else e) for x, e in points]


_JITTERED = _jittered(4, 4)

# For each eta, every xi: each 64-row block of the Gram and the sweep holds
# every xi value again and again, out of order, beside runs of one eta.
_TIME_MAJOR = CollocationGrid.from_points([(i / 9, j / 9) for j in range(1, 10) for i in range(1, 10)])

# The 9x9 and 9x8 cases have more points than a gathered block (64) and not
# a multiple of it, so they cross block edges in assembly, the sweep and
# the evaluation of the solution.  The last four hold one point less than a
# block, one block, one point more, and two blocks and a point, so the rows
# the Gram assembly keeps for the sweep end on each side of a block edge.
# The alpha = 1.0 cases take the classical limit's branches of the time tables.
CASES = {
    "ex1-alpha0.9-5x5": (build_example51, 0.9, CollocationGrid.uniform(5, 5)),
    "ex2-alpha0.8-6x6": (build_example52, 0.8, CollocationGrid.uniform(6, 6)),
    "ex1-alpha0.9-jittered": (build_example51, 0.9, CollocationGrid.from_points(_JITTERED)),
    "ex2-alpha0.8-9x9": (build_example52, 0.8, CollocationGrid.uniform(9, 9)),
    "ex1-alpha0.9-jittered-9x8": (build_example51, 0.9, CollocationGrid.from_points(_jittered(9, 8))),
    "ex2-alpha0.8-9x9-time-major": (build_example52, 0.8, _TIME_MAJOR),
    "ex1-alpha1.0-4x4": (build_example51, 1.0, CollocationGrid.uniform(4, 4)),
    "ex2-alpha1.0-5x5": (build_example52, 1.0, CollocationGrid.uniform(5, 5)),
    "ex1-alpha0.9-jittered-9x7": (build_example51, 0.9, CollocationGrid.from_points(_jittered(9, 7))),
    "ex2-alpha0.8-jittered-8x8": (build_example52, 0.8, CollocationGrid.from_points(_jittered(8, 8))),
    "ex1-alpha0.9-jittered-13x5": (build_example51, 0.9, CollocationGrid.from_points(_jittered(13, 5))),
    "ex2-alpha0.8-jittered-43x3": (build_example52, 0.8, CollocationGrid.from_points(_jittered(43, 3))),
}

# includes xi = 0, xi = 1 and eta = 0, where the basis functions vanish
EDGE_POINTS = [(0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 1.0), (0.3, 0.6)]


def _reference_gram(grid, problem, basis):
    return np.array([[apply_operator(b, problem, xi, eta) for b in basis] for xi, eta in grid.points])


def _reference_value(raw, basis, xi, eta, order=0):
    return float(sum(c * psi_eval(b, xi, eta, order) for c, b in zip(raw, basis) if c != 0.0))


def _tables_at(grid, basis):
    """Psi tables at the grid's points."""
    return BasisTables(basis, [x for x, _ in grid.points], [e for _, e in grid.points])


def _reference_sweep(problem, grid, basis, beta, picard_iters=0):
    """The sequential sweep and Picard passes evaluated through psi_eval.

    A Picard pass reads the previous iterate as ``evaluate`` does: the
    in-order sum over its nonzero raw coefficients (``_reference_value``).
    """
    n = grid.n
    F, B, cum = np.zeros(n), np.zeros(n), np.zeros(n)
    for k, (xi, eta) in enumerate(grid.points):
        if k == 0:
            yv = dyv = 0.0
        else:
            vals = np.array([psi_eval(basis[l], xi, eta, 0) for l in range(k)])
            ders = np.array([psi_eval(basis[l], xi, eta, 1) for l in range(k)])
            yv = float(cum[:k] @ vals)
            dyv = float(cum[:k] @ ders)
        F[k] = problem.f(xi, eta) - problem.k4(xi, eta) * yv * dyv
        B[k] = float(beta[k, : k + 1] @ F[: k + 1])
        cum[: k + 1] += B[k] * beta[k, : k + 1]
    for _ in range(picard_iters):
        for k, (xi, eta) in enumerate(grid.points):
            yv = _reference_value(cum, basis, xi, eta, 0)
            dyv = _reference_value(cum, basis, xi, eta, 1)
            F[k] = problem.f(xi, eta) - problem.k4(xi, eta) * yv * dyv
        B = beta @ F
        cum = beta.T @ B
    return F, B, cum


def _same(a, b):
    """Bit-identical, down to the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestKernelTables:
    VALUES = np.concatenate([[0.0, 1.0, 0.5], np.arange(1, 8) / 7, np.linspace(0.03, 0.97, 9)])

    @pytest.mark.parametrize("orders", list(itertools.product(range(4), range(4))))
    def test_r3_on_arrays_matches_scalar(self, orders):
        v = self.VALUES
        table = r3(v[:, None], v[None, :], *orders)
        assert _same(table, [[oracles.r3(x, s, *orders) for s in v] for x in v])

    @pytest.mark.parametrize("orders", list(itertools.product(range(3), range(3))))
    def test_r2_on_arrays_matches_scalar(self, orders):
        v = self.VALUES
        table = r2(v[:, None], v[None, :], *orders)
        assert _same(table, [[oracles.r2(t, e, *orders) for e in v] for t in v])

    @pytest.mark.parametrize(
        "kernel, oracle, pinned, top",
        [(r3, oracles.r3, (0.0, 1.0), 3), (r2, oracles.r2, (0.0,), 2)],
        ids=["r3", "r2"],
    )
    def test_scalar_calls_are_floats_equal_to_the_oracle(self, kernel, oracle, pinned, top):
        # a scalar call is a 0-d call of the array path; it must still give a float,
        # and the +0.0 of every pinned section, not a -0.0
        v = self.VALUES.tolist()
        for orders in itertools.product(range(top + 1), repeat=2):
            for x, s in itertools.product(v, v):
                value = kernel(x, s, *orders)
                assert type(value) is float
                assert _same(value, oracle(x, s, *orders)), (x, s, orders)
                if (orders[1] == 0 and s in pinned) or (orders[0] == 0 and x in pinned):
                    assert value == 0.0 and math.copysign(1.0, value) > 0.0

    def test_r3_stacked_orders_match_scalar(self):
        # v holds 0 and 1, and the outer product puts every value on the diagonal
        v = self.VALUES
        orders = list(itertools.product(range(4), range(4)))
        stack = r3(v[:, None], v[None, :], *zip(*orders))
        assert stack.shape == (len(orders), v.size, v.size)
        pinned = np.isin(v, (0.0, 1.0))
        for table, (dx, dxi) in zip(stack, orders):
            assert _same(table, [[oracles.r3(x, s, dx, dxi) for s in v] for x in v])
            for section in ([table[:, pinned]] if dxi == 0 else []) + ([table[pinned]] if dx == 0 else []):
                assert np.all(section == 0.0) and not np.signbit(section).any()

    def test_r2_stacked_orders_match_scalar(self):
        v = self.VALUES
        orders = list(itertools.product(range(3), range(3)))
        stack = r2(v[:, None], v[None, :], *zip(*orders))
        for table, o in zip(stack, orders):
            assert _same(table, [[oracles.r2(t, e, *o) for e in v] for t in v])

    def test_stacked_orders_broadcast_and_keep_their_axis(self):
        v = self.VALUES
        assert _same(r3(v, 0.5, 1, [0, 2]), [r3(v, 0.5, 1, 0), r3(v, 0.5, 1, 2)])
        assert _same(r3(0.25, 0.75, [0, 3], [1, 1]), [r3(0.25, 0.75, 0, 1), r3(0.25, 0.75, 3, 1)])
        assert r2(v, v, [1]).shape == (1, v.size)

    def test_domain_and_order_checked(self):
        with pytest.raises(ValueError, match="outside the domain"):
            r3(np.array([0.2, 1.5]), 0.5)
        with pytest.raises(ValueError, match="outside the domain"):
            r2(0.5, np.array([np.nan]))
        with pytest.raises(ValueError):
            r3(np.array([0.5]), 0.5, 4, 0)
        with pytest.raises(ValueError, match="dxi_order must be an integer in 0..3, got 4"):
            r3(0.5, 0.5, [0, 1], [2, 4])
        with pytest.raises(ValueError, match="sequence of orders"):
            r2(0.5, 0.5, [[0]], 0)


class TestTimeTables:
    """The array Caputo time factors against the scalar ``_ctk`` and ``_dc``, pair by pair."""

    # eta = 0, t = 1, repeated values (so t_i == t_j pairs) and distinct jittered values
    ETAS = np.array(sorted({0.0, 1.0, 0.5, 0.25, *(e for _, e in _jittered(3, 5))}))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_single_transform_in_both_slots(self, alpha):
        e = self.ETAS
        table = _ctk_table(e[:, None], e[None, :], alpha)
        assert _same(table, [[_ctk(eta, t, alpha) for t in e] for eta in e])
        swapped = _ctk_table(e[None, :], e[:, None], alpha)
        assert _same(swapped, [[_ctk(t, eta, alpha) for t in e] for eta in e])

    # 49 distinct values: each branch holds 1176 pairs, more than one block of operator._PAIR_BLOCK
    DENSE_ETAS = np.array(sorted({e for _, e in _jittered(7, 7)}))

    # one-node and odd node counts, and block edges, are where a batched dot could round differently
    @pytest.mark.parametrize(
        "alpha, dense",
        [pytest.param(a, False, id=str(a)) for a in (0.3, 0.5, 0.7, 0.9, 1.0)]
        + [pytest.param(a, True, id=f"{a}-dense") for a in (0.5, 0.8)],
    )
    @pytest.mark.parametrize("nodes", [1, 2, 8, 64, 65])
    def test_double_transform(self, alpha, dense, nodes):
        e = self.DENSE_ETAS if dense else self.ETAS
        if dense:
            assert e.size * (e.size - 1) // 2 > operator_module._PAIR_BLOCK
        table = _dc_table(e[:, None], e[None, :], alpha, nodes)
        assert _same(table, [[_dc(t_i, t_j, alpha, nodes) for t_j in e] for t_i in e])

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("m", range(4))
    def test_moments_on_arrays(self, alpha, m):
        # every ordered triple a <= b <= c: a == b, b == c and c = 0 included
        triples = [t for t in itertools.product(self.ETAS.tolist(), repeat=3) if t[0] <= t[1] <= t[2]]
        expected = [oracles.weighted_moment(m, alpha, *t) for t in triples]
        assert _same(weighted_moment(m, alpha, *np.array(triples).T), expected)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_stacked_moment_orders_match_single_orders(self, alpha):
        triples = np.array([t for t in itertools.product(self.ETAS.tolist(), repeat=3) if t[0] <= t[1] <= t[2]]).T
        stacked = weighted_moment((3, 2, 1, 0), alpha, *triples)
        assert stacked.shape == (4, triples.shape[1])
        for row, m in zip(stacked, (3, 2, 1, 0)):
            assert _same(row, weighted_moment(m, alpha, *triples))

    def test_moment_orders_keep_their_shapes(self):
        assert type(weighted_moment(2, 0.5, 0.0, 0.5, 1.0)) is float
        assert _same(weighted_moment((2, 0), 0.5, 0.0, 0.5, 1.0), [weighted_moment(k, 0.5, 0.0, 0.5, 1.0) for k in (2, 0)])
        assert weighted_moment([1], 0.5, np.zeros((2, 3)), 0.5, 1.0).shape == (1, 2, 3)

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_order_in_a_sequence_is_named(self, bad):
        with pytest.raises(ValueError, match=f"moment order must be an integer >= 0, got {bad}"):
            weighted_moment((2, bad, 0), 0.5, 0.0, 0.5, 1.0)

    def test_single_transform_table_takes_one_moment_call(self, monkeypatch):
        calls = collections.Counter()
        monkeypatch.setattr(operator_module, "weighted_moment", _counting(calls, "weighted_moment", weighted_moment))
        e = self.ETAS
        _ctk_table(e[:, None], e[None, :], 0.7)
        assert calls == {"weighted_moment": 1}
        _ctk_table(e[None, :], e[:, None], 0.7)
        assert calls == {"weighted_moment": 2}

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_public_transforms_are_zero_d_tables(self, alpha):
        # 0-d table calls, as ``rkburgers verify`` makes them, equal the _ctk and _dc oracles
        e = self.ETAS.tolist()
        for eta, t in itertools.product(e, e):
            assert _same(float(_ctk_table(eta, t, alpha)), _ctk(eta, t, alpha))
            assert _same(float(_dc_table(eta, t, alpha, 64)), _dc(eta, t, alpha, 64))

    def test_tables_fill_the_basis_tables(self):
        # point and basis eta values differ, so the tables are not square
        problem = build_example51(0.7)
        grid = CollocationGrid.from_points(_jittered(3, 5))
        basis = build_basis(grid, problem)
        points = [(0.5, e) for e in (0.0, 0.2, 0.45, 1.0)]
        tables = BasisTables(basis, [x for x, _ in points], [e for _, e in points], with_operator=True)
        fns = np.arange(len(basis))
        for i, (xi, eta) in enumerate(points):
            row = tables.operator(tables.at([i]), fns, problem.k1(xi, eta), problem.k2(xi, eta), problem.k3(xi, eta))[0]
            assert _same(row, [[apply_operator(b, problem, xi, eta) for b in basis]])


def test_block_gathers_on_tables_of_unequal_widths():
    # The basis has 12 distinct xi and 12 distinct eta values, the points 5 and 7,
    # so a flat index built with a wrong table width reads the wrong entries.
    problem = build_example52(0.8)
    basis = build_basis(CollocationGrid.from_points(_jittered(4, 3)), problem)
    points = [(x, e) for x in (0.0, 0.2, 0.55, 0.8, 1.0) for e in (0.0, 0.1, 0.3, 0.45, 0.6, 0.9, 1.0)]
    tables = BasisTables(basis, [x for x, _ in points], [e for _, e in points], with_operator=True)
    rows = np.arange(len(points))[:, None]
    fns = np.array([11, 0, 7, 3, 5, 8, 1])
    for order in (0, 1):
        expected = [[psi_eval(basis[l], xi, eta, order) for l in fns] for xi, eta in points]
        assert _same(tables.psi(tables.at(rows), fns, order), expected)
    c1, c2, c3 = (np.array([[k(xi, eta)] for xi, eta in points]) for k in (problem.k1, problem.k2, problem.k3))
    expected = [[apply_operator(basis[l], problem, xi, eta) for l in fns] for xi, eta in points]
    assert _same(tables.operator(tables.at(rows), fns, c1, c2, c3)[0], expected)
    # operator's psi and d_xi psi are psi's, on a block of the 72 points that crosses the 64-row edge
    points = _jittered(9, 8)
    tables = BasisTables(basis, [x for x, _ in points], [e for _, e in points], with_operator=True)
    block = tables.at(np.arange(60, 70)[:, None])
    c1, c2, c3 = (np.array([[k(xi, eta)] for xi, eta in points[60:70]]) for k in (problem.k1, problem.k2, problem.k3))
    _, psi0, psi1 = tables.operator(block, fns, c1, c2, c3)
    assert _same(psi0, tables.psi(block, fns, 0)) and _same(psi1, tables.psi(block, fns, 1))


def _kept_rows(gram):
    """(k, psi row, d_xi psi row) for each collocation point k, as the Gram assembly kept them for the sweep."""
    return [(k, row0, row1) for k, (row0, row1) in enumerate(pair for block in gram.sweep_rows for pair in zip(*block))]


def test_sweep_rows_take_both_orders_from_one_gather():
    # 72 points: two blocks of Gram rows, the second one short
    grid = CollocationGrid.from_points(_jittered(9, 8))
    problem = build_example51(0.9)
    basis = build_basis(grid, problem)
    gram = assemble_gram(basis)
    tables = _tables_at(grid, basis)
    n = grid.n
    # the Gram assembly keeps each block's rows below its last row, as a psi gather gives them
    assert [block.shape for block in gram.sweep_rows] == [(2, 64, 63), (2, 8, 71)]
    for k, row0, row1 in _kept_rows(gram):
        cols = slice(0, row0.size)
        assert k <= row0.size < n
        at = tables.at([k])
        assert _same(row0[None], tables.psi(at, cols, 0)) and _same(row1[None], tables.psi(at, cols, 1))
    # a gather takes one order
    steps = tables.at(np.arange(64, n)[:, None])
    with pytest.raises(ValueError, match=r"dxi_order must be an integer in 0\.\.1, got 2"):
        tables.psi(steps, slice(None), 2)
    with pytest.raises(ValueError, match=r"dxi_order must be an integer in 0\.\.1, got \(0, 1\)"):
        tables.psi(steps, slice(None), (0, 1))
    with pytest.raises(ValueError, match=r"dxi_order must be an integer in 0\.\.1, got \(0, 1\)"):
        operator_module.psi_eval(basis[0], 0.5, 0.5, (0, 1))


def test_time_major_sweep_rows_match_scalar_reference():
    grid = _TIME_MAJOR
    problem = build_example52(0.8)
    basis = build_basis(grid, problem)
    for k, row0, row1 in _kept_rows(assemble_gram(basis)):
        xi, eta = grid.points[k]
        for order, row in ((0, row0), (1, row1)):
            assert _same(row, [psi_eval(b, xi, eta, order) for b in basis[: row.size]]), (k, order)


def test_any_index_array_is_the_blocks_list_of_points():
    # a 1-D index array and the same indices as a column give one points x functions block
    grid = CollocationGrid.uniform(3, 3)
    problem = build_example51(0.9)
    basis = build_basis(grid, problem)
    tables = BasisTables(basis, [x for x, _ in grid.points], [e for _, e in grid.points], with_operator=True)
    steps = np.array([4, 0, 8, 4, 2])
    fns = np.arange(grid.n)
    line, column = tables.at(steps), tables.at(steps[:, None])
    for order in (0, 1):
        block = tables.psi(column, fns, order)
        assert block.shape == (steps.size, grid.n)
        assert _same(tables.psi(line, fns, order), block)
    c1, c2, c3 = (np.array([[k(*grid.points[i])] for i in steps]) for k in (problem.k1, problem.k2, problem.k3))
    for got, want in zip(tables.operator(line, fns, c1, c2, c3), tables.operator(column, fns, c1, c2, c3)):
        assert got.shape == (steps.size, grid.n) and _same(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_scalar_reference(case):
    build, alpha, grid = CASES[case]
    problem = build(alpha)
    basis = build_basis(grid, problem)
    gram = _reference_gram(grid, problem, basis)
    beta = compute_beta(GramMatrix(entries=gram)).beta
    F, B, raw = _reference_sweep(problem, grid, basis, beta)

    assert _same(assemble_gram(basis).entries, gram)
    sol = solve(problem, grid)
    assert _same(sol.basis.source.entries, gram)
    assert _same(sol.basis.beta, beta)
    assert _same(sol.F_values, F)
    assert _same(sol.B, B)
    assert _same(sol.raw_coeffs, raw)


def test_picard_pass_matches_scalar_reference():
    problem = build_example51(0.9)
    grid = CollocationGrid.uniform(4, 4)
    sol = solve(problem, grid, picard_iters=1)
    basis = build_basis(grid, problem)
    F, B, raw = _reference_sweep(problem, grid, basis, sol.basis.beta, picard_iters=1)
    assert _same(sol.F_values, F)
    assert _same(sol.B, B)
    assert _same(sol.raw_coeffs, raw)


@pytest.mark.parametrize(
    "build, alpha, grid",
    [
        # 272 points: the pass crosses a block of 256 points and five blocks of 64 functions
        pytest.param(build_example52, 0.8, CollocationGrid.uniform(17, 16), id="ex2-alpha0.8-17x16"),
        pytest.param(*CASES["ex1-alpha0.9-jittered-9x8"], id="ex1-alpha0.9-jittered-9x8"),
    ],
)
def test_picard_pass_reads_the_previous_iterate_through_evaluate(build, alpha, grid):
    # F_k of the second pass is f - k4 * y * d_xi y, with y the one-pass solution as evaluate gives it
    problem = build(alpha)
    one = solve(problem, grid, picard_iters=1)
    two = solve(problem, grid, picard_iters=2)
    xs, es = [x for x, _ in grid.points], [e for _, e in grid.points]
    y, dy = (evaluate(one, xs, es, order).tolist() for order in (0, 1))
    expected = [problem.f(x, e) - problem.k4(x, e) * v * d for x, e, v, d in zip(xs, es, y, dy)]
    assert _same(two.F_values, expected)


def test_residual_at_collocation_points_matches_scalar_reference(solution_factory):
    sol = solution_factory("1", 0.9, 4, 4)
    problem, basis = sol.problem, sol.basis_functions
    for xi, eta in sol.grid.points:
        ly = sum(c * apply_operator(b, problem, xi, eta) for c, b in zip(sol.raw_coeffs, basis) if c != 0.0)
        yv = _reference_value(sol.raw_coeffs, basis, xi, eta, 0)
        dyv = _reference_value(sol.raw_coeffs, basis, xi, eta, 1)
        expected = float(ly) - (problem.f(xi, eta) - problem.k4(xi, eta) * yv * dyv)
        assert _same(residual(sol, xi, eta), expected)


def test_solve_and_residual_build_one_table_set_each(monkeypatch):
    builds = []
    init = BasisTables.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BasisTables, "__init__", counting_init)
    problem, grid = build_example51(0.9), CollocationGrid.uniform(3, 3)
    sol = solve(problem, grid)
    assert len(builds) == 1
    residual(sol, 0.5, 0.5)
    assert len(builds) == 2
    # Picard passes add one psi-only set at the collocation points per solve, not one per pass
    solve(problem, grid, picard_iters=2)
    assert len(builds) == 4


def test_sweep_reads_the_rows_the_gram_assembly_kept(monkeypatch):
    # only a Picard pass gathers psi values of its own
    calls = collections.Counter()
    monkeypatch.setattr(BasisTables, "psi", _counting(calls, "psi", BasisTables.psi))
    problem, grid = build_example51(0.9), CollocationGrid.uniform(9, 8)
    sol = solve(problem, grid)
    assert calls == {} and sol.basis.source.sweep_rows is None
    solve(problem, grid, picard_iters=1)
    # one gather per order for each of the 72 points' two 64-function blocks
    assert calls == {"psi": 4}


def test_solve_and_error_report_build_each_factor_once_per_table_set(monkeypatch):
    # the Gram build reuses its single-transform table, transposed, for the point slot,
    # and each build takes every r3 order it needs from one call
    calls = collections.Counter()
    for name in ("_ctk_table", "r3", "r2"):
        fn = getattr(operator_module, name)
        monkeypatch.setattr(operator_module, name, _counting(calls, name, fn))
    init = BasisTables.__init__
    monkeypatch.setattr(BasisTables, "__init__", _counting(calls, "BasisTables", init))
    sol = solve(build_example52(0.8), CollocationGrid.uniform(5, 4))
    error_report(sol, [(0.1 * i, 0.1 * j) for i in range(1, 7) for j in range(1, 7)])
    assert calls == {"BasisTables": 2, "_ctk_table": 2, "r3": 2, "r2": 2}


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_scattered_tables_stay_small():
    # 400 points with 400 distinct xi and eta values each: every table is 400 x 400,
    # and the nine stacked r3 orders take 11.5 MB
    grid = CollocationGrid.from_points(_jittered(20, 20))
    basis = build_basis(grid, build_example52(0.8))
    xs, es = [x for x, _ in grid.points], [e for _, e in grid.points]
    assert peak_bytes(lambda: BasisTables(basis, xs, es, with_operator=True)) < 40e6


def test_solution_does_not_keep_the_tables():
    # on a scattered grid every table is n x n: the solution holds G and beta, not the Gram's tables
    grid = CollocationGrid.from_points(_jittered(20, 20))
    tracemalloc.start()
    try:
        sol = solve(build_example52(0.8), grid)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sol.n == 400 and retained < 3 * 8 * sol.n**2


@pytest.mark.parametrize("order", [0, 1])
def test_evaluation_matches_scalar_reference(solution_factory, order):
    sol = solution_factory("2", 0.9, 10, 10)
    mesh = [(0.1 * i, 0.1 * j) for i in range(1, 7) for j in range(1, 7)]
    points = EDGE_POINTS + mesh
    expected = [_reference_value(sol.raw_coeffs, sol.basis_functions, x, e, order) for x, e in points]
    batch = evaluate(sol, [x for x, _ in points], [e for _, e in points], order)
    assert _same(batch, expected)
    assert all(_same(evaluate(sol, x, e, order), v) for (x, e), v in zip(points, expected))
    # every basis function vanishes on xi = 0, xi = 1 and eta = 0, and
    # its xi-derivative on eta = 0; both sums come out as +0.0
    for (x, e), v in zip(EDGE_POINTS, expected):
        if e == 0.0 or (order == 0 and x in (0.0, 1.0)):
            assert v == 0.0 and math.copysign(1.0, v) > 0.0


def test_evaluation_across_point_blocks_matches_scalar_reference(solution_factory):
    # 263 points (more than one block of 256) and 81 basis functions
    # (more than one block of 64)
    sol = solution_factory("2", 0.8, 9, 9)
    mesh = [(i / 15, j / 15) for i in range(16) for j in range(16)]
    points = EDGE_POINTS + mesh
    for order in (0, 1):
        expected = [_reference_value(sol.raw_coeffs, sol.basis_functions, x, e, order) for x, e in points]
        assert _same(evaluate(sol, [x for x, _ in points], [e for _, e in points], order), expected)


def test_evaluation_of_shuffled_repeated_points_matches_scalar_reference(solution_factory):
    # Every point of a 12 x 12 lattice with its edges twice, and EDGE_POINTS:
    # 295 points in shuffled order, so both point blocks (256 and 39) hold
    # repeated, unsorted xi and eta values, xi in {0, 1} and eta = 0 among them.
    sol = solution_factory("2", 0.8, 9, 9)
    lattice = [(i / 11, j / 11) for i in range(12) for j in range(12)]
    points = lattice + lattice + EDGE_POINTS
    points = [points[k] for k in np.random.default_rng(5).permutation(len(points))]
    xs, es = [x for x, _ in points], [e for _, e in points]
    for order in (0, 1):
        reference = {p: _reference_value(sol.raw_coeffs, sol.basis_functions, *p, order) for p in set(points)}
        expected = [reference[p] for p in points]
        assert _same(evaluate(sol, xs, es, order), expected)
        for (x, e), v in zip(points, expected):
            if e == 0.0 or (order == 0 and x in (0.0, 1.0)):
                assert v == 0.0 and math.copysign(1.0, v) > 0.0


def test_evaluate_keeps_the_shape_of_its_arguments(solution_factory):
    sol = solution_factory("1", 0.9, 5, 5)
    xs = np.linspace(0.0, 1.0, 4)
    grid = evaluate(sol, xs[:, None], xs[None, :])
    assert grid.shape == (4, 4)
    assert isinstance(evaluate(sol, 0.3, 0.4), float)
    assert grid[1, 2] == evaluate(sol, float(xs[1]), float(xs[2]))


class TestErrorContracts:
    def test_point_outside_mid_batch_is_named(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        points = [(0.1, 0.1), (0.2, 0.3), (0.5, 1.25), (1.5, 0.5)]
        with pytest.raises(ValueError, match=r"\(0\.5, 1\.25\) outside"):
            error_report(sol, points)

    def test_derivative_order_two_rejected(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        with pytest.raises(ValueError, match="dxi_order"):
            evaluate(sol, 0.5, 0.5, 2)
        with pytest.raises(ValueError, match="dxi_order"):
            evaluate(sol, [0.5, 0.6], [0.5, 0.5], 2)

    @pytest.mark.parametrize("order", [True, False, np.True_, np.False_, 1.0, (0, 1)])
    def test_order_that_is_not_the_integer_0_or_1_rejected(self, solution_factory, order):
        sol = solution_factory("1", 0.9, 5, 5)
        with pytest.raises(ValueError, match=r"dxi_order must be an integer in 0\.\.1"):
            evaluate(sol, 0.3, 0.4, order)
        tables = BasisTables(sol.basis_functions, [0.3], [0.4])
        with pytest.raises(ValueError, match=r"dxi_order must be an integer in 0\.\.1"):
            tables.psi(tables.at([0]), slice(None), order)

    def test_numpy_integer_orders_accepted(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        tables = BasisTables(sol.basis_functions, [0.3], [0.4])
        for order in (0, 1):
            assert evaluate(sol, 0.3, 0.4, np.int64(order)) == evaluate(sol, 0.3, 0.4, order)
            at = tables.at([0])
            assert _same(tables.psi(at, slice(None), np.intp(order)), tables.psi(at, slice(None), order))

    def test_values_take_one_order(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        xs, es = [x for x, _ in sol.grid.points], [e for _, e in sol.grid.points]
        tables = BasisTables(sol.basis_functions, xs, es)
        for coeffs in (sol.raw_coeffs, np.zeros(sol.n)):  # no psi gather when every coefficient is zero
            with pytest.raises(ValueError, match=r"dxi_order must be an integer in 0\.\.1, got \(0, 1\)"):
                _values(coeffs, tables, (0, 1))

    def test_empty_point_list(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        report = error_report(sol, [])
        assert report.errors == []
        assert report.max_abs_error == 0.0
        assert report.mean_abs_error == 0.0
