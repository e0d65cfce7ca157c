import math
from fractions import Fraction

import numpy as np
import pytest

import rkburgers.solver
from rkburgers.operator import CollocationGrid, GramMatrix
from rkburgers.orthonormalize import (
    GramAsymmetryError,
    NotPositiveDefiniteError,
    OrthonormalBasis,
    add_exact_product,
    compute_beta,
)
from rkburgers.problems import build_problem
from tests.conftest import TABLE_POINTS


def _gram(entries):
    return GramMatrix(entries=np.asarray(entries, dtype=float))


def _fsum_row_dot(a0, xs, ys):
    return math.fsum([a0] + (-(xs * ys)).tolist())


def _fsum_beta(g):
    """Reference factorization: Cholesky and inverse with every inner product exactly summed."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    a = 0.5 * (g + g.T)
    d = np.sqrt(np.diag(a))
    a_scaled = a / d[:, None] / d[None, :]
    low = np.zeros((n, n))
    for k in range(n):
        pivot = _fsum_row_dot(a_scaled[k, k], low[k, :k], low[k, :k])
        if not pivot > 0.0:
            raise NotPositiveDefiniteError(k)
        low[k, k] = math.sqrt(pivot)
        for i in range(k + 1, n):
            low[i, k] = _fsum_row_dot(a_scaled[i, k], low[i, :k], low[k, :k]) / low[k, k]
    inv = np.zeros((n, n))
    for i in range(n):
        inv[i, i] = 1.0 / low[i, i]
        for j in range(i - 1, -1, -1):
            inv[i, j] = _fsum_row_dot(0.0, low[i, j:i], inv[j:i, j]) / low[i, i]
    return inv / d[None, :]


def _defect(beta, g):
    return float(np.max(np.abs(beta @ g @ beta.T - np.eye(g.shape[0]))))


def _schur_negative_at_7(seed):
    """12 x 12 SPD matrix whose row 7 copies row 3 with 0.5 less on the diagonal."""
    m = np.random.default_rng(seed).normal(size=(12, 12))
    g = m @ m.T + np.eye(12)
    g[7, :] = g[3, :]
    g[:, 7] = g[:, 3]
    g[7, 7] = g[3, 3] - 0.5
    return g


class TestComputeBeta:
    def test_identity_maps_to_identity(self):
        onb = compute_beta(_gram(np.eye(5)))
        assert np.allclose(onb.beta, np.eye(5), atol=1e-15)

    def test_two_by_two_hand_factorization(self):
        # G = [[4, 2], [2, 2]] has Cholesky factor [[2, 0], [1, 1]]
        onb = compute_beta(_gram([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(onb.beta, [[0.5, 0.0], [-0.5, 1.0]], atol=1e-15)

    def test_duplicated_row_fails_at_duplicate_pivot(self):
        g = np.array(
            [
                [2.0, 1.0, 1.0],
                [1.0, 3.0, 3.0],
                [1.0, 3.0, 3.0],
            ]
        )
        with pytest.raises(NotPositiveDefiniteError) as err:
            compute_beta(_gram(g))
        assert err.value.pivot_index == 2

    def test_asymmetric_input_rejected(self):
        g = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            compute_beta(_gram(g))

    def test_asymmetry_names_the_worst_entry(self):
        g = np.eye(4)
        g[1, 3], g[3, 1] = 0.5, 0.5 + 1e-9
        g[2, 0] = 1e-6
        with pytest.raises(GramAsymmetryError) as err:
            compute_beta(_gram(g))
        assert (err.value.row, err.value.col) == (0, 2)
        assert err.value.asymmetry == pytest.approx(1e-6)
        assert "at entry (0, 2)" in str(err.value)
        assert isinstance(err.value, ValueError)

    def test_indefinite_matrix_reports_pivot(self):
        g = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            compute_beta(_gram(g))
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_negative_schur_complement_reports_its_pivot(self, seed):
        g = _schur_negative_at_7(seed)
        for factor in (_fsum_beta, lambda g: compute_beta(_gram(g))):
            with pytest.raises(NotPositiveDefiniteError) as err:
                factor(g)
            assert err.value.pivot_index == 7

    def test_nan_entry_reports_its_row(self):
        g = np.eye(6)
        g[4, 2] = g[2, 4] = np.nan
        for factor in (_fsum_beta, lambda g: compute_beta(_gram(g))):
            with pytest.raises(NotPositiveDefiniteError) as err:
                factor(g)
            assert err.value.pivot_index == 4

    def test_triangular_with_positive_diagonal(self, solution_factory):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        for g in (m @ m.T + 8 * np.eye(8), solution_factory("2", 0.8, 14, 14).basis.source.entries):
            beta = compute_beta(_gram(g)).beta
            n = g.shape[0]
            assert np.all(beta[np.triu_indices(n, k=1)] == 0.0)
            assert np.all(np.diag(beta) > 0.0)
            assert not beta.flags.writeable
            with pytest.raises(ValueError):
                beta[0, 0] = 1.0

    def test_orthonormalizes_random_spd_matrix(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(20, 20))
        g = m @ m.T + 1e-6 * np.eye(20)
        onb = compute_beta(_gram(g))
        resid = onb.beta @ g @ onb.beta.T - np.eye(20)
        assert np.max(np.abs(resid)) < 1e-10

    def test_acceptance_grid_orthonormality(self, solution_factory):
        sol = solution_factory("1", 0.9, 5, 5)
        g = sol.basis.source.entries
        beta = sol.basis.beta
        resid = beta @ g @ beta.T - np.eye(g.shape[0])
        assert np.max(np.abs(resid)) <= 1e-8


class TestAgainstFsumFactorization:
    @pytest.mark.parametrize("example,alpha,p", [("1", 0.9, 5), ("2", 0.8, 10), ("2", 0.8, 14)])
    def test_orthonormality_defect_within_the_oracle(self, solution_factory, example, alpha, p):
        g = solution_factory(example, alpha, p, p).basis.source.entries
        new = _defect(compute_beta(_gram(g)).beta, g)
        oracle = _defect(_fsum_beta(g), g)
        assert new <= 1.25 * oracle

    def test_mesh_values_match_an_oracle_solve(self, monkeypatch):
        problem = build_problem("2", 0.8)
        grid = CollocationGrid.uniform(10, 10)
        xs, es = zip(*TABLE_POINTS)
        new = rkburgers.solver.evaluate(rkburgers.solver.solve(problem, grid), xs, es)
        monkeypatch.setattr(
            rkburgers.solver,
            "compute_beta",
            lambda gram: OrthonormalBasis(beta=_fsum_beta(gram.entries), source=gram),
        )
        oracle = rkburgers.solver.evaluate(rkburgers.solver.solve(problem, grid), xs, es)
        assert np.max(np.abs(new - oracle)) <= 1e-8 * np.max(np.abs(oracle))


class TestAddExactProduct:
    def test_matches_the_rational_product(self):
        # 70 rows span two row blocks; magnitudes spread over 40 binades per row.
        # The slice products that round are below 2**-(53 + 2*23) of the row maxima
        # for an inner dimension of 9, so 2**-85 leaves a wide margin.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(70, 9)) * np.exp2(rng.integers(-20, 20, size=(70, 9)))
        y = rng.normal(size=(4, 9)) * np.exp2(rng.integers(-20, 20, size=(4, 9)))
        hi = rng.normal(size=(70, 4))
        lo = np.zeros((70, 4))
        start = hi.copy()
        add_exact_product(hi, lo, x, y)
        for i in range(70):
            for j in range(4):
                exact = Fraction(start[i, j]) + sum(Fraction(a) * Fraction(b) for a, b in zip(x[i], y[j]))
                bound = 2.0**-85 * np.max(np.abs(x[i])) * np.max(np.abs(y[j]))
                assert abs(Fraction(hi[i, j]) + Fraction(lo[i, j]) - exact) <= Fraction(bound)
