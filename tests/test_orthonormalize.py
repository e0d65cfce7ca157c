import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
import rkburgers.solver
from rkburgers.operator import CollocationGrid, GramMatrix, assemble_gram, build_basis
from rkburgers.orthonormalize import (
    GramAsymmetryError,
    NotPositiveDefiniteError,
    OrthonormalBasis,
    _invert_lower,
    _row_sigmas,
    _slices,
    add_exact_square,
    compute_beta,
    norm_recursion_defect,
)
from rkburgers.problems import build_problem
from tests.conftest import TABLE_POINTS, defect_rounding_bound, peak_bytes


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


def _integers(m):
    """m's entries as Python ints over one power-of-two denominator, for exact products."""
    fracs = [Fraction(v) for v in m.ravel().tolist()]
    den = max(f.denominator for f in fracs)
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    return np.array(ints, dtype=object).reshape(m.shape), den


def _defect(beta, g):
    return float(np.max(np.abs(beta @ g @ beta.T - np.eye(g.shape[0]))))


def _same_bits(got, want):
    """Equal entry for entry, the sign of every zero included."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _scattered_points(seed):
    """The benchmark's ``scattered`` grid (bench/run.py): 10 x 10 uniform points, each coordinate moved by up to 0.3 spacings."""
    rng = random.Random(seed)
    points = []
    for i in range(1, 11):
        for j in range(1, 11):
            x = (i + rng.uniform(-0.3, 0.3)) / 10
            e = (j + rng.uniform(-0.3, 0.3)) / 10
            points.append((2.0 - x if x > 1.0 else x, 2.0 - e if e > 1.0 else e))
    return points


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

    @staticmethod
    def _check_over_all_of_g(g):
        """The asymmetry check on all of G at once: argmax's (row, col) and value."""
        asym = np.abs(g - g.T) / (1.0 + np.abs(g))
        worst = int(np.argmax(asym))
        return divmod(worst, g.shape[0]), asym.flat[worst]

    def test_asymmetry_ties_across_panel_edges_name_the_first(self):
        # G is checked in 64-row panels.  Rows 63 and 64 lie on either side of
        # the first panel edge and rows 127 and 128 of the second; all four
        # entries tie, and the first in row-major order is named.
        g = np.eye(150)
        for i in (63, 127):
            g[i, i + 1], g[i + 1, i] = 1e-6, -1e-6
        with pytest.raises(GramAsymmetryError) as err:
            compute_beta(_gram(g))
        where, value = self._check_over_all_of_g(g)
        assert (err.value.row, err.value.col) == where == (63, 64)
        assert err.value.asymmetry == value

    @pytest.mark.parametrize("nan_row, asym_row", [(100, 3), (10, 100)], ids=["nan-after", "nan-before"])
    def test_nan_entry_goes_on_to_the_pivots_past_any_asymmetry(self, nan_row, asym_row):
        # argmax over all of G stops at a NaN, so an asymmetry beyond tolerance
        # in another panel raises nothing; the NaN row fails its pivot
        g = np.eye(150)
        g[asym_row, asym_row + 2] = 1e-3
        g[nan_row, 1] = g[1, nan_row] = np.nan
        _, value = self._check_over_all_of_g(g)
        assert math.isnan(value)
        with pytest.raises(NotPositiveDefiniteError) as err:
            compute_beta(_gram(g))
        assert err.value.pivot_index == nan_row

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


class TestSlices:
    def test_match_the_frozen_split(self):
        # 130 rows span three row blocks; a zero row, a row of small normal and
        # subnormal entries, a row of subnormals only, whose slices lie on the
        # subnormal grid, and magnitudes spread over 120 binades.  Keys of rows
        # or of (rows, cols), the latter as a leading block of G is read.
        rng = np.random.default_rng(6)
        m = rng.normal(size=(130, 40)) * np.exp2(rng.integers(-60, 60, size=(130, 40)))
        m[0] = 0.0
        m[1] *= 2.0**-1000
        m[2] = 5e-324 * rng.integers(-1000, 1000, size=40)
        sigmas = _row_sigmas(m)
        frozen = oracles.split_rows(m)
        for got, want in zip(_slices(m, sigmas), frozen):
            assert _same_bits(got, want)
        keys = (slice(0, 64), slice(60, 130), slice(129, 130), (slice(60, 130), slice(0, 17)), (slice(0, 3), slice(0, 40)))
        for key in keys:
            rows = key[0] if isinstance(key, tuple) else key
            for got, want in zip(_slices(m[key], sigmas[:, rows]), frozen):
                assert _same_bits(got, want[key])


class TestNormRecursionDefect:
    GRIDS = [("1", 0.9, 5), ("1", 0.8, 7), ("2", 0.8, 10), ("2", 0.8, 14), ("2", 0.8, 20)]

    @pytest.mark.parametrize("example,alpha,p", GRIDS)
    def test_matches_the_full_width_oracle_within_rounding(self, solution_factory, example, alpha, p):
        # The oracle sums each quadratic form far beyond working precision;
        # the plain one is off by at most its forward-error bound.
        sol = solution_factory(example, alpha, p, p)
        gap = abs(norm_recursion_defect(sol) - oracles.norm_recursion_defect(sol))
        assert gap <= defect_rounding_bound(sol)

    @pytest.mark.parametrize("example,alpha,p", GRIDS)
    def test_a_perturbed_basis_matches_the_oracle(self, solution_factory, example, alpha, p):
        # beta scaled by 1 + 1e-5 scales every ||y_m||^2 by about 1 + 2e-5:
        # a defect far above rounding, which must come out to the oracle's
        sol = solution_factory(example, alpha, p, p)
        scaled = sol._replace(basis=sol.basis._replace(beta=sol.basis.beta * (1.0 + 1e-5)))
        want = oracles.norm_recursion_defect(scaled)
        assert 1e-5 < want < 3e-5
        assert norm_recursion_defect(scaled) == pytest.approx(want, rel=1e-6)

    def test_a_nan_coefficient_makes_the_defect_nan(self, solution_factory):
        # so that a defect <= tolerance gate fails
        sol = solution_factory("2", 0.8, 10, 10)
        b = sol.B.copy()
        b[37] = math.nan
        assert math.isnan(norm_recursion_defect(sol._replace(B=b)))


class TestFrozenReference:
    """beta against ``oracles.compute_beta``, which splits all of L at once and refines with full products.

    The benchmark's output check holds a ``scattered`` solve's
    orthonormality defect, which sits above 1e-8 there, to its reference
    with no slack, so a change in beta's last bits on those 100 points
    can fail it; these tests show such a change here first, on the
    default BLAS thread count and on one thread.
    """

    @pytest.mark.parametrize("p", [5, 7, 10])
    @pytest.mark.parametrize("example", ["1", "2"])
    @pytest.mark.parametrize("alpha", [0.7, 0.8, 0.9])
    def test_uniform_grids_bit_for_bit(self, solution_factory, example, alpha, p):
        gram = solution_factory(example, alpha, p, p).basis.source
        assert _same_bits(compute_beta(gram).beta, oracles.compute_beta(gram.entries))

    @pytest.mark.parametrize("example,alpha", [("1", 0.9), ("2", 0.8)])
    def test_scattered_grid_bit_for_bit(self, example, alpha):
        grid = CollocationGrid.from_points(_scattered_points(1))
        problem = build_problem(example, alpha)
        gram = assemble_gram(build_basis(grid, problem))
        assert _same_bits(compute_beta(gram).beta, oracles.compute_beta(gram.entries))

    @pytest.mark.parametrize("example,alpha,p", [("1", 0.9, 14), ("2", 0.8, 14), ("2", 0.8, 20)])
    def test_larger_grids_within_summation_order(self, solution_factory, example, alpha, p):
        # The panels' products have a shorter inner dimension than the full
        # ones, so BLAS may add their terms in another order.
        gram = solution_factory(example, alpha, p, p).basis.source
        got, want = compute_beta(gram).beta, oracles.compute_beta(gram.entries)
        assert np.max(np.abs(got - want)) <= 1e-18 * np.max(np.abs(want))

    def test_peak_memory_stays_blocked(self, solution_factory):
        # Beyond G, made before tracing starts: A (later R) and L (later X)
        # are n x n; every other temporary is one column block's slices and
        # products, one of the triangular inverse's halves or a 64-row panel.
        # Whole-matrix slices and full refinement products traced 6.3 n x n
        # here.
        gram = solution_factory("2", 0.8, 20, 20).basis.source
        n = gram.entries.shape[0]
        assert peak_bytes(compute_beta, gram) < 5.0 * 8 * n**2


class TestBlockEdges:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_orthonormality_defect_within_the_oracle(self, n):
        # Eigenvalues from 1 down to 1e-8 with random eigenvectors: an error in
        # the residual R shows as a defect near 1e-8, some 20 times the float64
        # floor both factorizations reach.  One matrix's max-abs defect at that
        # floor scatters by about 25%, so the means of eight are compared.
        rng = np.random.default_rng(n)
        new, oracle = [], []
        for _ in range(8):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            g = (q * np.logspace(0, -8, n)) @ q.T
            g = 0.5 * (g + g.T)
            new.append(_defect(compute_beta(_gram(g)).beta, g))
            oracle.append(_defect(_fsum_beta(g), g))
        assert np.mean(new) <= 1.25 * np.mean(oracle)


class TestInvertLower:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 129])
    def test_in_place_matches_out_of_place_bit_for_bit(self, n):
        # compute_beta inverts L in its own storage.  The leaves are at most
        # 32 rows and a halving splits 64 and 65 rows, so these sizes cover
        # a leaf alone, a first split, and splits within splits.
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        low = np.linalg.cholesky(m @ m.T / n + np.eye(n))
        want = np.zeros_like(low)
        _invert_lower(low, want)
        _invert_lower(low, low)
        assert _same_bits(low, want)


class TestAddExactSquare:
    def test_matches_the_rational_product_on_both_triangles(self):
        # 130 rows span column blocks of 64, 64 and 2; magnitudes spread over 40
        # binades.  The grouped products with the last slice round, at about
        # 2**-95 of the row maxima for 21-bit slices, so 2**-85 leaves a margin
        # beyond the one final rounding.
        rng = np.random.default_rng(5)
        n = 130
        low = np.tril(rng.normal(size=(n, n)) * np.exp2(rng.integers(-20, 20, size=(n, n))))
        a = low @ low.T
        # A's (i, j) and (j, i) differ in the last bit, within and across blocks.
        pairs = [(1, 0), (63, 62), (64, 63), (100, 30), (129, 64), (129, 128)]
        for i, j in pairs:
            a[j, i] = a[i, j]
            a[i, j] = np.nextafter(a[i, j], np.inf)
        got = -a
        add_exact_square(got, low)
        ints, den = _integers(low)
        square = ints @ ints.T
        row_max = np.max(np.abs(low), axis=1)
        tol = 2.0**-85 * np.outer(row_max, row_max)
        for i in range(n):
            for j in range(n):
                exact = Fraction(square[i, j], den * den) - Fraction(a[i, j])
                # the exact value rounded once, give or take the tolerance
                bound = Fraction(tol[i, j]) + Fraction(np.spacing(abs(float(exact)))) / 2
                assert abs(Fraction(got[i, j]) - exact) <= bound
                if (i, j) in pairs:
                    # a mirrored A would miss (j, i) by a whole unit in its last place
                    assert abs(Fraction(a[i, j]) - Fraction(a[j, i])) > 4 * bound
