import math
import types

import numpy as np
import pytest

from rkburgers import fracmath, kernels, verification
from rkburgers.fracmath import gamma
from rkburgers.operator import CollocationGrid, Problem
from rkburgers.problems import build_example51, build_example52
from rkburgers.verification import (
    check_double_caputo,
    check_forcing,
    check_gram,
    check_quadrature_vs_moments,
    check_time_kernel_oracle,
    double_caputo_oracle,
    run_default_checks,
    time_kernel_oracle,
)
from tests.conftest import peak_bytes


class TestDefaultBattery:
    def test_everything_passes(self):
        results = run_default_checks()
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        # the lines ``rkburgers verify`` prints, in order
        assert [r.name for r in results] == [
            "gamma reflection identity",
            "gauss-jacobi vs weighted moments",
            "caputo power vs moment expansion",
            "kernel reproducing properties",
            "single caputo transform vs oracle",
            "double caputo transform vs oracle",
            "gram symmetry / orthonormality",
            "forcing consistency",
        ]

    def test_time_kernel_check_draws_fixed_samples(self):
        # the 12 samples come from one fixed seed, so the measure repeats and only tol varies
        first, second = check_time_kernel_oracle(), check_time_kernel_oracle(tol=1e-14)
        assert first.measure == second.measure > 1e-14
        assert first.passed and not second.passed

    def test_check_lines_are_printable(self):
        res = check_quadrature_vs_moments()
        assert res.line().startswith("PASS")

    def test_gram_check_drops_the_sweep_rows(self):
        # The sweep rows, about one n x n array that only solve reads, are
        # dropped before compute_beta; kept through it, they traced 6.36 n x n.
        n = 400
        assert peak_bytes(check_gram, build_example52(0.8), CollocationGrid.uniform(20, 20)) < 5.75 * 8 * n**2


class TestBrokenFixtures:
    def test_perturbed_forcing_fails_only_the_forcing_check(self):
        base = build_example51(0.9)
        perturbed = Problem(
            alpha=base.alpha, k1=base.k1, k2=base.k2, k3=base.k3, k4=base.k4,
            f=lambda xi, eta: base.f(xi, eta) + 1e-3, exact=base.exact,
        )
        assert not check_forcing(problems=[perturbed]).passed
        assert check_time_kernel_oracle().passed
        assert check_double_caputo().passed

    def test_nearly_duplicated_points_fail_the_gram_check(self):
        # two points one ulp apart leave the factorization barely positive
        # definite but the orthonormality residual explodes
        grid = CollocationGrid.from_points(
            [(0.5, 0.5), (0.5 + 1e-15, 0.5), (0.25, 0.75)]
        )
        result = check_gram(build_example51(0.9), grid)
        assert not result.passed
        assert result.measure > 1e-3 or math.isinf(result.measure)


    def test_failing_node_half_reports_its_own_measure(self):
        # the oracle half passes; the 64- vs 128-node half cannot meet 1e-20
        result = check_double_caputo(tol_nodes=1e-20)
        assert not result.passed
        assert result.measure > result.tol
        assert result.line().startswith("FAIL")

    def test_asymmetric_gram_fails_the_gram_check(self, monkeypatch):
        # one entry skewed beyond the symmetry tolerance, as too few quadrature nodes leave it
        assemble = verification.assemble_gram

        def skewed(basis):
            gram = assemble(basis)
            gram.entries[0, 1] += 1e-6 * (1.0 + abs(gram.entries[0, 1]))
            return gram

        monkeypatch.setattr(verification, "assemble_gram", skewed)
        result = check_gram(build_example52(0.8), CollocationGrid.uniform(6, 6))
        assert not result.passed
        assert result.measure > 1e-8
        assert result.name == "gram symmetry / orthonormality"


def _nan(*args, **kwargs):
    return math.nan


_DC_TABLE = verification._dc_table

# (check, module, name, stub): the stub puts a NaN into one part of the check's measure
NAN_STUBS = {
    "gamma reflection": (verification.check_gamma_reflection, verification, "gamma", _nan),
    "quadrature vs moments": (check_quadrature_vs_moments, verification, "weighted_moment", _nan),
    "caputo power": (verification.check_caputo_power_identity, fracmath, "caputo_power", _nan),
    "reproducing properties": (
        verification.check_reproducing_properties,
        kernels,
        "r3",
        lambda x, xi, *orders: np.full(np.broadcast(x, xi).shape, math.nan),
    ),
    "single transform": (check_time_kernel_oracle, verification, "_ctk_table", lambda *a: np.array(math.nan)),
    "double transform": (
        check_double_caputo, verification, "_dc_table", lambda t_i, t_j, a, n: np.full(np.shape(t_i), math.nan)
    ),
    # the oracle half passes, so only the node half's NaN can fail the check
    "double transform, 128 nodes": (
        check_double_caputo,
        verification,
        "_dc_table",
        lambda t_i, t_j, a, n: _DC_TABLE(t_i, t_j, a, n) if n == 64 else np.full(np.shape(t_i), math.nan),
    ),
    "gram": (
        lambda: check_gram(build_example51(0.9), CollocationGrid.uniform(3, 3)),
        verification,
        "compute_beta",
        lambda gram: types.SimpleNamespace(beta=np.full(gram.entries.shape, math.nan)),
    ),
    "forcing": (
        check_forcing, verification, "verify_forcing", lambda pr, tol: types.SimpleNamespace(max_discrepancy=math.nan)
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_STUBS))
def test_nan_measure_fails_its_check(monkeypatch, case):
    # max(worst, nan) keeps worst, so a check folded with max passed with measure 0.0
    check, module, name, stub = NAN_STUBS[case]
    monkeypatch.setattr(module, name, stub)
    result = check()
    assert not result.passed
    assert math.isnan(result.measure)
    assert result.line().startswith("FAIL") and "nan" in result.line()


class TestDoubleCaputoOracle:
    def test_degenerate_slots(self):
        assert double_caputo_oracle(0.0, 0.5, 0.8) == 0.0
        assert double_caputo_oracle(0.5, 0.0, 0.8) == 0.0


class TestTimeKernelOracle:
    @staticmethod
    def _four_powers(eta, t, alpha, cells):
        """The oracle with each cell's two ends raised to both exponents separately."""
        pts = np.linspace(0.0, t, cells + 1)
        at = np.searchsorted(pts, eta)
        if 0.0 < eta < t and pts[at] != eta:
            pts = np.insert(pts, at, eta)
        lo, hi = pts[:-1], pts[1:]
        phi = lambda r: np.where(r < eta, -0.5 * r * r + eta * r + eta, eta + 0.5 * eta * eta)
        p0 = ((t - lo) ** (1 - alpha) - (t - hi) ** (1 - alpha)) / (1 - alpha)
        p1 = t * p0 - ((t - lo) ** (2 - alpha) - (t - hi) ** (2 - alpha)) / (2 - alpha)
        f_lo, f_hi = phi(lo), phi(hi)
        slope = (f_hi - f_lo) / (hi - lo)
        return float(np.sum(f_lo * p0 + slope * (p1 - lo * p0)) / gamma(1.0 - alpha))

    @pytest.mark.parametrize(
        "eta, t, alpha",
        [
            (0.3337, 0.8, 0.7),  # eta inserted into the mesh
            (0.4, 0.8, 0.5),  # eta already a mesh point at 1000 cells
            (0.6, 0.6, 0.9),  # eta = t
            (0.9, 0.35, 0.25),  # eta > t
            (0.05, 1.0, 0.95),
        ],
    )
    def test_oracle_keeps_the_bits_of_the_four_power_formula(self, eta, t, alpha):
        for cells in (7, 1000):
            assert time_kernel_oracle(eta, t, alpha, cells) == self._four_powers(eta, t, alpha, cells)
