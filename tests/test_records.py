"""The result records are NamedTuples; the validated inputs stay dataclasses.

The records keep their field names, order and defaults, and refuse
attribute assignment.  ``Problem`` stays a frozen dataclass, so
``dataclasses.replace`` (which the traced benchmark runs use to wrap a
problem's callables) still copies it and runs its boundary check.
"""

import dataclasses

import pytest

from rkburgers import (
    ApproximateSolution,
    BasisFunction,
    CollocationGrid,
    ErrorReport,
    GramMatrix,
    OrthonormalBasis,
    Problem,
    SeparableSolution,
    build_example51,
    convergence_study,
    error_report,
    verify_forcing,
)
from rkburgers.cli import RunConfig
from rkburgers.problems import ForcingReport
from rkburgers.solver import ConvergenceRow
from rkburgers.verification import CheckResult, check_gamma_reflection

# record: (field names in order, defaults)
RECORDS = {
    BasisFunction: (("xi", "eta", "k1", "k2", "k3", "alpha"), {}),
    GramMatrix: (("entries",), {}),
    OrthonormalBasis: (("beta", "source"), {}),
    SeparableSolution: (("space", "space_d1", "space_d2", "time_power"), {}),
    ForcingReport: (("max_discrepancy", "passed"), {}),
    ApproximateSolution: (
        ("B", "basis", "basis_functions", "problem", "grid", "F_values", "raw_coeffs", "picard_iters"),
        {"picard_iters": 0},
    ),
    ErrorReport: (("errors", "max_abs_error", "mean_abs_error"), {}),
    ConvergenceRow: (("n", "max_abs_error", "wall_seconds"), {}),
    CheckResult: (("name", "passed", "measure", "tol"), {}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_fields_order_and_defaults(record):
    fields, defaults = RECORDS[record]
    assert record._fields == fields
    assert record._field_defaults == defaults
    made = record(*range(len(fields) - len(defaults)))
    assert tuple(made) == tuple(range(len(fields) - len(defaults))) + tuple(defaults.values())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_attributes_cannot_be_set(record):
    made = record._make(range(len(record._fields)))
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(made, name, -1)
    assert tuple(made) == tuple(range(len(record._fields)))


def test_a_solve_hands_back_records(solution_factory):
    sol = solution_factory("1", 0.9, 3, 3)
    points = [(0.25, 0.5), (0.5, 0.5)]
    found = {
        ApproximateSolution: sol,
        OrthonormalBasis: sol.basis,
        GramMatrix: sol.basis.source,
        BasisFunction: sol.basis_functions[0],
        SeparableSolution: sol.problem.exact,
        ErrorReport: error_report(sol, points),
        ForcingReport: verify_forcing(sol.problem),
        ConvergenceRow: convergence_study(sol.problem, [(2, 2)], points)[0],
        CheckResult: check_gamma_reflection(),
    }
    assert set(found) == set(RECORDS)
    for record, value in found.items():
        assert type(value) is record
        with pytest.raises(AttributeError):
            setattr(value, record._fields[0], None)
    # the solution keeps G, not the rows its sweep read
    assert sol.n == 9 and tuple(sol.basis.source) == (sol.basis.source.entries,)
    assert isinstance(sol.problem.exact, SeparableSolution)
    exact = sol.problem.exact
    assert exact(0.5, 0.5) == exact.space(0.5) * 0.5**exact.time_power


def test_records_are_tuples():
    row = ConvergenceRow(n=4, max_abs_error=0.5, wall_seconds=0.25)
    n, err, _ = row
    assert (n, err, row[2]) == (4, 0.5, 0.25)
    assert row == (4, 0.5, 0.25)


def test_check_result_line():
    assert CheckResult("gamma", True, 1e-12, 1e-10).line() == "PASS  gamma: measure 1.000e-12 (tol 1e-10)"
    assert CheckResult("gamma", False, 0.5, 1e-10).line() == "FAIL  gamma: measure 5.000e-01 (tol 1e-10)"


def test_problem_replace_copies_and_validates():
    problem = build_example51(0.9)

    def k1(xi, eta):
        return 0.0

    changed = dataclasses.replace(problem, k1=k1)
    assert type(changed) is Problem and changed.k1 is k1
    assert (changed.k2, changed.exact, changed.alpha, changed.name) == (
        problem.k2,
        problem.exact,
        problem.alpha,
        problem.name,
    )
    with pytest.raises(ValueError, match="homogeneous"):
        dataclasses.replace(problem, exact=lambda xi, eta: 1.0)


def test_validated_inputs_stay_dataclasses():
    for cls in (Problem, CollocationGrid, RunConfig):
        assert dataclasses.is_dataclass(cls)
    cfg = RunConfig()
    cfg.p = 3  # the CLI sets its fields
    assert cfg.p == 3
