"""Every integer argument of the package follows one rule, ``fracmath._check_count``.

Python and numpy integers pass; bools, numpy bools and floats, integral
ones included, raise ValueError naming the argument.  An argument that
takes a sequence of orders checks each element as it was given, so a
bool inside the sequence fails too.
"""

import functools
import re

import numpy as np
import pytest

from rkburgers import CollocationGrid, convergence_study, evaluate, solve
from rkburgers.cli import RunConfig
from rkburgers.fracmath import jacobi_rule, weighted_moment
from rkburgers.kernels import r2, r3
from rkburgers.operator import BasisTables, _dc_table
from rkburgers.problems import build_example51
from rkburgers.verification import double_caputo_oracle, time_kernel_oracle


@functools.lru_cache(maxsize=None)
def _solution():
    return solve(build_example51(0.9), CollocationGrid.uniform(3, 3))


def _psi(order):
    tables = BasisTables(_solution().basis_functions, [0.3], [0.4])
    return tables.psi(tables.at([0]), slice(None), order)


# id: (call on the argument, a value it accepts, the name its error gives, whether it is an order)
ARGUMENTS = {
    "uniform-p": (lambda v: CollocationGrid.uniform(v, 2), 2, "uniform grid p", False),
    "uniform-q": (lambda v: CollocationGrid.uniform(2, v), 2, "uniform grid q", False),
    "jacobi_rule-n": (lambda v: jacobi_rule(-0.5, v), 4, "node count", False),
    "_dc_table-n_nodes": (lambda v: _dc_table(0.5, 0.3, 0.8, v), 8, "node count", False),
    "solve-picard_iters": (lambda v: solve(build_example51(0.9), CollocationGrid.uniform(2, 2), v), 1, "picard_iters", False),
    "convergence_study-picard_iters": (lambda v: convergence_study(build_example51(0.9), [], [], v), 1, "picard_iters", False),
    "evaluate-dxi_order": (lambda v: evaluate(_solution(), 0.3, 0.4, v), 1, "dxi_order", True),
    "psi-dxi_order": (_psi, 1, "dxi_order", True),
    "r2-dt_order": (lambda v: r2(0.5, 0.3, v), 1, "dt_order", True),
    "r2-deta_order": (lambda v: r2(0.5, 0.3, 0, v), 1, "deta_order", True),
    "r3-dx_order": (lambda v: r3(0.5, 0.3, v), 1, "dx_order", True),
    "r3-dxi_order": (lambda v: r3(0.5, 0.3, 0, v), 1, "dxi_order", True),
    "weighted_moment-m": (lambda v: weighted_moment(v, 0.5, 0.0, 0.5, 1.0), 2, "moment order", True),
    "RunConfig-p": (lambda v: RunConfig(p=v).validate(), 3, "p", False),
    "RunConfig-q": (lambda v: RunConfig(q=v).validate(), 3, "q", False),
    "RunConfig-picard": (lambda v: RunConfig(picard=v).validate(), 1, "picard", False),
    "time_kernel_oracle-cells": (lambda v: time_kernel_oracle(0.4, 0.7, 0.8, cells=v), 100, "cells", False),
    "double_caputo_oracle-cells": (lambda v: double_caputo_oracle(0.4, 0.7, 0.8, cells=v), 100, "cells", False),
}
ORDERS = {key: case for key, case in ARGUMENTS.items() if case[3]}


@pytest.mark.parametrize("bad", [True, np.True_, 1.0], ids=["bool", "numpy-bool", "integral-float"])
@pytest.mark.parametrize("call, good, name, order", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_bools_and_floats_are_not_integers(call, good, name, order, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
        call(bad)


@pytest.mark.parametrize("call, good, name, order", ORDERS.values(), ids=ORDERS.keys())
def test_a_bool_inside_a_sequence_of_orders_is_not_an_order(call, good, name, order):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
        call((0, True))


@pytest.mark.parametrize("call, good, name, order", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_numpy_integers_are_integers(call, good, name, order):
    call(np.int64(good))
