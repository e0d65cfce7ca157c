"""Closed-form reproducing kernels on [0, 1] and their partial derivatives.

Two univariate kernels are provided:

* ``r2``: second-order space of functions vanishing at 0, a two-branch
  cubic in (t, eta).
* ``r3``: third-order space of functions vanishing at 0 and 1, a two-branch
  quintic in (x, xi).

The tensor product r3(x, xi) * r2(t, eta) reproduces the bivariate
solution space.  Each kernel is symmetric, and the branch for
argument > parameter is the branch polynomial with its arguments swapped,
so a single bivariate coefficient table per kernel suffices.  On the
diagonal the "arg <= param" branch applies; derivatives of total order
two and higher jump across the diagonal, so integration across it must
split there.

``r2`` and ``r3`` have one evaluator, for scalars and arrays alike, and
take sequences of derivative orders too; a scalar call is a 0-d array
call that returns a float.  Every derivative order's coefficient table
is zero-padded to the underived table's shape and stacked at import; a
call evaluates all the orders it is given in one Horner pass over that
stack, picks the branch elementwise and keeps the exact-zero sections.
A Horner step over a padded zero coefficient adds an exact zero, so
every element is bit-identical to a two-dimensional ``polyval`` of that
order's own table at that pair.  The pass over the coefficient rows runs
on the first argument alone, on as many columns at once as keep it no
larger than the result, so besides the result a call holds one array of
the result's size: the other branch.
"""

import math

import numpy as np

from .fracmath import _check_orders

__all__ = ["r2", "r3"]


def _diff_table(coeffs: np.ndarray, du: int, dv: int) -> np.ndarray:
    table = coeffs
    for _ in range(du):
        table = table[1:, :] * np.arange(1, table.shape[0])[:, None]
    for _ in range(dv):
        table = table[:, 1:] * np.arange(1, table.shape[1])[None, :]
    if table.size == 0:  # differentiated past the degree
        table = np.zeros((1, 1))
    table = np.ascontiguousarray(table)
    table.flags.writeable = False
    return table


# Branch polynomial of r3 for arg <= param, as coefficients of
# param**i * arg**j.  Vanishes identically at arg = 0 and at param = 1.
_C3 = np.zeros((6, 6))
_C3[1, 1] = 120.0
_C3[2, 1] = -120.0
_C3[1, 2] = -120.0
_C3[2, 2] = 126.0
_C3[3, 2] = -10.0
_C3[4, 2] = 5.0
_C3[5, 2] = -1.0
_C3[1, 4] = -5.0
_C3[2, 4] = 5.0
_C3[0, 5] = 1.0
_C3[2, 5] = -1.0
_C3 /= 120.0

# Branch polynomial of r2 for arg <= param: param*arg + param*arg**2/2 - arg**3/6.
_C2 = np.zeros((2, 4))
_C2[1, 1] = 1.0
_C2[1, 2] = 0.5
_C2[0, 3] = -1.0 / 6.0

# each derivative order's own table, keyed by (param order, arg order)
_D3 = {(a, b): _diff_table(_C3, a, b) for a in range(4) for b in range(4)}
_D2 = {(a, b): _diff_table(_C2, a, b) for a in range(3) for b in range(3)}


def _stack(tables, shape, top):
    """``tables[(a, b)]`` zero-padded to ``shape``, at [a, b] of one read-only array."""
    stack = np.zeros((top + 1, top + 1) + shape)
    for (a, b), table in tables.items():
        stack[a, b, : table.shape[0], : table.shape[1]] = table
    stack.flags.writeable = False
    return stack


_S3 = _stack(_D3, _C3.shape, 3)
_S2 = _stack(_D2, _C2.shape, 2)


def _horner(tables, u, v):
    """The 2-D power series of each table of the stack at (u, v), along a new first axis.

    The steps are numpy's two-dimensional ``polyval``, elementwise: a
    Horner pass over the rows in u for every coefficient column, then a
    pass over the columns in v.  The row pass runs on u before it meets
    v, on as many columns at once as keep its values no larger than the
    result, so the result is the only array of its size; a result smaller
    than a row of coefficients, such as a scalar call's, takes all the
    columns in one pass.  Each column's steps are the same either way.
    """
    shape = np.broadcast_shapes(u.shape, v.shape)
    c = tables.reshape(tables.shape + (1,) * len(shape))
    u0, v0 = u * 0, v * 0
    step = max(1, max(math.prod(shape), c.shape[2]) // max(u.size, 1))
    total = None
    for stop in range(c.shape[2], 0, -step):
        cols = slice(max(stop - step, 0), stop)
        rows = c[:, -1, cols] + u0
        for i in range(c.shape[1] - 2, -1, -1):
            rows = c[:, i, cols] + rows * u
        for col in rows.swapaxes(0, 1)[::-1]:
            if total is None:
                total = col + v0
            else:
                total *= v
                total += col
    return total


def _at_any(x, values):
    """Where x equals one of a few values; on short rows cheaper than ``np.isin``."""
    mask = x == values[0]
    for v in values[1:]:
        mask |= x == v
    return mask


def _on_arrays(stack, pinned, param, arg, d_param, d_arg):
    """The kernel at every pair of the broadcast arrays, 0-d included.

    ``d_param`` and ``d_arg`` are orders, or sequences of orders broadcast
    together; for sequences the result stacks one derivative per order
    along a new first axis.  Both branch polynomials run their Horner
    steps elementwise and the branch is picked per pair; a section whose
    underived slot sits at a pinned value is exactly +0.0.  Scalar
    arguments and orders give a float.
    """
    dp, da = (np.atleast_1d(np.asarray(o, dtype=np.intp)) for o in (d_param, d_arg))
    values = _horner(stack[dp, da], param, arg)
    np.copyto(values, _horner(stack[da, dp], arg, param), where=arg > param)
    lead = (-1,) + (1,) * (values.ndim - 1)
    zero = (da == 0).reshape(lead) & _at_any(arg, pinned)
    zero = zero | (dp == 0).reshape(lead) & _at_any(param, pinned)
    np.copyto(values, 0.0, where=zero)
    if np.ndim(d_param) or np.ndim(d_arg):
        return values
    return values[0] if values.ndim > 1 else float(values[0])


def _check_units(name: str, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    outside = ~((0.0 <= v) & (v <= 1.0))
    if outside.any():
        raise ValueError(f"{name} = {v[outside].flat[0]} outside the domain [0, 1]")
    return v


def r2(t, eta, dt_order: int = 0, deta_order: int = 0):
    """Second-order time kernel, or a partial derivative of it.

    Satisfies r2(t, 0) = 0 and r2(t, eta) = r2(eta, t).  Scalar ``t`` and
    ``eta`` give a float.  Arrays give the kernel at every pair of the
    broadcast arrays, each element the value of the scalar call.  The
    orders may be sequences, broadcast together: the result then holds one
    such value or array per order, stacked along a new first axis.

    >>> r2(0.5, 0.3)
    0.168
    >>> r2([0.0, 0.5], 0.3)
    array([0.   , 0.168])

    Raises:
        ValueError: on a point outside [0, 1], NaN included, or an order
            that is not an integer in 0..2; a bool or a float, integral
            or not, is not an integer.
    """
    _check_orders("dt_order", dt_order, 2)
    _check_orders("deta_order", deta_order, 2)
    return _on_arrays(_S2, (0.0,), _check_units("t", t), _check_units("eta", eta), dt_order, deta_order)


def r3(x, xi, dx_order: int = 0, dxi_order: int = 0):
    """Third-order space kernel, or a partial derivative of it.

    Satisfies r3(x, 0) = r3(x, 1) = 0 and r3(x, xi) = r3(xi, x).  ``x``
    and ``xi`` may be scalars or arrays, and the orders sequences, as for
    ``r2``.

    >>> r3(0.5, 0.5)
    0.06315104166666667
    >>> r3(0.5, [0.0, 0.5, 1.0])
    array([0.        , 0.06315104, 0.        ])

    Raises:
        ValueError: as for ``r2``, with orders in 0..3.
    """
    _check_orders("dx_order", dx_order, 3)
    _check_orders("dxi_order", dxi_order, 3)
    return _on_arrays(_S3, (0.0, 1.0), _check_units("x", x), _check_units("xi", xi), dx_order, dxi_order)
