"""Closed-form reproducing kernels on [0, 1] and their partial derivatives.

Three univariate kernels are provided:

* ``r1``: first-order space, value 1 + min(x, xi).
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

``r2`` and ``r3`` also take arrays, and sequences of derivative orders.
Every derivative order's coefficient table is zero-padded to the
underived table's shape and stacked at import; an array call evaluates
all the orders it is given in one Horner pass over that stack, picks the
branch elementwise and keeps the exact-zero sections.  A Horner step over
a padded zero coefficient adds an exact zero, so every element is
bit-identical to the scalar call for that pair and order.  The pass over
the coefficient rows runs on the first argument alone, on as many
columns at once as keep it no larger than the result, so besides the
result a call holds one array of the result's size: the other branch.
"""

import math

import numpy as np
from numpy.polynomial.polynomial import polyval2d

__all__ = ["r1", "r2", "r3"]


def _check_unit(name: str, value: float) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} = {value} outside the domain [0, 1]")
    return v


def _check_order(name: str, value, top: int) -> None:
    """Check an order, or each of a sequence of orders, to be an integer in 0..top."""
    if np.ndim(value) > 1:
        raise ValueError(f"{name} must be an order or a sequence of orders")
    for v in np.ravel(value).tolist():
        if v not in range(top + 1):
            raise ValueError(f"{name} must be an integer in 0..{top}, got {v}")


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


def _two_branch(tables, param, arg, d_param, d_arg):
    if arg <= param:
        return float(polyval2d(param, arg, tables[(d_param, d_arg)]))
    return float(polyval2d(arg, param, tables[(d_arg, d_param)]))


def _horner(tables, u, v):
    """polyval2d(u, v, table) for each table of the stack, along a new first axis.

    The steps are polyval2d's, elementwise: a Horner pass over the rows
    in u for every coefficient column, then a pass over the columns in v.
    The row pass runs on u before it meets v, on as many columns at once
    as keep its values no larger than the result, so the result is the
    only array of its size.
    """
    shape = np.broadcast_shapes(u.shape, v.shape)
    c = tables.reshape(tables.shape + (1,) * len(shape))
    u0, v0 = u * 0, v * 0
    step = max(1, math.prod(shape) // max(u.size, 1))
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
    """The kernel at every pair of the broadcast arrays, each as the scalar path computes it.

    ``d_param`` and ``d_arg`` are orders, or sequences of orders broadcast
    together; for sequences the result stacks one derivative per order
    along a new first axis.  Both branch polynomials run the scalar
    path's Horner steps elementwise; a section whose underived slot sits
    at a pinned value is exactly zero.
    """
    dp, da = (np.atleast_1d(np.asarray(o, dtype=np.intp)) for o in (d_param, d_arg))
    values = _horner(stack[dp, da], param, arg)
    np.copyto(values, _horner(stack[da, dp], arg, param), where=arg > param)
    lead = (-1,) + (1,) * (values.ndim - 1)
    zero = (da == 0).reshape(lead) & _at_any(arg, pinned)
    zero = zero | (dp == 0).reshape(lead) & _at_any(param, pinned)
    np.copyto(values, 0.0, where=zero)
    return values if np.ndim(d_param) or np.ndim(d_arg) else values[0]


def _check_units(name: str, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    outside = ~((0.0 <= v) & (v <= 1.0))
    if outside.any():
        raise ValueError(f"{name} = {v[outside].flat[0]} outside the domain [0, 1]")
    return v


def r1(x: float, xi: float) -> float:
    """First-order kernel, 1 + min(x, xi)."""
    x = _check_unit("x", x)
    xi = _check_unit("xi", xi)
    return 1.0 + min(x, xi)


def r2(t, eta, dt_order: int = 0, deta_order: int = 0):
    """Second-order time kernel, or a partial derivative of it.

    Satisfies r2(t, 0) = 0 and r2(t, eta) = r2(eta, t).  ``t`` and ``eta``
    may be arrays: the result is then the kernel at every pair of the
    broadcast arrays, each element bit-identical to the scalar call.  The
    orders may be sequences, broadcast together: the result then holds one
    such array per order, stacked along a new first axis.
    """
    _check_order("dt_order", dt_order, 2)
    _check_order("deta_order", deta_order, 2)
    if np.ndim(t) or np.ndim(eta) or np.ndim(dt_order) or np.ndim(deta_order):
        return _on_arrays(_S2, (0.0,), _check_units("t", t), _check_units("eta", eta), dt_order, deta_order)
    t = _check_unit("t", t)
    eta = _check_unit("eta", eta)
    # a section with an underived slot pinned at eta = 0 (or t = 0) is
    # identically zero, so every remaining derivative vanishes exactly
    if (deta_order == 0 and eta == 0.0) or (dt_order == 0 and t == 0.0):
        return 0.0
    return _two_branch(_D2, t, eta, dt_order, deta_order)


def r3(x, xi, dx_order: int = 0, dxi_order: int = 0):
    """Third-order space kernel, or a partial derivative of it.

    Satisfies r3(x, 0) = r3(x, 1) = 0 and r3(x, xi) = r3(xi, x).  ``x``
    and ``xi`` may be arrays, and the orders sequences, as for ``r2``.
    """
    _check_order("dx_order", dx_order, 3)
    _check_order("dxi_order", dxi_order, 3)
    if np.ndim(x) or np.ndim(xi) or np.ndim(dx_order) or np.ndim(dxi_order):
        return _on_arrays(_S3, (0.0, 1.0), _check_units("x", x), _check_units("xi", xi), dx_order, dxi_order)
    x = _check_unit("x", x)
    xi = _check_unit("xi", xi)
    # sections pinned at an underived boundary slot are identically zero
    if (dxi_order == 0 and (xi == 0.0 or xi == 1.0)) or (
        dx_order == 0 and (x == 0.0 or x == 1.0)
    ):
        return 0.0
    return _two_branch(_D3, x, xi, dx_order, dxi_order)
