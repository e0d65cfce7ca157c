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
"""

import numpy as np
from numpy.polynomial.polynomial import polyval2d

__all__ = ["r1", "r2", "r3"]


def _check_unit(name: str, value: float) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} = {value} outside the domain [0, 1]")
    return v


def _check_order(name: str, value: int, top: int) -> int:
    if value not in range(top + 1):
        raise ValueError(f"{name} must be an integer in 0..{top}, got {value}")
    return value


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


def _two_branch(tables, param, arg, d_param, d_arg):
    if arg <= param:
        return float(polyval2d(param, arg, tables[(d_param, d_arg)]))
    return float(polyval2d(arg, param, tables[(d_arg, d_param)]))


def r1(x: float, xi: float) -> float:
    """First-order kernel, 1 + min(x, xi)."""
    x = _check_unit("x", x)
    xi = _check_unit("xi", xi)
    return 1.0 + min(x, xi)


def r2(t: float, eta: float, dt_order: int = 0, deta_order: int = 0) -> float:
    """Second-order time kernel, or a partial derivative of it.

    Satisfies r2(t, 0) = 0 and r2(t, eta) = r2(eta, t).
    """
    t = _check_unit("t", t)
    eta = _check_unit("eta", eta)
    _check_order("dt_order", dt_order, 2)
    _check_order("deta_order", deta_order, 2)
    # a section with an underived slot pinned at eta = 0 (or t = 0) is
    # identically zero, so every remaining derivative vanishes exactly
    if (deta_order == 0 and eta == 0.0) or (dt_order == 0 and t == 0.0):
        return 0.0
    return _two_branch(_D2, t, eta, dt_order, deta_order)


def r3(x: float, xi: float, dx_order: int = 0, dxi_order: int = 0) -> float:
    """Third-order space kernel, or a partial derivative of it.

    Satisfies r3(x, 0) = r3(x, 1) = 0 and r3(x, xi) = r3(xi, x).
    """
    x = _check_unit("x", x)
    xi = _check_unit("xi", xi)
    _check_order("dx_order", dx_order, 3)
    _check_order("dxi_order", dxi_order, 3)
    # sections pinned at an underived boundary slot are identically zero
    if (dxi_order == 0 and (xi == 0.0 or xi == 1.0)) or (
        dx_order == 0 and (x == 0.0 or x == 1.0)
    ):
        return 0.0
    return _two_branch(_D3, x, xi, dx_order, dxi_order)
