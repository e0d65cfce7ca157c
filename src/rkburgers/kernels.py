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

``r2`` and ``r3`` also take arrays.  They then run the same Horner steps
on the same coefficient tables, pick the branch elementwise and keep the
exact-zero sections, so every element is bit-identical to the scalar call
at that pair.
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


def _on_arrays(tables, pinned, param, arg, d_param, d_arg):
    """The kernel at every pair of the broadcast arrays, each as the scalar path computes it.

    Both branch polynomials run the scalar path's Horner steps elementwise;
    a section whose underived slot sits at a pinned value is exactly zero.
    """
    param, arg = np.broadcast_arrays(param, arg)
    zero = np.zeros(param.shape, dtype=bool)
    if d_arg == 0:
        zero |= np.isin(arg, pinned)
    if d_param == 0:
        zero |= np.isin(param, pinned)
    low = polyval2d(param, arg, tables[(d_param, d_arg)])
    high = polyval2d(arg, param, tables[(d_arg, d_param)])
    return np.where(zero, 0.0, np.where(arg <= param, low, high))


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
    broadcast arrays, each element bit-identical to the scalar call.
    """
    _check_order("dt_order", dt_order, 2)
    _check_order("deta_order", deta_order, 2)
    if np.ndim(t) or np.ndim(eta):
        return _on_arrays(_D2, (0.0,), _check_units("t", t), _check_units("eta", eta), dt_order, deta_order)
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
    and ``xi`` may be arrays, as for ``r2``.
    """
    _check_order("dx_order", dx_order, 3)
    _check_order("dxi_order", dxi_order, 3)
    if np.ndim(x) or np.ndim(xi):
        return _on_arrays(_D3, (0.0, 1.0), _check_units("x", x), _check_units("xi", xi), dx_order, dxi_order)
    x = _check_unit("x", x)
    xi = _check_unit("xi", xi)
    # sections pinned at an underived boundary slot are identically zero
    if (dxi_order == 0 and (xi == 0.0 or xi == 1.0)) or (
        dx_order == 0 and (x == 0.0 or x == 1.0)
    ):
        return 0.0
    return _two_branch(_D3, x, xi, dx_order, dxi_order)
