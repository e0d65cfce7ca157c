"""Frozen references for the kernels, the fractional transforms, the basis, beta and the norm-recursion defect.

These are the one-value-at-a-time functions the solver computed with
before its array tables existed, kept verbatim: the scalar kernels ``r2``
and ``r3`` (one ``polyval2d`` per value, on the package's coefficient
tables ``_D2`` and ``_D3``), the scalar Caputo time factors ``_ctk`` and
``_dc``, ``psi_eval``'s body, ``apply_operator`` and the scalar
``weighted_moment``; ``split_rows`` as it was when it split a whole
matrix at once, slice after slice; ``norm_recursion_defect`` as it was
when it multiplied all of G against every block of prefixes, with
error-free products and compensated sums; and ``compute_beta`` as it was
when it split all of the Cholesky factor at once and refined with full
n x n products.  The package's array code performs the same
floating-point operations in the same order, beta too but for products
with zeros, so the tests compare it with these bit for bit (beta up to
n = 100; on larger grids BLAS may add the terms of the package's shorter
panel products in another order).  The defect is the exception: the
package evaluates it in plain float64, and the tests hold it to this
error-free reference within its forward-error bound.  Do not change them
to follow the package: a change here moves the reference, not the code
under test."""

import math

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from rkburgers.fracmath import DEFAULT_QUADRATURE_NODES, _check_orders, gamma, jacobi_rule
from rkburgers.kernels import _D2, _D3
from rkburgers.operator import BasisFunction, Problem
from rkburgers.orthonormalize import _ROW_BLOCK, _cholesky, _invert_lower, _two_sum_into


def _check_unit(name: str, value: float) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} = {value} outside the domain [0, 1]")
    return v


def _two_branch(tables, param, arg, d_param, d_arg):
    if arg <= param:
        return float(polyval2d(param, arg, tables[(d_param, d_arg)]))
    return float(polyval2d(arg, param, tables[(d_arg, d_param)]))


def r2(t: float, eta: float, dt_order: int = 0, deta_order: int = 0) -> float:
    """Second-order time kernel, or a partial derivative of it, at one pair."""
    _check_orders("dt_order", dt_order, 2)
    _check_orders("deta_order", deta_order, 2)
    t = _check_unit("t", t)
    eta = _check_unit("eta", eta)
    # a section with an underived slot pinned at eta = 0 (or t = 0) is
    # identically zero, so every remaining derivative vanishes exactly
    if (deta_order == 0 and eta == 0.0) or (dt_order == 0 and t == 0.0):
        return 0.0
    return _two_branch(_D2, t, eta, dt_order, deta_order)


def r3(x: float, xi: float, dx_order: int = 0, dxi_order: int = 0) -> float:
    """Third-order space kernel, or a partial derivative of it, at one pair."""
    _check_orders("dx_order", dx_order, 3)
    _check_orders("dxi_order", dxi_order, 3)
    x = _check_unit("x", x)
    xi = _check_unit("xi", xi)
    # sections pinned at an underived boundary slot are identically zero
    if (dxi_order == 0 and (xi == 0.0 or xi == 1.0)) or (
        dx_order == 0 and (x == 0.0 or x == 1.0)
    ):
        return 0.0
    return _two_branch(_D3, x, xi, dx_order, dxi_order)


def weighted_moment(m: int, alpha: float, a: float, b: float, c: float) -> float:
    """Closed form of integral_a^b r**m (c - r)**(-alpha) dr for 0 <= a <= b <= c.

    Substituting u = c - r and expanding (c - u)**m binomially around the
    singular endpoint gives a finite sum of powers u**(j+1-alpha); expanding
    there keeps the evaluation stable when b is close to c.

    Raises:
        ValueError: on a non-integrable range (b > c) or disordered limits.
    """
    if m < 0 or m != int(m):
        raise ValueError(f"moment order must be a non-negative integer, got {m}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"weight exponent must lie in (0, 1), got {alpha}")
    if b > c:
        raise ValueError(f"non-integrable singularity inside range: b = {b} > c = {c}")
    if not (0.0 <= a <= b):
        raise ValueError(f"integration limits must satisfy 0 <= a <= b, got a = {a}, b = {b}")
    if a == b:
        return 0.0
    m = int(m)
    lo, hi = c - b, c - a
    total = 0.0
    for j in range(m + 1):
        p = j + 1.0 - alpha
        term = math.comb(m, j) * c ** (m - j) * (hi**p - lo**p) / p
        total += -term if j % 2 else term
    return total


def _ctk(eta: float, t_i: float, a: float) -> float:
    if t_i <= 0.0:
        return 0.0
    if a == 1.0:
        # classical limit: the transform collapses to the plain derivative
        return r2(t_i, eta, 1, 0)
    m = min(eta, t_i)
    val = (
        -0.5 * weighted_moment(2, a, 0.0, m, t_i)
        + eta * weighted_moment(1, a, 0.0, m, t_i)
        + eta * weighted_moment(0, a, 0.0, m, t_i)
    )
    if t_i > eta:
        val += (eta + 0.5 * eta * eta) * weighted_moment(0, a, m, t_i, t_i)
    return val / gamma(1.0 - a)


def _dc(t_i: float, t_j: float, a: float, n_nodes: int) -> float:
    if t_i <= 0.0 or t_j <= 0.0:
        return 0.0
    if a == 1.0:
        # classical limit: the mixed kernel derivative 1 + min(r, s)
        return 1.0 + min(t_i, t_j)
    c = gamma(1.0 - a)
    k1 = (1.0 + t_i) * t_i ** (1.0 - a) / (1.0 - a) - t_i ** (2.0 - a) / (2.0 - a)
    k2 = 1.0 / ((1.0 - a) * (2.0 - a))
    const_part = k1 * t_j ** (1.0 - a) / (1.0 - a)
    if t_i == t_j:
        frac_part = t_i ** (3.0 - 2.0 * a) / (3.0 - 2.0 * a)
    elif t_j < t_i:
        u, w = jacobi_rule(-a, n_nodes)
        frac_part = t_j ** (1.0 - a) * float(w @ (t_i - t_j * u) ** (2.0 - a))
    else:
        u, w = jacobi_rule(2.0 - a, n_nodes)
        frac_part = t_i ** (3.0 - a) * float(w @ (t_j - t_i * u) ** (-a))
    return (const_part - k2 * frac_part) / (c * c)


def psi_eval(b: BasisFunction, xi: float, eta: float, dxi_order: int = 0) -> float:
    """Evaluate psi_i (or its xi-derivative of order 0 or 1) at (xi, eta).

    Vanishes identically on xi = 0, xi = 1 and eta = 0.
    """
    if dxi_order not in (0, 1):
        raise ValueError(f"dxi_order must be 0 or 1, got {dxi_order}")
    space_frac = r3(b.xi, xi, 0, dxi_order)
    space_smooth = (
        b.k1 * r3(b.xi, xi, 2, dxi_order)
        + b.k2 * space_frac
        + b.k3 * r3(b.xi, xi, 1, dxi_order)
    )
    return r2(b.eta, eta) * space_smooth + _ctk(eta, b.eta, b.alpha) * space_frac


def apply_operator(
    b: BasisFunction,
    problem: Problem,
    xi: float,
    eta: float,
    nodes: int = DEFAULT_QUADRATURE_NODES,
) -> float:
    """(L psi_b)(xi, eta) with the coefficient functions sampled at (xi, eta).

    Expands into products of time factors (plain, single and double Caputo
    transforms of r2) with space factors (r3 derivatives up to order two in
    each slot).  At a collocation point this is exactly the Gram entry.
    """
    a = b.alpha
    c1 = problem.k1(xi, eta)
    c2 = problem.k2(xi, eta)
    c3 = problem.k3(xi, eta)

    s00 = r3(b.xi, xi, 0, 0)
    s01 = r3(b.xi, xi, 0, 1)
    s02 = r3(b.xi, xi, 0, 2)
    a0 = b.k1 * r3(b.xi, xi, 2, 0) + b.k2 * s00 + b.k3 * r3(b.xi, xi, 1, 0)
    a1 = b.k1 * r3(b.xi, xi, 2, 1) + b.k2 * s01 + b.k3 * r3(b.xi, xi, 1, 1)
    a2 = b.k1 * r3(b.xi, xi, 2, 2) + b.k2 * s02 + b.k3 * r3(b.xi, xi, 1, 2)

    r2v = r2(b.eta, eta)
    phi = _ctk(eta, b.eta, a)  # fractional time factor of psi_b itself

    total = (
        c1 * (phi * s02 + r2v * a2)
        + c2 * (phi * s00 + r2v * a0)
        + c3 * (phi * s01 + r2v * a1)
    )
    # Caputo transform, at eta, of each of psi_b's two time factors.
    total += _ctk(b.eta, eta, a) * a0
    total += _dc(b.eta, eta, a, nodes) * s00
    return total


def _two_prod(a, b):
    """Elementwise product with its exact floating-point error term."""
    p = a * b
    ah = a * 134217729.0
    ah = ah - (ah - a)
    al = a - ah
    bh = b * 134217729.0
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _round_off(rest, bits):
    """Cut the next rounded slice off rest, in place, and return it.

    With 2**(e-1) <= max|rest_i| < 2**e, rest_i + sigma lies in
    [sigma/2, 2 sigma), where the floats are spaced at least 2**(e - bits)
    apart; so is the slice, down to the smallest subnormal.
    """
    _, exponent = np.frexp(np.max(np.abs(rest), axis=1, initial=0.0))
    sigma = np.ldexp(1.0, exponent + 53 - bits)[:, None]
    piece = rest + sigma
    piece -= sigma
    rest -= piece
    return piece


def split_rows(m):
    """Row slices s_1 + s_2 + s_3 == m, exact, the first two rounded to at most ``bits`` significant bits per row."""
    rest = np.array(m, dtype=float)
    bits = (53 - math.ceil(math.log2(max(rest.shape[1], 1)))) // 2 - 1
    return [_round_off(rest, bits) for _ in range(2)] + [rest]


def norm_recursion_defect(s) -> float:
    """Max over prefixes m of | ||y_m||^2 - sum B_i^2 | / (1 + sum B_i^2), over all of G.

    Each block of prefixes, U, is multiplied against the whole of G, whose
    rows past the block's last prefix meet only U's zeros: G and U are
    split with ``split_rows`` above, and the 9 slice products are added
    with TwoSum, a 64-row block of G at a time.  The compensated column
    sums are written out by hand.
    """
    n = s.n
    g = s.basis.source.entries
    quad = np.empty(n)
    prefix = np.zeros(n)
    g_slices = split_rows(g)
    width = max(64, n // 8)
    for start in range(0, n, width):
        stop = min(start + width, n)
        steps = s.B[start:stop, None] * s.basis.beta[start:stop]
        u = np.cumsum(np.concatenate([prefix[None], steps]), axis=0)[1:]
        prefix = u[-1]
        hi = np.zeros((n, stop - start))
        lo = np.zeros((n, stop - start))
        u_slices = split_rows(u)
        for rows in range(0, n, 64):
            h, l = hi[rows : rows + 64], lo[rows : rows + 64]
            for gi in g_slices:
                for uj in u_slices:
                    _two_sum_into(h, l, gi[rows : rows + 64] @ uj.T)
        terms, err = _two_prod(u.T, hi)
        err += u.T * lo
        block = np.zeros(stop - start)
        comp = np.add.accumulate(err, axis=0)[-1]
        for row in terms:  # TwoSum down the columns
            total = block + row
            z = total - block
            comp += (block - (total - z)) + (row - z)
            block = total
        quad[start:stop] = block + comp

    sq, sq_err = _two_prod(s.B, s.B)
    running = np.empty(n)
    acc = 0.0
    for m in range(n):
        acc = math.fsum((acc, sq[m], sq_err[m]))
        running[m] = acc
    return float(np.max(np.abs(quad - running) / (1.0 + running), initial=0.0))


def _add_exact_square(hi, low):
    """hi += low @ low' from one whole-matrix ``split_rows(low)``, a 64-column block at a time."""
    n = low.shape[0]
    x1, x2, x3 = split_rows(low)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        cols, inner = slice(start, stop), slice(0, stop)
        t_hi = x1[start:, inner] @ x1[cols, inner].T
        t_lo = x3[start:, inner] @ (x1[cols, inner] + x2[cols, inner]).T
        t_lo += low[start:, inner] @ x3[cols, inner].T
        for a, b in ((x1, x2), (x2, x1), (x2, x2)):
            _two_sum_into(t_hi, t_lo, a[start:, inner] @ b[cols, inner].T)
        below = stop - start
        for h, th, tl in ((hi[start:, cols], t_hi, t_lo), (hi[cols, stop:], t_hi[below:].T, t_lo[below:].T)):
            l = np.zeros(h.shape)
            _two_sum_into(h, l, th)
            l += tl
            h += l


def compute_beta(g) -> np.ndarray:
    """beta for a valid Gram matrix g, with the residual's slices and the refinement's products over all of n.

    The symmetrized, equilibrated A, LAPACK's factor and the blocked
    inverse are the package's; the residual splits all of L at once, and
    the refinement forms X R, Phi and Phi X as full n x n products.  The
    package's input checks are left out.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    a = g + g.T
    a *= 0.5
    d = np.sqrt(np.diag(a))
    a /= d[:, None]
    a /= d[None, :]
    low = _cholesky(a)
    np.negative(a, out=a)
    _add_exact_square(a, low)
    np.negative(a, out=a)
    x = np.zeros((n, n))
    _invert_lower(low, x)
    e = x @ a
    phi = np.tril(e @ x.T)
    phi.flat[:: n + 1] *= 0.5
    x -= phi @ x
    x /= d[None, :]
    return x
