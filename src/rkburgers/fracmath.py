"""Special functions and weakly singular integration primitives.

Everything needed for Caputo fractional calculus of order 0 < alpha <= 1
on polynomials and power functions: the gamma function, the Caputo
derivative of t**k in closed form, moments of the weight (c - r)**(-alpha),
and Gauss-Jacobi quadrature rules on (0, 1) for weights (1 - u)**exponent.

All arithmetic is plain 64-bit floating point.  The array code takes its
fractional powers from ``_power_table``: one table per call, holding the
C library's ``pow`` (a Python float ``**``) of every distinct base, found
by one ``np.unique`` over all the bases, at every exponent, so each power
is bit-identical to the scalar ``**`` and costs no numpy call of its own.
A ``weighted_moment`` call over a sequence of orders builds one such
table for all of them.
"""

import math
import numbers
from functools import lru_cache

import numpy as np

__all__ = [
    "DEFAULT_QUADRATURE_NODES",
    "gamma",
    "caputo_power",
    "weighted_moment",
    "jacobi_rule",
    "order_value",
]

DEFAULT_QUADRATURE_NODES = 64


def order_value(alpha) -> float:
    """Coerce alpha to a float order, validating 0 < alpha <= 1."""
    a = float(alpha)
    if not (0.0 < a <= 1.0):
        raise ValueError(f"fractional order must satisfy 0 < alpha <= 1, got {a}")
    return a


def _check_count(name: str, value, least: int = 1, most=None) -> None:
    """Reject a value that is not an integer in least..most (no upper bound if most is None).

    The package's one integer rule: numpy integers pass; bools, numpy bools and floats, integral ones included, do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least or most is not None and value > most:
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_orders(name: str, value, top=None) -> list:
    """One order or a 1-D sequence of orders, as ints; each is checked as given (``(0, True)`` fails), in 0..top."""
    orders = np.asarray(value, dtype=object)
    if orders.ndim > 1:
        raise ValueError(f"{name} must be an order or a sequence of orders")
    for v in orders.flat:
        _check_count(name, v, 0, top)
    return [int(v) for v in orders.flat]


def _worst(values) -> float:
    """The largest of ``values``, 0.0 for none, and NaN if any is NaN, where ``max`` would keep an earlier value."""
    return float(np.max(list(values), initial=0.0))


# Lanczos coefficients, g = 7, n = 9.  Relative error below 1e-14 on the
# positive real axis; negative arguments go through the reflection formula.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function for real x, excluding the poles at 0, -1, -2, ...

    As ``math.gamma``, gives inf at x = inf and NaN at NaN.

    Raises:
        ValueError: if x is a non-positive integer (pole) or -inf.
    """
    x = float(x)
    if x == math.inf:
        return x
    if x == -math.inf:
        raise ValueError(f"gamma has no value at x = {x}")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at non-positive integer x = {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def caputo_power(exponent: float, alpha, t: float) -> float:
    """Caputo derivative of order alpha of s -> s**exponent, evaluated at t.

    For exponent k > 0 the value is gamma(k+1)/gamma(k+1-alpha) * t**(k-alpha);
    the derivative of a constant (k = 0) is identically zero.

    Raises:
        ValueError: if t < 0 or NaN, if the exponent is NaN or infinite,
            or if 0 < exponent < alpha (the result would be unbounded at
            t = 0).
    """
    a = order_value(alpha)
    k = float(exponent)
    if not math.isfinite(k):
        raise ValueError(f"caputo_power requires a finite exponent, got {k}")
    if not t >= 0.0:
        raise ValueError(f"caputo_power requires t >= 0, got {t}")
    if k == 0.0:
        return 0.0
    if k < a:
        raise ValueError(f"caputo_power requires exponent >= alpha, got {k} < {a}")
    if k == a:
        return gamma(k + 1.0)  # t**0 with gamma(1) = 1 in the denominator
    return gamma(k + 1.0) / gamma(k + 1.0 - a) * t ** (k - a)


def _power_table(bases, exponents):
    """The C library's pow of every distinct value of the ``bases`` arrays at every exponent.

    numpy's vectorized power rounds differently from the C library's pow
    in the last bit for some arguments, so ``table[e, k]`` is a Python
    float ``**`` of the k-th distinct value at ``exponents[e]``, found by
    one ``np.unique`` over all the bases.  ``at[i]`` has the shape of
    ``bases[i]`` and holds the k of each element, so ``table[e][at[i]]``
    is ``bases[i] ** exponents[e]``.
    """
    bases = [np.asarray(x, dtype=float) for x in bases]
    distinct, inverse = np.unique(np.concatenate([x.ravel() for x in bases]), return_inverse=True)
    table = np.array([[d**p for d in distinct.tolist()] for p in exponents])
    at, start = [], 0
    for x in bases:
        at.append(inverse[start : start + x.size].reshape(x.shape))
        start += x.size
    return table, at


def _first(bad: np.ndarray) -> tuple:
    """The index of the first True element of ``bad``, and its label for an error message."""
    k = tuple(int(i) for i in np.unravel_index(int(np.flatnonzero(bad)[0]), bad.shape))
    return k, f" at index {k}" if k else ""


def _check_limits(a, b, c):
    bad = ~(b <= c)
    if bad.any():
        k, at = _first(bad)
        raise ValueError(f"non-integrable singularity inside range: b = {b[k]} > c = {c[k]}{at}")
    bad = ~((0.0 <= a) & (a <= b))
    if bad.any():
        k, at = _first(bad)
        raise ValueError(f"integration limits must satisfy 0 <= a <= b, got a = {a[k]}, b = {b[k]}{at}")


def weighted_moment(m, alpha: float, a, b, c):
    """Closed form of integral_a^b r**m (c - r)**(-alpha) dr for 0 <= a <= b <= c.

    Substituting u = c - r and expanding (c - u)**m binomially around the
    singular endpoint gives a finite sum of powers u**(j+1-alpha); expanding
    there keeps the evaluation stable when b is close to c.

    ``a``, ``b`` and ``c`` may be arrays, broadcast together: the result is
    then the moment for every element, each as the scalar call computes it
    (every power from one ``_power_table``, the terms added in the same
    order).  Scalar limits give a float.  ``m`` may be a sequence of
    orders: the result then holds one moment per order, stacked along a
    new first axis, and the orders share one check of the limits, one
    power table and each exponent's difference of powers.

    >>> weighted_moment((1, 0), 0.5, 0.0, 1.0, 1.0).tolist()  # B(2, 1/2) and B(1, 1/2)
    [1.3333333333333335, 2.0]

    Raises:
        ValueError: on an empty sequence of orders, an order that is not
            an integer >= 0 (a bool or a float, integral or not, is not
            an integer), a non-integrable range (b > c) or disordered
            limits, NaN included, naming the first offending element.
    """
    orders = _check_orders("moment order", m)
    if not orders:
        raise ValueError("moment order sequence must not be empty")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"weight exponent must lie in (0, 1), got {alpha}")
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    _check_limits(*np.broadcast_arrays(a, b, c))
    top = max(orders)
    # c, lo and hi keep their own shapes, so the power table sees no broadcast copies
    lo, hi = c - b, c - a
    exponents = [j + 1.0 - alpha for j in range(top + 1)]
    # table[e] is c**e for e = 0 .. top, table[top + 1 + j] is u**exponents[j]
    table, (c_at, hi_at, lo_at) = _power_table((c, hi, lo), [float(e) for e in range(top + 1)] + exponents)
    totals = [0.0] * len(orders)
    for j, p in enumerate(exponents):
        frac = table[top + 1 + j]
        diff = frac[hi_at] - frac[lo_at]
        for i, k in enumerate(orders):
            if j <= k:
                term = math.comb(k, j) * table[k - j][c_at] * diff / p
                totals[i] = totals[i] + (-term if j % 2 else term)
    total = np.stack(totals)
    np.copyto(total, 0.0, where=a == b)
    if not np.ndim(m):
        total = total[0]
    return float(total) if total.ndim == 0 else total


# typed: True and 1 are equal keys, and a cached 1 must not let True past the check
@lru_cache(maxsize=256, typed=True)
def jacobi_rule(exponent: float, n: int):
    """Golub-Welsch rule for integral_0^1 f(u) (1 - u)**exponent du, exponent > -1.

    Builds the lower triangle of the symmetric tridiagonal matrix of the
    three-term recurrence for Jacobi polynomials with parameters
    (exponent, 0), takes its eigen decomposition for nodes and
    first-eigenvector-component weights on [-1, 1], then maps affinely to
    (0, 1).

    Returns:
        (nodes, weights) as read-only float arrays of length n, exact for
        polynomial integrands of degree <= 2n - 1.  The weights are positive
        and sum to the weighted measure of (0, 1), 1/(exponent + 1).

    Raises:
        ValueError: if n is not an integer >= 1 (a bool or a float is not),
            or exponent is not finite and above -1, NaN included.
        numpy.linalg.LinAlgError: if the eigensolver does not converge.
        ArithmeticError: if the weights miss the weighted measure.
    """
    _check_count("node count", n)
    aj = float(exponent)
    if not (-1.0 < aj < math.inf):
        raise ValueError(f"weight exponent must be finite and exceed -1, got {aj}")
    i = np.arange(n, dtype=float)
    denom = (2 * i + aj) * (2 * i + aj + 2)
    diag = np.empty(n)
    diag[0] = -aj / (aj + 2.0)
    diag[1:] = -(aj * aj) / denom[1:]
    j = np.arange(1, n, dtype=float)
    s = 2 * j + aj
    off = np.sqrt(4 * j * (j + aj) * j * (j + aj) / (s * s * (s * s - 1)))
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1), UPLO="L")
    mu0 = 2.0 ** (aj + 1.0) / (aj + 1.0)  # integral of (1-x)**aj over [-1, 1]
    u = 0.5 * (vals + 1.0)
    w = mu0 * vecs[0, :] ** 2 * 0.5 ** (aj + 1.0)
    measure = 1.0 / (aj + 1.0)
    if abs(float(np.sum(w)) - measure) > 1e-12 * measure:  # pragma: no cover
        raise ArithmeticError("quadrature weights do not reproduce the weighted measure")
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w
