"""Gram-Schmidt orthonormalization coefficients via Cholesky inversion.

The lower-triangular coefficients beta with positive diagonal satisfying
beta G beta' = I are unique, and equal the inverse of the lower Cholesky
factor of G.  The factorization runs on the symmetrized, diagonally
equilibrated matrix A: LAPACK's Cholesky gives L, a blocked triangular
inverse gives X ~ L**-1, and one refinement step (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 10 and 12) removes the
factorization's backward error.  The residual R = A - L L' is formed
from error-free products: L is split by rows into slices whose pairwise
products every BLAS computes exactly, and the products are accumulated
with TwoSum (Ozaki, Ogita, Oishi and Rump,
"Error-free transformations of matrix multiplication by using fast
routines of matrix multiplication", Numer. Algorithms 59, 2012).  The
step sets X <- X - Phi(X R X') X, where Phi keeps the strict lower
triangle and half the diagonal, so X stays lower triangular.  At
desk-scale condition numbers (1e8 and above for the larger grids) this
keeps the orthonormality defect at the floor imposed by storing the
factor in 64-bit floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operator import GramMatrix

__all__ = ["OrthonormalBasis", "NotPositiveDefiniteError", "GramAsymmetryError", "compute_beta"]

_SYMMETRY_TOL = 1e-8
_SLICES = 3
_INVERSE_BLOCK = 32  # below this size the triangular inverse is a row loop
_ROW_BLOCK = 64  # rows per block of an error-free product


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot failure; signals duplicated or linearly dependent points."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is not positive definite: pivot {pivot_index} is non-positive")
        self.pivot_index = pivot_index


class GramAsymmetryError(ValueError):
    """G and G' differ beyond tolerance, as under an under-resolved quadrature; names the worst entry."""

    def __init__(self, row: int, col: int, asymmetry: float):
        super().__init__(
            f"gram matrix asymmetry {asymmetry:.3e} at entry ({row}, {col}) "
            f"exceeds tolerance {_SYMMETRY_TOL:.0e}"
        )
        self.row = row
        self.col = col
        self.asymmetry = asymmetry


@dataclass(frozen=True)
class OrthonormalBasis:
    """Lower-triangular orthonormalization coefficients and their source Gram matrix."""

    beta: np.ndarray
    source: GramMatrix


def _split_rows(m):
    """Row slices s_1 + ... + s_k == m, exact, for error-free products.

    Every slice but the last is rounded to a power-of-two grid set by its
    row's largest remaining entry, so its entries carry at most ``bits``
    significant bits relative to that entry; the last slice is what is
    left.  A row product of two rounded slices is then a sum of at most
    n integers below 2**(2 bits), which stays under 2**53 and is exact
    in any summation order, with or without FMA.  The last slice is
    below 2**-(2 bits) of its row's largest entry, so the products that
    involve it, which do round, are off by about n 2**-(53 + 2 bits) of
    max|x_i| max|y_j|: some 2**-40 of a plain product's rounding error.
    """
    bits = (53 - math.ceil(math.log2(max(m.shape[1], 1)))) // 2 - 1
    rest = np.array(m, dtype=float)
    slices = []
    for _ in range(_SLICES - 1):
        _, exponent = np.frexp(np.max(np.abs(rest), axis=1, initial=0.0))
        sigma = np.ldexp(1.0, exponent + 53 - bits)[:, None]
        piece = rest + sigma
        piece -= sigma
        rest -= piece
        slices.append(piece)
    slices.append(rest)
    return slices


def add_exact_product(hi, lo, x, y):
    """hi + lo += x @ y', the product carried far beyond working precision.

    x and y are split by rows (``_split_rows``); each slice product is
    added to hi and its rounding error to lo with Knuth's TwoSum, which
    needs no ordering of the summands.  The work runs on blocks of rows
    of x, split one block at a time, which keeps the temporaries small.
    """
    ys = _split_rows(y)
    for start in range(0, hi.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        # x's slices of these rows: the split of each row depends on that row alone
        xs = [s[rows] for s in ys] if y is x else _split_rows(x[rows])
        h, l = hi[rows], lo[rows]
        for xi in xs:
            for yj in ys:
                p = xi @ yj.T
                s = h + p
                t = s - h
                p -= t
                np.subtract(s, t, out=t)
                h -= t
                l += h
                l += p
                h[...] = s


def _cholesky(a):
    """Lower Cholesky factor of a; NotPositiveDefiniteError at the first bad pivot."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # A leading block factors iff all of its pivots are positive.
        good, bad = 0, a.shape[0]
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                np.linalg.cholesky(a[:mid, :mid])
                good = mid
            except np.linalg.LinAlgError:
                bad = mid
        raise NotPositiveDefiniteError(bad - 1) from None
    # LAPACK lets NaN through; it reaches the diagonal of its own row.
    failed = np.flatnonzero(~(np.diagonal(low) > 0.0))
    if failed.size:
        raise NotPositiveDefiniteError(int(failed[0]))
    return low


def _invert_lower(low, out):
    """out <- low**-1 for lower-triangular low, by halves; out's upper triangle must be zero."""
    n = low.shape[0]
    if n <= _INVERSE_BLOCK:
        for i in range(n):
            out[i, :i] = (low[i, :i] @ out[:i, :i]) / -low[i, i]
            out[i, i] = 1.0 / low[i, i]
        return
    h = n // 2
    _invert_lower(low[:h, :h], out[:h, :h])
    _invert_lower(low[h:, h:], out[h:, h:])
    np.negative(out[h:, h:] @ (low[h:, :h] @ out[:h, :h]), out=out[h:, :h])


def compute_beta(gram: GramMatrix) -> OrthonormalBasis:
    """Orthonormalization coefficients beta = L**-1 where (G + G')/2 = L L'.

    Raises:
        ValueError: if G is not square.
        GramAsymmetryError: if G is asymmetric beyond tolerance.
        NotPositiveDefiniteError: at the first non-positive pivot.
    """
    g = np.asarray(gram.entries, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"gram matrix must be square, got shape {g.shape}")
    if n:
        asym = np.abs(g - g.T) / (1.0 + np.abs(g))
        worst = int(np.argmax(asym))  # a NaN entry is left to the pivots
        if asym.flat[worst] > _SYMMETRY_TOL:
            raise GramAsymmetryError(*divmod(worst, n), float(asym.flat[worst]))
    a = g + g.T
    a *= 0.5

    diag = np.diag(a)
    failed = np.flatnonzero(~(diag > 0.0))  # NaN included
    if failed.size:
        raise NotPositiveDefiniteError(int(failed[0]))
    d = np.sqrt(diag)
    a /= d[:, None]
    a /= d[None, :]

    low = _cholesky(a)
    # Each n x n intermediate is released once used: together they set the
    # peak memory of a solve.
    # R = A - L L' from error-free products, accumulated as -A + L L' and negated.
    np.negative(a, out=a)
    lo = np.zeros((n, n))
    add_exact_product(a, lo, low, low)
    a += lo
    del lo
    np.negative(a, out=a)
    x = np.zeros((n, n))
    _invert_lower(low, x)
    del low
    e = x @ a
    del a
    phi = np.tril(e @ x.T)
    del e
    phi.flat[:: n + 1] *= 0.5
    x -= phi @ x
    x /= d[None, :]
    x.flags.writeable = False
    return OrthonormalBasis(beta=x, source=gram)
