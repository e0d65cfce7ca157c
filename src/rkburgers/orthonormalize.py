"""Gram-Schmidt orthonormalization coefficients via Cholesky inversion.

The lower-triangular coefficients beta with positive diagonal satisfying
beta G beta' = I are unique, and equal the inverse of the lower Cholesky
factor of G.  The factorization runs on the symmetrized, diagonally
equilibrated matrix A: LAPACK's Cholesky gives L, a blocked triangular
inverse gives X ~ L**-1, and one refinement step (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 10 and 12) removes the
factorization's backward error.  The residual R = A - L L' is formed
from error-free products: L is split by rows into three slices, whose
four pairwise products among the first two every BLAS computes exactly;
those are accumulated with TwoSum, and the five that involve the last
slice are grouped into two plain products (Ozaki, Ogita, Oishi and Rump,
"Error-free transformations of matrix multiplication by using fast
routines of matrix multiplication", Numer. Algorithms 59, 2012).  As L
is lower triangular and L L' symmetric, these 6 products run over the
lower block triangle only, a 64-column block at a time, and each block's
product is added to its transposed place as well; A's own entries,
which equilibration leaves not exactly symmetric, are never mirrored.
The slices are formed per block, on its rows and columns only, from
rounding constants taken once per whole row.  X is formed in L's storage.
The step sets X <- X - Phi(X R X') X, where Phi keeps the strict lower
triangle and half the diagonal, so X stays lower triangular; each 64-row
panel of Phi is formed just before its update, from the last panel up,
and needs only the leading block of R and X.  So besides G the only
n x n arrays are A (which becomes R) and L (which becomes X), and the
asymmetry check's two, freed before A is formed.  At desk-scale
condition numbers (1e8 and above for the larger grids) this keeps the
orthonormality defect at the floor imposed by storing the factor in
64-bit floats.  ``norm_recursion_defect`` checks the basis of a
solution in plain float64, as the orthonormality defect is checked.
"""

import math
from typing import NamedTuple

import numpy as np

from .operator import GramMatrix

__all__ = ["OrthonormalBasis", "NotPositiveDefiniteError", "GramAsymmetryError", "compute_beta", "norm_recursion_defect"]

_SYMMETRY_TOL = 1e-8
_SLICES = 3
_INVERSE_BLOCK = 32  # below this size the triangular inverse is a row loop
_ROW_BLOCK = 64  # rows per pass of _row_sigmas; columns of L L' per error-free tile; rows per refinement panel; prefixes per block of the norm-recursion defect
_STRICT_UPPER = ~np.tri(_ROW_BLOCK, dtype=bool)  # zeroes a panel's diagonal block above its diagonal


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


class OrthonormalBasis(NamedTuple):
    """Lower-triangular orthonormalization coefficients and their source Gram matrix, as a solution keeps them."""

    beta: np.ndarray
    source: GramMatrix


def _split_bits(m):
    """Significant bits of a rounded slice, for rows as long as m's."""
    return (53 - math.ceil(math.log2(max(m.shape[1], 1)))) // 2 - 1


def _cut(rest, sigma):
    """Cut the slice (rest + sigma) - sigma off rest, in place, and return it."""
    piece = rest + sigma
    piece -= sigma
    rest -= piece
    return piece


def _row_sigmas(m):
    """Both rounding constants of every row of m, shape (2, rows, 1), from whole rows a 64-row block at a time.

    ``_slices`` cuts m with them into row slices x1 + x2 + x3 == m, exact,
    for error-free products.  With 2**(e-1) <= max|rest_i| < 2**e,
    rest_i + sigma_i, for sigma_i = 2**(e + 53 - bits), lies in
    [sigma_i/2, 2 sigma_i), where the floats are spaced at least
    2**(e - bits) apart; so x1 and x2 are rounded to a power-of-two grid
    set by their row's largest remaining entry, and carry at most ``bits``
    significant bits relative to it, down to the smallest subnormal.  A
    row product of two rounded slices is then a sum of at most n integers
    below 2**(2 bits), which stays under 2**53 and is exact in any
    summation order, with or without FMA.  x3 is below 2**-(2 bits) of
    its row's largest entry, so the products that involve it, which do
    round, are off by about n 2**-(53 + 2 bits) of max|x_i| max|y_j|: some
    2**-40 of a plain product's rounding error.  A slice entry depends
    only on the entry and its row's constants, so ``_slices`` cuts any
    block as the whole m is cut.
    """
    bits = _split_bits(m)
    sigmas = np.empty((_SLICES - 1, m.shape[0], 1))
    for start in range(0, m.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        rest = np.array(m[rows], dtype=float)
        for sigma in sigmas:
            _, exponent = np.frexp(np.max(np.abs(rest), axis=1, initial=0.0))
            sigma[rows, 0] = np.ldexp(1.0, exponent + 53 - bits)
            _cut(rest, sigma[rows])
    return sigmas


def _slices(block, sigmas):
    """[x1, x2, x3] of a block of some matrix's rows, cut with those rows' ``_row_sigmas``; x1 + x2 + x3 == block."""
    x3 = np.array(block, dtype=float)
    x1 = _cut(x3, sigmas[0])
    x2 = _cut(x3, sigmas[1])
    return [x1, x2, x3]


def _two_sum_into(h, l, p):
    """h + l += p: h takes the rounded sum and l its rounding error (Knuth's TwoSum).

    TwoSum needs no ordering of the summands; p is left as it is, so it
    may be a view of a product that is still to be added elsewhere.
    """
    s = h + p
    t = s - h
    e = p - t
    np.subtract(s, t, out=t)
    h -= t
    l += h
    l += e
    h[...] = s


def _square_tile(low, start, stop, sigmas):
    """low[start:, :stop] @ low[start:stop, :stop]' as a pair t_hi + t_lo, from slices of those rows and columns.

    sigmas are ``_row_sigmas(low)``; the slices are freed on return,
    before the next tile's are made.
    """
    below = stop - start
    x1, x2, x3 = _slices(low[start:, :stop], sigmas[:, start:])
    t_hi = x1 @ x1[:below].T
    t_lo = x3 @ (x1[:below] + x2[:below]).T
    t_lo += low[start:, :stop] @ x3[:below].T
    for a, b in ((x1, x2), (x2, x1), (x2, x2)):
        _two_sum_into(t_hi, t_lo, a @ b[:below].T)
    return t_hi, t_lo


def add_exact_square(hi, low):
    """hi += low @ low' for lower-triangular low, each entry's exact sum rounded once.

    low is split by rows into x1 + x2 + x3 (``_row_sigmas``); the zeros
    above its diagonal stay zero in every slice.  The 4 products of the
    rounded slices x1, x2 are exact and are summed with TwoSum; the 5
    with x3 round anyway, so they are grouped into 2 plain products,
    x3 (x1 + x2)' + low x3': 6 products instead of 9.  They run one block
    of columns at a time, over the rows from the block's start and, as low
    is lower triangular, the columns up to the block's end, into one tile
    pair: the block's share of the lower block triangle.
    The pair is added there and, transposed, to the strict upper part
    right of the diagonal block.  No other block touches those entries,
    so each is rounded once and no n x n low part is kept.  Only the
    product is mirrored, never hi's entries, so an hi that is not
    exactly symmetric stays as it is.

    The slices are formed per block, on those rows and columns only, from
    the rounding constants of whole rows (``_row_sigmas``); so no copy or
    slice of all of low is made.
    """
    n = low.shape[0]
    sigmas = _row_sigmas(low)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        below = stop - start  # the tile's rows past the diagonal block
        t_hi, t_lo = _square_tile(low, start, stop, sigmas)
        cols = slice(start, stop)
        for h, th, tl in ((hi[start:, cols], t_hi, t_lo), (hi[cols, stop:], t_hi[below:].T, t_lo[below:].T)):
            l = np.zeros(h.shape)
            _two_sum_into(h, l, th)
            l += tl
            h += l


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
    """out <- low**-1 for lower-triangular low, by halves; out's upper triangle must be zero.

    out may be low itself: every entry of low is read before its place in
    out is written.
    """
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


def compute_beta(g: np.ndarray) -> np.ndarray:
    """Read-only orthonormalization coefficients beta = L**-1 of the n x n Gram array G, where (G + G')/2 = L L'.

    Memory: besides G, the traced peak holds A and L with one column
    block's slices and products, whose rows from the block's start by
    columns to its end reach n/2 x n/2 each: about 3.25 n x n arrays at
    n = 900, 3.0 at 1600, 4.1 at 400, 5.5 at 196 and 7.8 at 100, where
    the blocks make a larger share of n x n.  The asymmetry check's two
    n x n arrays are freed before A is formed, so they stay below that
    peak.  L is inverted in its own storage, so the inversion holds A and
    L with its two n/2 x n/2 products, 2.5; the refinement holds R and X
    with one 64-row panel of Phi and its products.  LAPACK's Cholesky
    call also takes an untraced copy of A.

    Raises:
        ValueError: if G is not square.
        GramAsymmetryError: if G is asymmetric beyond tolerance.
        NotPositiveDefiniteError: at the first non-positive pivot.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"gram matrix must be square, got shape {g.shape}")
    # An infinite entry makes NaN here (inf - inf, inf / inf) quietly and fails
    # its pivot as a NaN entry does.  Each n x n array is freed once used.
    with np.errstate(invalid="ignore"):
        asym, scale = np.abs(g - g.T), np.abs(g)
        scale += 1.0
        asym /= scale
        if n:
            at = int(np.argmax(asym))  # the first NaN, left to the pivots; else the first maximum in row-major order
            if asym.flat[at] > _SYMMETRY_TOL:
                raise GramAsymmetryError(at // n, at % n, float(asym.flat[at]))
        del asym, scale
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
    # R = A - L L' from error-free products, accumulated as -A + L L' and negated.
    np.negative(a, out=a)
    add_exact_square(a, low)
    np.negative(a, out=a)
    _invert_lower(low, low)
    x = low  # X ~ L**-1, in L's storage
    # X <- X - Phi(X R X') X by 64-row panels, from the last.  As X is
    # lower triangular, a panel's rows of X R X' up to its last column need
    # only R's leading block, and its update reads only the rows of X above
    # and in it, which are still the old ones.
    for start in reversed(range(0, n, _ROW_BLOCK)):
        stop = min(start + _ROW_BLOCK, n)
        phi = (x[start:stop, :stop] @ a[:stop, :stop]) @ x[:stop, :stop].T
        rows = stop - start
        phi[:, start:][_STRICT_UPPER[:rows, :rows]] = 0.0
        on = np.arange(rows)
        phi[on, start + on] *= 0.5
        x[start:stop, :stop] -= phi @ x[:stop, :stop]
    del a
    x /= d[None, :]
    x.flags.writeable = False
    return x


def norm_recursion_defect(s) -> float:
    """Max over prefixes m of | ||y_m||^2 - sum B_i^2 | / (1 + sum B_i^2) for a solution s.

    ||y_m||^2 is u_m' G u_m for the raw coefficient prefix u_m = sum_{i<=m}
    B_i beta_i, in plain float64, 64 prefixes at a time; beta is lower
    triangular, so those read only G's leading block.  The scale 1 + sum
    B_i^2 is the Gram symmetry tolerance's: unscaled, the defect of a large
    norm sits at the floor that a 64-bit beta sets.  NaN in B gives NaN.
    """
    n = s.n
    g = s.basis.source.entries
    u = s.B[:, None] * s.basis.beta
    np.cumsum(u, axis=0, out=u)  # row m - 1 is u_m, summed in the sweep's order
    quad = np.empty(n)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        rows = u[start:stop, :stop]
        quad[start:stop] = np.einsum("ij,ij->i", rows @ g[:stop, :stop], rows)
    running = np.cumsum(s.B * s.B)
    return float(np.max(np.abs(quad - running) / (1.0 + running), initial=0.0))
