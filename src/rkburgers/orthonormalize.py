"""Gram-Schmidt orthonormalization coefficients via Cholesky inversion.

The lower-triangular coefficients beta with positive diagonal satisfying
beta G beta' = I are unique, and equal the inverse of the lower Cholesky
factor of G.  The factorization runs on the symmetrized, diagonally
equilibrated matrix, and its inner products are accumulated with
math.fsum; at desk-scale condition numbers (1e8 and above for the larger
grids) this keeps the orthonormality defect at the floor imposed by
storing the factor in 64-bit floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operator import GramMatrix

__all__ = ["OrthonormalBasis", "NotPositiveDefiniteError", "compute_beta"]

_SYMMETRY_TOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot failure; signals duplicated or linearly dependent points."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is not positive definite: pivot {pivot_index} is non-positive")
        self.pivot_index = pivot_index


@dataclass(frozen=True)
class OrthonormalBasis:
    """Lower-triangular orthonormalization coefficients and their source Gram matrix."""

    beta: np.ndarray
    source: GramMatrix

    @property
    def n(self) -> int:
        return self.beta.shape[0]


def _fsum_row_dot(a0: float, xs, ys) -> float:
    """a0 - sum_i xs[i] ys[i], with the summation exactly rounded.

    The products are rounded elementwise on the arrays; fsum's result
    depends only on the multiset of its inputs.
    """
    return math.fsum([a0] + (-(xs * ys)).tolist())


def compute_beta(gram: GramMatrix) -> OrthonormalBasis:
    """Orthonormalization coefficients beta = L**-1 where (G + G')/2 = L L'.

    Raises:
        ValueError: if G is asymmetric beyond tolerance.
        NotPositiveDefiniteError: at the first non-positive pivot.
    """
    g = np.asarray(gram.entries, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"gram matrix must be square, got shape {g.shape}")
    asym = np.max(np.abs(g - g.T) / (1.0 + np.abs(g))) if n else 0.0
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"gram matrix asymmetry {asym:.3e} exceeds tolerance {_SYMMETRY_TOL:.0e}")
    a = 0.5 * (g + g.T)

    diag = np.diag(a).copy()
    for k in range(n):
        if not diag[k] > 0.0:
            raise NotPositiveDefiniteError(k)
    d = np.sqrt(diag)
    a_scaled = a / d[:, None] / d[None, :]

    low = np.zeros((n, n))
    for k in range(n):
        pivot = _fsum_row_dot(a_scaled[k, k], low[k, :k], low[k, :k])
        if not pivot > 0.0:
            raise NotPositiveDefiniteError(k)
        low[k, k] = math.sqrt(pivot)
        for i in range(k + 1, n):
            low[i, k] = _fsum_row_dot(a_scaled[i, k], low[i, :k], low[k, :k]) / low[k, k]

    inv = np.zeros((n, n))
    for i in range(n):
        inv[i, i] = 1.0 / low[i, i]
        for j in range(i - 1, -1, -1):
            inv[i, j] = _fsum_row_dot(0.0, low[i, j:i], inv[j:i, j]) / low[i, i]

    beta = inv / d[None, :]
    beta.flags.writeable = False
    return OrthonormalBasis(beta=beta, source=gram)
