"""Collocation basis and Gram matrix for the fractional Burgers operator.

The linear part of the equation is

    (L y)(xi, eta) = D_eta^alpha y + k1(xi, eta) y_xixi + k2(xi, eta) y
                     + k3(xi, eta) y_xi

with D_eta^alpha the Caputo derivative in time.  Each collocation point
(xi_i, eta_i) yields a basis function psi_i obtained by applying L to the
product kernel in its parameter slots, with the coefficient functions
frozen at the point:

    psi_i(xi, eta) = (D_r^alpha r2(r, eta))(eta_i) * r3(xi_i, xi)
                     + r2(eta_i, eta) * [ k1_i * d2/dx2 r3(x, xi)|_{x=xi_i}
                                          + k2_i * r3(xi_i, xi)
                                          + k3_i * d/dx r3(x, xi)|_{x=xi_i} ]

Gram entries come from applying L a second time, in the evaluation slots,
at collocation point i.  The time factor then carries Caputo transforms in
both slots: the single transform has a closed form, three moments from
one weighted_moment call plus an elementary tail; the double transform
reduces to one weakly singular integral evaluated by Gauss-Jacobi
quadrature with the range split at the inner evaluation time.  Every
Gram and every L psi take the one ``DEFAULT_QUADRATURE_NODES``-point
(64-node) rule.

Every such value is a sum of products of an r3 space factor, a function of
the two xi values, and a time factor, a function of the two eta values.
``BasisTables`` tabulates the factors once over the distinct coordinates,
gathers each block's factors once per distinct point coordinate in the
block, and combines them with array code; it holds the only
implementation of psi and of L psi.  The time factors are ``_ctk_table`` (the single
transform, in either slot) and ``_dc_table`` (the double transform), each
the one formula for its transform; ``psi_eval`` gathers the one-point
block ``tables.at([0])``.  The scalar code they replaced is kept, frozen,
as the tests' reference.

A build takes every r3 derivative order it needs from one ``r3`` call
over stacked orders.  Where its point eta values are its basis eta
values, as in every Gram build, the single transform in the point slot
is the basis-slot table transposed, so a solve and its error report
build two single-transform tables, not three.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .fracmath import (
    DEFAULT_QUADRATURE_NODES,
    _check_count,
    _power_table,
    gamma,
    jacobi_rule,
    order_value,
    weighted_moment,
)
from .kernels import r2, r3

__all__ = [
    "Problem",
    "CollocationGrid",
    "BasisFunction",
    "GramMatrix",
    "GramAssemblyError",
    "BasisTables",
    "build_basis",
    "psi_eval",
    "assemble_gram",
]

_BOUNDARY_TOL = 1e-12
_ROW_BLOCK = 64  # Gram rows gathered at once
_PAIR_BLOCK = 1024  # eta pairs per block of double-transform quadrature


@dataclass(frozen=True)
class Problem:
    """One instance of the variable-coefficient fractional Burgers equation.

    D_eta^alpha y + k1 y_xixi + k2 y + k3 y_xi + k4 y y_xi = f on [0,1]^2,
    with homogeneous initial and boundary data y(xi,0) = y(0,eta) = y(1,eta) = 0.

    ``exact`` is optional and only consulted by error reporting and the
    forcing consistency check.
    """

    alpha: float
    k1: Callable[[float, float], float]
    k2: Callable[[float, float], float]
    k3: Callable[[float, float], float]
    k4: Callable[[float, float], float]
    f: Callable[[float, float], float]
    exact: Optional[Callable[[float, float], float]] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "alpha", order_value(self.alpha))
        if self.exact is not None:
            for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                for xi, eta in ((s, 0.0), (0.0, s), (1.0, s)):
                    if not abs(self.exact(xi, eta)) <= _BOUNDARY_TOL:  # NaN fails too
                        raise ValueError(
                            "exact solution violates the homogeneous initial/boundary conditions"
                            f" at ({xi}, {eta})"
                        )


@dataclass(frozen=True)
class CollocationGrid:
    """Ordered, distinct collocation points (xi_i, eta_i) in (0, 1] x (0, 1], at least one.

    The point order is the order of the solver's sweep.  ``uniform(p, q)``
    takes xi_i = i/p and eta_j = j/q and orders the p * q points with the
    time index advancing fastest; ``from_points`` keeps the order given.
    """

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("a collocation grid needs at least one point")
        seen = set()
        for xi, eta in self.points:
            if not (0.0 < xi <= 1.0 and 0.0 < eta <= 1.0):
                raise ValueError(f"collocation point ({xi}, {eta}) outside (0, 1] x (0, 1]")
            if (xi, eta) in seen:
                raise ValueError(f"duplicated collocation point ({xi}, {eta})")
            seen.add((xi, eta))

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def uniform(cls, p: int, q: int) -> "CollocationGrid":
        _check_count("uniform grid p", p)
        _check_count("uniform grid q", q)
        return cls(tuple((i / p, j / q) for i in range(1, p + 1) for j in range(1, q + 1)))

    @classmethod
    def from_points(cls, points) -> "CollocationGrid":
        return cls(tuple((float(x), float(e)) for x, e in points))


class BasisFunction(NamedTuple):
    """Collocation basis function centred at (xi, eta), coefficients frozen there."""

    xi: float
    eta: float
    k1: float
    k2: float
    k3: float
    alpha: float


class GramMatrix(NamedTuple):
    """Pairwise inner products of the collocation basis functions, as a solution keeps them."""

    entries: np.ndarray


class GramAssemblyError(RuntimeError):
    """A coefficient k1, k2 or k3 failed at a collocation point; carries (row, col) indices.

    ``build_basis`` raises it: a coefficient that fails at point i fails
    all of the Gram row i, reported as (i, 0).
    """

    def __init__(self, row: int, col: int, cause: Exception):
        super().__init__(f"gram entry ({row}, {col}) failed: {cause}")
        self.row = row
        self.col = col


def build_basis(grid: CollocationGrid, problem: Problem) -> list:
    """Basis functions for every collocation point, coefficients frozen at the centres.

    The only sampling of k1, k2 and k3 at collocation points; one that
    raises, or is not finite, at point i raises GramAssemblyError at (i, 0).
    """
    basis = []
    for i, (xi, eta) in enumerate(grid.points):
        try:
            k = problem.k1(xi, eta), problem.k2(xi, eta), problem.k3(xi, eta)
            for name, value in zip(("k1", "k2", "k3"), k):
                if not math.isfinite(value):
                    raise ArithmeticError(f"non-finite {name} = {value} at collocation point ({xi}, {eta})")
        except Exception as exc:
            raise GramAssemblyError(i, 0, exc) from exc
        basis.append(BasisFunction(xi, eta, *k, alpha=problem.alpha))
    return basis


def psi_eval(b: BasisFunction, xi: float, eta: float, dxi_order: int = 0) -> float:
    """Evaluate psi_i (or its xi-derivative of order 0 or 1) at (xi, eta).

    Vanishes identically on xi = 0, xi = 1 and eta = 0.  One value of
    ``BasisTables.psi``, over tables for this one point and function.
    """
    tables = BasisTables([b], [xi], [eta])
    return float(tables.psi(tables.at([0]), 0, dxi_order)[0, 0])


def _ctk_table(eta, t_i, a: float) -> np.ndarray:
    """The Caputo derivative of r -> r2(r, eta), taken at r = t_i, over broadcast arrays in [0, 1]:

        (1 / gamma(1 - a)) * int_0^t_i (t_i - r)**(-a) d/dr r2(r, eta) dr.

    The integrand's smooth factor d/dr r2(r, eta) is -r**2/2 + eta*r + eta
    for r < eta and the constant eta + eta**2/2 beyond, so the integral
    splits at m = min(eta, t_i).  Below m the three moments of the
    quadratic come from one ``weighted_moment`` call; the constant part
    integrates in closed form to (t_i - m)**(1 - a) / (1 - a) times it,
    the power from ``_power_table`` as the moment's would be, and is added
    only where t_i > eta.  t_i = 0 gives exactly 0.  At a = 1 the
    transform is the plain derivative of r2.
    """
    eta, t_i = np.asarray(eta, dtype=float), np.asarray(t_i, dtype=float)
    if a == 1.0:
        return np.where(t_i <= 0.0, 0.0, r2(t_i, eta, 1, 0))
    m = np.minimum(eta, t_i)
    w2, w1, w0 = weighted_moment((2, 1, 0), a, 0.0, m, t_i)
    val = -0.5 * w2 + eta * w1 + eta * w0
    table, [at] = _power_table([t_i - m], [1.0 - a])
    tail = (eta + 0.5 * eta * eta) * (table[0][at] / (1.0 - a))
    val = np.where(t_i > eta, val + tail, val)
    return np.where(t_i <= 0.0, 0.0, val / gamma(1.0 - a))


def _rule_sums(rule, outer, inner, power) -> np.ndarray:
    """w @ (outer - inner * u)**power for each pair, one batched dot product per block of pairs.

    ``matmul`` over a stack of 1 x n rows takes each row's sum from the
    same dot routine as the scalar reference's one-pair ``w @ row``, so
    every sum rounds as it does there; a matrix-vector product over the
    pairs would round differently.  ``_PAIR_BLOCK`` bounds the pairs x
    nodes array of integrand values.
    """
    u, w = rule
    sums = np.empty(outer.size)
    for start in range(0, outer.size, _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        values = (outer[block, None] - inner[block, None] * u) ** power
        sums[block] = np.matmul(values[:, None, :], w)[:, 0]
    return sums


def _dc_table(t_i, t_j, a: float, n_nodes: int) -> np.ndarray:
    """The Caputo derivative, taken at t_j, of eta -> ``_ctk_table(eta, t_i, a)``, over broadcast arrays in [0, 1].

    The single transform's eta-derivative collapses to

        h(eta) = [ K1 - (t_i - eta)**(2 - a) / ((1 - a)(2 - a)) ] / gamma(1 - a)

    for eta < t_i and the constant K1 / gamma(1 - a) beyond, with
    K1 = (1 + t_i) t_i**(1 - a) / (1 - a) - t_i**(2 - a) / (2 - a).  The
    outer integral of the constant part is elementary.  The fractional
    power is integrated over (0, min(t_i, t_j)): exactly where t_i == t_j,
    and otherwise by one n_nodes-point Gauss-Jacobi sum per pair with the
    singular endpoint factor absorbed into the rule weight: exponent -a
    when the weight singularity at t_j lies inside the subrange (t_j < t_i),
    exponent 2 - a when the kernel's own fractional power is the endpoint
    factor (t_j > t_i).  Each branch's sums come from ``_rule_sums`` in
    whole-block calls.  Every fractional power of a coordinate comes from
    one ``_power_table`` over the arguments before they are broadcast.  A
    zero in either slot gives exactly 0; at a = 1 the transform is
    1 + min(t_i, t_j).  A node count that is not an integer >= 1 raises
    ValueError, at a = 1 too.
    """
    _check_count("node count", n_nodes)
    bases = t_i, t_j
    t_i, t_j = np.broadcast_arrays(t_i, t_j)
    live = (t_i > 0.0) & (t_j > 0.0)
    if a == 1.0:
        return np.where(live, 1.0 + np.minimum(t_i, t_j), 0.0)
    # the powers at 1 - a, 2 - a, 3 - 2a and 3 - a
    table, at = _power_table(bases, (1.0 - a, 2.0 - a, 3.0 - 2.0 * a, 3.0 - a))
    ti_pow, tj_pow = (np.broadcast_to(table[:, k], table.shape[:1] + t_i.shape) for k in at)
    c = gamma(1.0 - a)
    k1 = (1.0 + t_i) * ti_pow[0] / (1.0 - a) - ti_pow[1] / (2.0 - a)
    k2 = 1.0 / ((1.0 - a) * (2.0 - a))
    const_part = k1 * tj_pow[0] / (1.0 - a)
    # the value where t_i == t_j; an array even for 0-d arguments, to be filled by pair
    frac_part = np.array(ti_pow[2] / (3.0 - 2.0 * a))
    for pairs, rule, scale, outer, inner, power in (
        (live & (t_j < t_i), jacobi_rule(-a, n_nodes), tj_pow[0], t_i, t_j, 2.0 - a),
        (live & (t_j > t_i), jacobi_rule(2.0 - a, n_nodes), ti_pow[3], t_j, t_i, -a),
    ):
        frac_part[pairs] = scale[pairs] * _rule_sums(rule, outer[pairs], inner[pairs], power)
    return np.where(live, (const_part - k2 * frac_part) / (c * c), 0.0)


class BasisTables:
    """The factors of basis functions at a set of points, tabulated over distinct coordinates.

    psi_l at point p = (point_xi[p], point_eta[p]), and (L psi_l) at p, are sums of products of an r3
    space factor of (xi_l, xi_p) and a time factor of (eta_l, eta_p): r2,
    or a single or double Caputo transform of it.  Each factor is computed
    once for every pair of distinct basis and point coordinates, so a
    uniform p x q grid needs p**2 space and q**2 time values per factor,
    and each table is filled by array code: the kernels' array form for
    the space factors and r2, ``_ctk_table`` and ``_dc_table`` for the
    Caputo transforms.  Each table is raveled once, as it is built, with
    a row per distinct point coordinate.  ``psi`` and ``operator`` work on
    a block of points x functions: the points down the first axis, given
    by ``at`` from an index array (or slice), and the basis functions
    ``fns`` (an index, index array or slice) across the last, with a
    points axis even for one point.  A block's space factors depend
    only on its distinct point xi values and its time factors only on its
    distinct eta values, which ``at`` finds once for every block of
    functions at its points.  The gather reads and forms each factor once
    per distinct coordinate in the block, with one flat index per
    coordinate (the point's row offset plus the basis function's column)
    and one ``take`` of each table, and expands it to the block with one
    ``take`` along axis 0.  The factors are then combined in place.  These
    are the package's only formulas for psi and L psi; the operations and
    their order are those of the scalar reference the tests hold, so each
    value is bit-identical to it.
    ``_coeffs`` holds the basis functions' frozen k1, k2, k3 as one 3 x n
    array, from which the Gram's rows read their coefficients.

    ``with_operator`` also tabulates the Caputo factors of L psi, the
    double transform with the ``DEFAULT_QUADRATURE_NODES``-point rule;
    without it only the factors of psi are tabulated.
    """

    def __init__(self, basis: list, point_xi, point_eta, with_operator: bool = False):
        alphas = {b.alpha for b in basis}
        if len(alphas) > 1:
            raise ValueError("basis functions must share one fractional order")
        a = alphas.pop() if alphas else 1.0  # no basis functions: empty tables
        bx, self._basis_x = np.unique([b.xi for b in basis], return_inverse=True)
        be, self._basis_eta = np.unique([b.eta for b in basis], return_inverse=True)
        px, point_x = np.unique(np.asarray(point_xi, dtype=float), return_inverse=True)
        pe, point_eta = np.unique(np.asarray(point_eta, dtype=float), return_inverse=True)
        # each point's row offset into the raveled tables
        self._point_x, self._point_eta = point_x * bx.size, point_eta * be.size
        self._coeffs = np.array([[getattr(b, k) for b in basis] for k in ("k1", "k2", "k3")], dtype=float)

        # rows: distinct point coordinates, columns: distinct basis coordinates; raveled
        orders = [(dx, dxi) for dx in range(3) for dxi in range(3 if with_operator else 2)]
        self._space = dict(zip(orders, r3(bx[None, :], px[:, None], *zip(*orders)).reshape(len(orders), -1)))
        # r2 and its Caputo transform in the basis slot, in the point slot, in both
        self._r2 = r2(be[None, :], pe[:, None]).ravel()
        caputo_basis = _ctk_table(pe[:, None], be[None, :], a)
        self._caputo_basis = caputo_basis.ravel()
        if with_operator:
            if np.array_equal(pe, be):  # the Gram's points: the same table, slots swapped
                self._caputo_point = caputo_basis.T.ravel()
            else:
                self._caputo_point = _ctk_table(be[None, :], pe[:, None], a).ravel()
            self._caputo_both = _dc_table(be[None, :], pe[:, None], a, DEFAULT_QUADRATURE_NODES).ravel()

    def at(self, points):
        """The points of a block, for ``psi`` and ``operator``: an index array (or slice).

        The block holds the points in the index array's order, whatever
        its shape, down its first axis; one point is the block ``[i]``.
        Their distinct xi and eta rows are found here, once, so one ``at``
        serves every block of basis functions at the same points.
        """
        return _distinct(self._point_x[points]), _distinct(self._point_eta[points])

    def _gather(self, at, fns, orders, times):
        """The time tables ``times``, then psi_l's two space factors at each xi-derivative order, over a block.

        A space factor depends only on the block's distinct point xi
        values and a time factor only on its distinct eta values, so each
        is computed on (distinct coordinates x functions) and expanded to
        the block with one ``take`` along axis 0 (``_distinct``).
        Each table is read with one ``take`` of a flat index: the point's
        row offset plus the basis function's column.  The space factors
        are r3 and k1 d2r3 + k2 r3 + k3 dr3: the named derivatives and
        k1, k2, k3 are at psi_l's centre, the order is the point's
        xi-derivative.
        """
        (rows_x, spread_x), (rows_t, spread_t) = at
        x, t = rows_x + self._basis_x[fns], rows_t + self._basis_eta[fns]
        k1, k2, k3 = self._coeffs[:, fns]
        factors = []
        for d in orders:
            frac = self._space[0, d].take(x)
            smooth = k1 * self._space[2, d].take(x) + k2 * frac + k3 * self._space[1, d].take(x)
            factors.append((spread_x(frac), spread_x(smooth)))
        return [spread_t(table.take(t)) for table in times], factors

    def psi(self, at, fns, dxi_order: int = 0) -> np.ndarray:
        """psi_l (or its xi-derivative, dxi_order 0 or 1) at the points ``at`` gives.

        One order per call: a caller that needs both orders gathers twice,
        which costs no more than one gather of both would.
        """
        _check_count("dxi_order", dxi_order, 0, 1)
        (r2v, phi), [(frac, smooth)] = self._gather(at, fns, (dxi_order,), (self._r2, self._caputo_basis))
        return _combine(r2v, smooth, phi, frac)

    def operator(self, at, fns, c1, c2, c3):
        """(L psi_l), then psi_l and d_xi psi_l, at the points ``at`` gives; needs ``with_operator``.

        c1, c2, c3 are the coefficients sampled at the points, each
        broadcasting to the block.  psi_l and d_xi psi_l are ``psi``'s,
        which L scales into temporaries.
        """
        times = self._r2, self._caputo_basis, self._caputo_point, self._caputo_both
        (r2v, phi, caputo_point, caputo_both), factors = self._gather(at, fns, range(3), times)
        # Caputo transform, at the point, of each of psi_l's two time factors,
        # taken before the order-0 factors become psi_l below.
        frac, smooth = factors[0]
        caputo_point *= smooth
        caputo_both *= frac
        # psi_l and its first two xi-derivatives at the points; phi is psi_l's own fractional time factor
        psi0, psi1, psi2 = (_combine(r2v, smooth, phi, frac) for frac, smooth in factors)
        # c1 * psi2 + c2 * psi0 + c3 * psi1, then the two Caputo terms
        psi2 *= c1
        psi2 += psi0 * c2
        psi2 += psi1 * c3
        psi2 += caputo_point
        psi2 += caputo_both
        return psi2, psi0, psi1


def _combine(r2v, smooth, phi, frac):
    """r2v * smooth + phi * frac, in the storage of the block-sized factors smooth and frac."""
    smooth *= r2v
    frac *= phi
    smooth += frac
    return smooth


def _distinct(rows):
    """The distinct point rows of a block, as a column, and the expansion of a factor over them back to the points.

    ``rows`` are the points' row offsets, in any shape; they are taken in
    raveled order, so a factor of (distinct rows) x functions is expanded
    to points x functions by one ``take`` of each point's place among
    them along axis 0.
    """
    # raveled, so the inverse is flat under every numpy version
    distinct, inverse = np.unique(rows.ravel(), return_inverse=True)
    return distinct[:, None], lambda factor: factor.take(inverse, 0)


def assemble_gram(basis: list) -> tuple:
    """(G, sweep_rows): the n x n Gram array of ``basis`` and, per 64-row block, the rows the sweep reads.

    Entry (i, j) of G is (L psi_j) at collocation point i, the centre of
    psi_i, with the coefficients frozen in psi_i; the rows are gathered
    from ``BasisTables`` a block at a time.  Each block's gather also forms
    psi_j and d_xi psi_j at its points, before L scales them; the columns
    below the block's last row are its 2 x rows x last ``sweep_rows`` entry,
    about one n x n array in all, which a caller that does not sweep drops.
    The double transform takes the ``DEFAULT_QUADRATURE_NODES``-point rule.
    """
    n = len(basis)
    tables = BasisTables(basis, [b.xi for b in basis], [b.eta for b in basis], with_operator=True)
    entries = np.empty((n, n))
    sweep_rows = []
    for start in range(0, n, _ROW_BLOCK):
        rows = np.arange(start, min(start + _ROW_BLOCK, n))[:, None]
        lpsi, psi0, psi1 = tables.operator(tables.at(rows), slice(None), *tables._coeffs[:, rows])
        entries[start : start + _ROW_BLOCK] = lpsi
        last = int(rows[-1, 0])
        sweep_rows.append(np.stack((psi0[:, :last], psi1[:, :last])))
    return entries, tuple(sweep_rows)
