"""
Reproducing kernels on the unit square
======================================

The solution space is a tensor product of two Sobolev-type spaces whose
kernels are explicit piecewise polynomials: a quintic in space (members
vanish at both ends) and a cubic in time (members vanish at zero).  The
defining feature is the reproducing property: inner products against a
kernel section evaluate functions pointwise.
"""

import numpy as np

from rkburgers import r2, r3

# Kernel values are symmetric and the two branches join continuously.
print("r3(0.5, 0.5) =", r3(0.5, 0.5))
print("r2(0.5, 0.3) =", r2(0.5, 0.3), "   r2(0.3, 0.5) =", r2(0.3, 0.5))

# Membership conditions are baked in: sections vanish identically on the
# space boundaries and at the initial time.
print("\nboundary values: r3(x, 0) =", r3(0.7, 0.0), ", r3(x, 1) =", r3(0.7, 1.0),
      ", r2(t, 0) =", r2(0.7, 0.0))

# The product kernel r3(x, xi) * r2(t, eta) reproduces bivariate point
# evaluation.
print("product kernel at a midpoint pair:", r3(0.5, 0.5) * r2(0.5, 0.3))

# Reproducing property of the time kernel for g(eta) = eta**3:
# <g, r2(t, .)> = g(0) f(0) + g'(0) f'(0) + int g'' f''  must equal g(t).
# The second derivative of the section is (t - eta) below the diagonal
# and zero above it, so the integral is elementary.
t = 0.4
xg, wg = np.polynomial.legendre.leggauss(32)
mid, half = t / 2, t / 2
integral = half * sum(
    w * 6.0 * (mid + half * x) * r2(t, mid + half * x, 0, 2) for x, w in zip(xg, wg)
)
print(f"\n<eta**3, r2({t}, .)> =", integral, "  vs g(t) =", t**3)

# First derivatives against finite differences, at a generic point.
h = 1e-6
fd = (r3(0.3, 0.62 + h) - r3(0.3, 0.62 - h)) / (2 * h)
print("\nd/dxi r3(0.3, 0.62):", r3(0.3, 0.62, 0, 1), " finite difference:", fd)
