"""
Fractional-calculus building blocks
===================================

Everything the solver does with Caputo derivatives reduces to three
primitives: the gamma function, closed-form derivatives of powers, and
integrals against the weakly singular weight (c - r)**(-alpha).  This
script exercises each one and shows the two independent routes (closed
form vs quadrature) agreeing.
"""

import math

import numpy as np

from rkburgers import caputo_power, gamma, jacobi_rule, weighted_moment

# The gamma function drives every constant in the method.  A couple of
# values with known closed forms:
print("gamma(1)   =", gamma(1.0))
print("gamma(1/2) =", gamma(0.5), " (sqrt(pi) =", math.sqrt(math.pi), ")")
print("gamma(2.5) =", gamma(2.5), " (= 1.5 * 0.5 * sqrt(pi))")

# Caputo derivatives of powers are closed-form: D^a t**k maps to
# gamma(k+1)/gamma(k+1-a) t**(k-a), and constants map to zero.
alpha = 0.9
print("\nCaputo derivative of t**1.9 at t = 0.5, order 0.9:")
print("  closed form        =", caputo_power(1.9, alpha, 0.5))
print("  derivative of a constant:", caputo_power(0, alpha, 0.5))

# The same number out of the defining integral, discretized brutally:
# (1/gamma(1-a)) * integral of 1.9 r**0.9 (0.5 - r)**(-0.9) dr.
t = 0.5
r = np.linspace(0.0, t, 400_001)
lo, hi = r[:-1], r[1:]
p0 = ((t - lo) ** (1 - alpha) - (t - hi) ** (1 - alpha)) / (1 - alpha)
p1 = t * p0 - ((t - lo) ** (2 - alpha) - (t - hi) ** (2 - alpha)) / (2 - alpha)
phi = 1.9 * r**0.9
slope = (phi[1:] - phi[:-1]) / (hi - lo)
quad = float(np.sum(phi[:-1] * p0 + slope * (p1 - lo * p0))) / gamma(1 - alpha)
print("  product quadrature =", quad)

# Weighted moments integrate r**m against the singular weight in closed
# form; the Gauss-Jacobi rules must reproduce them to near machine
# precision despite the integrable blow-up at the right endpoint.
print("\nweighted_moment(m=1, alpha=0.5, [0,1], c=1) =", weighted_moment(1, 0.5, 0.0, 1.0, 1.0))
nodes, weights = jacobi_rule(-0.5, 8)
print("8-node Gauss-Jacobi of f(u)=u against (1-u)**-0.5 =", float(weights @ nodes))
print("8-node rule weight sum =", float(np.sum(weights)), " (measure = 2)")

worst = 0.0
for m in range(7):
    q = float(weights @ nodes**m)
    worst = max(worst, abs(q - weighted_moment(m, 0.5, 0.0, 1.0, 1.0)))
print("max moment mismatch over m <= 6:", worst)
