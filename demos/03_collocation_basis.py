"""
Collocation basis and orthonormalization
========================================

Applying the linear part of the fractional Burgers operator to the
product kernel at each collocation point produces the trial basis.  The
basis inherits the homogeneous conditions exactly, its Gram matrix is
symmetric positive definite, and inverting the Cholesky factor gives the
orthonormalization coefficients.
"""

import numpy as np

from rkburgers import (
    CollocationGrid,
    assemble_gram,
    build_basis,
    build_example51,
    compute_beta,
    psi_eval,
)
from rkburgers.operator import _ctk_table

problem = build_example51(0.9)
grid = CollocationGrid.uniform(3, 3)
basis = build_basis(grid, problem)

print("collocation points (time index fastest):")
print(" ", grid.points)

# Every basis function vanishes exactly on xi = 0, xi = 1 and eta = 0.
b = basis[4]
print("\npsi_4 on the boundaries:",
      psi_eval(b, 0.0, 0.5), psi_eval(b, 1.0, 0.5), psi_eval(b, 0.5, 0.0))
print("psi_4 at an interior point:", psi_eval(b, 0.45, 0.8))

# The time factor of the fractional term is the Caputo transform of the
# cubic kernel, closed form via weighted moments.  The solver tabulates it
# once over the grid's distinct eta values: row eta, column t.
etas = np.unique([e for _, e in grid.points])
print("\nsingle Caputo transform table over eta = 1/3, 2/3, 1 (alpha = 0.9):")
print(_ctk_table(etas[:, None], etas[None, :], problem.alpha))

# Gram matrix, a function of the basis alone (each psi_i is centred at its
# collocation point): symmetric, positive definite, and orthonormalizable.
# The assembly also returns the psi rows that only the solver's sweep reads;
# they are dropped here.  beta depends on G alone.
g, _ = assemble_gram(basis)
print("\nGram matrix asymmetry:", float(np.max(np.abs(g - g.T))))
beta = compute_beta(g)
resid = np.max(np.abs(beta @ g @ beta.T - np.eye(grid.n)))
print("orthonormalization residual |beta G beta' - I|:", float(resid))
print("beta is lower triangular with positive diagonal:",
      bool(np.all(np.diag(beta) > 0)))
