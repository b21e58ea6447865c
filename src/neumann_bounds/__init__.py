"""Certified lower bounds for first nontrivial Neumann p-Laplace eigenvalues.

Convex-cell geometry, Poincare-constant aggregation over overlapping
covers, quasiconformal transfer of constants and eigenvalue bounds, and a
finite-element / descent oracle that verifies every emitted bound at desk
scale. Each name is imported from its own module: geometry, poincare,
qc_transfer, oracle or cli.
"""

__version__ = "0.1.0"
